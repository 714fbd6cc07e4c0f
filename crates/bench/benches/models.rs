//! Micro-benchmarks for model building from precomputed summary
//! matrices (Table 3) and the underlying linear algebra kernels.

use nlq_bench::harness::{bench, bench_once};
use nlq_bench::{col_names, db_with_points, mixture_data, regression_data};
use nlq_engine::{sqlgen, ExecOptions};
use nlq_linalg::{invert, jacobi_eigen, Cholesky, Matrix};
use nlq_models::{
    CorrelationModel, FactorAnalysis, FactorAnalysisConfig, GaussianMixture, GaussianMixtureConfig,
    KMeans, KMeansConfig, LinearRegression, MatrixShape, Nlq, Pca, PcaInput,
};
use nlq_udf::ParamStyle;

fn bench_model_builds() {
    for d in [8usize, 32] {
        let rows = regression_data(5000, d - 1, 0xc201 + d as u64);
        let nlq = Nlq::from_rows(d, MatrixShape::Triangular, &rows);
        bench("model_build_from_nlq", &format!("correlation/{d}"), || {
            CorrelationModel::fit(&nlq).unwrap()
        });
        bench("model_build_from_nlq", &format!("regression/{d}"), || {
            LinearRegression::fit(&nlq).unwrap()
        });
        bench("model_build_from_nlq", &format!("pca/{d}"), || {
            Pca::fit(&nlq, d / 2, PcaInput::Correlation).unwrap()
        });
    }
}

fn bench_nlq_accumulate() {
    for d in [8usize, 64] {
        let rows = mixture_data(1000, d, 0xc202 + d as u64);
        for shape in [
            MatrixShape::Diagonal,
            MatrixShape::Triangular,
            MatrixShape::Full,
        ] {
            bench(
                "nlq_accumulate_per_point",
                &format!("{}/{d}", shape.name()),
                || {
                    let mut s = Nlq::new(d, shape);
                    for r in &rows {
                        s.update(r);
                    }
                    s
                },
            );
        }
    }
}

fn bench_clustering() {
    let rows = mixture_data(2000, 4, 0xc203);
    bench_once("clustering", "kmeans_k8", || {
        KMeans::fit(&rows, &KMeansConfig::new(8)).unwrap()
    });
    bench_once("clustering", "em_k4", || {
        let cfg = GaussianMixtureConfig {
            max_iters: 10,
            ..GaussianMixtureConfig::new(4)
        };
        GaussianMixture::fit(&rows, &cfg).unwrap()
    });
}

fn bench_factor_analysis() {
    let rows = mixture_data(2000, 8, 0xc204);
    let nlq = Nlq::from_rows(8, MatrixShape::Triangular, &rows);
    bench_once("factor_analysis", "em_k2", || {
        let cfg = FactorAnalysisConfig {
            max_iters: 25,
            ..FactorAnalysisConfig::new(2)
        };
        FactorAnalysis::fit(&nlq, &cfg).unwrap()
    });
}

fn bench_linalg_kernels() {
    for d in [16usize, 64] {
        // SPD matrix from a covariance computation.
        let rows = mixture_data(500, d, 0xc205 + d as u64);
        let cov = Nlq::from_rows(d, MatrixShape::Triangular, &rows)
            .covariance()
            .unwrap();
        bench("linalg", &format!("lu_invert/{d}"), || {
            invert(&cov).unwrap()
        });
        bench("linalg", &format!("cholesky/{d}"), || {
            Cholesky::new(&cov).unwrap()
        });
        bench("linalg", &format!("jacobi_eigen/{d}"), || {
            jacobi_eigen(&cov, 1e-10).unwrap()
        });
        let other = Matrix::from_fn(d, d, |r, c| ((r * 31 + c * 7) % 17) as f64);
        bench("linalg", &format!("matmul/{d}"), || {
            cov.matmul(&other).unwrap()
        });
    }
}

fn bench_row_vs_block_scan() {
    // The Γ (n, L, Q) scan, row-at-a-time vs the block-at-a-time
    // vectorized path, over the full engine (parse → plan → parallel
    // partition scan → aggregate UDF). `NLQ_BENCH_N` overrides the
    // row count (default 1,000,000).
    let n: usize = std::env::var("NLQ_BENCH_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000);
    for d in [4usize, 8, 16] {
        let rows = mixture_data(n, d, 0xc206 + d as u64);
        let sql = sqlgen::nlq_udf_query(
            "X",
            &col_names(d),
            MatrixShape::Triangular,
            ParamStyle::List,
        );
        let db = db_with_points(4, &rows, false);
        drop(rows);
        for (mode, on) in [("row", false), ("block", true)] {
            let opts = ExecOptions {
                block_scan: Some(on),
                ..ExecOptions::default()
            };
            bench("nlq_scan_mode", &format!("{mode}/{d}"), || {
                db.execute_with(&sql, &opts).unwrap()
            });
        }
    }
}

fn main() {
    bench_model_builds();
    bench_nlq_accumulate();
    bench_clustering();
    bench_factor_analysis();
    bench_linalg_kernels();
    bench_row_vs_block_scan();
}
