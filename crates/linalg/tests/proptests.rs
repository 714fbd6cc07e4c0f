//! Property-based tests for the linear algebra kernels.
//!
//! These exercise algebraic invariants on randomly generated matrices:
//! transpose involution, (AB)^T = B^T A^T, solve/inverse consistency,
//! Cholesky and Jacobi reconstruction, and eigen/trace preservation.

use nlq_linalg::{invert, jacobi_eigen, least_squares, Cholesky, Lu, Matrix, Vector};
use nlq_testkit::{run_cases, Rng};

/// A square matrix with entries in [-10, 10].
fn square_matrix(rng: &mut Rng, n: usize) -> Matrix {
    let data = rng.vec_f64(n * n, -10.0, 10.0);
    Matrix::from_rows_slice(n, n, &data)
}

/// A random SPD matrix built as `B B^T + n*I` (guaranteed strictly
/// positive definite).
fn spd_matrix(rng: &mut Rng, n: usize) -> Matrix {
    let b = square_matrix(rng, n);
    let g = b.matmul(&b.transpose()).unwrap();
    let reg = Matrix::identity(n).scale(n as f64);
    g.try_add(&reg).unwrap()
}

fn vec_of(rng: &mut Rng, n: usize) -> Vector {
    Vector::from_vec(rng.vec_f64(n, -10.0, 10.0))
}

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

#[test]
fn transpose_is_involution() {
    run_cases(64, 0x11a1, |rng| {
        let m = square_matrix(rng, 4);
        assert_eq!(m.transpose().transpose(), m);
    });
}

#[test]
fn transpose_of_product() {
    run_cases(64, 0x11a2, |rng| {
        let a = square_matrix(rng, 3);
        let b = square_matrix(rng, 3);
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        for r in 0..3 {
            for c in 0..3 {
                assert!(close(lhs[(r, c)], rhs[(r, c)], 1e-10));
            }
        }
    });
}

#[test]
fn matmul_is_associative() {
    run_cases(64, 0x11a3, |rng| {
        let a = square_matrix(rng, 3);
        let b = square_matrix(rng, 3);
        let c = square_matrix(rng, 3);
        let lhs = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let rhs = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        for r in 0..3 {
            for col in 0..3 {
                assert!(close(lhs[(r, col)], rhs[(r, col)], 1e-8));
            }
        }
    });
}

#[test]
fn lu_solve_satisfies_system() {
    run_cases(64, 0x11a4, |rng| {
        let a = spd_matrix(rng, 4);
        let b = vec_of(rng, 4);
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for i in 0..4 {
            assert!(close(ax[i], b[i], 1e-7));
        }
    });
}

#[test]
fn inverse_roundtrip() {
    run_cases(64, 0x11a5, |rng| {
        let a = spd_matrix(rng, 3);
        let inv = invert(&a).unwrap();
        let prod = a.matmul(&inv).unwrap();
        let id = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert!(close(prod[(r, c)], id[(r, c)], 1e-7));
            }
        }
    });
}

#[test]
fn cholesky_reconstructs() {
    run_cases(64, 0x11a6, |rng| {
        let a = spd_matrix(rng, 4);
        let ch = Cholesky::new(&a).unwrap();
        let rec = ch.factor().matmul(&ch.factor().transpose()).unwrap();
        for r in 0..4 {
            for c in 0..4 {
                assert!(close(rec[(r, c)], a[(r, c)], 1e-8));
            }
        }
    });
}

#[test]
fn cholesky_and_lu_solve_agree() {
    run_cases(64, 0x11a7, |rng| {
        let a = spd_matrix(rng, 4);
        let b = vec_of(rng, 4);
        let x1 = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let x2 = Lu::new(&a).unwrap().solve(&b).unwrap();
        for i in 0..4 {
            assert!(close(x1[i], x2[i], 1e-7));
        }
    });
}

#[test]
fn cholesky_determinant_matches_lu() {
    run_cases(64, 0x11a8, |rng| {
        let a = spd_matrix(rng, 3);
        let d1 = Cholesky::new(&a).unwrap().determinant();
        let d2 = Lu::new(&a).unwrap().determinant();
        assert!(close(d1, d2, 1e-6));
    });
}

#[test]
fn eigen_preserves_trace_and_reconstructs() {
    run_cases(48, 0x11a9, |rng| {
        let a = spd_matrix(rng, 4);
        let e = jacobi_eigen(&a, 1e-13).unwrap();
        let sum: f64 = e.values.iter().sum();
        assert!(close(sum, a.trace(), 1e-8));

        // Eigenvalues of an SPD matrix are positive.
        for &v in &e.values {
            assert!(v > 0.0);
        }

        let d = Matrix::from_diagonal(&e.values);
        let rec = e
            .vectors
            .matmul(&d)
            .unwrap()
            .matmul(&e.vectors.transpose())
            .unwrap();
        for r in 0..4 {
            for c in 0..4 {
                assert!(close(rec[(r, c)], a[(r, c)], 1e-7));
            }
        }
    });
}

#[test]
fn eigenvalues_are_sorted_descending() {
    run_cases(48, 0x11aa, |rng| {
        let a = spd_matrix(rng, 5);
        let e = jacobi_eigen(&a, 1e-13).unwrap();
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-10);
        }
    });
}

#[test]
fn vector_distance_is_symmetric_and_nonnegative() {
    run_cases(64, 0x11ab, |rng| {
        let a = vec_of(rng, 6);
        let b = vec_of(rng, 6);
        let d1 = a.squared_distance(&b);
        let d2 = b.squared_distance(&a);
        assert!(close(d1, d2, 1e-12));
        assert!(d1 >= 0.0);
        assert_eq!(a.squared_distance(&a), 0.0);
    });
}

#[test]
fn qr_least_squares_residual_is_orthogonal_to_columns() {
    run_cases(64, 0x11ac, |rng| {
        let data = rng.vec_f64(8 * 3, -10.0, 10.0);
        let b = vec_of(rng, 8);
        let a = Matrix::from_rows_slice(8, 3, &data);
        // Skip (numerically) rank-deficient draws.
        let Ok(x) = least_squares(&a, &b) else { return };
        let ax = a.matvec(&x).unwrap();
        let residual = b.sub(&ax);
        // Normal equations optimality: A^T r = 0.
        let atr = a.transpose().matvec(&residual).unwrap();
        let scale = 1.0 + b.norm() * a.frobenius_norm();
        for i in 0..3 {
            assert!(atr[i].abs() <= 1e-7 * scale, "A^T r [{i}] = {}", atr[i]);
        }
    });
}

#[test]
fn qr_agrees_with_lu_on_square_systems() {
    run_cases(64, 0x11ad, |rng| {
        let a = spd_matrix(rng, 4);
        let b = vec_of(rng, 4);
        let via_qr = least_squares(&a, &b).unwrap();
        let via_lu = Lu::new(&a).unwrap().solve(&b).unwrap();
        for i in 0..4 {
            assert!(close(via_qr[i], via_lu[i], 1e-7));
        }
    });
}

#[test]
fn cauchy_schwarz() {
    run_cases(64, 0x11ae, |rng| {
        let a = vec_of(rng, 5);
        let b = vec_of(rng, 5);
        let lhs = a.dot(&b).abs();
        let rhs = a.norm() * b.norm();
        assert!(lhs <= rhs + 1e-9);
    });
}

// ---- Γ block kernels -------------------------------------------------

use nlq_linalg::kernels::{
    self, column_moments, column_moments_selected, rank1_triangular, Compactor,
};

/// Block lengths covering the empty block, the lane remainders, the
/// 64-bit word edges and a full scan block.
const BLOCK_LENS: [usize; 9] = [0, 1, 2, 3, 63, 64, 65, 1023, 1024];

/// The selection masks every kernel case runs under: `None` (dense),
/// then all rows, one row, every other row, and a random half.
fn masks(rng: &mut Rng, n: usize) -> Vec<Option<Vec<u64>>> {
    let words = |keep: &mut dyn FnMut(usize) -> bool| {
        let mut w = vec![0u64; n.div_ceil(64)];
        for i in 0..n {
            if keep(i) {
                w[i / 64] |= 1 << (i % 64);
            }
        }
        Some(w)
    };
    let single = rng.range_usize(0, n.max(1) - 1);
    vec![
        None,
        words(&mut |_| true),
        words(&mut |i| i == single),
        words(&mut |i| i % 2 == 1),
        words(&mut |_| rng.chance(0.5)),
    ]
}

/// The kept rows of every column, as dense copies.
fn kept_columns(cols: &[Vec<f64>], mask: Option<&[u64]>) -> Vec<Vec<f64>> {
    cols.iter()
        .map(|c| {
            c.iter()
                .enumerate()
                .filter(|(i, _)| mask.is_none_or(|m| m[i / 64] >> (i % 64) & 1 == 1))
                .map(|(_, &x)| x)
                .collect()
        })
        .collect()
}

fn slices(cols: &[Vec<f64>]) -> Vec<&[f64]> {
    cols.iter().map(Vec::as_slice).collect()
}

/// Every Γ kernel's output for one case, lower triangle row-major
/// (`stride = d`): dense triangular, selected triangular, full (lower
/// half checked against its mirror), and the diagonal from the fused
/// moments pass.
struct KernelOutputs {
    dense: Vec<f64>,
    selected: Vec<f64>,
    full: Vec<f64>,
    diagonal: Vec<f64>,
}

fn run_kernels(cols: &[Vec<f64>], mask: Option<&[u64]>) -> KernelOutputs {
    let d = cols.len();
    let kept = kept_columns(cols, mask);
    let mut dense = vec![0.0; d * d];
    kernels::block_triangular(&mut dense, d, &slices(&kept));
    let mut selected = vec![0.0; d * d];
    match mask {
        Some(m) => kernels::block_triangular_selected(&mut selected, d, &slices(cols), m),
        None => kernels::block_triangular(&mut selected, d, &slices(cols)),
    }
    let mut full = vec![0.0; d * d];
    kernels::block_full(&mut full, d, &slices(&kept));
    for a in 0..d {
        for b in 0..a {
            assert_eq!(full[a * d + b], full[b * d + a], "full mirror ({a}, {b})");
        }
    }
    let diagonal = kept
        .iter()
        .map(|c| column_moments(c, true).sum_sq)
        .collect();
    KernelOutputs {
        dense,
        selected,
        full,
        diagonal,
    }
}

/// Per-row rank-1 reference over the kept rows, and each cell's
/// `Σ|x_a·x_b|` (the scale a reassociated sum's error is measured in).
fn rank1_reference(kept: &[Vec<f64>]) -> (Vec<f64>, Vec<f64>) {
    let d = kept.len();
    let n = kept.first().map_or(0, Vec::len);
    let mut q = vec![0.0; d * d];
    let mut mass = vec![0.0; d * d];
    for i in 0..n {
        let x: Vec<f64> = kept.iter().map(|c| c[i]).collect();
        rank1_triangular(&mut q, d, &x);
        for a in 0..d {
            for b in 0..=a {
                mass[a * d + b] += (x[a] * x[b]).abs();
            }
        }
    }
    (q, mass)
}

/// Runs `check(d, n, mask, cols)` over d ∈ 1..=20, every block
/// length and every mask kind, with values from `value`.
fn for_each_kernel_case(
    seed: u64,
    mut value: impl FnMut(&mut Rng) -> f64,
    mut check: impl FnMut(usize, usize, Option<&[u64]>, &[Vec<f64>]),
) {
    let mut rng = Rng::new(seed);
    for d in 1..=20 {
        for n in BLOCK_LENS {
            let cols: Vec<Vec<f64>> = (0..d)
                .map(|_| (0..n).map(|_| value(&mut rng)).collect())
                .collect();
            for mask in masks(&mut rng, n) {
                check(d, n, mask.as_deref(), &cols);
            }
        }
    }
}

#[test]
fn gamma_kernels_match_rank1_updates() {
    for_each_kernel_case(
        0x6a3a,
        |rng| rng.range_f64(-1e3, 1e3),
        |d, n, mask, cols| {
            let out = run_kernels(cols, mask);
            let (want, mass) = rank1_reference(&kept_columns(cols, mask));
            let close = |got: f64, a: usize, b: usize| {
                let cell = a * d + b;
                (got - want[cell]).abs() <= 1e-12 * mass[cell]
            };
            for a in 0..d {
                for b in 0..=a {
                    let cell = a * d + b;
                    let case = format!("d={d} n={n} mask={} ({a}, {b})", mask.is_some());
                    assert!(close(out.dense[cell], a, b), "dense {case}");
                    assert!(close(out.selected[cell], a, b), "selected {case}");
                    assert!(close(out.full[cell], a, b), "full {case}");
                }
                assert!(close(out.diagonal[a], a, a), "diagonal d={d} n={n} ({a})");
            }
        },
    );
}

#[test]
fn gamma_kernels_are_exact_on_small_integers() {
    // |x| ≤ 1024: every product is below 2^20 and every partial sum
    // of at most 1024 of them below 2^30, so any summation order is
    // exact and every kernel must equal the row-by-row update bit for
    // bit.
    for_each_kernel_case(
        0x6a3b,
        |rng| rng.range_i64(-1024, 1024) as f64,
        |d, n, mask, cols| {
            let out = run_kernels(cols, mask);
            let (want, _) = rank1_reference(&kept_columns(cols, mask));
            for a in 0..d {
                for b in 0..=a {
                    let cell = a * d + b;
                    let case = format!("d={d} n={n} ({a}, {b})");
                    assert_eq!(out.dense[cell], want[cell], "dense {case}");
                    assert_eq!(out.selected[cell], want[cell], "selected {case}");
                    assert_eq!(out.full[cell], want[cell], "full {case}");
                }
                assert_eq!(out.diagonal[a], want[a * d + a], "diagonal d={d} n={n}");
            }
        },
    );
}

/// Neumaier-compensated sum: the reference the kernels' rounding
/// error is measured against.
fn neumaier(terms: impl Iterator<Item = f64>) -> f64 {
    let (mut s, mut c) = (0.0f64, 0.0f64);
    for t in terms {
        let u = s + t;
        c += if s.abs() >= t.abs() {
            (s - u) + t
        } else {
            (t - u) + s
        };
        s = u;
    }
    s + c
}

#[test]
fn lane_split_kernel_error_is_no_worse_than_a_dot_chain() {
    // Both sides sum the same rounded products, so the comparison
    // isolates summation order: the kernel's lane-split sums against
    // one strict left-to-right `dot` chain per cell. Errors are
    // relative to each cell's Σ|x_a·x_b|.
    let (mut lanes_max, mut chain_max) = (0.0f64, 0.0f64);
    for_each_kernel_case(
        0x6a3c,
        |rng| rng.range_f64(-1.0, 1.0) * 10f64.powf(rng.range_f64(-3.0, 3.0)),
        |d, _, mask, cols| {
            let kept = kept_columns(cols, mask);
            let out = run_kernels(cols, mask);
            let (_, mass) = rank1_reference(&kept);
            for a in 0..d {
                for b in 0..=a {
                    let cell = a * d + b;
                    if mass[cell] == 0.0 {
                        continue;
                    }
                    let exact = neumaier(kept[a].iter().zip(&kept[b]).map(|(x, y)| x * y));
                    let chain = kernels::dot(&kept[a], &kept[b]);
                    lanes_max = lanes_max.max((out.selected[cell] - exact).abs() / mass[cell]);
                    chain_max = chain_max.max((chain - exact).abs() / mass[cell]);
                }
            }
        },
    );
    eprintln!("max error / Σ|x_a·x_b|: lane-split {lanes_max:.3e}, dot chain {chain_max:.3e}");
    assert!(
        lanes_max <= chain_max,
        "lane-split {lanes_max:e} > dot chain {chain_max:e}"
    );
}

#[test]
fn selected_moments_equal_the_moments_of_the_kept_rows() {
    // Skipping clear rows in place and folding a compacted copy run
    // the same chain over the same values: equal bits, any data.
    for_each_kernel_case(
        0x6a3e,
        |rng| rng.range_f64(-1.0, 1.0) * 10f64.powf(rng.range_f64(-3.0, 3.0)),
        |_, n, mask, cols| {
            let Some(mask) = mask else { return };
            for (col, kept) in cols.iter().zip(kept_columns(cols, Some(mask))) {
                for with_sq in [false, true] {
                    assert_eq!(
                        column_moments_selected(col, mask, with_sq),
                        column_moments(&kept, with_sq),
                        "n={n}"
                    );
                }
            }
        },
    );
}

#[test]
fn compactor_reuse_matches_a_fresh_gather() {
    // One compactor across blocks of shrinking and growing selections
    // must give exactly what a fresh gather gives each time.
    run_cases(32, 0x6a3d, |rng| {
        let d = rng.range_usize(1, 6);
        let mut compactor = Compactor::default();
        for _ in 0..4 {
            let n = BLOCK_LENS[rng.range_usize(0, BLOCK_LENS.len() - 1)];
            let cols: Vec<Vec<f64>> = (0..d).map(|_| rng.vec_f64(n, -5.0, 5.0)).collect();
            let mask = masks(rng, n).pop().unwrap().unwrap();
            let kept = kept_columns(&cols, Some(&mask));
            assert_eq!(compactor.compact(&slices(&cols), &mask), kept[0].len());
            for (a, want) in kept.iter().enumerate() {
                assert_eq!(compactor.column(a), want.as_slice());
            }
        }
    });
}
