//! Block-decoded scalar scoring (§3.5): the all-numeric scoring
//! queries (`linearregscore`, `clusterscore`) must take the
//! block-at-a-time path and produce results identical to the
//! row-at-a-time interpreter to within 1e-12.

use nlq_engine::{sqlgen, Db, ExecOptions, ResultSet};
use nlq_linalg::Vector;

fn scoring_db(n: usize, d: usize) -> Db {
    let db = Db::new(4);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|a| ((i * 31 + a * 7) % 97) as f64 * 0.5 - 20.0)
                .collect()
        })
        .collect();
    db.load_points("X", &rows, false).unwrap();
    db
}

fn assert_rows_close(block: &ResultSet, row: &ResultSet, tol: f64) {
    assert_eq!(block.rows.len(), row.rows.len());
    for (i, (b, r)) in block.rows.iter().zip(&row.rows).enumerate() {
        assert_eq!(b.len(), r.len(), "row {i} width");
        for (j, (x, y)) in b.iter().zip(r).enumerate() {
            match (x.as_f64(), y.as_f64()) {
                (Some(x), Some(y)) => assert!(
                    (x - y).abs() <= tol * y.abs().max(1.0),
                    "row {i} col {j}: {x} vs {y}"
                ),
                _ => assert_eq!(x, y, "row {i} col {j}"),
            }
        }
    }
}

/// Runs `sql` once on the block path and once on the row path (via the
/// per-statement override) and checks both stats and values.
fn block_vs_row(db: &Db, sql: &str) -> (ResultSet, ResultSet) {
    let block = db.execute(sql).unwrap();
    assert!(block.stats.block_path, "expected block path: {sql}");
    assert!(block.stats.blocks_scanned > 0);
    let row = db
        .execute_with(
            sql,
            &ExecOptions {
                block_scan: Some(false),
                ..ExecOptions::default()
            },
        )
        .unwrap();
    assert!(!row.stats.block_path);
    assert_eq!(row.stats.blocks_scanned, 0);
    assert_rows_close(&block, &row, 1e-12);
    (block, row)
}

#[test]
fn linearregscore_matches_row_path() {
    let db = scoring_db(3000, 4);
    let beta = Vector::from_vec(vec![0.25, -1.5, 3.0, 0.125]);
    db.register_beta("BETA", 2.5, &beta).unwrap();
    let names = sqlgen::x_cols(4);
    let sql = sqlgen::score_regression_udf("X", &names, "BETA");

    let (block, _) = block_vs_row(&db, &sql);
    assert_eq!(block.rows.len(), 3000);
    // The id column survives the block path as a real Int.
    assert_eq!(block.value(0, 0), &nlq_storage::Value::Int(1));
}

#[test]
fn clusterscore_matches_row_path() {
    let db = scoring_db(2000, 2);
    let centroids: Vec<Vector> = (0..8)
        .map(|j| Vector::from_vec(vec![j as f64 * 3.0 - 10.0, 5.0 - j as f64]))
        .collect();
    db.register_centroids("C", &centroids).unwrap();
    let names = sqlgen::x_cols(2);
    // Nested calls: clusterscore(distance(...), ...) — the pushdown
    // collapses the 8-way centroid join to one combination, so the
    // centroid coordinates compile to per-scan constants.
    let sql = sqlgen::score_cluster_udf("X", &names, 8, "C");
    block_vs_row(&db, &sql);
}

#[test]
fn block_path_handles_nulls_and_limit() {
    let db = Db::new(2);
    db.execute("CREATE TABLE X (i INT, X1 FLOAT, X2 FLOAT)")
        .unwrap();
    db.execute(
        "INSERT INTO X VALUES (1, 1.0, 2.0), (2, NULL, 3.0), \
         (3, 4.0, NULL), (4, 2.0, 1.0)",
    )
    .unwrap();
    db.register_beta("BETA", 1.0, &Vector::from_vec(vec![2.0, -1.0]))
        .unwrap();
    let names = sqlgen::x_cols(2);
    let sql = sqlgen::score_regression_udf("X", &names, "BETA");

    let (block, row) = block_vs_row(&db, &sql);
    assert_eq!(block.rows.len(), 4);
    assert_eq!(block.rows[1][1], row.rows[1][1], "NULL rows agree");

    let limited = db.execute(&format!("{sql} LIMIT 2")).unwrap();
    assert!(limited.stats.block_path);
    assert_eq!(limited.rows.len(), 2);
}

#[test]
fn explain_reports_block_mode_for_scoring() {
    let db = scoring_db(100, 2);
    db.register_beta("BETA", 0.0, &Vector::from_vec(vec![1.0, 1.0]))
        .unwrap();
    let names = sqlgen::x_cols(2);
    let sql = sqlgen::score_regression_udf("X", &names, "BETA");

    let plan: Vec<String> = db
        .execute(&format!("EXPLAIN {sql}"))
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_str().unwrap().to_owned())
        .collect();
    let plan = plan.join("\n");
    assert!(
        plan.contains("scan mode: block (1024-row column blocks over 3 numeric column(s))"),
        "{plan}"
    );

    // ORDER BY forces the row interpreter (and EXPLAIN says so).
    let plan_row = db
        .execute(&format!("EXPLAIN {sql} ORDER BY 1 DESC"))
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_str().unwrap().to_owned())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(plan_row.contains("scan mode: row-at-a-time"), "{plan_row}");
}

/// `twice(x)`: counts how many rows each path evaluates.
#[derive(Default)]
struct Twice {
    batch_rows: std::sync::atomic::AtomicUsize,
    row_evals: std::sync::atomic::AtomicUsize,
}

impl nlq_udf::ScalarUdf for Twice {
    fn name(&self) -> &str {
        "twice"
    }

    fn eval(&self, args: &[nlq_storage::Value]) -> nlq_udf::Result<nlq_storage::Value> {
        self.row_evals
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(args[0].as_f64().map_or(nlq_storage::Value::Null, |x| {
            nlq_storage::Value::Float(2.0 * x)
        }))
    }

    fn eval_batch_f64(
        &self,
        args: &[nlq_udf::ScalarBatchArg<'_>],
        rows: usize,
        out: &mut nlq_udf::FloatBatch,
    ) -> nlq_udf::Result<bool> {
        self.batch_rows
            .fetch_add(rows, std::sync::atomic::Ordering::Relaxed);
        let mut validity = vec![0u64; nlq_storage::bitmap_words(rows)];
        out.values = (0..rows)
            .map(|i| match args[0].at(i) {
                Some(x) => {
                    validity[i >> 6] |= 1 << (i & 63);
                    2.0 * x
                }
                None => 0.0,
            })
            .collect();
        out.validity = validity;
        Ok(true)
    }
}

/// A small LIMIT stays on the columnar batch path and computes only
/// the prefix of the block holding the rows it still needs: no
/// row-at-a-time calls, and the rows scored stop at the LIMIT-th
/// selected one.
#[test]
fn limit_scores_only_the_needed_prefix_in_one_batch() {
    let db = Db::new(1);
    let udf = std::sync::Arc::new(Twice::default());
    db.with_registry_mut(|r| r.register_scalar(udf.clone()));
    db.execute("CREATE TABLE X (i INT, X1 FLOAT)").unwrap();
    let values: Vec<String> = (0..3000)
        .map(|i| {
            let x = if i % 2 == 0 {
                "NULL".to_owned()
            } else {
                format!("{}.5", i % 7)
            };
            format!("({i}, {x})")
        })
        .collect();
    db.execute(&format!("INSERT INTO X VALUES {}", values.join(", ")))
        .unwrap();

    for (sql, scored) in [
        // The 5th row.
        ("SELECT i, twice(X1) FROM X LIMIT 5", 5),
        // The 5th odd `i` (X1 IS NOT NULL keeps odd rows) is row 9.
        (
            "SELECT i, twice(X1) FROM X WHERE X1 IS NOT NULL LIMIT 5",
            10,
        ),
    ] {
        udf.batch_rows
            .store(0, std::sync::atomic::Ordering::Relaxed);
        udf.row_evals.store(0, std::sync::atomic::Ordering::Relaxed);
        let block = db.execute(sql).unwrap();
        assert!(block.stats.block_path, "{sql}");
        assert_eq!(block.rows.len(), 5, "{sql}");
        assert_eq!(
            udf.row_evals.load(std::sync::atomic::Ordering::Relaxed),
            0,
            "{sql}"
        );
        assert_eq!(
            udf.batch_rows.load(std::sync::atomic::Ordering::Relaxed),
            scored,
            "{sql}"
        );
        let row = db
            .execute_with(
                sql,
                &ExecOptions {
                    block_scan: Some(false),
                    ..ExecOptions::default()
                },
            )
            .unwrap();
        assert_eq!(block.rows, row.rows, "{sql}");
    }
}
