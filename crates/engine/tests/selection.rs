//! Selection-bitmap predicate evaluation: filtered queries on the
//! block path must reproduce the row interpreter's SQL three-valued
//! logic exactly, a summary read after DML must scan nothing, and Int
//! columns beyond the exact-`f64` range must fall back to the row
//! path.

use nlq_engine::{sqlgen, Db, ExecOptions, ResultSet};
use nlq_linalg::Vector;
use nlq_udf::pack::unpack_nlq;

/// A table with NULL holes in both float columns.
fn holey_db() -> Db {
    let db = Db::new(2);
    db.execute("CREATE TABLE X (i INT, X1 FLOAT, X2 FLOAT)")
        .unwrap();
    let mut values = Vec::new();
    for i in 0..600 {
        let x1 = if i % 7 == 3 {
            "NULL".to_owned()
        } else {
            format!("{:.1}", (i % 23) as f64 - 11.0)
        };
        let x2 = if i % 11 == 5 {
            "NULL".to_owned()
        } else {
            format!("{:.1}", (i % 17) as f64 - 8.0)
        };
        values.push(format!("({}, {x1}, {x2})", i + 1));
    }
    db.execute(&format!("INSERT INTO X VALUES {}", values.join(", ")))
        .unwrap();
    db
}

fn assert_rows_close(block: &ResultSet, row: &ResultSet, tol: f64) {
    assert_eq!(block.rows.len(), row.rows.len(), "row count");
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

/// Runs `sql` on the block path (asserting it really took it) and on
/// the row path, and checks the results agree.
fn block_vs_row(db: &Db, sql: &str) -> ResultSet {
    let block = db.execute(sql).unwrap();
    assert!(block.stats.block_path, "expected block path: {sql}");
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
    assert_rows_close(&block, &row, 1e-12);
    block
}

fn plan_text(db: &Db, sql: &str) -> String {
    db.execute(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_str().unwrap().to_owned())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn null_predicate_under_not_keeps_three_valued_logic() {
    let db = holey_db();
    // `NOT (X1 > 0)` on a NULL coordinate is NOT unknown = unknown:
    // the row must stay excluded, not flip to included as a boolean
    // `false` would under negation.
    for sql in [
        "SELECT count(*), sum(X2) FROM X WHERE NOT (X1 > 0)",
        "SELECT i, X1 FROM X WHERE NOT (X1 > 0)",
        "SELECT count(*) FROM X WHERE NOT (X1 > 0 AND X2 > 0)",
    ] {
        block_vs_row(&db, sql);
    }
}

#[test]
fn null_predicate_under_or_keeps_three_valued_logic() {
    let db = holey_db();
    // `unknown OR true` is true: a NULL X1 with a qualifying X2 must
    // stay included.
    for sql in [
        "SELECT count(*), sum(X1), sum(X2) FROM X WHERE X1 > 2 OR X2 > 2",
        "SELECT i FROM X WHERE X1 > 2 OR X2 > 2",
        "SELECT count(*) FROM X WHERE NOT (X1 > 2 OR X2 > 2)",
    ] {
        block_vs_row(&db, sql);
    }
}

#[test]
fn filtered_aggregates_match_row_path() {
    let db = holey_db();
    for sql in [
        "SELECT count(*), count(X1), sum(X1), avg(X2) FROM X WHERE X2 >= 3",
        "SELECT min(X1), max(X1) FROM X WHERE X2 < -6",
        "SELECT corr(X1, X2), stddev(X1) FROM X WHERE X1 <> 0",
        "SELECT sum(X1 * X2) FROM X WHERE X1 <= X2",
        "SELECT count(*) FROM X WHERE X1 IS NULL",
        "SELECT sum(X1) FROM X WHERE X1 IS NOT NULL AND X2 IS NULL",
        // Predicate over an Int column (widened in the block scan).
        "SELECT sum(X2) FROM X WHERE i > 550 OR X1 > 10",
        // Arithmetic inside a predicate is outside the compilable
        // subset and must fall back to the row path.
        "SELECT sum(X2) FROM X WHERE i % 2 = 0 OR i > 550",
        // Selection that keeps no rows at all.
        "SELECT count(*), sum(X1), min(X2) FROM X WHERE X1 > 1000",
    ] {
        let rs = db.execute(sql).unwrap();
        if sql.contains('%') {
            // `%` is arithmetic: not block-compilable, row path.
            assert!(!rs.stats.block_path, "{sql}");
            continue;
        }
        block_vs_row(&db, sql);
    }
}

#[test]
fn filtered_nlq_udf_matches_row_path() {
    let db = holey_db();
    let sql = "SELECT nlq_list(2, 'full', X1, X2) FROM X WHERE X1 > -5 AND X2 <= 4";
    let block = db.execute(sql).unwrap();
    assert!(block.stats.block_path, "{sql}");
    let row = db
        .execute_with(
            sql,
            &ExecOptions {
                block_scan: Some(false),
                ..ExecOptions::default()
            },
        )
        .unwrap();
    // Compare the packed Γ payloads after unpacking: the selection
    // bitmap must feed the UDF exactly the rows the interpreter kept.
    assert_eq!(block.rows.len(), row.rows.len());
    let unpack = |rs: &ResultSet| unpack_nlq(rs.value(0, 0).as_str().unwrap()).unwrap();
    let (b, r) = (unpack(&block), unpack(&row));
    assert_eq!(b.d(), r.d());
    assert_eq!(b.n(), r.n());
    for i in 0..b.d() {
        let (x, y) = (b.l()[i], r.l()[i]);
        assert!(
            (x - y).abs() <= 1e-12 * y.abs().max(1.0),
            "L[{i}]: {x} vs {y}"
        );
        for j in 0..b.d() {
            let (x, y) = (b.q_full()[(i, j)], r.q_full()[(i, j)]);
            assert!(
                (x - y).abs() <= 1e-12 * y.abs().max(1.0),
                "Q[{i},{j}]: {x} vs {y}"
            );
        }
    }
}

#[test]
fn filtered_scoring_query_runs_vectorized() {
    let db = Db::new(4);
    let rows: Vec<Vec<f64>> = (0..3000)
        .map(|i| {
            (0..3)
                .map(|a| ((i * 31 + a * 7) % 97) as f64 * 0.5 - 20.0)
                .collect()
        })
        .collect();
    db.load_points("X", &rows, false).unwrap();
    db.register_beta("BETA", 2.5, &Vector::from_vec(vec![0.25, -1.5, 3.0]))
        .unwrap();
    let names = sqlgen::x_cols(3);
    let score = sqlgen::score_regression_udf("X", &names, "BETA");
    // Append a WHERE to the scoring join: the predicate touches only
    // base columns, so it compiles to a selection bitmap while the
    // model coefficients stay per-scan constants.
    let filtered = format!("{score} WHERE x.X1 > 0 OR x.X2 > 10");

    let block = block_vs_row(&db, &filtered);
    assert!(!block.rows.is_empty());
    let plan = plan_text(&db, &format!("EXPLAIN {filtered}"));
    assert!(
        plan.contains("scan mode: block") && plan.contains("predicate(s) as selection bitmap"),
        "{plan}"
    );

    // LIMIT composes with the selection (workers stop early).
    let limited = db.execute(&format!("{filtered} LIMIT 5")).unwrap();
    assert!(limited.stats.block_path);
    assert_eq!(limited.rows.len(), 5);
}

#[test]
fn int_columns_beyond_exact_f64_range_fall_back() {
    let exact = 1i64 << 53;
    let db = Db::new(2);
    db.execute("CREATE TABLE B (v INT, X1 FLOAT)").unwrap();
    db.execute(&format!("INSERT INTO B VALUES ({exact}, 1.0), (3, 2.0)"))
        .unwrap();
    // 2^53 itself round-trips exactly: block path, exact value.
    let rs = db.execute("SELECT v FROM B").unwrap();
    assert!(rs.stats.block_path);
    assert_eq!(rs.value(0, 0), &nlq_storage::Value::Int(exact));

    // 2^53 + 1 does not: the planner must refuse the widening and the
    // row path must return the value un-mangled.
    db.execute(&format!("INSERT INTO B VALUES ({}, 3.0)", exact + 1))
        .unwrap();
    let plan = plan_text(&db, "EXPLAIN SELECT v FROM B");
    assert!(plan.contains("exceeds the exact f64 range"), "{plan}");
    let rs = db.execute("SELECT v FROM B").unwrap();
    assert!(!rs.stats.block_path);
    assert!(
        rs.rows
            .iter()
            .any(|r| r[0] == nlq_storage::Value::Int(exact + 1)),
        "row path must preserve 2^53 + 1 exactly"
    );

    // A negative overflow on the other side of the range too.
    let db2 = Db::new(2);
    db2.execute("CREATE TABLE C (v INT, X1 FLOAT)").unwrap();
    db2.execute(&format!("INSERT INTO C VALUES ({}, 1.0)", -(exact + 1)))
        .unwrap();
    let rs = db2.execute("SELECT v FROM C").unwrap();
    assert!(!rs.stats.block_path);
    assert_eq!(rs.value(0, 0), &nlq_storage::Value::Int(-(exact + 1)));

    // So do predicates on such a column, even when the projections
    // avoid it: the row path compares two Ints exactly, and the block
    // path's widened f64 could not tell 2^53 from 2^53 + 1.
    let rs = db
        .execute(&format!("SELECT X1 FROM B WHERE v > {exact}"))
        .unwrap();
    assert!(!rs.stats.block_path);
    assert_eq!(rs.rows.len(), 1);
}

#[test]
fn summary_reads_after_dml_scan_nothing() {
    let db = Db::new(2);
    let rows: Vec<Vec<f64>> = (0..600)
        .map(|i| vec![(i % 23) as f64 - 11.0, (i % 17) as f64 - 8.0])
        .collect();
    db.load_points("X", &rows, false).unwrap();
    db.execute("CREATE SUMMARY sx ON X (X1, X2)").unwrap();

    // DELETE and UPDATE build the summary again as part of the
    // statement, so the read after each is a free answer, and EXPLAIN
    // ANALYZE shows a summary lookup and no scan phase.
    for dml in [
        "DELETE FROM X WHERE i > 599",
        "UPDATE X SET X1 = 0.5 WHERE i = 1",
    ] {
        db.execute(dml).unwrap();
        let rs = db.execute("SELECT sum(X1) FROM X").unwrap();
        assert!(rs.stats.summary_path, "{dml}");
        assert_eq!(rs.stats.rows_scanned, 0, "{dml}");
        let plan = plan_text(&db, "EXPLAIN ANALYZE SELECT sum(X1) FROM X");
        assert!(plan.contains("phase summary-lookup: "), "{plan}");
        assert!(!plan.contains("phase scan: "), "{plan}");
        assert!(plan.contains("rows scanned: 0"), "{plan}");
        assert!(
            plan.contains("scan mode: summary (answered from materialized Γ, no scan)"),
            "{plan}"
        );
    }
}
