//! End-to-end tests for the materialized Γ summary store: DDL, the
//! planner rewrite, incremental maintenance under INSERT, the build
//! from the rewritten table under DELETE/UPDATE, CREATE SUMMARY beside
//! concurrent INSERTs, and EXPLAIN output (including the block-path
//! fallback reasons).

use nlq_engine::{Db, ExecOptions};
use nlq_models::Nlq;
use nlq_udf::pack::unpack_nlq;

fn plan_text(db: &Db, sql: &str) -> String {
    plan_text_with(db, sql, &ExecOptions::default())
}

fn plan_text_with(db: &Db, sql: &str, opts: &ExecOptions) -> String {
    let rs = db.execute_with(sql, opts).unwrap();
    rs.rows
        .iter()
        .map(|r| r[0].as_str().unwrap().to_owned())
        .collect::<Vec<_>>()
        .join("\n")
}

fn points_db(n: usize, d: usize) -> Db {
    let db = Db::new(4);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|a| (i * (a + 1)) as f64 * 0.25 - (a as f64))
                .collect()
        })
        .collect();
    db.load_points("pts", &rows, false).unwrap();
    db
}

fn unpack_cell(db: &Db, sql: &str) -> (Nlq, nlq_engine::ExecStats) {
    let rs = db.execute(sql).unwrap();
    let packed = rs.value(0, 0).as_str().expect("packed nLQ string");
    (unpack_nlq(packed).unwrap(), rs.stats)
}

fn assert_nlq_close(a: &Nlq, b: &Nlq, tol: f64) {
    assert_eq!(a.d(), b.d());
    assert_eq!(a.n(), b.n());
    for i in 0..a.d() {
        let (x, y) = (a.l()[i], b.l()[i]);
        assert!(
            (x - y).abs() <= tol * y.abs().max(1.0),
            "L[{i}]: {x} vs {y}"
        );
        for j in 0..a.d() {
            let (x, y) = (a.q_full()[(i, j)], b.q_full()[(i, j)]);
            assert!(
                (x - y).abs() <= tol * y.abs().max(1.0),
                "Q[{i},{j}]: {x} vs {y}"
            );
        }
    }
}

#[test]
fn summary_lifecycle_matches_block_scan() {
    let db = points_db(5000, 4);
    let q = "SELECT nlq_list(4, 'triang', X1, X2, X3, X4) FROM pts";

    // Baseline: the block scan answers, no summary registered.
    let (scan0, stats) = unpack_cell(&db, q);
    assert!(stats.block_path && !stats.summary_path);

    db.execute("CREATE SUMMARY s ON pts (X1, X2, X3, X4)")
        .unwrap();
    assert_eq!(db.summaries().list(), vec![("s".into(), "pts".into())]);

    // Hit: answered from the summary with no scan at all, identical
    // statistics to within 1e-12 relative.
    let (hit, stats) = unpack_cell(&db, q);
    assert!(stats.summary_path, "{stats:?}");
    assert_eq!(stats.summary_hits, 1);
    assert_eq!(stats.rows_scanned, 0);
    assert_eq!(stats.blocks_scanned, 0);
    assert_nlq_close(&hit, &scan0, 1e-12);
    let plan = plan_text(&db, &format!("EXPLAIN {q}"));
    assert!(plan.contains("scan mode: summary (s)"), "{plan}");

    // INSERT folds the delta in: the next read is still a hit.
    db.execute(
        "INSERT INTO pts VALUES (5001, 3.5, -1.25, 8.0, 0.5), \
         (5002, -2.0, 4.75, 1.0, 9.5)",
    )
    .unwrap();
    let (hit, stats) = unpack_cell(&db, q);
    assert!(stats.summary_path && stats.rows_scanned == 0);
    assert_eq!(hit.n(), 5002.0);

    // DELETE builds it again from the rewritten table, so the next
    // read is a hit too.
    db.execute("DELETE FROM pts WHERE i <= 100").unwrap();
    let plan = plan_text(&db, &format!("EXPLAIN {q}"));
    assert!(plan.contains("scan mode: summary (s)"), "{plan}");
    let (built, stats) = unpack_cell(&db, q);
    assert!(stats.summary_path && stats.rows_scanned == 0);
    assert_eq!(built.n(), 4902.0);

    // Drop the summary: the same query falls back to the block scan
    // and agrees with the summary's answer to within 1e-12.
    db.execute("DROP SUMMARY s").unwrap();
    let (scan1, stats) = unpack_cell(&db, q);
    assert!(!stats.summary_path && stats.block_path);
    assert_nlq_close(&built, &scan1, 1e-12);
}

#[test]
fn summary_answers_plain_aggregates_and_projections() {
    let db = points_db(2000, 2);
    db.execute("CREATE SUMMARY s2 ON pts (X1, X2) SHAPE full")
        .unwrap();

    let q = "SELECT count(*), avg(X1), sum(X2), min(X1), max(X2), \
             var_pop(X1), covar_pop(X1, X2), corr(X1, X2) FROM pts";
    let with = db.execute(q).unwrap();
    assert!(with.stats.summary_path);
    assert_eq!(with.stats.rows_scanned, 0);

    db.execute("DROP SUMMARY s2").unwrap();
    let without = db.execute(q).unwrap();
    assert!(!without.stats.summary_path);

    assert_eq!(with.value(0, 0), without.value(0, 0)); // count
    for c in 1..8 {
        let (a, b) = (with.f64(0, c).unwrap(), without.f64(0, c).unwrap());
        assert!(
            (a - b).abs() <= 1e-12 * b.abs().max(1.0),
            "col {c}: {a} vs {b}"
        );
    }

    // A projected sub-Γ in a different column order also hits.
    let (hit, stats) = unpack_cell(
        &db2_with_summary(),
        "SELECT nlq_list(1, 'diag', X2) FROM pts",
    );
    assert!(stats.summary_path);
    assert_eq!(hit.d(), 1);
}

fn db2_with_summary() -> Db {
    let db = points_db(2000, 2);
    db.execute("CREATE SUMMARY s2 ON pts (X1, X2) SHAPE full")
        .unwrap();
    db
}

#[test]
fn grouped_summary_answers_group_by() {
    let db = Db::new(3);
    let rows: Vec<Vec<f64>> = (0..600)
        .map(|i| vec![(i as f64) * 0.5, (i % 5) as f64])
        .collect();
    // X(i, X1, Y): group on Y.
    db.load_points("pts", &rows, true).unwrap();
    db.execute("CREATE SUMMARY g ON pts (X1) SHAPE diag GROUP BY Y")
        .unwrap();

    let q = "SELECT Y, count(*), avg(X1), nlq_list(1, 'diag', X1) FROM pts GROUP BY Y";
    let with = db.execute(q).unwrap();
    assert!(with.stats.summary_path, "{:?}", with.stats);
    assert_eq!(with.len(), 5);

    db.execute("DROP SUMMARY g").unwrap();
    let without = db.execute(q).unwrap();
    assert!(!without.stats.summary_path);
    assert_eq!(with.len(), without.len());
    for r in 0..with.len() {
        assert_eq!(with.value(r, 0), without.value(r, 0));
        assert_eq!(with.value(r, 1), without.value(r, 1));
        let (a, b) = (with.f64(r, 2).unwrap(), without.f64(r, 2).unwrap());
        assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0));
        let x = unpack_nlq(with.value(r, 3).as_str().unwrap()).unwrap();
        let y = unpack_nlq(without.value(r, 3).as_str().unwrap()).unwrap();
        assert_nlq_close(&x, &y, 1e-12);
    }
}

#[test]
fn summary_misses_fall_back_to_scan() {
    let db = points_db(500, 2);
    db.execute("CREATE SUMMARY s ON pts (X1)").unwrap();

    // X2 is not summarized: structural mismatch, counted as a miss.
    let rs = db.execute("SELECT avg(X2) FROM pts").unwrap();
    assert!(!rs.stats.summary_path);
    assert_eq!(rs.stats.summary_misses, 1);

    // A WHERE predicate disqualifies the rewrite outright (no miss:
    // the summary was never a candidate for a filtered scan).
    let rs = db.execute("SELECT avg(X1) FROM pts WHERE X2 > 0").unwrap();
    assert!(!rs.stats.summary_path);
    assert_eq!(rs.stats.summary_misses, 0);

    // A triangular summary cannot serve a full-shape nLQ request.
    let rs = db
        .execute("SELECT nlq_list(1, 'full', X1) FROM pts")
        .unwrap();
    assert!(!rs.stats.summary_path);
    assert_eq!(rs.stats.summary_misses, 1);
}

#[test]
fn null_rows_restrict_plain_aggregates_but_not_full_nlq() {
    let db = Db::new(2);
    db.execute("CREATE TABLE t (x FLOAT, y FLOAT)").unwrap();
    db.execute("INSERT INTO t VALUES (1.0, 2.0), (NULL, 3.0), (4.0, 5.0)")
        .unwrap();
    db.execute("CREATE SUMMARY s ON t (x, y)").unwrap();

    // count(*) counts the NULL-bearing row; the summary's n does not —
    // it must NOT answer (and the scan result must stay correct).
    let rs = db.execute("SELECT count(*) FROM t").unwrap();
    assert!(!rs.stats.summary_path);
    assert_eq!(rs.value(0, 0), &nlq_storage::Value::Int(3));

    // The full-width nLQ has the same row-skip rule as the summary,
    // so it still hits.
    let rs = db
        .execute("SELECT nlq_list(2, 'triang', x, y) FROM t")
        .unwrap();
    assert!(rs.stats.summary_path);
    let nlq = unpack_nlq(rs.value(0, 0).as_str().unwrap()).unwrap();
    assert_eq!(nlq.n(), 2.0);

    // A strict-subset projection would have a different skip set: miss.
    let rs = db.execute("SELECT nlq_list(1, 'diag', y) FROM t").unwrap();
    assert!(!rs.stats.summary_path);
}

#[test]
fn summary_ddl_errors() {
    let db = points_db(10, 2);
    db.execute("CREATE SUMMARY s ON pts (X1)").unwrap();
    assert!(db.execute("CREATE SUMMARY s ON pts (X2)").is_err()); // duplicate
    assert!(db.execute("CREATE SUMMARY t ON nope (X1)").is_err()); // unknown table
    assert!(db.execute("CREATE SUMMARY t ON pts (zzz)").is_err()); // unknown column
    assert!(db.execute("CREATE SUMMARY t ON pts (i)").is_err()); // not float
    assert!(db
        .execute("CREATE SUMMARY t ON pts (X1) SHAPE oval")
        .is_err());
    assert!(db.execute("DROP SUMMARY nope").is_err());
    db.execute("DROP SUMMARY s").unwrap();
    assert!(db.summaries().is_empty());

    // DROP TABLE takes its summaries with it.
    db.execute("CREATE SUMMARY s ON pts (X1)").unwrap();
    db.execute("DROP TABLE pts").unwrap();
    assert!(db.summaries().is_empty());
}

#[test]
fn update_builds_the_summary_from_the_new_values() {
    let db = points_db(100, 2);
    db.execute("CREATE SUMMARY s ON pts (X1, X2)").unwrap();
    db.execute("UPDATE pts SET X1 = X1 + 100.0 WHERE i <= 50")
        .unwrap();

    let q = "SELECT nlq_list(2, 'triang', X1, X2) FROM pts";
    let (built, stats) = unpack_cell(&db, q);
    assert!(stats.summary_path && stats.rows_scanned == 0);
    db.execute("DROP SUMMARY s").unwrap();
    let (scan, _) = unpack_cell(&db, q);
    assert_nlq_close(&built, &scan, 1e-12);
}

#[test]
fn explain_states_block_fallback_reason() {
    let db = points_db(100, 2);

    let plan = plan_text(&db, "EXPLAIN SELECT X2, sum(X1) FROM pts GROUP BY X2");
    assert!(
        plan.contains("scan mode: row-at-a-time (GROUP BY requires row grouping)"),
        "{plan}"
    );

    // A comparison predicate compiles to a selection bitmap and stays
    // on the block path; an arithmetic one does not and falls back.
    let plan = plan_text(&db, "EXPLAIN SELECT sum(X1) FROM pts WHERE X2 > 1");
    assert!(
        plan.contains("1 predicate(s) as selection bitmap"),
        "{plan}"
    );
    let plan = plan_text(&db, "EXPLAIN SELECT sum(X1) FROM pts WHERE X1 * X2 > 1");
    assert!(
        plan.contains("scan mode: row-at-a-time (1 residual predicate(s) not block-compilable)"),
        "{plan}"
    );

    let plan = plan_text(&db, "EXPLAIN SELECT sum(i) FROM pts");
    assert!(
        plan.contains(
            "scan mode: row-at-a-time (aggregate arguments are not all float base-table columns)"
        ),
        "{plan}"
    );

    let db = points_db(100, 2);
    let row_scan = ExecOptions {
        block_scan: Some(false),
        ..ExecOptions::default()
    };
    let plan = plan_text_with(&db, "EXPLAIN SELECT sum(X1) FROM pts", &row_scan);
    assert!(
        plan.contains("scan mode: row-at-a-time (block scan disabled)"),
        "{plan}"
    );
}

#[test]
fn delete_keeps_no_minmax_summary_exact() {
    let db = points_db(400, 2);
    db.execute("CREATE SUMMARY s ON pts (X1, X2) SHAPE diag NO MINMAX")
        .unwrap();

    db.execute("DELETE FROM pts WHERE i <= 150").unwrap();
    let q = "SELECT nlq_list(2, 'diag', X1, X2) FROM pts";
    let (folded, stats) = unpack_cell(&db, q);
    assert!(stats.summary_path, "{stats:?}");
    assert_eq!(stats.rows_scanned, 0, "DELETE must not force a rescan");
    assert_eq!(folded.n(), 250.0);

    // Plain aggregates also answer scan-free from the folded summary.
    let rs = db
        .execute("SELECT count(*), sum(X1), avg(X2) FROM pts")
        .unwrap();
    assert!(rs.stats.summary_path);
    assert_eq!(rs.stats.rows_scanned, 0);

    // Both agree with a from-scratch block scan.
    db.execute("DROP SUMMARY s").unwrap();
    let (scan, stats) = unpack_cell(&db, q);
    assert!(stats.block_path);
    assert_nlq_close(&folded, &scan, 1e-12);
}

#[test]
fn no_minmax_summary_does_not_answer_min_max() {
    let db = points_db(100, 2);
    db.execute("CREATE SUMMARY s ON pts (X1, X2) NO MINMAX")
        .unwrap();

    // min/max recipes are gated off: these fall back to the scan.
    let rs = db.execute("SELECT min(X1), max(X2) FROM pts").unwrap();
    assert!(!rs.stats.summary_path, "{:?}", rs.stats);
    assert!(rs.stats.rows_scanned > 0);

    // ... while moment aggregates still hit the summary.
    let rs = db.execute("SELECT sum(X1), count(X2) FROM pts").unwrap();
    assert!(rs.stats.summary_path);
}

#[test]
fn delete_of_the_extremes_moves_the_summary_bounds() {
    let db = points_db(100, 2);
    db.execute("CREATE SUMMARY s ON pts (X1, X2)").unwrap();
    // Row i holds X1 = (i - 1) * 0.25: these are the ten smallest and
    // the ten largest.
    db.execute("DELETE FROM pts WHERE i <= 10 OR i > 90")
        .unwrap();
    let q = "SELECT min(X1), max(X1), min(X2), max(X2) FROM pts";
    let hit = db.execute(q).unwrap();
    assert!(hit.stats.summary_path && hit.stats.rows_scanned == 0);
    assert_eq!(hit.f64(0, 0), Some(2.5));
    db.execute("DROP SUMMARY s").unwrap();
    let scan = db.execute(q).unwrap();
    assert!(!scan.stats.summary_path);
    assert_eq!(hit.rows, scan.rows);
}

#[test]
fn delete_with_null_coordinates_stays_exact() {
    let db = Db::new(2);
    db.execute("CREATE TABLE pts (i INT, X1 FLOAT, X2 FLOAT)")
        .unwrap();
    db.execute(
        "INSERT INTO pts VALUES (1, 1.0, 2.0), (2, NULL, 3.0), \
         (3, 4.0, 5.0), (4, 2.5, NULL), (5, -1.0, 0.5)",
    )
    .unwrap();
    db.execute("CREATE SUMMARY s ON pts (X1, X2) NO MINMAX")
        .unwrap();

    // The deleted batch mixes a complete row and a NULL-coordinate
    // one; the built state skips exactly the surviving NULL row.
    db.execute("DELETE FROM pts WHERE i <= 2").unwrap();
    assert_eq!(
        db.summaries()
            .get("s")
            .unwrap()
            .snapshot()
            .null_rows_skipped,
        1
    );

    let q = "SELECT nlq_list(2, 'triang', X1, X2) FROM pts";
    let (folded, stats) = unpack_cell(&db, q);
    assert!(stats.summary_path && stats.rows_scanned == 0);
    assert_eq!(folded.n(), 2.0); // rows 3 and 5; row 4 has a NULL

    db.execute("DROP SUMMARY s").unwrap();
    let (scan, _) = unpack_cell(&db, q);
    assert_nlq_close(&folded, &scan, 1e-12);
}

/// CREATE SUMMARY builds and registers under the DML lock: a
/// single-row INSERT from another session lands either before the
/// build (and is scanned) or after the registration (and is folded),
/// never between, so the summary counts what a scan counts.
#[test]
fn create_summary_misses_no_concurrent_insert() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    // One partition, so the build is one long scan that single-row
    // INSERTs from another session keep landing beside.
    let db = Arc::new(Db::new(1));
    let n = 300_000;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| vec![(i % 97) as f64 * 0.5, (i % 89) as f64 - 40.0])
        .collect();
    db.load_points("pts", &rows, false).unwrap();
    let next_id = Arc::new(AtomicU64::new(n as u64 + 1));
    for round in 0..4 {
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (db, stop, next_id) = (Arc::clone(&db), Arc::clone(&stop), Arc::clone(&next_id));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let id = next_id.fetch_add(1, Ordering::AcqRel);
                    db.execute(&format!("INSERT INTO pts VALUES ({id}, 1.5, -2.5)"))
                        .unwrap();
                }
            })
        };
        // Let the writer get going before the build starts.
        let started = next_id.load(Ordering::Acquire);
        while next_id.load(Ordering::Acquire) < started + 2 {
            std::thread::yield_now();
        }
        db.execute("CREATE SUMMARY s ON pts (X1, X2)").unwrap();
        stop.store(true, Ordering::Release);
        writer.join().unwrap();

        let hit = db.execute("SELECT count(*) FROM pts").unwrap();
        assert!(hit.stats.summary_path, "round {round}: {:?}", hit.stats);
        let scan = db
            .execute("SELECT count(*) FROM pts WHERE X1 = X1")
            .unwrap();
        assert!(!scan.stats.summary_path);
        assert_eq!(hit.rows, scan.rows, "round {round}");
        db.execute("DROP SUMMARY s").unwrap();
    }
}
