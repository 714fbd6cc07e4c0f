//! Tests for the feature-serving surface: batch scoring over the PK
//! index, streamed ingest over table partitions, refresh signals, and
//! the shared DML write-invalidation hook.
//!
//! The regression here: DELETE/UPDATE rewrite the table (and its PK
//! index) and build its Γ summaries again, but historically left the
//! plan cache untouched. All three must now follow on the same
//! dispatch path.

use nlq_engine::{Db, ExecOptions, SqlEngine};
use nlq_linalg::Vector;
use nlq_storage::Value;
use nlq_testkit::{run_cases, Rng};

fn tight(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()))
}

fn count_rows(engine: &dyn SqlEngine, table: &str) -> i64 {
    let rs = engine
        .execute_with(
            &format!("SELECT count(*) FROM {table}"),
            &ExecOptions::default(),
        )
        .unwrap();
    match rs.rows[0][0] {
        Value::Int(n) => n,
        ref v => panic!("count(*) returned {v:?}"),
    }
}

/// One INSERT statement per batch of literal point rows `(i, X1, X2)`.
fn insert_points(engine: &dyn SqlEngine, table: &str, ids: std::ops::Range<i64>) {
    let rows: Vec<String> = ids
        .map(|i| {
            format!(
                "({i}, {:?}, {:?})",
                (i as f64) * 0.5 - 3.0,
                10.0 - (i as f64) * 0.25
            )
        })
        .collect();
    engine
        .execute_with(
            &format!("INSERT INTO {table} VALUES {}", rows.join(", ")),
            &ExecOptions::default(),
        )
        .unwrap();
}

/// DELETE invalidates the plan cache on the same path that rebuilds
/// the PK index and the summaries — the audited write-invalidation
/// hook.
#[test]
fn delete_invalidates_plan_cache_pk_index_and_builds_summary() {
    let db = Db::new(3);
    db.execute("CREATE TABLE pts (i INT, X1 FLOAT, X2 FLOAT)")
        .unwrap();
    insert_points(&db, "pts", 1..301);
    db.execute("CREATE SUMMARY s ON pts (X1, X2) NO MINMAX")
        .unwrap();
    db.register_beta("m", 1.0, &Vector::from_vec(vec![2.0, -0.5]))
        .unwrap();

    // Warm the plan cache: second execution of the same text is a hit.
    let q = "SELECT count(*), sum(X1) FROM pts";
    db.execute(q).unwrap();
    db.execute(q).unwrap();
    let stats = db.engine_stats().plan_cache;
    assert!(stats.hits >= 1, "expected a cache hit, got {stats:?}");
    assert!(stats.entries >= 1, "expected cached plans, got {stats:?}");

    // Pre-DELETE: both keys resolve through the PK index.
    let opts = ExecOptions::default();
    let scored = SqlEngine::batch_score(&db, "pts", "m", &[5, 250], false, &opts).unwrap();
    assert_eq!(scored.len(), 2);
    assert!(!scored.rows[0][1].is_null() && !scored.rows[1][1].is_null());

    db.execute("DELETE FROM pts WHERE i <= 100").unwrap();

    // Plan cache dropped by the shared hook.
    let stats = db.engine_stats().plan_cache;
    assert_eq!(stats.entries, 0, "DELETE must invalidate cached plans");

    // The summary was built again: a structural version bump, no
    // folded rows, and a Γ over exactly the surviving rows.
    let states = SqlEngine::summary_refresh_states(&db);
    let s = states.iter().find(|st| st.name == "s").expect("summary s");
    assert_eq!((s.version, s.rows_folded), (2, 0));
    let gamma = SqlEngine::summary_gamma(&db, "s").unwrap();
    assert_eq!(gamma.n(), 200.0);

    // PK index rebuilt: the deleted key is gone, the survivor scores.
    let scored = SqlEngine::batch_score(&db, "pts", "m", &[5, 250], false, &opts).unwrap();
    assert!(scored.rows[0][1].is_null(), "deleted key must not score");
    assert!(!scored.rows[1][1].is_null(), "surviving key must score");
    assert_eq!(count_rows(&db, "pts"), 200);
}

/// UPDATE routes through the same hook as DELETE.
#[test]
fn update_invalidates_plan_cache() {
    let db = Db::new(2);
    db.execute("CREATE TABLE pts (i INT, X1 FLOAT, X2 FLOAT)")
        .unwrap();
    insert_points(&db, "pts", 1..51);
    db.execute("SELECT max(i) FROM pts").unwrap();
    assert!(db.engine_stats().plan_cache.entries >= 1);
    db.execute("UPDATE pts SET X1 = 0.0 WHERE i < 10").unwrap();
    assert_eq!(db.engine_stats().plan_cache.entries, 0);
}

/// Batch scoring over 2 and 4 partitions equals batch scoring over
/// one, cell for cell: same keys (present, absent, and NULL-featured),
/// same order, scores within 1e-12. EXPLAIN reports the PK point
/// lookup.
#[test]
fn batch_score_matches_across_partition_counts() {
    run_cases(8, 0x8f5e, |rng| {
        let dbs: Vec<Db> = [1, 2, 4].map(Db::new).into();
        let ddl = "CREATE TABLE pts (i INT, X1 FLOAT, X2 FLOAT)";
        let n = rng.range_i64(40, 120);
        let mut stmts = Vec::new();
        for i in 1..=n {
            let x1 = if rng.range_usize(0, 12) == 0 {
                "NULL".to_owned()
            } else {
                format!("{:?}", rng.range_f64(-20.0, 20.0))
            };
            let x2 = format!("{:?}", rng.range_f64(-20.0, 20.0));
            stmts.push(format!("({i}, {x1}, {x2})"));
        }
        let beta = Vector::from_vec(vec![rng.range_f64(-2.0, 2.0), rng.range_f64(-2.0, 2.0)]);
        let b0 = rng.range_f64(-1.0, 1.0);
        for db in &dbs {
            db.execute(ddl).unwrap();
            // A few INSERT batches, so partitions fill unevenly.
            for chunk in stmts.chunks(17) {
                let sql = format!("INSERT INTO pts VALUES {}", chunk.join(", "));
                db.execute(&sql).unwrap();
            }
            db.register_beta("m", b0, &beta).unwrap();
        }

        let keys: Vec<i64> = (0..30).map(|_| rng.range_i64(-5, n + 10)).collect();
        let opts = ExecOptions::default();
        let a = SqlEngine::batch_score(&dbs[0], "pts", "m", &keys, false, &opts).unwrap();
        for db in &dbs[1..] {
            let b = SqlEngine::batch_score(db, "pts", "m", &keys, false, &opts).unwrap();
            assert_eq!(a.columns, b.columns);
            assert_eq!(a.len(), b.len());
            for (r, (ra, rb)) in a.rows.iter().zip(&b.rows).enumerate() {
                assert_eq!(ra[0], rb[0], "key column row {r}");
                match (&ra[1], &rb[1]) {
                    (Value::Float(x), Value::Float(y)) => {
                        assert!(tight(*x, *y), "row {r}: {x} vs {y}")
                    }
                    (va, vb) => assert_eq!(va, vb, "row {r}"),
                }
            }
            assert!(
                b.stats.rows_scanned <= keys.len() as u64,
                "rows_scanned {} must not exceed keys {}",
                b.stats.rows_scanned,
                keys.len()
            );

            let plan = SqlEngine::batch_score(db, "pts", "m", &keys, true, &opts).unwrap();
            let text: Vec<String> = plan
                .rows
                .iter()
                .map(|r| match &r[0] {
                    Value::Str(s) => s.clone(),
                    v => panic!("plan row {v:?}"),
                })
                .collect();
            assert!(
                text.iter().any(|l| l.contains("point lookup: pk index")),
                "{text:?}"
            );
        }
    });
}

/// `ingest_rows` deals pre-evaluated rows round-robin over the table's
/// partitions, keeps fresh
/// summaries fresh by folding the delta, and the ingested rows are
/// immediately visible to scans and PK lookups.
#[test]
fn ingest_rows_partitions_folds_and_serves() {
    let mut rng = Rng::new(0x1ce5);
    let db = Db::new(4);
    db.execute("CREATE TABLE pts (i INT, X1 FLOAT, X2 FLOAT)")
        .unwrap();
    insert_points(&db, "pts", 1..101);
    db.execute("CREATE SUMMARY s ON pts (X1, X2) NO MINMAX")
        .unwrap();
    // Force the summary to materialize fresh state before streaming.
    db.execute("SELECT sum(X1) FROM pts").unwrap();

    let rows: Vec<Vec<Value>> = (101..=500)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Float(rng.range_f64(-5.0, 5.0)),
                Value::Float(rng.range_f64(-5.0, 5.0)),
            ]
        })
        .collect();
    let accepted = SqlEngine::ingest_rows(&db, "pts", rows).unwrap();
    assert_eq!(accepted, 400);
    assert_eq!(count_rows(&db, "pts"), 500);

    // Every partition took a slice (round-robin over 500 rows, 4
    // partitions).
    let t = db.table("pts").unwrap();
    assert_eq!(t.partition_count(), 4);
    for p in 0..4 {
        let held = t.scan_partition(p).count();
        assert!(held > 100, "partition {p} holds {held} rows");
    }

    // The summary folded the streamed delta: no structural change.
    let states = SqlEngine::summary_refresh_states(&db);
    let s = states.iter().find(|st| st.name == "s").expect("summary s");
    assert_eq!(s.version, 1, "ingest must fold, not build again");
    assert_eq!(s.rows_folded, 400, "every streamed row folds into Γ");
    assert_eq!(SqlEngine::summary_gamma(&db, "s").unwrap().n(), 500.0);

    // Ingested keys serve through the PK path right away.
    db.register_beta("m", 0.5, &Vector::from_vec(vec![1.0, 1.0]))
        .unwrap();
    let scored = SqlEngine::batch_score(
        &db,
        "pts",
        "m",
        &[1, 101, 499, 500, 777],
        false,
        &ExecOptions::default(),
    )
    .unwrap();
    for r in 0..4 {
        assert!(!scored.rows[r][1].is_null(), "key row {r} must score");
    }
    assert!(scored.rows[4][1].is_null(), "absent key must not score");
}
