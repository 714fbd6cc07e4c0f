//! Tests for the sharded feature-serving surface: batch scoring over
//! the PK index, streamed-ingest routing, merged refresh signals, and
//! the shared DML write-invalidation hook.
//!
//! The satellite regression here: DELETE/UPDATE rebuild each shard's
//! table (and its PK index) and fold Γ deltas via `Nlq::subtract`,
//! but historically left the plan cache untouched. All three caches
//! must now invalidate on the same dispatch path.

use nlq_engine::{Db, ExecOptions, SqlEngine};
use nlq_linalg::Vector;
use nlq_shard::ShardedDb;
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
/// per-shard PK indexes and subtracts from NO MINMAX summaries — the
/// audited write-invalidation hook.
#[test]
fn delete_invalidates_plan_cache_pk_index_and_folds_summary() {
    let sharded = ShardedDb::new(3, 1);
    sharded
        .execute("CREATE TABLE pts (i INT, X1 FLOAT, X2 FLOAT)")
        .unwrap();
    insert_points(&sharded, "pts", 1..301);
    sharded
        .execute("CREATE SUMMARY s ON pts (X1, X2) NO MINMAX")
        .unwrap();
    sharded
        .register_beta("m", 1.0, &Vector::from_vec(vec![2.0, -0.5]))
        .unwrap();

    // Warm the plan cache: second execution of the same text is a hit.
    let q = "SELECT count(*), sum(X1) FROM pts";
    sharded.execute(q).unwrap();
    sharded.execute(q).unwrap();
    let stats = sharded.engine_stats().plan_cache.unwrap();
    assert!(stats.hits >= 1, "expected a cache hit, got {stats:?}");
    assert!(stats.entries >= 1, "expected cached plans, got {stats:?}");

    // Pre-DELETE: both keys resolve through the PK index.
    let opts = ExecOptions::default();
    let scored = SqlEngine::batch_score(&sharded, "pts", "m", &[5, 250], false, &opts).unwrap();
    assert_eq!(scored.len(), 2);
    assert!(!scored.rows[0][1].is_null() && !scored.rows[1][1].is_null());

    sharded.execute("DELETE FROM pts WHERE i <= 100").unwrap();

    // Plan cache dropped by the shared hook.
    let stats = sharded.engine_stats().plan_cache.unwrap();
    assert_eq!(stats.entries, 0, "DELETE must invalidate cached plans");

    // NO MINMAX summary folded the deletion and stays fresh on every
    // shard; the merged Γ sees exactly the surviving rows.
    let states = SqlEngine::summary_refresh_states(&sharded);
    let s = states.iter().find(|st| st.name == "s").expect("summary s");
    assert!(s.fresh, "NO MINMAX summary must stay fresh across DELETE");
    let gamma = SqlEngine::summary_gamma(&sharded, "s").unwrap();
    assert_eq!(gamma.n(), 200.0);

    // PK indexes rebuilt: the deleted key is gone, the survivor scores.
    let scored = SqlEngine::batch_score(&sharded, "pts", "m", &[5, 250], false, &opts).unwrap();
    assert!(scored.rows[0][1].is_null(), "deleted key must not score");
    assert!(!scored.rows[1][1].is_null(), "surviving key must score");
    assert_eq!(count_rows(&sharded, "pts"), 200);
}

/// UPDATE routes through the same hook as DELETE.
#[test]
fn update_invalidates_plan_cache() {
    let sharded = ShardedDb::new(2, 1);
    sharded
        .execute("CREATE TABLE pts (i INT, X1 FLOAT, X2 FLOAT)")
        .unwrap();
    insert_points(&sharded, "pts", 1..51);
    sharded.execute("SELECT sum(X2) FROM pts").unwrap();
    assert!(sharded.engine_stats().plan_cache.unwrap().entries >= 1);
    sharded
        .execute("UPDATE pts SET X1 = 0.0 WHERE i < 10")
        .unwrap();
    assert_eq!(sharded.engine_stats().plan_cache.unwrap().entries, 0);
}

/// Sharded batch scoring equals single-Db batch scoring cell for cell:
/// same keys (present, absent, and NULL-featured), same order, scores
/// within 1e-12. EXPLAIN reports the PK point lookup plus the scatter
/// route.
#[test]
fn sharded_batch_score_matches_single_db() {
    run_cases(8, 0x8f5e, |rng| {
        let shards = [1usize, 4][rng.range_usize(0, 1)];
        let single = Db::new(2);
        let sharded = ShardedDb::new(shards, 1);
        let ddl = "CREATE TABLE pts (i INT, X1 FLOAT, X2 FLOAT)";
        single.execute(ddl).unwrap();
        sharded.execute(ddl).unwrap();

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
        // Split the literals into a few INSERT batches so the
        // round-robin cursor lands rows on changing shards.
        for chunk in stmts.chunks(17) {
            let sql = format!("INSERT INTO pts VALUES {}", chunk.join(", "));
            single.execute(&sql).unwrap();
            sharded.execute(&sql).unwrap();
        }

        let beta = Vector::from_vec(vec![rng.range_f64(-2.0, 2.0), rng.range_f64(-2.0, 2.0)]);
        let b0 = rng.range_f64(-1.0, 1.0);
        single.register_beta("m", b0, &beta).unwrap();
        sharded.register_beta("m", b0, &beta).unwrap();

        let keys: Vec<i64> = (0..30).map(|_| rng.range_i64(-5, n + 10)).collect();
        let opts = ExecOptions::default();
        let a = single.batch_score("pts", "m", &keys, false, &opts).unwrap();
        let b = SqlEngine::batch_score(&sharded, "pts", "m", &keys, false, &opts).unwrap();
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

        let plan = SqlEngine::batch_score(&sharded, "pts", "m", &keys, true, &opts).unwrap();
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
        if shards > 1 {
            assert!(text.iter().any(|l| l.contains("scatter:")), "{text:?}");
        }
    });
}

/// `ingest_rows` spreads pre-evaluated rows round-robin, keeps fresh
/// summaries fresh by folding the delta, and the ingested rows are
/// immediately visible to scans and PK lookups.
#[test]
fn ingest_rows_partitions_folds_and_serves() {
    let mut rng = Rng::new(0x1ce5);
    let sharded = ShardedDb::new(4, 1);
    sharded
        .execute("CREATE TABLE pts (i INT, X1 FLOAT, X2 FLOAT)")
        .unwrap();
    insert_points(&sharded, "pts", 1..101);
    sharded
        .execute("CREATE SUMMARY s ON pts (X1, X2) NO MINMAX")
        .unwrap();
    // Force the summary to materialize fresh state before streaming.
    sharded.execute("SELECT sum(X1) FROM pts").unwrap();

    let rows: Vec<Vec<Value>> = (101..=500)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Float(rng.range_f64(-5.0, 5.0)),
                Value::Float(rng.range_f64(-5.0, 5.0)),
            ]
        })
        .collect();
    let accepted = SqlEngine::ingest_rows(&sharded, "pts", rows).unwrap();
    assert_eq!(accepted, 400);
    assert_eq!(count_rows(&sharded, "pts"), 500);

    // Every shard took a slice (round-robin over 400 rows, 4 shards).
    for i in 0..4 {
        let shard_rows = sharded
            .shard_db(i)
            .execute("SELECT count(*) FROM pts")
            .unwrap();
        match shard_rows.rows[0][0] {
            Value::Int(n) => assert!(n > 100, "shard {i} holds {n} rows"),
            ref v => panic!("count {v:?}"),
        }
    }

    // The summary folded the streamed delta without going stale.
    let states = SqlEngine::summary_refresh_states(&sharded);
    let s = states.iter().find(|st| st.name == "s").expect("summary s");
    assert!(s.fresh, "ingest must fold, not invalidate");
    assert_eq!(s.rows_folded, 400, "every streamed row folds into Γ");
    assert_eq!(SqlEngine::summary_gamma(&sharded, "s").unwrap().n(), 500.0);

    // Ingested keys serve through the PK path right away.
    sharded
        .register_beta("m", 0.5, &Vector::from_vec(vec![1.0, 1.0]))
        .unwrap();
    let scored = SqlEngine::batch_score(
        &sharded,
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
