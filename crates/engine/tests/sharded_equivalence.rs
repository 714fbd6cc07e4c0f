//! Equivalence and behavior tests for the sharded engine.
//!
//! The core invariant: because Γ is additive and every aggregate
//! accumulator merges exactly, a [`Db`] with S > 1 shards must return
//! the same answers as one with S = 1 over the same data, for any shard
//! count and any insert interleaving — to within 1e-12 relative error
//! on floats (merge order may differ, so bit-equality is too strict).

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use nlq_engine::{Db, EngineError, ExecOptions, ResultSet, SqlEngine};
use nlq_storage::Value;
use nlq_testkit::{run_cases, Rng};
use nlq_udf::ScalarUdf;

fn tight(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()))
}

/// Compares two result sets cell by cell: Ints exactly, Floats at
/// 1e-12 relative, packed Γ strings field-by-field at the same bound.
fn assert_rows_match(got: &ResultSet, want: &ResultSet, ctx: &str) {
    assert_eq!(got.columns, want.columns, "{ctx}: column names");
    assert_eq!(got.len(), want.len(), "{ctx}: row count");
    for (r, (a, b)) in got.rows.iter().zip(&want.rows).enumerate() {
        assert_eq!(a.len(), b.len(), "{ctx}: row {r} arity");
        for (c, (va, vb)) in a.iter().zip(b).enumerate() {
            match (va, vb) {
                (Value::Float(x), Value::Float(y)) => {
                    assert!(tight(*x, *y), "{ctx}: ({r},{c}) {x} vs {y}")
                }
                (Value::Str(x), Value::Str(y))
                    if x.starts_with("NLQ;") && y.starts_with("NLQ;") =>
                {
                    let ga = nlq_udf::pack::unpack_nlq(x).unwrap();
                    let gb = nlq_udf::pack::unpack_nlq(y).unwrap();
                    assert_eq!(ga.n(), gb.n(), "{ctx}: ({r},{c}) n");
                    for i in 0..ga.d() {
                        assert!(tight(ga.l()[i], gb.l()[i]), "{ctx}: L[{i}]");
                        for j in 0..=i {
                            assert!(
                                tight(ga.q_raw()[(i, j)], gb.q_raw()[(i, j)]),
                                "{ctx}: Q[{i},{j}]"
                            );
                        }
                    }
                }
                _ => assert_eq!(va, vb, "{ctx}: ({r},{c})"),
            }
        }
    }
}

/// Renders one literal row for INSERT, with NULL holes.
fn insert_row(rng: &mut Rng, id: i64) -> String {
    let g = rng.range_i64(0, 3);
    let a = if rng.range_usize(0, 10) == 0 {
        "NULL".to_owned()
    } else {
        format!("{:?}", rng.range_f64(-50.0, 50.0))
    };
    let b = if rng.range_usize(0, 10) == 0 {
        "NULL".to_owned()
    } else {
        format!("{:?}", rng.range_f64(-50.0, 50.0))
    };
    format!("({id}, {g}, {a}, {b})")
}

#[test]
fn sharded_matches_single_db() {
    run_cases(12, 0x5a4d, |rng| {
        let shards = [2usize, 3, 7][rng.range_usize(0, 2)];
        let single = Db::new(2);
        let sharded = Db::open(shards, 1, None).unwrap();
        let ddl = "CREATE TABLE T (id INT, g INT, a FLOAT, b FLOAT)";
        single.execute(ddl).unwrap();
        sharded.execute(ddl).unwrap();

        // Random insert interleaving: same rows, random batch sizes.
        let n = rng.range_usize(1, 80);
        let mut id = 0i64;
        while (id as usize) < n {
            let batch = rng.range_usize(1, 9).min(n - id as usize);
            let rows: Vec<String> = (0..batch)
                .map(|k| insert_row(rng, id + k as i64 + 1))
                .collect();
            id += batch as i64;
            let sql = format!("INSERT INTO T VALUES {}", rows.join(", "));
            single.execute(&sql).unwrap();
            sharded.execute(&sql).unwrap();
        }

        let queries = [
            "SELECT count(*), sum(a), avg(a), min(b), max(b) FROM T",
            "SELECT corr(a, b), covar_pop(a, b), variance(a) FROM T",
            "SELECT g, count(*), sum(a), avg(b) FROM T GROUP BY g ORDER BY g",
            "SELECT nlq_list(2, 'triang', a, b) FROM T",
            "SELECT g, a, b FROM T ORDER BY a, id",
            "SELECT a + b, g FROM T ORDER BY id DESC LIMIT 11",
        ];
        for q in queries {
            let want = single.execute(q).unwrap();
            let got = sharded.execute(q).unwrap();
            assert_rows_match(&got, &want, q);
        }
    });
}

#[test]
fn sharded_scoring_matches_single_db() {
    run_cases(8, 0x5c0e, |rng| {
        let shards = [2usize, 3, 7][rng.range_usize(0, 2)];
        let d = rng.range_usize(2, 4);
        let n = rng.range_usize(1, 60);
        let rows: Vec<Vec<f64>> = (0..n).map(|_| rng.vec_f64(d, -10.0, 10.0)).collect();
        let beta = nlq_linalg::Vector::from(rng.vec_f64(d, -2.0, 2.0));

        let single = Db::new(2);
        single.load_points("X", &rows, false).unwrap();
        single.register_beta("B", 0.5, &beta).unwrap();
        let sharded = Db::open(shards, 1, None).unwrap();
        sharded.load_points("X", &rows, false).unwrap();
        sharded.register_beta("B", 0.5, &beta).unwrap();

        let cols = nlq_engine::sqlgen::x_cols(d);
        let mut sql = nlq_engine::sqlgen::score_regression_udf("X", &cols, "B");
        sql.push_str(" ORDER BY x.i");
        let want = single.execute(&sql).unwrap();
        let got = sharded.execute(&sql).unwrap();
        assert_eq!(want.len(), n);
        assert_rows_match(&got, &want, &sql);
    });
}

#[test]
fn plan_cache_hits_and_ddl_invalidation() {
    for (shards, route) in [
        (1, "route: 1 of 1 shard(s)"),
        (4, "scatter: 4 shards, gather: merge"),
    ] {
        plan_cache_case(shards, route);
    }
}

fn plan_cache_case(shards: usize, route: &str) {
    let db = Db::open(shards, 1, None).unwrap();
    db.execute("CREATE TABLE T (a FLOAT)").unwrap();
    db.execute("INSERT INTO T VALUES (1.0), (2.0)").unwrap();

    let rs = db.execute("EXPLAIN SELECT sum(a) FROM T").unwrap();
    let text: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert!(
        text.iter().any(|l| l.contains("plan cache: miss")),
        "{text:?}"
    );
    assert!(text.iter().any(|l| l.contains(route)), "{text:?}");

    let rs = db.execute("EXPLAIN SELECT sum(a) FROM T").unwrap();
    let text: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert!(
        text.iter().any(|l| l.contains("plan cache: hit")),
        "{text:?}"
    );

    let stats = db.engine_stats().plan_cache;
    assert_eq!(stats.hits, 1);
    assert!(stats.entries >= 1);

    // A cached SELECT hits too, with parse skipped entirely.
    db.execute("SELECT sum(a) FROM T").unwrap();
    let rs = db.execute("SELECT sum(a) FROM T").unwrap();
    assert_eq!(rs.stats.parse_nanos, 0);

    // DDL clears the cache.
    db.execute("CREATE TABLE U (b FLOAT)").unwrap();
    assert_eq!(db.engine_stats().plan_cache.entries, 0);
}

#[test]
fn explain_routes_by_distribution() {
    let db = Db::open(3, 1, None).unwrap();
    db.execute("CREATE TABLE T (a FLOAT)").unwrap();
    db.register_beta("B", 1.0, &nlq_linalg::Vector::from(vec![2.0]))
        .unwrap();

    let lines = |sql: &str| -> String {
        let rs = db.execute(sql).unwrap();
        rs.rows
            .iter()
            .map(|r| r[0].to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(lines("EXPLAIN SELECT a FROM T").contains("scatter: 3 shards, gather: concat"));
    assert!(lines("EXPLAIN SELECT sum(a) FROM T").contains("scatter: 3 shards, gather: merge"));
    assert!(lines("EXPLAIN SELECT b0 FROM B").contains("route: 1 of 3 shard(s)"));
}

#[test]
fn explain_analyze_shows_scatter_and_cache_hit() {
    let db = Db::open(2, 1, None).unwrap();
    db.execute("CREATE TABLE T (a FLOAT)").unwrap();
    db.execute("INSERT INTO T VALUES (1.0), (2.0), (3.0)")
        .unwrap();

    let sql = "EXPLAIN ANALYZE SELECT sum(a) FROM T";
    let first = db.execute(sql).unwrap();
    let text: Vec<String> = first.rows.iter().map(|r| r[0].to_string()).collect();
    assert!(
        text.iter().any(|l| l.starts_with("phase parse:")),
        "{text:?}"
    );
    assert!(
        text.iter().any(|l| l.starts_with("phase scatter:")),
        "{text:?}"
    );
    assert!(
        text.iter().any(|l| l.starts_with("phase gather:")),
        "{text:?}"
    );
    assert!(
        text.iter().any(|l| l.contains("plan cache: miss")),
        "{text:?}"
    );

    // Second run: plan-cache hit eliminates the parse phase.
    let second = db.execute(sql).unwrap();
    let text: Vec<String> = second.rows.iter().map(|r| r[0].to_string()).collect();
    assert!(
        !text.iter().any(|l| l.starts_with("phase parse:")),
        "{text:?}"
    );
    assert!(
        text.iter().any(|l| l.contains("plan cache: hit")),
        "{text:?}"
    );
    assert_eq!(second.stats.parse_nanos, 0);
}

#[test]
fn summary_hits_stay_shard_local() {
    let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64, (i * 2) as f64]).collect();
    let db = Db::open(4, 1, None).unwrap();
    db.load_points("X", &rows, false).unwrap();
    db.execute("CREATE SUMMARY s ON X (X1, X2) SHAPE triang")
        .unwrap();
    let rs = db
        .execute("SELECT nlq_list(2, 'triang', X1, X2) FROM X")
        .unwrap();
    assert!(rs.stats.summary_path, "all shards should answer from Γ");
    assert_eq!(rs.stats.rows_scanned, 0, "summary hits must not scan");
    assert_eq!(rs.stats.summary_hits, 4, "one hit per shard");
}

#[test]
fn cancellation_propagates_to_all_shards() {
    let rows: Vec<Vec<f64>> = (0..1000).map(|i| vec![i as f64]).collect();
    let db = Db::open(3, 1, None).unwrap();
    db.load_points("X", &rows, false).unwrap();

    // Pre-flipped token: nothing runs anywhere.
    let token = Arc::new(AtomicBool::new(true));
    let opts = ExecOptions {
        cancel: Some(Arc::clone(&token)),
        ..ExecOptions::default()
    };
    match db.execute_with("SELECT sum(X1) FROM X", &opts) {
        Err(EngineError::Cancelled { rows_scanned }) => assert_eq!(rows_scanned, 0),
        other => panic!("expected cancellation, got {other:?}"),
    }
    for m in db.engine_stats().shards {
        assert_eq!(m.queries, 0, "no shard should have run a statement");
    }
}

#[test]
fn shard_metrics_count_scattered_work() {
    let rows: Vec<Vec<f64>> = (0..90).map(|i| vec![i as f64]).collect();
    let db = Db::open(3, 1, None).unwrap();
    db.load_points("X", &rows, false).unwrap();
    db.set_block_scan(false);
    db.execute("SELECT sum(X1) FROM X").unwrap();
    let metrics = db.engine_stats().shards;
    assert_eq!(metrics.len(), 3);
    let rows_total: u64 = metrics.iter().map(|m| m.rows_scanned).sum();
    assert_eq!(rows_total, 90, "every shard scanned its slice");
    for m in &metrics {
        assert_eq!(m.queries, 1);
        assert_eq!(m.queue_depth, 0);
    }
}

#[test]
fn dml_and_views_fan_out() {
    let db = Db::open(3, 1, None).unwrap();
    db.execute("CREATE TABLE T (id INT, a FLOAT)").unwrap();
    let values: Vec<String> = (1..=30).map(|i| format!("({i}, {i}.5)")).collect();
    db.execute(&format!("INSERT INTO T VALUES {}", values.join(", ")))
        .unwrap();

    // Partitioned inserts spread rows across shards: a scan reads ten
    // on each.
    db.execute("SELECT sum(a) FROM T").unwrap();
    let per_shard: Vec<u64> = db
        .engine_stats()
        .shards
        .iter()
        .map(|m| m.rows_scanned)
        .collect();
    assert_eq!(per_shard, vec![10, 10, 10]);

    db.execute("CREATE VIEW V AS SELECT a FROM T WHERE a > 10.5")
        .unwrap();
    let rs = db.execute("SELECT count(*) FROM V").unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(20));

    db.execute("UPDATE T SET a = 0.0 WHERE id > 20").unwrap();
    db.execute("DELETE FROM T WHERE a = 0.0").unwrap();
    let rs = db.execute("SELECT count(*), max(id) FROM T").unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(20));
    assert_eq!(rs.value(0, 1), &Value::Int(20));

    // CTAS re-partitions derived rows; results still match.
    db.execute("CREATE TABLE T2 AS SELECT id, a FROM T WHERE id <= 5")
        .unwrap();
    let rs = db.execute("SELECT count(*) FROM T2").unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(5));
}

/// Records whether it ran on the thread that created it.
struct OnThread(std::thread::ThreadId);

impl ScalarUdf for OnThread {
    fn name(&self) -> &str {
        "on_caller_thread"
    }

    fn eval(&self, _args: &[Value]) -> nlq_udf::Result<Value> {
        Ok(Value::Int((std::thread::current().id() == self.0) as i64))
    }
}

/// At S = 1 the lone shard runs inline: an INSERT's literal rows are
/// evaluated on the caller's thread, with no hop to an executor. At
/// S > 1 each shard evaluates its slice on its own executor thread.
#[test]
fn single_shard_runs_on_the_callers_thread() {
    for (shards, want) in [(1, 1), (4, 0)] {
        let db = Db::open(shards, 1, None).unwrap();
        let caller = std::thread::current().id();
        db.with_registry_mut(|r| r.register_scalar(Arc::new(OnThread(caller))));
        db.execute("CREATE TABLE T (i INT, here INT)").unwrap();
        db.execute("INSERT INTO T VALUES (1, on_caller_thread()), (2, on_caller_thread())")
            .unwrap();
        let rs = db.execute("SELECT min(here), max(here) FROM T").unwrap();
        assert_eq!(
            rs.rows[0],
            vec![Value::Int(want), Value::Int(want)],
            "S = {shards}"
        );
    }
}
