//! Property tests for the serving loop.
//!
//! * Streaming ingest (random chunk sizes, NULL-bearing rows, chunk
//!   boundaries straddling the storage layer's seal batches) must be
//!   observationally identical to bulk loading the same rows — scores
//!   and aggregates agree at 1e-12 — on engines of 1, 2 or 4 partitions.
//! * A daemon-refreshed regression model after streamed ingest, or
//!   after a DELETE, must match a cold full-table refit at 1e-9.

use std::sync::Arc;
use std::time::Duration;

use nlq_engine::{Db, ExecOptions, SqlEngine};
use nlq_feature::{
    Binding, BindingKind, IngestStream, RefreshConfig, RefreshDaemon, RefreshLoop, TickGate,
};
use nlq_models::{LinearRegression, MatrixShape, Nlq};
use nlq_storage::{Row, Value};
use nlq_testkit::{run_cases, Rng};

fn tight(a: f64, b: f64, eps: f64) -> bool {
    (a - b).abs() <= eps * (1.0 + a.abs().max(b.abs()))
}

/// `(i, X1, X2, Y)` rows with NULL holes in the features.
fn gen_rows(rng: &mut Rng, n: i64, with_nulls: bool) -> Vec<Row> {
    (1..=n)
        .map(|i| {
            let hole = with_nulls && rng.range_usize(0, 15) == 0;
            let x1 = if hole {
                Value::Null
            } else {
                Value::Float(rng.range_f64(-10.0, 10.0))
            };
            vec![
                Value::Int(i),
                x1,
                Value::Float(rng.range_f64(-10.0, 10.0)),
                Value::Float(rng.range_f64(-20.0, 20.0)),
            ]
        })
        .collect()
}

fn setup(engine: &dyn SqlEngine) {
    engine
        .execute_with(
            "CREATE TABLE pts (i INT, X1 FLOAT, X2 FLOAT, Y FLOAT)",
            &ExecOptions::default(),
        )
        .unwrap();
}

/// Streams `rows` through the chunked-ingest grammar with random chunk
/// sizes (1..=max_chunk), so chunk boundaries land anywhere relative to
/// the storage layer's 1024-row seal batches.
fn stream_in(engine: &dyn SqlEngine, rng: &mut Rng, rows: &[Row], max_chunk: usize) -> u64 {
    let mut s = IngestStream::begin(engine, "pts", &[]).unwrap();
    let mut seq = 0u32;
    let mut off = 0usize;
    while off < rows.len() {
        let take = rng.range_usize(1, max_chunk).min(rows.len() - off);
        s.chunk(seq, rows[off..off + take].to_vec()).unwrap();
        seq += 1;
        off += take;
    }
    s.done(engine, &ExecOptions::default()).unwrap()
}

#[test]
fn streaming_ingest_matches_bulk_load_then_score() {
    run_cases(6, 0xfeed, |rng| {
        let workers = [1usize, 2, 4][rng.range_usize(0, 2)];
        let streamed: Arc<dyn SqlEngine> = Arc::new(Db::new(workers));
        let bulk: Arc<dyn SqlEngine> = Arc::new(Db::new(workers));
        setup(streamed.as_ref());
        setup(bulk.as_ref());

        // Enough rows that partitions cross the 1024-row seal boundary
        // at one worker, with NULL holes in X1.
        let n = rng.range_i64(2600, 4000);
        let rows = gen_rows(rng, n, true);

        let accepted = stream_in(streamed.as_ref(), rng, &rows, 700);
        assert_eq!(accepted, n as u64);
        bulk.ingest("pts", rows.clone(), &ExecOptions::default())
            .unwrap();

        // Same model on both engines.
        let beta =
            nlq_linalg::Vector::from_vec(vec![rng.range_f64(-2.0, 2.0), rng.range_f64(-2.0, 2.0)]);
        let b0 = rng.range_f64(-1.0, 1.0);
        let model = nlq_engine::beta_table(b0, &beta).unwrap();
        streamed.publish_model("m", model.clone()).unwrap();
        bulk.publish_model("m", model).unwrap();

        // Batch scoring agrees key for key (present, absent, and
        // NULL-featured keys all covered by the random draw).
        let keys: Vec<i64> = (0..200).map(|_| rng.range_i64(-3, n + 50)).collect();
        let opts = ExecOptions::default();
        let a = streamed
            .batch_score("pts", "m", &keys, false, &opts)
            .unwrap();
        let b = bulk.batch_score("pts", "m", &keys, false, &opts).unwrap();
        assert_eq!(a.len(), b.len());
        for (r, (ra, rb)) in a.rows.iter().zip(&b.rows).enumerate() {
            assert_eq!(ra[0], rb[0]);
            match (&ra[1], &rb[1]) {
                (Value::Float(x), Value::Float(y)) => {
                    assert!(tight(*x, *y, 1e-12), "key row {r}: {x} vs {y}")
                }
                (va, vb) => assert_eq!(va, vb, "key row {r}"),
            }
        }

        // Aggregates over the streamed table agree too.
        let q = "SELECT count(*), sum(X1), sum(Y) FROM pts";
        let ra = streamed.execute_with(q, &opts).unwrap();
        let rb = bulk.execute_with(q, &opts).unwrap();
        assert_eq!(ra.rows[0][0], rb.rows[0][0]);
        for c in 1..3 {
            match (&ra.rows[0][c], &rb.rows[0][c]) {
                (Value::Float(x), Value::Float(y)) => assert!(tight(*x, *y, 1e-12)),
                (va, vb) => assert_eq!(va, vb),
            }
        }
    });
}

#[test]
fn daemon_refresh_matches_cold_full_table_refit() {
    run_cases(6, 0xbe7a, |rng| {
        let workers = [1usize, 2, 4][rng.range_usize(0, 2)];
        let engine: Arc<dyn SqlEngine> = Arc::new(Db::new(workers));
        setup(engine.as_ref());
        let opts = ExecOptions::default();
        engine
            .execute_with("CREATE SUMMARY s ON pts (X1, X2, Y) NO MINMAX", &opts)
            .unwrap();

        // Seed rows, then a refresh loop pass publishes the first model.
        let n0 = rng.range_i64(300, 600);
        let all = gen_rows(rng, n0 + 500, false);
        engine
            .ingest("pts", all[..n0 as usize].to_vec(), &ExecOptions::default())
            .unwrap();
        let mut lp = RefreshLoop::new(
            Arc::clone(&engine),
            vec![Binding::regression("s")],
            RefreshConfig::default(),
        );
        assert_eq!(lp.tick().unwrap(), 1);
        // No movement → no refresh.
        assert_eq!(lp.tick().unwrap(), 0);

        // Stream more rows; the version counter moves; the next tick
        // refits from the folded Γ.
        let mut r2 = Rng::new(rng.range_i64(1, i64::MAX) as u64);
        stream_in(engine.as_ref(), &mut r2, &all[n0 as usize..], 97);
        assert_eq!(lp.tick().unwrap(), 1);
        assert_eq!(lp.refreshes(), 2);

        assert_matches_cold_refit(engine.as_ref(), &all);
    });
}

/// Cold refit: Γ from the raw NULL-free `rows`, closed-form OLS,
/// compared against the published `s_beta` table at 1e-9.
fn assert_matches_cold_refit(engine: &dyn SqlEngine, rows: &[Row]) {
    let data: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| {
            r[1..]
                .iter()
                .map(|v| match v {
                    Value::Float(x) => *x,
                    _ => unreachable!("no NULLs in these rows"),
                })
                .collect()
        })
        .collect();
    let gamma = Nlq::from_rows(3, MatrixShape::Triangular, &data);
    let cold = LinearRegression::fit(&gamma).unwrap();

    let rs = engine
        .execute_with("SELECT b0, b1, b2 FROM s_beta", &ExecOptions::default())
        .unwrap();
    let published: Vec<f64> = rs.rows[0]
        .iter()
        .map(|v| match v {
            Value::Float(x) => *x,
            v => panic!("beta cell {v:?}"),
        })
        .collect();
    assert!(
        tight(published[0], cold.intercept(), 1e-9),
        "b0 {} vs {}",
        published[0],
        cold.intercept()
    );
    for j in 0..2 {
        assert!(
            tight(published[j + 1], cold.coefficients()[j], 1e-9),
            "b{} {} vs {}",
            j + 1,
            published[j + 1],
            cold.coefficients()[j]
        );
    }
}

#[test]
fn delete_refits_below_the_delta_threshold() {
    // Folds refit only past `min_delta_rows`; a DELETE is structural
    // (a version bump, no folded rows) and refits on the next tick,
    // even with a small fold still pending below the threshold.
    let engine: Arc<dyn SqlEngine> = Arc::new(Db::new(2));
    setup(engine.as_ref());
    let opts = ExecOptions::default();
    engine
        .execute_with("CREATE SUMMARY s ON pts (X1, X2, Y)", &opts)
        .unwrap();
    let rows = gen_rows(&mut Rng::new(0xde1e), 400, false);
    engine
        .ingest("pts", rows[..390].to_vec(), &ExecOptions::default())
        .unwrap();
    let cfg = RefreshConfig {
        min_delta_rows: 1_000,
        ..RefreshConfig::default()
    };
    let mut lp = RefreshLoop::new(Arc::clone(&engine), vec![Binding::regression("s")], cfg);
    assert_eq!(lp.tick().unwrap(), 1, "the first tick always publishes");

    engine
        .ingest("pts", rows[390..].to_vec(), &ExecOptions::default())
        .unwrap();
    assert_eq!(lp.tick().unwrap(), 0, "10 folded rows stay below 1000");

    engine
        .execute_with("DELETE FROM pts WHERE i % 3 = 0", &opts)
        .unwrap();
    assert_eq!(lp.tick().unwrap(), 1, "a DELETE refits on the next tick");
    let kept: Vec<Row> = rows
        .into_iter()
        .filter(|r| r[0].as_i64().unwrap() % 3 != 0)
        .collect();
    assert_matches_cold_refit(engine.as_ref(), &kept);
}

#[test]
fn kmeans_binding_warm_starts_and_publishes_centroids() {
    let engine: Arc<dyn SqlEngine> = Arc::new(Db::new(2));
    setup(engine.as_ref());
    let opts = ExecOptions::default();
    engine
        .execute_with("CREATE SUMMARY s ON pts (X1, X2) NO MINMAX", &opts)
        .unwrap();
    // Two well-separated blobs.
    let rows: Vec<Row> = (0..120)
        .map(|i| {
            let t = ((i * 31) % 100) as f64 / 100.0 - 0.5;
            let (cx, cy) = if i % 2 == 0 { (0.0, 0.0) } else { (25.0, 25.0) };
            vec![
                Value::Int(i + 1),
                Value::Float(cx + t),
                Value::Float(cy + 0.5 * t),
                Value::Float(0.0),
            ]
        })
        .collect();
    engine.ingest("pts", rows, &ExecOptions::default()).unwrap();

    let mut lp = RefreshLoop::new(
        Arc::clone(&engine),
        vec![Binding::kmeans("s", 2)],
        RefreshConfig::default(),
    );
    assert_eq!(lp.tick().unwrap(), 1);
    let rs = engine
        .execute_with("SELECT j, X1, X2 FROM s_centroids ORDER BY X1", &opts)
        .unwrap();
    assert_eq!(rs.len(), 2);
    let lo = match rs.rows[0][1] {
        Value::Float(x) => x,
        _ => panic!(),
    };
    let hi = match rs.rows[1][1] {
        Value::Float(x) => x,
        _ => panic!(),
    };
    assert!(lo < 5.0 && hi > 20.0, "centroids {lo} / {hi}");

    // More rows near the blobs → warm-started second refresh.
    let more: Vec<Row> = (0..40)
        .map(|i| {
            let (cx, cy) = if i % 2 == 0 { (1.0, 1.0) } else { (24.0, 24.0) };
            vec![
                Value::Int(200 + i),
                Value::Float(cx),
                Value::Float(cy),
                Value::Float(0.0),
            ]
        })
        .collect();
    engine.ingest("pts", more, &ExecOptions::default()).unwrap();
    assert_eq!(lp.tick().unwrap(), 1);
    assert_eq!(lp.refreshes(), 2);
}

#[test]
fn pca_binding_publishes_component_led_loadings() {
    let engine: Arc<dyn SqlEngine> = Arc::new(Db::new(2));
    setup(engine.as_ref());
    let opts = ExecOptions::default();
    engine
        .execute_with("CREATE SUMMARY s ON pts (X1, X2, Y) NO MINMAX", &opts)
        .unwrap();
    let mut rng = Rng::new(0x9ca);
    engine
        .ingest(
            "pts",
            gen_rows(&mut rng, 300, false),
            &ExecOptions::default(),
        )
        .unwrap();

    let mut lp = RefreshLoop::new(
        Arc::clone(&engine),
        vec![Binding::pca("s", 2)],
        RefreshConfig::default(),
    );
    assert_eq!(lp.tick().unwrap(), 1);
    // Component-led layout: one row per component j = 1..k, d loading
    // columns, unit-norm columns of the loading matrix.
    let rs = engine
        .execute_with("SELECT j, X1, X2, X3 FROM s_lambda ORDER BY j", &opts)
        .unwrap();
    assert_eq!(rs.len(), 2);
    for (j, row) in rs.rows.iter().enumerate() {
        assert_eq!(row[0], Value::Int(j as i64 + 1));
        let norm2: f64 = row[1..]
            .iter()
            .map(|v| match v {
                Value::Float(x) => x * x,
                v => panic!("loading cell {v:?}"),
            })
            .sum();
        assert!(tight(norm2, 1.0, 1e-9), "component {j} norm² {norm2}");
    }

    // More rows move the version; the closed-form refit republishes.
    engine
        .ingest(
            "pts",
            gen_rows(&mut rng, 100, false),
            &ExecOptions::default(),
        )
        .unwrap();
    assert_eq!(lp.tick().unwrap(), 1);
    assert_eq!(lp.refreshes(), 2);
}

#[test]
fn auto_discovery_adopts_regression_kmeans_and_pca_bindings() {
    let engine: Arc<dyn SqlEngine> = Arc::new(Db::new(2));
    setup(engine.as_ref());
    let opts = ExecOptions::default();
    engine
        .execute_with("CREATE SUMMARY s ON pts (X1, X2) NO MINMAX", &opts)
        .unwrap();
    let mut rng = Rng::new(0xd15c);
    engine
        .ingest(
            "pts",
            gen_rows(&mut rng, 200, false),
            &ExecOptions::default(),
        )
        .unwrap();

    // Pre-existing model tables from "a previous process lifetime":
    // 3 centroids and a 2-component loading matrix. Their row counts
    // are what discovery must infer k / components from.
    let c: Vec<nlq_linalg::Vector> = (0..3)
        .map(|j| nlq_linalg::Vector::from_vec(vec![j as f64, -(j as f64)]))
        .collect();
    engine
        .publish_model("s_centroids", nlq_engine::centroid_table(&c).unwrap())
        .unwrap();
    let lambda = nlq_linalg::Matrix::identity(2);
    engine
        .publish_model("s_lambda", nlq_engine::lambda_table(&lambda).unwrap())
        .unwrap();

    let cfg = RefreshConfig {
        auto_discover: true,
        ..RefreshConfig::default()
    };
    let mut lp = RefreshLoop::new(Arc::clone(&engine), Vec::new(), cfg);
    assert_eq!(lp.tick().unwrap(), 3, "all three bindings publish");
    let mut kinds: Vec<BindingKind> = lp.bindings().iter().map(|b| b.kind).collect();
    kinds.sort_by_key(|k| match k {
        BindingKind::Regression => 0,
        BindingKind::Kmeans { .. } => 1,
        BindingKind::Pca { .. } => 2,
    });
    assert_eq!(
        kinds,
        vec![
            BindingKind::Regression,
            BindingKind::Kmeans { k: 3 },
            BindingKind::Pca { components: 2 },
        ]
    );
    // Discovery is idempotent: the next tick adds nothing and (with no
    // summary movement) republishes nothing.
    assert_eq!(lp.tick().unwrap(), 0);
    assert_eq!(lp.bindings().len(), 3);
}

#[test]
fn gated_daemon_reports_growing_staleness_without_sleeps() {
    let engine: Arc<dyn SqlEngine> = Arc::new(Db::new(2));
    setup(engine.as_ref());
    let opts = ExecOptions::default();
    engine
        .execute_with("CREATE SUMMARY s ON pts (X1, X2, Y) NO MINMAX", &opts)
        .unwrap();
    let mut rng = Rng::new(0x57a1e);
    engine
        .ingest(
            "pts",
            gen_rows(&mut rng, 100, false),
            &ExecOptions::default(),
        )
        .unwrap();

    let gate = Arc::new(TickGate::default());
    let daemon = RefreshDaemon::spawn_with_gate(
        Arc::clone(&engine),
        vec![Binding::regression("s")],
        RefreshConfig::default(),
        Some(Arc::clone(&gate)),
    );
    // Bound summary, zero ticks so far: the whole 100-row fold is lag.
    assert_eq!(daemon.staleness(), 100);

    // One released tick publishes and zeroes the lag — step() returning
    // *is* the happens-after edge, no polling needed.
    gate.step();
    assert_eq!(daemon.refreshes(), 1);
    assert_eq!(daemon.staleness(), 0);

    // The daemon is now frozen (no step): every ingest grows the lag.
    engine
        .ingest(
            "pts",
            gen_rows(&mut rng, 40, false),
            &ExecOptions::default(),
        )
        .unwrap();
    assert_eq!(daemon.staleness(), 40);
    engine
        .ingest(
            "pts",
            gen_rows(&mut rng, 25, false),
            &ExecOptions::default(),
        )
        .unwrap();
    assert_eq!(daemon.staleness(), 65);

    // Releasing a tick drains it again.
    gate.step();
    assert_eq!(daemon.refreshes(), 2);
    assert_eq!(daemon.staleness(), 0);
    daemon.stop();
}

#[test]
fn daemon_thread_refreshes_on_cadence_and_stops() {
    let engine: Arc<dyn SqlEngine> = Arc::new(Db::new(2));
    setup(engine.as_ref());
    let opts = ExecOptions::default();
    engine
        .execute_with("CREATE SUMMARY s ON pts (X1, X2, Y) NO MINMAX", &opts)
        .unwrap();
    let mut rng = Rng::new(0xdaea);
    engine
        .ingest(
            "pts",
            gen_rows(&mut rng, 200, false),
            &ExecOptions::default(),
        )
        .unwrap();

    let daemon = RefreshDaemon::spawn(
        Arc::clone(&engine),
        Vec::new(),
        RefreshConfig {
            cadence: Duration::from_millis(5),
            min_delta_rows: 0,
            auto_discover: true,
        },
    );
    assert!(
        daemon.wait_ticks(2, Duration::from_secs(5)),
        "daemon stalled"
    );
    assert!(daemon.refreshes() >= 1, "auto-discovered binding published");
    let before = daemon.refreshes();

    // Stream a delta; within a few ticks the daemon republishes.
    let delta: Vec<Row> = (201..=400)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Float(i as f64 * 0.01),
                Value::Float(2.0 - i as f64 * 0.005),
                Value::Float(i as f64 * 0.02),
            ]
        })
        .collect();
    engine
        .ingest("pts", delta, &ExecOptions::default())
        .unwrap();
    let target = daemon.ticks() + 3;
    assert!(daemon.wait_ticks(target, Duration::from_secs(5)));
    assert!(
        daemon.refreshes() > before,
        "ingest delta must trigger a refresh"
    );
    daemon.stop();
}
