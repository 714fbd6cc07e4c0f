//! Deterministic in-process server harness.
//!
//! Every test boots a real [`serve`] instance on an OS-assigned port
//! with a scripted [`ServerConfig`] and drives it through
//! [`nlq_client::Client`]. Race windows are synchronized on condition
//! variables and observable server state (the shared
//! [`nlq_server::Metrics`] counters), never on bare sleeps, so the
//! chunk-boundary, cancel-race, and drain tests are reproducible.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use nlq_client::{validate_exposition, Client, ClientError};
use nlq_engine::{Db, SqlEngine};
use nlq_feature::TickGate;
use nlq_server::wire::{ErrorCode, MAX_FRAME};
use nlq_server::{serve, Metrics, ServerConfig, ServerHandle};
use nlq_storage::Value;
use nlq_udf::ScalarUdf;

/// An in-process server over its own single-partition `Db`
/// (single-partition keeps scan order, and therefore chunk contents,
/// deterministic).
struct TestServer {
    db: Arc<Db>,
    handle: ServerHandle,
}

impl TestServer {
    fn start(config: ServerConfig) -> TestServer {
        TestServer::start_with(Arc::new(Db::new(1)), config)
    }

    fn start_with(db: Arc<Db>, config: ServerConfig) -> TestServer {
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..config
        };
        let handle =
            serve(Arc::clone(&db) as Arc<dyn SqlEngine>, config).expect("bind test server");
        TestServer { db, handle }
    }

    fn client(&self) -> Client {
        Client::connect(self.handle.addr()).expect("connect to test server")
    }

    fn metrics(&self) -> Arc<Metrics> {
        self.handle.metrics()
    }
}

/// Loads `n` rows `(i, i + 0.5)` into table `t`.
fn load_rows(c: &mut Client, t: &str, n: usize) {
    c.execute(&format!("CREATE TABLE {t} (i INT, X1 FLOAT)"))
        .unwrap();
    let values: Vec<String> = (0..n).map(|i| format!("({i}, {i}.5)")).collect();
    c.execute(&format!("INSERT INTO {t} VALUES {}", values.join(", ")))
        .unwrap();
}

/// Condvar-backed gate shared with the `gate`/`stall` UDFs: tests wait
/// for a scan to provably be inside an eval (`wait_entered`) before
/// acting, and decide when blocked evals may proceed (`release`).
#[derive(Debug, Default)]
struct GateState {
    entered: Mutex<u64>,
    entered_cv: Condvar,
    open: Mutex<bool>,
    open_cv: Condvar,
}

impl GateState {
    fn note_entered(&self) {
        *self.entered.lock().unwrap() += 1;
        self.entered_cv.notify_all();
    }

    fn wait_entered(&self, n: u64) {
        let mut e = self.entered.lock().unwrap();
        while *e < n {
            e = self.entered_cv.wait(e).unwrap();
        }
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.open_cv.notify_all();
    }
}

/// Opens the gate when dropped. Declared right after the gated
/// statement's stream, it lets a test that fails midway drop that
/// stream (which reads to its end) and the server (whose drain waits
/// for it) instead of hanging on the gate.
struct OpenOnDrop(Arc<GateState>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// `gate(x)`: signals entry, then blocks until the test releases it.
#[derive(Debug)]
struct GateUdf(Arc<GateState>);

impl ScalarUdf for GateUdf {
    fn name(&self) -> &str {
        "gate"
    }
    fn eval(&self, args: &[Value]) -> nlq_udf::Result<Value> {
        self.0.note_entered();
        let mut open = self.0.open.lock().unwrap();
        while !*open {
            open = self.0.open_cv.wait(open).unwrap();
        }
        Ok(args[0].clone())
    }
}

/// `stall(x)`: signals entry and takes 10 ms per call — a query long
/// enough to still be running when a drain grace period expires.
#[derive(Debug)]
struct StallUdf(Arc<GateState>);

impl ScalarUdf for StallUdf {
    fn name(&self) -> &str {
        "stall"
    }
    fn eval(&self, args: &[Value]) -> nlq_udf::Result<Value> {
        self.0.note_entered();
        std::thread::sleep(Duration::from_millis(10));
        Ok(args[0].clone())
    }
}

/// Scrapes the *live* Prometheus endpoint and validates the text
/// exposition format — every e2e test runs this against real traffic
/// before tearing its server down, so a malformed metric line (bad
/// name, non-numeric value, duplicate series) fails the whole suite,
/// not just the dedicated metrics test.
fn assert_live_scrape_valid(c: &mut Client) {
    let text = c.metrics_prometheus().expect("live Prometheus scrape");
    if let Err(why) = validate_exposition(&text) {
        panic!("live scrape violates the exposition format: {why}\n{text}");
    }
}

/// Every `(name, label block)` series a Prometheus scrape carries,
/// with each sample's value.
fn scrape_series(text: &str) -> Vec<((String, String), f64)> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            let (name, labels) = match series.split_once('{') {
                Some((name, rest)) => (name, rest.trim_end_matches('}')),
                None => (series, ""),
            };
            let value = value.parse().expect("sample value");
            ((name.to_owned(), labels.to_owned()), value)
        })
        .collect()
}

/// Polls an observable condition to true within a hard deadline.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// Polls a one-value query on `c` until it reads `want`. A client sees
/// its reply before the session that sent it retains the request's
/// trace record, so a catalog read on another session can run between
/// the two.
fn wait_for_value(c: &mut Client, sql: &str, want: Value) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let got = c.execute(sql).unwrap().value(0, 0).clone();
        if got == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{sql} read {got:?}, want {want:?}"
        );
        std::thread::yield_now();
    }
}

/// Encoded size of one `Value::Int` row cell: 1 tag byte + 8 payload
/// bytes. `SELECT i FROM t` rows are exactly this big on the wire,
/// which is what makes the boundary tests exact.
const INT_ROW_BYTES: usize = 9;

#[test]
fn large_result_streams_chunked_and_matches_direct_execution() {
    let ts = TestServer::start(ServerConfig {
        chunk_bytes: 64,
        ..ServerConfig::default()
    });
    let mut c = ts.client();
    load_rows(&mut c, "R", 500);

    let direct = ts.db.execute("SELECT i, X1 FROM R").unwrap();
    let mut stream = c.query("SELECT i, X1 FROM R").unwrap();
    assert_eq!(stream.columns().unwrap(), ["i", "X1"]);
    let rows: Vec<Vec<Value>> = stream.by_ref().map(|r| r.unwrap()).collect();
    assert!(
        stream.chunks_received() >= 4,
        "expected a many-chunk stream, got {}",
        stream.chunks_received()
    );
    assert!(stream.stats().is_some(), "trailer must be verified");
    assert_eq!(rows, direct.rows, "streamed rows must be identical");
    drop(stream);

    // The collecting convenience API sees the same result.
    let collected = c.execute("SELECT i, X1 FROM R").unwrap();
    assert_eq!(collected.rows, direct.rows);
    assert!(ts.metrics().chunks_streamed.load(Ordering::Relaxed) >= 8);
    assert!(ts.metrics().bytes_streamed.load(Ordering::Relaxed) > 0);
    assert_live_scrape_valid(&mut c);
}

#[test]
fn chunks_cut_exactly_at_the_configured_boundary() {
    // chunk = 4 int rows exactly; 8 rows → 2 full chunks, 9 rows → 3.
    let ts = TestServer::start(ServerConfig {
        chunk_bytes: 4 * INT_ROW_BYTES,
        ..ServerConfig::default()
    });
    let mut c = ts.client();
    load_rows(&mut c, "B", 9);

    let mut stream = c.query("SELECT i FROM B WHERE i < 8").unwrap();
    let rows: Vec<_> = stream.by_ref().map(|r| r.unwrap()).collect();
    assert_eq!(rows.len(), 8);
    assert_eq!(stream.chunks_received(), 2, "8 rows = exactly 2 chunks");
    drop(stream);

    let mut stream = c.query("SELECT i FROM B").unwrap();
    let rows: Vec<_> = stream.by_ref().map(|r| r.unwrap()).collect();
    assert_eq!(rows.len(), 9);
    assert_eq!(stream.chunks_received(), 3, "one past the boundary spills");
    drop(stream);
    assert_live_scrape_valid(&mut c);
}

#[test]
fn byte_budget_exactly_at_passes_one_past_refuses_mid_stream() {
    const N: usize = 10;
    // Exactly at the budget: all rows stream.
    let at = TestServer::start(ServerConfig {
        max_result_bytes: N * INT_ROW_BYTES,
        chunk_bytes: INT_ROW_BYTES, // one row per chunk
        ..ServerConfig::default()
    });
    let mut c = at.client();
    load_rows(&mut c, "E", N);
    let rs = c.execute("SELECT i FROM E").unwrap();
    assert_eq!(rs.rows.len(), N);

    // One byte short: the stream opens, five chunks arrive, then the
    // budget trips mid-stream as a terminal TooLarge — not after
    // encoding everything.
    let past = TestServer::start(ServerConfig {
        max_result_bytes: 5 * INT_ROW_BYTES,
        chunk_bytes: INT_ROW_BYTES,
        ..ServerConfig::default()
    });
    let mut c = past.client();
    load_rows(&mut c, "E", N);
    let mut stream = c.query("SELECT i FROM E").unwrap();
    let mut delivered = 0;
    let mut failure = None;
    for item in stream.by_ref() {
        match item {
            Ok(_) => delivered += 1,
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    assert_eq!(delivered, 5, "rows inside the budget still stream");
    match failure {
        Some(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::TooLarge),
        other => panic!("expected mid-stream TooLarge, got {other:?}"),
    }
    drop(stream);
    assert_eq!(past.metrics().results_too_large.load(Ordering::Relaxed), 1);
    // The session survives the refused statement.
    c.ping().unwrap();
    assert_live_scrape_valid(&mut c);
}

/// `pad(x)`: a 64 KiB string per row, to build results bigger than
/// any single frame is allowed to be.
#[derive(Debug)]
struct Pad;

impl ScalarUdf for Pad {
    fn name(&self) -> &str {
        "pad"
    }
    fn eval(&self, _args: &[Value]) -> nlq_udf::Result<Value> {
        Ok(Value::Str("x".repeat(1 << 16)))
    }
}

#[test]
fn results_larger_than_max_frame_stream_to_completion() {
    let db = Arc::new(Db::new(1));
    db.with_registry_mut(|r| r.register_scalar(Arc::new(Pad)));
    let ts = TestServer::start_with(db, ServerConfig::default());
    let mut c = ts.client();
    // 1100 × 64 KiB ≈ 68.8 MiB encoded — beyond the 64 MiB frame cap
    // that used to bound a whole result.
    load_rows(&mut c, "P", 1100);
    c.set_option("block_scan", "off").unwrap();

    let mut stream = c.query("SELECT pad(i) FROM P").unwrap();
    let mut rows = 0usize;
    for item in stream.by_ref() {
        let row = item.unwrap();
        assert_eq!(row[0].as_str().map(str::len), Some(1 << 16));
        rows += 1;
    }
    assert_eq!(rows, 1100);
    assert!(stream.stats().is_some(), "trailer totals verified");
    assert!(
        stream.chunks_received() > 64,
        "got {} chunks",
        stream.chunks_received()
    );
    drop(stream);
    let streamed = ts.metrics().bytes_streamed.load(Ordering::Relaxed);
    assert!(
        streamed as usize > MAX_FRAME,
        "streamed {streamed} bytes, frame cap is {MAX_FRAME}"
    );
    assert_live_scrape_valid(&mut c);
}

#[test]
fn cancel_wins_the_race_against_a_blocked_scan() {
    let gate = Arc::new(GateState::default());
    let db = Arc::new(Db::new(1));
    db.with_registry_mut(|r| r.register_scalar(Arc::new(GateUdf(Arc::clone(&gate)))));
    let ts = TestServer::start_with(db, ServerConfig::default());
    let metrics = ts.metrics();

    let mut c = ts.client();
    load_rows(&mut c, "G", 2);
    c.set_option("block_scan", "off").unwrap();

    let mut stream = c.query("SELECT gate(X1) FROM G").unwrap();
    // The scan is provably inside row 1's eval...
    gate.wait_entered(1);
    // ...cancel it, and wait until the server has actually flipped the
    // token (the reader counts the request only after delivering it).
    stream.cancel().unwrap();
    wait_until("cancel delivery", || {
        metrics.cancel_requests.load(Ordering::Relaxed) == 1
    });
    // Only now may the scan proceed: the next per-row check cancels.
    gate.release();
    match stream.next() {
        Some(Err(ClientError::Server { code, .. })) => assert_eq!(code, ErrorCode::Cancelled),
        other => panic!("expected Cancelled, got {other:?}"),
    }
    drop(stream);

    assert_eq!(metrics.queries_cancelled.load(Ordering::Relaxed), 1);
    // The session outlives its cancelled statement, and the catalog
    // reports it.
    c.ping().unwrap();
    let session = c.session_id();
    let rs = c
        .execute(&format!(
            "SELECT sql FROM sys.queries WHERE session = {session} AND outcome = 'cancelled'"
        ))
        .unwrap();
    assert_eq!(
        rs.rows,
        vec![vec![Value::Str("SELECT gate(X1) FROM G".into())]]
    );
    assert_live_scrape_valid(&mut c);
}

#[test]
fn cancel_mid_scan_at_one_million_rows_frees_the_worker_fast() {
    let gate = Arc::new(GateState::default());
    let db = Arc::new(Db::new(1));
    db.with_registry_mut(|r| r.register_scalar(Arc::new(GateUdf(Arc::clone(&gate)))));
    let points: Vec<Vec<f64>> = (0..1_000_000).map(|i| vec![i as f64]).collect();
    db.load_points("M", &points, false).unwrap();
    let ts = TestServer::start_with(
        db,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let metrics = ts.metrics();

    let mut c = ts.client();
    c.set_option("block_scan", "off").unwrap();
    let mut stream = c.query("SELECT gate(X1) FROM M").unwrap();
    // The scan is provably inside row 1 of 1M; cancel it and wait for
    // the token to be flipped before letting the eval return.
    gate.wait_entered(1);
    stream.cancel().unwrap();
    wait_until("cancel delivery", || {
        metrics.cancel_requests.load(Ordering::Relaxed) == 1
    });

    // 999,999 rows remain. Reaction time is one per-row check, not the
    // tail of the scan: the terminal frame must arrive within 100 ms.
    let t0 = Instant::now();
    gate.release();
    match stream.next() {
        Some(Err(ClientError::Server { code, .. })) => assert_eq!(code, ErrorCode::Cancelled),
        other => panic!("expected Cancelled, got {other:?}"),
    }
    let reacted_in = t0.elapsed();
    drop(stream);
    assert!(
        reacted_in < Duration::from_millis(100),
        "cancel took {reacted_in:?} to end a 1M-row scan"
    );
    assert_eq!(metrics.queries_cancelled.load(Ordering::Relaxed), 1);

    // The lone worker really is back in the pool: a live scrape (served
    // by the session thread, not a pool worker) reports it idle over an
    // empty queue.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let scrape = scrape_series(&c.metrics_prometheus().unwrap());
        let gauge = |name: &str| {
            let found = scrape.iter().find(|((n, _), _)| n == name);
            found.unwrap_or_else(|| panic!("scrape missing {name}")).1
        };
        let (busy, queued) = (gauge("nlq_workers_busy"), gauge("nlq_queue_depth"));
        if busy == 0.0 && queued == 0.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "worker never freed: {busy} busy, {queued} queued"
        );
        std::thread::yield_now();
    }
    assert_live_scrape_valid(&mut c);
}

#[test]
fn completion_wins_the_race_against_a_late_cancel() {
    let gate = Arc::new(GateState::default());
    let db = Arc::new(Db::new(1));
    db.with_registry_mut(|r| r.register_scalar(Arc::new(GateUdf(Arc::clone(&gate)))));
    let ts = TestServer::start_with(db, ServerConfig::default());
    let metrics = ts.metrics();

    let mut c = ts.client();
    load_rows(&mut c, "G", 1);
    c.set_option("block_scan", "off").unwrap();

    let mut stream = c.query("SELECT gate(X1) FROM G").unwrap();
    gate.wait_entered(1);
    gate.release();
    // The statement completes normally...
    let rows: Vec<_> = stream.by_ref().map(|r| r.unwrap()).collect();
    assert_eq!(rows, vec![vec![Value::Float(0.5)]]);
    // ...and a cancel arriving after its terminal frame must be a
    // no-op: acknowledged by nothing, misdelivered to no one.
    stream.cancel().unwrap();
    drop(stream);
    wait_until("late cancel delivery", || {
        metrics.cancel_requests.load(Ordering::Relaxed) == 1
    });

    // The next statement on the session is NOT the cancel's victim.
    let rs = c.execute("SELECT count(*) FROM G").unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(1));
    assert_eq!(metrics.queries_cancelled.load(Ordering::Relaxed), 0);
    assert_live_scrape_valid(&mut c);
}

#[test]
fn drain_cancels_streaming_queries_past_the_grace_period() {
    let gate = Arc::new(GateState::default());
    let db = Arc::new(Db::new(1));
    db.with_registry_mut(|r| r.register_scalar(Arc::new(StallUdf(Arc::clone(&gate)))));
    let mut ts = TestServer::start_with(
        db,
        ServerConfig {
            drain_grace: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    );
    let metrics = ts.metrics();
    let addr = ts.handle.addr();

    {
        let mut c = ts.client();
        load_rows(&mut c, "S", 500);
    }
    // ~5 s of single-partition scan: still in flight when the 100 ms
    // grace expires, so the drain's second phase must cancel it.
    let worker = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.set_option("block_scan", "off").unwrap();
        c.execute("SELECT stall(X1) FROM S")
    });
    gate.wait_entered(1);

    // The scrape must be valid while a statement is mid-flight (the
    // server is about to shut down, so this is the last live window).
    assert_live_scrape_valid(&mut ts.client());

    let t0 = Instant::now();
    ts.handle.shutdown();
    let drained_in = t0.elapsed();
    assert!(
        drained_in < Duration::from_secs(3),
        "drain waited {drained_in:?} — it must cancel, not sit out a 5 s scan"
    );

    match worker.join().expect("client thread") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Cancelled),
        other => panic!("expected Cancelled from the drain, got {other:?}"),
    }
    assert_eq!(metrics.queries_cancelled.load(Ordering::Relaxed), 1);
}

#[test]
fn sys_queries_serves_completed_traces_with_spans_and_paging() {
    let ts = TestServer::start(ServerConfig {
        // Everything is slow at a zero threshold, so the slow ring
        // retains this test's queries too.
        slow_query: Duration::from_millis(0),
        ..ServerConfig::default()
    });
    let mut c = ts.client();
    load_rows(&mut c, "T", 100);
    c.execute("SELECT sum(X1) FROM T").unwrap();
    let _ = c.execute("SELECT nope FROM T");

    let records = c
        .execute(
            "SELECT trace_id, sql, outcome, session, total_us, detail FROM sys.queries \
             ORDER BY trace_id",
        )
        .unwrap()
        .rows;
    // CREATE, INSERT, the aggregate, and the failed statement — every
    // completed statement is retained once (the recent and slow rings
    // both hold it), in completion order.
    assert!(records.len() >= 4, "got {} trace records", records.len());
    let ids: Vec<i64> = records.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");

    let agg = records
        .iter()
        .find(|r| r[1].as_str() == Some("SELECT sum(X1) FROM T"))
        .expect("aggregate query traced");
    assert_eq!(agg[2], Value::Str("ok".into()));
    assert_eq!(agg[3], Value::Int(c.session_id() as i64));
    let total_us = agg[4].as_f64().unwrap();
    assert!(total_us > 0.0);
    let spans = c
        .execute(&format!(
            "SELECT phase, rows, dur_us FROM sys.spans WHERE trace_id = {}",
            agg[0]
        ))
        .unwrap()
        .rows;
    let phases: Vec<&str> = spans.iter().filter_map(|s| s[0].as_str()).collect();
    for want in ["parse", "scan", "encode", "stream"] {
        assert!(phases.contains(&want), "missing {want} span in {phases:?}");
    }
    let scan = spans
        .iter()
        .find(|s| s[0].as_str() == Some("scan"))
        .unwrap();
    assert_eq!(scan[1], Value::Int(100));
    // Spans never claim more time than the statement took end to end.
    assert!(spans.iter().map(|s| s[2].as_f64().unwrap()).sum::<f64>() <= total_us);

    let failed = records
        .iter()
        .find(|r| r[1].as_str().is_some_and(|sql| sql.contains("nope")))
        .expect("failed query traced");
    assert_eq!(failed[2], Value::Str("error".into()));
    assert_ne!(
        failed[5],
        Value::Str(String::new()),
        "error detail retained"
    );

    // Paging: past the last id there are only the catalog queries this
    // test has run since; at a zero threshold every record is slow.
    let last_id = ids.last().unwrap();
    let newer = c
        .execute(&format!(
            "SELECT sql FROM sys.queries WHERE trace_id > {last_id}"
        ))
        .unwrap();
    assert!(!newer.rows.is_empty());
    for row in &newer.rows {
        assert!(row[0].as_str().unwrap().contains("FROM sys."), "{row:?}");
    }
    let rs = c
        .execute("SELECT slow, count(*) FROM sys.queries GROUP BY slow")
        .unwrap();
    assert_eq!(rs.rows.len(), 1, "{:?}", rs.rows);
    assert_eq!(rs.value(0, 0), &Value::Int(1));
    assert!(rs.value(0, 1).as_i64().unwrap() >= 4);
    assert!(ts.metrics().slow_queries.load(Ordering::Relaxed) >= 4);
    assert_live_scrape_valid(&mut c);
}

#[test]
fn cancel_of_a_queued_statement_skips_execution_entirely() {
    let gate = Arc::new(GateState::default());
    let db = Arc::new(Db::new(1));
    db.with_registry_mut(|r| r.register_scalar(Arc::new(GateUdf(Arc::clone(&gate)))));
    let ts = TestServer::start_with(
        db,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let metrics = ts.metrics();

    let mut c1 = ts.client();
    load_rows(&mut c1, "Q", 2);
    c1.set_option("block_scan", "off").unwrap();

    // Occupy the lone worker with a gated scan...
    let mut blocked = c1.query("SELECT gate(X1) FROM Q").unwrap();
    gate.wait_entered(1);

    // ...queue a second statement behind it, and cancel it while it is
    // provably still waiting (the worker is inside the gated eval).
    let mut c2 = ts.client();
    let mut queued = c2.query("SELECT X1 FROM Q").unwrap();
    queued.cancel().unwrap();
    wait_until("queued cancel delivery", || {
        metrics.cancel_requests.load(Ordering::Relaxed) >= 1
    });

    // Release the worker. It finishes the first statement, dequeues the
    // second, sees the flipped token, and answers Cancelled without
    // ever starting the scan.
    gate.release();
    let rows: Vec<_> = blocked.by_ref().map(|r| r.unwrap()).collect();
    assert_eq!(rows.len(), 2);
    drop(blocked);

    match queued.next() {
        Some(Err(ClientError::Server { code, .. })) => assert_eq!(code, ErrorCode::Cancelled),
        other => panic!("expected Cancelled for the queued statement, got {other:?}"),
    }
    drop(queued);

    // The skip path is accounted separately from mid-scan cancels.
    assert_eq!(metrics.queries_cancelled_queued.load(Ordering::Relaxed), 1);
    assert_eq!(metrics.queries_cancelled.load(Ordering::Relaxed), 0);

    // The catalog records the distinct outcome.
    let rs = c2
        .execute("SELECT sql, session FROM sys.queries WHERE outcome = 'cancelled-queued'")
        .unwrap();
    assert_eq!(
        rs.rows,
        vec![vec![
            Value::Str("SELECT X1 FROM Q".into()),
            Value::Int(c2.session_id() as i64)
        ]]
    );

    // Both sessions remain usable.
    c1.ping().unwrap();
    c2.ping().unwrap();
    assert_live_scrape_valid(&mut c1);
}

#[test]
fn a_cancelled_waiting_statement_answers_before_any_slot_frees() {
    let gate = Arc::new(GateState::default());
    let db = Arc::new(Db::new(1));
    db.with_registry_mut(|r| r.register_scalar(Arc::new(GateUdf(Arc::clone(&gate)))));
    let ts = TestServer::start_with(
        db,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let mut c1 = ts.client();
    load_rows(&mut c1, "Q", 2);
    c1.set_option("block_scan", "off").unwrap();
    let mut running = c1.query("SELECT gate(X1) FROM Q").unwrap();
    gate.wait_entered(1);

    let mut c2 = ts.client();
    let mut waiting = c2.query("SELECT X1 FROM Q").unwrap();
    waiting.cancel().unwrap();
    // The slot stays taken unless no answer comes within 5 s; then this
    // backstop frees it, and the answer comes too late.
    let released = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (answered, answered_rx) = std::sync::mpsc::channel::<()>();
    let backstop = {
        let (gate, released) = (Arc::clone(&gate), Arc::clone(&released));
        std::thread::spawn(move || {
            if answered_rx.recv_timeout(Duration::from_secs(5)).is_err() {
                released.store(true, Ordering::SeqCst);
                gate.release();
            }
        })
    };
    match waiting.next() {
        Some(Err(ClientError::Server { code, .. })) => assert_eq!(code, ErrorCode::Cancelled),
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert!(
        !released.load(Ordering::SeqCst),
        "the cancel was answered only once the slot freed"
    );
    let _ = answered.send(());
    drop(waiting);
    assert_eq!(
        ts.metrics()
            .queries_cancelled_queued
            .load(Ordering::Relaxed),
        1
    );
    gate.release();
    let rows: Vec<_> = running.by_ref().map(|r| r.unwrap()).collect();
    assert_eq!(rows.len(), 2);
    drop(running);
    backstop.join().unwrap();
}

/// `boom(x)`: panics, as a faulty user UDF might.
#[derive(Debug)]
struct Boom;

impl ScalarUdf for Boom {
    fn name(&self) -> &str {
        "boom"
    }
    fn eval(&self, _args: &[Value]) -> nlq_udf::Result<Value> {
        panic!("boom UDF exploded");
    }
}

#[test]
fn a_panicking_statement_fails_alone_and_the_worker_keeps_serving() {
    let db = Arc::new(Db::new(1));
    db.with_registry_mut(|r| r.register_scalar(Arc::new(Boom)));
    // One worker, and a timeout short enough that a lost worker shows
    // as a failed statement rather than a stalled test.
    let ts = TestServer::start_with(
        db,
        ServerConfig {
            workers: 1,
            query_timeout: Duration::from_secs(3),
            ..ServerConfig::default()
        },
    );
    let mut c = ts.client();
    load_rows(&mut c, "B", 3);
    for _ in 0..2 {
        match c.execute("SELECT boom(X1) FROM B") {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, ErrorCode::Sql);
                assert!(message.contains("boom UDF exploded"), "{message}");
            }
            other => panic!("expected the panic as an SQL error, got {other:?}"),
        }
    }
    let rs = c.execute("SELECT count(*) FROM B").unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(3));
    let rs = ts.client().execute("SELECT count(*) FROM B").unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(3));
}

/// `whoami(x)`: records the name of the thread that evaluates it.
#[derive(Debug, Default)]
struct WhoAmI(Mutex<Option<String>>);

impl ScalarUdf for WhoAmI {
    fn name(&self) -> &str {
        "whoami"
    }
    fn eval(&self, args: &[Value]) -> nlq_udf::Result<Value> {
        *self.0.lock().unwrap() = std::thread::current().name().map(str::to_owned);
        Ok(args[0].clone())
    }
}

#[test]
fn statements_run_on_their_session_thread() {
    let who = Arc::new(WhoAmI::default());
    let db = Arc::new(Db::new(1));
    db.with_registry_mut(|r| r.register_scalar(Arc::clone(&who) as Arc<dyn ScalarUdf>));
    let ts = TestServer::start_with(db, ServerConfig::default());
    let mut c = ts.client();
    load_rows(&mut c, "T", 1);
    c.set_option("block_scan", "off").unwrap();
    let rs = c.execute("SELECT whoami(X1) FROM T").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Float(0.5)]]);
    let name = who
        .0
        .lock()
        .unwrap()
        .clone()
        .expect("a named thread ran the UDF");
    assert!(
        name.starts_with("nlq-session-"),
        "the statement ran on {name:?}"
    );
    // No thread of this process is a statement-pool worker.
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let comm = std::fs::read_to_string(task.unwrap().path().join("comm")).unwrap_or_default();
        assert!(!comm.starts_with("nlq-pool-"), "found thread {comm:?}");
    }
}

/// `nlq_workers_busy` and `nlq_queue_depth`, read from a live scrape.
fn admission_gauges(c: &mut Client) -> (f64, f64) {
    let scrape = scrape_series(&c.metrics_prometheus().unwrap());
    let gauge = |name: &str| {
        let found = scrape.iter().find(|((n, _), _)| n == name);
        found.unwrap_or_else(|| panic!("scrape missing {name}")).1
    };
    (gauge("nlq_workers_busy"), gauge("nlq_queue_depth"))
}

#[test]
fn admission_runs_workers_queues_capacity_and_refuses_the_rest() {
    let gate = Arc::new(GateState::default());
    let db = Arc::new(Db::new(1));
    db.with_registry_mut(|r| r.register_scalar(Arc::new(GateUdf(Arc::clone(&gate)))));
    let ts = TestServer::start_with(
        db,
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
    );
    let metrics = ts.metrics();
    let mut c1 = ts.client();
    load_rows(&mut c1, "Q", 2);
    c1.set_option("block_scan", "off").unwrap();

    // The one slot: a gated statement, provably executing.
    let mut running = c1.query("SELECT gate(X1) FROM Q").unwrap();
    gate.wait_entered(1);
    // The one queue place: a second statement waits for the slot.
    let mut c2 = ts.client();
    let mut waiting = c2.query("SELECT X1 FROM Q").unwrap();
    let mut c3 = ts.client();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let gauges = admission_gauges(&mut c3);
        if gauges == (1.0, 1.0) {
            break;
        }
        assert!(Instant::now() < deadline, "gauges read {gauges:?}");
        std::thread::yield_now();
    }
    // A third has nowhere to go.
    match c3.execute("SELECT X1 FROM Q") {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Busy, "{message}");
            assert!(message.contains("queue is full"), "{message}");
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    assert_eq!(metrics.queue_rejections.load(Ordering::Relaxed), 1);

    // Freeing the slot runs the waiting statement to completion.
    gate.release();
    let rows: Vec<_> = running.by_ref().map(|r| r.unwrap()).collect();
    assert_eq!(rows.len(), 2);
    drop(running);
    let rows: Vec<_> = waiting.by_ref().map(|r| r.unwrap()).collect();
    assert_eq!(rows, vec![vec![Value::Float(0.5)], vec![Value::Float(1.5)]]);
    drop(waiting);
    assert_eq!(admission_gauges(&mut c3), (0.0, 0.0));
    assert_live_scrape_valid(&mut c3);
}

#[test]
fn a_statement_waiting_past_its_deadline_times_out() {
    let gate = Arc::new(GateState::default());
    let db = Arc::new(Db::new(1));
    db.with_registry_mut(|r| r.register_scalar(Arc::new(GateUdf(Arc::clone(&gate)))));
    let ts = TestServer::start_with(
        db,
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            query_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    );
    let metrics = ts.metrics();
    let mut c1 = ts.client();
    load_rows(&mut c1, "Q", 2);
    c1.set_option("block_scan", "off").unwrap();
    let mut running = c1.query("SELECT gate(X1) FROM Q").unwrap();
    gate.wait_entered(1);

    // The slot stays taken; the waiting statement answers Timeout.
    let mut c2 = ts.client();
    match c2.execute("SELECT X1 FROM Q") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Timeout),
        other => panic!("expected Timeout for the waiting statement, got {other:?}"),
    }
    // The gated one is past its deadline too; it answers Timeout once
    // it can check its token.
    gate.release();
    match running.next() {
        Some(Err(ClientError::Server { code, .. })) => assert_eq!(code, ErrorCode::Timeout),
        other => panic!("expected Timeout for the gated statement, got {other:?}"),
    }
    drop(running);
    assert_eq!(metrics.query_timeouts.load(Ordering::Relaxed), 2);
    // c2's session may still be retaining its record.
    wait_for_value(
        &mut c1,
        "SELECT count(*) FROM sys.queries WHERE outcome = 'timeout'",
        Value::Int(2),
    );
    c2.ping().unwrap();
}

#[test]
fn batch_score_is_traced_once_per_request_on_every_outcome() {
    let ts = TestServer::start(ServerConfig::default());
    let mut c = ts.client();
    c.execute("CREATE TABLE F (i INT, X1 FLOAT)").unwrap();
    c.execute("INSERT INTO F VALUES (1, 1.0), (2, 2.0)")
        .unwrap();
    c.execute("CREATE TABLE BETA (b0 FLOAT, b1 FLOAT)").unwrap();
    c.execute("INSERT INTO BETA VALUES (1.0, 0.5)").unwrap();

    let rs = c.batch_score("F", "BETA", &[1, 2], false).unwrap();
    assert_eq!(rs.rows.len(), 2);
    match c.batch_score("F", "NO_MODEL", &[1], false) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Sql),
        other => panic!("expected an Sql error, got {other:?}"),
    }

    let rs = c
        .execute(&format!(
            "SELECT sql, outcome, detail, total_us, cpu_us FROM sys.queries WHERE session = {} \
             ORDER BY trace_id",
            c.session_id()
        ))
        .unwrap();
    let scored: Vec<&Vec<Value>> = rs
        .rows
        .iter()
        .filter(|r| r[0].as_str().is_some_and(|sql| sql.contains("BATCH SCORE")))
        .collect();
    assert_eq!(scored.len(), 2, "{:?}", rs.rows);
    assert_eq!(
        scored[0][0],
        Value::Str("BATCH SCORE F USING BETA (2 keys)".into())
    );
    assert_eq!(scored[0][1], Value::Str("ok".into()));
    assert!(scored[0][3].as_f64().unwrap() > 0.0);
    assert!(
        scored[0][4].as_f64().unwrap() > 0.0,
        "no CPU charged: {:?}",
        scored[0]
    );
    assert_eq!(
        scored[1][0],
        Value::Str("BATCH SCORE F USING NO_MODEL (1 keys)".into())
    );
    assert_eq!(scored[1][1], Value::Str("error".into()));
    assert!(
        scored[1][2]
            .as_str()
            .is_some_and(|d| d.contains("NO_MODEL")),
        "{:?}",
        scored[1]
    );
}

#[test]
fn ingest_envelope_commits_atomically_and_scores_over_the_wire() {
    let ts = TestServer::start(ServerConfig::default());
    let mut c = ts.client();
    c.execute("CREATE TABLE F (i INT, X1 FLOAT, X2 FLOAT)")
        .unwrap();
    c.execute("CREATE TABLE BETA (b0 FLOAT, b1 FLOAT, b2 FLOAT)")
        .unwrap();
    c.execute("INSERT INTO BETA VALUES (1.0, 0.5, -0.25)")
        .unwrap();

    // Stream 200 rows in 4 pipelined chunks; nothing is visible until
    // the envelope's single InsertAck.
    let mut ing = c.begin_ingest("F", &[]).unwrap();
    for chunk in 0..4i64 {
        let rows = (0..50)
            .map(|r| {
                let i = chunk * 50 + r + 1;
                vec![
                    Value::Int(i),
                    Value::Float(i as f64),
                    Value::Float(2.0 * i as f64),
                ]
            })
            .collect();
        ing.chunk(rows).unwrap();
    }
    assert_eq!(ing.rows_sent(), 200);
    assert_eq!(ing.finish().unwrap(), 200);
    assert_eq!(ts.metrics().ingest_rows.load(Ordering::Relaxed), 200);
    let rs = c.execute("SELECT count(*) FROM F").unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(200));

    // Batch scoring: one round trip, rows in key order, NULL for the
    // absent key, and PK point lookups rather than a scan.
    let keys = [1i64, 100, 200, 999];
    let rs = c.batch_score("F", "BETA", &keys, false).unwrap();
    assert_eq!(rs.columns, vec!["i".to_string(), "score".to_string()]);
    assert_eq!(rs.rows.len(), keys.len());
    for (row, &k) in rs.rows.iter().zip(&keys) {
        assert_eq!(row[0], Value::Int(k));
    }
    let expect = |k: f64| 1.0 + 0.5 * k - 0.25 * 2.0 * k;
    for (r, &k) in keys[..3].iter().enumerate() {
        let got = rs.rows[r][1].as_f64().unwrap();
        assert!((got - expect(k as f64)).abs() < 1e-12, "key {k}: {got}");
    }
    assert!(rs.rows[3][1].is_null(), "absent key scores NULL");
    assert!(
        rs.stats.rows_scanned <= keys.len() as u64,
        "point lookups must not scan: {:?}",
        rs.stats
    );
    assert_eq!(
        ts.metrics().batch_score_keys.load(Ordering::Relaxed),
        keys.len() as u64
    );

    // EXPLAIN names the index path.
    let plan = c.batch_score("F", "BETA", &keys, true).unwrap();
    let text: Vec<String> = plan
        .rows
        .iter()
        .filter_map(|r| r.first().map(|v| v.to_string()))
        .collect();
    assert!(
        text.iter().any(|l| l.contains("point lookup: pk index")),
        "plan was {text:?}"
    );
    assert_live_scrape_valid(&mut c);
}

#[test]
fn aborted_ingest_mid_chunk_leaves_no_partial_batch() {
    let ts = TestServer::start(ServerConfig::default());
    let mut c = ts.client();
    c.execute("CREATE TABLE A (i INT, X1 FLOAT)").unwrap();

    // Explicit abort after two buffered chunks: nothing commits.
    let mut ing = c.begin_ingest("A", &[]).unwrap();
    ing.chunk(vec![vec![Value::Int(1), Value::Float(1.5)]])
        .unwrap();
    ing.chunk(vec![vec![Value::Int(2), Value::Float(2.5)]])
        .unwrap();
    ing.abort().unwrap();
    let rs = c.execute("SELECT count(*) FROM A").unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(0), "aborted rows visible");

    // Dropping the handle mid-envelope aborts too.
    {
        let mut ing = c.begin_ingest("A", &[]).unwrap();
        ing.chunk(vec![vec![Value::Int(3), Value::Float(3.5)]])
            .unwrap();
    }
    let rs = c.execute("SELECT count(*) FROM A").unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(0), "dropped rows visible");

    // A disconnect with an envelope in flight commits nothing either:
    // the session dies with its buffered chunks.
    {
        let mut c2 = ts.client();
        let mut ing = c2.begin_ingest("A", &[]).unwrap();
        ing.chunk(vec![vec![Value::Int(4), Value::Float(4.5)]])
            .unwrap();
        // Neither finish nor abort: the whole connection drops.
        std::mem::forget(ing);
    }
    wait_until("disconnected session to close", || {
        ts.metrics().sessions_active.load(Ordering::SeqCst) <= 1
    });
    let rs = c.execute("SELECT count(*) FROM A").unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(0), "disconnect leaked rows");

    // The surviving session still ingests normally after all of that.
    let mut ing = c.begin_ingest("A", &[]).unwrap();
    ing.chunk(vec![vec![Value::Int(10), Value::Float(0.5)]])
        .unwrap();
    assert_eq!(ing.finish().unwrap(), 1);
    let rs = c.execute("SELECT count(*) FROM A").unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(1));
    assert_live_scrape_valid(&mut c);
}

#[test]
fn poisoned_envelope_reports_the_first_error_at_done() {
    let ts = TestServer::start(ServerConfig::default());
    let mut c = ts.client();
    c.execute("CREATE TABLE P (i INT, X1 FLOAT)").unwrap();

    let mut ing = c.begin_ingest("P", &[]).unwrap();
    ing.chunk(vec![vec![Value::Int(1), Value::Float(1.0)]])
        .unwrap();
    // Wrong arity poisons the stream server-side; later chunks are
    // swallowed and the error surfaces once, at finish.
    ing.chunk(vec![vec![Value::Int(2)]]).unwrap();
    ing.chunk(vec![vec![Value::Int(3), Value::Float(3.0)]])
        .unwrap();
    match ing.finish() {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Protocol);
            assert!(message.contains("header columns"), "{message}");
        }
        other => panic!("expected the poisoning error, got {other:?}"),
    }
    let rs = c.execute("SELECT count(*) FROM P").unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(0), "poisoned rows visible");

    // An unknown table fails the same way (header errors also park
    // until Done), and the session survives for a correct retry.
    let ing = c.begin_ingest("NOPE", &[]).unwrap();
    assert!(ing.finish().is_err());
    let mut ing = c.begin_ingest("P", &["X1", "i"]).unwrap();
    ing.chunk(vec![vec![Value::Float(7.0), Value::Int(42)]])
        .unwrap();
    assert_eq!(ing.finish().unwrap(), 1);
    let rs = c.execute("SELECT i, X1 FROM P").unwrap();
    assert_eq!(rs.rows[0], vec![Value::Int(42), Value::Float(7.0)]);
    assert_live_scrape_valid(&mut c);
}

/// One training row `(i, X1, X2, Y)` per key, with X2 decorrelated
/// from X1 so the daemon's OLS refit is never singular.
fn training_rows(lo: i64, n: i64) -> Vec<Vec<Value>> {
    (lo..lo + n)
        .map(|i| {
            let x2 = ((i * 37) % 101) as f64 * 0.1;
            vec![
                Value::Int(i),
                Value::Float(i as f64 * 0.5),
                Value::Float(x2),
                Value::Float(1.0 + i as f64 * 0.125 - 0.5 * x2),
            ]
        })
        .collect()
}

#[test]
fn ingest_backpressure_refuses_with_retry_until_the_daemon_catches_up() {
    // The daemon is gated: it ticks only on `gate.step()`, which also
    // blocks until the tick completes — every phase of this test is
    // synchronized on that edge, never on a sleep.
    let gate = Arc::new(TickGate::default());
    let ts = TestServer::start(ServerConfig {
        refresh_cadence: Some(Duration::from_secs(3600)),
        refresh_gate: Some(Arc::clone(&gate)),
        staleness_bound: Some(50),
        ..ServerConfig::default()
    });
    let mut c = ts.client();
    c.execute("CREATE TABLE PTS (i INT, X1 FLOAT, X2 FLOAT, Y FLOAT)")
        .unwrap();
    c.execute("CREATE SUMMARY S ON PTS (X1, X2, Y) NO MINMAX")
        .unwrap();

    fn ingest(c: &mut Client, rows: Vec<Vec<Value>>) -> Result<u64, ClientError> {
        let mut ing = c.begin_ingest("PTS", &[])?;
        ing.chunk(rows)?;
        ing.finish()
    }

    // Before the first tick no binding exists, so there is no model to
    // be stale relative to: the envelope commits.
    assert_eq!(ingest(&mut c, training_rows(1, 100)).unwrap(), 100);
    // Tick 1: discovery binds a regression model to S and publishes it
    // at 100 folded rows.
    gate.step();

    // The bound is checked *before* the envelope applies, so this one
    // still sees zero lag and acks — and leaves the daemon 100 rows
    // behind.
    assert_eq!(ingest(&mut c, training_rows(101, 100)).unwrap(), 100);
    assert_eq!(c.metric("refresh_lag_rows", "").unwrap(), 100.0);

    // Past the bound: refused with the retry hint; nothing committed.
    match ingest(&mut c, training_rows(201, 10)) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Retry);
            assert!(message.contains("retry"), "{message}");
        }
        other => panic!("expected Retry back-pressure, got {other:?}"),
    }
    assert_eq!(ts.metrics().ingest_backpressure.load(Ordering::Relaxed), 1);
    let rs = c.execute("SELECT count(*) FROM PTS").unwrap();
    assert_eq!(
        rs.value(0, 0),
        &Value::Int(200),
        "refused envelope must not commit"
    );

    // Tick 2 republishes at 200 folded rows; the lag drains to zero
    // and the retried envelope acks.
    gate.step();
    assert_eq!(c.metric("refresh_lag_rows", "").unwrap(), 0.0);
    assert_eq!(ingest(&mut c, training_rows(201, 10)).unwrap(), 10);
    let rs = c.execute("SELECT count(*) FROM PTS").unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(210));
    // The session survives the refusal; the retry hint is a per-envelope
    // verdict, not a poisoned connection.
    c.ping().unwrap();
    assert_live_scrape_valid(&mut c);
}

#[test]
fn durable_server_survives_restart_with_checkpoint_and_wal_counters() {
    let dir = std::env::temp_dir().join(format!("nlq-harness-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Arc::new(Db::open_durable(1, &dir, true).unwrap());
        let ts = TestServer::start_with(db, ServerConfig::default());
        let mut c = ts.client();
        c.execute("CREATE TABLE T (i INT, X1 FLOAT)").unwrap();
        let mut ing = c.begin_ingest("T", &[]).unwrap();
        ing.chunk(
            (1..=100i64)
                .map(|i| vec![Value::Int(i), Value::Float(i as f64)])
                .collect(),
        )
        .unwrap();
        assert_eq!(ing.finish().unwrap(), 100);

        // A durable engine surfaces its WAL through sys.wal,
        // sys.metrics, and the Prometheus scrape.
        let wal = |c: &mut Client, name: &str| {
            let rs = c
                .execute(&format!(
                    "SELECT value FROM sys.wal WHERE metric = '{name}'"
                ))
                .unwrap();
            rs.value(0, 0).as_f64().unwrap()
        };
        assert!(
            wal(&mut c, "wal_log_bytes") > 0.0,
            "live log is non-empty after commits"
        );
        assert!(c.metric("wal_fsyncs_total", "").unwrap() >= 1.0);
        let prom = c.metrics_prometheus().unwrap();
        assert!(prom.contains("nlq_wal_bytes_total"));
        assert!(prom.contains("nlq_checkpoints_total"));

        // An explicit client checkpoint snapshots and truncates.
        c.checkpoint().unwrap();
        assert_eq!(wal(&mut c, "wal_log_bytes"), 0.0);
        assert_eq!(wal(&mut c, "checkpoints_total"), 1.0);

        // A post-checkpoint tail, to be replayed at the next open.
        let mut ing = c.begin_ingest("T", &[]).unwrap();
        ing.chunk(
            (101..=150i64)
                .map(|i| vec![Value::Int(i), Value::Float(i as f64)])
                .collect(),
        )
        .unwrap();
        assert_eq!(ing.finish().unwrap(), 50);
    }

    // "Restart": a fresh durable open over the same directory sees the
    // checkpoint plus the logged tail.
    let db = Arc::new(Db::open_durable(1, &dir, true).unwrap());
    let info = db.recovery_info().expect("recovered engine reports info");
    assert!(info.checkpoint_tables >= 1, "{info:?}");
    assert_eq!(
        info.replayed_envelopes, 1,
        "only the post-checkpoint envelope replays: {info:?}"
    );
    let ts = TestServer::start_with(db, ServerConfig::default());
    let mut c = ts.client();
    let rs = c.execute("SELECT count(*), sum(X1) FROM T").unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(150));
    assert_eq!(rs.value(0, 1).as_f64(), Some((1..=150).sum::<i64>() as f64));
    assert!(c.metric("recovery_replayed_records", "").unwrap() >= 1.0);
    assert_live_scrape_valid(&mut c);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn refresh_daemon_republishes_models_from_streamed_ingest() {
    let ts = TestServer::start(ServerConfig {
        refresh_cadence: Some(Duration::from_millis(5)),
        ..ServerConfig::default()
    });
    let mut c = ts.client();
    c.execute("CREATE TABLE PTS (i INT, X1 FLOAT, X2 FLOAT, Y FLOAT)")
        .unwrap();
    c.execute("CREATE SUMMARY S ON PTS (X1, X2, Y) NO MINMAX")
        .unwrap();

    // Stream the training rows; the daemon's auto-discovered binding
    // turns the folded Γ into a published s_beta model table.
    let mut ing = c.begin_ingest("PTS", &[]).unwrap();
    let rows: Vec<Vec<Value>> = (1..=400i64)
        .map(|i| {
            // X2 must not be collinear with X1 or the OLS refit is
            // singular and the daemon has nothing to publish.
            let x2 = ((i * 37) % 101) as f64 * 0.1;
            vec![
                Value::Int(i),
                Value::Float(i as f64 * 0.5),
                Value::Float(x2),
                Value::Float(1.0 + i as f64 * 0.125 - 0.5 * x2),
            ]
        })
        .collect();
    for chunk in rows.chunks(90) {
        ing.chunk(chunk.to_vec()).unwrap();
    }
    assert_eq!(ing.finish().unwrap(), 400);

    // The daemon publishes without any further client action;
    // sys.metrics reads its counter.
    let deadline = Instant::now() + Duration::from_secs(10);
    while c.metric("model_refreshes_total", "").unwrap() < 1.0 {
        assert!(Instant::now() < deadline, "daemon never published");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The published model serves keyed scores over the wire.
    let rs = c
        .batch_score("PTS", "s_beta", &[1, 200, 400], false)
        .unwrap();
    assert_eq!(rs.rows.len(), 3);
    for row in &rs.rows {
        assert!(row[1].as_f64().is_some(), "score missing: {row:?}");
    }

    // The Prometheus scrape exposes the serving counters.
    let prom = c.metrics_prometheus().unwrap();
    for needle in [
        "nlq_ingest_rows_total",
        "nlq_batch_score_keys_total",
        "nlq_model_refreshes_total",
    ] {
        assert!(prom.contains(needle), "scrape missing {needle}");
    }
    assert_live_scrape_valid(&mut c);
}

#[test]
fn sys_catalog_answers_telemetry_queries_through_the_block_path() {
    let ts = TestServer::start(ServerConfig::default());
    let mut c = ts.client();
    let session = c.session_id();
    load_rows(&mut c, "W", 50);

    // Capture the server-minted query id from the stream header...
    let mut stream = c.query("SELECT sum(X1) FROM W").unwrap();
    let qid = stream.query_id().unwrap();
    assert!(qid > 0, "admission mints nonzero query ids");
    let rows: Vec<_> = stream.by_ref().map(|r| r.unwrap()).collect();
    assert_eq!(rows.len(), 1);
    drop(stream);
    let _ = c.execute("SELECT nope FROM W"); // one traced failure

    // ...and find the finished statement in sys.queries under that id,
    // with its text, outcome, and nonzero phase times.
    let rs = c
        .execute(&format!(
            "SELECT sql, outcome, total_us, parse_us, scan_us FROM sys.queries \
             WHERE query_id = {qid}"
        ))
        .unwrap();
    assert_eq!(rs.rows.len(), 1, "one catalog row per query id");
    assert_eq!(rs.value(0, 0), &Value::Str("SELECT sum(X1) FROM W".into()));
    assert_eq!(rs.value(0, 1), &Value::Str("ok".into()));
    for (i, phase) in [(2, "total_us"), (3, "parse_us"), (4, "scan_us")] {
        let us = rs.value(0, i).as_f64().unwrap();
        assert!(us > 0.0, "{phase} must be nonzero, got {us}");
    }

    // The failed statement is visible through its numeric companion
    // column (string predicates are row-path only).
    let rs = c
        .execute("SELECT count(*) FROM sys.queries WHERE ok = 0")
        .unwrap();
    assert!(rs.value(0, 0).as_i64().unwrap() >= 1, "failure traced");

    // A Γ aggregate over telemetry: the same nlq_list UDF that builds
    // model summaries, aggregating phase durations of the ok queries.
    let rs = c
        .execute("SELECT nlq_list(2, 'triang', parse_us, scan_us) FROM sys.queries WHERE ok = 1")
        .unwrap();
    assert!(!rs.rows.is_empty(), "Γ over sys.queries returns a result");

    // EXPLAIN confirms the snapshot scans through the normal block
    // path — telemetry is just another table to the engine.
    let plan = c
        .execute("EXPLAIN SELECT count(*), sum(total_us) FROM sys.queries WHERE ok = 1")
        .unwrap();
    let text: Vec<String> = plan
        .rows
        .iter()
        .filter_map(|r| r.first().map(|v| v.to_string()))
        .collect();
    assert!(
        text.iter().any(|l| l.contains("scan mode: block")),
        "sys.queries must ride the block path, plan was {text:?}"
    );

    // sys.sessions sees this live connection with its statement count
    // and its per-session option.
    c.set_option("block_scan", "on").unwrap();
    let rs = c
        .execute(&format!(
            "SELECT peer, statements, block_scan FROM sys.sessions WHERE session = {session}"
        ))
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_ne!(rs.value(0, 0), &Value::Str(String::new()), "peer recorded");
    assert!(rs.value(0, 1).as_i64().unwrap() >= 1);
    assert_eq!(rs.value(0, 2), &Value::Str("on".into()));

    // sys.metrics serves the registry as rows.
    assert!(c.metric("sessions_active", "").unwrap() >= 1.0);
    assert_live_scrape_valid(&mut c);
}

#[test]
fn partitioned_query_spans_share_its_query_id_and_count_helper_cpu() {
    let db = Arc::new(Db::new(4));
    let handle = serve(
        Arc::clone(&db) as Arc<dyn SqlEngine>,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        },
    )
    .expect("bind partitioned test server");
    let mut c = Client::connect(handle.addr()).expect("connect");
    load_rows(&mut c, "SH", 4000);

    let mut stream = c.query("SELECT count(*), sum(X1) FROM SH").unwrap();
    let qid = stream.query_id().unwrap();
    let rows: Vec<_> = stream.by_ref().map(|r| r.unwrap()).collect();
    assert_eq!(rows[0][0], Value::Int(4000));
    drop(stream);

    // The statement's spans carry its query id: the catalog join is
    // one WHERE clause away, and the scan over four partitions is one
    // of them.
    let rs = c
        .execute(&format!(
            "SELECT phase, rows FROM sys.spans WHERE query_id = {qid}"
        ))
        .unwrap();
    assert!(
        rs.rows
            .iter()
            .any(|r| r[0] == Value::Str("scan".into()) && r[1] == Value::Int(4000)),
        "no scan span of 4000 rows under query {qid}: {:?}",
        rs.rows
    );

    // sys.queries reports the CPU the caller and its scan helpers spent.
    let rs = c
        .execute(&format!(
            "SELECT cpu_us FROM sys.queries WHERE query_id = {qid}"
        ))
        .unwrap();
    assert!(
        rs.value(0, 0).as_f64().unwrap() > 0.0,
        "CPU is sampled on linux"
    );
    assert_live_scrape_valid(&mut c);
}

#[test]
fn trace_paging_detects_the_gap_after_ring_wraparound() {
    let ts = TestServer::start(ServerConfig {
        trace_ring: 4,
        ..ServerConfig::default()
    });
    let mut c = ts.client();
    load_rows(&mut c, "TR", 2);
    for _ in 0..10 {
        c.execute("SELECT count(*) FROM TR").unwrap();
    }

    // A cursor at 0 has provably missed evicted records: the oldest
    // retained id is not the cursor's successor.
    let rs = c
        .execute("SELECT min(trace_id), max(trace_id), count(*) FROM sys.queries")
        .unwrap();
    let oldest = rs.value(0, 0).as_i64().unwrap();
    let newest = rs.value(0, 1).as_i64().unwrap();
    assert!(oldest > 1, "cursor 0 is behind the wrapped ring");
    assert!(
        rs.value(0, 2).as_i64().unwrap() <= 4,
        "ring retains at most its capacity"
    );

    // Paging from the newest retained id is complete: the next record
    // (the catalog query above) is the cursor's direct successor.
    let rs = c
        .execute(&format!(
            "SELECT min(trace_id) FROM sys.queries WHERE trace_id > {newest}"
        ))
        .unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(newest + 1));

    // Eviction pressure is exported to sys.metrics and the scrape.
    assert!(c.metric("trace_ring_evicted_total", "").unwrap() >= 1.0);
    let prom = c.metrics_prometheus().unwrap();
    assert!(prom.contains("nlq_trace_ring_evicted_total"));
    assert_live_scrape_valid(&mut c);
}

/// Request tags 0x03, 0x04 and 0x08 are unassigned: each is answered
/// with a `Protocol` error, like any unknown tag, and the session keeps
/// serving.
#[test]
fn unassigned_request_tags_get_a_protocol_error() {
    use nlq_server::wire::{read_frame, write_frame, Request, Response};

    let ts = TestServer::start(ServerConfig::default());
    let stream = std::net::TcpStream::connect(ts.handle.addr()).unwrap();
    let read = || Response::decode(&read_frame(&mut &stream).unwrap().expect("a reply")).unwrap();
    let hello = read();
    assert!(matches!(hello, Response::Hello { .. }), "{hello:?}");
    let reply = |payload: &[u8]| {
        write_frame(&mut &stream, payload).unwrap();
        read()
    };
    for tag in [0x03u8, 0x04, 0x08] {
        match reply(&[tag]) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol, "tag {tag:#x}"),
            other => panic!("tag {tag:#x}: expected a Protocol error, got {other:?}"),
        }
    }
    assert_eq!(reply(&Request::Ping.encode()), Response::Pong);
}

/// `sys.metrics` and the Prometheus scrape are two renderings of one
/// registry: on every engine kind they must name exactly the same
/// `(family, labels)` series — including the WAL and recovery families
/// on a durable engine.
#[test]
fn prometheus_scrape_and_sys_metrics_name_the_same_series() {
    use std::collections::BTreeSet;

    let dir = std::env::temp_dir().join(format!("nlq-harness-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engines: Vec<(&str, Arc<dyn SqlEngine>, Vec<&str>)> = vec![
        (
            "volatile",
            Arc::new(Db::new(1)),
            vec!["nlq_plan_cache_hits_total"],
        ),
        (
            "durable",
            Arc::new(Db::open_durable(1, &dir, true).unwrap()),
            vec!["nlq_wal_fsyncs_total", "nlq_recovery_replayed_records"],
        ),
        (
            "4 workers",
            Arc::new(Db::new(4)),
            vec!["nlq_plan_cache_hits_total"],
        ),
    ];
    for (kind, engine, must_have) in engines {
        let handle = serve(
            engine,
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                ..ServerConfig::default()
            },
        )
        .expect("bind parity test server");
        let mut c = Client::connect(handle.addr()).expect("connect");
        load_rows(&mut c, "PAR", 10);
        c.execute("SELECT sum(X1) FROM PAR").unwrap();

        let text = c.metrics_prometheus().unwrap();
        validate_exposition(&text).unwrap_or_else(|why| panic!("{kind}: {why}\n{text}"));
        let scraped: BTreeSet<(String, String)> =
            scrape_series(&text).into_iter().map(|(k, _)| k).collect();
        let rs = c
            .execute("SELECT metric, labels, value FROM sys.metrics")
            .unwrap();
        let queried: BTreeSet<(String, String)> = rs
            .rows
            .iter()
            .map(|r| {
                assert!(r[2].as_f64().is_some(), "{kind}: non-numeric value {r:?}");
                (
                    format!("nlq_{}", r[0].as_str().unwrap()),
                    r[1].as_str().unwrap().to_owned(),
                )
            })
            .collect();
        assert_eq!(rs.rows.len(), queried.len(), "{kind}: duplicate series");
        assert_eq!(scraped, queried, "{kind}: the two renderings disagree");
        for name in must_have {
            assert!(
                queried.iter().any(|(n, _)| n == name),
                "{kind}: sys.metrics lacks {name}"
            );
        }
        // sys.wal is the durability slice of the same list.
        let wal = c.execute("SELECT metric FROM sys.wal").unwrap();
        assert_eq!(wal.rows.is_empty(), kind != "durable", "{kind}");
        for row in &wal.rows {
            let name = format!("nlq_{}", row[0].as_str().unwrap());
            assert!(queried.iter().any(|(n, _)| *n == name), "{kind}: {name}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// CPU each call of a [`Probe`] UDF burns.
const PROBE_SPIN: Duration = Duration::from_millis(2);

/// A test UDF under any name: it burns [`PROBE_SPIN`] of thread CPU per
/// call and counts what it burned into a shared sink, or panics. Under
/// the name `linearregscore` it replaces the scoring UDF a `BatchScore`
/// on a regression model calls.
#[derive(Debug)]
struct Probe {
    name: &'static str,
    panics: bool,
    burned: Arc<std::sync::atomic::AtomicU64>,
}

impl ScalarUdf for Probe {
    fn name(&self) -> &str {
        self.name
    }
    fn eval(&self, _args: &[Value]) -> nlq_udf::Result<Value> {
        assert!(!self.panics, "probe UDF exploded");
        let started = nlq_obs::thread_cpu_nanos();
        let spin = PROBE_SPIN.as_nanos() as u64;
        while nlq_obs::thread_cpu_nanos() - started < spin {
            std::hint::black_box(started);
        }
        let burned = nlq_obs::thread_cpu_nanos() - started;
        self.burned.fetch_add(burned, Ordering::Relaxed);
        Ok(Value::Float(1.0))
    }
}

/// The request kinds that do work, as a client sends them.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Execute,
    BatchScore,
    Ingest,
    Checkpoint,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Execute => "execute",
            Kind::BatchScore => "batch_score",
            Kind::Ingest => "ingest",
            Kind::Checkpoint => "checkpoint",
        }
    }

    /// Sends one request of this kind on `c` — failing with an SQL or
    /// protocol error when `fail` — and waits for its reply.
    fn send(self, c: &mut Client, fail: bool) -> Result<(), ClientError> {
        match self {
            Kind::Execute => {
                let sql = if fail {
                    "SELECT nope FROM T"
                } else {
                    "SELECT probe(X1) FROM T"
                };
                c.execute(sql).map(drop)
            }
            Kind::BatchScore => {
                let model = if fail { "NO_MODEL" } else { "BETA" };
                c.batch_score("T", model, &[1, 2], false).map(drop)
            }
            Kind::Ingest => {
                // A row of the wrong arity poisons the envelope.
                let row = if fail {
                    vec![Value::Int(3)]
                } else {
                    vec![Value::Int(3), Value::Float(3.0)]
                };
                let mut ing = c.begin_ingest("T", &[])?;
                ing.chunk(vec![row])?;
                ing.finish().map(drop)
            }
            Kind::Checkpoint => c.checkpoint(),
        }
    }
}

/// How a request ends in one cell of the matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
enum End {
    Ok,
    SqlError,
    /// A test UDF panics inside the request.
    Panic,
    /// The drain cancels the request while it waits for a slot.
    DrainCancel,
    /// The request's deadline passes while it waits for a slot.
    Timeout,
    /// The wait queue is full.
    Busy,
}

const ENDS: [End; 6] = [
    End::Ok,
    End::SqlError,
    End::Panic,
    End::DrainCancel,
    End::Timeout,
    End::Busy,
];

/// Kind × end: the `sys.queries` outcome each cell must leave, or
/// [`SKIPPED`] where the cell cannot happen (no UDF runs inside an
/// ingest commit or a checkpoint). A checkpoint fails through a file
/// squatting on its `checkpoint.tmp` directory.
#[rustfmt::skip]
const MATRIX: [(Kind, [&str; 6]); 4] = [
    //                  Ok    SqlError Panic    DrainCancel         Timeout    Busy
    (Kind::Execute,    ["ok", "error", "error", "cancelled-queued", "timeout", "busy"]),
    (Kind::BatchScore, ["ok", "error", "error", "cancelled-queued", "timeout", "busy"]),
    (Kind::Ingest,     ["ok", "error", SKIPPED, "cancelled-queued", "timeout", "busy"]),
    (Kind::Checkpoint, ["ok", "error", SKIPPED, "cancelled-queued", "timeout", "busy"]),
];

/// A cell of [`MATRIX`] that cannot happen.
const SKIPPED: &str = "skipped";

/// The error code the client sees in each cell.
fn expected_code(kind: Kind, end: End) -> Option<ErrorCode> {
    match end {
        End::Ok => None,
        End::SqlError if kind == Kind::Ingest => Some(ErrorCode::Protocol),
        End::SqlError | End::Panic => Some(ErrorCode::Sql),
        End::DrainCancel => Some(ErrorCode::Cancelled),
        End::Timeout => Some(ErrorCode::Timeout),
        End::Busy => Some(ErrorCode::Busy),
    }
}

/// Runs one cell on a server of its own. One slot, one queue place:
/// the waiting ends queue the request behind a gated `Execute`, and
/// `Busy` finds the place taken by a second one.
fn run_cell(kind: Kind, end: End, want: &str) -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!(
        "nlq-harness-cell-{}-{}-{end:?}",
        std::process::id(),
        kind.name()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let db = if kind == Kind::Checkpoint && end == End::SqlError {
        let db = Db::open_durable(1, &dir, true).unwrap();
        std::fs::write(dir.join("checkpoint.tmp"), b"in the way").unwrap();
        db
    } else {
        Db::new(1)
    };
    let gate = Arc::new(GateState::default());
    let burned = Arc::new(std::sync::atomic::AtomicU64::new(0));
    db.with_registry_mut(|r| {
        r.register_scalar(Arc::new(GateUdf(Arc::clone(&gate))));
        for name in ["probe", "linearregscore"] {
            r.register_scalar(Arc::new(Probe {
                name,
                panics: end == End::Panic,
                burned: Arc::clone(&burned),
            }));
        }
    });
    let TestServer { db, mut handle } = TestServer::start_with(
        Arc::new(db),
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            query_timeout: if end == End::Timeout {
                Duration::from_millis(300)
            } else {
                Duration::from_secs(30)
            },
            drain_grace: Duration::from_millis(300),
            refresh_cadence: None,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();
    let mut setup = Client::connect(addr).unwrap();
    setup.execute("CREATE TABLE T (i INT, X1 FLOAT)").unwrap();
    setup
        .execute("INSERT INTO T VALUES (1, 1.0), (2, 2.0)")
        .unwrap();
    setup
        .execute("CREATE TABLE BETA (b0 FLOAT, b1 FLOAT)")
        .unwrap();
    setup.execute("INSERT INTO BETA VALUES (1.0, 0.5)").unwrap();

    let mut c = Client::connect(addr).unwrap();
    let session = c.session_id();
    let got = if matches!(end, End::Ok | End::SqlError | End::Panic) {
        kind.send(&mut c, end == End::SqlError)
    } else {
        let mut holder = Client::connect(addr).unwrap();
        holder.set_option("block_scan", "off").unwrap();
        let mut held = holder.query("SELECT gate(X1) FROM T").unwrap();
        let _open = OpenOnDrop(Arc::clone(&gate));
        gate.wait_entered(1);
        let filler = (end == End::Busy).then(|| {
            std::thread::spawn(move || {
                let mut f = Client::connect(addr).unwrap();
                f.execute("SELECT X1 FROM T").map(drop)
            })
        });
        if end == End::Busy {
            wait_gauges(&mut setup, (1.0, 1.0))?;
        }
        let waiter = std::thread::spawn(move || kind.send(&mut c, false));
        let got = match end {
            End::Busy => waiter.join().unwrap(),
            End::Timeout => {
                wait_gauges(&mut setup, (1.0, 1.0))?;
                waiter.join().unwrap()
            }
            _ => {
                wait_gauges(&mut setup, (1.0, 1.0))?;
                std::thread::scope(|s| {
                    let drain = s.spawn(|| handle.shutdown());
                    let got = waiter.join().unwrap();
                    gate.release();
                    drain.join().unwrap();
                    got
                })
            }
        };
        gate.release();
        let _ = held.by_ref().count();
        drop(held);
        if let Some(filler) = filler {
            filler.join().unwrap().unwrap();
        }
        got
    };
    match (got, expected_code(kind, end)) {
        (Ok(()), None) => {}
        (Err(ClientError::Server { code, .. }), Some(want)) if code == want => {}
        (got, want) => return Err(format!("client saw {got:?}, want {want:?}")),
    }

    // The session's one record, read in process: a drained server
    // still serves its catalog to the engine.
    let sql = format!("SELECT kind, outcome, cpu_us FROM sys.queries WHERE session = {session}");
    let deadline = Instant::now() + Duration::from_secs(10);
    let rows = loop {
        let rows = db.execute(&sql).unwrap().rows;
        if !rows.is_empty() || Instant::now() > deadline {
            break rows;
        }
        std::thread::yield_now();
    };
    let [row] = rows.as_slice() else {
        return Err(format!("{} records: {rows:?}", rows.len()));
    };
    if row[0] != Value::Str(kind.name().into()) || row[1] != Value::Str(want.into()) {
        return Err(format!("record reads {row:?}"));
    }
    let cpu_nanos = row[2].as_f64().unwrap() * 1e3;
    let spun = burned.load(Ordering::Relaxed) as f64;
    if end == End::Ok && matches!(kind, Kind::Execute | Kind::BatchScore) && spun == 0.0 {
        return Err("the probe UDF never ran".into());
    }
    if cpu_nanos < spun {
        return Err(format!(
            "cpu_us {} below the {} µs a UDF burned",
            cpu_nanos / 1e3,
            spun / 1e3
        ));
    }
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Polls the admission gauges until they read `want`.
fn wait_gauges(c: &mut Client, want: (f64, f64)) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let gauges = admission_gauges(c);
        if gauges == want {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("gauges read {gauges:?}, want {want:?}"));
        }
        std::thread::yield_now();
    }
}

/// Every request that does work passes one path: each cell of kind ×
/// end leaves exactly one `sys.queries` row with the right kind and
/// outcome, and with at least the CPU its UDFs burned.
#[test]
fn every_request_kind_leaves_one_record_on_every_outcome() {
    let mut failures = Vec::new();
    for (kind, wants) in MATRIX {
        for (end, want) in ENDS.into_iter().zip(wants) {
            if want == SKIPPED {
                continue;
            }
            if let Err(why) = run_cell(kind, end, want) {
                failures.push(format!("{kind:?} × {end:?}: {why}"));
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

/// With the one slot held by an `Execute`, a `BatchScore` and an
/// `InsertDone` wait for it as statements do and run once it frees;
/// the envelope is visible only after its ack. A `Cancel { seq: 0 }`
/// sent while the batch waits cancels nothing: 0 names no stream.
#[test]
fn batch_score_and_ingest_wait_for_a_slot_like_statements() {
    use nlq_server::wire::{read_frame, write_frame, Request, Response};

    let gate = Arc::new(GateState::default());
    let db = Arc::new(Db::new(1));
    db.with_registry_mut(|r| r.register_scalar(Arc::new(GateUdf(Arc::clone(&gate)))));
    let ts = TestServer::start_with(
        db,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let addr = ts.handle.addr();
    let mut c = ts.client();
    c.execute("CREATE TABLE T (i INT, X1 FLOAT)").unwrap();
    c.execute("INSERT INTO T VALUES (1, 1.0), (2, 2.0)")
        .unwrap();
    c.execute("CREATE TABLE BETA (b0 FLOAT, b1 FLOAT)").unwrap();
    c.execute("INSERT INTO BETA VALUES (1.0, 0.5)").unwrap();
    c.set_option("block_scan", "off").unwrap();
    let mut held = c.query("SELECT gate(X1) FROM T").unwrap();
    let _open = OpenOnDrop(Arc::clone(&gate));
    gate.wait_entered(1);

    // The scorer speaks raw frames, so it can send the `Cancel`.
    let scorer = std::net::TcpStream::connect(addr).unwrap();
    let read = || Response::decode(&read_frame(&mut &scorer).unwrap().expect("a reply")).unwrap();
    assert!(matches!(read(), Response::Hello { .. }));
    let score = Request::BatchScore {
        table: "T".into(),
        model: "BETA".into(),
        keys: vec![1, 2],
        explain: false,
    };
    write_frame(&mut &scorer, &score.encode()).unwrap();
    let writer = std::thread::spawn(move || {
        let mut w = Client::connect(addr).unwrap();
        let mut ing = w.begin_ingest("T", &[])?;
        ing.chunk(vec![vec![Value::Int(3), Value::Float(3.0)]])?;
        ing.finish()
    });
    let mut observer = ts.client();
    wait_gauges(&mut observer, (1.0, 2.0)).unwrap();
    write_frame(&mut &scorer, &Request::Cancel { seq: 0 }.encode()).unwrap();
    let metrics = ts.metrics();
    wait_until("the cancel is delivered", || {
        metrics.cancel_requests.load(Ordering::Relaxed) == 1
    });
    // Read in process: a statement over the wire would queue as well.
    let count = || ts.db.execute("SELECT count(*) FROM T").unwrap().rows[0][0].clone();
    assert_eq!(
        count(),
        Value::Int(2),
        "the envelope committed before its slot"
    );
    assert!(!writer.is_finished());

    gate.release();
    let rows: Vec<_> = held.by_ref().map(|r| r.unwrap()).collect();
    assert_eq!(rows.len(), 2);
    drop(held);
    match read() {
        Response::Result { rows, .. } => assert_eq!(rows.len(), 2),
        other => panic!("expected the batch's scores, got {other:?}"),
    }
    assert_eq!(writer.join().unwrap().unwrap(), 1);
    assert_eq!(count(), Value::Int(3));
    assert_eq!(admission_gauges(&mut observer), (0.0, 0.0));
}

/// An ingest envelope is one request on the record: its row carries
/// its log cost, its spans name the apply and the log write, and the
/// auto-checkpoint it triggers is inside its wall time.
#[test]
fn ingest_envelopes_are_attributable_with_their_checkpoint() {
    let dir = std::env::temp_dir().join(format!("nlq-harness-attrib-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Db::open_durable(1, &dir, true).unwrap();
    // Enough rows that a checkpoint takes milliseconds to write.
    let points: Vec<Vec<f64>> = (0..50_000).map(|i| vec![f64::from(i), 0.5]).collect();
    db.load_points("T", &points, false).unwrap();
    let ts = TestServer::start_with(
        Arc::new(db),
        ServerConfig {
            checkpoint_bytes: Some(1),
            refresh_cadence: None,
            ..ServerConfig::default()
        },
    );
    let mut c = ts.client();
    let session = c.session_id();
    // The snapshot the envelope will take, taken by hand first.
    for _ in 0..3 {
        c.checkpoint().unwrap();
    }
    let mut ing = c.begin_ingest("T", &[]).unwrap();
    ing.chunk(
        (50_001..=50_002)
            .map(|i| vec![Value::Int(i), Value::Float(1.0), Value::Float(2.0)])
            .collect(),
    )
    .unwrap();
    assert_eq!(ing.finish().unwrap(), 2);

    let rs = c
        .execute(&format!(
            "SELECT query_id, kind, wal_bytes, fsyncs, total_us FROM sys.queries \
             WHERE session = {session} ORDER BY trace_id"
        ))
        .unwrap();
    let kinds: Vec<&str> = rs.rows.iter().filter_map(|r| r[1].as_str()).collect();
    assert_eq!(kinds, ["checkpoint", "checkpoint", "checkpoint", "ingest"]);
    let fastest_checkpoint = rs.rows[..3]
        .iter()
        .map(|r| r[4].as_f64().unwrap())
        .fold(f64::INFINITY, f64::min);
    let envelope = &rs.rows[3];
    assert!(envelope[2].as_i64().unwrap() > 0, "{envelope:?}");
    assert!(envelope[3].as_i64().unwrap() >= 1, "{envelope:?}");

    let spans = c
        .execute(&format!(
            "SELECT phase, dur_us FROM sys.spans WHERE query_id = {}",
            envelope[0]
        ))
        .unwrap()
        .rows;
    let phases: Vec<&str> = spans.iter().filter_map(|s| s[0].as_str()).collect();
    for want in ["ingest", "wal", "stream"] {
        assert!(phases.contains(&want), "missing {want} span in {phases:?}");
    }
    // The checkpoint has no span of its own, so it is the envelope's
    // unattributed time.
    let attributed: f64 = spans.iter().map(|s| s[1].as_f64().unwrap()).sum();
    let other = envelope[4].as_f64().unwrap() - attributed;
    assert!(
        other >= 0.5 * fastest_checkpoint,
        "{other} µs outside the spans, a checkpoint takes {fastest_checkpoint} µs"
    );
    assert_eq!(c.metric("checkpoints_total", "").unwrap(), 4.0);
    let _ = std::fs::remove_dir_all(&dir);
}
