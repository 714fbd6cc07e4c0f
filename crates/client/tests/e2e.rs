//! End-to-end server tests: many concurrent clients sharing one
//! `Arc<Db>`, admission control, and graceful shutdown.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nlq_client::{Client, ClientError};
use nlq_engine::{Db, SqlEngine};
use nlq_server::wire::ErrorCode;
use nlq_server::{serve, ServerConfig, ServerHandle};
use nlq_storage::Value;

fn start(config: ServerConfig) -> (Arc<Db>, ServerHandle) {
    let db = Arc::new(Db::new(4));
    let handle = serve(Arc::clone(&db) as Arc<dyn SqlEngine>, config).expect("bind");
    (db, handle)
}

/// Acceptance driver: N concurrent clients each run a full
/// load → summary → score → metrics session against one shared `Db`.
#[test]
fn concurrent_clients_share_one_db() {
    const CLIENTS: usize = 10;
    let (_db, mut handle) = start(ServerConfig {
        max_connections: CLIENTS + 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    let threads: Vec<_> = (0..CLIENTS)
        .map(|k| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let t = format!("T{k}");
                c.execute(&format!("CREATE TABLE {t} (i INT, X1 FLOAT, X2 FLOAT)"))
                    .unwrap();
                // 3 rows with sums the thread can verify exactly.
                c.execute(&format!(
                    "INSERT INTO {t} VALUES (1, {k}.0, 1.0), (2, {k}.5, 2.0), (3, {k}.25, 3.0)"
                ))
                .unwrap();
                c.execute(&format!("CREATE SUMMARY s{k} ON {t} (X1, X2)"))
                    .unwrap();

                // The aggregate must be answered from this client's
                // summary with no scan at all.
                let rs = c
                    .execute(&format!("SELECT count(*), sum(X1), sum(X2) FROM {t}"))
                    .unwrap();
                assert!(rs.stats.summary_path, "client {k}: {:?}", rs.stats);
                assert_eq!(rs.stats.rows_scanned, 0, "client {k}");
                let want_x1 = k as f64 * 3.0 + 0.75;
                let got_x1 = rs.value(0, 1).as_f64().unwrap();
                assert!((got_x1 - want_x1).abs() < 1e-12, "client {k}: {got_x1}");
                assert_eq!(rs.value(0, 2).as_f64().unwrap(), 6.0);

                // Scoring UDF query with per-client coefficients:
                // score = k + 1*X1 - 0*X2.
                c.execute(&format!("CREATE TABLE B{k} (b0 FLOAT, b1 FLOAT, b2 FLOAT)"))
                    .unwrap();
                c.execute(&format!("INSERT INTO B{k} VALUES ({k}.0, 1.0, 0.0)"))
                    .unwrap();
                let rs = c
                    .execute(&format!(
                        "SELECT x.i, linearregscore(x.X1, x.X2, b.b0, b.b1, b.b2) \
                         FROM {t} x CROSS JOIN B{k} b"
                    ))
                    .unwrap();
                assert_eq!(rs.rows.len(), 3, "client {k}");
                assert!(rs.stats.block_path, "client {k}: {:?}", rs.stats);
                let got = rs.value(0, 1).as_f64().unwrap();
                assert!((got - (k as f64 * 2.0)).abs() < 1e-12, "client {k}: {got}");

                // Session state is per-connection: this session's row
                // counts exactly its own seven statements.
                let me = c.session_id();
                let rs = c
                    .execute(&format!(
                        "SELECT statements, block_scan FROM sys.sessions WHERE session = {me}"
                    ))
                    .unwrap();
                assert_eq!(rs.rows.len(), 1, "client {k}");
                assert_eq!(rs.value(0, 0), &Value::Int(7), "client {k}");
                assert_eq!(rs.value(0, 1), &Value::Str("default".into()));
                c.execute("SELECT count(*) FROM sys.metrics").unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }

    // Server-wide metrics reflect all sessions.
    let mut c = Client::connect(addr).unwrap();
    let accepted = c.metric("connections_accepted", "").unwrap();
    assert!(accepted > CLIENTS as f64, "accepted = {accepted}");
    let executes = c
        .metric("command_requests_total", "command=\"execute\"")
        .unwrap();
    assert!(executes >= CLIENTS as f64 * 6.0, "executes = {executes}");
    let hits = c.metric("summary_hits", "").unwrap();
    assert!(hits >= CLIENTS as f64, "summary_hits = {hits}");
    drop(c);
    handle.shutdown();
}

#[test]
fn admission_control_rejects_excess_connections_with_busy() {
    const MAX: usize = 4;
    let (_db, mut handle) = start(ServerConfig {
        max_connections: MAX,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    let mut held: Vec<Client> = (0..MAX)
        .map(|_| Client::connect(addr).expect("within limit"))
        .collect();

    // The (max+1)-th connection gets a clean Busy error frame.
    match Client::connect(addr) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Busy, "{message}");
        }
        Err(other) => panic!("expected Busy refusal, got {other}"),
        Ok(_) => panic!("expected Busy refusal, got a session"),
    }

    // Releasing one slot re-admits (the server notices the close
    // asynchronously, so poll briefly).
    held.pop();
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut admitted = None;
    while Instant::now() < deadline {
        match Client::connect(addr) {
            Ok(c) => {
                admitted = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    let mut c = admitted.expect("slot freed after disconnect");
    c.ping().unwrap();
    drop(c);
    drop(held);
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_queries() {
    use nlq_udf::ScalarUdf;

    /// `slowid(x)`: sleeps 200 ms per call, then returns `x`.
    #[derive(Debug)]
    struct SlowId;
    impl ScalarUdf for SlowId {
        fn name(&self) -> &str {
            "slowid"
        }
        fn eval(&self, args: &[Value]) -> nlq_udf::Result<Value> {
            std::thread::sleep(Duration::from_millis(200));
            Ok(args[0].clone())
        }
    }

    let (db, mut handle) = start(ServerConfig::default());
    db.with_registry_mut(|r| r.register_scalar(Arc::new(SlowId)));
    let addr = handle.addr();

    {
        let mut c = Client::connect(addr).unwrap();
        c.execute("CREATE TABLE S (i INT, X1 FLOAT)").unwrap();
        c.execute("INSERT INTO S VALUES (1, 1.5), (2, 2.5), (3, 3.5), (4, 4.5)")
            .unwrap();
    }

    // Fire a slow query (>= 200 ms even fully parallelized) and shut
    // the server down while it is still executing. The response must
    // arrive complete.
    let worker = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.set_option("block_scan", "off").unwrap();
        c.execute("SELECT slowid(X1) FROM S").unwrap()
    });
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    handle.shutdown();
    let drained_in = t0.elapsed();

    let rs = worker.join().expect("in-flight query must complete");
    assert_eq!(rs.rows.len(), 4);
    let mut got: Vec<f64> = rs.rows.iter().map(|r| r[0].as_f64().unwrap()).collect();
    got.sort_by(f64::total_cmp);
    assert_eq!(got, vec![1.5, 2.5, 3.5, 4.5]);
    // The shutdown really waited for the query instead of killing it.
    assert!(
        drained_in >= Duration::from_millis(100),
        "shutdown returned in {drained_in:?} without draining"
    );

    // And the port no longer accepts sessions.
    assert!(
        Client::connect(addr).is_err(),
        "server still alive after shutdown"
    );
}

#[test]
fn shutdown_command_stops_the_server() {
    let (_db, mut handle) = start(ServerConfig::default());
    let addr = handle.addr();
    let mut c = Client::connect(addr).unwrap();
    c.execute("CREATE TABLE Z (i INT)").unwrap();
    c.shutdown().unwrap();
    handle.join();
    assert!(Client::connect(addr).is_err());
}

#[test]
fn per_session_options_and_errors() {
    let (_db, mut handle) = start(ServerConfig {
        query_timeout: Duration::from_secs(5),
        max_result_rows: 8,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let mut c = Client::connect(addr).unwrap();

    // SQL errors come back as Sql error frames, session intact.
    match c.execute("SELECT FROM nowhere") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Sql),
        other => panic!("expected Sql error, got {other:?}"),
    }
    c.ping().unwrap();

    // Unknown options are protocol errors.
    match c.set_option("no_such_option", "1") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected Protocol error, got {other:?}"),
    }

    // Row limit enforcement: 10 rows > limit 8.
    c.execute("CREATE TABLE R (i INT, X1 FLOAT)").unwrap();
    for i in 0..10 {
        c.execute(&format!("INSERT INTO R VALUES ({i}, {i}.0)"))
            .unwrap();
    }
    match c.execute("SELECT i, X1 FROM R") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::TooLarge),
        other => panic!("expected TooLarge, got {other:?}"),
    }

    // block_scan off per session: same result, row path.
    let on = c.execute("SELECT sum(X1) FROM R").unwrap();
    assert!(on.stats.block_path);
    c.set_option("block_scan", "off").unwrap();
    let off = c.execute("SELECT sum(X1) FROM R").unwrap();
    assert!(!off.stats.block_path);
    assert_eq!(on.value(0, 0), off.value(0, 0));
    let me = c.session_id();
    let rs = c
        .execute(&format!(
            "SELECT block_scan FROM sys.sessions WHERE session = {me}"
        ))
        .unwrap();
    assert_eq!(rs.value(0, 0), &Value::Str("off".into()));
    drop(c);
    handle.shutdown();
}

#[test]
fn query_timeout_reports_timeout_frame() {
    use nlq_udf::ScalarUdf;

    #[derive(Debug)]
    struct Stall;
    impl ScalarUdf for Stall {
        fn name(&self) -> &str {
            "stall"
        }
        fn eval(&self, args: &[Value]) -> nlq_udf::Result<Value> {
            std::thread::sleep(Duration::from_millis(120));
            Ok(args[0].clone())
        }
    }

    let (db, mut handle) = start(ServerConfig {
        query_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    });
    db.with_registry_mut(|r| r.register_scalar(Arc::new(Stall)));
    let addr = handle.addr();
    let mut c = Client::connect(addr).unwrap();
    c.execute("CREATE TABLE W (i INT, X1 FLOAT)").unwrap();
    c.execute("INSERT INTO W VALUES (1, 1.0), (2, 2.0)")
        .unwrap();
    c.set_option("block_scan", "off").unwrap();
    match c.execute("SELECT stall(X1) FROM W") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Timeout),
        other => panic!("expected Timeout, got {other:?}"),
    }
    // The session survives a timed-out statement.
    c.ping().unwrap();
    assert_eq!(c.metric("query_timeouts", "").unwrap(), 1.0);
    drop(c);
    handle.shutdown();
}
