//! Cooperative cancellation at the engine layer: a flipped token must
//! surface as `EngineError::Cancelled` at the next row/block check,
//! and a cancelled statement must leave no partial state behind — no
//! half-applied DML, no half-built summary.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use nlq_engine::{Db, EngineError, ExecOptions};
use nlq_storage::Value;
use nlq_udf::ScalarUdf;

/// `trip(x)`: returns `x`, flipping the captured cancel token once it
/// has been called `after` times — a deterministic mid-scan cancel.
#[derive(Debug)]
struct TripAfter {
    token: Arc<AtomicBool>,
    after: u64,
    calls: AtomicU64,
}

impl ScalarUdf for TripAfter {
    fn name(&self) -> &str {
        "trip"
    }
    fn eval(&self, args: &[Value]) -> nlq_udf::Result<Value> {
        if self.calls.fetch_add(1, Ordering::SeqCst) + 1 >= self.after {
            self.token.store(true, Ordering::SeqCst);
        }
        Ok(args[0].clone())
    }
}

fn cancel_opts(token: &Arc<AtomicBool>) -> ExecOptions {
    ExecOptions {
        cancel: Some(Arc::clone(token)),
        ..ExecOptions::default()
    }
}

/// A single-partition Db (deterministic scan order) with `n` rows and
/// a `trip` UDF wired to `token`.
fn tripping_db(n: usize, token: &Arc<AtomicBool>, after: u64) -> Db {
    with_trip(Db::new(1), n, token, after)
}

/// `db` with the table `T` of `n` rows and a `trip` UDF wired to
/// `token`.
fn with_trip(db: Db, n: usize, token: &Arc<AtomicBool>, after: u64) -> Db {
    db.with_registry_mut(|r| {
        r.register_scalar(Arc::new(TripAfter {
            token: Arc::clone(token),
            after,
            calls: AtomicU64::new(0),
        }))
    });
    db.execute("CREATE TABLE T (i INT, X1 FLOAT)").unwrap();
    let values: Vec<String> = (0..n).map(|i| format!("({i}, {i}.5)")).collect();
    db.execute(&format!("INSERT INTO T VALUES {}", values.join(", ")))
        .unwrap();
    db
}

#[test]
fn pre_flipped_token_fails_before_any_work() {
    let token = Arc::new(AtomicBool::new(true));
    let db = tripping_db(10, &token, u64::MAX);
    match db.execute_with("SELECT sum(X1) FROM T", &cancel_opts(&token)) {
        Err(EngineError::Cancelled { rows_scanned }) => assert_eq!(rows_scanned, 0),
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // The same statement without a token still runs.
    let rs = db.execute("SELECT count(*) FROM T").unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(10));
}

#[test]
fn mid_scan_flip_cancels_a_select() {
    let token = Arc::new(AtomicBool::new(false));
    let db = tripping_db(100, &token, 5);
    let opts = ExecOptions {
        block_scan: Some(false), // row path: the token check is per row
        ..cancel_opts(&token)
    };
    match db.execute_with("SELECT trip(X1) FROM T", &opts) {
        Err(EngineError::Cancelled { rows_scanned }) => {
            assert!(
                (5..100).contains(&rows_scanned),
                "cancel landed mid-scan, scanned {rows_scanned}"
            );
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

#[test]
fn mid_scan_flip_cancels_the_block_path() {
    // 5000 rows = several 1024-row blocks; the flip in block 1 is
    // caught by the per-block check before block 2.
    let token = Arc::new(AtomicBool::new(false));
    let db = tripping_db(5000, &token, 5);
    match db.execute_with("SELECT trip(X1) FROM T", &cancel_opts(&token)) {
        Err(EngineError::Cancelled { rows_scanned }) => {
            assert!(rows_scanned < 5000, "scanned {rows_scanned}");
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

#[test]
fn cancelled_update_mutates_nothing() {
    let token = Arc::new(AtomicBool::new(false));
    let db = tripping_db(50, &token, 3);
    db.execute("CREATE SUMMARY s ON T (X1)").unwrap();
    let before = db.execute("SELECT sum(X1) FROM T").unwrap();

    match db.execute_with("UPDATE T SET X1 = trip(X1) + 1.0", &cancel_opts(&token)) {
        Err(EngineError::Cancelled { .. }) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }

    // Neither the table nor the summary saw any of the update.
    let after = db.execute("SELECT sum(X1) FROM T").unwrap();
    assert_eq!(before.value(0, 0), after.value(0, 0));
    assert!(
        after.stats.summary_path && after.stats.rows_scanned == 0,
        "summary must still answer without a scan: {:?}",
        after.stats
    );

    // The statement itself was fine — it succeeds without a token.
    db.execute("UPDATE T SET X1 = X1 + 1.0").unwrap();
    let bumped = db.execute("SELECT sum(X1) FROM T").unwrap();
    let want = before.value(0, 0).as_f64().unwrap() + 50.0;
    assert!((bumped.value(0, 0).as_f64().unwrap() - want).abs() < 1e-9);
}

#[test]
fn cancelled_delete_removes_nothing() {
    let token = Arc::new(AtomicBool::new(false));
    let db = tripping_db(50, &token, 2);
    match db.execute_with("DELETE FROM T WHERE trip(X1) >= 0.0", &cancel_opts(&token)) {
        Err(EngineError::Cancelled { .. }) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    let rs = db.execute("SELECT count(*) FROM T").unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(50));
}

#[test]
fn cancel_in_the_summary_build_changes_nothing() {
    // The token flips on the DELETE's last row, after the rewrite loop
    // checked it for that row: the loop finishes, and building the
    // summary from the rewritten table sees the token. Neither the
    // table nor the summary may change, and on a durable engine the
    // DELETE must not commit.
    let n = 50;
    let dir = std::env::temp_dir().join(format!("nlq-cancel-build-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for durable in [false, true] {
        let token = Arc::new(AtomicBool::new(false));
        let db = if durable {
            Db::open_durable(1, &dir, false).unwrap()
        } else {
            Db::new(1)
        };
        let db = with_trip(db, n, &token, n as u64);
        db.execute("CREATE SUMMARY s ON T (X1)").unwrap();
        let version = db.summaries().get("s").unwrap().version();
        match db.execute_with("DELETE FROM T WHERE trip(X1) < 10.0", &cancel_opts(&token)) {
            Err(EngineError::Cancelled { .. }) => {}
            other => panic!("durable={durable}: expected Cancelled, got {other:?}"),
        }
        let count = Value::Int(n as i64);
        let scan = db.execute("SELECT count(*) FROM T WHERE X1 = X1").unwrap();
        assert!(!scan.stats.summary_path);
        assert_eq!(scan.value(0, 0), &count, "durable={durable}: table");
        let hit = db.execute("SELECT count(*) FROM T").unwrap();
        assert!(hit.stats.summary_path);
        assert_eq!(hit.value(0, 0), &count, "durable={durable}: summary");
        assert_eq!(db.summaries().get("s").unwrap().version(), version);
        if durable {
            drop(db);
            let db = Db::open_durable(1, &dir, false).unwrap();
            // CREATE TABLE, INSERT and CREATE SUMMARY; the DELETE
            // logged a payload but no commit marker.
            assert_eq!(db.recovery_info().unwrap().replayed_records, 3);
            let rs = db.execute("SELECT count(*) FROM T WHERE X1 = X1").unwrap();
            assert_eq!(rs.value(0, 0), &count);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
