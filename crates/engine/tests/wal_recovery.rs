//! Crash-recovery tests for the durable engine: deterministic smoke
//! tests plus the central property — for a random workload trace and a
//! random crash point (including torn and bit-flipped tail records),
//! reopening the directory yields **exactly** the acked prefix of the
//! trace.
//!
//! The fault model makes this an exact property, not a probabilistic
//! one: the injected crash always happens *inside* an append, so an
//! envelope whose commit fsync returned before the crash is durable,
//! and one that errored never acked. The recovered database is
//! compared bit-for-bit (row multisets) against a volatile mirror that
//! applied only the acked operations.

use std::path::PathBuf;
use std::sync::Arc;

use nlq_engine::{Db, SqlEngine};
use nlq_storage::{Value, WalIo};
use nlq_testkit::{corrupt_tail, run_cases, FaultFs, FaultInjector, Rng};

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nlq-walrec-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn tight(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()))
}

// ---------------------------------------------------------------------
// Deterministic smoke tests
// ---------------------------------------------------------------------

#[test]
fn reopen_replays_statements_and_envelopes() {
    let dir = temp_dir("smoke");
    {
        let db = Db::open_durable(2, &dir, true).unwrap();
        db.execute("CREATE TABLE t (i INT, x FLOAT)").unwrap();
        db.execute("CREATE SUMMARY st ON t (x) NO MINMAX").unwrap();
        db.execute("INSERT INTO t VALUES (1, 1.5), (2, 2.5)")
            .unwrap();
        SqlEngine::ingest_rows(&db, "t", vec![vec![Value::Int(3), Value::Float(3.5)]]).unwrap();
    }
    let db = Db::open_durable(2, &dir, true).unwrap();
    let info = db.recovery_info().expect("durable db reports recovery");
    assert_eq!(info.replayed_records, 4);
    assert_eq!(info.replayed_envelopes, 1);
    let rs = db.execute("SELECT count(*), sum(x) FROM t").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(3));
    assert!(tight(rs.rows[0][1].as_f64().unwrap(), 7.5));
    // The summary definition replayed too and serves the aggregate.
    assert_eq!(db.summaries().entries().len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sessions whose envelopes cross the auto-checkpoint threshold
/// together must snapshot once: the log size is re-checked under the
/// checkpoint gate, so the losers see the reset log and return.
#[test]
fn concurrent_threshold_crossings_checkpoint_exactly_once() {
    const SESSIONS: usize = 8;
    let dir = temp_dir("ckpt-once");
    let db = Arc::new(Db::open_durable(2, &dir, false).unwrap());
    db.execute("CREATE TABLE t (i INT, x FLOAT)").unwrap();
    let barrier = Arc::new(std::sync::Barrier::new(SESSIONS));
    let sessions: Vec<_> = (0..SESSIONS as i64)
        .map(|k| {
            let (db, barrier) = (Arc::clone(&db), Arc::clone(&barrier));
            std::thread::spawn(move || {
                let row = vec![Value::Int(k), Value::Float(1.0)];
                SqlEngine::ingest_rows(db.as_ref(), "t", vec![row]).unwrap();
                // Every envelope is committed — the log is past the
                // threshold for all of them — before anyone checks it.
                barrier.wait();
                SqlEngine::checkpoint(db.as_ref(), 1).unwrap()
            })
        })
        .collect();
    let took = sessions
        .into_iter()
        .map(|t| t.join().unwrap())
        .filter(|&took| took)
        .count();
    assert_eq!(took, 1, "exactly one session snapshots");
    assert_eq!(db.wal_stats().unwrap().checkpoints, 1);
    assert_eq!(db.wal_log_bytes(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_truncates_log_and_survives_reopen() {
    let dir = temp_dir("ckpt");
    {
        let db = Db::open_durable(2, &dir, true).unwrap();
        db.execute("CREATE TABLE t (i INT, x FLOAT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 1.0)").unwrap();
        assert!(db.checkpoint().unwrap());
        assert_eq!(db.wal_log_bytes(), Some(0), "checkpoint resets the log");
        db.execute("INSERT INTO t VALUES (2, 2.0)").unwrap();
    }
    let db = Db::open_durable(2, &dir, true).unwrap();
    let info = db.recovery_info().unwrap();
    assert_eq!(info.checkpoint_tables, 1);
    assert_eq!(info.replayed_records, 1, "only the post-checkpoint insert");
    let rs = db.execute("SELECT count(*), sum(x) FROM t").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(2));
    assert!(tight(rs.rows[0][1].as_f64().unwrap(), 3.0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_envelope_commits_nothing_and_acked_survives() {
    let dir = temp_dir("midenv");
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("wal.log");
    {
        let db = Db::open_durable(2, &dir, true).unwrap();
        db.execute("CREATE TABLE t (i INT, x FLOAT)").unwrap();
        SqlEngine::ingest_rows(&db, "t", vec![vec![Value::Int(1), Value::Float(1.0)]]).unwrap();
    }
    // Allow 10 more appended bytes: the next envelope's payload record
    // tears mid-append, so its ingest never acks.
    let inj = FaultInjector::new(Some(10));
    let ff = Arc::new(FaultFs::open(&wal, inj).unwrap());
    let db = Db::open_durable_with_io(2, &dir, ff.clone() as Arc<dyn WalIo>, true).unwrap();
    let torn = SqlEngine::ingest_rows(&db, "t", vec![vec![Value::Int(2), Value::Float(2.0)]]);
    assert!(torn.is_err(), "append crossed the budget: simulated crash");
    drop(db);
    corrupt_tail(&wal, ff.synced_len(), &mut Rng::new(7)).unwrap();

    let db = Db::open_durable(2, &dir, true).unwrap();
    let rs = db.execute("SELECT count(*), sum(x) FROM t").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(1), "unacked envelope gone");
    assert!(
        tight(rs.rows[0][1].as_f64().unwrap(), 1.0),
        "acked survives"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The property: reopen == acked prefix, for any trace x crash point
// ---------------------------------------------------------------------

#[derive(Clone)]
enum Op {
    Sql(String),
    Ingest(Vec<Vec<Value>>),
    Checkpoint,
}

fn gen_trace(rng: &mut Rng) -> Vec<Op> {
    let mut ops = vec![Op::Sql("CREATE TABLE t (i INT, x FLOAT)".into())];
    if rng.chance(0.6) {
        ops.push(Op::Sql("CREATE SUMMARY st ON t (x) NO MINMAX".into()));
    }
    let mut next_i = 0i64;
    for _ in 0..rng.range_usize(4, 14) {
        let roll = rng.f64();
        if roll < 0.5 {
            let rows = (0..rng.range_usize(1, 6))
                .map(|_| {
                    next_i += 1;
                    vec![Value::Int(next_i), Value::Float(rng.range_f64(-10.0, 10.0))]
                })
                .collect();
            ops.push(Op::Ingest(rows));
        } else if roll < 0.7 {
            let vals: Vec<String> = (0..rng.range_usize(1, 3))
                .map(|_| {
                    next_i += 1;
                    format!("({next_i}, {:.6})", rng.range_f64(-10.0, 10.0))
                })
                .collect();
            ops.push(Op::Sql(format!("INSERT INTO t VALUES {}", vals.join(", "))));
        } else if roll < 0.8 {
            let c = rng.range_i64(0, next_i.max(1));
            ops.push(Op::Sql(format!("UPDATE t SET x = x + 1.0 WHERE i < {c}")));
        } else if roll < 0.9 {
            let c = rng.range_i64(0, next_i.max(1));
            ops.push(Op::Sql(format!("DELETE FROM t WHERE i > {c}")));
        } else {
            ops.push(Op::Checkpoint);
        }
    }
    ops
}

fn apply(db: &Db, op: &Op) -> nlq_engine::Result<()> {
    match op {
        Op::Sql(s) => db.execute(s).map(|_| ()),
        Op::Ingest(rows) => SqlEngine::ingest_rows(db, "t", rows.clone()).map(|_| ()),
        Op::Checkpoint => db.checkpoint().map(|_| ()),
    }
}

/// The sorted row multiset of `t`, bitwise (replay reconstructs the
/// exact float bits the WAL recorded). `None` when `t` does not exist
/// (the crash predated its CREATE TABLE).
fn dump(db: &Db) -> Option<Vec<(i64, u64)>> {
    let rs = db.execute("SELECT i, x FROM t").ok()?;
    let mut out: Vec<(i64, u64)> = rs
        .rows
        .iter()
        .map(|r| {
            let i = match r[0] {
                Value::Int(v) => v,
                ref v => panic!("i column: {v:?}"),
            };
            let x = match r[1] {
                Value::Float(v) => v.to_bits(),
                Value::Null => u64::MAX,
                ref v => panic!("x column: {v:?}"),
            };
            (i, x)
        })
        .collect();
    out.sort_unstable();
    Some(out)
}

#[test]
fn recovery_equals_acked_prefix_under_random_crashes() {
    run_cases(64, 0x5EED_0009, |rng| {
        let trace = gen_trace(rng);
        // Dry run: how many bytes does the full trace append?
        let dry = temp_dir(&format!("dry-{:016x}", rng.next_u64()));
        let total = {
            let db = Db::open_durable(2, &dry, true).unwrap();
            for op in &trace {
                apply(&db, op).unwrap();
            }
            db.wal_stats().unwrap().bytes
        };
        let _ = std::fs::remove_dir_all(&dry);

        // Fault run: crash after a random number of appended bytes
        // (possibly never), then scramble the unsynced tail.
        let crash_after = rng.next_u64() % (total + 1);
        let dir = temp_dir(&format!("case-{:016x}", rng.next_u64()));
        std::fs::create_dir_all(&dir).unwrap();
        let inj = FaultInjector::new(Some(crash_after));
        let ff = Arc::new(FaultFs::open(&dir.join("wal.log"), inj).unwrap());
        let db = Db::open_durable_with_io(2, &dir, ff.clone() as Arc<dyn WalIo>, true).unwrap();
        let mirror = Db::new(2);
        let mut crashed = false;
        for op in &trace {
            match apply(&db, op) {
                Ok(()) => apply(&mirror, op).expect("mirror apply"),
                Err(_) => {
                    crashed = true;
                    break;
                }
            }
        }
        drop(db);
        if crashed {
            corrupt_tail(&dir.join("wal.log"), ff.synced_len(), rng).unwrap();
        }

        let rec = Db::open_durable(2, &dir, true).unwrap();
        assert_eq!(dump(&rec), dump(&mirror), "row multiset differs");
        if let (Ok(a), Ok(b)) = (
            rec.execute("SELECT count(*), sum(x) FROM t"),
            mirror.execute("SELECT count(*), sum(x) FROM t"),
        ) {
            assert_eq!(a.rows[0][0], b.rows[0][0], "count differs");
            match (a.rows[0][1].as_f64(), b.rows[0][1].as_f64()) {
                (Some(x), Some(y)) => assert!(tight(x, y), "sum {x} vs {y}"),
                (x, y) => assert_eq!(x.is_none(), y.is_none()),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}
