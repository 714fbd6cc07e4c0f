//! Crash-recovery tests for the sharded engine: one WAL per shard,
//! two-phase commit markers, presumed-abort recovery.
//!
//! The injected crash charges a *shared* byte budget across every
//! shard's log sink — modeling one process dying — so a crash can land
//! anywhere inside the payload or marker fan-out. The presumed-abort
//! rule must then abort the envelope on **every** shard (no
//! divergence), while an acked envelope (markers durable everywhere)
//! must survive on every shard it touched. The recovered engine is
//! compared against a volatile mirror that applied only the acked
//! operations, for S in {1, 4}.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use nlq_engine::SqlEngine;
use nlq_shard::ShardedDb;
use nlq_storage::{Value, WalIo};
use nlq_testkit::{corrupt_tail, run_cases, FaultFs, FaultInjector, Rng};

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nlq-shrec-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn tight(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()))
}

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
    for _ in 0..rng.range_usize(4, 12) {
        let roll = rng.f64();
        if roll < 0.5 {
            let rows = (0..rng.range_usize(1, 8))
                .map(|_| {
                    next_i += 1;
                    vec![Value::Int(next_i), Value::Float(rng.range_f64(-10.0, 10.0))]
                })
                .collect();
            ops.push(Op::Ingest(rows));
        } else if roll < 0.7 {
            let vals: Vec<String> = (0..rng.range_usize(1, 4))
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

fn apply(db: &ShardedDb, op: &Op) -> nlq_engine::Result<()> {
    match op {
        Op::Sql(s) => db.execute(s).map(|_| ()),
        Op::Ingest(rows) => SqlEngine::ingest_rows(db, "t", rows.clone()).map(|_| ()),
        Op::Checkpoint => db.checkpoint().map(|_| ()),
    }
}

/// The sorted global row multiset of `t`, bitwise. Placement across
/// shards may differ between the original run and replay (round-robin
/// cursors restart), so only the multiset is comparable — which is
/// also all any query result depends on. `None` when `t` does not
/// exist yet.
fn dump(db: &ShardedDb) -> Option<Vec<(i64, u64)>> {
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

fn open_faulted(
    shards: usize,
    dir: &Path,
    budget: Option<u64>,
) -> (nlq_engine::Result<ShardedDb>, Vec<Arc<FaultFs>>) {
    let inj = FaultInjector::new(budget);
    let mut ffs = Vec::with_capacity(shards);
    let mut ios: Vec<Arc<dyn WalIo>> = Vec::with_capacity(shards);
    for i in 0..shards {
        let sub = dir.join(format!("shard-{i}"));
        std::fs::create_dir_all(&sub).unwrap();
        let ff = Arc::new(FaultFs::open(&sub.join("wal.log"), Arc::clone(&inj)).unwrap());
        ios.push(ff.clone() as Arc<dyn WalIo>);
        ffs.push(ff);
    }
    (
        ShardedDb::open_durable_with_ios(shards, 1, dir, ios, true),
        ffs,
    )
}

#[test]
fn sharded_reopen_replays_everything() {
    let dir = temp_dir("smoke");
    {
        let db = ShardedDb::open_durable(2, 1, &dir, true).unwrap();
        db.execute("CREATE TABLE t (i INT, x FLOAT)").unwrap();
        db.execute("CREATE SUMMARY st ON t (x) NO MINMAX").unwrap();
        db.execute("INSERT INTO t VALUES (1, 1.5), (2, 2.5), (3, 3.5)")
            .unwrap();
        SqlEngine::ingest_rows(
            &db,
            "t",
            vec![
                vec![Value::Int(4), Value::Float(4.5)],
                vec![Value::Int(5), Value::Float(5.5)],
            ],
        )
        .unwrap();
    }
    let db = ShardedDb::open_durable(2, 1, &dir, true).unwrap();
    let info = db.recovery_info().expect("durable engine reports recovery");
    assert!(info.replayed_records >= 4, "stmts deduped, rows per shard");
    let rs = db.execute("SELECT count(*), sum(x) FROM t").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(5));
    assert!(tight(rs.rows[0][1].as_f64().unwrap(), 17.5));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_checkpoint_snapshots_all_shards_atomically() {
    let dir = temp_dir("ckpt");
    {
        let db = ShardedDb::open_durable(4, 1, &dir, true).unwrap();
        db.execute("CREATE TABLE t (i INT, x FLOAT)").unwrap();
        db.execute("CREATE VIEW v AS SELECT x FROM t WHERE i < 3")
            .unwrap();
        let rows: Vec<Vec<Value>> = (1..=8)
            .map(|i| vec![Value::Int(i), Value::Float(i as f64)])
            .collect();
        SqlEngine::ingest_rows(&db, "t", rows).unwrap();
        assert!(db.checkpoint().unwrap());
        assert_eq!(db.wal_log_bytes(), Some(0));
        SqlEngine::ingest_rows(&db, "t", vec![vec![Value::Int(9), Value::Float(9.0)]]).unwrap();
    }
    let db = ShardedDb::open_durable(4, 1, &dir, true).unwrap();
    let info = db.recovery_info().unwrap();
    assert_eq!(info.checkpoint_tables, 4, "one snapshot per shard");
    let rs = db.execute("SELECT count(*), sum(x) FROM t").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(9));
    assert!(tight(rs.rows[0][1].as_f64().unwrap(), 45.0));
    let v = db.execute("SELECT count(*) FROM v").unwrap();
    assert_eq!(v.rows[0][0], Value::Int(2), "view DDL restored");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sharded twin of the single-`Db` test: envelopes that cross the
/// auto-checkpoint threshold together take one global checkpoint.
#[test]
fn sharded_concurrent_threshold_crossings_checkpoint_exactly_once() {
    const SESSIONS: usize = 8;
    let dir = temp_dir("ckpt-once");
    let db = Arc::new(ShardedDb::open_durable(4, 1, &dir, false).unwrap());
    db.execute("CREATE TABLE t (i INT, x FLOAT)").unwrap();
    let barrier = Arc::new(std::sync::Barrier::new(SESSIONS));
    let sessions: Vec<_> = (0..SESSIONS as i64)
        .map(|k| {
            let (db, barrier) = (Arc::clone(&db), Arc::clone(&barrier));
            std::thread::spawn(move || {
                let row = vec![Value::Int(k), Value::Float(1.0)];
                SqlEngine::ingest_rows(db.as_ref(), "t", vec![row]).unwrap();
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
    // One checkpoint resets every shard log once.
    assert_eq!(db.wal_stats().unwrap().checkpoints, 4);
    assert_eq!(db.wal_log_bytes(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_recovery_equals_acked_prefix_under_random_crashes() {
    run_cases(32, 0x5EED_000A, |rng| {
        let shards = if rng.chance(0.5) { 1 } else { 4 };
        let trace = gen_trace(rng);
        // Dry run to size the crash budget.
        let dry = temp_dir(&format!("dry-{:016x}", rng.next_u64()));
        let total = {
            let db = ShardedDb::open_durable(shards, 1, &dry, true).unwrap();
            for op in &trace {
                apply(&db, op).unwrap();
            }
            db.wal_stats().unwrap().bytes
        };
        let _ = std::fs::remove_dir_all(&dry);

        let crash_after = rng.next_u64() % (total + 1);
        let dir = temp_dir(&format!("case-{:016x}", rng.next_u64()));
        let (db, ffs) = open_faulted(shards, &dir, Some(crash_after));
        let db = db.unwrap();
        let mirror = ShardedDb::new(shards, 1);
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
            for (i, ff) in ffs.iter().enumerate() {
                corrupt_tail(
                    &dir.join(format!("shard-{i}/wal.log")),
                    ff.synced_len(),
                    rng,
                )
                .unwrap();
            }
        }

        let rec = ShardedDb::open_durable(shards, 1, &dir, true).unwrap();
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
