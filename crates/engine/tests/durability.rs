//! Crash-recovery tests, written once and run on every engine (see
//! `engines`): deterministic smoke tests plus the central property —
//! for a random workload trace and a random crash point (including torn
//! and bit-flipped tail records), reopening the directory yields
//! **exactly** the acked prefix of the trace.
//!
//! The fault model makes that an exact property, not a probabilistic
//! one. The injected crash charges a byte budget on the log sink —
//! modelling the process dying — and always lands *inside* an append,
//! anywhere in a payload or its marker: an envelope whose commit fsync
//! returned before the crash is durable, and one that errored never
//! acked and must not come back. The recovered engine is compared
//! bit-for-bit (row multisets) against a volatile mirror that applied
//! only the acked operations.
//!
//! A directory written by the sharded engine this one replaced — a
//! `shard-<i>/` log or a checkpoint entry `<i>/<table>` with i ≥ 1 — is
//! refused, never opened with its other logs ignored; the one-log
//! layout's older checkpoint entry form `0/<table>` still reopens.

use std::sync::Barrier;

use nlq_engine::sqlgen::{score_regression_udf, x_cols};
use nlq_engine::{parse, Db, ExecOptions, LogDir, SqlEngine};
use nlq_linalg::Vector;
use nlq_storage::{CheckpointManifest, Value};
use nlq_testkit::{run_cases, Rng};

#[macro_use]
mod engines;
use engines::*;

// ---------------------------------------------------------------------
// Deterministic smoke tests
// ---------------------------------------------------------------------

fn reopen_replays_statements_and_envelopes(engine: Engine) {
    let dir = engine.temp_dir("smoke");
    {
        let e = engine.open(&dir, true);
        sql(&*e, "CREATE TABLE t (i INT, x FLOAT)").unwrap();
        sql(&*e, "CREATE SUMMARY st ON t (x) NO MINMAX").unwrap();
        sql(&*e, "INSERT INTO t VALUES (1, 1.5), (2, 2.5), (3, 3.5)").unwrap();
        e.ingest("t", vec![row(4, 4.5), row(5, 5.5)], &ExecOptions::default())
            .unwrap();
    }
    let e = engine.open(&dir, true);
    let info = durability(&*e).recovery;
    // Three statements and one two-row envelope.
    assert_eq!(info.replayed_records, 4);
    assert_eq!(info.replayed_envelopes, 1);
    assert_count_sum(&*e, 5, 17.5);
    // The summary definition replayed too and serves the aggregate.
    assert_eq!(e.summary_refresh_states().len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

fn checkpoint_truncates_log_and_survives_reopen(engine: Engine) {
    let dir = engine.temp_dir("ckpt");
    {
        let e = engine.open(&dir, true);
        sql(&*e, "CREATE TABLE t (i INT, x FLOAT)").unwrap();
        sql(&*e, "CREATE VIEW v AS SELECT x FROM t WHERE i < 3").unwrap();
        e.ingest(
            "t",
            (1..=8).map(|i| row(i, i as f64)).collect(),
            &ExecOptions::default(),
        )
        .unwrap();
        assert!(e.checkpoint(0).unwrap());
        assert_eq!(durability(&*e).log_bytes, 0, "checkpoint resets the log");
        sql(&*e, "INSERT INTO t VALUES (9, 9.0)").unwrap();
    }
    let e = engine.open(&dir, true);
    let info = durability(&*e).recovery;
    assert_eq!(info.checkpoint_tables, 1, "one file per table");
    assert_eq!(info.replayed_records, 1, "only the post-checkpoint insert");
    assert_count_sum(&*e, 9, 45.0);
    let v = sql(&*e, "SELECT count(*) FROM v").unwrap();
    assert_eq!(v.rows[0][0], Value::Int(2), "view DDL restored");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sessions whose envelopes cross the auto-checkpoint threshold
/// together must snapshot once: the log size is re-checked under the
/// checkpoint gate, so the losers see the reset log and return.
fn concurrent_threshold_crossings_checkpoint_exactly_once(engine: Engine) {
    const SESSIONS: usize = 8;
    let dir = engine.temp_dir("ckpt-once");
    let e = engine.open(&dir, false);
    sql(&*e, "CREATE TABLE t (i INT, x FLOAT)").unwrap();
    let barrier = Barrier::new(SESSIONS);
    let took: usize = std::thread::scope(|s| {
        let sessions: Vec<_> = (0..SESSIONS as i64)
            .map(|k| {
                let (e, barrier) = (&*e, &barrier);
                s.spawn(move || {
                    e.ingest("t", vec![row(k, 1.0)], &ExecOptions::default())
                        .unwrap();
                    // Every envelope is committed — the log is past the
                    // threshold for all of them — before anyone checks it.
                    barrier.wait();
                    e.checkpoint(1).unwrap() as usize
                })
            })
            .collect();
        sessions.into_iter().map(|t| t.join().unwrap()).sum()
    });
    assert_eq!(took, 1, "exactly one session snapshots");
    // One checkpoint resets the log once.
    assert_eq!(durability(&*e).wal.checkpoints, 1);
    assert_eq!(durability(&*e).log_bytes, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Model tables are saved by a checkpoint like any other table, so the
/// scoring join answers the same after a reopen.
fn model_tables_survive_a_checkpoint(engine: Engine) {
    let dir = engine.temp_dir("model");
    let open = || Db::open(engine.0, Some(LogDir::new(&dir, true))).unwrap();
    let scoring = format!(
        "{} ORDER BY x.i",
        score_regression_udf("X", &x_cols(2), "BETA")
    );
    let live = {
        let db = open();
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        db.load_points("X", &rows, false).unwrap();
        db.register_beta("BETA", 1.0, &Vector::from_vec(vec![0.5, -2.0]))
            .unwrap();
        assert!(db.checkpoint().unwrap());
        db.execute(&scoring).unwrap()
    };
    let db = open();
    // X and BETA.
    let info = db.recovery_info().unwrap();
    assert_eq!(info.checkpoint_tables, 2);
    assert_eq!(db.execute(&scoring).unwrap(), live);
    let _ = std::fs::remove_dir_all(&dir);
}

fn crash_mid_envelope_commits_nothing_and_acked_survives(engine: Engine) {
    let dir = engine.temp_dir("midenv");
    {
        let e = engine.open(&dir, true);
        sql(&*e, "CREATE TABLE t (i INT, x FLOAT)").unwrap();
        e.ingest("t", vec![row(1, 1.0)], &ExecOptions::default())
            .unwrap();
    }
    // Allow 10 more appended bytes: the next envelope's payload record
    // tears mid-append, so its ingest never acks.
    let (e, ff) = engine.open_faulted(&dir, Some(10));
    let torn = e.ingest("t", vec![row(2, 2.0)], &ExecOptions::default());
    assert!(torn.is_err(), "append crossed the budget: simulated crash");
    drop(e);
    engine.corrupt_tail(&dir, &ff, &mut Rng::new(7));

    let e = engine.open(&dir, true);
    assert_count_sum(&*e, 1, 1.0); // unacked envelope gone, acked survives
    let _ = std::fs::remove_dir_all(&dir);
}

/// `execute_statement` has no SQL text to log, so on a durable engine
/// it refuses a mutation rather than ack one that reopen would lose;
/// reads still run through it.
fn execute_statement_refuses_unlogged_mutations(engine: Engine) {
    let dir = engine.temp_dir("exec-stmt");
    let open = || Db::open(engine.0, Some(LogDir::new(&dir, true))).unwrap();
    let run =
        |db: &Db, text: &str| db.execute_statement(parse(text).unwrap(), &ExecOptions::default());
    {
        let db = open();
        sql(&db, "CREATE TABLE t (i INT, x FLOAT)").unwrap();
        sql(&db, "INSERT INTO t VALUES (1, 1.5)").unwrap();
        let err = run(&db, "INSERT INTO t VALUES (2, 2.5)").unwrap_err();
        assert!(err.to_string().contains("execute_with"), "{err}");
        assert!(run(&db, "DELETE FROM t").is_err());
        let rs = run(&db, "SELECT count(*), sum(x) FROM t").unwrap();
        assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Float(1.5)]);
    }
    assert_count_sum(&open(), 1, 1.5);
    // A volatile engine has no log to bypass.
    let volatile = Db::new(engine.0);
    sql(&volatile, "CREATE TABLE t (i INT, x FLOAT)").unwrap();
    run(&volatile, "INSERT INTO t VALUES (2, 2.5)").unwrap();
    assert_count_sum(&volatile, 1, 2.5);
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
            let rows = (0..rng.range_usize(1, 8))
                .map(|_| {
                    next_i += 1;
                    row(next_i, rng.range_f64(-10.0, 10.0))
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

fn apply(e: &dyn SqlEngine, op: &Op) -> nlq_engine::Result<()> {
    match op {
        Op::Sql(s) => sql(e, s).map(|_| ()),
        Op::Ingest(rows) => e
            .ingest("t", rows.clone(), &ExecOptions::default())
            .map(|_| ()),
        Op::Checkpoint => e.checkpoint(0).map(|_| ()),
    }
}

fn recovery_equals_acked_prefix_under_random_crashes(engine: Engine) {
    run_cases(64, 0x5EED_0009, |rng| {
        let trace = gen_trace(rng);
        // Dry run: how many bytes does the full trace append?
        let dry = engine.temp_dir(&format!("dry-{:016x}", rng.next_u64()));
        let total = {
            let e = engine.open(&dry, true);
            for op in &trace {
                apply(&*e, op).unwrap();
            }
            durability(&*e).wal.bytes
        };
        let _ = std::fs::remove_dir_all(&dry);

        // Fault run: crash after a random number of appended bytes
        // (possibly never), then scramble the unsynced tail.
        let crash_after = rng.next_u64() % (total + 1);
        let dir = engine.temp_dir(&format!("case-{:016x}", rng.next_u64()));
        let (e, ff) = engine.open_faulted(&dir, Some(crash_after));
        let mirror = engine.volatile();
        let mut crashed = false;
        for op in &trace {
            match apply(&*e, op) {
                Ok(()) => apply(&*mirror, op).expect("mirror apply"),
                Err(_) => {
                    crashed = true;
                    break;
                }
            }
        }
        drop(e);
        if crashed {
            engine.corrupt_tail(&dir, &ff, rng);
        }

        let rec = engine.open(&dir, true);
        assert_eq!(dump(&*rec), dump(&*mirror), "row multiset differs");
        if let (Ok(a), Ok(b)) = (
            sql(&*rec, "SELECT count(*), sum(x) FROM t"),
            sql(&*mirror, "SELECT count(*), sum(x) FROM t"),
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

on_every_engine!(
    reopen_replays_statements_and_envelopes,
    checkpoint_truncates_log_and_survives_reopen,
    concurrent_threshold_crossings_checkpoint_exactly_once,
    model_tables_survive_a_checkpoint,
    crash_mid_envelope_commits_nothing_and_acked_survives,
    execute_statement_refuses_unlogged_mutations,
    recovery_equals_acked_prefix_under_random_crashes,
);

// ---------------------------------------------------------------------
// Layouts: the one-log directory and the refused sharded one
// ---------------------------------------------------------------------

/// A durable directory with one table `t` of two rows, checkpointed, so
/// its manifest names `t`.
fn checkpointed_dir(name: &str) -> std::path::PathBuf {
    let dir = Engine(1).temp_dir(name);
    let db = Db::open_durable(1, &dir, true).unwrap();
    db.execute("CREATE TABLE t (i INT, x FLOAT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 1.5), (2, 2.5)")
        .unwrap();
    assert!(db.checkpoint().unwrap());
    dir
}

fn rewrite_manifest(dir: &std::path::Path, tables: Vec<String>) {
    let path = dir.join("checkpoint/MANIFEST");
    let mut m = CheckpointManifest::decode(&std::fs::read(&path).unwrap()).unwrap();
    m.tables = tables;
    std::fs::write(&path, m.encode()).unwrap();
}

#[test]
fn manifest_entries_in_the_shard_zero_form_reopen() {
    let dir = checkpointed_dir("form0");
    let ck = dir.join("checkpoint");
    std::fs::create_dir_all(ck.join("shard-0")).unwrap();
    std::fs::rename(ck.join("t.tbl"), ck.join("shard-0/t.tbl")).unwrap();
    rewrite_manifest(&dir, vec!["0/t".into()]);
    let db = Db::open_durable(1, &dir, true).unwrap();
    assert_eq!(db.recovery_info().unwrap().checkpoint_tables, 1);
    assert_count_sum(&db, 2, 4.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_sharded_directory_is_refused() {
    let refused = |dir: &std::path::Path| {
        let err = Db::open_durable(1, dir, true).err().expect("must refuse");
        let msg = err.to_string();
        assert!(msg.contains("sharded layout"), "{msg}");
        msg
    };

    // A second shard's log.
    let dir = checkpointed_dir("shard1-log");
    std::fs::create_dir_all(dir.join("shard-1")).unwrap();
    std::fs::write(dir.join("shard-1/wal.log"), b"").unwrap();
    assert!(refused(&dir).contains("shard-1/"));
    let _ = std::fs::remove_dir_all(&dir);

    // A checkpoint entry for shard 1's slice of a table.
    let dir = checkpointed_dir("shard1-entry");
    rewrite_manifest(&dir, vec!["1/x".into(), "t".into()]);
    assert!(refused(&dir).contains("'1/x'"));
    let _ = std::fs::remove_dir_all(&dir);
}
