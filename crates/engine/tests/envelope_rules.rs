//! The envelope rules every engine inherits from the one durability
//! protocol: what an envelope costs, that a batch is all-or-nothing,
//! and that replay reproduces the live apply order.

use std::sync::Barrier;

use nlq_engine::ExecOptions;
use nlq_storage::Value;

#[macro_use]
mod engines;
use engines::*;

/// An envelope that involves one log costs one fsync and two records
/// (payload, marker): no phase-1 sync, no extra record.
fn single_log_envelopes_cost_one_fsync_and_two_records(engine: Engine) {
    const N: u64 = 12;
    let dir = engine.temp_dir("cost");
    let e = engine.open(&dir, true);
    sql(&*e, "CREATE TABLE t (i INT, x FLOAT)").unwrap();
    let before = durability(&*e).wal;
    for k in 0..N {
        e.ingest("t", vec![row(k as i64, 1.0)], &ExecOptions::default())
            .unwrap();
    }
    let after = durability(&*e).wal;
    assert_eq!(after.fsyncs - before.fsyncs, N);
    assert_eq!(after.records - before.records, 2 * N);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bad row anywhere in a batch rejects the whole batch — volatile
/// or durable, live and after reopen, however often it is retried.
fn bad_row_rejects_the_whole_envelope(engine: Engine) {
    let bad = vec![Value::Str("bad".into()), Value::Float(1.0)];
    let batch = vec![row(10, 1.0), row(11, 1.0), bad, row(13, 1.0), row(14, 1.0)];
    let dir = engine.temp_dir("badrow");
    for e in [engine.volatile(), engine.open(&dir, true)] {
        sql(&*e, "CREATE TABLE t (i INT, x FLOAT)").unwrap();
        e.ingest("t", vec![row(1, 1.0), row(2, 2.0)], &ExecOptions::default())
            .unwrap();
        for _ in 0..4 {
            assert!(e
                .ingest("t", batch.clone(), &ExecOptions::default())
                .is_err());
            assert_count_sum(&*e, 2, 3.0);
        }
    }
    assert_count_sum(&*engine.open(&dir, true), 2, 3.0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Statements that do not commute with appends race appends from a
/// second session; whatever order they applied in live is the order
/// replay must reproduce.
fn reopen_equals_live_state_under_racing_sessions(engine: Engine) {
    const ROUNDS: i64 = 40;
    let dir = engine.temp_dir("order");
    let e = engine.open(&dir, false);
    sql(&*e, "CREATE TABLE t (i INT, x FLOAT)").unwrap();
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            for _ in 0..ROUNDS {
                sql(&*e, "DELETE FROM t WHERE i % 2 = 0").unwrap();
                sql(&*e, "UPDATE t SET x = x * 2.0 + 1.0 WHERE i % 3 = 0").unwrap();
            }
        });
        s.spawn(|| {
            start.wait();
            for i in (0..ROUNDS).map(|k| 6 * k) {
                let fresh = format!("INSERT INTO t VALUES ({i}, 1.0), ({}, 1.0)", i + 1);
                sql(&*e, &fresh).unwrap();
                let fresh = (i + 2..i + 6).map(|i| row(i, 1.0)).collect();
                e.ingest("t", fresh, &ExecOptions::default()).unwrap();
            }
        });
    });
    let live = dump(&*e);
    drop(e);
    assert_eq!(dump(&*engine.open(&dir, false)), live);
    let _ = std::fs::remove_dir_all(&dir);
}

on_every_engine!(
    single_log_envelopes_cost_one_fsync_and_two_records,
    bad_row_rejects_the_whole_envelope,
    reopen_equals_live_state_under_racing_sessions,
);
