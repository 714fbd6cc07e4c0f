//! The scan pool: a statement's shard pieces and partitions run on the
//! calling thread and on a fixed set of pool helpers, never on threads
//! of their own, and the CPU the helpers spend counts as the
//! statement's, whether it succeeds or fails.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use nlq_engine::{Db, ExecOptions};
use nlq_obs::{thread_cpu_nanos, Trace};
use nlq_storage::Value;
use nlq_udf::ScalarUdf;

/// `tid(x)`: returns `x` and records the thread that evaluated it.
struct Tid(Arc<Mutex<HashSet<ThreadId>>>);

impl ScalarUdf for Tid {
    fn name(&self) -> &str {
        "tid"
    }
    fn eval(&self, args: &[Value]) -> nlq_udf::Result<Value> {
        self.0.lock().unwrap().insert(std::thread::current().id());
        Ok(args[0].clone())
    }
}

/// `spin(x)`: returns `x` after burning `SPIN` of its thread's CPU.
struct Spin;

const SPIN: Duration = Duration::from_millis(5);

impl ScalarUdf for Spin {
    fn name(&self) -> &str {
        "spin"
    }
    fn eval(&self, args: &[Value]) -> nlq_udf::Result<Value> {
        let started = thread_cpu_nanos();
        while thread_cpu_nanos() - started < SPIN.as_nanos() as u64 {
            std::hint::spin_loop();
        }
        Ok(args[0].clone())
    }
}

fn points_db(shards: usize, workers: usize, n: usize) -> Db {
    let db = Db::open(shards, workers, None).unwrap();
    let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, 1.0]).collect();
    db.load_points("X", &rows, false).unwrap();
    db
}

fn block_and_row_paths() -> [ExecOptions; 2] {
    [
        ExecOptions::default(),
        ExecOptions {
            block_scan: Some(false),
            ..ExecOptions::default()
        },
    ]
}

#[test]
fn scans_run_on_the_caller_and_the_pool_helpers_only() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for shards in [1, 4] {
        let db = points_db(shards, 2, 4000);
        let seen = Arc::new(Mutex::new(HashSet::new()));
        db.with_registry_mut(|r| r.register_scalar(Arc::new(Tid(Arc::clone(&seen)))));
        for opts in block_and_row_paths() {
            for _ in 0..50 {
                let rs = db.execute_with("SELECT tid(X1) FROM X", &opts).unwrap();
                assert_eq!(rs.rows.len(), 4000);
                assert_eq!(rs.stats.block_path, opts.block_scan.is_none());
            }
        }
        // std never reuses a `ThreadId`: a thread spawned per scan, or
        // one per shard, would show up as ids beyond the pool's.
        let distinct = seen.lock().unwrap().len();
        assert!(
            distinct <= 1 + cores,
            "S = {shards}: {distinct} threads evaluated 100 scans on {cores} cores"
        );
    }
}

#[test]
fn helper_cpu_counts_as_the_statements_cpu() {
    if thread_cpu_nanos() == 0 {
        return; // no per-thread CPU clock on this platform
    }
    // Whichever threads run the shards' pieces and their partitions,
    // the four evaluations burn 4 × SPIN between them.
    const ROWS: usize = 4;
    for shards in [1, 4] {
        let db = points_db(shards, 2, ROWS);
        db.with_registry_mut(|r| r.register_scalar(Arc::new(Spin)));
        for opts in block_and_row_paths() {
            let rs = db.execute_with("SELECT spin(X1) FROM X", &opts).unwrap();
            assert_eq!(rs.rows.len(), ROWS);
            let cpu = Duration::from_nanos(rs.stats.cpu_nanos);
            assert!(
                cpu >= ROWS as u32 * SPIN,
                "S = {shards}: statement reported {cpu:?} of CPU"
            );
            // A failed statement charges its CPU too: a row's `spin`
            // runs, then its INT addition overflows.
            let trace = Trace::new();
            let failing = ExecOptions {
                trace: Some(trace.clone()),
                ..opts.clone()
            };
            let err = db
                .execute_with(
                    "SELECT spin(X1) + (i + 9223372036854775807) FROM X",
                    &failing,
                )
                .unwrap_err();
            assert!(err.to_string().contains("overflow"), "{err}");
            assert!(
                trace.cpu_nanos() > 0,
                "S = {shards}: a failed statement charged no CPU"
            );
        }
    }
}
