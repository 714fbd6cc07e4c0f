//! The engine under test over 1, 2 and 4 partitions, behind
//! `SqlEngine`, so a durability test is written once and run on each.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::Arc;

use nlq_engine::{Db, DurabilityStats, ExecOptions, LogDir, ResultSet, SqlEngine};
use nlq_storage::{Value, WalIo};
use nlq_testkit::{corrupt_tail, FaultFs, FaultInjector, Rng};

/// The scan workers (and table partitions) of the engine under test;
/// everything else goes through `SqlEngine`.
#[derive(Clone, Copy)]
pub struct Engine(pub usize);

pub type Dyn = Arc<dyn SqlEngine>;

impl Engine {
    pub fn temp_dir(self, name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nlq-dur-{}-w{}-{name}", std::process::id(), self.0));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Where the engine keeps its log file under `dir`.
    pub fn log(self, dir: &Path) -> PathBuf {
        dir.join(LogDir::LOG)
    }

    pub fn volatile(self) -> Dyn {
        Arc::new(Db::new(self.0))
    }

    pub fn open(self, dir: &Path, fsync: bool) -> Dyn {
        Arc::new(Db::open(self.0, Some(LogDir::new(dir, fsync))).unwrap())
    }

    /// Opens with every log append charged to a crash budget.
    pub fn open_faulted(self, dir: &Path, budget: Option<u64>) -> (Dyn, Arc<FaultFs>) {
        let path = self.log(dir);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let ff = Arc::new(FaultFs::open(&path, FaultInjector::new(budget)).unwrap());
        let wal = LogDir {
            io: Some(ff.clone() as Arc<dyn WalIo>),
            ..LogDir::new(dir, true)
        };
        (Arc::new(Db::open(self.0, Some(wal)).unwrap()), ff)
    }

    /// After a simulated crash: scrambles the log's unsynced tail.
    pub fn corrupt_tail(self, dir: &Path, ff: &FaultFs, rng: &mut Rng) {
        corrupt_tail(&self.log(dir), ff.synced_len(), rng).unwrap();
    }
}

pub fn sql(e: &dyn SqlEngine, text: &str) -> nlq_engine::Result<ResultSet> {
    e.execute_with(text, &ExecOptions::default())
}

pub fn durability(e: &dyn SqlEngine) -> DurabilityStats {
    e.engine_stats().durability.expect("durable engine")
}

pub fn row(i: i64, x: f64) -> Vec<Value> {
    vec![Value::Int(i), Value::Float(x)]
}

pub fn tight(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()))
}

pub fn assert_count_sum(e: &dyn SqlEngine, count: i64, sum: f64) {
    let rs = sql(e, "SELECT count(*), sum(x) FROM t").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(count));
    assert!(tight(rs.rows[0][1].as_f64().unwrap(), sum));
}

/// The sorted row multiset of `t`, bitwise (replay reconstructs the
/// exact float bits the WAL recorded). Placement across partitions may
/// differ between the original run and replay (a checkpoint's table
/// file is re-dealt at load), so only the multiset is comparable —
/// which is also all any query result depends on. `None` when `t` does not exist (the crash
/// predated its CREATE TABLE).
pub fn dump(e: &dyn SqlEngine) -> Option<Vec<String>> {
    let rs = sql(e, "SELECT i, x FROM t").ok()?;
    // `{:?}` of an `f64` round-trips, so equal strings are equal bits.
    let mut out: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort_unstable();
    Some(out)
}

/// Instantiates each named `fn(Engine)` of the calling file as one
/// `#[test]` per worker count.
macro_rules! on_every_engine {
    ($($test:ident),* $(,)?) => {
        on_every_engine!(@engine w1, Engine(1), $($test),*);
        on_every_engine!(@engine w2, Engine(2), $($test),*);
        on_every_engine!(@engine w4, Engine(4), $($test),*);
    };
    (@engine $module:ident, $engine:expr, $($test:ident),*) => {
        mod $module {
            use super::Engine;
            $(#[test] fn $test() { super::$test($engine) })*
        }
    };
}
