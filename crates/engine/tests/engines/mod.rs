//! The engine under test at S = 1 and S = 4 shards (one log per
//! shard, one durability protocol), behind `SqlEngine`, so a
//! durability test is written once and run on both.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::Arc;

use nlq_engine::{Db, DurabilityStats, ExecOptions, LogDir, ResultSet, SqlEngine};
use nlq_storage::{Value, WalIo};
use nlq_testkit::{corrupt_tail, FaultFs, FaultInjector, Rng};

/// The shard count of the engine under test; everything else goes
/// through `SqlEngine`.
#[derive(Clone, Copy)]
pub struct Engine(pub usize);

pub type Dyn = Arc<dyn SqlEngine>;

impl Engine {
    pub fn temp_dir(self, name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nlq-dur-{}-s{}-{name}", std::process::id(), self.0));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Where this engine keeps its log files under `dir`.
    pub fn logs(self, dir: &Path) -> Vec<PathBuf> {
        (0..self.0)
            .map(|i| dir.join(format!("shard-{i}/wal.log")))
            .collect()
    }

    pub fn volatile(self) -> Dyn {
        Arc::new(Db::open(self.0, 2, None).unwrap())
    }

    pub fn open(self, dir: &Path, fsync: bool) -> Dyn {
        Arc::new(Db::open(self.0, 2, Some(LogDir::new(dir, fsync))).unwrap())
    }

    /// Opens with every log append charged to one shared crash budget.
    pub fn open_faulted(self, dir: &Path, budget: Option<u64>) -> (Dyn, Vec<Arc<FaultFs>>) {
        let inj = FaultInjector::new(budget);
        let ffs: Vec<Arc<FaultFs>> = self
            .logs(dir)
            .iter()
            .map(|path| {
                std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                Arc::new(FaultFs::open(path, Arc::clone(&inj)).unwrap())
            })
            .collect();
        let wal = LogDir {
            ios: ffs.iter().map(|ff| ff.clone() as Arc<dyn WalIo>).collect(),
            ..LogDir::new(dir, true)
        };
        (Arc::new(Db::open(self.0, 2, Some(wal)).unwrap()), ffs)
    }

    /// After a simulated crash: scrambles each log's unsynced tail.
    pub fn corrupt_tails(self, dir: &Path, ffs: &[Arc<FaultFs>], rng: &mut Rng) {
        for (path, ff) in self.logs(dir).iter().zip(ffs) {
            corrupt_tail(path, ff.synced_len(), rng).unwrap();
        }
    }

    pub fn n_logs(self) -> u64 {
        self.0 as u64
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
/// exact float bits the WAL recorded). Placement across shards may
/// differ between the original run and replay (round-robin cursors
/// restart), so only the multiset is comparable — which is also all any
/// query result depends on. `None` when `t` does not exist (the crash
/// predated its CREATE TABLE).
pub fn dump(e: &dyn SqlEngine) -> Option<Vec<String>> {
    let rs = sql(e, "SELECT i, x FROM t").ok()?;
    // `{:?}` of an `f64` round-trips, so equal strings are equal bits.
    let mut out: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort_unstable();
    Some(out)
}

/// Instantiates each named `fn(Engine)` of the calling file as one
/// `#[test]` per shard count.
macro_rules! on_every_engine {
    ($($test:ident),* $(,)?) => {
        on_every_engine!(@engine s1, Engine(1), $($test),*);
        on_every_engine!(@engine s4, Engine(4), $($test),*);
    };
    (@engine $module:ident, $engine:expr, $($test:ident),*) => {
        mod $module {
            use super::Engine;
            $(#[test] fn $test() { super::$test($engine) })*
        }
    };
}
