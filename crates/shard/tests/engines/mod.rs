//! The engines that share the one durability protocol
//! (`nlq_engine::LogSet`) — a single `Db` (one log) and `ShardedDb`
//! with S = 1 and S = 4 (one log per shard) — behind one handle, so a
//! durability test is written once against `SqlEngine` and run on all
//! three.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::Arc;

use nlq_engine::{Db, DurabilityStats, ExecOptions, ResultSet, SqlEngine};
use nlq_shard::ShardedDb;
use nlq_storage::{Value, WalIo};
use nlq_testkit::{corrupt_tail, FaultFs, FaultInjector, Rng};

/// The engine under test; everything else goes through `SqlEngine`.
#[derive(Clone, Copy)]
pub enum Engine {
    Db,
    Sharded(usize),
}

pub type Dyn = Arc<dyn SqlEngine>;

impl Engine {
    pub fn temp_dir(self, name: &str) -> PathBuf {
        let tag = match self {
            Engine::Db => "db".to_owned(),
            Engine::Sharded(s) => format!("s{s}"),
        };
        let dir = std::env::temp_dir().join(format!("nlq-dur-{}-{tag}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Where this engine keeps its log files under `dir`.
    pub fn logs(self, dir: &Path) -> Vec<PathBuf> {
        match self {
            Engine::Db => vec![dir.join("wal.log")],
            Engine::Sharded(s) => (0..s)
                .map(|i| dir.join(format!("shard-{i}/wal.log")))
                .collect(),
        }
    }

    pub fn volatile(self) -> Dyn {
        match self {
            Engine::Db => Arc::new(Db::new(2)),
            Engine::Sharded(s) => Arc::new(ShardedDb::new(s, 1)),
        }
    }

    pub fn open(self, dir: &Path, fsync: bool) -> Dyn {
        match self {
            Engine::Db => Arc::new(Db::open_durable(2, dir, fsync).unwrap()),
            Engine::Sharded(s) => Arc::new(ShardedDb::open_durable(s, 1, dir, fsync).unwrap()),
        }
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
        let mut ios = ffs.iter().map(|ff| ff.clone() as Arc<dyn WalIo>);
        let engine: Dyn = match self {
            Engine::Db => {
                Arc::new(Db::open_durable_with_io(2, dir, ios.next().unwrap(), true).unwrap())
            }
            Engine::Sharded(s) => {
                Arc::new(ShardedDb::open_durable_with_ios(s, 1, dir, ios.collect(), true).unwrap())
            }
        };
        (engine, ffs)
    }

    /// After a simulated crash: scrambles each log's unsynced tail.
    pub fn corrupt_tails(self, dir: &Path, ffs: &[Arc<FaultFs>], rng: &mut Rng) {
        for (path, ff) in self.logs(dir).iter().zip(ffs) {
            corrupt_tail(path, ff.synced_len(), rng).unwrap();
        }
    }

    pub fn n_logs(self) -> u64 {
        match self {
            Engine::Db => 1,
            Engine::Sharded(s) => s as u64,
        }
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
/// `#[test]` per engine.
macro_rules! on_every_engine {
    ($($test:ident),* $(,)?) => {
        on_every_engine!(@engine db, Engine::Db, $($test),*);
        on_every_engine!(@engine s1, Engine::Sharded(1), $($test),*);
        on_every_engine!(@engine s4, Engine::Sharded(4), $($test),*);
    };
    (@engine $module:ident, $engine:expr, $($test:ident),*) => {
        mod $module {
            use super::Engine;
            $(#[test] fn $test() { super::$test($engine) })*
        }
    };
}
