//! The one durability protocol: envelopes, recovery and checkpoints
//! over N ≥ 1 write-ahead logs.
//!
//! A [`LogSet`] owns the logs, the checkpoint directory, the gate that
//! orders envelopes, and the live `CREATE VIEW` texts. [`Db`](crate::Db)
//! uses it with one log per shard and supplies only what is its own:
//! where its log files live, how a recovered record is applied, which
//! rows go to which log, and which table files a snapshot holds.
//!
//! **Envelope.** Every mutation is one envelope with a globally unique
//! id: payload records are appended to the involved logs, the mutation
//! is applied in memory, then a commit marker is appended to (and
//! fsynced on) each involved log. The caller acks only after that, so
//! an ack implies the envelope survives a crash. With more than one log
//! involved, every payload is fsynced *before* the first marker is
//! written (phase 1): otherwise a marker could outlive a payload on
//! another log. One log needs no phase 1 — its marker follows its
//! payload in the same file.
//!
//! **Presumed abort.** Recovery keeps an envelope iff every log that
//! holds one of its payloads also holds its marker. A crash anywhere
//! inside the marker fan-out therefore aborts the envelope on all logs
//! instead of leaving them diverged; with one log the rule reads
//! "committed envelopes only".
//!
//! **Ordering.** Recovery re-applies envelopes in id order, so id order
//! must equal apply order wherever two envelopes do not commute. A
//! logged statement holds the gate exclusively (it may not commute with
//! anything); an ingest envelope holds it shared (row appends commute);
//! a checkpoint holds it exclusively, so a snapshot never contains half
//! an envelope.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use nlq_storage::{
    replay_wal, CheckpointManifest, FileIo, Row, Schema, StorageError, Wal, WalIo, WalRecord,
    WalStatsSnapshot,
};

use crate::ast::Statement;
use crate::db::ExecStats;
use crate::parser::parse;
use crate::{EngineError, Result};

/// What crash recovery did while opening a durable engine, reported
/// through the metrics surface (`sys.wal`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Committed WAL payload records re-applied during replay (a
    /// statement fanned to several logs counts once).
    pub replayed_records: u64,
    /// Ingest (`Rows`) payloads among the replayed records.
    pub replayed_envelopes: u64,
    /// Torn or corrupt bytes physically truncated off the log tail(s).
    pub truncated_bytes: u64,
    /// Table files restored from the checkpoint snapshot before replay.
    pub checkpoint_tables: u64,
}

/// What a durable engine reports about its write-ahead log(s).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// WAL counters since open (summed across logs).
    pub wal: WalStatsSnapshot,
    /// Bytes currently in the live log file(s) — resets to 0 at each
    /// checkpoint.
    pub log_bytes: u64,
    /// What crash recovery replayed when the engine opened (zeroes for
    /// a clean durable start).
    pub recovery: RecoveryInfo,
}

/// One step of recovery, handed to the engine's callback in the order
/// it must be applied: snapshot tables, snapshot DDL, then the
/// surviving log records by envelope id.
pub(crate) enum Recovered<'a> {
    /// Load the snapshot table the engine's own checkpoint closure
    /// recorded as manifest entry `entry`, from under `ckdir`.
    Table {
        /// The verified checkpoint directory.
        ckdir: &'a Path,
        /// The manifest entry, exactly as the engine wrote it.
        entry: &'a str,
    },
    /// Re-execute a statement (snapshot DDL or a committed log record)
    /// without logging it again.
    Statement(Statement),
    /// Re-append a committed ingest payload.
    Rows {
        /// Index of the log that held the payload.
        log: usize,
        /// Target table.
        table: String,
        /// The rows, exactly as first applied.
        rows: Vec<Row>,
    },
}

/// A `CREATE VIEW` (`true`) or `DROP` (`false`) of the lowercase name:
/// views have no storage to snapshot, so checkpoints carry their texts.
type ViewChange = (String, bool);

fn view_change(stmt: &Statement) -> Option<ViewChange> {
    match stmt {
        Statement::CreateView { name, .. } => Some((name.to_ascii_lowercase(), true)),
        Statement::Drop { name } => Some((name.to_ascii_lowercase(), false)),
        _ => None,
    }
}

fn note_view(views: &mut Vec<(String, String)>, change: Option<ViewChange>, sql: &str) {
    match change {
        Some((name, true)) => views.push((name, sql.to_owned())),
        Some((name, false)) => views.retain(|(n, _)| *n != name),
        None => {}
    }
}

/// What one envelope logs, and on which logs; nothing for a read.
pub(crate) struct Payload<'a>(Option<Kind<'a>>);

enum Kind<'a> {
    Statement {
        sql: &'a str,
        view: Option<ViewChange>,
    },
    Rows {
        table: &'a str,
        schema: &'a Schema,
        slices: &'a [Vec<Row>],
    },
}

impl<'a> Payload<'a> {
    /// The envelope of one statement: its text goes to every log —
    /// unless it is a read (SELECT and the EXPLAIN family), which
    /// mutates nothing and is neither logged nor ordered.
    pub fn statement(sql: &'a str, stmt: &Statement) -> Payload<'a> {
        Payload((!stmt.is_read_only()).then(|| Kind::Statement {
            sql,
            view: view_change(stmt),
        }))
    }

    /// The envelope of a statement run from its AST alone: there is no
    /// text to log, so nothing is.
    pub fn unlogged() -> Payload<'a> {
        Payload(None)
    }

    /// The envelope of one ingest batch into `table`: `slices[i]` goes
    /// to log `i`, and an empty slice leaves that log uninvolved.
    pub fn rows(table: &'a str, schema: &'a Schema, slices: &'a [Vec<Row>]) -> Payload<'a> {
        Payload(Some(Kind::Rows {
            table,
            schema,
            slices,
        }))
    }
}

/// What one envelope cost in log I/O, for [`ExecStats`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EnvelopeCost {
    /// Bytes appended (payloads plus markers).
    pub bytes: u64,
    /// Fsyncs issued or joined (group commit shares physical syncs;
    /// each envelope counts the ones it waited on).
    pub fsyncs: u64,
    /// Wall time appending and waiting on fsyncs.
    pub nanos: u64,
}

impl EnvelopeCost {
    /// Adds the cost into a statement's counters.
    pub fn charge(&self, stats: &mut ExecStats) {
        stats.wal_bytes += self.bytes;
        stats.wal_fsyncs += self.fsyncs;
        stats.wal_nanos += self.nanos;
    }
}

/// The durability state of an engine: N ≥ 1 logs under one protocol.
pub(crate) struct LogSet {
    /// Log 0 also allocates the envelope ids for the whole set.
    wals: Vec<Wal>,
    dir: PathBuf,
    /// Shared by ingest envelopes, exclusive for statements and
    /// checkpoints (see the module docs).
    gate: RwLock<()>,
    /// Live `CREATE VIEW` texts by lowercase name.
    views: Mutex<Vec<(String, String)>>,
    recovery: RecoveryInfo,
}

fn ckpt_err(what: &str, e: std::io::Error) -> EngineError {
    EngineError::Storage(StorageError::Io(format!("checkpoint {what}: {e}")))
}

/// Finds the newest complete checkpoint under `dir`: `checkpoint/` if
/// its manifest verifies, else `checkpoint.old/` (a crash mid-rotation
/// can leave either as the only complete snapshot), else `None`.
fn load_checkpoint(dir: &Path) -> Result<Option<(PathBuf, CheckpointManifest)>> {
    for name in ["checkpoint", "checkpoint.old"] {
        let ckdir = dir.join(name);
        let data = match std::fs::read(ckdir.join("MANIFEST")) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(ckpt_err("manifest read", e)),
        };
        // An unverifiable manifest marks an incomplete snapshot; the
        // fallback (if any) is the authoritative one.
        if let Ok(m) = CheckpointManifest::decode(&data) {
            return Ok(Some((ckdir, m)));
        }
    }
    Ok(None)
}

impl LogSet {
    /// Opens (creating if absent) the real log file at `path` as an
    /// append sink, with its parent directory.
    pub fn file_io(path: &Path) -> Result<Arc<dyn WalIo>> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| StorageError::Io(format!("wal dir {}: {e}", parent.display())))?;
        }
        Ok(Arc::new(FileIo::open(path).map_err(StorageError::from_io)?))
    }

    /// Recovers the state under `dir` into the engine behind `apply`
    /// and returns the log set to keep writing to. Each log is a file
    /// path (recovery always reads the real file) plus the sink its
    /// appends go through (fault-injection tests substitute a crashing
    /// one).
    ///
    /// `apply` sees, in order: every table of the newest verifiable
    /// checkpoint and its DDL, then every log record at or past the
    /// checkpoint horizon that survives presumed abort, by envelope id;
    /// a statement fanned to several logs is handed over once.
    pub fn open(
        dir: &Path,
        logs: Vec<(PathBuf, Arc<dyn WalIo>)>,
        fsync: bool,
        mut apply: impl FnMut(Recovered<'_>) -> Result<()>,
    ) -> Result<LogSet> {
        assert!(!logs.is_empty(), "a log set has at least one log");
        std::fs::create_dir_all(dir)
            .map_err(|e| StorageError::Io(format!("wal dir {}: {e}", dir.display())))?;
        let mut info = RecoveryInfo::default();
        let mut views: Vec<(String, String)> = Vec::new();
        let mut replay_sql = |sql: &str, apply: &mut dyn FnMut(Recovered<'_>) -> Result<()>| {
            let stmt = parse(sql)?;
            note_view(&mut views, view_change(&stmt), sql);
            apply(Recovered::Statement(stmt))
        };

        let mut horizon = 0u64;
        if let Some((ckdir, manifest)) = load_checkpoint(dir)? {
            for entry in &manifest.tables {
                apply(Recovered::Table {
                    ckdir: &ckdir,
                    entry,
                })?;
                info.checkpoint_tables += 1;
            }
            for ddl in &manifest.ddl {
                replay_sql(ddl, &mut apply)?;
            }
            horizon = manifest.horizon;
        }

        // `replay_wal` truncates each torn or corrupt tail and drops
        // payloads its own log holds no marker for.
        let mut replays = Vec::with_capacity(logs.len());
        let mut survivors: Vec<(usize, WalRecord)> = Vec::new();
        for (i, (path, _)) in logs.iter().enumerate() {
            let mut replay = replay_wal(path, horizon)?;
            info.truncated_bytes += replay.truncated_bytes;
            survivors.extend(replay.records.drain(..).map(|rec| (i, rec)));
            replays.push(replay);
        }
        survivors.retain(|(_, rec)| {
            !replays
                .iter()
                .any(|r| r.logged.contains(&rec.eid()) && !r.committed.contains(&rec.eid()))
        });
        survivors.sort_by_key(|(_, rec)| rec.eid());
        let mut last_statement = None;
        for (log, rec) in survivors {
            match rec {
                WalRecord::Sql { eid, text } => {
                    if last_statement.replace(eid) == Some(eid) {
                        continue;
                    }
                    replay_sql(&text, &mut apply)?;
                }
                WalRecord::Rows { table, rows, .. } => {
                    apply(Recovered::Rows { log, table, rows })?;
                    info.replayed_envelopes += 1;
                }
                WalRecord::Commit { .. } => unreachable!("replay returns payloads only"),
            }
            info.replayed_records += 1;
        }

        let next_eid = replays.iter().map(|r| r.next_eid).max().unwrap_or(1);
        let wals: Vec<Wal> = logs
            .into_iter()
            .zip(&replays)
            .map(|((_, io), replay)| Wal::new(io, fsync, next_eid, replay.valid_bytes))
            .collect();
        Ok(LogSet {
            wals,
            dir: dir.to_path_buf(),
            gate: RwLock::new(()),
            views: Mutex::new(views),
            recovery: info,
        })
    }

    /// Runs one mutation as an envelope: on a durable engine (`logs`
    /// present) log, apply, mark — so `Ok` means the mutation survives
    /// a crash, and a failed `apply` leaves only payloads without a
    /// marker, which recovery ignores. On a volatile engine only
    /// `apply` runs. Either way every row of an ingest payload is
    /// validated before anything is logged or applied, so a bad row
    /// rejects the whole batch on every log's engine.
    pub fn envelope<T>(
        logs: Option<&LogSet>,
        payload: Payload<'_>,
        apply: impl FnOnce() -> Result<T>,
    ) -> Result<(T, EnvelopeCost)> {
        if let Some(Kind::Rows { schema, slices, .. }) = &payload.0 {
            for row in slices.iter().flatten() {
                schema.validate(row)?;
            }
        }
        let (Some(set), Some(kind)) = (logs, payload.0) else {
            return Ok((apply()?, EnvelopeCost::default()));
        };
        let (_shared, _exclusive);
        let involved: Vec<usize> = match &kind {
            Kind::Statement { .. } => {
                _exclusive = set.gate.write().expect("wal gate");
                (0..set.wals.len()).collect()
            }
            Kind::Rows { slices, .. } => {
                _shared = set.gate.read().expect("wal gate");
                (0..slices.len())
                    .filter(|&i| !slices[i].is_empty())
                    .collect()
            }
        };
        let mut cost = EnvelopeCost::default();
        let log_started = Instant::now();
        let eid = set.wals[0].alloc_eid();
        for &i in &involved {
            cost.bytes += match &kind {
                Kind::Statement { sql, .. } => set.wals[i].log_sql(eid, sql)?,
                Kind::Rows { table, slices, .. } => set.wals[i].log_rows(eid, table, &slices[i])?,
            };
        }
        if involved.len() > 1 && set.wals[0].sync_on_commit() {
            for &i in &involved {
                set.wals[i].sync()?;
                cost.fsyncs += 1;
            }
        }
        cost.nanos = log_started.elapsed().as_nanos() as u64;
        let out = apply()?;
        let commit_started = Instant::now();
        for &i in &involved {
            cost.bytes += set.wals[i].commit(eid)?;
            cost.fsyncs += u64::from(set.wals[i].sync_on_commit());
        }
        cost.nanos += commit_started.elapsed().as_nanos() as u64;
        if let Kind::Statement { sql, view } = kind {
            note_view(&mut set.views.lock().expect("view ddl lock"), view, sql);
        }
        Ok((out, cost))
    }

    /// Takes a checkpoint while the live logs hold at least
    /// `min_log_bytes` in total (0 = unconditionally), then durably
    /// truncates every log; `false` when nothing was done — always, on
    /// a volatile engine. The size is read once without the gate (the
    /// common "not yet" answer never blocks behind in-flight envelopes)
    /// and again under it: of several sessions that cross a threshold
    /// together, the first resets the logs and the rest return `false`.
    ///
    /// `snapshot` writes the engine's table files under the directory
    /// it is given and adds their entries, and the DDL that recreates
    /// its summaries, to the manifest (which already carries the
    /// horizon and the view texts).
    ///
    /// Crash safety is by rename dance: the snapshot is assembled in
    /// `checkpoint.tmp`, the previous snapshot is renamed to
    /// `checkpoint.old` before the new one is published, and recovery
    /// falls back to `.old` whenever `checkpoint/` is missing or its
    /// manifest does not verify — so at least one complete snapshot
    /// survives any crash point, and one top-level rename publishes all
    /// logs' tables at one horizon. The log reset happens last; if the
    /// process dies before it, replay skips the already-snapshotted
    /// envelopes via the manifest horizon.
    pub fn checkpoint(
        logs: Option<&LogSet>,
        min_log_bytes: u64,
        snapshot: impl FnOnce(&Path, &mut CheckpointManifest) -> Result<()>,
    ) -> Result<bool> {
        let Some(set) = logs.filter(|set| set.log_bytes() >= min_log_bytes) else {
            return Ok(false);
        };
        let _gate = set.gate.write().expect("wal gate");
        if set.log_bytes() < min_log_bytes {
            return Ok(false);
        }
        let tmp = set.dir.join("checkpoint.tmp");
        let cur = set.dir.join("checkpoint");
        let old = set.dir.join("checkpoint.old");
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&tmp).map_err(|e| ckpt_err("mkdir", e))?;
        let views = set.views.lock().expect("view ddl lock");
        let mut manifest = CheckpointManifest {
            horizon: set.wals[0].next_eid(),
            tables: Vec::new(),
            ddl: views.iter().map(|(_, sql)| sql.clone()).collect(),
        };
        drop(views);
        snapshot(&tmp, &mut manifest)?;
        let mpath = tmp.join("MANIFEST");
        std::fs::write(&mpath, manifest.encode()).map_err(|e| ckpt_err("manifest write", e))?;
        std::fs::File::open(&mpath)
            .and_then(|f| f.sync_all())
            .map_err(|e| ckpt_err("manifest sync", e))?;
        if cur.exists() {
            let _ = std::fs::remove_dir_all(&old);
            std::fs::rename(&cur, &old).map_err(|e| ckpt_err("rotate", e))?;
        }
        std::fs::rename(&tmp, &cur).map_err(|e| ckpt_err("publish", e))?;
        let _ = std::fs::remove_dir_all(&old);
        for w in &set.wals {
            w.reset()?;
        }
        Ok(true)
    }

    fn log_bytes(&self) -> u64 {
        self.wals.iter().map(Wal::bytes).sum()
    }

    /// Counters summed across the logs, live log size, and what
    /// recovery did at open.
    pub fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            wal: self.wals.iter().map(|w| w.stats().snapshot()).sum(),
            log_bytes: self.log_bytes(),
            recovery: self.recovery,
        }
    }
}
