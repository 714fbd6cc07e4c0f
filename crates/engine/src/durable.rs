//! The one durability protocol: envelopes, recovery and checkpoints
//! over one write-ahead log.
//!
//! A [`LogSet`] owns the log, the checkpoint directory, the gate that
//! orders envelopes, and the live `CREATE VIEW` texts.
//! [`Db`](crate::Db) supplies only what is its own: where its log file
//! lives, how a recovered record is applied, and which table files a
//! snapshot holds.
//!
//! **Envelope.** Every mutation is one envelope with a unique id: its
//! payload record is appended to the log, the mutation is applied in
//! memory, then a commit marker is appended (and fsynced). The caller
//! acks only after that, so an ack implies the envelope survives a
//! crash. Recovery keeps committed envelopes only: a payload with no
//! marker after it — a failed apply, or a crash before the marker
//! landed — is ignored.
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
    /// Committed WAL payload records re-applied during replay.
    pub replayed_records: u64,
    /// Ingest (`Rows`) payloads among the replayed records.
    pub replayed_envelopes: u64,
    /// Torn or corrupt bytes physically truncated off the log tail.
    pub truncated_bytes: u64,
    /// Table files restored from the checkpoint snapshot before replay.
    pub checkpoint_tables: u64,
}

/// What a durable engine reports about its write-ahead log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// WAL counters since open.
    pub wal: WalStatsSnapshot,
    /// Bytes currently in the live log file — resets to 0 at each
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
    Statement(Box<Statement>),
    /// Re-append a committed ingest payload.
    Rows {
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

/// What one envelope logs; nothing for a read.
pub(crate) struct Payload<'a>(Option<Kind<'a>>);

enum Kind<'a> {
    Statement {
        sql: &'a str,
        view: Option<ViewChange>,
    },
    Rows {
        table: &'a str,
        schema: &'a Schema,
        rows: &'a [Row],
    },
}

impl<'a> Payload<'a> {
    /// The envelope of one statement: its text is logged — unless it
    /// is a read (SELECT and the EXPLAIN family), which
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

    /// The envelope of one ingest batch into `table`; an empty batch
    /// logs nothing.
    pub fn rows(table: &'a str, schema: &'a Schema, rows: &'a [Row]) -> Payload<'a> {
        Payload((!rows.is_empty()).then_some(Kind::Rows {
            table,
            schema,
            rows,
        }))
    }
}

/// What one envelope cost in log I/O, for [`ExecStats`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EnvelopeCost {
    /// Bytes appended (payload plus marker).
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

/// The durability state of an engine: one log under the protocol.
pub(crate) struct LogSet {
    wal: Wal,
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
    /// and returns the log set to keep writing to. Recovery reads the
    /// real log file at `path`; appends go through `io` (fault-injection
    /// tests substitute a crashing one).
    ///
    /// `apply` sees, in order: every table of the newest verifiable
    /// checkpoint and its DDL, then every committed log record at or
    /// past the checkpoint horizon, by envelope id.
    pub fn open(
        dir: &Path,
        path: &Path,
        io: Arc<dyn WalIo>,
        fsync: bool,
        mut apply: impl FnMut(Recovered<'_>) -> Result<()>,
    ) -> Result<LogSet> {
        std::fs::create_dir_all(dir)
            .map_err(|e| StorageError::Io(format!("wal dir {}: {e}", dir.display())))?;
        let mut info = RecoveryInfo::default();
        let mut views: Vec<(String, String)> = Vec::new();
        let mut replay_sql = |sql: &str, apply: &mut dyn FnMut(Recovered<'_>) -> Result<()>| {
            let stmt = parse(sql)?;
            note_view(&mut views, view_change(&stmt), sql);
            apply(Recovered::Statement(Box::new(stmt)))
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

        // `replay_wal` truncates a torn or corrupt tail and keeps only
        // committed payloads. Concurrent ingest envelopes may land out
        // of id order; sorting restores it.
        let mut replay = replay_wal(path, horizon)?;
        info.truncated_bytes = replay.truncated_bytes;
        replay.records.sort_by_key(WalRecord::eid);
        for rec in std::mem::take(&mut replay.records) {
            match rec {
                WalRecord::Sql { text, .. } => replay_sql(&text, &mut apply)?,
                WalRecord::Rows { table, rows, .. } => {
                    apply(Recovered::Rows { table, rows })?;
                    info.replayed_envelopes += 1;
                }
                WalRecord::Commit { .. } => unreachable!("replay returns payloads only"),
            }
            info.replayed_records += 1;
        }

        Ok(LogSet {
            wal: Wal::new(io, fsync, replay.next_eid, replay.valid_bytes),
            dir: dir.to_path_buf(),
            gate: RwLock::new(()),
            views: Mutex::new(views),
            recovery: info,
        })
    }

    /// Runs one mutation as an envelope: on a durable engine (`logs`
    /// present) log, apply, mark — so `Ok` means the mutation survives
    /// a crash, and a failed `apply` leaves only a payload without a
    /// marker, which recovery ignores. On a volatile engine only
    /// `apply` runs. Either way every row of an ingest payload is
    /// validated before anything is logged or applied, so a bad row
    /// rejects the whole batch.
    pub fn envelope<T>(
        logs: Option<&LogSet>,
        payload: Payload<'_>,
        apply: impl FnOnce() -> Result<T>,
    ) -> Result<(T, EnvelopeCost)> {
        if let Some(Kind::Rows { schema, rows, .. }) = &payload.0 {
            for row in rows.iter() {
                schema.validate(row)?;
            }
        }
        let (Some(set), Some(kind)) = (logs, payload.0) else {
            return Ok((apply()?, EnvelopeCost::default()));
        };
        let (_shared, _exclusive);
        match &kind {
            Kind::Statement { .. } => _exclusive = set.gate.write().expect("wal gate"),
            Kind::Rows { .. } => _shared = set.gate.read().expect("wal gate"),
        }
        let mut cost = EnvelopeCost::default();
        let log_started = Instant::now();
        let eid = set.wal.alloc_eid();
        cost.bytes = match &kind {
            Kind::Statement { sql, .. } => set.wal.log_sql(eid, sql)?,
            Kind::Rows { table, rows, .. } => set.wal.log_rows(eid, table, rows)?,
        };
        cost.nanos = log_started.elapsed().as_nanos() as u64;
        let out = apply()?;
        let commit_started = Instant::now();
        cost.bytes += set.wal.commit(eid)?;
        cost.fsyncs = u64::from(set.wal.sync_on_commit());
        cost.nanos += commit_started.elapsed().as_nanos() as u64;
        if let Kind::Statement { sql, view } = kind {
            note_view(&mut set.views.lock().expect("view ddl lock"), view, sql);
        }
        Ok((out, cost))
    }

    /// Takes a checkpoint while the live log holds at least
    /// `min_log_bytes` (0 = unconditionally), then durably truncates
    /// the log; `false` when nothing was done — always, on
    /// a volatile engine. The size is read once without the gate (the
    /// common "not yet" answer never blocks behind in-flight envelopes)
    /// and again under it: of several sessions that cross a threshold
    /// together, the first resets the log and the rest return `false`.
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
    /// survives any crash point, and one top-level rename publishes
    /// every table at one horizon. The log reset happens last; if the
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
            horizon: set.wal.next_eid(),
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
        set.wal.reset()?;
        Ok(true)
    }

    fn log_bytes(&self) -> u64 {
        self.wal.bytes()
    }

    /// WAL counters, live log size, and what recovery did at open.
    pub fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            wal: self.wal.stats().snapshot(),
            log_bytes: self.log_bytes(),
            recovery: self.recovery,
        }
    }
}
