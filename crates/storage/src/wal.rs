//! Write-ahead log: length-prefixed, CRC-checksummed records with
//! fsync-on-commit durability and group commit.
//!
//! The log is a flat sequence of records, each framed as
//!
//! ```text
//! [u32 len (LE)] [u32 crc32 (LE, over payload)] [payload: len bytes]
//! ```
//!
//! Payloads carry an *envelope id* (`eid`) and come in three kinds:
//!
//! * `Sql { eid, text }` — a DDL or DML statement to re-execute verbatim
//!   on replay.
//! * `Rows { eid, table, rows }` — pre-evaluated ingest rows to re-append
//!   on replay (the streamed-INSERT envelope body).
//! * `Commit { eid }` — the commit marker. An envelope is durable iff
//!   its commit marker is on disk; payload records without a matching
//!   marker are ignored by replay (a crashed or failed envelope).
//!
//! The engine appends payload records, applies the envelope in memory,
//! and only then appends the commit marker and fsyncs — so an ack sent
//! after [`Wal::commit`] returns implies the envelope survives a crash.
//! Concurrent committers share fsyncs: each notes the log offset its
//! marker reached, one leader syncs the file while the rest wait on a
//! condvar, and everyone whose offset the sync covered is released by
//! that single fsync (group commit).
//!
//! All file writes go through the [`WalIo`] seam so tests can inject
//! torn writes and crash faults deterministically (`nlq-testkit`'s
//! `FaultFs`); replay itself reads the file directly and physically
//! truncates any torn or corrupt tail before handing records back.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::bytesx::BufMut;
use crate::{StorageError, Value};

/// Upper bound on a single record's payload; anything larger in a
/// length prefix marks the tail as corrupt rather than an allocation.
const MAX_RECORD: u32 = 256 << 20;

// ---------------------------------------------------------------------------
// CRC32 (IEEE, reflected) — hand-rolled table so the workspace stays
// dependency-free.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE 802.3) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------------

const TAG_SQL: u8 = 1;
const TAG_ROWS: u8 = 2;
const TAG_COMMIT: u8 = 3;

/// One decoded WAL payload.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Re-execute this statement text on replay.
    Sql {
        /// Owning envelope id.
        eid: u64,
        /// Statement text, replayed verbatim.
        text: String,
    },
    /// Re-append these already-validated rows on replay.
    Rows {
        /// Owning envelope id.
        eid: u64,
        /// Target table name.
        table: String,
        /// Schema-ordered rows, exactly as applied.
        rows: Vec<Vec<Value>>,
    },
    /// Envelope `eid` committed; everything it logged is durable.
    Commit {
        /// The envelope id now durable.
        eid: u64,
    },
}

impl WalRecord {
    /// The envelope id the record belongs to.
    pub fn eid(&self) -> u64 {
        match self {
            WalRecord::Sql { eid, .. }
            | WalRecord::Rows { eid, .. }
            | WalRecord::Commit { eid } => *eid,
        }
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Sql { eid, text } => {
                out.put_u8(TAG_SQL);
                out.put_u64_le(*eid);
                out.put_u32_le(text.len() as u32);
                out.put_slice(text.as_bytes());
            }
            WalRecord::Rows { eid, table, rows } => {
                out.put_u8(TAG_ROWS);
                out.put_u64_le(*eid);
                out.put_u32_le(table.len() as u32);
                out.put_slice(table.as_bytes());
                out.put_u32_le(rows.len() as u32);
                for row in rows {
                    out.put_u32_le(row.len() as u32);
                    for v in row {
                        match v {
                            Value::Null => out.put_u8(0),
                            Value::Int(i) => {
                                out.put_u8(1);
                                out.put_i64_le(*i);
                            }
                            Value::Float(f) => {
                                out.put_u8(2);
                                out.put_u64_le(f.to_bits());
                            }
                            Value::Str(s) => {
                                out.put_u8(3);
                                out.put_u32_le(s.len() as u32);
                                out.put_slice(s.as_bytes());
                            }
                        }
                    }
                }
            }
            WalRecord::Commit { eid } => {
                out.put_u8(TAG_COMMIT);
                out.put_u64_le(*eid);
            }
        }
        out
    }

    /// Encodes the full framed record: length prefix, CRC, payload.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(payload.len() + 8);
        out.put_u32_le(payload.len() as u32);
        out.put_u32_le(crc32(&payload));
        out.put_slice(&payload);
        out
    }

    fn decode_payload(mut b: &[u8]) -> Option<WalRecord> {
        let tag = take_u8(&mut b)?;
        let eid = take_u64(&mut b)?;
        let rec = match tag {
            TAG_SQL => WalRecord::Sql {
                eid,
                text: take_str(&mut b)?,
            },
            TAG_ROWS => {
                let table = take_str(&mut b)?;
                let nrows = take_u32(&mut b)? as usize;
                // A row costs at least one tag byte per value plus the
                // arity word; reject absurd counts before allocating.
                if nrows > b.len() {
                    return None;
                }
                let mut rows = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    let arity = take_u32(&mut b)? as usize;
                    if arity > b.len() {
                        return None;
                    }
                    let mut row = Vec::with_capacity(arity);
                    for _ in 0..arity {
                        row.push(match take_u8(&mut b)? {
                            0 => Value::Null,
                            1 => Value::Int(take_u64(&mut b)? as i64),
                            2 => Value::Float(f64::from_bits(take_u64(&mut b)?)),
                            3 => Value::Str(take_str(&mut b)?),
                            _ => return None,
                        });
                    }
                    rows.push(row);
                }
                WalRecord::Rows { eid, table, rows }
            }
            TAG_COMMIT => WalRecord::Commit { eid },
            _ => return None,
        };
        if b.is_empty() {
            Some(rec)
        } else {
            None
        }
    }
}

fn take_u8(b: &mut &[u8]) -> Option<u8> {
    let (&v, rest) = b.split_first()?;
    *b = rest;
    Some(v)
}

fn take_u32(b: &mut &[u8]) -> Option<u32> {
    if b.len() < 4 {
        return None;
    }
    let (head, rest) = b.split_at(4);
    *b = rest;
    Some(u32::from_le_bytes(head.try_into().ok()?))
}

fn take_u64(b: &mut &[u8]) -> Option<u64> {
    if b.len() < 8 {
        return None;
    }
    let (head, rest) = b.split_at(8);
    *b = rest;
    Some(u64::from_le_bytes(head.try_into().ok()?))
}

fn take_str(b: &mut &[u8]) -> Option<String> {
    let len = take_u32(b)? as usize;
    if len > b.len() {
        return None;
    }
    let (head, rest) = b.split_at(len);
    *b = rest;
    String::from_utf8(head.to_vec()).ok()
}

// ---------------------------------------------------------------------------
// WalIo — the injectable write/sync layer
// ---------------------------------------------------------------------------

/// The write/fsync seam the log appends through. Production uses
/// [`FileIo`]; tests substitute a fault-injecting implementation that
/// can crash at any byte offset or tear the final write.
pub trait WalIo: Send + Sync {
    /// Appends `bytes` at the end of the log.
    fn append(&self, bytes: &[u8]) -> io::Result<()>;
    /// Makes every appended byte durable.
    fn sync(&self) -> io::Result<()>;
    /// Resets the log to empty (after a checkpoint) — durably.
    fn truncate(&self) -> io::Result<()>;
}

/// Real-file [`WalIo`]: an append handle behind a mutex, `sync_data`
/// for durability.
pub struct FileIo {
    file: Mutex<File>,
}

impl FileIo {
    /// Opens (creating if absent) the log at `path` for appending.
    pub fn open(path: &Path) -> io::Result<FileIo> {
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(FileIo {
            file: Mutex::new(file),
        })
    }
}

impl WalIo for FileIo {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        self.file.lock().unwrap().write_all(bytes)
    }

    fn sync(&self) -> io::Result<()> {
        self.file.lock().unwrap().sync_data()
    }

    fn truncate(&self) -> io::Result<()> {
        let mut f = self.file.lock().unwrap();
        f.set_len(0)?;
        // Rewind the append cursor: without this the next write lands
        // at the old offset, leaving a hole of zeros replay rejects.
        f.seek(SeekFrom::Start(0))?;
        f.sync_data()
    }
}

// ---------------------------------------------------------------------------
// Wal — append + group commit
// ---------------------------------------------------------------------------

/// Monotonic WAL counters, exported through `sys.wal` / Prometheus.
#[derive(Default)]
pub struct WalStats {
    /// Bytes appended to the log since open.
    pub bytes: AtomicU64,
    /// Records appended since open.
    pub records: AtomicU64,
    /// fsync calls issued (group commit batches many commits into one).
    pub fsyncs: AtomicU64,
    /// Checkpoints taken since open.
    pub checkpoints: AtomicU64,
}

/// Point-in-time copy of [`WalStats`] for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStatsSnapshot {
    /// Bytes appended to the log since open.
    pub bytes: u64,
    /// Records appended since open.
    pub records: u64,
    /// fsync calls issued.
    pub fsyncs: u64,
    /// Checkpoints taken since open.
    pub checkpoints: u64,
}

impl WalStats {
    /// Snapshots every counter.
    pub fn snapshot(&self) -> WalStatsSnapshot {
        WalStatsSnapshot {
            bytes: self.bytes.load(Ordering::Relaxed),
            records: self.records.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
        }
    }
}

struct SyncState {
    /// Log offset known durable.
    synced: u64,
    /// Whether a leader is currently inside `sync()`.
    syncing: bool,
}

/// The write-ahead log: serialized appends, group-commit fsyncs, and
/// envelope-id allocation.
pub struct Wal {
    io: Arc<dyn WalIo>,
    /// Whether commit fsyncs the log (`--no-fsync` turns this off).
    sync_on_commit: bool,
    /// Bytes appended so far; the lock also serializes append order.
    appended: Mutex<u64>,
    state: Mutex<SyncState>,
    cv: Condvar,
    next_eid: AtomicU64,
    stats: WalStats,
}

impl Wal {
    /// Wraps an open log whose durable tail is `start_bytes` and whose
    /// next unused envelope id is `next_eid`.
    pub fn new(io: Arc<dyn WalIo>, sync_on_commit: bool, next_eid: u64, start_bytes: u64) -> Wal {
        Wal {
            io,
            sync_on_commit,
            appended: Mutex::new(start_bytes),
            state: Mutex::new(SyncState {
                synced: start_bytes,
                syncing: false,
            }),
            cv: Condvar::new(),
            next_eid: AtomicU64::new(next_eid.max(1)),
            stats: WalStats::default(),
        }
    }

    /// The WAL counters.
    pub fn stats(&self) -> &WalStats {
        &self.stats
    }

    /// Allocates a fresh envelope id.
    pub fn alloc_eid(&self) -> u64 {
        self.next_eid.fetch_add(1, Ordering::Relaxed)
    }

    /// The next envelope id that would be allocated.
    pub fn next_eid(&self) -> u64 {
        self.next_eid.load(Ordering::Relaxed)
    }

    /// Bytes appended to the log so far (checkpoint trigger input).
    pub fn bytes(&self) -> u64 {
        *self.appended.lock().unwrap()
    }

    /// Whether [`Wal::commit`] fsyncs (each commit then issues or
    /// joins exactly one physical sync — the attribution callers count
    /// per statement).
    pub fn sync_on_commit(&self) -> bool {
        self.sync_on_commit
    }

    /// Appends one framed record; returns the log offset just past it
    /// and the record's framed length.
    fn append_record(&self, rec: &WalRecord) -> crate::Result<(u64, u64)> {
        let framed = rec.encode();
        let mut appended = self.appended.lock().unwrap();
        self.io.append(&framed).map_err(wal_io_err)?;
        *appended += framed.len() as u64;
        self.stats
            .bytes
            .fetch_add(framed.len() as u64, Ordering::Relaxed);
        self.stats.records.fetch_add(1, Ordering::Relaxed);
        Ok((*appended, framed.len() as u64))
    }

    /// Logs a statement payload for envelope `eid` (no fsync yet);
    /// returns the bytes appended (per-statement WAL attribution).
    pub fn log_sql(&self, eid: u64, text: &str) -> crate::Result<u64> {
        self.append_record(&WalRecord::Sql {
            eid,
            text: text.to_string(),
        })
        .map(|(_, len)| len)
    }

    /// Logs an ingest-rows payload for envelope `eid` (no fsync yet);
    /// returns the bytes appended (per-envelope WAL attribution).
    pub fn log_rows(&self, eid: u64, table: &str, rows: &[Vec<Value>]) -> crate::Result<u64> {
        self.append_record(&WalRecord::Rows {
            eid,
            table: table.to_string(),
            rows: rows.to_vec(),
        })
        .map(|(_, len)| len)
    }

    /// Appends the commit marker for `eid` and makes it durable: when
    /// this returns `Ok`, the envelope survives a crash (unless the log
    /// was opened with fsync disabled). Concurrent commits share one
    /// fsync via the group-commit leader. Returns the marker's framed
    /// length.
    pub fn commit(&self, eid: u64) -> crate::Result<u64> {
        let (target, len) = self.append_record(&WalRecord::Commit { eid })?;
        if !self.sync_on_commit {
            return Ok(len);
        }
        self.sync_to(target)?;
        Ok(len)
    }

    /// Makes the log durable up to at least `target` bytes.
    fn sync_to(&self, target: u64) -> crate::Result<()> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.synced >= target {
                return Ok(());
            }
            if st.syncing {
                // A leader is flushing; its fsync may already cover us.
                st = self.cv.wait(st).unwrap();
                continue;
            }
            // Become the leader: sync everything appended so far, which
            // covers every commit marker written before this instant.
            st.syncing = true;
            drop(st);
            let upto = *self.appended.lock().unwrap();
            let res = self.io.sync();
            st = self.state.lock().unwrap();
            st.syncing = false;
            match res {
                Ok(()) => {
                    st.synced = st.synced.max(upto);
                    self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
                    self.cv.notify_all();
                }
                Err(e) => {
                    self.cv.notify_all();
                    return Err(wal_io_err(e));
                }
            }
        }
    }

    /// Forces an fsync of everything appended so far (used by
    /// multi-shard two-phase commits).
    pub fn sync(&self) -> crate::Result<()> {
        let target = *self.appended.lock().unwrap();
        self.sync_to(target)
    }

    /// Durably resets the log to empty after a checkpoint.
    pub fn reset(&self) -> crate::Result<()> {
        let mut appended = self.appended.lock().unwrap();
        self.io.truncate().map_err(wal_io_err)?;
        *appended = 0;
        let mut st = self.state.lock().unwrap();
        st.synced = 0;
        self.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

fn wal_io_err(e: io::Error) -> StorageError {
    StorageError::Io(format!("wal: {e}"))
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Everything recovery learned from scanning one log file.
pub struct WalReplay {
    /// Committed payload records in log order, `eid >= horizon`.
    pub records: Vec<WalRecord>,
    /// Every committed envelope id seen (any horizon).
    pub committed: HashSet<u64>,
    /// Every envelope id that logged a payload record (any horizon).
    pub logged: HashSet<u64>,
    /// One past the largest envelope id seen in the log.
    pub next_eid: u64,
    /// Valid log length in bytes after tail truncation.
    pub valid_bytes: u64,
    /// Torn/corrupt bytes physically removed from the tail.
    pub truncated_bytes: u64,
}

/// Scans the log at `path`, validating records in order. The scan stops
/// at the first torn or corrupt record (bad length, CRC mismatch, or
/// undecodable payload) and **physically truncates** the file there, so
/// a crashed write never confuses the next recovery. Payload records
/// are returned in log order, filtered to envelopes whose commit marker
/// survived and whose id is `>= horizon` (older ones are already in the
/// checkpoint). A missing file reads as an empty log.
pub fn replay_wal(path: &Path, horizon: u64) -> crate::Result<WalReplay> {
    let mut out = WalReplay {
        records: Vec::new(),
        committed: HashSet::new(),
        logged: HashSet::new(),
        next_eid: horizon.max(1),
        valid_bytes: 0,
        truncated_bytes: 0,
    };
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(StorageError::Io(format!("wal open: {e}"))),
    };
    let mut data = Vec::new();
    file.read_to_end(&mut data)
        .map_err(|e| StorageError::Io(format!("wal read: {e}")))?;
    drop(file);

    let mut payloads = Vec::new();
    let mut pos = 0usize;
    while data.len() - pos >= 8 {
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD {
            break;
        }
        let body_start = pos + 8;
        let Some(body_end) = body_start.checked_add(len as usize) else {
            break;
        };
        if body_end > data.len() {
            break; // torn tail: the record's bytes never finished landing
        }
        let payload = &data[body_start..body_end];
        if crc32(payload) != crc {
            break; // bit-flipped or half-written payload
        }
        let Some(rec) = WalRecord::decode_payload(payload) else {
            break;
        };
        out.next_eid = out.next_eid.max(rec.eid() + 1);
        match &rec {
            WalRecord::Commit { eid } => {
                out.committed.insert(*eid);
            }
            _ => {
                out.logged.insert(rec.eid());
                payloads.push(rec);
            }
        }
        pos = body_end;
    }
    out.valid_bytes = pos as u64;
    out.truncated_bytes = (data.len() - pos) as u64;
    if out.truncated_bytes > 0 {
        let f = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| StorageError::Io(format!("wal truncate open: {e}")))?;
        f.set_len(pos as u64)
            .map_err(|e| StorageError::Io(format!("wal truncate: {e}")))?;
        f.sync_data()
            .map_err(|e| StorageError::Io(format!("wal truncate sync: {e}")))?;
    }
    out.records = payloads
        .into_iter()
        .filter(|r| r.eid() >= horizon && out.committed.contains(&r.eid()))
        .collect();
    Ok(out)
}

// ---------------------------------------------------------------------------
// Checkpoint manifest
// ---------------------------------------------------------------------------

const MANIFEST_MAGIC: &[u8; 8] = b"NLQCKPT1";

/// What a checkpoint directory contains: table snapshots (one
/// `<name>.tbl` DiskTable per entry) plus the DDL statements to
/// re-execute after loading them (summaries re-fold from the snapshot).
/// Envelopes with `eid < horizon` are inside the snapshot; replay skips
/// them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckpointManifest {
    /// First envelope id NOT captured by the snapshot.
    pub horizon: u64,
    /// Snapshotted base tables, in creation order.
    pub tables: Vec<String>,
    /// DDL texts (e.g. `CREATE SUMMARY …`) re-executed after load.
    pub ddl: Vec<String>,
}

impl CheckpointManifest {
    /// Encodes the manifest with a magic header and CRC trailer.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        body.put_u64_le(self.horizon);
        body.put_u32_le(self.tables.len() as u32);
        for t in &self.tables {
            body.put_u32_le(t.len() as u32);
            body.put_slice(t.as_bytes());
        }
        body.put_u32_le(self.ddl.len() as u32);
        for s in &self.ddl {
            body.put_u32_le(s.len() as u32);
            body.put_slice(s.as_bytes());
        }
        let mut out = Vec::with_capacity(body.len() + 12);
        out.put_slice(MANIFEST_MAGIC);
        out.put_u32_le(crc32(&body));
        out.put_slice(&body);
        out
    }

    /// Decodes and verifies a manifest produced by [`Self::encode`].
    pub fn decode(data: &[u8]) -> crate::Result<CheckpointManifest> {
        let corrupt = |what: &'static str| StorageError::Corrupt(what);
        if data.len() < 12 || &data[..8] != MANIFEST_MAGIC {
            return Err(corrupt("checkpoint manifest magic"));
        }
        let crc = u32::from_le_bytes(data[8..12].try_into().unwrap());
        let mut b = &data[12..];
        if crc32(b) != crc {
            return Err(corrupt("checkpoint manifest crc"));
        }
        let horizon = take_u64(&mut b).ok_or_else(|| corrupt("manifest horizon"))?;
        let ntables = take_u32(&mut b).ok_or_else(|| corrupt("manifest table count"))? as usize;
        if ntables > b.len() {
            return Err(corrupt("manifest table count"));
        }
        let mut tables = Vec::with_capacity(ntables);
        for _ in 0..ntables {
            tables.push(take_str(&mut b).ok_or_else(|| corrupt("manifest table name"))?);
        }
        let nddl = take_u32(&mut b).ok_or_else(|| corrupt("manifest ddl count"))? as usize;
        if nddl > b.len() {
            return Err(corrupt("manifest ddl count"));
        }
        let mut ddl = Vec::with_capacity(nddl);
        for _ in 0..nddl {
            ddl.push(take_str(&mut b).ok_or_else(|| corrupt("manifest ddl text"))?);
        }
        if !b.is_empty() {
            return Err(corrupt("manifest trailing bytes"));
        }
        Ok(CheckpointManifest {
            horizon,
            tables,
            ddl,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Sql {
                eid: 1,
                text: "CREATE TABLE t (i INT, x FLOAT)".into(),
            },
            WalRecord::Commit { eid: 1 },
            WalRecord::Rows {
                eid: 2,
                table: "t".into(),
                rows: vec![
                    vec![Value::Int(1), Value::Float(0.5)],
                    vec![Value::Int(-7), Value::Null],
                    vec![Value::Str("név".into()), Value::Float(f64::NAN)],
                ],
            },
            WalRecord::Commit { eid: 2 },
        ]
    }

    #[test]
    fn records_round_trip_through_encode_decode() {
        for rec in sample_records() {
            let framed = rec.encode();
            let payload = &framed[8..];
            let len = u32::from_le_bytes(framed[..4].try_into().unwrap());
            let crc = u32::from_le_bytes(framed[4..8].try_into().unwrap());
            assert_eq!(len as usize, payload.len());
            assert_eq!(crc, crc32(payload));
            let back = WalRecord::decode_payload(payload).expect("decode");
            match (&rec, &back) {
                (WalRecord::Rows { rows: a, .. }, WalRecord::Rows { rows: b, .. }) => {
                    // NaN != NaN; compare through bit patterns.
                    assert_eq!(a.len(), b.len());
                    for (ra, rb) in a.iter().zip(b) {
                        for (va, vb) in ra.iter().zip(rb) {
                            match (va, vb) {
                                (Value::Float(x), Value::Float(y)) => {
                                    assert_eq!(x.to_bits(), y.to_bits())
                                }
                                _ => assert_eq!(va, vb),
                            }
                        }
                    }
                }
                _ => assert_eq!(rec, back),
            }
        }
    }

    #[test]
    fn payload_decode_rejects_trailing_and_truncated_bytes() {
        let rec = WalRecord::Commit { eid: 9 };
        let mut payload = rec.encode_payload();
        payload.push(0);
        assert!(WalRecord::decode_payload(&payload).is_none());
        let payload = rec.encode_payload();
        assert!(WalRecord::decode_payload(&payload[..payload.len() - 1]).is_none());
        assert!(WalRecord::decode_payload(&[]).is_none());
        assert!(WalRecord::decode_payload(&[99, 0, 0, 0, 0, 0, 0, 0, 0]).is_none());
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("nlq-wal-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn replay_returns_only_committed_records_and_truncates_torn_tail() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let mut bytes = Vec::new();
        for rec in sample_records() {
            bytes.extend_from_slice(&rec.encode());
        }
        // Envelope 3 logs a payload but never commits (crashed apply).
        bytes.extend_from_slice(
            &WalRecord::Sql {
                eid: 3,
                text: "INSERT INTO t VALUES (9, 9.0)".into(),
            }
            .encode(),
        );
        // A torn record: header promises more bytes than exist.
        let torn = WalRecord::Commit { eid: 4 }.encode();
        bytes.extend_from_slice(&torn[..torn.len() - 3]);
        std::fs::write(&path, &bytes).unwrap();

        let replay = replay_wal(&path, 0).expect("replay");
        assert_eq!(replay.records.len(), 2, "only committed payloads");
        assert!(replay.committed.contains(&1) && replay.committed.contains(&2));
        assert!(!replay.committed.contains(&3));
        assert!(replay.logged.contains(&3));
        assert_eq!(replay.next_eid, 4);
        assert!(replay.truncated_bytes > 0);
        // The file was physically truncated to the valid prefix …
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk.len() as u64, replay.valid_bytes);
        // … so a second replay sees a clean log.
        let again = replay_wal(&path, 0).expect("re-replay");
        assert_eq!(again.truncated_bytes, 0);
        assert_eq!(again.records.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_stops_at_bit_flipped_checksum() {
        let path = temp_path("flip");
        let _ = std::fs::remove_file(&path);
        let mut bytes = Vec::new();
        for rec in sample_records() {
            bytes.extend_from_slice(&rec.encode());
        }
        let keep = WalRecord::Sql {
            eid: 1,
            text: "CREATE TABLE t (i INT, x FLOAT)".into(),
        }
        .encode()
        .len()
            + WalRecord::Commit { eid: 1 }.encode().len();
        // Flip one payload bit inside the envelope-2 Rows record.
        let flip_at = keep + 12;
        bytes[flip_at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let replay = replay_wal(&path, 0).expect("replay");
        assert_eq!(replay.valid_bytes, keep as u64);
        assert_eq!(replay.records.len(), 1, "envelope 1 survives, 2 is cut");
        assert!(replay.committed.contains(&1));
        assert!(!replay.committed.contains(&2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_honors_horizon() {
        let path = temp_path("horizon");
        let _ = std::fs::remove_file(&path);
        let mut bytes = Vec::new();
        for rec in sample_records() {
            bytes.extend_from_slice(&rec.encode());
        }
        std::fs::write(&path, &bytes).unwrap();
        let replay = replay_wal(&path, 2).expect("replay");
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].eid(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_log_reads_as_empty() {
        let path = temp_path("absent");
        let _ = std::fs::remove_file(&path);
        let replay = replay_wal(&path, 5).expect("replay");
        assert!(replay.records.is_empty());
        assert_eq!(replay.next_eid, 5);
    }

    #[test]
    fn group_commit_batches_concurrent_fsyncs() {
        let path = temp_path("group");
        let _ = std::fs::remove_file(&path);
        let io = Arc::new(FileIo::open(&path).unwrap());
        let wal = Arc::new(Wal::new(io, true, 1, 0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for _ in 0..16 {
                        let eid = wal.alloc_eid();
                        wal.log_sql(eid, "INSERT INTO t VALUES (1, 1.0)").unwrap();
                        wal.commit(eid).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = wal.stats().snapshot();
        assert_eq!(snap.records, 8 * 16 * 2);
        assert!(snap.fsyncs >= 1, "at least one fsync happened");
        let replay = replay_wal(&path, 0).expect("replay");
        assert_eq!(replay.records.len(), 8 * 16);
        assert_eq!(replay.committed.len(), 8 * 16);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn manifest_round_trips_and_rejects_corruption() {
        let m = CheckpointManifest {
            horizon: 42,
            tables: vec!["x".into(), "beta".into()],
            ddl: vec!["CREATE SUMMARY s ON x (X1, X2)".into()],
        };
        let enc = m.encode();
        assert_eq!(CheckpointManifest::decode(&enc).unwrap(), m);
        let mut bad = enc.clone();
        bad[20] ^= 1;
        assert!(CheckpointManifest::decode(&bad).is_err());
        assert!(CheckpointManifest::decode(&enc[..10]).is_err());
    }
}
