#![warn(missing_docs)]

//! Blocking client for the `nlq-server` wire protocol.
//!
//! ```no_run
//! use nlq_client::Client;
//!
//! let mut c = Client::connect("127.0.0.1:7878").unwrap();
//! c.execute("CREATE TABLE X (i INT, X1 FLOAT)").unwrap();
//! c.execute("INSERT INTO X VALUES (1, 2.5)").unwrap();
//! let r = c.execute("SELECT sum(X1) FROM X").unwrap();
//! assert_eq!(r.rows.len(), 1);
//! ```
//!
//! One [`Client`] is one server session: the connection carries the
//! session id (from the server's `Hello`) and per-session settings set
//! via [`Client::set_option`]; every result carries its statement's
//! execution stats. Requests are strictly serial per connection; use
//! one client per thread for concurrency. Introspection is SQL: query
//! the server's `sys.*` catalog (`sys.queries`, `sys.spans`,
//! `sys.sessions`, `sys.metrics`, …) through [`Client::execute`];
//! [`Client::metrics_prometheus`] is the one non-SQL telemetry call.
//!
//! ## Streaming
//!
//! Results arrive as a stream of chunk frames. [`Client::query`]
//! exposes that directly: it returns a [`RowStream`] that yields rows
//! as chunks come off the wire, verifies the stream trailer, and can
//! cancel the statement mid-flight via [`RowStream::cancel`] (or by
//! being dropped early). [`Client::execute`] is the collect-it-all
//! convenience built on top.
//!
//! Rows are decoded as they are iterated: the stream keeps the current
//! chunk's payload and decodes one row per `next()`, so a chunk is
//! never materialized as a whole. A malformed chunk therefore yields
//! the rows before the fault, then exactly one `Err`, then the end of
//! the stream.

use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use nlq_server::wire::{
    is_rows_chunk, read_frame, write_frame, ChunkRows, ErrorCode, Request, Response, WireStats,
    PROTOCOL_VERSION,
};
use nlq_storage::Value;

pub use nlq_obs::validate_exposition;

/// A query result received over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
    /// Server-side execution counters.
    pub stats: WireStats,
}

impl RemoteResult {
    /// The value at (`row`, `col`).
    ///
    /// # Panics
    /// Panics when out of range.
    pub fn value(&self, row: usize, col: usize) -> &Value {
        &self.rows[row][col]
    }
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server refused or failed the request.
    Server {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
    /// The server answered with an unexpected frame.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Server { code, message } => write!(f, "server {code:?}: {message}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ClientError>;

/// One connection = one server session.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    session_id: u64,
    /// 1-based count of `Execute` requests sent. Mirrors the server's
    /// count for this session, so both sides agree on the sequence
    /// number a `Cancel { seq }` names without any handshake.
    execute_seq: u64,
}

impl Client {
    /// Connects and consumes the server's `Hello`. Fails with the
    /// server's error when admission control refuses the connection
    /// (e.g. [`ErrorCode::Busy`] at max connections).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Client::from_stream(stream)
    }

    /// Like [`Client::connect`] with a TCP connect timeout.
    pub fn connect_timeout(addr: &std::net::SocketAddr, timeout: Duration) -> Result<Client> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        Client::from_stream(stream)
    }

    fn from_stream(stream: TcpStream) -> Result<Client> {
        // Requests (Execute, Cancel) are tiny frames that must reach
        // the server immediately, not sit in a Nagle buffer.
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        let mut client = Client {
            reader,
            writer,
            session_id: 0,
            execute_seq: 0,
        };
        match client.read_response()? {
            Response::Hello {
                session_id,
                version,
            } => {
                if version != PROTOCOL_VERSION {
                    return Err(ClientError::Protocol(format!(
                        "server speaks protocol v{version}, client v{PROTOCOL_VERSION}"
                    )));
                }
                client.session_id = session_id;
                Ok(client)
            }
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "expected Hello, got {other:?}"
            ))),
        }
    }

    /// The server-assigned session id.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    fn read_response(&mut self) -> Result<Response> {
        let payload = read_frame(&mut self.reader)?
            .ok_or_else(|| ClientError::Protocol("connection closed by server".into()))?;
        Ok(Response::decode(&payload)?)
    }

    fn round_trip(&mut self, request: &Request) -> Result<Response> {
        write_frame(&mut self.writer, &request.encode())?;
        self.read_response()
    }

    fn expect_result(&mut self, request: &Request) -> Result<RemoteResult> {
        match self.round_trip(request)? {
            Response::Result {
                columns,
                rows,
                stats,
            } => Ok(RemoteResult {
                columns,
                rows,
                stats,
            }),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "expected Result, got {other:?}"
            ))),
        }
    }

    fn expect_ok(&mut self, request: &Request) -> Result<()> {
        match self.round_trip(request)? {
            Response::Ok => Ok(()),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!("expected Ok, got {other:?}"))),
        }
    }

    /// Runs one SQL statement and collects the whole streamed result.
    pub fn execute(&mut self, sql: &str) -> Result<RemoteResult> {
        let mut stream = self.query(sql)?;
        let columns = stream.columns()?.to_vec();
        let mut rows = Vec::new();
        for row in &mut stream {
            rows.push(row?);
        }
        let stats = *stream.stats().ok_or_else(|| {
            ClientError::Protocol("stream ended without a RowsDone trailer".into())
        })?;
        Ok(RemoteResult {
            columns,
            rows,
            stats,
        })
    }

    /// Runs one SQL statement, returning the result as a row stream.
    ///
    /// The request is sent immediately but nothing is read until the
    /// first [`RowStream`] access, so the caller can hold the handle
    /// and [`RowStream::cancel`] before ever blocking on the result.
    /// Dropping the stream early cancels the statement and drains the
    /// connection back to a clean request boundary.
    pub fn query(&mut self, sql: &str) -> Result<RowStream<'_>> {
        self.execute_seq += 1;
        let seq = self.execute_seq;
        write_frame(
            &mut self.writer,
            &Request::Execute {
                sql: sql.to_owned(),
            }
            .encode(),
        )?;
        Ok(RowStream {
            client: self,
            seq,
            query_id: 0,
            columns: Vec::new(),
            started: false,
            terminal: false,
            chunk: None,
            rows_yielded: 0,
            row_bytes: 0,
            chunks_received: 0,
            stats: None,
        })
    }

    /// Sets a per-session option (`block_scan` = `on`/`off`/`default`).
    pub fn set_option(&mut self, name: &str, value: &str) -> Result<()> {
        self.expect_ok(&Request::SetOption {
            name: name.to_owned(),
            value: value.to_owned(),
        })
    }

    /// Server-wide metrics as Prometheus text exposition.
    pub fn metrics_prometheus(&mut self) -> Result<String> {
        match self.round_trip(&Request::MetricsProm)? {
            Response::MetricsText { text } => Ok(text),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "expected MetricsText, got {other:?}"
            ))),
        }
    }

    /// One sample of the server's metric registry, read back through
    /// `sys.metrics`: the value of series `name` with exactly the label
    /// block `labels` (`""` for an unlabelled series).
    pub fn metric(&mut self, name: &str, labels: &str) -> Result<f64> {
        let rs = self.execute(&format!(
            "SELECT value FROM sys.metrics WHERE metric = '{name}' AND labels = '{labels}'"
        ))?;
        match rs.rows.as_slice() {
            [row] => row[0].as_f64(),
            _ => None,
        }
        .ok_or_else(|| {
            ClientError::Protocol(format!("sys.metrics: no single sample {name}{{{labels}}}"))
        })
    }

    /// Opens a streamed INSERT envelope into `table`. `columns` names
    /// the frame columns (empty = all table columns in schema order);
    /// unnamed table columns are filled with NULL.
    ///
    /// The envelope is pipelined: the header and every
    /// [`Ingest::chunk`] go out without waiting for a reply, and the
    /// server acknowledges exactly once, at [`Ingest::finish`] —
    /// which is also where any validation error from the header or an
    /// earlier chunk surfaces. Nothing is visible to readers until
    /// `finish` commits the whole stream atomically; dropping or
    /// [`Ingest::abort`]ing the handle commits nothing.
    pub fn begin_ingest(&mut self, table: &str, columns: &[&str]) -> Result<Ingest<'_>> {
        write_frame(
            &mut self.writer,
            &Request::InsertHeader {
                table: table.to_owned(),
                columns: columns.iter().map(|s| (*s).to_owned()).collect(),
            }
            .encode(),
        )?;
        Ok(Ingest {
            client: self,
            next_seq: 0,
            rows_sent: 0,
            finished: false,
        })
    }

    /// Scores `keys` against `model` over `table`'s feature rows in
    /// one round trip: one `(key, score)` row per key in request
    /// order, NULL score for absent keys. With `explain`, returns the
    /// plan instead of executing.
    pub fn batch_score(
        &mut self,
        table: &str,
        model: &str,
        keys: &[i64],
        explain: bool,
    ) -> Result<RemoteResult> {
        self.expect_result(&Request::BatchScore {
            table: table.to_owned(),
            model: model.to_owned(),
            keys: keys.to_vec(),
            explain,
        })
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        match self.round_trip(&Request::Ping)? {
            Response::Pong => Ok(()),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "expected Pong, got {other:?}"
            ))),
        }
    }

    /// Asks a durable server to checkpoint: snapshot every table and
    /// truncate the write-ahead log. A volatile server (no
    /// `--wal-dir`) answers `Ok` without doing anything.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.expect_ok(&Request::Checkpoint)
    }

    /// Asks the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<()> {
        self.expect_ok(&Request::Shutdown)
    }
}

/// An open streamed-INSERT envelope (see [`Client::begin_ingest`]).
///
/// Chunks are pipelined — no per-chunk acknowledgment — and the whole
/// stream commits atomically at [`Ingest::finish`]. Dropping the
/// handle without finishing sends an abort, so the server discards
/// the buffered rows and the session stays at a clean request
/// boundary.
pub struct Ingest<'a> {
    client: &'a mut Client,
    next_seq: u32,
    rows_sent: u64,
    finished: bool,
}

impl Ingest<'_> {
    /// Sends one chunk of rows, each with one value per header column.
    /// Unacknowledged: a validation failure surfaces at
    /// [`Ingest::finish`], not here.
    pub fn chunk(&mut self, rows: Vec<Vec<Value>>) -> Result<()> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.rows_sent += rows.len() as u64;
        write_frame(
            &mut self.client.writer,
            &Request::InsertChunk { seq, rows }.encode(),
        )?;
        Ok(())
    }

    /// Rows sent so far (not yet committed).
    pub fn rows_sent(&self) -> u64 {
        self.rows_sent
    }

    /// Commits the envelope and waits for the server's one reply:
    /// the rows accepted, or the error that poisoned the stream.
    pub fn finish(mut self) -> Result<u64> {
        self.finished = true;
        write_frame(&mut self.client.writer, &Request::InsertDone.encode())?;
        self.client.writer.flush()?;
        match self.client.read_response()? {
            Response::InsertAck { rows } => Ok(rows),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "expected InsertAck, got {other:?}"
            ))),
        }
    }

    /// Abandons the envelope; the server discards every buffered row.
    /// Fire-and-forget: there is no reply to wait for.
    pub fn abort(mut self) -> Result<()> {
        self.finished = true;
        write_frame(&mut self.client.writer, &Request::InsertAbort.encode())?;
        self.client.writer.flush()?;
        Ok(())
    }
}

impl Drop for Ingest<'_> {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        let _ = write_frame(&mut self.client.writer, &Request::InsertAbort.encode());
        let _ = self.client.writer.flush();
    }
}

/// A streamed query result.
///
/// Rows are decoded one per `next()` as chunk frames come off the
/// wire; the stream ends at the server's `RowsDone` trailer, whose row/byte totals are
/// verified against what was actually received. An error frame (SQL
/// error, `Cancelled`, `Timeout`, `TooLarge` mid-stream) surfaces as
/// one `Err` item and ends the stream.
///
/// Dropping a stream that has not reached its terminal frame sends a
/// `Cancel` for the statement and drains the remaining frames, so the
/// underlying [`Client`] stays at a clean request boundary.
pub struct RowStream<'a> {
    client: &'a mut Client,
    seq: u64,
    query_id: u64,
    columns: Vec<String>,
    started: bool,
    /// Reached a terminal frame (or the connection broke): nothing
    /// left to read for this statement.
    terminal: bool,
    /// The chunk being read: rows decode one per `next`.
    chunk: Option<ChunkRows<Vec<u8>>>,
    rows_yielded: u64,
    /// Encoded row bytes received, per the chunk framing (payload
    /// minus the fixed chunk header) — checked against the trailer.
    row_bytes: u64,
    chunks_received: u64,
    stats: Option<WireStats>,
}

impl RowStream<'_> {
    /// The statement's stream sequence number (what a `Cancel` names).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Chunk frames received so far.
    pub fn chunks_received(&self) -> u64 {
        self.chunks_received
    }

    /// The trailer's execution stats; `Some` once the stream finished
    /// successfully.
    pub fn stats(&self) -> Option<&WireStats> {
        self.stats.as_ref()
    }

    /// Asks the server to cancel this statement. Fire-and-forget: the
    /// acknowledgment is the stream's terminal frame, which will be
    /// either `Cancelled` or — if the statement won the race — a
    /// normal completion.
    pub fn cancel(&mut self) -> Result<()> {
        write_frame(
            &mut self.client.writer,
            &Request::Cancel { seq: self.seq }.encode(),
        )?;
        self.client.writer.flush()?;
        Ok(())
    }

    /// The result's column names (reads up to the stream header).
    pub fn columns(&mut self) -> Result<&[String]> {
        self.ensure_started()?;
        Ok(&self.columns)
    }

    /// The server-minted query id for this statement (reads up to the
    /// stream header). Joins the `sys.queries` / `sys.spans` catalog
    /// rows for this execution.
    pub fn query_id(&mut self) -> Result<u64> {
        self.ensure_started()?;
        Ok(self.query_id)
    }

    fn read_payload(&mut self) -> Result<Vec<u8>> {
        match read_frame(&mut self.client.reader) {
            Ok(Some(p)) => Ok(p),
            Ok(None) => {
                self.terminal = true;
                Err(ClientError::Protocol("connection closed mid-stream".into()))
            }
            Err(e) => {
                self.terminal = true;
                Err(ClientError::Io(e))
            }
        }
    }

    /// Reads frames up to this stream's `RowsHeader` (or its terminal
    /// error).
    fn ensure_started(&mut self) -> Result<()> {
        if self.started {
            return Ok(());
        }
        if self.terminal {
            return Err(ClientError::Protocol("stream already ended".into()));
        }
        let payload = self.read_payload()?;
        let response = Response::decode(&payload).inspect_err(|_| self.terminal = true)?;
        match response {
            Response::RowsHeader {
                seq,
                query_id,
                columns,
            } if seq == self.seq => {
                self.query_id = query_id;
                self.columns = columns;
                self.started = true;
                Ok(())
            }
            Response::Error { code, message } => {
                self.terminal = true;
                Err(ClientError::Server { code, message })
            }
            other => {
                self.terminal = true;
                Err(ClientError::Protocol(format!(
                    "stream {} expected RowsHeader, got {other:?}",
                    self.seq
                )))
            }
        }
    }

    /// Reads the next frame: a chunk becomes the one being read
    /// (`Ok(true)`); the trailer ends the stream cleanly (`Ok(false)`).
    fn refill(&mut self) -> Result<bool> {
        let payload = self.read_payload()?;
        if is_rows_chunk(&payload) {
            let chunk = ChunkRows::open(payload).inspect_err(|_| self.terminal = true)?;
            let (seq, ncols) = (chunk.seq(), chunk.ncols());
            if seq != self.seq || ncols as usize != self.columns.len() {
                self.terminal = true;
                return Err(ClientError::Protocol(format!(
                    "stream {} got mismatched chunk (seq {seq}, {ncols} cols)",
                    self.seq
                )));
            }
            self.chunks_received += 1;
            self.row_bytes += chunk.row_bytes() as u64;
            self.chunk = Some(chunk);
            return Ok(true);
        }
        let response = Response::decode(&payload).inspect_err(|_| self.terminal = true)?;
        self.terminal = true;
        match response {
            Response::RowsDone {
                seq,
                total_rows,
                total_bytes,
                stats,
            } => {
                if seq != self.seq
                    || total_rows != self.rows_yielded
                    || total_bytes != self.row_bytes
                {
                    return Err(ClientError::Protocol(format!(
                        "stream {} trailer mismatch: server says {total_rows} rows / \
                         {total_bytes} bytes, received {} rows / {} bytes",
                        self.seq, self.rows_yielded, self.row_bytes
                    )));
                }
                self.stats = Some(stats);
                Ok(false)
            }
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "stream {} expected RowsChunk/RowsDone, got {other:?}",
                self.seq
            ))),
        }
    }
}

impl Iterator for RowStream<'_> {
    type Item = Result<Vec<Value>>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(chunk) = &mut self.chunk {
                match chunk.next_row() {
                    Some(Ok(row)) => {
                        self.rows_yielded += 1;
                        return Some(Ok(row));
                    }
                    Some(Err(e)) => {
                        self.chunk = None;
                        self.terminal = true;
                        return Some(Err(e.into()));
                    }
                    None => self.chunk = None,
                }
            }
            if self.terminal {
                return None;
            }
            if let Err(e) = self.ensure_started() {
                return Some(Err(e));
            }
            match self.refill() {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

impl Drop for RowStream<'_> {
    fn drop(&mut self) {
        if self.terminal {
            return;
        }
        // Abandoned mid-stream: cancel the statement and drain to its
        // terminal frame so the next request starts clean. Every error
        // path inside `next` marks the stream terminal, so this always
        // terminates.
        let _ = self.cancel();
        while self.next().is_some() {}
    }
}
