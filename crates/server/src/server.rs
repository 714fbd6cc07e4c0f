//! The TCP server: accept loop, per-connection sessions, admission
//! control, streamed results, cooperative cancellation, and graceful
//! shutdown.
//!
//! ## Threading model
//!
//! One accept thread owns the listener and every connection
//! `JoinHandle`. Each accepted connection gets a **session thread**
//! (owns the write side, answers requests strictly in order) and a
//! **frame-reader thread** (decodes incoming frames). The reader
//! forwards ordinary requests to the session over a channel and
//! handles [`Request::Cancel`] inline — flipping the targeted
//! statement's cancel token the moment the frame arrives, even while
//! the session thread is busy executing or streaming that statement.
//!
//! The session thread runs each request itself, with a cancellation
//! token threaded into the engine's scan loops, and writes an
//! `Execute`'s result straight into its buffered socket writer —
//! [`Response::RowsHeader`], each [`Response::RowsChunk`] as it is
//! cut, then a [`Response::RowsDone`] trailer — flushing once, after
//! the terminal frame. The socket is the backpressure: a slow client
//! stalls its own session thread, which encodes nothing ahead of what
//! the socket accepts.
//!
//! One **deadline thread** per server flips the token of any
//! statement past its `query_timeout`; the statement stops at its
//! next per-row/per-block check and the session reports
//! [`ErrorCode::Timeout`]. A client `Cancel` ends the stream with
//! [`ErrorCode::Cancelled`].
//!
//! ## Admission control
//!
//! * At most `max_connections` sessions: the `(max+1)`-th connection
//!   is answered with one [`ErrorCode::Busy`] error frame and closed.
//! * At most `workers` requests that do work (`Execute`, `BatchScore`,
//!   `InsertDone`, `Checkpoint`) execute at once, and at most
//!   `queue_capacity` more wait for a slot; past that, the request
//!   answers `Busy` without waiting. A request cancelled (or timed
//!   out) while it waits never executes. All four kinds run through
//!   one function, `Session::run`, and each leaves one trace record.
//! * `max_result_rows` and `max_result_bytes` are streaming budgets:
//!   the row budget is checked before the stream opens, the byte
//!   budget incrementally as rows are encoded — a result that exceeds
//!   it terminates the stream with [`ErrorCode::TooLarge`] without
//!   ever encoding the remainder.
//!
//! ## Graceful shutdown
//!
//! [`ServerHandle::shutdown`] (or a client `SHUTDOWN` command) flips
//! the drain flag and wakes the accept thread with a self-connection.
//! The accept thread stops accepting and half-closes every session's
//! read side; in-flight statements keep streaming. Sessions still
//! running `drain_grace` later get their statements cancelled; after
//! a second grace their sockets are force-closed (a client that
//! stopped reading its stream could otherwise block the drain
//! forever).

use std::any::Any;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nlq_engine::{EngineError, ExecOptions, ExecStats, ResultBlock, SqlEngine};
use nlq_feature::{IngestStream, RefreshConfig, RefreshDaemon, TickGate};
use nlq_obs::{Outcome, Phase, Span, Trace, TraceRecord, TraceRing};
use nlq_storage::Row;

use crate::metrics::{Command, Metrics};
use crate::wire::{
    put_frame, read_frame, write_frame, ChunkEncoder, ErrorCode, Request, Response, WireStats,
    PROTOCOL_VERSION,
};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Requests that do work executing at once, each on its own
    /// session thread. Also the engine's scan fan-out in the
    /// `nlq-server` binary.
    pub workers: usize,
    /// Requests that may wait for an execution slot; past that, a
    /// request answers [`ErrorCode::Busy`].
    pub queue_capacity: usize,
    /// Maximum concurrent sessions.
    pub max_connections: usize,
    /// Per-request wall-clock limit, counted from admission (waiting
    /// for a slot included). On expiry the deadline thread flips the
    /// request's cancel token; it stops at its next cancel check and
    /// the client gets [`ErrorCode::Timeout`].
    pub query_timeout: Duration,
    /// Per-result row budget, checked before the stream opens.
    pub max_result_rows: usize,
    /// Per-result byte budget over total encoded row bytes, enforced
    /// incrementally while streaming (`usize::MAX` = unlimited).
    pub max_result_bytes: usize,
    /// Target encoded row bytes per `RowsChunk` frame.
    pub chunk_bytes: usize,
    /// How long a drain waits for in-flight statements before
    /// cancelling them (and force-closing sockets after twice this).
    pub drain_grace: Duration,
    /// Completed queries at or above this wall-clock duration are
    /// written to the slow-query log (stderr) and retained in the
    /// slow-trace ring.
    pub slow_query: Duration,
    /// Capacity of each trace ring (recent and slow).
    pub trace_ring: usize,
    /// Cadence of the continuous model-refresh daemon; `None` runs
    /// the server without one. The daemon auto-discovers a regression
    /// binding for every eligible summary and republishes its model
    /// table whenever the summary's Γ moved far enough.
    pub refresh_cadence: Option<Duration>,
    /// Minimum folded-row delta since the last refresh before a
    /// fold-driven summary change triggers a refit (structural
    /// changes always trigger).
    pub refresh_delta_rows: u64,
    /// Ingest back-pressure bound: when the refresh daemon is more
    /// than this many folded rows behind its last published models,
    /// `InsertDone` answers [`ErrorCode::Retry`] instead of
    /// committing. `None` never pushes back.
    pub staleness_bound: Option<u64>,
    /// Auto-checkpoint threshold: after a committed ingest envelope,
    /// if the live WAL has grown to at least this many bytes the
    /// server checkpoints (snapshot + log truncation) inline. `None`
    /// leaves checkpoints to explicit `Checkpoint` requests. Ignored
    /// by volatile engines.
    pub checkpoint_bytes: Option<u64>,
    /// Test seam: when set, the refresh daemon runs gated — it ticks
    /// only when [`TickGate::step`] is called instead of on the
    /// cadence — so back-pressure tests control refresh progress
    /// deterministically, without sleeps.
    pub refresh_gate: Option<Arc<TickGate>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_capacity: 64,
            max_connections: 32,
            query_timeout: Duration::from_secs(30),
            max_result_rows: 1_000_000,
            max_result_bytes: usize::MAX,
            chunk_bytes: 1 << 20,
            drain_grace: Duration::from_secs(5),
            slow_query: Duration::from_millis(500),
            trace_ring: 256,
            refresh_cadence: Some(Duration::from_millis(250)),
            refresh_delta_rows: 0,
            staleness_bound: None,
            checkpoint_bytes: None,
            refresh_gate: None,
        }
    }
}

/// Cancellation registry for one session. The frame-reader thread
/// flips tokens through it while the session thread is busy, and the
/// deadline thread times statements out through it; sequence numbers
/// (the session's 1-based `Execute` count, mirrored by the client)
/// make sure a `Cancel` is never misdelivered to a different
/// statement, whichever side of the race it lands on.
#[derive(Default)]
struct ActiveQuery {
    inner: Mutex<ActiveInner>,
}

#[derive(Default)]
struct ActiveInner {
    /// The in-flight statement.
    current: Option<InFlight>,
    /// Highest sequence number that has begun executing.
    last_seq: u64,
    /// A cancel that arrived before its statement began.
    pending_cancel: Option<u64>,
}

struct InFlight {
    seq: u64,
    token: Arc<AtomicBool>,
    /// When the deadline thread times the statement out; `None` once
    /// it has (or when the timeout is too large to represent).
    deadline: Option<Instant>,
    /// The deadline thread, not a cancel, flipped the token.
    timed_out: bool,
}

impl ActiveQuery {
    /// Registers request `seq` as in-flight until `deadline`. A
    /// cancel already recorded against this sequence number flips the
    /// token immediately (the cancel raced ahead of the execute). Only
    /// an `Execute` has a sequence number; every other request is 0,
    /// which no client `Cancel` names and which leaves `last_seq` as
    /// it is.
    fn begin(&self, seq: u64, token: &Arc<AtomicBool>, deadline: Option<Instant>) {
        let mut inner = self.inner.lock().expect("active query");
        inner.last_seq = inner.last_seq.max(seq);
        if inner.pending_cancel == Some(seq) {
            inner.pending_cancel = None;
            token.store(true, Ordering::SeqCst);
        }
        inner.current = Some(InFlight {
            seq,
            token: Arc::clone(token),
            deadline,
            timed_out: false,
        });
    }

    /// Unregisters the in-flight statement.
    fn end(&self) {
        self.inner.lock().expect("active query").current = None;
    }

    /// Delivers a client cancel for `seq`: flips the matching live
    /// token, remembers a future sequence number, ignores the past.
    /// Sequence number 0 names no stream, so it cancels nothing.
    fn cancel(&self, seq: u64) {
        let mut inner = self.inner.lock().expect("active query");
        match &inner.current {
            Some(run) if run.seq == seq && seq > 0 => run.token.store(true, Ordering::SeqCst),
            _ if seq > inner.last_seq => inner.pending_cancel = Some(seq),
            _ => {} // Already finished; the stream's terminal frame answered it.
        }
    }

    /// Cancels whatever is in flight (the drain path).
    fn cancel_current(&self) {
        if let Some(run) = &self.inner.lock().expect("active query").current {
            run.token.store(true, Ordering::SeqCst);
        }
    }

    /// Times the in-flight statement out if its deadline is at or
    /// before `now`; otherwise returns the deadline still pending. A
    /// statement a cancel already stopped stays cancelled.
    fn expire(&self, now: Instant) -> Option<Instant> {
        let mut inner = self.inner.lock().expect("active query");
        let run = inner.current.as_mut()?;
        let deadline = run.deadline?;
        if deadline > now {
            return Some(deadline);
        }
        run.deadline = None;
        run.timed_out = !run.token.swap(true, Ordering::SeqCst);
        None
    }

    /// Whether the in-flight statement's token was flipped by its
    /// deadline.
    fn timed_out(&self) -> bool {
        let inner = self.inner.lock().expect("active query");
        inner.current.as_ref().is_some_and(|run| run.timed_out)
    }
}

/// The admission gate: at most `workers` statements run at once and at
/// most `capacity` wait for a slot.
pub(crate) struct Admission {
    slots: Mutex<Slots>,
    /// Signalled when a slot frees up or a waiting statement's token
    /// may have flipped.
    changed: Condvar,
    workers: usize,
    capacity: usize,
}

#[derive(Default)]
struct Slots {
    running: usize,
    waiting: usize,
}

/// Why [`Admission::admit`] did not hand out a slot.
enum Refusal {
    /// The wait queue is full.
    Full,
    /// The statement's token flipped before it got a slot.
    Cancelled,
}

/// A held execution slot; dropping it frees the slot.
struct Slot<'a>(&'a Admission);

impl Admission {
    fn new(workers: usize, capacity: usize) -> Admission {
        Admission {
            slots: Mutex::new(Slots::default()),
            changed: Condvar::new(),
            workers: workers.max(1),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().expect("admission slots")
    }

    /// Takes a slot, waiting for one while all are taken. Refuses when
    /// the wait queue is full, or once `token` flips (checked before
    /// the statement would start, so a cancelled statement never runs).
    fn admit(&self, token: &AtomicBool) -> Result<Slot<'_>, Refusal> {
        let mut slots = self.lock();
        if slots.running >= self.workers {
            if slots.waiting >= self.capacity {
                return Err(Refusal::Full);
            }
            slots.waiting += 1;
            while slots.running >= self.workers && !token.load(Ordering::SeqCst) {
                slots = self.changed.wait(slots).expect("admission slots");
            }
            slots.waiting -= 1;
        }
        if token.load(Ordering::SeqCst) {
            return Err(Refusal::Cancelled);
        }
        slots.running += 1;
        Ok(Slot(self))
    }

    /// Wakes the waiting statements to re-check their tokens. Taking
    /// the lock first orders the wake after any waiter's token check.
    fn wake(&self) {
        if self.lock().waiting > 0 {
            self.changed.notify_all();
        }
    }

    /// Statements executing now.
    pub(crate) fn running(&self) -> usize {
        self.lock().running
    }

    /// Statements waiting for a slot now.
    pub(crate) fn waiting(&self) -> usize {
        self.lock().waiting
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        // Every update of the counts is one step, so a poisoned lock
        // still holds valid counts; a panic here would abort.
        let mut slots = self.0.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots.running -= 1;
        if slots.waiting > 0 {
            self.0.changed.notify_all();
        }
    }
}

/// What `sys.sessions` reads of a live session, shared between the
/// session thread (writer) and catalog snapshots (readers).
pub(crate) struct SessionInfo {
    /// Requests that do work the session has answered, refusals
    /// included.
    pub(crate) statements: AtomicU64,
    /// The session's `block_scan` option as set: `default`, `on`, `off`.
    pub(crate) block_scan: Mutex<&'static str>,
}

/// A live session as the accept thread tracks it for the drain (and
/// as `sys.sessions` snapshots it).
pub(crate) struct LiveSession {
    pub(crate) id: u64,
    read_half: TcpStream,
    active: Arc<ActiveQuery>,
    /// Peer address of the connection, as accepted.
    pub(crate) peer: String,
    pub(crate) info: Arc<SessionInfo>,
}

pub(crate) struct Shared {
    pub(crate) db: Arc<dyn SqlEngine>,
    pub(crate) admission: Admission,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) config: ServerConfig,
    /// The bound listener address (for shutdown self-wakes).
    addr: SocketAddr,
    shutting_down: AtomicBool,
    next_session: AtomicU64,
    /// Live sessions: read-halves (closed on shutdown to unblock
    /// their frame reads) and cancellation registries.
    pub(crate) live: Mutex<Vec<LiveSession>>,
    /// Ring of the most recently completed query traces.
    pub(crate) traces: TraceRing,
    /// Ring of queries that crossed the slow-query threshold.
    pub(crate) slow_traces: TraceRing,
    /// Server-wide monotone trace id (`sys.queries.trace_id`, the
    /// paging cursor). Assigned at completion, so ids are
    /// retention-ordered.
    next_trace_id: AtomicU64,
    /// Server-wide query id, minted at admission — before waiting for a slot —
    /// and threaded through `ExecOptions` into every span and WAL
    /// commit the statement produces. The join key
    /// across `RowsHeader`, `sys.queries`, `sys.spans`, and the
    /// slow-query log.
    next_query_id: AtomicU64,
    /// The continuous model-refresh daemon (when configured); taken
    /// and joined on shutdown.
    pub(crate) daemon: Mutex<Option<RefreshDaemon>>,
}

impl Shared {
    /// Every retained trace record, oldest first: the union of the
    /// recent and slow rings (a slow statement sits in both until the
    /// recent ring wraps past it), de-duplicated on trace id.
    pub(crate) fn retained_traces(&self) -> Vec<TraceRecord> {
        let mut all = self.traces.records();
        all.extend(self.slow_traces.records());
        all.sort_by_key(|r| r.id);
        all.dedup_by_key(|r| r.id);
        all
    }

    /// Back-pressure: an `InsertDone` is refused with a retry hint,
    /// before anything commits, while the refresh daemon has fallen
    /// further behind than the configured staleness bound. The whole
    /// envelope is discarded — `Retry` means "resend the envelope
    /// later", never "partially applied".
    fn ingest_backpressure(&self) -> Option<Failed> {
        let bound = self.config.staleness_bound?;
        let lag = self.daemon.lock().expect("daemon").as_ref()?.staleness();
        (lag > bound).then(|| {
            let message = format!(
                "refresh daemon is {lag} rows behind (bound {bound}); \
                 envelope not committed, retry later"
            );
            Failed::new(ErrorCode::Retry, message)
        })
    }
}

/// Running server; dropping it shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

/// Starts a server for `db` per `config`, returning once the listener
/// is bound.
pub fn serve(db: Arc<dyn SqlEngine>, config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let daemon = config.refresh_cadence.map(|cadence| {
        RefreshDaemon::spawn_with_gate(
            Arc::clone(&db),
            Vec::new(),
            RefreshConfig {
                cadence,
                min_delta_rows: config.refresh_delta_rows,
                auto_discover: true,
            },
            config.refresh_gate.clone(),
        )
    });
    let shared = Arc::new(Shared {
        admission: Admission::new(config.workers, config.queue_capacity),
        metrics: Arc::new(Metrics::new()),
        db,
        addr,
        shutting_down: AtomicBool::new(false),
        next_session: AtomicU64::new(1),
        live: Mutex::new(Vec::new()),
        traces: TraceRing::new(config.trace_ring),
        slow_traces: TraceRing::new(config.trace_ring),
        next_trace_id: AtomicU64::new(1),
        next_query_id: AtomicU64::new(1),
        daemon: Mutex::new(daemon),
        config,
    });
    // Register the virtual system catalog: `sys.*` names resolve to
    // snapshots of this server's live state, queryable through the
    // ordinary scan/aggregate path. The provider holds a weak
    // reference — the engine outliving the server must not keep it
    // alive, and `Shared.db` already owns the engine.
    shared
        .db
        .set_system_tables(Arc::new(crate::sys::SysCatalog::new(Arc::downgrade(
            &shared,
        ))));
    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::Builder::new()
        .name("nlq-accept".into())
        .spawn(move || accept_loop(&listener, &accept_shared))?;
    Ok(ServerHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
    })
}

impl ServerHandle {
    /// The bound address (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live server metrics (shared with the sessions).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Initiates a graceful shutdown and blocks until every in-flight
    /// query has completed (or was cancelled past the drain grace)
    /// and all threads exited.
    pub fn shutdown(&mut self) {
        if let Some(d) = self.shared.daemon.lock().expect("daemon").take() {
            d.stop();
        }
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Wake the accept thread; it owns the rest of the drain.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Blocks until the server exits (e.g. a client sent `SHUTDOWN`).
    pub fn join(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Runs the accept loop and the drain, with the deadline thread alive
/// until every session has ended.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let deadlines = std::thread::Builder::new()
            .name("nlq-deadlines".into())
            .spawn_scoped(scope, || deadline_loop(shared, &stop))
            .expect("spawn deadline thread");
        accept_and_drain(listener, shared);
        stop.store(true, Ordering::SeqCst);
        deadlines.thread().unpark();
    });
}

/// Times out every statement past its deadline. Every deadline is its
/// statement's start plus `query_timeout`, so a statement that begins
/// while this thread sleeps is due no earlier than `query_timeout`
/// after the thread last looked — which bounds the sleep. Nothing
/// needs to wake it.
fn deadline_loop(shared: &Shared, stop: &AtomicBool) {
    let timeout = shared.config.query_timeout;
    while !stop.load(Ordering::SeqCst) {
        let now = Instant::now();
        let mut sleep = timeout;
        for s in shared.live.lock().expect("live list").iter() {
            if let Some(deadline) = s.active.expire(now) {
                sleep = sleep.min(deadline - now);
            }
        }
        // A statement timed out while waiting for a slot must notice.
        shared.admission.wake();
        std::thread::park_timeout(sleep);
    }
}

fn accept_and_drain(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // A response is several small frames (header, chunks, trailer);
        // Nagle + delayed ACK would serialize them at ~40 ms apiece.
        let _ = stream.set_nodelay(true);
        sessions.retain(|s| !s.is_finished());
        let active_sessions = shared.metrics.sessions_active.load(Ordering::SeqCst);
        if active_sessions as usize >= shared.config.max_connections {
            shared
                .metrics
                .connections_rejected
                .fetch_add(1, Ordering::Relaxed);
            refuse(stream, ErrorCode::Busy, "server at max connections");
            continue;
        }
        shared
            .metrics
            .sessions_active
            .fetch_add(1, Ordering::SeqCst);
        shared
            .metrics
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
        let active = Arc::new(ActiveQuery::default());
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_default();
        let info = Arc::new(SessionInfo {
            statements: AtomicU64::new(0),
            block_scan: Mutex::new("default"),
        });
        if let Ok(read_half) = stream.try_clone() {
            shared.live.lock().expect("live list").push(LiveSession {
                id,
                read_half,
                active: Arc::clone(&active),
                peer: peer.clone(),
                info: Arc::clone(&info),
            });
        }
        let conn_shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name(format!("nlq-session-{id}"))
            .spawn(move || {
                session_loop(stream, id, peer, info, &active, &conn_shared);
                conn_shared
                    .metrics
                    .sessions_active
                    .fetch_sub(1, Ordering::SeqCst);
                conn_shared
                    .live
                    .lock()
                    .expect("live list")
                    .retain(|s| s.id != id);
            })
            .expect("spawn session thread");
        sessions.push(handle);
    }
    // Drain, in up to three phases. Phase 1: unblock session reads and
    // give in-flight statements a grace period to stream out.
    for s in shared.live.lock().expect("live list").iter() {
        let _ = s.read_half.shutdown(Shutdown::Read);
    }
    let grace = shared.config.drain_grace;
    if !wait_sessions(&sessions, grace) {
        // Phase 2: cancel whatever is still running; the scan loops
        // notice within a row/block and the streams terminate with
        // `Cancelled`.
        for s in shared.live.lock().expect("live list").iter() {
            s.active.cancel_current();
        }
        shared.admission.wake();
        if !wait_sessions(&sessions, grace) {
            // Phase 3: force-close the sockets. A session blocked
            // writing to a client that stopped reading can only be
            // freed by failing the write.
            for s in shared.live.lock().expect("live list").iter() {
                let _ = s.read_half.shutdown(Shutdown::Both);
            }
        }
    }
    for s in sessions {
        let _ = s.join();
    }
}

/// Polls until every session thread finished or `grace` elapsed.
fn wait_sessions(sessions: &[JoinHandle<()>], grace: Duration) -> bool {
    let deadline = Instant::now() + grace;
    loop {
        if sessions.iter().all(|s| s.is_finished()) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn refuse(stream: TcpStream, code: ErrorCode, message: &str) {
    let mut w = BufWriter::new(stream);
    let _ = write_frame(
        &mut w,
        &Response::Error {
            code,
            message: message.into(),
        }
        .encode(),
    );
    let _ = w.flush();
}

/// Per-session state.
struct Session {
    id: u64,
    /// Peer address of the connection (stamped on trace records).
    peer: String,
    /// `None` = server default; `Some` = per-session override.
    block_scan: Option<bool>,
    /// Shared with the accept thread's [`LiveSession`] so
    /// `sys.sessions` reads it live.
    info: Arc<SessionInfo>,
    /// 1-based count of `Execute` requests received; its value for
    /// the current statement is the stream's sequence number. The
    /// client keeps the same count, which is how both sides agree on
    /// what a `Cancel { seq }` targets without extra round trips.
    execute_seq: u64,
    /// The session's open ingest envelope, if any. Headers and chunks
    /// are unacknowledged, so a failure anywhere mid-envelope parks
    /// here as `Failed` and is reported once, at `InsertDone`.
    ingest: IngestSlot,
    /// The session's cancellation registry, shared with its reader,
    /// the deadline thread and the drain.
    active: Arc<ActiveQuery>,
    shared: Arc<Shared>,
    /// The write side of the connection.
    writer: BufWriter<TcpStream>,
}

/// Where the session's ingest envelope stands.
enum IngestSlot {
    /// No envelope open.
    Idle,
    /// Header accepted; chunks are being buffered.
    Active(IngestStream),
    /// The envelope is poisoned: the first error, held until
    /// `InsertDone` reports it.
    Failed(String),
}

/// What the frame-reader thread forwards to the session thread.
enum Incoming {
    Req(Request),
    /// An undecodable frame; the session answers with a protocol
    /// error to keep the request/response ledger aligned.
    Bad(String),
}

fn session_loop(
    stream: TcpStream,
    id: u64,
    peer: String,
    info: Arc<SessionInfo>,
    active: &Arc<ActiveQuery>,
    shared: &Arc<Shared>,
) {
    let (Ok(read_stream), Ok(write_stream)) = (stream.try_clone(), stream.try_clone()) else {
        return;
    };
    let mut session = Session {
        id,
        peer,
        block_scan: None,
        info,
        execute_seq: 0,
        ingest: IngestSlot::Idle,
        active: Arc::clone(active),
        shared: Arc::clone(shared),
        writer: BufWriter::new(write_stream),
    };
    let hello = Response::Hello {
        session_id: id,
        version: PROTOCOL_VERSION,
    };
    if write_frame(&mut session.writer, &hello.encode()).is_err() {
        return;
    }

    // The reader decodes frames as they arrive. Cancels are handled
    // here — the session thread may be blocked streaming the very
    // statement being cancelled — and everything else is forwarded in
    // order.
    let (tx, rx) = mpsc::channel::<Incoming>();
    let reader_active = Arc::clone(active);
    let reader_shared = Arc::clone(shared);
    let reader = std::thread::Builder::new()
        .name(format!("nlq-session-{id}-reader"))
        .spawn(move || {
            let mut reader = BufReader::new(read_stream);
            while let Ok(Some(payload)) = read_frame(&mut reader) {
                match Request::decode(&payload) {
                    Ok(Request::Cancel { seq }) => {
                        let started = Instant::now();
                        reader_active.cancel(seq);
                        // A statement waiting for a slot answers at once.
                        reader_shared.admission.wake();
                        // Counted only after delivery, so the counter
                        // doubles as an is-the-token-flipped signal.
                        reader_shared
                            .metrics
                            .cancel_requests
                            .fetch_add(1, Ordering::Relaxed);
                        reader_shared
                            .metrics
                            .record(Command::Cancel, started.elapsed(), true);
                    }
                    Ok(req) => {
                        if tx.send(Incoming::Req(req)).is_err() {
                            break;
                        }
                    }
                    Err(e) => {
                        if tx.send(Incoming::Bad(e.to_string())).is_err() {
                            break;
                        }
                    }
                }
            }
        })
        .expect("spawn session reader");

    while let Ok(incoming) = rx.recv() {
        let started = Instant::now();
        let request = match incoming {
            Incoming::Req(r) => r,
            Incoming::Bad(message) => {
                let error = Response::Error {
                    code: ErrorCode::Protocol,
                    message,
                };
                if write_frame(&mut session.writer, &error.encode()).is_err() {
                    break;
                }
                continue;
            }
        };
        let written = match request {
            Request::Execute { sql } => {
                // Every Execute consumes a sequence number, even refused
                // ones — the client counts its own sends and the two
                // ledgers must agree.
                session.execute_seq += 1;
                let seq = session.execute_seq;
                session.run(Command::Execute, &sql, seq, None, |opts, out| {
                    stream_statement(&sql, seq, opts, shared, out)
                })
            }
            Request::BatchScore {
                table,
                model,
                keys,
                explain,
            } => {
                let text = format!(
                    "{}BATCH SCORE {table} USING {model} ({} keys)",
                    if explain { "EXPLAIN " } else { "" },
                    keys.len()
                );
                session.run(Command::BatchScore, &text, 0, None, |opts, out| {
                    batch_score(&table, &model, &keys, explain, opts, shared, out)
                })
            }
            // The ingest envelope: header and chunks are
            // unacknowledged (errors poison the slot and surface at
            // Done), Done is the envelope's one reply, Abort is
            // fire-and-forget. Keeping header/chunk silent is what
            // lets a client pipeline a whole stream without waiting
            // out a round trip per chunk.
            Request::InsertHeader { table, columns } => {
                session.ingest = match IngestStream::begin(shared.db.as_ref(), &table, &columns) {
                    Ok(s) => IngestSlot::Active(s),
                    Err(e) => IngestSlot::Failed(e.to_string()),
                };
                Ok(())
            }
            Request::InsertChunk { seq, rows } => {
                match &mut session.ingest {
                    IngestSlot::Active(s) => {
                        if let Err(e) = s.chunk(seq, rows) {
                            session.ingest = IngestSlot::Failed(e.to_string());
                        }
                    }
                    // Already poisoned: the first error wins; Done reports it.
                    IngestSlot::Failed(_) => {}
                    IngestSlot::Idle => {
                        session.ingest =
                            IngestSlot::Failed("InsertChunk without an open ingest stream".into());
                    }
                }
                Ok(())
            }
            Request::InsertDone => {
                let slot = std::mem::replace(&mut session.ingest, IngestSlot::Idle);
                let (text, refusal) = match &slot {
                    IngestSlot::Active(s) => (
                        format!("INGEST {} ({} rows)", s.table(), s.rows_buffered()),
                        shared.ingest_backpressure(),
                    ),
                    _ => ("INGEST".to_owned(), None),
                };
                session.run(Command::Ingest, &text, 0, refusal, |opts, out| {
                    insert_done(slot, opts, shared, out)
                })
            }
            Request::InsertAbort => {
                session.ingest = IngestSlot::Idle;
                Ok(())
            }
            Request::Checkpoint => session.run(
                Command::Checkpoint,
                "CHECKPOINT",
                0,
                None,
                |_, out| match shared.db.checkpoint(0) {
                    Ok(_) => out.put(&Response::Ok.encode()).map(Ok),
                    Err(e) => Ok(Err(Failed::engine(e))),
                },
            ),
            // Cancels never reach this channel (the reader intercepts
            // them); tolerate one anyway as fire-and-forget.
            Request::Cancel { .. } => Ok(()),
            Request::Ping => session.reply(Command::Ping, started, Response::Pong),
            Request::SetOption { name, value } => {
                let response = set_option(&mut session, &name, &value);
                session.reply(Command::SetOption, started, response)
            }
            Request::MetricsProm => {
                let text = crate::metrics::render_prometheus(&crate::metrics::samples(shared));
                let response = Response::MetricsText { text };
                session.reply(Command::MetricsProm, started, response)
            }
            Request::Shutdown => {
                let _ = session.reply(Command::Shutdown, started, Response::Ok);
                // Trigger the server drain from inside a session: flip
                // the flag and nudge the accept loop awake.
                shared.shutting_down.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(shared.addr);
                break;
            }
        };
        if written.is_err() {
            break;
        }
    }
    // Unblock the reader (it may be parked in read_frame) and reap it.
    let _ = stream.shutdown(Shutdown::Both);
    let _ = reader.join();
}

/// Runs one `BatchScore`: keyed PK point lookups scored through the
/// model's scalar UDF, one reply frame for the whole key batch. Key-count
/// limits are enforced by the engine ([`nlq_engine::MAX_SCORE_KEYS`]).
fn batch_score(
    table: &str,
    model: &str,
    keys: &[i64],
    explain: bool,
    opts: &ExecOptions,
    shared: &Shared,
    out: &mut FrameOut<'_>,
) -> io::Result<Result<(), Failed>> {
    let started = Instant::now();
    let rs = match shared.db.batch_score(table, model, keys, explain, opts) {
        Ok(rs) => rs,
        Err(e) => return Ok(Err(Failed::engine(e))),
    };
    shared
        .metrics
        .batch_score_keys
        .fetch_add(keys.len() as u64, Ordering::Relaxed);
    let response = Response::Result {
        stats: wire_stats(&rs.stats, started),
        columns: rs.columns,
        rows: rs.rows,
    };
    out.put(&response.encode()).map(Ok)
}

/// Commits one ingest envelope (`InsertDone`), then checkpoints inline
/// once the live log crosses the configured size (the engine re-checks
/// the size under its checkpoint gate, so sessions crossing together
/// snapshot once). A failed checkpoint is logged, not fatal: the log is
/// intact. The token is read once, before the commit: a committed
/// envelope answers `InsertAck` whatever its token reads afterwards.
fn insert_done(
    slot: IngestSlot,
    opts: &ExecOptions,
    shared: &Shared,
    out: &mut FrameOut<'_>,
) -> io::Result<Result<(), Failed>> {
    let stream = match slot {
        IngestSlot::Active(stream) => stream,
        IngestSlot::Failed(message) => return Ok(Err(Failed::new(ErrorCode::Protocol, message))),
        IngestSlot::Idle => {
            let message = "InsertDone without an open ingest stream".into();
            return Ok(Err(Failed::new(ErrorCode::Protocol, message)));
        }
    };
    let cancelled = opts
        .cancel
        .as_ref()
        .is_some_and(|t| t.load(Ordering::SeqCst));
    if cancelled {
        let message = "envelope cancelled before its commit".into();
        return Ok(Err(Failed::new(ErrorCode::Cancelled, message)));
    }
    let rows = match stream.done(shared.db.as_ref(), opts) {
        Ok(rows) => rows,
        Err(e) => return Ok(Err(Failed::new(ErrorCode::Sql, e.to_string()))),
    };
    shared
        .metrics
        .ingest_rows
        .fetch_add(rows, Ordering::Relaxed);
    if let Some(threshold) = shared.config.checkpoint_bytes {
        if let Err(e) = shared.db.checkpoint(threshold) {
            eprintln!("auto-checkpoint failed: {e}");
        }
    }
    out.put(&Response::InsertAck { rows }.encode()).map(Ok)
}

fn set_option(session: &mut Session, name: &str, value: &str) -> Response {
    let (setting, label) = match (name, value) {
        ("block_scan", "on") => (Some(true), "on"),
        ("block_scan", "off") => (Some(false), "off"),
        ("block_scan", "default") => (None, "default"),
        _ => {
            return Response::Error {
                code: ErrorCode::Protocol,
                message: format!("unknown option {name}={value}"),
            }
        }
    };
    session.block_scan = setting;
    *session.info.block_scan.lock().expect("session info") = label;
    Response::Ok
}

/// A request that ended without its reply: the error frame it answers
/// with, and what it is accounted as.
struct Failed {
    code: ErrorCode,
    message: String,
    /// It never executed: its token flipped while it waited for a slot.
    queued: bool,
}

impl Failed {
    fn new(code: ErrorCode, message: String) -> Failed {
        Failed {
            code,
            message,
            queued: false,
        }
    }

    /// The failure an engine error answers with.
    fn engine(e: EngineError) -> Failed {
        match e {
            EngineError::Cancelled { rows_scanned } => Failed::new(
                ErrorCode::Cancelled,
                format!("query cancelled after {rows_scanned} rows"),
            ),
            e => Failed::new(ErrorCode::Sql, e.to_string()),
        }
    }
}

/// One request's view of the session writer: frames go in unflushed,
/// and the time and bytes spent writing them are the request's
/// `stream` span.
struct FrameOut<'w> {
    writer: &'w mut BufWriter<TcpStream>,
    nanos: u64,
    bytes: u64,
}

impl FrameOut<'_> {
    fn put(&mut self, payload: &[u8]) -> io::Result<()> {
        let started = Instant::now();
        let out = put_frame(self.writer, payload);
        self.nanos += started.elapsed().as_nanos() as u64;
        self.bytes += payload.len() as u64;
        out
    }

    fn flush(&mut self) -> io::Result<()> {
        let started = Instant::now();
        let out = self.writer.flush();
        self.nanos += started.elapsed().as_nanos() as u64;
        out
    }
}

impl Session {
    /// Answers a request that does no work with its one frame, and
    /// counts it.
    fn reply(&mut self, cmd: Command, started: Instant, response: Response) -> io::Result<()> {
        let ok = !matches!(response, Response::Error { .. });
        self.shared.metrics.record(cmd, started.elapsed(), ok);
        write_frame(&mut self.writer, &response.encode())
    }

    /// Runs one request that does work — an `Execute`, `BatchScore`,
    /// `InsertDone` or `Checkpoint` — to its reply, the same way for
    /// every kind. It refuses while draining, or with `refusal` (a
    /// verdict the caller reached before admission); otherwise it
    /// registers the cancel token and deadline, takes an admission
    /// slot and runs `body` under `catch_unwind`. A failure is answered
    /// with its error frame. Every request, refusals included, leaves
    /// exactly one trace record and one command sample. `Err` means
    /// the socket died and the session should end.
    fn run(
        &mut self,
        kind: Command,
        text: &str,
        seq: u64,
        refusal: Option<Failed>,
        body: impl FnOnce(&ExecOptions, &mut FrameOut<'_>) -> io::Result<Result<(), Failed>>,
    ) -> io::Result<()> {
        let started = Instant::now();
        let (shared, active) = (&*self.shared, &*self.active);
        // Minted before waiting for a slot, so the id exists even for
        // requests that never execute, and admission order is
        // observable next to the completion-ordered trace id.
        let query_id = shared.next_query_id.fetch_add(1, Ordering::Relaxed);
        let trace = Trace::new();
        let mut out = FrameOut {
            writer: &mut self.writer,
            nanos: 0,
            bytes: 0,
        };
        let draining = shared
            .shutting_down
            .load(Ordering::SeqCst)
            .then(|| Failed::new(ErrorCode::ShuttingDown, "server is draining".into()));
        let result = if let Some(refused) = draining.or(refusal) {
            Ok(Err(refused))
        } else {
            let token = Arc::new(AtomicBool::new(false));
            let deadline = Instant::now().checked_add(shared.config.query_timeout);
            active.begin(seq, &token, deadline);
            match shared.admission.admit(&token) {
                Err(Refusal::Full) => Ok(Err(Failed::new(
                    ErrorCode::Busy,
                    "query queue is full".into(),
                ))),
                // Cancelled (or timed out) while waiting: never executed.
                Err(Refusal::Cancelled) => Ok(Err(Failed {
                    queued: true,
                    ..Failed::new(ErrorCode::Cancelled, "query cancelled while queued".into())
                })),
                Ok(_slot) => {
                    let opts = ExecOptions {
                        block_scan: self.block_scan,
                        cancel: Some(token),
                        trace: Some(trace.clone()),
                        query_id,
                    };
                    // A panic inside the request (in a user UDF, say)
                    // fails this request alone: the client gets an
                    // error naming it, and the session lives on.
                    panic::catch_unwind(AssertUnwindSafe(|| body(&opts, &mut out))).unwrap_or_else(
                        |payload| {
                            let message = panic_message(payload.as_ref());
                            let message = format!("statement panicked: {message}");
                            Ok(Err(Failed::new(ErrorCode::Sql, message)))
                        },
                    )
                }
            }
        };
        let end = result.and_then(|result| {
            let end = match result {
                Ok(()) => (Outcome::Ok, String::new()),
                Err(failed) => answer_failure(failed, active, shared, &mut out)?,
            };
            out.flush()?;
            self.info.statements.fetch_add(1, Ordering::Relaxed);
            trace.record(Span::new(Phase::Stream, out.nanos).bytes(out.bytes));
            Ok(end)
        });
        active.end();
        let (outcome, detail) = match &end {
            Ok(end) => end.clone(),
            Err(e) => (Outcome::Error, e.to_string()),
        };
        let ok = outcome == Outcome::Ok;
        shared.metrics.record(kind, started.elapsed(), ok);
        self.finish_trace(kind, seq, query_id, text, trace, (outcome, detail));
        end.map(drop)
    }

    /// Retains one completed request's trace: assign the server-wide
    /// id, push into the recent ring, and — past the slow threshold —
    /// into the slow ring plus the stderr slow-query log.
    fn finish_trace(
        &self,
        kind: Command,
        seq: u64,
        query_id: u64,
        sql: &str,
        trace: Trace,
        (outcome, detail): (Outcome, String),
    ) {
        let shared = &self.shared;
        let total_nanos = trace.elapsed_nanos();
        let slow = Duration::from_nanos(total_nanos) >= shared.config.slow_query;
        let spans = trace.spans();
        let record = TraceRecord {
            id: shared.next_trace_id.fetch_add(1, Ordering::Relaxed),
            query_id,
            session: self.id,
            kind: kind.name(),
            peer: self.peer.clone(),
            seq,
            sql: sql.to_owned(),
            outcome,
            detail,
            total_nanos,
            slow,
            wal_bytes: trace.wal_bytes(),
            fsyncs: trace.wal_fsyncs(),
            cpu_nanos: trace.cpu_nanos(),
            spans,
        };
        shared
            .metrics
            .query_cpu_nanos
            .fetch_add(record.cpu_nanos, Ordering::Relaxed);
        if slow {
            shared.metrics.slow_queries.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "slow query: query_id={} session={} peer={} kind={} seq={} total={} outcome={} sql={:?}{}",
                record.query_id,
                record.session,
                record.peer,
                record.kind,
                record.seq,
                nlq_obs::fmt_nanos(record.total_nanos),
                record.outcome.name(),
                record.sql,
                if record.detail.is_empty() {
                    String::new()
                } else {
                    format!(" detail={:?}", record.detail)
                }
            );
            shared.slow_traces.push(record.clone());
        }
        shared.traces.push(record);
    }
}

/// Puts a failed request's terminal error frame and accounts for it,
/// returning its trace outcome and detail. A cancel from the deadline
/// thread answers `Timeout`.
fn answer_failure(
    mut failed: Failed,
    active: &ActiveQuery,
    shared: &Shared,
    out: &mut FrameOut<'_>,
) -> io::Result<(Outcome, String)> {
    let m = &shared.metrics;
    let (counter, outcome) = match failed.code {
        ErrorCode::Cancelled if active.timed_out() => {
            let limit = shared.config.query_timeout.as_millis();
            failed = Failed::new(ErrorCode::Timeout, format!("query exceeded {limit} ms"));
            (Some(&m.query_timeouts), Outcome::Timeout)
        }
        ErrorCode::Cancelled if failed.queued => {
            (Some(&m.queries_cancelled_queued), Outcome::CancelledQueued)
        }
        ErrorCode::Cancelled => (Some(&m.queries_cancelled), Outcome::Cancelled),
        ErrorCode::Busy => (Some(&m.queue_rejections), Outcome::Busy),
        ErrorCode::Retry => (Some(&m.ingest_backpressure), Outcome::Error),
        ErrorCode::TooLarge => (Some(&m.results_too_large), Outcome::Error),
        _ => (None, Outcome::Error),
    };
    if let Some(counter) = counter {
        counter.fetch_add(1, Ordering::Relaxed);
    }
    let Failed { code, message, .. } = failed;
    out.put(
        &Response::Error {
            code,
            message: message.clone(),
        }
        .encode(),
    )?;
    Ok((outcome, message))
}

/// Runs an admitted statement and puts its frames — `RowsHeader`,
/// each `RowsChunk` as soon as it is cut, `RowsDone` — into the
/// session writer, unflushed. Returns once `RowsDone` is in, or with
/// the failure whose error frame ends the stream; `Err` means the
/// socket died.
fn stream_statement(
    sql: &str,
    seq: u64,
    opts: &ExecOptions,
    shared: &Shared,
    out: &mut FrameOut<'_>,
) -> io::Result<Result<(), Failed>> {
    let started = Instant::now();
    let config = &shared.config;
    let token = opts.cancel.as_deref().expect("a statement has a token");
    let mut rs = match shared.db.execute_blocks(sql, opts) {
        Ok(rs) => rs,
        Err(e) => return Ok(Err(Failed::engine(e))),
    };
    shared
        .metrics
        .record_summary(rs.stats.summary_hits, rs.stats.summary_misses);
    if rs.len() > config.max_result_rows {
        let message = format!(
            "result has {} rows (limit {})",
            rs.len(),
            config.max_result_rows
        );
        return Ok(Err(Failed::new(ErrorCode::TooLarge, message)));
    }
    let ncols = rs.columns.len();
    out.put(
        &Response::RowsHeader {
            seq,
            query_id: opts.query_id,
            columns: std::mem::take(&mut rs.columns),
        }
        .encode(),
    )?;
    let mut enc = ChunkEncoder::new(seq, ncols, config.chunk_bytes);
    let encode_started = Instant::now();
    let written_before = out.nanos;
    // Row-path rows go in one at a time; block-path blocks are encoded
    // straight from their columns a chunk at a time.
    let sources =
        std::iter::once(Source::Rows(&rs.rows)).chain(rs.blocks().iter().map(Source::Block));
    for source in sources {
        let mut next = 0;
        while next < source.len() {
            // The engine finished, but the stream is still cancellable
            // between chunks.
            if token.load(Ordering::Relaxed) {
                let message = format!("query cancelled after streaming {} rows", enc.total_rows());
                return Ok(Err(Failed::new(ErrorCode::Cancelled, message)));
            }
            let chunk;
            (next, chunk) = match source {
                Source::Rows(rows) => (next + 1, enc.push_row(&rows[next])),
                Source::Block(block) => enc.push_block(block, next),
            };
            // Incremental byte budget: refuse as soon as the encoded
            // size crosses the line, never after materializing the
            // whole encoding.
            if enc.total_bytes() > config.max_result_bytes as u64 {
                let message = format!(
                    "result exceeds {} encoded bytes (limit reached after {} rows)",
                    config.max_result_bytes,
                    enc.total_rows()
                );
                return Ok(Err(Failed::new(ErrorCode::TooLarge, message)));
            }
            if let Some(payload) = chunk {
                put_chunk(out, shared, &payload)?;
            }
        }
    }
    if let Some(payload) = enc.finish() {
        put_chunk(out, shared, &payload)?;
    }
    if let Some(trace) = &opts.trace {
        // Encode is the chunking alone; writing the chunks is the
        // stream span.
        let encode_nanos = encode_started.elapsed().as_nanos() as u64;
        trace.record(
            Span::new(
                Phase::Encode,
                encode_nanos.saturating_sub(out.nanos - written_before),
            )
            .rows(enc.total_rows())
            .bytes(enc.total_bytes()),
        );
    }
    out.put(&enc.done_payload(&wire_stats(&rs.stats, started)))?;
    Ok(Ok(()))
}

/// The wire form of a completed statement's stats.
fn wire_stats(stats: &ExecStats, started: Instant) -> WireStats {
    WireStats {
        rows_scanned: stats.rows_scanned,
        blocks_scanned: stats.blocks_scanned,
        block_path: stats.block_path,
        summary_path: stats.summary_path,
        summary_hits: stats.summary_hits,
        summary_misses: stats.summary_misses,
        elapsed_micros: started.elapsed().as_micros() as u64,
        cancelled: false,
    }
}

/// Puts one encoded `RowsChunk` and counts it.
fn put_chunk(out: &mut FrameOut<'_>, shared: &Shared, payload: &[u8]) -> io::Result<()> {
    let metrics = &shared.metrics;
    metrics
        .bytes_streamed
        .fetch_add(payload.len() as u64, Ordering::Relaxed);
    metrics.chunks_streamed.fetch_add(1, Ordering::Relaxed);
    out.put(payload)
}

/// The message a panic was raised with, if it was raised with one.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "(no message)"
    }
}

/// What a streamed result encodes from: row-path rows, or one
/// block-path output block.
#[derive(Clone, Copy)]
enum Source<'a> {
    Rows(&'a [Row]),
    Block(&'a ResultBlock),
}

impl Source<'_> {
    fn len(&self) -> usize {
        match self {
            Source::Rows(rows) => rows.len(),
            Source::Block(block) => block.len(),
        }
    }
}
