#![warn(missing_docs)]

//! Zero-dependency observability substrate shared by the engine, the
//! server, and the client.
//!
//! Three pieces, each usable on its own:
//!
//! * **Spans** ([`Trace`], [`Span`], [`Phase`]): a cheap handle carried
//!   in the engine's `ExecOptions` that accumulates per-phase wall
//!   times (parse, plan, summary lookup, scan, finalize, encode,
//!   stream) with rows/bytes/blocks attributes. Rendering a span list
//!   ([`render_spans`]) is what `EXPLAIN ANALYZE` prints.
//! * **Trace retention** ([`TraceRing`], [`TraceRecord`]): a
//!   fixed-capacity ring the server pushes every completed query trace
//!   into (and every slow query into a second ring). Slot reservation
//!   is a single atomic fetch-add, so recording never serializes
//!   sessions behind one lock.
//! * **Prometheus text exposition** ([`PromText`],
//!   [`validate_exposition`]): a tiny writer producing the scrape
//!   format (`# HELP` / `# TYPE` / `name{labels} value`) and a strict
//!   line validator the CI smoke uses to fail on malformed output.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Per-thread CPU clock
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod cpu_clock {
    //! Hand-rolled `clock_gettime(CLOCK_THREAD_CPUTIME_ID)` — the
    //! workspace is std-only, so the two libc declarations live here.

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }

    pub fn thread_cpu_nanos() -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec; the clock id is a
        // compile-time constant the kernel always supports.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        if rc != 0 {
            return 0;
        }
        (ts.tv_sec as u64).saturating_mul(1_000_000_000) + ts.tv_nsec as u64
    }
}

/// CPU time consumed by the calling thread, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`). Sampled at span boundaries to attribute
/// CPU to queries; returns 0 on platforms without the clock.
pub fn thread_cpu_nanos() -> u64 {
    #[cfg(target_os = "linux")]
    {
        cpu_clock::thread_cpu_nanos()
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// A query-execution phase, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// SQL text to AST.
    Parse,
    /// Planning and rewrite (table resolution, predicate
    /// classification, join-product construction).
    Plan,
    /// Probing the materialized Γ summary store and answering from
    /// it.
    SummaryLookup,
    /// The row- or block-at-a-time scan, including the partial merge.
    Scan,
    /// Finalizing accumulators, HAVING, projection, ORDER BY.
    Finalize,
    /// Encoding result rows into wire chunk frames.
    Encode,
    /// Relaying encoded frames to the client socket.
    Stream,
    /// Resolving keyed rows through the primary-key hash index (batch
    /// scoring's gather step; replaces the scan phase entirely).
    PointLookup,
    /// Appending a streamed INSERT batch through the segment write
    /// path and folding it into eligible Γ summaries.
    Ingest,
    /// Writing and fsyncing write-ahead-log records (payload append
    /// plus the commit marker's group fsync).
    Wal,
    /// Wall time not attributed to any other phase.
    Other,
}

impl Phase {
    /// Stable lowercase name (used in renders and `sys.spans`).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Plan => "plan",
            Phase::SummaryLookup => "summary-lookup",
            Phase::Scan => "scan",
            Phase::Finalize => "finalize",
            Phase::Encode => "encode",
            Phase::Stream => "stream",
            Phase::PointLookup => "point-lookup",
            Phase::Ingest => "ingest",
            Phase::Wal => "wal",
            Phase::Other => "other",
        }
    }
}

/// One timed phase of one statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which phase this span times.
    pub phase: Phase,
    /// Offset from the trace start, nanoseconds. Phases run
    /// sequentially, so each span starts where the previous ended.
    pub start_nanos: u64,
    /// Wall-clock duration, nanoseconds.
    pub dur_nanos: u64,
    /// Rows processed in this phase (0 when not applicable).
    pub rows: u64,
    /// Payload bytes produced in this phase (0 when not applicable).
    pub bytes: u64,
    /// Column blocks decoded in this phase (0 when not applicable).
    pub blocks: u64,
}

impl Span {
    /// A span for `phase` lasting `dur_nanos`, no attributes.
    pub fn new(phase: Phase, dur_nanos: u64) -> Span {
        Span {
            phase,
            start_nanos: 0,
            dur_nanos,
            rows: 0,
            bytes: 0,
            blocks: 0,
        }
    }

    /// Sets the rows attribute.
    pub fn rows(mut self, rows: u64) -> Span {
        self.rows = rows;
        self
    }

    /// Sets the bytes attribute.
    pub fn bytes(mut self, bytes: u64) -> Span {
        self.bytes = bytes;
        self
    }

    /// Sets the blocks attribute.
    pub fn blocks(mut self, blocks: u64) -> Span {
        self.blocks = blocks;
        self
    }
}

/// How a traced statement ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed and streamed successfully.
    Ok,
    /// Failed (parse, bind, execution, or result-budget error).
    Error,
    /// Cancelled mid-execution (client cancel or server drain).
    Cancelled,
    /// Cancelled while still waiting for an admission slot — it never
    /// executed.
    CancelledQueued,
    /// Hit the per-query wall-clock limit.
    Timeout,
    /// Refused by admission: the wait queue was full.
    Busy,
}

impl Outcome {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Error => "error",
            Outcome::Cancelled => "cancelled",
            Outcome::CancelledQueued => "cancelled-queued",
            Outcome::Timeout => "timeout",
            Outcome::Busy => "busy",
        }
    }
}

struct TraceInner {
    started: Instant,
    spans: Mutex<Vec<Span>>,
    /// CPU nanoseconds attributed to this statement (its calling
    /// thread plus the scan-pool helpers that ran its work).
    cpu_nanos: AtomicU64,
    /// WAL payload bytes appended on behalf of this statement.
    wal_bytes: AtomicU64,
    /// WAL fsyncs issued (or joined) on behalf of this statement.
    wal_fsyncs: AtomicU64,
}

/// A lightweight handle accumulating one statement's phase spans.
///
/// Clones share the same span list (the engine and the serving layer
/// each record their own phases into one trace). Recording takes a
/// short mutex on a per-phase — not per-row — cadence, so it never
/// shows up in a scan profile.
#[derive(Clone)]
pub struct Trace {
    inner: Arc<TraceInner>,
}

impl Trace {
    /// A fresh trace; its clock starts now.
    pub fn new() -> Trace {
        Trace {
            inner: Arc::new(TraceInner {
                started: Instant::now(),
                spans: Mutex::new(Vec::new()),
                cpu_nanos: AtomicU64::new(0),
                wal_bytes: AtomicU64::new(0),
                wal_fsyncs: AtomicU64::new(0),
            }),
        }
    }

    /// Appends a span, assigning its start offset to the end of the
    /// latest span already recorded (phases are sequential).
    pub fn record(&self, span: Span) {
        let mut spans = self.inner.spans.lock().expect("trace spans");
        let start = spans
            .iter()
            .map(|s| s.start_nanos + s.dur_nanos)
            .max()
            .unwrap_or(0);
        spans.push(Span {
            start_nanos: start,
            ..span
        });
    }

    /// Nanoseconds since the trace was created.
    pub fn elapsed_nanos(&self) -> u64 {
        self.inner.started.elapsed().as_nanos() as u64
    }

    /// A snapshot of the spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.spans.lock().expect("trace spans").clone()
    }

    /// Adds CPU nanoseconds to this statement's total.
    pub fn add_cpu_nanos(&self, nanos: u64) {
        self.inner.cpu_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// CPU nanoseconds attributed so far.
    pub fn cpu_nanos(&self) -> u64 {
        self.inner.cpu_nanos.load(Ordering::Relaxed)
    }

    /// Adds WAL bytes and fsyncs to this statement's totals.
    pub fn add_wal(&self, bytes: u64, fsyncs: u64) {
        self.inner.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.inner.wal_fsyncs.fetch_add(fsyncs, Ordering::Relaxed);
    }

    /// WAL bytes attributed so far.
    pub fn wal_bytes(&self) -> u64 {
        self.inner.wal_bytes.load(Ordering::Relaxed)
    }

    /// WAL fsyncs attributed so far.
    pub fn wal_fsyncs(&self) -> u64 {
        self.inner.wal_fsyncs.load(Ordering::Relaxed)
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("spans", &self.spans().len())
            .finish()
    }
}

/// A completed statement's trace as the server retains it.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Server-wide monotone trace id (`sys.queries.trace_id`, the
    /// paging cursor). Assigned at completion, so ids are
    /// retention-ordered.
    pub id: u64,
    /// Globally unique query id minted at admission (before queueing),
    /// the join key across `sys.queries`, `sys.spans`, `RowsHeader`,
    /// and the slow-query log. Admission order, not completion order.
    pub query_id: u64,
    /// Session that ran the statement.
    pub session: u64,
    /// The request kind: `execute`, `batch_score`, `ingest` or
    /// `checkpoint`.
    pub kind: &'static str,
    /// Peer address of the session's connection.
    pub peer: String,
    /// The statement's 1-based `Execute` sequence on its session (0
    /// for the other kinds).
    pub seq: u64,
    /// The SQL text, or a description of a request that has none.
    pub sql: String,
    /// How the statement ended.
    pub outcome: Outcome,
    /// Detail for non-`Ok` outcomes (the error message).
    pub detail: String,
    /// End-to-end wall time, nanoseconds.
    pub total_nanos: u64,
    /// Whether the statement crossed the slow-query threshold.
    pub slow: bool,
    /// WAL payload bytes this statement appended (0 when volatile).
    pub wal_bytes: u64,
    /// WAL fsyncs this statement issued or joined.
    pub fsyncs: u64,
    /// CPU nanoseconds consumed (worker + scan-pool helpers).
    pub cpu_nanos: u64,
    /// Per-phase spans, in recording order.
    pub spans: Vec<Span>,
}

impl TraceRecord {
    /// Rows streamed: the max `rows` attribute across spans (phases
    /// report the same row population at different stages).
    pub fn rows(&self) -> u64 {
        self.spans.iter().map(|s| s.rows).max().unwrap_or(0)
    }

    /// Payload bytes produced: the max `bytes` attribute across
    /// non-WAL spans.
    pub fn bytes(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.phase != Phase::Wal)
            .map(|s| s.bytes)
            .max()
            .unwrap_or(0)
    }
}

/// Fixed-capacity ring retaining the most recent [`TraceRecord`]s.
///
/// Writers reserve a slot with one atomic fetch-add and then fill it
/// under that slot's own mutex — two writers only contend when the
/// ring has wrapped onto the same slot, so pushing never serializes
/// sessions behind a global lock. Readers snapshot without blocking
/// writers of other slots.
pub struct TraceRing {
    slots: Box<[Mutex<Option<TraceRecord>>]>,
    next: AtomicU64,
    /// Records overwritten after the ring wrapped.
    evicted: AtomicU64,
}

impl TraceRing {
    /// A ring retaining the last `capacity` records (at least 1).
    pub fn new(capacity: usize) -> TraceRing {
        let capacity = capacity.max(1);
        TraceRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Records pushed over the ring's lifetime (retained or evicted).
    pub fn pushed(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Records evicted (overwritten) over the ring's lifetime.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Retains `record`, evicting the oldest once full.
    pub fn push(&self, record: TraceRecord) {
        let slot = self.next.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        let prev = self.slots[slot]
            .lock()
            .expect("trace ring slot")
            .replace(record);
        if prev.is_some() {
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A snapshot of the retained records, oldest (lowest id) first.
    pub fn records(&self) -> Vec<TraceRecord> {
        let mut out: Vec<TraceRecord> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().expect("trace ring slot").clone())
            .collect();
        out.sort_by_key(|r| r.id);
        out
    }
}

/// Formats nanoseconds as a human `ms` figure with µs precision.
pub fn fmt_nanos(nanos: u64) -> String {
    format!("{:.3} ms", nanos as f64 / 1e6)
}

/// Renders a span list the way `EXPLAIN ANALYZE` prints it: one line
/// per phase with wall time and any rows/bytes/blocks attributes, plus
/// an `other` line for wall time not attributed to a phase — so the
/// per-phase times always sum exactly to `total_nanos`.
pub fn render_spans(total_nanos: u64, spans: &[Span]) -> Vec<String> {
    let mut lines = Vec::with_capacity(spans.len() + 2);
    lines.push(format!("total: {}", fmt_nanos(total_nanos)));
    let mut accounted = 0u64;
    for span in spans {
        accounted += span.dur_nanos;
        let mut line = format!("phase {}: {}", span.phase.name(), fmt_nanos(span.dur_nanos));
        let mut attrs = Vec::new();
        if span.rows > 0 {
            attrs.push(format!("rows={}", span.rows));
        }
        if span.blocks > 0 {
            attrs.push(format!("blocks={}", span.blocks));
        }
        if span.bytes > 0 {
            attrs.push(format!("bytes={}", span.bytes));
        }
        if !attrs.is_empty() {
            line.push_str(&format!(" ({})", attrs.join(", ")));
        }
        lines.push(line);
    }
    lines.push(format!(
        "phase other: {}",
        fmt_nanos(total_nanos.saturating_sub(accounted))
    ));
    lines
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Incremental writer for the Prometheus text exposition format.
///
/// Emits `# HELP` / `# TYPE` headers once per metric family and
/// `name{labels} value` sample lines with label values escaped per the
/// format (backslash, double quote, newline).
pub struct PromText {
    out: String,
}

impl PromText {
    /// An empty exposition.
    pub fn new() -> PromText {
        PromText { out: String::new() }
    }

    /// Writes the `# HELP` and `# TYPE` header for a metric family.
    /// `kind` is `counter`, `gauge`, or `histogram`.
    pub fn family(&mut self, name: &str, kind: &str, help: &str) {
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(help);
        self.out.push('\n');
        self.out.push_str("# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
    }

    /// Writes one sample line. Pass an empty label slice for a bare
    /// `name value` sample.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(k);
                self.out.push_str("=\"");
                for c in v.chars() {
                    match c {
                        '\\' => self.out.push_str("\\\\"),
                        '"' => self.out.push_str("\\\""),
                        '\n' => self.out.push_str("\\n"),
                        c => self.out.push(c),
                    }
                }
                self.out.push('"');
            }
            self.out.push('}');
        }
        self.out.push(' ');
        if value == f64::INFINITY {
            self.out.push_str("+Inf");
        } else if value.fract() == 0.0 && value.abs() < 1e15 {
            // Integers render without a fraction (counter-friendly).
            self.out.push_str(&format!("{}", value as i64));
        } else {
            self.out.push_str(&format!("{value}"));
        }
        self.out.push('\n');
    }

    /// The finished exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

impl Default for PromText {
    fn default() -> Self {
        PromText::new()
    }
}

/// Strictly validates Prometheus text exposition: every non-empty line
/// must be a `# HELP`/`# TYPE` comment or a
/// `name{labels} value` sample. Returns the first offending line.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if rest.starts_with("HELP ") || rest.starts_with("TYPE ") {
                continue;
            }
            return Err(format!("malformed comment line: {line:?}"));
        }
        if !valid_sample_line(line) {
            return Err(format!("malformed sample line: {line:?}"));
        }
    }
    Ok(())
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_sample_line(line: &str) -> bool {
    // name [ "{" label "=" quoted ( "," label "=" quoted )* "}" ] SP value
    let (name_part, rest) = match line.find(['{', ' ']) {
        Some(i) => (&line[..i], &line[i..]),
        None => return false,
    };
    if !valid_metric_name(name_part) {
        return false;
    }
    let rest = if let Some(labels) = rest.strip_prefix('{') {
        let Some(close) = find_unescaped_close(labels) else {
            return false;
        };
        if !valid_labels(&labels[..close]) {
            return false;
        }
        &labels[close + 1..]
    } else {
        rest
    };
    let Some(value) = rest.strip_prefix(' ') else {
        return false;
    };
    !value.is_empty() && (value.parse::<f64>().is_ok() || matches!(value, "+Inf" | "-Inf" | "NaN"))
}

/// Index of the `}` closing the label block (quotes respected).
fn find_unescaped_close(s: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

fn valid_labels(s: &str) -> bool {
    if s.is_empty() {
        return true;
    }
    // Split on commas outside quotes.
    let mut in_quotes = false;
    let mut escaped = false;
    let mut start = 0;
    let mut pairs = Vec::new();
    for (i, c) in s.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                pairs.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    pairs.push(&s[start..]);
    pairs.iter().all(|p| {
        let Some((k, v)) = p.split_once('=') else {
            return false;
        };
        valid_metric_name(k) && v.len() >= 2 && v.starts_with('"') && v.ends_with('"')
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, session: u64, seq: u64, sql: String, total_nanos: u64) -> TraceRecord {
        TraceRecord {
            id,
            query_id: id,
            session,
            kind: "execute",
            peer: String::new(),
            seq,
            sql,
            outcome: Outcome::Ok,
            detail: String::new(),
            total_nanos,
            slow: false,
            wal_bytes: 0,
            fsyncs: 0,
            cpu_nanos: 0,
            spans: Vec::new(),
        }
    }

    #[test]
    fn spans_get_sequential_offsets() {
        let t = Trace::new();
        t.record(Span::new(Phase::Parse, 100));
        t.record(Span::new(Phase::Plan, 50).rows(7));
        t.record(Span::new(Phase::Scan, 1000).rows(42).blocks(3));
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].start_nanos, 0);
        assert_eq!(spans[1].start_nanos, 100);
        assert_eq!(spans[2].start_nanos, 150);
        assert_eq!(spans[2].rows, 42);
        assert_eq!(spans[2].blocks, 3);
    }

    #[test]
    fn render_accounts_every_nanosecond() {
        let spans = vec![
            Span::new(Phase::Parse, 200),
            Span::new(Phase::Scan, 700).rows(10),
        ];
        let lines = render_spans(1000, &spans);
        assert_eq!(lines[0], "total: 0.001 ms");
        assert!(lines
            .iter()
            .any(|l| l.contains("phase scan") && l.contains("rows=10")));
        // `other` picks up the unaccounted 100ns, so phases sum to total.
        assert!(lines.last().unwrap().starts_with("phase other:"));
    }

    #[test]
    fn ring_retains_last_n_in_id_order() {
        let ring = TraceRing::new(4);
        for id in 1..=10u64 {
            ring.push(record(id, 1, id, format!("SELECT {id}"), id * 10));
        }
        assert_eq!(
            ring.records().iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![7, 8, 9, 10]
        );
        assert_eq!(ring.pushed(), 10);
    }

    #[test]
    fn ring_push_is_safe_under_concurrency() {
        let ring = Arc::new(TraceRing::new(8));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ring = Arc::clone(&ring);
                s.spawn(move || {
                    for i in 0..100u64 {
                        ring.push(record(t * 100 + i, t, i, String::new(), 1));
                    }
                });
            }
        });
        assert_eq!(ring.pushed(), 400);
        assert_eq!(ring.records().len(), 8);
    }

    #[test]
    fn ring_wraparound_counts_evictions() {
        let ring = TraceRing::new(4);
        for id in 1..=4u64 {
            ring.push(record(id, 1, id, String::new(), 1));
        }
        // Full but nothing overwritten yet.
        assert_eq!(ring.evicted(), 0);
        // Wrap: ids 1..=3 fall off.
        for id in 5..=7u64 {
            ring.push(record(id, 1, id, String::new(), 1));
        }
        assert_eq!(ring.evicted(), 3);
        assert_eq!(
            ring.records().iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![4, 5, 6, 7]
        );
    }

    #[test]
    fn thread_cpu_clock_is_monotone() {
        let a = thread_cpu_nanos();
        // Burn a little CPU so the clock must advance on Linux.
        let mut x = 0u64;
        for i in 0..200_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = thread_cpu_nanos();
        assert!(b >= a);
    }

    #[test]
    fn record_rows_and_bytes_take_span_maxima() {
        let mut r = record(1, 1, 1, String::new(), 1);
        r.spans = vec![
            Span::new(Phase::Scan, 10).rows(100),
            Span::new(Phase::Encode, 5).rows(100).bytes(4096),
            Span::new(Phase::Wal, 5).bytes(9999),
            Span::new(Phase::Stream, 5).bytes(4096),
        ];
        assert_eq!(r.rows(), 100);
        // WAL bytes are accounted separately, not as payload bytes.
        assert_eq!(r.bytes(), 4096);
    }

    #[test]
    fn prom_writer_emits_valid_exposition() {
        let mut p = PromText::new();
        p.family("nlq_requests_total", "counter", "Requests by command.");
        p.sample("nlq_requests_total", &[("command", "execute")], 42.0);
        p.family(
            "nlq_queue_depth",
            "gauge",
            "Jobs waiting in the pool queue.",
        );
        p.sample("nlq_queue_depth", &[], 3.0);
        p.family("nlq_latency_us", "histogram", "Latency histogram.");
        p.sample("nlq_latency_us_bucket", &[("le", "10")], 5.0);
        p.sample("nlq_latency_us_bucket", &[("le", "+Inf")], 9.0);
        p.sample("nlq_latency_us_sum", &[], 1234.5);
        p.sample("nlq_latency_us_count", &[], 9.0);
        // A label value that needs escaping.
        p.sample("nlq_requests_total", &[("sql", "say \"hi\"\nagain\\")], 1.0);
        let text = p.finish();
        validate_exposition(&text).expect("writer output validates");
        assert!(text.contains("nlq_requests_total{command=\"execute\"} 42\n"));
        assert!(text.contains("le=\"+Inf\"} 9\n"));
        assert!(text.contains("\\\"hi\\\"\\nagain\\\\"));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_exposition("# HELP a b\n# TYPE a counter\na 1\n").is_ok());
        assert!(validate_exposition("just some words\n").is_err());
        assert!(validate_exposition("# COMMENT nope\n").is_err());
        assert!(validate_exposition("name{unclosed=\"x\" 1\n").is_err());
        assert!(validate_exposition("name{k=\"v\"} not_a_number\n").is_err());
        assert!(validate_exposition("9leading_digit 1\n").is_err());
        assert!(validate_exposition("name 1\n").is_ok());
        assert!(validate_exposition("name{a=\"x\",b=\"y\"} 2.5\n").is_ok());
        assert!(validate_exposition("name{le=\"+Inf\"} +Inf\n").is_ok());
    }
}
