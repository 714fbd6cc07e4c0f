//! Server-wide counters, gauges, and latency histograms — and the one
//! registry that names them.
//!
//! Everything here is updated from the session threads with
//! plain atomic increments. Reading goes through `samples`: one list
//! of `(family, labels, kind, help, value)` [`Sample`]s covering the
//! server counters, per-command request/error counters and latency
//! histograms, plan-cache counters, and WAL/recovery state.
//! `sys.metrics`, `sys.wal`, and the Prometheus exposition
//! ([`render_prometheus`]) are generic renderings of that list, so they
//! cannot disagree; a metric's name appears exactly once, where its
//! sample is built. The list is assembled only when one of those
//! surfaces is read — never per statement.
//!
//! Latencies go into fixed `AtomicHistogram`s over
//! `log10(microseconds)` in `[0, 7)` — bucket `b` covers
//! `[10^(b/2), 10^((b+1)/2))` µs, spanning 1 µs to 10 s in 14
//! buckets. Recording is lock-free: a bucket index is computed from
//! the latency and a single atomic increment lands the sample, so
//! worker threads never serialize on a histogram mutex.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use nlq_engine::EngineStats;
use nlq_obs::PromText;

use crate::server::Shared;

/// Commands tracked separately in the metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// `Execute` requests.
    Execute,
    /// `SetOption` requests.
    SetOption,
    /// `MetricsProm` requests (Prometheus scrapes).
    MetricsProm,
    /// `Ping` requests.
    Ping,
    /// `Shutdown` requests.
    Shutdown,
    /// `Cancel` requests (handled inline by session readers).
    Cancel,
    /// Streamed-ingest envelopes (`InsertDone` commits; the header and
    /// chunk frames are unacknowledged and fold into this command).
    Ingest,
    /// `BatchScore` requests (keyed point-lookup scoring).
    BatchScore,
    /// `Checkpoint` requests (snapshot tables, truncate the WAL).
    Checkpoint,
}

/// How many commands the metrics arrays track.
const NCOMMANDS: usize = 9;

const COMMANDS: [(Command, &str); NCOMMANDS] = [
    (Command::Execute, "execute"),
    (Command::SetOption, "set_option"),
    (Command::MetricsProm, "metrics"),
    (Command::Ping, "ping"),
    (Command::Shutdown, "shutdown"),
    (Command::Cancel, "cancel"),
    (Command::Ingest, "ingest"),
    (Command::BatchScore, "batch_score"),
    (Command::Checkpoint, "checkpoint"),
];

impl Command {
    /// Stable lowercase name (the `cmd` label, and `sys.queries.kind`).
    pub fn name(self) -> &'static str {
        COMMANDS[slot(self)].1
    }
}

fn slot(cmd: Command) -> usize {
    COMMANDS
        .iter()
        .position(|(c, _)| *c == cmd)
        .expect("command registered")
}

/// Histogram domain: log10 of the latency in microseconds.
const LAT_LO: f64 = 0.0;
const LAT_HI: f64 = 7.0;
const LAT_BUCKETS: usize = 14;
const LAT_WIDTH: f64 = (LAT_HI - LAT_LO) / LAT_BUCKETS as f64;

/// Lower bound of bucket `b` in microseconds: `10^(b/2)`.
fn bucket_bound_micros(b: usize) -> f64 {
    10f64.powf(LAT_LO + b as f64 * LAT_WIDTH)
}

/// Where one latency sample lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BucketIndex {
    Below,
    In(usize),
    Above,
}

/// Maps a latency in microseconds to its histogram bucket, preserving
/// the legacy `Histogram` semantics exactly: `log10(µs) < 0` falls
/// below, `> 7` falls above, and exactly `10^7` µs clamps into the
/// last bucket. The floating-point `log10` is boundary-corrected
/// against the exact bucket bounds so a sample of exactly `10^(b/2)`
/// µs always lands in bucket `b`.
fn bucket_index(micros: f64) -> BucketIndex {
    let x = micros.log10();
    if x < LAT_LO {
        return BucketIndex::Below;
    }
    if x > LAT_HI && micros > bucket_bound_micros(LAT_BUCKETS) {
        return BucketIndex::Above;
    }
    let mut b = (((x - LAT_LO) / LAT_WIDTH) as usize).min(LAT_BUCKETS - 1);
    // log10 rounding can land a boundary value one bucket off; nudge
    // against the exact bounds.
    while b + 1 < LAT_BUCKETS && micros >= bucket_bound_micros(b + 1) {
        b += 1;
    }
    while b > 0 && micros < bucket_bound_micros(b) {
        b -= 1;
    }
    BucketIndex::In(b)
}

/// A fixed-bucket latency histogram updated with plain atomic
/// increments — no mutex, so concurrent recorders never contend
/// beyond the cache line.
#[derive(Default)]
struct AtomicHistogram {
    buckets: [AtomicU64; LAT_BUCKETS],
    below: AtomicU64,
    above: AtomicU64,
    /// Sum of recorded latencies in microseconds (for Prometheus
    /// `_sum`).
    sum_micros: AtomicU64,
}

impl AtomicHistogram {
    fn record(&self, micros: u64) {
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        match bucket_index(micros.max(1) as f64) {
            BucketIndex::Below => self.below.fetch_add(1, Ordering::Relaxed),
            BucketIndex::In(b) => self.buckets[b].fetch_add(1, Ordering::Relaxed),
            BucketIndex::Above => self.above.fetch_add(1, Ordering::Relaxed),
        };
    }

    fn counts(&self) -> [u64; LAT_BUCKETS] {
        std::array::from_fn(|b| self.buckets[b].load(Ordering::Relaxed))
    }

    fn below(&self) -> u64 {
        self.below.load(Ordering::Relaxed)
    }

    fn above(&self) -> u64 {
        self.above.load(Ordering::Relaxed)
    }

    fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    fn total(&self) -> u64 {
        self.below() + self.counts().iter().sum::<u64>() + self.above()
    }
}

/// All server metrics; cheap to share behind an `Arc`.
#[derive(Default)]
pub struct Metrics {
    counts: [AtomicU64; NCOMMANDS],
    errors: [AtomicU64; NCOMMANDS],
    latency: [AtomicHistogram; NCOMMANDS],
    /// Connections refused by admission control.
    pub connections_rejected: AtomicU64,
    /// Connections accepted over the server's lifetime.
    pub connections_accepted: AtomicU64,
    /// Currently open sessions.
    pub sessions_active: AtomicU64,
    /// Queries that hit the per-query wall-clock limit.
    pub query_timeouts: AtomicU64,
    /// Queries refused because the admission queue was full.
    pub queue_rejections: AtomicU64,
    /// Results dropped for exceeding row/byte limits.
    pub results_too_large: AtomicU64,
    /// Queries that ended with a client- or drain-initiated cancel.
    pub queries_cancelled: AtomicU64,
    /// Queries cancelled while still waiting for an execution slot;
    /// they never executed.
    pub queries_cancelled_queued: AtomicU64,
    /// `Cancel` request frames received (whether or not they landed
    /// on a live statement).
    pub cancel_requests: AtomicU64,
    /// Total `RowsChunk` payload bytes written to sockets.
    pub bytes_streamed: AtomicU64,
    /// Total `RowsChunk` frames written to sockets.
    pub chunks_streamed: AtomicU64,
    /// Summary-store hits accumulated across statements.
    pub summary_hits: AtomicU64,
    /// Summary-store misses accumulated across statements.
    pub summary_misses: AtomicU64,
    /// Completed queries slower than the slow-query threshold.
    pub slow_queries: AtomicU64,
    /// Rows committed through streamed-ingest envelopes.
    pub ingest_rows: AtomicU64,
    /// Keys scored through `BatchScore` requests.
    pub batch_score_keys: AtomicU64,
    /// Ingest envelopes refused with a retry hint because the refresh
    /// daemon was too far behind (`--staleness-bound`).
    pub ingest_backpressure: AtomicU64,
    /// CPU nanoseconds attributed to completed queries (worker thread
    /// plus the scan-pool helpers that ran their work).
    pub query_cpu_nanos: AtomicU64,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records one completed command with its wall-clock latency.
    pub fn record(&self, cmd: Command, latency: Duration, ok: bool) {
        let s = slot(cmd);
        self.counts[s].fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors[s].fetch_add(1, Ordering::Relaxed);
        }
        self.latency[s].record(latency.as_micros() as u64);
    }

    /// Folds one statement's summary-store counters in.
    pub fn record_summary(&self, hits: u64, misses: u64) {
        self.summary_hits.fetch_add(hits, Ordering::Relaxed);
        self.summary_misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Every sample this struct owns: the plain counters, then the
    /// per-command request/error counters and latency histograms
    /// (cumulative `_bucket` series in seconds, as Prometheus
    /// convention wants).
    fn samples(&self, out: &mut Vec<Sample>) {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        #[rustfmt::skip]
        let counters: [(&'static str, &'static str, &AtomicU64); 16] = [
            ("connections_accepted", "Connections accepted", &self.connections_accepted),
            ("connections_rejected", "Connections refused by admission control", &self.connections_rejected),
            ("query_timeouts", "Queries that hit the per-query wall-clock limit", &self.query_timeouts),
            ("queue_rejections", "Queries refused because the admission queue was full", &self.queue_rejections),
            ("results_too_large", "Results dropped for exceeding row or byte limits", &self.results_too_large),
            ("queries_cancelled", "Queries cancelled mid-execution", &self.queries_cancelled),
            ("queries_cancelled_queued", "Queries cancelled while still queued", &self.queries_cancelled_queued),
            ("cancel_requests", "Cancel frames received", &self.cancel_requests),
            ("bytes_streamed", "RowsChunk payload bytes written to sockets", &self.bytes_streamed),
            ("chunks_streamed", "RowsChunk frames written to sockets", &self.chunks_streamed),
            ("summary_hits", "Statements answered from a materialized summary", &self.summary_hits),
            ("summary_misses", "Summary probes that fell back to a scan", &self.summary_misses),
            ("slow_queries", "Queries at or above the slow-query threshold", &self.slow_queries),
            ("ingest_rows_total", "Rows committed through ingest envelopes", &self.ingest_rows),
            ("batch_score_keys_total", "Keys scored through BatchScore requests", &self.batch_score_keys),
            ("ingest_backpressure_total", "Ingest envelopes refused with a retry hint", &self.ingest_backpressure),
        ];
        out.extend(counters.map(|(family, help, a)| counter(family, help, load(a))));
        out.push(counter(
            "query_cpu_us_total",
            "CPU microseconds attributed to completed queries",
            load(&self.query_cpu_nanos) / 1_000,
        ));
        out.push(gauge(
            "sessions_active",
            "Currently open sessions",
            load(&self.sessions_active),
        ));

        let per_command = |family, help, values: &[AtomicU64; NCOMMANDS]| {
            let named = values.iter().zip(COMMANDS);
            named
                .map(|(a, (_, name))| counter(family, help, load(a)).label("command", name))
                .collect::<Vec<_>>()
        };
        out.extend(per_command(
            "command_requests_total",
            "Requests handled, by command",
            &self.counts,
        ));
        out.extend(per_command(
            "command_errors_total",
            "Requests that failed, by command",
            &self.errors,
        ));
        for (hist, (_, name)) in self.latency.iter().zip(COMMANDS) {
            let series = |suffix, value: f64| {
                let family = "command_latency_seconds";
                let help = "Request wall-clock latency, by command";
                let s = sample(family, Kind::Histogram, help, value).label("command", name);
                Sample { suffix, ..s }
            };
            // Cumulative buckets: everything at or under the bucket's
            // upper bound, which includes the "below" samples.
            let mut cumulative = hist.below();
            for (b, n) in hist.counts().into_iter().enumerate() {
                cumulative += n;
                let le = bucket_bound_micros(b + 1) / 1e6;
                out.push(series("_bucket", cumulative as f64).label("le", le));
            }
            let total = hist.total() as f64;
            out.push(series("_bucket", total).label("le", "+Inf"));
            out.push(series("_sum", hist.sum_micros() as f64 / 1e6));
            out.push(series("_count", total));
        }
    }
}

/// What a sample's family is, in Prometheus `# TYPE` terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone since process start.
    Counter,
    /// A point-in-time level.
    Gauge,
    /// A `_bucket` / `_sum` / `_count` series.
    Histogram,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One metric sample: the unit both `sys.metrics` and the Prometheus
/// exposition render.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Family name, without the exposition's `nlq_` prefix.
    pub family: &'static str,
    /// Histogram series suffix (`_bucket`, `_sum`, `_count`); empty
    /// for counters and gauges.
    pub suffix: &'static str,
    /// Label pairs, in render order.
    pub labels: Vec<(&'static str, String)>,
    /// The family's type.
    pub kind: Kind,
    /// The family's one-line description.
    pub help: &'static str,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    fn label(mut self, key: &'static str, value: impl ToString) -> Sample {
        self.labels.push((key, value.to_string()));
        self
    }

    /// The sample's full name: family plus histogram suffix (the
    /// `sys.metrics.metric` column).
    pub fn name(&self) -> String {
        format!("{}{}", self.family, self.suffix)
    }

    /// The labels as `k="v",k2="v2"` — the `sys.metrics.labels` column,
    /// identical to the exposition's label block for the label values
    /// this registry produces (none needs escaping).
    pub fn label_text(&self) -> String {
        let pairs: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        pairs.join(",")
    }
}

fn sample(family: &'static str, kind: Kind, help: &'static str, value: f64) -> Sample {
    Sample {
        family,
        suffix: "",
        labels: Vec::new(),
        kind,
        help,
        value,
    }
}

fn counter(family: &'static str, help: &'static str, value: u64) -> Sample {
    sample(family, Kind::Counter, help, value as f64)
}

fn gauge(family: &'static str, help: &'static str, value: u64) -> Sample {
    sample(family, Kind::Gauge, help, value as f64)
}

/// The registry: every sample the server exposes, each family's
/// samples contiguous.
pub(crate) fn samples(shared: &Shared) -> Vec<Sample> {
    let (refreshes, lag) = shared
        .daemon
        .lock()
        .expect("daemon")
        .as_ref()
        .map_or((0, 0), |d| (d.refreshes(), d.staleness()));
    let evicted = shared.traces.evicted() + shared.slow_traces.evicted();
    #[rustfmt::skip]
    let mut out = vec![
        gauge("queue_depth", "Statements waiting for an execution slot", shared.admission.waiting() as u64),
        gauge("workers_busy", "Statements executing (at most the workers setting)", shared.admission.running() as u64),
        counter("model_refreshes_total", "Models published by the refresh daemon", refreshes),
        gauge("refresh_lag_rows", "Rows folded into bound summaries since their models were last published", lag),
        counter("trace_ring_evicted_total", "Trace records overwritten after the recent or slow ring wrapped", evicted),
    ];
    shared.metrics.samples(&mut out);
    let stats = shared.db.engine_stats();
    engine_samples(&stats, &mut out);
    out.extend(durability_samples(&stats));
    out
}

/// Plan-cache state.
fn engine_samples(stats: &EngineStats, out: &mut Vec<Sample>) {
    let c = stats.plan_cache;
    out.extend([
        counter("plan_cache_hits_total", "Plan-cache hits", c.hits),
        counter("plan_cache_misses_total", "Plan-cache misses", c.misses),
        gauge("plan_cache_entries", "Plans currently cached", c.entries),
    ]);
}

/// WAL counters since open, live log size, and what the last recovery
/// replayed — the slice of the registry `sys.wal` serves. Empty for a
/// volatile engine (no `--wal-dir`).
pub(crate) fn durability_samples(stats: &EngineStats) -> Vec<Sample> {
    let Some(d) = stats.durability else {
        return Vec::new();
    };
    #[rustfmt::skip]
    let out = [
        counter("wal_bytes_total", "Bytes appended to the write-ahead log since open", d.wal.bytes),
        counter("wal_records_total", "Records appended to the write-ahead log since open", d.wal.records),
        counter("wal_fsyncs_total", "fsync calls issued", d.wal.fsyncs),
        counter("checkpoints_total", "Checkpoints taken since open", d.wal.checkpoints),
        gauge("wal_log_bytes", "Live write-ahead log size (drops to zero at checkpoint)", d.log_bytes),
        gauge("recovery_replayed_records", "Committed WAL records re-applied at the last open", d.recovery.replayed_records),
        gauge("recovery_replayed_envelopes", "Committed envelopes re-applied at the last open", d.recovery.replayed_envelopes),
        gauge("recovery_truncated_bytes", "Torn-tail bytes discarded at the last open", d.recovery.truncated_bytes),
        gauge("recovery_checkpoint_tables", "Tables restored from the checkpoint snapshot at the last open", d.recovery.checkpoint_tables),
    ];
    out.into()
}

/// Renders samples in the Prometheus text exposition format: each
/// family as `nlq_<family>`, its `# HELP` / `# TYPE` header written
/// once, where the family's first sample appears.
pub fn render_prometheus(samples: &[Sample]) -> String {
    let mut p = PromText::new();
    let mut family = "";
    for s in samples {
        if s.family != family {
            family = s.family;
            p.family(&format!("nlq_{family}"), s.kind.name(), s.help);
        }
        let labels: Vec<(&str, &str)> = s.labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
        p.sample(&format!("nlq_{}", s.name()), &labels, s.value);
    }
    p.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn own_samples(m: &Metrics) -> Vec<Sample> {
        let mut out = Vec::new();
        m.samples(&mut out);
        out
    }

    #[test]
    fn record_and_render() {
        let m = Metrics::new();
        m.record(Command::Execute, Duration::from_micros(50), true);
        m.record(Command::Execute, Duration::from_millis(20), false);
        m.record(Command::Ping, Duration::from_micros(2), true);
        m.record(Command::Cancel, Duration::from_micros(3), true);
        m.record_summary(3, 1);
        m.queries_cancelled.fetch_add(1, Ordering::Relaxed);
        m.bytes_streamed.fetch_add(4096, Ordering::Relaxed);
        m.chunks_streamed.fetch_add(2, Ordering::Relaxed);

        let samples = own_samples(&m);
        let get = |name: &str, labels: &str| -> f64 {
            samples
                .iter()
                .find(|s| s.name() == name && s.label_text() == labels)
                .unwrap_or_else(|| panic!("missing metric {name}{{{labels}}}"))
                .value
        };
        assert_eq!(get("queries_cancelled", ""), 1.0);
        assert_eq!(get("bytes_streamed", ""), 4096.0);
        assert_eq!(get("chunks_streamed", ""), 2.0);
        assert_eq!(get("command_requests_total", "command=\"cancel\""), 1.0);
        assert_eq!(get("command_requests_total", "command=\"execute\""), 2.0);
        assert_eq!(get("command_errors_total", "command=\"execute\""), 1.0);
        assert_eq!(get("command_requests_total", "command=\"ping\""), 1.0);
        assert_eq!(get("summary_hits", ""), 3.0);
        assert_eq!(get("summary_misses", ""), 1.0);
        // Both execute latencies landed in the histogram.
        assert_eq!(
            get(
                "command_latency_seconds_bucket",
                "command=\"execute\",le=\"+Inf\""
            ),
            2.0
        );
        assert_eq!(
            get("command_latency_seconds_count", "command=\"execute\""),
            2.0
        );
    }

    #[test]
    fn durability_samples_exist_only_for_durable_engines() {
        assert!(durability_samples(&EngineStats::default()).is_empty());

        let stats = EngineStats {
            durability: Some(nlq_engine::DurabilityStats {
                wal: nlq_storage::WalStatsSnapshot {
                    bytes: 128,
                    records: 3,
                    fsyncs: 2,
                    checkpoints: 1,
                },
                log_bytes: 64,
                recovery: nlq_engine::RecoveryInfo {
                    replayed_records: 7,
                    replayed_envelopes: 4,
                    truncated_bytes: 13,
                    checkpoint_tables: 2,
                },
            }),
            ..EngineStats::default()
        };
        let samples = durability_samples(&stats);
        let get = |name: &str| -> f64 {
            samples
                .iter()
                .find(|s| s.family == name)
                .unwrap_or_else(|| panic!("missing metric {name}"))
                .value
        };
        assert_eq!(get("wal_bytes_total"), 128.0);
        assert_eq!(get("wal_fsyncs_total"), 2.0);
        assert_eq!(get("checkpoints_total"), 1.0);
        assert_eq!(get("wal_log_bytes"), 64.0);
        assert_eq!(get("recovery_replayed_records"), 7.0);
        assert_eq!(get("recovery_truncated_bytes"), 13.0);
        assert_eq!(get("recovery_checkpoint_tables"), 2.0);

        let text = render_prometheus(&samples);
        nlq_obs::validate_exposition(&text).expect("valid exposition");
        assert!(text.contains("nlq_wal_fsyncs_total 2"));
        assert!(text.contains("nlq_checkpoints_total 1"));
        assert!(text.contains("nlq_wal_log_bytes 64"));
        assert!(text.contains("nlq_recovery_replayed_records 7"));
    }

    #[test]
    fn bucket_boundaries_land_in_their_documented_bucket() {
        // A latency of exactly 10^(b/2) µs is the documented lower
        // bound of bucket b and must land there, not one off due to
        // floating-point log10.
        for b in 0..LAT_BUCKETS {
            let micros = bucket_bound_micros(b);
            assert_eq!(
                bucket_index(micros),
                BucketIndex::In(b),
                "boundary 10^({b}/2) = {micros} µs"
            );
            // Integer microsecond just below the boundary stays in the
            // previous bucket.
            if b > 0 {
                let just_below = (micros - 1.0).max(1.0);
                match bucket_index(just_below) {
                    BucketIndex::In(idx) => assert!(idx < b || just_below >= micros),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        // Exactly 10^7 µs (10 s) clamps into the last bucket, like the
        // legacy histogram; anything beyond falls above.
        assert_eq!(
            bucket_index(bucket_bound_micros(LAT_BUCKETS)),
            BucketIndex::In(LAT_BUCKETS - 1)
        );
        assert_eq!(bucket_index(2e7), BucketIndex::Above);
        assert_eq!(bucket_index(0.5), BucketIndex::Below);
    }

    #[test]
    fn concurrent_recording_matches_serial_replay() {
        // A deterministic latency workload recorded by 8 threads
        // concurrently must produce exactly the same buckets as the
        // same samples replayed serially.
        let samples: Vec<u64> = (0..4000u64).map(|i| (i * 2503 + 7) % 20_000_000).collect();
        let concurrent = Arc::new(Metrics::new());
        let threads: Vec<_> = samples
            .chunks(500)
            .map(|chunk| {
                let m = Arc::clone(&concurrent);
                let chunk = chunk.to_vec();
                std::thread::spawn(move || {
                    for micros in chunk {
                        m.record(Command::Execute, Duration::from_micros(micros), true);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }

        let serial = Metrics::new();
        for &micros in &samples {
            serial.record(Command::Execute, Duration::from_micros(micros), true);
        }

        let s = slot(Command::Execute);
        assert_eq!(concurrent.latency[s].counts(), serial.latency[s].counts());
        assert_eq!(concurrent.latency[s].below(), serial.latency[s].below());
        assert_eq!(concurrent.latency[s].above(), serial.latency[s].above());
        assert_eq!(
            concurrent.latency[s].sum_micros(),
            serial.latency[s].sum_micros()
        );
        assert_eq!(concurrent.latency[s].total() as usize, samples.len());
    }

    #[test]
    fn prometheus_rendering_round_trips_cumulative_buckets() {
        let m = Metrics::new();
        let samples = [1u64, 3, 10, 999, 50_000, 2_000_000, 20_000_000];
        for &micros in &samples {
            m.record(Command::Execute, Duration::from_micros(micros), true);
        }
        let text = render_prometheus(&own_samples(&m));
        nlq_obs::validate_exposition(&text).expect("valid exposition");

        // Parse the execute command's bucket series back out and check
        // it is cumulative, monotonic, and consistent with the raw
        // bucket counts.
        let mut cumulative = Vec::new();
        let mut inf = None;
        let mut count = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("nlq_command_latency_seconds_bucket{") {
                if !rest.contains("command=\"execute\"") {
                    continue;
                }
                let value: f64 = rest.rsplit(' ').next().unwrap().parse().unwrap();
                if rest.contains("le=\"+Inf\"") {
                    inf = Some(value as u64);
                } else {
                    cumulative.push(value as u64);
                }
            } else if let Some(rest) =
                line.strip_prefix("nlq_command_latency_seconds_count{command=\"execute\"}")
            {
                count = Some(rest.trim().parse::<f64>().unwrap() as u64);
            }
        }
        assert_eq!(cumulative.len(), LAT_BUCKETS);
        assert!(
            cumulative.windows(2).all(|w| w[0] <= w[1]),
            "{cumulative:?}"
        );
        // Reconstruct per-bucket counts by differencing and compare
        // with the histogram's own view.
        let s = slot(Command::Execute);
        let raw = m.latency[s].counts();
        let mut prev = m.latency[s].below();
        for (b, &c) in cumulative.iter().enumerate() {
            assert_eq!(c - prev, raw[b], "bucket {b}");
            prev = c;
        }
        assert_eq!(inf, Some(samples.len() as u64));
        assert_eq!(count, Some(samples.len() as u64));
        // One 20 s sample fell past the last bucket: +Inf exceeds the
        // last finite bucket by exactly that overflow.
        assert_eq!(inf.unwrap() - cumulative[LAT_BUCKETS - 1], 1);
    }
}
