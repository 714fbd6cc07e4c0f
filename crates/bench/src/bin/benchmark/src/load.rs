//! The operations clients send, each checking its own answers, and the
//! closed-loop and paced drivers that send them.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use nlq_client::{Client, RemoteResult};
use nlq_models::Nlq;
use nlq_storage::{Schema, Value};
use nlq_udf::pack::unpack_nlq;

use crate::gen::{self, Pacer, Zipf};
use crate::setup::{Fixture, Model, MODEL, TABLE};
use crate::spans::{Recorder, Span};
use crate::stats;

/// Relative tolerance of every numeric comparison against a locally
/// computed answer.
const REL_TOL: f64 = 1e-9;

/// One operation of a workload. `Err` means the operation failed: the
/// server errored or refused, or the answer was wrong.
pub trait Op: Send {
    fn run(&mut self, c: &mut Client, rec: &mut Recorder, op: u64) -> Result<(), String>;
}

fn close(got: f64, want: f64, scale: f64) -> bool {
    (got - want).abs() <= REL_TOL * scale.max(f64::MIN_POSITIVE)
}

/// Whether two Γ agree to [`REL_TOL`] of their largest entries.
pub fn nlq_close(got: &Nlq, want: &Nlq) -> Result<(), String> {
    if got.d() != want.d() || got.n() != want.n() {
        return Err(format!(
            "Γ is d={} n={}, expected d={} n={}",
            got.d(),
            got.n(),
            want.d(),
            want.n()
        ));
    }
    let pairs = [
        ("L", got.l().as_slice(), want.l().as_slice()),
        ("Q", got.q_raw().as_slice(), want.q_raw().as_slice()),
    ];
    for (what, g, w) in pairs {
        let scale = w.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if g.len() != w.len() || g.iter().zip(w).any(|(a, b)| !close(*a, *b, scale)) {
            return Err(format!(
                "Γ.{what} differs from the reference beyond {REL_TOL:e}"
            ));
        }
    }
    Ok(())
}

/// The Γ a `nlq_list` statement returned.
pub fn gamma_of(rs: &RemoteResult) -> Result<Nlq, String> {
    let packed = rs
        .rows
        .first()
        .and_then(|r| r.first())
        .and_then(Value::as_str)
        .ok_or("Γ statement returned no packed value")?;
    unpack_nlq(packed).map_err(|e| format!("unpack Γ: {e}"))
}

fn execute(
    c: &mut Client,
    rec: &mut Recorder,
    op: u64,
    span: &'static str,
    sql: &str,
) -> Result<RemoteResult, String> {
    rec.scope(span, op, |_| c.execute(sql))
        .map_err(|e| format!("{span}: {e}"))
}

/// `gamma_scan`: the dense Γ statement, then the same with `WHERE X1 > 0`.
pub struct GammaOp {
    pub dense_sql: String,
    pub filtered_sql: String,
    pub dense: Nlq,
    pub filtered: Nlq,
    pub rows: u64,
}

impl Op for GammaOp {
    fn run(&mut self, c: &mut Client, rec: &mut Recorder, op: u64) -> Result<(), String> {
        for (span, sql, want) in [
            ("client.execute.gamma", &self.dense_sql, &self.dense),
            (
                "client.execute.gamma_filtered",
                &self.filtered_sql,
                &self.filtered,
            ),
        ] {
            let rs = execute(c, rec, op, span, sql)?;
            if rs.stats.summary_path || rs.stats.rows_scanned != self.rows {
                return Err(format!(
                    "{span}: expected a scan of {} rows, server scanned {}",
                    self.rows, rs.stats.rows_scanned
                ));
            }
            nlq_close(&gamma_of(&rs)?, want)?;
        }
        Ok(())
    }
}

/// `score_stream`: score every row and stream all of them back.
pub struct ScoreStreamOp {
    pub sql: String,
    pub rows: usize,
    /// Σ score over the table, computed locally.
    pub score_sum: f64,
    /// Σ |score|, the scale the checksum tolerance is relative to.
    pub score_abs_sum: f64,
}

impl ScoreStreamOp {
    pub fn new(fx: &Fixture) -> ScoreStreamOp {
        let scores: Vec<f64> = fx.points.iter().map(|p| fx.model.score(p)).collect();
        ScoreStreamOp {
            sql: fx.sql.score_all.clone(),
            rows: fx.points.len(),
            score_sum: scores.iter().sum(),
            score_abs_sum: scores.iter().map(|s| s.abs()).sum(),
        }
    }
}

impl Op for ScoreStreamOp {
    fn run(&mut self, c: &mut Client, rec: &mut Recorder, op: u64) -> Result<(), String> {
        let (rows, key_sum, score_sum) = rec.scope("client.query.score_all", op, |_| {
            let stream = c.query(&self.sql).map_err(|e| e.to_string())?;
            let (mut rows, mut key_sum, mut score_sum) = (0usize, 0i64, 0.0f64);
            for row in stream {
                let row = row.map_err(|e| e.to_string())?;
                match row.as_slice() {
                    [Value::Int(i), Value::Float(s)] => {
                        key_sum += i;
                        score_sum += s;
                    }
                    other => return Err(format!("unexpected scored row {other:?}")),
                }
                rows += 1;
            }
            Ok::<_, String>((rows, key_sum, score_sum))
        })?;
        let n = self.rows as i64;
        if rows != self.rows || key_sum != n * (n + 1) / 2 {
            return Err(format!("streamed {rows} rows, expected each of {n} once"));
        }
        if !close(score_sum, self.score_sum, self.score_abs_sum) {
            return Err(format!(
                "score checksum {score_sum} differs from local {}",
                self.score_sum
            ));
        }
        Ok(())
    }
}

/// `point_serve` / `serve_under_ingest`: one serving round of four
/// requests on one connection.
pub struct PointOp {
    sql_gamma: String,
    sql_limit: String,
    sql_filtered: String,
    /// Γ the summary must return; `None` while a writer moves it.
    gamma: Option<Nlq>,
    base_rows: f64,
    limit: usize,
    keys: usize,
    zipf: Zipf,
    points: Arc<Vec<Vec<f64>>>,
    model: Model,
    seed: u64,
}

impl PointOp {
    pub fn new(fx: &Fixture, client: usize, under_ingest: bool) -> PointOp {
        PointOp {
            sql_gamma: fx.sql.gamma.clone(),
            sql_limit: fx.sql.score_limit.clone(),
            sql_filtered: fx.sql.score_filtered.clone(),
            gamma: if under_ingest { None } else { fx.gamma.clone() },
            base_rows: fx.sizes.n as f64,
            limit: fx.sizes.limit,
            keys: fx.sizes.keys,
            zipf: Zipf::new(fx.sizes.n, fx.seed ^ (0x5eed_0000 + client as u64)),
            points: Arc::clone(&fx.points),
            model: fx.model.clone(),
            seed: fx.seed,
        }
    }

    /// Features of row `key`: a bulk-loaded point, or an ingested row
    /// regenerated from the seed.
    fn features(&self, key: i64) -> Cow<'_, [f64]> {
        match self.points.get((key - 1) as usize) {
            Some(p) => Cow::Borrowed(p),
            None => gen::feature_row(self.seed, key, self.model.beta.len())[1..]
                .iter()
                .map(|v| v.as_f64().expect("generated features are floats"))
                .collect(),
        }
    }

    /// Checks `(key, score)` rows against local scoring; `keep` is the
    /// statement's predicate over the features.
    fn check_scores(
        &self,
        what: &str,
        rows: &[Vec<Value>],
        expect_rows: usize,
        keep: impl Fn(&[f64]) -> bool,
    ) -> Result<(), String> {
        if rows.len() != expect_rows {
            return Err(format!(
                "{what}: {} rows, expected {expect_rows}",
                rows.len()
            ));
        }
        for row in rows {
            let [Value::Int(key), Value::Float(score)] = row.as_slice() else {
                return Err(format!("{what}: unexpected row {row:?}"));
            };
            let x = self.features(*key);
            let want = self.model.score(&x);
            if !keep(&x) || !close(*score, want, want.abs().max(1.0)) {
                return Err(format!("{what}: key {key} scored {score}, local {want}"));
            }
        }
        Ok(())
    }
}

impl Op for PointOp {
    fn run(&mut self, c: &mut Client, rec: &mut Recorder, op: u64) -> Result<(), String> {
        let rs = execute(c, rec, op, "client.execute.summary_hit", &self.sql_gamma)?;
        if !rs.stats.summary_path || rs.stats.rows_scanned != 0 {
            return Err(format!(
                "Γ left the summary path (summary_path={}, rows_scanned={})",
                rs.stats.summary_path, rs.stats.rows_scanned
            ));
        }
        let got = gamma_of(&rs)?;
        match &self.gamma {
            Some(want) => nlq_close(&got, want)?,
            None if got.n() < self.base_rows => {
                return Err(format!("summary n={} below the loaded rows", got.n()))
            }
            None => {}
        }

        let rs = execute(c, rec, op, "client.execute.score_limit", &self.sql_limit)?;
        self.check_scores("bounded scoring", &rs.rows, self.limit, |_| true)?;

        let rs = execute(
            c,
            rec,
            op,
            "client.execute.score_filtered",
            &self.sql_filtered,
        )?;
        if !rs.stats.block_path {
            return Err("filtered scoring left the block path".into());
        }
        self.check_scores("filtered scoring", &rs.rows, self.limit, |x| {
            x[0] > 0.0 || x[1] > 0.0
        })?;

        let keys = self.zipf.batch(self.keys);
        let rs = rec
            .scope("client.batch_score", op, |_| {
                c.batch_score(TABLE, MODEL, &keys, false)
            })
            .map_err(|e| format!("batch_score: {e}"))?;
        if rs.stats.rows_scanned > keys.len() as u64
            || rs
                .rows
                .iter()
                .map(|r| r[0].as_i64())
                .ne(keys.iter().map(|k| Some(*k)))
        {
            return Err("batch_score did not answer key by key through the index".into());
        }
        self.check_scores("batch_score", &rs.rows, keys.len(), |_| true)
    }
}

/// `ingest_durable`: one pre-generated envelope, header to fsynced ack.
pub struct IngestOp {
    pub columns: Vec<String>,
    pub envelopes: VecDeque<Vec<Vec<Value>>>,
}

/// Column list of an ingest header: every column of the points
/// table, `i, X1..Xd`.
pub fn ingest_columns(d: usize) -> Vec<String> {
    let schema = Schema::points(d, false);
    schema.columns().iter().map(|c| c.name.clone()).collect()
}

/// Sends one envelope and waits for its ack; returns the rows acked.
pub fn send_envelope(
    c: &mut Client,
    columns: &[String],
    rows: Vec<Vec<Value>>,
) -> Result<u64, String> {
    let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
    let sent = rows.len() as u64;
    let mut ing = c.begin_ingest(TABLE, &cols).map_err(|e| e.to_string())?;
    ing.chunk(rows).map_err(|e| e.to_string())?;
    let acked = ing.finish().map_err(|e| e.to_string())?;
    if acked != sent {
        return Err(format!("sent {sent} rows, server acked {acked}"));
    }
    Ok(acked)
}

impl Op for IngestOp {
    fn run(&mut self, c: &mut Client, rec: &mut Recorder, op: u64) -> Result<(), String> {
        let rows = self.envelopes.pop_front().ok_or("out of envelopes")?;
        rec.scope("client.ingest", op, |_| {
            send_envelope(c, &self.columns, rows)
        })
        .map(|_| ())
    }
}

/// When one client's loop stops.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    pub warmup: Duration,
    pub window: Duration,
    /// Stop after this many measured operations, if sooner.
    pub max_ops: Option<usize>,
}

/// What one closed-loop client measured.
pub struct ClientRun {
    /// `(completion offset in the window, latency)` of each successful
    /// operation, seconds and milliseconds.
    pub samples: Vec<(f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Window start to the completion of the last operation.
    pub elapsed_s: f64,
    pub spans: Vec<Span>,
}

/// Runs `clients` connections, each sending its next operation only
/// after the previous one completed. All clients connect, then start
/// together; spans are recorded only when `traced`.
pub fn closed_loop(
    addr: SocketAddr,
    clients: usize,
    limits: Limits,
    traced: bool,
    epoch: Instant,
    make_op: &(dyn Fn(usize) -> Box<dyn Op> + Sync),
) -> Vec<ClientRun> {
    let barrier = Barrier::new(clients);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|idx| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut op = make_op(idx);
                    let mut c = Client::connect(addr).expect("client connect");
                    let mut rec = Recorder::new(epoch, false);
                    barrier.wait();
                    let warm_until = Instant::now() + limits.warmup;
                    while Instant::now() < warm_until {
                        let _ = op.run(&mut c, &mut rec, 0);
                    }
                    let mut rec = Recorder::new(epoch, traced);
                    let mut run = ClientRun {
                        samples: Vec::new(),
                        attempted: 0,
                        failed: 0,
                        first_error: None,
                        elapsed_s: 0.0,
                        spans: Vec::new(),
                    };
                    let started = Instant::now();
                    let max_ops = limits.max_ops.unwrap_or(usize::MAX) as u64;
                    while started.elapsed() < limits.window && run.attempted < max_ops {
                        run.attempted += 1;
                        // Operation ids are unique across clients.
                        let op_id = (idx as u64) << 40 | run.attempted;
                        let t0 = Instant::now();
                        let result = rec.scope("op", op_id, |r| op.run(&mut c, r, op_id));
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        match result {
                            Ok(()) => run.samples.push((started.elapsed().as_secs_f64(), ms)),
                            Err(e) => {
                                run.failed += 1;
                                run.first_error.get_or_insert(e);
                            }
                        }
                    }
                    run.elapsed_s = started.elapsed().as_secs_f64();
                    run.spans = rec.into_spans();
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// A closed-loop run reduced to the reported numbers.
#[derive(Debug, Clone, Default)]
pub struct LoopStats {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Successful operations per second, summed over the clients.
    pub ops_per_s: f64,
    /// Sorted latencies of the successful operations.
    pub latencies_ms: Vec<f64>,
    /// Throughput and median latency of each slice of the run: the
    /// within-run spread a result file records.
    pub slice_ops_per_s: Vec<f64>,
    pub slice_p50_ms: Vec<f64>,
}

impl LoopStats {
    pub fn p50_ms(&self) -> f64 {
        stats::percentile(&self.latencies_ms, 0.5)
    }

    /// Pools whole rounds of one workload: attempts, failures and
    /// latencies add up, each round counts as one slice, and the rate
    /// is the median of the rounds' rates.
    pub fn pool(rounds: &[LoopStats]) -> LoopStats {
        let mut out = LoopStats::default();
        for round in rounds {
            out.attempted += round.attempted;
            out.failed += round.failed;
            if out.first_error.is_none() {
                out.first_error.clone_from(&round.first_error);
            }
            out.latencies_ms.extend_from_slice(&round.latencies_ms);
            out.slice_ops_per_s.push(round.ops_per_s);
            out.slice_p50_ms.push(round.p50_ms());
        }
        out.latencies_ms.sort_by(f64::total_cmp);
        out.ops_per_s = stats::median(&out.slice_ops_per_s);
        out
    }
}

/// Equal stretches of each client's window whose rates and medians
/// are recorded as the within-run spread.
const SLICES: usize = 5;

/// Reduces the clients' runs. Throughput is plainly operations ÷ time:
/// a median over slices would repeat better on a noisy host, but it
/// would also drop the stalls the system itself causes (an inline
/// checkpoint, a seal), which a caller does pay.
pub fn summarize(runs: &[ClientRun]) -> LoopStats {
    let mut out = LoopStats {
        slice_ops_per_s: vec![0.0; SLICES],
        ..LoopStats::default()
    };
    let mut slice_ms: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
    for run in runs {
        out.attempted += run.attempted;
        out.failed += run.failed;
        if out.first_error.is_none() {
            out.first_error.clone_from(&run.first_error);
        }
        if run.elapsed_s <= 0.0 {
            continue;
        }
        out.ops_per_s += run.samples.len() as f64 / run.elapsed_s;
        let slice_s = run.elapsed_s / SLICES as f64;
        for &(at, ms) in &run.samples {
            let k = ((at / slice_s) as usize).min(SLICES - 1);
            out.slice_ops_per_s[k] += 1.0 / slice_s;
            slice_ms[k].push(ms);
            out.latencies_ms.push(ms);
        }
    }
    out.latencies_ms.sort_by(f64::total_cmp);
    out.slice_p50_ms = slice_ms
        .into_iter()
        .filter(|s| !s.is_empty())
        .map(|s| stats::median(&s))
        .collect();
    out
}

/// What the paced writer of `serve_under_ingest` did.
#[derive(Debug, Default)]
pub struct WriterRun {
    pub sent: u32,
    pub failed: u32,
    pub rows_acked: u64,
    pub elapsed_s: f64,
    /// How late each envelope left, against its schedule.
    pub lateness_ms: Vec<f64>,
    /// Due time to ack: the wait a stall imposes counts.
    pub latency_ms: Vec<f64>,
    pub first_error: Option<String>,
}

/// Streams envelopes at the pacer's fixed rate until `stop` is set —
/// an open loop: a slow ack delays nothing but later sends that are
/// already overdue. Keys continue from `first_key`.
pub fn paced_writer(
    addr: SocketAddr,
    pacer: Pacer,
    seed: u64,
    first_key: i64,
    rows: usize,
    d: usize,
    stop: &AtomicBool,
) -> WriterRun {
    let mut c = Client::connect(addr).expect("writer connect");
    let columns = ingest_columns(d);
    let mut run = WriterRun::default();
    let started = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let key = first_key + i64::from(run.sent) * rows as i64;
        let envelope = gen::envelope(seed, key, rows, d);
        let due = pacer.due(run.sent);
        if let Some(wait) = due.checked_sub(started.elapsed()) {
            std::thread::sleep(wait);
        }
        run.lateness_ms
            .push((started.elapsed().saturating_sub(due)).as_secs_f64() * 1e3);
        run.sent += 1;
        match send_envelope(&mut c, &columns, envelope) {
            Ok(acked) => {
                run.rows_acked += acked;
                run.latency_ms
                    .push((started.elapsed().saturating_sub(due)).as_secs_f64() * 1e3);
            }
            Err(e) => {
                run.failed += 1;
                run.first_error.get_or_insert(e);
            }
        }
    }
    run.elapsed_s = started.elapsed().as_secs_f64();
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One client completing an operation every `gap_s`.
    fn client(ops: usize, gap_s: f64) -> ClientRun {
        ClientRun {
            samples: (1..=ops).map(|i| (i as f64 * gap_s, gap_s * 1e3)).collect(),
            attempted: ops as u64 + 1,
            failed: 1,
            first_error: Some("refused".into()),
            elapsed_s: ops as f64 * gap_s,
            spans: Vec::new(),
        }
    }

    #[test]
    fn throughput_sums_over_clients_and_failures_do_not_count() {
        let stats = summarize(&[client(300, 0.01), client(150, 0.02)]);
        assert!(
            (stats.ops_per_s - 150.0).abs() < 1e-6,
            "{}",
            stats.ops_per_s
        );
        assert_eq!((stats.attempted, stats.failed), (452, 2));
        assert_eq!(stats.latencies_ms.len(), 450);
        assert_eq!(stats.p50_ms(), 10.0);
        assert_eq!(stats.slice_ops_per_s.len(), SLICES);
        assert!(stats
            .slice_ops_per_s
            .iter()
            .all(|r| (r - 150.0).abs() < 6.0));
        assert_eq!(summarize(&[client(0, 1.0)]).ops_per_s, 0.0);
    }

    #[test]
    fn pooled_rounds_report_the_median_rate() {
        let rounds: Vec<LoopStats> = [0.01, 0.02, 0.05]
            .iter()
            .map(|gap| summarize(&[client(100, *gap)]))
            .collect();
        let pooled = LoopStats::pool(&rounds);
        assert!((pooled.ops_per_s - 50.0).abs() < 1e-6);
        assert_eq!(pooled.latencies_ms.len(), 300);
        assert_eq!(pooled.p50_ms(), 20.0);
        assert_eq!(pooled.slice_p50_ms, vec![10.0, 20.0, 50.0]);
    }
}
