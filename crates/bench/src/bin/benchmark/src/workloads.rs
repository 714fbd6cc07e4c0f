//! The end-to-end pass: set up, drive one workload over the wire with
//! spans off, verify what it left behind, and reduce to metrics.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use nlq_client::Client;
use nlq_engine::{Db, RecoveryInfo};
use nlq_models::Nlq;

use crate::gen::{self, Pacer};
use crate::load::{
    closed_loop, gamma_of, ingest_columns, nlq_close, paced_writer, summarize, ClientRun, GammaOp,
    IngestOp, Limits, LoopStats, Op, PointOp, ScoreStreamOp, WriterRun,
};
use crate::report::{Metric, WorkloadResult};
use crate::setup::{clients, host_cpus, Fixture, Sizes, TempDir, Workload, TABLE};
use crate::stats;

/// How long and how often one invocation measures.
#[derive(Debug, Clone, Copy)]
pub struct RunPlan {
    pub seed: u64,
    pub smoke: bool,
    pub warmup: Duration,
    pub window: Duration,
    /// Time spent building fixtures again and again; `setup_s` is the
    /// median of the builds. Zero builds one.
    pub setup_budget: Duration,
    /// Time each layer probe of the traced pass spends repeating.
    pub probe_budget: Duration,
}

/// Builds the fixture repeatedly, keeping the last: at least five
/// times, then until the set-up budget is used or 25 are built. A
/// set-up of tens of milliseconds needs that many for a steady median.
pub fn build_repeatedly(workload: Workload, sizes: &Sizes, plan: &RunPlan) -> (Fixture, Vec<f64>) {
    let started = Instant::now();
    let mut fx = Fixture::build(workload, sizes, plan.seed);
    let mut times = vec![fx.setup_s];
    while !plan.setup_budget.is_zero()
        && (times.len() < 5 || (times.len() < 25 && started.elapsed() < plan.setup_budget))
    {
        // Shut the previous server down before its replacement boots.
        drop(fx);
        fx = Fixture::build(workload, sizes, plan.seed);
        times.push(fx.setup_s);
    }
    (fx, times)
}

/// The operation each client of a query workload sends.
pub fn make_op(fx: &Fixture, client: usize) -> Box<dyn Op> {
    match fx.workload {
        Workload::GammaScan => Box::new(GammaOp {
            dense_sql: fx.sql.gamma.clone(),
            filtered_sql: fx.sql.gamma_filtered.clone(),
            dense: fx.gamma.clone().expect("Γ of the loaded rows"),
            filtered: fx.gamma_filtered.clone().expect("filtered Γ"),
            rows: fx.sizes.n as u64,
        }),
        Workload::ScoreStream => Box::new(ScoreStreamOp::new(fx)),
        Workload::PointServe => Box::new(PointOp::new(fx, client, false)),
        Workload::ServeUnderIngest => Box::new(PointOp::new(fx, client, true)),
        Workload::IngestDurable => unreachable!("ingest rounds build their own operations"),
    }
}

/// Drives a query workload's closed loop; `serve_under_ingest` gets
/// its paced writer on one extra connection for the whole run.
pub fn drive(
    fx: &Fixture,
    limits: Limits,
    traced: bool,
    epoch: Instant,
) -> (Vec<ClientRun>, Option<WriterRun>) {
    let make = |client: usize| make_op(fx, client);
    if fx.workload != Workload::ServeUnderIngest {
        let runs = closed_loop(fx.addr(), clients(), limits, traced, epoch, &make);
        return (runs, None);
    }
    let readers = (clients() - 1).max(1);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            paced_writer(
                fx.addr(),
                Pacer::new(fx.sizes.pace_per_s),
                fx.seed,
                next_key(fx),
                fx.sizes.envelope_rows,
                fx.sizes.d,
                &stop,
            )
        });
        let runs = closed_loop(fx.addr(), readers, limits, traced, epoch, &make);
        stop.store(true, Ordering::Relaxed);
        (runs, Some(writer.join().expect("writer thread panicked")))
    })
}

/// First unused primary key of the fixture's table.
fn next_key(fx: &Fixture) -> i64 {
    fx.db.table(TABLE).expect("table").row_count() as i64 + 1
}

fn gamma_via(c: &mut Client, sql: &str, on_summary: bool) -> Result<Nlq, String> {
    let rs = c.execute(sql).map_err(|e| format!("{sql}: {e}"))?;
    if rs.stats.summary_path != on_summary {
        return Err(format!(
            "{sql}: summary_path={}, expected {on_summary}",
            rs.stats.summary_path
        ));
    }
    gamma_of(&rs)
}

/// After an ingest workload: `count(*)` equals the rows loaded plus
/// the rows acked, and the summary's Γ equals a forced scan's.
pub fn verify_table(fx: &Fixture, rows_acked: u64) -> Result<(), String> {
    let mut c = Client::connect(fx.addr()).map_err(|e| e.to_string())?;
    let want = fx.sizes.n as u64 + rows_acked;
    let rs = c.execute(&fx.sql.count).map_err(|e| e.to_string())?;
    let count = rs.rows.first().and_then(|r| r[0].as_i64());
    if count != Some(want as i64) {
        return Err(format!("count(*) is {count:?}, loaded + acked is {want}"));
    }
    let summary = gamma_via(&mut c, &fx.sql.gamma, true)?;
    let scan = gamma_via(&mut c, &fx.sql.gamma_forced_scan, false)?;
    nlq_close(&summary, &scan).map_err(|e| format!("summary vs forced scan: {e}"))
}

/// Shuts the fixture down, reopens its WAL directory and checks that
/// every acked row is there. The directory is removed when the
/// returned guard drops, whatever happens.
pub fn verify_recovery(fx: Fixture, rows_acked: u64) -> (Result<RecoveryInfo, String>, TempDir) {
    let want = (fx.sizes.n as u64 + rows_acked) as i64;
    let count_sql = fx.sql.count.clone();
    let Fixture {
        mut server,
        db,
        wal_dir,
        ..
    } = fx;
    server.shutdown();
    drop(server);
    drop(db);
    let dir = wal_dir.expect("durable fixture has a WAL directory");
    let result = (|| {
        let db = Db::open_durable(host_cpus(), dir.path(), true).map_err(|e| e.to_string())?;
        let count = db.execute(&count_sql).map_err(|e| e.to_string())?.rows[0][0].as_i64();
        if count != Some(want) {
            return Err(format!("after reopen count(*) is {count:?}, acked {want}"));
        }
        db.recovery_info()
            .ok_or_else(|| "no recovery info".to_string())
    })();
    (result, dir)
}

/// Counts a loop's attempts and failures into the result.
pub fn note_failures(stats: &LoopStats, out: &mut WorkloadResult) {
    out.attempted += stats.attempted;
    out.failed += stats.failed;
    if let Some(e) = &stats.first_error {
        out.problems.push(format!("operation failed: {e}"));
    }
}

/// What a measured loop reports: throughput and median latency, each
/// with its within-run spread, then the tail the sample supports and
/// the row rate as diagnostics.
fn loop_metrics(stats: &LoopStats, rows_per_op: usize, out: &mut WorkloadResult) {
    note_failures(stats, out);
    let n = stats.latencies_ms.len();
    out.metrics
        .push(Metric::new("ops_per_s", stats.ops_per_s, "1/s", n).spread(&stats.slice_ops_per_s));
    out.metrics
        .push(Metric::new("p50_ms", stats.p50_ms(), "ms", n).spread(&stats.slice_p50_ms));
    if let Some((name, p)) = stats::tail_percentile(n) {
        let tail = stats::percentile(&stats.latencies_ms, p);
        out.diagnostics.push(Metric::new(name, tail, "ms", n));
    }
    let rows_per_s = stats.ops_per_s * rows_per_op as f64;
    out.diagnostics
        .push(Metric::new("rows_per_s", rows_per_s, "1/s", n));
}

/// The end-to-end pass of one workload.
pub fn run_end_to_end(workload: Workload, plan: &RunPlan) -> WorkloadResult {
    let sizes = Sizes::of(workload, plan.smoke);
    let mut out = WorkloadResult::new(workload, &sizes);
    if workload == Workload::IngestDurable {
        ingest_rounds(&sizes, plan, &mut out);
        return out;
    }
    let (fx, setups) = build_repeatedly(workload, &sizes, plan);
    out.metrics
        .push(Metric::new("setup_s", stats::median(&setups), "s", setups.len()).spread(&setups));
    let limits = Limits {
        warmup: plan.warmup,
        window: plan.window,
        max_ops: None,
    };
    let (runs, writer) = drive(&fx, limits, false, Instant::now());
    assert!(
        runs.iter().all(|r| r.spans.is_empty()),
        "the end-to-end pass must record no spans"
    );
    let rows_per_op = match workload {
        Workload::GammaScan => 2 * sizes.n,
        Workload::ScoreStream => sizes.n,
        _ => 2 * sizes.limit + sizes.keys,
    };
    loop_metrics(&summarize(&runs), rows_per_op, &mut out);
    if let Some(w) = writer {
        writer_report(&fx, &w, &mut out);
        if let Err(e) = verify_table(&fx, w.rows_acked) {
            out.problems.push(e);
        }
        out.diagnostics.extend(wal_diagnostics(&fx, w.rows_acked));
    }
    out
}

/// `serve_under_ingest` is valid only if the open-loop writer kept its
/// schedule: below 95 % of the fixed rate the readers saw less write
/// traffic than the workload is defined by.
fn writer_report(fx: &Fixture, w: &WriterRun, out: &mut WorkloadResult) {
    let achieved = f64::from(w.sent - w.failed) / w.elapsed_s;
    let n = w.latency_ms.len();
    out.attempted += u64::from(w.sent);
    out.failed += u64::from(w.failed);
    if let Some(e) = &w.first_error {
        out.problems.push(format!("writer envelope failed: {e}"));
    }
    if achieved < 0.95 * fx.sizes.pace_per_s {
        out.problems.push(format!(
            "writer achieved {achieved:.2} envelopes/s of {} scheduled",
            fx.sizes.pace_per_s
        ));
    }
    out.diagnostics
        .push(Metric::new("writer_envelopes_per_s", achieved, "1/s", n));
    out.diagnostics.push(Metric::new(
        "writer_lateness_p50_ms",
        stats::median(&w.lateness_ms),
        "ms",
        w.lateness_ms.len(),
    ));
    out.diagnostics.push(Metric::new(
        "writer_due_to_ack_p50_ms",
        stats::median(&w.latency_ms),
        "ms",
        n,
    ));
}

/// Live WAL counters and space use of a durable fixture after its run.
fn wal_diagnostics(fx: &Fixture, rows_acked: u64) -> Vec<Metric> {
    let Some(wal) = fx.db.wal_stats() else {
        return Vec::new();
    };
    let envelopes = (rows_acked / fx.sizes.envelope_rows as u64).max(1);
    let user_bytes = (rows_acked * (fx.sizes.d as u64 + 1) * 8).max(1) as f64;
    let stored = fx.db.table(TABLE).expect("table").bytes_used() as f64;
    let all_user_bytes = user_bytes + (fx.sizes.n * (fx.sizes.d + 1) * 8) as f64;
    let n = envelopes as usize;
    vec![
        Metric::new("wal_checkpoints", wal.checkpoints as f64, "count", n),
        Metric::new(
            "wal_fsyncs_per_envelope",
            wal.fsyncs as f64 / envelopes as f64,
            "ratio",
            n,
        ),
        Metric::new(
            "wal_bytes_per_user_byte",
            wal.bytes as f64 / user_bytes,
            "ratio",
            n,
        ),
        Metric::new(
            "table_bytes_per_user_byte",
            stored / all_user_bytes,
            "ratio",
            1,
        ),
    ]
}

/// One `ingest_durable` round, still serving.
pub struct Round {
    pub fx: Fixture,
    pub runs: Vec<ClientRun>,
    pub stats: LoopStats,
    pub rows_acked: u64,
}

/// Builds a fresh durable fixture and streams the round's fixed count
/// of pre-generated envelopes into it, split across the clients with
/// disjoint key ranges. Generating the envelopes is part of set-up.
pub fn ingest_round(sizes: &Sizes, seed: u64, traced: bool, epoch: Instant) -> Round {
    let started = Instant::now();
    let mut fx = Fixture::build(Workload::IngestDurable, sizes, seed);
    let per_client = sizes.round_envelopes / clients();
    let queues: Vec<VecDeque<_>> = (0..clients())
        .map(|c| {
            let first = (sizes.n + c * per_client * sizes.envelope_rows) as i64 + 1;
            (0..per_client)
                .map(|e| {
                    let key = first + (e * sizes.envelope_rows) as i64;
                    gen::envelope(seed, key, sizes.envelope_rows, sizes.d)
                })
                .collect()
        })
        .collect();
    fx.setup_s = started.elapsed().as_secs_f64();
    let queues = Mutex::new(queues);
    let make = |_: usize| -> Box<dyn Op> {
        Box::new(IngestOp {
            columns: ingest_columns(sizes.d),
            envelopes: queues
                .lock()
                .expect("queues")
                .pop()
                .expect("a queue per client"),
        })
    };
    let limits = Limits {
        warmup: Duration::ZERO,
        // A fixed count ends the round; the window is only a stop for
        // a server that hangs.
        window: Duration::from_secs(120),
        max_ops: Some(per_client),
    };
    let runs = closed_loop(fx.addr(), clients(), limits, traced, epoch, &make);
    let stats = summarize(&runs);
    Round {
        rows_acked: (stats.attempted - stats.failed) * sizes.envelope_rows as u64,
        fx,
        runs,
        stats,
    }
}

/// The checks every round ends with: table and summary agree with the
/// acks, and the acked rows survive a shutdown and reopen.
pub fn verify_round(round: Round, out: &mut WorkloadResult) -> Option<RecoveryInfo> {
    if let Err(e) = verify_table(&round.fx, round.rows_acked) {
        out.problems.push(e);
    }
    let (recovery, _dir) = verify_recovery(round.fx, round.rows_acked);
    recovery
        .map_err(|e| out.problems.push(format!("durability: {e}")))
        .ok()
}

/// `ingest_durable`: whole rounds of a fixed envelope count, each on a
/// freshly loaded table and WAL directory, for as long as the window
/// lasts. A fixed count keeps the table a round ends with — and so the
/// work per envelope — the same on every run and every commit;
/// repeating the round gives the medians and their spread. Rounds that
/// start during the warm-up are run and checked but not measured.
fn ingest_rounds(sizes: &Sizes, plan: &RunPlan, out: &mut WorkloadResult) {
    let (mut setups, mut measured) = (Vec::new(), Vec::new());
    let (mut last_wal, mut last_recovery) = (Vec::new(), None);
    let started = Instant::now();
    while measured.is_empty() || started.elapsed() < plan.warmup + plan.window {
        let warming = started.elapsed() < plan.warmup;
        let mut round = ingest_round(sizes, plan.seed, false, started);
        if warming {
            note_failures(&round.stats, out);
        } else {
            setups.push(round.fx.setup_s);
            measured.push(std::mem::take(&mut round.stats));
        }
        last_wal = wal_diagnostics(&round.fx, round.rows_acked);
        last_recovery = verify_round(round, out);
    }
    out.metrics
        .push(Metric::new("setup_s", stats::median(&setups), "s", setups.len()).spread(&setups));
    loop_metrics(&LoopStats::pool(&measured), sizes.envelope_rows, out);
    let rounds = measured.len();
    out.diagnostics
        .push(Metric::new("rounds", rounds as f64, "count", rounds));
    out.diagnostics.extend(last_wal);
    if let Some(info) = last_recovery {
        println!(
            "ingest_durable recovery replayed_records={} replayed_envelopes={} \
             truncated_bytes={} checkpoint_tables={}",
            info.replayed_records,
            info.replayed_envelopes,
            info.truncated_bytes,
            info.checkpoint_tables
        );
    }
}
