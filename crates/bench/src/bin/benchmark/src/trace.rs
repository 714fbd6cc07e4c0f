//! The traced pass: the workload over the wire with spans around each
//! `Client` call, a single-threaded in-process replay of the same
//! operations with a span around each hand-stepped layer call, and the
//! layer probes. Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nlq_client::Client;
use nlq_engine::sqlgen::x_cols;
use nlq_engine::{parse, Db, ExecOptions, ResultSet, SqlEngine};
use nlq_models::MatrixShape;
use nlq_server::wire::{
    read_frame, write_frame, ChunkEncoder, Request, Response, StreamAssembler, WireStats,
};
use nlq_server::ServerConfig;
use nlq_storage::{FileIo, Table, Wal};
use nlq_summary::{SummaryDef, SummaryStore};

use crate::gen::{self, Zipf};
use crate::layers;
use crate::load::{ingest_columns, summarize, ClientRun, Limits, LoopStats};
use crate::report::{Metric, WorkloadResult};
use crate::setup::{host_cpus, Fixture, Sizes, TempDir, Workload, MODEL, SUMMARY, TABLE};
use crate::spans::{self, Recorder, Span};
use crate::stats;
use crate::workloads::{drive, ingest_round, note_failures, verify_round, verify_table, RunPlan};

/// A loopback connection the replay pushes frames through: written
/// here, read back by a reader thread, as a result larger than the
/// socket buffers cannot be written before it is read.
struct Loopback {
    tx: BufWriter<TcpStream>,
    frames: Receiver<Vec<u8>>,
    reader: Option<JoinHandle<()>>,
}

impl Loopback {
    fn new() -> Loopback {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let tx = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (rx, _) = listener.accept().expect("accept");
        tx.set_nodelay(true).expect("nodelay");
        let (send, frames) = channel();
        let reader = std::thread::spawn(move || {
            let mut rx = BufReader::new(rx);
            while let Ok(Some(frame)) = read_frame(&mut rx) {
                if send.send(frame).is_err() {
                    break;
                }
            }
        });
        Loopback {
            tx: BufWriter::new(tx),
            frames,
            reader: Some(reader),
        }
    }

    /// Writes the frames and waits until all of them were read back.
    fn transfer(&mut self, payloads: &[Vec<u8>]) -> Vec<Vec<u8>> {
        for p in payloads {
            write_frame(&mut self.tx, p).expect("write frame");
        }
        self.tx.flush().expect("flush");
        payloads
            .iter()
            .map(|_| self.frames.recv().expect("reader thread"))
            .collect()
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        // Closing the write half ends the reader's loop.
        let _ = self.tx.get_ref().shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// One request of an operation, as the replay steps it.
enum Step {
    Query(String),
    BatchScore(Vec<i64>),
}

/// Hand-steps one request through every layer it crosses, one span per
/// layer call, all children of the operation's root span.
fn replay_step(rec: &mut Recorder, op: u64, db: &Db, lo: &mut Loopback, step: &Step) {
    let request = match step {
        Step::Query(sql) => Request::Execute { sql: sql.clone() },
        Step::BatchScore(keys) => Request::BatchScore {
            table: TABLE.into(),
            model: MODEL.into(),
            keys: keys.clone(),
            explain: false,
        },
    };
    let frame = rec.scope("client.encode", op, |_| request.encode());
    let frames = rec.scope("socket", op, |_| lo.transfer(&[frame]));
    let request = rec.scope("server.decode", op, |_| {
        Request::decode(&frames[0]).expect("decode request")
    });
    let opts = ExecOptions::default();
    let (result, streamed): (ResultSet, bool) = match request {
        Request::Execute { sql } => {
            let stmt = rec.scope("engine.parse", op, |_| parse(&sql).expect("parse"));
            let rs = rec.scope("engine.exec", op, |_| {
                db.execute_statement(stmt, &opts).expect("execute")
            });
            (rs, true)
        }
        Request::BatchScore {
            table, model, keys, ..
        } => {
            let rs = rec.scope("engine.exec", op, |_| {
                SqlEngine::batch_score(db, &table, &model, &keys, false, &opts)
                    .expect("batch score")
            });
            (rs, false)
        }
        other => unreachable!("replay sends no {other:?}"),
    };
    let ncols = result.columns.len();
    let frames = rec.scope("server.encode", op, |_| {
        if !streamed {
            return vec![Response::Result {
                columns: result.columns,
                rows: result.rows,
                stats: WireStats::default(),
            }
            .encode()];
        }
        let mut frames = vec![Response::RowsHeader {
            seq: 1,
            query_id: op,
            columns: result.columns,
        }
        .encode()];
        let mut enc = ChunkEncoder::new(1, ncols, ServerConfig::default().chunk_bytes);
        for row in &result.rows {
            frames.extend(enc.push_row(row));
        }
        frames.extend(enc.finish());
        frames.push(enc.done_payload(&WireStats::default()));
        frames
    });
    let frames = rec.scope("socket", op, |_| lo.transfer(&frames));
    rec.scope("client.decode", op, |_| {
        let first = Response::decode(&frames[0]).expect("decode response");
        if streamed {
            let mut asm = StreamAssembler::new(1, ncols);
            for p in &frames[1..] {
                asm.push_payload(p).expect("assemble");
            }
            std::hint::black_box(asm.into_rows());
        }
        std::hint::black_box(first);
    });
}

/// Replays the workload's operation until `budget` is used.
fn replay_queries(fx: &Fixture, budget: Duration, epoch: Instant) -> Vec<Span> {
    let mut rec = Recorder::new(epoch, true);
    let mut lo = Loopback::new();
    let mut zipf = Zipf::new(fx.sizes.n, fx.seed ^ 0x5eed_0000);
    let started = Instant::now();
    let mut op = 0u64;
    while op < 3 || started.elapsed() < budget {
        op += 1;
        let steps = match fx.workload {
            Workload::GammaScan => vec![
                Step::Query(fx.sql.gamma.clone()),
                Step::Query(fx.sql.gamma_filtered.clone()),
            ],
            Workload::ScoreStream => vec![Step::Query(fx.sql.score_all.clone())],
            _ => vec![
                Step::Query(fx.sql.gamma.clone()),
                Step::Query(fx.sql.score_limit.clone()),
                Step::Query(fx.sql.score_filtered.clone()),
                Step::BatchScore(zipf.batch(fx.sizes.keys)),
            ],
        };
        rec.scope("op", op, |rec| {
            for step in &steps {
                replay_step(rec, op, &fx.db, &mut lo, step);
            }
        });
    }
    rec.into_spans()
}

/// Replays one ingest round envelope by envelope on private storage:
/// encode → socket → decode → log → apply → fold → commit → ack, the
/// order `Db::ingest_rows` takes them in.
fn replay_ingest(sizes: &Sizes, seed: u64, budget: Duration, epoch: Instant) -> Vec<Span> {
    let mut rec = Recorder::new(epoch, true);
    let mut lo = Loopback::new();
    let d = sizes.d;
    let dir = TempDir::new("wal-replay");
    let io = Arc::new(FileIo::open(&dir.path().join("wal.log")).expect("open wal"));
    let wal = Wal::new(io, true, 1, 0);
    let loaded = Db::new(host_cpus());
    loaded
        .load_points(TABLE, &gen::points(sizes.n, d, seed), false)
        .expect("bulk load");
    let mut table: Arc<Table> = loaded.table(TABLE).expect("table");
    let schema = table.schema().clone();
    let store = SummaryStore::new();
    store
        .create(
            SummaryDef {
                name: SUMMARY.into(),
                table: TABLE.to_ascii_lowercase(),
                columns: x_cols(d),
                shape: MatrixShape::Triangular,
                minmax: true,
                group_by: None,
            },
            &table,
        )
        .expect("create summary");
    let started = Instant::now();
    for e in 0..sizes.round_envelopes {
        if e >= 3 && started.elapsed() > budget {
            break;
        }
        let op = e as u64 + 1;
        let first_key = (sizes.n + e * sizes.envelope_rows) as i64 + 1;
        let rows = gen::envelope(seed, first_key, sizes.envelope_rows, d);
        rec.scope("op", op, |rec| {
            let frames = rec.scope("client.encode", op, |_| {
                vec![
                    Request::InsertHeader {
                        table: TABLE.into(),
                        columns: ingest_columns(d),
                    }
                    .encode(),
                    Request::InsertChunk { seq: 0, rows }.encode(),
                    Request::InsertDone.encode(),
                ]
            });
            let frames = rec.scope("socket", op, |_| lo.transfer(&frames));
            let rows = rec.scope("server.decode", op, |_| {
                for f in [&frames[0], &frames[2]] {
                    std::hint::black_box(Request::decode(f).expect("decode"));
                }
                match Request::decode(&frames[1]).expect("decode chunk") {
                    Request::InsertChunk { rows, .. } => rows,
                    other => unreachable!("{other:?}"),
                }
            });
            let eid = wal.alloc_eid();
            rec.scope("storage.wal_log", op, |_| {
                wal.log_rows(eid, TABLE, &rows).expect("log rows");
            });
            rec.scope("storage.apply", op, |_| {
                // Copy-on-write, as `Db` appends: clone, insert, swap.
                let mut next = (*table).clone();
                next.insert_rows(rows.iter().cloned()).expect("insert");
                table = Arc::new(next);
            });
            rec.scope("summary.fold", op, |_| {
                store.fold_rows(TABLE, &schema, &rows)
            });
            rec.scope("storage.wal_commit", op, |_| {
                wal.commit(eid).expect("commit");
            });
            let ack = rec.scope("server.encode", op, |_| {
                Response::InsertAck {
                    rows: rows.len() as u64,
                }
                .encode()
            });
            let frames = rec.scope("socket", op, |_| lo.transfer(&[ack]));
            rec.scope("client.decode", op, |_| {
                std::hint::black_box(Response::decode(&frames[0]).expect("decode ack"));
            });
        });
    }
    rec.into_spans()
}

/// Per operation, the self time of each layer span name, in µs.
fn self_time_by_op(spans: &[Span]) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
    let mut by_op: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(spans::self_times(spans)) {
        if s.parent.is_some() {
            *by_op.entry(s.op).or_default().entry(s.name).or_default() += self_ns as f64 / 1e3;
        }
    }
    by_op
}

/// The layer table of a replay and the share of the wire median it
/// accounts for.
fn attribute(replay: &[Span], wire_p50_ms: f64, out: &mut WorkloadResult) {
    let by_op = self_time_by_op(replay);
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for layers in by_op.values() {
        for (name, us) in layers {
            by_name.entry(name).or_default().push(*us);
        }
    }
    for (name, us) in &by_name {
        out.diagnostics.push(Metric::new(
            &format!("replay.{name}.self_us"),
            stats::median(us),
            "us",
            us.len(),
        ));
    }
    let totals: Vec<f64> = by_op.values().map(|l| l.values().sum()).collect();
    out.metrics.push(Metric::new(
        "attributed_share",
        stats::median(&totals) / (wire_p50_ms * 1e3),
        "ratio",
        totals.len(),
    ));
}

/// Median client-observed time of each kind of `Client` call inside
/// the traced operations.
fn wire_call_medians(wire: &[Span], out: &mut WorkloadResult) {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in wire.iter().filter(|s| s.parent.is_some()) {
        by_name
            .entry(s.name)
            .or_default()
            .push((s.end_ns - s.start_ns) as f64 / 1e6);
    }
    for (name, ms) in by_name {
        out.diagnostics.push(Metric::new(
            &format!("wire.{name}.p50_ms"),
            stats::median(&ms),
            "ms",
            ms.len(),
        ));
    }
}

/// Rows the refresh daemon is behind, summed over the summaries, read
/// from the catalog the moment the traced window ends.
fn refresh_lag(fx: &Fixture) -> Metric {
    let mut c = Client::connect(fx.addr()).expect("catalog connect");
    let rs = c
        .execute("SELECT lag_rows FROM sys.summaries")
        .expect("sys.summaries");
    let lag: i64 = rs.rows.iter().filter_map(|r| r[0].as_i64()).sum();
    Metric::new(
        "feature.refresh_lag_rows",
        lag as f64,
        "rows",
        rs.rows.len(),
    )
}

fn take_spans(runs: &mut [ClientRun]) -> Vec<Span> {
    spans::merge(
        runs.iter_mut()
            .map(|r| std::mem::take(&mut r.spans))
            .collect(),
    )
}

/// What the wire windows, the replay and the probes of one traced
/// pass produced.
struct Traced {
    untraced: LoopStats,
    traced: LoopStats,
    wire: Vec<Span>,
    replay: Vec<Span>,
    probes: Vec<Metric>,
}

/// A query workload: one fixture, an untraced window, a traced window,
/// the replay, the probes.
fn trace_queries(
    workload: Workload,
    sizes: &Sizes,
    plan: &RunPlan,
    out: &mut WorkloadResult,
) -> Traced {
    let epoch = Instant::now();
    let third = plan.window / 3;
    let fx = Fixture::build(workload, sizes, plan.seed);
    let mut limits = Limits {
        warmup: plan.warmup,
        window: third,
        max_ops: None,
    };
    let (runs, first_writer) = drive(&fx, limits, false, epoch);
    let untraced = summarize(&runs);
    limits.warmup = Duration::ZERO;
    let (mut runs, writer) = drive(&fx, limits, true, epoch);
    let lag = refresh_lag(&fx);
    if let (Some(a), Some(b)) = (first_writer, writer) {
        if let Err(e) = verify_table(&fx, a.rows_acked + b.rows_acked) {
            out.problems.push(e);
        }
    }
    let mut probes = layers::probe(&fx, plan.probe_budget);
    probes.push(lag);
    Traced {
        untraced,
        traced: summarize(&runs),
        wire: take_spans(&mut runs),
        replay: replay_queries(&fx, third, epoch),
        probes,
    }
}

/// `ingest_durable`: untraced and traced rounds alternate for two
/// thirds of the window (the first pair is the warm-up), then the
/// replay; the probes run on the table the last round leaves.
fn trace_ingest(sizes: &Sizes, plan: &RunPlan, out: &mut WorkloadResult) -> Traced {
    let epoch = Instant::now();
    let third = plan.window / 3;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut wire = Vec::new();
    let warmup_rounds = if plan.warmup.is_zero() { 0 } else { 2 };
    let mut rounds = 0;
    let probes = loop {
        let with_spans = rounds % 2 == 1;
        let mut round = ingest_round(sizes, plan.seed, with_spans, epoch);
        rounds += 1;
        if rounds > warmup_rounds {
            let pool = if with_spans {
                &mut traced
            } else {
                &mut untraced
            };
            pool.push(std::mem::take(&mut round.stats));
            wire.push(take_spans(&mut round.runs));
        }
        let done =
            with_spans && rounds > warmup_rounds && epoch.elapsed() >= plan.warmup + 2 * third;
        let probes = done.then(|| {
            let lag = refresh_lag(&round.fx);
            let mut probes = layers::probe(&round.fx, plan.probe_budget);
            probes.push(lag);
            probes
        });
        verify_round(round, out);
        if let Some(probes) = probes {
            break probes;
        }
    };
    Traced {
        untraced: LoopStats::pool(&untraced),
        traced: LoopStats::pool(&traced),
        wire: spans::merge(wire),
        replay: replay_ingest(sizes, plan.seed, third, epoch),
        probes,
    }
}

/// The traced pass of one workload: untraced and traced wire windows
/// (their ratio is the cost of tracing), the replay — a third of the
/// run's seconds each — and the layer probes. Appends the spans to
/// `jsonl`.
pub fn run_traced(workload: Workload, plan: &RunPlan, jsonl: &mut String) -> WorkloadResult {
    let sizes = Sizes::of(workload, plan.smoke);
    let mut out = WorkloadResult::new(workload, &sizes);
    let t = if workload == Workload::IngestDurable {
        trace_ingest(&sizes, plan, &mut out)
    } else {
        trace_queries(workload, &sizes, plan, &mut out)
    };
    note_failures(&t.untraced, &mut out);
    note_failures(&t.traced, &mut out);

    out.metrics = t.probes;
    attribute(&t.replay, t.untraced.p50_ms(), &mut out);
    out.metrics.push(Metric::new(
        "trace_overhead_ratio",
        t.traced.ops_per_s / t.untraced.ops_per_s,
        "ratio",
        t.traced.latencies_ms.len(),
    ));
    out.diagnostics.push(Metric::new(
        "wire.p50_ms",
        t.untraced.p50_ms(),
        "ms",
        t.untraced.latencies_ms.len(),
    ));
    wire_call_medians(&t.wire, &mut out);
    jsonl.push_str(&spans::to_jsonl(workload.name(), "wire", &t.wire));
    jsonl.push_str(&spans::to_jsonl(workload.name(), "replay", &t.replay));
    out
}
