//! Per-layer probes: one timed call into each crate's public functions,
//! on the workload's own table, run from the benchmark's own files.
//! Every traced run reports every probe, so a change to one layer can
//! be read against all five workloads.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nlq_client::Client;
use nlq_engine::sqlgen::x_cols;
use nlq_engine::{parse, Db, ExecOptions, SqlEngine};
use nlq_linalg::kernels;
use nlq_models::{GammaModelSet, MatrixShape, RefreshSpec};
use nlq_server::wire::{ChunkEncoder, StreamAssembler, WireStats};
use nlq_server::ServerConfig;
use nlq_storage::{bitmap_words, FileIo, Table, Value, Wal};
use nlq_udf::{BatchArg, LinearRegScoreUdf, ScalarBatchArg, ScalarUdf};

use crate::gen::{self, Zipf};
use crate::report::Metric;
use crate::setup::{host_cpus, Fixture, TempDir, Workload, SUMMARY, TABLE};
use crate::stats;

/// The statement whose execution, encoding and decoding the probes
/// time: the one the workload spends its time in.
fn main_sql(fx: &Fixture) -> &str {
    match fx.workload {
        Workload::GammaScan => &fx.sql.gamma,
        Workload::ScoreStream => &fx.sql.score_all,
        _ => &fx.sql.score_limit,
    }
}

/// What the probes share: the served table as it stands, a private
/// engine over a copy of it (probes that write or need a table with no
/// summary use that one, so the served summary never moves), and one
/// envelope of fresh rows.
struct Probes<'a> {
    fx: &'a Fixture,
    table: Arc<Table>,
    private: Db,
    envelope: Vec<Vec<Value>>,
    /// Time each probe spends repeating its call.
    budget: Duration,
    out: Vec<Metric>,
}

/// Runs every probe against the fixture's table as it stands.
pub fn probe(fx: &Fixture, budget: Duration) -> Vec<Metric> {
    let table = fx.db.table(TABLE).expect("table");
    let private = Db::new(host_cpus());
    private
        .register_table(TABLE, (*table).clone())
        .expect("register the table copy");
    let first_key = table.row_count() as i64 + 1_000_000;
    let mut p = Probes {
        fx,
        envelope: gen::envelope(fx.seed, first_key, fx.sizes.envelope_rows, fx.sizes.d),
        table,
        private,
        budget,
        out: Vec::new(),
    };
    p.linalg();
    p.storage_scan();
    p.udf();
    p.engine();
    p.summary();
    p.storage_index_and_log();
    p.feature();
    p.server_and_client();
    p.core();
    p.out
}

impl Probes<'_> {
    /// Calls `f` until the budget is used (at least three times);
    /// returns the median seconds per call and the number of calls.
    fn time(&self, mut f: impl FnMut()) -> (f64, usize) {
        let started = Instant::now();
        let mut times = Vec::new();
        while times.len() < 3 || started.elapsed() < self.budget {
            let t0 = Instant::now();
            f();
            times.push(t0.elapsed().as_secs_f64());
        }
        (stats::median(&times), times.len())
    }

    /// Reports `seconds` per call as `unit` per item.
    fn push(
        &mut self,
        name: &str,
        unit: &'static str,
        (seconds, calls): (f64, usize),
        items: usize,
    ) {
        let scale = if unit == "us" { 1e6 } else { 1e9 };
        let value = seconds * scale / items.max(1) as f64;
        self.out.push(Metric::new(name, value, unit, calls));
    }

    fn d(&self) -> usize {
        self.fx.sizes.d
    }

    fn float_cols(&self) -> Vec<usize> {
        (1..=self.d()).collect()
    }

    /// linalg: the Γ kernels on 1024-row column slices — the dense one,
    /// and the selected one with the `X1 > 0` half of the rows active.
    /// Up to 64 blocks are copied out first, so the kernels run over
    /// more data than the L2 cache holds.
    fn linalg(&mut self) {
        let d = self.d();
        let mut iter = self
            .table
            .scan_partition_blocks(0, &self.float_cols())
            .expect("block scan");
        let mut blocks: Vec<Vec<Vec<f64>>> = Vec::new();
        while let Some(block) = iter.next_block() {
            let block = block.expect("block");
            blocks.push((0..d).map(|a| block.column(a).values.to_vec()).collect());
            if blocks.len() == 64 {
                break;
            }
        }
        let active: Vec<Vec<u64>> = blocks
            .iter()
            .map(|cols| {
                let mut words = vec![0u64; bitmap_words(cols[0].len())];
                for (i, v) in cols[0].iter().enumerate() {
                    words[i / 64] |= u64::from(*v > 0.0) << (i % 64);
                }
                words
            })
            .collect();
        let mut q = vec![0.0; d * d];
        let timing = self.time(|| {
            for (cols, active) in blocks.iter().zip(&active) {
                let cols: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
                kernels::block_triangular(&mut q, d, &cols);
                kernels::block_triangular_selected(&mut q, d, &cols, active);
            }
            black_box(&mut q);
        });
        let rows: usize = blocks.iter().map(|cols| cols[0].len()).sum();
        self.push("linalg.gamma_kernel_ns_row", "ns/row", timing, 2 * rows);
    }

    /// storage: draining the block scan of every partition, no compute.
    fn storage_scan(&mut self) {
        let cols = self.float_cols();
        let timing = self.time(|| {
            for p in 0..self.table.partition_count() {
                let mut iter = self
                    .table
                    .scan_partition_blocks(p, &cols)
                    .expect("block scan");
                while let Some(block) = iter.next_block() {
                    black_box(block.expect("block").len());
                }
            }
        });
        self.push(
            "storage.block_scan_ns_row",
            "ns/row",
            timing,
            self.table.row_count(),
        );
    }

    /// udf: Γ accumulation and regression scoring over partition 0,
    /// block by block.
    fn udf(&mut self) {
        let d = self.d();
        let cols = self.float_cols();
        let rows = self.table.partition_row_count(0);
        let nlq_list = self
            .fx
            .db
            .registry()
            .aggregate("nlq_list")
            .cloned()
            .expect("nlq_list");
        let mut args = vec![
            BatchArg::Const(Value::Int(d as i64)),
            BatchArg::Const(Value::Str("triang".into())),
        ];
        args.extend((0..d).map(BatchArg::Col));
        let timing = self.time(|| {
            let mut state = nlq_list.init();
            let mut iter = self
                .table
                .scan_partition_blocks(0, &cols)
                .expect("block scan");
            while let Some(block) = iter.next_block() {
                state
                    .accumulate_batch(&block.expect("block"), &args, None)
                    .expect("accumulate");
            }
            black_box(state.heap_bytes());
        });
        self.push("udf.accumulate_ns_row", "ns/row", timing, rows);

        let b0 = Value::Float(self.fx.model.b0);
        let betas: Vec<Value> = self
            .fx
            .model
            .beta
            .iter()
            .map(|b| Value::Float(*b))
            .collect();
        let mut scored = Vec::new();
        let timing = self.time(|| {
            let mut iter = self
                .table
                .scan_partition_blocks(0, &cols)
                .expect("block scan");
            while let Some(block) = iter.next_block() {
                let block = block.expect("block");
                let mut args: Vec<ScalarBatchArg> = (0..d)
                    .map(|a| ScalarBatchArg::Col {
                        values: block.column(a).values,
                        validity: block.column(a).validity(),
                    })
                    .collect();
                args.push(ScalarBatchArg::Const(&b0));
                args.extend(betas.iter().map(ScalarBatchArg::Const));
                scored.clear();
                let taken = LinearRegScoreUdf
                    .eval_batch(&args, block.len(), &mut scored)
                    .expect("score");
                assert!(taken, "linearregscore declined the batch path");
            }
            black_box(&scored);
        });
        self.push("udf.score_ns_row", "ns/row", timing, rows);
    }

    /// engine: parsing and executing the main statement in-process, and
    /// what a selection bitmap adds to a Γ scan.
    fn engine(&mut self) {
        let sql = main_sql(self.fx);
        let timing = self.time(|| {
            black_box(parse(black_box(sql)).expect("parse"));
        });
        self.push("engine.parse_us", "us", timing, 1);
        let stmt = parse(sql).expect("parse");
        let opts = ExecOptions::default();
        let timing = self.time(|| {
            black_box(
                self.fx
                    .db
                    .execute_statement(stmt.clone(), &opts)
                    .expect("execute"),
            );
        });
        self.push("engine.exec_us", "us", timing, 1);

        // The predicate keeps every row, so both statements aggregate
        // the same rows and the difference is the bitmap alone.
        // The private engine serves the same table name, so the
        // fixture's Γ statement runs on it as written.
        let gamma = &self.fx.sql.gamma;
        let gamma_all = format!("{gamma} WHERE X1 > -1000");
        let (dense_s, _) = self.time(|| {
            black_box(self.private.execute(gamma).expect("dense Γ"));
        });
        let (filtered_s, calls) = self.time(|| {
            black_box(self.private.execute(&gamma_all).expect("filtered Γ"));
        });
        self.push(
            "engine.predicate_ns_row",
            "ns/row",
            (filtered_s - dense_s, calls),
            self.table.row_count(),
        );
    }

    /// summary: a hit, then folding one envelope of fresh rows. Leaves
    /// the private engine with a summary, as the served one has.
    fn summary(&mut self) {
        let cols = x_cols(self.d()).join(", ");
        self.private
            .execute(&format!(
                "CREATE SUMMARY {SUMMARY} ON {TABLE} ({cols}) SHAPE triang"
            ))
            .expect("create summary");
        let timing = self.time(|| {
            let rs = self
                .private
                .execute(&self.fx.sql.gamma)
                .expect("summary hit");
            assert!(rs.stats.summary_path && rs.stats.rows_scanned == 0);
            black_box(rs);
        });
        self.push("summary.hit_us", "us", timing, 1);
        let timing = self.time(|| {
            self.private
                .summaries()
                .fold_rows(TABLE, self.table.schema(), &self.envelope);
        });
        self.push("summary.fold_ns_row", "ns/row", timing, self.envelope.len());
    }

    /// storage: PK probes with a Zipf key batch; one envelope logged
    /// and committed through a real file with fsync on; and what the
    /// log and the table cost in bytes per byte of user data.
    fn storage_index_and_log(&mut self) {
        let rows = self.table.row_count().max(1);
        let keys = Zipf::new(rows, self.fx.seed ^ 0x9e37).batch(self.fx.sizes.keys);
        let timing = self.time(|| {
            black_box(self.table.lookup_keys(&keys).expect("pk lookup"));
        });
        self.push("storage.pk_probe_ns_key", "ns/key", timing, keys.len());

        let row_bytes = (self.d() + 1) * 8;
        let dir = TempDir::new("wal-probe");
        let io = Arc::new(FileIo::open(&dir.path().join("wal.log")).expect("open wal"));
        let wal = Wal::new(io, true, 1, 0);
        let timing = self.time(|| {
            let eid = wal.alloc_eid();
            wal.log_rows(eid, TABLE, &self.envelope).expect("log rows");
            wal.commit(eid).expect("commit");
        });
        self.push("storage.wal_commit_us", "us", timing, 1);
        let commits = timing.1;
        let wal_stats = wal.stats().snapshot();
        let logged_user_bytes = (commits * self.envelope.len() * row_bytes) as f64;
        self.out.push(Metric::new(
            "storage.fsyncs_per_commit",
            wal_stats.fsyncs as f64 / commits as f64,
            "ratio",
            commits,
        ));
        self.out.push(Metric::new(
            "storage.wal_write_amp",
            wal_stats.bytes as f64 / logged_user_bytes,
            "ratio",
            commits,
        ));
        self.out.push(Metric::new(
            "storage.space_amp",
            self.table.bytes_used() as f64 / (rows * row_bytes) as f64,
            "ratio",
            1,
        ));
    }

    /// feature: applying one envelope to the volatile private engine —
    /// table append, seal, PK index and summary fold, no WAL.
    fn feature(&mut self) {
        let (seed, d, rows) = (self.fx.seed, self.d(), self.envelope.len());
        let mut key = self.table.row_count() as i64 + 2_000_000;
        let timing = self.time(|| {
            key += rows as i64;
            let envelope = gen::envelope(seed, key, rows, d);
            self.private.ingest_rows(TABLE, envelope).expect("ingest");
        });
        self.push("feature.apply_ns_row", "ns/row", timing, rows);
    }

    /// server and client: encoding the main statement's rows into chunk
    /// frames and assembling them back; the round-trip floor; and what
    /// the wire adds to the main statement on one idle connection over
    /// parsing and executing it in-process.
    fn server_and_client(&mut self) {
        let sql = main_sql(self.fx);
        let result = self.fx.db.execute(sql).expect("main statement");
        let ncols = result.columns.len();
        let mut payloads = Vec::new();
        let timing = self.time(|| {
            payloads.clear();
            let mut enc = ChunkEncoder::new(1, ncols, ServerConfig::default().chunk_bytes);
            for row in &result.rows {
                payloads.extend(enc.push_row(row));
            }
            payloads.extend(enc.finish());
            payloads.push(enc.done_payload(&WireStats::default()));
        });
        self.push("server.encode_ns_row", "ns/row", timing, result.rows.len());
        let timing = self.time(|| {
            let mut asm = StreamAssembler::new(1, ncols);
            for p in &payloads {
                asm.push_payload(p).expect("assemble");
            }
            black_box(asm.into_rows());
        });
        self.push("client.decode_ns_row", "ns/row", timing, result.rows.len());

        let mut c = Client::connect(self.fx.addr()).expect("probe connect");
        let timing = self.time(|| c.ping().expect("ping"));
        self.push("server.rtt_floor_us", "us", timing, 1);
        let (in_process_s, _) = self.time(|| {
            black_box(self.fx.db.execute(sql).expect("main statement in-process"));
        });
        let (wire_s, calls) = self.time(|| {
            black_box(c.execute(sql).expect("main statement over the wire"));
        });
        self.push(
            "server.overhead_us",
            "us",
            (wire_s - in_process_s, calls),
            1,
        );
    }

    /// core: every closed-form model rebuilt from one Γ. (K-means is
    /// not among them: it warm-starts from a scan, not from Γ alone.)
    fn core(&mut self) {
        let names = x_cols(self.d());
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let gamma = self
            .private
            .compute_nlq(TABLE, &names, MatrixShape::Triangular)
            .expect("Γ");
        let spec = RefreshSpec::all(self.d().min(4));
        let timing = self.time(|| {
            black_box(GammaModelSet::build(&gamma, spec).expect("fit from Γ"));
        });
        self.push("core.fit_from_gamma_us", "us", timing, 1);
    }
}
