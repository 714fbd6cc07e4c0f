//! Workload definitions and the fixture each one runs against: data,
//! engine, summary, model and an in-process server on loopback.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use nlq_engine::sqlgen::x_cols;
use nlq_engine::{Db, SqlEngine};
use nlq_linalg::Vector;
use nlq_models::{MatrixShape, Nlq};
use nlq_server::{serve, ServerConfig, ServerHandle};

use crate::gen;

/// Name of the one data table every workload serves.
pub const TABLE: &str = "X";
/// Name of the published regression model table.
pub const MODEL: &str = "BETA";
/// Name of the Γ summary on [`TABLE`].
pub const SUMMARY: &str = "bench_s";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GammaScan,
    ScoreStream,
    PointServe,
    IngestDurable,
    ServeUnderIngest,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::GammaScan,
        Workload::ScoreStream,
        Workload::PointServe,
        Workload::IngestDurable,
        Workload::ServeUnderIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GammaScan => "gamma_scan",
            Workload::ScoreStream => "score_stream",
            Workload::PointServe => "point_serve",
            Workload::IngestDurable => "ingest_durable",
            Workload::ServeUnderIngest => "serve_under_ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the engine behind this workload is WAL-backed.
    pub fn durable(self) -> bool {
        matches!(self, Workload::IngestDurable | Workload::ServeUnderIngest)
    }
}

/// Everything about a run that must match before two results may be
/// compared.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    /// Rows bulk-loaded before the server boots.
    pub n: usize,
    /// Float columns `X1..Xd`.
    pub d: usize,
    /// `LIMIT` of the bounded scoring statements.
    pub limit: usize,
    /// Keys per `batch_score` request.
    pub keys: usize,
    /// Rows per ingest envelope.
    pub envelope_rows: usize,
    /// `ingest_durable`: envelopes per round, over all clients.
    pub round_envelopes: usize,
    /// `serve_under_ingest`: the writer's fixed rate, envelopes/s.
    pub pace_per_s: f64,
    /// Auto-checkpoint threshold of durable workloads, WAL bytes.
    pub checkpoint_bytes: u64,
}

impl Sizes {
    pub fn of(workload: Workload, smoke: bool) -> Sizes {
        let shrink = if smoke { 50 } else { 1 };
        let (n, d) = match workload {
            // ≈ 68 MB of column data: larger than the CPU caches.
            Workload::GammaScan => (500_000 / shrink, 16),
            _ => (100_000 / shrink, 8),
        };
        let envelope_rows = 256;
        // A round grows the loaded table by about 30 %: appending
        // copies the table, so the cost of an envelope follows the
        // table's size, and a round must not move that size far.
        let round_envelopes = 120 / shrink.min(6);
        // The log takes about 1.2 bytes per byte of row data. The
        // thresholds make the log reach them three times in a round of
        // `ingest_durable`, and three times in the about 340 envelopes
        // the paced writer of `serve_under_ingest` sends.
        let envelope_wal_bytes = (envelope_rows * (d + 1) * 8 * 12 / 10) as u64;
        let checkpoint_bytes = match workload {
            Workload::IngestDurable => envelope_wal_bytes * round_envelopes as u64 * 2 / 7,
            _ => envelope_wal_bytes * 100,
        };
        Sizes {
            n,
            d,
            limit: 256,
            keys: 256,
            envelope_rows,
            round_envelopes,
            pace_per_s: 20.0,
            checkpoint_bytes,
        }
    }
}

/// The statements the workloads send, built once per fixture.
pub struct Sql {
    pub gamma: String,
    pub gamma_filtered: String,
    pub score_all: String,
    pub score_limit: String,
    pub score_filtered: String,
    pub count: String,
    /// Γ by a scan no summary can answer (the predicate keeps every
    /// row but forces the scan path).
    pub gamma_forced_scan: String,
}

impl Sql {
    fn new(sizes: &Sizes) -> Sql {
        let d = sizes.d;
        let cols = x_cols(d).join(", ");
        let xs: Vec<String> = (1..=d).map(|a| format!("x.X{a}")).collect();
        let bs: Vec<String> = (1..=d).map(|a| format!("b.b{a}")).collect();
        let gamma = format!("SELECT nlq_list({d}, 'triang', {cols}) FROM {TABLE}");
        let score_all = format!(
            "SELECT x.i, linearregscore({}, b.b0, {}) FROM {TABLE} x CROSS JOIN {MODEL} b",
            xs.join(", "),
            bs.join(", ")
        );
        Sql {
            gamma_filtered: format!("{gamma} WHERE X1 > 0"),
            gamma_forced_scan: format!("{gamma} WHERE i > 0"),
            gamma,
            score_limit: format!("{score_all} LIMIT {}", sizes.limit),
            score_filtered: format!(
                "{score_all} WHERE x.X1 > 0 OR x.X2 > 0 LIMIT {}",
                sizes.limit
            ),
            score_all,
            count: format!("SELECT count(*) FROM {TABLE}"),
        }
    }
}

/// Regression coefficients the scoring statements use.
#[derive(Debug, Clone)]
pub struct Model {
    pub b0: f64,
    pub beta: Vec<f64>,
}

impl Model {
    fn new(d: usize) -> Model {
        Model {
            b0: 1.0,
            beta: (0..d).map(|a| 0.25 * (a as f64 + 1.0)).collect(),
        }
    }

    pub fn score(&self, x: &[f64]) -> f64 {
        self.b0 + self.beta.iter().zip(x).map(|(b, v)| b * v).sum::<f64>()
    }
}

/// A directory under `.bench_tmp/` in the working directory, removed
/// when dropped — on success, failure or unwinding alike.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn new(label: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = PathBuf::from(".bench_tmp").join(format!(
            "{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir under the working directory");
        TempDir { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Succeeds only once the last temp dir is gone.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Closed-loop client connections: every core busy, never more.
pub fn clients() -> usize {
    host_cpus().min(2)
}

/// One workload's system under test, ready to serve.
pub struct Fixture {
    pub workload: Workload,
    pub sizes: Sizes,
    pub seed: u64,
    pub db: Arc<Db>,
    pub server: ServerHandle,
    pub sql: Sql,
    pub model: Model,
    /// The bulk-loaded points, kept for local scoring (row `i` of the
    /// table is `points[i - 1]`).
    pub points: Arc<Vec<Vec<f64>>>,
    /// Γ of the bulk-loaded rows from an in-process `compute_nlq`.
    pub gamma: Option<Nlq>,
    /// Γ of the rows with `X1 > 0`, computed locally from the points.
    pub gamma_filtered: Option<Nlq>,
    /// Present for durable workloads; holds the WAL and checkpoints.
    pub wal_dir: Option<TempDir>,
    /// Seconds this fixture took to build, server boot included.
    pub setup_s: f64,
}

impl Fixture {
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Builds the fixture: data generation, load, `CREATE SUMMARY`,
    /// model registration and server boot — everything `setup_s`
    /// covers.
    pub fn build(workload: Workload, sizes: &Sizes, seed: u64) -> Fixture {
        let started = Instant::now();
        let workers = host_cpus();
        let wal_dir = workload.durable().then(|| TempDir::new(workload.name()));
        let db = match &wal_dir {
            Some(dir) => Db::open_durable(workers, dir.path(), true).expect("open durable engine"),
            None => Db::new(workers),
        };
        let d = sizes.d;
        let points = gen::points(sizes.n, d, seed);
        db.load_points(TABLE, &points, false).expect("bulk load");
        let model = Model::new(d);
        db.register_beta(MODEL, model.b0, &Vector::from_slice(&model.beta))
            .expect("register model");

        let col_names = x_cols(d);
        let col_refs: Vec<&str> = col_names.iter().map(String::as_str).collect();
        // The references the read-only workloads check Γ against,
        // taken before the summary exists, so the first is a real scan.
        let check_gamma = matches!(workload, Workload::GammaScan | Workload::PointServe);
        let gamma = check_gamma.then(|| {
            db.compute_nlq(TABLE, &col_refs, MatrixShape::Triangular)
                .expect("in-process Γ")
        });
        let gamma_filtered = (workload == Workload::GammaScan).then(|| {
            let kept = points.iter().filter(|p| p[0] > 0.0).map(Vec::as_slice);
            Nlq::from_points(d, MatrixShape::Triangular, kept)
        });
        // `gamma_scan` measures the scan, so its table has no summary.
        if workload != Workload::GammaScan {
            db.execute(&format!(
                "CREATE SUMMARY {SUMMARY} ON {TABLE} ({}) SHAPE triang",
                col_names.join(", ")
            ))
            .expect("create summary");
        }
        // A bulk load bypasses the WAL; the checkpoint makes it durable.
        if workload.durable() {
            db.checkpoint().expect("checkpoint the bulk load");
        }
        // Only the workloads that score locally keep the points.
        let points = match workload {
            Workload::GammaScan | Workload::IngestDurable => Vec::new(),
            _ => points,
        };
        let points = Arc::new(points);

        let db = Arc::new(db);
        let server = serve(
            Arc::clone(&db) as Arc<dyn SqlEngine>,
            ServerConfig {
                workers,
                checkpoint_bytes: workload.durable().then_some(sizes.checkpoint_bytes),
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback");
        Fixture {
            workload,
            sizes: sizes.clone(),
            seed,
            db,
            server,
            sql: Sql::new(sizes),
            model,
            points,
            gamma,
            gamma_filtered,
            wal_dir,
            setup_s: started.elapsed().as_secs_f64(),
        }
    }
}
