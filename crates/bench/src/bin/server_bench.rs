//! Network service benchmark: queries/second through `nlq-server` for
//! the paper's hot request shapes — scoring a data set with a scalar
//! UDF (bounded response), the same scoring query streamed in full
//! (every scored row chunked over the wire), scoring restricted by a
//! `WHERE` clause (selection-bitmap block scan), and answering the Γ
//! aggregate from a materialized summary (no scan) — measured
//! end-to-end over loopback TCP with concurrent client connections.
//! A second server backed by a sharded engine (`--shards S`) measures
//! scatter/gather scoring (`sharded_scoring`) and repeated-text
//! statement throughput through the prepared-plan cache
//! (`plan_cache`), and an in-process scaling run times the same
//! block-scan Γ aggregate at 1 shard vs S shards. Feature-serving
//! workloads cover streaming ingest (`ingest`, per-envelope
//! header→ack latency), keyed batch scoring through the PK index
//! (`batch_score`, Zipf-skewed keys), and reads under concurrent
//! ingest (`read_while_ingest`, asserting the summary and block fast
//! paths hold); every workload reports client-observed p50/p99/p999. A
//! durability pair (`durable_ingest_fsync` / `durable_ingest_nofsync`)
//! re-runs the ingest workload against WAL-backed engines opened on
//! throwaway directories, pricing the fsync-per-commit ack guarantee
//! against group commit without fsync. An introspection workload
//! (`sys_catalog`) prices what a dashboard poll costs the serving
//! path: every request snapshots the live trace ring into a
//! `sys.queries` table and answers a filtered aggregate over it
//! through the block path.
//! Emits `BENCH_server.json`.
//!
//! Usage:
//!
//! ```text
//! server_bench [--out PATH] [--smoke] [--clients C] [--queries Q] [--shards S]
//! ```
//!
//! `--smoke` shrinks the data set and query counts so CI can run the
//! binary end-to-end in about a second.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use nlq_bench::mixture_data;
use nlq_client::Client;
use nlq_engine::{Db, SqlEngine};
use nlq_linalg::Vector;
use nlq_server::{serve, ServerConfig};
use nlq_shard::ShardedDb;
use nlq_storage::Value;

struct Measurement {
    workload: &'static str,
    clients: usize,
    queries: usize,
    secs: f64,
    qps: f64,
    /// Client-observed per-request latency percentiles, microseconds.
    /// The p999 tail is what serving SLOs are written against — a
    /// snapshot-heavy or fsync-bound workload shows there first.
    p50_micros: f64,
    p99_micros: f64,
    p999_micros: f64,
    /// Workload-specific scalars (rows/sec for ingest, keys/request for
    /// batch scoring) rendered as extra JSON fields.
    extra: Vec<(&'static str, f64)>,
    /// Fraction of total statement wall time spent in each phase,
    /// aggregated from the server's trace ring for this workload.
    phase_shares: Vec<(String, f64)>,
}

/// Deterministic Zipf-style key sampler over `1..=n` (exponent ~1.1):
/// cumulative harmonic weights + xorshift64* inverse-CDF lookup, so the
/// batch-scoring workload hammers a skewed hot set the way a feature
/// store serving production traffic does.
struct Zipf {
    cum: Vec<f64>,
    state: u64,
}

impl Zipf {
    fn new(n: usize, seed: u64) -> Zipf {
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(1.1);
            cum.push(total);
        }
        Zipf {
            cum,
            state: seed.max(1),
        }
    }

    fn sample(&mut self) -> i64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let u = (r >> 11) as f64 / (1u64 << 53) as f64;
        let target = u * self.cum.last().copied().unwrap_or(1.0);
        let idx = self.cum.partition_point(|&c| c < target);
        (idx.min(self.cum.len() - 1) + 1) as i64
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let mut out_path = String::from("BENCH_server.json");
    let mut smoke = false;
    let mut clients = 8usize;
    let mut queries = 0usize; // 0 = pick per mode
    let mut shards = 4usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--smoke" => smoke = true,
            "--clients" => {
                clients = args
                    .next()
                    .expect("--clients needs a count")
                    .parse()
                    .expect("--clients count")
            }
            "--queries" => {
                queries = args
                    .next()
                    .expect("--queries needs a count")
                    .parse()
                    .expect("--queries count")
            }
            "--shards" => {
                shards = args
                    .next()
                    .expect("--shards needs a count")
                    .parse()
                    .expect("--shards count")
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    let (n, d) = if smoke { (2_000, 4) } else { (100_000, 8) };
    let per_client = if queries > 0 {
        queries
    } else if smoke {
        10
    } else {
        100
    };

    let workers = std::thread::available_parallelism().map_or(4, |p| p.get());
    let db = Arc::new(Db::new(workers));
    let rows = mixture_data(n, d, 0x5e12);
    db.load_points("X", &rows, false).expect("load");
    let cols = (1..=d).map(|a| format!("X{a}")).collect::<Vec<_>>();
    db.execute(&format!(
        "CREATE SUMMARY bench_s ON X ({}) SHAPE triang",
        cols.join(", ")
    ))
    .expect("create summary");
    let beta = Vector::from_vec((0..d).map(|a| 0.25 * (a as f64 + 1.0)).collect());
    db.register_beta("BETA", 1.0, &beta).expect("register beta");

    let mut handle = serve(
        Arc::clone(&db) as Arc<dyn nlq_engine::SqlEngine>,
        ServerConfig {
            workers,
            max_connections: clients + 4,
            // Small enough that the streamed workload really exercises
            // multi-chunk result delivery.
            chunk_bytes: 256 << 10,
            // Large enough to retain every statement of the biggest
            // workload, so phase shares aggregate the whole run.
            trace_ring: 4096,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();
    eprintln!("serving on {addr} (n={n}, d={d}, {clients} clients, {per_client} queries each)");

    let xs: Vec<String> = cols.iter().map(|c| format!("x.{c}")).collect();
    let bs: Vec<String> = (1..=d).map(|a| format!("b.b{a}")).collect();
    // LIMIT keeps the response transfer bounded so the measurement
    // tracks request throughput, not result-set streaming volume.
    let scoring_sql = format!(
        "SELECT x.i, linearregscore({}, b.b0, {}) FROM X x CROSS JOIN BETA b LIMIT 256",
        xs.join(", "),
        bs.join(", ")
    );
    // The same scoring shape with no LIMIT: all n scored rows come
    // back, chunk frame by chunk frame — the streaming data path.
    let streamed_sql = format!(
        "SELECT x.i, linearregscore({}, b.b0, {}) FROM X x CROSS JOIN BETA b",
        xs.join(", "),
        bs.join(", ")
    );
    // Scoring restricted by a WHERE clause: the predicate compiles to
    // a selection bitmap, so the UDF only sees the qualifying rows.
    let filtered_sql = format!(
        "SELECT x.i, linearregscore({}, b.b0, {}) FROM X x CROSS JOIN BETA b \
         WHERE x.X1 > 0 OR x.X2 > 0 LIMIT 256",
        xs.join(", "),
        bs.join(", ")
    );
    let summary_sql = format!("SELECT nlq_list({d}, 'triang', {}) FROM X", cols.join(", "));

    // The filtered scoring query must ride the vectorized block path;
    // guard the bench (and the CI smoke run) against silently
    // regressing to the row interpreter.
    {
        let mut c = Client::connect(addr).expect("explain connect");
        let rs = c
            .execute(&format!("EXPLAIN {filtered_sql}"))
            .expect("explain filtered scoring");
        let plan = rs
            .rows
            .iter()
            .filter_map(|r| r[0].as_str())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(
            plan.contains("scan mode: block") && plan.contains("predicate(s) as selection bitmap"),
            "filtered scoring must stay on the block path:\n{plan}"
        );
    }

    // Streamed queries move ~n rows of payload each; run fewer of
    // them so the workload finishes in the same ballpark.
    let per_client_streamed = (per_client / 4).max(2);
    let mut results = Vec::new();
    let mut last_trace_id = 0u64;
    for (workload, sql, expect_summary, queries_each) in [
        ("scoring_udf", &scoring_sql, false, per_client),
        (
            "streamed_scoring",
            &streamed_sql,
            false,
            per_client_streamed,
        ),
        ("filtered_scoring", &filtered_sql, false, per_client),
        ("summary_hit", &summary_sql, true, per_client),
    ] {
        eprintln!("measuring {workload} ...");
        let mut m = measure(addr, workload, sql, expect_summary, clients, queries_each);
        // Where did the time go? Aggregate this workload's per-phase
        // wall time out of the server's retained traces.
        (m.phase_shares, last_trace_id) = phase_shares(addr, last_trace_id);
        results.push(m);
    }

    // ---- Feature-serving workloads: streaming ingest, batch scoring
    // over the PK index (Zipf keys), and reads under concurrent ingest.
    let per_client_ingest = (per_client / 4).max(2);
    let keys_per_request = if smoke { 64 } else { 256 };
    eprintln!("measuring ingest ...");
    results.push(measure_ingest(
        addr,
        "X",
        d,
        clients,
        per_client_ingest,
        100_000_000,
    ));
    eprintln!("measuring batch_score ...");
    results.push(measure_batch_score(
        addr,
        "X",
        "BETA",
        n,
        clients,
        per_client,
        keys_per_request,
    ));
    eprintln!("measuring read_while_ingest ...");
    results.push(measure_read_while_ingest(
        addr,
        "X",
        d,
        &summary_sql,
        &filtered_sql,
        clients,
        per_client,
        500_000_000,
    ));

    // ---- Introspection workload: every request is a filtered Γ
    // aggregate over `sys.queries`, so each round trip pays for a
    // fresh snapshot of the trace ring plus a block scan over it —
    // the cost of a dashboard polling the catalog on the hot path.
    {
        // Skip earlier workloads' trace records so the phase shares
        // below reflect only the catalog queries.
        (_, last_trace_id) = phase_shares(addr, last_trace_id);
        eprintln!("measuring sys_catalog ...");
        let mut m = measure(
            addr,
            "sys_catalog",
            "SELECT count(*), sum(total_us), sum(cpu_us) FROM sys.queries WHERE ok = 1",
            false,
            clients,
            per_client,
        );
        (m.phase_shares, _) = phase_shares(addr, last_trace_id);
        results.push(m);
    }
    handle.shutdown();

    // ---- Durable ingest: the same envelope stream, now logged to a
    // write-ahead log before the ack. `fsync` prices the full
    // durable-at-ack guarantee (one fsync per group commit); `nofsync`
    // keeps the log but lets the OS page cache absorb it — the gap
    // between the two is what crash-safety costs on this host.
    for (workload, fsync) in [
        ("durable_ingest_fsync", true),
        ("durable_ingest_nofsync", false),
    ] {
        eprintln!("measuring {workload} ...");
        let dir = std::env::temp_dir().join(format!(
            "nlq-bench-wal-{}-{}",
            std::process::id(),
            if fsync { "fsync" } else { "nofsync" }
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create wal dir");
        let ddb = Db::open_durable(workers, &dir, fsync).expect("open durable");
        ddb.execute(&format!(
            "CREATE TABLE X (i INT, {})",
            cols.iter()
                .map(|c| format!("{c} FLOAT"))
                .collect::<Vec<_>>()
                .join(", ")
        ))
        .expect("durable create table");
        let mut dhandle = serve(
            Arc::new(ddb) as Arc<dyn nlq_engine::SqlEngine>,
            ServerConfig {
                workers,
                max_connections: clients + 4,
                ..ServerConfig::default()
            },
        )
        .expect("bind durable loopback");
        let mut m = measure_ingest(dhandle.addr(), "X", d, clients, per_client_ingest, 0);
        m.workload = workload;
        results.push(m);
        dhandle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- Sharded server: scatter/gather scoring and the plan cache ----
    //
    // A fresh server backed by `ShardedDb`: the same points round-robin
    // partitioned over `shards` engine shards, BETA replicated to all of
    // them. Scoring scatters to every shard and concatenates; repeated
    // statement text after the first request is served from the
    // prepared-plan cache (no parse phase).
    eprintln!("booting sharded server ({shards} shards) ...");
    let sdb = Arc::new(ShardedDb::new(shards, 1));
    sdb.load_points("X", &rows, false).expect("sharded load");
    sdb.register_beta("BETA", 1.0, &beta)
        .expect("sharded register beta");
    let mut shandle = serve(
        Arc::clone(&sdb) as Arc<dyn nlq_engine::SqlEngine>,
        ServerConfig {
            workers,
            max_connections: clients + 4,
            chunk_bytes: 256 << 10,
            trace_ring: 4096,
            ..ServerConfig::default()
        },
    )
    .expect("bind sharded loopback");
    let saddr = shandle.addr();
    // Repeated identical text: every request after the first is a plan
    // cache hit, so the workload isolates cached-plan dispatch.
    let cached_sql = format!(
        "SELECT count(*), avg(X1), nlq_list({d}, 'triang', {}) FROM X",
        cols.join(", ")
    );
    let mut last_sharded_trace = 0u64;
    for (workload, sql, queries_each) in [
        ("sharded_scoring", &scoring_sql, per_client),
        ("plan_cache", &cached_sql, per_client),
    ] {
        eprintln!("measuring {workload} ...");
        let mut m = measure(saddr, workload, sql, false, clients, queries_each);
        (m.phase_shares, last_sharded_trace) = phase_shares(saddr, last_sharded_trace);
        results.push(m);
    }
    let cache_stats = sdb
        .engine_stats()
        .plan_cache
        .expect("sharded engine keeps a cache");
    shandle.shutdown();

    // ---- Shard scaling: the same Γ block-scan aggregate, 1 vs S shards ----
    let scaling = measure_scaling(if smoke { 20_000 } else { 1_000_000 }, d, shards, smoke);

    let json = render_json(
        workers,
        smoke,
        n,
        d,
        shards,
        (cache_stats.hits, cache_stats.misses),
        &results,
        &scaling,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_server.json");
    println!("{json}");
    eprintln!("wrote {out_path}");
}

fn measure(
    addr: std::net::SocketAddr,
    workload: &'static str,
    sql: &str,
    expect_summary: bool,
    clients: usize,
    per_client: usize,
) -> Measurement {
    // Warm up one connection (first-touch costs: page cache, summary
    // freshness check) before timing the fleet.
    {
        let mut c = Client::connect(addr).expect("warmup connect");
        let rs = c.execute(sql).expect("warmup query");
        assert_eq!(rs.stats.summary_path, expect_summary, "{workload}");
    }
    let started = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|_| {
            let sql = sql.to_owned();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("client connect");
                let mut lat = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let t0 = Instant::now();
                    let rs = c.execute(&sql).expect("bench query");
                    lat.push(t0.elapsed().as_secs_f64() * 1e6);
                    assert!(!rs.rows.is_empty());
                }
                lat
            })
        })
        .collect();
    let mut lat = Vec::new();
    for t in threads {
        lat.extend(t.join().expect("bench client"));
    }
    let secs = started.elapsed().as_secs_f64();
    let queries = clients * per_client;
    lat.sort_by(f64::total_cmp);
    Measurement {
        workload,
        clients,
        queries,
        secs,
        qps: queries as f64 / secs,
        p50_micros: percentile(&lat, 0.50),
        p99_micros: percentile(&lat, 0.99),
        p999_micros: percentile(&lat, 0.999),
        extra: Vec::new(),
        phase_shares: Vec::new(),
    }
}

/// One synthetic feature row keyed by `key`: `d` floats derived from
/// the key so repeated runs ingest identical bytes.
fn feature_row(key: i64, d: usize) -> Vec<Value> {
    let mut row = Vec::with_capacity(d + 1);
    row.push(Value::Int(key));
    for a in 1..=d {
        row.push(Value::Float(((key * a as i64) % 997) as f64 * 0.125));
    }
    row
}

/// Streaming-ingest throughput: each client drives `per_client`
/// envelopes of `chunks × rows_per_chunk` feature rows through the
/// chunked INSERT grammar into the (summarized) points table, timing
/// each header→ack round trip. Key ranges are disjoint per client so
/// the PK index grows without collisions.
fn measure_ingest(
    addr: std::net::SocketAddr,
    table: &'static str,
    d: usize,
    clients: usize,
    per_client: usize,
    key_base: i64,
) -> Measurement {
    let chunks = 4usize;
    let rows_per_chunk = 128usize;
    let columns: Vec<String> = std::iter::once("i".to_string())
        .chain((1..=d).map(|a| format!("X{a}")))
        .collect();
    let started = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|t| {
            let columns = columns.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("ingest connect");
                let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                let mut key = key_base + t as i64 * 10_000_000;
                let mut lat = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let t0 = Instant::now();
                    let mut ing = c.begin_ingest(table, &cols).expect("begin ingest");
                    for _ in 0..chunks {
                        let rows: Vec<Vec<Value>> = (0..rows_per_chunk)
                            .map(|_| {
                                key += 1;
                                feature_row(key, d)
                            })
                            .collect();
                        ing.chunk(rows).expect("ingest chunk");
                    }
                    let acked = ing.finish().expect("ingest ack");
                    lat.push(t0.elapsed().as_secs_f64() * 1e6);
                    assert_eq!(acked, (chunks * rows_per_chunk) as u64);
                }
                lat
            })
        })
        .collect();
    let mut lat = Vec::new();
    for t in threads {
        lat.extend(t.join().expect("ingest client"));
    }
    let secs = started.elapsed().as_secs_f64();
    let envelopes = clients * per_client;
    let rows = envelopes * chunks * rows_per_chunk;
    lat.sort_by(f64::total_cmp);
    Measurement {
        workload: "ingest",
        clients,
        queries: envelopes,
        secs,
        qps: envelopes as f64 / secs,
        p50_micros: percentile(&lat, 0.50),
        p99_micros: percentile(&lat, 0.99),
        p999_micros: percentile(&lat, 0.999),
        extra: vec![
            ("rows_per_envelope", (chunks * rows_per_chunk) as f64),
            ("rows_per_sec", rows as f64 / secs),
        ],
        phase_shares: Vec::new(),
    }
}

/// Batch-scoring latency: every request scores `keys_per_request`
/// Zipf-distributed keys against the published coefficients in one
/// round trip through the PK index (no table scan).
fn measure_batch_score(
    addr: std::net::SocketAddr,
    table: &'static str,
    model: &'static str,
    n: usize,
    clients: usize,
    per_client: usize,
    keys_per_request: usize,
) -> Measurement {
    let started = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("score connect");
                let mut zipf = Zipf::new(n, 0x9e37_79b9 ^ (t as u64 + 1));
                let mut lat = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let keys: Vec<i64> = (0..keys_per_request).map(|_| zipf.sample()).collect();
                    let t0 = Instant::now();
                    let rs = c
                        .batch_score(table, model, &keys, false)
                        .expect("batch score");
                    lat.push(t0.elapsed().as_secs_f64() * 1e6);
                    assert_eq!(rs.rows.len(), keys.len());
                    // Point lookups, not a scan: the server may touch at
                    // most one stored row per requested key.
                    assert!(rs.stats.rows_scanned <= keys.len() as u64);
                }
                lat
            })
        })
        .collect();
    let mut lat = Vec::new();
    for t in threads {
        lat.extend(t.join().expect("score client"));
    }
    let secs = started.elapsed().as_secs_f64();
    let requests = clients * per_client;
    lat.sort_by(f64::total_cmp);
    Measurement {
        workload: "batch_score",
        clients,
        queries: requests,
        secs,
        qps: requests as f64 / secs,
        p50_micros: percentile(&lat, 0.50),
        p99_micros: percentile(&lat, 0.99),
        p999_micros: percentile(&lat, 0.999),
        extra: vec![
            ("keys_per_request", keys_per_request as f64),
            ("keys_per_sec", (requests * keys_per_request) as f64 / secs),
        ],
        phase_shares: Vec::new(),
    }
}

/// Mixed serving: one writer streams ingest envelopes into the table
/// without pause while reader clients alternate the summary-answered Γ
/// aggregate and the filtered block-scan scoring query. Every reader
/// response is asserted to stay on its fast path — the Γ aggregate on
/// the summary (folds keep it fresh mid-ingest), the scan on the
/// vectorized block path — so concurrent ingest demonstrably never
/// degrades reads to a row-interpreted or rebuild path.
#[allow(clippy::too_many_arguments)]
fn measure_read_while_ingest(
    addr: std::net::SocketAddr,
    table: &'static str,
    d: usize,
    summary_sql: &str,
    filtered_sql: &str,
    clients: usize,
    per_client: usize,
    key_base: i64,
) -> Measurement {
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("writer connect");
            let columns: Vec<String> = std::iter::once("i".to_string())
                .chain((1..=d).map(|a| format!("X{a}")))
                .collect();
            let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
            let mut key = key_base;
            let mut rows_sent = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let mut ing = c.begin_ingest(table, &cols).expect("begin ingest");
                for _ in 0..2 {
                    let rows: Vec<Vec<Value>> = (0..128)
                        .map(|_| {
                            key += 1;
                            feature_row(key, d)
                        })
                        .collect();
                    ing.chunk(rows).expect("writer chunk");
                }
                rows_sent += ing.finish().expect("writer ack");
            }
            rows_sent
        })
    };
    let started = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|_| {
            let summary_sql = summary_sql.to_owned();
            let filtered_sql = filtered_sql.to_owned();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("reader connect");
                let mut lat = Vec::with_capacity(per_client);
                for q in 0..per_client {
                    let on_summary = q % 2 == 0;
                    let sql = if on_summary {
                        &summary_sql
                    } else {
                        &filtered_sql
                    };
                    let t0 = Instant::now();
                    let rs = c.execute(sql).expect("reader query");
                    lat.push(t0.elapsed().as_secs_f64() * 1e6);
                    if on_summary {
                        assert!(
                            rs.stats.summary_path,
                            "Γ aggregate fell off the summary path mid-ingest"
                        );
                    } else {
                        assert!(
                            rs.stats.block_path,
                            "filtered scoring fell off the block path mid-ingest"
                        );
                    }
                }
                lat
            })
        })
        .collect();
    let mut lat = Vec::new();
    for t in threads {
        lat.extend(t.join().expect("reader client"));
    }
    let secs = started.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let rows_ingested = writer.join().expect("writer");
    assert!(rows_ingested > 0, "writer never committed an envelope");
    let queries = clients * per_client;
    lat.sort_by(f64::total_cmp);
    Measurement {
        workload: "read_while_ingest",
        clients,
        queries,
        secs,
        qps: queries as f64 / secs,
        p50_micros: percentile(&lat, 0.50),
        p99_micros: percentile(&lat, 0.99),
        p999_micros: percentile(&lat, 0.999),
        extra: vec![("rows_ingested_concurrently", rows_ingested as f64)],
        phase_shares: Vec::new(),
    }
}

struct ScaleSample {
    shards: usize,
    queries: usize,
    secs: f64,
}

/// Times the block-scan Γ aggregate (`nlq_list` over every row, no
/// summary registered so the scan really runs) against an in-process
/// `ShardedDb` at 1 shard and at `shards` shards, one worker per
/// shard. Each shard scans its own n/S partition; the gather merges S
/// Γ partials, so on a host with ≥ S cores the wall time drops toward
/// n/S. The host core count is recorded alongside so single-core runs
/// read as what they are.
fn measure_scaling(n: usize, d: usize, shards: usize, smoke: bool) -> Vec<ScaleSample> {
    eprintln!("measuring shard scaling (n={n}, 1 vs {shards} shards) ...");
    let rows = mixture_data(n, d, 0x7a31);
    let cols = (1..=d)
        .map(|a| format!("X{a}"))
        .collect::<Vec<_>>()
        .join(", ");
    let sql = format!("SELECT nlq_list({d}, 'triang', {cols}) FROM S");
    let iters = if smoke { 3 } else { 8 };
    let mut out = Vec::new();
    for s in [1usize, shards] {
        let db = ShardedDb::new(s, 1);
        db.load_points("S", &rows, false).expect("scaling load");
        let rs = db.execute(&sql).expect("scaling warmup");
        assert_eq!(rs.stats.rows_scanned, n as u64, "scan must run");
        let started = Instant::now();
        for _ in 0..iters {
            db.execute(&sql).expect("scaling query");
        }
        out.push(ScaleSample {
            shards: s,
            queries: iters,
            secs: started.elapsed().as_secs_f64(),
        });
    }
    out
}

/// Fraction of total statement wall time attributable to each phase
/// over the retained traces with id greater than `after` — one
/// `GROUP BY phase` over `sys.spans`, normalized by the statements'
/// total wall time from `sys.queries`. Time no span covers (queueing,
/// relay waits) is reported as `other`, so the shares sum to 1 over the
/// workload. Returns the shares with the new high-water trace id; the
/// two catalog statements issued here land in the next window (two
/// statements among a workload's hundreds).
fn phase_shares(addr: std::net::SocketAddr, after: u64) -> (Vec<(String, f64)>, u64) {
    let mut c = Client::connect(addr).expect("trace connect");
    let rs = c
        .execute(&format!(
            "SELECT max(trace_id), sum(total_us) FROM sys.queries WHERE trace_id > {after}"
        ))
        .expect("sys.queries totals");
    let total = rs.value(0, 1).as_f64().filter(|t| *t > 0.0);
    let (Some(upto), Some(total)) = (rs.value(0, 0).as_i64(), total) else {
        return (Vec::new(), after);
    };
    // Bounded above so this session's own catalog queries stay out.
    let rs = c
        .execute(&format!(
            "SELECT phase, sum(dur_us) FROM sys.spans \
             WHERE trace_id > {after} AND trace_id <= {upto} GROUP BY phase"
        ))
        .expect("sys.spans by phase");
    let mut by_phase: BTreeMap<String, f64> = rs
        .rows
        .iter()
        .map(|r| {
            let phase = r[0].as_str().expect("phase name").to_owned();
            (phase, r[1].as_f64().unwrap_or(0.0))
        })
        .collect();
    let spanned: f64 = by_phase.values().sum();
    *by_phase.entry("other".into()).or_default() += (total - spanned).max(0.0);
    let shares = by_phase
        .into_iter()
        .map(|(name, micros)| (name, micros / total))
        .collect();
    (shares, upto as u64)
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    workers: usize,
    smoke: bool,
    n: usize,
    d: usize,
    shards: usize,
    plan_cache: (u64, u64),
    results: &[Measurement],
    scaling: &[ScaleSample],
) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"bench\": \"server_qps\",");
    let _ = writeln!(
        s,
        "  \"transport\": \"loopback tcp, length-prefixed frames\","
    );
    let _ = writeln!(s, "  \"workers\": {workers},");
    let _ = writeln!(s, "  \"host_cpus\": {},", host_cpus());
    let _ = writeln!(s, "  \"shards\": {shards},");
    let _ = writeln!(
        s,
        "  \"plan_cache\": {{ \"hits\": {}, \"misses\": {} }},",
        plan_cache.0, plan_cache.1
    );
    let _ = writeln!(s, "  \"smoke\": {smoke},");
    let _ = writeln!(s, "  \"n\": {n},");
    let _ = writeln!(s, "  \"d\": {d},");
    let _ = writeln!(s, "  \"results\": [");
    for (i, m) in results.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"workload\": \"{}\",", m.workload);
        let _ = writeln!(s, "      \"clients\": {},", m.clients);
        let _ = writeln!(s, "      \"queries\": {},", m.queries);
        let _ = writeln!(s, "      \"total_secs\": {:.9},", m.secs);
        let _ = writeln!(s, "      \"queries_per_sec\": {:.3},", m.qps);
        let _ = writeln!(s, "      \"p50_micros\": {:.3},", m.p50_micros);
        let _ = writeln!(s, "      \"p99_micros\": {:.3},", m.p99_micros);
        let _ = writeln!(s, "      \"p999_micros\": {:.3},", m.p999_micros);
        for (name, value) in &m.extra {
            let _ = writeln!(s, "      \"{name}\": {value:.3},");
        }
        let _ = writeln!(s, "      \"phase_shares\": {{");
        for (j, (name, share)) in m.phase_shares.iter().enumerate() {
            let _ = writeln!(
                s,
                "        \"{name}\": {share:.6}{}",
                if j + 1 < m.phase_shares.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        let _ = writeln!(s, "      }}");
        let _ = writeln!(s, "    }}{}", if i + 1 < results.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"shard_scaling\": {{");
    let _ = writeln!(s, "    \"workload\": \"nlq_list block scan\",");
    if let [one, many] = scaling {
        let _ = writeln!(s, "    \"queries_each\": {},", one.queries);
        let _ = writeln!(s, "    \"secs_{}_shard\": {:.9},", one.shards, one.secs);
        let _ = writeln!(s, "    \"secs_{}_shards\": {:.9},", many.shards, many.secs);
        let _ = writeln!(s, "    \"speedup\": {:.3}", one.secs / many.secs);
    }
    let _ = writeln!(s, "  }}");
    s.push('}');
    s.push('\n');
    s
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}
