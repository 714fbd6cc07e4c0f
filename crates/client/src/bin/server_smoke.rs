//! Scripted end-to-end smoke session against a running `nlq-server`,
//! used by CI: load → CREATE SUMMARY → summary-hit aggregate → scoring
//! UDF query → chunked streaming → client-initiated cancel →
//! `sys.metrics` / `sys.queries` → SHUTDOWN. Introspection is SQL over
//! the `sys.*` catalog plus one Prometheus scrape; nothing else. Exits
//! nonzero on the first mismatch.
//!
//! ```text
//! server_smoke --addr HOST:PORT [--skip-shutdown] [--expect-chunks N]
//!              [--expect-slow] [--ingest] [--feed N]
//!              [--verify-recovery] [--sys]
//! ```
//!
//! `--expect-chunks N` asserts the large streamed query arrives in at
//! least `N` chunk frames (pair it with the server's `--chunk-bytes`).
//! `--expect-slow` asserts `sys.queries` marks every retained statement
//! slow afterward (pair it with the server's `--slow-query-ms 0`).
//! `--ingest` runs the feature-serving script instead (pair it with a
//! low server `--refresh-ms`): stream 10k rows through the chunked
//! INSERT grammar, wait for the refresh daemon to publish a model,
//! batch-score 1k keys through the PK index, abort an envelope
//! mid-stream, and check the serving counters down to Prometheus.
//! `--feed N` streams ingest envelopes into the existing `F` table
//! starting at key `N`, with no DDL and no shutdown — the CI crash job
//! backgrounds this and `kill -9`s the server mid-stream, so a dropped
//! connection is the expected way out (exit 0).
//! `--verify-recovery` runs after that server restarts on the same
//! `--wal-dir`: the row count must be a whole number of acked
//! envelopes, summary and scan paths must agree, `sys.wal` must carry
//! the recovery counters, the refresh daemon must republish a model,
//! and batch scores must still match the ingested formula.
//! `--sys` runs the introspection script instead: real statements must
//! be visible in `sys.queries` under their stream-minted query ids
//! with nonzero phase times, Γ aggregates must ride the block path over the catalog, and `sys.wal`
//! must reflect a `CHECKPOINT` on a durable server. It creates table
//! `SY` and drops it again, so it can run more than once against one
//! durable directory.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use nlq_client::{Client, ClientError};
use nlq_server::wire::ErrorCode;
use nlq_storage::Value;

fn run(
    addr: &str,
    skip_shutdown: bool,
    expect_chunks: u64,
    expect_slow: bool,
) -> Result<(), String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    c.ping().map_err(|e| format!("ping: {e}"))?;
    println!("session {} established", c.session_id());

    let stmts = [
        "CREATE TABLE X (i INT, X1 FLOAT, X2 FLOAT)",
        "INSERT INTO X VALUES (1, 1.0, 2.0), (2, 2.0, 4.0), (3, 3.0, 6.0), (4, 4.0, 8.0)",
        "CREATE SUMMARY s ON X (X1, X2)",
        "CREATE TABLE BETA (b0 FLOAT, b1 FLOAT, b2 FLOAT)",
        "INSERT INTO BETA VALUES (0.5, 2.0, -1.0)",
    ];
    for sql in stmts {
        c.execute(sql).map_err(|e| format!("{sql}: {e}"))?;
    }

    // Summary hit: answered without scanning.
    let rs = c
        .execute("SELECT count(*), sum(X1), sum(X2) FROM X")
        .map_err(|e| format!("aggregate: {e}"))?;
    if !rs.stats.summary_path || rs.stats.rows_scanned != 0 {
        return Err(format!("expected a summary hit, got {:?}", rs.stats));
    }
    let total_x1 = rs.value(0, 1).as_f64().unwrap_or(f64::NAN);
    if (total_x1 - 10.0).abs() > 1e-12 {
        return Err(format!("sum(X1) = {total_x1}, want 10"));
    }
    println!("summary hit ok (sum(X1) = {total_x1})");

    // Scoring UDF query: y = 0.5 + 2*X1 - X2 == 0.5 exactly here.
    let rs = c
        .execute(
            "SELECT x.i, linearregscore(x.X1, x.X2, b.b0, b.b1, b.b2) \
             FROM X x CROSS JOIN BETA b",
        )
        .map_err(|e| format!("score: {e}"))?;
    if rs.rows.len() != 4 {
        return Err(format!("score returned {} rows, want 4", rs.rows.len()));
    }
    for (i, row) in rs.rows.iter().enumerate() {
        let y = row[1].as_f64().unwrap_or(f64::NAN);
        if (y - 0.5).abs() > 1e-12 {
            return Err(format!("score row {i} = {y}, want 0.5"));
        }
    }
    println!(
        "scoring ok ({} rows, block_path={})",
        rs.rows.len(),
        rs.stats.block_path
    );

    // Streamed delivery: a result big enough to span several chunk
    // frames must arrive complete, in order, with a verified trailer.
    c.execute("CREATE TABLE BIG (i INT, X1 FLOAT)")
        .map_err(|e| format!("create BIG: {e}"))?;
    let values: Vec<String> = (0..1000).map(|i| format!("({i}, {i}.25)")).collect();
    for batch in values.chunks(250) {
        c.execute(&format!("INSERT INTO BIG VALUES {}", batch.join(", ")))
            .map_err(|e| format!("fill BIG: {e}"))?;
    }
    let mut stream = c
        .query("SELECT i, X1 FROM BIG")
        .map_err(|e| format!("stream: {e}"))?;
    // Scan order follows the table's partitions, not insertion order;
    // verify the stream is complete and self-consistent instead.
    let mut seen_i = Vec::new();
    for (n, row) in stream.by_ref().enumerate() {
        let row = row.map_err(|e| format!("stream row {n}: {e}"))?;
        let i = row[0]
            .as_i64()
            .ok_or_else(|| format!("stream row {n} has no int key: {row:?}"))?;
        let x1 = row[1].as_f64().unwrap_or(f64::NAN);
        if (x1 - (i as f64 + 0.25)).abs() > 1e-12 {
            return Err(format!("stream row {n} torn: {row:?}"));
        }
        seen_i.push(i);
    }
    let streamed_rows = seen_i.len() as u64;
    seen_i.sort_unstable();
    seen_i.dedup();
    if seen_i.len() as u64 != streamed_rows {
        return Err("stream delivered duplicate rows".into());
    }
    let chunks = stream.chunks_received();
    if stream.stats().is_none() {
        return Err("stream ended without a verified trailer".into());
    }
    drop(stream);
    if streamed_rows != 1000 {
        return Err(format!("streamed {streamed_rows} rows, want 1000"));
    }
    if expect_chunks > 0 && chunks < expect_chunks {
        return Err(format!(
            "result arrived in {chunks} chunks, want >= {expect_chunks}"
        ));
    }
    println!("streaming ok ({streamed_rows} rows in {chunks} chunks)");

    // Client-initiated cancel: abandon a stream mid-flight. The drop
    // sends Cancel and drains to the terminal frame, whichever side
    // wins the race — the session must stay usable either way.
    let stream = c
        .query("SELECT i, X1 FROM BIG")
        .map_err(|e| format!("cancel stream: {e}"))?;
    drop(stream);
    c.ping().map_err(|e| format!("ping after cancel: {e}"))?;
    println!("cancel ok (session survives an abandoned stream)");

    // sys.metrics must reflect this very session.
    let executes = c
        .metric("command_requests_total", "command=\"execute\"")
        .map_err(|e| e.to_string())?;
    if executes < 7.0 {
        return Err(format!("execute count {executes}, want >= 7"));
    }
    let cancels = c.metric("cancel_requests", "").map_err(|e| e.to_string())?;
    if cancels < 1.0 {
        return Err(format!("cancel_requests {cancels}, want >= 1"));
    }
    let streamed = c.metric("chunks_streamed", "").map_err(|e| e.to_string())?;
    if streamed < chunks as f64 {
        return Err(format!("chunks_streamed {streamed}, want >= {chunks}"));
    }
    let hits = c.metric("summary_hits", "").map_err(|e| e.to_string())?;
    if hits < 1.0 {
        return Err(format!("summary_hits {hits}, want >= 1"));
    }
    println!("metrics ok ({executes} executes, {hits} summary hits)");

    // EXPLAIN ANALYZE executes the statement and reports the phase
    // breakdown, scan mode, and rows scanned.
    let rs = c
        .execute("EXPLAIN ANALYZE SELECT i, X1 FROM BIG")
        .map_err(|e| format!("explain analyze: {e}"))?;
    let plan: Vec<String> = rs
        .rows
        .iter()
        .filter_map(|row| row.first().map(|v| v.to_string()))
        .collect();
    if !plan.iter().any(|l| l.starts_with("total: ")) {
        return Err(format!("EXPLAIN ANALYZE missing total line: {plan:?}"));
    }
    if !plan.iter().any(|l| l.starts_with("phase ")) {
        return Err(format!("EXPLAIN ANALYZE missing phase lines: {plan:?}"));
    }
    if !plan.iter().any(|l| l.starts_with("scan mode: ")) {
        return Err(format!("EXPLAIN ANALYZE missing scan mode: {plan:?}"));
    }
    println!("explain analyze ok ({} plan lines)", plan.len());

    // sys.queries / sys.spans serve the server's retained traces: every
    // statement this session ran should be there with its phase spans.
    let rs = c
        .execute("SELECT trace_id, sql FROM sys.queries")
        .map_err(|e| format!("sys.queries: {e}"))?;
    if rs.rows.is_empty() {
        return Err("sys.queries returned no records".into());
    }
    if !rs
        .rows
        .iter()
        .any(|r| r[1].as_str().is_some_and(|sql| sql.contains("FROM BIG")))
    {
        return Err("sys.queries missing this session's queries".into());
    }
    let retained = rs.rows.len();
    let last_id = rs
        .rows
        .iter()
        .filter_map(|r| r[0].as_i64())
        .max()
        .unwrap_or(0);
    let rs = c
        .execute("SELECT count(*) FROM sys.spans")
        .map_err(|e| format!("sys.spans: {e}"))?;
    if rs.value(0, 0).as_i64().unwrap_or(0) == 0 {
        return Err("sys.spans carries no spans".into());
    }
    // Paging: `trace_id > cursor` returns only newer records — here,
    // the two catalog queries above.
    let rs = c
        .execute(&format!(
            "SELECT min(trace_id) FROM sys.queries WHERE trace_id > {last_id}"
        ))
        .map_err(|e| format!("sys.queries page 2: {e}"))?;
    if rs.value(0, 0).as_i64().is_some_and(|id| id <= last_id) {
        return Err("sys.queries paging returned stale records".into());
    }
    println!("trace ok ({retained} records retained)");

    if expect_slow {
        let rs = c
            .execute("SELECT slow, count(*) FROM sys.queries GROUP BY slow")
            .map_err(|e| format!("slow queries: {e}"))?;
        let count_of = |flag: i64| {
            rs.rows
                .iter()
                .find(|r| r[0].as_i64() == Some(flag))
                .and_then(|r| r[1].as_i64())
                .unwrap_or(0)
        };
        if count_of(1) == 0 {
            return Err("no slow queries retained under --expect-slow".into());
        }
        if count_of(0) != 0 {
            return Err("a zero slow-query threshold left statements not marked slow".into());
        }
        println!("slow log ok ({} slow queries retained)", count_of(1));
    }

    // Prometheus exposition must parse and must cover the latency
    // histogram and counters this session just exercised.
    let prom = c
        .metrics_prometheus()
        .map_err(|e| format!("metrics prometheus: {e}"))?;
    nlq_client::validate_exposition(&prom)
        .map_err(|e| format!("malformed Prometheus exposition: {e}\n{prom}"))?;
    for needle in [
        "nlq_command_requests_total",
        "nlq_command_latency_seconds_bucket",
        "nlq_summary_hits",
        "nlq_cancel_requests",
    ] {
        if !prom.contains(needle) {
            return Err(format!("Prometheus output missing {needle}"));
        }
    }
    println!(
        "prometheus ok ({} lines)",
        prom.lines().filter(|l| !l.is_empty()).count()
    );

    if !skip_shutdown {
        c.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        println!("server acknowledged shutdown");
    }
    Ok(())
}

/// Scripted introspection session (`--sys`): run real statements, then
/// turn the engine on itself. `sys.queries` must see them — under the
/// query id the stream header carried — with nonzero phase times; Γ
/// aggregates must answer over the telemetry snapshot
/// through the normal block path; and after a `CHECKPOINT`, `sys.wal`
/// must reflect it on a durable server (a volatile server serves an
/// empty `sys.wal` instead).
fn run_sys(addr: &str, skip_shutdown: bool) -> Result<(), String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    c.ping().map_err(|e| format!("ping: {e}"))?;
    let session = c.session_id();
    println!("sys session {session} established");

    // A durable server keeps `SY` across restarts if an earlier run
    // stopped before its final DROP; only its absence is fine here.
    match c.execute("DROP TABLE SY") {
        Ok(_) => println!("dropped a leftover SY"),
        Err(ClientError::Server { code, message })
            if code == ErrorCode::Sql && message.starts_with("unknown table or view") => {}
        Err(e) => return Err(format!("drop leftover SY: {e}")),
    }
    c.execute("CREATE TABLE SY (i INT, X1 FLOAT)")
        .map_err(|e| format!("create SY: {e}"))?;
    let values: Vec<String> = (1..=2000).map(|i| format!("({i}, {i}.0)")).collect();
    for batch in values.chunks(500) {
        c.execute(&format!("INSERT INTO SY VALUES {}", batch.join(", ")))
            .map_err(|e| format!("fill SY: {e}"))?;
    }

    // The probe statement whose admission-minted id we follow through
    // the catalog, captured from its own stream header.
    let mut stream = c
        .query("SELECT count(*), sum(X1) FROM SY")
        .map_err(|e| format!("probe query: {e}"))?;
    let qid = stream.query_id().map_err(|e| format!("query id: {e}"))?;
    if qid == 0 {
        return Err("stream header carried query_id 0".into());
    }
    let rows: Vec<_> = stream
        .by_ref()
        .collect::<Result<_, _>>()
        .map_err(|e| format!("probe rows: {e}"))?;
    drop(stream);
    if rows.len() != 1 || rows[0][0].as_i64() != Some(2000) {
        return Err(format!("probe answered wrong: {rows:?}"));
    }

    // sys.queries sees the finished probe under that id, with its
    // text, outcome, and nonzero phase times.
    let rs = c
        .execute(&format!(
            "SELECT sql, outcome, total_us, parse_us FROM sys.queries \
             WHERE query_id = {qid}"
        ))
        .map_err(|e| format!("sys.queries: {e}"))?;
    if rs.rows.len() != 1 {
        return Err(format!(
            "sys.queries holds {} rows for query {qid}, want 1",
            rs.rows.len()
        ));
    }
    if rs.value(0, 0) != &Value::Str("SELECT count(*), sum(X1) FROM SY".into()) {
        return Err(format!("sys.queries sql mismatch: {:?}", rs.value(0, 0)));
    }
    if rs.value(0, 1) != &Value::Str("ok".into()) {
        return Err(format!("probe outcome {:?}, want ok", rs.value(0, 1)));
    }
    let total_us = rs.value(0, 2).as_f64().unwrap_or(0.0);
    let parse_us = rs.value(0, 3).as_f64().unwrap_or(0.0);
    if total_us <= 0.0 || parse_us <= 0.0 {
        return Err(format!(
            "phase times must be nonzero: total={total_us}µs parse={parse_us}µs"
        ));
    }
    println!("sys.queries ok (query {qid}: total={total_us:.1}µs, parse={parse_us:.1}µs)");

    // Γ over telemetry: the paper's summary aggregate runs over the
    // catalog snapshot like any other table...
    let rs = c
        .execute("SELECT nlq_list(2, 'triang', parse_us, total_us) FROM sys.queries WHERE ok = 1")
        .map_err(|e| format!("Γ over sys.queries: {e}"))?;
    if rs.rows.is_empty() {
        return Err("nlq_list over sys.queries returned nothing".into());
    }
    // ...and EXPLAIN confirms it rides the block path.
    let rs = c
        .execute("EXPLAIN SELECT count(*), sum(total_us) FROM sys.queries WHERE ok = 1")
        .map_err(|e| format!("explain sys.queries: {e}"))?;
    let plan: Vec<String> = rs
        .rows
        .iter()
        .filter_map(|r| r.first().map(|v| v.to_string()))
        .collect();
    if !plan.iter().any(|l| l.contains("scan mode: block")) {
        return Err(format!("sys.queries not on the block path: {plan:?}"));
    }
    println!("catalog scan ok (Γ aggregate answered, EXPLAIN shows block mode)");

    // This live connection is visible to itself.
    let rs = c
        .execute(&format!(
            "SELECT statements FROM sys.sessions WHERE session = {session}"
        ))
        .map_err(|e| format!("sys.sessions: {e}"))?;
    if rs.rows.len() != 1 || rs.value(0, 0).as_i64().unwrap_or(0) < 1 {
        return Err(format!("sys.sessions misses session {session}: {rs:?}"));
    }

    // Durability introspection: a durable server must reflect an
    // explicit CHECKPOINT in sys.wal; a volatile one serves the same
    // table empty (and the checkpoint is an acknowledged no-op).
    c.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    let rs = c
        .execute("SELECT count(*) FROM sys.wal")
        .map_err(|e| format!("sys.wal count: {e}"))?;
    if rs.value(0, 0).as_i64().unwrap_or(0) == 0 {
        println!("sys.wal ok (volatile server, empty durability table)");
    } else {
        let rs = c
            .execute("SELECT value FROM sys.wal WHERE metric = 'checkpoints_total'")
            .map_err(|e| format!("sys.wal checkpoints: {e}"))?;
        let checkpoints = rs.value(0, 0).as_f64().unwrap_or(0.0);
        if checkpoints < 1.0 {
            return Err(format!(
                "sys.wal reports {checkpoints} checkpoints after CHECKPOINT"
            ));
        }
        println!("sys.wal ok (durable server, {checkpoints} checkpoint(s))");
    }

    let prom = c
        .metrics_prometheus()
        .map_err(|e| format!("metrics prometheus: {e}"))?;
    nlq_client::validate_exposition(&prom)
        .map_err(|e| format!("malformed Prometheus exposition: {e}\n{prom}"))?;
    println!("prometheus ok (scrape still valid after catalog queries)");

    // Leave the durable directory as the script found it, so `--sys`
    // can run again after a restart.
    c.execute("DROP TABLE SY")
        .map_err(|e| format!("drop SY: {e}"))?;

    if !skip_shutdown {
        c.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        println!("server acknowledged shutdown");
    }
    Ok(())
}

/// Scripted feature-serving session (pair with the server's
/// `--refresh-ms` set low): stream 10k rows through the chunked INSERT
/// grammar, wait for the refresh daemon to publish a model from the
/// folded summary, batch-score 1k keys in one round trip through the
/// PK index, abort an envelope mid-stream, and check the serving
/// counters all the way out to the Prometheus exposition.
fn run_ingest(addr: &str, skip_shutdown: bool) -> Result<(), String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    c.ping().map_err(|e| format!("ping: {e}"))?;
    println!("ingest session {} established", c.session_id());

    c.execute("CREATE TABLE F (i INT, X1 FLOAT, X2 FLOAT, Y FLOAT)")
        .map_err(|e| format!("create F: {e}"))?;
    c.execute("CREATE SUMMARY sf ON F (X1, X2, Y) NO MINMAX")
        .map_err(|e| format!("create summary: {e}"))?;
    let row = feature_row;

    // 10k rows in 10 envelopes of 4 chunks × 250 rows.
    let total_rows = 10_000i64;
    let mut next = 1i64;
    while next <= total_rows {
        let mut ing = c
            .begin_ingest("F", &["i", "X1", "X2", "Y"])
            .map_err(|e| format!("begin ingest: {e}"))?;
        for _ in 0..4 {
            let rows: Vec<Vec<Value>> = (0..250)
                .map(|_| {
                    let r = row(next);
                    next += 1;
                    r
                })
                .collect();
            ing.chunk(rows).map_err(|e| format!("ingest chunk: {e}"))?;
        }
        let acked = ing.finish().map_err(|e| format!("ingest ack: {e}"))?;
        if acked != 1000 {
            return Err(format!("envelope acked {acked} rows, want 1000"));
        }
    }
    let rs = c
        .execute("SELECT count(*) FROM F")
        .map_err(|e| format!("count: {e}"))?;
    let count = rs.value(0, 0).as_i64().unwrap_or(-1);
    if count != total_rows {
        return Err(format!(
            "table holds {count} rows after ingest, want {total_rows}"
        ));
    }
    println!("ingest ok ({total_rows} rows streamed and committed)");

    // The refresh daemon watches the summary's version counter; after
    // the folds above it must refit and publish `sf_beta` on its own.
    let deadline = Instant::now() + Duration::from_secs(20);
    let refreshes = loop {
        let n = c
            .metric("model_refreshes_total", "")
            .map_err(|e| e.to_string())?;
        if n >= 1.0 {
            break n;
        }
        if Instant::now() >= deadline {
            return Err("refresh counter never advanced (is --refresh-ms set?)".into());
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    println!("refresh ok (daemon published {refreshes} model(s))");

    // Batch-score 1k keys in one round trip. Keyed rows resolve through
    // the PK index, so the server touches at most one row per key.
    let keys: Vec<i64> = (1..=1000).collect();
    let rs = c
        .batch_score("F", "sf_beta", &keys, false)
        .map_err(|e| format!("batch score: {e}"))?;
    if rs.rows.len() != keys.len() {
        return Err(format!(
            "batch score returned {} rows, want 1000",
            rs.rows.len()
        ));
    }
    if rs.stats.rows_scanned > keys.len() as u64 {
        return Err(format!(
            "batch score scanned {} rows for 1000 keys — not point lookups",
            rs.stats.rows_scanned
        ));
    }
    for (k, r) in keys.iter().zip(&rs.rows) {
        let want = {
            let x1 = *k as f64 * 0.5;
            let x2 = ((k * 37) % 101) as f64 * 0.1;
            1.0 + 0.25 * x1 - 0.5 * x2
        };
        let got = r[1].as_f64().unwrap_or(f64::NAN);
        if (got - want).abs() > 1e-6 {
            return Err(format!("key {k} scored {got}, want {want}"));
        }
    }
    let rs = c
        .batch_score("F", "sf_beta", &[1, 2, 3], true)
        .map_err(|e| format!("explain batch score: {e}"))?;
    let plan: Vec<String> = rs
        .rows
        .iter()
        .filter_map(|r| r.first().map(|v| v.to_string()))
        .collect();
    if !plan.iter().any(|l| l.contains("point lookup: pk index")) {
        return Err(format!(
            "batch-score EXPLAIN missing pk-index line: {plan:?}"
        ));
    }
    println!("batch score ok (1000 keys, scores match the published model)");

    // An envelope abandoned mid-stream must commit nothing.
    let mut ing = c
        .begin_ingest("F", &["i", "X1", "X2", "Y"])
        .map_err(|e| format!("begin abort ingest: {e}"))?;
    ing.chunk((20_001..20_101).map(row).collect())
        .map_err(|e| format!("abort chunk: {e}"))?;
    ing.abort().map_err(|e| format!("abort: {e}"))?;
    let rs = c
        .execute("SELECT count(*) FROM F")
        .map_err(|e| format!("count after abort: {e}"))?;
    let count = rs.value(0, 0).as_i64().unwrap_or(-1);
    if count != total_rows {
        return Err(format!(
            "aborted envelope leaked rows: count {count}, want {total_rows}"
        ));
    }
    println!("abort ok (mid-envelope abort committed nothing)");

    // Serving counters, both in sys.metrics and the Prometheus scrape.
    for (key, floor) in [
        ("ingest_rows_total", total_rows as f64),
        ("batch_score_keys_total", 1003.0),
        ("model_refreshes_total", 1.0),
    ] {
        let v = c.metric(key, "").map_err(|e| e.to_string())?;
        if v < floor {
            return Err(format!("{key} = {v}, want >= {floor}"));
        }
    }
    let prom = c
        .metrics_prometheus()
        .map_err(|e| format!("metrics prometheus: {e}"))?;
    nlq_client::validate_exposition(&prom)
        .map_err(|e| format!("malformed Prometheus exposition: {e}\n{prom}"))?;
    for needle in [
        "nlq_ingest_rows_total",
        "nlq_batch_score_keys_total",
        "nlq_model_refreshes_total",
    ] {
        if !prom.contains(needle) {
            return Err(format!("Prometheus output missing {needle}"));
        }
    }
    println!("serving metrics ok (ingest/batch-score/refresh counters exported)");

    if !skip_shutdown {
        c.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        println!("server acknowledged shutdown");
    }
    Ok(())
}

/// One `F` row of exactly linear, full-rank feature data: `Y = 1 +
/// 0.25·X1 − 0.5·X2`, with X2 decorrelated from X1 so the closed-form
/// refit is well-posed and the published coefficients reproduce `Y` to
/// float precision. Shared by the ingest, feed, and verify scripts —
/// recovery checks only work if all three agree on the formula.
fn feature_row(i: i64) -> Vec<Value> {
    let x1 = i as f64 * 0.5;
    let x2 = ((i * 37) % 101) as f64 * 0.1;
    vec![
        Value::Int(i),
        Value::Float(x1),
        Value::Float(x2),
        Value::Float(1.0 + 0.25 * x1 - 0.5 * x2),
    ]
}

/// Streams envelopes of 1000 rows into the existing `F` table starting
/// at key `start`, until the connection drops. The CI crash job
/// backgrounds this and `kill -9`s the server mid-stream, so an I/O
/// error after the first envelope is the expected exit — durability is
/// judged later by `--verify-recovery`, not here.
fn run_feed(addr: &str, start: i64) -> Result<(), String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    c.ping().map_err(|e| format!("ping: {e}"))?;
    println!(
        "feed session {} established (keys from {start})",
        c.session_id()
    );
    let mut next = start;
    let mut envelopes = 0u64;
    // Bounded so a CI job that fails to deliver the kill still
    // terminates; 500 fsynced envelopes far outlasts the kill window.
    while envelopes < 500 {
        let outcome = (|| {
            let mut ing = c.begin_ingest("F", &["i", "X1", "X2", "Y"])?;
            for _ in 0..4 {
                let rows: Vec<Vec<Value>> = (0..250)
                    .map(|_| {
                        let r = feature_row(next);
                        next += 1;
                        r
                    })
                    .collect();
                ing.chunk(rows)?;
            }
            ing.finish()
        })();
        match outcome {
            Ok(_) => envelopes += 1,
            Err(e) => {
                println!("feed stopped after {envelopes} envelopes (key {next}): {e}");
                return Ok(());
            }
        }
    }
    println!("feed streamed {envelopes} envelopes without being killed");
    Ok(())
}

/// Runs against a server restarted on the same `--wal-dir` after a
/// `kill -9` landed mid-ingest: every ack the dead server issued must
/// still be visible, and nothing half-streamed may have leaked in.
fn run_verify_recovery(addr: &str, skip_shutdown: bool) -> Result<(), String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    c.ping().map_err(|e| format!("ping: {e}"))?;
    println!("recovery session {} established", c.session_id());

    // Atomicity: acks come only at envelope boundaries (1000 rows), so
    // a recovered table holds the 10k acked by `--ingest` plus a whole
    // number of acked feed envelopes — never a partial one.
    let rs = c
        .execute("SELECT count(*) FROM F")
        .map_err(|e| format!("count: {e}"))?;
    let count = rs.value(0, 0).as_i64().unwrap_or(-1);
    if count < 10_000 {
        return Err(format!("recovered only {count} rows, acked at least 10000"));
    }
    if count % 1000 != 0 {
        return Err(format!(
            "recovered {count} rows — a torn envelope leaked past recovery"
        ));
    }
    println!("durability ok ({count} rows recovered, whole envelopes only)");

    // The replayed summary must agree with a fresh scan of the
    // replayed base table — both sides rebuilt from the same log.
    let fast = c
        .execute("SELECT count(*), sum(X1), sum(X2), sum(Y) FROM F")
        .map_err(|e| format!("summary aggregate: {e}"))?;
    if !fast.stats.summary_path {
        return Err(format!(
            "recovered summary not serving aggregates: {:?}",
            fast.stats
        ));
    }
    let slow = c
        .execute("SELECT count(*), sum(X1), sum(X2), sum(Y) FROM F WHERE i >= 1")
        .map_err(|e| format!("scan aggregate: {e}"))?;
    if slow.stats.summary_path {
        return Err("predicated aggregate unexpectedly hit the summary".into());
    }
    if fast.value(0, 0).as_i64() != slow.value(0, 0).as_i64() {
        return Err(format!(
            "summary count {:?} != scan count {:?}",
            fast.value(0, 0),
            slow.value(0, 0)
        ));
    }
    for col in 1..4 {
        let a = fast.value(0, col).as_f64().unwrap_or(f64::NAN);
        let b = slow.value(0, col).as_f64().unwrap_or(f64::NAN);
        if (a - b).abs() > 1e-6 * (1.0 + a.abs()) {
            return Err(format!("summary/scan disagree on column {col}: {a} vs {b}"));
        }
    }
    println!("consistency ok (summary path and scan path agree after replay)");

    // sys.wal must surface what recovery actually did.
    let rs = c
        .execute("SELECT metric, value FROM sys.wal")
        .map_err(|e| format!("sys.wal: {e}"))?;
    let wal = |name: &str| {
        rs.rows
            .iter()
            .find(|r| r[0].as_str() == Some(name))
            .and_then(|r| r[1].as_f64())
    };
    let replayed =
        wal("recovery_replayed_records").ok_or("sys.wal missing recovery_replayed_records")?;
    if replayed < 1.0 {
        return Err(format!("recovery_replayed_records = {replayed}, want >= 1"));
    }
    let envelopes = wal("recovery_replayed_envelopes").unwrap_or(0.0);
    if wal("wal_log_bytes").is_none() {
        return Err("sys.wal missing wal_log_bytes on a durable server".into());
    }
    println!("sys.wal ok ({replayed} records / {envelopes} envelopes replayed)");

    // The refresh daemon must rediscover the replayed summary and
    // republish a model on its own.
    let deadline = Instant::now() + Duration::from_secs(20);
    while c
        .metric("model_refreshes_total", "")
        .map_err(|e| e.to_string())?
        < 1.0
    {
        if Instant::now() >= deadline {
            return Err("refresh counter never advanced after recovery".into());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    println!("refresh ok (daemon republished a model from the replayed summary)");

    // Scores served off the recovered data and refit model must still
    // reproduce the ingested formula exactly.
    let keys: Vec<i64> = (1..=1000).collect();
    let rs = c
        .batch_score("F", "sf_beta", &keys, false)
        .map_err(|e| format!("batch score: {e}"))?;
    if rs.rows.len() != keys.len() {
        return Err(format!(
            "batch score returned {} rows, want 1000",
            rs.rows.len()
        ));
    }
    for (k, r) in keys.iter().zip(&rs.rows) {
        let want = {
            let x1 = *k as f64 * 0.5;
            let x2 = ((k * 37) % 101) as f64 * 0.1;
            1.0 + 0.25 * x1 - 0.5 * x2
        };
        let got = r[1].as_f64().unwrap_or(f64::NAN);
        if (got - want).abs() > 1e-6 {
            return Err(format!("key {k} scored {got} after recovery, want {want}"));
        }
    }
    println!("batch score ok (1000 keys match the pre-crash formula)");

    if !skip_shutdown {
        c.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        println!("server acknowledged shutdown");
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut addr = None;
    let mut skip_shutdown = false;
    let mut expect_chunks = 0u64;
    let mut expect_slow = false;
    let mut ingest = false;
    let mut feed = None;
    let mut verify_recovery = false;
    let mut sys = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => addr = args.next(),
            "--skip-shutdown" => skip_shutdown = true,
            "--expect-slow" => expect_slow = true,
            "--ingest" => ingest = true,
            "--verify-recovery" => verify_recovery = true,
            "--sys" => sys = true,
            "--feed" => {
                feed = match args.next().map(|v| v.parse::<i64>()) {
                    Some(Ok(n)) => Some(n),
                    _ => {
                        eprintln!("--feed requires a starting key");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--expect-chunks" => {
                expect_chunks = match args.next().map(|v| v.parse()) {
                    Some(Ok(n)) => n,
                    _ => {
                        eprintln!("--expect-chunks requires a number");
                        return ExitCode::FAILURE;
                    }
                }
            }
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!(
            "usage: server_smoke --addr HOST:PORT [--skip-shutdown] [--expect-chunks N] \
             [--expect-slow] [--ingest] [--feed N] [--verify-recovery] [--sys]"
        );
        return ExitCode::FAILURE;
    };
    let outcome = if let Some(start) = feed {
        run_feed(&addr, start)
    } else if sys {
        run_sys(&addr, skip_shutdown)
    } else if verify_recovery {
        run_verify_recovery(&addr, skip_shutdown)
    } else if ingest {
        run_ingest(&addr, skip_shutdown)
    } else {
        run(&addr, skip_shutdown, expect_chunks, expect_slow)
    };
    match outcome {
        Ok(()) => {
            println!("smoke session passed");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("smoke session FAILED: {msg}");
            ExitCode::FAILURE
        }
    }
}
