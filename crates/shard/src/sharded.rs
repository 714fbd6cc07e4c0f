//! The sharded database: scatter/gather over per-shard [`Db`]s.
//!
//! [`ShardedDb`] partitions each data table across `S` independent
//! [`Db`] shards and presents the same `execute` surface the server
//! calls. The key property it exploits is the paper's: Γ (`n, L, Q`)
//! is *additive*, so an aggregate query can run phase 1–3 (scan +
//! local merge) entirely shard-locally and gather by merging the
//! shards' partial accumulator states — the exact same
//! `AggregateState::merge` the per-shard worker threads already use.
//! Summary (materialized Γ) hits stay shard-local too: a shard whose
//! summary covers the query contributes its partial without scanning
//! a single row.
//!
//! ## Table distribution
//!
//! * **Partitioned** — data tables (`CREATE TABLE`, `CREATE TABLE AS
//!   SELECT`, [`ShardedDb::load_points`]): rows are spread round-robin
//!   across shards; every shard holds a disjoint slice.
//! * **Replicated** — model tables ([`ShardedDb::register_beta`] and
//!   friends, [`ShardedDb::register_table`]): every shard holds a full
//!   copy. The paper's scoring pattern (`X CROSS JOIN BETA`) then
//!   works shard-locally: each shard joins its slice of `X` against
//!   its full copy of `BETA`.
//!
//! A query whose FROM list touches one partitioned table scatters to
//! every shard; one that touches only replicated tables routes to a
//! single shard round-robin. Joining two partitioned tables would need
//! a cross-shard exchange and is rejected as unsupported.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, RwLock};
use std::time::Instant;

use nlq_engine::{
    beta_table, centroid_table, lambda_table, mu_table, phase_spans, result_to_table, AggPartial,
    Db, EngineError, EngineStats, ExecOptions, ExecStats, Expr, LogSet, Payload, Projection,
    Recovered, Result, ResultSet, SelectStmt, ShardMetricsSnapshot, SqlEngine, Statement,
    SummaryRefreshState, SystemTableProvider,
};
use nlq_models::Nlq;
use nlq_obs::{render_spans, thread_cpu_nanos, Phase, Span};
use nlq_storage::{Row, Schema, StorageError, Table, Value, WalIo};

use crate::affinity;
use crate::cache::{CacheOutcome, PlanCache};
use crate::executor::ShardExecutor;

/// How a table's rows are laid out across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Rows are spread round-robin; shards hold disjoint slices.
    Partitioned,
    /// Every shard holds a full copy (model/dimension tables).
    Replicated,
}

/// How a SELECT executes across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// Fan out to every shard; gather by Γ-merge (aggregates) or
    /// deterministic concatenation (scalar row streams).
    Scatter {
        /// True when the gather merges partial aggregate states.
        aggregate: bool,
    },
    /// All referenced tables are replicated: run the whole statement
    /// on one shard, chosen round-robin.
    Single,
}

/// One shard: its database, executor thread, and counters.
struct Shard {
    db: Arc<Db>,
    exec: ShardExecutor,
    queries: AtomicU64,
    rows_scanned: AtomicU64,
    busy_nanos: AtomicU64,
}

/// Where shard `i`'s write-ahead log lives under a durable directory.
fn shard_log(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard-{i}/wal.log"))
}

/// An in-process sharded database over `S` independent [`Db`]s.
pub struct ShardedDb {
    shards: Vec<Shard>,
    cache: PlanCache,
    dist: RwLock<HashMap<String, Distribution>>,
    /// Round-robin cursor: spreads replicated-only queries across
    /// shards and offsets successive INSERT batches so small inserts
    /// don't all land on shard 0.
    rr: AtomicU64,
    /// One write-ahead log per shard under the coordinator's single
    /// commit protocol; `None` for a volatile engine. The shard `Db`s
    /// themselves stay volatile.
    logs: Option<LogSet>,
}

impl ShardedDb {
    /// Builds `shards` shards with `workers_per_shard` scan workers
    /// each (0 picks `max(1, ncpu / shards)`). Each shard's executor
    /// thread is pinned to a disjoint slice of the machine's cores.
    pub fn new(shards: usize, workers_per_shard: usize) -> ShardedDb {
        let shards = shards.max(1);
        let ncpu = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = if workers_per_shard == 0 {
            (ncpu / shards).max(1)
        } else {
            workers_per_shard
        };
        let shards = (0..shards)
            .map(|i| Shard {
                db: Arc::new(Db::new(workers)),
                exec: ShardExecutor::new(i, affinity::cores_for_shard(i, shards, ncpu)),
                queries: AtomicU64::new(0),
                rows_scanned: AtomicU64::new(0),
                busy_nanos: AtomicU64::new(0),
            })
            .collect();
        ShardedDb {
            shards,
            cache: PlanCache::new(),
            dist: RwLock::new(HashMap::new()),
            rr: AtomicU64::new(0),
            logs: None,
        }
    }

    /// Opens a **durable** sharded database rooted at `dir`, with one
    /// write-ahead log per shard (`dir/shard-<i>/wal.log`) and a
    /// single global checkpoint snapshot (`dir/checkpoint/`). Opening
    /// the same directory again replays every shard log under the
    /// presumed-abort rule (see [`LogSet`]).
    pub fn open_durable(
        shards: usize,
        workers_per_shard: usize,
        dir: &Path,
        fsync: bool,
    ) -> Result<ShardedDb> {
        let shards = shards.max(1);
        let ios = (0..shards)
            .map(|i| LogSet::file_io(&shard_log(dir, i)))
            .collect::<Result<_>>()?;
        ShardedDb::open_durable_with_ios(shards, workers_per_shard, dir, ios, fsync)
    }

    /// [`ShardedDb::open_durable`] with explicit [`WalIo`] sinks for
    /// the log *appends*, one per shard (fault-injection tests
    /// substitute crashing sinks). Recovery always reads the real
    /// files at `dir/shard-<i>/wal.log`.
    pub fn open_durable_with_ios(
        shards: usize,
        workers_per_shard: usize,
        dir: &Path,
        ios: Vec<Arc<dyn WalIo>>,
        fsync: bool,
    ) -> Result<ShardedDb> {
        let shards = shards.max(1);
        assert_eq!(ios.len(), shards, "one WalIo per shard");
        let mut db = ShardedDb::new(shards, workers_per_shard);
        let logs = (0..shards).map(|i| shard_log(dir, i)).zip(ios).collect();
        let logs = LogSet::open(dir, logs, fsync, |rec| match rec {
            // Snapshots hold partitioned tables only (see `checkpoint`),
            // one file per shard, entered as `<shard>/<table>`.
            Recovered::Table { ckdir, entry } => {
                let parsed = entry
                    .split_once('/')
                    .and_then(|(i, name)| Some((i.parse::<usize>().ok()?, name)))
                    .filter(|(i, _)| *i < shards);
                let Some((i, name)) = parsed else {
                    return Err(StorageError::Corrupt("sharded checkpoint table entry").into());
                };
                db.shards[i]
                    .db
                    .load_table(name, &ckdir.join(format!("shard-{i}/{name}.tbl")))?;
                db.mark(name, Distribution::Partitioned);
                Ok(())
            }
            // Through the normal coordinator dispatch, so distribution
            // marks and plan-cache invalidation happen as they did live.
            Recovered::Statement(stmt) => db
                .dispatch(&stmt, &ExecOptions::default(), CacheOutcome::Miss, 0)
                .map(|_| ()),
            Recovered::Rows { log, table, rows } => db.shards[log].db.insert_rows(&table, &rows),
        })?;
        db.logs = Some(logs);
        Ok(db)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Direct access to one shard's database (tests and tooling).
    pub fn shard_db(&self, shard: usize) -> &Arc<Db> {
        &self.shards[shard].db
    }

    /// Sets the block-scan toggle on every shard.
    pub fn set_block_scan(&self, enabled: bool) {
        for s in &self.shards {
            s.db.set_block_scan(enabled);
        }
    }

    // -----------------------------------------------------------------
    // Loading and registration
    // -----------------------------------------------------------------

    fn mark(&self, name: &str, dist: Distribution) {
        self.dist
            .write()
            .expect("dist map")
            .insert(name.to_ascii_lowercase(), dist);
    }

    fn table_dist(&self, name: &str) -> Distribution {
        self.dist
            .read()
            .expect("dist map")
            .get(&name.to_ascii_lowercase())
            .copied()
            .unwrap_or(Distribution::Partitioned)
    }

    /// Bulk-loads a point matrix as the partitioned table
    /// `X(i, X1..Xd[, Y])`. Row ids are global (`1..=n`); row `i` goes
    /// to shard `i mod S`.
    pub fn load_points(&self, name: &str, rows: &[Vec<f64>], with_y: bool) -> Result<()> {
        let s = self.shards.len();
        let ncols = rows.first().map_or(0, Vec::len);
        let d = if with_y {
            ncols.saturating_sub(1)
        } else {
            ncols
        };
        let mut tables: Vec<Table> = self
            .shards
            .iter()
            .map(|sh| Table::new(Schema::points(d, with_y), sh.db.workers()))
            .collect();
        for (i, r) in rows.iter().enumerate() {
            let mut row: Row = Vec::with_capacity(r.len() + 1);
            row.push(Value::Int(i as i64 + 1));
            row.extend(r.iter().map(|&v| Value::Float(v)));
            tables[i % s].insert(row)?;
        }
        for (sh, t) in self.shards.iter().zip(tables) {
            sh.db.register_table(name, t)?;
        }
        self.mark(name, Distribution::Partitioned);
        Ok(())
    }

    /// Registers a full copy of `table` on every shard (replicated).
    pub fn register_table(&self, name: &str, table: Table) -> Result<()> {
        for sh in &self.shards[1..] {
            sh.db.register_table(name, table.clone())?;
        }
        self.shards[0].db.register_table(name, table)?;
        self.mark(name, Distribution::Replicated);
        Ok(())
    }

    /// Publishes (or replaces) a model table on every shard.
    pub fn publish_model(&self, name: &str, table: Table) -> Result<()> {
        for sh in &self.shards[1..] {
            sh.db.publish_model(name, table.clone())?;
        }
        self.shards[0].db.publish_model(name, table)?;
        self.mark(name, Distribution::Replicated);
        Ok(())
    }

    /// Registers a regression coefficient table on every shard.
    pub fn register_beta(
        &self,
        name: &str,
        intercept: f64,
        beta: &nlq_linalg::Vector,
    ) -> Result<()> {
        self.publish_model(name, beta_table(intercept, beta)?)
    }

    /// Registers a factor-loading matrix table on every shard.
    pub fn register_lambda(&self, name: &str, lambda: &nlq_linalg::Matrix) -> Result<()> {
        self.publish_model(name, lambda_table(lambda)?)
    }

    /// Registers a mean vector table on every shard.
    pub fn register_mu(&self, name: &str, mu: &nlq_linalg::Vector) -> Result<()> {
        self.publish_model(name, mu_table(mu)?)
    }

    /// Registers a centroid table on every shard.
    pub fn register_centroids(&self, name: &str, centroids: &[nlq_linalg::Vector]) -> Result<()> {
        self.publish_model(name, centroid_table(centroids)?)
    }

    // -----------------------------------------------------------------
    // Execution
    // -----------------------------------------------------------------

    /// Parses (or hits the plan cache) and executes one SQL statement.
    pub fn execute(&self, sql: &str) -> Result<ResultSet> {
        self.execute_with(sql, &ExecOptions::default())
    }

    /// Executes one SQL statement with per-statement options. The
    /// statement text is looked up in the plan cache first; a hit
    /// skips the parse (`parse_nanos = 0`).
    pub fn execute_with(&self, sql: &str, opts: &ExecOptions) -> Result<ResultSet> {
        if let Some(c) = &opts.cancel {
            if c.load(Ordering::Relaxed) {
                return Err(EngineError::Cancelled { rows_scanned: 0 });
            }
        }
        let cpu_started = thread_cpu_nanos();
        let parse_started = Instant::now();
        let (stmt, outcome) = self.cache.get_or_parse(sql)?;
        let parse_nanos = match outcome {
            CacheOutcome::Hit => 0,
            CacheOutcome::Miss => parse_started.elapsed().as_nanos() as u64,
        };
        // A mutating statement's text goes to **every** shard log.
        // Statements whose rows route to specific shards (INSERT, CTAS,
        // INSERT..SELECT) are logged as full text too and re-routed at
        // replay; placement may differ across a crash, which round-robin
        // distribution makes invisible to query results.
        let payload = Payload::statement(sql, &stmt);
        let (mut rs, cost) = LogSet::envelope(self.logs.as_ref(), payload, || {
            self.dispatch(&stmt, opts, outcome, parse_nanos)
        })?;
        cost.charge(&mut rs.stats);
        rs.stats.parse_nanos = parse_nanos;
        // The gather thread's own CPU; shard executors add their own
        // samples into the trace as each scatter span completes.
        let gather_cpu = thread_cpu_nanos().saturating_sub(cpu_started);
        rs.stats.cpu_nanos += gather_cpu;
        if let Some(trace) = &opts.trace {
            trace.add_cpu_nanos(gather_cpu);
            trace.add_wal(rs.stats.wal_bytes, rs.stats.wal_fsyncs);
            for span in phase_spans(&rs.stats) {
                trace.record(span);
            }
        }
        Ok(rs)
    }

    fn dispatch(
        &self,
        stmt: &Statement,
        opts: &ExecOptions,
        outcome: CacheOutcome,
        parse_nanos: u64,
    ) -> Result<ResultSet> {
        match stmt {
            Statement::Select(s) => self.exec_select(s, opts),
            Statement::Explain(s) => self.exec_explain(s, opts, outcome),
            Statement::ExplainAnalyze(s) => {
                self.exec_explain_analyze(s, opts, outcome, parse_nanos)
            }
            Statement::CreateTableAs { name, query } => self.exec_ctas(name, query, opts),
            Statement::InsertSelect { table, query } => self.exec_insert_select(table, query, opts),
            Statement::Insert { table, rows } => self.exec_insert(table, rows, stmt, opts),
            Statement::CreateTable { .. }
            | Statement::CreateView { .. }
            | Statement::CreateSummary { .. }
            | Statement::DropSummary { .. }
            | Statement::Drop { .. } => self.exec_ddl(stmt, opts),
            Statement::Delete { .. } | Statement::Update { .. } => self.exec_dml(stmt, opts),
        }
    }

    /// The single write-invalidation hook. Every statement that
    /// rebuilds table state funnels through here: DDL, CTAS, and —
    /// the historical gap — DELETE/UPDATE, which rebuild each shard's
    /// table (and therefore its PK index) and fold Γ deltas via
    /// `Nlq::subtract`, but used to leave stale entries in the plan
    /// cache. Plain INSERT/ingest appends within an existing shape and
    /// deliberately skips this: dropping cached plans on every ingest
    /// chunk would force the read-while-ingest path to re-parse.
    fn invalidate_writes(&self) {
        self.cache.invalidate();
    }

    /// DELETE/UPDATE: fan out to every shard, then invalidate cached
    /// plans on the same path the shards invalidate their PK indexes
    /// and fold their summaries.
    fn exec_dml(&self, stmt: &Statement, opts: &ExecOptions) -> Result<ResultSet> {
        let rs = self.fanout_all(stmt, opts)?;
        self.invalidate_writes();
        Ok(rs)
    }

    /// The shared cancel token for one statement: the caller's token
    /// when present, otherwise a fresh one so a gather error can still
    /// stop every shard.
    fn token(&self, opts: &ExecOptions) -> Arc<AtomicBool> {
        opts.cancel
            .clone()
            .unwrap_or_else(|| Arc::new(AtomicBool::new(false)))
    }

    fn shard_opts(&self, opts: &ExecOptions, token: &Arc<AtomicBool>) -> ExecOptions {
        ExecOptions {
            block_scan: opts.block_scan,
            cancel: Some(Arc::clone(token)),
            trace: None,
            query_id: opts.query_id,
        }
    }

    /// Receives one result per target shard (in shard order), updating
    /// per-shard counters. The first non-cancel error flips the shared
    /// token so the remaining shards stop scanning.
    fn collect<T>(
        &self,
        targets: &[usize],
        rxs: Vec<mpsc::Receiver<(Result<T>, u64)>>,
        token: &AtomicBool,
        rows_of: impl Fn(&T) -> u64,
    ) -> Vec<Result<T>> {
        let mut out = Vec::with_capacity(rxs.len());
        for (&i, rx) in targets.iter().zip(rxs) {
            let (res, nanos) = rx.recv().expect("shard worker alive");
            let shard = &self.shards[i];
            shard.queries.fetch_add(1, Ordering::Relaxed);
            shard.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
            match &res {
                Ok(v) => {
                    shard.rows_scanned.fetch_add(rows_of(v), Ordering::Relaxed);
                }
                Err(EngineError::Cancelled { rows_scanned }) => {
                    shard
                        .rows_scanned
                        .fetch_add(*rows_scanned, Ordering::Relaxed);
                }
                Err(_) => token.store(true, Ordering::Relaxed),
            }
            out.push(res);
        }
        out
    }

    /// Runs one already-parsed statement on each target shard's
    /// executor thread and gathers the per-shard results.
    fn scatter_statement(
        &self,
        targets: &[usize],
        stmt: &Statement,
        opts: &ExecOptions,
        token: &Arc<AtomicBool>,
    ) -> Vec<Result<ResultSet>> {
        let rxs: Vec<_> = targets
            .iter()
            .map(|&i| {
                let db = Arc::clone(&self.shards[i].db);
                let stmt = stmt.clone();
                let o = self.shard_opts(opts, token);
                let trace = opts.trace.clone();
                self.shards[i].exec.submit(move || {
                    shard_span(
                        &trace,
                        i,
                        |rs: &ResultSet| rs.stats.rows_scanned,
                        || db.execute_statement(stmt, &o),
                    )
                })
            })
            .collect();
        self.collect(targets, rxs, token, |rs: &ResultSet| rs.stats.rows_scanned)
    }

    fn all_targets(&self) -> Vec<usize> {
        (0..self.shards.len()).collect()
    }

    /// Classifies a SELECT by the distribution of its FROM tables.
    fn route(&self, stmt: &SelectStmt) -> Result<Route> {
        let dist = self.dist.read().expect("dist map");
        let mut partitioned = 0usize;
        let mut unknown = 0usize;
        for t in &stmt.from {
            let name = t.name.to_ascii_lowercase();
            match dist.get(&name) {
                Some(Distribution::Replicated) => {}
                Some(Distribution::Partitioned) => partitioned += 1,
                // Virtual system tables snapshot engine-global state
                // through the shared provider, so every shard answers
                // identically — route like a replicated table or a
                // scatter would multiply the snapshot by the shard
                // count.
                None if name.starts_with(nlq_engine::SYS_PREFIX) => {}
                // Unknown names scatter so the shards surface the real
                // UnknownTable error (or resolve objects registered on
                // the shards directly).
                None => unknown += 1,
            }
        }
        drop(dist);
        if partitioned > 1 {
            return Err(EngineError::Unsupported(
                "join of multiple partitioned tables requires replication \
                 (register dimension tables via the API, not CREATE TABLE)"
                    .into(),
            ));
        }
        if partitioned == 0 && unknown == 0 {
            return Ok(Route::Single);
        }
        Ok(Route::Scatter {
            aggregate: self.shards[0].db.select_is_aggregate(stmt),
        })
    }

    fn exec_select(&self, stmt: &SelectStmt, opts: &ExecOptions) -> Result<ResultSet> {
        let token = self.token(opts);
        match self.route(stmt)? {
            Route::Single => {
                let i = (self.rr.fetch_add(1, Ordering::Relaxed) as usize) % self.shards.len();
                let full = Statement::Select(stmt.clone());
                let results = self.scatter_statement(&[i], &full, opts, &token);
                let mut sets = fold_errors(results)?;
                Ok(sets.pop().expect("one routed result"))
            }
            Route::Scatter { aggregate: true } => self.exec_merge(stmt, opts, &token),
            Route::Scatter { aggregate: false } => self.exec_concat(stmt, opts, &token),
        }
    }

    /// Aggregate scatter/gather: each shard computes its Γ partial
    /// (phases 1–3, or a summary hit with zero rows scanned); the
    /// gather merges partial accumulator states and finalizes once.
    fn exec_merge(
        &self,
        stmt: &SelectStmt,
        opts: &ExecOptions,
        token: &Arc<AtomicBool>,
    ) -> Result<ResultSet> {
        let targets = self.all_targets();
        let scatter_started = Instant::now();
        let rxs: Vec<_> = targets
            .iter()
            .map(|&i| {
                let db = Arc::clone(&self.shards[i].db);
                let s = stmt.clone();
                let o = self.shard_opts(opts, token);
                let trace = opts.trace.clone();
                self.shards[i].exec.submit(move || {
                    shard_span(
                        &trace,
                        i,
                        |p: &AggPartial| p.stats.rows_scanned,
                        || db.execute_select_partial(&s, &o),
                    )
                })
            })
            .collect();
        let results = self.collect(&targets, rxs, token, |p: &AggPartial| p.stats.rows_scanned);
        let partials = fold_errors(results)?;
        let scatter_nanos = scatter_started.elapsed().as_nanos() as u64;

        let gather_started = Instant::now();
        let o = self.shard_opts(opts, token);
        let mut rs = self.shards[0]
            .db
            .finalize_select_partials(stmt, partials, &o)?;
        rs.stats.scatter_nanos = scatter_nanos;
        rs.stats.gather_nanos = gather_started.elapsed().as_nanos() as u64;
        Ok(rs)
    }

    /// Scalar scatter/gather: every shard streams its slice of rows;
    /// the gather concatenates in shard order, re-sorts when the query
    /// has an ORDER BY, and re-applies LIMIT.
    fn exec_concat(
        &self,
        stmt: &SelectStmt,
        opts: &ExecOptions,
        token: &Arc<AtomicBool>,
    ) -> Result<ResultSet> {
        let (shard_stmt, keys, hidden) = concat_plan(stmt);
        let targets = self.all_targets();
        let scatter_started = Instant::now();
        let full = Statement::Select(shard_stmt);
        let results = self.scatter_statement(&targets, &full, opts, token);
        let sets = fold_errors(results)?;
        let scatter_nanos = scatter_started.elapsed().as_nanos() as u64;

        let gather_started = Instant::now();
        let mut stats = ExecStats::default();
        for s in &sets {
            add_stats(&mut stats, &s.stats);
        }
        let total_cols = sets[0].columns.len();
        let visible = total_cols - hidden;
        let mut columns = sets[0].columns.clone();
        columns.truncate(visible);
        let mut rows: Vec<Row> = Vec::with_capacity(sets.iter().map(ResultSet::len).sum());
        for s in sets {
            rows.extend(s.rows);
        }
        if !keys.is_empty() {
            let resolved: Vec<(usize, bool)> = keys
                .iter()
                .map(|k| {
                    let col = match k.col {
                        KeyCol::Output(i) => i,
                        KeyCol::Hidden(j) => visible + j,
                    };
                    (col, k.descending)
                })
                .collect();
            rows.sort_by(|a, b| order_rows(a, b, &resolved));
        }
        if let Some(l) = stmt.limit {
            rows.truncate(l);
        }
        if hidden > 0 {
            for row in &mut rows {
                row.truncate(visible);
            }
        }
        let mut rs = ResultSet::new(columns, rows);
        stats.scatter_nanos = scatter_nanos;
        stats.gather_nanos = gather_started.elapsed().as_nanos() as u64;
        rs.stats = stats;
        Ok(rs)
    }

    /// EXPLAIN: one shard's plan plus the scatter/gather route and the
    /// plan-cache probe outcome for this statement text.
    fn exec_explain(
        &self,
        stmt: &SelectStmt,
        opts: &ExecOptions,
        outcome: CacheOutcome,
    ) -> Result<ResultSet> {
        let token = self.token(opts);
        let o = self.shard_opts(opts, &token);
        let mut rs = self.shards[0]
            .db
            .execute_statement(Statement::Explain(stmt.clone()), &o)?;
        for line in self.route_lines(stmt, outcome)? {
            rs.rows.push(vec![Value::Str(line)]);
        }
        Ok(rs)
    }

    fn route_lines(&self, stmt: &SelectStmt, outcome: CacheOutcome) -> Result<Vec<String>> {
        let s = self.shards.len();
        let route = match self.route(stmt)? {
            Route::Scatter { aggregate: true } => format!("scatter: {s} shards, gather: merge"),
            Route::Scatter { aggregate: false } => format!("scatter: {s} shards, gather: concat"),
            Route::Single => format!("route: 1 of {s} shards (replicated tables only)"),
        };
        let probe = match outcome {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        };
        Ok(vec![route, format!("plan cache: {probe}")])
    }

    /// EXPLAIN ANALYZE: execute the sharded select, then render the
    /// scatter/gather phase spans instead of the rows.
    fn exec_explain_analyze(
        &self,
        stmt: &SelectStmt,
        opts: &ExecOptions,
        outcome: CacheOutcome,
        parse_nanos: u64,
    ) -> Result<ResultSet> {
        let exec_started = Instant::now();
        let inner = self.exec_select(stmt, opts)?;
        let mut stats = inner.stats;
        stats.parse_nanos = parse_nanos;
        let total_nanos = parse_nanos + exec_started.elapsed().as_nanos() as u64;
        let mut lines = render_spans(total_nanos, &phase_spans(&stats));
        lines.extend(nlq_engine::explain_analyze_footer(&stats));
        lines.extend(self.route_lines(stmt, outcome)?);
        let mut rs = ResultSet::new(
            vec!["plan".into()],
            lines.into_iter().map(|l| vec![Value::Str(l)]).collect(),
        );
        rs.stats = stats;
        Ok(rs)
    }

    /// DDL fans out to every shard (identical statement), then
    /// invalidates the plan cache and updates distribution metadata.
    fn exec_ddl(&self, stmt: &Statement, opts: &ExecOptions) -> Result<ResultSet> {
        let rs = self.fanout_all(stmt, opts)?;
        self.invalidate_writes();
        match stmt {
            Statement::CreateTable { name, .. } => self.mark(name, Distribution::Partitioned),
            Statement::CreateView { name, query } => {
                // A view inherits the widest distribution it touches.
                let part = query
                    .from
                    .iter()
                    .any(|t| self.table_dist(&t.name) == Distribution::Partitioned);
                self.mark(
                    name,
                    if part {
                        Distribution::Partitioned
                    } else {
                        Distribution::Replicated
                    },
                );
            }
            Statement::Drop { name } => {
                self.dist
                    .write()
                    .expect("dist map")
                    .remove(&name.to_ascii_lowercase());
            }
            _ => {}
        }
        Ok(rs)
    }

    /// Fans one statement out to every shard and folds the results
    /// into an empty result set with summed counters.
    fn fanout_all(&self, stmt: &Statement, opts: &ExecOptions) -> Result<ResultSet> {
        let token = self.token(opts);
        let targets = self.all_targets();
        let started = Instant::now();
        let results = self.scatter_statement(&targets, stmt, opts, &token);
        let sets = fold_errors(results)?;
        let mut stats = ExecStats::default();
        for s in &sets {
            add_stats(&mut stats, &s.stats);
        }
        stats.scatter_nanos = started.elapsed().as_nanos() as u64;
        let mut rs = ResultSet::empty();
        rs.stats = stats;
        Ok(rs)
    }

    /// CREATE TABLE AS: run the defining query sharded, then spread
    /// the materialized rows round-robin as a new partitioned table.
    fn exec_ctas(&self, name: &str, query: &SelectStmt, opts: &ExecOptions) -> Result<ResultSet> {
        if self
            .dist
            .read()
            .expect("dist map")
            .contains_key(&name.to_ascii_lowercase())
        {
            return Err(EngineError::DuplicateTable(name.to_owned()));
        }
        let rs = self.exec_select(query, opts)?;
        let gather_started = Instant::now();
        let s = self.shards.len();
        for (i, sh) in self.shards.iter().enumerate() {
            let slice = ResultSet::new(
                rs.columns.clone(),
                rs.rows.iter().skip(i).step_by(s).cloned().collect(),
            );
            let table = result_to_table(&slice, sh.db.workers())?;
            sh.db.register_table(name, table)?;
        }
        self.mark(name, Distribution::Partitioned);
        self.invalidate_writes();
        let mut out = ResultSet::empty();
        out.stats = rs.stats;
        out.stats.gather_nanos += gather_started.elapsed().as_nanos() as u64;
        Ok(out)
    }

    /// INSERT INTO ... SELECT: run the query sharded, then insert the
    /// rows round-robin (partitioned target) or everywhere
    /// (replicated target).
    fn exec_insert_select(
        &self,
        table: &str,
        query: &SelectStmt,
        opts: &ExecOptions,
    ) -> Result<ResultSet> {
        let rs = self.exec_select(query, opts)?;
        let gather_started = Instant::now();
        self.insert_slices(table, &self.spread(table, rs.rows))?;
        let mut out = ResultSet::empty();
        out.stats = rs.stats;
        out.stats.gather_nanos += gather_started.elapsed().as_nanos() as u64;
        Ok(out)
    }

    /// One slice of pre-evaluated `rows` per shard: round-robin from a
    /// moving offset (partitioned target) or a full copy everywhere
    /// (replicated target).
    fn spread(&self, table: &str, rows: Vec<Row>) -> Vec<Vec<Row>> {
        let s = self.shards.len();
        match self.table_dist(table) {
            Distribution::Replicated => vec![rows; s],
            Distribution::Partitioned => {
                let off = self.rr.fetch_add(rows.len() as u64, Ordering::Relaxed) as usize;
                let mut slices: Vec<Vec<Row>> = vec![Vec::new(); s];
                for (j, row) in rows.into_iter().enumerate() {
                    slices[(off + j) % s].push(row);
                }
                slices
            }
        }
    }

    /// Appends each non-empty slice to its shard, whose `insert_rows`
    /// folds the delta into its own fresh Γ summaries.
    fn insert_slices(&self, table: &str, slices: &[Vec<Row>]) -> Result<()> {
        for (sh, rows) in self.shards.iter().zip(slices) {
            if !rows.is_empty() {
                sh.db.insert_rows(table, rows)?;
            }
        }
        Ok(())
    }

    /// INSERT ... VALUES: split literal rows round-robin across shards
    /// (partitioned target) or fan the whole statement out
    /// (replicated target).
    fn exec_insert(
        &self,
        table: &str,
        rows: &[Vec<Expr>],
        stmt: &Statement,
        opts: &ExecOptions,
    ) -> Result<ResultSet> {
        match self.table_dist(table) {
            Distribution::Replicated => self.fanout_all(stmt, opts),
            Distribution::Partitioned => {
                let token = self.token(opts);
                let s = self.shards.len();
                let off = self.rr.fetch_add(rows.len() as u64, Ordering::Relaxed) as usize;
                let mut slices: Vec<Vec<Vec<Expr>>> = vec![Vec::new(); s];
                for (j, row) in rows.iter().enumerate() {
                    slices[(off + j) % s].push(row.clone());
                }
                let started = Instant::now();
                let mut targets = Vec::new();
                let mut rxs = Vec::new();
                for (i, slice) in slices.into_iter().enumerate() {
                    if slice.is_empty() {
                        continue;
                    }
                    let db = Arc::clone(&self.shards[i].db);
                    let sub = Statement::Insert {
                        table: table.to_owned(),
                        rows: slice,
                    };
                    let o = self.shard_opts(opts, &token);
                    targets.push(i);
                    rxs.push(
                        self.shards[i]
                            .exec
                            .submit(move || db.execute_statement(sub, &o)),
                    );
                }
                let results = self.collect(&targets, rxs, &token, |rs: &ResultSet| {
                    rs.stats.rows_scanned
                });
                let sets = fold_errors(results)?;
                let mut stats = ExecStats::default();
                for rs in &sets {
                    add_stats(&mut stats, &rs.stats);
                }
                stats.scatter_nanos = started.elapsed().as_nanos() as u64;
                let mut rs = ResultSet::empty();
                rs.stats = stats;
                Ok(rs)
            }
        }
    }
}

impl SqlEngine for ShardedDb {
    fn execute_with(&self, sql: &str, opts: &ExecOptions) -> Result<ResultSet> {
        ShardedDb::execute_with(self, sql, opts)
    }

    fn engine_stats(&self) -> EngineStats {
        let shards = self.shards.iter().enumerate();
        EngineStats {
            shards: shards
                .map(|(i, s)| ShardMetricsSnapshot {
                    shard: i,
                    queries: s.queries.load(Ordering::Relaxed),
                    rows_scanned: s.rows_scanned.load(Ordering::Relaxed),
                    queue_depth: s.exec.queue_depth(),
                    busy_nanos: s.busy_nanos.load(Ordering::Relaxed),
                })
                .collect(),
            plan_cache: Some(self.cache.stats()),
            durability: self.logs.as_ref().map(LogSet::stats),
        }
    }

    /// Streamed-ingest commit. On a durable engine the batch is one
    /// envelope with a `Rows` payload per involved shard log, so
    /// ack-at-Done implies durable-at-Done on every shard it touched.
    fn ingest_rows(&self, table: &str, rows: Vec<Row>) -> Result<u64> {
        let n = rows.len() as u64;
        let schema = self.table_schema(table)?;
        let slices = self.spread(table, rows);
        let payload = Payload::rows(table, &schema, &slices);
        LogSet::envelope(self.logs.as_ref(), payload, || {
            self.insert_slices(table, &slices)
        })?;
        Ok(n)
    }

    fn table_schema(&self, name: &str) -> Result<Schema> {
        self.shards[0].db.table_schema(name)
    }

    /// Sharded batch scoring. Round-robin placement means any shard
    /// may own any key, so the full key list scatters to every shard;
    /// each returns one row per key (NULL score for keys it does not
    /// hold) and the gather keeps the first non-NULL score per
    /// position. A shard that holds a key but scores it NULL (NULL
    /// features) leaves NULL in place — same as unsharded.
    fn batch_score(
        &self,
        table: &str,
        model: &str,
        keys: &[i64],
        explain: bool,
        opts: &ExecOptions,
    ) -> Result<ResultSet> {
        let s = self.shards.len();
        if s == 1 || self.table_dist(table) == Distribution::Replicated {
            let i = (self.rr.fetch_add(1, Ordering::Relaxed) as usize) % s;
            return self.shards[i]
                .db
                .batch_score(table, model, keys, explain, opts);
        }
        if explain {
            let mut rs = self.shards[0]
                .db
                .batch_score(table, model, keys, true, opts)?;
            rs.rows.push(vec![Value::Str(format!(
                "scatter: {s} shards, gather: first owned score per key"
            ))]);
            return Ok(rs);
        }
        let token = self.token(opts);
        let targets = self.all_targets();
        let scatter_started = Instant::now();
        let rxs: Vec<_> = targets
            .iter()
            .map(|&i| {
                let db = Arc::clone(&self.shards[i].db);
                let (table, model) = (table.to_owned(), model.to_owned());
                let keys = keys.to_vec();
                let o = self.shard_opts(opts, &token);
                self.shards[i]
                    .exec
                    .submit(move || db.batch_score(&table, &model, &keys, false, &o))
            })
            .collect();
        let results = self.collect(&targets, rxs, &token, |rs: &ResultSet| {
            rs.stats.rows_scanned
        });
        let mut sets = fold_errors(results)?.into_iter();
        let scatter_nanos = scatter_started.elapsed().as_nanos() as u64;

        let gather_started = Instant::now();
        let mut out = sets.next().expect("at least one shard");
        for set in sets {
            add_stats(&mut out.stats, &set.stats);
            for (acc, mut row) in out.rows.iter_mut().zip(set.rows) {
                let score = row.swap_remove(1);
                if acc[1].is_null() && !score.is_null() {
                    acc[1] = score;
                }
            }
        }
        out.stats.scatter_nanos = scatter_nanos;
        out.stats.gather_nanos = gather_started.elapsed().as_nanos() as u64;
        if let Some(trace) = &opts.trace {
            trace.record(Span::new(Phase::Scatter, scatter_nanos).rows(keys.len() as u64));
            trace.record(Span::new(Phase::Gather, out.stats.gather_nanos));
        }
        Ok(out)
    }

    /// Per-summary refresh signals merged across shards: versions and
    /// folded-row counts sum (each shard bumps independently); the
    /// merged state is fresh only when every shard's is.
    fn summary_refresh_states(&self) -> Vec<SummaryRefreshState> {
        let mut merged: Vec<SummaryRefreshState> = Vec::new();
        for sh in &self.shards {
            for st in sh.db.summary_refresh_states() {
                match merged.iter_mut().find(|m| m.name == st.name) {
                    Some(m) => {
                        m.version += st.version;
                        m.rows_folded += st.rows_folded;
                        m.fresh &= st.fresh;
                    }
                    None => merged.push(st),
                }
            }
        }
        merged.sort_by(|a, b| a.name.cmp(&b.name));
        merged
    }

    /// The global Γ state: every shard's maintained (or rebuilt) state
    /// merged — exact, because Γ is additive over disjoint row slices.
    fn summary_gamma(&self, name: &str) -> Result<Nlq> {
        let mut acc: Option<Nlq> = None;
        for sh in &self.shards {
            let g = sh.db.summary_gamma(name)?;
            match &mut acc {
                Some(a) => a.merge(&g),
                None => acc = Some(g),
            }
        }
        Ok(acc.expect("at least one shard"))
    }

    fn publish_model(&self, name: &str, table: Table) -> Result<()> {
        ShardedDb::publish_model(self, name, table)
    }

    fn checkpoint(&self, min_log_bytes: u64) -> Result<bool> {
        LogSet::checkpoint(self.logs.as_ref(), min_log_bytes, |tmp, manifest| {
            // Partitioned names that are base tables, not views.
            let mut names: Vec<String> = {
                let dist = self.dist.read().expect("dist map");
                dist.iter()
                    .filter(|(n, d)| {
                        **d == Distribution::Partitioned && self.table_schema(n).is_ok()
                    })
                    .map(|(n, _)| n.clone())
                    .collect()
            };
            names.sort();
            for (i, sh) in self.shards.iter().enumerate() {
                let sub = tmp.join(format!("shard-{i}"));
                std::fs::create_dir_all(&sub)
                    .map_err(|e| StorageError::Io(format!("checkpoint mkdir: {e}")))?;
                for name in &names {
                    sh.db.save_table(name, &sub.join(format!("{name}.tbl")))?;
                    manifest.tables.push(format!("{i}/{name}"));
                }
            }
            manifest.ddl.extend(self.shards[0].db.summary_ddl());
            Ok(())
        })
    }

    /// Installs the provider on every shard: `sys.*` names are not in
    /// the distribution map, so their scans route like any unknown
    /// table (round-robin to one shard) and each shard must be able to
    /// snapshot the catalog locally.
    fn set_system_tables(&self, provider: Arc<dyn SystemTableProvider>) {
        for sh in &self.shards {
            sh.db.set_system_tables(Arc::clone(&provider));
        }
    }
}

// ---------------------------------------------------------------------
// Gather helpers
// ---------------------------------------------------------------------

/// Where a gather-sort key lives in the per-shard output.
#[derive(Debug, Clone, Copy)]
enum KeyCol {
    /// An existing output column (ordinal ORDER BY, or an expression
    /// key that textually matches a projection).
    Output(usize),
    /// The `j`-th hidden projection appended for an expression key.
    Hidden(usize),
}

#[derive(Debug, Clone, Copy)]
struct SortKey {
    col: KeyCol,
    descending: bool,
}

/// Rewrites a scalar SELECT for per-shard execution: ORDER BY
/// expression keys that are not plain output columns are appended as
/// hidden projections so the gather can sort the concatenated rows
/// without re-evaluating expressions. Per-shard ORDER BY and LIMIT are
/// kept — each shard returns its own ordered top-L, a superset of the
/// global top-L. Returns the rewritten statement, the gather sort
/// keys, and the number of hidden columns to strip.
fn concat_plan(stmt: &SelectStmt) -> (SelectStmt, Vec<SortKey>, usize) {
    let mut out = stmt.clone();
    let mut keys = Vec::new();
    let mut hidden = 0usize;
    let has_wildcard = stmt.projections.iter().any(|p| p.expr == Expr::Wildcard);
    for key in &stmt.order_by {
        let col = match &key.expr {
            Expr::Literal(Value::Int(k)) if *k >= 1 => KeyCol::Output(*k as usize - 1),
            e => {
                // With a wildcard the output arity is unknown until
                // execution, so positional matches are unusable.
                let matched = (!has_wildcard)
                    .then(|| stmt.projections.iter().position(|p| &p.expr == e))
                    .flatten();
                match matched {
                    Some(i) => KeyCol::Output(i),
                    None => {
                        out.projections.push(Projection {
                            expr: e.clone(),
                            alias: Some(format!("__shard_ord{hidden}")),
                        });
                        hidden += 1;
                        KeyCol::Hidden(hidden - 1)
                    }
                }
            }
        };
        keys.push(SortKey {
            col,
            descending: key.descending,
        });
    }
    (out, keys, hidden)
}

/// Mirror of the engine's ORDER BY comparator: NULLs last regardless
/// of direction; DESC reverses non-null comparisons only.
fn order_rows(a: &Row, b: &Row, keys: &[(usize, bool)]) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    for &(col, desc) in keys {
        let (va, vb) = (&a[col], &b[col]);
        let ord = match (va.is_null(), vb.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => {
                let ord = va.sql_cmp(vb).unwrap_or(Ordering::Equal);
                if desc {
                    ord.reverse()
                } else {
                    ord
                }
            }
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Runs one shard's piece of a scattered statement on its pinned
/// executor thread, recording a per-shard `scatter` span — wall time,
/// rows, and the executor thread's CPU sample — into the statement's
/// trace and summing the CPU into the per-query total the gather
/// reports. Sampling happens inside the closure, on the shard thread,
/// so `CLOCK_THREAD_CPUTIME_ID` reads the right clock.
fn shard_span<T>(
    trace: &Option<nlq_obs::Trace>,
    shard: usize,
    rows_of: impl Fn(&T) -> u64,
    job: impl FnOnce() -> Result<T>,
) -> Result<T> {
    let cpu_started = thread_cpu_nanos();
    let wall = Instant::now();
    let res = job();
    if let Some(t) = trace {
        let cpu = thread_cpu_nanos().saturating_sub(cpu_started);
        let rows = res.as_ref().map(&rows_of).unwrap_or(0);
        t.record(
            Span::new(Phase::Scatter, wall.elapsed().as_nanos() as u64)
                .rows(rows)
                .cpu_nanos(cpu)
                .on_shard(shard),
        );
        t.add_cpu_nanos(cpu);
    }
    res
}

/// Folds per-shard results: the first non-cancel error (in shard
/// order) wins; otherwise a cancellation is reported with the summed
/// best-effort row counts; otherwise all successes are returned.
fn fold_errors<T>(results: Vec<Result<T>>) -> Result<Vec<T>> {
    let mut ok = Vec::with_capacity(results.len());
    let mut cancelled_rows: Option<u64> = None;
    for r in results {
        match r {
            Ok(v) => ok.push(v),
            Err(EngineError::Cancelled { rows_scanned }) => {
                *cancelled_rows.get_or_insert(0) += rows_scanned;
            }
            Err(e) => return Err(e),
        }
    }
    match cancelled_rows {
        Some(rows_scanned) => Err(EngineError::Cancelled { rows_scanned }),
        None => Ok(ok),
    }
}

/// Adds one shard's counters into an accumulated [`ExecStats`]
/// (scatter/gather/parse nanos and flags are the caller's business).
fn add_stats(acc: &mut ExecStats, s: &ExecStats) {
    acc.rows_scanned += s.rows_scanned;
    acc.blocks_scanned += s.blocks_scanned;
    acc.block_path |= s.block_path;
    acc.summary_hits += s.summary_hits;
    acc.summary_misses += s.summary_misses;
    acc.summary_stale_rebuilds += s.summary_stale_rebuilds;
    acc.summary_rebuild_rows += s.summary_rebuild_rows;
    acc.plan_nanos += s.plan_nanos;
    acc.summary_nanos += s.summary_nanos;
    acc.scan_nanos += s.scan_nanos;
    acc.accumulate_nanos += s.accumulate_nanos;
    acc.merge_nanos += s.merge_nanos;
    acc.finalize_nanos += s.finalize_nanos;
    acc.wal_nanos += s.wal_nanos;
}
