use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use nlq_linalg::{Matrix, Vector};
use nlq_models::{MatrixShape, Nlq};
use nlq_obs::{render_spans, thread_cpu_nanos, Phase, Span};
use nlq_storage::{DiskTable, Row, Schema, StorageError, Table, Value, WalIo, WalStatsSnapshot};
use nlq_udf::pack::{assemble_blocks, unpack_block, unpack_nlq};
use nlq_udf::{ParamStyle, UdfRegistry};

use crate::ast::{Expr, Projection, SelectStmt, Statement};
use crate::cache::{CacheOutcome, PlanCache};
use crate::durable::{DurabilityStats, LogSet, Payload, Recovered, RecoveryInfo};
use crate::exec::{check_cancelled, merge_partial_errors, result_to_table, AggPartial};
use crate::executor::{Job, Lane};
use crate::serve::{beta_table, centroid_table, lambda_table, mu_table};
use crate::shard::{Env, Shard};
use crate::sys::{SystemTableProvider, SYS_PREFIX};
use crate::{sqlgen, EngineError, Result};

/// Which in-DBMS implementation computes the summary matrices (§3.3's
/// alternatives (1) and the UDF of alternative (4)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NlqMethod {
    /// The "long" pure-SQL query with `1 + d + d²` aggregate terms.
    Sql,
    /// The aggregate UDF with list parameter passing.
    UdfList,
    /// The aggregate UDF with string parameter passing.
    UdfString,
}

/// Per-statement execution counters (the instrumentation the paper's
/// Table 4/6 timings would be read from). Scans that never reach the
/// aggregate executor leave them zeroed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Base-table rows read during phase 2.
    pub rows_scanned: u64,
    /// Column blocks decoded (0 on the row-at-a-time path).
    pub blocks_scanned: u64,
    /// Whether the vectorized block path executed the scan.
    pub block_path: bool,
    /// Whether a materialized Γ summary answered the query (no scan).
    pub summary_path: bool,
    /// Queries answered from a fresh (or just-rebuilt) summary.
    pub summary_hits: u64,
    /// Aggregate queries on a summarized table that no summary could
    /// answer (fell back to a scan).
    pub summary_misses: u64,
    /// Stale summaries rebuilt on-demand while answering.
    pub summary_stale_rebuilds: u64,
    /// Base-table rows scanned by on-demand stale-summary rebuilds
    /// (also counted into [`ExecStats::rows_scanned`] — the rebuild is
    /// a real scan, not free work).
    pub summary_rebuild_rows: u64,
    /// Wall-clock time parsing the SQL text.
    pub parse_nanos: u64,
    /// Wall-clock time planning (table resolution, predicate
    /// classification, join-product construction).
    pub plan_nanos: u64,
    /// Wall-clock time probing the Γ summary store, including any
    /// on-demand stale rebuild.
    pub summary_nanos: u64,
    /// Wall-clock time of the row/block scan (workers running in
    /// parallel plus the partial merge).
    pub scan_nanos: u64,
    /// Phase 2 (row/block aggregation) time, summed over workers —
    /// exceeds [`ExecStats::scan_nanos`] when workers overlap.
    pub accumulate_nanos: u64,
    /// Phase 3 (partial-result merge) time on the master.
    pub merge_nanos: u64,
    /// Phase 4 (finalize + HAVING + projection) time on the master.
    pub finalize_nanos: u64,
    /// Wall-clock time a statement spent fanned out over more than one
    /// shard — covers the slowest shard's local execution. 0 when one
    /// shard ran the whole statement.
    pub scatter_nanos: u64,
    /// Wall-clock time spent collecting shard results and merging
    /// Γ/aggregate partials (or concatenating row streams). 0 when one
    /// shard ran the whole statement.
    pub gather_nanos: u64,
    /// Wall-clock time spent appending write-ahead-log records and
    /// waiting on the commit fsync. Always 0 on a non-durable engine
    /// and for read-only statements.
    pub wal_nanos: u64,
    /// WAL bytes this statement appended (payload records plus its
    /// commit marker). Always 0 on a non-durable engine.
    pub wal_bytes: u64,
    /// WAL fsyncs this statement issued or joined (group commit means
    /// several statements can share one physical fsync; each counts
    /// the sync it waited on).
    pub wal_fsyncs: u64,
    /// CPU nanoseconds the calling thread consumed on this statement
    /// (`CLOCK_THREAD_CPUTIME_ID` sampled at statement boundaries).
    /// Shard worker threads add their own samples to the statement's
    /// trace, not here.
    pub cpu_nanos: u64,
    /// Whether the statement was cancelled mid-execution. The engine
    /// never returns a [`ResultSet`] for a cancelled statement (it
    /// returns [`EngineError::Cancelled`]); this flag exists so
    /// serving layers can report "last statement was cancelled after
    /// `rows_scanned` rows" through the same stats struct.
    pub cancelled: bool,
}

impl ExecStats {
    /// Adds the counters of another shard-local piece of the same
    /// statement: rows, blocks, summary outcomes and per-phase times
    /// sum, `block_path` ORs. Parse, scatter/gather, WAL bytes and
    /// fsyncs, CPU and the `summary_path`/`cancelled` flags belong to
    /// the statement as a whole and are left to the caller.
    pub fn absorb(&mut self, s: &ExecStats) {
        self.rows_scanned += s.rows_scanned;
        self.blocks_scanned += s.blocks_scanned;
        self.block_path |= s.block_path;
        self.summary_hits += s.summary_hits;
        self.summary_misses += s.summary_misses;
        self.summary_stale_rebuilds += s.summary_stale_rebuilds;
        self.summary_rebuild_rows += s.summary_rebuild_rows;
        self.plan_nanos += s.plan_nanos;
        self.summary_nanos += s.summary_nanos;
        self.scan_nanos += s.scan_nanos;
        self.accumulate_nanos += s.accumulate_nanos;
        self.merge_nanos += s.merge_nanos;
        self.finalize_nanos += s.finalize_nanos;
        self.wal_nanos += s.wal_nanos;
    }
}

/// Rows returned by a query.
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Row>,
    /// Execution counters for the statement that produced this result.
    pub stats: ExecStats,
}

/// Equality ignores [`ResultSet::stats`]: two runs of the same query
/// are "the same result" regardless of which scan path produced it or
/// how long the phases took.
impl PartialEq for ResultSet {
    fn eq(&self, other: &Self) -> bool {
        self.columns == other.columns && self.rows == other.rows
    }
}

impl ResultSet {
    /// A result with the given columns and rows (counters zeroed).
    pub fn new(columns: Vec<String>, rows: Vec<Row>) -> Self {
        ResultSet {
            columns,
            rows,
            stats: ExecStats::default(),
        }
    }

    /// An empty result (DDL statements).
    pub fn empty() -> Self {
        ResultSet::new(Vec::new(), Vec::new())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Value at `(row, col)`.
    pub fn value(&self, row: usize, col: usize) -> &Value {
        &self.rows[row][col]
    }

    /// Float view of `(row, col)` (`None` for NULL / non-numeric).
    pub fn f64(&self, row: usize, col: usize) -> Option<f64> {
        self.rows[row][col].as_f64()
    }
}

/// Per-statement execution options, overriding the database-wide
/// defaults. This is how a server session applies its own settings
/// (e.g. `SET block_scan off`) to a shared [`Db`] without mutating
/// global state.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Overrides the block-at-a-time scan toggle for this statement
    /// (`None` inherits [`Db::block_scan`]).
    pub block_scan: Option<bool>,
    /// Cooperative cancellation token. Flip it to `true` from any
    /// thread and the statement stops at the next block/row check,
    /// returning [`EngineError::Cancelled`] with partial state
    /// discarded. `None` means the statement cannot be interrupted.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Observability trace for this statement. When present, the
    /// engine records one [`nlq_obs::Span`] per completed phase
    /// (parse, plan, summary-lookup, scan, finalize) into it; serving
    /// layers append their own encode/stream spans to the same trace.
    pub trace: Option<nlq_obs::Trace>,
    /// Globally unique query id minted by the serving layer at
    /// admission, so every shard's scatter span gathers under one trace
    /// tree; 0 when the caller does not track ids.
    pub query_id: u64,
}

/// How a table's rows are laid out across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Distribution {
    /// Rows are spread round-robin; shards hold disjoint slices.
    Partitioned,
    /// Every shard holds a full copy (model/dimension tables).
    Replicated,
}

/// How a SELECT executes across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// One shard runs the whole statement: every shard at S = 1, or one
    /// chosen round-robin when every table read is replicated.
    Single(usize),
    /// Fan out to every shard; gather by Γ-merge (aggregates) or
    /// deterministic concatenation (scalar row streams).
    Scatter {
        /// True when the gather merges partial aggregate states.
        aggregate: bool,
    },
}

/// Where a durable [`Db`] keeps its write-ahead logs: shard `i` appends
/// to `dir/shard-<i>/wal.log`, and checkpoints go to
/// `dir/checkpoint/` (see [`Db::open`]).
pub struct LogDir<'a> {
    /// The engine's directory.
    pub dir: &'a Path,
    /// Fsync each commit before it is acknowledged.
    pub fsync: bool,
    /// Append sinks, one per shard, used instead of the real log files
    /// (fault-injection tests substitute crashing ones); empty opens the
    /// real files. Recovery always reads the real files.
    pub ios: Vec<Arc<dyn WalIo>>,
}

impl<'a> LogDir<'a> {
    /// The real log files under `dir`.
    pub fn new(dir: &'a Path, fsync: bool) -> LogDir<'a> {
        LogDir {
            dir,
            fsync,
            ios: Vec::new(),
        }
    }
}

/// The database: S ≥ 1 shards, each a volatile executor over its own
/// slice of the catalog with its own scan workers, behind one router —
/// the Rust stand-in for the Teradata system the paper runs on, whose
/// AMPs are the shards.
///
/// Γ (`n, L, Q`) is additive, so an aggregate over a partitioned table
/// runs phases 1–3 (scan + local merge, or a summary hit) on every shard
/// and gathers by merging the shards' partial accumulator states — the
/// same `AggregateState::merge` each shard's worker threads already
/// use. A statement with exactly one target shard runs whole on that
/// shard: every statement at S = 1, where the lone shard runs inline on
/// the caller's thread, and at S > 1 any SELECT that reads only
/// replicated tables.
///
/// ## Table distribution
///
/// * **Partitioned** — data tables (`CREATE TABLE`, `CREATE TABLE AS
///   SELECT`, [`Db::load_points`]): rows are spread round-robin across
///   shards; every shard holds a disjoint slice.
/// * **Replicated** — model tables ([`Db::register_beta`] and friends,
///   [`Db::register_table`]): every shard holds a full copy, so the
///   paper's scoring pattern (`X CROSS JOIN BETA`) joins each shard's
///   slice of `X` against its own copy of `BETA`.
///
/// Joining two partitioned tables would need a cross-shard exchange
/// and is rejected at S > 1.
///
/// Every piece of mutable state sits behind interior mutability, so
/// one `Arc<Db>` serves any number of concurrent sessions — the serving
/// layer in `nlq-server` builds directly on this. A SQL-text-keyed plan
/// cache skips the parse of repeated read-only statements, and a
/// durable engine logs every mutation before acknowledging it (one log
/// per shard, under one envelope / recovery / checkpoint protocol).
pub struct Db {
    lanes: Vec<Lane>,
    registry: RwLock<Arc<UdfRegistry>>,
    /// Virtual `sys.*` namespace registered by the serving layer.
    system_tables: RwLock<Option<Arc<dyn SystemTableProvider>>>,
    block_scan: AtomicBool,
    cache: PlanCache,
    dist: RwLock<HashMap<String, Distribution>>,
    /// Round-robin cursor: spreads replicated-only queries across
    /// shards and offsets successive INSERT batches so small inserts
    /// don't all land on shard 0.
    rr: AtomicU64,
    /// `None` for a volatile engine.
    logs: Option<LogSet>,
}

impl Db {
    /// A volatile single-shard database executing scans on `workers`
    /// parallel threads, with all of the paper's UDFs pre-registered.
    pub fn new(workers: usize) -> Self {
        Db::volatile(1, workers)
    }

    /// Opens a **durable** single-shard database rooted at `dir` (see
    /// [`Db::open`]).
    pub fn open_durable(workers: usize, dir: &Path, fsync: bool) -> Result<Db> {
        Db::open(1, workers, Some(LogDir::new(dir, fsync)))
    }

    /// Builds a database of `shards` shards (at least one), each
    /// scanning with `workers` threads. At S > 1 each shard also gets an
    /// executor thread pinned to a disjoint slice of the machine's
    /// cores.
    ///
    /// With `wal`, the database is durable: every mutating statement
    /// and ingest envelope is written to the shards' logs before it is
    /// acknowledged, and opening the same directory again — with the
    /// same shard count — replays the committed log tails on top of the
    /// latest checkpoint snapshot under the presumed-abort rule. See
    /// [`Db::checkpoint`] for log truncation.
    pub fn open(shards: usize, workers: usize, wal: Option<LogDir<'_>>) -> Result<Db> {
        let mut db = Db::volatile(shards, workers);
        let Some(wal) = wal else {
            return Ok(db);
        };
        let paths: Vec<PathBuf> = (0..db.lanes.len())
            .map(|i| wal.dir.join(format!("shard-{i}/wal.log")))
            .collect();
        let ios = if wal.ios.is_empty() {
            paths
                .iter()
                .map(|p| LogSet::file_io(p))
                .collect::<Result<_>>()?
        } else {
            assert_eq!(wal.ios.len(), paths.len(), "one WalIo per shard");
            wal.ios
        };
        let logs = paths.into_iter().zip(ios).collect();
        let logs = LogSet::open(wal.dir, logs, wal.fsync, |rec| db.recover(rec))?;
        db.logs = Some(logs);
        Ok(db)
    }

    fn volatile(shards: usize, workers: usize) -> Db {
        let shards = shards.max(1);
        Db {
            lanes: (0..shards).map(|i| Lane::new(i, shards, workers)).collect(),
            registry: RwLock::new(Arc::new(UdfRegistry::with_builtins())),
            system_tables: RwLock::new(None),
            block_scan: AtomicBool::new(true),
            cache: PlanCache::new(),
            dist: RwLock::new(HashMap::new()),
            rr: AtomicU64::new(0),
            logs: None,
        }
    }

    /// Applies one recovered step. Checkpoint entries name a
    /// partitioned table's slice as `<shard>/<table>` and a replicated
    /// table, saved once, as `<table>`.
    fn recover(&self, rec: Recovered<'_>) -> Result<()> {
        match rec {
            Recovered::Table { ckdir, entry } => match entry.split_once('/') {
                Some((i, name)) => {
                    let i = i
                        .parse::<usize>()
                        .ok()
                        .filter(|&i| i < self.lanes.len())
                        .ok_or(StorageError::Corrupt("checkpoint table entry"))?;
                    let path = ckdir.join(format!("shard-{i}/{name}.tbl"));
                    self.lanes[i].shard.load_table(name, &path)?;
                    self.mark(name, Distribution::Partitioned);
                    Ok(())
                }
                None => {
                    let table = DiskTable::open(&ckdir.join(format!("{entry}.tbl")))?.to_table()?;
                    self.replicate(entry, table, |shard, name, t| {
                        shard.replace(name, t);
                        Ok(())
                    })
                }
            },
            // Through the normal dispatch, so distribution marks and
            // plan-cache invalidation happen as they did live.
            Recovered::Statement(stmt) => self
                .dispatch(
                    &Arc::new(stmt),
                    &ExecOptions::default(),
                    CacheOutcome::Miss,
                    0,
                )
                .map(drop),
            Recovered::Rows { log, table, rows } => {
                self.lanes[log].shard.append_rows(&table, &rows)
            }
        }
    }

    /// Enables or disables the block-at-a-time aggregation path
    /// (enabled by default). With it off, every eligible aggregate
    /// query runs row-at-a-time — the switch the row-vs-block
    /// benchmarks and equivalence tests flip. Per-statement overrides
    /// go through [`Db::execute_with`] instead.
    pub fn set_block_scan(&self, enabled: bool) {
        self.block_scan.store(enabled, Ordering::Relaxed);
    }

    /// Whether the block-at-a-time aggregation path is enabled.
    pub fn block_scan(&self) -> bool {
        self.block_scan.load(Ordering::Relaxed)
    }

    /// Applies a mutation to the UDF registry (to add custom UDFs).
    /// Copy-on-write: statements already executing keep the registry
    /// snapshot they started with; new statements see the update.
    pub fn with_registry_mut<R>(&self, f: impl FnOnce(&mut UdfRegistry) -> R) -> R {
        let mut guard = self.registry.write().expect("registry lock");
        let mut next = (**guard).clone();
        let out = f(&mut next);
        *guard = Arc::new(next);
        out
    }

    /// The current UDF registry snapshot.
    pub fn registry(&self) -> Arc<UdfRegistry> {
        self.registry.read().expect("registry lock").clone()
    }

    /// The materialized Γ summary store (inspect registered summaries
    /// and their freshness; DDL goes through [`Db::execute`]). At S > 1
    /// this is shard 0's store, whose summaries cover shard 0's slice
    /// only; [`SqlEngine::summary_gamma`] merges every shard's.
    pub fn summaries(&self) -> &nlq_summary::SummaryStore {
        self.lanes[0].shard.summaries()
    }

    /// What every shard shares for one statement.
    fn env(&self, opts: &ExecOptions, cancel: Option<Arc<AtomicBool>>) -> Env {
        Env {
            registry: self.registry(),
            system: self
                .system_tables
                .read()
                .expect("system tables lock")
                .clone(),
            block_scan: opts.block_scan.unwrap_or_else(|| self.block_scan()),
            cancel,
        }
    }

    // -----------------------------------------------------------------
    // Execution
    // -----------------------------------------------------------------

    /// Parses and executes one SQL statement with default options.
    pub fn execute(&self, sql: &str) -> Result<ResultSet> {
        self.execute_with(sql, &ExecOptions::default())
    }

    /// Parses (or hits the plan cache) and executes one SQL statement
    /// with per-statement execution options (a server session's
    /// settings). A plan-cache hit skips the parse (`parse_nanos = 0`).
    pub fn execute_with(&self, sql: &str, opts: &ExecOptions) -> Result<ResultSet> {
        let cpu_started = thread_cpu_nanos();
        // A token that flipped before execution began cancels the whole
        // statement up front — nothing has run, nothing mutated.
        check_cancelled(opts.cancel.as_deref(), 0)?;
        let parse_started = Instant::now();
        let (stmt, outcome) = self.cache.get_or_parse(sql)?;
        let parse_nanos = match outcome {
            CacheOutcome::Hit => 0,
            CacheOutcome::Miss => parse_started.elapsed().as_nanos() as u64,
        };
        // A mutating statement's text goes to every shard log.
        // Statements whose rows route to specific shards (INSERT, CTAS,
        // INSERT..SELECT) are logged as full text too and re-routed at
        // replay; placement may differ across a crash, which round-robin
        // distribution makes invisible to query results.
        let payload = Payload::statement(sql, &stmt);
        self.run(&stmt, payload, outcome, parse_nanos, cpu_started, opts)
    }

    /// Executes an already-parsed statement (the entry point for
    /// callers that parse once and execute the same AST many times).
    /// Equivalent to [`Db::execute_with`] except that no parsing
    /// happens, so `parse_nanos` stays 0, and nothing is logged: on a
    /// durable engine, run mutations through [`Db::execute_with`].
    pub fn execute_statement(&self, stmt: Statement, opts: &ExecOptions) -> Result<ResultSet> {
        let cpu_started = thread_cpu_nanos();
        check_cancelled(opts.cancel.as_deref(), 0)?;
        let stmt = Arc::new(stmt);
        let payload = Payload::unlogged();
        self.run(&stmt, payload, CacheOutcome::Miss, 0, cpu_started, opts)
    }

    /// Runs one statement as an envelope, then charges its log cost,
    /// parse time and CPU and records its phase spans.
    fn run(
        &self,
        stmt: &Arc<Statement>,
        payload: Payload<'_>,
        outcome: CacheOutcome,
        parse_nanos: u64,
        cpu_started: u64,
        opts: &ExecOptions,
    ) -> Result<ResultSet> {
        let (mut rs, cost) = LogSet::envelope(self.logs.as_ref(), payload, || {
            self.dispatch(stmt, opts, outcome, parse_nanos)
        })?;
        cost.charge(&mut rs.stats);
        rs.stats.parse_nanos = parse_nanos;
        let cpu = thread_cpu_nanos().saturating_sub(cpu_started);
        rs.stats.cpu_nanos += cpu;
        if let Some(trace) = &opts.trace {
            trace.add_cpu_nanos(cpu);
            trace.add_wal(rs.stats.wal_bytes, rs.stats.wal_fsyncs);
            for span in phase_spans(&rs.stats) {
                trace.record(span);
            }
        }
        Ok(rs)
    }

    fn dispatch(
        &self,
        stmt: &Arc<Statement>,
        opts: &ExecOptions,
        outcome: CacheOutcome,
        parse_nanos: u64,
    ) -> Result<ResultSet> {
        match &**stmt {
            Statement::Select(s) => self.exec_select(stmt, s, opts),
            Statement::Explain(s) => self.exec_explain(stmt, s, opts, outcome),
            Statement::ExplainAnalyze(s) => {
                self.exec_explain_analyze(s, opts, outcome, parse_nanos)
            }
            Statement::CreateTableAs { name, query } => self.exec_ctas(name, query, opts),
            Statement::InsertSelect { table, query } => self.exec_insert_select(table, query, opts),
            Statement::Insert { table, rows } => self.exec_insert(stmt, table, rows, opts),
            Statement::CreateTable { .. }
            | Statement::CreateView { .. }
            | Statement::CreateSummary { .. }
            | Statement::DropSummary { .. }
            | Statement::Drop { .. }
            | Statement::Delete { .. }
            | Statement::Update { .. } => self.exec_write(stmt, opts),
        }
    }

    /// Runs `job` on each target shard — inline where the shard has no
    /// executor thread (S = 1), else on the shard's executor — and
    /// returns the results in target order. The shards share one
    /// cancel token (the caller's, or a fresh one), so the first
    /// non-cancel error stops the others; it wins over cancellations,
    /// which report their summed row counts.
    fn scatter<T: Send + 'static>(
        &self,
        targets: &[usize],
        opts: &ExecOptions,
        rows_of: fn(&T) -> u64,
        job: impl Fn(usize, &Shard, &Env) -> Result<T> + Send + Sync + 'static,
    ) -> Result<Vec<T>> {
        let token = opts.cancel.clone().unwrap_or_default();
        let env = self.env(opts, Some(Arc::clone(&token)));
        let job: Job<T> = Arc::new(move |i, shard| job(i, shard, &env));
        let pending: Vec<_> = targets
            .iter()
            .map(|&i| self.lanes[i].start(i, Arc::clone(&job), &opts.trace, rows_of))
            .collect();
        let results = targets
            .iter()
            .zip(pending)
            .map(|(&i, p)| {
                let (res, nanos) = p.wait();
                self.lanes[i].count(&res, nanos, rows_of);
                if matches!(&res, Err(e) if !matches!(e, EngineError::Cancelled { .. })) {
                    token.store(true, Ordering::Relaxed);
                }
                res
            })
            .collect();
        merge_partial_errors(results)
    }

    /// Runs one statement whole on each target shard. One result comes
    /// back as the shard produced it; several fold into an empty result
    /// with summed counters and the fan-out's wall time.
    fn run_whole(
        &self,
        targets: &[usize],
        stmt: &Arc<Statement>,
        opts: &ExecOptions,
    ) -> Result<ResultSet> {
        let started = Instant::now();
        let job_stmt = Arc::clone(stmt);
        let mut sets = self.scatter(targets, opts, rows_of_set, move |_, shard, env| {
            shard.execute(&job_stmt, env)
        })?;
        if sets.len() == 1 {
            return Ok(sets.pop().expect("one result"));
        }
        let mut rs = ResultSet::empty();
        for s in &sets {
            rs.stats.absorb(&s.stats);
        }
        rs.stats.scatter_nanos = started.elapsed().as_nanos() as u64;
        Ok(rs)
    }

    fn all_targets(&self) -> Vec<usize> {
        (0..self.lanes.len()).collect()
    }

    /// Classifies a SELECT by the distribution of its FROM tables.
    fn route(&self, stmt: &SelectStmt) -> Result<Route> {
        let s = self.lanes.len();
        // One shard holds every table whole.
        if s == 1 {
            return Ok(Route::Single(0));
        }
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
                None if name.starts_with(SYS_PREFIX) => {}
                // Unknown names scatter so the shards surface the real
                // UnknownTable error.
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
            let i = self.rr.fetch_add(1, Ordering::Relaxed) as usize % s;
            return Ok(Route::Single(i));
        }
        Ok(Route::Scatter {
            aggregate: self.is_aggregate(stmt),
        })
    }

    /// Whether a SELECT runs in aggregate mode (GROUP BY present or any
    /// projection contains an aggregate call): those gather by merging
    /// partial accumulator states, everything else concatenates rows.
    fn is_aggregate(&self, stmt: &SelectStmt) -> bool {
        let registry = self.registry();
        let is_agg = |n: &str| crate::expr::AggKind::is_aggregate_name(n, &registry);
        !stmt.group_by.is_empty()
            || stmt
                .projections
                .iter()
                .any(|p| p.expr.contains_aggregate(&is_agg))
    }

    /// `stmt` must be the `Statement::Select` wrapping `select`.
    fn exec_select(
        &self,
        stmt: &Arc<Statement>,
        select: &SelectStmt,
        opts: &ExecOptions,
    ) -> Result<ResultSet> {
        match self.route(select)? {
            Route::Single(i) => self.run_whole(&[i], stmt, opts),
            Route::Scatter { aggregate: true } => self.exec_merge(stmt, select, opts),
            Route::Scatter { aggregate: false } => self.exec_concat(select, opts),
        }
    }

    /// Aggregate scatter/gather: each shard computes its Γ partial
    /// (phases 1–3, or a summary hit with zero rows scanned); the
    /// gather merges partial accumulator states and finalizes once.
    fn exec_merge(
        &self,
        stmt: &Arc<Statement>,
        select: &SelectStmt,
        opts: &ExecOptions,
    ) -> Result<ResultSet> {
        let scatter_started = Instant::now();
        let job_stmt = Arc::clone(stmt);
        let partials = self.scatter(
            &self.all_targets(),
            opts,
            |p: &AggPartial| p.stats.rows_scanned,
            move |_, shard, env| {
                let Statement::Select(s) = &*job_stmt else {
                    unreachable!("merge scatters a SELECT");
                };
                shard.execute_select_partial(s, env)
            },
        )?;
        let scatter_nanos = scatter_started.elapsed().as_nanos() as u64;

        let gather_started = Instant::now();
        let env = self.env(opts, opts.cancel.clone());
        let mut rs = self.lanes[0]
            .shard
            .ctx(&env)
            .finalize_select_partials(select, partials)?;
        rs.stats.scatter_nanos = scatter_nanos;
        rs.stats.gather_nanos = gather_started.elapsed().as_nanos() as u64;
        Ok(rs)
    }

    /// Scalar scatter/gather: every shard streams its slice of rows;
    /// the gather concatenates in shard order, re-sorts when the query
    /// has an ORDER BY, and re-applies LIMIT.
    fn exec_concat(&self, select: &SelectStmt, opts: &ExecOptions) -> Result<ResultSet> {
        let (shard_stmt, keys, hidden) = concat_plan(select);
        let scatter_started = Instant::now();
        let stmt = Arc::new(Statement::Select(shard_stmt));
        let sets = self.scatter(
            &self.all_targets(),
            opts,
            rows_of_set,
            move |_, shard, env| shard.execute(&stmt, env),
        )?;
        let scatter_nanos = scatter_started.elapsed().as_nanos() as u64;

        let gather_started = Instant::now();
        let mut stats = ExecStats::default();
        for s in &sets {
            stats.absorb(&s.stats);
        }
        let visible = sets[0].columns.len() - hidden;
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
        if let Some(l) = select.limit {
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

    /// EXPLAIN: shard 0's plan plus the route and the plan-cache probe
    /// outcome for this statement text.
    fn exec_explain(
        &self,
        stmt: &Arc<Statement>,
        select: &SelectStmt,
        opts: &ExecOptions,
        outcome: CacheOutcome,
    ) -> Result<ResultSet> {
        let env = self.env(opts, opts.cancel.clone());
        let mut rs = self.lanes[0].shard.execute(stmt, &env)?;
        for line in self.route_lines(select, outcome)? {
            rs.rows.push(vec![Value::Str(line)]);
        }
        Ok(rs)
    }

    fn route_lines(&self, select: &SelectStmt, outcome: CacheOutcome) -> Result<Vec<String>> {
        let s = self.lanes.len();
        let route = match self.route(select)? {
            Route::Scatter { aggregate: true } => format!("scatter: {s} shards, gather: merge"),
            Route::Scatter { aggregate: false } => format!("scatter: {s} shards, gather: concat"),
            Route::Single(_) => format!("route: 1 of {s} shard(s)"),
        };
        let probe = match outcome {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        };
        Ok(vec![route, format!("plan cache: {probe}")])
    }

    /// EXPLAIN ANALYZE: execute the select, then render its phase spans
    /// (wall times summing exactly to the total via the trailing
    /// `other` line), the scan-mode and summary verdicts, and the route.
    fn exec_explain_analyze(
        &self,
        select: &SelectStmt,
        opts: &ExecOptions,
        outcome: CacheOutcome,
        parse_nanos: u64,
    ) -> Result<ResultSet> {
        let exec_started = Instant::now();
        let stmt = Arc::new(Statement::Select(select.clone()));
        let inner = self.exec_select(&stmt, select, opts)?;
        let mut stats = inner.stats;
        stats.parse_nanos = parse_nanos;
        let total_nanos = parse_nanos + exec_started.elapsed().as_nanos() as u64;
        let mut lines = render_spans(total_nanos, &phase_spans(&stats));
        lines.extend(explain_analyze_footer(&stats));
        lines.extend(self.route_lines(select, outcome)?);
        let mut rs = ResultSet::new(
            vec!["plan".into()],
            lines.into_iter().map(|l| vec![Value::Str(l)]).collect(),
        );
        rs.stats = stats;
        Ok(rs)
    }

    /// DDL, DELETE and UPDATE run whole on every shard, then drop
    /// cached plans and update distribution metadata. This is the one
    /// write-invalidation hook: DELETE/UPDATE rebuild each shard's
    /// table (and its PK index) and fold Γ deltas, and must not leave
    /// plans cached. Plain INSERT/ingest appends within an existing
    /// shape and deliberately skips it: dropping cached plans on every
    /// ingest chunk would force the read-while-ingest path to re-parse.
    fn exec_write(&self, stmt: &Arc<Statement>, opts: &ExecOptions) -> Result<ResultSet> {
        let rs = self.run_whole(&self.all_targets(), stmt, opts)?;
        self.cache.invalidate();
        match &**stmt {
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
            Statement::Drop { name } => self.unmark(name),
            _ => {}
        }
        Ok(rs)
    }

    /// CREATE TABLE AS: run the defining query, then deal the
    /// materialized rows round-robin as a new partitioned table.
    fn exec_ctas(&self, name: &str, query: &SelectStmt, opts: &ExecOptions) -> Result<ResultSet> {
        if self
            .dist
            .read()
            .expect("dist map")
            .contains_key(&name.to_ascii_lowercase())
        {
            return Err(EngineError::DuplicateTable(name.to_owned()));
        }
        let stmt = Arc::new(Statement::Select(query.clone()));
        let rs = self.exec_select(&stmt, query, opts)?;
        let slices = deal(rs.rows, self.lanes.len(), 0);
        for (lane, rows) in self.lanes.iter().zip(slices) {
            let slice = ResultSet::new(rs.columns.clone(), rows);
            let table = result_to_table(&slice, lane.shard.workers())?;
            lane.shard.register(name, table)?;
        }
        self.mark(name, Distribution::Partitioned);
        self.cache.invalidate();
        let mut out = ResultSet::empty();
        out.stats = rs.stats;
        Ok(out)
    }

    /// INSERT INTO ... SELECT: run the query, then append the rows
    /// round-robin (partitioned target) or everywhere (replicated).
    fn exec_insert_select(
        &self,
        table: &str,
        query: &SelectStmt,
        opts: &ExecOptions,
    ) -> Result<ResultSet> {
        let stmt = Arc::new(Statement::Select(query.clone()));
        let rs = self.exec_select(&stmt, query, opts)?;
        self.insert_slices(table, &self.spread(table, rs.rows))?;
        let mut out = ResultSet::empty();
        out.stats = rs.stats;
        Ok(out)
    }

    /// INSERT ... VALUES: one shard, or a replicated target, takes the
    /// whole statement everywhere; otherwise the literal rows are dealt
    /// round-robin and each shard evaluates its own slice.
    fn exec_insert(
        &self,
        stmt: &Arc<Statement>,
        table: &str,
        rows: &[Vec<Expr>],
        opts: &ExecOptions,
    ) -> Result<ResultSet> {
        let s = self.lanes.len();
        if s == 1 || self.table_dist(table) == Distribution::Replicated {
            return self.run_whole(&self.all_targets(), stmt, opts);
        }
        let off = self.rr.fetch_add(rows.len() as u64, Ordering::Relaxed) as usize;
        let slices = deal(rows.to_vec(), s, off);
        let targets: Vec<usize> = (0..s).filter(|&i| !slices[i].is_empty()).collect();
        let subs: Vec<Statement> = slices
            .into_iter()
            .map(|rows| Statement::Insert {
                table: table.to_owned(),
                rows,
            })
            .collect();
        let started = Instant::now();
        let sets = self.scatter(&targets, opts, rows_of_set, move |i, shard, env| {
            shard.execute(&subs[i], env)
        })?;
        let mut rs = ResultSet::empty();
        for set in &sets {
            rs.stats.absorb(&set.stats);
        }
        rs.stats.scatter_nanos = started.elapsed().as_nanos() as u64;
        Ok(rs)
    }

    /// One slice of pre-evaluated `rows` per shard: round-robin from a
    /// moving offset (partitioned target) or a full copy everywhere
    /// (replicated target).
    fn spread(&self, table: &str, rows: Vec<Row>) -> Vec<Vec<Row>> {
        let s = self.lanes.len();
        match self.table_dist(table) {
            Distribution::Replicated => vec![rows; s],
            Distribution::Partitioned => {
                let off = self.rr.fetch_add(rows.len() as u64, Ordering::Relaxed) as usize;
                deal(rows, s, off)
            }
        }
    }

    /// Appends each non-empty slice to its shard, which folds the delta
    /// into its own fresh Γ summaries.
    fn insert_slices(&self, table: &str, slices: &[Vec<Row>]) -> Result<()> {
        for (lane, rows) in self.lanes.iter().zip(slices) {
            if !rows.is_empty() {
                lane.shard.append_rows(table, rows)?;
            }
        }
        Ok(())
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

    fn unmark(&self, name: &str) {
        self.dist
            .write()
            .expect("dist map")
            .remove(&name.to_ascii_lowercase());
    }

    fn table_dist(&self, name: &str) -> Distribution {
        self.dist
            .read()
            .expect("dist map")
            .get(&name.to_ascii_lowercase())
            .copied()
            .unwrap_or(Distribution::Partitioned)
    }

    /// Hands every shard a copy of `table` (shard 0 gets the original)
    /// and marks the name replicated.
    fn replicate(
        &self,
        name: &str,
        table: Table,
        put: impl Fn(&Shard, &str, Table) -> Result<()>,
    ) -> Result<()> {
        for lane in &self.lanes[1..] {
            put(&lane.shard, name, table.clone())?;
        }
        put(&self.lanes[0].shard, name, table)?;
        self.mark(name, Distribution::Replicated);
        Ok(())
    }

    /// Registers a pre-built table (the bulk-load path for large data
    /// sets, bypassing SQL INSERT overhead) as a replicated table: every
    /// shard holds a full copy.
    pub fn register_table(&self, name: &str, table: Table) -> Result<()> {
        self.replicate(name, table, Shard::register)
    }

    /// Fetches a table (views are materialized by execution). At S > 1
    /// this is shard 0's copy: its slice of a partitioned table, or the
    /// full copy of a replicated one.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        let env = self.env(&ExecOptions::default(), None);
        self.lanes[0].shard.ctx(&env).resolve_table(name)
    }

    /// Drops a table or view if it exists (with its summaries).
    pub fn drop_if_exists(&self, name: &str) {
        for lane in &self.lanes {
            lane.shard.drop_if_exists(name);
        }
        self.unmark(name);
    }

    /// Bulk-loads a point matrix as the partitioned table
    /// `X(i, X1..Xd[, Y])`: row ids are `1..=n`, row `i` goes to shard
    /// `i mod S`, and when `with_y` is set the last column of each row
    /// is stored as `Y`.
    pub fn load_points(&self, name: &str, rows: &[Vec<f64>], with_y: bool) -> Result<()> {
        let s = self.lanes.len();
        let ncols = rows.first().map_or(0, Vec::len);
        let d = if with_y {
            ncols.saturating_sub(1)
        } else {
            ncols
        };
        let mut tables: Vec<Table> = self
            .lanes
            .iter()
            .map(|lane| Table::new(Schema::points(d, with_y), lane.shard.workers()))
            .collect();
        for (i, r) in rows.iter().enumerate() {
            let mut row: Row = Vec::with_capacity(r.len() + 1);
            row.push(Value::Int(i as i64 + 1));
            row.extend(r.iter().map(|&v| Value::Float(v)));
            tables[i % s].insert(row)?;
        }
        for (lane, t) in self.lanes.iter().zip(tables) {
            lane.shard.register(name, t)?;
        }
        self.mark(name, Distribution::Partitioned);
        Ok(())
    }

    // -----------------------------------------------------------------
    // Summary matrices (§3.4)
    // -----------------------------------------------------------------

    /// Computes `n, L, Q` over the given columns with the aggregate
    /// UDF (list style) — the paper's fastest in-DBMS path.
    pub fn compute_nlq(&self, table: &str, cols: &[&str], shape: MatrixShape) -> Result<Nlq> {
        self.compute_nlq_with(NlqMethod::UdfList, table, cols, shape)
    }

    /// Computes `n, L, Q` with an explicit implementation choice.
    pub fn compute_nlq_with(
        &self,
        method: NlqMethod,
        table: &str,
        cols: &[&str],
        shape: MatrixShape,
    ) -> Result<Nlq> {
        let cols: Vec<String> = cols.iter().map(|c| (*c).to_owned()).collect();
        match method {
            NlqMethod::Sql => {
                let sql = sqlgen::nlq_sql_query(table, &cols, shape);
                let rs = self.execute(&sql)?;
                parse_wide_nlq(&rs, cols.len(), shape)
            }
            NlqMethod::UdfList | NlqMethod::UdfString => {
                let style = if method == NlqMethod::UdfList {
                    ParamStyle::List
                } else {
                    ParamStyle::String
                };
                let sql = sqlgen::nlq_udf_query(table, &cols, shape, style);
                let rs = self.execute(&sql)?;
                let packed = rs.value(0, 0).as_str().ok_or_else(|| {
                    EngineError::Unsupported(
                        "aggregate UDF returned no result (empty table?)".into(),
                    )
                })?;
                Ok(unpack_nlq(packed)?)
            }
        }
    }

    /// Computes one `n, L, Q` set per group (Table 5's workload),
    /// returning `(group value, statistics)` pairs.
    pub fn compute_nlq_grouped(
        &self,
        table: &str,
        cols: &[&str],
        group_col: &str,
        shape: MatrixShape,
        style: ParamStyle,
    ) -> Result<Vec<(Value, Nlq)>> {
        let cols: Vec<String> = cols.iter().map(|c| (*c).to_owned()).collect();
        let sql = sqlgen::nlq_grouped_query(table, &cols, group_col, shape, style);
        let rs = self.execute(&sql)?;
        let mut out = Vec::with_capacity(rs.len());
        for r in 0..rs.len() {
            let packed = rs.value(r, 1).as_str().ok_or_else(|| {
                EngineError::Unsupported("grouped aggregate UDF returned NULL".into())
            })?;
            out.push((rs.value(r, 0).clone(), unpack_nlq(packed)?));
        }
        Ok(out)
    }

    /// Computes `n, L, Q` for `d > MAX_D` by block-partitioned UDF
    /// calls (Table 6): submits all `ceil(d/block)²` calls in a single
    /// statement (one synchronized scan, each call packing only the
    /// coordinate segments it needs) and reassembles the full
    /// statistics client-side.
    pub fn compute_nlq_blocked(&self, table: &str, cols: &[&str], block: usize) -> Result<Nlq> {
        let cols: Vec<String> = cols.iter().map(|c| (*c).to_owned()).collect();
        let d = cols.len();
        let sql = sqlgen::nlq_block_query(table, &cols, block);
        let rs = self.execute(&sql)?;
        if rs.is_empty() {
            return Err(EngineError::Unsupported(
                "blocked UDF query returned no rows".into(),
            ));
        }
        let mut blocks = Vec::with_capacity(rs.rows[0].len());
        for c in 0..rs.rows[0].len() {
            let packed = rs.value(0, c).as_str().ok_or_else(|| {
                EngineError::Unsupported("blocked UDF returned NULL (empty table?)".into())
            })?;
            blocks.push(unpack_block(packed)?);
        }
        Ok(assemble_blocks(d, &blocks)?)
    }

    // -----------------------------------------------------------------
    // Model tables (§3.5: models are stored in the DBMS as tables)
    // -----------------------------------------------------------------

    /// Publishes (or replaces) a model table under `name`, replicated
    /// to every shard so scoring joins stay shard-local.
    pub fn publish_model(&self, name: &str, table: Table) -> Result<()> {
        self.replicate(name, table, |shard, name, t| {
            shard.drop_if_exists(name);
            shard.register(name, t)
        })
    }

    /// Stores a regression model as the one-row table
    /// `name(b0, b1..bd)` — "this table layout allows retrieving all
    /// coefficients in a single I/O".
    pub fn register_beta(&self, name: &str, intercept: f64, beta: &Vector) -> Result<()> {
        self.publish_model(name, beta_table(intercept, beta)?)
    }

    /// Stores a d × k loading matrix as `name(j, X1..Xd)` with one row
    /// per component `j = 1..k`.
    pub fn register_lambda(&self, name: &str, lambda: &Matrix) -> Result<()> {
        self.publish_model(name, lambda_table(lambda)?)
    }

    /// Stores a mean vector as the one-row table `name(X1..Xd)`.
    pub fn register_mu(&self, name: &str, mu: &Vector) -> Result<()> {
        self.publish_model(name, mu_table(mu)?)
    }

    /// Stores cluster centroids as `name(j, X1..Xd)`, `j = 1..k`.
    pub fn register_centroids(&self, name: &str, centroids: &[Vector]) -> Result<()> {
        self.publish_model(name, centroid_table(centroids)?)
    }

    // -----------------------------------------------------------------
    // Durability
    // -----------------------------------------------------------------

    /// WAL counters summed over the shards' logs (`None` on a volatile
    /// database).
    pub fn wal_stats(&self) -> Option<WalStatsSnapshot> {
        self.logs.as_ref().map(|l| l.stats().wal)
    }

    /// What recovery replayed when this database opened (`None` on a
    /// volatile database).
    pub fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.logs.as_ref().map(|l| l.stats().recovery)
    }

    /// Takes a checkpoint: snapshots every base table plus the DDL to
    /// recreate views and summaries into `dir/checkpoint`, then durably
    /// truncates every log. Returns
    /// `false` (doing nothing) on a volatile database.
    pub fn checkpoint(&self) -> Result<bool> {
        SqlEngine::checkpoint(self, 0)
    }
}

fn rows_of_set(rs: &ResultSet) -> u64 {
    rs.stats.rows_scanned
}

/// Deals `items` into `s` slices round-robin, item `j` to slice
/// `(off + j) mod s`.
fn deal<T>(items: Vec<T>, s: usize, off: usize) -> Vec<Vec<T>> {
    let mut slices: Vec<Vec<T>> = (0..s).map(|_| Vec::new()).collect();
    for (j, item) in items.into_iter().enumerate() {
        slices[(off + j) % s].push(item);
    }
    slices
}

/// Parses the wide one-row result of the pure-SQL `n, L, Q` query into
/// statistics (column order: `n`, `L1..Ld`, then the `d²` Q positions
/// row-major with NULL placeholders for entries the shape skips).
fn parse_wide_nlq(rs: &ResultSet, d: usize, shape: MatrixShape) -> Result<Nlq> {
    let expect = 1 + d + d * d;
    if rs.len() != 1 || rs.rows[0].len() != expect {
        return Err(EngineError::Unsupported(format!(
            "wide nLQ result has wrong shape: {} rows x {} cols, expected 1 x {expect}",
            rs.len(),
            rs.rows.first().map_or(0, Vec::len)
        )));
    }
    let row = &rs.rows[0];
    let n = row[0].as_f64().unwrap_or(0.0);
    let l = Vector::from_vec((0..d).map(|a| row[1 + a].as_f64().unwrap_or(0.0)).collect());
    let mut q = Matrix::zeros(d, d);
    for a in 0..d {
        for b in 0..d {
            if let Some(v) = row[1 + d + a * d + b].as_f64() {
                q[(a, b)] = v;
            }
        }
    }
    // The SQL path does not compute min/max (the UDF does).
    Ok(Nlq::from_parts(
        shape,
        n,
        l,
        q,
        vec![f64::NEG_INFINITY; d],
        vec![f64::INFINITY; d],
    )?)
}

/// The engine-side phase spans one statement's stats describe. Parse
/// is always present (except on a plan-cache hit, when no parse ran);
/// downstream phases appear once they did work.
///
/// Statements that fanned out (`scatter_nanos`/`gather_nanos` nonzero)
/// render as parse → scatter → gather: the shard-local phase times
/// summed into the stats overlap in wall time, so listing them next to
/// the scatter span that already covers them would double-count.
fn phase_spans(stats: &ExecStats) -> Vec<Span> {
    if stats.scatter_nanos > 0 || stats.gather_nanos > 0 {
        let mut spans = Vec::with_capacity(3);
        if stats.parse_nanos > 0 {
            spans.push(Span::new(Phase::Parse, stats.parse_nanos));
        }
        spans.push(
            Span::new(Phase::Scatter, stats.scatter_nanos)
                .rows(stats.rows_scanned)
                .blocks(stats.blocks_scanned),
        );
        spans.push(Span::new(Phase::Gather, stats.gather_nanos));
        if stats.wal_nanos > 0 {
            spans.push(Span::new(Phase::Wal, stats.wal_nanos).bytes(stats.wal_bytes));
        }
        return spans;
    }
    let mut spans = vec![Span::new(Phase::Parse, stats.parse_nanos)];
    if stats.plan_nanos > 0 {
        spans.push(Span::new(Phase::Plan, stats.plan_nanos));
    }
    if stats.summary_nanos > 0 || stats.summary_path {
        spans.push(
            Span::new(Phase::SummaryLookup, stats.summary_nanos).rows(stats.summary_rebuild_rows),
        );
    }
    // Rows scanned by a stale-summary rebuild belong to the
    // summary-lookup span above, not to a (never-run) scan phase.
    if stats.scan_nanos > 0 || stats.rows_scanned > stats.summary_rebuild_rows {
        spans.push(
            Span::new(Phase::Scan, stats.scan_nanos)
                .rows(stats.rows_scanned)
                .blocks(stats.blocks_scanned),
        );
    }
    if stats.finalize_nanos > 0 {
        spans.push(Span::new(Phase::Finalize, stats.finalize_nanos));
    }
    if stats.wal_nanos > 0 {
        spans.push(Span::new(Phase::Wal, stats.wal_nanos).bytes(stats.wal_bytes));
    }
    spans
}

/// The scan-mode / rows-scanned / summary verdict lines that follow
/// the span list in `EXPLAIN ANALYZE` output.
fn explain_analyze_footer(stats: &ExecStats) -> Vec<String> {
    let mut lines = Vec::new();
    let mode = if stats.summary_path {
        if stats.summary_stale_rebuilds > 0 {
            "summary (stale; rebuilt by scanning the base table, then answered from Γ)".to_owned()
        } else {
            "summary (answered from materialized Γ, no scan)".to_owned()
        }
    } else if stats.block_path {
        format!("block ({} column blocks decoded)", stats.blocks_scanned)
    } else {
        "row-at-a-time".to_owned()
    };
    lines.push(format!("scan mode: {mode}"));
    lines.push(format!("rows scanned: {}", stats.rows_scanned));
    if stats.summary_hits + stats.summary_misses + stats.summary_stale_rebuilds > 0 {
        lines.push(format!(
            "summary: {} hit(s), {} miss(es), {} stale rebuild(s)",
            stats.summary_hits, stats.summary_misses, stats.summary_stale_rebuilds
        ));
    }
    lines
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

/// Snapshot of one shard's cumulative activity, as reported through
/// [`SqlEngine::engine_stats`] into the server's metric registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardMetricsSnapshot {
    /// Shard index, `0..shards`.
    pub shard: usize,
    /// Statements (or statement fragments) this shard has executed.
    pub queries: u64,
    /// Base-table rows this shard has scanned.
    pub rows_scanned: u64,
    /// Jobs currently queued on (or running in) the shard's executor
    /// thread (always 0 at S = 1, where jobs run inline).
    pub queue_depth: u64,
    /// Cumulative wall time the shard spent running jobs.
    pub busy_nanos: u64,
}

/// Counters of the SQL-text-keyed prepared-plan cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Statements answered from a cached parse (no parse ran).
    pub hits: u64,
    /// Statements that had to parse (and populated the cache).
    pub misses: u64,
    /// Plans currently cached.
    pub entries: u64,
}

/// Everything an engine reports about itself, in one snapshot
/// ([`SqlEngine::engine_stats`]) — the engine-side input of the
/// server's metric registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Per-shard activity counters, one per shard.
    pub shards: Vec<ShardMetricsSnapshot>,
    /// Prepared-plan cache counters.
    pub plan_cache: PlanCacheStats,
    /// Write-ahead-log state (`None` on a volatile engine).
    pub durability: Option<DurabilityStats>,
}

/// Point-in-time refresh signal for one registered Γ summary, as a
/// refresh daemon polls it through
/// [`SqlEngine::summary_refresh_states`]: the monotone counters say
/// *whether* the maintained state moved, the definition fields say
/// whether a closed-form model refresh is even possible.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRefreshState {
    /// Summary name (lowercase).
    pub name: String,
    /// Base table name (lowercase).
    pub table: String,
    /// Summarized float columns, in declaration order (a refresh
    /// daemon projects these to warm-start iterative models).
    pub columns: Vec<String>,
    /// Monotonic change counter (folds, subtractions, stale edges,
    /// rebuilds), summed across shards.
    pub version: u64,
    /// Cumulative rows folded in or subtracted out, summed across
    /// shards.
    pub rows_folded: u64,
    /// Whether the maintained state is fresh on every shard.
    pub fresh: bool,
    /// Dimensionality of the summarized statistics.
    pub d: usize,
    /// Shape of the maintained `Q` matrix (a Diagonal state cannot
    /// drive correlated model refreshes).
    pub shape: MatrixShape,
    /// Whether the summary is grouped (grouped states cannot feed a
    /// single global model refresh).
    pub grouped: bool,
}

/// The SQL execution surface a serving layer needs: one entry point
/// plus the feature-serving loop (streamed ingest, batch scoring,
/// model publication) and observability hooks. [`Db`] is its only
/// implementation; the trait stays because the server holds an
/// `Arc<dyn SqlEngine>` and the repository benchmark names it
/// (`Arc<Db> as Arc<dyn SqlEngine>`, `SqlEngine::{batch_score,
/// ingest_rows}`).
pub trait SqlEngine: Send + Sync {
    /// Parses and executes one SQL statement with per-statement
    /// execution options.
    fn execute_with(&self, sql: &str, opts: &ExecOptions) -> Result<ResultSet>;

    /// Shard counters, plan-cache counters, and durability state in
    /// one snapshot. Cheap (counter reads), but only asked for when a
    /// metrics surface is read — never per statement.
    fn engine_stats(&self) -> EngineStats;

    /// Appends pre-evaluated rows to a table (the streamed-ingest
    /// commit). The batch is atomic from the reader's point of view:
    /// the table generation swaps once, after every row validated.
    /// Fresh Γ summaries on the table fold the delta in incrementally.
    /// Returns the number of rows accepted.
    fn ingest_rows(&self, table: &str, rows: Vec<Row>) -> Result<u64>;

    /// The schema of a base table (ingest headers validate against it
    /// before any chunk is accepted).
    fn table_schema(&self, name: &str) -> Result<Schema>;

    /// Scores `keys` against the registered model table `model` in one
    /// call, via PK point lookups and the scalar scoring UDFs. One
    /// output row per key, in request order; NULL score for absent
    /// keys. With `explain`, returns the plan instead of executing.
    fn batch_score(
        &self,
        table: &str,
        model: &str,
        keys: &[i64],
        explain: bool,
        opts: &ExecOptions,
    ) -> Result<ResultSet>;

    /// Refresh signals for every registered summary, name-sorted.
    fn summary_refresh_states(&self) -> Vec<SummaryRefreshState>;

    /// The maintained global Γ state of one summary, rebuilding it
    /// first if stale: the merge of every shard's state, exact by Γ
    /// additivity. Errors for grouped summaries (no single global
    /// state exists).
    fn summary_gamma(&self, name: &str) -> Result<Nlq>;

    /// Publishes (or replaces) a model table — one of the layouts
    /// [`crate::beta_table`], [`crate::centroid_table`],
    /// [`crate::lambda_table`] build — replicated everywhere, so
    /// scoring joins stay shard-local.
    fn publish_model(&self, name: &str, table: Table) -> Result<()>;

    /// Snapshots tables + DDL and durably truncates the log(s), but
    /// only while the live logs hold at least `min_log_bytes` (0 =
    /// unconditionally), re-checked under the checkpoint gate so
    /// sessions that cross an auto-checkpoint threshold together
    /// snapshot once. `false` when nothing was done — always, on a
    /// volatile engine.
    fn checkpoint(&self, min_log_bytes: u64) -> Result<bool>;

    /// Registers the virtual `sys.*` namespace every `sys.`-prefixed
    /// table reference resolves through.
    fn set_system_tables(&self, provider: Arc<dyn SystemTableProvider>);
}

impl SqlEngine for Db {
    fn execute_with(&self, sql: &str, opts: &ExecOptions) -> Result<ResultSet> {
        Db::execute_with(self, sql, opts)
    }

    fn engine_stats(&self) -> EngineStats {
        EngineStats {
            shards: self
                .lanes
                .iter()
                .enumerate()
                .map(|(i, lane)| lane.metrics(i))
                .collect(),
            plan_cache: self.cache.stats(),
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
        Ok(self.lanes[0].shard.base_table(name)?.schema().clone())
    }

    /// Keyed rows resolve through the storage PK hash index (no scan)
    /// and run through the scalar scoring UDFs columnar-style; see
    /// [`crate::serve`]. With one shard, or a replicated table, one
    /// shard scores every key. Otherwise round-robin placement means
    /// any shard may own any key, so the key list scatters to every
    /// shard; each returns one row per key (NULL score for keys it does
    /// not hold) and the gather keeps the first non-NULL score per
    /// position. A shard that holds a key but scores it NULL (NULL
    /// features) leaves NULL in place.
    fn batch_score(
        &self,
        table: &str,
        model: &str,
        keys: &[i64],
        explain: bool,
        opts: &ExecOptions,
    ) -> Result<ResultSet> {
        let s = self.lanes.len();
        let (t, m, k) = (table.to_owned(), model.to_owned(), keys.to_vec());
        if s == 1 || self.table_dist(table) == Distribution::Replicated {
            let i = self.rr.fetch_add(1, Ordering::Relaxed) as usize % s;
            let trace = opts.trace.clone();
            let mut one = self.scatter(&[i], opts, rows_of_set, move |_, shard, env| {
                shard.batch_score(env, &t, &m, &k, explain, trace.as_ref())
            })?;
            return Ok(one.pop().expect("one shard"));
        }
        if explain {
            let env = self.env(opts, opts.cancel.clone());
            let mut rs = self.lanes[0]
                .shard
                .batch_score(&env, table, model, keys, true, None)?;
            rs.rows.push(vec![Value::Str(format!(
                "scatter: {s} shards, gather: first owned score per key"
            ))]);
            return Ok(rs);
        }
        let scatter_started = Instant::now();
        let sets = self.scatter(
            &self.all_targets(),
            opts,
            rows_of_set,
            move |_, shard, env| shard.batch_score(env, &t, &m, &k, false, None),
        )?;
        let scatter_nanos = scatter_started.elapsed().as_nanos() as u64;

        let gather_started = Instant::now();
        let mut sets = sets.into_iter();
        let mut out = sets.next().expect("at least one shard");
        for set in sets {
            out.stats.absorb(&set.stats);
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
        for lane in &self.lanes {
            for st in lane.shard.summary_refresh_states() {
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

    fn summary_gamma(&self, name: &str) -> Result<Nlq> {
        let mut acc = self.lanes[0].shard.summary_gamma(name)?;
        for lane in &self.lanes[1..] {
            acc.merge(&lane.shard.summary_gamma(name)?);
        }
        Ok(acc)
    }

    fn publish_model(&self, name: &str, table: Table) -> Result<()> {
        Db::publish_model(self, name, table)
    }

    /// One layout for every S: a replicated table is saved once, as
    /// `<table>.tbl`; a partitioned one as one slice per shard,
    /// `shard-<i>/<table>.tbl`. The manifest names them `<table>` and
    /// `<i>/<table>` (see [`Db::open`] for the reverse).
    fn checkpoint(&self, min_log_bytes: u64) -> Result<bool> {
        LogSet::checkpoint(self.logs.as_ref(), min_log_bytes, |tmp, manifest| {
            let mut names = self.lanes[0].shard.table_names();
            names.sort();
            for name in names {
                if self.table_dist(&name) == Distribution::Replicated {
                    self.lanes[0]
                        .shard
                        .base_table(&name)?
                        .save(&tmp.join(format!("{name}.tbl")))?;
                    manifest.tables.push(name);
                    continue;
                }
                for (i, lane) in self.lanes.iter().enumerate() {
                    let sub = tmp.join(format!("shard-{i}"));
                    std::fs::create_dir_all(&sub)
                        .map_err(|e| StorageError::Io(format!("checkpoint mkdir: {e}")))?;
                    lane.shard
                        .base_table(&name)?
                        .save(&sub.join(format!("{name}.tbl")))?;
                    manifest.tables.push(format!("{i}/{name}"));
                }
            }
            manifest.ddl.extend(self.lanes[0].shard.summary_ddl());
            Ok(())
        })
    }

    fn set_system_tables(&self, provider: Arc<dyn SystemTableProvider>) {
        *self.system_tables.write().expect("system tables lock") = Some(provider);
    }
}
