use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use nlq_linalg::{Matrix, Vector};
use nlq_models::{MatrixShape, Nlq};
use nlq_obs::{render_spans, thread_cpu_nanos, Phase, Span, Trace};
use nlq_storage::{Column, Row, Schema, Table, Value, WalIo, WalStatsSnapshot};
use nlq_summary::{SummaryData, SummaryDef, SummaryStore};
use nlq_udf::pack::{assemble_blocks, unpack_block, unpack_nlq};
use nlq_udf::{ParamStyle, UdfRegistry};

use crate::ast::Statement;
use crate::catalog::{Catalog, CatalogEntry};
use crate::durable::{DurabilityStats, LogSet, Payload, Recovered, RecoveryInfo};
use crate::exec::{check_cancelled, result_to_table, ExecContext};
use crate::expr::{Binder, BoundSchema};
use crate::parser::parse;
use crate::serve::{beta_table, centroid_table, lambda_table, mu_table};
use crate::sys::SystemTableProvider;
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
    /// Wall-clock time a sharded engine spent fanned out — covers the
    /// slowest shard's local execution. Always 0 on a single `Db`.
    pub scatter_nanos: u64,
    /// Wall-clock time a sharded engine spent collecting shard results
    /// and merging Γ/aggregate partials (or concatenating row
    /// streams). Always 0 on a single `Db`.
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
    /// CPU nanoseconds the executing thread consumed on this
    /// statement (`CLOCK_THREAD_CPUTIME_ID` sampled at statement
    /// boundaries). On a sharded engine, the gather thread plus every
    /// shard executor's partial, summed.
    pub cpu_nanos: u64,
    /// Whether the statement was cancelled mid-execution. The engine
    /// never returns a [`ResultSet`] for a cancelled statement (it
    /// returns [`EngineError::Cancelled`]); this flag exists so
    /// serving layers can report "last statement was cancelled after
    /// `rows_scanned` rows" through the same stats struct.
    pub cancelled: bool,
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
    pub trace: Option<Trace>,
    /// Globally unique query id minted by the serving layer at
    /// admission. Propagated into each shard's partial execution so
    /// scatter spans gather under one trace tree; 0 when the caller
    /// does not track ids.
    pub query_id: u64,
}

impl ExecOptions {
    /// The statement's cancel token as the borrowed form the scan
    /// loops check.
    pub(crate) fn cancel_flag(&self) -> Option<&AtomicBool> {
        self.cancel.as_deref()
    }
}

/// Name of the log file inside a WAL directory.
const WAL_FILE: &str = "wal.log";

/// An in-memory parallel database: catalog + worker pool + UDF
/// registry. The Rust stand-in for the Teradata server the paper runs
/// on (20 parallel threads by default in the experiments).
///
/// Every piece of mutable state sits behind interior mutability
/// (lock-protected catalog, summary store, and registry; atomic
/// settings), so one `Arc<Db>` can serve any number of concurrent
/// sessions — the serving layer in `nlq-server` builds directly on
/// this. DML statements additionally serialize on a single write lock:
/// table replacement is copy-on-write, and without the lock two
/// concurrent INSERTs into one table could both clone the same
/// generation and lose one batch.
pub struct Db {
    catalog: Catalog,
    registry: RwLock<Arc<UdfRegistry>>,
    summaries: SummaryStore,
    workers: usize,
    block_scan: AtomicBool,
    /// Serializes DML (INSERT/DELETE/UPDATE) read-modify-write cycles.
    dml_lock: Mutex<()>,
    /// Write-ahead log; `None` for a volatile (non-durable) database.
    logs: Option<LogSet>,
    /// Virtual `sys.*` namespace registered by the serving layer
    /// (`None` until [`Db::set_system_tables`]).
    system_tables: RwLock<Option<Arc<dyn SystemTableProvider>>>,
}

impl Db {
    /// Creates a database executing scans on `workers` parallel
    /// threads, with all of the paper's UDFs pre-registered.
    pub fn new(workers: usize) -> Self {
        Db {
            catalog: Catalog::new(),
            registry: RwLock::new(Arc::new(UdfRegistry::with_builtins())),
            summaries: SummaryStore::new(),
            workers: workers.max(1),
            block_scan: AtomicBool::new(true),
            dml_lock: Mutex::new(()),
            logs: None,
            system_tables: RwLock::new(None),
        }
    }

    /// Opens a **durable** database rooted at `dir`: every mutating
    /// statement and ingest envelope is written to a write-ahead log
    /// before it is acknowledged (fsynced when `fsync` is true), and
    /// opening the same directory again replays the committed log tail
    /// on top of the latest checkpoint snapshot. See
    /// [`Db::checkpoint`] for log truncation.
    pub fn open_durable(workers: usize, dir: &Path, fsync: bool) -> Result<Db> {
        let io = LogSet::file_io(&dir.join(WAL_FILE))?;
        Db::open_durable_with_io(workers, dir, io, fsync)
    }

    /// [`Db::open_durable`] with an explicit [`WalIo`] for the log
    /// *appends* (fault-injection tests substitute a crashing sink).
    /// Recovery always reads the real file at `dir/wal.log`.
    pub fn open_durable_with_io(
        workers: usize,
        dir: &Path,
        io: Arc<dyn WalIo>,
        fsync: bool,
    ) -> Result<Db> {
        let mut db = Db::new(workers);
        let logs = vec![(dir.join(WAL_FILE), io)];
        let logs = LogSet::open(dir, logs, fsync, |rec| match rec {
            Recovered::Table { ckdir, entry } => {
                db.load_table(entry, &ckdir.join(format!("{entry}.tbl")))
            }
            Recovered::Statement(stmt) => db
                .execute_stmt_inner(stmt, &ExecOptions::default(), 0)
                .map(|_| ()),
            Recovered::Rows { table, rows, .. } => db.insert_rows(&table, &rows),
        })?;
        db.logs = Some(logs);
        Ok(db)
    }

    /// Number of parallel workers (and table partitions).
    pub fn workers(&self) -> usize {
        self.workers
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
    /// and their freshness; DDL goes through [`Db::execute`]).
    pub fn summaries(&self) -> &SummaryStore {
        &self.summaries
    }

    /// Registers the virtual `sys.*` namespace this engine resolves
    /// system-table references through. A serving layer installs one
    /// provider per engine (on a sharded engine: the same provider on
    /// every shard, so any shard can answer a `sys.*` scan).
    pub fn set_system_tables(&self, provider: Arc<dyn SystemTableProvider>) {
        *self.system_tables.write().expect("system tables lock") = Some(provider);
    }

    fn ctx(&self, opts: &ExecOptions) -> ExecContext<'_> {
        ExecContext {
            catalog: &self.catalog,
            registry: self.registry(),
            summaries: &self.summaries,
            workers: self.workers,
            block_scan: opts.block_scan.unwrap_or_else(|| self.block_scan()),
            cancel: opts.cancel.clone(),
            system: self
                .system_tables
                .read()
                .expect("system tables lock")
                .clone(),
        }
    }

    /// Parses and executes one SQL statement with default options.
    pub fn execute(&self, sql: &str) -> Result<ResultSet> {
        self.execute_with(sql, &ExecOptions::default())
    }

    /// Parses and executes one SQL statement with per-statement
    /// execution options (a server session's settings).
    pub fn execute_with(&self, sql: &str, opts: &ExecOptions) -> Result<ResultSet> {
        // A token that flipped before execution began cancels the
        // whole statement up front — nothing has run, nothing mutated.
        if let Some(c) = opts.cancel_flag() {
            if c.load(Ordering::Relaxed) {
                return Err(EngineError::Cancelled { rows_scanned: 0 });
            }
        }
        let cpu_started = thread_cpu_nanos();
        let parse_started = Instant::now();
        let stmt = parse(sql)?;
        let parse_nanos = parse_started.elapsed().as_nanos() as u64;
        let payload = Payload::statement(sql, &stmt);
        let (mut rs, cost) = LogSet::envelope(self.logs.as_ref(), payload, || {
            self.execute_stmt_inner(stmt, opts, parse_nanos)
        })?;
        cost.charge(&mut rs.stats);
        rs.stats.parse_nanos = parse_nanos;
        rs.stats.cpu_nanos += thread_cpu_nanos().saturating_sub(cpu_started);
        if let Some(trace) = &opts.trace {
            trace.add_cpu_nanos(rs.stats.cpu_nanos);
            trace.add_wal(rs.stats.wal_bytes, rs.stats.wal_fsyncs);
            for span in phase_spans(&rs.stats) {
                trace.record(span);
            }
        }
        Ok(rs)
    }

    /// Executes an already-parsed statement (the entry point for plan
    /// caches and sharded engines, which parse once and execute the
    /// same AST many times). Equivalent to [`Db::execute_with`] except
    /// that no parsing happens, so `parse_nanos` stays 0.
    pub fn execute_statement(&self, stmt: Statement, opts: &ExecOptions) -> Result<ResultSet> {
        if let Some(c) = opts.cancel_flag() {
            if c.load(Ordering::Relaxed) {
                return Err(EngineError::Cancelled { rows_scanned: 0 });
            }
        }
        let cpu_started = thread_cpu_nanos();
        let mut rs = self.execute_stmt_inner(stmt, opts, 0)?;
        rs.stats.cpu_nanos += thread_cpu_nanos().saturating_sub(cpu_started);
        if let Some(trace) = &opts.trace {
            trace.add_cpu_nanos(rs.stats.cpu_nanos);
            trace.add_wal(rs.stats.wal_bytes, rs.stats.wal_fsyncs);
            for span in phase_spans(&rs.stats) {
                trace.record(span);
            }
        }
        Ok(rs)
    }

    /// The statement dispatch shared by [`Db::execute_with`] and
    /// [`Db::execute_statement`]. `parse_nanos` is only consulted by
    /// `EXPLAIN ANALYZE` (whose rendering accounts total wall time).
    fn execute_stmt_inner(
        &self,
        stmt: Statement,
        opts: &ExecOptions,
        parse_nanos: u64,
    ) -> Result<ResultSet> {
        let result: Result<ResultSet> = match stmt {
            Statement::Select(stmt) => self.ctx(opts).execute_select(&stmt),
            Statement::Explain(stmt) => {
                let lines = self.ctx(opts).explain_select(&stmt)?;
                Ok(ResultSet::new(
                    vec!["plan".into()],
                    lines.into_iter().map(|l| vec![Value::Str(l)]).collect(),
                ))
            }
            Statement::ExplainAnalyze(stmt) => {
                let exec_started = Instant::now();
                let inner = self.ctx(opts).execute_select(&stmt)?;
                let mut stats = inner.stats;
                stats.parse_nanos = parse_nanos;
                let total_nanos = parse_nanos + exec_started.elapsed().as_nanos() as u64;
                let mut rs = ResultSet::new(
                    vec!["plan".into()],
                    render_analyze(total_nanos, &stats)
                        .into_iter()
                        .map(|l| vec![Value::Str(l)])
                        .collect(),
                );
                rs.stats = stats;
                Ok(rs)
            }
            Statement::CreateTable { name, columns } => {
                let schema = Schema::new(
                    columns
                        .into_iter()
                        .map(|c| Column::new(c.name, c.ty))
                        .collect(),
                );
                self.catalog.insert(
                    &name,
                    CatalogEntry::Table(Arc::new(Table::new(schema, self.workers))),
                )?;
                Ok(ResultSet::empty())
            }
            Statement::CreateTableAs { name, query } => {
                if self.catalog.contains(&name) {
                    return Err(EngineError::DuplicateTable(name));
                }
                let rs = self.ctx(opts).execute_select(&query)?;
                let table = result_to_table(&rs, self.workers)?;
                self.catalog
                    .insert(&name, CatalogEntry::Table(Arc::new(table)))?;
                Ok(ResultSet::empty())
            }
            Statement::CreateView { name, query } => {
                self.catalog
                    .insert(&name, CatalogEntry::View(Arc::new(query)))?;
                Ok(ResultSet::empty())
            }
            Statement::Insert { table, rows } => {
                let registry = self.registry();
                let empty_schema = BoundSchema::new();
                let mut values = Vec::with_capacity(rows.len());
                for row in rows {
                    let mut out = Vec::with_capacity(row.len());
                    for expr in row {
                        let bound = Binder::scalar(&empty_schema, &registry).bind(&expr)?;
                        out.push(bound.eval(&[], &[], &[])?);
                    }
                    values.push(out);
                }
                let _dml = self.dml_lock.lock().expect("dml lock");
                self.append_rows(&table, &values)?;
                Ok(ResultSet::empty())
            }
            Statement::InsertSelect { table, query } => {
                let rs = self.ctx(opts).execute_select(&query)?;
                let _dml = self.dml_lock.lock().expect("dml lock");
                self.append_rows(&table, &rs.rows)?;
                Ok(ResultSet::empty())
            }
            Statement::Drop { name } => {
                self.catalog.remove(&name)?;
                // Summaries die with their base table.
                self.summaries.drop_for_table(&name);
                Ok(ResultSet::empty())
            }
            Statement::CreateSummary {
                name,
                table,
                columns,
                shape,
                minmax,
                group_by,
            } => {
                let t = self.base_table(&table)?;
                let shape = match &shape {
                    None => MatrixShape::Triangular,
                    Some(s) => MatrixShape::parse(s).ok_or_else(|| {
                        EngineError::Unsupported(format!(
                            "unknown summary shape '{s}' (expected diag, triang, or full)"
                        ))
                    })?,
                };
                let def = SummaryDef {
                    name,
                    table: table.to_ascii_lowercase(),
                    columns,
                    shape,
                    minmax,
                    group_by,
                };
                self.summaries.create(def, &t)?;
                Ok(ResultSet::empty())
            }
            Statement::DropSummary { name } => {
                self.summaries.remove(&name)?;
                Ok(ResultSet::empty())
            }
            Statement::Delete { table, predicate } => {
                let registry = self.registry();
                let _dml = self.dml_lock.lock().expect("dml lock");
                let t = self.base_table(&table)?;
                let mut schema = BoundSchema::new();
                schema.push_table(Some(&table), t.schema());
                let pred = predicate
                    .map(|p| Binder::scalar(&schema, &registry).bind(&p))
                    .transpose()?;
                let mut kept = Vec::new();
                let mut deleted = Vec::new();
                for (scanned, row) in t.scan_all().enumerate() {
                    check_cancelled(opts.cancel_flag(), scanned as u64)?;
                    let row = row?;
                    let hit = match &pred {
                        Some(p) => matches!(p.eval(&row, &[], &[])?, Value::Int(x) if x != 0),
                        None => true,
                    };
                    if hit {
                        deleted.push(row);
                    } else {
                        kept.push(row);
                    }
                }
                let mut replacement = Table::new(t.schema().clone(), t.partition_count());
                for row in kept {
                    replacement.insert(row)?;
                }
                self.catalog.replace_table(&table, Arc::new(replacement));
                // Γ is additive, so DELETE is a *subtraction*: summaries
                // that track no min/max absorb the deleted batch exactly
                // (min/max are not invertible from sums — those
                // summaries degrade to stale and rebuild lazily).
                self.summaries
                    .fold_deleted_rows(&table, t.schema(), &deleted);
                Ok(ResultSet::empty())
            }
            Statement::Update {
                table,
                sets,
                predicate,
            } => {
                let registry = self.registry();
                let _dml = self.dml_lock.lock().expect("dml lock");
                let t = self.base_table(&table)?;
                let mut schema = BoundSchema::new();
                schema.push_table(Some(&table), t.schema());
                let pred = predicate
                    .map(|p| Binder::scalar(&schema, &registry).bind(&p))
                    .transpose()?;
                let bound_sets: Vec<(usize, _)> = sets
                    .iter()
                    .map(|(col, e)| {
                        let idx = t
                            .schema()
                            .index_of(col)
                            .ok_or_else(|| EngineError::UnknownColumn(col.clone()))?;
                        Ok((idx, Binder::scalar(&schema, &registry).bind(e)?))
                    })
                    .collect::<Result<_>>()?;
                let mut rows = Vec::new();
                for (scanned, row) in t.scan_all().enumerate() {
                    check_cancelled(opts.cancel_flag(), scanned as u64)?;
                    let mut row = row?;
                    let hit = match &pred {
                        Some(p) => matches!(p.eval(&row, &[], &[])?, Value::Int(x) if x != 0),
                        None => true,
                    };
                    if hit {
                        // All right-hand sides see the pre-update row.
                        let news: Vec<Value> = bound_sets
                            .iter()
                            .map(|(_, e)| e.eval(&row, &[], &[]))
                            .collect::<Result<_>>()?;
                        for ((idx, _), v) in bound_sets.iter().zip(news) {
                            row[*idx] = v;
                        }
                    }
                    rows.push(row);
                }
                self.replace_rows(&table, &t, rows)?;
                Ok(ResultSet::empty())
            }
        };
        result
    }

    /// Whether a SELECT runs in aggregate mode (GROUP BY present or
    /// any projection contains an aggregate call). Aggregate selects
    /// are the ones a sharded engine can gather by merging partial
    /// accumulator states; everything else concatenates rows.
    pub fn select_is_aggregate(&self, stmt: &crate::ast::SelectStmt) -> bool {
        let registry = self.registry();
        let is_agg = |n: &str| crate::expr::AggKind::is_aggregate_name(n, &registry);
        !stmt.group_by.is_empty()
            || stmt
                .projections
                .iter()
                .any(|p| p.expr.contains_aggregate(&is_agg))
    }

    /// Runs phases 1–3 of an aggregate SELECT (scan or summary lookup,
    /// partial merge) and returns the *unfinalized* per-group
    /// accumulator states. A sharded engine calls this on every shard
    /// and combines the partials with
    /// [`Db::finalize_select_partials`] — the paper's AMP dataflow
    /// with the gather step hoisted out of the database.
    pub fn execute_select_partial(
        &self,
        stmt: &crate::ast::SelectStmt,
        opts: &ExecOptions,
    ) -> Result<crate::exec::AggPartial> {
        self.ctx(opts).execute_select_partial(stmt)
    }

    /// Merges aggregate partials from [`Db::execute_select_partial`]
    /// (typically one per shard) and runs phase 4 — finalize, HAVING,
    /// projection, ORDER BY — producing the statement's final result.
    /// The catalog of the `Db` this is called on must resolve the same
    /// schema the partials were produced against.
    pub fn finalize_select_partials(
        &self,
        stmt: &crate::ast::SelectStmt,
        partials: Vec<crate::exec::AggPartial>,
        opts: &ExecOptions,
    ) -> Result<ResultSet> {
        self.ctx(opts).finalize_select_partials(stmt, partials)
    }

    /// Appends pre-evaluated rows to a table under the DML lock (the
    /// row-distribution path of a sharded engine). Fresh summaries on
    /// the table absorb the batch incrementally, like SQL INSERT.
    pub fn insert_rows(&self, table: &str, rows: &[Row]) -> Result<()> {
        let _dml = self.dml_lock.lock().expect("dml lock");
        self.append_rows(table, rows)
    }

    /// WAL counters (`None` on a volatile database).
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
    /// truncates the WAL (see [`LogSet::checkpoint`]). Returns `false`
    /// (doing nothing) on a volatile database.
    pub fn checkpoint(&self) -> Result<bool> {
        SqlEngine::checkpoint(self, 0)
    }

    /// The `CREATE SUMMARY` statements that would recreate every live
    /// summary definition (checkpoint manifests carry these; replaying
    /// one re-folds the summary from its base table).
    pub fn summary_ddl(&self) -> Vec<String> {
        self.summaries
            .entries()
            .iter()
            .map(|e| summary_create_ddl(e.def()))
            .collect()
    }

    /// Resolves a name to a base table, rejecting views (DML and
    /// summary DDL need real storage).
    fn base_table(&self, name: &str) -> Result<Arc<Table>> {
        match self.catalog.get(name) {
            Some(CatalogEntry::Table(t)) => Ok(t),
            Some(CatalogEntry::View(_)) => Err(EngineError::Unsupported(format!(
                "'{name}' is a view; a base table is required"
            ))),
            None => Err(EngineError::UnknownTable(name.to_owned())),
        }
    }

    fn append_rows(&self, name: &str, rows: &[Row]) -> Result<()> {
        let Some(CatalogEntry::Table(arc)) = self.catalog.get(name) else {
            return Err(EngineError::UnknownTable(name.to_owned()));
        };
        // Copy-on-write: clone the table (sharing its sealed chunks and
        // index layers), append, swap back in.
        let mut table = (*arc).clone();
        table.insert_rows(rows)?;
        self.catalog.replace_table(name, Arc::new(table));
        // Incremental maintenance: fold the inserted batch into every
        // fresh summary on this table (Γ additivity — no rescan).
        self.summaries.fold_rows(name, arc.schema(), rows);
        Ok(())
    }

    /// Replaces a table's contents wholesale (UPDATE). The assignments
    /// may have touched arbitrary rows and columns, so every summary on
    /// the table degrades to stale and rebuilds on its next read.
    /// (DELETE has its own path: the removed batch can be *subtracted*
    /// from summaries that track no min/max.)
    fn replace_rows(&self, name: &str, old: &Table, rows: Vec<Row>) -> Result<()> {
        let mut table = Table::new(old.schema().clone(), old.partition_count());
        for row in rows {
            table.insert(row)?;
        }
        self.catalog.replace_table(name, Arc::new(table));
        self.summaries.mark_stale_for_table(name);
        Ok(())
    }

    /// Registers a pre-built table (the bulk-load path for large data
    /// sets, bypassing SQL INSERT overhead).
    pub fn register_table(&self, name: &str, table: Table) -> Result<()> {
        self.catalog
            .insert(name, CatalogEntry::Table(Arc::new(table)))
    }

    /// Registers or replaces a pre-built table. Any summaries on the
    /// name degrade to stale: the new contents are arbitrary.
    pub fn register_or_replace_table(&self, name: &str, table: Table) {
        self.catalog
            .insert_or_replace(name, CatalogEntry::Table(Arc::new(table)));
        self.summaries.mark_stale_for_table(name);
    }

    /// Fetches a table (views are materialized by execution).
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.ctx(&ExecOptions::default()).resolve_table(name)
    }

    /// Drops a table or view if it exists (with its summaries).
    pub fn drop_if_exists(&self, name: &str) {
        if self.catalog.remove(name).is_ok() {
            self.summaries.drop_for_table(name);
        }
    }

    /// Persists a table to disk (see [`nlq_storage::DiskTable`]); the
    /// in-memory copy stays registered.
    pub fn save_table(&self, name: &str, path: &std::path::Path) -> Result<()> {
        let table = self.table(name)?;
        table.save(path)?;
        Ok(())
    }

    /// Loads a previously saved table from disk and registers it under
    /// `name` (replacing any existing entry).
    pub fn load_table(&self, name: &str, path: &std::path::Path) -> Result<()> {
        let disk = nlq_storage::DiskTable::open(path)?;
        self.register_or_replace_table(name, disk.to_table()?);
        Ok(())
    }

    /// Bulk-loads a point matrix as the paper's table
    /// `X(i, X1..Xd[, Y])`: row ids are `1..=n`; when `with_y` is set
    /// the last column of each row is stored as `Y`.
    pub fn load_points(&self, name: &str, rows: &[Vec<f64>], with_y: bool) -> Result<()> {
        let ncols = rows.first().map_or(0, Vec::len);
        let d = if with_y {
            ncols.saturating_sub(1)
        } else {
            ncols
        };
        let schema = Schema::points(d, with_y);
        let mut table = Table::new(schema, self.workers);
        for (i, r) in rows.iter().enumerate() {
            let mut row: Row = Vec::with_capacity(r.len() + 1);
            row.push(Value::Int(i as i64 + 1));
            row.extend(r.iter().map(|&v| Value::Float(v)));
            table.insert(row)?;
        }
        self.register_table(name, table)
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

    /// Publishes (or replaces) a pre-built model table under `name`.
    pub fn publish_model(&self, name: &str, table: Table) -> Result<()> {
        self.drop_if_exists(name);
        self.register_table(name, table)
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

    /// Scores a batch of primary keys against a registered model table
    /// in one call: keyed rows resolve through the storage PK hash
    /// index (no scan) and run through the scalar scoring UDFs
    /// columnar-style. See [`crate::serve`] for the exact semantics.
    pub fn batch_score(
        &self,
        table: &str,
        model: &str,
        keys: &[i64],
        explain: bool,
        opts: &ExecOptions,
    ) -> Result<ResultSet> {
        crate::serve::batch_score(self, table, model, keys, explain, opts)
    }

    /// Stores cluster centroids as `name(j, X1..Xd)`, `j = 1..k`.
    pub fn register_centroids(&self, name: &str, centroids: &[Vector]) -> Result<()> {
        self.publish_model(name, centroid_table(centroids)?)
    }
}

/// Regenerates the `CREATE SUMMARY` statement for a live definition
/// (checkpoint manifests re-execute these after loading the snapshot,
/// re-folding each summary from its base table).
fn summary_create_ddl(def: &SummaryDef) -> String {
    let mut s = format!(
        "CREATE SUMMARY {} ON {} ({})",
        def.name,
        def.table,
        def.columns.join(", ")
    );
    s.push_str(match def.shape {
        MatrixShape::Diagonal => " SHAPE diag",
        MatrixShape::Triangular => " SHAPE triang",
        MatrixShape::Full => " SHAPE full",
    });
    if !def.minmax {
        s.push_str(" NO MINMAX");
    }
    if let Some(g) = &def.group_by {
        s.push_str(&format!(" GROUP BY {g}"));
    }
    s
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
/// Sharded statements (`scatter_nanos`/`gather_nanos` nonzero) render
/// as parse → scatter → gather: the shard-local phase times summed
/// into the stats overlap in wall time, so listing them next to the
/// scatter span that already covers them would double-count.
pub fn phase_spans(stats: &ExecStats) -> Vec<Span> {
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
/// the span list in `EXPLAIN ANALYZE` output (shared with sharded
/// engines, which append their own scatter/gather verdicts).
pub fn explain_analyze_footer(stats: &ExecStats) -> Vec<String> {
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

/// The `EXPLAIN ANALYZE` rendering: the span list (wall times summing
/// exactly to `total_nanos` via the trailing `other` line) followed by
/// the scan-mode and summary verdicts for the executed statement.
fn render_analyze(total_nanos: u64, stats: &ExecStats) -> Vec<String> {
    let mut lines = render_spans(total_nanos, &phase_spans(stats));
    lines.extend(explain_analyze_footer(stats));
    lines
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
    /// Jobs currently queued on (or running in) the shard's executor.
    pub queue_depth: u64,
    /// Cumulative wall time the shard's executor spent running jobs.
    pub busy_nanos: u64,
}

/// Counters of a SQL-text-keyed prepared-plan cache.
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
    /// Per-shard activity counters; empty for an unsharded engine
    /// (which counts as one shard).
    pub shards: Vec<ShardMetricsSnapshot>,
    /// Prepared-plan cache counters (`None` when the engine keeps no
    /// cache).
    pub plan_cache: Option<PlanCacheStats>,
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
    /// rebuilds). On a sharded engine, the sum across shards.
    pub version: u64,
    /// Cumulative rows folded in or subtracted out. On a sharded
    /// engine, the sum across shards.
    pub rows_folded: u64,
    /// Whether the maintained state is fresh (on a sharded engine:
    /// fresh on every shard).
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
/// model publication) and observability hooks. Implemented by [`Db`]
/// (a single engine) and by sharded engines that scatter statements
/// across many `Db` instances — the server holds an
/// `Arc<dyn SqlEngine>` and cannot tell the difference.
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
    /// first if stale. Errors for grouped summaries (no single global
    /// state exists). On a sharded engine, the merge of every shard's
    /// state — exact by Γ additivity.
    fn summary_gamma(&self, name: &str) -> Result<Nlq>;

    /// Publishes (or replaces) a model table — one of the layouts
    /// [`crate::beta_table`], [`crate::centroid_table`],
    /// [`crate::lambda_table`] build. On a sharded engine the table is
    /// replicated everywhere, so scoring joins stay shard-local.
    fn publish_model(&self, name: &str, table: Table) -> Result<()>;

    /// Snapshots tables + DDL and durably truncates the log(s), but
    /// only while the live log holds at least `min_log_bytes` (0 =
    /// unconditionally), re-checked under the checkpoint gate so
    /// sessions that cross an auto-checkpoint threshold together
    /// snapshot once. `false` when nothing was done — always, on a
    /// volatile engine.
    fn checkpoint(&self, min_log_bytes: u64) -> Result<bool>;

    /// Registers the virtual `sys.*` namespace every `sys.`-prefixed
    /// table reference resolves through (default: ignored, for engines
    /// without a catalog hook). Sharded engines install the provider
    /// on every shard so any routing choice can answer a `sys.*` scan.
    fn set_system_tables(&self, _provider: Arc<dyn SystemTableProvider>) {}
}

impl SqlEngine for Db {
    fn execute_with(&self, sql: &str, opts: &ExecOptions) -> Result<ResultSet> {
        Db::execute_with(self, sql, opts)
    }

    fn engine_stats(&self) -> EngineStats {
        EngineStats {
            durability: self.logs.as_ref().map(LogSet::stats),
            ..EngineStats::default()
        }
    }

    fn ingest_rows(&self, table: &str, rows: Vec<Row>) -> Result<u64> {
        let schema = self.table_schema(table)?;
        let slices = [rows];
        // One envelope per ingest batch: the Done ack the server sends
        // after this returns implies the whole batch is durable.
        let payload = Payload::rows(table, &schema, &slices);
        LogSet::envelope(self.logs.as_ref(), payload, || {
            self.insert_rows(table, &slices[0])
        })?;
        Ok(slices[0].len() as u64)
    }

    fn table_schema(&self, name: &str) -> Result<Schema> {
        Ok(self.base_table(name)?.schema().clone())
    }

    fn batch_score(
        &self,
        table: &str,
        model: &str,
        keys: &[i64],
        explain: bool,
        opts: &ExecOptions,
    ) -> Result<ResultSet> {
        Db::batch_score(self, table, model, keys, explain, opts)
    }

    fn summary_refresh_states(&self) -> Vec<SummaryRefreshState> {
        self.summaries
            .entries()
            .iter()
            .map(|e| SummaryRefreshState {
                name: e.def().name.clone(),
                table: e.def().table.clone(),
                columns: e.def().columns.clone(),
                version: e.version(),
                rows_folded: e.rows_folded(),
                fresh: e.is_fresh(),
                d: e.def().d(),
                shape: e.def().shape,
                grouped: e.def().group_by.is_some(),
            })
            .collect()
    }

    fn summary_gamma(&self, name: &str) -> Result<Nlq> {
        let entry = self
            .summaries
            .get(name)
            .ok_or_else(|| EngineError::Summary(format!("unknown summary '{name}'")))?;
        if !entry.is_fresh() {
            let t = self.base_table(&entry.def().table)?;
            entry.rebuild(&t)?;
        }
        match entry.snapshot().data {
            SummaryData::Global(nlq) => Ok(nlq),
            SummaryData::Grouped(_) => Err(EngineError::Unsupported(format!(
                "summary '{name}' is grouped; model refresh needs a global state"
            ))),
        }
    }

    fn publish_model(&self, name: &str, table: Table) -> Result<()> {
        Db::publish_model(self, name, table)
    }

    fn checkpoint(&self, min_log_bytes: u64) -> Result<bool> {
        LogSet::checkpoint(self.logs.as_ref(), min_log_bytes, |tmp, manifest| {
            for (name, entry) in self.catalog.entries() {
                if let CatalogEntry::Table(t) = entry {
                    t.save(&tmp.join(format!("{name}.tbl")))?;
                    manifest.tables.push(name);
                }
            }
            manifest.ddl.extend(self.summary_ddl());
            Ok(())
        })
    }

    fn set_system_tables(&self, provider: Arc<dyn SystemTableProvider>) {
        Db::set_system_tables(self, provider)
    }
}
