use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use nlq_linalg::{Matrix, Vector};
use nlq_models::{MatrixShape, Nlq};
use nlq_obs::{render_spans, thread_cpu_nanos, Phase, Span};
use nlq_storage::{
    run_indexed, Column, DiskTable, Row, Schema, StorageError, Table, Value, WalIo,
    WalStatsSnapshot,
};
use nlq_summary::{SummaryData, SummaryDef, SummaryStore};
use nlq_udf::pack::{assemble_blocks, unpack_block, unpack_nlq};
use nlq_udf::{ParamStyle, UdfRegistry};

use crate::ast::{Expr, Statement};
use crate::cache::{CacheOutcome, PlanCache};
use crate::catalog::{Catalog, CatalogEntry};
use crate::durable::{DurabilityStats, LogSet, Payload, Recovered, RecoveryInfo};
use crate::exec::{check_cancelled, result_to_table, ExecContext};
use crate::expr::{Binder, BoundSchema};
use crate::output::ResultBlock;
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
    /// Queries answered from a summary.
    pub summary_hits: u64,
    /// Aggregate queries on a summarized table that no summary could
    /// answer (fell back to a scan).
    pub summary_misses: u64,
    /// Wall-clock time parsing the SQL text.
    pub parse_nanos: u64,
    /// Wall-clock time planning (table resolution, predicate
    /// classification, join-product construction).
    pub plan_nanos: u64,
    /// Wall-clock time probing the Γ summary store and answering from
    /// it.
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
    /// CPU nanoseconds this statement consumed: the calling thread's
    /// (`CLOCK_THREAD_CPUTIME_ID` sampled at statement boundaries) plus
    /// that of the scan-pool helpers that ran its partitions (sampled
    /// around each, into a sink that outlives an error). Its trace
    /// takes the same total.
    pub cpu_nanos: u64,
    /// Whether the statement was cancelled mid-execution. The engine
    /// never returns a [`ResultSet`] for a cancelled statement (it
    /// returns [`EngineError::Cancelled`]); this flag exists so
    /// serving layers can report "last statement was cancelled after
    /// `rows_scanned` rows" through the same stats struct.
    pub cancelled: bool,
}

/// Fewest blocks worth a row-building task of their own: a block's
/// rows take far longer to build than a scan-pool helper takes to wake.
const MIN_BLOCKS_PER_BUILDER: usize = 4;

/// Rows returned by a query.
///
/// A block-path scalar result leaves the engine as column blocks
/// ([`ResultSet::blocks`]). [`Db::execute`] and every other in-process
/// entry point build them into `rows` before returning; only
/// [`SqlEngine::execute_blocks`] hands them out unbuilt, for a caller
/// that encodes columns directly (the server's chunk encoder). At most
/// one of `rows` and the blocks is non-empty.
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Row>,
    /// Execution counters for the statement that produced this result.
    pub stats: ExecStats,
    /// Block-path output not yet built into `rows`.
    blocks: Vec<ResultBlock>,
}

/// Equality ignores [`ResultSet::stats`]: two runs of the same query
/// are "the same result" regardless of which scan path produced it or
/// how long the phases took.
impl PartialEq for ResultSet {
    fn eq(&self, other: &Self) -> bool {
        self.columns == other.columns && self.rows == other.rows && self.blocks == other.blocks
    }
}

impl ResultSet {
    /// A result with the given columns and rows (counters zeroed).
    pub fn new(columns: Vec<String>, rows: Vec<Row>) -> Self {
        ResultSet {
            columns,
            rows,
            stats: ExecStats::default(),
            blocks: Vec::new(),
        }
    }

    /// A block-path result (counters zeroed).
    pub(crate) fn from_blocks(columns: Vec<String>, blocks: Vec<ResultBlock>) -> Self {
        ResultSet {
            blocks,
            ..ResultSet::new(columns, Vec::new())
        }
    }

    /// An empty result (DDL statements).
    pub fn empty() -> Self {
        ResultSet::new(Vec::new(), Vec::new())
    }

    /// Number of rows, built or still in blocks.
    pub fn len(&self) -> usize {
        self.rows.len() + self.blocks.iter().map(ResultBlock::len).sum::<usize>()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Block-path output not yet built into rows (empty on every
    /// result but [`SqlEngine::execute_blocks`]'s).
    pub fn blocks(&self) -> &[ResultBlock] {
        &self.blocks
    }

    /// Builds the block-path output into `rows`: the one place a
    /// columnar result becomes rows. Every row is an allocation of its
    /// own, so a result of many blocks is built on up to `workers`
    /// threads of the scan pool, as the row path's scans build theirs.
    pub(crate) fn build_rows(&mut self, workers: usize) {
        if self.blocks.is_empty() {
            return;
        }
        let blocks = std::mem::take(&mut self.blocks);
        let total = blocks.iter().map(ResultBlock::len).sum::<usize>();
        let per_task = blocks
            .len()
            .div_ceil(workers.max(1))
            .max(MIN_BLOCKS_PER_BUILDER);
        let parts: Vec<&[ResultBlock]> = blocks.chunks(per_task).collect();
        // The first part's vector is sized for every row, so the rest
        // append to it without regrowing.
        let mut built = run_indexed(parts.len(), workers, |i| {
            let mut rows = Vec::with_capacity(if i == 0 { total } else { 0 });
            for block in parts[i] {
                block.push_rows(&mut rows);
            }
            rows
        })
        .into_iter();
        self.rows = built.next().expect("at least one block");
        for rows in built {
            self.rows.extend(rows);
        }
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
    /// Whether eligible statements may use the block-at-a-time scan
    /// for this statement (`None` means on). Off runs every statement
    /// row-at-a-time — the switch the row-vs-block benchmarks and
    /// equivalence tests flip.
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
    /// admission, so the statement's spans gather under one trace
    /// tree; 0 when the caller does not track ids.
    pub query_id: u64,
}

/// Where a durable [`Db`] keeps its write-ahead log:
/// `dir/shard-0/wal.log`, with checkpoints in `dir/checkpoint/` (see
/// [`Db::open`]). The `shard-0/` directory is the layout's historical
/// name; a directory that also holds a `shard-<i>/` with i ≥ 1 was
/// written by a sharded engine and is refused.
pub struct LogDir<'a> {
    /// The engine's directory.
    pub dir: &'a Path,
    /// Fsync each commit before it is acknowledged.
    pub fsync: bool,
    /// Append sink used instead of the real log file (fault-injection
    /// tests substitute a crashing one); `None` opens the real file.
    /// Recovery always reads the real file.
    pub io: Option<Arc<dyn WalIo>>,
}

impl<'a> LogDir<'a> {
    /// The real log file under `dir`.
    pub fn new(dir: &'a Path, fsync: bool) -> LogDir<'a> {
        LogDir {
            dir,
            fsync,
            io: None,
        }
    }

    /// The log file, relative to the engine's directory.
    pub const LOG: &'static str = "shard-0/wal.log";
}

/// The error for a directory or checkpoint written by a sharded engine
/// (S > 1 logs or table slices): opening it with its other logs
/// ignored would silently lose their envelopes.
fn sharded_layout(dir: &Path, what: &str) -> EngineError {
    EngineError::Unsupported(format!(
        "{}: {what} belongs to the sharded layout (S > 1), which this \
         engine does not open; only the one-log layout ({}) is readable",
        dir.display(),
        LogDir::LOG
    ))
}

/// The database: one catalog, one Γ summary store and one write-ahead
/// log over round-robin partitioned tables — the Rust stand-in for the
/// Teradata system the paper runs on. Each table partition plays an
/// AMP: a scan runs one partial Γ per partition on the process-wide
/// scan pool, the caller included, and merges the partials (the
/// aggregate protocol's phases 1–3); see DESIGN §11.
///
/// Every piece of mutable state sits behind interior mutability, so
/// one `Arc<Db>` serves any number of concurrent sessions — the serving
/// layer in `nlq-server` builds directly on this. A SQL-text-keyed plan
/// cache skips the parse of repeated read-only statements, and a
/// durable engine logs every mutation before acknowledging it.
pub struct Db {
    catalog: Catalog,
    summaries: SummaryStore,
    /// Scan-pool threads (and partitions of new tables) per statement.
    workers: usize,
    /// DML serializes on one lock: table replacement is copy-on-write,
    /// and without the lock two concurrent INSERTs into one table could
    /// both clone the same generation and lose one batch.
    dml_lock: Mutex<()>,
    registry: RwLock<Arc<UdfRegistry>>,
    /// Virtual `sys.*` namespace registered by the serving layer.
    system_tables: RwLock<Option<Arc<dyn SystemTableProvider>>>,
    cache: PlanCache,
    /// `None` for a volatile engine.
    logs: Option<LogSet>,
}

impl Db {
    /// A volatile database executing scans on up to `workers` threads
    /// of the process-wide scan pool, with all of the paper's UDFs
    /// pre-registered.
    pub fn new(workers: usize) -> Self {
        Db {
            catalog: Catalog::new(),
            summaries: SummaryStore::new(),
            workers: workers.max(1),
            dml_lock: Mutex::new(()),
            registry: RwLock::new(Arc::new(UdfRegistry::with_builtins())),
            system_tables: RwLock::new(None),
            cache: PlanCache::new(),
            logs: None,
        }
    }

    /// Opens a **durable** database rooted at `dir` (see [`Db::open`]).
    pub fn open_durable(workers: usize, dir: &Path, fsync: bool) -> Result<Db> {
        Db::open(workers, Some(LogDir::new(dir, fsync)))
    }

    /// Builds a database scanning with up to `workers` threads of the
    /// process-wide scan pool; it starts no thread of its own.
    ///
    /// With `wal`, the database is durable: every mutating statement
    /// and ingest envelope is written to the log before it is
    /// acknowledged, and opening the same directory again replays the
    /// committed log tail on top of the latest checkpoint snapshot. See
    /// [`Db::checkpoint`] for log truncation.
    ///
    /// # Errors
    /// A directory written by a sharded engine — one that holds a
    /// `shard-<i>/` with i ≥ 1 — is refused before anything is read.
    pub fn open(workers: usize, wal: Option<LogDir<'_>>) -> Result<Db> {
        let mut db = Db::new(workers);
        let Some(wal) = wal else {
            return Ok(db);
        };
        if let Ok(entries) = std::fs::read_dir(wal.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.starts_with("shard-") && name != "shard-0" {
                    return Err(sharded_layout(wal.dir, &format!("{name}/")));
                }
            }
        }
        let path = wal.dir.join(LogDir::LOG);
        let io = match wal.io {
            Some(io) => io,
            None => LogSet::file_io(&path)?,
        };
        let logs = LogSet::open(wal.dir, &path, io, wal.fsync, |rec| db.recover(rec))?;
        db.logs = Some(logs);
        Ok(db)
    }

    /// Applies one recovered step. A checkpoint entry names its table
    /// file: `<table>` is `<table>.tbl`, and `0/<table>` — the form the
    /// sharded engine wrote at S = 1 — is `shard-0/<table>.tbl`.
    fn recover(&self, rec: Recovered<'_>) -> Result<()> {
        match rec {
            Recovered::Table { ckdir, entry } => {
                let (name, path) = match entry.split_once('/') {
                    None => (entry, ckdir.join(format!("{entry}.tbl"))),
                    Some(("0", name)) => (name, ckdir.join(format!("shard-0/{name}.tbl"))),
                    Some((i, _)) if i.parse::<usize>().is_ok() => {
                        return Err(sharded_layout(ckdir, &format!("table entry '{entry}'")))
                    }
                    Some(_) => return Err(StorageError::Corrupt("checkpoint table entry").into()),
                };
                let table = DiskTable::open(&path)?.to_table()?;
                // Recovery starts from an empty catalog; the summary DDL
                // replays after the tables and folds them.
                self.register_table(name, table)
            }
            // Through the normal dispatch, so plan-cache invalidation
            // happens as it did live.
            Recovered::Statement(stmt) => {
                let cpu = AtomicU64::new(0);
                self.dispatch(&stmt, &ExecOptions::default(), CacheOutcome::Miss, 0, &cpu)
                    .map(drop)
            }
            Recovered::Rows { table, rows } => self.append_rows(&table, &rows),
        }
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

    /// The materialized Γ summary store (inspect registered summaries;
    /// DDL goes through [`Db::execute`]).
    pub fn summaries(&self) -> &SummaryStore {
        &self.summaries
    }

    /// The execution context of one statement; pool helpers add the
    /// CPU of the partitions they scan to `cpu`.
    fn ctx<'a>(&'a self, opts: &ExecOptions, cpu: &'a AtomicU64) -> ExecContext<'a> {
        ExecContext {
            catalog: &self.catalog,
            registry: self.registry(),
            summaries: &self.summaries,
            workers: self.workers,
            block_scan: opts.block_scan.unwrap_or(true),
            cancel: opts.cancel.clone(),
            system: self
                .system_tables
                .read()
                .expect("system tables lock")
                .clone(),
            helper_cpu: cpu,
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
        let mut rs = self.execute_blocks(sql, opts)?;
        rs.build_rows(self.workers);
        Ok(rs)
    }

    /// [`Db::execute_with`], except that a block-path scalar result
    /// stays in column blocks ([`ResultSet::blocks`]) instead of being
    /// built into rows.
    pub fn execute_blocks(&self, sql: &str, opts: &ExecOptions) -> Result<ResultSet> {
        let cpu_started = thread_cpu_nanos();
        // A token that flipped before execution began cancels the whole
        // statement up front — nothing has run, nothing mutated.
        check_cancelled(opts.cancel.as_deref(), 0)?;
        let parse_started = Instant::now();
        let (stmt, outcome) = match self.cache.get_or_parse(sql) {
            Ok(parsed) => parsed,
            Err(e) => {
                // A failed parse burned CPU too.
                if let Some(trace) = &opts.trace {
                    trace.add_cpu_nanos(thread_cpu_nanos().saturating_sub(cpu_started));
                }
                return Err(e);
            }
        };
        let parse_nanos = match outcome {
            CacheOutcome::Hit => 0,
            CacheOutcome::Miss => parse_started.elapsed().as_nanos() as u64,
        };
        // A mutating statement is logged as its text and re-executed at
        // replay.
        let payload = Payload::statement(sql, &stmt);
        self.run(&stmt, payload, outcome, parse_nanos, cpu_started, opts)
    }

    /// Executes an already-parsed statement (the entry point for
    /// callers that parse once and execute the same AST many times).
    /// Equivalent to [`Db::execute_with`] except that no parsing
    /// happens, so `parse_nanos` stays 0, and nothing is logged.
    ///
    /// # Errors
    /// On a durable engine a mutating statement fails with
    /// [`EngineError::Unsupported`] before it runs: with no SQL text
    /// to log, its effect would be lost at reopen. Run mutations
    /// through [`Db::execute_with`].
    pub fn execute_statement(&self, stmt: Statement, opts: &ExecOptions) -> Result<ResultSet> {
        let cpu_started = thread_cpu_nanos();
        if self.logs.is_some() && !stmt.is_read_only() {
            return Err(EngineError::Unsupported(
                "execute_statement cannot log a mutation on a durable Db; use execute_with".into(),
            ));
        }
        check_cancelled(opts.cancel.as_deref(), 0)?;
        let payload = Payload::unlogged();
        let mut rs = self.run(&stmt, payload, CacheOutcome::Miss, 0, cpu_started, opts)?;
        rs.build_rows(self.workers);
        Ok(rs)
    }

    /// Runs one statement as an envelope, then charges its log cost,
    /// parse time and CPU and records its phase spans.
    fn run(
        &self,
        stmt: &Statement,
        payload: Payload<'_>,
        outcome: CacheOutcome,
        parse_nanos: u64,
        cpu_started: u64,
        opts: &ExecOptions,
    ) -> Result<ResultSet> {
        let helper_cpu = AtomicU64::new(0);
        let done = LogSet::envelope(self.logs.as_ref(), payload, || {
            self.dispatch(stmt, opts, outcome, parse_nanos, &helper_cpu)
        });
        // The calling thread's CPU and its scan helpers' count on
        // either outcome: the helpers' sink outlives an error.
        let cpu = thread_cpu_nanos().saturating_sub(cpu_started) + helper_cpu.into_inner();
        let (mut rs, cost) = match done {
            Ok(done) => done,
            Err(e) => {
                if let Some(trace) = &opts.trace {
                    trace.add_cpu_nanos(cpu);
                }
                return Err(e);
            }
        };
        cost.charge(&mut rs.stats);
        rs.stats.parse_nanos = parse_nanos;
        rs.stats.cpu_nanos = cpu;
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
        stmt: &Statement,
        opts: &ExecOptions,
        outcome: CacheOutcome,
        parse_nanos: u64,
        cpu: &AtomicU64,
    ) -> Result<ResultSet> {
        let ctx = self.ctx(opts, cpu);
        let rs = match stmt {
            Statement::Select(s) => return ctx.execute_select(s),
            Statement::Explain(s) => {
                let mut lines = ctx.explain_select(s)?;
                lines.push(cache_line(outcome));
                return Ok(plan_result(lines));
            }
            Statement::ExplainAnalyze(s) => {
                let exec_started = Instant::now();
                let mut stats = ctx.execute_select(s)?.stats;
                stats.parse_nanos = parse_nanos;
                let total_nanos = parse_nanos + exec_started.elapsed().as_nanos() as u64;
                let mut lines = render_spans(total_nanos, &phase_spans(&stats));
                lines.extend(explain_analyze_footer(&stats));
                lines.push(cache_line(outcome));
                let mut rs = plan_result(lines);
                rs.stats = stats;
                return Ok(rs);
            }
            // Plain INSERT appends within an existing shape and keeps
            // cached plans: dropping them on every ingest chunk would
            // force the read-while-ingest path to re-parse.
            Statement::Insert { table, rows } => {
                let empty_schema = BoundSchema::new();
                let mut binder = Binder::scalar(&empty_schema, &ctx.registry);
                let values = rows
                    .iter()
                    .map(|row| {
                        row.iter()
                            .map(|e| binder.bind(e)?.eval(&[], &[], &[]))
                            .collect()
                    })
                    .collect::<Result<Vec<Row>>>()?;
                self.append_rows(table, &values)?;
                return Ok(ResultSet::empty());
            }
            Statement::InsertSelect { table, query } => {
                let mut rs = ctx.execute_select(query)?;
                rs.build_rows(self.workers);
                self.append_rows(table, &rs.rows)?;
                let mut out = ResultSet::empty();
                out.stats = rs.stats;
                return Ok(out);
            }
            Statement::CreateTableAs { name, query } => {
                if self.catalog.get(name).is_some() {
                    return Err(EngineError::DuplicateTable(name.clone()));
                }
                let mut rs = ctx.execute_select(query)?;
                rs.build_rows(self.workers);
                self.register_table(name, result_to_table(&rs, self.workers)?)?;
                let mut out = ResultSet::empty();
                out.stats = rs.stats;
                out
            }
            Statement::CreateTable { name, columns } => {
                let schema = Schema::new(
                    columns
                        .iter()
                        .map(|c| Column::new(c.name.clone(), c.ty))
                        .collect(),
                );
                self.register_table(name, Table::new(schema, self.workers))?;
                ResultSet::empty()
            }
            Statement::CreateView { name, query } => {
                self.catalog
                    .insert(name, CatalogEntry::View(Arc::new(query.clone())))?;
                ResultSet::empty()
            }
            Statement::Drop { name } => {
                self.drop_table(name)?;
                ResultSet::empty()
            }
            Statement::CreateSummary {
                name,
                table,
                columns,
                shape,
                minmax,
                group_by,
            } => {
                // Under the DML lock: an INSERT lands before the build
                // (and is scanned) or after the registration (and is
                // folded), never between.
                let _dml = self.dml_lock.lock().expect("dml lock");
                let t = self.base_table(table)?;
                let shape = match shape {
                    None => MatrixShape::Triangular,
                    Some(s) => MatrixShape::parse(s).ok_or_else(|| {
                        EngineError::Unsupported(format!(
                            "unknown summary shape '{s}' (expected diag, triang, or full)"
                        ))
                    })?,
                };
                let def = SummaryDef {
                    name: name.clone(),
                    table: table.to_ascii_lowercase(),
                    columns: columns.clone(),
                    shape,
                    minmax: *minmax,
                    group_by: group_by.clone(),
                };
                self.summaries.create(def, &t)?;
                ResultSet::empty()
            }
            Statement::DropSummary { name } => {
                self.summaries.remove(name)?;
                ResultSet::empty()
            }
            Statement::Delete { table, predicate } => {
                self.rewrite(&ctx, table, predicate.as_ref(), &[])?;
                ResultSet::empty()
            }
            Statement::Update {
                table,
                sets,
                predicate,
            } => {
                self.rewrite(&ctx, table, predicate.as_ref(), sets)?;
                ResultSet::empty()
            }
        };
        // DDL, DELETE and UPDATE drop cached plans: this is the one
        // write-invalidation hook.
        self.cache.invalidate();
        Ok(rs)
    }

    /// DELETE (no `sets`) or UPDATE of the rows `predicate` matches:
    /// rewrites the table (and its PK index) under the DML lock, then
    /// builds every summary on it from the rewritten table. Only when
    /// both succeed are the table and the summaries published, so a
    /// failure or a cancel in either step changes nothing.
    fn rewrite(
        &self,
        ctx: &ExecContext<'_>,
        table: &str,
        predicate: Option<&Expr>,
        sets: &[(String, Expr)],
    ) -> Result<()> {
        let _dml = self.dml_lock.lock().expect("dml lock");
        let t = self.base_table(table)?;
        let mut schema = BoundSchema::new();
        schema.push_table(Some(table), t.schema());
        let mut binder = Binder::scalar(&schema, &ctx.registry);
        let pred = predicate.map(|p| binder.bind(p)).transpose()?;
        let bound_sets: Vec<(usize, _)> = sets
            .iter()
            .map(|(col, e)| {
                let idx = t
                    .schema()
                    .index_of(col)
                    .ok_or_else(|| EngineError::UnknownColumn(col.clone()))?;
                Ok((idx, binder.bind(e)?))
            })
            .collect::<Result<_>>()?;
        let mut replacement = Table::new(t.schema().clone(), t.partition_count());
        for (scanned, row) in t.scan_all().enumerate() {
            check_cancelled(ctx.cancel.as_deref(), scanned as u64)?;
            let mut row = row?;
            let hit = match &pred {
                Some(p) => matches!(p.eval(&row, &[], &[])?, Value::Int(x) if x != 0),
                None => true,
            };
            if hit && sets.is_empty() {
                continue;
            }
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
            replacement.insert(row)?;
        }
        let states = self
            .summaries
            .build_for_table(table, &replacement, ctx.cancel.as_deref())?;
        self.catalog.replace_table(table, Arc::new(replacement));
        states.install();
        Ok(())
    }

    // -----------------------------------------------------------------
    // Loading and registration
    // -----------------------------------------------------------------

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

    /// Appends pre-evaluated rows under the DML lock. Copy-on-write:
    /// clone the table (sharing its sealed chunks and index layers),
    /// append, swap back in; the summaries on the table fold the batch
    /// incrementally (Γ additivity — no rescan).
    fn append_rows(&self, name: &str, rows: &[Row]) -> Result<()> {
        let _dml = self.dml_lock.lock().expect("dml lock");
        let Some(CatalogEntry::Table(arc)) = self.catalog.get(name) else {
            return Err(EngineError::UnknownTable(name.to_owned()));
        };
        let mut table = (*arc).clone();
        table.insert_rows(rows)?;
        self.catalog.replace_table(name, Arc::new(table));
        self.summaries.fold_rows(name, arc.schema(), rows);
        Ok(())
    }

    /// Registers a pre-built table (the bulk-load path for large data
    /// sets, bypassing SQL INSERT overhead).
    pub fn register_table(&self, name: &str, table: Table) -> Result<()> {
        self.catalog
            .insert(name, CatalogEntry::Table(Arc::new(table)))
    }

    /// Fetches a table (views are materialized by execution).
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        let cpu = AtomicU64::new(0);
        self.ctx(&ExecOptions::default(), &cpu).resolve_table(name)
    }

    /// Drops a table or view if it exists (with its summaries).
    pub fn drop_if_exists(&self, name: &str) {
        let _ = self.drop_table(name);
    }

    /// Drops a table or view and the summaries on it, under the DML
    /// lock: a `CREATE SUMMARY` that already took the table then
    /// registers before the drop, never after it.
    fn drop_table(&self, name: &str) -> Result<()> {
        let _dml = self.dml_lock.lock().expect("dml lock");
        self.catalog.remove(name)?;
        self.summaries.drop_for_table(name);
        Ok(())
    }

    /// Bulk-loads a point matrix as the table `X(i, X1..Xd[, Y])`: row
    /// ids are `1..=n`, rows are dealt round-robin over the table's
    /// partitions, and when `with_y` is set the last column of each row
    /// is stored as `Y`.
    pub fn load_points(&self, name: &str, rows: &[Vec<f64>], with_y: bool) -> Result<()> {
        let ncols = rows.first().map_or(0, Vec::len);
        let d = if with_y {
            ncols.saturating_sub(1)
        } else {
            ncols
        };
        let mut table = Table::new(Schema::points(d, with_y), self.workers);
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

    /// Publishes (or replaces) a model table under `name`.
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

    /// Stores cluster centroids as `name(j, X1..Xd)`, `j = 1..k`.
    pub fn register_centroids(&self, name: &str, centroids: &[Vector]) -> Result<()> {
        self.publish_model(name, centroid_table(centroids)?)
    }

    // -----------------------------------------------------------------
    // Durability
    // -----------------------------------------------------------------

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
    /// truncates the log. Returns `false` (doing nothing) on a
    /// volatile database.
    pub fn checkpoint(&self) -> Result<bool> {
        SqlEngine::checkpoint(self, 0)
    }
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

/// The engine-side phase spans one statement's stats describe: each
/// phase appears once it did work, so parse is absent on a plan-cache
/// hit, when no parse ran.
fn phase_spans(stats: &ExecStats) -> Vec<Span> {
    let mut spans = Vec::new();
    if stats.parse_nanos > 0 {
        spans.push(Span::new(Phase::Parse, stats.parse_nanos));
    }
    if stats.plan_nanos > 0 {
        spans.push(Span::new(Phase::Plan, stats.plan_nanos));
    }
    if stats.summary_nanos > 0 || stats.summary_path {
        spans.push(Span::new(Phase::SummaryLookup, stats.summary_nanos));
    }
    if stats.scan_nanos > 0 || stats.rows_scanned > 0 {
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

/// The EXPLAIN line that reports the plan-cache probe.
fn cache_line(outcome: CacheOutcome) -> String {
    let probe = match outcome {
        CacheOutcome::Hit => "hit",
        CacheOutcome::Miss => "miss",
    };
    format!("plan cache: {probe}")
}

/// A one-column `plan` result of EXPLAIN text lines.
fn plan_result(lines: Vec<String>) -> ResultSet {
    ResultSet::new(
        vec!["plan".into()],
        lines.into_iter().map(|l| vec![Value::Str(l)]).collect(),
    )
}

/// The scan-mode / rows-scanned / summary verdict lines that follow
/// the span list in `EXPLAIN ANALYZE` output.
fn explain_analyze_footer(stats: &ExecStats) -> Vec<String> {
    let mut lines = Vec::new();
    let mode = if stats.summary_path {
        "summary (answered from materialized Γ, no scan)".to_owned()
    } else if stats.block_path {
        format!("block ({} column blocks decoded)", stats.blocks_scanned)
    } else {
        "row-at-a-time".to_owned()
    };
    lines.push(format!("scan mode: {mode}"));
    lines.push(format!("rows scanned: {}", stats.rows_scanned));
    if stats.summary_hits + stats.summary_misses > 0 {
        lines.push(format!(
            "summary: {} hit(s), {} miss(es)",
            stats.summary_hits, stats.summary_misses
        ));
    }
    lines
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
    /// Generation of the state: 1 at create, bumped each time DELETE
    /// or UPDATE builds it again (a structural change).
    pub version: u64,
    /// Cumulative rows folded in by INSERT and ingest.
    pub rows_folded: u64,
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

    /// [`SqlEngine::execute_with`], except that a block-path scalar
    /// result stays in column blocks ([`ResultSet::blocks`]) for a
    /// caller that encodes columns directly.
    fn execute_blocks(&self, sql: &str, opts: &ExecOptions) -> Result<ResultSet>;

    /// Plan-cache counters and durability state in one snapshot. Cheap (counter reads), but only asked for when a
    /// metrics surface is read — never per statement.
    fn engine_stats(&self) -> EngineStats;

    /// Appends pre-evaluated rows to a table (the streamed-ingest
    /// commit). The batch is atomic from the reader's point of view:
    /// the table generation swaps once, after every row validated.
    /// The Γ summaries on the table fold the delta in incrementally.
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

    /// The maintained global Γ state of one summary. Errors for grouped
    /// summaries (no single global state exists).
    fn summary_gamma(&self, name: &str) -> Result<Nlq>;

    /// Publishes (or replaces) a model table — one of the layouts
    /// [`crate::beta_table`], [`crate::centroid_table`],
    /// [`crate::lambda_table`] build.
    fn publish_model(&self, name: &str, table: Table) -> Result<()>;

    /// Snapshots tables + DDL and durably truncates the log, but
    /// only while the live log holds at least `min_log_bytes` (0 =
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

    fn execute_blocks(&self, sql: &str, opts: &ExecOptions) -> Result<ResultSet> {
        Db::execute_blocks(self, sql, opts)
    }

    fn engine_stats(&self) -> EngineStats {
        EngineStats {
            plan_cache: self.cache.stats(),
            durability: self.logs.as_ref().map(LogSet::stats),
        }
    }

    /// Streamed-ingest commit. On a durable engine the batch is one
    /// envelope, so ack-at-Done implies durable-at-Done.
    fn ingest_rows(&self, table: &str, rows: Vec<Row>) -> Result<u64> {
        let n = rows.len() as u64;
        let schema = self.table_schema(table)?;
        let payload = Payload::rows(table, &schema, &rows);
        LogSet::envelope(self.logs.as_ref(), payload, || {
            self.append_rows(table, &rows)
        })?;
        Ok(n)
    }

    fn table_schema(&self, name: &str) -> Result<Schema> {
        Ok(self.base_table(name)?.schema().clone())
    }

    /// Keyed rows resolve through the storage PK hash index (no scan)
    /// and run through the scalar scoring UDFs columnar-style; see
    /// [`crate::serve`].
    fn batch_score(
        &self,
        table: &str,
        model: &str,
        keys: &[i64],
        explain: bool,
        opts: &ExecOptions,
    ) -> Result<ResultSet> {
        let cpu = AtomicU64::new(0);
        crate::serve::batch_score(
            &self.ctx(opts, &cpu),
            table,
            model,
            keys,
            explain,
            opts.trace.as_ref(),
        )
    }

    fn summary_refresh_states(&self) -> Vec<SummaryRefreshState> {
        let mut states: Vec<SummaryRefreshState> = self
            .summaries
            .entries()
            .iter()
            .map(|e| SummaryRefreshState {
                name: e.def().name.clone(),
                table: e.def().table.clone(),
                columns: e.def().columns.clone(),
                version: e.version(),
                rows_folded: e.rows_folded(),
                d: e.def().d(),
                shape: e.def().shape,
                grouped: e.def().group_by.is_some(),
            })
            .collect();
        states.sort_by(|a, b| a.name.cmp(&b.name));
        states
    }

    fn summary_gamma(&self, name: &str) -> Result<Nlq> {
        let entry = self
            .summaries
            .get(name)
            .ok_or_else(|| EngineError::Summary(format!("unknown summary '{name}'")))?;
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

    /// Each base table is saved as `<table>.tbl` under the manifest
    /// entry `<table>` (see [`Db::open`] for the reverse).
    fn checkpoint(&self, min_log_bytes: u64) -> Result<bool> {
        LogSet::checkpoint(self.logs.as_ref(), min_log_bytes, |tmp, manifest| {
            let mut names: Vec<String> = self
                .catalog
                .entries()
                .into_iter()
                .filter(|(_, e)| matches!(e, CatalogEntry::Table(_)))
                .map(|(name, _)| name)
                .collect();
            names.sort();
            for name in names {
                self.base_table(&name)?
                    .save(&tmp.join(format!("{name}.tbl")))?;
                manifest.tables.push(name);
            }
            manifest.ddl.extend(
                self.summaries
                    .entries()
                    .iter()
                    .map(|e| summary_create_ddl(e.def())),
            );
            Ok(())
        })
    }

    fn set_system_tables(&self, provider: Arc<dyn SystemTableProvider>) {
        *self.system_tables.write().expect("system tables lock") = Some(provider);
    }
}

/// Regenerates the `CREATE SUMMARY` statement for a live definition
/// (checkpoint manifests carry these; replaying one re-folds the
/// summary from its base table).
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
