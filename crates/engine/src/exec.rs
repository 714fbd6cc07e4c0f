use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use nlq_models::{MatrixShape, Nlq};
use nlq_obs::thread_cpu_nanos;
use nlq_storage::{
    parallel_scan_partitions, Column, ColumnBlock, DataType, Row, Schema, Table, Value, BLOCK_ROWS,
};
use nlq_summary::{
    project_nlq, shape_covers, SummaryData, SummaryDef, SummaryEntry, SummarySnapshot, SummaryStore,
};
use nlq_udf::{check_heap, BatchArg, FloatBatch, ScalarBatchArg, ScalarUdf, UdfRegistry};

use crate::accum::{AggAccum, BlockCall, BlockTerm, MomentsFn};
use crate::ast::{Expr, SelectStmt};
use crate::catalog::{Catalog, CatalogEntry};
use crate::db::{ExecStats, ResultSet};
use crate::expr::{AggCall, AggKind, Binder, BoundExpr, BoundSchema, FastArg};
use crate::output::{set_bits, truncate_blocks, ResultBlock, ResultColumn};
use crate::predicate::{compile_residual, CompiledPredicates, PredScratch};
use crate::sys::SystemTableProvider;
use crate::{EngineError, Result};

/// Upper bound on materialized cross-join products, protecting against
/// accidental combinatorial blowups (the paper's scoring joins touch
/// only `k`-row dimension tables).
const JOIN_LIMIT: usize = 1_000_000;

/// Execution context of one statement.
pub(crate) struct ExecContext<'a> {
    pub catalog: &'a Catalog,
    /// Registry snapshot taken when the statement began (copy-on-write
    /// registration means a shared `Db` can add UDFs concurrently).
    pub registry: Arc<UdfRegistry>,
    /// Materialized Γ summaries the planner may answer from.
    pub summaries: &'a SummaryStore,
    pub workers: usize,
    /// Whether eligible aggregates may use the block-at-a-time scan.
    pub block_scan: bool,
    /// Cooperative cancellation token (see
    /// [`crate::ExecOptions::cancel`]); checked per row/block in every
    /// scan loop.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Virtual `sys.*` namespace (see
    /// [`crate::sys::SystemTableProvider`]); `None` when no serving
    /// layer registered one.
    pub system: Option<Arc<dyn SystemTableProvider>>,
    /// The statement's CPU sink for its scan-pool helpers: each adds
    /// the CPU it spent on a partition as it finishes, so the total
    /// outlives an error.
    pub helper_cpu: &'a AtomicU64,
}

/// Returns [`EngineError::Cancelled`] when the statement's cancel
/// token has flipped. Scan loops call this once per row or block; a
/// relaxed atomic load keeps the check effectively free.
pub(crate) fn check_cancelled(cancel: Option<&AtomicBool>, rows_scanned: u64) -> Result<()> {
    if let Some(c) = cancel {
        if c.load(Ordering::Relaxed) {
            return Err(EngineError::Cancelled { rows_scanned });
        }
    }
    Ok(())
}

/// Folds worker partials, giving any non-cancellation error priority
/// and otherwise collapsing cancelled workers into one
/// [`EngineError::Cancelled`] whose `rows_scanned` sums their
/// best-effort counts.
fn merge_partial_errors<T>(partials: Vec<Result<T>>) -> Result<Vec<T>> {
    let mut out = Vec::with_capacity(partials.len());
    let mut cancelled_rows: Option<u64> = None;
    for p in partials {
        match p {
            Ok(v) => out.push(v),
            Err(EngineError::Cancelled { rows_scanned }) => {
                *cancelled_rows.get_or_insert(0) += rows_scanned;
            }
            Err(e) => return Err(e),
        }
    }
    match cancelled_rows {
        Some(rows_scanned) => Err(EngineError::Cancelled { rows_scanned }),
        None => Ok(out),
    }
}

/// The outcome of planning a SELECT: everything both the executor and
/// EXPLAIN need.
pub(crate) struct PlannedSelect {
    base: Arc<Table>,
    schema: BoundSchema,
    join_product: Vec<Row>,
    residual: Vec<BoundExpr>,
    /// Number of WHERE conjuncts pushed into the join product.
    pushed: usize,
    aggregate_mode: bool,
}

impl PlannedSelect {
    /// Whether the join product is the single empty combination: no
    /// joined table, and no pushed predicate that excluded everything.
    fn trivial_join(&self) -> bool {
        matches!(self.join_product.as_slice(), [suffix] if suffix.is_empty())
    }
}

/// Whether a SELECT runs in aggregate mode: GROUP BY present, or an
/// aggregate call in some projection.
fn is_aggregate_select(stmt: &SelectStmt, registry: &UdfRegistry) -> bool {
    let is_agg = |n: &str| AggKind::is_aggregate_name(n, registry);
    !stmt.group_by.is_empty()
        || stmt
            .projections
            .iter()
            .any(|p| p.expr.contains_aggregate(&is_agg))
}

/// How one SELECT reads its data, chosen once per engine by
/// [`ExecContext::choose`]: the executor runs it and EXPLAIN prints it.
enum AccessPath {
    /// Answer an aggregate from a materialized Γ summary, one recipe
    /// per aggregate call; `snap` is the state the choice was made on.
    Summary {
        entry: Arc<SummaryEntry>,
        snap: SummarySnapshot,
        recipes: Vec<SummaryRecipe>,
    },
    /// Scan column blocks for a global aggregate.
    BlockAggregate(BlockPlan),
    /// Scan rows for an aggregate, for the stated reason.
    RowAggregate(String),
    /// Compute a scalar projection a column block at a time.
    BlockScalar(ScalarBlockPlan),
    /// Scan rows for a scalar projection, for the stated reason.
    RowScalar(String),
}

impl AccessPath {
    /// The `scan mode:` line EXPLAIN prints for this path.
    fn explain_line(&self) -> String {
        match self {
            AccessPath::Summary { snap, .. } if snap.fresh => {
                format!("scan mode: summary ({}, fresh)", snap.def.name)
            }
            AccessPath::Summary { snap, .. } => format!(
                "scan mode: summary ({}, stale; rebuilt on execute)",
                snap.def.name
            ),
            AccessPath::BlockAggregate(bp) => block_line(bp.cols.len(), &bp.predicate, "float"),
            AccessPath::BlockScalar(bp) => block_line(bp.cols.len(), &bp.predicate, "numeric"),
            AccessPath::RowAggregate(why) | AccessPath::RowScalar(why) => {
                format!("scan mode: row-at-a-time ({why})")
            }
        }
    }
}

/// The EXPLAIN line for a block path over `cols` decoded columns;
/// `kind` names them when no predicate adds columns of its own.
fn block_line(cols: usize, predicate: &Option<CompiledPredicates>, kind: &str) -> String {
    match predicate {
        None => format!(
            "scan mode: block ({BLOCK_ROWS}-row column blocks over {cols} {kind} column(s))"
        ),
        Some(p) => format!(
            "scan mode: block ({BLOCK_ROWS}-row column blocks over {cols} numeric column(s); \
             {} predicate(s) as selection bitmap)",
            p.len()
        ),
    }
}

impl ExecContext<'_> {
    /// Runs `scan(p)` for every partition of `base` on the scan pool
    /// and returns the results in partition order. Pool helpers add the
    /// thread CPU they spent to [`ExecContext::helper_cpu`]; the calling
    /// thread's own partitions are already inside the statement's CPU
    /// sample.
    fn scan_partitions<R: Send>(&self, base: &Table, scan: impl Fn(usize) -> R + Sync) -> Vec<R> {
        let caller = std::thread::current().id();
        parallel_scan_partitions(base, self.workers, |p| {
            if std::thread::current().id() == caller {
                return scan(p);
            }
            let started = thread_cpu_nanos();
            let r = scan(p);
            self.helper_cpu.fetch_add(
                thread_cpu_nanos().saturating_sub(started),
                Ordering::Relaxed,
            );
            r
        })
    }

    /// Executes a SELECT statement to completion.
    pub fn execute_select(&self, stmt: &SelectStmt) -> Result<ResultSet> {
        let (plan, bindings, stats) = self.prepare(stmt)?;
        if plan.aggregate_mode {
            self.aggregate(stmt, &plan, bindings, stats)
        } else {
            self.execute_scalar(stmt, &plan, bindings, stats)
        }
    }

    /// Describes the plan for a SELECT without executing its scan —
    /// the `EXPLAIN` statement. It plans, binds and chooses exactly as
    /// execution does, so it fails where the statement would, and its
    /// scan-mode line is the path the executor would take now.
    pub fn explain_select(&self, stmt: &SelectStmt) -> Result<Vec<String>> {
        let (plan, bindings, mut stats) = self.prepare(stmt)?;
        let path = self.choose(stmt, &plan, &bindings, &mut stats);
        let mut lines = Vec::new();
        lines.push(format!(
            "scan {} ({} rows, {} partitions, {} workers)",
            stmt.from[0].name,
            plan.base.row_count(),
            plan.base.partition_count(),
            self.workers
        ));
        if stmt.from.len() > 1 {
            let names: Vec<&str> = stmt.from[1..].iter().map(|t| t.name.as_str()).collect();
            lines.push(format!(
                "cross join [{}] -> {} combination(s) after pushing {} predicate(s)",
                names.join(", "),
                plan.join_product.len(),
                plan.pushed
            ));
        } else if plan.pushed > 0 {
            lines.push(format!("{} constant predicate(s) pushed", plan.pushed));
        }
        if !plan.residual.is_empty() {
            lines.push(format!(
                "filter: {} residual predicate(s) per row",
                plan.residual.len()
            ));
        }
        if plan.aggregate_mode {
            let calls = &bindings.agg_calls;
            let fast = bindings.fast_args.iter().filter(|f| f.is_some()).count();
            let udfs = calls
                .iter()
                .filter(|c| matches!(c.kind, AggKind::Udf(_)))
                .count();
            lines.push(format!(
                "aggregate: {} call(s) ({fast} fast-path candidate(s), {udfs} UDF state(s)); group by {} key(s)",
                calls.len(),
                stmt.group_by.len()
            ));
        } else {
            lines.push(format!(
                "project: {} expression(s) per row",
                stmt.projections.len()
            ));
        }
        lines.push(path.explain_line());
        if stmt.having.is_some() {
            lines.push("having: post-aggregation filter".into());
        }
        if !stmt.order_by.is_empty() {
            lines.push(format!("order by: {} key(s)", stmt.order_by.len()));
        }
        if let Some(limit) = stmt.limit {
            lines.push(format!("limit: {limit}"));
        }
        Ok(lines)
    }

    /// Plans and binds a SELECT; the time both take is the statement's
    /// plan phase.
    fn prepare(&self, stmt: &SelectStmt) -> Result<(PlannedSelect, Bindings, ExecStats)> {
        let started = Instant::now();
        let plan = self.plan_select(stmt)?;
        let bindings = self.bind_select(stmt, &plan.schema, plan.aggregate_mode)?;
        let stats = ExecStats {
            plan_nanos: started.elapsed().as_nanos() as u64,
            ..ExecStats::default()
        };
        Ok((plan, bindings, stats))
    }

    /// Plans a SELECT: resolves tables, binds and classifies WHERE
    /// conjuncts, and materializes the (filtered) join product.
    fn plan_select(&self, stmt: &SelectStmt) -> Result<PlannedSelect> {
        // Resolve FROM: first table streams, the rest are materialized
        // and cross-joined.
        let mut sources = Vec::with_capacity(stmt.from.len());
        for tref in &stmt.from {
            sources.push((self.resolve_table(&tref.name)?, tref.alias.clone()));
        }

        // Build the full combined schema up front so WHERE conjuncts
        // can be bound and classified before the join product is
        // materialized.
        let mut schema = BoundSchema::new();
        for ((table, alias), tref) in sources.iter().zip(&stmt.from) {
            schema.push_table(alias.as_deref().or(Some(&tref.name)), table.schema());
        }
        let (base, _) = sources.remove(0);
        let base_width = base.schema().len();

        // Split the WHERE clause into conjuncts. Conjuncts touching
        // only joined-table columns (e.g. the scoring pattern's
        // `l3.j = 3`) are pushed into the join-product construction —
        // §3.6's join-elimination in spirit: without this, k aliased
        // dimension tables would materialize a k^k product before
        // filtering.
        let mut join_only: Vec<(BoundExpr, usize)> = Vec::new(); // (predicate, width needed)
        let mut residual: Vec<BoundExpr> = Vec::new();
        if let Some(w) = &stmt.where_clause {
            let mut conjuncts = Vec::new();
            split_conjuncts(w, &mut conjuncts);
            for conj in conjuncts {
                let bound = Binder::scalar(&schema, &self.registry).bind(conj)?;
                let mut cols = Vec::new();
                bound.collect_columns(&mut cols);
                match (cols.iter().min(), cols.iter().max()) {
                    (Some(&mn), Some(&mx)) if mn >= base_width => join_only.push((bound, mx + 1)),
                    (None, _) => join_only.push((bound, 0)), // constant predicate
                    _ => residual.push(bound),
                }
            }
        }

        // Materialize the cross-join product of the remaining tables,
        // applying each join-only predicate at the earliest stage its
        // columns exist.
        let null_prefix: Row = vec![Value::Null; base_width];
        let mut applied = vec![false; join_only.len()];
        let mut join_product: Vec<Row> = vec![Vec::new()];
        let mut width = base_width;
        let filter_stage =
            |product: &mut Vec<Row>, width: usize, applied: &mut Vec<bool>| -> Result<()> {
                for (i, (pred, needed)) in join_only.iter().enumerate() {
                    if applied[i] || *needed > width {
                        continue;
                    }
                    applied[i] = true;
                    let mut kept = Vec::with_capacity(product.len());
                    for suffix in product.drain(..) {
                        let mut probe = null_prefix.clone();
                        probe.extend(suffix.iter().cloned());
                        if matches!(pred.eval(&probe, &[], &[])?, Value::Int(x) if x != 0) {
                            kept.push(suffix);
                        }
                    }
                    *product = kept;
                }
                Ok(())
            };
        filter_stage(&mut join_product, width, &mut applied)?;
        for (table, _) in &sources {
            let rows = table.collect_rows()?;
            if join_product.len().saturating_mul(rows.len()) > JOIN_LIMIT {
                return Err(EngineError::JoinTooLarge {
                    rows: join_product.len() * rows.len(),
                    limit: JOIN_LIMIT,
                });
            }
            let mut next = Vec::with_capacity(join_product.len() * rows.len().max(1));
            for prefix in &join_product {
                for row in &rows {
                    let mut combined = prefix.clone();
                    combined.extend(row.iter().cloned());
                    next.push(combined);
                }
            }
            join_product = next;
            width += table.schema().len();
            filter_stage(&mut join_product, width, &mut applied)?;
        }
        debug_assert!(
            applied.iter().all(|&a| a),
            "all join-only predicates applied"
        );

        Ok(PlannedSelect {
            base,
            schema,
            join_product,
            residual,
            pushed: join_only.len(),
            aggregate_mode: is_aggregate_select(stmt, &self.registry),
        })
    }

    /// Binds everything a SELECT evaluates — GROUP BY keys,
    /// projections, HAVING, ORDER BY — collecting the aggregate calls
    /// they contain (aggregate mode) or refusing any (scalar mode, where
    /// `*` expands to every column).
    fn bind_select(
        &self,
        stmt: &SelectStmt,
        schema: &BoundSchema,
        aggregate: bool,
    ) -> Result<Bindings> {
        if !aggregate && stmt.having.is_some() {
            return Err(EngineError::Unsupported(
                "HAVING requires aggregation or GROUP BY".into(),
            ));
        }
        let group_bound: Vec<BoundExpr> = stmt
            .group_by
            .iter()
            .map(|g| Binder::scalar(schema, &self.registry).bind(g))
            .collect::<Result<_>>()?;

        // Projections, HAVING and ORDER BY may each contribute
        // aggregate calls (e.g. `HAVING count(*) > 5`,
        // `ORDER BY sum(v) DESC`).
        let mut agg_calls: Vec<AggCall> = Vec::new();
        let bind = |e: &Expr, calls: &mut Vec<AggCall>| {
            Binder {
                schema,
                registry: &self.registry,
                group_exprs: &stmt.group_by,
                aggs: aggregate.then_some(calls),
            }
            .bind(e)
        };
        let mut proj_bound = Vec::new();
        let mut names = Vec::new();
        for (i, p) in stmt.projections.iter().enumerate() {
            if p.expr == Expr::Wildcard && !aggregate {
                for c in 0..schema.len() {
                    proj_bound.push(BoundExpr::ColumnRef(c));
                    names.push(schema.column_name(c).to_owned());
                }
            } else {
                proj_bound.push(bind(&p.expr, &mut agg_calls)?);
                names.push(projection_name(p, i));
            }
        }
        let having_bound = match &stmt.having {
            Some(h) => Some(bind(h, &mut agg_calls)?),
            None => None,
        };
        // ORDER BY keys: an expression, or a 1-based output ordinal
        // (`ORDER BY 2`).
        let order_bound: Vec<(OrderEval, bool)> = stmt
            .order_by
            .iter()
            .map(|key| {
                let eval = match &key.expr {
                    Expr::Literal(Value::Int(k)) => {
                        let idx = (*k as usize)
                            .checked_sub(1)
                            .filter(|i| *i < proj_bound.len());
                        OrderEval::Ordinal(idx.ok_or_else(|| {
                            EngineError::Unsupported(format!("ORDER BY ordinal {k} out of range"))
                        })?)
                    }
                    e => OrderEval::Expr(bind(e, &mut agg_calls)?),
                };
                Ok((eval, key.descending))
            })
            .collect::<Result<_>>()?;

        // Verify every aggregate UDF state fits the heap budget.
        for call in &agg_calls {
            if let AggKind::Udf(udf) = &call.kind {
                let probe = udf.init();
                check_heap(udf.name(), probe.as_ref())?;
            }
        }

        Ok(Bindings {
            group_bound,
            fast_args: compute_fast_args(&agg_calls),
            agg_calls,
            proj_bound,
            names,
            having_bound,
            order_bound,
        })
    }

    /// Chooses how a planned, bound SELECT reads its data: a summary
    /// answer first, then the block scan, then the row scan. This is
    /// the one place that reads the block-scan switch, GROUP BY, ORDER
    /// BY, the join shape and summary eligibility; the executor runs
    /// the choice and EXPLAIN prints it. The summary probe's time, and
    /// a miss when summaries exist but none answers, go to `stats`.
    fn choose(
        &self,
        stmt: &SelectStmt,
        plan: &PlannedSelect,
        bindings: &Bindings,
        stats: &mut ExecStats,
    ) -> AccessPath {
        if plan.aggregate_mode
            && stmt.from.len() == 1
            && plan.trivial_join()
            && plan.residual.is_empty()
        {
            let started = Instant::now();
            let summary = self.choose_summary(stmt, plan, bindings, stats);
            stats.summary_nanos += started.elapsed().as_nanos() as u64;
            if let Some(path) = summary {
                return path;
            }
        }
        self.choose_scan(stmt, plan, bindings)
    }

    /// The first summary on the statement's table that answers every
    /// aggregate call, judged on its current state. A stale candidate
    /// is gated on the NULL-skip count it had before the rebuild that
    /// execution runs, so the executor never rebuilds a summary only
    /// to decline it for NULL rows it had already skipped.
    fn choose_summary(
        &self,
        stmt: &SelectStmt,
        plan: &PlannedSelect,
        bindings: &Bindings,
        stats: &mut ExecStats,
    ) -> Option<AccessPath> {
        let candidates = self.summaries.for_table(&stmt.from[0].name);
        if candidates.is_empty() || bindings.agg_calls.is_empty() {
            return None;
        }
        // The only group shape a keyed summary stores: one plain
        // column reference.
        let want_group = match bindings.group_bound.as_slice() {
            [] => None,
            [BoundExpr::ColumnRef(i)] => Some(plan.schema.column_name(*i)),
            _ => {
                stats.summary_misses += 1;
                return None;
            }
        };
        for entry in candidates {
            let Some(recipes) =
                plan_summary_recipes(entry.def(), &plan.schema, &bindings.agg_calls, want_group)
            else {
                continue;
            };
            let snap = entry.snapshot();
            if null_gate(entry.def(), &recipes, snap.null_rows_skipped) {
                return Some(AccessPath::Summary {
                    entry,
                    snap,
                    recipes,
                });
            }
        }
        stats.summary_misses += 1;
        None
    }

    /// The scan half of [`ExecContext::choose`]: the block path when
    /// the statement qualifies, else the row path with the reason, most
    /// significant obstacle first.
    fn choose_scan(
        &self,
        stmt: &SelectStmt,
        plan: &PlannedSelect,
        bindings: &Bindings,
    ) -> AccessPath {
        let block = if !self.block_scan {
            Err("block scan disabled".to_owned())
        } else if plan.aggregate_mode {
            if !stmt.group_by.is_empty() {
                Err("GROUP BY requires row grouping".to_owned())
            } else if !plan.trivial_join() {
                Err("cross join".to_owned())
            } else {
                plan_block_calls(
                    &plan.schema,
                    &plan.base,
                    &bindings.agg_calls,
                    &bindings.fast_args,
                    &plan.residual,
                )
                .map(AccessPath::BlockAggregate)
            }
        } else if !stmt.order_by.is_empty() {
            Err("ORDER BY requires row materialization".to_owned())
        } else {
            plan_scalar_block(
                &plan.schema,
                &plan.base,
                &plan.join_product,
                &bindings.proj_bound,
                &plan.residual,
            )
            .map(AccessPath::BlockScalar)
        };
        block.unwrap_or_else(|why| {
            if plan.aggregate_mode {
                AccessPath::RowAggregate(why)
            } else {
                AccessPath::RowScalar(why)
            }
        })
    }

    /// Resolves a name to a materialized table, executing views.
    /// Names under `sys.` resolve through the registered
    /// [`SystemTableProvider`], snapshotting live state into an
    /// ordinary table the scan paths treat like any other.
    pub fn resolve_table(&self, name: &str) -> Result<Arc<Table>> {
        let lower = name.to_ascii_lowercase();
        if lower.starts_with(crate::sys::SYS_PREFIX) {
            let provider = self
                .system
                .as_ref()
                .ok_or_else(|| EngineError::UnknownTable(name.to_owned()))?;
            return provider
                .sys_table(&lower)
                .map(Arc::new)
                .ok_or_else(|| EngineError::UnknownTable(name.to_owned()));
        }
        match self.catalog.get(name) {
            Some(CatalogEntry::Table(t)) => Ok(t),
            Some(CatalogEntry::View(query)) => {
                let mut rs = self.execute_select(&query)?;
                rs.build_rows(self.workers);
                Ok(Arc::new(result_to_table(&rs, self.workers)?))
            }
            None => Err(EngineError::UnknownTable(name.to_owned())),
        }
    }

    /// Runs a scalar SELECT on its chosen path. The block path decodes
    /// column blocks and computes each projection a column at a time,
    /// producing column blocks instead of rows (the scoring queries:
    /// scalar UDFs over float base columns plus model-table constants
    /// from a single join combination); residual predicates ride along
    /// as per-block selection bitmaps, and a LIMIT stops each worker
    /// early. The row path evaluates every projection per row.
    fn execute_scalar(
        &self,
        stmt: &SelectStmt,
        plan: &PlannedSelect,
        bindings: Bindings,
        mut stats: ExecStats,
    ) -> Result<ResultSet> {
        let path = self.choose(stmt, plan, &bindings, &mut stats);
        let base = &plan.base;
        let scan_started = Instant::now();
        if let AccessPath::BlockScalar(bp) = &path {
            let blocks = self.run_scalar_block(base, bp, stmt.limit, &mut stats)?;
            let mut rs = ResultSet::from_blocks(bindings.names, blocks);
            stats.block_path = true;
            stats.scan_nanos = scan_started.elapsed().as_nanos() as u64;
            rs.stats = stats;
            return Ok(rs);
        }

        let (bound, order) = (&bindings.proj_bound, &bindings.order_bound);
        let (join_product, residual) = (&plan.join_product, &plan.residual);
        let cancel = self.cancel.as_deref();
        // Each worker returns its keyed projections plus how many base
        // rows it scanned.
        type KeyedPartial = (Vec<(Row, Row)>, u64);
        let partials = self.scan_partitions(base, |p| -> Result<KeyedPartial> {
            let mut out = Vec::new();
            let mut combined_buf: Row = Vec::new();
            let mut scanned_rows = 0u64;
            for (scanned, row) in base.scan_partition(p).enumerate() {
                check_cancelled(cancel, scanned as u64)?;
                scanned_rows += 1;
                let left = row?;
                'suffixes: for suffix in join_product {
                    // Borrow the base row directly when there is no join.
                    let combined: &[Value] = if suffix.is_empty() {
                        &left
                    } else {
                        combined_buf.clear();
                        combined_buf.extend(left.iter().cloned());
                        combined_buf.extend(suffix.iter().cloned());
                        &combined_buf
                    };
                    for pred in residual {
                        if !matches!(pred.eval(combined, &[], &[])?, Value::Int(x) if x != 0) {
                            continue 'suffixes;
                        }
                    }
                    let projected = bound
                        .iter()
                        .map(|b| b.eval(combined, &[], &[]))
                        .collect::<Result<Row>>()?;
                    // ORDER BY keys ride along with the projection.
                    let keys = order_keys(order, &projected, |e| e.eval(combined, &[], &[]))?;
                    out.push((keys, projected));
                }
            }
            Ok((out, scanned_rows))
        });

        let mut keyed_rows = Vec::new();
        for (p, scanned) in merge_partial_errors(partials)? {
            keyed_rows.extend(p);
            stats.rows_scanned += scanned;
        }
        stats.scan_nanos = scan_started.elapsed().as_nanos() as u64;
        let rows = finish_rows(keyed_rows, order, stmt.limit);
        let mut rs = ResultSet::new(bindings.names, rows);
        rs.stats = stats;
        Ok(rs)
    }

    /// Executes a planned block-path scalar projection: decode column
    /// blocks per partition and compute each projection a column at a
    /// time. Returns one output block per scanned block that kept
    /// rows, in the row path's (partition-major) order, `limit` rows at
    /// most, and adds the scan's row and block counters to `stats`.
    fn run_scalar_block(
        &self,
        base: &Table,
        plan: &ScalarBlockPlan,
        limit: Option<usize>,
        stats: &mut ExecStats,
    ) -> Result<Vec<ResultBlock>> {
        let cancel = self.cancel.as_deref();
        type Partial = (Vec<ResultBlock>, u64, u64);
        let partials = self.scan_partitions(base, |p| -> Result<Partial> {
            let mut out = Vec::new();
            let mut iter = base.scan_partition_blocks_numeric(p, &plan.cols)?;
            let (mut rows, mut blocks) = (0u64, 0u64);
            let mut sel = Vec::new();
            let mut pred_scratch = PredScratch::default();
            // The final output keeps the first `limit` rows in
            // partition-major order, so no worker ever needs more
            // than `limit` rows of its own.
            let mut emitted = 0usize;
            while let Some(block) = iter.next_block() {
                check_cancelled(cancel, rows)?;
                let block = block?;
                rows += block.len() as u64;
                blocks += 1;
                let selection: Option<&[u64]> = match &plan.predicate {
                    None => None,
                    Some(pred) => {
                        pred.selection(&block, &mut sel, &mut pred_scratch);
                        Some(sel.as_slice())
                    }
                };
                // Compute only the prefix of the block that holds
                // the rows the LIMIT still needs.
                let need = limit.map_or(usize::MAX, |l| l - emitted);
                let (len, kept) = needed_prefix(block.len(), selection, need);
                if kept > 0 {
                    let columns = plan
                        .exprs
                        .iter()
                        .map(|e| e.eval_column(&block, &plan.int_slots, len, selection))
                        .collect::<Result<Vec<_>>>()?;
                    let mut out_block = ResultBlock::new(len, columns);
                    if let Some(words) = selection {
                        out_block.compact(words);
                    }
                    out.push(out_block);
                    emitted += kept;
                }
                if limit.is_some_and(|l| emitted >= l) {
                    break;
                }
            }
            Ok((out, rows, blocks))
        });
        let mut all = Vec::new();
        for (o, r, b) in merge_partial_errors(partials)? {
            all.extend(o);
            stats.rows_scanned += r;
            stats.blocks_scanned += b;
        }
        if let Some(l) = limit {
            truncate_blocks(&mut all, l);
        }
        Ok(all)
    }

    /// The aggregation protocol on the chosen path: a summary answer,
    /// or a parallel scan whose per-partition partials the caller
    /// merges (phases 1–3), then [`finalize`] (phase 4). A summary
    /// answer yields *accumulator* states (not finalized values), so it
    /// finalizes like any scan.
    fn aggregate(
        &self,
        stmt: &SelectStmt,
        plan: &PlannedSelect,
        bindings: Bindings,
        mut stats: ExecStats,
    ) -> Result<ResultSet> {
        let path = match self.choose(stmt, plan, &bindings, &mut stats) {
            AccessPath::Summary {
                entry,
                snap,
                recipes,
            } => {
                let started = Instant::now();
                let answer = self.summary_answer(
                    &plan.base,
                    &entry,
                    snap,
                    &recipes,
                    &bindings.agg_calls,
                    &mut stats,
                );
                stats.summary_nanos += started.elapsed().as_nanos() as u64;
                if let Some(groups) = answer? {
                    return finalize(stmt, groups, bindings, stats);
                }
                stats.summary_misses += 1;
                self.choose_scan(stmt, plan, &bindings)
            }
            path => path,
        };
        let block_plan = match &path {
            AccessPath::BlockAggregate(bp) => Some(bp),
            _ => None,
        };

        let (base, join_product, residual) = (&plan.base, &plan.join_product, &plan.residual);
        let group_ref = &bindings.group_bound;
        let calls_ref = &bindings.agg_calls;
        let fast_ref = &bindings.fast_args;
        let cancel = self.cancel.as_deref();

        // Phase 1-2: each worker accumulates per-group partial states
        // over its partition (the UDF protocol's init + row steps).
        let scan_started = Instant::now();
        type Partial = (GroupMap, u64, u64, u64);
        let partials: Vec<Result<Partial>> = if let Some(plan) = block_plan {
            stats.block_path = true;
            self.scan_partitions(base, |p| {
                let start = Instant::now();
                let mut accums: Vec<AggAccum> = calls_ref.iter().map(AggAccum::init).collect();
                let mut iter = base.scan_partition_blocks_numeric(p, &plan.cols)?;
                let (mut rows, mut blocks) = (0u64, 0u64);
                let mut sel = Vec::new();
                let mut pred_scratch = PredScratch::default();
                let mut active_buf = Vec::new();
                while let Some(block) = iter.next_block() {
                    check_cancelled(cancel, rows)?;
                    let block = block?;
                    rows += block.len() as u64;
                    blocks += 1;
                    let selection: Option<&[u64]> = match &plan.predicate {
                        None => None,
                        Some(pred) => {
                            pred.selection(&block, &mut sel, &mut pred_scratch);
                            Some(sel.as_slice())
                        }
                    };
                    for (accum, call) in accums.iter_mut().zip(&plan.calls) {
                        accum.update_block(&block, call, selection, &mut active_buf)?;
                    }
                }
                let mut groups: GroupMap = HashMap::new();
                if rows > 0 {
                    groups.insert(GroupKey(Vec::new()), accums);
                }
                Ok((groups, rows, blocks, start.elapsed().as_nanos() as u64))
            })
        } else {
            self.scan_partitions(base, |p| {
                let start = Instant::now();
                let mut groups: GroupMap = HashMap::new();
                let mut arg_buf: Vec<Value> = Vec::new();
                let mut combined_buf: Row = Vec::new();
                let mut rows = 0u64;
                for row in base.scan_partition(p) {
                    check_cancelled(cancel, rows)?;
                    let left = row?;
                    rows += 1;
                    'suffixes: for suffix in join_product {
                        let combined: &[Value] = if suffix.is_empty() {
                            &left
                        } else {
                            combined_buf.clear();
                            combined_buf.extend(left.iter().cloned());
                            combined_buf.extend(suffix.iter().cloned());
                            &combined_buf
                        };
                        for pred in residual {
                            if !matches!(pred.eval(combined, &[], &[])?, Value::Int(x) if x != 0) {
                                continue 'suffixes;
                            }
                        }
                        let key = GroupKey(
                            group_ref
                                .iter()
                                .map(|g| g.eval(combined, &[], &[]))
                                .collect::<Result<Vec<_>>>()?,
                        );
                        let accums = match groups.get_mut(&key) {
                            Some(a) => a,
                            None => groups
                                .entry(key)
                                .or_insert_with(|| calls_ref.iter().map(AggAccum::init).collect()),
                        };
                        for ((accum, call), fast) in accums.iter_mut().zip(calls_ref).zip(fast_ref)
                        {
                            if let Some(fa) = fast {
                                accum.update_fast(fa.eval_f64(combined));
                                continue;
                            }
                            arg_buf.clear();
                            for a in &call.args {
                                arg_buf.push(a.eval(combined, &[], &[])?);
                            }
                            accum.update(&arg_buf)?;
                        }
                    }
                }
                Ok((groups, rows, 0, start.elapsed().as_nanos() as u64))
            })
        };

        // Phase 3: master merges the partials.
        let merge_start = Instant::now();
        let mut merged: GroupMap = HashMap::new();
        for (groups, rows, blocks, nanos) in merge_partial_errors(partials)? {
            stats.rows_scanned += rows;
            stats.blocks_scanned += blocks;
            stats.accumulate_nanos += nanos;
            merge_groups(&mut merged, groups)?;
        }
        stats.merge_nanos = merge_start.elapsed().as_nanos() as u64;
        stats.scan_nanos = scan_started.elapsed().as_nanos() as u64;
        finalize(stmt, merged, bindings, stats)
    }

    /// Answers from the chosen summary, rebuilding a stale one first
    /// (the stale → fresh edge). A rebuilt state is checked again —
    /// fresh, and past the NULL gate with its new skip count — which
    /// keeps the answer correct when the rebuild changed what the
    /// summary covers. `None` declines to a scan.
    fn summary_answer(
        &self,
        base: &Table,
        entry: &SummaryEntry,
        snap: SummarySnapshot,
        recipes: &[SummaryRecipe],
        agg_calls: &[AggCall],
        stats: &mut ExecStats,
    ) -> Result<Option<GroupMap>> {
        let snap = if snap.fresh {
            snap
        } else {
            match entry.rebuild_with_cancel(base, self.cancel.as_deref()) {
                // The rebuild scanned the table for real; account its
                // rows so EXPLAIN ANALYZE shows the work.
                Ok(rebuild_rows) => {
                    stats.summary_stale_rebuilds += 1;
                    stats.summary_rebuild_rows += rebuild_rows;
                    stats.rows_scanned += rebuild_rows;
                }
                // A cancelled rebuild cancels the statement; the entry
                // stays stale for the next reader.
                Err(e @ nlq_summary::SummaryError::Cancelled { .. }) => return Err(e.into()),
                // E.g. the table was replaced with an incompatible
                // schema; the summary stays stale and unusable.
                Err(_) => return Ok(None),
            }
            let snap = entry.snapshot();
            if !snap.fresh || !null_gate(entry.def(), recipes, snap.null_rows_skipped) {
                return Ok(None);
            }
            snap
        };
        let groups = summary_accum_groups(&snap, recipes, agg_calls)?;
        stats.summary_path = true;
        stats.summary_hits += 1;
        Ok(Some(groups))
    }
}

/// Folds one set of per-group accumulator states into another through
/// the accumulator merge protocol (phase 3).
fn merge_groups(into: &mut GroupMap, from: GroupMap) -> Result<()> {
    for (key, accums) in from {
        match into.get_mut(&key) {
            None => {
                into.insert(key, accums);
            }
            Some(existing) => {
                for (e, a) in existing.iter_mut().zip(accums) {
                    e.merge(a)?;
                }
            }
        }
    }
    Ok(())
}

/// How one aggregate call is answered from a summary's maintained Γ.
enum SummaryRecipe {
    /// `nlq_list(d, 'shape', cols...)`: project the state onto the
    /// query's dimensions and re-pack it.
    Nlq {
        dims: Vec<usize>,
        shape: MatrixShape,
    },
    /// A builtin: the sub-Γ over the dimensions of its argument
    /// columns (none for `count(*)`), folded into the call's own
    /// accumulator.
    Gamma(Vec<usize>),
}

/// Structurally matches every aggregate call of a query against one
/// summary definition, or `None` when the GROUP BY or any call falls
/// outside what this summary's Γ can answer.
fn plan_summary_recipes(
    def: &SummaryDef,
    schema: &BoundSchema,
    agg_calls: &[AggCall],
    want_group: Option<&str>,
) -> Option<Vec<SummaryRecipe>> {
    match (&def.group_by, want_group) {
        (None, None) => {}
        (Some(g), Some(w)) if g.eq_ignore_ascii_case(w) => {}
        _ => return None,
    }
    agg_calls
        .iter()
        .map(|call| {
            let arity = match &call.kind {
                AggKind::Udf(udf) if udf.name() == "nlq_list" => {
                    return plan_nlq_recipe(def, schema, &call.args)
                }
                AggKind::Udf(_) => return None,
                // A `NO MINMAX` summary stores no bounds to answer from.
                AggKind::Min | AggKind::Max if !def.minmax => return None,
                AggKind::Min | AggKind::Max => 1,
                AggKind::Count => call.args.len().min(1),
                AggKind::Moments(f) => f.arity(),
            };
            let dims = call
                .args
                .iter()
                .map(|arg| match arg {
                    BoundExpr::ColumnRef(i) => def.dim_of(schema.column_name(*i)),
                    _ => None,
                })
                .collect::<Option<Vec<_>>>()?;
            // Cross moments need an off-diagonal Q entry.
            let cross = matches!(dims.as_slice(), [a, b] if a != b);
            (dims.len() == arity && !(cross && def.shape == MatrixShape::Diagonal))
                .then_some(SummaryRecipe::Gamma(dims))
        })
        .collect()
}

/// Matches one `nlq_list(d, 'shape', cols...)` call against a summary:
/// every coordinate must be a summarized column and the requested
/// shape must be derivable from the maintained one.
fn plan_nlq_recipe(
    def: &SummaryDef,
    schema: &BoundSchema,
    args: &[BoundExpr],
) -> Option<SummaryRecipe> {
    let [BoundExpr::Literal(Value::Int(d)), BoundExpr::Literal(Value::Str(shape)), cols @ ..] =
        args
    else {
        return None;
    };
    let shape = MatrixShape::parse(shape)?;
    if !shape_covers(def.shape, shape) || cols.len() != *d as usize {
        return None;
    }
    let dims = cols
        .iter()
        .map(|c| match c {
            BoundExpr::ColumnRef(i) => def.dim_of(schema.column_name(*i)),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    Some(SummaryRecipe::Nlq { dims, shape })
}

/// Whether the summary's statistics cover the query despite skipped
/// NULL rows: always when nothing was skipped; otherwise only full-Γ
/// `nlq` answers whose dimensions cover every summarized column (the
/// row-skip sets then coincide with a direct scan's).
fn null_gate(def: &SummaryDef, recipes: &[SummaryRecipe], skipped: u64) -> bool {
    if skipped == 0 {
        return true;
    }
    recipes.iter().all(|r| match r {
        SummaryRecipe::Nlq { dims, .. } => {
            let mut seen = vec![false; def.d()];
            for &d in dims {
                seen[d] = true;
            }
            seen.iter().all(|&s| s)
        }
        _ => false,
    })
}

/// Evaluates every recipe against each maintained group state,
/// producing accumulator states rather than finalized values: a
/// summary answer is just another partial, finalized through the same
/// [`AggAccum::finalize`] as a scan's.
fn summary_accum_groups(
    snap: &SummarySnapshot,
    recipes: &[SummaryRecipe],
    agg_calls: &[AggCall],
) -> Result<GroupMap> {
    let answer = |g: &Nlq| -> Result<Vec<AggAccum>> {
        recipes
            .iter()
            .zip(agg_calls)
            .map(|(r, c)| summary_accum(g, r, c))
            .collect()
    };
    Ok(match &snap.data {
        SummaryData::Global(g) => {
            let mut m = GroupMap::new();
            m.insert(GroupKey(Vec::new()), answer(g)?);
            m
        }
        SummaryData::Grouped(groups) => groups
            .iter()
            .map(|(k, g)| Ok((GroupKey(vec![k.clone()]), answer(g)?)))
            .collect::<Result<GroupMap>>()?,
    })
}

/// One accumulator state from one Γ state: the call's own
/// [`AggAccum::init`] state with the sub-Γ folded in, so a summary
/// answer merges with scan partials, and an empty Γ (`n = 0`)
/// finalizes like a zero-row scan.
fn summary_accum(g: &Nlq, recipe: &SummaryRecipe, call: &AggCall) -> Result<AggAccum> {
    Ok(match recipe {
        SummaryRecipe::Nlq { dims, shape } => {
            AggAccum::Udf(nlq_udf::seeded_nlq_state(&project_nlq(g, dims, *shape)?))
        }
        SummaryRecipe::Gamma(dims) => {
            let mut accum = AggAccum::init(call);
            accum.fold_gamma(g, dims)?;
            accum
        }
    })
}

/// Recognizes fast shapes for the FLOAT terms of `count`, `sum` and
/// `avg` (see [`AggCall::float`]); integer sums and string counting
/// stay on the general path.
fn compute_fast_args(agg_calls: &[AggCall]) -> Vec<Option<FastArg>> {
    agg_calls
        .iter()
        .map(|call| match (&call.kind, call.args.as_slice()) {
            (AggKind::Count | AggKind::Moments(MomentsFn::Sum | MomentsFn::Avg), [arg])
                if call.float =>
            {
                FastArg::recognize(arg)
            }
            _ => None,
        })
        .collect()
}

/// The outcome of planning a block-at-a-time aggregate scan: which
/// base-table columns to project, how each call consumes them, and
/// the compiled residual predicate (if any) evaluated into a
/// selection bitmap per block. Predicate-only columns sit after the
/// call columns in `cols`.
struct BlockPlan {
    cols: Vec<usize>,
    calls: Vec<BlockCall>,
    predicate: Option<CompiledPredicates>,
}

/// Plans the block path for a global aggregate; `Err` carries the
/// EXPLAIN reason when any call (or any residual predicate) needs the
/// general row-at-a-time machinery. Residual predicates must compile
/// to selection bitmaps; their columns (possibly Int — the numeric
/// scan widens them) append after the call columns.
fn plan_block_calls(
    schema: &BoundSchema,
    base: &Table,
    agg_calls: &[AggCall],
    fast_args: &[Option<FastArg>],
    residual: &[BoundExpr],
) -> std::result::Result<BlockPlan, String> {
    let mut cols: Vec<usize> = Vec::new();
    let calls = plan_block_terms(schema, base, agg_calls, fast_args, &mut cols)
        .ok_or_else(|| "aggregate arguments are not all float base-table columns".to_owned())?;
    let predicate = if residual.is_empty() {
        None
    } else {
        Some(
            compile_residual(residual, schema, base, None, &mut cols, None).ok_or_else(|| {
                format!(
                    "{} residual predicate(s) not block-compilable",
                    residual.len()
                )
            })?,
        )
    };
    Ok(BlockPlan {
        cols,
        calls,
        predicate,
    })
}

/// How each aggregate call consumes decoded block columns, appending
/// the columns it reads to `cols`; `None` when any call needs the row
/// path. Eligibility per call: every operand is a float column of the
/// base table (indices below `base_width`), a product of two such
/// columns, or a literal.
fn plan_block_terms(
    schema: &BoundSchema,
    base: &Table,
    agg_calls: &[AggCall],
    fast_args: &[Option<FastArg>],
    cols: &mut Vec<usize>,
) -> Option<Vec<BlockCall>> {
    let mut slot_of: HashMap<usize, usize> = HashMap::new();
    let mut slot = |i: usize| {
        *slot_of.entry(i).or_insert_with(|| {
            cols.push(i);
            cols.len() - 1
        })
    };
    let base_width = base.schema().len();
    let float_col = |i: usize| i < base_width && schema.column_type(i) == DataType::Float;
    let col = |e: &BoundExpr| match e {
        BoundExpr::ColumnRef(i) if float_col(*i) => Some(*i),
        _ => None,
    };

    let mut calls = Vec::with_capacity(agg_calls.len());
    for (call, fast) in agg_calls.iter().zip(fast_args) {
        // The row fast-path recognition, restricted to base-table
        // columns.
        let term = match fast {
            Some(FastArg::Col(i)) if float_col(*i) => Some(BlockTerm::Col(slot(*i))),
            Some(FastArg::ColProduct(a, b)) if float_col(*a) && float_col(*b) => {
                Some(BlockTerm::Prod(slot(*a), slot(*b)))
            }
            Some(FastArg::Const(c)) => Some(BlockTerm::Const(*c)),
            Some(_) => return None,
            None => None,
        };
        let planned = match (&call.kind, term) {
            (AggKind::Count, term) if call.args.is_empty() || term.is_some() => {
                BlockCall::Count(term)
            }
            (AggKind::Moments(_), Some(term)) => BlockCall::Moments(term, None),
            (AggKind::Min | AggKind::Max, None) => match call.args.as_slice() {
                [arg] => BlockCall::Extremum(slot(col(arg)?)),
                _ => return None,
            },
            // Second moments read bare FLOAT columns only.
            (AggKind::Moments(f), None) => {
                let mut term = |arg| col(arg).map(|i| BlockTerm::Col(slot(i)));
                match (f.arity(), call.args.as_slice()) {
                    (1, [a]) => BlockCall::Moments(term(a)?, None),
                    (2, [a, b]) => BlockCall::Moments(term(a)?, Some(term(b)?)),
                    _ => return None,
                }
            }
            (AggKind::Udf(_), None) => {
                let mut args = Vec::with_capacity(call.args.len());
                for arg in &call.args {
                    args.push(match arg {
                        BoundExpr::Literal(v) => BatchArg::Const(v.clone()),
                        arg => BatchArg::Col(slot(col(arg)?)),
                    });
                }
                BlockCall::Udf(args)
            }
            _ => return None,
        };
        calls.push(planned);
    }
    Some(calls)
}

/// One block-compilable scalar projection: a decoded block column (by
/// slot), a per-scan constant (a literal, or a value from the single
/// join combination — the scoring pattern's model coefficients), or a
/// scalar UDF over those (nested calls included: `clusterscore` takes
/// `distance(...)` arguments).
enum ScalarBlockExpr {
    Col(usize),
    Const(Value),
    Udf {
        udf: Arc<dyn ScalarUdf>,
        args: Vec<ScalarBlockExpr>,
    },
}

impl ScalarBlockExpr {
    /// Evaluates over the first `len` rows of a decoded block, a
    /// column at a time. A UDF whose arguments are all numeric columns
    /// or constants runs its columnar kernel
    /// ([`ScalarUdf::eval_batch_f64`]) over every row. Otherwise it
    /// runs a row at a time, and only on the rows `selection` keeps
    /// (the other slots hold NULL): a row-at-a-time UDF may fail on a
    /// row the WHERE clause excludes.
    fn eval_column(
        &self,
        block: &ColumnBlock,
        int_slots: &[bool],
        len: usize,
        selection: Option<&[u64]>,
    ) -> Result<ResultColumn> {
        let (udf, args) = match self {
            ScalarBlockExpr::Const(v) => return Ok(ResultColumn::Const(v.clone())),
            ScalarBlockExpr::Col(s) => {
                return Ok(ResultColumn::from_block(
                    block.column(*s),
                    len,
                    int_slots[*s],
                ))
            }
            ScalarBlockExpr::Udf { udf, args } => (udf, args),
        };
        // Nested calls evaluate first; plain columns stay borrowed
        // from the block.
        let nested = args
            .iter()
            .map(|a| match a {
                ScalarBlockExpr::Udf { .. } => {
                    a.eval_column(block, int_slots, len, selection).map(Some)
                }
                _ => Ok(None),
            })
            .collect::<Result<Vec<_>>>()?;
        let batch_args = args
            .iter()
            .zip(&nested)
            .map(|(a, n)| match (a, n) {
                (ScalarBlockExpr::Col(s), _) => {
                    let col = block.column(*s);
                    Some(ScalarBatchArg::Col {
                        values: &col.values[..len],
                        validity: col.validity(),
                    })
                }
                (ScalarBlockExpr::Const(v), _) => Some(ScalarBatchArg::Const(v)),
                (_, Some(ResultColumn::Numeric { batch, .. })) => Some(ScalarBatchArg::Col {
                    values: &batch.values,
                    validity: Some(&batch.validity),
                }),
                _ => None,
            })
            .collect::<Option<Vec<_>>>();
        if let Some(batch_args) = batch_args {
            let mut batch = FloatBatch::default();
            if udf.eval_batch_f64(&batch_args, len, &mut batch)? {
                return Ok(ResultColumn::Numeric { batch, int: false });
            }
        }
        let mut values = vec![Value::Null; len];
        let mut row_args = Vec::with_capacity(args.len());
        let mut eval_row = |i: usize| -> Result<()> {
            row_args.clear();
            for (a, n) in args.iter().zip(&nested) {
                row_args.push(match (a, n) {
                    (ScalarBlockExpr::Col(s), _) => block_value(block, *s, int_slots[*s], i),
                    (ScalarBlockExpr::Const(v), _) => v.clone(),
                    (_, Some(col)) => col.value(i),
                    (ScalarBlockExpr::Udf { .. }, None) => unreachable!("nested calls evaluated"),
                });
            }
            values[i] = udf.eval(&row_args)?;
            Ok(())
        };
        match selection {
            None => (0..len).try_for_each(&mut eval_row)?,
            Some(words) => set_bits(words, len).try_for_each(eval_row)?,
        }
        Ok(ResultColumn::Values(values))
    }
}

/// How much of a block a scalar block scan computes when `need` more
/// rows are wanted: `(prefix length, rows kept in it)`. The prefix
/// ends at the `need`-th row `selection` keeps (every row, without a
/// selection), or covers the whole block.
fn needed_prefix(len: usize, selection: Option<&[u64]>, need: usize) -> (usize, usize) {
    let Some(words) = selection else {
        let n = len.min(need);
        return (n, n);
    };
    if need == 0 {
        return (0, 0);
    }
    let mut seen = 0usize;
    for (w, &word) in words.iter().enumerate() {
        let ones = word.count_ones() as usize;
        if seen + ones >= need {
            // The (need - seen)-th set bit of this word ends the prefix.
            let mut m = word;
            for _ in 1..need - seen {
                m &= m - 1;
            }
            return ((w << 6) + m.trailing_zeros() as usize + 1, need);
        }
        seen += ones;
    }
    (len, seen)
}

/// The outcome of planning a block-at-a-time scalar projection: which
/// base-table numeric columns to decode (`int_slots` marks the ones to
/// narrow back to `Int` on output), how each output column is computed
/// from them, and the compiled residual predicate (if any) evaluated
/// into a selection bitmap per block.
struct ScalarBlockPlan {
    cols: Vec<usize>,
    int_slots: Vec<bool>,
    exprs: Vec<ScalarBlockExpr>,
    predicate: Option<CompiledPredicates>,
}

/// Plans the block path for a non-aggregate SELECT; `Err` carries the
/// EXPLAIN fallback reason when the general row machinery is needed.
/// Eligibility: exactly one join combination (so joined-column
/// references are constants), every projection a numeric base column,
/// a constant, or a scalar UDF over those — the paper's scoring
/// queries (`linearregscore`, `clusterscore`, ...) exactly — every
/// projected Int column exactly representable as `f64` (the block
/// scan widens and narrows back), and every residual predicate
/// compilable to a selection bitmap.
fn plan_scalar_block(
    schema: &BoundSchema,
    base: &Table,
    join_product: &[Row],
    bound: &[BoundExpr],
    residual: &[BoundExpr],
) -> std::result::Result<ScalarBlockPlan, String> {
    let base_width = base.schema().len();
    let not_block = || "projections are not all block-computable".to_owned();
    let [suffix] = join_product else {
        return Err(not_block());
    };
    let mut cols: Vec<usize> = Vec::new();
    let mut int_slots: Vec<bool> = Vec::new();
    let mut slot_of: HashMap<usize, usize> = HashMap::new();
    fn compile(
        e: &BoundExpr,
        schema: &BoundSchema,
        base_width: usize,
        suffix: &Row,
        cols: &mut Vec<usize>,
        int_slots: &mut Vec<bool>,
        slot_of: &mut HashMap<usize, usize>,
    ) -> Option<ScalarBlockExpr> {
        match e {
            BoundExpr::Literal(v) => Some(ScalarBlockExpr::Const(v.clone())),
            BoundExpr::ColumnRef(i) if *i < base_width => {
                let ty = schema.column_type(*i);
                (ty == DataType::Float || ty == DataType::Int).then(|| {
                    let slot = *slot_of.entry(*i).or_insert_with(|| {
                        cols.push(*i);
                        int_slots.push(ty == DataType::Int);
                        cols.len() - 1
                    });
                    ScalarBlockExpr::Col(slot)
                })
            }
            BoundExpr::ColumnRef(i) => {
                Some(ScalarBlockExpr::Const(suffix[*i - base_width].clone()))
            }
            BoundExpr::ScalarUdf { udf, args } => {
                let args = args
                    .iter()
                    .map(|a| compile(a, schema, base_width, suffix, cols, int_slots, slot_of))
                    .collect::<Option<Vec<_>>>()?;
                Some(ScalarBlockExpr::Udf {
                    udf: udf.clone(),
                    args,
                })
            }
            _ => None,
        }
    }
    let mut exprs = Vec::with_capacity(bound.len());
    for b in bound {
        exprs.push(
            compile(
                b,
                schema,
                base_width,
                suffix,
                &mut cols,
                &mut int_slots,
                &mut slot_of,
            )
            .ok_or_else(not_block)?,
        );
    }
    // Int columns ride the block path widened to f64 and narrowed back
    // on output; beyond ±2^53 that round trip loses precision, so such
    // columns force the row path (tracked per column from observed
    // values).
    if let Some((&col, _)) = cols
        .iter()
        .zip(&int_slots)
        .find(|&(&c, &is_int)| is_int && !base.int_widening_exact(c))
    {
        return Err(format!(
            "integer column {} exceeds the exact f64 range (±2^53)",
            schema.column_name(col)
        ));
    }
    // Residual predicates must compile to selection bitmaps; their
    // columns append after the projection columns.
    let predicate = if residual.is_empty() {
        None
    } else {
        Some(
            compile_residual(
                residual,
                schema,
                base,
                Some(suffix),
                &mut cols,
                Some(&mut int_slots),
            )
            .ok_or_else(|| {
                format!(
                    "{} residual predicate(s) not block-compilable",
                    residual.len()
                )
            })?,
        )
    };
    // With no block column at all there is nothing to decode (and no
    // row count to drive constant projections).
    if cols.is_empty() {
        return Err(not_block());
    }
    Ok(ScalarBlockPlan {
        cols,
        int_slots,
        exprs,
        predicate,
    })
}

/// A block cell as a [`Value`] (validity-aware; `Int` columns narrow
/// back from their widened block representation — the planner only
/// admits columns whose observed values survive that round trip).
fn block_value(block: &ColumnBlock, slot: usize, is_int: bool, i: usize) -> Value {
    let col = block.column(slot);
    if col.is_null(i) {
        Value::Null
    } else if is_int {
        Value::Int(col.values[i] as i64)
    } else {
        Value::Float(col.values[i])
    }
}

/// How one ORDER BY key is computed for a result row.
enum OrderEval {
    /// 1-based output ordinal (already 0-based here).
    Ordinal(usize),
    /// Arbitrary expression over the input row (scalar queries) or
    /// aggregates/group keys (aggregate queries).
    Expr(BoundExpr),
}

/// The ORDER BY key values of one output row: an ordinal copies the
/// projected value, an expression is evaluated by `eval`.
fn order_keys(
    order: &[(OrderEval, bool)],
    projected: &[Value],
    eval: impl Fn(&BoundExpr) -> Result<Value>,
) -> Result<Row> {
    order
        .iter()
        .map(|(key, _)| match key {
            OrderEval::Ordinal(i) => Ok(projected[*i].clone()),
            OrderEval::Expr(e) => eval(e),
        })
        .collect()
}

/// The ORDER BY comparator, over the `(column, descending)` keys in
/// turn: NULLs sort last in either direction, DESC reverses the
/// non-NULL comparisons only, and mixed types compare by
/// [`Value::sql_cmp`]. Every sort of result rows uses it: scalar and
/// grouped ORDER BY and the default order of grouped output.
fn row_cmp(
    a: &[Value],
    b: &[Value],
    keys: impl IntoIterator<Item = (usize, bool)>,
) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    for (col, descending) in keys {
        let (x, y) = (&a[col], &b[col]);
        let ord = match (x.is_null(), y.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => {
                let ord = x.sql_cmp(y).unwrap_or(Ordering::Equal);
                if descending {
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

/// Sorts keyed rows per the ORDER BY keys and applies LIMIT.
fn finish_rows(
    mut keyed: Vec<(Row, Row)>,
    order: &[(OrderEval, bool)],
    limit: Option<usize>,
) -> Vec<Row> {
    if !order.is_empty() {
        keyed.sort_by(|(ka, _), (kb, _)| {
            row_cmp(ka, kb, order.iter().map(|(_, desc)| *desc).enumerate())
        });
    }
    let mut rows: Vec<Row> = keyed.into_iter().map(|(_, r)| r).collect();
    if let Some(limit) = limit {
        rows.truncate(limit);
    }
    rows
}

/// Flattens a predicate's top-level AND chain into conjuncts.
fn split_conjuncts<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    if let Expr::Binary {
        op: crate::ast::BinOp::And,
        lhs,
        rhs,
    } = e
    {
        split_conjuncts(lhs, out);
        split_conjuncts(rhs, out);
    } else {
        out.push(e);
    }
}

/// Derives an output column name for a projection.
fn projection_name(p: &crate::ast::Projection, idx: usize) -> String {
    if let Some(a) = &p.alias {
        return a.clone();
    }
    match &p.expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Call { name, .. } => name.clone(),
        _ => format!("col{}", idx + 1),
    }
}

/// Materializes a result set into a table, inferring column types from
/// the first non-NULL value in each column (all-NULL columns become
/// FLOAT).
pub fn result_to_table(rs: &ResultSet, partitions: usize) -> Result<Table> {
    let mut types = vec![None; rs.columns.len()];
    for row in &rs.rows {
        for (c, v) in row.iter().enumerate() {
            if types[c].is_none() {
                types[c] = match v {
                    Value::Null => None,
                    Value::Int(_) => Some(DataType::Int),
                    Value::Float(_) => Some(DataType::Float),
                    Value::Str(_) => Some(DataType::Str),
                };
            }
        }
        if types.iter().all(Option::is_some) {
            break;
        }
    }
    let schema = Schema::new(
        rs.columns
            .iter()
            .zip(&types)
            .map(|(name, ty)| Column::new(name.clone(), ty.unwrap_or(DataType::Float)))
            .collect(),
    );
    let mut table = Table::new(schema, partitions.max(1));
    for row in &rs.rows {
        table.insert(row.clone())?;
    }
    Ok(table)
}

/// Group key with SQL grouping semantics (NULLs group together).
#[derive(Debug, Clone)]
struct GroupKey(Vec<Value>);

/// Per-group accumulator states during phases 1–3.
type GroupMap = HashMap<GroupKey, Vec<AggAccum>>;

/// Everything a SELECT evaluates, bound once per engine: GROUP BY keys,
/// projections, HAVING, ORDER BY, and the aggregate calls they
/// collectively contain with each call's fast argument shape (no calls
/// for a scalar statement).
pub(crate) struct Bindings {
    group_bound: Vec<BoundExpr>,
    agg_calls: Vec<AggCall>,
    fast_args: Vec<Option<FastArg>>,
    proj_bound: Vec<BoundExpr>,
    names: Vec<String>,
    having_bound: Option<BoundExpr>,
    order_bound: Vec<(OrderEval, bool)>,
}

/// Phase 4 of the aggregation protocol: finalizes every group's
/// accumulators (a global aggregate over zero rows still yields one
/// row), applies HAVING, evaluates projections and ORDER BY keys,
/// sorts and applies LIMIT.
fn finalize(
    stmt: &SelectStmt,
    mut groups: GroupMap,
    bindings: Bindings,
    mut stats: ExecStats,
) -> Result<ResultSet> {
    let started = Instant::now();
    if groups.is_empty() && stmt.group_by.is_empty() {
        groups.insert(
            GroupKey(Vec::new()),
            bindings.agg_calls.iter().map(AggAccum::init).collect(),
        );
    }
    let mut keyed_rows = Vec::with_capacity(groups.len());
    for (key, accums) in groups {
        let aggs: Vec<Value> = accums
            .into_iter()
            .map(AggAccum::finalize)
            .collect::<Result<_>>()?;
        let eval = |e: &BoundExpr| e.eval(&[], &aggs, &key.0);
        if let Some(h) = &bindings.having_bound {
            if !matches!(eval(h)?, Value::Int(x) if x != 0) {
                continue;
            }
        }
        let out = bindings
            .proj_bound
            .iter()
            .map(eval)
            .collect::<Result<Row>>()?;
        let keys = order_keys(&bindings.order_bound, &out, eval)?;
        keyed_rows.push((keys, out));
    }
    // With no ORDER BY, sort whole rows for deterministic grouped
    // output.
    if bindings.order_bound.is_empty() {
        keyed_rows.sort_by(|(_, a), (_, b)| row_cmp(a, b, (0..a.len()).map(|i| (i, false))));
    }
    let rows = finish_rows(keyed_rows, &bindings.order_bound, stmt.limit);
    stats.finalize_nanos = started.elapsed().as_nanos() as u64;
    let mut rs = ResultSet::new(bindings.names, rows);
    rs.stats = stats;
    Ok(rs)
}

impl PartialEq for GroupKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| a.group_eq(b))
    }
}

impl Eq for GroupKey {}

impl Hash for GroupKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in &self.0 {
            state.write_u64(v.group_key());
        }
    }
}
