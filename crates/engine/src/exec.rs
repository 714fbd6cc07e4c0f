use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use nlq_linalg::kernels;
use nlq_models::{MatrixShape, Nlq};
use nlq_storage::{
    bitmap_count_ones, bitmap_mask_tail, bitmap_words, parallel_scan, parallel_scan_partitions,
    Column, ColumnBlock, DataType, Row, Schema, Table, Value, BLOCK_ROWS,
};
use nlq_summary::{
    project_nlq, shape_covers, SummaryData, SummaryDef, SummarySnapshot, SummaryStore,
};
use nlq_udf::{check_heap, AggregateState, BatchArg, ScalarBatchArg, ScalarUdf, UdfRegistry};

use crate::ast::{Expr, SelectStmt};
use crate::catalog::{Catalog, CatalogEntry};
use crate::db::{ExecStats, ResultSet};
use crate::expr::{AggCall, AggKind, Binder, BoundExpr, BoundSchema, FastArg, StatAgg};
use crate::predicate::{compile_residual, CompiledPredicates, PredScratch};
use crate::sys::SystemTableProvider;
use crate::{EngineError, Result};

/// Upper bound on materialized cross-join products, protecting against
/// accidental combinatorial blowups (the paper's scoring joins touch
/// only `k`-row dimension tables).
const JOIN_LIMIT: usize = 1_000_000;

/// Execution context of one statement on one shard.
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
pub(crate) fn merge_partial_errors<T>(partials: Vec<Result<T>>) -> Result<Vec<T>> {
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

impl ExecContext<'_> {
    /// Executes a SELECT statement to completion.
    pub fn execute_select(&self, stmt: &SelectStmt) -> Result<ResultSet> {
        let plan_started = Instant::now();
        let plan = self.plan_select(stmt)?;
        let plan_nanos = plan_started.elapsed().as_nanos() as u64;
        let mut rs = if plan.aggregate_mode {
            self.execute_aggregate(
                stmt,
                &plan.base,
                &plan.schema,
                &plan.join_product,
                &plan.residual,
            )?
        } else {
            self.execute_scalar(
                stmt,
                &plan.base,
                &plan.schema,
                &plan.join_product,
                &plan.residual,
            )?
        };
        rs.stats.plan_nanos = plan_nanos;
        Ok(rs)
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

        let is_agg_name = |n: &str| AggKind::is_aggregate_name(n, &self.registry);
        let aggregate_mode = !stmt.group_by.is_empty()
            || stmt
                .projections
                .iter()
                .any(|p| p.expr.contains_aggregate(&is_agg_name));

        Ok(PlannedSelect {
            base,
            schema,
            join_product,
            residual,
            pushed: join_only.len(),
            aggregate_mode,
        })
    }

    /// Describes the plan for a SELECT without executing its scan —
    /// the `EXPLAIN` statement.
    pub fn explain_select(&self, stmt: &SelectStmt) -> Result<Vec<String>> {
        let plan = self.plan_select(stmt)?;
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
            // Re-bind to count aggregate calls and fast paths (the
            // executor does the same binding when it runs).
            let mut agg_calls: Vec<AggCall> = Vec::new();
            for p in &stmt.projections {
                let mut binder = Binder {
                    schema: &plan.schema,
                    registry: &self.registry,
                    group_exprs: &stmt.group_by,
                    aggs: Some(&mut agg_calls),
                };
                binder.bind(&p.expr)?;
            }
            if let Some(h) = &stmt.having {
                let mut binder = Binder {
                    schema: &plan.schema,
                    registry: &self.registry,
                    group_exprs: &stmt.group_by,
                    aggs: Some(&mut agg_calls),
                };
                binder.bind(h)?;
            }
            let fast_args = compute_fast_args(&plan.schema, &agg_calls);
            let fast = fast_args.iter().filter(|f| f.is_some()).count();
            let udfs = agg_calls
                .iter()
                .filter(|c| matches!(c.kind, AggKind::Udf(_)))
                .count();
            lines.push(format!(
                "aggregate: {} call(s) ({fast} fast-path candidate(s), {udfs} UDF state(s)); group by {} key(s)",
                agg_calls.len(),
                stmt.group_by.len()
            ));
            let trivial_join = plan.join_product.len() == 1 && plan.join_product[0].is_empty();
            // Mirror the executor's summary rewrite (without rebuilding
            // anything): report the summary that would answer.
            let summary_line = if stmt.from.len() == 1 && trivial_join && plan.residual.is_empty() {
                self.explain_summary_match(stmt, &plan.schema, &agg_calls)?
            } else {
                None
            };
            // Mirror the executor's block-path eligibility test so the
            // plan shows which scan mode will run.
            let block_plan = if self.block_scan && stmt.group_by.is_empty() && trivial_join {
                plan_block_calls(
                    &plan.schema,
                    plan.base.schema().len(),
                    &agg_calls,
                    &fast_args,
                    &plan.residual,
                )
            } else {
                None
            };
            match (summary_line, block_plan) {
                (Some(line), _) => lines.push(line),
                (None, Some(bp)) => lines.push(block_agg_line(&bp)),
                (None, None) => {
                    // State why the vectorized path is ineligible, most
                    // significant obstacle first.
                    let reason = if !self.block_scan {
                        "block scan disabled".to_owned()
                    } else if !stmt.group_by.is_empty() {
                        "GROUP BY requires row grouping".to_owned()
                    } else if !trivial_join {
                        "cross join".to_owned()
                    } else if plan_block_calls(
                        &plan.schema,
                        plan.base.schema().len(),
                        &agg_calls,
                        &fast_args,
                        &[],
                    )
                    .is_none()
                    {
                        "aggregate arguments are not all float base-table columns".to_owned()
                    } else {
                        format!(
                            "{} residual predicate(s) not block-compilable",
                            plan.residual.len()
                        )
                    };
                    lines.push(format!("scan mode: row-at-a-time ({reason})"));
                }
            }
            if stmt.having.is_some() {
                lines.push("having: post-aggregation filter".into());
            }
        } else {
            lines.push(format!(
                "project: {} expression(s) per row",
                stmt.projections.len()
            ));
            // Mirror the executor's scalar block-path eligibility test
            // (scoring queries decode column blocks instead of rows).
            let mut bound = Vec::new();
            for p in &stmt.projections {
                if p.expr == Expr::Wildcard {
                    for c in 0..plan.schema.len() {
                        bound.push(BoundExpr::ColumnRef(c));
                    }
                } else {
                    bound.push(Binder::scalar(&plan.schema, &self.registry).bind(&p.expr)?);
                }
            }
            let block_plan = if self.block_scan && stmt.order_by.is_empty() {
                plan_scalar_block(
                    &plan.schema,
                    &plan.base,
                    &plan.join_product,
                    &bound,
                    &plan.residual,
                )
            } else {
                Err(String::new())
            };
            match block_plan {
                Ok(bp) => lines.push(block_scalar_line(&bp)),
                Err(why) => {
                    let reason = if !self.block_scan {
                        "block scan disabled".to_owned()
                    } else if !stmt.order_by.is_empty() {
                        "ORDER BY requires row materialization".to_owned()
                    } else {
                        why
                    };
                    lines.push(format!("scan mode: row-at-a-time ({reason})"));
                }
            }
        }
        if !stmt.order_by.is_empty() {
            lines.push(format!("order by: {} key(s)", stmt.order_by.len()));
        }
        if let Some(limit) = stmt.limit {
            lines.push(format!("limit: {limit}"));
        }
        Ok(lines)
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
                let rs = self.execute_select(&query)?;
                Ok(Arc::new(result_to_table(&rs, self.workers)?))
            }
            None => Err(EngineError::UnknownTable(name.to_owned())),
        }
    }

    fn execute_scalar(
        &self,
        stmt: &SelectStmt,
        base: &Table,
        schema: &BoundSchema,
        join_product: &[Row],
        residual: &[BoundExpr],
    ) -> Result<ResultSet> {
        if stmt.having.is_some() {
            return Err(EngineError::Unsupported(
                "HAVING requires aggregation or GROUP BY".into(),
            ));
        }
        // Expand projections (wildcard becomes every column).
        let mut bound = Vec::new();
        let mut names = Vec::new();
        for (i, p) in stmt.projections.iter().enumerate() {
            if p.expr == Expr::Wildcard {
                for c in 0..schema.len() {
                    bound.push(BoundExpr::ColumnRef(c));
                    names.push(schema.column_name(c).to_owned());
                }
            } else {
                bound.push(Binder::scalar(schema, &self.registry).bind(&p.expr)?);
                names.push(projection_name(p, i));
            }
        }

        // ORDER BY keys: bound against the input schema, or a 1-based
        // output ordinal (`ORDER BY 2`).
        let order_bound: Vec<(OrderEval, bool)> = stmt
            .order_by
            .iter()
            .map(|key| {
                let eval = match &key.expr {
                    Expr::Literal(Value::Int(k)) => {
                        let idx = (*k as usize).checked_sub(1).filter(|i| *i < bound.len());
                        OrderEval::Ordinal(idx.ok_or_else(|| {
                            EngineError::Unsupported(format!("ORDER BY ordinal {k} out of range"))
                        })?)
                    }
                    e => OrderEval::Expr(Binder::scalar(schema, &self.registry).bind(e)?),
                };
                Ok((eval, key.descending))
            })
            .collect::<Result<_>>()?;

        // Vectorized alternative to the row loop: scoring-style
        // projections (scalar UDFs over float base columns plus
        // model-table constants from a single join combination) decode
        // column blocks instead of materializing full rows. Residual
        // predicates ride along as per-block selection bitmaps, and a
        // LIMIT stops each worker early.
        if self.block_scan && stmt.order_by.is_empty() {
            if let Ok(plan) = plan_scalar_block(schema, base, join_product, &bound, residual) {
                let scan_started = Instant::now();
                let rows = self.run_scalar_block(base, &plan, stmt.limit)?;
                let mut stats = ExecStats {
                    block_path: true,
                    ..ExecStats::default()
                };
                stats.scan_nanos = scan_started.elapsed().as_nanos() as u64;
                stats.rows_scanned = rows.1;
                stats.blocks_scanned = rows.2;
                let mut out = rows.0;
                if let Some(limit) = stmt.limit {
                    out.truncate(limit);
                }
                let mut rs = ResultSet::new(names, out);
                rs.stats = stats;
                return Ok(rs);
            }
        }

        let bound_ref = &bound;
        let order_ref = &order_bound;
        let cancel = self.cancel.as_deref();
        let scan_started = Instant::now();
        // Each worker returns its keyed projections plus how many base
        // rows it scanned.
        type KeyedPartial = (Vec<(Row, Row)>, u64);
        let partials: Vec<Result<KeyedPartial>> = parallel_scan(base, self.workers, |iter| {
            let mut out = Vec::new();
            let mut combined_buf: Row = Vec::new();
            let mut scanned_rows = 0u64;
            for (scanned, row) in iter.enumerate() {
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
                    let mut projected = Vec::with_capacity(bound_ref.len());
                    for b in bound_ref {
                        projected.push(b.eval(combined, &[], &[])?);
                    }
                    // Evaluate ORDER BY keys against the same row and
                    // carry them alongside the projection.
                    let mut keys = Vec::with_capacity(order_ref.len());
                    for (eval, _) in order_ref {
                        keys.push(match eval {
                            OrderEval::Ordinal(i) => projected[*i].clone(),
                            OrderEval::Expr(e) => e.eval(combined, &[], &[])?,
                        });
                    }
                    out.push((keys, projected));
                }
            }
            Ok((out, scanned_rows))
        });

        let mut keyed_rows = Vec::new();
        let mut rows_scanned = 0u64;
        for (p, scanned) in merge_partial_errors(partials)? {
            keyed_rows.extend(p);
            rows_scanned += scanned;
        }
        let scan_nanos = scan_started.elapsed().as_nanos() as u64;
        let rows = finish_rows(keyed_rows, &stmt.order_by, stmt.limit);
        let mut rs = ResultSet::new(names, rows);
        rs.stats.rows_scanned = rows_scanned;
        rs.stats.scan_nanos = scan_nanos;
        Ok(rs)
    }

    /// Executes a planned block-path scalar projection: decode column
    /// blocks per partition, evaluate each projection per row. Returns
    /// `(rows, rows_scanned, blocks_scanned)`; row order matches the
    /// row path's (partition-major).
    fn run_scalar_block(
        &self,
        base: &Table,
        plan: &ScalarBlockPlan,
        limit: Option<usize>,
    ) -> Result<(Vec<Row>, u64, u64)> {
        let cancel = self.cancel.as_deref();
        let partials: Vec<Result<(Vec<Row>, u64, u64)>> =
            parallel_scan_partitions(base, self.workers, |p| {
                let mut out = Vec::new();
                let mut iter = base.scan_partition_blocks_numeric(p, &plan.cols)?;
                let (mut rows, mut blocks) = (0u64, 0u64);
                let mut sel = Vec::new();
                let mut pred_scratch = PredScratch::default();
                let mut arg_pool: Vec<Vec<Value>> = Vec::new();
                let mut batch_out: Vec<Vec<Value>> = vec![Vec::new(); plan.exprs.len()];
                let mut batch_ok = vec![false; plan.exprs.len()];
                // The final output keeps the first `limit` rows in
                // partition-major order, so no worker ever needs more
                // than `limit` rows of its own.
                let done = |out: &Vec<Row>| limit.is_some_and(|l| out.len() >= l);
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
                    // Columnar projections: a flat UDF call (all args
                    // columns or constants) evaluates once over the
                    // whole block instead of once per row — unless a
                    // small LIMIT makes per-row early exit cheaper
                    // than computing rows nobody will read.
                    let batch_worthwhile = limit.is_none_or(|l| l >= block.len());
                    for (k, e) in plan.exprs.iter().enumerate() {
                        batch_ok[k] = false;
                        if !batch_worthwhile || !plan.batched[k] {
                            continue;
                        }
                        let ScalarBlockExpr::Udf { udf, args } = e else {
                            continue;
                        };
                        let bargs: Vec<ScalarBatchArg> = args
                            .iter()
                            .map(|a| match a {
                                ScalarBlockExpr::Col(s) => {
                                    let col = block.column(*s);
                                    ScalarBatchArg::Col {
                                        values: col.values,
                                        validity: col.validity(),
                                    }
                                }
                                ScalarBlockExpr::Const(v) => ScalarBatchArg::Const(v),
                                ScalarBlockExpr::Udf { .. } => unreachable!("flat_udf"),
                            })
                            .collect();
                        batch_out[k].clear();
                        batch_ok[k] = udf.eval_batch(&bargs, block.len(), &mut batch_out[k])?;
                    }
                    let mut emit = |out: &mut Vec<Row>, i: usize| -> Result<()> {
                        let mut row = Vec::with_capacity(plan.exprs.len());
                        for (k, e) in plan.exprs.iter().enumerate() {
                            row.push(if batch_ok[k] {
                                batch_out[k][i].clone()
                            } else {
                                e.eval(&block, &plan.int_slots, i, &mut arg_pool, 0)?
                            });
                        }
                        out.push(row);
                        Ok(())
                    };
                    match selection {
                        None => {
                            for i in 0..block.len() {
                                emit(&mut out, i)?;
                                if done(&out) {
                                    break;
                                }
                            }
                        }
                        Some(words) => {
                            'words: for (w, &word) in words.iter().enumerate() {
                                let mut m = word;
                                while m != 0 {
                                    let i = (w << 6) | m.trailing_zeros() as usize;
                                    m &= m - 1;
                                    emit(&mut out, i)?;
                                    if done(&out) {
                                        break 'words;
                                    }
                                }
                            }
                        }
                    }
                    if done(&out) {
                        break;
                    }
                }
                Ok((out, rows, blocks))
            });
        let mut all = Vec::new();
        let (mut rows, mut blocks) = (0u64, 0u64);
        for (o, r, b) in merge_partial_errors(partials)? {
            all.extend(o);
            rows += r;
            blocks += b;
        }
        Ok((all, rows, blocks))
    }

    fn execute_aggregate(
        &self,
        stmt: &SelectStmt,
        base: &Table,
        schema: &BoundSchema,
        join_product: &[Row],
        residual: &[BoundExpr],
    ) -> Result<ResultSet> {
        let bindings = self.bind_aggregate(stmt, schema)?;
        let mut stats = ExecStats::default();
        let merged = self.aggregate_partials(
            stmt,
            base,
            schema,
            join_product,
            residual,
            &bindings,
            &mut stats,
        )?;
        finalize_merged(stmt, &bindings, merged, stats)
    }

    /// Binds everything an aggregate SELECT evaluates — GROUP BY keys,
    /// projections, HAVING, ORDER BY — collecting the aggregate calls
    /// they contain. Binding is deterministic, so two engines with the
    /// same catalog and registry produce the same call list (the
    /// property shard gather relies on to line partials up).
    fn bind_aggregate(&self, stmt: &SelectStmt, schema: &BoundSchema) -> Result<AggBindings> {
        // Bind GROUP BY keys (scalar mode).
        let group_bound: Vec<BoundExpr> = stmt
            .group_by
            .iter()
            .map(|g| Binder::scalar(schema, &self.registry).bind(g))
            .collect::<Result<_>>()?;

        // Bind projections in aggregate mode, extracting agg calls.
        let mut agg_calls: Vec<AggCall> = Vec::new();
        let mut proj_bound = Vec::new();
        let mut names = Vec::new();
        for (i, p) in stmt.projections.iter().enumerate() {
            let mut binder = Binder {
                schema,
                registry: &self.registry,
                group_exprs: &stmt.group_by,
                aggs: Some(&mut agg_calls),
            };
            proj_bound.push(binder.bind(&p.expr)?);
            names.push(projection_name(p, i));
        }

        // HAVING and ORDER BY are also bound in aggregate mode so they
        // may introduce their own aggregate calls (e.g.
        // `HAVING count(*) > 5`, `ORDER BY sum(v) DESC`).
        let having_bound = match &stmt.having {
            Some(h) => {
                let mut binder = Binder {
                    schema,
                    registry: &self.registry,
                    group_exprs: &stmt.group_by,
                    aggs: Some(&mut agg_calls),
                };
                Some(binder.bind(h)?)
            }
            None => None,
        };
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
                    e => {
                        let mut binder = Binder {
                            schema,
                            registry: &self.registry,
                            group_exprs: &stmt.group_by,
                            aggs: Some(&mut agg_calls),
                        };
                        OrderEval::Expr(binder.bind(e)?)
                    }
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

        Ok(AggBindings {
            group_bound,
            agg_calls,
            proj_bound,
            names,
            having_bound,
            order_bound,
        })
    }

    /// Phases 1–3 of the aggregation protocol: summary rewrite or
    /// parallel scan, then the per-engine partial merge. Returns the
    /// merged (but unfinalized) per-group accumulator states, so the
    /// caller can either finalize locally ([`finalize_merged`]) or
    /// ship them to a gather step that merges across shards first.
    #[allow(clippy::too_many_arguments)]
    fn aggregate_partials(
        &self,
        stmt: &SelectStmt,
        base: &Table,
        schema: &BoundSchema,
        join_product: &[Row],
        residual: &[BoundExpr],
        bindings: &AggBindings,
        stats: &mut ExecStats,
    ) -> Result<GroupMap> {
        let group_bound = &bindings.group_bound;
        let agg_calls = &bindings.agg_calls;

        // Planner rewrite: answer the whole statement from a
        // materialized Γ summary when one structurally matches — no
        // scan at all, O(groups · d²) work. The summary yields
        // *accumulator* states (not finalized values), so a summary
        // answer merges with other engines' partials like any scan.
        let trivial_join = join_product.len() == 1 && join_product[0].is_empty();
        if stmt.from.len() == 1 && trivial_join && residual.is_empty() {
            let summary_started = Instant::now();
            let answer = self.try_summary_answer(
                &stmt.from[0].name,
                base,
                schema,
                group_bound,
                agg_calls,
                stats,
            )?;
            stats.summary_nanos = summary_started.elapsed().as_nanos() as u64;
            if let Some(groups) = answer {
                return Ok(groups);
            }
        }

        // Recognize fast shapes for simple numeric aggregate terms
        // (the bulk of the paper's generated 1 + d + d² queries).
        let fast_args = compute_fast_args(schema, agg_calls);

        let group_ref = group_bound;
        let calls_ref = agg_calls;
        let fast_ref = &fast_args;
        let cancel = self.cancel.as_deref();

        // Vectorized alternative to the row loop: when the whole
        // statement is a global aggregate over numeric columns of the
        // base table, scan fixed-size column blocks instead of rows.
        // Compilable residual predicates become per-block selection
        // bitmaps rather than forcing the row path.
        let block_plan = if self.block_scan && group_bound.is_empty() && trivial_join {
            plan_block_calls(schema, base.schema().len(), agg_calls, &fast_args, residual)
        } else {
            None
        };

        // Phase 1-2: each worker accumulates per-group partial states
        // over its partition (the UDF protocol's init + row steps).
        let scan_started = Instant::now();
        let partials: Vec<Result<(GroupMap, u64, u64, u64)>> = if let Some(plan) = &block_plan {
            stats.block_path = true;
            parallel_scan_partitions(base, self.workers, |p| {
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
            parallel_scan(base, self.workers, |iter| {
                let start = Instant::now();
                let mut groups: GroupMap = HashMap::new();
                let mut arg_buf: Vec<Value> = Vec::new();
                let mut combined_buf: Row = Vec::new();
                let mut rows = 0u64;
                for row in iter {
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
            for (key, accums) in groups {
                match merged.get_mut(&key) {
                    None => {
                        merged.insert(key, accums);
                    }
                    Some(existing) => {
                        for (e, a) in existing.iter_mut().zip(accums) {
                            e.merge(a)?;
                        }
                    }
                }
            }
        }
        stats.merge_nanos = merge_start.elapsed().as_nanos() as u64;
        stats.scan_nanos = scan_started.elapsed().as_nanos() as u64;
        Ok(merged)
    }

    /// Runs phases 1–3 of an aggregate SELECT and packages the result
    /// as a shippable [`AggPartial`] (the scatter half of a sharded
    /// aggregate).
    pub fn execute_select_partial(&self, stmt: &SelectStmt) -> Result<AggPartial> {
        let plan_started = Instant::now();
        let plan = self.plan_select(stmt)?;
        if !plan.aggregate_mode {
            return Err(EngineError::Unsupported(
                "partial execution requires an aggregate SELECT".into(),
            ));
        }
        let bindings = self.bind_aggregate(stmt, &plan.schema)?;
        let mut stats = ExecStats {
            plan_nanos: plan_started.elapsed().as_nanos() as u64,
            ..ExecStats::default()
        };
        let merged = self.aggregate_partials(
            stmt,
            &plan.base,
            &plan.schema,
            &plan.join_product,
            &plan.residual,
            &bindings,
            &mut stats,
        )?;
        Ok(AggPartial {
            groups: merged.into_iter().collect(),
            stats,
        })
    }

    /// The gather half of a sharded aggregate: merges partials from
    /// [`ExecContext::execute_select_partial`] group-by-group through
    /// the accumulator merge protocol, then finalizes. Statement
    /// counters are summed; `summary_path` survives only when *every*
    /// partial was answered from a summary.
    pub fn finalize_select_partials(
        &self,
        stmt: &SelectStmt,
        partials: Vec<AggPartial>,
    ) -> Result<ResultSet> {
        let plan = self.plan_select(stmt)?;
        if !plan.aggregate_mode {
            return Err(EngineError::Unsupported(
                "partial execution requires an aggregate SELECT".into(),
            ));
        }
        let bindings = self.bind_aggregate(stmt, &plan.schema)?;
        let mut stats = ExecStats::default();
        let mut all_summary = !partials.is_empty();
        let merge_start = Instant::now();
        let mut merged: GroupMap = HashMap::new();
        for partial in partials {
            stats.absorb(&partial.stats);
            all_summary &= partial.stats.summary_path;
            for (key, accums) in partial.groups {
                match merged.get_mut(&key) {
                    None => {
                        merged.insert(key, accums);
                    }
                    Some(existing) => {
                        for (e, a) in existing.iter_mut().zip(accums) {
                            e.merge(a)?;
                        }
                    }
                }
            }
        }
        stats.summary_path = all_summary;
        stats.merge_nanos += merge_start.elapsed().as_nanos() as u64;
        finalize_merged(stmt, &bindings, merged, stats)
    }

    /// Attempts to answer an aggregate query from a materialized Γ
    /// summary on `table`. A structurally matching stale summary is
    /// rebuilt on the spot (the stale → fresh edge); returns per-group
    /// accumulator states seeded from Γ on a hit (merge-compatible
    /// with scan partials), `None` to fall back to the scan paths.
    fn try_summary_answer(
        &self,
        table: &str,
        base: &Table,
        schema: &BoundSchema,
        group_bound: &[BoundExpr],
        agg_calls: &[AggCall],
        stats: &mut ExecStats,
    ) -> Result<Option<GroupMap>> {
        let candidates = self.summaries.for_table(table);
        if candidates.is_empty() || agg_calls.is_empty() {
            return Ok(None);
        }
        // The only group shape a keyed summary stores: one plain
        // column reference.
        let want_group = match group_bound {
            [] => None,
            [BoundExpr::ColumnRef(i)] => Some(schema.column_name(*i)),
            _ => {
                stats.summary_misses += 1;
                return Ok(None);
            }
        };
        for entry in &candidates {
            let Some(recipes) = plan_summary_recipes(entry.def(), schema, agg_calls, want_group)
            else {
                continue;
            };
            if !entry.is_fresh() {
                match entry.rebuild_with_cancel(base, self.cancel.as_deref()) {
                    // The rebuild scanned the table for real; account
                    // its rows so EXPLAIN ANALYZE shows the work.
                    Ok(rebuild_rows) => {
                        stats.summary_stale_rebuilds += 1;
                        stats.summary_rebuild_rows += rebuild_rows;
                        stats.rows_scanned += rebuild_rows;
                    }
                    // A cancelled rebuild cancels the statement; the
                    // entry stays stale for the next reader.
                    Err(e @ nlq_summary::SummaryError::Cancelled { .. }) => return Err(e.into()),
                    // E.g. the table was replaced with an incompatible
                    // schema; the summary stays stale and unusable.
                    Err(_) => continue,
                }
            }
            let snap = entry.snapshot();
            if !snap.fresh || !null_gate(entry.def(), &recipes, snap.null_rows_skipped) {
                continue;
            }
            let groups = summary_accum_groups(&snap, &recipes, agg_calls)?;
            stats.summary_path = true;
            stats.summary_hits += 1;
            return Ok(Some(groups));
        }
        // Summaries exist for this table but none could answer.
        stats.summary_misses += 1;
        Ok(None)
    }

    /// EXPLAIN's view of the summary rewrite: the `scan mode: summary`
    /// line for the first summary that would answer this statement, or
    /// `None`. Stale candidates are reported (they rebuild on execute)
    /// but never rebuilt here.
    fn explain_summary_match(
        &self,
        stmt: &SelectStmt,
        schema: &BoundSchema,
        agg_calls: &[AggCall],
    ) -> Result<Option<String>> {
        if agg_calls.is_empty() {
            return Ok(None);
        }
        let group_bound: Vec<BoundExpr> = stmt
            .group_by
            .iter()
            .map(|g| Binder::scalar(schema, &self.registry).bind(g))
            .collect::<Result<_>>()?;
        let want_group = match group_bound.as_slice() {
            [] => None,
            [BoundExpr::ColumnRef(i)] => Some(schema.column_name(*i)),
            _ => return Ok(None),
        };
        for entry in self.summaries.for_table(&stmt.from[0].name) {
            let Some(recipes) = plan_summary_recipes(entry.def(), schema, agg_calls, want_group)
            else {
                continue;
            };
            let snap = entry.snapshot();
            if snap.fresh && !null_gate(entry.def(), &recipes, snap.null_rows_skipped) {
                continue;
            }
            let line = if snap.fresh {
                format!("scan mode: summary ({}, fresh)", entry.def().name)
            } else {
                format!(
                    "scan mode: summary ({}, stale; rebuilt on execute)",
                    entry.def().name
                )
            };
            return Ok(Some(line));
        }
        Ok(None)
    }
}

/// Phase 4 of the aggregation protocol, shared by the scan paths and
/// the summary answer path: apply HAVING, evaluate projections and
/// ORDER BY keys per group, sort, and attach the counters.
fn finalize_groups(
    stmt: &SelectStmt,
    proj_bound: &[BoundExpr],
    names: Vec<String>,
    having_bound: &Option<BoundExpr>,
    order_bound: &[(OrderEval, bool)],
    groups: GroupRows,
    mut stats: ExecStats,
) -> Result<ResultSet> {
    let finalize_start = Instant::now();
    let mut keyed_rows = Vec::with_capacity(groups.len());
    for (key, agg_values) in groups {
        if let Some(h) = having_bound {
            if !matches!(h.eval(&[], &agg_values, &key.0)?, Value::Int(x) if x != 0) {
                continue;
            }
        }
        let mut out = Vec::with_capacity(proj_bound.len());
        for b in proj_bound {
            out.push(b.eval(&[], &agg_values, &key.0)?);
        }
        let mut keys = Vec::with_capacity(order_bound.len());
        for (eval, _) in order_bound {
            keys.push(match eval {
                OrderEval::Ordinal(i) => out[*i].clone(),
                OrderEval::Expr(e) => e.eval(&[], &agg_values, &key.0)?,
            });
        }
        keyed_rows.push((keys, out));
    }
    // With no ORDER BY, sort whole rows for deterministic grouped
    // output; otherwise sort by the requested keys.
    if stmt.order_by.is_empty() {
        keyed_rows.sort_by(|(_, a), (_, b)| {
            for (x, y) in a.iter().zip(b) {
                let ord = value_cmp(x, y);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        let mut rows: Vec<Row> = keyed_rows.into_iter().map(|(_, r)| r).collect();
        if let Some(limit) = stmt.limit {
            rows.truncate(limit);
        }
        stats.finalize_nanos = finalize_start.elapsed().as_nanos() as u64;
        let mut rs = ResultSet::new(names, rows);
        rs.stats = stats;
        return Ok(rs);
    }
    let rows = finish_rows(keyed_rows, &stmt.order_by, stmt.limit);
    stats.finalize_nanos = finalize_start.elapsed().as_nanos() as u64;
    let mut rs = ResultSet::new(names, rows);
    rs.stats = stats;
    Ok(rs)
}

/// How one aggregate call is answered from a summary's maintained Γ.
enum SummaryRecipe {
    /// `nlq_list(d, 'shape', cols...)`: project the state onto the
    /// query's dimensions and re-pack it.
    Nlq {
        dims: Vec<usize>,
        shape: MatrixShape,
    },
    /// `count(*)` / `count(col)`: the state's `n`.
    Count,
    /// `sum(col)`: `L[dim]` (summarized columns are float, so the
    /// integer-sum rule never applies).
    Sum { dim: usize },
    /// `avg(col)`: `L[dim] / n`.
    Avg { dim: usize },
    /// `min(col)`: the maintained per-dimension minimum.
    Min { dim: usize },
    /// `max(col)`: the maintained per-dimension maximum.
    Max { dim: usize },
    /// Statistical builtin: the executor's 2-D formulas fed from L/Q.
    Stat {
        kind: StatAgg,
        a: usize,
        b: Option<usize>,
    },
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
    let dim = |args: &[BoundExpr]| match args {
        [BoundExpr::ColumnRef(i)] => def.dim_of(schema.column_name(*i)),
        _ => None,
    };
    agg_calls
        .iter()
        .map(|call| match &call.kind {
            AggKind::CountStar => Some(SummaryRecipe::Count),
            AggKind::Count => dim(&call.args).map(|_| SummaryRecipe::Count),
            AggKind::Sum => dim(&call.args).map(|dim| SummaryRecipe::Sum { dim }),
            AggKind::Avg => dim(&call.args).map(|dim| SummaryRecipe::Avg { dim }),
            // A `NO MINMAX` summary stores no bounds to answer from.
            AggKind::Min => dim(&call.args)
                .filter(|_| def.minmax)
                .map(|dim| SummaryRecipe::Min { dim }),
            AggKind::Max => dim(&call.args)
                .filter(|_| def.minmax)
                .map(|dim| SummaryRecipe::Max { dim }),
            AggKind::Stat(kind) => match (kind.arity(), call.args.as_slice()) {
                (1, [_]) => dim(&call.args).map(|a| SummaryRecipe::Stat {
                    kind: *kind,
                    a,
                    b: None,
                }),
                (2, [a, b]) => {
                    let a = dim(std::slice::from_ref(a))?;
                    let b = dim(std::slice::from_ref(b))?;
                    // Cross moments need an off-diagonal Q entry.
                    (a == b || def.shape != MatrixShape::Diagonal).then_some(SummaryRecipe::Stat {
                        kind: *kind,
                        a,
                        b: Some(b),
                    })
                }
                _ => None,
            },
            AggKind::Udf(udf) if udf.name() == "nlq_list" => {
                plan_nlq_recipe(def, schema, &call.args)
            }
            AggKind::Udf(_) => None,
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
/// summary answer is just another partial, so a sharded gather can
/// merge a shard's summary hit with another shard's scan through the
/// same [`AggAccum::merge`] protocol. Finalizing these states yields
/// exactly the values a direct summary answer used to produce.
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

/// One accumulator state from one Γ state. The variant mirrors what
/// the scan path builds for the same call (so cross-engine merges
/// line up), and an empty Γ (`n = 0`) seeds the same neutral state as
/// [`AggAccum::init`] — finalizing it matches a zero-row scan.
fn summary_accum(g: &Nlq, recipe: &SummaryRecipe, call: &AggCall) -> Result<AggAccum> {
    let n = g.n();
    Ok(match recipe {
        SummaryRecipe::Nlq { dims, shape } => AggAccum::Udf {
            state: nlq_udf::seeded_nlq_state(&project_nlq(g, dims, *shape)?),
        },
        SummaryRecipe::Count => match call.kind {
            AggKind::CountStar => AggAccum::CountStar { n: n as i64 },
            _ => AggAccum::Count { n: n as i64 },
        },
        // Summarized columns are float, so the integer-sum rule never
        // applies; an empty state keeps `int_only` neutral for merges.
        SummaryRecipe::Sum { dim } => AggAccum::Sum {
            acc: g.l()[*dim],
            any: n > 0.0,
            int_only: n == 0.0,
        },
        SummaryRecipe::Avg { dim } => AggAccum::Avg {
            sum: g.l()[*dim],
            n: n as i64,
        },
        SummaryRecipe::Min { dim } => AggAccum::Min {
            best: (n > 0.0).then(|| Value::Float(g.min()[*dim])),
        },
        SummaryRecipe::Max { dim } => AggAccum::Max {
            best: (n > 0.0).then(|| Value::Float(g.max()[*dim])),
        },
        SummaryRecipe::Stat { kind, a, b } => {
            let (l, q) = (g.l(), g.q_full());
            let (sb, sbb, sab) = match b {
                Some(b) => (l[*b], q[(*b, *b)], q[(*a, *b)]),
                None => (0.0, 0.0, 0.0),
            };
            AggAccum::Stat {
                kind: *kind,
                n,
                sa: l[*a],
                sb,
                saa: q[(*a, *a)],
                sbb,
                sab,
            }
        }
    })
}

/// Recognizes fast shapes for simple numeric aggregate terms. Gated on
/// column types so integer-sum semantics and string counting stay on
/// the general path.
fn compute_fast_args(schema: &BoundSchema, agg_calls: &[AggCall]) -> Vec<Option<FastArg>> {
    agg_calls
        .iter()
        .map(|call| {
            if call.args.len() != 1 {
                return None;
            }
            let fa = FastArg::recognize(&call.args[0])?;
            let numeric_float = |i: usize| schema.column_type(i) == DataType::Float;
            let ok = match (&call.kind, &fa) {
                (AggKind::Sum | AggKind::Avg | AggKind::Count, FastArg::Col(i)) => {
                    numeric_float(*i)
                }
                (AggKind::Sum | AggKind::Avg | AggKind::Count, FastArg::ColProduct(a, b)) => {
                    numeric_float(*a) && numeric_float(*b)
                }
                (AggKind::Sum | AggKind::Avg | AggKind::Count, FastArg::Const(_)) => {
                    matches!(&call.args[0], BoundExpr::Literal(Value::Float(_)))
                }
                _ => false,
            };
            ok.then_some(fa)
        })
        .collect()
}

/// How one aggregate-term operand reaches the block path: a projected
/// block column (by slot), the product of two columns, or a constant.
#[derive(Debug, Clone, Copy)]
enum BlockTerm {
    Col(usize),
    Prod(usize, usize),
    Const(f64),
}

/// A block-path execution recipe for one aggregate call.
#[derive(Debug, Clone)]
enum BlockCall {
    /// `count(*)`: the block length.
    CountStar,
    /// `sum`/`avg`/`count` over a fast-path term; the accumulator
    /// variant discriminates which statistic the reduction feeds.
    Fast(BlockTerm),
    /// `min`/`max` over one column.
    Extremum(usize),
    /// Statistical builtin over one or two columns.
    Stat { a: usize, b: Option<usize> },
    /// Aggregate UDF; arguments mapped onto block slots/constants.
    Udf(Vec<BatchArg>),
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

/// The EXPLAIN line for an eligible block-path aggregate.
fn block_agg_line(bp: &BlockPlan) -> String {
    match &bp.predicate {
        None => format!(
            "scan mode: block ({BLOCK_ROWS}-row column blocks over {} float column(s))",
            bp.cols.len()
        ),
        Some(p) => format!(
            "scan mode: block ({BLOCK_ROWS}-row column blocks over {} numeric column(s); \
             {} predicate(s) as selection bitmap)",
            bp.cols.len(),
            p.len()
        ),
    }
}

/// The EXPLAIN line for an eligible block-path scalar projection.
fn block_scalar_line(bp: &ScalarBlockPlan) -> String {
    match &bp.predicate {
        None => format!(
            "scan mode: block ({BLOCK_ROWS}-row column blocks over {} numeric column(s))",
            bp.cols.len()
        ),
        Some(p) => format!(
            "scan mode: block ({BLOCK_ROWS}-row column blocks over {} numeric column(s); \
             {} predicate(s) as selection bitmap)",
            bp.cols.len(),
            p.len()
        ),
    }
}

/// Plans the block path for a global aggregate, or returns `None` when
/// any call (or any residual predicate) needs the general
/// row-at-a-time machinery. Eligibility per call: every operand is a
/// float column of the base table (indices below `base_width`), a
/// product of two such columns, or a literal.
fn plan_block_calls(
    schema: &BoundSchema,
    base_width: usize,
    agg_calls: &[AggCall],
    fast_args: &[Option<FastArg>],
    residual: &[BoundExpr],
) -> Option<BlockPlan> {
    let mut cols: Vec<usize> = Vec::new();
    let mut slot_of: HashMap<usize, usize> = HashMap::new();
    let slot = |cols: &mut Vec<usize>, slot_of: &mut HashMap<usize, usize>, i: usize| {
        *slot_of.entry(i).or_insert_with(|| {
            cols.push(i);
            cols.len() - 1
        })
    };
    let float_col = |i: usize| i < base_width && schema.column_type(i) == DataType::Float;

    let mut calls = Vec::with_capacity(agg_calls.len());
    for (call, fast) in agg_calls.iter().zip(fast_args) {
        let planned = match (&call.kind, fast) {
            (AggKind::CountStar, _) => BlockCall::CountStar,
            // Reuse the row fast-path recognition for sum/avg/count,
            // restricted to base-table columns.
            (_, Some(FastArg::Col(i))) if float_col(*i) => {
                BlockCall::Fast(BlockTerm::Col(slot(&mut cols, &mut slot_of, *i)))
            }
            (_, Some(FastArg::ColProduct(a, b))) if float_col(*a) && float_col(*b) => {
                BlockCall::Fast(BlockTerm::Prod(
                    slot(&mut cols, &mut slot_of, *a),
                    slot(&mut cols, &mut slot_of, *b),
                ))
            }
            (_, Some(FastArg::Const(c))) => BlockCall::Fast(BlockTerm::Const(*c)),
            (AggKind::Min | AggKind::Max, None) => match call.args.as_slice() {
                [BoundExpr::ColumnRef(i)] if float_col(*i) => {
                    BlockCall::Extremum(slot(&mut cols, &mut slot_of, *i))
                }
                _ => return None,
            },
            (AggKind::Stat(kind), None) => match (kind.arity(), call.args.as_slice()) {
                (1, [BoundExpr::ColumnRef(a)]) if float_col(*a) => BlockCall::Stat {
                    a: slot(&mut cols, &mut slot_of, *a),
                    b: None,
                },
                (2, [BoundExpr::ColumnRef(a), BoundExpr::ColumnRef(b)])
                    if float_col(*a) && float_col(*b) =>
                {
                    BlockCall::Stat {
                        a: slot(&mut cols, &mut slot_of, *a),
                        b: Some(slot(&mut cols, &mut slot_of, *b)),
                    }
                }
                _ => return None,
            },
            (AggKind::Udf(_), None) => {
                let mut args = Vec::with_capacity(call.args.len());
                for arg in &call.args {
                    args.push(match arg {
                        BoundExpr::Literal(v) => BatchArg::Const(v.clone()),
                        BoundExpr::ColumnRef(i) if float_col(*i) => {
                            BatchArg::Col(slot(&mut cols, &mut slot_of, *i))
                        }
                        _ => return None,
                    });
                }
                BlockCall::Udf(args)
            }
            _ => return None,
        };
        calls.push(planned);
    }
    // Residual predicates must compile to selection bitmaps; their
    // columns (possibly Int — the numeric scan widens them) append
    // after the call columns.
    let predicate = if residual.is_empty() {
        None
    } else {
        Some(compile_residual(
            residual, schema, base_width, None, &mut cols, None,
        )?)
    };
    Some(BlockPlan {
        cols,
        calls,
        predicate,
    })
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
    /// Evaluates against row `i` of a decoded block. `pool` supplies
    /// reusable argument buffers (one per UDF nesting depth) so the
    /// per-row hot path allocates nothing.
    fn eval(
        &self,
        block: &ColumnBlock,
        int_slots: &[bool],
        i: usize,
        pool: &mut Vec<Vec<Value>>,
        depth: usize,
    ) -> Result<Value> {
        Ok(match self {
            ScalarBlockExpr::Const(v) => v.clone(),
            ScalarBlockExpr::Col(s) => block_value(block, *s, int_slots[*s], i),
            ScalarBlockExpr::Udf { udf, args } => {
                if pool.len() <= depth {
                    pool.resize_with(depth + 1, Vec::new);
                }
                let mut buf = std::mem::take(&mut pool[depth]);
                buf.clear();
                for a in args {
                    buf.push(a.eval(block, int_slots, i, pool, depth + 1)?);
                }
                let v = udf.eval(&buf)?;
                pool[depth] = buf;
                v
            }
        })
    }

    /// Whether this is a UDF call over plain columns and constants —
    /// the shape [`ScalarUdf::eval_batch`] accepts whole blocks of.
    fn flat_udf(&self) -> bool {
        matches!(self, ScalarBlockExpr::Udf { args, .. }
        if args.iter().all(|a| {
            matches!(a, ScalarBlockExpr::Col(_) | ScalarBlockExpr::Const(_))
        }))
    }
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
    /// Per projection: eligible for the once-per-block
    /// [`ScalarUdf::eval_batch`] columnar path.
    batched: Vec<bool>,
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
                base_width,
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
    let batched = exprs.iter().map(ScalarBlockExpr::flat_udf).collect();
    Ok(ScalarBlockPlan {
        cols,
        int_slots,
        exprs,
        batched,
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

/// Composes the predicate selection with the validity bitmaps of the
/// given column slots into one active-row bitmap. Returns `None` when
/// every row is active (no selection, all columns dense) — the dense
/// kernels apply; otherwise fills `buf` (`bitmap_words(len)` words,
/// bits past the block length zero) and returns it.
fn build_active<'a>(
    block: &ColumnBlock,
    slots: &[usize],
    selection: Option<&[u64]>,
    buf: &'a mut Vec<u64>,
) -> Option<&'a [u64]> {
    let any_null = slots.iter().any(|&s| !block.column(s).is_dense());
    if selection.is_none() && !any_null {
        return None;
    }
    let len = block.len();
    buf.clear();
    match selection {
        Some(sel) => buf.extend_from_slice(sel),
        None => {
            buf.resize(bitmap_words(len), !0u64);
            bitmap_mask_tail(buf, len);
        }
    }
    for &s in slots {
        if let Some(validity) = block.column(s).validity() {
            for (w, v) in buf.iter_mut().zip(validity) {
                *w &= v;
            }
        }
    }
    Some(buf)
}

/// Reduces one term over a block: `(sum of contributing products,
/// number of contributing rows)`. `selection` restricts the
/// contributing rows; NULLs in the term's columns drop out on top.
fn reduce_term(
    block: &ColumnBlock,
    term: &BlockTerm,
    selection: Option<&[u64]>,
    buf: &mut Vec<u64>,
) -> (f64, u64) {
    match term {
        BlockTerm::Const(c) => {
            let n = match selection {
                Some(sel) => bitmap_count_ones(sel),
                None => block.len(),
            };
            (*c * n as f64, n as u64)
        }
        BlockTerm::Col(s) => {
            let col = block.column(*s);
            match build_active(block, &[*s], selection, buf) {
                None => (kernels::sum(col.values), block.len() as u64),
                Some(active) => (
                    kernels::sum_selected(col.values, active),
                    bitmap_count_ones(active) as u64,
                ),
            }
        }
        BlockTerm::Prod(a, b) => {
            let (ca, cb) = (block.column(*a), block.column(*b));
            match build_active(block, &[*a, *b], selection, buf) {
                None => (kernels::dot(ca.values, cb.values), block.len() as u64),
                Some(active) => (
                    kernels::dot_selected(ca.values, cb.values, active),
                    bitmap_count_ones(active) as u64,
                ),
            }
        }
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

/// Total order for sorting: NULLs sort last, mixed types by variant.
fn value_cmp(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a.is_null(), b.is_null()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.sql_cmp(b).unwrap_or(Ordering::Equal),
    }
}

/// Sorts keyed rows per the ORDER BY spec and applies LIMIT.
fn finish_rows(
    mut keyed: Vec<(Row, Row)>,
    order_by: &[crate::ast::OrderKey],
    limit: Option<usize>,
) -> Vec<Row> {
    if !order_by.is_empty() {
        keyed.sort_by(|(ka, _), (kb, _)| {
            for (i, key) in order_by.iter().enumerate() {
                let (a, b) = (&ka[i], &kb[i]);
                // NULLs stay last regardless of direction.
                let ord = match (a.is_null(), b.is_null()) {
                    (true, true) => std::cmp::Ordering::Equal,
                    (true, false) => std::cmp::Ordering::Greater,
                    (false, true) => std::cmp::Ordering::Less,
                    (false, false) => {
                        let ord = value_cmp(a, b);
                        if key.descending {
                            ord.reverse()
                        } else {
                            ord
                        }
                    }
                };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
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

/// Finalized per-group aggregate values, ready for phase 4.
type GroupRows = Vec<(GroupKey, Vec<Value>)>;

/// Per-group accumulator states during phases 1–3.
type GroupMap = HashMap<GroupKey, Vec<AggAccum>>;

/// Everything an aggregate SELECT evaluates, bound once per engine:
/// GROUP BY keys, projections, HAVING, ORDER BY, and the aggregate
/// calls they collectively contain.
struct AggBindings {
    group_bound: Vec<BoundExpr>,
    agg_calls: Vec<AggCall>,
    proj_bound: Vec<BoundExpr>,
    names: Vec<String>,
    having_bound: Option<BoundExpr>,
    order_bound: Vec<(OrderEval, bool)>,
}

/// A merge-ready aggregate partial: the per-group accumulator states
/// one engine produced by running phases 1–3 of an aggregate SELECT
/// over its share of the data (or its local Γ summary). Opaque outside
/// the engine — a gather collects one per shard and feeds them to
/// [`ExecContext::finalize_select_partials`].
pub(crate) struct AggPartial {
    groups: Vec<(GroupKey, Vec<AggAccum>)>,
    /// Counters for the engine-local portion of the statement. A
    /// summary-answered partial keeps `rows_scanned` at 0 (plus any
    /// stale-rebuild rows): the whole point of shard-local Γ.
    pub stats: ExecStats,
}

/// Inserts the zero-row global group if needed, finalizes every
/// accumulator (phase 4), and runs the shared
/// projection/HAVING/ORDER BY tail.
fn finalize_merged(
    stmt: &SelectStmt,
    bindings: &AggBindings,
    mut merged: GroupMap,
    stats: ExecStats,
) -> Result<ResultSet> {
    // A global aggregate over zero rows still yields one row.
    if merged.is_empty() && stmt.group_by.is_empty() {
        merged.insert(
            GroupKey(Vec::new()),
            bindings.agg_calls.iter().map(AggAccum::init).collect(),
        );
    }
    let mut groups = Vec::with_capacity(merged.len());
    for (key, accums) in merged {
        let agg_values: Vec<Value> = accums
            .into_iter()
            .map(AggAccum::finalize)
            .collect::<Result<_>>()?;
        groups.push((key, agg_values));
    }
    finalize_groups(
        stmt,
        &bindings.proj_bound,
        bindings.names.clone(),
        &bindings.having_bound,
        &bindings.order_bound,
        groups,
        stats,
    )
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

/// A single aggregate accumulator (one per aggregate call per group
/// per worker).
enum AggAccum {
    Sum {
        acc: f64,
        any: bool,
        int_only: bool,
    },
    Count {
        n: i64,
    },
    CountStar {
        n: i64,
    },
    Avg {
        sum: f64,
        n: i64,
    },
    Min {
        best: Option<Value>,
    },
    Max {
        best: Option<Value>,
    },
    /// Two-dimensional statistical builtin: the running sums
    /// (n, Σa, Σb, Σa², Σb², Σab) — a 2-D instance of the paper's
    /// n, L, Q.
    Stat {
        kind: StatAgg,
        n: f64,
        sa: f64,
        sb: f64,
        saa: f64,
        sbb: f64,
        sab: f64,
    },
    Udf {
        state: Box<dyn AggregateState>,
    },
}

impl AggAccum {
    fn init(call: &AggCall) -> Self {
        match &call.kind {
            AggKind::Sum => AggAccum::Sum {
                acc: 0.0,
                any: false,
                int_only: true,
            },
            AggKind::Count => AggAccum::Count { n: 0 },
            AggKind::CountStar => AggAccum::CountStar { n: 0 },
            AggKind::Avg => AggAccum::Avg { sum: 0.0, n: 0 },
            AggKind::Min => AggAccum::Min { best: None },
            AggKind::Max => AggAccum::Max { best: None },
            AggKind::Stat(kind) => AggAccum::Stat {
                kind: *kind,
                n: 0.0,
                sa: 0.0,
                sb: 0.0,
                saa: 0.0,
                sbb: 0.0,
                sab: 0.0,
            },
            AggKind::Udf(udf) => AggAccum::Udf { state: udf.init() },
        }
    }

    /// Specialized update for recognized numeric fast-path terms
    /// (`None` means SQL NULL: skipped, except by `count(*)` which
    /// never takes the fast path).
    #[inline]
    fn update_fast(&mut self, v: Option<f64>) {
        match self {
            AggAccum::Sum { acc, any, int_only } => {
                if let Some(x) = v {
                    *acc += x;
                    *any = true;
                    *int_only = false; // fast path is float-typed by construction
                }
            }
            AggAccum::Avg { sum, n } => {
                if let Some(x) = v {
                    *sum += x;
                    *n += 1;
                }
            }
            AggAccum::Count { n } => {
                if v.is_some() {
                    *n += 1;
                }
            }
            _ => unreachable!("fast path only generated for sum/avg/count"),
        }
    }

    /// Folds a whole column block into the accumulator per the planned
    /// [`BlockCall`] — the vectorized counterpart of calling
    /// [`AggAccum::update`]/[`AggAccum::update_fast`] once per row.
    /// `selection` (the compiled `WHERE` bitmap) restricts the
    /// contributing rows; `buf` is reusable active-bitmap scratch.
    fn update_block(
        &mut self,
        block: &ColumnBlock,
        call: &BlockCall,
        selection: Option<&[u64]>,
        buf: &mut Vec<u64>,
    ) -> Result<()> {
        match (self, call) {
            (AggAccum::CountStar { n }, BlockCall::CountStar) => {
                *n += match selection {
                    Some(sel) => bitmap_count_ones(sel) as i64,
                    None => block.len() as i64,
                }
            }
            (AggAccum::Sum { acc, any, int_only }, BlockCall::Fast(term)) => {
                let (s, kept) = reduce_term(block, term, selection, buf);
                if kept > 0 {
                    *acc += s;
                    *any = true;
                    *int_only = false; // fast path is float-typed by construction
                }
            }
            (AggAccum::Avg { sum, n }, BlockCall::Fast(term)) => {
                let (s, kept) = reduce_term(block, term, selection, buf);
                *sum += s;
                *n += kept as i64;
            }
            (AggAccum::Count { n }, BlockCall::Fast(term)) => {
                let (_, kept) = reduce_term(block, term, selection, buf);
                *n += kept as i64;
            }
            (AggAccum::Min { best }, BlockCall::Extremum(s)) => {
                let col = block.column(*s);
                let lo = match build_active(block, &[*s], selection, buf) {
                    None => Some(kernels::min_max(col.values).0),
                    Some(active) => (bitmap_count_ones(active) > 0)
                        .then(|| kernels::min_max_selected(col.values, active).0),
                };
                if let Some(lo) = lo {
                    if best.as_ref().and_then(Value::as_f64).is_none_or(|b| lo < b) {
                        *best = Some(Value::Float(lo));
                    }
                }
            }
            (AggAccum::Max { best }, BlockCall::Extremum(s)) => {
                let col = block.column(*s);
                let hi = match build_active(block, &[*s], selection, buf) {
                    None => Some(kernels::min_max(col.values).1),
                    Some(active) => (bitmap_count_ones(active) > 0)
                        .then(|| kernels::min_max_selected(col.values, active).1),
                };
                if let Some(hi) = hi {
                    if best.as_ref().and_then(Value::as_f64).is_none_or(|b| hi > b) {
                        *best = Some(Value::Float(hi));
                    }
                }
            }
            (AggAccum::Stat { n, sa, saa, .. }, BlockCall::Stat { a, b: None }) => {
                let col = block.column(*a);
                match build_active(block, &[*a], selection, buf) {
                    None => {
                        *n += block.len() as f64;
                        *sa += kernels::sum(col.values);
                        *saa += kernels::sum_sq(col.values);
                    }
                    Some(active) => {
                        *n += bitmap_count_ones(active) as f64;
                        *sa += kernels::sum_selected(col.values, active);
                        *saa += kernels::dot_selected(col.values, col.values, active);
                    }
                }
            }
            (
                AggAccum::Stat {
                    n,
                    sa,
                    sb,
                    saa,
                    sbb,
                    sab,
                    ..
                },
                BlockCall::Stat { a, b: Some(b) },
            ) => {
                let (ca, cb) = (block.column(*a), block.column(*b));
                match build_active(block, &[*a, *b], selection, buf) {
                    None => {
                        *n += block.len() as f64;
                        *sa += kernels::sum(ca.values);
                        *sb += kernels::sum(cb.values);
                        *saa += kernels::sum_sq(ca.values);
                        *sbb += kernels::sum_sq(cb.values);
                        *sab += kernels::dot(ca.values, cb.values);
                    }
                    // A NULL in either argument skips the row for every
                    // running sum, per SQL.
                    Some(active) => {
                        *n += bitmap_count_ones(active) as f64;
                        *sa += kernels::sum_selected(ca.values, active);
                        *sb += kernels::sum_selected(cb.values, active);
                        *saa += kernels::dot_selected(ca.values, ca.values, active);
                        *sbb += kernels::dot_selected(cb.values, cb.values, active);
                        *sab += kernels::dot_selected(ca.values, cb.values, active);
                    }
                }
            }
            (AggAccum::Udf { state }, BlockCall::Udf(args)) => {
                state.accumulate_batch(block, args, selection)?;
            }
            _ => {
                return Err(EngineError::Unsupported(
                    "aggregate accumulator does not match its block plan".into(),
                ))
            }
        }
        Ok(())
    }

    fn update(&mut self, args: &[Value]) -> Result<()> {
        match self {
            AggAccum::Sum { acc, any, int_only } => {
                let v = args.first().unwrap_or(&Value::Null);
                if let Some(x) = v.as_f64() {
                    *acc += x;
                    *any = true;
                    if !matches!(v, Value::Int(_)) {
                        *int_only = false;
                    }
                }
            }
            AggAccum::Count { n } => {
                if !args.first().unwrap_or(&Value::Null).is_null() {
                    *n += 1;
                }
            }
            AggAccum::CountStar { n } => *n += 1,
            AggAccum::Avg { sum, n } => {
                if let Some(x) = args.first().and_then(Value::as_f64) {
                    *sum += x;
                    *n += 1;
                }
            }
            AggAccum::Min { best } => {
                let v = args.first().unwrap_or(&Value::Null);
                if !v.is_null() {
                    let replace = match best {
                        None => true,
                        Some(b) => v.sql_cmp(b) == Some(std::cmp::Ordering::Less),
                    };
                    if replace {
                        *best = Some(v.clone());
                    }
                }
            }
            AggAccum::Max { best } => {
                let v = args.first().unwrap_or(&Value::Null);
                if !v.is_null() {
                    let replace = match best {
                        None => true,
                        Some(b) => v.sql_cmp(b) == Some(std::cmp::Ordering::Greater),
                    };
                    if replace {
                        *best = Some(v.clone());
                    }
                }
            }
            AggAccum::Stat {
                kind,
                n,
                sa,
                sb,
                saa,
                sbb,
                sab,
            } => {
                // Skip the row if any argument is NULL, per SQL.
                let a = args.first().and_then(Value::as_f64);
                if kind.arity() == 1 {
                    if let Some(a) = a {
                        *n += 1.0;
                        *sa += a;
                        *saa += a * a;
                    }
                } else if let (Some(a), Some(b)) = (a, args.get(1).and_then(Value::as_f64)) {
                    *n += 1.0;
                    *sa += a;
                    *sb += b;
                    *saa += a * a;
                    *sbb += b * b;
                    *sab += a * b;
                }
            }
            AggAccum::Udf { state } => state.accumulate(args)?,
        }
        Ok(())
    }

    fn merge(&mut self, other: AggAccum) -> Result<()> {
        match (self, other) {
            (
                AggAccum::Sum { acc, any, int_only },
                AggAccum::Sum {
                    acc: a2,
                    any: n2,
                    int_only: i2,
                },
            ) => {
                *acc += a2;
                *any |= n2;
                *int_only &= i2;
            }
            (AggAccum::Count { n }, AggAccum::Count { n: n2 }) => *n += n2,
            (AggAccum::CountStar { n }, AggAccum::CountStar { n: n2 }) => *n += n2,
            (AggAccum::Avg { sum, n }, AggAccum::Avg { sum: s2, n: n2 }) => {
                *sum += s2;
                *n += n2;
            }
            (AggAccum::Min { best }, AggAccum::Min { best: b2 }) => {
                if let Some(v) = b2 {
                    let replace = match &best {
                        None => true,
                        Some(b) => v.sql_cmp(b) == Some(std::cmp::Ordering::Less),
                    };
                    if replace {
                        *best = Some(v);
                    }
                }
            }
            (AggAccum::Max { best }, AggAccum::Max { best: b2 }) => {
                if let Some(v) = b2 {
                    let replace = match &best {
                        None => true,
                        Some(b) => v.sql_cmp(b) == Some(std::cmp::Ordering::Greater),
                    };
                    if replace {
                        *best = Some(v);
                    }
                }
            }
            (
                AggAccum::Stat {
                    n,
                    sa,
                    sb,
                    saa,
                    sbb,
                    sab,
                    ..
                },
                AggAccum::Stat {
                    n: n2,
                    sa: a2,
                    sb: b2,
                    saa: aa2,
                    sbb: bb2,
                    sab: ab2,
                    ..
                },
            ) => {
                *n += n2;
                *sa += a2;
                *sb += b2;
                *saa += aa2;
                *sbb += bb2;
                *sab += ab2;
            }
            (AggAccum::Udf { state }, AggAccum::Udf { state: other }) => {
                state.merge(other.as_ref())?;
            }
            _ => {
                return Err(EngineError::Unsupported(
                    "mismatched aggregate accumulators in merge".into(),
                ))
            }
        }
        Ok(())
    }

    fn finalize(self) -> Result<Value> {
        Ok(match self {
            AggAccum::Sum { acc, any, int_only } => {
                if !any {
                    Value::Null
                } else if int_only {
                    Value::Int(acc as i64)
                } else {
                    Value::Float(acc)
                }
            }
            AggAccum::Count { n } | AggAccum::CountStar { n } => Value::Int(n),
            AggAccum::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            AggAccum::Min { best } | AggAccum::Max { best } => best.unwrap_or(Value::Null),
            AggAccum::Stat {
                kind,
                n,
                sa,
                sb,
                saa,
                sbb,
                sab,
            } => {
                let out = match kind {
                    StatAgg::VarPop if n >= 1.0 => Some(saa / n - (sa / n) * (sa / n)),
                    StatAgg::VarSamp if n >= 2.0 => Some((saa - sa * sa / n) / (n - 1.0)),
                    StatAgg::StdDev if n >= 2.0 => {
                        Some(((saa - sa * sa / n) / (n - 1.0)).max(0.0).sqrt())
                    }
                    StatAgg::CovarPop if n >= 1.0 => Some(sab / n - sa * sb / (n * n)),
                    StatAgg::Corr if n >= 2.0 => {
                        // The paper's rho_ab, specialized to d = 2.
                        let da = n * saa - sa * sa;
                        let db = n * sbb - sb * sb;
                        (da > 0.0 && db > 0.0)
                            .then(|| (n * sab - sa * sb) / (da.sqrt() * db.sqrt()))
                    }
                    StatAgg::RegrSlope if n >= 2.0 => {
                        // First argument is the dependent variable y.
                        let dx = n * sbb - sb * sb;
                        (dx > 0.0).then(|| (n * sab - sa * sb) / dx)
                    }
                    StatAgg::RegrIntercept if n >= 2.0 => {
                        let dx = n * sbb - sb * sb;
                        (dx > 0.0).then(|| (sa - (n * sab - sa * sb) / dx * sb) / n)
                    }
                    _ => None,
                };
                out.map_or(Value::Null, Value::Float)
            }
            AggAccum::Udf { state } => state.finalize()?,
        })
    }
}
