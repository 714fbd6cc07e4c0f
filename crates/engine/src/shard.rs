//! One shard: a volatile executor over its own catalog slice and Γ
//! summaries.
//!
//! [`Db`](crate::Db) owns S ≥ 1 shards and routes every statement to
//! them; a shard has no write-ahead log, no plan cache and no public
//! surface. Statements that need rows from more than one shard
//! (`CREATE TABLE AS`, `INSERT … SELECT`, `EXPLAIN ANALYZE`) are
//! assembled by the router, so a shard never sees them.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use nlq_models::{MatrixShape, Nlq};
use nlq_obs::Trace;
use nlq_storage::{Column, DiskTable, Row, Schema, Table, Value};
use nlq_summary::{SummaryData, SummaryDef, SummaryStore};
use nlq_udf::UdfRegistry;

use crate::ast::Statement;
use crate::catalog::{Catalog, CatalogEntry};
use crate::db::{ResultSet, ShardMetricsSnapshot, SummaryRefreshState};
use crate::exec::{check_cancelled, ExecContext};
use crate::expr::{Binder, BoundSchema};
use crate::sys::SystemTableProvider;
use crate::{EngineError, Result};

/// What every shard shares for one statement: the UDF registry
/// snapshot, the `sys.*` provider, the block-scan choice and the
/// cancel token.
#[derive(Clone)]
pub(crate) struct Env {
    pub registry: Arc<UdfRegistry>,
    pub system: Option<Arc<dyn SystemTableProvider>>,
    pub block_scan: bool,
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Env {
    fn cancel_flag(&self) -> Option<&AtomicBool> {
        self.cancel.as_deref()
    }
}

/// A shard's tables, views and summaries, scanned by `workers`
/// parallel threads, and its activity counters. DML serializes on one
/// lock: table replacement is copy-on-write, and without the lock two
/// concurrent INSERTs into one table could both clone the same
/// generation and lose one batch.
pub(crate) struct Shard {
    catalog: Catalog,
    summaries: SummaryStore,
    workers: usize,
    dml_lock: Mutex<()>,
    queries: AtomicU64,
    rows_scanned: AtomicU64,
    busy_nanos: AtomicU64,
}

impl Shard {
    pub fn new(workers: usize) -> Shard {
        Shard {
            catalog: Catalog::new(),
            summaries: SummaryStore::new(),
            workers: workers.max(1),
            dml_lock: Mutex::new(()),
            queries: AtomicU64::new(0),
            rows_scanned: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
        }
    }

    /// Counts one finished piece of a statement against this shard.
    pub fn count(&self, rows: u64, nanos: u64) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.rows_scanned.fetch_add(rows, Ordering::Relaxed);
        self.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    pub fn metrics(&self, shard: usize) -> ShardMetricsSnapshot {
        ShardMetricsSnapshot {
            shard,
            queries: self.queries.load(Ordering::Relaxed),
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            busy_nanos: self.busy_nanos.load(Ordering::Relaxed),
        }
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    pub fn summaries(&self) -> &SummaryStore {
        &self.summaries
    }

    pub fn ctx(&self, env: &Env) -> ExecContext<'_> {
        ExecContext {
            catalog: &self.catalog,
            registry: Arc::clone(&env.registry),
            summaries: &self.summaries,
            workers: self.workers,
            block_scan: env.block_scan,
            cancel: env.cancel.clone(),
            system: env.system.clone(),
        }
    }

    /// Scores `keys` against `model` through this shard's PK index.
    pub fn batch_score(
        &self,
        env: &Env,
        table: &str,
        model: &str,
        keys: &[i64],
        explain: bool,
        trace: Option<&Trace>,
    ) -> Result<ResultSet> {
        crate::serve::batch_score(&self.ctx(env), table, model, keys, explain, trace)
    }

    /// Executes one statement against this shard alone.
    pub fn execute(&self, stmt: &Statement, env: &Env) -> Result<ResultSet> {
        match stmt {
            Statement::Select(stmt) => self.ctx(env).execute_select(stmt),
            Statement::Explain(stmt) => {
                let lines = self.ctx(env).explain_select(stmt)?;
                Ok(ResultSet::new(
                    vec!["plan".into()],
                    lines.into_iter().map(|l| vec![Value::Str(l)]).collect(),
                ))
            }
            Statement::CreateTable { name, columns } => {
                let schema = Schema::new(
                    columns
                        .iter()
                        .map(|c| Column::new(c.name.clone(), c.ty))
                        .collect(),
                );
                self.register(name, Table::new(schema, self.workers))?;
                Ok(ResultSet::empty())
            }
            Statement::CreateView { name, query } => {
                self.catalog
                    .insert(name, CatalogEntry::View(Arc::new(query.clone())))?;
                Ok(ResultSet::empty())
            }
            Statement::Insert { table, rows } => {
                let empty_schema = BoundSchema::new();
                let mut values = Vec::with_capacity(rows.len());
                for row in rows {
                    let mut out = Vec::with_capacity(row.len());
                    for expr in row {
                        let bound = Binder::scalar(&empty_schema, &env.registry).bind(expr)?;
                        out.push(bound.eval(&[], &[], &[])?);
                    }
                    values.push(out);
                }
                self.append_rows(table, &values)?;
                Ok(ResultSet::empty())
            }
            Statement::Drop { name } => {
                self.catalog.remove(name)?;
                // Summaries die with their base table.
                self.summaries.drop_for_table(name);
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
                Ok(ResultSet::empty())
            }
            Statement::DropSummary { name } => {
                self.summaries.remove(name)?;
                Ok(ResultSet::empty())
            }
            Statement::Delete { table, predicate } => {
                let _dml = self.dml_lock.lock().expect("dml lock");
                let t = self.base_table(table)?;
                let mut schema = BoundSchema::new();
                schema.push_table(Some(table), t.schema());
                let pred = predicate
                    .as_ref()
                    .map(|p| Binder::scalar(&schema, &env.registry).bind(p))
                    .transpose()?;
                let mut kept = Vec::new();
                let mut deleted = Vec::new();
                for (scanned, row) in t.scan_all().enumerate() {
                    check_cancelled(env.cancel_flag(), scanned as u64)?;
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
                self.catalog.replace_table(table, Arc::new(replacement));
                // Γ is additive, so DELETE is a *subtraction*: summaries
                // that track no min/max absorb the deleted batch exactly
                // (min/max are not invertible from sums — those
                // summaries degrade to stale and rebuild lazily).
                self.summaries
                    .fold_deleted_rows(table, t.schema(), &deleted);
                Ok(ResultSet::empty())
            }
            Statement::Update {
                table,
                sets,
                predicate,
            } => {
                let _dml = self.dml_lock.lock().expect("dml lock");
                let t = self.base_table(table)?;
                let mut schema = BoundSchema::new();
                schema.push_table(Some(table), t.schema());
                let pred = predicate
                    .as_ref()
                    .map(|p| Binder::scalar(&schema, &env.registry).bind(p))
                    .transpose()?;
                let bound_sets: Vec<(usize, _)> = sets
                    .iter()
                    .map(|(col, e)| {
                        let idx = t
                            .schema()
                            .index_of(col)
                            .ok_or_else(|| EngineError::UnknownColumn(col.clone()))?;
                        Ok((idx, Binder::scalar(&schema, &env.registry).bind(e)?))
                    })
                    .collect::<Result<_>>()?;
                let mut replacement = Table::new(t.schema().clone(), t.partition_count());
                for (scanned, row) in t.scan_all().enumerate() {
                    check_cancelled(env.cancel_flag(), scanned as u64)?;
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
                    replacement.insert(row)?;
                }
                self.catalog.replace_table(table, Arc::new(replacement));
                // The assignments may have touched arbitrary rows and
                // columns: every summary on the table degrades to stale
                // and rebuilds on its next read.
                self.summaries.mark_stale_for_table(table);
                Ok(ResultSet::empty())
            }
            Statement::CreateTableAs { .. }
            | Statement::InsertSelect { .. }
            | Statement::ExplainAnalyze(_) => {
                unreachable!("the router assembles statements that read across shards")
            }
        }
    }

    /// Resolves a name to a base table, rejecting views (DML and
    /// summary DDL need real storage).
    pub fn base_table(&self, name: &str) -> Result<Arc<Table>> {
        match self.catalog.get(name) {
            Some(CatalogEntry::Table(t)) => Ok(t),
            Some(CatalogEntry::View(_)) => Err(EngineError::Unsupported(format!(
                "'{name}' is a view; a base table is required"
            ))),
            None => Err(EngineError::UnknownTable(name.to_owned())),
        }
    }

    /// The names of every base table (views have no storage).
    pub fn table_names(&self) -> Vec<String> {
        self.catalog
            .entries()
            .into_iter()
            .filter(|(_, e)| matches!(e, CatalogEntry::Table(_)))
            .map(|(name, _)| name)
            .collect()
    }

    /// Appends pre-evaluated rows under the DML lock. Copy-on-write:
    /// clone the table (sharing its sealed chunks and index layers),
    /// append, swap back in; fresh summaries on the table fold the
    /// batch incrementally (Γ additivity — no rescan).
    pub fn append_rows(&self, name: &str, rows: &[Row]) -> Result<()> {
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

    pub fn register(&self, name: &str, table: Table) -> Result<()> {
        self.catalog
            .insert(name, CatalogEntry::Table(Arc::new(table)))
    }

    /// Registers or replaces a table. Any summaries on the name degrade
    /// to stale: the new contents are arbitrary.
    pub fn replace(&self, name: &str, table: Table) {
        self.catalog
            .insert_or_replace(name, CatalogEntry::Table(Arc::new(table)));
        self.summaries.mark_stale_for_table(name);
    }

    /// Drops a table or view if it exists, with its summaries.
    pub fn drop_if_exists(&self, name: &str) {
        if self.catalog.remove(name).is_ok() {
            self.summaries.drop_for_table(name);
        }
    }

    /// Loads a table file written by [`Table::save`] under `name`.
    pub fn load_table(&self, name: &str, path: &std::path::Path) -> Result<()> {
        self.replace(name, DiskTable::open(path)?.to_table()?);
        Ok(())
    }

    /// The `CREATE SUMMARY` statements that recreate every live summary
    /// definition (checkpoint manifests carry these; replaying one
    /// re-folds the summary from its base table).
    pub fn summary_ddl(&self) -> Vec<String> {
        self.summaries
            .entries()
            .iter()
            .map(|e| summary_create_ddl(e.def()))
            .collect()
    }

    pub fn summary_refresh_states(&self) -> Vec<SummaryRefreshState> {
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

    /// This shard's maintained global Γ state of one summary, rebuilt
    /// first if stale.
    pub fn summary_gamma(&self, name: &str) -> Result<Nlq> {
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
}

/// Regenerates the `CREATE SUMMARY` statement for a live definition.
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
