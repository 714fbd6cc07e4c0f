#![warn(missing_docs)]

//! Materialized Γ summary store: catalog-registered `(n, L, Q)`
//! sufficient statistics that always equal a scan of their table.
//!
//! The paper's central observation is that correlation, linear
//! regression, PCA, and clustering all reduce to the additive
//! statistics `n, L, Q` (Γ). A [`SummaryStore`] keeps one materialized
//! [`Nlq`] state per registered summary (optionally keyed by one
//! GROUP BY column). The engine computes every state under its DML
//! lock from the table generation it publishes the state with:
//!
//! * `CREATE SUMMARY` builds the initial state with the block scan,
//!   one partial aggregate-UDF state per partition merged through the
//!   UDF **partial-merge phase** (§3.4 step 3);
//! * `INSERT` and streamed ingest fold the new rows in — O(batch)
//!   work, no rescan, because Γ is additive: a global summary computes
//!   the batch's Γ on the UDF's block path and merges it, a grouped
//!   one updates each row's group;
//! * `DELETE` and `UPDATE` rewrite the table, and every summary on it
//!   is built again from the rewritten table
//!   ([`SummaryStore::build_for_table`]) before either is published;
//! * `DROP TABLE` drops the table's summaries.
//!
//! Readers (the engine's planner rewrite) answer eligible statistical
//! queries from a summary in O(d²) with no scan at all.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use nlq_linalg::{Matrix, Vector};
use nlq_models::{MatrixShape, Nlq};
use nlq_storage::{DataType, Row, Schema, Table, Value};
use nlq_udf::pack::unpack_nlq;
use nlq_udf::{nlq_of_columns, AggregateUdf, BatchArg, NlqUdf, ParamStyle, MAX_D};

/// Errors raised by the summary store.
#[derive(Debug)]
pub enum SummaryError {
    /// A summary with this name already exists.
    DuplicateSummary(String),
    /// No summary with this name exists.
    UnknownSummary(String),
    /// A summarized column does not exist in the table.
    UnknownColumn {
        /// The missing column.
        column: String,
        /// The table it was looked up in.
        table: String,
    },
    /// A summarized column is not a float column.
    NotFloat {
        /// The offending column.
        column: String,
    },
    /// A summary needs at least one column.
    NoColumns,
    /// A global summary folds on the `nlq` UDF's path, which takes at
    /// most [`MAX_D`] columns.
    TooManyColumns(usize),
    /// Error from the storage layer while scanning.
    Storage(nlq_storage::StorageError),
    /// Error from the UDF machinery while building a state.
    Udf(nlq_udf::UdfError),
    /// Error from the model layer while assembling statistics.
    Model(nlq_models::ModelError),
    /// A build was cooperatively cancelled mid-scan; nothing was
    /// installed.
    Cancelled {
        /// Rows scanned before the cancellation took effect.
        rows_scanned: u64,
    },
}

impl fmt::Display for SummaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SummaryError::DuplicateSummary(n) => write!(f, "summary '{n}' already exists"),
            SummaryError::UnknownSummary(n) => write!(f, "unknown summary '{n}'"),
            SummaryError::UnknownColumn { column, table } => {
                write!(f, "unknown column '{column}' in table '{table}'")
            }
            SummaryError::NotFloat { column } => {
                write!(f, "summary column '{column}' must be a float column")
            }
            SummaryError::NoColumns => write!(f, "a summary needs at least one column"),
            SummaryError::TooManyColumns(d) => write!(
                f,
                "a summary without GROUP BY takes at most {MAX_D} columns, not {d}"
            ),
            SummaryError::Storage(e) => write!(f, "storage error: {e}"),
            SummaryError::Udf(e) => write!(f, "udf error: {e}"),
            SummaryError::Model(e) => write!(f, "model error: {e}"),
            SummaryError::Cancelled { rows_scanned } => {
                write!(f, "summary build cancelled after {rows_scanned} rows")
            }
        }
    }
}

impl std::error::Error for SummaryError {}

impl From<nlq_storage::StorageError> for SummaryError {
    fn from(e: nlq_storage::StorageError) -> Self {
        SummaryError::Storage(e)
    }
}

impl From<nlq_udf::UdfError> for SummaryError {
    fn from(e: nlq_udf::UdfError) -> Self {
        SummaryError::Udf(e)
    }
}

impl From<nlq_models::ModelError> for SummaryError {
    fn from(e: nlq_models::ModelError) -> Self {
        SummaryError::Model(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, SummaryError>;

/// Returns [`SummaryError::Cancelled`] when a build's cancel token
/// has flipped; a relaxed atomic load keeps the per-row/per-block
/// check effectively free.
fn check_cancelled(cancel: Option<&AtomicBool>, rows_scanned: u64) -> Result<()> {
    if let Some(c) = cancel {
        if c.load(Ordering::Relaxed) {
            return Err(SummaryError::Cancelled { rows_scanned });
        }
    }
    Ok(())
}

/// The definition of one registered summary (the DDL part of
/// `CREATE SUMMARY s ON t (X1, ..., Xd) [SHAPE ...] [GROUP BY g]`).
#[derive(Debug, Clone)]
pub struct SummaryDef {
    /// Summary name (stored lowercase; matching is case-insensitive).
    pub name: String,
    /// Base table name (lowercase).
    pub table: String,
    /// Summarized float columns, in declaration order.
    pub columns: Vec<String>,
    /// Shape of the maintained `Q` matrix.
    pub shape: MatrixShape,
    /// Whether the summary answers per-dimension min/max queries
    /// (`false` for `NO MINMAX` summaries, which store no bounds and
    /// answer no min/max). It buys nothing else: DELETE and UPDATE
    /// build every summary again from the rewritten table. The field
    /// stays because the repository benchmark constructs definitions
    /// with it.
    pub minmax: bool,
    /// Optional single GROUP BY key column.
    pub group_by: Option<String>,
}

impl SummaryDef {
    /// Dimensionality of the summarized statistics.
    pub fn d(&self) -> usize {
        self.columns.len()
    }

    /// Position of `column` among the summarized columns
    /// (case-insensitive), if present.
    pub fn dim_of(&self, column: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(column))
    }

    /// Resolves the summarized columns (and the group key, if any)
    /// against a table schema, validating existence, float type and,
    /// for a global summary, the UDF's column limit.
    fn resolve(&self, schema: &Schema) -> Result<(Vec<usize>, Option<usize>)> {
        if self.columns.is_empty() {
            return Err(SummaryError::NoColumns);
        }
        if self.group_by.is_none() && self.columns.len() > MAX_D {
            return Err(SummaryError::TooManyColumns(self.columns.len()));
        }
        let mut cols = Vec::with_capacity(self.columns.len());
        for c in &self.columns {
            let idx = schema
                .index_of(c)
                .ok_or_else(|| SummaryError::UnknownColumn {
                    column: c.clone(),
                    table: self.table.clone(),
                })?;
            if schema.column(idx).ty != DataType::Float {
                return Err(SummaryError::NotFloat { column: c.clone() });
            }
            cols.push(idx);
        }
        let group = match &self.group_by {
            None => None,
            Some(g) => Some(
                schema
                    .index_of(g)
                    .ok_or_else(|| SummaryError::UnknownColumn {
                        column: g.clone(),
                        table: self.table.clone(),
                    })?,
            ),
        };
        Ok((cols, group))
    }
}

/// The materialized statistics of one summary.
#[derive(Debug, Clone)]
pub enum SummaryData {
    /// One global Γ state (no GROUP BY).
    Global(Nlq),
    /// One Γ state per group-key value. Keys follow SQL grouping
    /// semantics (NULLs form one group); the list is small in practice
    /// so lookup is a linear scan with [`Value::group_eq`].
    Grouped(Vec<(Value, Nlq)>),
}

/// A point-in-time copy of a summary's maintained state, safe to use
/// outside the store's locks.
#[derive(Debug, Clone)]
pub struct SummarySnapshot {
    /// The summary definition.
    pub def: SummaryDef,
    /// The materialized statistics.
    pub data: SummaryData,
    /// Rows the builder dropped because a summarized coordinate was
    /// NULL (the `nlq` UDF's row-skip rule). Non-zero means the
    /// summary's `n`/`L`/`Q` cover a strict subset of the table's
    /// rows, which restricts which plain aggregates it may answer.
    pub null_rows_skipped: u64,
}

/// Mutable maintained state behind each entry's lock.
#[derive(Debug)]
struct SummaryContent {
    data: SummaryData,
    null_rows_skipped: u64,
}

/// One registered summary: immutable definition plus lock-protected
/// maintained state.
#[derive(Debug)]
pub struct SummaryEntry {
    def: SummaryDef,
    /// Positions of the summarized columns, resolved once at create
    /// (a table's schema never changes while its summaries live).
    cols: Vec<usize>,
    /// Position of the GROUP BY key, if any.
    group: Option<usize>,
    content: RwLock<SummaryContent>,
    /// Generation of the state: 1 at create, bumped each time DELETE
    /// or UPDATE builds it again from the rewritten table. Folds move
    /// [`SummaryEntry::rows_folded`] instead, so a refresh daemon can
    /// tell a structural change from a small delta.
    version: AtomicU64,
    /// Cumulative rows folded in since creation — the delta-volume
    /// signal behind threshold-triggered refreshes.
    rows_folded: AtomicU64,
}

impl SummaryEntry {
    /// The summary definition.
    pub fn def(&self) -> &SummaryDef {
        &self.def
    }

    /// Generation of the state (see the field docs).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Cumulative rows folded in since creation.
    pub fn rows_folded(&self) -> u64 {
        self.rows_folded.load(Ordering::Acquire)
    }

    /// Copies the maintained state out of the lock.
    pub fn snapshot(&self) -> SummarySnapshot {
        let c = self.content.read().expect("summary lock");
        SummarySnapshot {
            def: self.def.clone(),
            data: c.data.clone(),
            null_rows_skipped: c.null_rows_skipped,
        }
    }

    /// Builds the state from `table` with the block scan.
    fn build(&self, table: &Table, cancel: Option<&AtomicBool>) -> Result<SummaryContent> {
        build_content(&self.def, &self.cols, self.group, table, cancel)
    }

    /// Folds a batch of freshly inserted rows into the maintained
    /// state: builds a delta state with the `nlq` UDF machinery and
    /// merges it in.
    fn fold_rows(&self, rows: &[Row]) {
        let mut c = self.content.write().expect("summary lock");
        fold_delta(self, rows, &mut c);
        self.rows_folded
            .fetch_add(rows.len() as u64, Ordering::AcqRel);
    }
}

/// The states of every summary on one table, built from one generation
/// of it by [`SummaryStore::build_for_table`] and not yet installed.
#[derive(Debug)]
#[must_use = "the states take effect only once installed"]
pub struct BuiltStates(Vec<(Arc<SummaryEntry>, SummaryContent)>);

impl BuiltStates {
    /// Installs every state, bumping each summary's version.
    pub fn install(self) {
        for (entry, content) in self.0 {
            *entry.content.write().expect("summary lock") = content;
            entry.version.fetch_add(1, Ordering::AcqRel);
        }
    }
}

/// The catalog of registered summaries, keyed by lowercase name.
///
/// Interior mutability mirrors the engine's table catalog: one store
/// serves every session, and the engine's DML lock orders its writers.
#[derive(Debug, Default)]
pub struct SummaryStore {
    map: RwLock<HashMap<String, Arc<SummaryEntry>>>,
}

impl SummaryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        SummaryStore::default()
    }

    /// Registers a summary and computes its initial state from the
    /// table via the block scan + UDF merge phase. The caller holds
    /// whatever orders it with writes to `table` (the engine's DML
    /// lock), so no row lands between the build and the registration.
    pub fn create(&self, def: SummaryDef, table: &Table) -> Result<()> {
        let key = def.name.to_ascii_lowercase();
        let (cols, group) = def.resolve(table.schema())?;
        // Build before taking the write lock; the build is the
        // expensive part.
        let content = build_content(&def, &cols, group, table, None)?;
        let mut map = self.map.write().expect("summary store lock");
        if map.contains_key(&key) {
            return Err(SummaryError::DuplicateSummary(def.name));
        }
        map.insert(
            key,
            Arc::new(SummaryEntry {
                def,
                cols,
                group,
                content: RwLock::new(content),
                version: AtomicU64::new(1),
                rows_folded: AtomicU64::new(0),
            }),
        );
        Ok(())
    }

    /// Builds every summary on `table` from `t`, the table's next
    /// generation (the DELETE / UPDATE hook), checking `cancel` per
    /// block or row. Nothing is installed until
    /// [`BuiltStates::install`], so a failed or cancelled build leaves
    /// every summary as it was.
    pub fn build_for_table(
        &self,
        table: &str,
        t: &Table,
        cancel: Option<&AtomicBool>,
    ) -> Result<BuiltStates> {
        self.for_table(table)
            .into_iter()
            .map(|e| {
                let content = e.build(t, cancel)?;
                Ok((e, content))
            })
            .collect::<Result<_>>()
            .map(BuiltStates)
    }

    /// Looks a summary up by name (case-insensitive).
    pub fn get(&self, name: &str) -> Option<Arc<SummaryEntry>> {
        self.map
            .read()
            .expect("summary store lock")
            .get(&name.to_ascii_lowercase())
            .cloned()
    }

    /// Removes a summary by name.
    pub fn remove(&self, name: &str) -> Result<()> {
        self.map
            .write()
            .expect("summary store lock")
            .remove(&name.to_ascii_lowercase())
            .map(|_| ())
            .ok_or_else(|| SummaryError::UnknownSummary(name.to_owned()))
    }

    /// All summaries registered on `table`, in name order (name order
    /// keeps planner choices deterministic).
    pub fn for_table(&self, table: &str) -> Vec<Arc<SummaryEntry>> {
        let table = table.to_ascii_lowercase();
        let map = self.map.read().expect("summary store lock");
        let mut v: Vec<_> = map
            .values()
            .filter(|e| e.def.table == table)
            .cloned()
            .collect();
        v.sort_by(|a, b| a.def.name.cmp(&b.def.name));
        v
    }

    /// Whether any summary is registered on `table`.
    pub fn has_any_for_table(&self, table: &str) -> bool {
        let table = table.to_ascii_lowercase();
        self.map
            .read()
            .expect("summary store lock")
            .values()
            .any(|e| e.def.table == table)
    }

    /// Drops every summary on `table` (DROP TABLE hook).
    pub fn drop_for_table(&self, table: &str) {
        let table = table.to_ascii_lowercase();
        self.map
            .write()
            .expect("summary store lock")
            .retain(|_, e| e.def.table != table);
    }

    /// Folds freshly inserted rows into every summary on `table` (the
    /// INSERT hook). Never fails: the columns were resolved and typed
    /// at create, and the table accepted the rows, so each value is a
    /// number or NULL. `_schema` is the table's schema, which the
    /// columns were already resolved against.
    pub fn fold_rows(&self, table: &str, _schema: &Schema, rows: &[Row]) {
        for e in self.for_table(table) {
            e.fold_rows(rows);
        }
    }

    /// Every registered summary entry, name-sorted (refresh daemons
    /// poll this to watch version/rows-folded counters move).
    pub fn entries(&self) -> Vec<Arc<SummaryEntry>> {
        let map = self.map.read().expect("summary store lock");
        let mut v: Vec<_> = map.values().cloned().collect();
        v.sort_by(|a, b| a.def.name.cmp(&b.def.name));
        v
    }

    /// `(name, table)` for every registered summary, name-sorted.
    pub fn list(&self) -> Vec<(String, String)> {
        let map = self.map.read().expect("summary store lock");
        let mut v: Vec<_> = map
            .values()
            .map(|e| (e.def.name.clone(), e.def.table.clone()))
            .collect();
        v.sort();
        v
    }

    /// Number of registered summaries.
    pub fn len(&self) -> usize {
        self.map.read().expect("summary store lock").len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Whether a summary maintaining `have` can answer a query asking for
/// `want`: full covers everything, triangular covers triangular and
/// diagonal, diagonal only itself.
pub fn shape_covers(have: MatrixShape, want: MatrixShape) -> bool {
    match have {
        MatrixShape::Full => true,
        MatrixShape::Triangular => want != MatrixShape::Full,
        MatrixShape::Diagonal => want == MatrixShape::Diagonal,
    }
}

/// Projects a maintained Γ state onto the query's dimensions `dims`
/// (indices into the summary's column list, in query order), re-packed
/// in the query's `shape`. Valid only under [`shape_covers`] and, when
/// `dims` is a strict subset, only if the summary skipped no NULL rows
/// (the caller checks both).
pub fn project_nlq(nlq: &Nlq, dims: &[usize], shape: MatrixShape) -> Result<Nlq> {
    let d = dims.len();
    let q_src = nlq.q_full();
    let mut l = Vector::zeros(d);
    let mut q = Matrix::zeros(d, d);
    let mut min = vec![0.0; d];
    let mut max = vec![0.0; d];
    for (a, &sa) in dims.iter().enumerate() {
        l[a] = nlq.l()[sa];
        min[a] = nlq.min()[sa];
        max[a] = nlq.max()[sa];
        for (b, &sb) in dims.iter().enumerate() {
            let keep = match shape {
                MatrixShape::Diagonal => a == b,
                MatrixShape::Triangular => b <= a,
                MatrixShape::Full => true,
            };
            if keep {
                q[(a, b)] = q_src[(sa, sb)];
            }
        }
    }
    Ok(Nlq::from_parts(shape, nlq.n(), l, q, min, max)?)
}

/// Builds a definition's state from `table` over its resolved columns.
/// The token is checked once up front, so even a build over an empty
/// table honours it.
fn build_content(
    def: &SummaryDef,
    cols: &[usize],
    group: Option<usize>,
    table: &Table,
    cancel: Option<&AtomicBool>,
) -> Result<SummaryContent> {
    check_cancelled(cancel, 0)?;
    let mut content = match group {
        None => build_global(def, table, cols, cancel)?,
        Some(g) => build_grouped(def, table, cols, g, cancel)?,
    };
    // A `NO MINMAX` summary stores no bounds: the −∞/+∞ sentinels the
    // pure-SQL path also uses.
    if !def.minmax {
        match &mut content.data {
            SummaryData::Global(nlq) => *nlq = strip_bounds(nlq)?,
            SummaryData::Grouped(groups) => {
                for (_, nlq) in groups {
                    *nlq = strip_bounds(nlq)?;
                }
            }
        }
    }
    Ok(content)
}

/// Replaces a state's min/max with the "not computed" sentinels.
fn strip_bounds(nlq: &Nlq) -> Result<Nlq> {
    let d = nlq.d();
    Ok(Nlq::from_parts(
        nlq.shape(),
        nlq.n(),
        nlq.l().clone(),
        nlq.q_raw().clone(),
        vec![f64::NEG_INFINITY; d],
        vec![f64::INFINITY; d],
    )?)
}

/// Ungrouped build: the existing vectorized block scan feeds one
/// partial `nlq_list` UDF state per partition; partials are combined
/// with the UDF merge phase and unpacked into the stored [`Nlq`].
fn build_global(
    def: &SummaryDef,
    table: &Table,
    cols: &[usize],
    cancel: Option<&AtomicBool>,
) -> Result<SummaryContent> {
    let d = cols.len();
    let udf = NlqUdf::new(ParamStyle::List);
    let mut args: Vec<BatchArg> = Vec::with_capacity(d + 2);
    args.push(BatchArg::Const(Value::Int(d as i64)));
    args.push(BatchArg::Const(Value::from(def.shape.name())));
    args.extend((0..d).map(BatchArg::Col));

    let mut master = udf.init();
    let mut skipped = 0u64;
    let mut scanned = 0u64;
    for p in 0..table.partition_count() {
        let mut state = udf.init();
        let mut blocks = table.scan_partition_blocks(p, cols)?;
        while let Some(block) = blocks.next_block() {
            check_cancelled(cancel, scanned)?;
            let block = block?;
            scanned += block.len() as u64;
            state.accumulate_batch(&block, &args, None)?;
            skipped += rows_with_null(&block, d);
        }
        master.merge(state.as_ref())?;
    }
    let nlq = match master.finalize()? {
        // NULL: no row survived; keep an explicit empty state.
        Value::Null => Nlq::new(d, def.shape),
        Value::Str(packed) => unpack_nlq(&packed)?,
        other => {
            return Err(SummaryError::Udf(nlq_udf::UdfError::InvalidArgument {
                udf: "nlq_list".into(),
                message: format!("unexpected finalize result {other:?}"),
            }))
        }
    };
    Ok(SummaryContent {
        data: SummaryData::Global(nlq),
        null_rows_skipped: skipped,
    })
}

/// Rows of `block` with at least one NULL among its first `d` columns
/// — exactly the rows the `nlq` UDF skips. Computed by AND-ing the
/// validity bitmaps and popcounting the result.
fn rows_with_null(block: &nlq_storage::ColumnBlock, d: usize) -> u64 {
    let n = block.len();
    let mut valid = vec![!0u64; nlq_storage::bitmap_words(n)];
    nlq_storage::bitmap_mask_tail(&mut valid, n);
    let mut any = false;
    for c in 0..d {
        if let Some(validity) = block.column(c).validity() {
            any = true;
            for (w, v) in valid.iter_mut().zip(validity) {
                *w &= v;
            }
        }
    }
    if !any {
        return 0;
    }
    (n - nlq_storage::bitmap_count_ones(&valid)) as u64
}

/// Grouped build: a row scan partitions the statistics by the group
/// key (SQL semantics: NULL keys form one group); rows with a NULL
/// coordinate are skipped but still establish their group, matching
/// `SELECT g, nlq_list(...) FROM t GROUP BY g`.
fn build_grouped(
    def: &SummaryDef,
    table: &Table,
    cols: &[usize],
    g: usize,
    cancel: Option<&AtomicBool>,
) -> Result<SummaryContent> {
    let d = cols.len();
    let mut groups: Vec<(Value, Nlq)> = Vec::new();
    let mut skipped = 0u64;
    let mut coords = vec![0.0f64; d];
    for (scanned, row) in table.scan_all().enumerate() {
        check_cancelled(cancel, scanned as u64)?;
        if fold_grouped_row(&mut groups, &row?, cols, g, def.shape, &mut coords) {
            skipped += 1;
        }
    }
    Ok(SummaryContent {
        data: SummaryData::Grouped(groups),
        null_rows_skipped: skipped,
    })
}

/// Finds (or creates) the group entry for `key`.
fn group_slot(groups: &mut Vec<(Value, Nlq)>, key: &Value, d: usize, shape: MatrixShape) -> usize {
    if let Some(i) = groups.iter().position(|(k, _)| k.group_eq(key)) {
        return i;
    }
    groups.push((key.clone(), Nlq::new(d, shape)));
    groups.len() - 1
}

/// Folds an INSERT batch into the content (additivity of n, L, Q).
/// A global summary transposes the batch into columns and folds them
/// on the `nlq_list` block path, then merges the batch's Γ in; a
/// grouped summary folds row by row into each group's Γ, as the
/// grouped build does.
fn fold_delta(entry: &SummaryEntry, rows: &[Row], content: &mut SummaryContent) {
    let (cols, shape) = (&entry.cols, entry.def.shape);
    let nlq = match (&mut content.data, entry.group) {
        (SummaryData::Global(nlq), _) => nlq,
        (SummaryData::Grouped(groups), Some(g)) => {
            let mut coords = vec![0.0f64; cols.len()];
            for row in rows {
                if fold_grouped_row(groups, row, cols, g, shape, &mut coords) {
                    content.null_rows_skipped += 1;
                }
            }
            return;
        }
        (SummaryData::Grouped(_), None) => {
            unreachable!("grouped data belongs to a GROUP BY summary")
        }
    };
    // Coordinate k of row i lands at values[k * m + i]; a row with a
    // NULL coordinate keeps a clear active bit and is skipped.
    let m = rows.len();
    let mut values = vec![0.0f64; cols.len() * m];
    let mut active = vec![0u64; nlq_storage::bitmap_words(m)];
    for (i, row) in rows.iter().enumerate() {
        let mut any_null = false;
        for (k, &c) in cols.iter().enumerate() {
            match row[c].as_f64() {
                Some(v) => values[k * m + i] = v,
                None => any_null = true,
            }
        }
        if any_null {
            content.null_rows_skipped += 1;
        } else {
            active[i / 64] |= 1 << (i % 64);
        }
    }
    let columns: Vec<&[f64]> = (0..cols.len())
        .map(|k| &values[k * m..(k + 1) * m])
        .collect();
    // `resolve` bounded a global summary's columns by the UDF's limit.
    if let Some(delta) = nlq_of_columns(shape, &columns, Some(&active)).expect("1..=MAX_D columns")
    {
        nlq.merge(&delta);
    }
}

/// Folds one row into its group's Γ, creating the group if needed
/// (SQL semantics: NULL keys form one group, and a row skipped for a
/// NULL coordinate still establishes its group). Returns whether the
/// row was skipped.
fn fold_grouped_row(
    groups: &mut Vec<(Value, Nlq)>,
    row: &Row,
    cols: &[usize],
    g: usize,
    shape: MatrixShape,
    coords: &mut [f64],
) -> bool {
    let slot = group_slot(groups, &row[g], cols.len(), shape);
    for (k, &c) in cols.iter().enumerate() {
        match row[c].as_f64() {
            Some(v) => coords[k] = v,
            None => return true,
        }
    }
    groups[slot].1.update(coords);
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str, cols: &[&str], shape: MatrixShape, group: Option<&str>) -> SummaryDef {
        SummaryDef {
            name: name.into(),
            table: "x".into(),
            columns: cols.iter().map(|c| (*c).to_owned()).collect(),
            shape,
            minmax: true,
            group_by: group.map(str::to_owned),
        }
    }

    fn points_table(rows: &[Vec<f64>], partitions: usize) -> Table {
        let d = rows[0].len();
        let mut t = Table::new(Schema::points(d, false), partitions);
        for (i, r) in rows.iter().enumerate() {
            let mut row = vec![Value::Int(i as i64 + 1)];
            row.extend(r.iter().map(|&v| Value::Float(v)));
            t.insert(row).unwrap();
        }
        t
    }

    #[test]
    fn create_matches_direct_scan() {
        let rows: Vec<Vec<f64>> = (0..97)
            .map(|i| vec![i as f64, (i * i) as f64 * 0.25])
            .collect();
        let t = points_table(&rows, 4);
        let store = SummaryStore::new();
        store
            .create(def("s", &["X1", "X2"], MatrixShape::Triangular, None), &t)
            .unwrap();
        let snap = store.get("S").expect("case-insensitive lookup").snapshot();
        let SummaryData::Global(nlq) = &snap.data else {
            panic!("expected global data");
        };
        let expect = Nlq::from_rows(2, MatrixShape::Triangular, &rows);
        assert_eq!(nlq.n(), expect.n());
        for a in 0..2 {
            assert!((nlq.l()[a] - expect.l()[a]).abs() <= 1e-9 * expect.l()[a].abs());
            for b in 0..=a {
                assert!(
                    (nlq.q_raw()[(a, b)] - expect.q_raw()[(a, b)]).abs()
                        <= 1e-9 * expect.q_raw()[(a, b)].abs()
                );
            }
        }
        assert_eq!(snap.null_rows_skipped, 0);
    }

    #[test]
    fn fold_equals_build() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, -0.5 * i as f64]).collect();
        let mut t = points_table(&rows, 3);
        let store = SummaryStore::new();
        store
            .create(def("s", &["X1", "X2"], MatrixShape::Full, None), &t)
            .unwrap();

        // Insert a batch through both the table and the fold hook.
        let batch: Vec<Row> = (50..70)
            .map(|i| {
                vec![
                    Value::Int(i + 1),
                    Value::Float(i as f64),
                    Value::Float(1.0 + i as f64),
                ]
            })
            .collect();
        for r in &batch {
            t.insert(r.clone()).unwrap();
        }
        store.fold_rows("x", t.schema(), &batch);

        let entry = store.get("s").unwrap();
        let folded = entry.snapshot();
        store.build_for_table("x", &t, None).unwrap().install();
        let built = entry.snapshot();
        let (SummaryData::Global(a), SummaryData::Global(b)) = (&folded.data, &built.data) else {
            panic!("expected global data");
        };
        assert_eq!(a.n(), b.n());
        for i in 0..2 {
            for j in 0..2 {
                let (x, y) = (a.q_raw()[(i, j)], b.q_raw()[(i, j)]);
                assert!((x - y).abs() <= 1e-12 * y.abs().max(1.0), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn null_rows_are_counted_and_skipped() {
        let mut t = Table::new(Schema::points(2, false), 2);
        t.insert(vec![Value::Int(1), Value::Float(1.0), Value::Float(2.0)])
            .unwrap();
        t.insert(vec![Value::Int(2), Value::Null, Value::Float(3.0)])
            .unwrap();
        t.insert(vec![Value::Int(3), Value::Float(5.0), Value::Null])
            .unwrap();
        let store = SummaryStore::new();
        store
            .create(def("s", &["X1", "X2"], MatrixShape::Triangular, None), &t)
            .unwrap();
        let snap = store.get("s").unwrap().snapshot();
        assert_eq!(snap.null_rows_skipped, 2);
        let SummaryData::Global(nlq) = &snap.data else {
            panic!()
        };
        assert_eq!(nlq.n(), 1.0);
    }

    #[test]
    fn folds_skip_and_count_null_rows_in_both_layouts() {
        let t = points_table(&[vec![1.0, 1.0], vec![2.0, 0.0]], 1);
        let store = SummaryStore::new();
        store
            .create(def("g", &["X1", "X2"], MatrixShape::Full, None), &t)
            .unwrap();
        // Group on X2: a summarized column can also be the key.
        store
            .create(def("k", &["X1"], MatrixShape::Full, Some("X2")), &t)
            .unwrap();
        let batch: Vec<Row> = vec![
            vec![Value::Int(3), Value::Float(3.0), Value::Null],
            vec![Value::Int(4), Value::Null, Value::Float(1.0)],
            vec![Value::Int(5), Value::Float(5.0), Value::Float(1.0)],
            vec![Value::Int(6), Value::Int(6), Value::Float(0.0)],
        ];
        store.fold_rows("x", t.schema(), &batch);
        let g = store.get("g").unwrap();
        assert_eq!(g.rows_folded(), 4);
        let snap = g.snapshot();
        assert_eq!(snap.null_rows_skipped, 2);
        let SummaryData::Global(nlq) = &snap.data else {
            panic!()
        };
        assert_eq!(nlq.n(), 4.0);
        assert_eq!(nlq.l().as_slice(), &[14.0, 2.0]);
        assert_eq!((nlq.min(), nlq.max()), (&[1.0, 0.0][..], &[6.0, 1.0][..]));
        assert_eq!(nlq.q_raw()[(0, 1)], 6.0);
        assert_eq!(nlq.q_raw()[(1, 0)], 6.0);

        let k = store.get("k").unwrap().snapshot();
        assert_eq!(k.null_rows_skipped, 1);
        let SummaryData::Grouped(groups) = &k.data else {
            panic!()
        };
        // Keys 1.0, 0.0, and the NULL key row 3 established.
        assert_eq!(groups.len(), 3);
        let n_of = |key: &Value| groups.iter().find(|(k, _)| k.group_eq(key)).unwrap().1.n();
        assert_eq!(n_of(&Value::Null), 1.0);
        assert_eq!(n_of(&Value::Float(1.0)), 2.0);
        assert_eq!(n_of(&Value::Float(0.0)), 2.0);
    }

    #[test]
    fn grouped_build_and_fold() {
        let mut t = Table::new(Schema::points(1, true), 1);
        // X(i, X1, Y): group on Y in {0, 1}.
        for i in 0..10i64 {
            t.insert(vec![
                Value::Int(i + 1),
                Value::Float(i as f64),
                Value::Float((i % 2) as f64),
            ])
            .unwrap();
        }
        let store = SummaryStore::new();
        store
            .create(def("g", &["X1"], MatrixShape::Diagonal, Some("Y")), &t)
            .unwrap();
        let snap = store.get("g").unwrap().snapshot();
        let SummaryData::Grouped(groups) = &snap.data else {
            panic!()
        };
        assert_eq!(groups.len(), 2);
        for (k, nlq) in groups {
            assert_eq!(nlq.n(), 5.0, "group {k:?}");
        }

        // Fold three rows into group 0 and one into a new group 2.
        let batch: Vec<Row> = vec![
            vec![Value::Int(11), Value::Float(100.0), Value::Float(0.0)],
            vec![Value::Int(12), Value::Float(101.0), Value::Float(0.0)],
            vec![Value::Int(13), Value::Float(102.0), Value::Float(0.0)],
            vec![Value::Int(14), Value::Float(7.0), Value::Float(2.0)],
        ];
        store.fold_rows("x", t.schema(), &batch);
        let snap = store.get("g").unwrap().snapshot();
        let SummaryData::Grouped(groups) = &snap.data else {
            panic!()
        };
        assert_eq!(groups.len(), 3);
        let g0 = groups
            .iter()
            .find(|(k, _)| k.group_eq(&Value::Float(0.0)))
            .unwrap();
        assert_eq!(g0.1.n(), 8.0);
    }

    #[test]
    fn built_states_install_together_and_only_when_installed() {
        let mut t = points_table(&[vec![1.0], vec![2.0]], 1);
        let store = SummaryStore::new();
        store
            .create(def("a", &["X1"], MatrixShape::Diagonal, None), &t)
            .unwrap();
        store
            .create(def("b", &["X1"], MatrixShape::Diagonal, Some("X1")), &t)
            .unwrap();
        let n_of = |name: &str| match store.get(name).unwrap().snapshot().data {
            SummaryData::Global(nlq) => nlq.n(),
            SummaryData::Grouped(groups) => groups.iter().map(|(_, g)| g.n()).sum(),
        };
        t.insert(vec![Value::Int(3), Value::Float(9.0)]).unwrap();

        // A cancelled build installs nothing.
        let flipped = AtomicBool::new(true);
        assert!(matches!(
            store.build_for_table("x", &t, Some(&flipped)),
            Err(SummaryError::Cancelled { rows_scanned: 0 })
        ));
        // A built but uninstalled state is not visible either.
        let built = store.build_for_table("x", &t, None).unwrap();
        assert_eq!((n_of("a"), n_of("b")), (2.0, 2.0));
        built.install();
        assert_eq!((n_of("a"), n_of("b")), (3.0, 3.0));
    }

    #[test]
    fn folds_move_rows_folded_and_installs_move_the_version() {
        let t = points_table(&[vec![1.0], vec![2.0]], 1);
        let store = SummaryStore::new();
        store
            .create(def("s", &["X1"], MatrixShape::Diagonal, None), &t)
            .unwrap();
        let entry = store.get("s").unwrap();
        assert_eq!((entry.version(), entry.rows_folded()), (1, 0));

        store.fold_rows("x", t.schema(), &[vec![Value::Int(3), Value::Float(9.0)]]);
        assert_eq!((entry.version(), entry.rows_folded()), (1, 1));

        store.build_for_table("x", &t, None).unwrap().install();
        assert_eq!((entry.version(), entry.rows_folded()), (2, 1));
        let SummaryData::Global(nlq) = entry.snapshot().data else {
            panic!()
        };
        assert_eq!(nlq.n(), 2.0);
    }

    #[test]
    fn validation_errors() {
        let t = points_table(&[vec![1.0]], 1);
        let store = SummaryStore::new();
        assert!(matches!(
            store.create(def("s", &["nope"], MatrixShape::Diagonal, None), &t),
            Err(SummaryError::UnknownColumn { .. })
        ));
        assert!(matches!(
            store.create(def("s", &["i"], MatrixShape::Diagonal, None), &t),
            Err(SummaryError::NotFloat { .. })
        ));
        assert!(matches!(
            store.create(def("s", &[], MatrixShape::Diagonal, None), &t),
            Err(SummaryError::NoColumns)
        ));
        // Even over an empty table, where no fold would run yet.
        let wide: Vec<&str> = vec!["X1"; MAX_D + 1];
        let empty = Table::new(Schema::points(1, false), 1);
        assert!(matches!(
            store.create(def("s", &wide, MatrixShape::Diagonal, None), &empty),
            Err(SummaryError::TooManyColumns(_))
        ));
        store
            .create(def("s", &["X1"], MatrixShape::Diagonal, None), &t)
            .unwrap();
        assert!(matches!(
            store.create(def("S", &["X1"], MatrixShape::Diagonal, None), &t),
            Err(SummaryError::DuplicateSummary(_))
        ));
        assert!(matches!(
            store.remove("zzz"),
            Err(SummaryError::UnknownSummary(_))
        ));
        store.remove("S").unwrap();
        assert!(store.is_empty());
    }

    #[test]
    fn projection_extracts_sub_gamma() {
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, 2.0 * i as f64, 3.0 + i as f64])
            .collect();
        let full = Nlq::from_rows(3, MatrixShape::Full, &rows);
        // Project onto (X3, X1) as a triangular state.
        let sub = project_nlq(&full, &[2, 0], MatrixShape::Triangular).unwrap();
        let expect = Nlq::from_rows(
            2,
            MatrixShape::Triangular,
            &rows.iter().map(|r| vec![r[2], r[0]]).collect::<Vec<_>>(),
        );
        assert_eq!(sub.n(), expect.n());
        for a in 0..2 {
            assert!((sub.l()[a] - expect.l()[a]).abs() < 1e-9);
            for b in 0..2 {
                assert!((sub.q_raw()[(a, b)] - expect.q_raw()[(a, b)]).abs() < 1e-9);
            }
        }
        assert_eq!(sub.min()[0], 3.0);
        assert_eq!(sub.max()[1], 19.0);
    }

    #[test]
    fn shape_cover_matrix() {
        use MatrixShape::*;
        assert!(shape_covers(Full, Full));
        assert!(shape_covers(Full, Triangular));
        assert!(shape_covers(Full, Diagonal));
        assert!(!shape_covers(Triangular, Full));
        assert!(shape_covers(Triangular, Triangular));
        assert!(shape_covers(Triangular, Diagonal));
        assert!(!shape_covers(Diagonal, Triangular));
        assert!(shape_covers(Diagonal, Diagonal));
    }
}
