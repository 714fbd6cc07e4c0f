use std::any::Any;

use nlq_linalg::kernels;
use nlq_linalg::{Matrix, Vector};
use nlq_models::{MatrixShape, Nlq};
use nlq_storage::{ColumnBlock, Value};

use crate::framework::{for_each_row_args, usize_arg, AggregateState, AggregateUdf, BatchArg};
use crate::pack::{pack_block, pack_nlq, unpack_vector, NlqBlock};
use crate::{Result, UdfError};

/// Maximum dimensionality of one aggregate UDF call.
///
/// §3.4: "the UDF 'struct' record is statically defined to have a
/// maximum dimensionality" because heap storage is allocated before
/// the first row is read. The paper uses `MAX_d = 64`, which keeps the
/// full `n, L, Q`, min/max struct within the 64 KB heap segment
/// (`8·(1 + 64 + 64² + 2·64) ≈ 34 KB`). Data sets with `d > MAX_D` use
/// block-partitioned calls ([`NlqBlockUdf`], Table 6).
pub const MAX_D: usize = 64;

/// How the point's coordinates reach the aggregate UDF (§3.4, step 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamStyle {
    /// Each coordinate is its own scalar parameter (plus a leading
    /// `d`): `nlq_list(d, shape, X1, ..., Xd)`. Fast, but bounded by
    /// the DBMS's maximum parameter count.
    List,
    /// Coordinates packed into one string:
    /// `nlq_str(shape, pack(X1..Xd))`. Pays float→text formatting in
    /// the query and text→float parsing in the UDF each row; "the
    /// unpacking routine determines d".
    String,
}

/// The mirrored C struct: statically sized arrays allocated once in
/// heap memory per worker thread (`udf_nLQ_storage` in the paper).
struct NlqStorage {
    d: usize,
    shape: MatrixShape,
    n: f64,
    l: [f64; MAX_D],
    q: [[f64; MAX_D]; MAX_D],
    min: [f64; MAX_D],
    max: [f64; MAX_D],
}

impl NlqStorage {
    fn new(shape: MatrixShape) -> Box<Self> {
        // Allocate directly on the heap; the struct is ~34 KB.
        let mut s: Box<NlqStorage> = Box::new(NlqStorage {
            d: 0,
            shape,
            n: 0.0,
            l: [0.0; MAX_D],
            q: [[0.0; MAX_D]; MAX_D],
            min: [0.0; MAX_D],
            max: [0.0; MAX_D],
        });
        s.min = [f64::INFINITY; MAX_D];
        s.max = [f64::NEG_INFINITY; MAX_D];
        s
    }

    /// The row-aggregation hot loop: `n += 1`, `L += x`, `Q += x xᵀ`
    /// (per shape), min/max.
    fn accumulate_point(&mut self, x: &[f64]) {
        let d = self.d;
        self.n += 1.0;
        for (a, &xa) in x.iter().enumerate() {
            self.l[a] += xa;
            if xa < self.min[a] {
                self.min[a] = xa;
            }
            if xa > self.max[a] {
                self.max[a] = xa;
            }
        }
        match self.shape {
            MatrixShape::Diagonal => {
                for (a, &xa) in x.iter().enumerate() {
                    self.q[a][a] += xa * xa;
                }
            }
            MatrixShape::Triangular => {
                // Slice zips keep the inner loop bounds-check free and
                // vectorizable; only the lower triangle is touched.
                for (a, &xa) in x.iter().enumerate() {
                    for (qb, xb) in self.q[a][..=a].iter_mut().zip(&x[..=a]) {
                        *qb += xa * xb;
                    }
                }
            }
            MatrixShape::Full => {
                for (a, &xa) in x.iter().enumerate() {
                    for (qb, xb) in self.q[a][..d].iter_mut().zip(x) {
                        *qb += xa * xb;
                    }
                }
            }
        }
    }

    /// Block-at-a-time aggregation: the same update as
    /// [`NlqStorage::accumulate_point`] over every row of `cols` at
    /// once — one fused moments pass per column (`L`, min, max, and
    /// the diagonal `Q`), then, for triangular and full shapes, the
    /// lane-split rank-k `Q` kernel (the `nlq_linalg::kernels` layer).
    /// The moments pass goes first: it is the one that waits for
    /// memory, and it hides that wait (see the kernels' module docs).
    fn accumulate_block(&mut self, cols: &[&[f64]]) {
        debug_assert_eq!(cols.len(), self.d);
        let diagonal = self.shape == MatrixShape::Diagonal;
        for (a, col) in cols.iter().enumerate() {
            self.fold_moments(a, kernels::column_moments(col, diagonal));
        }
        self.n += cols.first().map_or(0, |c| c.len()) as f64;
        self.accumulate_q(cols);
    }

    /// Folds one column's block moments into `L`, min, max and, for
    /// diagonal Γ, `Q`.
    fn fold_moments(&mut self, a: usize, m: kernels::ColumnMoments) {
        self.l[a] += m.sum;
        if self.shape == MatrixShape::Diagonal {
            self.q[a][a] += m.sum_sq;
        }
        if m.min < self.min[a] {
            self.min[a] = m.min;
        }
        if m.max > self.max[a] {
            self.max[a] = m.max;
        }
    }

    /// The rank-k `Q` update of triangular and full Γ.
    fn accumulate_q(&mut self, cols: &[&[f64]]) {
        let q = self.q.as_flattened_mut();
        match self.shape {
            MatrixShape::Diagonal => {}
            MatrixShape::Triangular => kernels::block_triangular(q, MAX_D, cols),
            MatrixShape::Full => kernels::block_full(q, MAX_D, cols),
        }
    }

    /// [`NlqStorage::accumulate_block`] over the rows whose `active`
    /// bit is set (a clear bit means the row has a NULL coordinate or
    /// failed the `WHERE` selection). A block keeping every row runs
    /// as is; otherwise the moments pass skips the clear rows and the
    /// kept rows are gathered into `compactor` for the `Q` kernel, so
    /// the sums depend on the kept rows alone.
    fn accumulate_selected(
        &mut self,
        cols: &[&[f64]],
        active: &[u64],
        compactor: &mut kernels::Compactor,
    ) {
        let len = cols.first().map_or(0, |c| c.len());
        assert_eq!(
            active.len(),
            len.div_ceil(64),
            "active bitmap length mismatch"
        );
        let kept = nlq_storage::bitmap_count_ones(active);
        if kept == len {
            return self.accumulate_block(cols);
        }
        if kept == 0 {
            return;
        }
        let diagonal = self.shape == MatrixShape::Diagonal;
        for (a, col) in cols.iter().enumerate() {
            self.fold_moments(a, kernels::column_moments_selected(col, active, diagonal));
        }
        self.n += kept as f64;
        if diagonal {
            return;
        }
        compactor.compact(cols, active);
        let mut kept_cols: [&[f64]; MAX_D] = [&[]; MAX_D];
        for (a, col) in kept_cols[..cols.len()].iter_mut().enumerate() {
            *col = compactor.column(a);
        }
        self.accumulate_q(&kept_cols[..cols.len()]);
    }

    /// Binds (or checks) the dimensionality on the first row.
    fn bind_d(&mut self, udf: &str, d: usize) -> Result<()> {
        if d == 0 || d > MAX_D {
            return Err(UdfError::InvalidArgument {
                udf: udf.to_owned(),
                message: format!("d={d} outside 1..={MAX_D}; use blocked calls for higher d"),
            });
        }
        if self.d == 0 {
            self.d = d;
        } else if self.d != d {
            return Err(UdfError::InvalidArgument {
                udf: udf.to_owned(),
                message: format!("d changed mid-aggregation: {} -> {d}", self.d),
            });
        }
        Ok(())
    }

    fn to_nlq(&self) -> Nlq {
        let d = self.d;
        let l = Vector::from_slice(&self.l[..d]);
        let q = Matrix::from_fn(d, d, |r, c| self.q[r][c]);
        Nlq::from_parts(
            self.shape,
            self.n,
            l,
            q,
            self.min[..d].to_vec(),
            self.max[..d].to_vec(),
        )
        .expect("storage dimensions are consistent")
    }
}

/// The paper's aggregate UDF computing `n, L, Q` in one table scan.
///
/// Two SQL-visible registrations exist, one per [`ParamStyle`]:
///
/// ```sql
/// SELECT nlq_list(d, 'triang', X1, ..., Xd) FROM X;
/// SELECT nlq_str('triang', pack(X1, ..., Xd)) FROM X;
/// ```
///
/// The return value is a single string ([`crate::pack::pack_nlq`]);
/// rows containing any NULL coordinate are skipped, following SQL
/// aggregate convention. Aggregating zero rows yields SQL NULL.
pub struct NlqUdf {
    style: ParamStyle,
}

impl NlqUdf {
    /// Creates the UDF for a parameter-passing style.
    pub fn new(style: ParamStyle) -> Self {
        NlqUdf { style }
    }
}

impl AggregateUdf for NlqUdf {
    fn name(&self) -> &str {
        match self.style {
            ParamStyle::List => "nlq_list",
            ParamStyle::String => "nlq_str",
        }
    }

    fn init(&self) -> Box<dyn AggregateState> {
        Box::new(NlqState {
            storage: NlqStorage::new(MatrixShape::Triangular),
            style: self.style,
            shape_bound: false,
            batch: BatchBinding::default(),
        })
    }
}

struct NlqState {
    storage: Box<NlqStorage>,
    style: ParamStyle,
    /// Whether the shape argument has been seen yet (first row binds it).
    shape_bound: bool,
    batch: BatchBinding,
}

/// What the first columnar block binds, kept for the rest of the
/// statement: later blocks with the same argument list skip parsing
/// and validation, and reuse the scratch instead of allocating.
/// This is executor scratch next to the paper's fixed-size struct,
/// not part of it, so [`AggregateState::heap_bytes`] leaves it out.
#[derive(Default)]
struct BatchBinding {
    /// The argument list the binding was validated against (empty
    /// until a columnar block binds).
    args: Vec<BatchArg>,
    /// Block column of each coordinate, in coordinate order.
    cols: Vec<usize>,
    /// Active-row words: the selection AND every coordinate's validity.
    mask: Vec<u64>,
    /// Kept-row copies of a selected block.
    compactor: kernels::Compactor,
}

/// Builds a list-style `nlq` aggregate state pre-seeded from an
/// existing Γ statistic, as if the state had already aggregated every
/// row that Γ summarizes.
///
/// The engine uses this to turn a materialized-summary hit into a
/// *mergeable* partial: a shard answers from its local Γ (zero rows
/// scanned) and the gather step still combines shard partials through
/// the ordinary [`AggregateState::merge`] protocol. An empty Γ
/// (`n = 0`) seeds an empty state, which merges as a no-op and
/// finalizes to SQL NULL — the same convention as aggregating zero
/// rows.
pub fn seeded_nlq_state(nlq: &Nlq) -> Box<dyn AggregateState> {
    let mut storage = NlqStorage::new(nlq.shape());
    let d = nlq.d();
    if d > 0 && nlq.n() > 0.0 {
        storage.d = d;
        storage.n = nlq.n();
        let q = nlq.q_raw();
        for a in 0..d {
            storage.l[a] = nlq.l()[a];
            storage.min[a] = nlq.min()[a];
            storage.max[a] = nlq.max()[a];
            for b in 0..d {
                storage.q[a][b] = q[(a, b)];
            }
        }
    }
    Box::new(NlqState {
        storage,
        style: ParamStyle::List,
        shape_bound: true,
        batch: BatchBinding::default(),
    })
}

/// Γ of one batch given column-wise: `cols[a]` holds coordinate `a` of
/// every row, and only rows whose `active` bit is set contribute
/// (`None` = all rows). This is the `nlq_list` block path — the same
/// kernels and summation order as [`AggregateState::accumulate_batch`]
/// — for callers that hold columns rather than a scan block, and it
/// returns the [`Nlq`] itself rather than its packed text. `None` when
/// no row is kept (what `finalize` reports as SQL NULL).
///
/// # Errors
/// [`UdfError::InvalidArgument`] if `cols.len()` is outside
/// `1..=MAX_D`.
///
/// # Panics
/// Panics if the columns differ in length or `active` does not cover
/// them.
pub fn nlq_of_columns(
    shape: MatrixShape,
    cols: &[&[f64]],
    active: Option<&[u64]>,
) -> Result<Option<Nlq>> {
    let mut storage = NlqStorage::new(shape);
    storage.bind_d("nlq_list", cols.len())?;
    match active {
        None => storage.accumulate_block(cols),
        Some(active) => {
            storage.accumulate_selected(cols, active, &mut kernels::Compactor::default())
        }
    }
    Ok((storage.n > 0.0).then(|| storage.to_nlq()))
}

impl NlqState {
    fn udf_name(&self) -> &'static str {
        match self.style {
            ParamStyle::List => "nlq_list",
            ParamStyle::String => "nlq_str",
        }
    }

    fn bind_shape(&mut self, arg: &Value) -> Result<()> {
        let name = self.udf_name();
        let shape_str = arg.as_str().ok_or_else(|| UdfError::InvalidArgument {
            udf: name.to_owned(),
            message: "shape argument must be a string ('diag'|'triang'|'full')".into(),
        })?;
        let shape = MatrixShape::parse(shape_str).ok_or_else(|| UdfError::InvalidArgument {
            udf: name.to_owned(),
            message: format!("unknown shape {shape_str:?}"),
        })?;
        if !self.shape_bound {
            self.storage.shape = shape;
            self.shape_bound = true;
        } else if self.storage.shape != shape {
            return Err(UdfError::InvalidArgument {
                udf: name.to_owned(),
                message: "shape changed mid-aggregation".into(),
            });
        }
        Ok(())
    }

    /// Validates a block's argument list and binds it for the columnar
    /// path: `Ok(false)` when the list is not columnar (string style,
    /// literal coordinates), errors as the row path reports them (bad
    /// `d`, arity, shape, or a change of either mid-aggregation). The
    /// binding is recorded only on success.
    fn bind_batch(&mut self, args: &[BatchArg]) -> Result<bool> {
        self.batch.args.clear();
        let name = self.udf_name();
        let (Some(BatchArg::Const(d_arg)), Some(BatchArg::Const(shape_arg))) =
            (args.first(), args.get(1))
        else {
            return Ok(false);
        };
        let cols: Option<Vec<usize>> = args[2..]
            .iter()
            .map(|a| match a {
                BatchArg::Col(c) => Some(*c),
                BatchArg::Const(_) => None,
            })
            .collect();
        let (ParamStyle::List, Some(cols)) = (self.style, cols) else {
            return Ok(false);
        };
        let d = usize_arg(name, std::slice::from_ref(d_arg), 0)?;
        if args.len() != d + 2 {
            return Err(UdfError::WrongArity {
                udf: name.to_owned(),
                expected: format!("{} (d + 2)", d + 2),
                got: args.len(),
            });
        }
        self.bind_shape(shape_arg)?;
        self.storage.bind_d(name, d)?;
        self.batch.cols = cols;
        self.batch.args = args.to_vec();
        Ok(true)
    }
}

impl AggregateState for NlqState {
    fn accumulate(&mut self, args: &[Value]) -> Result<()> {
        let name = self.udf_name();
        match self.style {
            ParamStyle::List => {
                // nlq_list(d, shape, X1..Xd)
                let d = usize_arg(name, args, 0)?;
                if args.len() != d + 2 {
                    return Err(UdfError::WrongArity {
                        udf: name.to_owned(),
                        expected: format!("{} (d + 2)", d + 2),
                        got: args.len(),
                    });
                }
                self.bind_shape(&args[1])?;
                self.storage.bind_d(name, d)?;
                // Gather coordinates; a NULL skips the whole row.
                let mut x = [0.0; MAX_D];
                for a in 0..d {
                    match args[2 + a].as_f64() {
                        Some(v) => x[a] = v,
                        None if args[2 + a].is_null() => return Ok(()),
                        None => {
                            return Err(UdfError::InvalidArgument {
                                udf: name.to_owned(),
                                message: format!("X{} is not numeric", a + 1),
                            })
                        }
                    }
                }
                self.storage.accumulate_point(&x[..d]);
            }
            ParamStyle::String => {
                // nlq_str(shape, packed)
                if args.len() != 2 {
                    return Err(UdfError::WrongArity {
                        udf: name.to_owned(),
                        expected: "2 (shape, packed vector)".into(),
                        got: args.len(),
                    });
                }
                self.bind_shape(&args[0])?;
                let packed = match &args[1] {
                    Value::Null => return Ok(()), // NULL row is skipped
                    Value::Str(s) => s,
                    other => {
                        return Err(UdfError::InvalidArgument {
                            udf: name.to_owned(),
                            message: format!("expected packed string, got {other:?}"),
                        })
                    }
                };
                // "The unpacking routine determines d."
                let x = unpack_vector(packed)?;
                self.storage.bind_d(name, x.len())?;
                self.storage.accumulate_point(&x);
            }
        }
        Ok(())
    }

    /// Columnar phase 2 for the list style: `d` and the shape are
    /// block constants and every coordinate is a block column, so the
    /// whole block reduces to one moments pass per column and one
    /// lane-split rank-k `Q` update. The first block binds `d`, the shape
    /// and the columns; later blocks with the same argument list only
    /// compare it. Any other argument shape (string style, literal
    /// coordinates) replays the row-wise path, which is always
    /// equivalent.
    fn accumulate_batch(
        &mut self,
        block: &ColumnBlock,
        args: &[BatchArg],
        selection: Option<&[u64]>,
    ) -> Result<()> {
        if self.batch.args != args && !self.bind_batch(args)? {
            return for_each_row_args(block, args, selection, |row| self.accumulate(row));
        }
        let NlqState { storage, batch, .. } = self;
        let mut cols: [&[f64]; MAX_D] = [&[]; MAX_D];
        let mut any_null = false;
        for (col, &c) in cols.iter_mut().zip(&batch.cols) {
            let column = block.column(c);
            *col = column.values;
            any_null |= !column.is_dense();
        }
        let cols = &cols[..batch.cols.len()];
        if selection.is_none() && !any_null {
            storage.accumulate_block(cols);
            return Ok(());
        }
        // A row contributes iff it passed the WHERE selection and no
        // coordinate is NULL: AND the selection words with every
        // column's validity words.
        let n = block.len();
        batch.mask.clear();
        match selection {
            Some(sel) => batch.mask.extend_from_slice(sel),
            None => {
                batch.mask.resize(nlq_storage::bitmap_words(n), !0u64);
                nlq_storage::bitmap_mask_tail(&mut batch.mask, n);
            }
        }
        for &c in &batch.cols {
            if let Some(validity) = block.column(c).validity() {
                for (w, v) in batch.mask.iter_mut().zip(validity) {
                    *w &= v;
                }
            }
        }
        storage.accumulate_selected(cols, &batch.mask, &mut batch.compactor);
        Ok(())
    }

    fn merge(&mut self, other: &dyn AggregateState) -> Result<()> {
        let name = self.udf_name();
        let other =
            other
                .as_any()
                .downcast_ref::<NlqState>()
                .ok_or_else(|| UdfError::MergeMismatch {
                    udf: name.to_owned(),
                    message: "partial state has a different type".into(),
                })?;
        if other.storage.d == 0 {
            return Ok(()); // empty partial
        }
        if self.storage.d == 0 {
            // This side is empty: adopt the other side's binding.
            self.storage.d = other.storage.d;
            self.storage.shape = other.storage.shape;
            self.shape_bound = other.shape_bound;
        }
        if self.storage.d != other.storage.d || self.storage.shape != other.storage.shape {
            return Err(UdfError::MergeMismatch {
                udf: name.to_owned(),
                message: format!(
                    "d/shape mismatch: ({}, {}) vs ({}, {})",
                    self.storage.d,
                    self.storage.shape.name(),
                    other.storage.d,
                    other.storage.shape.name()
                ),
            });
        }
        let d = self.storage.d;
        self.storage.n += other.storage.n;
        for a in 0..d {
            self.storage.l[a] += other.storage.l[a];
            if other.storage.min[a] < self.storage.min[a] {
                self.storage.min[a] = other.storage.min[a];
            }
            if other.storage.max[a] > self.storage.max[a] {
                self.storage.max[a] = other.storage.max[a];
            }
            for b in 0..d {
                self.storage.q[a][b] += other.storage.q[a][b];
            }
        }
        Ok(())
    }

    fn finalize(self: Box<Self>) -> Result<Value> {
        // `d == 0`: no rows seen at all. `n == 0`: rows were seen but
        // every one had a NULL coordinate (the list style binds d
        // before the NULL check, the string style after) — both cases
        // aggregated nothing, so both return SQL NULL.
        if self.storage.d == 0 || self.storage.n == 0.0 {
            return Ok(Value::Null);
        }
        Ok(Value::Str(pack_nlq(&self.storage.to_nlq())))
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<NlqStorage>()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Block-partitioned aggregate UDF for `d > MAX_D` (Table 6).
///
/// ```sql
/// SELECT nlq_block(d, a0, a1, b0, b1,
///                  pack(Xa0+1..Xa1), pack(Xb0+1..Xb1)) FROM X;
/// ```
///
/// Each call computes the `Q` submatrix for subscript ranges
/// `a0..a1 × b0..b1` (half-open, each at most [`MAX_D`] wide) and, for
/// diagonal blocks (`a0 == b0`), the matching `L` segment. Crucially,
/// a call receives **only the two coordinate segments it needs**, so
/// its per-row cost is constant in `d` and the total elapsed time is
/// proportional to the number of calls — exactly the scaling Table 6
/// reports. All calls for one data set are submitted in a single
/// statement (the paper's synchronized table scan);
/// [`crate::pack::assemble_blocks`] reassembles the full statistics
/// client-side.
pub struct NlqBlockUdf;

impl AggregateUdf for NlqBlockUdf {
    fn name(&self) -> &str {
        "nlq_block"
    }

    fn init(&self) -> Box<dyn AggregateState> {
        Box::new(BlockState {
            d: 0,
            a0: 0,
            a1: 0,
            b0: 0,
            b1: 0,
            n: 0.0,
            l: [0.0; MAX_D],
            q: Box::new([[0.0; MAX_D]; MAX_D]),
        })
    }
}

struct BlockState {
    d: usize,
    a0: usize,
    a1: usize,
    b0: usize,
    b1: usize,
    n: f64,
    l: [f64; MAX_D],
    q: Box<[[f64; MAX_D]; MAX_D]>,
}

impl BlockState {
    fn bind_ranges(&mut self, d: usize, a0: usize, a1: usize, b0: usize, b1: usize) -> Result<()> {
        const NAME: &str = "nlq_block";
        if self.d == 0 {
            if a0 >= a1 || b0 >= b1 || a1 > d || b1 > d {
                return Err(UdfError::InvalidArgument {
                    udf: NAME.into(),
                    message: format!("invalid ranges {a0}..{a1} x {b0}..{b1} for d={d}"),
                });
            }
            if a1 - a0 > MAX_D || b1 - b0 > MAX_D {
                return Err(UdfError::InvalidArgument {
                    udf: NAME.into(),
                    message: format!("block wider than MAX_D={MAX_D}"),
                });
            }
            self.d = d;
            self.a0 = a0;
            self.a1 = a1;
            self.b0 = b0;
            self.b1 = b1;
        } else if (self.d, self.a0, self.a1, self.b0, self.b1) != (d, a0, a1, b0, b1) {
            return Err(UdfError::InvalidArgument {
                udf: NAME.into(),
                message: "block ranges changed mid-aggregation".into(),
            });
        }
        Ok(())
    }
}

impl AggregateState for BlockState {
    fn accumulate(&mut self, args: &[Value]) -> Result<()> {
        const NAME: &str = "nlq_block";
        if args.len() != 7 {
            return Err(UdfError::WrongArity {
                udf: NAME.into(),
                expected: "7 (d, a0, a1, b0, b1, packed a-segment, packed b-segment)".into(),
                got: args.len(),
            });
        }
        let d = usize_arg(NAME, args, 0)?;
        let a0 = usize_arg(NAME, args, 1)?;
        let a1 = usize_arg(NAME, args, 2)?;
        let b0 = usize_arg(NAME, args, 3)?;
        let b1 = usize_arg(NAME, args, 4)?;
        self.bind_ranges(d, a0, a1, b0, b1)?;
        let unpack_segment = |arg: &Value, what: &str, expect: usize| -> Result<Option<Vec<f64>>> {
            let packed = match arg {
                Value::Null => return Ok(None),
                Value::Str(s) => s,
                other => {
                    return Err(UdfError::InvalidArgument {
                        udf: NAME.into(),
                        message: format!("expected packed {what} segment, got {other:?}"),
                    })
                }
            };
            let seg = unpack_vector(packed)?;
            if seg.len() != expect {
                return Err(UdfError::InvalidArgument {
                    udf: NAME.into(),
                    message: format!("{what} segment has {} values, expected {expect}", seg.len()),
                });
            }
            Ok(Some(seg))
        };
        let Some(xa) = unpack_segment(&args[5], "a", a1 - a0)? else {
            return Ok(()); // NULL row is skipped
        };
        let Some(xb) = unpack_segment(&args[6], "b", b1 - b0)? else {
            return Ok(());
        };
        self.n += 1.0;
        if self.a0 == self.b0 {
            for (i, &v) in xa.iter().enumerate() {
                self.l[i] += v;
            }
        }
        for (i, &va) in xa.iter().enumerate() {
            let row = &mut self.q[i];
            for (j, &vb) in xb.iter().enumerate() {
                row[j] += va * vb;
            }
        }
        Ok(())
    }

    fn merge(&mut self, other: &dyn AggregateState) -> Result<()> {
        const NAME: &str = "nlq_block";
        let other =
            other
                .as_any()
                .downcast_ref::<BlockState>()
                .ok_or_else(|| UdfError::MergeMismatch {
                    udf: NAME.into(),
                    message: "partial state has a different type".into(),
                })?;
        if other.d == 0 {
            return Ok(());
        }
        if self.d == 0 {
            self.bind_ranges(other.d, other.a0, other.a1, other.b0, other.b1)?;
        }
        if (self.d, self.a0, self.a1, self.b0, self.b1)
            != (other.d, other.a0, other.a1, other.b0, other.b1)
        {
            return Err(UdfError::MergeMismatch {
                udf: NAME.into(),
                message: "block ranges differ between partials".into(),
            });
        }
        self.n += other.n;
        for i in 0..(self.a1 - self.a0) {
            self.l[i] += other.l[i];
            for j in 0..(self.b1 - self.b0) {
                self.q[i][j] += other.q[i][j];
            }
        }
        Ok(())
    }

    fn finalize(self: Box<Self>) -> Result<Value> {
        if self.d == 0 {
            return Ok(Value::Null);
        }
        let rows = self.a1 - self.a0;
        let cols = self.b1 - self.b0;
        let mut q = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            q.extend_from_slice(&self.q[i][..cols]);
        }
        let l = if self.a0 == self.b0 {
            self.l[..rows].to_vec()
        } else {
            Vec::new()
        };
        Ok(Value::Str(pack_block(&NlqBlock {
            d: self.d,
            a0: self.a0,
            a1: self.a1,
            b0: self.b0,
            b1: self.b1,
            n: self.n,
            l,
            q,
        })))
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<BlockState>() + std::mem::size_of::<[[f64; MAX_D]; MAX_D]>()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::check_heap;
    use crate::pack::{assemble_blocks, pack_vector, unpack_block, unpack_nlq};

    fn rows(n: usize, d: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| (0..d).map(|a| ((i * d + a) % 17) as f64 - 8.0).collect())
            .collect()
    }

    fn run_list(rows: &[Vec<f64>], shape: &str) -> Value {
        let udf = NlqUdf::new(ParamStyle::List);
        let mut state = udf.init();
        let d = rows[0].len();
        for r in rows {
            let mut args = vec![Value::Int(d as i64), Value::from(shape)];
            args.extend(r.iter().map(|&v| Value::Float(v)));
            state.accumulate(&args).unwrap();
        }
        state.finalize().unwrap()
    }

    fn run_str(rows: &[Vec<f64>], shape: &str) -> Value {
        let udf = NlqUdf::new(ParamStyle::String);
        let mut state = udf.init();
        for r in rows {
            state
                .accumulate(&[Value::from(shape), Value::Str(pack_vector(r))])
                .unwrap();
        }
        state.finalize().unwrap()
    }

    #[test]
    fn list_style_matches_reference() {
        let data = rows(100, 4);
        let out = run_list(&data, "triang");
        let got = unpack_nlq(out.as_str().unwrap()).unwrap();
        let expect = Nlq::from_rows(4, MatrixShape::Triangular, &data);
        assert_eq!(got, expect);
    }

    #[test]
    fn string_style_matches_list_style() {
        let data = rows(50, 6);
        for shape in ["diag", "triang", "full"] {
            let a = run_list(&data, shape);
            let b = run_str(&data, shape);
            let na = unpack_nlq(a.as_str().unwrap()).unwrap();
            let nb = unpack_nlq(b.as_str().unwrap()).unwrap();
            assert_eq!(na.n(), nb.n());
            assert_eq!(na.l(), nb.l());
            assert_eq!(na.q_raw(), nb.q_raw(), "shape {shape}");
        }
    }

    #[test]
    fn parallel_merge_matches_serial() {
        let data = rows(100, 5);
        let udf = NlqUdf::new(ParamStyle::List);
        // Two workers over halves, merged.
        let mut s1 = udf.init();
        let mut s2 = udf.init();
        for (i, r) in data.iter().enumerate() {
            let mut args = vec![Value::Int(5), Value::from("full")];
            args.extend(r.iter().map(|&v| Value::Float(v)));
            if i % 2 == 0 {
                s1.accumulate(&args).unwrap();
            } else {
                s2.accumulate(&args).unwrap();
            }
        }
        s1.merge(s2.as_ref()).unwrap();
        let merged = unpack_nlq(s1.finalize().unwrap().as_str().unwrap()).unwrap();
        let serial = unpack_nlq(run_list(&data, "full").as_str().unwrap()).unwrap();
        assert_eq!(merged, serial);
    }

    #[test]
    fn merge_with_empty_partial_works_both_ways() {
        let data = rows(10, 3);
        let udf = NlqUdf::new(ParamStyle::List);
        // Non-empty merged into empty.
        let mut empty = udf.init();
        let mut full = udf.init();
        for r in &data {
            let mut args = vec![Value::Int(3), Value::from("triang")];
            args.extend(r.iter().map(|&v| Value::Float(v)));
            full.accumulate(&args).unwrap();
        }
        empty.merge(full.as_ref()).unwrap();
        let a = unpack_nlq(empty.finalize().unwrap().as_str().unwrap()).unwrap();
        assert_eq!(a.n(), 10.0);
        // Empty merged into non-empty.
        let mut full2 = udf.init();
        for r in &data {
            let mut args = vec![Value::Int(3), Value::from("triang")];
            args.extend(r.iter().map(|&v| Value::Float(v)));
            full2.accumulate(&args).unwrap();
        }
        let empty2 = udf.init();
        full2.merge(empty2.as_ref()).unwrap();
        let b = unpack_nlq(full2.finalize().unwrap().as_str().unwrap()).unwrap();
        assert_eq!(b.n(), 10.0);
    }

    #[test]
    fn null_rows_are_skipped() {
        let udf = NlqUdf::new(ParamStyle::List);
        let mut state = udf.init();
        state
            .accumulate(&[
                Value::Int(2),
                Value::from("diag"),
                Value::Float(1.0),
                Value::Float(2.0),
            ])
            .unwrap();
        state
            .accumulate(&[
                Value::Int(2),
                Value::from("diag"),
                Value::Null,
                Value::Float(9.0),
            ])
            .unwrap();
        let out = unpack_nlq(state.finalize().unwrap().as_str().unwrap()).unwrap();
        assert_eq!(out.n(), 1.0);
        assert_eq!(out.l().as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn empty_aggregate_returns_null() {
        let udf = NlqUdf::new(ParamStyle::String);
        assert_eq!(udf.init().finalize().unwrap(), Value::Null);
    }

    #[test]
    fn all_null_rows_return_null_in_both_styles() {
        // Regression: the list style binds d/shape before the NULL
        // check, so it used to finalize a packed n=0 result while the
        // string style returned SQL NULL for the same input.
        let udf = NlqUdf::new(ParamStyle::List);
        let mut state = udf.init();
        state
            .accumulate(&[
                Value::Int(2),
                Value::from("diag"),
                Value::Null,
                Value::Float(1.0),
            ])
            .unwrap();
        assert_eq!(state.finalize().unwrap(), Value::Null);

        let udf = NlqUdf::new(ParamStyle::String);
        let mut state = udf.init();
        state
            .accumulate(&[Value::from("diag"), Value::Null])
            .unwrap();
        assert_eq!(state.finalize().unwrap(), Value::Null);
    }

    /// Builds a table of float points (with optional NULL holes) and
    /// aggregates it through `accumulate_batch`.
    fn run_batched(data: &[Vec<f64>], nulls: &[(usize, usize)], shape: &str) -> Value {
        use nlq_storage::{Schema, Table};
        let d = data[0].len();
        let mut t = Table::new(Schema::points(d, false), 1);
        for (i, r) in data.iter().enumerate() {
            let mut row = vec![Value::Int(i as i64)];
            row.extend(r.iter().enumerate().map(|(a, &v)| {
                if nulls.contains(&(i, a)) {
                    Value::Null
                } else {
                    Value::Float(v)
                }
            }));
            t.insert(row).unwrap();
        }
        let cols: Vec<usize> = (1..=d).collect();
        let mut iter = t.scan_partition_blocks(0, &cols).unwrap();
        let mut args = vec![
            BatchArg::Const(Value::Int(d as i64)),
            BatchArg::Const(Value::from(shape)),
        ];
        args.extend((0..d).map(BatchArg::Col));
        let udf = NlqUdf::new(ParamStyle::List);
        let mut state = udf.init();
        while let Some(block) = iter.next_block() {
            state
                .accumulate_batch(&block.unwrap(), &args, None)
                .unwrap();
        }
        state.finalize().unwrap()
    }

    #[test]
    fn batched_accumulation_matches_rowwise() {
        // Enough rows for multiple blocks, every shape.
        let data = rows(2500, 5);
        for shape in ["diag", "triang", "full"] {
            let batched = unpack_nlq(run_batched(&data, &[], shape).as_str().unwrap()).unwrap();
            let rowwise = unpack_nlq(run_list(&data, shape).as_str().unwrap()).unwrap();
            assert_eq!(batched.n(), rowwise.n(), "shape {shape}");
            assert_eq!(batched.min(), rowwise.min());
            assert_eq!(batched.max(), rowwise.max());
            for a in 0..5 {
                let rel = (batched.l()[a] - rowwise.l()[a]).abs() / rowwise.l()[a].abs().max(1.0);
                assert!(rel < 1e-12, "L[{a}] {shape}");
            }
            let (bq, rq) = (batched.q_raw(), rowwise.q_raw());
            for a in 0..5 {
                for b in 0..5 {
                    let rel = (bq[(a, b)] - rq[(a, b)]).abs() / rq[(a, b)].abs().max(1.0);
                    assert!(rel < 1e-12, "Q[{a}][{b}] {shape}");
                }
            }
        }
    }

    #[test]
    fn batched_accumulation_skips_null_rows() {
        let data = rows(40, 3);
        let nulls = [(3, 1), (17, 0), (17, 2), (39, 2)];
        let batched = unpack_nlq(run_batched(&data, &nulls, "triang").as_str().unwrap()).unwrap();
        // Row-wise reference over the same data with the NULL rows
        // (3, 17, 39) removed entirely.
        let kept: Vec<Vec<f64>> = data
            .iter()
            .enumerate()
            .filter(|(i, _)| ![3, 17, 39].contains(i))
            .map(|(_, r)| r.clone())
            .collect();
        let expect = Nlq::from_rows(3, MatrixShape::Triangular, &kept);
        assert_eq!(batched.n(), expect.n());
        assert_eq!(batched.min(), expect.min());
        assert_eq!(batched.max(), expect.max());
        for a in 0..3 {
            assert!((batched.l()[a] - expect.l()[a]).abs() < 1e-9);
            for b in 0..=a {
                assert!((batched.q_raw()[(a, b)] - expect.q_raw()[(a, b)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn batch_binding_rechecks_changed_constants() {
        use nlq_storage::{Schema, Table};
        let mut t = Table::new(Schema::points(3, false), 1);
        for i in 0..10 {
            let x = i as f64;
            let row = vec![
                Value::Int(i),
                Value::Float(x),
                Value::Float(-x),
                Value::Float(1.0),
            ];
            t.insert(row).unwrap();
        }
        let args = |d: i64, shape: &str, cols: usize| {
            let mut a = vec![
                BatchArg::Const(Value::Int(d)),
                BatchArg::Const(Value::from(shape)),
            ];
            a.extend((0..cols).map(BatchArg::Col));
            a
        };
        let mut iter = t.scan_partition_blocks(0, &[1, 2, 3]).unwrap();
        let block = iter.next_block().unwrap().unwrap();
        let mut state = NlqUdf::new(ParamStyle::List).init();
        state
            .accumulate_batch(&block, &args(3, "triang", 3), None)
            .unwrap();
        // The same list again is the bound fast path.
        state
            .accumulate_batch(&block, &args(3, "triang", 3), None)
            .unwrap();
        let err = |r: Result<()>| r.unwrap_err().to_string();
        let shape = err(state.accumulate_batch(&block, &args(3, "full", 3), None));
        assert!(shape.contains("shape changed mid-aggregation"), "{shape}");
        let d = err(state.accumulate_batch(&block, &args(2, "triang", 2), None));
        assert!(d.contains("d changed mid-aggregation"), "{d}");
        let arity = err(state.accumulate_batch(&block, &args(3, "triang", 2), None));
        assert!(arity.contains("(d + 2)"), "{arity}");
        // Failed rebinds leave the first binding in force.
        state
            .accumulate_batch(&block, &args(3, "triang", 3), None)
            .unwrap();
        let out = unpack_nlq(state.finalize().unwrap().as_str().unwrap()).unwrap();
        assert_eq!(out.n(), 30.0);
        assert_eq!(out.l().as_slice(), &[135.0, -135.0, 30.0]);
    }

    #[test]
    fn nlq_of_columns_is_the_block_path() {
        let data = rows(300, 4);
        let cols: Vec<Vec<f64>> = (0..4)
            .map(|a| data.iter().map(|r| r[a]).collect())
            .collect();
        let cols: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        for shape in ["diag", "triang", "full"] {
            let got = nlq_of_columns(MatrixShape::parse(shape).unwrap(), &cols, None)
                .unwrap()
                .unwrap();
            let want = unpack_nlq(run_batched(&data, &[], shape).as_str().unwrap()).unwrap();
            assert_eq!(got, want, "shape {shape}");
        }
        // Keep rows 0 and 2 only.
        let active = vec![0b101u64, 0, 0, 0, 0];
        let got = nlq_of_columns(MatrixShape::Triangular, &cols, Some(&active))
            .unwrap()
            .unwrap();
        let expect = Nlq::from_rows(
            4,
            MatrixShape::Triangular,
            &[data[0].clone(), data[2].clone()],
        );
        assert_eq!(got, expect, "two small-integer rows sum exactly");
        let none = nlq_of_columns(MatrixShape::Diagonal, &cols, Some(&[0; 5])).unwrap();
        assert!(none.is_none());
        assert!(nlq_of_columns(MatrixShape::Diagonal, &[], None).is_err());
    }

    #[test]
    fn d_above_max_is_rejected() {
        let udf = NlqUdf::new(ParamStyle::List);
        let mut state = udf.init();
        let mut args = vec![Value::Int((MAX_D + 1) as i64), Value::from("diag")];
        args.extend((0..=MAX_D).map(|_| Value::Float(0.0)));
        assert!(matches!(
            state.accumulate(&args),
            Err(UdfError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn state_fits_heap_limit() {
        let udf = NlqUdf::new(ParamStyle::List);
        let state = udf.init();
        check_heap("nlq_list", state.as_ref()).unwrap();
        assert!(state.heap_bytes() <= crate::UDF_HEAP_LIMIT);
        // And it genuinely is a ~34 KB struct, as the paper computes.
        assert!(state.heap_bytes() > 30 * 1024);
    }

    #[test]
    fn changing_d_mid_stream_is_rejected() {
        let udf = NlqUdf::new(ParamStyle::String);
        let mut state = udf.init();
        state
            .accumulate(&[Value::from("diag"), Value::Str("1,2".into())])
            .unwrap();
        assert!(state
            .accumulate(&[Value::from("diag"), Value::Str("1,2,3".into())])
            .is_err());
    }

    #[test]
    fn blocked_calls_cover_high_d() {
        // d = 6 with 3x3 blocks of width 2 (here MAX_D is plenty; the
        // mechanism is what's under test).
        let d = 6;
        let data = rows(40, d);
        let udf = NlqBlockUdf;
        let mut blocks = Vec::new();
        for a0 in (0..d).step_by(2) {
            for b0 in (0..d).step_by(2) {
                let mut state = udf.init();
                for r in &data {
                    state
                        .accumulate(&[
                            Value::Int(d as i64),
                            Value::Int(a0 as i64),
                            Value::Int((a0 + 2) as i64),
                            Value::Int(b0 as i64),
                            Value::Int((b0 + 2) as i64),
                            Value::Str(pack_vector(&r[a0..a0 + 2])),
                            Value::Str(pack_vector(&r[b0..b0 + 2])),
                        ])
                        .unwrap();
                }
                let out = state.finalize().unwrap();
                blocks.push(unpack_block(out.as_str().unwrap()).unwrap());
            }
        }
        let assembled = assemble_blocks(d, &blocks).unwrap();
        let direct = Nlq::from_rows(d, MatrixShape::Full, &data);
        assert_eq!(assembled.n(), direct.n());
        assert_eq!(assembled.l(), direct.l());
        assert_eq!(assembled.q_raw(), direct.q_raw());
    }

    #[test]
    fn blocked_merge_matches_single_worker() {
        let d = 4;
        let data = rows(30, d);
        let udf = NlqBlockUdf;
        let args_for = |r: &Vec<f64>| {
            vec![
                Value::Int(d as i64),
                Value::Int(0),
                Value::Int(2),
                Value::Int(2),
                Value::Int(4),
                Value::Str(pack_vector(&r[0..2])),
                Value::Str(pack_vector(&r[2..4])),
            ]
        };
        let mut s1 = udf.init();
        let mut s2 = udf.init();
        for (i, r) in data.iter().enumerate() {
            if i < 15 {
                s1.accumulate(&args_for(r)).unwrap();
            } else {
                s2.accumulate(&args_for(r)).unwrap();
            }
        }
        s1.merge(s2.as_ref()).unwrap();
        let merged = unpack_block(s1.finalize().unwrap().as_str().unwrap()).unwrap();

        let mut serial = udf.init();
        for r in &data {
            serial.accumulate(&args_for(r)).unwrap();
        }
        let single = unpack_block(serial.finalize().unwrap().as_str().unwrap()).unwrap();
        assert_eq!(merged, single);
        // Off-diagonal block carries no L segment.
        assert!(merged.l.is_empty());
    }

    #[test]
    fn block_rejects_bad_ranges() {
        let udf = NlqBlockUdf;
        let mut state = udf.init();
        let bad = vec![
            Value::Int(4),
            Value::Int(2),
            Value::Int(2), // empty range
            Value::Int(0),
            Value::Int(2),
            Value::Str("".into()),
            Value::Str("1,2".into()),
        ];
        assert!(state.accumulate(&bad).is_err());
    }
}
