//! Aggregate accumulators: the 4-phase protocol (init / accumulate /
//! merge / finalize) behind every aggregate call.
//!
//! Every numeric builtin — `sum`, `avg`, the variances, `covar_pop`,
//! `corr`, `regr_slope`, `regr_intercept` — is one [`Moments`]
//! accumulator: Γ = (n, L, Q) over the call's one or two arguments
//! (§5 of the paper: SQL's statistical builtins are Γ at d ≤ 2). The
//! row path, the block path and the summary path all fold that one
//! struct, and each builtin is a finalize function that reads its
//! statistic off Γ through `nlq-core`'s [`Nlq`]. Separate calls are
//! never fused: the long SQL's 1 + d + d² terms stay 1 + d + d²
//! accumulators.

use std::cmp::Ordering;

use nlq_linalg::{kernels, Matrix, Vector};
use nlq_models::{MatrixShape, Nlq};
use nlq_storage::{bitmap_count_ones, bitmap_mask_tail, bitmap_words, ColumnBlock, Value};
use nlq_udf::{AggregateState, BatchArg};

use crate::expr::{AggCall, AggKind};
use crate::{EngineError, Result};

/// The numeric builtins: each one is a finalize function of
/// [`Moments`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MomentsFn {
    /// `sum(x)`.
    Sum,
    /// `avg(x)`.
    Avg,
    /// `var_pop(x)`: population variance.
    VarPop,
    /// `var_samp(x)` / `variance(x)`: sample variance.
    VarSamp,
    /// `stddev(x)` / `stddev_samp(x)`: sample standard deviation.
    StdDev,
    /// `covar_pop(x, y)`: population covariance.
    CovarPop,
    /// `corr(x, y)`: Pearson correlation coefficient.
    Corr,
    /// `regr_slope(y, x)`: OLS slope of y on x.
    RegrSlope,
    /// `regr_intercept(y, x)`: OLS intercept of y on x.
    RegrIntercept,
}

impl MomentsFn {
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "sum" => MomentsFn::Sum,
            "avg" => MomentsFn::Avg,
            "var_pop" => MomentsFn::VarPop,
            "var_samp" | "variance" => MomentsFn::VarSamp,
            "stddev" | "stddev_samp" => MomentsFn::StdDev,
            "covar_pop" => MomentsFn::CovarPop,
            "corr" => MomentsFn::Corr,
            "regr_slope" => MomentsFn::RegrSlope,
            "regr_intercept" => MomentsFn::RegrIntercept,
            _ => return None,
        })
    }

    /// Number of arguments the function takes. The two-argument ones
    /// are the paper's "only two dimensions" builtins.
    pub fn arity(self) -> usize {
        use MomentsFn::*;
        match self {
            Sum | Avg | VarPop | VarSamp | StdDev => 1,
            CovarPop | Corr | RegrSlope | RegrIntercept => 2,
        }
    }

    /// Which of `Q_aa`, `Q_bb`, `Q_ab` the finalizer reads; the others
    /// are never accumulated, so `sum(Xa * Xb)` costs one `dot` per
    /// block.
    fn reads_q(self) -> [bool; 3] {
        use MomentsFn::*;
        match self {
            Sum | Avg => [false; 3],
            VarPop | VarSamp | StdDev => [true, false, false],
            CovarPop => [false, false, true],
            Corr => [true; 3],
            RegrSlope | RegrIntercept => [false, true, true],
        }
    }
}

/// How one aggregate-term operand reaches the block path: a projected
/// block column (by slot), the product of two columns, or a constant.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BlockTerm {
    Col(usize),
    Prod(usize, usize),
    Const(f64),
}

impl BlockTerm {
    /// The block slots whose NULLs drop a row from the term.
    fn slots(&self) -> impl Iterator<Item = usize> + Clone {
        let (a, b) = match *self {
            BlockTerm::Col(s) => (Some(s), None),
            BlockTerm::Prod(s, t) => (Some(s), Some(t)),
            BlockTerm::Const(_) => (None, None),
        };
        a.into_iter().chain(b)
    }
}

/// A block-path execution recipe for one aggregate call.
#[derive(Debug, Clone)]
pub(crate) enum BlockCall {
    /// `count(*)` (no term) or `count` of one term: the active rows.
    Count(Option<BlockTerm>),
    /// A numeric builtin over its one or two argument terms.
    Moments(BlockTerm, Option<BlockTerm>),
    /// `min`/`max` over one column.
    Extremum(usize),
    /// Aggregate UDF; arguments mapped onto block slots/constants.
    Udf(Vec<BatchArg>),
}

/// A single aggregate accumulator (one per aggregate call per group
/// per worker).
pub(crate) enum AggAccum {
    /// `count(*)` (no argument) or `count(x)` of any type.
    Count(i64),
    /// `min` / `max` over any comparable type.
    Extremum(Extremum),
    /// Every numeric builtin.
    Moments(Moments),
    Udf(Box<dyn AggregateState>),
}

/// The running `min` or `max`.
pub(crate) struct Extremum {
    max: bool,
    /// The argument is a FLOAT term, so Int values widen: the answer is
    /// FLOAT on every path.
    float: bool,
    best: Option<Value>,
}

impl Extremum {
    fn offer(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        let wanted = if self.max {
            Ordering::Greater
        } else {
            Ordering::Less
        };
        if self
            .best
            .as_ref()
            .is_none_or(|b| v.sql_cmp(b) == Some(wanted))
        {
            self.best = Some(match v {
                Value::Int(i) if self.float => Value::Float(*i as f64),
                v => v.clone(),
            });
        }
    }
}

/// Γ = (n, L, Q) over a numeric builtin's arguments `a` (and `b`), plus
/// the exact integer lane `sum` answers from.
pub(crate) struct Moments {
    f: MomentsFn,
    /// Rows where every argument is a number.
    n: u64,
    /// `L_a`, `L_b`.
    l: [f64; 2],
    /// `Q_aa`, `Q_bb`, `Q_ab`; only the entries `f` reads accumulate.
    q: [f64; 3],
    /// `sum` over a non-FLOAT term: the exact Σ while every value seen
    /// is Int, `None` once another value arrives (the answer is then
    /// FLOAT from `L_a`). Boxed so an accumulator stays 64 bytes: the
    /// long SQL inits, folds and merges 1 + d + d² of them per
    /// partition, and 96-byte ones made its scan measurably slower.
    int: Option<Box<i128>>,
}

const _: () = assert!(std::mem::size_of::<AggAccum>() <= 64);

impl Moments {
    fn new(f: MomentsFn, float: bool) -> Self {
        Moments {
            f,
            n: 0,
            l: [0.0; 2],
            q: [0.0; 3],
            int: (f == MomentsFn::Sum && !float).then(|| Box::new(0)),
        }
    }

    /// The one fold all three paths share: `n` more rows whose sums are
    /// `l(i)` and `q(i, j)` over argument `i` (0 = a, 1 = b). Only the
    /// entries the finalizer reads are asked for.
    #[inline]
    fn add(&mut self, n: u64, l: impl Fn(usize) -> f64, q: impl Fn(usize, usize) -> f64) {
        let [qa, qb, qab] = self.f.reads_q();
        self.n += n;
        self.l[0] += l(0);
        if self.f.arity() == 2 {
            self.l[1] += l(1);
        }
        if qa {
            self.q[0] += q(0, 0);
        }
        if qb {
            self.q[1] += q(1, 1);
        }
        if qab {
            self.q[2] += q(0, 1);
        }
    }

    /// Folds one row's numeric arguments (`b` is unused at arity 1).
    #[inline]
    fn push(&mut self, a: f64, b: f64) {
        let x = [a, b];
        self.add(1, |i| x[i], |i, j| x[i] * x[j]);
    }

    /// Folds one row; a NULL or non-numeric argument skips it, per SQL.
    fn update(&mut self, args: &[Value]) {
        let Some(a) = args.first().and_then(Value::as_f64) else {
            return;
        };
        let b = if self.f.arity() == 2 {
            match args.get(1).and_then(Value::as_f64) {
                Some(b) => b,
                None => return,
            }
        } else {
            0.0
        };
        if let Some(lane) = &mut self.int {
            match args[0] {
                Value::Int(i) => **lane += i128::from(i),
                _ => self.int = None,
            }
        }
        self.push(a, b);
    }

    /// Folds a column block over the call's terms; a row counts when
    /// `selection` keeps it and no term column is NULL in it.
    fn fold_block(
        &mut self,
        block: &ColumnBlock,
        a: &BlockTerm,
        b: Option<&BlockTerm>,
        selection: Option<&[u64]>,
        buf: &mut Vec<u64>,
    ) {
        let active = match b {
            None => build_active(block, a.slots(), selection, buf),
            Some(b) => build_active(block, a.slots().chain(b.slots()), selection, buf),
        };
        let rows = active.map_or(block.len(), bitmap_count_ones);
        let t = [a, b.unwrap_or(a)];
        self.add(
            rows as u64,
            |i| term_sum(block, t[i], None, active, rows),
            |i, j| term_sum(block, t[i], Some(t[j]), active, rows),
        );
    }

    /// Folds a summary's stored Γ over the argument dimensions `dims`.
    fn fold_gamma(&mut self, g: &Nlq, dims: &[usize]) {
        let d = [dims[0], dims[dims.len() - 1]];
        // The lower triangle of Q is valid for every stored shape.
        let q = |i: usize, j: usize| g.q_raw()[(d[i].max(d[j]), d[i].min(d[j]))];
        self.add(g.n() as u64, |i| g.l()[d[i]], q);
    }

    fn merge(&mut self, o: &Moments) {
        self.n += o.n;
        for (x, y) in self.l.iter_mut().zip(o.l) {
            *x += y;
        }
        for (x, y) in self.q.iter_mut().zip(o.q) {
            *x += y;
        }
        self.int = self.int.take().zip(o.int.as_deref()).map(|(mut x, y)| {
            *x += y;
            x
        });
    }

    /// Γ as `nlq-core` statistics at d = arity, so every statistic
    /// below is `Nlq`'s own derivation.
    fn gamma(&self) -> Result<Nlq> {
        let d = self.f.arity();
        let q = Matrix::from_fn(d, d, |i, j| if i == j { self.q[i] } else { self.q[2] });
        Ok(Nlq::from_parts(
            MatrixShape::Full,
            self.n as f64,
            Vector::from_slice(&self.l[..d]),
            q,
            vec![f64::INFINITY; d],
            vec![f64::NEG_INFINITY; d],
        )?)
    }

    /// Phase 4: the builtin's value, SQL NULL where it is undefined.
    fn finalize(self) -> Result<Value> {
        use MomentsFn::*;
        if self.n == 0 {
            return Ok(Value::Null);
        }
        if self.f == Sum {
            return match self.int {
                None => Ok(Value::Float(self.l[0])),
                Some(s) => i64::try_from(*s).map(Value::Int).map_err(|_| {
                    EngineError::Type(format!("sum out of INT range: {s} does not fit 64 bits"))
                }),
            };
        }
        let g = self.gamma()?;
        let n = g.n();
        let out = match self.f {
            Avg => Some(g.mean()?[0]),
            VarPop => Some(g.variances()?[0]),
            VarSamp | StdDev if n >= 2.0 => {
                let v = g.variances()?[0] * n / (n - 1.0);
                Some(if self.f == StdDev {
                    v.max(0.0).sqrt()
                } else {
                    v
                })
            }
            CovarPop => Some(g.covariance()?[(0, 1)]),
            Corr => g.correlation().ok().map(|r| r[(0, 1)]),
            // The first argument is the dependent variable y, the
            // second x: slope = V_yx / V_xx.
            RegrSlope | RegrIntercept if n >= 2.0 => {
                let v = g.covariance()?;
                let slope = (v[(1, 1)] > 0.0).then(|| v[(0, 1)] / v[(1, 1)]);
                if self.f == RegrSlope {
                    slope
                } else {
                    let mu = g.mean()?;
                    slope.map(|s| mu[0] - s * mu[1])
                }
            }
            _ => None,
        };
        Ok(out.map_or(Value::Null, Value::Float))
    }
}

impl AggAccum {
    pub fn init(call: &AggCall) -> Self {
        match &call.kind {
            AggKind::Count => AggAccum::Count(0),
            AggKind::Min | AggKind::Max => AggAccum::Extremum(Extremum {
                max: matches!(call.kind, AggKind::Max),
                float: call.float,
                best: None,
            }),
            AggKind::Moments(f) => AggAccum::Moments(Moments::new(*f, call.float)),
            AggKind::Udf(udf) => AggAccum::Udf(udf.init()),
        }
    }

    /// Update for a recognized FLOAT fast-path term of `count`, `sum`
    /// or `avg` (`None` means SQL NULL: skipped).
    #[inline]
    pub fn update_fast(&mut self, v: Option<f64>) {
        match (self, v) {
            (AggAccum::Count(n), Some(_)) => *n += 1,
            (AggAccum::Moments(m), Some(x)) => m.push(x, 0.0),
            _ => {}
        }
    }

    /// Folds a whole column block into the accumulator per the planned
    /// [`BlockCall`] — the vectorized counterpart of calling
    /// [`AggAccum::update`]/[`AggAccum::update_fast`] once per row.
    /// `selection` (the compiled `WHERE` bitmap) restricts the
    /// contributing rows; `buf` is reusable active-bitmap scratch.
    pub fn update_block(
        &mut self,
        block: &ColumnBlock,
        call: &BlockCall,
        selection: Option<&[u64]>,
        buf: &mut Vec<u64>,
    ) -> Result<()> {
        match (self, call) {
            (AggAccum::Count(n), BlockCall::Count(term)) => {
                let slots = term.iter().flat_map(BlockTerm::slots);
                let active = build_active(block, slots, selection, buf);
                *n += active.map_or(block.len(), bitmap_count_ones) as i64;
            }
            (AggAccum::Moments(m), BlockCall::Moments(a, b)) => {
                m.fold_block(block, a, b.as_ref(), selection, buf)
            }
            (AggAccum::Extremum(e), BlockCall::Extremum(s)) => {
                let col = block.column(*s).values;
                let bounds = match build_active(block, std::iter::once(*s), selection, buf) {
                    None => Some(kernels::min_max(col)),
                    Some(active) => (bitmap_count_ones(active) > 0)
                        .then(|| kernels::min_max_selected(col, active)),
                };
                if let Some((lo, hi)) = bounds {
                    e.offer(&Value::Float(if e.max { hi } else { lo }));
                }
            }
            (AggAccum::Udf(state), BlockCall::Udf(args)) => {
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

    pub fn update(&mut self, args: &[Value]) -> Result<()> {
        match self {
            AggAccum::Count(n) => {
                if args.first().is_none_or(|v| !v.is_null()) {
                    *n += 1;
                }
            }
            AggAccum::Extremum(e) => e.offer(args.first().unwrap_or(&Value::Null)),
            AggAccum::Moments(m) => m.update(args),
            AggAccum::Udf(state) => state.accumulate(args)?,
        }
        Ok(())
    }

    /// Seeds a builtin's accumulator from a summary's stored Γ over the
    /// call's argument dimensions `dims` (none for `count(*)`): the
    /// summary path folds the same struct the scans fold.
    pub fn fold_gamma(&mut self, g: &Nlq, dims: &[usize]) -> Result<()> {
        match self {
            AggAccum::Count(n) => *n += g.n() as i64,
            AggAccum::Extremum(e) => {
                if g.n() > 0.0 {
                    let bounds = if e.max { g.max() } else { g.min() };
                    e.offer(&Value::Float(bounds[dims[0]]));
                }
            }
            AggAccum::Moments(m) => m.fold_gamma(g, dims),
            AggAccum::Udf(_) => {
                return Err(EngineError::Unsupported(
                    "aggregate UDF state cannot fold a summary's Γ".into(),
                ))
            }
        }
        Ok(())
    }

    pub fn merge(&mut self, other: AggAccum) -> Result<()> {
        match (self, other) {
            (AggAccum::Count(n), AggAccum::Count(o)) => *n += o,
            (AggAccum::Extremum(e), AggAccum::Extremum(o)) => {
                if let Some(v) = &o.best {
                    e.offer(v);
                }
            }
            (AggAccum::Moments(m), AggAccum::Moments(o)) => m.merge(&o),
            (AggAccum::Udf(state), AggAccum::Udf(o)) => state.merge(o.as_ref())?,
            _ => {
                return Err(EngineError::Unsupported(
                    "mismatched aggregate accumulators in merge".into(),
                ))
            }
        }
        Ok(())
    }

    pub fn finalize(self) -> Result<Value> {
        Ok(match self {
            AggAccum::Count(n) => Value::Int(n),
            AggAccum::Extremum(e) => e.best.unwrap_or(Value::Null),
            AggAccum::Moments(m) => m.finalize()?,
            AggAccum::Udf(state) => state.finalize()?,
        })
    }
}

/// Composes the predicate selection with the validity bitmaps of the
/// given column slots into one active-row bitmap. Returns `None` when every
/// row is active (no selection, all columns dense) — the dense kernels
/// apply; the selection itself when the columns are dense; otherwise
/// fills `buf` (`bitmap_words(len)` words, bits past the block length
/// zero) and returns it.
fn build_active<'a>(
    block: &ColumnBlock,
    slots: impl Iterator<Item = usize> + Clone,
    selection: Option<&'a [u64]>,
    buf: &'a mut Vec<u64>,
) -> Option<&'a [u64]> {
    if slots.clone().all(|s| block.column(s).is_dense()) {
        return selection;
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
    for s in slots {
        if let Some(validity) = block.column(s).validity() {
            for (w, v) in buf.iter_mut().zip(validity) {
                *w &= v;
            }
        }
    }
    Some(buf)
}

/// Σ over the active rows of term `x` (times term `y`, when given);
/// `rows` is the active-row count. Second moments are planned over
/// columns only.
fn term_sum(
    block: &ColumnBlock,
    x: &BlockTerm,
    y: Option<&BlockTerm>,
    active: Option<&[u64]>,
    rows: usize,
) -> f64 {
    let col = |s: usize| block.column(s).values;
    let (s, t) = match (x, y) {
        (BlockTerm::Const(c), None) => return c * rows as f64,
        (BlockTerm::Col(s), None) => {
            return match active {
                None => kernels::sum(col(*s)),
                Some(active) => kernels::sum_selected(col(*s), active),
            }
        }
        (BlockTerm::Prod(s, t), None) | (BlockTerm::Col(s), Some(BlockTerm::Col(t))) => (*s, *t),
        _ => unreachable!("second moments are planned over columns only"),
    };
    match active {
        None => kernels::dot(col(s), col(t)),
        Some(active) => kernels::dot_selected(col(s), col(t), active),
    }
}
