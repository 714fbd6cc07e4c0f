use std::any::Any;

use nlq_storage::{ColumnBlock, Value};

use crate::{Result, UdfError};

/// The single heap segment a UDF may allocate (§2.2: "the amount of
/// memory that can be allocated is somewhat low and it is currently
/// limited to one 64 kb segment").
pub const UDF_HEAP_LIMIT: usize = 64 * 1024;

/// A scalar UDF: called once per row, returns one value, keeps no
/// state between rows (§2.2: "scalar functions cannot keep values in
/// main memory from row to row").
///
/// Implementations must be pure functions of their arguments.
pub trait ScalarUdf: Send + Sync {
    /// SQL-visible function name (matched case-insensitively).
    fn name(&self) -> &str;

    /// Evaluates the function on one row's argument values.
    ///
    /// Following SQL convention, implementations return `Value::Null`
    /// when any input argument is NULL.
    fn eval(&self, args: &[Value]) -> Result<Value>;

    /// Optional columnar fast path: evaluates the function over a
    /// whole block of `rows` rows at once, pushing one result per row
    /// onto `out`. Returns `Ok(false)` to decline (the caller then
    /// falls back to row-at-a-time [`ScalarUdf::eval`]); `Ok(true)`
    /// after filling `out`.
    ///
    /// Implementations must produce, for every row `i`, exactly the
    /// value `eval` would return for that row's materialized
    /// arguments, and may only raise errors that are uniform across
    /// rows (arity, argument types) — callers may evaluate rows a
    /// `WHERE` predicate would have excluded.
    ///
    /// The default boxes the result of [`ScalarUdf::eval_batch_f64`]
    /// (`Value::Float`, or `Value::Null` where invalid), so a
    /// float-valued UDF implements only that.
    fn eval_batch(
        &self,
        args: &[ScalarBatchArg<'_>],
        rows: usize,
        out: &mut Vec<Value>,
    ) -> Result<bool> {
        let mut batch = FloatBatch::default();
        if !self.eval_batch_f64(args, rows, &mut batch)? {
            return Ok(false);
        }
        out.reserve(rows);
        for (vals, &word) in batch.values.chunks(64).zip(&batch.validity) {
            if word.count_ones() as usize == vals.len() {
                out.extend(vals.iter().map(|&v| Value::Float(v)));
            } else {
                out.extend(vals.iter().enumerate().map(|(b, &v)| {
                    if word >> b & 1 == 1 {
                        Value::Float(v)
                    } else {
                        Value::Null
                    }
                }));
            }
        }
        Ok(true)
    }

    /// Optional unboxed columnar fast path for float-valued UDFs: like
    /// [`ScalarUdf::eval_batch`], but overwrites `out` with `rows`
    /// `f64` results plus their validity (`Value::Null` rows are
    /// invalid). The same contract holds: row `i` must be exactly what
    /// `eval` returns for it (a `Value::Float` with the same bits, or
    /// NULL), and only row-uniform errors may be raised. Returns
    /// `Ok(false)` to decline.
    fn eval_batch_f64(
        &self,
        args: &[ScalarBatchArg<'_>],
        rows: usize,
        out: &mut FloatBatch,
    ) -> Result<bool> {
        let _ = (args, rows, out);
        Ok(false)
    }
}

/// A block of float results in the storage block layout: one `f64`
/// per row plus an LSB-ordered validity bitmap (set bit = valid,
/// `bitmap_words(values.len())` words, bits past the row count zero).
/// Invalid (NULL) slots hold an arbitrary value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FloatBatch {
    /// One value per row.
    pub values: Vec<f64>,
    /// Validity bitmap over `values`.
    pub validity: Vec<u64>,
}

impl FloatBatch {
    /// Whether row `i` is non-NULL.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        nlq_storage::bitmap_get(&self.validity, i)
    }

    /// Row `i` as a [`Value`]: `Float`, or `Null` where invalid.
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        if self.is_valid(i) {
            Value::Float(self.values[i])
        } else {
            Value::Null
        }
    }
}

/// One argument position of a columnar [`ScalarUdf::eval_batch`] call.
#[derive(Debug, Clone, Copy)]
pub enum ScalarBatchArg<'a> {
    /// Per-row values, one per block row. `validity` is an LSB-ordered
    /// bitmap (set bit = valid, bits past the row count are zero);
    /// `None` means no NULLs. NULL slots hold an arbitrary value.
    Col {
        /// The dense per-row values.
        values: &'a [f64],
        /// Validity bitmap; `None` when every row is valid.
        validity: Option<&'a [u64]>,
    },
    /// A literal argument, identical on every row.
    Const(&'a Value),
}

impl ScalarBatchArg<'_> {
    /// The argument's numeric value on row `i`; `None` for SQL NULL.
    #[inline]
    pub fn at(&self, i: usize) -> Option<f64> {
        match self {
            ScalarBatchArg::Col { values, validity } => match validity {
                Some(words) => nlq_storage::bitmap_get(words, i).then(|| values[i]),
                None => Some(values[i]),
            },
            ScalarBatchArg::Const(v) => v.as_f64(),
        }
    }
}

/// An aggregate UDF: definition object that creates per-group,
/// per-worker state.
///
/// Execution follows the four run-time phases of §3.4:
/// 1. **Initialization** — [`AggregateUdf::init`] allocates the state
///    (checked against [`UDF_HEAP_LIMIT`] by the caller via
///    [`AggregateState::heap_bytes`]).
/// 2. **Row aggregation** — [`AggregateState::accumulate`], executed
///    `n` times; the hot path.
/// 3. **Partial result aggregation** — [`AggregateState::merge`]
///    combines per-worker partials on a master thread.
/// 4. **Returning results** — [`AggregateState::finalize`] packs the
///    result into a single simple value.
pub trait AggregateUdf: Send + Sync {
    /// SQL-visible function name (matched case-insensitively).
    fn name(&self) -> &str;

    /// Phase 1: allocates fresh aggregation state.
    fn init(&self) -> Box<dyn AggregateState>;
}

/// Where one aggregate-call argument position comes from when a whole
/// [`ColumnBlock`] is aggregated at once.
///
/// A call like `nlq_list(4, 'triang', X1, X2, X3, X4)` becomes the
/// batch argument list `[Const(4), Const('triang'), Col(0), Col(1),
/// Col(2), Col(3)]` where `Col(i)` indexes the block's projection.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchArg {
    /// A literal argument, identical on every row of the block.
    Const(Value),
    /// Index of a float column within the block's projection.
    Col(usize),
}

/// Mutable aggregation state for one group on one worker.
pub trait AggregateState: Send {
    /// Phase 2: folds one row's argument values into the state.
    fn accumulate(&mut self, args: &[Value]) -> Result<()>;

    /// Phase 2, vectorized: folds a whole column block into the state.
    ///
    /// `args[i]` describes where the `i`-th argument of each logical
    /// [`AggregateState::accumulate`] call comes from. `selection` is
    /// an optional LSB-ordered bitmap over the block's rows (set bit =
    /// row passed the `WHERE` predicate, bits past `block.len()` are
    /// zero); `None` means every row participates. The default
    /// implementation re-materializes per-row argument vectors and
    /// delegates to `accumulate` — correct for every state, so
    /// implementing it is optional; high-volume states override it
    /// with columnar kernels (see the `nlq_list` state).
    fn accumulate_batch(
        &mut self,
        block: &ColumnBlock,
        args: &[BatchArg],
        selection: Option<&[u64]>,
    ) -> Result<()> {
        for_each_row_args(block, args, selection, |row| self.accumulate(row))
    }

    /// Phase 3: folds another worker's partial state into this one.
    ///
    /// Implementations downcast `other` via [`AggregateState::as_any`]
    /// and must return [`UdfError::MergeMismatch`] if the states are
    /// incompatible (different UDF, different parameters).
    fn merge(&mut self, other: &dyn AggregateState) -> Result<()>;

    /// Phase 4: produces the final value, consuming the state.
    fn finalize(self: Box<Self>) -> Result<Value>;

    /// Heap footprint of this state in bytes; callers enforce
    /// [`UDF_HEAP_LIMIT`].
    fn heap_bytes(&self) -> usize;

    /// Downcast support for [`AggregateState::merge`].
    fn as_any(&self) -> &dyn Any;
}

/// Replays a [`ColumnBlock`] row by row, materializing each selected
/// row's argument vector per `args` and passing it to `f` — the
/// row-wise fallback behind the default
/// [`AggregateState::accumulate_batch`]. Rows whose `selection` bit is
/// clear are skipped entirely (they failed the `WHERE` predicate).
/// States overriding that method can call this for argument shapes
/// their columnar kernels do not cover.
pub fn for_each_row_args(
    block: &ColumnBlock,
    args: &[BatchArg],
    selection: Option<&[u64]>,
    mut f: impl FnMut(&[Value]) -> Result<()>,
) -> Result<()> {
    let mut row_args: Vec<Value> = Vec::with_capacity(args.len());
    for i in 0..block.len() {
        if let Some(sel) = selection {
            if !nlq_storage::bitmap_get(sel, i) {
                continue;
            }
        }
        row_args.clear();
        for a in args {
            row_args.push(match a {
                BatchArg::Const(v) => v.clone(),
                BatchArg::Col(c) => {
                    let col = block.column(*c);
                    if col.is_null(i) {
                        Value::Null
                    } else {
                        Value::Float(col.values[i])
                    }
                }
            });
        }
        f(&row_args)?;
    }
    Ok(())
}

/// Checks a freshly initialized state against the heap budget; call
/// after [`AggregateUdf::init`].
pub fn check_heap(udf: &str, state: &dyn AggregateState) -> Result<()> {
    let needed = state.heap_bytes();
    if needed > UDF_HEAP_LIMIT {
        return Err(UdfError::HeapExceeded {
            udf: udf.to_owned(),
            needed,
            limit: UDF_HEAP_LIMIT,
        });
    }
    Ok(())
}

/// Extracts a required float argument (ints widen), reporting the UDF
/// name and position on failure. Returns `None` for SQL NULL.
pub(crate) fn float_arg(udf: &str, args: &[Value], idx: usize) -> Result<Option<f64>> {
    match args.get(idx) {
        None => Err(UdfError::WrongArity {
            udf: udf.to_owned(),
            expected: format!("at least {}", idx + 1),
            got: args.len(),
        }),
        Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| UdfError::InvalidArgument {
                udf: udf.to_owned(),
                message: format!("argument {} must be numeric, got {v:?}", idx + 1),
            }),
    }
}

/// Extracts a required positive integer argument.
pub(crate) fn usize_arg(udf: &str, args: &[Value], idx: usize) -> Result<usize> {
    let v = float_arg(udf, args, idx)?.ok_or_else(|| UdfError::InvalidArgument {
        udf: udf.to_owned(),
        message: format!("argument {} must not be NULL", idx + 1),
    })?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(UdfError::InvalidArgument {
            udf: udf.to_owned(),
            message: format!(
                "argument {} must be a non-negative integer, got {v}",
                idx + 1
            ),
        });
    }
    Ok(v as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountState {
        n: i64,
    }

    impl AggregateState for CountState {
        fn accumulate(&mut self, _args: &[Value]) -> Result<()> {
            self.n += 1;
            Ok(())
        }
        fn merge(&mut self, other: &dyn AggregateState) -> Result<()> {
            let other = other.as_any().downcast_ref::<CountState>().ok_or_else(|| {
                UdfError::MergeMismatch {
                    udf: "count".into(),
                    message: "type".into(),
                }
            })?;
            self.n += other.n;
            Ok(())
        }
        fn finalize(self: Box<Self>) -> Result<Value> {
            Ok(Value::Int(self.n))
        }
        fn heap_bytes(&self) -> usize {
            std::mem::size_of::<Self>()
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn four_phase_protocol_works() {
        let mut a = CountState { n: 0 };
        let mut b = CountState { n: 0 };
        for _ in 0..3 {
            a.accumulate(&[]).unwrap();
        }
        for _ in 0..4 {
            b.accumulate(&[]).unwrap();
        }
        a.merge(&b).unwrap();
        let v = Box::new(a).finalize().unwrap();
        assert_eq!(v, Value::Int(7));
    }

    #[test]
    fn default_accumulate_batch_matches_rowwise() {
        use nlq_storage::{Column, DataType, Schema, Table};

        struct SumState {
            total: f64,
            rows: usize,
        }
        impl AggregateState for SumState {
            fn accumulate(&mut self, args: &[Value]) -> Result<()> {
                self.rows += 1;
                if let Some(v) = args[1].as_f64() {
                    self.total += v + args[0].as_f64().unwrap_or(0.0);
                }
                Ok(())
            }
            fn merge(&mut self, _: &dyn AggregateState) -> Result<()> {
                Ok(())
            }
            fn finalize(self: Box<Self>) -> Result<Value> {
                Ok(Value::Float(self.total))
            }
            fn heap_bytes(&self) -> usize {
                std::mem::size_of::<Self>()
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }

        let mut t = Table::new(Schema::new(vec![Column::new("x", DataType::Float)]), 1);
        for i in 0..5 {
            let v = if i == 2 {
                Value::Null
            } else {
                Value::Float(i as f64)
            };
            t.insert(vec![v]).unwrap();
        }
        let mut iter = t.scan_partition_blocks(0, &[0]).unwrap();
        let block = iter.next_block().unwrap().unwrap();

        let mut s = SumState {
            total: 0.0,
            rows: 0,
        };
        let args = [BatchArg::Const(Value::Float(10.0)), BatchArg::Col(0)];
        s.accumulate_batch(&block, &args, None).unwrap();
        // Rows 0, 1, 3, 4 contribute value + 10; the NULL row is seen
        // but contributes nothing.
        assert_eq!(s.rows, 5);
        assert_eq!(s.total, (0.0 + 1.0 + 3.0 + 4.0) + 4.0 * 10.0);

        // With a selection keeping rows 1 and 3 only, unselected rows
        // are never even presented to the state.
        let mut s = SumState {
            total: 0.0,
            rows: 0,
        };
        let selection = [0b01010u64];
        s.accumulate_batch(&block, &args, Some(&selection)).unwrap();
        assert_eq!(s.rows, 2);
        assert_eq!(s.total, (1.0 + 3.0) + 2.0 * 10.0);
    }

    #[test]
    fn heap_check_accepts_small_state() {
        let s = CountState { n: 0 };
        assert!(check_heap("count", &s).is_ok());
    }

    struct HugeState;

    impl AggregateState for HugeState {
        fn accumulate(&mut self, _: &[Value]) -> Result<()> {
            Ok(())
        }
        fn merge(&mut self, _: &dyn AggregateState) -> Result<()> {
            Ok(())
        }
        fn finalize(self: Box<Self>) -> Result<Value> {
            Ok(Value::Null)
        }
        fn heap_bytes(&self) -> usize {
            UDF_HEAP_LIMIT + 1
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn heap_check_rejects_oversized_state() {
        assert!(matches!(
            check_heap("huge", &HugeState),
            Err(UdfError::HeapExceeded { .. })
        ));
    }

    #[test]
    fn float_arg_handles_types() {
        let args = vec![
            Value::Int(2),
            Value::Float(1.5),
            Value::Null,
            Value::from("x"),
        ];
        assert_eq!(float_arg("f", &args, 0).unwrap(), Some(2.0));
        assert_eq!(float_arg("f", &args, 1).unwrap(), Some(1.5));
        assert_eq!(float_arg("f", &args, 2).unwrap(), None);
        assert!(float_arg("f", &args, 3).is_err());
        assert!(matches!(
            float_arg("f", &args, 9),
            Err(UdfError::WrongArity { .. })
        ));
    }

    #[test]
    fn usize_arg_validates() {
        assert_eq!(usize_arg("f", &[Value::Int(5)], 0).unwrap(), 5);
        assert!(usize_arg("f", &[Value::Float(1.5)], 0).is_err());
        assert!(usize_arg("f", &[Value::Int(-1)], 0).is_err());
        assert!(usize_arg("f", &[Value::Null], 0).is_err());
    }
}
