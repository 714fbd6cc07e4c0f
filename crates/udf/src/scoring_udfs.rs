use nlq_models::scoring;
use nlq_storage::{bitmap_mask_tail, bitmap_words, Value};

use crate::framework::{float_arg, FloatBatch, ScalarBatchArg, ScalarUdf};
use crate::{Result, UdfError};

/// Collects `count` float arguments starting at `from`; `Ok(None)`
/// signals a NULL input (SQL semantics: the UDF returns NULL).
fn float_slice(udf: &str, args: &[Value], from: usize, count: usize) -> Result<Option<Vec<f64>>> {
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        match float_arg(udf, args, from + i)? {
            Some(v) => out.push(v),
            None => return Ok(None),
        }
    }
    Ok(Some(out))
}

/// One [`ScalarBatchArg`] lowered for the column kernels: a column
/// cut to the batch's rows, or a constant resolved to a plain float
/// once (a NULL constant lowers to `0.0` and clears every validity
/// bit instead).
#[derive(Clone, Copy)]
enum Src<'a> {
    Col(&'a [f64]),
    Lit(f64),
}

/// Lowers batch arguments and sets `out` up for `rows` results: the
/// validity bitmap is the AND of every argument's (a NULL argument
/// makes the row NULL, exactly as on the row path), and the values
/// start at `init`. Raises the per-constant type errors the row
/// path's [`float_arg`] would raise on every row.
fn lower<'a>(
    udf: &str,
    args: &'a [ScalarBatchArg<'a>],
    rows: usize,
    init: f64,
    out: &mut FloatBatch,
) -> Result<Vec<Src<'a>>> {
    out.values.clear();
    out.values.resize(rows, init);
    out.validity.clear();
    out.validity.resize(bitmap_words(rows), !0u64);
    bitmap_mask_tail(&mut out.validity, rows);
    args.iter()
        .enumerate()
        .map(|(i, a)| {
            Ok(match a {
                ScalarBatchArg::Col { values, validity } => {
                    if let Some(m) = validity {
                        for (w, v) in out.validity.iter_mut().zip(*m) {
                            *w &= v;
                        }
                    }
                    Src::Col(&values[..rows])
                }
                ScalarBatchArg::Const(Value::Null) => {
                    out.validity.fill(0);
                    Src::Lit(0.0)
                }
                ScalarBatchArg::Const(v) => {
                    Src::Lit(v.as_f64().ok_or_else(|| UdfError::InvalidArgument {
                        udf: udf.to_owned(),
                        message: format!("argument {} must be numeric, got {v:?}", i + 1),
                    })?)
                }
            })
        })
        .collect()
}

/// One column pass: `acc[i] = f(acc[i], a[i], b[i])` for every row,
/// with each constant/column combination its own straight loop.
#[inline(always)]
fn pass(acc: &mut [f64], a: Src<'_>, b: Src<'_>, f: impl Fn(f64, f64, f64) -> f64) {
    match (a, b) {
        (Src::Col(a), Src::Col(b)) => {
            for ((s, &x), &y) in acc.iter_mut().zip(a).zip(b) {
                *s = f(*s, x, y);
            }
        }
        (Src::Col(a), Src::Lit(y)) => {
            for (s, &x) in acc.iter_mut().zip(a) {
                *s = f(*s, x, y);
            }
        }
        (Src::Lit(x), Src::Col(b)) => {
            for (s, &y) in acc.iter_mut().zip(b) {
                *s = f(*s, x, y);
            }
        }
        (Src::Lit(x), Src::Lit(y)) => {
            for s in acc.iter_mut() {
                *s = f(*s, x, y);
            }
        }
    }
}

/// `linearregscore(X1..Xd, β0, β1..βd)` — the regression scoring UDF
/// (§3.5): returns `ŷ = β₀ + βᵀx`. Arity is `2d + 1`; `d` is inferred.
///
/// The paper stores the model as the one-row table `BETA(β1..βd)` and
/// cross-joins it with `X`, so each row's call receives both the point
/// and the coefficients.
pub struct LinearRegScoreUdf;

impl ScalarUdf for LinearRegScoreUdf {
    fn name(&self) -> &str {
        "linearregscore"
    }

    fn eval(&self, args: &[Value]) -> Result<Value> {
        if args.len() < 3 || args.len().is_multiple_of(2) {
            return Err(UdfError::WrongArity {
                udf: self.name().into(),
                expected: "2d + 1 (X1..Xd, b0, b1..bd)".into(),
                got: args.len(),
            });
        }
        let d = (args.len() - 1) / 2;
        let Some(x) = float_slice(self.name(), args, 0, d)? else {
            return Ok(Value::Null);
        };
        let Some(b0) = float_arg(self.name(), args, d)? else {
            return Ok(Value::Null);
        };
        let Some(beta) = float_slice(self.name(), args, d + 1, d)? else {
            return Ok(Value::Null);
        };
        Ok(Value::Float(scoring::linear_reg_score(&x, b0, &beta)))
    }

    fn eval_batch_f64(
        &self,
        args: &[ScalarBatchArg<'_>],
        rows: usize,
        out: &mut FloatBatch,
    ) -> Result<bool> {
        if args.len() < 3 || args.len().is_multiple_of(2) {
            return Err(UdfError::WrongArity {
                udf: self.name().into(),
                expected: "2d + 1 (X1..Xd, b0, b1..bd)".into(),
                got: args.len(),
            });
        }
        let d = (args.len() - 1) / 2;
        // `β₀ + Σ xⱼβⱼ` in `scoring::linear_reg_score`'s order: the dot
        // product from -0.0 left to right, then the intercept on the
        // left.
        let srcs = lower(self.name(), args, rows, -0.0, out)?;
        for j in 0..d {
            pass(&mut out.values, srcs[j], srcs[d + 1 + j], |s, x, b| {
                s + x * b
            });
        }
        pass(&mut out.values, srcs[d], srcs[d], |s, b0, _| b0 + s);
        Ok(true)
    }
}

/// `fascore(X1..Xd, μ1..μd, Λ1j..Λdj)` — the PCA / factor analysis
/// scoring UDF (§3.5): returns the `j`-th coordinate of the reduced
/// vector, `Λ_jᵀ (x − μ)`. Arity is `3d`.
///
/// "This UDF is called k times in the same SELECT statement with
/// j = 1..k to obtain x'_i" — one call per component, because UDFs
/// cannot return vectors.
pub struct FaScoreUdf;

impl ScalarUdf for FaScoreUdf {
    fn name(&self) -> &str {
        "fascore"
    }

    fn eval(&self, args: &[Value]) -> Result<Value> {
        if args.is_empty() || !args.len().is_multiple_of(3) {
            return Err(UdfError::WrongArity {
                udf: self.name().into(),
                expected: "3d (X1..Xd, mu1..mud, l1..ld)".into(),
                got: args.len(),
            });
        }
        let d = args.len() / 3;
        let (Some(x), Some(mu), Some(lam)) = (
            float_slice(self.name(), args, 0, d)?,
            float_slice(self.name(), args, d, d)?,
            float_slice(self.name(), args, 2 * d, d)?,
        ) else {
            return Ok(Value::Null);
        };
        Ok(Value::Float(scoring::fa_score(&x, &mu, &lam)))
    }

    fn eval_batch_f64(
        &self,
        args: &[ScalarBatchArg<'_>],
        rows: usize,
        out: &mut FloatBatch,
    ) -> Result<bool> {
        if args.is_empty() || !args.len().is_multiple_of(3) {
            return Err(UdfError::WrongArity {
                udf: self.name().into(),
                expected: "3d (X1..Xd, mu1..mud, l1..ld)".into(),
                got: args.len(),
            });
        }
        let d = args.len() / 3;
        // `Σ λⱼ·(xⱼ − μⱼ)` from 0.0, as `scoring::fa_score` sums.
        let srcs = lower(self.name(), args, rows, 0.0, out)?;
        let mut centred = vec![0.0; rows];
        for j in 0..d {
            pass(&mut centred, srcs[j], srcs[d + j], |_, x, mu| x - mu);
            pass(
                &mut out.values,
                srcs[2 * d + j],
                Src::Col(&centred),
                |s, l, c| s + l * c,
            );
        }
        Ok(true)
    }
}

/// `distance(X1..Xd, C1j..Cdj)` — squared Euclidean distance to one
/// centroid (§3.5). Arity is `2d`. Called `k` times per row for
/// clustering scoring.
pub struct DistanceUdf;

impl ScalarUdf for DistanceUdf {
    fn name(&self) -> &str {
        "distance"
    }

    fn eval(&self, args: &[Value]) -> Result<Value> {
        if args.is_empty() || !args.len().is_multiple_of(2) {
            return Err(UdfError::WrongArity {
                udf: self.name().into(),
                expected: "2d (X1..Xd, C1..Cd)".into(),
                got: args.len(),
            });
        }
        let d = args.len() / 2;
        let (Some(x), Some(c)) = (
            float_slice(self.name(), args, 0, d)?,
            float_slice(self.name(), args, d, d)?,
        ) else {
            return Ok(Value::Null);
        };
        Ok(Value::Float(scoring::squared_distance(&x, &c)))
    }

    fn eval_batch_f64(
        &self,
        args: &[ScalarBatchArg<'_>],
        rows: usize,
        out: &mut FloatBatch,
    ) -> Result<bool> {
        if args.is_empty() || !args.len().is_multiple_of(2) {
            return Err(UdfError::WrongArity {
                udf: self.name().into(),
                expected: "2d (X1..Xd, C1..Cd)".into(),
                got: args.len(),
            });
        }
        let d = args.len() / 2;
        // `Σ (xⱼ − cⱼ)²` from 0.0, as `scoring::squared_distance` sums.
        let srcs = lower(self.name(), args, rows, 0.0, out)?;
        for j in 0..d {
            pass(&mut out.values, srcs[j], srcs[d + j], |s, x, c| {
                let diff = x - c;
                s + diff * diff
            });
        }
        Ok(true)
    }
}

/// `clusterscore(d1..dk)` — nearest-centroid selection (§3.5): returns
/// the 1-based subscript `J` such that `d_J ≤ d_j` for all `j`,
/// matching the paper's `j = 1..k` cluster numbering.
pub struct ClusterScoreUdf;

impl ScalarUdf for ClusterScoreUdf {
    fn name(&self) -> &str {
        "clusterscore"
    }

    fn eval(&self, args: &[Value]) -> Result<Value> {
        if args.is_empty() {
            return Err(UdfError::WrongArity {
                udf: self.name().into(),
                expected: "k >= 1 distances".into(),
                got: 0,
            });
        }
        let Some(dists) = float_slice(self.name(), args, 0, args.len())? else {
            return Ok(Value::Null);
        };
        Ok(Value::Int(scoring::nearest_centroid(&dists) as i64 + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn floats(vals: &[f64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Float(v)).collect()
    }

    #[test]
    fn linearregscore_computes_prediction() {
        // x = (1, 2), b0 = 10, beta = (3, 4) -> 10 + 3 + 8 = 21
        let udf = LinearRegScoreUdf;
        let out = udf.eval(&floats(&[1.0, 2.0, 10.0, 3.0, 4.0])).unwrap();
        assert_eq!(out, Value::Float(21.0));
    }

    #[test]
    fn linearregscore_rejects_even_arity() {
        let udf = LinearRegScoreUdf;
        assert!(matches!(
            udf.eval(&floats(&[1.0, 2.0, 3.0, 4.0])),
            Err(UdfError::WrongArity { .. })
        ));
    }

    #[test]
    fn fascore_projects_centered_point() {
        // x=(3,4), mu=(1,1), lambda=(0.5,0.25) -> 1.75
        let udf = FaScoreUdf;
        let out = udf.eval(&floats(&[3.0, 4.0, 1.0, 1.0, 0.5, 0.25])).unwrap();
        assert_eq!(out, Value::Float(1.75));
    }

    #[test]
    fn distance_is_squared_euclidean() {
        let udf = DistanceUdf;
        let out = udf.eval(&floats(&[0.0, 0.0, 3.0, 4.0])).unwrap();
        assert_eq!(out, Value::Float(25.0));
    }

    #[test]
    fn clusterscore_returns_one_based_argmin() {
        let udf = ClusterScoreUdf;
        assert_eq!(udf.eval(&floats(&[5.0, 1.0, 3.0])).unwrap(), Value::Int(2));
        assert_eq!(udf.eval(&floats(&[0.5])).unwrap(), Value::Int(1));
        // Tie resolves to the lowest subscript, like the paper's <=.
        assert_eq!(udf.eval(&floats(&[2.0, 2.0])).unwrap(), Value::Int(1));
    }

    #[test]
    fn null_inputs_yield_null() {
        let mut args = floats(&[1.0, 2.0, 10.0, 3.0, 4.0]);
        args[1] = Value::Null;
        assert_eq!(LinearRegScoreUdf.eval(&args).unwrap(), Value::Null);

        let mut args = floats(&[0.0, 0.0, 3.0, 4.0]);
        args[3] = Value::Null;
        assert_eq!(DistanceUdf.eval(&args).unwrap(), Value::Null);

        assert_eq!(
            ClusterScoreUdf
                .eval(&[Value::Float(1.0), Value::Null])
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn non_numeric_inputs_error() {
        let args = vec![Value::from("x"), Value::Float(1.0), Value::Float(1.0)];
        assert!(LinearRegScoreUdf.eval(&args).is_err());
    }

    #[test]
    fn eval_batch_matches_row_eval() {
        // Mixed argument shapes: a dense column, a column with a NULL
        // hole, and constants — the batch result must equal calling
        // `eval` on each row's materialized arguments.
        let x1 = [1.0, 2.0, 3.0, 4.0, 5.0];
        let x2 = [0.5, -1.0, 2.5, 0.0, 9.0];
        let validity = [0b10111u64]; // row 3 of x2 is NULL
        let (b0, b1, b2) = (Value::Float(10.0), Value::Float(3.0), Value::Float(-2.0));
        let args = [
            ScalarBatchArg::Col {
                values: &x1,
                validity: None,
            },
            ScalarBatchArg::Col {
                values: &x2,
                validity: Some(&validity),
            },
            ScalarBatchArg::Const(&b0),
            ScalarBatchArg::Const(&b1),
            ScalarBatchArg::Const(&b2),
        ];
        let mut out = Vec::new();
        assert!(LinearRegScoreUdf
            .eval_batch(&args, x1.len(), &mut out)
            .unwrap());
        assert_eq!(out.len(), x1.len());
        for i in 0..x1.len() {
            let row = vec![
                Value::Float(x1[i]),
                if i == 3 {
                    Value::Null
                } else {
                    Value::Float(x2[i])
                },
                b0.clone(),
                b1.clone(),
                b2.clone(),
            ];
            assert_eq!(out[i], LinearRegScoreUdf.eval(&row).unwrap(), "row {i}");
        }

        // Property: every scoring kernel, over random argument shapes
        // (dense and masked columns, float / int / NULL constants)
        // and values that include ±0.0, equals `eval` on each row bit
        // for bit — through both `eval_batch_f64` and the boxed
        // `eval_batch`.
        // (UDF, arguments per dimension, extra arguments)
        let udfs: [(&dyn ScalarUdf, usize, usize); 3] = [
            (&LinearRegScoreUdf, 2, 1),
            (&FaScoreUdf, 3, 0),
            (&DistanceUdf, 2, 0),
        ];
        nlq_testkit::run_cases(96, 0x5c_0e_e9, |rng| {
            let (udf, per_d, extra) = udfs[rng.range_usize(0, 2)];
            let args_n = per_d * rng.range_usize(1, 5) + extra;
            let rows = rng.range_usize(0, 150);
            let pick = |rng: &mut nlq_testkit::Rng| match rng.range_usize(0, 3) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.range_f64(-4.0, 4.0),
            };
            let mut columns: Vec<(Vec<f64>, Option<Vec<u64>>)> = Vec::new();
            let mut consts: Vec<Value> = Vec::new();
            let mut shape = Vec::new(); // true = column
            for _ in 0..args_n {
                if rng.chance(0.6) {
                    let values: Vec<f64> = (0..rows).map(|_| pick(rng)).collect();
                    let validity = rng.chance(0.5).then(|| {
                        let mut w = vec![0u64; bitmap_words(rows)];
                        for i in 0..rows {
                            if !rng.chance(0.15) {
                                w[i >> 6] |= 1 << (i & 63);
                            }
                        }
                        w
                    });
                    columns.push((values, validity));
                    shape.push(true);
                } else {
                    consts.push(match rng.range_usize(0, 9) {
                        0 => Value::Null,
                        1 => Value::Int(rng.range_i64(-3, 3)),
                        _ => Value::Float(pick(rng)),
                    });
                    shape.push(false);
                }
            }
            let (mut ci, mut ki) = (0, 0);
            let args: Vec<ScalarBatchArg> = shape
                .iter()
                .map(|&is_col| {
                    if is_col {
                        ci += 1;
                        ScalarBatchArg::Col {
                            values: &columns[ci - 1].0,
                            validity: columns[ci - 1].1.as_deref(),
                        }
                    } else {
                        ki += 1;
                        ScalarBatchArg::Const(&consts[ki - 1])
                    }
                })
                .collect();
            let mut batch = FloatBatch::default();
            assert!(udf.eval_batch_f64(&args, rows, &mut batch).unwrap());
            assert_eq!(batch.values.len(), rows);
            let mut boxed = Vec::new();
            assert!(udf.eval_batch(&args, rows, &mut boxed).unwrap());
            assert_eq!(boxed.len(), rows);
            for (i, boxed) in boxed.iter().enumerate() {
                let row: Vec<Value> = args
                    .iter()
                    .map(|a| match a {
                        ScalarBatchArg::Const(v) => (*v).clone(),
                        col => col.at(i).map_or(Value::Null, Value::Float),
                    })
                    .collect();
                let want = udf.eval(&row).unwrap();
                for got in [batch.value(i), boxed.clone()] {
                    match (&want, &got) {
                        (Value::Float(w), Value::Float(g)) => {
                            assert_eq!(w.to_bits(), g.to_bits(), "{} row {i}", udf.name())
                        }
                        _ => assert_eq!(want, got, "{} row {i}", udf.name()),
                    }
                }
            }
        });
    }

    #[test]
    fn eval_batch_checks_arity_and_const_types() {
        let x = [1.0, 2.0];
        let col = ScalarBatchArg::Col {
            values: &x,
            validity: None,
        };
        let mut out = Vec::new();
        assert!(matches!(
            LinearRegScoreUdf.eval_batch(&[col, col], 2, &mut out),
            Err(UdfError::WrongArity { .. })
        ));
        let s = Value::from("oops");
        assert!(LinearRegScoreUdf
            .eval_batch(&[col, ScalarBatchArg::Const(&s), col], 2, &mut out)
            .is_err());
        // A NULL constant turns every row NULL, same as the row path.
        let null = Value::Null;
        out.clear();
        assert!(DistanceUdf
            .eval_batch(&[col, ScalarBatchArg::Const(&null)], 2, &mut out)
            .unwrap());
        assert_eq!(out, vec![Value::Null, Value::Null]);
    }
}
