//! Feature-serving execution: batch scoring of keyed rows.
//!
//! The paper's scoring pattern (§3.5) is a full-table `CROSS JOIN`
//! between the data set and a one-row model table. A feature store
//! serves the same models point-wise: a request carries N primary
//! keys and a model name, the engine resolves the keyed rows through
//! the storage layer's PK hash index (no scan), assembles them into
//! the columnar argument layout the scoring UDFs already accept, and
//! runs one [`nlq_udf::ScalarUdf::eval_batch`] call per model term.

use std::time::Instant;

use nlq_linalg::{Matrix, Vector};
use nlq_storage::{bitmap_mask_tail, bitmap_words, Column, DataType, Row, Schema, Table, Value};
use nlq_udf::ScalarBatchArg;

use crate::db::ResultSet;
use crate::exec::{check_cancelled, ExecContext};
use crate::{EngineError, Result};

/// Hard cap on keys per batch-scoring request: one round trip must
/// stay bounded in memory and frame size.
pub const MAX_SCORE_KEYS: usize = 65_536;

// ---------------------------------------------------------------------
// Model tables (§3.5: models are stored in the DBMS as tables)
// ---------------------------------------------------------------------

fn float_columns(prefix: &str, range: std::ops::RangeInclusive<usize>) -> Vec<Column> {
    range
        .map(|a| Column::new(format!("{prefix}{a}"), DataType::Float))
        .collect()
}

fn model_table(columns: Vec<Column>, rows: impl IntoIterator<Item = Row>) -> Result<Table> {
    let mut table = Table::new(Schema::new(columns), 1);
    for row in rows {
        table.insert(row)?;
    }
    Ok(table)
}

/// The `(j, X1..Xd)` layout shared by centroids and PCA loadings: one
/// row per component, `j = 1..k`.
fn component_table(d: usize, components: impl Iterator<Item = Vec<f64>>) -> Result<Table> {
    let mut columns = vec![Column::new("j", DataType::Int)];
    columns.extend(float_columns("X", 1..=d));
    model_table(
        columns,
        components.enumerate().map(|(j, c)| {
            let mut row: Row = vec![Value::Int(j as i64 + 1)];
            row.extend(c.into_iter().map(Value::Float));
            row
        }),
    )
}

/// A regression model as the one-row table `(b0, b1..bd)` — "this
/// table layout allows retrieving all coefficients in a single I/O".
pub fn beta_table(intercept: f64, beta: &Vector) -> Result<Table> {
    let row = std::iter::once(intercept)
        .chain(beta.as_slice().iter().copied())
        .map(Value::Float)
        .collect();
    model_table(float_columns("b", 0..=beta.len()), [row])
}

/// A mean vector as the one-row table `(X1..Xd)`.
pub fn mu_table(mu: &Vector) -> Result<Table> {
    let row = mu.as_slice().iter().map(|&v| Value::Float(v)).collect();
    model_table(float_columns("X", 1..=mu.len()), [row])
}

/// Cluster centroids as `(j, X1..Xd)`, `j = 1..k`.
pub fn centroid_table(centroids: &[Vector]) -> Result<Table> {
    let d = centroids.first().map_or(0, Vector::len);
    component_table(d, centroids.iter().map(|c| c.as_slice().to_vec()))
}

/// A d × k loading matrix as `(j, X1..Xd)`, one row per component.
pub fn lambda_table(lambda: &Matrix) -> Result<Table> {
    let d = lambda.rows();
    component_table(
        d,
        (0..lambda.cols()).map(|j| (0..d).map(|a| lambda[(a, j)]).collect()),
    )
}

/// A model table's layout, classified for scoring.
enum ModelKind {
    /// One-row `m(b0, b1..bd)` regression coefficients.
    Regression { intercept: f64, beta: Vec<f64> },
    /// `m(j, X1..Xd)` centroids, `j = 1..k`.
    Centroids { centers: Vec<Vec<f64>> },
}

impl ModelKind {
    fn d(&self) -> usize {
        match self {
            ModelKind::Regression { beta, .. } => beta.len(),
            ModelKind::Centroids { centers } => centers.first().map_or(0, Vec::len),
        }
    }

    fn describe(&self) -> String {
        match self {
            ModelKind::Regression { beta, .. } => format!("regression, d={}", beta.len()),
            ModelKind::Centroids { centers } => format!(
                "kmeans, k={}, d={}",
                centers.len(),
                centers.first().map_or(0, Vec::len)
            ),
        }
    }

    fn udf_line(&self) -> String {
        match self {
            ModelKind::Regression { .. } => "scoring udf: linearregscore (batch)".into(),
            ModelKind::Centroids { .. } => "scoring udf: distance x k + clusterscore".into(),
        }
    }
}

/// Classifies a registered model table by the layouts [`beta_table`]
/// and [`centroid_table`] produce.
fn classify_model(name: &str, m: &Table) -> Result<ModelKind> {
    let schema = m.schema();
    let first = schema
        .columns()
        .first()
        .ok_or_else(|| EngineError::Unsupported(format!("model table '{name}' has no columns")))?;
    let rows = m.collect_rows()?;
    if first.name.eq_ignore_ascii_case("b0") {
        if rows.len() != 1 {
            return Err(EngineError::Unsupported(format!(
                "regression model table '{name}' must hold exactly one row, found {}",
                rows.len()
            )));
        }
        let row = &rows[0];
        let coef = |i: usize| {
            row[i].as_f64().ok_or_else(|| {
                EngineError::Unsupported(format!(
                    "model table '{name}' column {} is not numeric",
                    schema.column(i).name
                ))
            })
        };
        let intercept = coef(0)?;
        let beta = (1..schema.len()).map(coef).collect::<Result<_>>()?;
        return Ok(ModelKind::Regression { intercept, beta });
    }
    if first.name.eq_ignore_ascii_case("j") {
        if rows.is_empty() {
            return Err(EngineError::Unsupported(format!(
                "centroid model table '{name}' is empty"
            )));
        }
        let mut indexed: Vec<(i64, Vec<f64>)> = Vec::with_capacity(rows.len());
        for row in &rows {
            let j = row[0].as_i64().ok_or_else(|| {
                EngineError::Unsupported(format!("model table '{name}' has a NULL centroid id"))
            })?;
            let center = (1..schema.len())
                .map(|i| {
                    row[i].as_f64().ok_or_else(|| {
                        EngineError::Unsupported(format!(
                            "model table '{name}' centroid {j} has a NULL coordinate"
                        ))
                    })
                })
                .collect::<Result<_>>()?;
            indexed.push((j, center));
        }
        indexed.sort_by_key(|(j, _)| *j);
        return Ok(ModelKind::Centroids {
            centers: indexed.into_iter().map(|(_, c)| c).collect(),
        });
    }
    Err(EngineError::Unsupported(format!(
        "model table '{name}' is neither a regression table (b0, b1..bd) \
         nor a centroid table (j, X1..Xd)"
    )))
}

/// Resolves the model's feature columns `X1..Xd` in the data table.
fn feature_cols(table: &str, schema: &nlq_storage::Schema, d: usize) -> Result<Vec<usize>> {
    (1..=d)
        .map(|a| {
            schema.index_of(&format!("X{a}")).ok_or_else(|| {
                EngineError::Unsupported(format!(
                    "table '{table}' has no feature column X{a} (model needs X1..X{d})"
                ))
            })
        })
        .collect()
}

/// One feature column of the found-row subset, in the dense layout
/// [`ScalarBatchArg::Col`] borrows.
struct FeatureCol {
    values: Vec<f64>,
    validity: Option<Vec<u64>>,
}

/// Gathers the found rows' feature coordinates column-wise.
fn gather_columns(found: &[(usize, &Row)], feat: &[usize]) -> Vec<FeatureCol> {
    let n = found.len();
    let mut cols: Vec<FeatureCol> = feat
        .iter()
        .map(|_| FeatureCol {
            values: vec![0.0; n],
            validity: None,
        })
        .collect();
    for (ri, (_, row)) in found.iter().enumerate() {
        for (a, &c) in feat.iter().enumerate() {
            match row[c].as_f64() {
                Some(v) => cols[a].values[ri] = v,
                None => {
                    let words = cols[a].validity.get_or_insert_with(|| {
                        let mut w = vec![!0u64; bitmap_words(n)];
                        bitmap_mask_tail(&mut w, n);
                        w
                    });
                    words[ri >> 6] &= !(1u64 << (ri & 63));
                }
            }
        }
    }
    cols
}

/// Evaluates one scalar UDF over the gathered columns, preferring the
/// columnar batch hook with a row-at-a-time fallback.
fn run_scalar(
    udf: &dyn nlq_udf::ScalarUdf,
    cols: &[FeatureCol],
    consts: &[Value],
    rows: usize,
) -> Result<Vec<Value>> {
    let mut args: Vec<ScalarBatchArg<'_>> = Vec::with_capacity(cols.len() + consts.len());
    for c in cols {
        args.push(ScalarBatchArg::Col {
            values: &c.values,
            validity: c.validity.as_deref(),
        });
    }
    args.extend(consts.iter().map(ScalarBatchArg::Const));
    let mut out = Vec::with_capacity(rows);
    if udf.eval_batch(&args, rows, &mut out)? {
        return Ok(out);
    }
    out.clear();
    let mut row_args = Vec::with_capacity(args.len());
    for ri in 0..rows {
        row_args.clear();
        row_args.extend(args.iter().map(|a| match a.at(ri) {
            Some(v) => Value::Float(v),
            None => Value::Null,
        }));
        out.push(udf.eval(&row_args)?);
    }
    Ok(out)
}

/// Scores `keys` against `model` on `table` in one round trip: PK
/// lookups (no scan) feed the scoring UDFs columnar-style. The result
/// has one row per requested key, in request order, with a NULL score
/// for absent keys or NULL-bearing feature vectors. With `explain`
/// set, returns the plan description instead of executing.
pub(crate) fn batch_score(
    ctx: &ExecContext<'_>,
    table: &str,
    model: &str,
    keys: &[i64],
    explain: bool,
) -> Result<ResultSet> {
    if keys.len() > MAX_SCORE_KEYS {
        return Err(EngineError::Unsupported(format!(
            "batch score request carries {} keys, limit is {MAX_SCORE_KEYS}",
            keys.len()
        )));
    }
    let t = ctx.resolve_table(table)?;
    let Some(pk_col) = t.pk_column() else {
        return Err(EngineError::Unsupported(format!(
            "table '{table}' has no primary-key index (first column must be Int)"
        )));
    };
    let m = ctx.resolve_table(model)?;
    let kind = classify_model(model, &m)?;
    let d = kind.d();
    let feat = feature_cols(table, t.schema(), d)?;
    let key_name = t.schema().column(pk_col).name.clone();

    if explain {
        let lines = vec![
            format!(
                "batch score: {} key(s) through model '{model}' ({})",
                keys.len(),
                kind.describe()
            ),
            format!("point lookup: pk index on {table}({key_name})"),
            kind.udf_line(),
        ];
        return Ok(ResultSet::new(
            vec!["plan".into()],
            lines.into_iter().map(|l| vec![Value::Str(l)]).collect(),
        ));
    }

    check_cancelled(ctx.cancel.as_deref(), 0)?;

    let lookup_started = Instant::now();
    let fetched = t.lookup_keys(keys)?;
    let found: Vec<(usize, &Row)> = fetched
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().map(|r| (i, r)))
        .collect();
    let n = found.len();
    let cols = gather_columns(&found, &feat);
    let lookup_nanos = lookup_started.elapsed().as_nanos() as u64;

    let score_started = Instant::now();
    let registry = &ctx.registry;
    let scores = match &kind {
        ModelKind::Regression { intercept, beta } => {
            let udf = registry
                .scalar("linearregscore")
                .ok_or_else(|| EngineError::UnknownFunction("linearregscore".into()))?;
            let mut consts: Vec<Value> = Vec::with_capacity(d + 1);
            consts.push(Value::Float(*intercept));
            consts.extend(beta.iter().map(|&b| Value::Float(b)));
            run_scalar(udf.as_ref(), &cols, &consts, n)?
        }
        ModelKind::Centroids { centers } => {
            let dist = registry
                .scalar("distance")
                .ok_or_else(|| EngineError::UnknownFunction("distance".into()))?;
            let cluster = registry
                .scalar("clusterscore")
                .ok_or_else(|| EngineError::UnknownFunction("clusterscore".into()))?;
            let mut dists = Vec::with_capacity(centers.len());
            for center in centers {
                let consts: Vec<Value> = center.iter().map(|&v| Value::Float(v)).collect();
                dists.push(run_scalar(dist.as_ref(), &cols, &consts, n)?);
            }
            let mut scores = Vec::with_capacity(n);
            let mut row_args = Vec::with_capacity(centers.len());
            for ri in 0..n {
                row_args.clear();
                row_args.extend(dists.iter().map(|dv| dv[ri].clone()));
                scores.push(cluster.eval(&row_args)?);
            }
            scores
        }
    };
    let score_nanos = score_started.elapsed().as_nanos() as u64;

    let mut out_rows: Vec<Row> = keys
        .iter()
        .map(|&k| vec![Value::Int(k), Value::Null])
        .collect();
    for ((orig, _), score) in found.iter().zip(scores) {
        out_rows[*orig][1] = score;
    }
    let mut rs = ResultSet::new(vec![key_name, "score".into()], out_rows);
    rs.stats.rows_scanned = n as u64;
    rs.stats.lookup_nanos = lookup_nanos;
    rs.stats.finalize_nanos = score_nanos;
    Ok(rs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Db, ExecOptions, SqlEngine};
    use nlq_linalg::Vector;

    fn serving_db(n: usize) -> Db {
        let db = Db::new(2);
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        db.load_points("X", &rows, false).unwrap();
        db
    }

    #[test]
    fn regression_batch_score_matches_formula() {
        let db = serving_db(5000);
        db.register_beta("BETA", 1.0, &Vector::from_vec(vec![0.5, -0.25]))
            .unwrap();
        let keys = [1i64, 4999, 17, 123456];
        let rs = db
            .batch_score("X", "BETA", &keys, false, &ExecOptions::default())
            .unwrap();
        assert_eq!(rs.columns, vec!["i".to_string(), "score".to_string()]);
        assert_eq!(rs.len(), keys.len());
        for (r, &k) in keys.iter().enumerate() {
            assert_eq!(rs.value(r, 0), &Value::Int(k));
        }
        // load_points keys rows 1..=n with X1 = i-1, X2 = 2(i-1).
        let expect = |k: i64| 1.0 + 0.5 * (k - 1) as f64 - 0.25 * 2.0 * (k - 1) as f64;
        assert!((rs.f64(0, 1).unwrap() - expect(1)).abs() < 1e-12);
        assert!((rs.f64(1, 1).unwrap() - expect(4999)).abs() < 1e-12);
        assert!((rs.f64(2, 1).unwrap() - expect(17)).abs() < 1e-12);
        assert!(rs.value(3, 1).is_null(), "absent key scores NULL");
        assert_eq!(rs.stats.rows_scanned, 3, "only found keys count");
    }

    #[test]
    fn centroid_batch_score_assigns_nearest() {
        let db = serving_db(100);
        db.register_centroids(
            "C",
            &[
                Vector::from_vec(vec![0.0, 0.0]),
                Vector::from_vec(vec![90.0, 180.0]),
            ],
        )
        .unwrap();
        let rs = db
            .batch_score("X", "C", &[1, 100], false, &ExecOptions::default())
            .unwrap();
        assert_eq!(rs.value(0, 1), &Value::Int(1), "row (0,0) near centroid 1");
        assert_eq!(
            rs.value(1, 1),
            &Value::Int(2),
            "row (99,198) near centroid 2"
        );
    }

    #[test]
    fn explain_reports_pk_point_lookup() {
        let db = serving_db(10);
        db.register_beta("BETA", 0.0, &Vector::from_vec(vec![1.0, 1.0]))
            .unwrap();
        let rs = db
            .batch_score("X", "BETA", &[1, 2, 3], true, &ExecOptions::default())
            .unwrap();
        let plan: Vec<&str> = rs.rows.iter().filter_map(|r| r[0].as_str()).collect();
        assert!(
            plan.iter().any(|l| l.contains("point lookup: pk index")),
            "plan was {plan:?}"
        );
        assert!(plan.iter().any(|l| l.contains("3 key(s)")));
    }

    #[test]
    fn null_features_score_null() {
        let db = Db::new(1);
        db.execute("CREATE TABLE T (i INT, X1 FLOAT)").unwrap();
        db.execute("INSERT INTO T VALUES (1, 2.0), (2, NULL)")
            .unwrap();
        db.register_beta("B", 0.0, &Vector::from_vec(vec![3.0]))
            .unwrap();
        let rs = db
            .batch_score("T", "B", &[1, 2], false, &ExecOptions::default())
            .unwrap();
        assert_eq!(rs.value(0, 1), &Value::Float(6.0));
        assert!(rs.value(1, 1).is_null());
    }

    #[test]
    fn rejects_tables_without_pk_index() {
        let db = Db::new(1);
        db.execute("CREATE TABLE T (x FLOAT)").unwrap();
        db.register_beta("B", 0.0, &Vector::from_vec(vec![1.0]))
            .unwrap();
        let err = db
            .batch_score("T", "B", &[1], false, &ExecOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("primary-key index"), "{err}");
    }
}
