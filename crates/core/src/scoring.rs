//! Scoring (model application) primitives (§3.5).
//!
//! These are the pure computations behind the paper's scalar scoring
//! UDFs; the `nlq-udf` crate wraps each one in the UDF calling
//! convention:
//!
//! * `linearregscore(X1..Xd, β1..βd)` → [`linear_reg_score`]
//! * `fascore(X1..Xd, μ1..μd, Λ1j..Λdj)` → [`fa_score`]
//! * `distance(X1..Xd, C1j..Cdj)` → [`squared_distance`]
//! * `clusterscore(d1..dk)` → [`nearest_centroid`]

use nlq_linalg::Matrix;

/// Dot product of two equal-length slices, summed left to right from
/// `-0.0` (the additive identity that keeps the sign of an all-`-0.0`
/// sum). The columnar `linearregscore` kernel repeats exactly this
/// operation order, so both paths agree bit for bit.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    a.iter().zip(b).fold(-0.0, |s, (x, y)| s + x * y)
}

/// Linear regression score `ŷ = β₀ + βᵀ x`.
///
/// The paper's `linearregscore` UDF folds the intercept into the
/// augmented vector; here it is explicit.
#[inline]
pub fn linear_reg_score(x: &[f64], intercept: f64, beta: &[f64]) -> f64 {
    intercept + dot(x, beta)
}

/// PCA / factor analysis score: the `j`-th coordinate of the reduced
/// vector, `x'_j = Λ_jᵀ (x − μ)`.
///
/// `lambda_j` is one component (one column of `Λ`), so one UDF call
/// produces one output coordinate — UDFs cannot return vectors, which
/// is why the paper calls `fascore` k times per row.
#[inline]
pub fn fa_score(x: &[f64], mu: &[f64], lambda_j: &[f64]) -> f64 {
    assert_eq!(x.len(), mu.len(), "mu length mismatch");
    assert_eq!(x.len(), lambda_j.len(), "lambda length mismatch");
    let mut s = 0.0;
    for i in 0..x.len() {
        s += lambda_j[i] * (x[i] - mu[i]);
    }
    s
}

/// Full dimensionality reduction `x' = Λᵀ (x − μ)` for a d × k `Λ`.
///
/// Convenience wrapper equal to calling [`fa_score`] for each of the
/// `k` columns.
pub fn reduce(x: &[f64], mu: &[f64], lambda: &Matrix) -> Vec<f64> {
    assert_eq!(lambda.rows(), x.len(), "lambda must be d x k");
    (0..lambda.cols())
        .map(|j| {
            let col: Vec<f64> = lambda.col(j);
            fa_score(x, mu, &col)
        })
        .collect()
}

/// Squared Euclidean distance `(x − c)ᵀ (x − c)` — the paper's
/// `distance` UDF used by K-means scoring.
#[inline]
pub fn squared_distance(x: &[f64], c: &[f64]) -> f64 {
    assert_eq!(x.len(), c.len(), "distance length mismatch");
    let mut s = 0.0;
    for i in 0..x.len() {
        let diff = x[i] - c[i];
        s += diff * diff;
    }
    s
}

/// Index of the smallest distance — the paper's `clusterscore` UDF:
/// "J s.t. d_J ≤ d_j for j = 1..k". Ties resolve to the lowest index;
/// returns 0-based `J`.
///
/// # Panics
/// Panics if `distances` is empty.
#[inline]
pub fn nearest_centroid(distances: &[f64]) -> usize {
    assert!(
        !distances.is_empty(),
        "clusterscore needs at least one distance"
    );
    let mut best = 0;
    for (j, &d) in distances.iter().enumerate().skip(1) {
        if d < distances[best] {
            best = j;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_linear_score() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(linear_reg_score(&[1.0, 2.0], 0.5, &[3.0, 4.0]), 11.5);
    }

    #[test]
    fn fa_score_centers_then_projects() {
        let x = [3.0, 4.0];
        let mu = [1.0, 1.0];
        let lam = [0.5, 0.25];
        // (2, 3) . (0.5, 0.25) = 1 + 0.75
        assert_eq!(fa_score(&x, &mu, &lam), 1.75);
    }

    #[test]
    fn reduce_matches_per_component_scores() {
        let lambda = Matrix::from_nested(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let x = [1.0, 2.0, 3.0];
        let mu = [0.0, 0.0, 0.0];
        let r = reduce(&x, &mu, &lambda);
        assert_eq!(r, vec![4.0, 5.0]);
        assert_eq!(r[0], fa_score(&x, &mu, &[1.0, 0.0, 1.0]));
    }

    #[test]
    fn squared_distance_basics() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(squared_distance(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn nearest_centroid_picks_minimum_and_breaks_ties_low() {
        assert_eq!(nearest_centroid(&[5.0, 1.0, 3.0]), 1);
        assert_eq!(nearest_centroid(&[2.0, 2.0]), 0);
        assert_eq!(nearest_centroid(&[7.5]), 0);
    }

    #[test]
    #[should_panic(expected = "at least one distance")]
    fn nearest_centroid_empty_panics() {
        let _ = nearest_centroid(&[]);
    }
}
