use nlq_linalg::{Matrix, Vector};

use crate::{ModelError, Result};

/// Which part of `Q` to maintain.
///
/// The paper's aggregate UDF takes this as a parameter "to perform the
/// minimum number of operations required" (§3.4): clustering only needs
/// the diagonal, correlation/PCA/regression need the (symmetric) lower
/// triangle, and querying/visualization may want the full matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatrixShape {
    /// Only `Q[a][a]` — `O(d)` work per point.
    Diagonal,
    /// The lower triangle `Q[a][b], a >= b` — `O(d(d+1)/2)` per point.
    /// The default, since `Q` is symmetric.
    Triangular,
    /// Every entry — `O(d²)` per point.
    Full,
}

impl MatrixShape {
    /// Parses the SQL-facing name (`'diag' | 'triang' | 'full'`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "diag" | "diagonal" => Some(MatrixShape::Diagonal),
            "triang" | "triangular" => Some(MatrixShape::Triangular),
            "full" => Some(MatrixShape::Full),
            _ => None,
        }
    }

    /// SQL-facing name.
    pub fn name(self) -> &'static str {
        match self {
            MatrixShape::Diagonal => "diag",
            MatrixShape::Triangular => "triang",
            MatrixShape::Full => "full",
        }
    }

    /// Number of `Q` entries updated per point at dimensionality `d`.
    pub fn ops_per_point(self, d: usize) -> usize {
        match self {
            MatrixShape::Diagonal => d,
            MatrixShape::Triangular => d * (d + 1) / 2,
            MatrixShape::Full => d * d,
        }
    }
}

/// The sufficient statistics `n, L, Q` of a data set (§3.2), plus
/// per-dimension min/max (which the paper's UDF also tracks for
/// outlier detection and histograms).
///
/// `update` is the aggregate-UDF row step, `merge` is the parallel
/// partial-aggregation step, and the accessors (`mean`, `covariance`,
/// `correlation`) implement the paper's derivations:
///
/// * `V = Q/n − L Lᵀ/n²` (covariance),
/// * `ρ_ab = (n Q_ab − L_a L_b) / (√(n Q_aa − L_a²) √(n Q_bb − L_b²))`.
#[derive(Debug, Clone, PartialEq)]
pub struct Nlq {
    d: usize,
    shape: MatrixShape,
    n: f64,
    l: Vector,
    /// Lower triangle (and diagonal) always valid; upper triangle only
    /// populated for `MatrixShape::Full` inputs (and mirrored on
    /// demand).
    q: Matrix,
    min: Vec<f64>,
    max: Vec<f64>,
}

impl Nlq {
    /// Creates empty statistics for dimensionality `d`.
    pub fn new(d: usize, shape: MatrixShape) -> Self {
        assert!(d > 0, "dimensionality must be positive");
        Nlq {
            d,
            shape,
            n: 0.0,
            l: Vector::zeros(d),
            q: Matrix::zeros(d, d),
            min: vec![f64::INFINITY; d],
            max: vec![f64::NEG_INFINITY; d],
        }
    }

    /// Accumulates one point: `n += 1`, `L += x`, `Q += x xᵀ` (shape
    /// permitting), min/max update. This is the hot loop of the
    /// aggregate UDF (§3.4, step 2).
    ///
    /// # Panics
    /// Panics if `x.len() != d`.
    pub fn update(&mut self, x: &[f64]) {
        assert_eq!(x.len(), self.d, "point dimensionality mismatch");
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
        let d = self.d;
        let q = self.q.as_mut_slice();
        match self.shape {
            MatrixShape::Diagonal => {
                for (a, &xa) in x.iter().enumerate() {
                    q[a * d + a] += xa * xa;
                }
            }
            MatrixShape::Triangular => {
                // Slice zips keep the inner loop bounds-check free and
                // vectorizable; only the lower triangle is touched.
                for (a, &xa) in x.iter().enumerate() {
                    let row = &mut q[a * d..a * d + a + 1];
                    for (qb, xb) in row.iter_mut().zip(&x[..=a]) {
                        *qb += xa * xb;
                    }
                }
            }
            MatrixShape::Full => {
                for (a, &xa) in x.iter().enumerate() {
                    let row = &mut q[a * d..(a + 1) * d];
                    for (qb, xb) in row.iter_mut().zip(x) {
                        *qb += xa * xb;
                    }
                }
            }
        }
    }

    /// Accumulates one point with an explicit weight (used by the EM
    /// algorithm, where points contribute fractional responsibilities).
    pub fn update_weighted(&mut self, x: &[f64], w: f64) {
        assert_eq!(x.len(), self.d, "point dimensionality mismatch");
        self.n += w;
        for (a, &xa) in x.iter().enumerate() {
            self.l[a] += w * xa;
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
                    self.q[(a, a)] += w * xa * xa;
                }
            }
            MatrixShape::Triangular => {
                for (a, &xa) in x.iter().enumerate() {
                    for (b, &xb) in x[..=a].iter().enumerate() {
                        self.q[(a, b)] += w * xa * xb;
                    }
                }
            }
            MatrixShape::Full => {
                for (a, &xa) in x.iter().enumerate() {
                    for (b, &xb) in x.iter().enumerate() {
                        self.q[(a, b)] += w * xa * xb;
                    }
                }
            }
        }
    }

    /// Merges another partial aggregate into this one (§3.4, step 3:
    /// "threads return their partial computations of n, L, Q that are
    /// aggregated into a single set of matrices by a master thread").
    ///
    /// # Panics
    /// Panics if dimensionalities or shapes differ.
    pub fn merge(&mut self, other: &Nlq) {
        assert_eq!(self.d, other.d, "cannot merge statistics of different d");
        assert_eq!(
            self.shape, other.shape,
            "cannot merge statistics of different shape"
        );
        self.n += other.n;
        self.l.add_assign(other.l.as_slice());
        for a in 0..self.d {
            for b in 0..self.d {
                self.q[(a, b)] += other.q[(a, b)];
            }
            if other.min[a] < self.min[a] {
                self.min[a] = other.min[a];
            }
            if other.max[a] > self.max[a] {
                self.max[a] = other.max[a];
            }
        }
    }

    /// Removes another aggregate's contribution from this one — the
    /// decremental half of incremental model maintenance. Because `n`,
    /// `L`, and `Q` are plain sums, a deleted batch's statistics can
    /// simply be subtracted and every model rebuilt from the result
    /// without touching the surviving rows.
    ///
    /// Min/max are *not* invertible from sums; after subtraction they
    /// are conservative bounds (unchanged), which keeps outlier
    /// screening sound but loose. Rebuild statistics from scratch when
    /// exact bounds matter.
    ///
    /// # Panics
    /// Panics if dimensionalities or shapes differ.
    pub fn subtract(&mut self, other: &Nlq) {
        assert_eq!(self.d, other.d, "cannot subtract statistics of different d");
        assert_eq!(
            self.shape, other.shape,
            "cannot subtract statistics of different shape"
        );
        self.n -= other.n;
        for a in 0..self.d {
            self.l[a] -= other.l[a];
            for b in 0..self.d {
                self.q[(a, b)] -= other.q[(a, b)];
            }
        }
    }

    /// Builds statistics in one pass over an iterator of points.
    pub fn from_points<'a>(
        d: usize,
        shape: MatrixShape,
        points: impl IntoIterator<Item = &'a [f64]>,
    ) -> Self {
        let mut s = Nlq::new(d, shape);
        for p in points {
            s.update(p);
        }
        s
    }

    /// Builds statistics from rows (convenience over `from_points`).
    pub fn from_rows(d: usize, shape: MatrixShape, rows: &[Vec<f64>]) -> Self {
        let mut s = Nlq::new(d, shape);
        for r in rows {
            s.update(r);
        }
        s
    }

    /// Reassembles a full `Nlq` from raw parts (used by the UDF result
    /// unpacking and the SQL result-row path).
    pub fn from_parts(
        shape: MatrixShape,
        n: f64,
        l: Vector,
        q: Matrix,
        min: Vec<f64>,
        max: Vec<f64>,
    ) -> Result<Self> {
        let d = l.len();
        if q.shape() != (d, d) || min.len() != d || max.len() != d {
            return Err(ModelError::DimensionMismatch {
                expected: d,
                got: q.rows(),
            });
        }
        Ok(Nlq {
            d,
            shape,
            n,
            l,
            q,
            min,
            max,
        })
    }

    /// Dimensionality `d`.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Matrix shape maintained.
    pub fn shape(&self) -> MatrixShape {
        self.shape
    }

    /// Number of points seen (float, as the paper's `sum(1.0)`).
    pub fn n(&self) -> f64 {
        self.n
    }

    /// The linear sum `L`.
    pub fn l(&self) -> &Vector {
        &self.l
    }

    /// The quadratic sum `Q` as stored (triangular statistics leave the
    /// strict upper triangle zero; use [`Nlq::q_full`] for a symmetric
    /// view).
    pub fn q_raw(&self) -> &Matrix {
        &self.q
    }

    /// The symmetric `Q`, mirroring the lower triangle if needed.
    ///
    /// For `Diagonal` statistics the off-diagonal entries are zero —
    /// callers that need cross-products must accumulate triangular or
    /// full statistics.
    pub fn q_full(&self) -> Matrix {
        let mut q = self.q.clone();
        if self.shape == MatrixShape::Triangular {
            q.symmetrize_from_lower();
        }
        q
    }

    /// Per-dimension minimum (∞ when empty).
    pub fn min(&self) -> &[f64] {
        &self.min
    }

    /// Per-dimension maximum (−∞ when empty).
    pub fn max(&self) -> &[f64] {
        &self.max
    }

    /// The mean `μ = L / n`.
    pub fn mean(&self) -> Result<Vector> {
        if self.n <= 0.0 {
            return Err(ModelError::NotEnoughData { needed: 1, got: 0 });
        }
        // Divide (rather than scale by 1/n) so each entry is correctly
        // rounded: SQL's `avg` is this mean at d = 1.
        Ok(Vector::from_vec(
            self.l.as_slice().iter().map(|l| l / self.n).collect(),
        ))
    }

    /// The covariance matrix `V = Q/n − L Lᵀ/n²` (the paper's
    /// population covariance).
    pub fn covariance(&self) -> Result<Matrix> {
        if self.n <= 0.0 {
            return Err(ModelError::NotEnoughData { needed: 1, got: 0 });
        }
        let q = self.q_full();
        let outer = Matrix::outer(&self.l, &self.l);
        let inv_n = 1.0 / self.n;
        Ok(&q.scale(inv_n) - &outer.scale(inv_n * inv_n))
    }

    /// The Pearson correlation matrix
    /// `ρ_ab = (n Q_ab − L_a L_b) / (√(n Q_aa − L_a²) √(n Q_bb − L_b²))`.
    ///
    /// Errors with [`ModelError::ZeroVariance`] if any dimension is
    /// constant.
    pub fn correlation(&self) -> Result<Matrix> {
        if self.n < 2.0 {
            return Err(ModelError::NotEnoughData {
                needed: 2,
                got: self.n as usize,
            });
        }
        let q = self.q_full();
        let mut denom = Vec::with_capacity(self.d);
        for a in 0..self.d {
            let v = self.n * q[(a, a)] - self.l[a] * self.l[a];
            if v <= 0.0 {
                return Err(ModelError::ZeroVariance { dimension: a });
            }
            denom.push(v.sqrt());
        }
        Ok(Matrix::from_fn(self.d, self.d, |a, b| {
            let num = self.n * q[(a, b)] - self.l[a] * self.l[b];
            (num / (denom[a] * denom[b])).clamp(-1.0, 1.0)
        }))
    }

    /// Per-dimension variance (diagonal of the covariance matrix);
    /// available for all shapes including `Diagonal`.
    pub fn variances(&self) -> Result<Vec<f64>> {
        if self.n <= 0.0 {
            return Err(ModelError::NotEnoughData { needed: 1, got: 0 });
        }
        Ok((0..self.d)
            .map(|a| self.q[(a, a)] / self.n - (self.l[a] / self.n).powi(2))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-9;

    fn sample_rows() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, 2.0],
            vec![2.0, 4.0],
            vec![3.0, 6.0],
            vec![4.0, 8.0],
        ]
    }

    #[test]
    fn update_accumulates_n_l_q() {
        let s = Nlq::from_rows(2, MatrixShape::Full, &sample_rows());
        assert_eq!(s.n(), 4.0);
        assert_eq!(s.l().as_slice(), &[10.0, 20.0]);
        // Q = [[1+4+9+16, 2+8+18+32], [.., 4+16+36+64]]
        assert_eq!(s.q_raw()[(0, 0)], 30.0);
        assert_eq!(s.q_raw()[(0, 1)], 60.0);
        assert_eq!(s.q_raw()[(1, 0)], 60.0);
        assert_eq!(s.q_raw()[(1, 1)], 120.0);
    }

    #[test]
    fn triangular_matches_full_after_symmetrize() {
        let rows = sample_rows();
        let tri = Nlq::from_rows(2, MatrixShape::Triangular, &rows);
        let full = Nlq::from_rows(2, MatrixShape::Full, &rows);
        assert_eq!(tri.q_full(), full.q_full());
        // Stored upper triangle is untouched in triangular mode.
        assert_eq!(tri.q_raw()[(0, 1)], 0.0);
    }

    #[test]
    fn diagonal_only_tracks_diagonal() {
        let s = Nlq::from_rows(2, MatrixShape::Diagonal, &sample_rows());
        assert_eq!(s.q_raw()[(0, 0)], 30.0);
        assert_eq!(s.q_raw()[(1, 1)], 120.0);
        assert_eq!(s.q_raw()[(1, 0)], 0.0);
    }

    #[test]
    fn min_max_tracking() {
        let s = Nlq::from_rows(2, MatrixShape::Diagonal, &sample_rows());
        assert_eq!(s.min(), &[1.0, 2.0]);
        assert_eq!(s.max(), &[4.0, 8.0]);
    }

    #[test]
    fn subtract_inverts_merge() {
        let rows = sample_rows();
        let mut stats = Nlq::from_rows(2, MatrixShape::Triangular, &rows);
        let batch = Nlq::from_rows(2, MatrixShape::Triangular, &rows[2..]);
        stats.subtract(&batch);
        let expect = Nlq::from_rows(2, MatrixShape::Triangular, &rows[..2]);
        assert_eq!(stats.n(), expect.n());
        assert_eq!(stats.l(), expect.l());
        assert_eq!(stats.q_raw(), expect.q_raw());
        // Derived models agree with the rebuilt statistics.
        assert_eq!(stats.mean().unwrap(), expect.mean().unwrap());
    }

    #[test]
    fn merge_equals_single_pass() {
        let rows = sample_rows();
        let mut a = Nlq::from_rows(2, MatrixShape::Triangular, &rows[..2]);
        let b = Nlq::from_rows(2, MatrixShape::Triangular, &rows[2..]);
        a.merge(&b);
        let whole = Nlq::from_rows(2, MatrixShape::Triangular, &rows);
        assert_eq!(a, whole);
    }

    #[test]
    fn mean_covariance_known_values() {
        // X1 = 1..4, X2 = 2*X1: var(X1) = 1.25, var(X2) = 5, cov = 2.5.
        let s = Nlq::from_rows(2, MatrixShape::Triangular, &sample_rows());
        let mean = s.mean().unwrap();
        assert!((mean[0] - 2.5).abs() < TOL);
        assert!((mean[1] - 5.0).abs() < TOL);
        let v = s.covariance().unwrap();
        assert!((v[(0, 0)] - 1.25).abs() < TOL);
        assert!((v[(1, 1)] - 5.0).abs() < TOL);
        assert!((v[(0, 1)] - 2.5).abs() < TOL);
        assert!((v[(1, 0)] - 2.5).abs() < TOL);
    }

    #[test]
    fn perfectly_correlated_dimensions() {
        let s = Nlq::from_rows(2, MatrixShape::Triangular, &sample_rows());
        let rho = s.correlation().unwrap();
        assert!((rho[(0, 0)] - 1.0).abs() < TOL);
        assert!((rho[(0, 1)] - 1.0).abs() < TOL);
    }

    #[test]
    fn anticorrelated_dimensions() {
        let rows = vec![vec![1.0, -1.0], vec![2.0, -2.0], vec![3.0, -3.0]];
        let s = Nlq::from_rows(2, MatrixShape::Triangular, &rows);
        let rho = s.correlation().unwrap();
        assert!((rho[(0, 1)] + 1.0).abs() < TOL);
    }

    #[test]
    fn zero_variance_is_reported() {
        let rows = vec![vec![1.0, 5.0], vec![2.0, 5.0], vec![3.0, 5.0]];
        let s = Nlq::from_rows(2, MatrixShape::Triangular, &rows);
        assert_eq!(
            s.correlation().unwrap_err(),
            ModelError::ZeroVariance { dimension: 1 }
        );
        // Variances still work.
        let v = s.variances().unwrap();
        assert!(v[1].abs() < TOL);
    }

    #[test]
    fn empty_statistics_error_cleanly() {
        let s = Nlq::new(3, MatrixShape::Triangular);
        assert!(s.mean().is_err());
        assert!(s.covariance().is_err());
        assert!(s.correlation().is_err());
    }

    #[test]
    fn weighted_updates_match_repeated_points() {
        let mut w = Nlq::new(2, MatrixShape::Triangular);
        w.update_weighted(&[1.0, 2.0], 3.0);
        let mut r = Nlq::new(2, MatrixShape::Triangular);
        for _ in 0..3 {
            r.update(&[1.0, 2.0]);
        }
        assert!((w.n() - r.n()).abs() < TOL);
        assert!((w.l()[0] - r.l()[0]).abs() < TOL);
        assert!((w.q_raw()[(1, 0)] - r.q_raw()[(1, 0)]).abs() < TOL);
    }

    #[test]
    fn shape_ops_per_point() {
        assert_eq!(MatrixShape::Diagonal.ops_per_point(8), 8);
        assert_eq!(MatrixShape::Triangular.ops_per_point(8), 36);
        assert_eq!(MatrixShape::Full.ops_per_point(8), 64);
    }

    #[test]
    fn shape_parse_roundtrip() {
        for shape in [
            MatrixShape::Diagonal,
            MatrixShape::Triangular,
            MatrixShape::Full,
        ] {
            assert_eq!(MatrixShape::parse(shape.name()), Some(shape));
        }
        assert_eq!(MatrixShape::parse("bogus"), None);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn update_wrong_arity_panics() {
        let mut s = Nlq::new(2, MatrixShape::Full);
        s.update(&[1.0]);
    }
}
