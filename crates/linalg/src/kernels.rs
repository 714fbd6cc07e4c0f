//! Flat-slice accumulation kernels for block-at-a-time scans.
//!
//! The Γ (`n`, `L`, `Q`) computation processes one point at a time in
//! the row-wise path: a rank-1 update `Q += x xᵀ` per row. When the
//! scan delivers a whole block of rows column-wise, the same work
//! becomes one rank-k update of `Q` plus one fold per column. These
//! free functions are that layer: no `Matrix`/`Vector` wrappers, just
//! slices, so both the UDF state (fixed `[f64; MAX_D]` arrays) and the
//! engine can call them.
//!
//! # Summation order
//!
//! Rust never reassociates `f64` additions, so a `map(..).sum()` chain
//! such as [`dot`] is one strict dependency chain, one add latency per
//! row. The `Q` kernels spell out a different order, fixed by the rows
//! they are given and nothing else; the moments pass keeps the strict
//! one:
//!
//! - [`block_triangular`] and [`block_full`] compute each cell of the
//!   lower triangle of `Q` as one lane-split dot product: eight
//!   accumulators, row `i` in lane `i % 8`, each lane in ascending row
//!   order, the lanes combined left to right and the total added to
//!   `q`. The eight lanes are four independent two-wide chains, so a
//!   cell runs at the speed of its loads rather than of one add chain.
//! - [`column_moments`] folds Σx, min, max (and, for diagonal Γ, Σx²)
//!   of one column in a single pass: one chain per statistic, rows in
//!   ascending order.
//!
//! # Steady speed
//!
//! The kernels trade some speed on an idle machine for a speed that
//! does not depend on what else runs on the host:
//!
//! - The `nlq_list` UDF runs the moments pass first over each block,
//!   so it is the pass that waits for memory. As one chain it consumes
//!   a column no faster than memory delivers it, the fetch overlaps it,
//!   and the `Q` kernel that follows reads cached data. A lane-split pass finished sooner
//!   on an idle machine, then stalled for however long the memory bus
//!   was busy.
//! - Register tiles (4×4 cells sharing their loads) compute `Q` faster
//!   on an idle core, but they keep every floating-point port busy, so
//!   their speed halves whenever another thread shares the core. One
//!   dot per cell leaves the ports headroom.
//!
//! Because the order depends only on the block's rows, a partition
//! scanned by one worker or another gives the same bits, and so does
//! every merge of partials taken in partition order.
//!
//! # Selections
//!
//! `*_selected` variants take an LSB-ordered **active bitmap** — `u64`
//! words where bit `i % 64` of word `i / 64` is set when row `i`
//! contributes (the storage crate's validity/selection convention: the
//! caller ANDs the `WHERE` selection with each column's validity words
//! first, and bits at positions `>= len` are zero). The scalar
//! reductions and [`column_moments_selected`] iterate set bits only.
//! The `Q` kernels instead gather the kept rows once with a
//! [`Compactor`] and run the dense kernel on the copies. Either way a
//! selected block sums exactly as a dense block holding only its kept
//! rows would.

/// Row accumulators per `Q` cell (see the module docs for the order).
const LANES: usize = 8;

/// Sum of a dense column.
pub fn sum(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

/// Dot product of two equally long dense columns.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot of unequal lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Sum of squares of a dense column (`col · col`).
pub fn sum_sq(xs: &[f64]) -> f64 {
    xs.iter().map(|x| x * x).sum()
}

#[inline]
fn check_active(len: usize, active: &[u64]) {
    assert_eq!(
        active.len(),
        len.div_ceil(64),
        "active bitmap length mismatch"
    );
}

/// Sum over rows whose `active` bit is set.
///
/// # Panics
/// Panics if `active` does not cover `xs.len()` bits exactly.
pub fn sum_selected(xs: &[f64], active: &[u64]) -> f64 {
    check_active(xs.len(), active);
    let mut s = 0.0;
    for (w, &word) in active.iter().enumerate() {
        let mut m = word;
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            s += xs[(w << 6) | b];
            m &= m - 1;
        }
    }
    s
}

/// Dot product over rows whose `active` bit is set.
///
/// # Panics
/// Panics if the slices differ in length or `active` does not cover them.
pub fn dot_selected(a: &[f64], b: &[f64], active: &[u64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot of unequal lengths");
    check_active(a.len(), active);
    let mut s = 0.0;
    for (w, &word) in active.iter().enumerate() {
        let mut m = word;
        while m != 0 {
            let b_idx = m.trailing_zeros() as usize;
            let i = (w << 6) | b_idx;
            s += a[i] * b[i];
            m &= m - 1;
        }
    }
    s
}

/// Minimum and maximum of a dense column; `(∞, -∞)` when empty, so the
/// result folds into running extrema as the identity.
pub fn min_max(xs: &[f64]) -> (f64, f64) {
    xs.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// Minimum and maximum over rows whose `active` bit is set; `(∞, -∞)`
/// when no bit is set.
///
/// # Panics
/// Panics if `active` does not cover `xs.len()` bits exactly.
pub fn min_max_selected(xs: &[f64], active: &[u64]) -> (f64, f64) {
    check_active(xs.len(), active);
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (w, &word) in active.iter().enumerate() {
        let mut m = word;
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            let x = xs[(w << 6) | b];
            lo = lo.min(x);
            hi = hi.max(x);
            m &= m - 1;
        }
    }
    (lo, hi)
}

/// One column's contribution to Γ from one block: `L`'s entry, the
/// extrema, and — when asked for — the diagonal `Q` entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnMoments {
    /// Σx.
    pub sum: f64,
    /// Σx² (zero unless requested).
    pub sum_sq: f64,
    /// Minimum (`∞` for an empty column).
    pub min: f64,
    /// Maximum (`-∞` for an empty column).
    pub max: f64,
}

impl ColumnMoments {
    /// The moments of no rows: the identity of [`ColumnMoments::fold`].
    const EMPTY: ColumnMoments = ColumnMoments {
        sum: 0.0,
        sum_sq: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    /// Adds one row. Extrema use `<` / `>`, as the row-wise update
    /// does, so a NaN never replaces a bound.
    #[inline(always)]
    fn fold<const SQ: bool>(&mut self, x: f64) {
        self.sum += x;
        if SQ {
            self.sum_sq += x * x;
        }
        self.min = if x < self.min { x } else { self.min };
        self.max = if x > self.max { x } else { self.max };
    }
}

/// Folds Σx, min, max and, if `with_sq`, Σx² of a dense column in one
/// pass, rows in ascending order (see the module docs).
pub fn column_moments(xs: &[f64], with_sq: bool) -> ColumnMoments {
    fn fold_all<const SQ: bool>(xs: &[f64]) -> ColumnMoments {
        let mut m = ColumnMoments::EMPTY;
        for &x in xs {
            m.fold::<SQ>(x);
        }
        m
    }
    if with_sq {
        fold_all::<true>(xs)
    } else {
        fold_all::<false>(xs)
    }
}

/// [`column_moments`] over the rows whose `active` bit is set: the
/// same bits as [`column_moments`] of the kept rows alone.
///
/// # Panics
/// Panics if `active` does not cover `xs.len()` bits exactly.
pub fn column_moments_selected(xs: &[f64], active: &[u64], with_sq: bool) -> ColumnMoments {
    fn fold_set<const SQ: bool>(xs: &[f64], active: &[u64]) -> ColumnMoments {
        let mut m = ColumnMoments::EMPTY;
        for (w, &word) in active.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                m.fold::<SQ>(xs[(w << 6) | bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
        m
    }
    check_active(xs.len(), active);
    if with_sq {
        fold_set::<true>(xs, active)
    } else {
        fold_set::<false>(xs, active)
    }
}

/// Rank-1 lower-triangular update `q[a][b] += x[a] * x[b]` for
/// `b <= a`, on a row-major `d x d` buffer with row stride `stride`
/// (the row-wise hot loop, shared so both paths agree bit-for-bit on
/// operation order per row).
///
/// # Panics
/// Panics if `q` is too short for `x.len()` rows of `stride`.
pub fn rank1_triangular(q: &mut [f64], stride: usize, x: &[f64]) {
    let d = x.len();
    check_q(q, stride, d);
    for a in 0..d {
        let xa = x[a];
        let row = &mut q[a * stride..a * stride + a + 1];
        for (b, cell) in row.iter_mut().enumerate() {
            *cell += xa * x[b];
        }
    }
}

#[inline]
fn check_q(q: &[f64], stride: usize, d: usize) {
    assert!(
        d == 0 || (d - 1) * stride + d <= q.len(),
        "q buffer too small"
    );
}

/// Block lower-triangular update: `q[a][b] += cols[a] · cols[b]` for
/// `b <= a`, where each `cols[a]` is one column's values for the whole
/// block — the rank-k form of [`rank1_triangular`], each cell summed
/// in the lane-split order of the module docs.
///
/// # Panics
/// Panics if `q` is too small or the columns differ in length.
pub fn block_triangular(q: &mut [f64], stride: usize, cols: &[&[f64]]) {
    check_q(q, stride, cols.len());
    lower_update(cols, |a, b, v| q[a * stride + b] += v);
}

/// Selected [`block_triangular`]: rows with a clear `active` bit
/// contribute nothing to any cell. The kept rows are compacted into
/// scratch allocated for this call (a caller running many blocks keeps
/// a [`Compactor`] instead); a block whose rows are all kept goes
/// straight to the dense kernel.
///
/// # Panics
/// Panics if `q` is too small, the columns differ in length, or
/// `active` does not cover them.
pub fn block_triangular_selected(q: &mut [f64], stride: usize, cols: &[&[f64]], active: &[u64]) {
    let len = cols.first().map_or(0, |c| c.len());
    check_active(len, active);
    let kept: usize = active.iter().map(|w| w.count_ones() as usize).sum();
    if kept == len {
        return block_triangular(q, stride, cols);
    }
    if kept == 0 {
        return;
    }
    let mut compactor = Compactor::default();
    compactor.compact(cols, active);
    let kept_cols: Vec<&[f64]> = (0..cols.len()).map(|a| compactor.column(a)).collect();
    block_triangular(q, stride, &kept_cols);
}

/// Block full (symmetric, both halves materialized) update:
/// `q[a][b] += cols[a] · cols[b]` for all `a, b`. The lower kernel
/// computes each cell once and the total is added to both mirror
/// cells, so both halves stay bit-identical.
///
/// # Panics
/// Panics if `q` is too small or the columns differ in length.
pub fn block_full(q: &mut [f64], stride: usize, cols: &[&[f64]]) {
    check_q(q, stride, cols.len());
    lower_update(cols, |a, b, v| {
        q[a * stride + b] += v;
        if a != b {
            q[b * stride + a] += v;
        }
    });
}

/// Reusable scratch that gathers a selected block's kept rows into
/// dense columns, so the dense Γ kernels run on them unchanged.
#[derive(Debug, Default)]
pub struct Compactor {
    /// Indices of the kept rows, ascending.
    rows: Vec<u32>,
    /// The kept rows, column after column.
    values: Vec<f64>,
    kept: usize,
}

impl Compactor {
    /// Copies the rows whose `active` bit is set out of every column,
    /// in row order, and returns how many there are. Buffers are
    /// reused, so a warm compactor allocates nothing.
    ///
    /// # Panics
    /// Panics if the columns differ in length or `active` does not
    /// cover them.
    pub fn compact(&mut self, cols: &[&[f64]], active: &[u64]) -> usize {
        let len = cols.first().map_or(0, |c| c.len());
        check_active(len, active);
        self.rows.clear();
        for (w, &word) in active.iter().enumerate() {
            let mut m = word;
            while m != 0 {
                self.rows.push(((w << 6) as u32) | m.trailing_zeros());
                m &= m - 1;
            }
        }
        self.values.clear();
        for col in cols {
            assert_eq!(col.len(), len, "columns of unequal length");
            self.values
                .extend(self.rows.iter().map(|&i| col[i as usize]));
        }
        self.kept = self.rows.len();
        self.kept
    }

    /// Column `a` of the last [`Compactor::compact`], kept rows only.
    ///
    /// # Panics
    /// Panics if `a` is not a column of that call.
    pub fn column(&self, a: usize) -> &[f64] {
        &self.values[a * self.kept..(a + 1) * self.kept]
    }
}

/// The rank-k lower-triangular update shared by [`block_triangular`]
/// and [`block_full`]: computes every `cols[a] · cols[b]` with
/// `b <= a`, row of `Q` after row, and hands each cell total to
/// `add(a, b, v)`.
fn lower_update(cols: &[&[f64]], mut add: impl FnMut(usize, usize, f64)) {
    if let Some(first) = cols.first() {
        for c in cols {
            assert_eq!(c.len(), first.len(), "columns of unequal length");
        }
    }
    for (a, col_a) in cols.iter().enumerate() {
        for (b, col_b) in cols[..=a].iter().enumerate() {
            add(a, b, lane_dot(col_a, col_b));
        }
    }
}

/// `Σ_i a[i] · b[i]` in the lane order of the module docs. The caller
/// guarantees equal lengths.
fn lane_dot(a: &[f64], b: &[f64]) -> f64 {
    let (pa, rest_a) = a.as_chunks::<LANES>();
    let (pb, rest_b) = b.as_chunks::<LANES>();
    // The leftover rows, zero-padded to one more chunk: a lane never
    // holds -0.0, so adding 0·0 leaves it unchanged, and indexing the
    // lanes only by constants keeps them in registers.
    let mut last = ([0.0f64; LANES], [0.0f64; LANES]);
    last.0[..rest_a.len()].copy_from_slice(rest_a);
    last.1[..rest_b.len()].copy_from_slice(rest_b);
    let mut acc = [0.0f64; LANES];
    let mut step = |xa: &[f64; LANES], xb: &[f64; LANES]| {
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l];
        }
    };
    for (xa, xb) in pa.iter().zip(pb) {
        step(xa, xb);
    }
    step(&last.0, &last.1);
    acc[1..].iter().fold(acc[0], |s, v| s + v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols_fixture() -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let c1: Vec<f64> = (0..9).map(|i| i as f64 - 4.0).collect();
        let c2: Vec<f64> = (0..9).map(|i| (i as f64) * 0.5 + 1.0).collect();
        let c3: Vec<f64> = (0..9).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        (c1, c2, c3)
    }

    /// Active bitmap keeping rows where `keep(i)` is true.
    fn active_words(len: usize, keep: impl Fn(usize) -> bool) -> Vec<u64> {
        let mut words = vec![0u64; len.div_ceil(64)];
        for i in 0..len {
            if keep(i) {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        words
    }

    #[test]
    fn reductions_match_naive() {
        let (c1, c2, _) = cols_fixture();
        assert_eq!(sum(&c1), c1.iter().sum::<f64>());
        assert_eq!(dot(&c1, &c2), c1.iter().zip(&c2).map(|(a, b)| a * b).sum());
        assert_eq!(sum_sq(&c2), dot(&c2, &c2));
        assert_eq!(min_max(&c1), (-4.0, 4.0));
        assert_eq!(min_max(&[]), (f64::INFINITY, f64::NEG_INFINITY));
    }

    #[test]
    fn moments_match_separate_reductions() {
        let (c1, c2, _) = cols_fixture();
        // One chain per statistic in row order: the same bits as the
        // separate reductions.
        let m = column_moments(&c1, true);
        assert_eq!(m.sum, sum(&c1));
        assert_eq!(m.sum_sq, sum_sq(&c1));
        assert_eq!((m.min, m.max), min_max(&c1));
        let m = column_moments(&c2, false);
        assert_eq!(m.sum_sq, 0.0);
        assert_eq!((m.min, m.max), (1.0, 5.0));
        let empty = column_moments(&[], true);
        assert_eq!(
            empty,
            ColumnMoments {
                sum: 0.0,
                sum_sq: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY
            }
        );
    }

    #[test]
    fn selected_reductions_keep_only_active_rows() {
        let (c1, c2, _) = cols_fixture();
        let active = active_words(9, |i| i % 3 != 0);
        let expect_sum: f64 = c1
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, x)| x)
            .sum();
        assert_eq!(sum_selected(&c1, &active), expect_sum);
        let expect_dot: f64 = c1
            .iter()
            .zip(&c2)
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, (a, b))| a * b)
            .sum();
        assert_eq!(dot_selected(&c1, &c2, &active), expect_dot);
        assert_eq!(min_max_selected(&c1, &active), (-3.0, 4.0));
        let kept: Vec<f64> = c2
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, &x)| x)
            .collect();
        assert_eq!(
            column_moments_selected(&c2, &active, true),
            column_moments(&kept, true)
        );
        let none = active_words(9, |_| false);
        assert_eq!(
            min_max_selected(&c1, &none),
            (f64::INFINITY, f64::NEG_INFINITY)
        );
        // All-active equals the dense kernels exactly: both sum in
        // ascending row order.
        let all = active_words(9, |_| true);
        assert_eq!(sum_selected(&c1, &all), sum(&c1));
        assert_eq!(dot_selected(&c1, &c2, &all), dot(&c1, &c2));
    }

    #[test]
    fn selected_kernels_handle_multiword_bitmaps() {
        let xs: Vec<f64> = (0..150).map(|i| i as f64).collect();
        let active = active_words(150, |i| i % 2 == 0);
        let expect: f64 = (0..150).filter(|i| i % 2 == 0).map(|i| i as f64).sum();
        assert_eq!(sum_selected(&xs, &active), expect);
        assert_eq!(min_max_selected(&xs, &active), (0.0, 148.0));
    }

    #[test]
    fn compactor_gathers_kept_rows_in_order() {
        let (c1, c2, _) = cols_fixture();
        let mut c = Compactor::default();
        let active = active_words(9, |i| i == 0 || i == 4 || i == 8);
        assert_eq!(c.compact(&[&c1, &c2], &active), 3);
        assert_eq!(c.column(0), &[-4.0, 0.0, 4.0]);
        assert_eq!(c.column(1), &[1.0, 3.0, 5.0]);
        // Reuse with fewer rows: nothing from the last call leaks in.
        let active = active_words(9, |i| i == 7);
        assert_eq!(c.compact(&[&c1], &active), 1);
        assert_eq!(c.column(0), &[3.0]);
    }

    /// The block kernels agree with per-row rank-1 updates up to
    /// rounding: the products are the same, only the additions are
    /// grouped differently. (The property tests pin the bound, and
    /// exact agreement on integer data.)
    #[test]
    fn block_updates_match_rank1_loop() {
        let (c1, c2, c3) = cols_fixture();
        let cols: Vec<&[f64]> = vec![&c1, &c2, &c3];
        let d = 3;
        let stride = 4; // deliberately != d to exercise strides

        let mut by_row = vec![0.0; stride * d];
        for i in 0..c1.len() {
            let x = [c1[i], c2[i], c3[i]];
            rank1_triangular(&mut by_row, stride, &x);
        }

        let mut by_block = vec![0.0; stride * d];
        block_triangular(&mut by_block, stride, &cols);
        for (a, (r, b)) in by_row.iter().zip(&by_block).enumerate() {
            assert!((r - b).abs() < 1e-12, "cell {a}: {r} vs {b}");
        }
        for a in 0..d {
            let sq = column_moments(cols[a], true).sum_sq;
            assert!((sq - by_block[a * stride + a]).abs() < 1e-12);
        }

        let mut full = vec![0.0; stride * d];
        block_full(&mut full, stride, &cols);
        for a in 0..d {
            for b in 0..d {
                let expect = by_block[a.max(b) * stride + a.min(b)];
                assert_eq!(full[a * stride + b], expect, "full ({a}, {b})");
            }
        }
    }

    #[test]
    fn selected_block_updates_match_filtered_rank1() {
        let (c1, c2, c3) = cols_fixture();
        let cols: Vec<&[f64]> = vec![&c1, &c2, &c3];
        let active = active_words(9, |i| i != 2 && i != 7);
        let stride = 3;

        let mut by_row = vec![0.0; 9];
        for i in 0..c1.len() {
            if i != 2 && i != 7 {
                rank1_triangular(&mut by_row, stride, &[c1[i], c2[i], c3[i]]);
            }
        }
        let mut tri = vec![0.0; 9];
        block_triangular_selected(&mut tri, stride, &cols, &active);
        for (r, b) in by_row.iter().zip(&tri) {
            assert!((r - b).abs() < 1e-12);
        }
        // An all-ones mask is the dense kernel, bit for bit.
        let mut dense = vec![0.0; 9];
        block_triangular(&mut dense, stride, &cols);
        let mut all = vec![0.0; 9];
        block_triangular_selected(&mut all, stride, &cols, &active_words(9, |_| true));
        assert_eq!(dense, all);
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn dot_checks_lengths() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "columns of unequal length")]
    fn block_kernels_check_lengths() {
        let mut q = [0.0; 4];
        block_triangular(&mut q, 2, &[&[1.0], &[1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "active bitmap length mismatch")]
    fn selected_checks_bitmap_length() {
        let _ = sum_selected(&[1.0; 65], &[0u64]);
    }

    #[test]
    #[should_panic(expected = "q buffer too small")]
    fn triangular_checks_buffer() {
        let mut q = [0.0; 3];
        rank1_triangular(&mut q, 2, &[1.0, 2.0]);
    }
}
