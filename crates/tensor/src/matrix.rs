//! Row-major dense `f32` matrix.
//!
//! The recommender models only need a small set of operations, but two of
//! them are unusual and drive the design:
//!
//! * **Prefix-column views.** Heterogeneous tiers operate on the *leading*
//!   `n` columns of a wider embedding table (the paper's `V[:Ns]` slices,
//!   Eq. 10/11). Rows are contiguous, so a prefix view of a row is just a
//!   shorter slice — every row accessor therefore takes an optional width.
//! * **Sparse row updates.** A federated client touches only the item rows
//!   in its local batch, so in-place row `axpy` must be cheap and
//!   allocation-free.

/// Row-major dense matrix of `f32`.
///
/// Invariant: `data.len() == rows * cols` at all times.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zero matrix of shape `rows x cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "flat buffer length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable access to the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Sets a single element.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Full row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Full row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Leading `width` entries of row `r` — the `[:width]` prefix view the
    /// heterogeneous tiers operate on.
    ///
    /// # Panics
    /// Panics if `width > cols`.
    #[inline]
    pub fn row_prefix(&self, r: usize, width: usize) -> &[f32] {
        assert!(
            width <= self.cols,
            "prefix width {width} exceeds {} columns",
            self.cols
        );
        let start = r * self.cols;
        &self.data[start..start + width]
    }

    /// Mutable leading `width` entries of row `r`.
    #[inline]
    pub fn row_prefix_mut(&mut self, r: usize, width: usize) -> &mut [f32] {
        assert!(
            width <= self.cols,
            "prefix width {width} exceeds {} columns",
            self.cols
        );
        let start = r * self.cols;
        &mut self.data[start..start + width]
    }

    /// Copies the leading `width` columns into a new `rows x width` matrix
    /// (materialises the paper's `V[:N]` sub-table).
    pub fn prefix_columns(&self, width: usize) -> Matrix {
        assert!(
            width <= self.cols,
            "prefix width {width} exceeds {} columns",
            self.cols
        );
        let mut out = Vec::with_capacity(self.rows * width);
        for r in 0..self.rows {
            out.extend_from_slice(self.row_prefix(r, width));
        }
        Matrix::from_vec(self.rows, width, out)
    }

    /// Copies a subset of rows (in the given order) into a new matrix.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Vec::with_capacity(indices.len() * self.cols);
        for &r in indices {
            out.extend_from_slice(self.row(r));
        }
        Matrix::from_vec(indices.len(), self.cols, out)
    }

    /// Fills every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// `self += alpha * other` (same shape).
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "axpy shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// `self[r][..len] += alpha * v` for a single row prefix.
    #[inline]
    pub fn row_axpy(&mut self, r: usize, alpha: f32, v: &[f32]) {
        let row = self.row_prefix_mut(r, v.len());
        for (a, b) in row.iter_mut().zip(v.iter()) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// Matrix product `self * other`.
    ///
    /// Blocked kernel tiled over i/k/j: `MR x NR` output tiles are
    /// accumulated in an f32 register panel by an outer-product
    /// micro-kernel, so each loaded slice of `other` feeds `MR` output
    /// rows and the k-loop issues `MR` independent fma chains with no
    /// stores. Every `a_ik * b_kj` product is accumulated — there is
    /// deliberately no zero-skip, so non-finite values (NaN/Inf) propagate
    /// into the product exactly as IEEE 754 dictates. Each output element
    /// sums its `k` terms in ascending order, keeping results bit-identical
    /// to a naive ikj loop and independent of the tiling.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_rows(other, 0, self.rows)
    }

    /// Product of the row slice `self[row_start..row_end]` with `other`,
    /// as a `(row_end - row_start) x other.cols` matrix.
    ///
    /// This is the unit of work the serving path fans out, one item-table
    /// panel per call (`hf_models::scoring`): concatenating the blocks for
    /// a partition of `0..rows` reproduces [`Matrix::matmul`] bit for bit,
    /// because each output row is computed identically in isolation.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows` or the row range is out of
    /// bounds or reversed.
    pub fn matmul_rows(&self, other: &Matrix, row_start: usize, row_end: usize) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert!(
            row_start <= row_end && row_end <= self.rows,
            "row range {row_start}..{row_end} out of bounds for {} rows",
            self.rows
        );
        // Micro-kernel tile: MR rows of `self` against NR columns of
        // `other`, with the MR x NR f32 accumulator panel living in
        // registers across the whole k loop (the only stores happen at
        // write-back). One loaded NR-wide slice of `other` feeds MR fma
        // chains, cutting B traffic MR-fold versus the row-at-a-time loop.
        const MR: usize = 4;
        const NR: usize = 16;
        let (kd, n) = (self.cols, other.cols);
        let m = row_end - row_start;
        let mut out = Matrix::zeros(m, n);
        if m == 0 || n == 0 || kd == 0 {
            return out;
        }
        let a = &self.data;
        let b = &other.data;
        let full_i = m - m % MR;
        let full_j = n - n % NR;
        for ii in (0..full_i).step_by(MR) {
            let a_rows: [&[f32]; MR] = std::array::from_fn(|r| {
                let start = (row_start + ii + r) * kd;
                &a[start..start + kd]
            });
            for jj in (0..full_j).step_by(NR) {
                let mut acc = [[0.0f32; NR]; MR];
                for k in 0..kd {
                    // Fixed-size view so the inner loops fully unroll.
                    let b_tile: &[f32; NR] =
                        b[k * n + jj..k * n + jj + NR].try_into().expect("NR slice");
                    for r in 0..MR {
                        let a_rk = a_rows[r][k];
                        for (o, &b_kj) in acc[r].iter_mut().zip(b_tile) {
                            *o += a_rk * b_kj;
                        }
                    }
                }
                for (r, acc_row) in acc.iter().enumerate() {
                    out.data[(ii + r) * n + jj..][..NR].copy_from_slice(acc_row);
                }
            }
            if full_j < n {
                // Column tail: same panel accumulation over a short tile.
                let nb = n - full_j;
                let mut acc = [[0.0f32; NR]; MR];
                for k in 0..kd {
                    let b_tile = &b[k * n + full_j..][..nb];
                    for r in 0..MR {
                        let a_rk = a_rows[r][k];
                        for (o, &b_kj) in acc[r][..nb].iter_mut().zip(b_tile) {
                            *o += a_rk * b_kj;
                        }
                    }
                }
                for (r, acc_row) in acc.iter().enumerate() {
                    out.data[(ii + r) * n + full_j..][..nb].copy_from_slice(&acc_row[..nb]);
                }
            }
        }
        // Row tail (m % MR rows): plain ikj axpy, still skip-free and in
        // ascending k order, so elements match the micro-kernel bitwise.
        for i in full_i..m {
            let a_row = &a[(row_start + i) * kd..][..kd];
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (k, &a_ik) in a_row.iter().enumerate() {
                let b_row = &b[k * n..(k + 1) * n];
                for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                    *o += a_ik * b_kj;
                }
            }
        }
        out
    }

    /// `self^T * self` without materialising the transpose — the Gram matrix
    /// used by covariance/correlation computations.
    ///
    /// Accumulates rank-1 updates on the upper triangle only (the result is
    /// symmetric by construction) and mirrors at the end, halving the work
    /// of a full accumulation. Like [`Matrix::matmul`] there is no
    /// zero-skip, so NaN/Inf in any row poisons the affected entries.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut out = Matrix::zeros(n, n);
        for r in 0..self.rows {
            let row = self.row(r);
            for (i, &xi) in row.iter().enumerate() {
                let out_row = &mut out.data[i * n + i..(i + 1) * n];
                for (o, &xj) in out_row.iter_mut().zip(&row[i..]) {
                    *o += xi * xj;
                }
            }
        }
        for i in 0..n {
            for j in i + 1..n {
                out.data[j * n + i] = out.data[i * n + j];
            }
        }
        out
    }

    /// `self * self^T` — the row-Gram matrix (`rows x rows`) of pairwise
    /// row dot products, the kernel behind pairwise-similarity matrices.
    ///
    /// Computes the upper triangle of contiguous-slice dot products and
    /// mirrors it; no zero-skip, so non-finite rows poison their entries.
    pub fn row_gram(&self) -> Matrix {
        let m = self.rows;
        let mut out = Matrix::zeros(m, m);
        for i in 0..m {
            let ri = self.row(i);
            for j in i..m {
                let mut acc = 0.0f32;
                for (&x, &y) in ri.iter().zip(self.row(j)) {
                    acc += x * y;
                }
                out.data[i * m + j] = acc;
                out.data[j * m + i] = acc;
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Frobenius norm `sqrt(sum of squares)`.
    pub fn frobenius_norm(&self) -> f32 {
        self.data
            .iter()
            .map(|x| (*x as f64) * (*x as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Sum of squared elements (squared Frobenius norm) in f64 for accuracy.
    pub fn sum_squares(&self) -> f64 {
        self.data.iter().map(|x| (*x as f64) * (*x as f64)).sum()
    }

    /// Maximum absolute element, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, x| m.max(x.abs()))
    }

    /// Elementwise sum with another matrix, producing a new matrix.
    pub fn add(&self, other: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.axpy(1.0, other);
        out
    }

    /// Elementwise difference `self - other`, producing a new matrix.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.axpy(-1.0, other);
        out
    }
}

impl crate::ser::ToJson for Matrix {
    fn write_json(&self, out: &mut String) {
        crate::ser::obj(out, |o| {
            o.field("rows", &self.rows)
                .field("cols", &self.cols)
                .field("data", &self.data);
        });
    }
}

impl Matrix {
    /// Restores a checkpointed matrix (shape-checked).
    pub fn from_json(v: &crate::ser::JsonValue<'_>) -> Result<Self, crate::ser::JsonError> {
        let rows = v.get("rows")?.as_usize()?;
        let cols = v.get("cols")?.as_usize()?;
        let data = v.get("data")?.as_f32_vec()?;
        if data.len() != rows * cols {
            return Err(crate::ser::JsonError::msg(format!(
                "matrix data length {} does not match shape {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_contents() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_indexing_is_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    #[should_panic(expected = "flat buffer length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn row_prefix_views() {
        let m = Matrix::from_fn(2, 4, |r, c| (r * 4 + c) as f32);
        assert_eq!(m.row_prefix(1, 2), &[4.0, 5.0]);
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "prefix width")]
    fn row_prefix_rejects_overwide() {
        let m = Matrix::zeros(2, 3);
        let _ = m.row_prefix(0, 4);
    }

    #[test]
    fn prefix_columns_materialises_leading_slice() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let p = m.prefix_columns(2);
        assert_eq!(p.rows(), 3);
        assert_eq!(p.cols(), 2);
        assert_eq!(p.as_slice(), &[0.0, 1.0, 4.0, 5.0, 8.0, 9.0]);
    }

    #[test]
    fn select_rows_in_order() {
        let m = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let s = m.select_rows(&[3, 1]);
        assert_eq!(s.as_slice(), &[6.0, 7.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(3, 3, |r, c| (r + c) as f32 + 0.5);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn gram_equals_transpose_matmul() {
        let a = Matrix::from_fn(4, 3, |r, c| ((r * 3 + c) as f32).sin());
        let g = a.gram();
        let g2 = a.transpose().matmul(&a);
        for (x, y) in g.as_slice().iter().zip(g2.as_slice()) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_rows_blocks_concatenate_to_full_product() {
        let a = Matrix::from_fn(37, 23, |r, c| ((r * 23 + c) as f32).sin());
        let b = Matrix::from_fn(23, 41, |r, c| ((r * 41 + c) as f32).cos());
        let full = a.matmul(&b);
        for split in [0, 1, 17, 37] {
            let top = a.matmul_rows(&b, 0, split);
            let bottom = a.matmul_rows(&b, split, 37);
            let mut joined = top.into_vec();
            joined.extend_from_slice(bottom.as_slice());
            // Bit-identical, not just close: row blocks must reproduce the
            // full kernel exactly so threaded fan-out stays deterministic.
            let joined: Vec<u32> = joined.iter().map(|x| x.to_bits()).collect();
            let expect: Vec<u32> = full.as_slice().iter().map(|x| x.to_bits()).collect();
            assert_eq!(joined, expect, "split {split}");
        }
    }

    #[test]
    fn matmul_handles_non_tile_aligned_shapes() {
        // Shapes straddling the MR x NR (4 x 16) micro-kernel tile exercise
        // every edge branch; verify against a plain triple loop.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (33, 65, 66),
            (64, 64, 64),
            (5, 130, 3),
        ] {
            let a = Matrix::from_fn(m, k, |r, c| ((r * k + c) as f32 * 0.37).sin());
            let b = Matrix::from_fn(k, n, |r, c| ((r * n + c) as f32 * 0.61).cos());
            let got = a.matmul(&b);
            for i in 0..m {
                for j in 0..n {
                    let mut want = 0.0f32;
                    for kk in 0..k {
                        want += a.get(i, kk) * b.get(kk, j);
                    }
                    assert_eq!(
                        got.get(i, j).to_bits(),
                        want.to_bits(),
                        "({i},{j}) {m}x{k}x{n}"
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_propagates_nan_despite_zero_operand() {
        // Regression: the old kernel skipped a_ik == 0.0, so 0 * NaN was
        // silently dropped instead of poisoning the output (IEEE 754 says
        // 0 * NaN = NaN). A diverged operand must be visible in the result.
        let mut a = Matrix::zeros(2, 3);
        a.set(0, 0, 1.0); // row 0 multiplies b row 0 only (rest are zeros)
        let mut b = Matrix::filled(3, 2, 1.0);
        b.set(2, 0, f32::NAN); // reached only through a's zero entries
        let c = a.matmul(&b);
        assert!(c.get(0, 0).is_nan(), "0*NaN must poison the row");
        assert!(c.get(1, 0).is_nan(), "all-zero row still sees 0*NaN");
        assert_eq!(c.get(1, 1), 0.0, "finite column stays finite");

        // NaN on the right reached only through a zero in the left operand.
        let a2 = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        let mut b2 = Matrix::identity(2);
        b2.set(1, 1, f32::NAN);
        let c2 = a2.matmul(&b2);
        assert!(c2.get(0, 1).is_nan(), "0*NaN in column must propagate");
    }

    #[test]
    fn gram_propagates_nan_rows() {
        let mut x = Matrix::filled(4, 3, 0.0);
        x.set(2, 1, f32::NAN);
        let g = x.gram();
        for j in 0..3 {
            assert!(g.get(1, j).is_nan(), "gram row 1 col {j} must be NaN");
            assert!(g.get(j, 1).is_nan(), "gram col 1 row {j} must be NaN");
        }
    }

    #[test]
    fn row_gram_matches_matmul_with_transpose() {
        let a = Matrix::from_fn(9, 5, |r, c| ((r * 5 + c) as f32).sin());
        let g = a.row_gram();
        let g2 = a.matmul(&a.transpose());
        assert_eq!(g.rows(), 9);
        for (x, y) in g.as_slice().iter().zip(g2.as_slice()) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
        // Symmetry is exact by construction.
        for i in 0..9 {
            for j in 0..9 {
                assert_eq!(g.get(i, j).to_bits(), g.get(j, i).to_bits());
            }
        }
    }

    #[test]
    fn transpose_is_involution() {
        let a = Matrix::from_fn(2, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
        a.scale(0.25);
        assert_eq!(a.as_slice(), &[0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn row_axpy_touches_only_target_prefix() {
        let mut a = Matrix::zeros(2, 3);
        a.row_axpy(1, 2.0, &[1.0, 2.0]);
        assert_eq!(a.as_slice(), &[0.0, 0.0, 0.0, 2.0, 4.0, 0.0]);
    }

    #[test]
    fn frobenius_norm_known_value() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_fn(2, 2, |r, c| (r + 2 * c) as f32);
        let b = Matrix::filled(2, 2, 1.5);
        let roundtrip = a.add(&b).sub(&b);
        for (x, y) in roundtrip.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn max_abs_and_finiteness() {
        let a = Matrix::from_vec(1, 3, vec![-2.0, 1.0, 0.5]);
        assert_eq!(a.max_abs(), 2.0);
        assert!(a.as_slice().iter().all(|x| x.is_finite()));
        let b = Matrix::from_vec(1, 1, vec![f32::NAN]);
        assert!(!b.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn json_roundtrip_is_bit_exact() {
        use crate::ser::{parse_json, ToJson};
        let m = Matrix::from_fn(3, 2, |r, c| ((r * 7 + c) as f32).sin() / 3.0);
        let back = Matrix::from_json(&parse_json(&m.to_json()).unwrap()).unwrap();
        assert_eq!(back.rows(), 3);
        assert_eq!(back.cols(), 2);
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Shape mismatch is rejected.
        let bad = parse_json(r#"{"rows":2,"cols":2,"data":[1,2,3]}"#).unwrap();
        assert!(Matrix::from_json(&bad).is_err());
    }
}
