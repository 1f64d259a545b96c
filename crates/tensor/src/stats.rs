//! Column statistics and covariance matrices.
//!
//! Two consumers in the paper:
//!
//! * **Eq. 13 (DDR):** `Lreg(V) = (1/N) ‖corr((V - V̄)/sqrt(var(V)))‖_F`,
//!   the Frobenius norm of the correlation matrix of the (column-
//!   standardised) embedding matrix: the column means and variances
//!   standardise it, and `hetefedrec_core::ddr` forms the correlation
//!   matrix itself, beside the gradient it needs.
//! * **Table V:** the variance of the singular values of `cov(Vl)` — since
//!   a covariance matrix is symmetric positive semi-definite, its singular
//!   values equal its eigenvalues, which [`crate::eigen`] supplies.
//!
//! Rows are observations (items), columns are embedding dimensions
//! throughout.

use crate::matrix::Matrix;

/// Per-column means of `m` (length = `m.cols()`).
pub fn column_means(m: &Matrix) -> Vec<f32> {
    let (rows, cols) = (m.rows(), m.cols());
    let mut means = vec![0.0_f64; cols];
    for r in 0..rows {
        for (acc, &x) in means.iter_mut().zip(m.row(r)) {
            *acc += x as f64;
        }
    }
    let n = rows.max(1) as f64;
    means.into_iter().map(|s| (s / n) as f32).collect()
}

/// Per-column population variances of `m`.
pub fn column_variances(m: &Matrix) -> Vec<f32> {
    let means = column_means(m);
    let (rows, cols) = (m.rows(), m.cols());
    let mut vars = vec![0.0_f64; cols];
    for r in 0..rows {
        for ((acc, &mu), &x) in vars.iter_mut().zip(&means).zip(m.row(r)) {
            let d = x as f64 - mu as f64;
            *acc += d * d;
        }
    }
    let n = rows.max(1) as f64;
    vars.into_iter().map(|s| (s / n) as f32).collect()
}

/// Column-standardised copy of `m`: each column shifted to zero mean and
/// scaled to unit variance. Columns with variance below `eps` are left at
/// zero after centring (they carry no correlation signal).
pub fn standardize_columns(m: &Matrix, eps: f32) -> Matrix {
    let means = column_means(m);
    let vars = column_variances(m);
    let inv_std: Vec<f32> = vars
        .iter()
        .map(|&v| if v > eps { 1.0 / v.sqrt() } else { 0.0 })
        .collect();
    let mut out = m.clone();
    for r in 0..out.rows() {
        for ((x, &mu), &is) in out.row_mut(r).iter_mut().zip(&means).zip(&inv_std) {
            *x = (*x - mu) * is;
        }
    }
    out
}

/// Population covariance matrix of the columns of `m` (`cols x cols`).
pub fn covariance(m: &Matrix) -> Matrix {
    let means = column_means(m);
    let mut centered = m.clone();
    for r in 0..centered.rows() {
        for (x, &mu) in centered.row_mut(r).iter_mut().zip(&means) {
            *x -= mu;
        }
    }
    let mut cov = centered.gram();
    cov.scale(1.0 / m.rows().max(1) as f32);
    cov
}

/// Variance of the eigenvalues (= singular values) of the covariance
/// matrix of `m` — the Table V dimensional-collapse diagnostic
/// (Eq. 12's inner quantity).
///
/// Higher values mean a few dimensions dominate, i.e. more severe
/// dimensional collapse.
pub fn singular_value_variance(m: &Matrix) -> f32 {
    let cov = covariance(m);
    let eigenvalues = crate::eigen::symmetric_eigenvalues(&cov, 1e-9, 128);
    crate::ops::variance(&eigenvalues)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::rng::{stream, SeedStream};

    #[test]
    fn column_means_hand_checked() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 10.0, 3.0, 30.0]);
        let means = column_means(&m);
        assert!((means[0] - 2.0).abs() < 1e-6);
        assert!((means[1] - 20.0).abs() < 1e-6);
    }

    #[test]
    fn column_variances_hand_checked() {
        let m = Matrix::from_vec(2, 1, vec![1.0, 3.0]);
        assert!((column_variances(&m)[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn standardized_columns_have_zero_mean_unit_variance() {
        let mut rng = stream(11, SeedStream::Custom(0));
        let m = init::normal(300, 6, 2.5, &mut rng);
        let z = standardize_columns(&m, 1e-12);
        for (j, (&mu, &var)) in column_means(&z)
            .iter()
            .zip(&column_variances(&z))
            .enumerate()
        {
            assert!(mu.abs() < 1e-4, "col {j} mean {mu}");
            assert!((var - 1.0).abs() < 1e-3, "col {j} var {var}");
        }
    }

    #[test]
    fn constant_column_standardizes_to_zero() {
        let m = Matrix::from_vec(3, 2, vec![5.0, 1.0, 5.0, 2.0, 5.0, 3.0]);
        let z = standardize_columns(&m, 1e-12);
        for r in 0..3 {
            assert_eq!(z.get(r, 0), 0.0);
        }
    }

    #[test]
    fn covariance_diagonal_matches_column_variance() {
        let mut rng = stream(12, SeedStream::Custom(1));
        let m = init::normal(200, 4, 1.0, &mut rng);
        let cov = covariance(&m);
        let vars = column_variances(&m);
        for (j, &var) in vars.iter().enumerate() {
            assert!((cov.get(j, j) - var).abs() < 1e-4);
        }
    }

    #[test]
    fn covariance_is_symmetric() {
        let mut rng = stream(13, SeedStream::Custom(2));
        let m = init::normal(50, 5, 1.0, &mut rng);
        let cov = covariance(&m);
        for i in 0..5 {
            for j in 0..5 {
                assert!((cov.get(i, j) - cov.get(j, i)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn singular_variance_zero_for_isotropic_higher_for_collapsed() {
        let mut rng = stream(16, SeedStream::Custom(5));
        // Isotropic: independent unit-variance columns.
        let iso = init::normal(2000, 4, 1.0, &mut rng);
        // Collapsed: all four columns are scalar multiples of one factor.
        let collapsed = Matrix::from_fn(2000, 4, |r, c| {
            let f = ((r * 37 % 911) as f32 / 911.0 - 0.5) * 4.0;
            f * (1.0 + c as f32 * 0.1)
        });
        let v_iso = singular_value_variance(&iso);
        let v_col = singular_value_variance(&collapsed);
        assert!(v_col > v_iso * 5.0, "iso {v_iso} collapsed {v_col}");
    }
}
