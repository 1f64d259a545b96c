//! Dimensional decorrelation regularization (Eq. 12–14).
//!
//! Unified dual-task learning alone lets a wide embedding satisfy every
//! loss term through its leading `Ns` columns — the *dimensional collapse*
//! the paper diagnoses via the variance of the covariance matrix's
//! singular values (Eq. 12, Table V). Penalising that variance directly
//! requires an SVD per step, so the paper follows \[70\], \[71\] and
//! regularises the Frobenius norm of the correlation matrix instead:
//!
//! ```text
//! Lreg(V) = (1/N) ‖ corr( (V - V̄) / sqrt(var(V)) ) ‖_F        (Eq. 13)
//! ```
//!
//! The gradient here treats the standardisation statistics (per-column
//! mean and variance) as constants — the stop-gradient simplification of
//! the cited FedDecorr reference implementation (DESIGN.md §2). Under
//! that convention, with `Ẑ` the standardised matrix and
//! `K = (1/B) ẐᵀẐ` the correlation matrix (constant unit diagonal
//! excluded from the penalty — same minimisers, and the gradient then
//! vanishes exactly at the decorrelated optimum `K = I`):
//!
//! ```text
//! ∂L/∂K = K / (N·‖K‖_F),   ∂L/∂Ẑ = (2/B)·Ẑ·(∂L/∂K),   ∂L/∂Z = ∂L/∂Ẑ ⊘ σ
//! ```

use hf_tensor::stats;
use hf_tensor::Matrix;

/// Variance floor below which a column is considered collapsed-constant
/// and excluded from the penalty.
const VAR_EPS: f32 = 1e-8;

/// Evaluates `Lreg` (Eq. 13) and its gradient with respect to the rows of
/// `z` (a `B x N` matrix of item embeddings).
///
/// Returns `(loss, gradient)`; the gradient has `z`'s shape. For inputs
/// with fewer than 2 rows or columns the loss is 0 with a zero gradient
/// (a single embedding row carries no correlation signal).
///
/// Single-threaded on purpose: it runs inside each client's local
/// training, which the round already fans out across its worker pool.
pub fn decorrelation_loss_grad(z: &Matrix) -> (f32, Matrix) {
    let (b, n) = (z.rows(), z.cols());
    if b < 2 || n < 2 {
        return (0.0, Matrix::zeros(b, n));
    }

    let means = stats::column_means(z);
    let vars = stats::column_variances(z);
    let inv_std: Vec<f32> = vars
        .iter()
        .map(|&v| if v > VAR_EPS { 1.0 / v.sqrt() } else { 0.0 })
        .collect();

    // Standardise (stop-grad on means/vars).
    let mut zhat = z.clone();
    for r in 0..b {
        for ((x, &mu), &is) in zhat.row_mut(r).iter_mut().zip(&means).zip(&inv_std) {
            *x = (*x - mu) * is;
        }
    }

    // Correlation matrix K = (1/B) Ẑᵀ Ẑ, with the constant unit diagonal
    // removed: the diagonal never varies (each column has unit variance
    // by construction), but under stop-grad statistics it would inject a
    // spurious self-shrinkage term into the gradient that does not vanish
    // at the decorrelated optimum. Penalising only the off-diagonal mass
    // has the same minimisers and a clean fixed point at K = I.
    let mut k = zhat.gram();
    k.scale(1.0 / b as f32);
    for j in 0..n {
        k.set(j, j, 0.0);
    }

    let norm = k.frobenius_norm();
    let loss = norm / n as f32;
    if norm < 1e-12 {
        return (loss, Matrix::zeros(b, n));
    }

    // ∂L/∂Ẑ = (2/B) Ẑ K_off / (N ‖K_off‖_F); then divide by σ per column.
    let mut grad = zhat.matmul(&k);
    grad.scale(2.0 / (b as f32 * n as f32 * norm));
    for r in 0..b {
        for (g, &is) in grad.row_mut(r).iter_mut().zip(&inv_std) {
            *g *= is;
        }
    }
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_tensor::rng::{stream, SeedStream};
    use hf_tensor::{init, stats};

    #[test]
    fn loss_is_low_for_decorrelated_columns() {
        let mut rng = stream(1, SeedStream::Custom(40));
        let z = init::normal(2000, 8, 1.0, &mut rng);
        let (loss, _) = decorrelation_loss_grad(&z);
        // Independent columns: off-diagonal correlations ≈ N(0, 1/√B),
        // so the penalty sits near sqrt(N²-N)/(√B·N) ≈ 0.02 at B=2000.
        assert!(loss < 0.05, "loss {loss}");
    }

    #[test]
    fn loss_is_high_for_collapsed_columns() {
        // Every column a multiple of the same vector: off-diagonal
        // correlations are all ±1, ‖K_off‖_F = sqrt(N²-N), loss ≈ 0.91.
        let z = Matrix::from_fn(100, 6, |r, c| ((r as f32).sin()) * (c as f32 + 1.0));
        let (loss, _) = decorrelation_loss_grad(&z);
        assert!(loss > 0.85, "loss {loss}");
    }

    #[test]
    fn collapsed_loss_exceeds_decorrelated_loss() {
        let mut rng = stream(2, SeedStream::Custom(41));
        let good = init::normal(500, 8, 1.0, &mut rng);
        let bad = Matrix::from_fn(500, 8, |r, c| {
            ((r * 31 % 97) as f32 / 97.0 - 0.5) * (1.0 + c as f32 * 0.2)
        });
        let loss = |z: &Matrix| decorrelation_loss_grad(z).0;
        assert!(loss(&bad) > 2.0 * loss(&good));
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = stream(3, SeedStream::Custom(42));
        // Mildly correlated input so the gradient is non-trivial.
        let base = init::normal(12, 4, 1.0, &mut rng);
        let mut z = base.clone();
        for r in 0..z.rows() {
            let v0 = z.get(r, 0);
            *z.get_mut(r, 2) += 0.5 * v0;
        }

        // The analytic gradient uses stop-grad statistics, so compare
        // against finite differences of the *same stop-grad objective*:
        // re-standardise with the unperturbed means/vars.
        let means = stats::column_means(&z);
        let vars = stats::column_variances(&z);
        let frozen_loss = |m: &Matrix| -> f32 {
            let bsz = m.rows() as f32;
            let mut zh = m.clone();
            for r in 0..zh.rows() {
                for ((x, &mu), &va) in zh.row_mut(r).iter_mut().zip(&means).zip(&vars) {
                    *x = (*x - mu) / va.sqrt();
                }
            }
            let mut k = zh.gram();
            k.scale(1.0 / bsz);
            for j in 0..m.cols() {
                k.set(j, j, 0.0);
            }
            k.frobenius_norm() / m.cols() as f32
        };

        let (_, grad) = decorrelation_loss_grad(&z);
        let eps = 1e-3;
        for r in 0..z.rows() {
            for c in 0..z.cols() {
                let mut plus = z.clone();
                *plus.get_mut(r, c) += eps;
                let mut minus = z.clone();
                *minus.get_mut(r, c) -= eps;
                let fd = (frozen_loss(&plus) - frozen_loss(&minus)) / (2.0 * eps);
                let g = grad.get(r, c);
                assert!(
                    (fd - g).abs() < 3e-2 * fd.abs().max(g.abs()).max(0.1),
                    "({r},{c}): analytic {g} vs fd {fd}"
                );
            }
        }
    }

    #[test]
    fn gradient_descent_reduces_singular_value_variance() {
        // The end-to-end claim behind Table V: pushing Lreg down flattens
        // the embedding spectrum. The penalty is scale-invariant (it sees
        // the *correlation* matrix), so measure the singular-value
        // variance of the column-standardised matrix — in training the
        // task loss pins the scales, here we pin them explicitly.
        let mut rng = stream(9, SeedStream::Custom(43));
        let noise = init::normal(200, 6, 1.0, &mut rng);
        let mut z = Matrix::from_fn(200, 6, |r, c| {
            let shared = ((r * 13 % 101) as f32 / 101.0 - 0.5) * 2.0;
            0.8 * shared + 0.6 * noise.get(r, c)
        });
        let spectrum_spread =
            |m: &Matrix| stats::singular_value_variance(&stats::standardize_columns(m, 1e-12));
        let before = spectrum_spread(&z);
        for _ in 0..400 {
            let (_, grad) = decorrelation_loss_grad(&z);
            z.axpy(-2.0, &grad);
        }
        let after = spectrum_spread(&z);
        assert!(after < before * 0.8, "before {before}, after {after}");
    }

    #[test]
    fn loss_and_gradient_bits_are_pinned() {
        // Loss bits and an FNV-1a digest of the gradient bits, pinned at
        // commit d068603, where the gradient product still went through a
        // thread-count-parameterised driver. The kernel arithmetic is the
        // same, so not one bit may move.
        let mut rng = stream(4, SeedStream::Custom(44));
        let z = init::normal(300, 32, 1.0, &mut rng);
        let (loss, grad) = decorrelation_loss_grad(&z);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for x in grad.as_slice() {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(loss.to_bits(), 0x3d60_d3a1, "loss {loss}");
        assert_eq!(h, 0x6968_4cb9_3934_220f, "gradient digest {h:#018x}");
    }

    #[test]
    fn degenerate_inputs_are_zero() {
        let (l, g) = decorrelation_loss_grad(&Matrix::zeros(1, 5));
        assert_eq!(l, 0.0);
        assert_eq!(g.max_abs(), 0.0);
        let (l, g) = decorrelation_loss_grad(&Matrix::zeros(5, 1));
        assert_eq!(l, 0.0);
        assert_eq!(g.max_abs(), 0.0);
    }

    #[test]
    fn constant_columns_are_ignored() {
        let z = Matrix::from_fn(
            50,
            3,
            |r, c| if c == 2 { 7.0 } else { ((r + c) as f32).sin() },
        );
        let (loss, grad) = decorrelation_loss_grad(&z);
        assert!(loss.is_finite());
        for r in 0..50 {
            assert_eq!(grad.get(r, 2), 0.0, "constant column must get no gradient");
        }
    }
}
