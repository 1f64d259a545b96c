//! Parameter initialisers.
//!
//! The paper inherits the usual deep-recsys defaults: Glorot/Xavier for FFN
//! weights and small-variance normal draws for embedding tables. The
//! heterogeneous aggregation (Eq. 10) additionally requires that tier
//! tables are initialised *from the same point* on their shared column
//! prefixes — [`embedding_normal`] guarantees this by construction because
//! the generator fills row-major and each tier table is a prefix slice of
//! the widest one.

use crate::matrix::Matrix;
use crate::rng::Rng;

/// Overwrites `out`, a `rows x cols` weight matrix in row-major order,
/// with Glorot/Xavier-uniform draws, in order: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`.
pub fn fill_glorot_uniform(out: &mut [f32], rows: usize, cols: usize, rng: &mut impl Rng) {
    debug_assert_eq!(out.len(), rows * cols);
    let a = (6.0 / (rows + cols) as f32).sqrt();
    out.iter_mut().for_each(|x| *x = rng.gen_range(-a..a));
}

/// Normal(0, std) initialised matrix, the convention for embedding tables.
pub fn normal(rows: usize, cols: usize, std: f32, rng: &mut impl Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| sample_normal(rng) * std)
}

/// Normal(0, std) initialised flat vector (for biases / user embeddings).
pub fn normal_vec(len: usize, std: f32, rng: &mut impl Rng) -> Vec<f32> {
    let mut v = vec![0.0; len];
    fill_normal(&mut v, std, rng);
    v
}

/// Overwrites `out` with Normal(0, std) draws, in order — the values
/// [`normal_vec`] returns, into a slice the caller owns.
pub fn fill_normal(out: &mut [f32], std: f32, rng: &mut impl Rng) {
    out.iter_mut().for_each(|x| *x = sample_normal(rng) * std);
}

/// Embedding-table initialiser: Normal(0, `1/sqrt(dim)`), the scale that
/// keeps dot products O(1) regardless of dimension — important when tiers
/// of very different widths (8 vs 128) must coexist.
pub fn embedding_normal(rows: usize, dim: usize, rng: &mut impl Rng) -> Matrix {
    normal(rows, dim, 1.0 / (dim.max(1) as f32).sqrt(), rng)
}

/// Samples a standard normal from the workspace RNG's Box–Muller draw.
fn sample_normal(rng: &mut impl Rng) -> f32 {
    rng.standard_normal_f32()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{stream, SeedStream};

    #[test]
    fn glorot_respects_bound() {
        let mut rng = stream(1, SeedStream::ParamInit);
        let mut m = vec![0.0; 64 * 32];
        fill_glorot_uniform(&mut m, 64, 32, &mut rng);
        let a = (6.0 / 96.0_f32).sqrt();
        assert!(m.iter().all(|&x| x > -a && x < a));
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = stream(2, SeedStream::ParamInit);
        let m = normal(200, 50, 0.5, &mut rng);
        let n = m.len() as f64;
        let mean: f64 = m.as_slice().iter().map(|&x| x as f64).sum::<f64>() / n;
        let var: f64 = m
            .as_slice()
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 0.5).abs() < 0.02, "std {}", var.sqrt());
    }

    #[test]
    fn embedding_scale_tracks_dimension() {
        let mut rng = stream(3, SeedStream::ParamInit);
        let wide = embedding_normal(500, 64, &mut rng);
        let n = wide.len() as f64;
        let var: f64 = wide
            .as_slice()
            .iter()
            .map(|&x| (x as f64).powi(2))
            .sum::<f64>()
            / n;
        let expected = 1.0 / 64.0;
        assert!(
            (var - expected).abs() < expected * 0.15,
            "var {var} vs {expected}"
        );
    }

    #[test]
    fn initialisation_is_deterministic_per_stream() {
        let mut a = stream(9, SeedStream::ParamInit);
        let mut b = stream(9, SeedStream::ParamInit);
        let (mut x, mut y) = ([0.0; 16], [0.0; 16]);
        fill_glorot_uniform(&mut x, 4, 4, &mut a);
        fill_glorot_uniform(&mut y, 4, 4, &mut b);
        assert_eq!(x, y);
    }

    #[test]
    fn normal_vec_length() {
        let mut rng = stream(4, SeedStream::UserInit);
        assert_eq!(normal_vec(17, 0.1, &mut rng).len(), 17);
    }

    #[test]
    fn samples_are_finite() {
        let mut rng = stream(5, SeedStream::ParamInit);
        let m = normal(100, 10, 1.0, &mut rng);
        assert!(m.as_slice().iter().all(|x| x.is_finite()));
    }
}
