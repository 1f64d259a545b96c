//! Neural collaborative filtering engine.
//!
//! Eq. 5 of the paper: `r̂_ij = σ(FFN([u_i, v_j]))`. The engine holds one
//! predictor (`Θ` of one tier) and scores `(user embedding, item
//! embedding)` pairs of the matching width; the sigmoid lives in the loss
//! (`bce_with_logits`), so [`NcfEngine::forward`] returns logits.

use crate::ffn::{Ffn, FfnCache};
use hf_tensor::rng::Rng;

/// NCF scoring engine for one embedding width.
#[derive(Clone, Debug)]
pub struct NcfEngine {
    dim: usize,
    ffn: Ffn,
}

impl NcfEngine {
    /// Creates an engine with the paper's predictor architecture
    /// `[2*dim, 8, 8] → 1`.
    pub fn new(dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            dim,
            ffn: Ffn::new(&crate::paper_predictor_dims(dim), rng),
        }
    }

    /// Wraps an existing predictor (used when `Θ` arrives from the server).
    ///
    /// # Panics
    /// Panics if the predictor input width is not `2*dim`.
    pub fn from_ffn(dim: usize, ffn: Ffn) -> Self {
        assert_eq!(ffn.input_dim(), 2 * dim, "predictor width must be 2*dim");
        Self { dim, ffn }
    }

    /// Embedding width this engine scores.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Immutable access to the predictor parameters.
    pub fn ffn(&self) -> &Ffn {
        &self.ffn
    }

    /// Mutable access to the predictor parameters (local training updates).
    pub fn ffn_mut(&mut self) -> &mut Ffn {
        &mut self.ffn
    }

    /// Scoring workspace sized for this engine.
    pub fn workspace(&self) -> NcfWorkspace {
        NcfWorkspace {
            cache: FfnCache::for_ffn(&self.ffn),
            input: vec![0.0; 2 * self.dim],
            d_input: vec![0.0; 2 * self.dim],
        }
    }

    /// Logit for one `(user, item)` embedding pair.
    ///
    /// # Panics
    /// Panics if either embedding is not `dim` wide.
    pub fn forward(&self, user: &[f32], item: &[f32], ws: &mut NcfWorkspace) -> f32 {
        assert_eq!(user.len(), self.dim, "user embedding width");
        assert_eq!(item.len(), self.dim, "item embedding width");
        ws.input[..self.dim].copy_from_slice(user);
        ws.input[self.dim..].copy_from_slice(item);
        self.ffn.forward(&ws.input, &mut ws.cache)
    }

    /// Backward pass for the most recent [`NcfEngine::forward`] on `ws`.
    ///
    /// Accumulates predictor gradients into `theta_grads` and writes the
    /// embedding gradients into `d_user` / `d_item` (overwriting them).
    pub fn backward(
        &self,
        d_logit: f32,
        ws: &mut NcfWorkspace,
        theta_grads: &mut Ffn,
        d_user: &mut [f32],
        d_item: &mut [f32],
    ) {
        self.ffn
            .backward(d_logit, &mut ws.cache, theta_grads, &mut ws.d_input);
        d_user.copy_from_slice(&ws.d_input[..self.dim]);
        d_item.copy_from_slice(&ws.d_input[self.dim..]);
    }
}

/// Reusable buffers for NCF scoring (one per worker thread).
#[derive(Clone, Debug)]
pub struct NcfWorkspace {
    cache: FfnCache,
    input: Vec<f32>,
    d_input: Vec<f32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_tensor::ops::{bce_with_logits, bce_with_logits_grad};
    use hf_tensor::rng::{stream, SeedStream};

    fn engine(dim: usize, seed: u64) -> NcfEngine {
        let mut rng = stream(seed, SeedStream::ParamInit);
        NcfEngine::new(dim, &mut rng)
    }

    #[test]
    fn forward_is_deterministic() {
        let e = engine(8, 1);
        let mut ws = e.workspace();
        let u = vec![0.1; 8];
        let v = vec![-0.2; 8];
        assert_eq!(e.forward(&u, &v, &mut ws), e.forward(&u, &v, &mut ws));
    }

    #[test]
    fn embedding_gradients_match_finite_differences() {
        let e = engine(4, 2);
        let mut ws = e.workspace();
        let mut rng = stream(50, SeedStream::Custom(4));
        let u = hf_tensor::init::normal_vec(4, 1.0, &mut rng);
        let v = hf_tensor::init::normal_vec(4, 1.0, &mut rng);
        let y = 1.0;

        let logit = e.forward(&u, &v, &mut ws);
        let mut tg = e.ffn().zeros_like();
        let mut du = vec![0.0; 4];
        let mut dv = vec![0.0; 4];
        e.backward(
            bce_with_logits_grad(logit, y),
            &mut ws,
            &mut tg,
            &mut du,
            &mut dv,
        );

        let eps = 1e-2;
        for i in 0..4 {
            let mut up = u.clone();
            up[i] += eps;
            let mut um = u.clone();
            um[i] -= eps;
            let lp = bce_with_logits(e.forward(&up, &v, &mut ws), y);
            let lm = bce_with_logits(e.forward(&um, &v, &mut ws), y);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - du[i]).abs() < 5e-3 * fd.abs().max(1.0),
                "du[{i}] {} vs {fd}",
                du[i]
            );

            let mut vp = v.clone();
            vp[i] += eps;
            let mut vm = v.clone();
            vm[i] -= eps;
            let lp = bce_with_logits(e.forward(&u, &vp, &mut ws), y);
            let lm = bce_with_logits(e.forward(&u, &vm, &mut ws), y);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dv[i]).abs() < 5e-3 * fd.abs().max(1.0),
                "dv[{i}] {} vs {fd}",
                dv[i]
            );
        }
    }

    #[test]
    fn training_separates_positive_and_negative_items() {
        // One user, two items with opposite ground truth — a few gradient
        // steps must drive the logits apart.
        let mut e = engine(4, 3);
        let mut ws = e.workspace();
        let mut u = vec![0.1, -0.1, 0.2, 0.05];
        let v_pos = vec![0.3, 0.1, -0.2, 0.4];
        let v_neg = vec![-0.1, 0.2, 0.3, -0.3];
        let mut du = vec![0.0; 4];
        let mut dv = vec![0.0; 4];

        for _ in 0..200 {
            let mut tg = e.ffn().zeros_like();
            for (v, y) in [(&v_pos, 1.0), (&v_neg, 0.0)] {
                let logit = e.forward(&u, v, &mut ws);
                e.backward(
                    bce_with_logits_grad(logit, y),
                    &mut ws,
                    &mut tg,
                    &mut du,
                    &mut dv,
                );
                hf_tensor::ops::axpy_slice(&mut u, -0.1, &du);
            }
            e.ffn_mut().add_scaled(-0.1, &tg);
        }
        let pos = e.forward(&u, &v_pos, &mut ws);
        let neg = e.forward(&u, &v_neg, &mut ws);
        assert!(pos > neg + 1.0, "pos {pos} vs neg {neg}");
    }

    #[test]
    #[should_panic(expected = "user embedding width")]
    fn rejects_wrong_user_width() {
        let e = engine(4, 4);
        let mut ws = e.workspace();
        let _ = e.forward(&[0.0; 3], &[0.0; 4], &mut ws);
    }

    #[test]
    #[should_panic(expected = "predictor width")]
    fn from_ffn_checks_width() {
        let mut rng = stream(5, SeedStream::ParamInit);
        let ffn = Ffn::new(&[6, 4, 1], &mut rng);
        let _ = NcfEngine::from_ffn(4, ffn);
    }
}
