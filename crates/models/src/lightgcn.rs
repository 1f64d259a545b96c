//! LightGCN with client-local propagation.
//!
//! §III-B of the paper: "users and items are treated as distinct nodes and
//! a bipartite graph is constructed based on user-item interactions. ...
//! To ensure privacy, the propagation is only used in user's local graph"
//! with one propagation layer (§V-D), after which "user and item
//! embeddings are used to predict users' preference scores via Eq. 5"
//! (the same FFN predictor as NCF).
//!
//! A single client's local bipartite graph is a star: the user node
//! connected to its training items. One LightGCN layer on that star gives
//!
//! ```text
//! e_u^(1) = Σ_{i ∈ I_u} e_i / sqrt(|I_u| · deg_i)      (deg_i = 1 locally)
//! ```
//!
//! and the layer-combined user representation `u' = (e_u^(0) + e_u^(1))/2`.
//!
//! **Substitution note (documented in DESIGN.md):** the symmetric item-side
//! propagation `e_i^(1) = e_u / sqrt(|I_u|)` is applied only to *in-graph*
//! items, which at training time are exactly the positives — the model
//! would partially learn "item carries my user component" as the label,
//! a signal absent for held-out test items. We therefore propagate only
//! the user side (items score with their raw embeddings), preserving the
//! local-graph propagation idea without the train/eval mismatch.

use crate::ffn::Ffn;
use crate::ncf::{NcfEngine, NcfWorkspace};
use hf_tensor::rng::Rng;
use hf_tensor::Matrix;

/// A client's local interaction graph: its training items plus the
/// LightGCN normalisation coefficient `1/sqrt(|I_u|)`.
#[derive(Clone, Debug)]
pub struct LocalGraph {
    items: Vec<u32>,
    coeff: f32,
}

impl LocalGraph {
    /// Builds the star graph over a user's training items.
    pub fn new(train_items: &[u32]) -> Self {
        let coeff = if train_items.is_empty() {
            0.0
        } else {
            1.0 / (train_items.len() as f32).sqrt()
        };
        Self {
            items: train_items.to_vec(),
            coeff,
        }
    }

    /// The user's training items.
    pub fn items(&self) -> &[u32] {
        &self.items
    }

    /// Propagation coefficient `1/sqrt(|I_u|)`.
    pub fn coeff(&self) -> f32 {
        self.coeff
    }
}

/// LightGCN scoring engine: local propagation + the shared FFN predictor.
#[derive(Clone, Debug)]
pub struct LightGcnEngine {
    inner: NcfEngine,
}

impl LightGcnEngine {
    /// Creates an engine with the paper's predictor architecture.
    pub fn new(dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            inner: NcfEngine::new(dim, rng),
        }
    }

    /// Wraps an existing predictor.
    pub fn from_ffn(dim: usize, ffn: Ffn) -> Self {
        Self {
            inner: NcfEngine::from_ffn(dim, ffn),
        }
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.inner.dim()
    }

    /// Predictor parameters.
    pub fn ffn(&self) -> &Ffn {
        self.inner.ffn()
    }

    /// Mutable predictor parameters.
    pub fn ffn_mut(&mut self) -> &mut Ffn {
        self.inner.ffn_mut()
    }

    /// Scoring workspace.
    pub fn workspace(&self) -> NcfWorkspace {
        self.inner.workspace()
    }

    /// Computes the propagated user representation
    /// `u' = (u + coeff · Σ_{i∈I_u} V[i][:dim]) / 2` into `out`.
    ///
    /// `table` is the full item-embedding table; only the leading `dim`
    /// columns participate (heterogeneous prefix semantics).
    pub fn propagate_user(
        &self,
        user: &[f32],
        graph: &LocalGraph,
        table: &Matrix,
        out: &mut Vec<f32>,
    ) {
        let dim = self.dim();
        assert_eq!(user.len(), dim, "user embedding width");
        out.clear();
        out.extend_from_slice(user);
        for &item in &graph.items {
            let row = table.row_prefix(item as usize, dim);
            hf_tensor::ops::axpy_slice(out, graph.coeff, row);
        }
        for x in out.iter_mut() {
            *x *= 0.5;
        }
    }

    /// Logit for `(propagated user, item)`; `prop_user` must come from
    /// [`LightGcnEngine::propagate_user`].
    pub fn forward(&self, prop_user: &[f32], item: &[f32], ws: &mut NcfWorkspace) -> f32 {
        self.inner.forward(prop_user, item, ws)
    }

    /// Backward pass. Writes `∂L/∂u'` into `d_prop_user` and `∂L/∂v` into
    /// `d_item`; use [`LightGcnEngine::backprop_through_propagation`] to
    /// push `d_prop_user` onto the raw user embedding and the in-graph
    /// item rows.
    pub fn backward(
        &self,
        d_logit: f32,
        ws: &mut NcfWorkspace,
        theta_grads: &mut Ffn,
        d_prop_user: &mut [f32],
        d_item: &mut [f32],
    ) {
        self.inner
            .backward(d_logit, ws, theta_grads, d_prop_user, d_item);
    }

    /// Distributes the propagated-user gradient:
    /// `∂u'/∂u = 1/2` and `∂u'/∂V[i] = coeff/2` for every in-graph item.
    ///
    /// `d_user` is overwritten; in-graph item gradients are delivered
    /// through `sink(item, grad_scale)` where the caller should apply
    /// `grad_scale * d_prop_user` to the item row (we hand out the scale
    /// rather than a buffer to keep the hot path allocation-free).
    pub fn backprop_through_propagation(
        &self,
        d_prop_user: &[f32],
        graph: &LocalGraph,
        d_user: &mut [f32],
        mut sink: impl FnMut(u32, f32),
    ) {
        for (du, &dp) in d_user.iter_mut().zip(d_prop_user.iter()) {
            *du = 0.5 * dp;
        }
        let scale = 0.5 * graph.coeff;
        if scale != 0.0 {
            for &item in &graph.items {
                sink(item, scale);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_tensor::ops::{bce_with_logits, bce_with_logits_grad};
    use hf_tensor::rng::{stream, SeedStream};

    fn setup(dim: usize) -> (LightGcnEngine, Matrix, LocalGraph, Vec<f32>) {
        let mut rng = stream(77, SeedStream::ParamInit);
        let engine = LightGcnEngine::new(dim, &mut rng);
        let table = hf_tensor::init::embedding_normal(20, dim, &mut rng);
        let graph = LocalGraph::new(&[2, 5, 7]);
        let user = hf_tensor::init::normal_vec(dim, 0.3, &mut rng);
        (engine, table, graph, user)
    }

    #[test]
    fn propagation_averages_layers() {
        let (engine, table, graph, user) = setup(4);
        let mut prop = Vec::new();
        engine.propagate_user(&user, &graph, &table, &mut prop);
        // Hand-compute: (u + (1/sqrt(3)) Σ rows)/2.
        let c = 1.0 / 3.0_f32.sqrt();
        for d in 0..4 {
            let sum: f32 = [2usize, 5, 7].iter().map(|&i| table.get(i, d)).sum();
            let expected = 0.5 * (user[d] + c * sum);
            assert!((prop[d] - expected).abs() < 1e-5);
        }
    }

    #[test]
    fn empty_graph_propagates_half_user() {
        let (engine, table, _, user) = setup(4);
        let graph = LocalGraph::new(&[]);
        let mut prop = Vec::new();
        engine.propagate_user(&user, &graph, &table, &mut prop);
        for d in 0..4 {
            assert!((prop[d] - 0.5 * user[d]).abs() < 1e-6);
        }
    }

    #[test]
    fn propagation_uses_only_leading_columns() {
        let mut rng = stream(78, SeedStream::ParamInit);
        let engine = LightGcnEngine::new(2, &mut rng);
        // 4-wide table, engine dim 2: trailing columns must not matter.
        let mut table = hf_tensor::init::embedding_normal(10, 4, &mut rng);
        let graph = LocalGraph::new(&[1, 3]);
        let user = vec![0.1, -0.2];
        let mut a = Vec::new();
        engine.propagate_user(&user, &graph, &table, &mut a);
        for r in 0..10 {
            table.set(r, 2, 99.0);
            table.set(r, 3, -99.0);
        }
        let mut b = Vec::new();
        engine.propagate_user(&user, &graph, &table, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn end_to_end_gradient_matches_finite_differences() {
        // Check ∂L/∂u and ∂L/∂V[i] through propagation + FFN jointly.
        let (engine, table, graph, user) = setup(3);
        let mut ws = engine.workspace();
        let item = 9usize; // out-of-graph item being scored
        let y = 1.0;

        let loss = |table: &Matrix, user: &[f32], ws: &mut crate::ncf::NcfWorkspace| {
            let mut prop = Vec::new();
            engine.propagate_user(user, &graph, table, &mut prop);
            let v = table.row_prefix(item, 3);
            bce_with_logits(engine.forward(&prop, v, ws), y)
        };

        // Analytic gradients.
        let mut prop = Vec::new();
        engine.propagate_user(&user, &graph, &table, &mut prop);
        let logit = engine.forward(&prop, table.row_prefix(item, 3), &mut ws);
        let mut tg = engine.ffn().zeros_like();
        let mut d_prop = vec![0.0; 3];
        let mut d_item = vec![0.0; 3];
        engine.backward(
            bce_with_logits_grad(logit, y),
            &mut ws,
            &mut tg,
            &mut d_prop,
            &mut d_item,
        );
        let mut d_user = vec![0.0; 3];
        let mut graph_grads: Vec<(u32, f32)> = Vec::new();
        engine.backprop_through_propagation(&d_prop, &graph, &mut d_user, |i, s| {
            graph_grads.push((i, s));
        });

        let eps = 1e-2;
        // User gradient.
        for d in 0..3 {
            let mut up = user.clone();
            up[d] += eps;
            let mut um = user.clone();
            um[d] -= eps;
            let fd = (loss(&table, &up, &mut ws) - loss(&table, &um, &mut ws)) / (2.0 * eps);
            assert!(
                (fd - d_user[d]).abs() < 5e-3 * fd.abs().max(1.0),
                "d_user[{d}]"
            );
        }
        // Scored-item gradient.
        for (d, &analytic) in d_item.iter().enumerate() {
            let mut tp = table.clone();
            *tp.get_mut(item, d) += eps;
            let mut tm = table.clone();
            *tm.get_mut(item, d) -= eps;
            let fd = (loss(&tp, &user, &mut ws) - loss(&tm, &user, &mut ws)) / (2.0 * eps);
            assert!(
                (fd - analytic).abs() < 5e-3 * fd.abs().max(1.0),
                "d_item[{d}]"
            );
        }
        // In-graph item gradient: scale * d_prop.
        let (gi, scale) = graph_grads[0];
        for (d, &through) in d_prop.iter().enumerate() {
            let mut tp = table.clone();
            *tp.get_mut(gi as usize, d) += eps;
            let mut tm = table.clone();
            *tm.get_mut(gi as usize, d) -= eps;
            let fd = (loss(&tp, &user, &mut ws) - loss(&tm, &user, &mut ws)) / (2.0 * eps);
            let analytic = scale * through;
            assert!(
                (fd - analytic).abs() < 5e-3 * fd.abs().max(1.0),
                "graph item {gi} dim {d}: {analytic} vs {fd}"
            );
        }
    }

    #[test]
    fn graph_grad_scale_is_half_coeff() {
        let (engine, _, graph, _) = setup(3);
        let d_prop = vec![1.0, 2.0, 3.0];
        let mut d_user = vec![0.0; 3];
        let mut scales = Vec::new();
        engine.backprop_through_propagation(&d_prop, &graph, &mut d_user, |_, s| scales.push(s));
        assert_eq!(scales.len(), 3);
        let expected = 0.5 / 3.0_f32.sqrt();
        for s in scales {
            assert!((s - expected).abs() < 1e-6);
        }
        assert_eq!(d_user, vec![0.5, 1.0, 1.5]);
    }
}
