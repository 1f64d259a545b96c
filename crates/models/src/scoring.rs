//! The shared serving/evaluation scorer: split-layer NCF.
//!
//! Offline evaluation and online serving must rank identically, so both
//! go through this one scorer instead of each hand-rolling the forward
//! pass. The NCF logit is `FFN([u, v])`; because the first layer is
//! linear in its input, it decomposes exactly into a **user half** and an
//! **item half**:
//!
//! ```text
//! pre₁[o] = (W₁ᵘ·u + b₁)[o]  +  (v · W₁ᵛᵀ)[o]
//!           └── user half ──┘    └─ item half ─┘
//! ```
//!
//! The item half depends only on the item row and the predictor, so a
//! serving batch computes it once per item *panel* as a blocked
//! [`Matrix::matmul_rows`] product and shares it across every user in the
//! batch; the user half is computed once per request instead of once per
//! `(user, item)` pair. The remaining (tiny) hidden layers run per pair.
//!
//! **Determinism contract.** [`SplitNcf::item_half_into`] accumulates each
//! output lane over `k` in ascending order — exactly the per-element
//! summation chain of [`Matrix::matmul_rows`] — so the scalar path (used
//! by evaluation and by standalone-overlay corrections) and the panel
//! path (used by batched serving) produce **bit-identical** logits. This
//! is what lets `hetefedrec_core::eval` and `hf_serve` share one scorer
//! while batching however they like.
//!
//! Note the split logit is *not* bit-identical to the monolithic
//! [`Ffn::forward`] chain on `[u, v]` (float addition is not
//! associative); the split form is the canonical scoring path — local
//! *training* keeps the monolithic forward, whose backward pass matches
//! it. LightGCN's propagation step, [`propagate_lightgcn`], is
//! shared by all three: training, evaluation and serving.

use crate::ffn::{Ffn, FfnCache};
use hf_tensor::ops::{dot, relu};
use hf_tensor::Matrix;

/// Split-layer NCF scorer for one predictor at one embedding width.
#[derive(Clone, Debug)]
pub struct SplitNcf {
    dim: usize,
    h1: usize,
    /// First-layer weights over the user half, `h1 x dim` (row-major, as
    /// stored in the [`Ffn`]).
    w_user: Matrix,
    /// First-layer weights over the item half, **transposed** to
    /// `dim x h1` so an item panel `P (p x dim)` scores as `P · w_item`.
    w_item: Matrix,
    /// First-layer bias (folded into the user half).
    b1: Vec<f32>,
    /// Layers after the first, as their own FFN (`None` for a single
    /// linear layer `[2n, 1]`, where the logit is just the sum of halves).
    tail: Option<Ffn>,
}

/// Reusable per-thread scratch for [`SplitNcf::finish`].
#[derive(Clone, Debug)]
pub struct SplitWorkspace {
    hidden: Vec<f32>,
    cache: Option<FfnCache>,
}

impl SplitNcf {
    /// Builds the scorer from a predictor whose input width is `2 * dim`.
    ///
    /// # Panics
    /// Panics if `ffn.dims()[0] != 2 * dim`.
    pub fn from_ffn(dim: usize, ffn: &Ffn) -> Self {
        let dims = ffn.dims();
        assert_eq!(dims[0], 2 * dim, "predictor width must be 2*dim");
        let h1 = dims[1];
        let flat = ffn.as_flat();
        let w0 = &flat[..h1 * 2 * dim]; // h1 x 2dim, row-major
        let b1 = flat[h1 * 2 * dim..h1 * 2 * dim + h1].to_vec();
        let w_user = Matrix::from_fn(h1, dim, |o, j| w0[o * 2 * dim + j]);
        let w_item = Matrix::from_fn(dim, h1, |k, o| w0[o * 2 * dim + dim + k]);
        let tail = (dims.len() > 2).then(|| {
            let tail_start = h1 * 2 * dim + h1;
            Ffn::from_flat(&dims[1..], &flat[tail_start..])
        });
        Self {
            dim,
            h1,
            w_user,
            w_item,
            b1,
            tail,
        }
    }

    /// Embedding width this scorer consumes.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Width of the first hidden layer (= item-half width).
    pub fn hidden_width(&self) -> usize {
        self.h1
    }

    /// Scratch buffers for [`SplitNcf::finish`] (one per worker thread).
    pub fn workspace(&self) -> SplitWorkspace {
        SplitWorkspace {
            hidden: vec![0.0; self.h1],
            cache: self.tail.as_ref().map(FfnCache::for_ffn),
        }
    }

    /// The user half `W₁ᵘ·u + b₁`, computed once per request.
    ///
    /// # Panics
    /// Panics (debug) if `user.len() != dim`.
    pub fn user_half(&self, user: &[f32]) -> Vec<f32> {
        debug_assert_eq!(user.len(), self.dim, "user embedding width");
        (0..self.h1)
            .map(|o| dot(self.w_user.row(o), user) + self.b1[o])
            .collect()
    }

    /// The item half of one row, written into `out` (`hidden_width` wide).
    ///
    /// Each lane accumulates over `k` ascending — the same summation chain
    /// as one output element of [`SplitNcf::item_half_block`], so the two
    /// paths are bit-identical.
    pub fn item_half_into(&self, item: &[f32], out: &mut [f32]) {
        debug_assert_eq!(item.len(), self.dim, "item embedding width");
        debug_assert_eq!(out.len(), self.h1);
        out.iter_mut().for_each(|x| *x = 0.0);
        for (k, &x) in item.iter().enumerate() {
            let w_row = self.w_item.row(k);
            for (o, &w) in out.iter_mut().zip(w_row) {
                *o += x * w;
            }
        }
    }

    /// Item halves of the table rows `row_start..row_end` as a
    /// `(row_end - row_start) x hidden_width` panel — one blocked
    /// [`Matrix::matmul_rows`] product shared by every user in a batch.
    ///
    /// # Panics
    /// Panics if `table.cols() != dim` or the row range is out of bounds.
    pub fn item_half_block(&self, table: &Matrix, row_start: usize, row_end: usize) -> Matrix {
        table.matmul_rows(&self.w_item, row_start, row_end)
    }

    /// Final logit from a user half and an item half.
    pub fn finish(&self, user_half: &[f32], item_half: &[f32], ws: &mut SplitWorkspace) -> f32 {
        debug_assert_eq!(user_half.len(), self.h1);
        debug_assert_eq!(item_half.len(), self.h1);
        match &self.tail {
            None => user_half[0] + item_half[0],
            Some(tail) => {
                for ((h, &u), &v) in ws.hidden.iter_mut().zip(user_half).zip(item_half) {
                    *h = relu(u + v);
                }
                tail.forward(&ws.hidden, ws.cache.as_mut().expect("tail cache"))
            }
        }
    }
}

/// One-layer LightGCN propagation of a user embedding over its local
/// interaction graph (paper Eq. 4 with the client-local privacy
/// constraint): `u' = (u + deg^{-1/2} Σ v_g) / 2`.
///
/// `degree` is the number of graph rows (the user's training positives);
/// `rows` must yield exactly the item rows in a **fixed order** — the
/// accumulation order is part of the determinism contract shared by
/// training, evaluation and serving. Rows may be wider than `emb`; only
/// their leading `emb.len()` columns count (heterogeneous prefixes).
///
/// **Substitution note:** only the user side is propagated. The
/// symmetric item-side step `e_i^(1) = e_u / sqrt(|I_u|)` would reach
/// only *in-graph* items, which at training time are exactly the
/// positives, so the model would partly learn "the item carries my user
/// component" as the label, a signal absent for held-out test items.
/// Items therefore score with their raw embeddings, which keeps the
/// local-graph propagation without the train/eval mismatch.
pub fn propagate_lightgcn<'a>(
    emb: &[f32],
    degree: usize,
    rows: impl Iterator<Item = &'a [f32]>,
) -> Vec<f32> {
    let coeff = if degree == 0 {
        0.0
    } else {
        1.0 / (degree as f32).sqrt()
    };
    let mut prop = emb.to_vec();
    for row in rows {
        hf_tensor::ops::axpy_slice(&mut prop, coeff, &row[..emb.len()]);
    }
    prop.iter_mut().for_each(|x| *x *= 0.5);
    prop
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_tensor::rng::{stream, SeedStream};

    fn scorer(dim: usize, seed: u64) -> (SplitNcf, Ffn) {
        let mut rng = stream(seed, SeedStream::ParamInit);
        let ffn = Ffn::new(&crate::paper_predictor_dims(dim), &mut rng);
        (SplitNcf::from_ffn(dim, &ffn), ffn)
    }

    fn random_vec(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = stream(seed, SeedStream::Custom(11));
        hf_tensor::init::normal_vec(n, 1.0, &mut rng)
    }

    #[test]
    fn split_score_matches_monolithic_forward_closely() {
        // The split chain reassociates layer-1 sums, so agreement is
        // numerical (1e-5 relative), not bitwise — the bitwise contract
        // is *within* the split paths, tested below.
        let dim = 16;
        let (s, ffn) = scorer(dim, 3);
        let mut cache = FfnCache::for_ffn(&ffn);
        let mut ws = s.workspace();
        let mut ih = vec![0.0; s.hidden_width()];
        for case in 0..32u64 {
            let u = random_vec(dim, 100 + case);
            let v = random_vec(dim, 200 + case);
            let uh = s.user_half(&u);
            s.item_half_into(&v, &mut ih);
            let got = s.finish(&uh, &ih, &mut ws);
            let want = ffn.forward(&[u, v].concat(), &mut cache);
            assert!(
                (got - want).abs() <= 1e-5 * want.abs().max(1.0),
                "case {case}: split {got} vs monolithic {want}"
            );
        }
    }

    #[test]
    fn scalar_and_panel_item_halves_are_bit_identical() {
        let dim = 16;
        let (s, _) = scorer(dim, 4);
        let table = Matrix::from_fn(137, dim, |r, c| ((r * dim + c) as f32 * 0.173).sin());
        let mut ih = vec![0.0; s.hidden_width()];
        // Whole-table panel and several sub-panels must all agree with the
        // scalar path, bit for bit.
        for (start, end) in [(0usize, 137usize), (0, 64), (64, 137), (17, 23)] {
            let block = s.item_half_block(&table, start, end);
            for r in start..end {
                s.item_half_into(table.row(r), &mut ih);
                for (o, (&a, &b)) in ih.iter().zip(block.row(r - start)).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "row {r} lane {o} panel {start}..{end}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_linear_layer_predictor_scores_as_sum_of_halves() {
        let dim = 4;
        let mut rng = stream(5, SeedStream::ParamInit);
        let ffn = Ffn::new(&[2 * dim, 1], &mut rng);
        let s = SplitNcf::from_ffn(dim, &ffn);
        assert_eq!(s.hidden_width(), 1);
        let u = random_vec(dim, 6);
        let v = random_vec(dim, 7);
        let uh = s.user_half(&u);
        let mut ih = vec![0.0; 1];
        s.item_half_into(&v, &mut ih);
        let mut ws = s.workspace();
        assert_eq!(s.finish(&uh, &ih, &mut ws), uh[0] + ih[0]);
    }

    #[test]
    #[should_panic(expected = "predictor width")]
    fn rejects_mismatched_width() {
        let mut rng = stream(8, SeedStream::ParamInit);
        let ffn = Ffn::new(&[10, 8, 1], &mut rng);
        let _ = SplitNcf::from_ffn(4, &ffn);
    }

    #[test]
    fn propagation_matches_manual_computation() {
        let emb = vec![1.0f32, -2.0];
        let rows: Vec<Vec<f32>> = vec![vec![2.0, 0.0], vec![0.0, 4.0]];
        let got = propagate_lightgcn(&emb, 2, rows.iter().map(|r| r.as_slice()));
        let coeff = 1.0 / 2.0f32.sqrt();
        let want = [(1.0 + coeff * 2.0) * 0.5, (-2.0 + coeff * 4.0) * 0.5];
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-6, "{g} vs {w}");
        }
        // Degree zero: pure halving of the embedding.
        let cold = propagate_lightgcn(&emb, 0, std::iter::empty());
        assert_eq!(cold, vec![0.5, -1.0]);
        // Rows wider than the embedding (a narrower tier's task reading
        // full-width rows): only the leading columns count.
        let wide: Vec<Vec<f32>> = rows
            .iter()
            .map(|r| [r.as_slice(), &[99.0, -99.0]].concat())
            .collect();
        let got_wide = propagate_lightgcn(&emb, 2, wide.iter().map(|r| r.as_slice()));
        assert_eq!(got_wide, got);
    }
}
