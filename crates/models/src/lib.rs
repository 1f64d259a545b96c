//! # hf-models
//!
//! Base recommendation models with hand-written backpropagation.
//!
//! The paper demonstrates HeteFedRec on two widely used recommenders
//! (§III-B):
//!
//! * **NCF** (neural collaborative filtering): `r̂ = σ(FFN([u, v]))`, a
//!   three-layer feedforward predictor over the concatenated user and item
//!   embeddings with dimensions `[2N, 8, 8] → 1` (§V-D).
//! * **LightGCN**: user and item embeddings are first propagated on the
//!   *client-local* bipartite graph (one layer, privacy constraint from
//!   §III-B), then scored with the same predictor (Eq. 5).
//!
//! There is no autograd anywhere in this workspace, so every gradient is
//! analytic. The [`ffn`] gradients, parameter and input alike, are
//! checked against finite differences in its test suite. LightGCN's extra
//! chain rule (through the propagation, in
//! `hetefedrec_core::client::train_client`) is pinned by the checkpoint
//! digests of `lightgcn_training_bits_are_pinned` instead.
//!
//! Layout:
//! * [`ffn`] — the shared feedforward predictor, held in the one flat
//!   layout it travels in, with forward caches and the backward pass.
//!   Local NCF training scores `[u, v]` through it directly.
//! * [`scoring`] — the split-layer serving/evaluation scorer shared by
//!   `hetefedrec_core::eval` and `hf_serve` (panel-batchable, with a
//!   bit-identity contract between its scalar and blocked paths), and
//!   the one LightGCN propagation, used by training, evaluation and
//!   serving.
//! * [`sparse`] — row-sparse gradient accumulation for item embeddings.

#![warn(missing_docs)]

pub mod ffn;
pub mod scoring;
pub mod sparse;

pub use ffn::{Ffn, FfnCache};
pub use scoring::{SplitNcf, SplitWorkspace};
pub use sparse::RowGradBuffer;

/// Which base recommendation model an experiment uses (paper: Fed-NCF or
/// Fed-LightGCN).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Neural collaborative filtering.
    Ncf,
    /// LightGCN with client-local propagation.
    LightGcn,
}

impl ModelKind {
    /// Both base models.
    pub const ALL: [ModelKind; 2] = [ModelKind::Ncf, ModelKind::LightGcn];

    /// Paper-style display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Ncf => "Fed-NCF",
            ModelKind::LightGcn => "Fed-LightGCN",
        }
    }

    /// Stable checkpoint tag (also the CLI spelling).
    pub fn tag(self) -> &'static str {
        match self {
            ModelKind::Ncf => "ncf",
            ModelKind::LightGcn => "lightgcn",
        }
    }

    /// Parses a [`ModelKind::tag`] spelling.
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "ncf" => Some(ModelKind::Ncf),
            "lightgcn" => Some(ModelKind::LightGcn),
            _ => None,
        }
    }
}

impl hf_tensor::ser::ToJson for ModelKind {
    fn write_json(&self, out: &mut String) {
        self.tag().write_json(out);
    }
}

impl ModelKind {
    /// Restores a checkpointed model kind.
    pub fn from_json(v: &hf_tensor::ser::JsonValue<'_>) -> Result<Self, hf_tensor::ser::JsonError> {
        let tag = v.as_str()?;
        Self::from_tag(tag)
            .ok_or_else(|| hf_tensor::ser::JsonError::msg(format!("unknown model kind `{tag}`")))
    }
}

/// The paper's predictor layer sizes for embedding dimension `n`:
/// `[2n, 8, 8] → 1` (§V-D: "three feedforward layers with `[2 × N∗, 8, 8]`
/// dimensions").
pub fn paper_predictor_dims(n: usize) -> Vec<usize> {
    vec![2 * n, 8, 8, 1]
}

/// NCF is the predictor on `[u, v]`; its tests pin that contract.
#[cfg(test)]
mod ncf {
    mod tests;
}
