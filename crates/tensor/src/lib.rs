//! # hf-tensor
//!
//! Dense `f32` linear-algebra substrate for the HeteFedRec reproduction.
//!
//! Every numerical primitive the federated recommender stack needs lives
//! here so that the higher layers (models, aggregation, distillation) stay
//! free of ad-hoc math:
//!
//! * [`Matrix`] — row-major dense matrix with the handful of BLAS-like
//!   operations the models require (matmul, transpose, axpy, prefix-column
//!   views for heterogeneous embeddings).
//! * [`rng`] — deterministic, purpose-keyed random streams so every
//!   experiment is bit-reproducible from a single seed.
//! * [`parallel`] — the workspace's one worker pool: a work-stealing
//!   scoped-thread fan-out whose output is bit-identical for any thread
//!   count. [`parallel::parallel_for_each_ordered`] hands each result to
//!   the caller in input order as it is ready (a round's client training
//!   folds its uploads that way); [`parallel::parallel_map`] collects them
//!   (evaluation, distillation and serving batches), and
//!   [`parallel::parallel_fill_ordered`] fills recycled buffers (every
//!   population builder: the dataset generator, the split, the replay and
//!   artifact synthesis).
//! * [`init`] — Glorot/Xavier and scaled-normal initialisers.
//! * [`ops`] — scalar activations and losses (sigmoid, BCE-with-logits,
//!   ReLU) plus a few vector helpers.
//! * [`stats`] — column statistics and covariance matrices (the inputs to
//!   the paper's dimensional-decorrelation regulariser, Eq. 13, and the
//!   Table V diagnostic).
//! * [`eigen`] — a cyclic Jacobi eigen-solver for symmetric matrices, used
//!   to obtain the singular values of embedding covariance matrices.
//! * [`sim`] — pairwise cosine-similarity matrices and their analytic
//!   gradient, the core of relation-based ensemble self-distillation
//!   (Eq. 16–17).
//! * [`adam`] — the Adam step over caller-owned parameter and moment
//!   slices.
//! * [`ser`] — minimal JSON emission ([`ser::ToJson`]) so experiment
//!   results snapshot without a serde dependency (the build must succeed
//!   with an empty cargo registry).
//! * [`rows`] — [`RowBlock`], id-sorted rows of one width: an upload's
//!   item block and a standalone client's private item rows.
//! * [`cli`] — the one command-line parser every binary reads its flags
//!   through (one grammar, one usage exit).
//! * [`wire`] — the little-endian `Reader`/`Writer` primitives every
//!   binary format in the workspace encodes through (update payloads in
//!   `hf_fedsim`, masked uploads in `hf_secagg`, the artifact file in
//!   `hf_serve`, the `hf_net` frames), their shared fuzz harness, and
//!   the one atomic file writer ([`wire::write_file`]).
//!
//! The crate is intentionally framework-free: the repro band for this paper
//! flags Rust ML frameworks as immature for distillation workflows, so all
//! gradients in the workspace are written by hand on top of these
//! primitives (`hf_models` says which are finite-difference tested).

#![warn(missing_docs)]

pub mod adam;
pub mod cli;
pub mod eigen;
pub mod init;
pub mod matrix;
pub mod ops;
pub mod parallel;
pub mod rng;
pub mod rows;
pub mod ser;
pub mod sim;
pub mod stats;
pub mod wire;

pub use adam::{Adam, AdamConfig};
pub use matrix::Matrix;
pub use rng::{stream, SeedStream};
pub use rows::RowBlock;
pub use ser::ToJson;
