//! # hetefedrec-core
//!
//! The paper's contribution: **HeteFedRec**, a federated recommender
//! system in which clients train models of different sizes (item-embedding
//! widths `Ns < Nm < Nl`), plus every baseline it is compared against.
//!
//! The three techniques that make heterogeneous aggregation work:
//!
//! 1. **Padding-based aggregation** (Eq. 7–10, [`server`]): smaller
//!    item-embedding updates are zero-padded to the widest tier and
//!    summed; each tier table receives the matching prefix slice.
//! 2. **Unified dual-task learning** (Eq. 11, [`client`]): a client
//!    optimises the recommendation loss on every prefix slice of its
//!    embeddings simultaneously, pairing slice `[:N_a]` with tier `a`'s
//!    predictor `Θ_a`, so sub-matrix updates share the smaller tiers'
//!    objective.
//! 3. **Dimensional decorrelation regularization** (Eq. 12–14, [`ddr`])
//!    prevents wide embeddings from collapsing into the shared
//!    low-dimensional prefix, and **relation-based ensemble
//!    self-distillation** (Eq. 16–17, [`reskd`]) aligns the cosine
//!    geometry of the three tables on the server without any reference
//!    dataset.
//!
//! [`strategy`] enumerates the paper's six baselines and the ablation
//! switches of Table IV; [`session`] runs the full federated protocol as
//! a resumable stepper of typed round/epoch events and produces the
//! metric histories every experiment binary consumes; [`eval`] ranks the
//! full item universe through the same split-layer scorer the serving
//! layer (`hf_serve`) uses.

#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod ddr;
pub mod eval;
pub mod experiment;
pub mod reskd;
pub mod server;
pub mod session;
pub mod strategy;

pub use config::{
    AsyncConfig, ConfigError, ItemAggNorm, KdConfig, Mode, SecAggConfig, TierDims, TrainConfig,
};
pub use eval::EvalOutput;
pub use experiment::{run_experiment, ExperimentResult};
pub use session::{
    AsyncRoundStats, EpochRecord, EpochReport, History, IngestReport, RoundReport,
    SecAggRoundStats, Session, SessionBuilder, SessionError, SessionEvent, StopReason,
};
pub use strategy::{Ablation, Strategy};
