//! # hetefedrec
//!
//! Rust reproduction of **HeteFedRec: Federated Recommender Systems with
//! Model Heterogeneity** (Yuan et al., ICDE 2024, arXiv:2307.12810).
//!
//! This facade crate re-exports the whole workspace so applications need a
//! single dependency:
//!
//! ```
//! use hetefedrec::prelude::*;
//!
//! // Generate a small synthetic dataset calibrated to MovieLens-1M.
//! let data = DatasetProfile::MovieLens.config_scaled(0.02).generate(42);
//! let split = SplitDataset::paper_split(&data, 42);
//!
//! // Train HeteFedRec for one epoch through the session API, observing
//! // every round, then checkpoint and resume.
//! let mut cfg = TrainConfig::paper_defaults(ModelKind::Ncf, DatasetProfile::MovieLens);
//! cfg.epochs = 1;
//! let mut session = SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), split.clone())
//!     .build()
//!     .expect("valid configuration");
//! let mut rounds = 0;
//! for event in session.events() {
//!     if let SessionEvent::Round(_) = event {
//!         rounds += 1;
//!     }
//! }
//! assert!(rounds > 0);
//! let eval = session.final_eval().expect("final epoch evaluated");
//! assert!(eval.overall.ndcg.is_finite());
//!
//! // A restored checkpoint carries the exact same state.
//! let resumed = Session::restore(&session.checkpoint(), split).expect("restores");
//! assert_eq!(
//!     resumed.final_eval().unwrap().overall.ndcg,
//!     eval.overall.ndcg
//! );
//!
//! // Export an immutable artifact and answer top-10 queries from it.
//! let recommender = RecommenderBuilder::new(session.export_artifact())
//!     .default_k(10)
//!     .build()
//!     .expect("valid serving configuration");
//! let top = recommender.recommend(&RecommendRequest::new(0));
//! assert!(top.items.len() <= 10 && !top.cold_start);
//! ```
//!
//! Crate map (see `DESIGN.md` for the full inventory):
//!
//! | Re-export | Contents |
//! |---|---|
//! | [`tensor`] | dense linear algebra, RNG streams, Adam, eigen-solver, JSON read/write, little-endian wire primitives |
//! | [`dataset`] | synthetic profiles, splits, negative sampling, grouping |
//! | [`models`] | NCF / LightGCN with manual backprop |
//! | [`fedsim`] | event scheduler, rounds, transport, communication accounting, faults/churn |
//! | [`metrics`] | Recall@K / NDCG@K and the ranking evaluator |
//! | [`core`] | HeteFedRec itself: UDL, DDR, RESKD, baselines, sessions |
//! | [`secagg`] | pairwise-masked secure aggregation: fixed-point ring quantization, mask PRG, Shamir escrow, dropout recovery |
//! | [`serve`] | model artifacts (eager or lazily loaded), synthetic capacity profiles, and the batched top-K `Recommender` |
//! | [`net`] | framed TCP serving: micro-batching server, client, load generator |
//! | [`pipeline`] | online loop: streaming ingest, versioned incremental export, hot swap, drift |

pub use hetefedrec_core as core;
pub use hf_dataset as dataset;
pub use hf_fedsim as fedsim;
pub use hf_metrics as metrics;
pub use hf_models as models;
pub use hf_net as net;
pub use hf_pipeline as pipeline;
pub use hf_secagg as secagg;
pub use hf_serve as serve;
pub use hf_tensor as tensor;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use hetefedrec_core::{
        run_experiment, Ablation, AsyncConfig, AsyncRoundStats, ConfigError, EpochRecord,
        EpochReport, EvalOutput, ExperimentResult, History, ItemAggNorm, KdConfig, Mode,
        RoundReport, SecAggConfig, SecAggRoundStats, Session, SessionBuilder, SessionError,
        SessionEvent, StopReason, Strategy, TierDims, TrainConfig,
    };
    pub use hf_dataset::{
        ClientGroups, DatasetProfile, DivisionRatio, ImplicitDataset, SplitDataset,
        SyntheticConfig, SyntheticProfile, Tier,
    };
    pub use hf_fedsim::events::LatencyProfile;
    pub use hf_fedsim::faults::ChurnProfile;
    pub use hf_metrics::eval::EvalResult;
    pub use hf_models::ModelKind;
    pub use hf_net::{
        Client, Frame, LoadGen, LoadReport, NetError, ReloadFn, ServerConfig, ServerHandle,
        WireRequest, WireResponse,
    };
    pub use hf_pipeline::{
        drift_report, latest_artifact, DriftReport, InteractionStream, PipelineConfig,
        PipelineDriver, ReplayConfig, ReplayStream, StreamEvent,
    };
    pub use hf_serve::{
        ArtifactSlot, ExportArtifact, ItemHalfMode, LazyConfig, ModelArtifact, RecommendRequest,
        RecommendResponse, Recommender, RecommenderBuilder, ScoredItem, ServeError, SynthStats,
        UserView,
    };
}
