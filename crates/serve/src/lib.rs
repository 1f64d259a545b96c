//! # hf_serve
//!
//! The deployment side of the HeteFedRec reproduction: exportable model
//! artifacts and a batched top-K query layer.
//!
//! Training produces rankings only inside offline evaluation; this crate
//! is the inference surface that turns a trained
//! [`Session`](hetefedrec_core::Session) into
//! something that answers queries:
//!
//! * [`ModelArtifact`] — an immutable, versioned snapshot of the frozen
//!   item tables, per-tier predictors, and per-user serving state, with a
//!   cold-start fallback for unknown users. Exported from a live session
//!   ([`ExportArtifact::export_artifact`], or straight to a file with
//!   [`ExportArtifact::export_artifact_to`]); a persisted checkpoint is
//!   restored into a session first. A user is held in one form, its
//!   encoded record, in memory or on disk; [`ModelArtifact::user`]
//!   decodes it into a [`UserRecord`], read through the borrowed
//!   [`UserView`] it lends.
//! * [`RecommenderBuilder`] → [`Recommender`] — validated serving
//!   configuration ([`ServeError`] per field) and the batch-oriented
//!   query engine: requests group per model tier, score as blocked
//!   `matmul_rows` products over item-table panels fanned out via
//!   `hf_tensor::parallel::parallel_map`, and funnel into
//!   `hf_metrics::top_k_scored`.
//!
//! For million-user / million-item capacity the artifact layer is
//! **lazily loadable**: the `HFAB` binary container ([`binfmt`]) is
//! offset-indexed, [`ModelArtifact::load_file_lazy`] decodes tier tables
//! and user records on first touch (bounded sharded LRU, [`lazy`]),
//! [`ItemHalfMode::Tiled`] caps the item-half tiles kept, and
//! [`synth`] builds million-scale artifacts directly from an
//! `hf_dataset::SyntheticProfile` without training. [`footprint`]
//! reports what all of it actually costs in resident bytes.
//!
//! Offline evaluation (`hetefedrec_core::eval`) and this serving layer
//! share one scorer (`hf_models::scoring::SplitNcf`), so they produce
//! identical rankings — and responses are bit-identical across thread
//! counts, batch compositions, and eager/lazy/tiled storage modes.
//!
//! ```
//! use hetefedrec_core::{Ablation, SessionBuilder, Strategy, TrainConfig};
//! use hf_dataset::{SplitDataset, SyntheticConfig};
//! use hf_models::ModelKind;
//! use hf_serve::{ExportArtifact, RecommendRequest, RecommenderBuilder};
//!
//! let data = SyntheticConfig::tiny().generate(7);
//! let split = SplitDataset::paper_split(&data, 7);
//! let cfg = TrainConfig::test_default(ModelKind::Ncf);
//! let mut session = SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), split)
//!     .eval_every(0)
//!     .build()
//!     .expect("valid configuration");
//! session.run_epoch();
//!
//! let recommender = RecommenderBuilder::new(session.export_artifact())
//!     .default_k(5)
//!     .build()
//!     .expect("valid serving configuration");
//! let response = recommender.recommend(&RecommendRequest::new(0));
//! assert_eq!(response.items.len(), 5);
//! assert!(!response.cold_start);
//! ```

#![warn(missing_docs)]

pub mod artifact;
pub mod binfmt;
pub mod footprint;
pub mod lazy;
pub mod recommender;
pub mod slot;
pub mod synth;

pub use artifact::{ModelArtifact, SoloModel, UserRecord, UserView, ARTIFACT_VERSION};
pub use binfmt::BINFMT_VERSION;
pub use lazy::LazyConfig;
pub use recommender::{
    ItemFilter, ItemHalfMode, RecommendRequest, RecommendResponse, Recommender, RecommenderBuilder,
    ScoredItem,
};
pub use slot::ArtifactSlot;
pub use synth::SynthStats;

/// Why a serving configuration or artifact was rejected.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// A serving-configuration field failed validation (the
    /// [`RecommenderBuilder`] mirror of training's `ConfigError`).
    Config {
        /// The offending field, e.g. `"default_k"`.
        field: &'static str,
        /// Why the value was rejected.
        message: String,
    },
    /// The artifact (or the checkpoint it was rebuilt from) is unusable.
    Artifact(String),
}

impl ServeError {
    pub(crate) fn config(field: &'static str, message: impl Into<String>) -> Self {
        ServeError::Config {
            field,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config { field, message } => {
                write!(f, "serving config field `{field}`: {message}")
            }
            ServeError::Artifact(msg) => write!(f, "bad artifact: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Artifact export from a training session: `session.export_artifact()`
/// for the object, `session.export_artifact_to(path)` for the file.
pub trait ExportArtifact {
    /// Snapshots the current model state into an immutable
    /// [`ModelArtifact`]. The session keeps training afterwards if it
    /// likes; the artifact is a deep copy (its users encoded into an
    /// exact-size buffer) and never changes.
    fn export_artifact(&self) -> ModelArtifact;

    /// Streams the current model state to an artifact file without
    /// building the artifact: tables, predictors, embeddings and
    /// histories go from the session's own memory through the one writer,
    /// popularity and the fallback means accumulate as the users pass.
    /// Byte-identical to `export_artifact().save_file(path)` (pinned by
    /// test) and atomic like it.
    fn export_artifact_to(&self, path: impl AsRef<std::path::Path>) -> Result<(), ServeError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetefedrec_core::{Ablation, Session, SessionBuilder, Strategy, TrainConfig};
    use hf_dataset::{SplitDataset, SyntheticConfig, Tier};
    use hf_models::ModelKind;

    fn tiny_split(seed: u64) -> SplitDataset {
        let data = SyntheticConfig::tiny().generate(seed);
        SplitDataset::paper_split(&data, seed)
    }

    fn trained_session(strategy: Strategy, model: ModelKind, epochs: usize) -> Session {
        let mut cfg = TrainConfig::test_default(model);
        cfg.epochs = epochs.max(1);
        let mut s = SessionBuilder::new(cfg, strategy, tiny_split(9))
            .eval_every(0)
            .build()
            .expect("valid config");
        for _ in 0..epochs {
            s.run_epoch();
        }
        s
    }

    fn recommender(session: &Session, threads: usize) -> Recommender {
        RecommenderBuilder::new(session.export_artifact())
            .default_k(8)
            .threads(threads)
            .panel_items(7) // deliberately awkward panel size
            .build()
            .expect("valid serving config")
    }

    #[test]
    fn builder_rejects_invalid_fields_by_name() {
        let s = trained_session(Strategy::AllSmall, ModelKind::Ncf, 0);
        let artifact = s.export_artifact();
        let err = RecommenderBuilder::new(artifact.clone())
            .default_k(0)
            .build()
            .expect_err("k = 0");
        assert!(
            matches!(
                err,
                ServeError::Config {
                    field: "default_k",
                    ..
                }
            ),
            "{err}"
        );
        let err = RecommenderBuilder::new(artifact.clone())
            .threads(0)
            .build()
            .expect_err("threads = 0");
        assert!(
            matches!(
                err,
                ServeError::Config {
                    field: "threads",
                    ..
                }
            ),
            "{err}"
        );
        let err = RecommenderBuilder::new(artifact)
            .panel_items(0)
            .build()
            .expect_err("panel_items = 0");
        assert!(
            matches!(
                err,
                ServeError::Config {
                    field: "panel_items",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn artifact_snapshots_session_shape() {
        let s = trained_session(Strategy::HeteFedRec(Ablation::FULL), ModelKind::Ncf, 1);
        let a = s.export_artifact();
        assert_eq!(a.version(), ARTIFACT_VERSION);
        assert_eq!(a.num_users(), s.split().num_users());
        assert_eq!(a.num_items(), s.split().num_items());
        assert!(!a.is_standalone());
        for tier in Tier::ALL {
            assert_eq!(a.table(tier).cols(), s.cfg().dims.dim(tier));
            assert!(!a.fallback(tier).is_empty());
        }
        // Popularity counts sum to the total number of train interactions.
        let total: u64 = (0..a.num_items() as u32)
            .map(|i| a.popularity(i) as u64)
            .sum();
        let want: u64 = (0..s.split().num_users())
            .map(|u| s.split().user(u).train.len() as u64)
            .sum();
        assert_eq!(total, want);
    }

    #[test]
    fn responses_exclude_history_and_respect_k() {
        let s = trained_session(Strategy::HeteFedRec(Ablation::FULL), ModelKind::Ncf, 2);
        let r = recommender(&s, 1);
        for user in 0..s.split().num_users().min(8) {
            let resp = r.recommend(&RecommendRequest::new(user));
            assert_eq!(resp.items.len().min(8), resp.items.len());
            assert!(!resp.cold_start);
            let history = &s.split().user(user).train;
            for it in &resp.items {
                assert!(
                    history.binary_search(&it.item).is_err(),
                    "user {user}: seen item {} recommended",
                    it.item
                );
                assert!(it.score.is_finite());
            }
            // Scores are ranked, best first, ties toward smaller id.
            for w in resp.items.windows(2) {
                assert!(
                    w[0].score > w[1].score || (w[0].score == w[1].score && w[0].item < w[1].item)
                );
            }
        }
    }

    #[test]
    fn unknown_users_take_the_cold_start_path() {
        let s = trained_session(Strategy::HeteFedRec(Ablation::FULL), ModelKind::Ncf, 1);
        let r = RecommenderBuilder::new(s.export_artifact())
            .default_k(5)
            .build()
            .unwrap();
        let resp = r.recommend(&RecommendRequest::new(usize::MAX));
        assert!(resp.cold_start);
        assert_eq!(resp.tier, Tier::Small);
        assert_eq!(resp.items.len(), 5);
        // Deterministic: asking again gives the identical answer.
        assert_eq!(r.recommend(&RecommendRequest::new(usize::MAX)), resp);
    }

    #[test]
    fn cold_start_works_for_lightgcn_too() {
        let s = trained_session(Strategy::HeteFedRec(Ablation::FULL), ModelKind::LightGcn, 1);
        let r = recommender(&s, 1);
        let resp = r.recommend(&RecommendRequest::new(9_999_999));
        assert!(resp.cold_start);
        assert!(!resp.items.is_empty());
    }

    #[test]
    fn filters_drop_candidates() {
        let s = trained_session(Strategy::HeteFedRec(Ablation::FULL), ModelKind::Ncf, 1);
        let r = recommender(&s, 1);
        // Predicate: only even item ids.
        let resp = r.recommend(&RecommendRequest::new(0).with_filter(|item| item % 2 == 0));
        assert!(!resp.items.is_empty());
        assert!(resp.items.iter().all(|it| it.item % 2 == 0));
        // Popularity floor: recommended items must clear it.
        let resp = r.recommend(&RecommendRequest::new(0).with_min_popularity(2));
        for it in &resp.items {
            assert!(r.artifact().popularity(it.item) >= 2);
        }
        // Explicit exclusions are honoured on top of history.
        let banned: Vec<u32> = resp.items.iter().map(|it| it.item).collect();
        let resp2 = r.recommend(&RecommendRequest::new(0).exclude(banned.clone()));
        for it in &resp2.items {
            assert!(!banned.contains(&it.item));
        }
    }

    #[test]
    fn batch_matches_singles_and_is_thread_invariant() {
        let s = trained_session(Strategy::HeteFedRec(Ablation::FULL), ModelKind::Ncf, 2);
        let requests: Vec<RecommendRequest> = (0..s.split().num_users())
            .map(RecommendRequest::new)
            .chain([RecommendRequest::new(123_456)]) // cold start in the mix
            .collect();
        let r1 = recommender(&s, 1);
        let batch1 = r1.recommend_batch(&requests);
        // Batch equals one-at-a-time.
        for (req, resp) in requests.iter().zip(&batch1) {
            assert_eq!(&r1.recommend(req), resp);
        }
        // And is bit-identical across thread counts.
        for threads in [2, 8] {
            let rt = recommender(&s, threads);
            let batch = rt.recommend_batch(&requests);
            assert_eq!(batch.len(), batch1.len());
            for (a, b) in batch1.iter().zip(&batch) {
                assert_eq!(a.user, b.user);
                assert_eq!(a.items.len(), b.items.len());
                for (x, y) in a.items.iter().zip(&b.items) {
                    assert_eq!(x.item, y.item, "{threads} threads");
                    assert_eq!(x.score.to_bits(), y.score.to_bits(), "{threads} threads");
                }
            }
        }
    }

    #[test]
    fn standalone_artifacts_serve_private_models() {
        let s = trained_session(Strategy::Standalone, ModelKind::Ncf, 1);
        let a = s.export_artifact();
        assert!(a.is_standalone());
        let r = RecommenderBuilder::new(a).default_k(6).build().unwrap();
        let requests: Vec<RecommendRequest> = (0..s.split().num_users().min(6))
            .map(RecommendRequest::new)
            .collect();
        let batch = r.recommend_batch(&requests);
        assert!(batch.iter().all(|resp| resp.items.len() == 6));
        // Thread invariance holds for the solo path too.
        let r8 = RecommenderBuilder::new(s.export_artifact())
            .default_k(6)
            .threads(8)
            .panel_items(5)
            .build()
            .unwrap();
        let batch8 = r8.recommend_batch(&requests);
        for (a, b) in batch.iter().zip(&batch8) {
            for (x, y) in a.items.iter().zip(&b.items) {
                assert_eq!(x.item, y.item);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
    }

    #[test]
    fn serving_scores_match_eval_scores_bitwise() {
        // The acceptance contract: `hetefedrec_core::eval` and the
        // recommender share one scorer, so per-item scores agree to the
        // bit — scalar path vs blocked panel path.
        for model in [ModelKind::Ncf, ModelKind::LightGcn] {
            let s = trained_session(Strategy::HeteFedRec(Ablation::FULL), model, 2);
            let r = recommender(&s, 4);
            for user in 0..s.split().num_users() {
                let tier = s.model_groups().tier(user);
                let want = hetefedrec_core::eval::score_user(
                    s.cfg(),
                    s.strategy(),
                    s.split(),
                    s.server(),
                    s.user_state(user),
                    user,
                    tier,
                );
                let got = r.score_request(&RecommendRequest::new(user).keep_seen());
                assert_eq!(want.len(), got.len());
                for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                    assert_eq!(
                        w.to_bits(),
                        g.to_bits(),
                        "{model:?} user {user} item {i}: eval {w} vs serve {g}"
                    );
                }
            }
        }
    }

    #[test]
    fn from_checkpoint_reproduces_the_exported_artifact() {
        let s = trained_session(Strategy::HeteFedRec(Ablation::FULL), ModelKind::Ncf, 1);
        let direct = RecommenderBuilder::new(s.export_artifact())
            .default_k(10)
            .build()
            .unwrap();
        let restored = Session::restore(&s.checkpoint(), tiny_split(9)).unwrap();
        let from_ckpt = RecommenderBuilder::new(restored.export_artifact())
            .default_k(10)
            .build()
            .unwrap();
        for user in 0..s.split().num_users() {
            let a = direct.recommend(&RecommendRequest::new(user));
            let b = from_ckpt.recommend(&RecommendRequest::new(user));
            assert_eq!(a.items.len(), b.items.len());
            for (x, y) in a.items.iter().zip(&b.items) {
                assert_eq!(x.item, y.item);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
    }
}
