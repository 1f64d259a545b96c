//! Hot-swappable recommender slot.
//!
//! The online pipeline retrains while traffic is live: every N rounds it
//! exports a fresh [`ModelArtifact`](crate::ModelArtifact), builds a
//! [`Recommender`], and swaps it into the serving path without dropping
//! or blocking in-flight work. [`ArtifactSlot`] is the synchronisation
//! point — an ArcSwap-style cell built from `std` parts only:
//!
//! * Readers call [`ArtifactSlot::load`] once per batch and get back a
//!   `(version, Arc<Recommender>)` pair. The lock is held only for the
//!   `Arc` clone (a refcount bump), never across scoring, so a swap
//!   neither waits for in-flight batches nor stalls new ones beyond a
//!   pointer exchange.
//! * Writers call [`ArtifactSlot::swap`], which installs the new
//!   recommender and bumps the monotonically increasing version.
//!   Batches that already loaded the old `Arc` finish on it (the `Arc`
//!   keeps the old artifact alive); the next `load` observes the new
//!   one.
//!
//! The version travels with every response, so each served ranking is
//! attributable to exactly one artifact generation — the property the
//! pipeline's freshness measurements and the hot-swap tests assert.

use crate::Recommender;
use std::sync::{Arc, Mutex};

/// Versioned, swappable handle to the live [`Recommender`].
///
/// Clone the slot itself (cheaply) to share it between the serving
/// threads and whatever drives the swaps.
#[derive(Clone)]
pub struct ArtifactSlot {
    inner: Arc<Mutex<(u64, Arc<Recommender>)>>,
}

impl ArtifactSlot {
    /// Wraps the initial recommender as artifact version 1.
    pub fn new(recommender: Recommender) -> Self {
        Self::with_version(1, recommender)
    }

    /// Wraps a recommender under an explicit starting version (the
    /// pipeline numbers exports itself and keeps the slot in step).
    pub fn with_version(version: u64, recommender: Recommender) -> Self {
        Self {
            inner: Arc::new(Mutex::new((version, Arc::new(recommender)))),
        }
    }

    /// Snapshots the current `(version, recommender)` pair. The returned
    /// `Arc` pins that artifact generation for as long as the caller
    /// holds it, regardless of subsequent swaps.
    pub fn load(&self) -> (u64, Arc<Recommender>) {
        let guard = self.inner.lock().expect("artifact slot poisoned");
        (guard.0, Arc::clone(&guard.1))
    }

    /// Current artifact version.
    pub fn version(&self) -> u64 {
        self.inner.lock().expect("artifact slot poisoned").0
    }

    /// Installs `recommender` as the next version and returns that
    /// version. In-flight readers keep the old `Arc`; the swap itself is
    /// a pointer exchange under the lock.
    pub fn swap(&self, recommender: Recommender) -> u64 {
        let mut guard = self.inner.lock().expect("artifact slot poisoned");
        guard.0 += 1;
        guard.1 = Arc::new(recommender);
        guard.0
    }
}

impl std::fmt::Debug for ArtifactSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactSlot")
            .field("version", &self.version())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExportArtifact, RecommendRequest, RecommenderBuilder};
    use hetefedrec_core::{Ablation, SessionBuilder, Strategy, TrainConfig};
    use hf_dataset::{SplitDataset, SyntheticConfig};
    use hf_models::ModelKind;

    fn recommender(epochs: usize) -> Recommender {
        let data = SyntheticConfig::tiny().generate(7);
        let split = SplitDataset::paper_split(&data, 7);
        let cfg = TrainConfig::test_default(ModelKind::Ncf);
        let mut s = SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), split)
            .eval_every(0)
            .build()
            .unwrap();
        for _ in 0..epochs {
            s.run_epoch();
        }
        RecommenderBuilder::new(s.export_artifact())
            .default_k(5)
            .build()
            .unwrap()
    }

    #[test]
    fn swap_bumps_versions_and_old_readers_keep_their_artifact() {
        let slot = ArtifactSlot::new(recommender(0));
        let (v1, old) = slot.load();
        assert_eq!(v1, 1);

        let v2 = slot.swap(recommender(1));
        assert_eq!(v2, 2);
        assert_eq!(slot.version(), 2);

        // The pinned Arc still serves the old generation.
        let old_resp = old.recommend(&RecommendRequest::new(0));
        assert!(!old_resp.items.is_empty());
        let (v, fresh) = slot.load();
        assert_eq!(v, 2);
        let new_resp = fresh.recommend(&RecommendRequest::new(0));
        assert!(!new_resp.items.is_empty());
    }

    #[test]
    fn swaps_are_visible_across_clones_and_threads() {
        let slot = ArtifactSlot::new(recommender(0));
        let reader = slot.clone();
        let handle = std::thread::spawn(move || {
            // Spin until the writer's swap becomes visible.
            loop {
                let (v, r) = reader.load();
                if v == 2 {
                    return r.recommend(&RecommendRequest::new(1));
                }
                std::thread::yield_now();
            }
        });
        slot.swap(recommender(1));
        let resp = handle.join().unwrap();
        assert!(!resp.items.is_empty());
    }
}
