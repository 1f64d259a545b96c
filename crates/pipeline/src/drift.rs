//! Freshness measurement: what does serving a stale artifact cost?
//!
//! [`drift_report`] replays a held-out event set — the post-cutoff
//! interactions a [`ReplayStream`](crate::ReplayStream) delivered to
//! the training side — against two artifacts: the *stale* one exported
//! before those interactions arrived and the *fresh* one exported
//! after. For every event it computes the target item's exact rank
//! under each artifact's full score vector, then aggregates:
//!
//! * NDCG@k per artifact (`1 / log2(rank + 2)` when the target ranks
//!   inside the top `k`, else 0) — the headline freshness delta;
//! * mean absolute rank displacement — how far items moved between
//!   the two artifacts, top-k or not.
//!
//! Ranks are exact and deterministic: ties break toward the smaller
//! item id, matching the recommender's stable ordering, and scoring
//! uses [`Recommender::score_request`] with seen-masking off so a
//! held-out item is never filtered out of its own evaluation. Users
//! the stale artifact has never seen (admitted mid-stream) fall back
//! to its cold-start scores — exactly what a stale server would have
//! answered.

use crate::stream::StreamEvent;
use hf_serve::{RecommendRequest, Recommender};
use hf_tensor::ser::{obj, ToJson};
use std::collections::BTreeMap;

/// Aggregate freshness comparison between two artifact generations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftReport {
    /// Held-out events evaluated.
    pub events: usize,
    /// Ranking cutoff used for the NDCG terms.
    pub k: usize,
    /// NDCG@k of the stale artifact on the held-out events.
    pub stale_ndcg: f64,
    /// NDCG@k of the fresh artifact on the same events.
    pub fresh_ndcg: f64,
    /// `fresh_ndcg - stale_ndcg`: the freshness payoff.
    pub ndcg_delta: f64,
    /// Mean `|rank_fresh - rank_stale|` of the target items.
    pub mean_rank_displacement: f64,
}

impl ToJson for DriftReport {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            o.field("events", &self.events)
                .field("k", &self.k)
                .field("stale_ndcg", &self.stale_ndcg)
                .field("fresh_ndcg", &self.fresh_ndcg)
                .field("ndcg_delta", &self.ndcg_delta)
                .field("mean_rank_displacement", &self.mean_rank_displacement);
        });
    }
}

/// Exact rank of `item` in a full score vector: the number of
/// candidates ordered strictly ahead of it (higher score, or equal
/// score with a smaller id). `NaN` entries are filtered candidates and
/// never outrank anything.
fn rank_of(scores: &[f32], item: u32) -> usize {
    let target = scores[item as usize];
    if target.is_nan() {
        // The target itself was filtered; rank it past the end.
        return scores.len();
    }
    scores
        .iter()
        .enumerate()
        .filter(|&(j, &s)| !s.is_nan() && (s > target || (s == target && (j as u32) < item)))
        .count()
}

/// Per-user score cache: one dense scoring pass per distinct user,
/// however many of its interactions the event set holds.
struct ScoreCache<'a> {
    recommender: &'a Recommender,
    scores: BTreeMap<usize, Vec<f32>>,
}

impl<'a> ScoreCache<'a> {
    fn new(recommender: &'a Recommender) -> Self {
        Self {
            recommender,
            scores: BTreeMap::new(),
        }
    }

    fn rank(&mut self, user: usize, item: u32) -> usize {
        let scores = self.scores.entry(user).or_insert_with(|| {
            self.recommender
                .score_request(&RecommendRequest::new(user).keep_seen())
        });
        rank_of(scores, item)
    }
}

/// Replays `events` against a stale and a fresh artifact generation
/// and aggregates the freshness comparison (module docs). Takes any
/// event iterator, so [`ReplayStream::events`](crate::ReplayStream::events)
/// is read in place.
pub fn drift_report(
    stale: &Recommender,
    fresh: &Recommender,
    events: impl IntoIterator<Item = StreamEvent>,
    k: usize,
) -> DriftReport {
    let mut stale_cache = ScoreCache::new(stale);
    let mut fresh_cache = ScoreCache::new(fresh);
    let (mut stale_gain, mut fresh_gain, mut displacement) = (0.0f64, 0.0f64, 0.0f64);
    let mut count = 0usize;
    for e in events {
        count += 1;
        let rank_stale = stale_cache.rank(e.user, e.item);
        let rank_fresh = fresh_cache.rank(e.user, e.item);
        stale_gain += ndcg_term(rank_stale, k);
        fresh_gain += ndcg_term(rank_fresh, k);
        displacement += (rank_fresh as f64 - rank_stale as f64).abs();
    }
    let n = count.max(1) as f64;
    let (stale_ndcg, fresh_ndcg) = (stale_gain / n, fresh_gain / n);
    DriftReport {
        events: count,
        k,
        stale_ndcg,
        fresh_ndcg,
        ndcg_delta: fresh_ndcg - stale_ndcg,
        mean_rank_displacement: displacement / n,
    }
}

fn ndcg_term(rank: usize, k: usize) -> f64 {
    if rank < k {
        1.0 / ((rank as f64 + 2.0).log2())
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetefedrec_core::{Ablation, SessionBuilder, Strategy, TrainConfig};
    use hf_dataset::{SplitDataset, SyntheticConfig};
    use hf_models::ModelKind;
    use hf_serve::{ExportArtifact, RecommenderBuilder};

    fn recommender(epochs: usize) -> Recommender {
        let data = SyntheticConfig::tiny().generate(33);
        let split = SplitDataset::paper_split(&data, 33);
        let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
        cfg.epochs = epochs.max(1);
        let mut s = SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), split)
            .eval_every(0)
            .build()
            .expect("valid config");
        for _ in 0..epochs {
            s.run_epoch();
        }
        RecommenderBuilder::new(s.export_artifact())
            .build()
            .expect("valid serving config")
    }

    fn some_events() -> Vec<StreamEvent> {
        (0..8)
            .map(|i| StreamEvent {
                time: i as u64,
                user: i % 5,
                item: (i * 7 % 30) as u32,
            })
            .collect()
    }

    #[test]
    fn rank_of_breaks_ties_toward_smaller_ids_and_skips_nan() {
        let scores = [0.5, f32::NAN, 0.9, 0.5, 0.1];
        assert_eq!(rank_of(&scores, 2), 0); // unique best
        assert_eq!(rank_of(&scores, 0), 1); // ties with 3, wins on id
        assert_eq!(rank_of(&scores, 3), 2); // loses the tie to 0
        assert_eq!(rank_of(&scores, 4), 3); // NaN at 1 never outranks
        assert_eq!(rank_of(&scores, 1), 5); // filtered target: past end
    }

    #[test]
    fn identical_artifacts_show_zero_drift() {
        let rec = recommender(1);
        let report = drift_report(&rec, &rec, some_events(), 10);
        assert_eq!(report.events, 8);
        assert_eq!(report.ndcg_delta, 0.0);
        assert_eq!(report.mean_rank_displacement, 0.0);
        assert_eq!(report.stale_ndcg, report.fresh_ndcg);
    }

    #[test]
    fn different_generations_show_nonzero_displacement() {
        let stale = recommender(1);
        let fresh = recommender(3);
        let report = drift_report(&stale, &fresh, some_events(), 10);
        assert!(report.mean_rank_displacement > 0.0);
        assert!(report.stale_ndcg >= 0.0 && report.fresh_ndcg >= 0.0);
        assert!((report.ndcg_delta - (report.fresh_ndcg - report.stale_ndcg)).abs() < 1e-15);
    }

    #[test]
    fn empty_event_sets_degrade_gracefully() {
        let rec = recommender(1);
        let report = drift_report(&rec, &rec, [], 10);
        assert_eq!(report.events, 0);
        assert_eq!(report.stale_ndcg, 0.0);
        assert_eq!(report.mean_rank_displacement, 0.0);
    }

    #[test]
    fn report_serialises_every_field() {
        let report = DriftReport {
            events: 3,
            k: 10,
            stale_ndcg: 0.25,
            fresh_ndcg: 0.5,
            ndcg_delta: 0.25,
            mean_rank_displacement: 1.5,
        };
        let json = report.to_json();
        for key in [
            "events",
            "\"k\"",
            "stale_ndcg",
            "fresh_ndcg",
            "ndcg_delta",
            "mean_rank_displacement",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
