//! Per-user evaluation and aggregation.
//!
//! The protocol (paper §V-B, following \[69\], \[73\]): for every user with a
//! non-empty test set, score the full item universe, mask the user's
//! training positives, take the top-K, and compute Recall@K / NDCG@K
//! against the held-out items. Aggregates are plain means over evaluated
//! users; [`GroupedEval`] additionally buckets users (by tier) for the
//! Fig. 6 breakdown.

use crate::ranking;
use crate::topk::top_k_excluding;

/// Metrics of a single user at one cutoff.
#[derive(Clone, Copy, Debug)]
pub struct UserEval {
    /// Recall@K.
    pub recall: f64,
    /// NDCG@K.
    pub ndcg: f64,
    /// HitRate@K.
    pub hit_rate: f64,
    /// Precision@K.
    pub precision: f64,
    /// Mean reciprocal rank of the first hit within the top-K list.
    pub mrr: f64,
}

/// Aggregated metrics over a user population.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalResult {
    /// Mean Recall@K.
    pub recall: f64,
    /// Mean NDCG@K.
    pub ndcg: f64,
    /// Mean HitRate@K.
    pub hit_rate: f64,
    /// Mean Precision@K.
    pub precision: f64,
    /// Mean MRR.
    pub mrr: f64,
    /// Number of users with a non-empty test set that were evaluated.
    pub users: usize,
}

impl EvalResult {
    /// Paper-style one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "Recall@K {:.5}  NDCG@K {:.5}  HR@K {:.4}  ({} users)",
            self.recall, self.ndcg, self.hit_rate, self.users
        )
    }
}

impl hf_tensor::ser::ToJson for EvalResult {
    fn write_json(&self, out: &mut String) {
        hf_tensor::ser::obj(out, |o| {
            o.field("recall", &self.recall)
                .field("ndcg", &self.ndcg)
                .field("hit_rate", &self.hit_rate)
                .field("precision", &self.precision)
                .field("mrr", &self.mrr)
                .field("users", &self.users);
        });
    }
}

impl EvalResult {
    /// Restores a checkpointed evaluation result.
    pub fn from_json(v: &hf_tensor::ser::JsonValue<'_>) -> Result<Self, hf_tensor::ser::JsonError> {
        Ok(Self {
            recall: v.get("recall")?.as_f64()?,
            ndcg: v.get("ndcg")?.as_f64()?,
            hit_rate: v.get("hit_rate")?.as_f64()?,
            precision: v.get("precision")?.as_f64()?,
            mrr: v.get("mrr")?.as_f64()?,
            users: v.get("users")?.as_usize()?,
        })
    }
}

/// Full-ranking evaluator at cutoff `k` (paper: 20).
#[derive(Clone, Copy, Debug)]
pub struct Evaluator {
    /// Ranking cutoff.
    pub k: usize,
}

impl Evaluator {
    /// Paper-default cutoff of 20.
    pub fn paper_default() -> Self {
        Self { k: 20 }
    }

    /// Evaluates one user from a full score vector.
    ///
    /// `train_mask` (sorted) is excluded from ranking; `test` (sorted) is
    /// the relevant set. Returns `None` when the user has no test items —
    /// such users do not participate in the aggregate, matching the
    /// standard protocol.
    pub fn evaluate_user(
        &self,
        scores: &[f32],
        train_mask: &[u32],
        test: &[u32],
    ) -> Option<UserEval> {
        if test.is_empty() {
            return None;
        }
        let ranked = top_k_excluding(scores, self.k, train_mask);
        self.evaluate_ranked(&ranked, test)
    }

    /// Evaluates an already-ranked top-K list (best first) against the
    /// relevant set — the entry point for rankings produced outside this
    /// crate, e.g. by the serving layer's `Recommender`. Returns `None`
    /// when the user has no test items.
    pub fn evaluate_ranked(&self, ranked: &[u32], test: &[u32]) -> Option<UserEval> {
        if test.is_empty() {
            return None;
        }
        Some(UserEval {
            recall: ranking::recall_at_k(ranked, test, self.k),
            ndcg: ranking::ndcg_at_k(ranked, test, self.k),
            hit_rate: ranking::hit_rate_at_k(ranked, test, self.k),
            precision: ranking::precision_at_k(ranked, test, self.k),
            mrr: ranking::mrr(ranked, test),
        })
    }

    /// Mean-aggregates user evaluations.
    pub fn aggregate(users: impl IntoIterator<Item = UserEval>) -> EvalResult {
        let mut acc = EvalResult::default();
        for u in users {
            acc.recall += u.recall;
            acc.ndcg += u.ndcg;
            acc.hit_rate += u.hit_rate;
            acc.precision += u.precision;
            acc.mrr += u.mrr;
            acc.users += 1;
        }
        if acc.users > 0 {
            let n = acc.users as f64;
            acc.recall /= n;
            acc.ndcg /= n;
            acc.hit_rate /= n;
            acc.precision /= n;
            acc.mrr /= n;
        }
        acc
    }
}

/// Aggregation bucketed by group index — the per-tier breakdown of Fig. 6.
#[derive(Clone, Debug)]
pub struct GroupedEval {
    buckets: Vec<Vec<UserEval>>,
}

impl GroupedEval {
    /// Creates `num_groups` empty buckets.
    pub fn new(num_groups: usize) -> Self {
        Self {
            buckets: vec![Vec::new(); num_groups],
        }
    }

    /// Records one user's evaluation under `group`.
    ///
    /// # Panics
    /// Panics if `group` is out of range.
    pub fn push(&mut self, group: usize, eval: UserEval) {
        self.buckets[group].push(eval);
    }

    /// Per-group aggregates.
    pub fn per_group(&self) -> Vec<EvalResult> {
        self.buckets
            .iter()
            .map(|b| Evaluator::aggregate(b.iter().copied()))
            .collect()
    }

    /// Aggregate over all groups combined.
    pub fn overall(&self) -> EvalResult {
        Evaluator::aggregate(self.buckets.iter().flatten().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_user_masks_train_items() {
        let ev = Evaluator { k: 2 };
        // Item 0 has the best score but is a train positive; items 1, 2
        // should be ranked. Test item is 2.
        let scores = [9.0, 1.0, 2.0, 0.5];
        let result = ev.evaluate_user(&scores, &[0], &[2]).unwrap();
        assert_eq!(result.recall, 1.0);
        assert_eq!(result.hit_rate, 1.0);
        assert_eq!(result.mrr, 1.0); // rank 1 after masking
    }

    #[test]
    fn evaluate_user_skips_empty_test() {
        let ev = Evaluator::paper_default();
        assert!(ev.evaluate_user(&[1.0, 2.0], &[], &[]).is_none());
    }

    #[test]
    fn aggregate_means() {
        let users = vec![
            UserEval {
                recall: 1.0,
                ndcg: 1.0,
                hit_rate: 1.0,
                precision: 0.5,
                mrr: 1.0,
            },
            UserEval {
                recall: 0.0,
                ndcg: 0.0,
                hit_rate: 0.0,
                precision: 0.0,
                mrr: 0.0,
            },
        ];
        let agg = Evaluator::aggregate(users);
        assert_eq!(agg.users, 2);
        assert!((agg.recall - 0.5).abs() < 1e-12);
        assert!((agg.ndcg - 0.5).abs() < 1e-12);
    }

    #[test]
    fn aggregate_of_nothing_is_zero() {
        let agg = Evaluator::aggregate(Vec::new());
        assert_eq!(agg.users, 0);
        assert_eq!(agg.recall, 0.0);
    }

    #[test]
    fn perfect_model_scores_one() {
        let ev = Evaluator { k: 3 };
        // Scores proportional to relevance.
        let scores = [0.1, 0.9, 0.8, 0.2];
        let result = ev.evaluate_user(&scores, &[], &[1, 2]).unwrap();
        assert_eq!(result.recall, 1.0);
        assert!((result.ndcg - 1.0).abs() < 1e-12);
    }

    #[test]
    fn grouped_eval_buckets_and_overall() {
        let mut g = GroupedEval::new(3);
        g.push(
            0,
            UserEval {
                recall: 1.0,
                ndcg: 1.0,
                hit_rate: 1.0,
                precision: 1.0,
                mrr: 1.0,
            },
        );
        g.push(
            2,
            UserEval {
                recall: 0.0,
                ndcg: 0.0,
                hit_rate: 0.0,
                precision: 0.0,
                mrr: 0.0,
            },
        );
        let per = g.per_group();
        assert_eq!(per[0].users, 1);
        assert_eq!(per[1].users, 0);
        assert_eq!(per[2].users, 1);
        assert!((g.overall().recall - 0.5).abs() < 1e-12);
    }

    #[test]
    fn summary_contains_metrics() {
        let agg = EvalResult {
            recall: 0.1,
            ndcg: 0.2,
            hit_rate: 0.3,
            precision: 0.0,
            mrr: 0.0,
            users: 7,
        };
        let s = agg.summary();
        assert!(s.contains("0.10000") && s.contains("7 users"));
    }
}
