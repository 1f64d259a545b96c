//! Serving-layer acceptance tests (through the facade):
//!
//! * `recommend` vs a naive full-sort reference — NaN-filtered items are
//!   skipped, ties break toward the smaller item id;
//! * serving-vs-`evaluate` ranking agreement on a trained session;
//! * batch/thread-count bit-identity for `recommend_batch`.

use hetefedrec::metrics::eval::{Evaluator, GroupedEval};
use hetefedrec::prelude::*;
use hetefedrec::tensor::rng::{stream, Rng, SeedStream};

fn tiny_split(seed: u64) -> SplitDataset {
    let data = SyntheticConfig::tiny().generate(seed);
    SplitDataset::paper_split(&data, seed)
}

fn trained(model: ModelKind, strategy: Strategy, epochs: usize) -> Session {
    let mut cfg = TrainConfig::test_default(model);
    cfg.epochs = epochs.max(1);
    let mut s = SessionBuilder::new(cfg, strategy, tiny_split(21))
        .eval_every(0)
        .build()
        .expect("valid config");
    for _ in 0..epochs {
        s.run_epoch();
    }
    s
}

/// The reference ranking: full sort of the post-filter score vector,
/// skipping NaN scores and every excluded id, ties toward the smaller
/// item id.
fn naive_reference(scores: &[f32], k: usize, exclude: &[u32]) -> Vec<u32> {
    let mut sorted_exclude = exclude.to_vec();
    sorted_exclude.sort_unstable();
    let mut candidates: Vec<(f32, u32)> = scores
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_nan())
        .map(|(i, &s)| (s, i as u32))
        .filter(|(_, i)| sorted_exclude.binary_search(i).is_err())
        .collect();
    candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
    candidates.into_iter().take(k).map(|(_, i)| i).collect()
}

#[test]
fn recommend_matches_naive_full_sort_reference() {
    let session = trained(ModelKind::Ncf, Strategy::HeteFedRec(Ablation::FULL), 2);
    let split = session.split().clone();
    let recommender = RecommenderBuilder::new(session.export_artifact())
        .default_k(10)
        .panel_items(13)
        .build()
        .unwrap();

    // Randomised request mix: varying k, explicit exclusions, popularity
    // floors, and predicates (which surface as NaN scores the selection
    // must skip).
    let mut rng = stream(77, SeedStream::Custom(40));
    for case in 0..60 {
        let user = rng.gen_range(0..split.num_users() + 3); // some cold
        let k = 1 + rng.gen_range(0..25usize);
        let mut request = RecommendRequest::new(user).with_k(k);
        if case % 3 == 0 {
            let banned: Vec<u32> = (0..rng.gen_range(0..8usize))
                .map(|_| rng.gen_range(0..split.num_items()) as u32)
                .collect();
            request = request.exclude(banned);
        }
        if case % 4 == 1 {
            request = request.with_min_popularity(rng.gen_range(0..6usize) as u32);
        }
        if case % 5 == 2 {
            let modulus = 2 + rng.gen_range(0..3usize) as u32;
            request = request.with_filter(move |item| item % modulus != 0);
        }
        if case % 7 == 3 {
            request = request.keep_seen();
        }

        let scores = recommender.score_request(&request);
        let mut exclude = request.exclude.clone();
        if request.exclude_seen && user < split.num_users() {
            exclude.extend_from_slice(split.user(user).train);
        }
        let expected = naive_reference(&scores, k, &exclude);
        let response = recommender.recommend(&request);
        let got: Vec<u32> = response.items.iter().map(|it| it.item).collect();
        assert_eq!(got, expected, "case {case} (user {user}, k {k})");
        for it in &response.items {
            assert_eq!(it.score.to_bits(), scores[it.item as usize].to_bits());
            assert!(!it.score.is_nan(), "NaN-filtered item {} ranked", it.item);
        }
    }
}

#[test]
fn serving_rankings_agree_with_evaluate() {
    for model in [ModelKind::Ncf, ModelKind::LightGcn] {
        let session = trained(model, Strategy::HeteFedRec(Ablation::FULL), 3);
        let split = session.split();
        let eval_k = session.cfg().eval_k;
        let offline = session.evaluate();

        let recommender = RecommenderBuilder::new(session.export_artifact())
            .default_k(eval_k)
            .threads(2)
            .build()
            .unwrap();
        let evaluator = Evaluator { k: eval_k };
        let mut grouped = GroupedEval::new(3);
        for user in 0..split.num_users() {
            let user_split = split.user(user);
            if user_split.test.is_empty() {
                continue;
            }
            let response = recommender.recommend(&RecommendRequest::new(user));
            let ranked: Vec<u32> = response.items.iter().map(|it| it.item).collect();
            let eval = evaluator
                .evaluate_ranked(&ranked, user_split.test)
                .expect("test items present");
            grouped.push(session.data_groups().tier(user).index(), eval);
        }
        let served = grouped.overall();
        assert_eq!(
            served.ndcg.to_bits(),
            offline.overall.ndcg.to_bits(),
            "{model:?}: served NDCG diverges from evaluate()"
        );
        assert_eq!(served.recall.to_bits(), offline.overall.recall.to_bits());
        assert_eq!(served.mrr.to_bits(), offline.overall.mrr.to_bits());
        assert_eq!(served.users, offline.overall.users);
    }
}

#[test]
fn precomputed_item_halves_match_the_memory_lean_path() {
    // The builder's precomputed whole-catalogue item halves and a
    // one-tile budget, which computes every other tile per unit, must be
    // bit-identical, for every panel
    // size (including one larger than the catalogue) and for shared,
    // standalone-solo, and cold-start requests alike.
    for (model, strategy) in [
        (ModelKind::Ncf, Strategy::HeteFedRec(Ablation::FULL)),
        (ModelKind::LightGcn, Strategy::HeteFedRec(Ablation::FULL)),
        (ModelKind::Ncf, Strategy::Standalone),
    ] {
        let session = trained(model, strategy, 1);
        let requests: Vec<RecommendRequest> = (0..session.split().num_users())
            .map(|u| {
                let request = RecommendRequest::new(u).with_k(1 + u % 17);
                match u % 3 {
                    0 => request.with_min_popularity(2),
                    1 => request.with_filter(|item| item % 3 != 0),
                    _ => request,
                }
            })
            .chain([RecommendRequest::new(usize::MAX)])
            .collect();
        for panel_items in [7, 128, 100_000] {
            let build = |mode: ItemHalfMode| {
                RecommenderBuilder::new(session.export_artifact())
                    .default_k(10)
                    .threads(2)
                    .panel_items(panel_items)
                    .item_half_mode(mode)
                    .build()
                    .unwrap()
            };
            let precomputed = build(ItemHalfMode::Precomputed).recommend_batch(&requests);
            let lean = build(ItemHalfMode::Tiled { max_panels: 1 }).recommend_batch(&requests);
            assert_eq!(precomputed.len(), lean.len());
            for (a, b) in precomputed.iter().zip(&lean) {
                assert_eq!(a.user, b.user, "{model:?}/panel {panel_items}");
                assert_eq!(a.items.len(), b.items.len());
                for (x, y) in a.items.iter().zip(&b.items) {
                    assert_eq!(x.item, y.item, "{model:?}/panel {panel_items}");
                    assert_eq!(
                        x.score.to_bits(),
                        y.score.to_bits(),
                        "{model:?}/panel {panel_items}"
                    );
                }
            }
        }
    }
}

#[test]
fn recommend_batch_is_bit_identical_across_thread_counts() {
    for (model, strategy) in [
        (ModelKind::Ncf, Strategy::HeteFedRec(Ablation::FULL)),
        (ModelKind::LightGcn, Strategy::HeteFedRec(Ablation::FULL)),
        (ModelKind::Ncf, Strategy::Standalone),
    ] {
        let session = trained(model, strategy, 1);
        let requests: Vec<RecommendRequest> = (0..session.split().num_users())
            .map(|u| RecommendRequest::new(u).with_k(12))
            .chain([RecommendRequest::new(usize::MAX)])
            .collect();
        let build = |threads: usize| {
            RecommenderBuilder::new(session.export_artifact())
                .default_k(12)
                .threads(threads)
                .panel_items(9)
                .build()
                .unwrap()
        };
        let reference = build(1).recommend_batch(&requests);
        for threads in [2, 8] {
            let got = build(threads).recommend_batch(&requests);
            assert_eq!(reference.len(), got.len());
            for (a, b) in reference.iter().zip(&got) {
                assert_eq!(a.user, b.user);
                assert_eq!(a.tier, b.tier);
                assert_eq!(a.cold_start, b.cold_start);
                assert_eq!(a.items.len(), b.items.len());
                for (x, y) in a.items.iter().zip(&b.items) {
                    assert_eq!(x.item, y.item, "{model:?}/{threads} threads");
                    assert_eq!(
                        x.score.to_bits(),
                        y.score.to_bits(),
                        "{model:?}/{threads} threads"
                    );
                }
            }
        }
    }
}
