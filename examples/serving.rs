//! Domain example: from a trained session to a serving deployment.
//!
//! Trains a small federated model, exports an immutable `ModelArtifact`,
//! and proves the two deployment contracts end to end:
//!
//! 1. **Serving matches eval** — top-K metrics recomputed through the
//!    batched `Recommender` are bit-identical to the offline
//!    `Session::evaluate()` numbers (one shared scorer).
//! 2. **Artifact reload** — the session checkpoint written to disk
//!    restores (`SessionBuilder::from_checkpoint_file`) a session whose
//!    exported recommender's top-K lists are bit-identical to the
//!    directly exported one.
//!
//! ```text
//! cargo run --release --example serving
//! ```
//!
//! The checkpoint path defaults to
//! `target/ci-artifacts/serving_checkpoint.json` and can be overridden
//! with the `HF_SERVE_CHECKPOINT_PATH` environment variable (ci.sh greps
//! this example's proof lines).

use hetefedrec::metrics::eval::{Evaluator, GroupedEval};
use hetefedrec::prelude::*;

fn main() {
    let seed = 11;
    let make_split = || {
        let data = DatasetProfile::MovieLens.config_scaled(0.02).generate(seed);
        SplitDataset::paper_split(&data, seed)
    };
    let split = make_split();

    let mut cfg = TrainConfig::paper_defaults(ModelKind::Ncf, DatasetProfile::MovieLens);
    cfg.epochs = 3;
    cfg.seed = seed;
    let eval_k = cfg.eval_k;
    let mut session = SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), split.clone())
        .eval_every(0)
        .build()
        .expect("valid configuration");
    for epoch in 1..=3 {
        let loss = session.run_epoch();
        println!("epoch {epoch}: train loss {loss:.4}");
    }

    // --- Export and serve --------------------------------------------------
    let recommender = RecommenderBuilder::new(session.export_artifact())
        .default_k(10)
        .threads(2)
        .build()
        .expect("valid serving configuration");
    println!(
        "exported artifact v{}: {} users, {} items\n",
        recommender.artifact().version(),
        recommender.artifact().num_users(),
        recommender.artifact().num_items()
    );

    for user in 0..3usize {
        let top = recommender.recommend(&RecommendRequest::new(user));
        let ids: Vec<u32> = top.items.iter().map(|it| it.item).collect();
        println!("user {user} (tier {}): top-10 {ids:?}", top.tier.label());
    }

    // --- Proof 1: serving matches eval ------------------------------------
    // Recompute the offline metrics *through the serving path*: for every
    // user with held-out items, rank with the recommender at the eval
    // cutoff (history masked, like the protocol) and aggregate in the
    // same data-group bucketing evaluate() uses.
    let offline = session.evaluate();
    let evaluator = Evaluator { k: eval_k };
    let mut grouped = GroupedEval::new(3);
    let requests: Vec<RecommendRequest> = (0..split.num_users())
        .map(|u| RecommendRequest::new(u).with_k(eval_k))
        .collect();
    let responses = recommender.recommend_batch(&requests);
    for (user, response) in responses.iter().enumerate() {
        let user_split = split.user(user);
        if user_split.test.is_empty() {
            continue;
        }
        let ranked: Vec<u32> = response.items.iter().map(|it| it.item).collect();
        let eval = evaluator
            .evaluate_ranked(&ranked, user_split.test)
            .expect("non-empty test set");
        grouped.push(session.data_groups().tier(user).index(), eval);
    }
    let served = grouped.overall();
    assert_eq!(
        served.ndcg.to_bits(),
        offline.overall.ndcg.to_bits(),
        "served NDCG must equal offline eval bit-for-bit"
    );
    assert_eq!(served.recall.to_bits(), offline.overall.recall.to_bits());
    assert_eq!(served.users, offline.overall.users);
    println!(
        "\nserving matches eval: NDCG@{eval_k} {:.5} == {:.5} (bit-identical, {} users)",
        served.ndcg, offline.overall.ndcg, served.users
    );

    // --- Proof 2: checkpoint → artifact reload -----------------------------
    let checkpoint_path = std::env::var("HF_SERVE_CHECKPOINT_PATH")
        .unwrap_or_else(|_| "target/ci-artifacts/serving_checkpoint.json".into());
    session
        .write_checkpoint(&checkpoint_path)
        .expect("checkpoint written");
    let reloaded = SessionBuilder::from_checkpoint_file(&checkpoint_path, make_split())
        .and_then(SessionBuilder::build)
        .expect("checkpoint restores the session")
        .export_artifact();
    let from_disk = RecommenderBuilder::new(reloaded)
        .default_k(10)
        .threads(2)
        .build()
        .expect("valid serving configuration");
    for user in 0..split.num_users() {
        let a = recommender.recommend(&RecommendRequest::new(user));
        let b = from_disk.recommend(&RecommendRequest::new(user));
        assert_eq!(a.items.len(), b.items.len(), "user {user}");
        for (x, y) in a.items.iter().zip(&b.items) {
            assert_eq!(x.item, y.item, "user {user}");
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "user {user}");
        }
    }
    println!(
        "artifact reload verified: {} users serve bit-identical top-K lists from {checkpoint_path}",
        split.num_users()
    );
}
