//! Domain example: end-to-end movie recommendation with checkpoint and
//! resume. Trains a federated model through the session API, checkpoints
//! mid-run to a file, finishes training, then restores the checkpoint
//! and proves the resumed run reaches a bit-identical evaluation before
//! producing top-10 recommendation lists.
//!
//! ```text
//! cargo run --release --example movie_recommendation
//! ```
//!
//! The checkpoint path defaults to
//! `target/ci-artifacts/movie_recommendation_checkpoint.json` and can be
//! overridden with the `HF_CHECKPOINT_PATH` environment variable (ci.sh
//! relies on the artefact landing there).

use hetefedrec::core::client::UserState;
use hetefedrec::core::server::ServerState;
use hetefedrec::models::FfnCache;
use hetefedrec::prelude::*;

fn main() {
    let seed = 7;
    let make_split = || {
        let data = DatasetProfile::MovieLens.config_scaled(0.04).generate(seed);
        SplitDataset::paper_split(&data, seed)
    };
    let split = make_split();

    let mut cfg = TrainConfig::paper_defaults(ModelKind::Ncf, DatasetProfile::MovieLens);
    cfg.epochs = 6;
    cfg.seed = seed;
    let strategy = Strategy::HeteFedRec(Ablation::FULL);
    let checkpoint_path = std::env::var("HF_CHECKPOINT_PATH")
        .unwrap_or_else(|_| "target/ci-artifacts/movie_recommendation_checkpoint.json".into());

    // --- Train, checkpointing mid-run ------------------------------------
    let checkpoint_epoch = 2;
    let mut session = SessionBuilder::new(cfg.clone(), strategy, split.clone())
        .build()
        .expect("valid configuration");
    while let Some(event) = session.step() {
        if let SessionEvent::Epoch(e) = event {
            let eval = e.eval.as_ref().expect("default cadence");
            println!(
                "epoch {}: train loss {:.4}  NDCG@20 {:.5}",
                e.epoch, e.train_loss, eval.overall.ndcg
            );
            if e.epoch == checkpoint_epoch {
                session
                    .write_checkpoint(&checkpoint_path)
                    .expect("checkpoint written");
                println!("  checkpointed epoch {} to {checkpoint_path}", e.epoch);
            }
        }
    }
    let trained_eval = session.final_eval().expect("final epoch evaluated").clone();
    println!("trained: overall NDCG@20 {:.5}", trained_eval.overall.ndcg);

    // --- Resume from the checkpoint and verify bit-identity --------------
    let mut resumed = SessionBuilder::from_checkpoint_file(&checkpoint_path, make_split())
        .expect("checkpoint parses")
        .build()
        .expect("checkpoint restores");
    println!(
        "resumed from epoch {} ({} rounds done); finishing the run...",
        checkpoint_epoch,
        resumed.rounds_completed()
    );
    resumed.run();
    let resumed_eval = resumed.final_eval().expect("final epoch evaluated").clone();
    assert_eq!(
        trained_eval.overall.ndcg.to_bits(),
        resumed_eval.overall.ndcg.to_bits(),
        "resumed run must be bit-identical to the uninterrupted one"
    );
    assert_eq!(
        trained_eval.overall.recall.to_bits(),
        resumed_eval.overall.recall.to_bits()
    );
    println!(
        "resume verified: NDCG@20 {:.5} == {:.5} (bit-identical)\n",
        resumed_eval.overall.ndcg, trained_eval.overall.ndcg
    );

    // --- Serve top-10 lists from the resumed session ----------------------
    // This is the on-device path an application would run; using the
    // *resumed* session proves restored state serves identically.
    let mut users: Vec<usize> = (0..split.num_users()).collect();
    users.sort_by_key(|&u| std::cmp::Reverse(split.user(u).test.len()));

    for &u in users.iter().take(3) {
        let tier = resumed.model_groups().tier(u);
        let top = recommend(
            resumed.server(),
            resumed.user_state(u),
            &split,
            &cfg,
            u,
            tier,
            10,
        );
        let test = &split.user(u).test;
        let hits: Vec<u32> = top
            .iter()
            .copied()
            .filter(|i| test.binary_search(i).is_ok())
            .collect();
        println!(
            "user {u} (tier {}, {} train / {} test movies)",
            tier.label(),
            split.user(u).train.len(),
            test.len()
        );
        println!("  top-10 recommendations: {top:?}");
        println!("  held-out hits in top-10: {hits:?}\n");
    }
}

/// On-device serving: score every unseen movie with the user's tier model
/// and return the top-K item ids.
fn recommend(
    server: &ServerState,
    state: &UserState,
    split: &SplitDataset,
    cfg: &TrainConfig,
    user: usize,
    tier: Tier,
    k: usize,
) -> Vec<u32> {
    let dim = cfg.dims.dim(tier);
    let theta = server.theta(tier);
    let mut cache = FfnCache::for_ffn(theta);
    let table = server.table(tier);
    // The predictor scores `[u, v]`; the user half is fixed.
    let mut input = vec![0.0; 2 * dim];
    input[..dim].copy_from_slice(state.emb());
    let scores: Vec<f32> = (0..split.num_items())
        .map(|item| {
            input[dim..].copy_from_slice(table.row_prefix(item, dim));
            theta.forward(&input, &mut cache)
        })
        .collect();
    hetefedrec::metrics::top_k_excluding(&scores, k, split.user(user).train)
}
