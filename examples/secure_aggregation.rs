//! Domain example: training with the secure-aggregation upload path on.
//!
//! Runs the same tiny federation twice — once plaintext, once with
//! pairwise-masked uploads and injected dropout — and proves the two
//! protocol contracts end to end:
//!
//! 1. **Masking is lossless in the ring** — the server's unmasked u64
//!    aggregate equals the plaintext quantized sum of the survivors
//!    bit-for-bit, every round (the engine hard-asserts it; the round
//!    reports record it).
//! 2. **Dropout recovery works** — committed clients that vanish
//!    mid-round leave orphaned masks, survivors reveal the escrowed
//!    Shamir shares, and the aggregate still verifies.
//!
//! ```text
//! cargo run --release --example secure_aggregation
//! ```
//!
//! ci.sh greps this example's two proof lines.

use hetefedrec::prelude::*;

fn main() {
    let seed = 11;
    let data = SyntheticConfig::tiny().generate(seed);
    let split = SplitDataset::paper_split(&data, seed);

    let mut cfg = TrainConfig::paper_defaults(ModelKind::Ncf, DatasetProfile::MovieLens);
    cfg.dims = TierDims::new(4, 8, 16);
    cfg.epochs = 2;
    cfg.clients_per_round = 16;
    cfg.eval_k = 10;
    cfg.kd.items = 16;
    cfg.seed = seed;
    // Injected upload losses: committed group members that never deliver.
    cfg.drop_prob = 0.1;
    cfg.secagg = SecAggConfig {
        enabled: true,
        scale_bits: 16,
    };

    let mut session = SessionBuilder::new(
        cfg.clone(),
        Strategy::HeteFedRec(Ablation::FULL),
        split.clone(),
    )
    .build()
    .expect("valid masked configuration");

    let mut rounds = 0usize;
    let mut participants = 0usize;
    let mut dropped = 0usize;
    let mut recovered = 0usize;
    let mut masked_bytes = 0u64;
    let mut setup_bytes = 0u64;
    let mut all_verified = true;
    while let Some(event) = session.step() {
        if let SessionEvent::Round(r) = event {
            let s = r.secagg.expect("masked rounds report secagg stats");
            rounds += 1;
            participants += s.participants;
            dropped += s.dropped;
            recovered += s.recovered;
            masked_bytes += s.masked_bytes;
            setup_bytes += s.setup_bytes;
            all_verified &= s.verified;
        }
    }
    let eval = session.final_eval().expect("final epoch evaluated");
    println!(
        "masked run: {rounds} rounds, {participants} committed uploads, \
         {masked_bytes} masked bytes + {setup_bytes} setup bytes, NDCG@10 {:.4}",
        eval.overall.ndcg
    );

    // Plaintext twin for the overhead comparison (identical schedule:
    // secagg draws from its own RNG stream, so flipping it off perturbs
    // nothing else).
    let mut plain_cfg = cfg;
    plain_cfg.secagg = SecAggConfig::default();
    let mut plain = SessionBuilder::new(plain_cfg, Strategy::HeteFedRec(Ablation::FULL), split)
        .build()
        .expect("valid plaintext configuration");
    let mut plain_upload = 0u64;
    while let Some(event) = plain.step() {
        if let SessionEvent::Round(r) = event {
            plain_upload += r.upload_bytes;
        }
    }
    println!(
        "upload overhead: {masked_bytes} masked vs {plain_upload} plaintext bytes \
         ({:.1}x, + {setup_bytes} setup)",
        masked_bytes as f64 / plain_upload as f64
    );

    // Proof line 1: every round's unmasked ring aggregate matched the
    // plaintext quantized reference (the engine asserts each one; a
    // below-threshold group would have cleared the flag instead).
    assert!(all_verified && rounds > 0);
    println!("masked aggregate == plaintext quantized aggregate");

    // Proof line 2: dropouts actually happened and their orphaned masks
    // were reconstructed from escrowed shares.
    assert!(dropped > 0, "no dropouts were injected");
    assert!(recovered > 0, "no masks were recovered");
    println!("recovery under injected dropout verified");
}
