//! Acceptance tests for the secure-aggregation upload path, through the
//! public facade. The determinism bar matches `async_determinism.rs`:
//! *byte-equal checkpoints*. A masked run under injected upload drops and
//! flap-prone churn must produce the identical final checkpoint across
//! 1/2/8 worker threads in both orchestration modes, every round's
//! unmasked ring aggregate must verify against the plaintext quantized
//! reference (the engine hard-asserts it; the report records it), a run
//! interrupted mid-epoch must resume byte-identically, and every masked
//! round's setup is pinned by digests. CI greps this test's output for the
//! `secagg resume verified`, `tier-prefix aggregate == dense aggregate`
//! and `masked setups pinned` proof lines.

use hetefedrec::prelude::*;

fn tiny_split(seed: u64) -> SplitDataset {
    let data = SyntheticConfig::tiny().generate(seed);
    SplitDataset::paper_split(&data, seed)
}

fn masked_cfg(mode: Mode) -> TrainConfig {
    let mut cfg = TrainConfig::paper_defaults(ModelKind::Ncf, DatasetProfile::MovieLens);
    cfg.dims = TierDims::new(4, 8, 16);
    cfg.epochs = 2;
    // Small cohorts so each epoch runs several rounds (the tiny split has
    // 60 users) and mid-epoch interruption is meaningful.
    cfg.clients_per_round = 16;
    cfg.eval_k = 10;
    cfg.kd.items = 16;
    cfg.seed = 11;
    cfg.threads = 1;
    // Both dropout sources at once: injected upload losses and churn —
    // moderate rates, so groups stay above the escrow threshold and every
    // round's recovery succeeds.
    cfg.drop_prob = 0.1;
    cfg.churn = ChurnProfile::Flappy {
        offline_prob: 0.1,
        period: 30,
    };
    cfg.secagg = SecAggConfig {
        enabled: true,
        scale_bits: 16,
    };
    if mode == Mode::Async {
        cfg.mode = Mode::Async;
        cfg.async_cfg = AsyncConfig {
            staleness_beta: 0.5,
            buffer: 6,
            concurrency: 24,
        };
        cfg.latency = LatencyProfile::LogNormal {
            median: 3.0,
            sigma: 0.8,
        };
    }
    cfg
}

/// Runs to completion, collecting every round's secagg telemetry, and
/// returns the final checkpoint document alongside it.
fn run_collecting(
    mut cfg: TrainConfig,
    strategy: Strategy,
    threads: usize,
    split: &SplitDataset,
) -> (String, Vec<SecAggRoundStats>) {
    cfg.threads = threads;
    let mut session = SessionBuilder::new(cfg, strategy, split.clone())
        .build()
        .expect("valid masked configuration");
    let mut stats = Vec::new();
    while let Some(event) = session.step() {
        if let SessionEvent::Round(r) = event {
            stats.push(r.secagg.expect("masked rounds always report secagg stats"));
        }
    }
    assert!(session.is_finished());
    (session.checkpoint(), stats)
}

/// Pins the config's `threads` field — the one execution-resource knob a
/// checkpoint records — so documents from runs at different worker counts
/// can be compared byte-for-byte. Everything else must already agree.
fn normalize_threads(doc: &str) -> String {
    let start = doc.find("\"threads\":").expect("threads field present");
    let end = start + doc[start..].find(',').expect("field terminator");
    format!("{}\"threads\":0{}", &doc[..start], &doc[end..])
}

/// Every round verified, dropouts actually happened, and every dropout's
/// masks were recovered — the protocol exercised all three phases.
fn assert_protocol_exercised(mode: Mode, stats: &[SecAggRoundStats]) {
    assert!(!stats.is_empty(), "{mode:?}: no masked rounds ran");
    assert!(
        stats.iter().all(|s| s.verified),
        "{mode:?}: a round failed the ring self-check"
    );
    let dropped: usize = stats.iter().map(|s| s.dropped).sum();
    let recovered: usize = stats.iter().map(|s| s.recovered).sum();
    let survivors: usize = stats.iter().map(|s| s.survivors).sum();
    assert!(dropped > 0, "{mode:?}: no dropouts were injected");
    // A group every member of which dropped folds no masks, so there is
    // nothing to recover; every other dropout must have been recovered
    // (verified rounds guarantee it — an unrecoverable group flips the
    // flag).
    assert!(recovered > 0, "{mode:?}: dropout recovery never exercised");
    assert!(
        recovered <= dropped,
        "{mode:?}: recovered more than dropped"
    );
    assert!(survivors > 0, "{mode:?}: nobody survived");
    assert!(
        stats.iter().all(|s| s.masked_bytes > 0 || s.survivors == 0),
        "{mode:?}: survivors uploaded no masked bytes"
    );
    assert!(
        stats.iter().all(|s| s.setup_bytes > 0 || s.groups == 0),
        "{mode:?}: groups formed without setup traffic"
    );
}

#[test]
fn masked_runs_are_byte_identical_across_thread_counts() {
    for mode in [Mode::Sync, Mode::Async] {
        let split = tiny_split(9);
        let cfg = masked_cfg(mode);
        let strategy = Strategy::HeteFedRec(Ablation::FULL);
        let (reference, stats) = run_collecting(cfg.clone(), strategy, 1, &split);
        assert_protocol_exercised(mode, &stats);
        let reference = normalize_threads(&reference);
        for threads in [2, 8] {
            let (got, stats) = run_collecting(cfg.clone(), strategy, threads, &split);
            assert_protocol_exercised(mode, &stats);
            assert_eq!(
                reference,
                normalize_threads(&got),
                "{mode:?}: masked checkpoint diverges at {threads} threads"
            );
        }
    }
}

#[test]
fn clustered_strategy_masks_per_tier() {
    // ClusteredFedRec aggregates within each tier, so the partitioner
    // must form up to three groups per round — and the same byte-equality
    // bar applies.
    let split = tiny_split(9);
    let mut cfg = masked_cfg(Mode::Sync);
    // Per-tier groups are a third the size, so keep dropout gentle enough
    // that every tier stays above its escrow threshold.
    cfg.drop_prob = 0.05;
    cfg.churn = ChurnProfile::None;
    let (reference, stats) = run_collecting(cfg.clone(), Strategy::ClusteredFedRec, 1, &split);
    assert_protocol_exercised(Mode::Sync, &stats);
    assert!(
        stats.iter().any(|s| s.groups > 1),
        "clustered runs never formed more than one group"
    );
    let (got, _) = run_collecting(cfg, Strategy::ClusteredFedRec, 8, &split);
    assert_eq!(normalize_threads(&reference), normalize_threads(&got));
}

#[test]
fn masked_mid_epoch_resume_lands_on_the_same_bytes() {
    let split = tiny_split(9);
    let cfg = masked_cfg(Mode::Sync);
    let strategy = Strategy::HeteFedRec(Ablation::FULL);

    // Uninterrupted reference at 1 thread.
    let (reference, _) = run_collecting(cfg.clone(), strategy, 1, &split);

    // Interrupt mid-epoch (a prime number of steps). Groups are set up
    // when their round runs, so the document carries the key-agreement
    // RNG and no setup; the resumed run draws the same groups from it.
    let mut first = SessionBuilder::new(cfg, strategy, split.clone())
        .build()
        .expect("valid masked configuration");
    for _ in 0..7 {
        first.step();
    }
    assert!(!first.is_finished(), "interrupted run already finished");
    let mid = first.checkpoint();
    assert!(mid.contains("\"version\":3"), "masked document stamps v3");
    assert!(
        mid.contains("\"pending\":null"),
        "mid-epoch document carries no group setup"
    );

    let mut resumed = SessionBuilder::from_checkpoint(&mid, split.clone())
        .expect("mid-epoch document parses")
        .threads(4)
        .build()
        .expect("mid-epoch document restores");
    resumed.run();
    assert_eq!(
        normalize_threads(&reference),
        normalize_threads(&resumed.checkpoint()),
        "resumed masked run diverges from the uninterrupted reference"
    );
    println!("secagg resume verified");
}

#[test]
fn default_off_documents_stay_v2_and_round_trip() {
    // With secure aggregation off (the default), the writer must stamp
    // version 2 and omit every secagg field, so default-configuration
    // checkpoints stay byte-identical to pre-v3 builds — and such a v2
    // document must still restore and finish deterministically.
    let split = tiny_split(9);
    let mut cfg = masked_cfg(Mode::Sync);
    cfg.secagg = SecAggConfig::default();
    let strategy = Strategy::HeteFedRec(Ablation::FULL);

    let mut session = SessionBuilder::new(cfg.clone(), strategy, split.clone())
        .build()
        .expect("valid configuration");
    for _ in 0..3 {
        session.step();
    }
    let mid = session.checkpoint();
    assert!(mid.contains("\"version\":2"), "default-off stamps v2");
    assert!(
        !mid.contains("secagg"),
        "default-off document must not mention secagg: {mid}"
    );

    // The interrupted run and a restore of its document must land on the
    // same final bytes.
    session.run();
    let mut resumed = Session::restore(&mid, split.clone()).expect("v2 document restores");
    resumed.run();
    assert_eq!(session.checkpoint(), resumed.checkpoint());
}

#[test]
fn v2_era_document_with_secagg_flipped_on_restores_with_fresh_state() {
    // Editing a v2 (pre-secagg) document's config to enable the masked
    // path by hand must restore: the session rebuilds fresh protocol
    // state and the remaining rounds run masked and verified.
    let split = tiny_split(9);
    let mut cfg = masked_cfg(Mode::Sync);
    cfg.secagg = SecAggConfig::default();
    let mut session = SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), split.clone())
        .build()
        .expect("valid configuration");
    for _ in 0..3 {
        session.step();
    }
    let v2 = session.checkpoint();

    // The config object ends right before `,"strategy"`; splice the
    // secagg block in as its last field.
    let cfg_end = v2.find(",\"strategy\"").expect("strategy field present");
    let mut flipped = v2.clone();
    flipped.insert_str(
        cfg_end - 1,
        ",\"secagg\":{\"enabled\":true,\"scale_bits\":16}",
    );

    let mut resumed = Session::restore(&flipped, split).expect("edited document restores");
    let mut verified_rounds = 0usize;
    while let Some(event) = resumed.step() {
        if let SessionEvent::Round(r) = event {
            let s = r.secagg.expect("flipped-on rounds run masked");
            assert!(s.verified);
            verified_rounds += 1;
        }
    }
    assert!(verified_rounds > 0, "no masked rounds ran after the flip");
}

/// FNV-1a over the three tier tables and predictors, in tier order.
fn model_digest(session: &Session) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |xs: &[f32]| {
        for x in xs {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
    };
    for tier in Tier::ALL {
        eat(session.server().table(tier).as_slice());
        eat(session.server().theta(tier).as_flat());
    }
    h
}

#[test]
fn tier_prefix_uploads_train_the_same_model_on_fewer_bytes() {
    // Final NDCG@10 bits and model digest of the `masked_cfg` run at
    // commit a159a01, where every survivor uploaded the whole Nl-wide
    // ring vector whatever its tier. Every word a tier prefix leaves out
    // was an exact ring 0 there, so the model must not move by a bit.
    let pinned = [
        (
            Mode::Sync,
            0x3fc1_2d30_712c_78c3_u64,
            0x04e3_9b30_f430_4faa_u64,
        ),
        (Mode::Async, 0x3fcd_8d14_ac6c_136f, 0x93a6_e1b0_ab56_4caa),
    ];
    for (mode, ndcg_bits, digest) in pinned {
        let strategy = Strategy::HeteFedRec(Ablation::FULL);
        let mut session = SessionBuilder::new(masked_cfg(mode), strategy, tiny_split(9))
            .build()
            .expect("valid masked configuration");
        // One MaskedUpload: tag + round + uid + count, 8 bytes a word.
        let layout = session.secagg_layout(None);
        let upload_bytes = |words: usize| 21 + 8 * words as u64;
        let dense = upload_bytes(layout.len());
        while let Some(event) = session.step() {
            let SessionEvent::Round(r) = event else {
                continue;
            };
            let s = r.secagg.expect("masked rounds always report secagg stats");
            assert!(s.verified, "{mode:?}: round {} unverified", r.round);
            assert_eq!(s.survivors_by_tier.iter().sum::<usize>(), s.survivors);
            let by_prefix: u64 = (0..3)
                .map(|t| s.survivors_by_tier[t] as u64 * upload_bytes(layout.prefix_words(t)))
                .sum();
            assert_eq!(s.masked_bytes, by_prefix, "{mode:?}: round {}", r.round);
            if s.survivors > 0 {
                assert!(
                    s.masked_bytes < s.survivors as u64 * dense,
                    "{mode:?}: round {} uploaded the dense form",
                    r.round
                );
            }
        }
        let eval = session.final_eval().expect("final epoch evaluated");
        assert_eq!(
            eval.overall.ndcg.to_bits(),
            ndcg_bits,
            "{mode:?}: NDCG moved"
        );
        assert_eq!(model_digest(&session), digest, "{mode:?}: model moved");
    }
    println!("tier-prefix aggregate == dense aggregate");
}

/// FNV-1a 64 over `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn masked_setups_are_pinned() {
    // Digests of every epoch-boundary checkpoint (the secagg RNG, model
    // and ledger) and of every round's report (per-round protocol stats)
    // of a masked run with dropouts to recover, measured at b0b5f39. If
    // one moves, a round's group setup, masks or recovery changed.
    use hetefedrec::tensor::ser::ToJson;
    let cases = [
        (
            Mode::Sync,
            Strategy::HeteFedRec(Ablation::FULL),
            [0x2fa6_a6fb_ff02_05e3u64, 0x6afc_c7bb_8473_d129],
            0x124b_5c52_9355_1c15u64,
        ),
        (
            Mode::Sync,
            Strategy::ClusteredFedRec,
            [0x8f65_9cf0_ec8c_ab86, 0xda04_718a_617e_6009],
            0x6170_f727_27a0_5a40,
        ),
        (
            Mode::Async,
            Strategy::HeteFedRec(Ablation::FULL),
            [0xc1d4_7dc6_fe52_fdcb, 0x7404_77af_bcce_b8c4],
            0xd3d5_18ff_40c7_faa3,
        ),
        (
            Mode::Async,
            Strategy::ClusteredFedRec,
            [0x1cca_ec8f_ee47_a241, 0x8310_1d06_e711_a9b8],
            0xb277_3234_54cb_0b2f,
        ),
    ];
    for (mode, strategy, want_epochs, want_rounds) in cases {
        let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
        cfg.mode = mode;
        cfg.clients_per_round = 8;
        cfg.drop_prob = 0.2;
        cfg.secagg.enabled = true;
        let mut session = SessionBuilder::new(cfg, strategy, tiny_split(9))
            .build()
            .expect("valid masked configuration");
        let mut epochs = Vec::new();
        let mut rounds = FNV_OFFSET;
        let mut recovered = 0usize;
        while let Some(event) = session.step() {
            match event {
                SessionEvent::Round(r) => {
                    recovered += r.secagg.as_ref().map_or(0, |s| s.recovered);
                    rounds = fnv1a(rounds, r.to_json().as_bytes());
                }
                SessionEvent::Epoch(_) => {
                    epochs.push(fnv1a(FNV_OFFSET, session.checkpoint().as_bytes()));
                }
            }
        }
        assert!(recovered > 0, "{mode:?} {strategy:?}: recovery never ran");
        assert_eq!(
            (epochs.as_slice(), rounds),
            (want_epochs.as_slice(), want_rounds),
            "{mode:?} {strategy:?}: epochs {:x?}, rounds {rounds:#018x}",
            epochs
        );
    }
    println!("masked setups pinned");
}
