//! Acceptance tests for the event-driven asynchronous engine, through the
//! public facade. The determinism bar is *byte-equal checkpoints*: an
//! async run under heavy-tailed latency and flap-prone churn must produce
//! the identical final checkpoint document across 1/2/8 worker threads,
//! and a run interrupted mid-stream and resumed (at a different thread
//! count) must land on that same document. CI greps this test's output
//! for the `async resume verified` proof line.

use hetefedrec::prelude::*;

fn tiny_split(seed: u64) -> SplitDataset {
    let data = SyntheticConfig::tiny().generate(seed);
    SplitDataset::paper_split(&data, seed)
}

fn async_cfg(model: ModelKind) -> TrainConfig {
    let mut cfg = TrainConfig::paper_defaults(model, DatasetProfile::MovieLens);
    cfg.dims = TierDims::new(4, 8, 16);
    cfg.epochs = 3;
    cfg.eval_k = 10;
    cfg.kd.items = 16;
    cfg.seed = 11;
    cfg.threads = 1;
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
    cfg.churn = ChurnProfile::Flappy {
        offline_prob: 0.25,
        period: 30,
    };
    cfg
}

fn finished_checkpoint(mut cfg: TrainConfig, threads: usize, split: &SplitDataset) -> String {
    cfg.threads = threads;
    let mut session = SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), split.clone())
        .build()
        .expect("valid async configuration");
    session.run();
    assert!(session.is_finished());
    session.checkpoint()
}

/// Pins the config's `threads` field — the one execution-resource knob a
/// checkpoint records — so documents from runs at different worker counts
/// can be compared byte-for-byte. Everything else must already agree.
fn normalize_threads(doc: &str) -> String {
    let start = doc.find("\"threads\":").expect("threads field present");
    let end = start + doc[start..].find(',').expect("field terminator");
    format!("{}\"threads\":0{}", &doc[..start], &doc[end..])
}

#[test]
fn async_runs_are_byte_identical_across_thread_counts() {
    for model in [ModelKind::Ncf, ModelKind::LightGcn] {
        let split = tiny_split(9);
        let cfg = async_cfg(model);
        let reference = normalize_threads(&finished_checkpoint(cfg.clone(), 1, &split));
        for threads in [2, 8] {
            let got = normalize_threads(&finished_checkpoint(cfg.clone(), threads, &split));
            assert_eq!(
                reference, got,
                "{model:?}: async checkpoint diverges at {threads} threads"
            );
        }
    }
}

#[test]
fn async_mid_stream_resume_lands_on_the_same_bytes() {
    let split = tiny_split(9);
    let cfg = async_cfg(ModelKind::Ncf);

    // Uninterrupted reference at 1 thread.
    let reference = finished_checkpoint(cfg.clone(), 1, &split);

    // Interrupt mid-stream (mid-epoch: a prime number of steps), resume
    // from the serialized document at a different thread count, and run
    // to completion.
    let mut first = SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), split.clone())
        .build()
        .expect("valid async configuration");
    for _ in 0..7 {
        first.step();
    }
    assert!(!first.is_finished(), "interrupted run already finished");
    let mid = first.checkpoint();

    let mut resumed = SessionBuilder::from_checkpoint(&mid, split.clone())
        .expect("mid-stream document parses")
        .threads(4)
        .build()
        .expect("mid-stream document restores");
    resumed.run();
    assert_eq!(
        normalize_threads(&reference),
        normalize_threads(&resumed.checkpoint()),
        "resumed run diverges from the uninterrupted reference"
    );
    println!("async resume verified");
}

/// FNV-1a 64 over `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn latency_draws_are_pinned() {
    // Digests of every epoch-boundary checkpoint (engine clock, queue and
    // dispatch versions, sync clock) and of every round's report under a
    // per-tier latency profile with flappy churn, measured at 4a24160.
    // One client is admitted after each of the first two epochs, so its
    // model tier reaches the draws too. If one moves, a latency draw
    // changed: its key, its tier, or the order of dispatch.
    use hetefedrec::tensor::ser::ToJson;
    let cases = [
        (
            Mode::Sync,
            Strategy::HeteFedRec(Ablation::FULL),
            [
                0x05a0_27bb_7823_9499u64,
                0x54a7_cf87_e536_338a,
                0x4da0_cf86_9244_eef8,
            ],
            0x979b_e2c9_c6c2_bfafu64,
        ),
        (
            Mode::Sync,
            Strategy::AllLarge,
            [
                0xdc5a_7bf4_d1b4_8864,
                0xf931_b16f_ccb6_3351,
                0xa3eb_04ef_4653_9fe9,
            ],
            0xae11_ce49_71a6_27a5,
        ),
        (
            Mode::Async,
            Strategy::HeteFedRec(Ablation::FULL),
            [
                0xbb47_4b09_7ac9_5631,
                0x8706_5329_ea5a_d180,
                0x93d3_2f87_db41_b26d,
            ],
            0x7284_5cbb_2c7b_2972,
        ),
        (
            Mode::Async,
            Strategy::AllLarge,
            [
                0x55dc_c7be_69a6_84fb,
                0x7b07_2811_b58a_0cd5,
                0x6e2d_b8fc_0cd1_c391,
            ],
            0x8375_e70e_3029_69d8,
        ),
    ];
    for (mode, strategy, want_epochs, want_rounds) in cases {
        let mut cfg = async_cfg(ModelKind::Ncf);
        cfg.mode = mode;
        cfg.clients_per_round = 16;
        cfg.latency = LatencyProfile::PerTier(Box::new([
            LatencyProfile::Fixed(2),
            LatencyProfile::Uniform { min: 3, max: 9 },
            LatencyProfile::LogNormal {
                median: 12.0,
                sigma: 0.6,
            },
        ]));
        cfg.churn = ChurnProfile::Flappy {
            offline_prob: 0.2,
            period: 8,
        };
        let mut session = SessionBuilder::new(cfg, strategy, tiny_split(9))
            .build()
            .expect("valid configuration");
        let mut epochs = Vec::new();
        let mut rounds = FNV_OFFSET;
        while let Some(event) = session.step() {
            match event {
                SessionEvent::Round(r) => rounds = fnv1a(rounds, r.to_json().as_bytes()),
                SessionEvent::Epoch(_) => {
                    epochs.push(fnv1a(FNV_OFFSET, session.checkpoint().as_bytes()));
                    if epochs.len() < 3 {
                        let user = session.split().num_users();
                        assert_eq!(session.ingest(&[(user, 5)]).admitted, 1);
                    }
                }
            }
        }
        assert_eq!(
            (epochs.as_slice(), rounds),
            (want_epochs.as_slice(), want_rounds),
            "{mode:?} {strategy:?}: epochs {:x?}, rounds {rounds:#018x}",
            epochs
        );
    }
    println!("latency draws pinned");
}
