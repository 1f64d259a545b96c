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

#[test]
fn v1_era_sync_checkpoints_restore_end_to_end() {
    // The committed v1 document and its v2 twin were written by an
    // earlier build (before the first round of a 16-user session, see
    // `crates/core/src/session/tests.rs`); the facade must restore the
    // v1 one and finish the run exactly as the v2 one does.
    let config = SyntheticConfig {
        num_users: 16,
        num_items: 40,
        ..SyntheticConfig::tiny()
    };
    let split = SplitDataset::paper_split(&config.generate(5), 5);
    let v1 = include_str!("../crates/core/tests/fixtures/checkpoint_v1.json");
    let v2 = include_str!("../crates/core/tests/fixtures/checkpoint_v2.json");
    assert!(v1.contains("\"version\":1,") && !v1.contains("event_scheduler"));

    let mut from_v1 = Session::restore(v1, split.clone()).expect("v1 document restores");
    let mut from_v2 = Session::restore(v2, split).expect("v2 document restores");
    from_v1.run();
    from_v2.run();
    let (a, b) = (
        from_v1.final_eval().expect("evaluated"),
        from_v2.final_eval().expect("evaluated"),
    );
    assert_eq!(a.overall.ndcg.to_bits(), b.overall.ndcg.to_bits());
    assert!(from_v1.checkpoint() == from_v2.checkpoint());
}
