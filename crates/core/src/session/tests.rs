use super::*;
use crate::client::{train_client, ClientCtx};
use crate::strategy::Ablation;
use hf_dataset::{SyntheticConfig, Tier};
use hf_fedsim::LatencyProfile;
use hf_models::ModelKind;

fn tiny_split(seed: u64) -> SplitDataset {
    let data = SyntheticConfig::tiny().generate(seed);
    SplitDataset::paper_split(&data, seed)
}

fn session(strategy: Strategy, model: ModelKind) -> Session {
    let cfg = TrainConfig::test_default(model);
    SessionBuilder::new(cfg, strategy, tiny_split(9))
        .build()
        .expect("valid config")
}

/// An asynchronous configuration small enough that the tiny split's
/// epochs span several aggregation rounds with real staleness spread.
fn async_cfg(model: ModelKind) -> TrainConfig {
    let mut cfg = TrainConfig::test_default(model);
    cfg.mode = Mode::Async;
    cfg.async_cfg.buffer = 4;
    cfg.async_cfg.concurrency = 8;
    cfg.latency = LatencyProfile::Uniform { min: 1, max: 7 };
    cfg
}

#[test]
fn one_epoch_trains_and_returns_finite_loss() {
    let mut s = session(Strategy::HeteFedRec(Ablation::FULL), ModelKind::Ncf);
    let loss = s.run_epoch();
    assert!(loss.is_finite() && loss > 0.0, "loss {loss}");
}

#[test]
fn training_improves_over_random_init() {
    let mut s = session(Strategy::HeteFedRec(Ablation::FULL), ModelKind::Ncf);
    let before = s.evaluate();
    for _ in 0..4 {
        s.run_epoch();
    }
    let after = s.evaluate();
    assert!(
        after.overall.ndcg > before.overall.ndcg,
        "before {:.5}, after {:.5}",
        before.overall.ndcg,
        after.overall.ndcg
    );
}

#[test]
fn run_records_history_for_every_epoch() {
    let mut s = session(Strategy::AllSmall, ModelKind::Ncf);
    s.run();
    assert_eq!(s.history().epochs.len(), s.cfg().epochs);
    assert_eq!(s.stop_reason(), Some(StopReason::Completed));
    assert!(s.history().best_ndcg().is_some());
    assert!(s.final_eval().is_some());
}

#[test]
fn event_stream_has_the_expected_shape() {
    let mut s = session(Strategy::HeteFedRec(Ablation::FULL), ModelKind::Ncf);
    let epochs = s.cfg().epochs;
    let mut rounds = 0usize;
    let mut epoch_reports = Vec::new();
    let mut last_round_global = 0u64;
    for event in s.events() {
        match event {
            SessionEvent::Round(r) => {
                rounds += 1;
                assert!(r.round > last_round_global, "rounds must be monotone");
                last_round_global = r.round;
                assert!(r.round_in_epoch >= 1 && r.round_in_epoch <= r.rounds_in_epoch);
                assert!(r.cohort > 0);
                assert!(r.download_bytes > 0);
                assert!(r.asynchrony.is_none(), "sync rounds carry no async stats");
            }
            SessionEvent::Epoch(e) => epoch_reports.push(e),
        }
    }
    assert_eq!(epoch_reports.len(), epochs);
    assert!(rounds >= epochs, "at least one round per epoch");
    assert!(epoch_reports.iter().all(|e| e.eval.is_some()));
    // The stream is exhausted; further steps yield nothing.
    assert!(s.step().is_none());
}

#[test]
fn sync_rounds_advance_the_logical_clock() {
    let mut s = session(Strategy::AllSmall, ModelKind::Ncf);
    assert_eq!(s.clock(), 0);
    s.run_epoch();
    // The default unit latency profile costs one tick per round.
    assert_eq!(s.clock(), s.rounds_completed());
}

#[test]
fn async_event_stream_covers_every_client_with_stats() {
    let cfg = async_cfg(ModelKind::Ncf);
    let mut s = SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), tiny_split(9))
        .build()
        .unwrap();
    let population = s.split().num_users();
    let mut first_epoch_clients = 0usize;
    let mut last_clock = 0u64;
    let mut rounds = 0usize;
    while let Some(event) = s.step() {
        match event {
            SessionEvent::Round(r) => {
                rounds += 1;
                let a = r.asynchrony.as_ref().expect("async rounds carry stats");
                assert!(a.clock >= last_clock, "clock is monotone");
                last_clock = a.clock;
                assert_eq!(
                    a.staleness_hist.iter().sum::<usize>(),
                    r.cohort,
                    "histogram covers the batch"
                );
                assert_eq!(
                    a.staleness_hist.len() as u64,
                    a.max_staleness + 1,
                    "histogram is exactly as long as needed"
                );
                assert!(r.round_in_epoch <= r.rounds_in_epoch);
                if r.epoch == 1 {
                    first_epoch_clients += r.cohort;
                }
            }
            SessionEvent::Epoch(_) => {}
        }
    }
    assert!(rounds > 0);
    // Without churn, the drained epoch barrier aggregates every client
    // exactly once per epoch — same total work as the synchronous mode.
    assert_eq!(first_epoch_clients, population);
    assert_eq!(s.clock(), last_clock);
}

#[test]
fn async_training_is_deterministic_across_thread_counts() {
    let cfg = async_cfg(ModelKind::Ncf);
    let mut a = SessionBuilder::new(
        cfg.clone(),
        Strategy::HeteFedRec(Ablation::FULL),
        tiny_split(9),
    )
    .threads(1)
    .build()
    .unwrap();
    let mut b = SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), tiny_split(9))
        .threads(8)
        .build()
        .unwrap();
    a.run_epoch();
    b.run_epoch();
    assert_eq!(a.clock(), b.clock());
    let ea = a.evaluate();
    let eb = b.evaluate();
    assert_eq!(ea.overall.ndcg.to_bits(), eb.overall.ndcg.to_bits());
    assert_eq!(ea.overall.recall.to_bits(), eb.overall.recall.to_bits());
}

#[test]
fn eval_cadence_skips_intermediate_epochs() {
    let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
    cfg.epochs = 5;
    let mut s = SessionBuilder::new(cfg, Strategy::AllSmall, tiny_split(9))
        .eval_every(2)
        .build()
        .unwrap();
    let mut evaluated = Vec::new();
    for event in s.events() {
        if let SessionEvent::Epoch(e) = event {
            if e.eval.is_some() {
                evaluated.push(e.epoch);
            }
        }
    }
    // Epochs 2 and 4 by cadence, 5 because it is final.
    assert_eq!(evaluated, vec![2, 4, 5]);
    assert_eq!(s.history().epochs.len(), 3);
}

#[test]
fn eval_cadence_zero_never_evaluates() {
    let mut s = SessionBuilder::new(
        TrainConfig::test_default(ModelKind::Ncf),
        Strategy::AllSmall,
        tiny_split(9),
    )
    .eval_every(0)
    .build()
    .unwrap();
    s.run();
    assert!(s.history().epochs.is_empty());
    assert_eq!(s.stop_reason(), Some(StopReason::Completed));
}

#[test]
fn observer_hooks_fire_for_rounds_and_epochs() {
    // The stepper is the observer: every round and every epoch boundary
    // is one `step()` event.
    let mut s = session(Strategy::AllSmall, ModelKind::Ncf);
    let (mut rounds, mut epochs) = (0u64, 0usize);
    while let Some(event) = s.step() {
        match event {
            SessionEvent::Round(_) => rounds += 1,
            SessionEvent::Epoch(_) => epochs += 1,
        }
    }
    assert_eq!(epochs, s.cfg().epochs);
    assert_eq!(rounds, s.rounds_completed());
}

#[test]
fn nan_evals_do_not_poison_the_plateau_detector() {
    let mut s = SessionBuilder::new(
        TrainConfig::test_default(ModelKind::Ncf),
        Strategy::AllSmall,
        tiny_split(9),
    )
    .early_stopping(2, 0.0)
    .build()
    .unwrap();
    // A diverged eval is a non-improvement but never becomes "best".
    s.note_eval(f64::NAN);
    assert_eq!(s.best_ndcg, None);
    assert_eq!(s.evals_since_improvement, 1);
    // Recovery registers as an improvement and resets the counter.
    s.note_eval(0.5);
    assert_eq!(s.best_ndcg, Some(0.5));
    assert_eq!(s.evals_since_improvement, 0);
    // And best_ndcg being NaN-free means the checkpointed early-stop
    // state round-trips without the null/NaN ambiguity.
    s.note_eval(f64::NAN);
    assert_eq!(s.best_ndcg, Some(0.5));
}

#[test]
fn early_stopping_fires_on_a_plateau() {
    // An impossible min_delta means no eval ever "improves" after the
    // first, so the plateau detector must fire after `patience`
    // further evals.
    let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
    cfg.epochs = 50;
    let mut s = SessionBuilder::new(cfg, Strategy::AllSmall, tiny_split(9))
        .early_stopping(2, f64::MAX)
        .build()
        .unwrap();
    s.run();
    assert_eq!(s.stop_reason(), Some(StopReason::EarlyStopped { epoch: 3 }));
    assert_eq!(s.history().epochs.len(), 3);
}

#[test]
fn request_stop_halts_at_the_epoch_boundary() {
    let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
    cfg.epochs = 50;
    let mut s = SessionBuilder::new(cfg, Strategy::AllSmall, tiny_split(9))
        .build()
        .unwrap();
    while let Some(event) = s.step() {
        if let SessionEvent::Epoch(e) = event {
            if e.epoch == 2 {
                s.request_stop();
            }
        }
    }
    assert_eq!(s.stop_reason(), Some(StopReason::Requested { epoch: 3 }));
}

#[test]
fn builder_rejects_invalid_configs_without_panicking() {
    let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
    cfg.local_lr = f32::NAN;
    let err = SessionBuilder::new(cfg, Strategy::AllSmall, tiny_split(9))
        .build()
        .expect_err("NaN learning rate must be rejected");
    assert!(
        matches!(err, SessionError::Config(ref c) if c.field == "local_lr"),
        "{err}"
    );

    let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
    cfg.drop_prob = 1.5;
    assert!(SessionBuilder::new(cfg, Strategy::AllSmall, tiny_split(9))
        .build()
        .is_err());

    let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
    cfg.async_cfg.buffer = 0;
    let err = SessionBuilder::new(cfg, Strategy::AllSmall, tiny_split(9))
        .build()
        .expect_err("zero aggregation buffer");
    assert!(
        matches!(err, SessionError::Config(ref c) if c.field == "async.buffer"),
        "{err}"
    );

    let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
    cfg.latency = LatencyProfile::Uniform { min: 3, max: 1 };
    assert!(SessionBuilder::new(cfg, Strategy::AllSmall, tiny_split(9))
        .build()
        .is_err());

    let cfg = TrainConfig::test_default(ModelKind::Ncf);
    let err = SessionBuilder::new(cfg, Strategy::AllSmall, tiny_split(9))
        .early_stopping(0, 0.0)
        .build()
        .expect_err("zero patience");
    assert!(matches!(err, SessionError::ZeroPatience));
}

#[test]
fn a_latency_past_two_to_the_forty_ticks_is_refused_before_the_clock_overflows() {
    let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
    cfg.latency = LatencyProfile::Fixed(u64::MAX);
    match SessionBuilder::new(cfg, Strategy::AllSmall, tiny_split(9)).build() {
        Err(err) => assert!(
            matches!(err, SessionError::Config(ref c) if c.field == "latency"),
            "{err}"
        ),
        Ok(mut s) => {
            // Each synchronous round adds its slowest draw to the clock.
            s.step();
            s.step();
            panic!("a u64::MAX latency built a session (clock {})", s.clock());
        }
    }
    // A restored document is refused the same way.
    let json = session(Strategy::AllSmall, ModelKind::Ncf).checkpoint();
    let doc = json.replace(
        "\"latency\":{\"kind\":\"fixed\",\"ticks\":1}",
        "\"latency\":{\"kind\":\"fixed\",\"ticks\":18446744073709551615}",
    );
    assert_ne!(doc, json, "the checkpoint carries the latency profile");
    let err = Session::restore(&doc, tiny_split(9)).expect_err("refused");
    assert!(err.to_string().contains("latency"), "{err}");
}

#[test]
fn eq10_holds_through_training_without_reskd() {
    let mut s = session(Strategy::HeteFedRec(Ablation::NO_RESKD), ModelKind::Ncf);
    s.run_epoch();
    s.run_epoch();
    assert!(
        s.server().eq10_violation() < 1e-4,
        "violation {}",
        s.server().eq10_violation()
    );
}

#[test]
fn standalone_never_changes_server_tables() {
    let mut s = session(Strategy::Standalone, ModelKind::Ncf);
    let before = s.server().table(Tier::Small).clone();
    s.run_epoch();
    assert_eq!(*s.server().table(Tier::Small), before);
    // But private state advanced.
    assert!(s
        .users()
        .iter()
        .any(|u| u.standalone().is_some_and(|s| !s.rows.is_empty())));
}

#[test]
fn ledger_accumulates_traffic() {
    let mut s = session(Strategy::HeteFedRec(Ablation::FULL), ModelKind::Ncf);
    s.run_epoch();
    let ledger = s.ledger();
    assert!(ledger.downloads as usize >= s.split().num_users());
    assert!(ledger.uploads > 0);
    assert!(ledger.upload_bytes > 0);
}

#[test]
fn round_reports_account_for_the_whole_ledger() {
    let mut s = session(Strategy::HeteFedRec(Ablation::FULL), ModelKind::Ncf);
    let mut up = 0u64;
    let mut down = 0u64;
    let mut accepted = 0u64;
    for event in s.events() {
        if let SessionEvent::Round(r) = event {
            up += r.upload_bytes;
            down += r.download_bytes;
            accepted += r.accepted as u64;
        }
    }
    assert_eq!(up, s.ledger().upload_bytes);
    assert_eq!(down, s.ledger().download_bytes);
    assert_eq!(accepted, s.ledger().uploads);
}

#[test]
fn async_round_reports_account_for_the_whole_ledger() {
    let cfg = async_cfg(ModelKind::Ncf);
    let mut s = SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), tiny_split(9))
        .build()
        .unwrap();
    let mut up = 0u64;
    let mut down = 0u64;
    for event in s.events() {
        if let SessionEvent::Round(r) = event {
            up += r.upload_bytes;
            down += r.download_bytes;
        }
    }
    assert_eq!(up, s.ledger().upload_bytes);
    assert_eq!(down, s.ledger().download_bytes);
}

#[test]
fn exclusive_strategy_filters_small_data_clients() {
    let mut s = session(Strategy::AllLargeExclusive, ModelKind::Ncf);
    s.run_epoch();
    // Uploads recorded only for Um ∪ Ul clients.
    let expected = s.data_groups().sizes()[1] + s.data_groups().sizes()[2];
    assert_eq!(s.ledger().uploads as usize, expected);
}

#[test]
fn fault_injection_drops_roughly_the_configured_fraction() {
    let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
    cfg.drop_prob = 0.5;
    let mut s = SessionBuilder::new(cfg, Strategy::AllSmall, tiny_split(9))
        .build()
        .unwrap();
    s.run_epoch();
    let uploads = s.ledger().uploads as f64;
    let population = s.split().num_users() as f64;
    let rate = uploads / population;
    assert!((0.2..0.8).contains(&rate), "upload rate {rate}");
}

#[test]
fn churn_keeps_clients_out_of_sync_cohorts() {
    let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
    cfg.churn = ChurnProfile::Independent { offline_prob: 0.4 };
    let mut s = SessionBuilder::new(cfg, Strategy::AllSmall, tiny_split(9))
        .build()
        .unwrap();
    let population = s.split().num_users();
    let mut trained = 0usize;
    while let Some(event) = s.step() {
        if let SessionEvent::Round(r) = event {
            trained += r.cohort;
        }
        if s.epochs_completed() >= 1 {
            break;
        }
    }
    assert!(
        trained < population,
        "offline clients must sit rounds out ({trained}/{population})"
    );
    assert!(trained > 0, "some clients stay online");
    // Offline clients never downloaded, so the ledger agrees.
    assert_eq!(s.ledger().downloads as usize, trained);
}

#[test]
fn training_is_deterministic_across_thread_counts() {
    let cfg = TrainConfig::test_default(ModelKind::Ncf);
    let mut a = SessionBuilder::new(
        cfg.clone(),
        Strategy::HeteFedRec(Ablation::FULL),
        tiny_split(9),
    )
    .threads(1)
    .build()
    .unwrap();
    let mut b = SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), tiny_split(9))
        .threads(4)
        .build()
        .unwrap();
    a.run_epoch();
    b.run_epoch();
    let ea = a.evaluate();
    let eb = b.evaluate();
    assert_eq!(ea.overall.ndcg, eb.overall.ndcg);
    assert_eq!(ea.overall.recall, eb.overall.recall);
}

#[test]
fn lightgcn_trains_end_to_end() {
    let mut s = session(Strategy::HeteFedRec(Ablation::FULL), ModelKind::LightGcn);
    let loss = s.run_epoch();
    assert!(loss.is_finite() && loss > 0.0);
    let eval = s.evaluate();
    assert!(eval.overall.users > 0);
}

#[test]
fn best_ndcg_survives_nan_entries() {
    let mut s = session(Strategy::AllSmall, ModelKind::Ncf);
    s.run();
    let mut history = s.history().clone();
    let mut poisoned = history.epochs[0].clone();
    poisoned.eval.overall.ndcg = f64::NAN;
    history.epochs.push(poisoned);
    // Must not panic, and must not pick the NaN entry.
    let (_, best) = history.best_ndcg().expect("non-empty");
    assert!(best.is_finite());
}

// --- checkpoint / resume ---------------------------------------------

/// Drives `steps` stepper events under `cfg`, checkpoints, restores on a
/// freshly generated split, and asserts the resumed session finishes
/// with an EvalOutput bit-identical to the uninterrupted reference.
fn checkpoint_roundtrip_cfg(
    cfg: TrainConfig,
    strategy: Strategy,
    steps: usize,
    restore_threads: usize,
) {
    let mut reference = SessionBuilder::new(cfg.clone(), strategy, tiny_split(9))
        .build()
        .unwrap();
    reference.run();

    let mut interrupted = SessionBuilder::new(cfg, strategy, tiny_split(9))
        .build()
        .unwrap();
    for _ in 0..steps {
        interrupted.step();
    }
    let json = interrupted.checkpoint();
    drop(interrupted);

    let mut resumed = SessionBuilder::from_checkpoint(&json, tiny_split(9))
        .unwrap()
        .threads(restore_threads)
        .build()
        .unwrap();
    resumed.run();

    let a = reference.history().final_eval().expect("reference eval");
    let b = resumed.history().final_eval().expect("resumed eval");
    assert_eq!(a.overall.ndcg.to_bits(), b.overall.ndcg.to_bits());
    assert_eq!(a.overall.recall.to_bits(), b.overall.recall.to_bits());
    assert_eq!(a.overall.mrr.to_bits(), b.overall.mrr.to_bits());
    for (ga, gb) in a.per_group.iter().zip(&b.per_group) {
        assert_eq!(ga.ndcg.to_bits(), gb.ndcg.to_bits());
        assert_eq!(ga.users, gb.users);
    }
    assert_eq!(
        reference.history().epochs.len(),
        resumed.history().epochs.len()
    );
    for (ea, eb) in reference
        .history()
        .epochs
        .iter()
        .zip(&resumed.history().epochs)
    {
        assert_eq!(ea.train_loss.to_bits(), eb.train_loss.to_bits());
    }
    assert_eq!(
        reference.ledger().upload_bytes,
        resumed.ledger().upload_bytes
    );
    assert_eq!(reference.rounds_completed(), resumed.rounds_completed());
    assert_eq!(reference.clock(), resumed.clock());
    // Server parameters themselves must agree bit-for-bit.
    for tier in Tier::ALL {
        assert_eq!(
            reference.server().table(tier).as_slice(),
            resumed.server().table(tier).as_slice()
        );
    }
}

fn checkpoint_roundtrip(strategy: Strategy, steps: usize, restore_threads: usize) {
    checkpoint_roundtrip_cfg(
        TrainConfig::test_default(ModelKind::Ncf),
        strategy,
        steps,
        restore_threads,
    );
}

#[test]
fn mid_epoch_checkpoint_resumes_bit_identically() {
    // 2 steps: one full round plus part of the first epoch — lands
    // mid-epoch, exercising the pending-cohort queue.
    checkpoint_roundtrip(Strategy::HeteFedRec(Ablation::FULL), 2, 1);
}

#[test]
fn epoch_boundary_checkpoint_resumes_bit_identically() {
    // Enough steps to cross the first epoch boundary (the tiny split
    // schedules a handful of rounds per epoch, then the epoch event).
    checkpoint_roundtrip(Strategy::HeteFedRec(Ablation::NO_RESKD), 6, 1);
}

#[test]
fn checkpoint_resume_is_thread_invariant() {
    checkpoint_roundtrip(Strategy::HeteFedRec(Ablation::FULL), 3, 4);
}

#[test]
fn standalone_state_checkpoints() {
    checkpoint_roundtrip(Strategy::Standalone, 2, 1);
}

#[test]
fn async_mid_stream_checkpoint_resumes_bit_identically() {
    // 2 steps land mid-epoch with arrivals still in flight, exercising
    // the serialized event queue and dispatch versions.
    checkpoint_roundtrip_cfg(
        async_cfg(ModelKind::Ncf),
        Strategy::HeteFedRec(Ablation::FULL),
        2,
        1,
    );
}

#[test]
fn async_checkpoint_resume_is_thread_invariant() {
    checkpoint_roundtrip_cfg(
        async_cfg(ModelKind::Ncf),
        Strategy::HeteFedRec(Ablation::FULL),
        3,
        8,
    );
}

#[test]
fn async_with_heavy_tail_and_churn_checkpoints() {
    let mut cfg = async_cfg(ModelKind::Ncf);
    cfg.latency = LatencyProfile::LogNormal {
        median: 3.0,
        sigma: 0.8,
    };
    cfg.churn = ChurnProfile::Flappy {
        offline_prob: 0.3,
        period: 5,
    };
    checkpoint_roundtrip_cfg(cfg, Strategy::HeteFedRec(Ablation::NO_RESKD), 4, 2);
}

#[test]
fn sync_with_churn_checkpoints() {
    let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
    cfg.churn = ChurnProfile::Independent { offline_prob: 0.3 };
    checkpoint_roundtrip_cfg(cfg, Strategy::AllSmall, 2, 1);
}

#[test]
fn finished_sessions_checkpoint_and_stay_finished() {
    let mut s = session(Strategy::AllSmall, ModelKind::Ncf);
    s.run();
    let mut resumed = Session::restore(&s.checkpoint(), tiny_split(9)).unwrap();
    assert_eq!(resumed.stop_reason(), Some(StopReason::Completed));
    assert!(resumed.step().is_none());
    assert_eq!(resumed.history().epochs.len(), s.history().epochs.len());
}

// --- committed checkpoint fixtures -------------------------------------
//
// One document per version the writer can stamp — v2 (default sync), v3
// (secure aggregation on), v4 (after an ingest that admits a user) — all
// written by the build that preceded these tests, before the first round
// so only init-class floats are committed. "Default checkpoints stay
// byte-identical to earlier builds" is pinned against these files, not
// against documents this build just wrote.

/// Indexed by `version - 2`.
const FIXTURES: [&str; 3] = [
    include_str!("../../tests/fixtures/checkpoint_v2.json"),
    include_str!("../../tests/fixtures/checkpoint_v3.json"),
    include_str!("../../tests/fixtures/checkpoint_v4.json"),
];
/// The stream the v4 fixture ingested: user 16 is one past the split.
const FIXTURE_EVENTS: [(usize, u32); 1] = [(16, 3)];

fn fixture_split() -> SplitDataset {
    let config = SyntheticConfig {
        num_users: 16,
        num_items: 40,
        ..SyntheticConfig::tiny()
    };
    SplitDataset::paper_split(&config.generate(5), 5)
}

/// The session the fixture of `version` was checkpointed from.
fn fixture_session(version: usize) -> Session {
    let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
    cfg.dims = crate::config::TierDims::rq5_tiny();
    // The fixtures carry the default async block, not `test_default`'s.
    cfg.async_cfg = crate::config::AsyncConfig::default();
    cfg.secagg.enabled = version == 3;
    let strategy = Strategy::HeteFedRec(Ablation::FULL);
    let mut s = SessionBuilder::new(cfg, strategy, fixture_split())
        .build()
        .expect("valid config");
    if version == 4 {
        assert_eq!(s.ingest(&FIXTURE_EVENTS).admitted, 1);
    }
    s
}

#[test]
fn checkpoint_fixtures_are_reproduced_and_restore_is_the_identity() {
    for version in 2..=4 {
        let fixture = FIXTURES[version - 2].trim_end();
        assert!(fixture.contains(&format!("\"version\":{version},")));
        assert!(
            fixture_session(version).checkpoint() == fixture,
            "v{version}: checkpoint bytes drifted from the committed fixture"
        );
        let mut split = fixture_split();
        if version == 4 {
            replay(&mut split, &FIXTURE_EVENTS);
        }
        let restored = Session::restore(fixture, split).expect("fixture restores");
        assert!(
            restored.checkpoint() == fixture,
            "v{version}: restore -> checkpoint is not the identity"
        );
    }
}

#[test]
fn a_v1_checkpoint_is_refused() {
    let v1 = FIXTURES[0].replacen("\"version\":2,", "\"version\":1,", 1);
    match Session::restore(&v1, fixture_split()) {
        Err(SessionError::Checkpoint(msg)) => {
            assert!(msg.contains("unsupported version 1 "), "{msg}")
        }
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("a v1 document restored"),
    }
}

#[test]
fn an_untrained_checkpoint_restores_embeddings_alone() {
    // Every fixture is written before the first round: each client comes
    // back as its embedding, no moments held, and writes the zero moments
    // it does not hold, byte for byte.
    let fixture = FIXTURES[0].trim_end();
    let restored = Session::restore(fixture, fixture_split()).expect("fixture restores");
    for (u, state) in restored.users().iter().enumerate() {
        assert_eq!(state.heap_bytes(), 4 * state.dim(), "user {u}");
    }
    assert!(restored.checkpoint() == fixture, "re-encoding drifted");
}

#[test]
fn a_moment_without_a_step_is_refused() {
    // No writer leaves a non-zero moment on a client that has taken no
    // step, so a document that holds one is refused, not trained on.
    let doc = FIXTURES[0].replacen("\"t\":0,\"m\":[0,", "\"t\":0,\"m\":[0.5,", 1);
    assert_ne!(doc, FIXTURES[0]);
    match Session::restore(&doc, fixture_split()) {
        Err(SessionError::Checkpoint(msg)) => {
            assert!(
                msg.contains("user 0: ") && msg.contains("non-zero moment"),
                "{msg}"
            )
        }
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("a moment without a step restored"),
    }
}

#[test]
fn failed_checkpoint_writes_keep_the_previous_checkpoint() {
    let dir = std::env::temp_dir().join(format!("hf_ckpt_atomic_{}", std::process::id()));
    let path = dir.join("session.json");
    let s = fixture_session(2);
    s.write_checkpoint(&path).expect("written");
    s.write_checkpoint(&path).expect("replaced whole");
    // Uncreatable: the parent is a regular file — the checkpoint itself.
    assert!(s.write_checkpoint(path.join("session.json")).is_err());
    // Unrenamable: the target is a directory; the temp file is removed.
    std::fs::create_dir(dir.join("taken.json")).unwrap();
    assert!(s.write_checkpoint(dir.join("taken.json")).is_err());
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    names.sort();
    assert_eq!(names, ["session.json", "taken.json"], "no temp file");
    let kept = std::fs::read_to_string(&path).unwrap();
    assert!(kept == FIXTURES[0], "the previous checkpoint stays whole");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restore_rejects_mismatched_datasets_and_garbage() {
    let mut s = session(Strategy::AllSmall, ModelKind::Ncf);
    s.step();
    let json = s.checkpoint();
    let tiny = hf_dataset::ImplicitDataset::new(10, vec![vec![0, 1, 2], vec![1, 2, 3]]);
    let other = SplitDataset::paper_split(&tiny, 1);
    let err = Session::restore(&json, other).expect_err("different dataset");
    assert!(matches!(err, SessionError::DatasetMismatch { .. }), "{err}");

    assert!(Session::restore("not json", tiny_split(9)).is_err());
    assert!(Session::restore("{}", tiny_split(9)).is_err());
    let wrong_version = json.replacen("\"version\":2", "\"version\":999", 1);
    assert!(Session::restore(&wrong_version, tiny_split(9)).is_err());
}

#[test]
fn restore_refuses_a_secagg_setup_in_flight() {
    // Groups are set up when their round runs, so a masked document
    // carries the key-agreement RNG and `"pending":null`. A setup in
    // flight (what earlier builds wrote mid-epoch) is refused, not
    // resumed on masks this build would not draw.
    let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
    cfg.clients_per_round = 8;
    cfg.secagg.enabled = true;
    let strategy = Strategy::HeteFedRec(Ablation::FULL);
    let mut s = SessionBuilder::new(cfg, strategy, tiny_split(9))
        .build()
        .expect("valid config");
    for _ in 0..3 {
        s.step();
    }
    let mid = s.checkpoint();
    assert!(mid.contains("\"version\":3"));
    assert!(Session::restore(&mid, tiny_split(9)).is_ok());

    let null = "\"pending\":null";
    assert_eq!(
        mid.matches(null).count(),
        1,
        "only secagg's pending is null"
    );
    let in_flight = mid.replace(
        null,
        "\"pending\":{\"round\":4,\"cohort\":[0],\"groups\":[]}",
    );
    let msg = refusal(&in_flight);
    assert!(msg.contains("pending"), "{msg}");
}

// --- restore refuses what would panic later ---------------------------

/// A checkpoint of `strategy` after one step under `mode`.
fn one_step_checkpoint(strategy: Strategy, mode: Mode) -> String {
    let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
    cfg.mode = mode;
    let mut s = SessionBuilder::new(cfg, strategy, tiny_split(9))
        .build()
        .expect("valid config");
    s.step();
    s.checkpoint()
}

/// Byte range of the first number after `key`, searching from `anchor`
/// on; `key` ends just before the number or its array's `[`.
fn first_number(doc: &str, anchor: &str, key: &str) -> std::ops::Range<usize> {
    let from = doc.find(anchor).expect("anchor present");
    let start = from + doc[from..].find(key).expect("key present") + key.len();
    let start = start + usize::from(doc[start..].starts_with('['));
    let end = start + doc[start..].find([',', ']', '}']).expect("number ends");
    start..end
}

/// `doc` with `range` replaced by `with`.
fn spliced(doc: &str, range: std::ops::Range<usize>, with: &str) -> String {
    format!("{}{with}{}", &doc[..range.start], &doc[range.end..])
}

/// `doc` with the first element of the array after `key` removed.
fn first_element_dropped(doc: &str, anchor: &str, key: &str) -> String {
    let r = first_number(doc, anchor, key);
    assert_eq!(&doc[r.end..=r.end], ",", "array has a second element");
    spliced(doc, r.start..r.end + 1, "")
}

/// The message `doc` is refused with; restoring it is a failure.
fn refusal(doc: &str) -> String {
    match Session::restore(doc, tiny_split(9)) {
        Err(SessionError::Checkpoint(msg)) => msg,
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("a corrupt document restored"),
    }
}

#[test]
fn restore_refuses_a_scheduler_queue_id_past_the_population() {
    let json = one_step_checkpoint(Strategy::AllSmall, Mode::Sync);
    let r = first_number(&json, "\"scheduler\"", "\"queue\":");
    let msg = refusal(&spliced(&json, r, "999999"));
    assert!(msg.contains("queue"), "{msg}");
}

#[test]
fn restore_refuses_a_scheduler_queue_that_repeats_a_client() {
    let json = one_step_checkpoint(Strategy::AllSmall, Mode::Sync);
    let start = json.find("\"queue\":[").expect("queue") + "\"queue\":[".len();
    let end = start + json[start..].find(']').expect("queue ends");
    let n = json[start..end].split(',').count();
    let first = &json[first_number(&json, "\"scheduler\"", "\"queue\":")];
    let repeated = vec![first; n].join(",");
    let msg = refusal(&spliced(&json, start..end, &repeated));
    assert!(msg.contains("queue"), "{msg}");
}

#[test]
fn restore_refuses_a_pending_dispatch_id_past_the_population() {
    let json = one_step_checkpoint(Strategy::AllSmall, Mode::Async);
    let r = first_number(&json, "\"event_scheduler\"", "\"pending_dispatch\":");
    let msg = refusal(&spliced(&json, r, "999999"));
    assert!(msg.contains("pending_dispatch"), "{msg}");
}

#[test]
fn restore_refuses_an_in_flight_arrival_past_the_population() {
    let json = one_step_checkpoint(Strategy::AllSmall, Mode::Async);
    let r = first_number(&json, "\"event_scheduler\"", "\"client\":");
    let msg = refusal(&spliced(&json, r, "999999"));
    assert!(msg.contains("events"), "{msg}");
}

#[test]
fn restore_refuses_adam_moments_shorter_than_the_embedding() {
    let json = one_step_checkpoint(Strategy::AllSmall, Mode::Sync);
    let short_m = first_element_dropped(&json, "\"users\"", "\"m\":");
    let short = first_element_dropped(&short_m, "\"users\"", "\"v\":");
    let msg = refusal(&short);
    assert!(msg.contains("adam"), "{msg}");
}

#[test]
fn restore_refuses_a_standalone_row_of_the_wrong_width() {
    let json = one_step_checkpoint(Strategy::Standalone, Mode::Sync);
    let msg = refusal(&first_element_dropped(
        &json,
        "\"standalone\":{\"rows\":[{",
        "\"row\":",
    ));
    assert!(msg.contains("row"), "{msg}");
}

#[test]
fn restore_refuses_a_standalone_row_past_the_catalogue() {
    let json = one_step_checkpoint(Strategy::Standalone, Mode::Sync);
    let r = first_number(&json, "\"standalone\":{\"rows\":[{", "\"item\":");
    let msg = refusal(&spliced(&json, r, "99999"));
    assert!(msg.contains("item"), "{msg}");
}

#[test]
fn restore_refuses_standalone_rows_out_of_item_order() {
    // A repeated item once restored, the later row silently replacing
    // the earlier one.
    let json = one_step_checkpoint(Strategy::Standalone, Mode::Sync);
    let anchor = "\"standalone\":{\"rows\":[{";
    let first = first_number(&json, anchor, "\"item\":");
    let second = first_number(&json, anchor, "},{\"item\":");
    assert!(first.end < second.start, "the user holds two rows");
    let msg = refusal(&spliced(&json, second, &json[first]));
    assert!(msg.contains("item"), "{msg}");
}

#[test]
fn restore_refuses_a_standalone_predictor_of_the_wrong_shape() {
    // `[2N, 8, 8, 1]` and `[16N + 88, 1]` hold as many parameters, so the
    // document parses; the first round would then train the wrong shape.
    let json = one_step_checkpoint(Strategy::Standalone, Mode::Sync);
    let anchor = "\"standalone\":{\"rows\"";
    let key = "\"theta\":{\"dims\":[";
    let from = json.find(anchor).expect("a standalone user");
    let start = from + json[from..].find(key).expect("its predictor") + key.len();
    let end = start + json[start..].find(']').expect("dims end");
    let two_n: usize = json[start..end].split(',').next().unwrap().parse().unwrap();
    let dims = format!("{},1", 8 * two_n + 88);
    let msg = refusal(&spliced(&json, start..end, &dims));
    assert!(msg.contains("standalone predictor"), "{msg}");
}

#[test]
fn restore_refuses_a_scheduler_round_size_the_config_does_not_make() {
    // A masked document whose scheduler names rounds of 300 under a
    // config of 32 on a population of more than 300: restoring it once
    // went through, and the first round then set up a masked group of
    // 300, past the 256 members one may hold.
    let data = hf_dataset::DatasetProfile::MovieLens
        .config_scaled(0.08)
        .generate(7);
    let split = SplitDataset::paper_split(&data, 7);
    assert!(split.num_users() > 300, "{} users", split.num_users());
    let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
    cfg.secagg.enabled = true;
    let s = SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), split.clone())
        .build()
        .expect("valid masked config");
    let doc = s.checkpoint();
    assert!(Session::restore(&doc, split.clone()).is_ok());
    let r = first_number(&doc, "\"scheduler\"", "\"clients_per_round\":");
    assert_eq!(&doc[r.clone()], "32");
    match Session::restore(&spliced(&doc, r, "300"), split) {
        Err(SessionError::Checkpoint(msg)) => assert!(msg.contains("clients_per_round"), "{msg}"),
        Err(other) => panic!("wrong error: {other}"),
        Ok(mut restored) => {
            restored.step();
            panic!("a document with rounds of 300 restored and ran");
        }
    }
}

#[test]
fn restore_refuses_fault_settings_the_config_does_not_make() {
    // The injector is built from the config; a document whose copy
    // drops half the uploads under `drop_prob` 0 once restored and did.
    let json = one_step_checkpoint(Strategy::HeteFedRec(Ablation::FULL), Mode::Sync);
    assert!(Session::restore(&json, tiny_split(9)).is_ok());
    let r = first_number(&json, "\"faults\"", "\"drop_prob\":");
    let msg = refusal(&spliced(&json, r, "0.5"));
    assert!(msg.contains("faults"), "{msg}");
}

#[test]
fn restore_refuses_ingest_tiers_that_do_not_cover_the_population() {
    let v4 = FIXTURES[2].trim_end();
    let mut split = fixture_split();
    replay(&mut split, &FIXTURE_EVENTS);
    // Without the admitted client's tier, indexing it once panicked.
    let start = v4.find("\"model_tiers\":[").expect("v4 tiers") + "\"model_tiers\":[".len();
    let end = start + v4[start..].find(']').expect("tiers end");
    let last = start + v4[start..end].rfind(',').expect("two tiers");
    let short = spliced(v4, last..end, "");
    match Session::restore(&short, split) {
        Err(SessionError::Checkpoint(msg)) => assert!(msg.contains("model_tiers"), "{msg}"),
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("a corrupt document restored"),
    }
}

// --- streaming ingest -------------------------------------------------

/// Applies the same stream events a live session ingested to a freshly
/// rebuilt split — the resume protocol for v4 checkpoints.
fn replay(split: &mut SplitDataset, events: &[(usize, u32)]) {
    for &(u, i) in events {
        split.ingest(u, i);
    }
}

#[test]
fn ingest_appends_admits_and_freezes_tiers() {
    let mut s = session(Strategy::HeteFedRec(Ablation::FULL), ModelKind::Ncf);
    let n = s.split().num_users();
    let tiers_before = s.model_groups().tier_indices();

    let events = [(0usize, 3u32), (n, 7), (n, 2), (0, 3), (0, 3)];
    let report = s.ingest(&events);
    assert_eq!(report.admitted, 1, "exactly one brand-new user");
    assert_eq!(
        report.appended + report.admitted + report.duplicates,
        events.len()
    );
    assert_eq!(s.ingested_events(), events.len() as u64);
    assert_eq!(s.baseline_users(), n);
    assert_eq!(s.split().num_users(), n + 1);
    assert_eq!(s.users().len(), n + 1);

    // Existing users keep their division-time tiers even though their
    // train counts changed; the newcomer lands in the smallest bucket.
    assert_eq!(&s.model_groups().tier_indices()[..n], &tiers_before[..]);
    assert_eq!(s.model_groups().tier(n), Tier::Small);
    assert_eq!(
        s.user_state(n).dim(),
        s.cfg().dims.dim(Tier::Small),
        "admitted embedding sized for its tier"
    );

    // The grown population trains and evaluates without panicking (the
    // newcomer has no held-out data, so evaluation skips it).
    let loss = s.run_epoch();
    assert!(loss.is_finite());
    let eval = s.evaluate();
    assert!(eval.overall.users > 0);
}

#[test]
fn ingest_then_train_is_deterministic_across_thread_counts() {
    let run = |threads: usize| {
        let cfg = TrainConfig::test_default(ModelKind::Ncf);
        let mut s = SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), tiny_split(9))
            .threads(threads)
            .build()
            .unwrap();
        let n = s.split().num_users();
        s.run_epoch();
        s.ingest(&[(0, 3), (n, 7), (1, 9)]);
        s.run_epoch();
        s.evaluate()
    };
    let a = run(1);
    for threads in [2, 8] {
        let b = run(threads);
        assert_eq!(a.overall.ndcg.to_bits(), b.overall.ndcg.to_bits());
        assert_eq!(a.overall.recall.to_bits(), b.overall.recall.to_bits());
    }
}

#[test]
fn ingest_checkpoint_stamps_v4_and_resumes_bit_identically() {
    let cfg = TrainConfig::test_default(ModelKind::Ncf);
    let strategy = Strategy::HeteFedRec(Ablation::FULL);
    let n = tiny_split(9).num_users();
    let events = [(0usize, 3u32), (1, 5), (n, 7), (n, 2), (0, 3)];

    let mut reference = SessionBuilder::new(cfg.clone(), strategy, tiny_split(9))
        .build()
        .unwrap();
    reference.step();
    reference.ingest(&events);
    reference.run();

    let mut interrupted = SessionBuilder::new(cfg, strategy, tiny_split(9))
        .build()
        .unwrap();
    interrupted.step();
    interrupted.ingest(&events);
    let json = interrupted.checkpoint();
    assert!(json.contains("\"version\":4"), "ingest promotes to v4");
    assert!(json.contains("\"ingest\":"), "ingest section present");

    let mut split = tiny_split(9);
    replay(&mut split, &events);
    let mut resumed = Session::restore(&json, split).unwrap();
    assert_eq!(resumed.ingested_events(), events.len() as u64);
    assert_eq!(resumed.baseline_users(), n);
    assert_eq!(resumed.split().num_users(), n + 1);
    resumed.run();

    let a = reference.final_eval().unwrap();
    let b = resumed.final_eval().unwrap();
    assert_eq!(a.overall.ndcg.to_bits(), b.overall.ndcg.to_bits());
    assert_eq!(a.overall.recall.to_bits(), b.overall.recall.to_bits());
    for tier in Tier::ALL {
        assert_eq!(
            reference.server().table(tier).as_slice(),
            resumed.server().table(tier).as_slice()
        );
    }
}

#[test]
fn ingest_free_sessions_still_stamp_v2() {
    let mut s = session(Strategy::AllSmall, ModelKind::Ncf);
    s.step();
    let json = s.checkpoint();
    assert!(json.contains("\"version\":2"));
    assert!(!json.contains("\"ingest\""));
}

#[test]
fn async_ingest_admits_into_the_event_engine() {
    let cfg = async_cfg(ModelKind::Ncf);
    let mut s = SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), tiny_split(9))
        .build()
        .unwrap();
    let n = s.split().num_users();
    s.run_epoch();
    let report = s.ingest(&[(n, 4), (n + 1, 8)]);
    assert_eq!(report.admitted, 2);
    let loss = s.run_epoch();
    assert!(loss.is_finite());
    assert_eq!(s.users().len(), n + 2);
}

#[test]
fn per_tier_latency_trains_and_checkpoints() {
    let per_tier = LatencyProfile::PerTier(Box::new([
        LatencyProfile::Fixed(2),
        LatencyProfile::Uniform { min: 3, max: 9 },
        LatencyProfile::LogNormal {
            median: 12.0,
            sigma: 0.4,
        },
    ]));
    // Synchronous: rounds cost the slowest tier draw.
    let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
    cfg.latency = per_tier.clone();
    let mut s = SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), tiny_split(9))
        .build()
        .unwrap();
    let loss = s.run_epoch();
    assert!(loss.is_finite());
    assert!(s.clock() > 0);
    // Asynchronous: the model tier steers every dispatch's draw, and the
    // whole thing survives checkpoint/resume.
    let mut cfg = async_cfg(ModelKind::Ncf);
    cfg.latency = per_tier;
    checkpoint_roundtrip_cfg(cfg, Strategy::HeteFedRec(Ablation::FULL), 3, 2);
}

// --- LightGCN training bits ----------------------------------------------

/// FNV-1a 64 over a checkpoint document's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn lightgcn_training_bits_are_pinned() {
    // Every LightGCN float a run produces (user embeddings and their Adam
    // state, tier tables, predictors) lands in the checkpoint, so these
    // digests pin the client's propagation and its chain rule in both
    // orchestration modes. If one moves, training arithmetic changed.
    let cases = [
        (
            Strategy::HeteFedRec(Ablation::FULL),
            Mode::Sync,
            0x0cd8_9c67_f682_2dc7u64,
        ),
        (
            Strategy::HeteFedRec(Ablation::FULL),
            Mode::Async,
            0xff2a_5587_62b8_38ef,
        ),
        (Strategy::Standalone, Mode::Sync, 0x7b02_e5e8_6ce8_5853),
        (Strategy::Standalone, Mode::Async, 0xd26e_385c_df70_246d),
        (
            Strategy::DirectlyAggregate,
            Mode::Sync,
            0x9607_e570_62f7_a15e,
        ),
        (
            Strategy::DirectlyAggregate,
            Mode::Async,
            0xa596_9e27_6583_eea3,
        ),
    ];
    for (strategy, mode, want) in cases {
        let mut cfg = TrainConfig::test_default(ModelKind::LightGcn);
        cfg.mode = mode;
        let mut s = SessionBuilder::new(cfg, strategy, tiny_split(5))
            .build()
            .expect("valid config");
        s.run();
        let got = fnv1a(s.checkpoint().as_bytes());
        assert_eq!(got, want, "{strategy:?} {mode:?}: {got:#018x}");
    }
}

// --- NCF training bits ---------------------------------------------------

/// FNV-1a 64 over the encoded uploads of a fresh synchronous session's
/// first cohort, in cohort order — what `execute_cohort` trains, before
/// any fault, weight or aggregation touches it.
fn first_round_uploads_fnv(strategy: Strategy) -> u64 {
    let cfg = TrainConfig::test_default(ModelKind::Ncf);
    let mut s = SessionBuilder::new(cfg, strategy, tiny_split(5))
        .build()
        .expect("valid config");
    s.start_epoch();
    let cohort = s.pending.front().expect("a first cohort").clone();
    let udl = s.strategy.ablation().udl;
    let mut wire = Vec::new();
    for &uid in &cohort {
        let tier = s.model_groups.tier(uid);
        let thetas = s.server.thetas_for(tier, udl);
        let tiers = engine::theta_tiers(tier, udl);
        let ctx = ClientCtx {
            cfg: &s.cfg,
            strategy,
            split: &s.split,
            user_id: uid,
            model_tier: tier,
            table: s.server.table(tier),
            thetas: &thetas,
            theta_tiers: &tiers,
            round_key: s.round_counter + 1,
        };
        wire.extend(train_client(&ctx, &s.users[uid]).update.encode());
    }
    fnv1a(&wire)
}

#[test]
fn ncf_training_bits_are_pinned() {
    // The NCF counterpart of `lightgcn_training_bits_are_pinned`: every
    // float a run trains lands in the checkpoint, and every float a
    // client uploads lands in the encoded first-round uploads, so these
    // digests pin the client's forward and backward passes, its local
    // row store and the upload's wire bytes in both orchestration modes.
    // If one moves, training arithmetic or the upload layout changed.
    let cases = [
        (
            Strategy::HeteFedRec(Ablation::FULL),
            0xb446_97d2_7d2f_1049u64,
            0x8def_d621_e1d3_7afd,
            0xde99_7e71_5d2c_d225,
        ),
        (
            Strategy::DirectlyAggregate,
            0x24f5_3530_cd4c_cc68,
            0x4f99_0d74_d1d3_40e4,
            0x8201_f9c2_4c00_c1dd,
        ),
        (
            Strategy::ClusteredFedRec,
            0xec60_c1b0_8565_fc6f,
            0xf7a3_6aa6_46ca_e82a,
            0x8201_f9c2_4c00_c1dd,
        ),
        (
            Strategy::Standalone,
            0xb264_d815_011b_ca3f,
            0x598b_88f8_5040_79f7,
            0xc86e_c345_c0ee_8125,
        ),
    ];
    for (strategy, want_sync, want_async, want_uploads) in cases {
        for (mode, want) in [(Mode::Sync, want_sync), (Mode::Async, want_async)] {
            let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
            cfg.mode = mode;
            let mut s = SessionBuilder::new(cfg, strategy, tiny_split(5))
                .build()
                .expect("valid config");
            s.run();
            let got = fnv1a(s.checkpoint().as_bytes());
            assert_eq!(got, want, "{strategy:?} {mode:?}: {got:#018x}");
        }
        let got = first_round_uploads_fnv(strategy);
        assert_eq!(
            got, want_uploads,
            "{strategy:?} first-round uploads: {got:#018x}"
        );
    }
    println!("training bits pinned");
}
