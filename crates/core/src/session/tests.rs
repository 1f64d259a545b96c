use super::*;
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
fn builder_mode_override_switches_orchestration() {
    let mut cfg = async_cfg(ModelKind::Ncf);
    cfg.mode = Mode::Sync;
    let mut s = SessionBuilder::new(cfg, Strategy::AllSmall, tiny_split(9))
        .mode(Mode::Async)
        .build()
        .unwrap();
    assert_eq!(s.cfg().mode, Mode::Async);
    let mut saw_async_stats = false;
    while let Some(event) = s.step() {
        if let SessionEvent::Round(r) = event {
            saw_async_stats |= r.asynchrony.is_some();
        }
        if s.epochs_completed() >= 1 {
            break;
        }
    }
    assert!(saw_async_stats);
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
    use std::cell::Cell;
    use std::rc::Rc;
    let rounds = Rc::new(Cell::new(0usize));
    let epochs = Rc::new(Cell::new(0usize));
    let (r2, e2) = (rounds.clone(), epochs.clone());
    let mut s = SessionBuilder::new(
        TrainConfig::test_default(ModelKind::Ncf),
        Strategy::AllSmall,
        tiny_split(9),
    )
    .on_round(move |_| r2.set(r2.get() + 1))
    .on_epoch(move |_| e2.set(e2.get() + 1))
    .build()
    .unwrap();
    s.run();
    assert_eq!(epochs.get(), s.cfg().epochs);
    assert_eq!(rounds.get() as u64, s.rounds_completed());
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
fn eval_cadence_can_change_mid_run() {
    let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
    cfg.epochs = 4;
    let mut s = SessionBuilder::new(cfg, Strategy::AllSmall, tiny_split(9))
        .build()
        .unwrap();
    s.run_epoch();
    assert_eq!(s.history().epochs.len(), 1);
    s.set_eval_every(0);
    s.run_epoch();
    assert_eq!(s.history().epochs.len(), 1, "cadence 0 skips evaluation");
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
    assert!(s.users().iter().any(|u| u
        .standalone
        .as_ref()
        .map(|s| !s.rows.is_empty())
        .unwrap_or(false)));
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
fn adam_server_state_checkpoints() {
    let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
    cfg.server_opt = crate::config::ServerOpt::Adam;
    cfg.server_lr = 0.01;
    let mut reference = SessionBuilder::new(
        cfg.clone(),
        Strategy::HeteFedRec(Ablation::FULL),
        tiny_split(9),
    )
    .build()
    .unwrap();
    reference.run();
    let mut interrupted =
        SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), tiny_split(9))
            .build()
            .unwrap();
    interrupted.step();
    interrupted.step();
    let mut resumed = Session::restore(&interrupted.checkpoint(), tiny_split(9)).unwrap();
    resumed.run();
    assert_eq!(
        reference.final_eval().unwrap().overall.ndcg.to_bits(),
        resumed.final_eval().unwrap().overall.ndcg.to_bits()
    );
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
// (secure aggregation on), v4 (after an ingest that admits a user) —
// plus the v1 form of the first, all written by the build that preceded
// these tests, before the first round so only init-class floats are
// committed. "Default checkpoints stay byte-identical to earlier
// builds" and "v1 documents still restore" are pinned against these
// files, not against documents this build just wrote.

/// Indexed by `version - 1`.
const FIXTURES: [&str; 4] = [
    include_str!("../../tests/fixtures/checkpoint_v1.json"),
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
    // What a v1 document restores to: it predates the async block.
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
        let fixture = FIXTURES[version - 1].trim_end();
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
fn v1_checkpoint_documents_still_restore() {
    let mut resumed = Session::restore(FIXTURES[0], fixture_split()).expect("v1 restores");
    assert_eq!(resumed.cfg().mode, Mode::Sync);
    assert_eq!(resumed.clock(), 0);
    // It re-stamps as the v2 document it is the v1 form of...
    assert!(resumed.checkpoint() == FIXTURES[1].trim_end());
    // ...and runs on to the evaluation of a run never checkpointed.
    let mut reference = fixture_session(2);
    reference.run();
    resumed.run();
    assert_eq!(
        reference.final_eval().unwrap().overall.ndcg.to_bits(),
        resumed.final_eval().unwrap().overall.ndcg.to_bits()
    );
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
    assert!(kept == FIXTURES[1], "the previous checkpoint stays whole");
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
fn restore_rejects_a_pending_group_with_a_short_escrow_row() {
    // A masked run interrupted mid-epoch carries the next cohort's keys
    // and escrowed shares. A row one share short used to restore and
    // then index out of bounds at the first dropout it had to recover.
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
    let restore = |doc: &str| {
        SessionBuilder::from_checkpoint(doc, tiny_split(9)).and_then(SessionBuilder::build)
    };
    assert!(restore(&mid).is_ok());

    let row = mid.find("\"escrow\":[[").expect("escrow in flight") + "\"escrow\":[[".len();
    let share_end = row + mid[row..].find("],").expect("a first share") + 2;
    let short = format!("{}{}", &mid[..row], &mid[share_end..]);
    match restore(&short) {
        Err(SessionError::Checkpoint(msg)) => assert!(msg.contains("escrow"), "{msg}"),
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("a short escrow row restored"),
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
        s.user_state(n).emb.len(),
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
    // Asynchronous: tier tags steer the event engine's draws, and the
    // whole thing survives checkpoint/resume.
    let mut cfg = async_cfg(ModelKind::Ncf);
    cfg.latency = per_tier;
    checkpoint_roundtrip_cfg(cfg, Strategy::HeteFedRec(Ablation::FULL), 3, 2);
}
