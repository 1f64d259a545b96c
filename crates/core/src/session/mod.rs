//! Session-driven federation API.
//!
//! The original `Trainer::train()` loop was closed: callers could not
//! observe rounds, stop early, change evaluation cadence, or resume an
//! interrupted run. This module exposes the orchestration layer as a
//! resumable stepper, with the round-execution engine, typed reports, and
//! checkpoint schema split into submodules:
//!
//! * [`SessionBuilder`] — fluent construction with up-front configuration
//!   validation that returns [`SessionError`] instead of panicking deep
//!   inside the run.
//! * [`Session`] — the federation loop exposed as a *stepper* of typed
//!   events: every [`Session::step`] (or iteration of
//!   [`Session::events`]) yields a [`RoundReport`] or an [`EpochReport`],
//!   with configurable eval cadence and built-in early stopping on an
//!   NDCG plateau.
//! * Orchestration modes — [`Mode::Sync`](crate::config::Mode) runs the
//!   paper's lockstep rounds; [`Mode::Async`](crate::config::Mode) runs
//!   the event-driven engine (`engine` submodule): clients are dispatched
//!   up to a concurrency cap, arrive after deterministic per-client
//!   latency draws, and are aggregated in buffered batches weighted
//!   `1/(1+staleness)^β`. Both modes share the same per-epoch traversal
//!   shuffle and the same cohort-execution core, and both are
//!   bit-identical across thread counts and checkpoint/resume.
//! * Checkpoint/resume (`checkpoint` submodule) — [`Session::checkpoint`]
//!   writes a versioned JSON snapshot of *all* mutable state (server
//!   tables and predictors, optimiser moments, every client's private
//!   state, scheduler queue and RNG, fault injector, event engine,
//!   communication ledger, round counter, mid-epoch cohort queue,
//!   history) via `hf_tensor::ser`; restoring it resumes the run
//!   **bit-identically** — a checkpointed-and-resumed run produces
//!   exactly the same `EvalOutput` as an uninterrupted one. Documents
//!   older than v2 (pre event-engine) are refused by their version.
//!
//! Eval/early-stop *settings* live on the builder and are not part of a
//! checkpoint; re-apply them when resuming.

mod checkpoint;
mod engine;
mod reports;
mod secagg;
#[cfg(test)]
mod tests;

pub use reports::{
    AsyncRoundStats, EpochRecord, EpochReport, History, RoundReport, SecAggRoundStats,
    SessionEvent, StopReason,
};

use crate::client::UserState;
use crate::config::{ConfigError, Mode, TrainConfig};
use crate::eval::{evaluate, EvalOutput};
use crate::server::ServerState;
use crate::strategy::Strategy;
use hf_dataset::{ClientGroups, SplitDataset};
use hf_fedsim::comm::CommLedger;
use hf_fedsim::events::EventScheduler;
use hf_fedsim::faults::{ChurnProfile, FaultInjector};
use hf_fedsim::scheduler::RoundScheduler;
use hf_tensor::ser::JsonError;
use std::collections::VecDeque;

/// Why a [`SessionBuilder`] refused to produce a session, or a checkpoint
/// refused to restore.
#[derive(Clone, Debug)]
pub enum SessionError {
    /// A configuration field failed validation.
    Config(ConfigError),
    /// The split dataset has no clients to schedule.
    EmptyPopulation,
    /// An early-stopping patience of zero would stop after the first
    /// evaluation regardless of its value.
    ZeroPatience,
    /// The checkpoint document is malformed, the wrong format/version, or
    /// inconsistent with the configuration it carries.
    Checkpoint(String),
    /// The checkpoint was taken against a differently-shaped dataset.
    DatasetMismatch {
        /// Users recorded in the checkpoint.
        expected_users: usize,
        /// Users in the provided split.
        actual_users: usize,
        /// Items recorded in the checkpoint.
        expected_items: usize,
        /// Items in the provided split.
        actual_items: usize,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Config(e) => write!(f, "{e}"),
            SessionError::EmptyPopulation => write!(f, "split dataset has no clients"),
            SessionError::ZeroPatience => {
                write!(f, "early-stopping patience must be at least 1")
            }
            SessionError::Checkpoint(msg) => write!(f, "bad checkpoint: {msg}"),
            SessionError::DatasetMismatch {
                expected_users,
                actual_users,
                expected_items,
                actual_items,
            } => write!(
                f,
                "checkpoint was taken on {expected_users} users / {expected_items} items, \
                 but the provided split has {actual_users} users / {actual_items} items"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ConfigError> for SessionError {
    fn from(e: ConfigError) -> Self {
        SessionError::Config(e)
    }
}

impl From<JsonError> for SessionError {
    fn from(e: JsonError) -> Self {
        SessionError::Checkpoint(e.to_string())
    }
}

#[derive(Clone, Copy, Debug)]
struct EarlyStopConfig {
    patience: usize,
    min_delta: f64,
}

/// Fluent constructor for a [`Session`].
///
/// ```
/// use hetefedrec_core::{Ablation, SessionBuilder, Strategy, TrainConfig};
/// use hf_dataset::{SplitDataset, SyntheticConfig};
/// use hf_models::ModelKind;
///
/// let data = SyntheticConfig::tiny().generate(7);
/// let split = SplitDataset::paper_split(&data, 7);
/// let cfg = TrainConfig::test_default(ModelKind::Ncf);
/// let mut session = SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), split)
///     .eval_every(1)
///     .build()
///     .expect("valid configuration");
/// let history = session.run();
/// assert_eq!(history.epochs.len(), session.cfg().epochs);
/// ```
pub struct SessionBuilder {
    source: Source,
    split: SplitDataset,
    eval_every: usize,
    early_stop: Option<EarlyStopConfig>,
    threads_override: Option<usize>,
}

/// Where the session's configuration and state come from.
// One per builder, consumed by `build`: boxing the config would buy nothing.
#[allow(clippy::large_enum_variant)]
enum Source {
    /// Fresh run: caller-supplied configuration, state initialised from
    /// the seed.
    Fresh {
        cfg: TrainConfig,
        strategy: Strategy,
    },
    /// Resume: the raw checkpoint text, parsed exactly once in
    /// [`SessionBuilder::build`] (the parsed tree borrows its number
    /// tokens from this text, so the builder keeps it owned and the
    /// whole restore costs a single parse).
    Checkpoint { json: String },
}

impl SessionBuilder {
    /// Starts a builder for a fresh run.
    pub fn new(cfg: TrainConfig, strategy: Strategy, split: SplitDataset) -> Self {
        Self {
            source: Source::Fresh { cfg, strategy },
            split,
            eval_every: 1,
            early_stop: None,
            threads_override: None,
        }
    }

    /// Starts a builder that will *resume* from a [`Session::checkpoint`]
    /// document. Configuration and strategy come from the checkpoint; the
    /// caller supplies the (identically generated) split dataset plus any
    /// cadence or early-stopping settings, then calls
    /// [`SessionBuilder::build`]. The document is parsed (and any
    /// malformed-checkpoint error surfaces) at build time, so a restore
    /// pays exactly one parse.
    pub fn from_checkpoint(json: &str, split: SplitDataset) -> Result<Self, SessionError> {
        Ok(Self::from_checkpoint_owned(json.to_string(), split))
    }

    /// [`SessionBuilder::from_checkpoint`] reading the document from a
    /// file.
    pub fn from_checkpoint_file(
        path: impl AsRef<std::path::Path>,
        split: SplitDataset,
    ) -> Result<Self, SessionError> {
        let json = std::fs::read_to_string(path.as_ref())
            .map_err(|e| SessionError::Checkpoint(format!("cannot read checkpoint: {e}")))?;
        Ok(Self::from_checkpoint_owned(json, split))
    }

    fn from_checkpoint_owned(json: String, split: SplitDataset) -> Self {
        Self {
            source: Source::Checkpoint { json },
            split,
            eval_every: 1,
            early_stop: None,
            threads_override: None,
        }
    }

    /// Evaluate every `n` epochs (default 1). The final configured epoch
    /// is always evaluated so a completed run has a final eval; `0`
    /// disables automatic evaluation entirely (callers can still call
    /// [`Session::evaluate`]).
    pub fn eval_every(mut self, n: usize) -> Self {
        self.eval_every = n;
        self
    }

    /// Stop after `patience` consecutive evaluations without an NDCG
    /// improvement greater than `min_delta` over the best seen so far.
    /// Requires `patience >= 1` (checked at build).
    pub fn early_stopping(mut self, patience: usize, min_delta: f64) -> Self {
        self.early_stop = Some(EarlyStopConfig {
            patience,
            min_delta,
        });
        self
    }

    /// Overrides the worker-thread count (results are bit-identical for
    /// every thread count, so this is always safe — including when
    /// resuming a checkpoint taken under a different setting).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads_override = Some(threads);
        self
    }

    /// Validates the configuration and produces a [`Session`] — fresh, or
    /// restored when the builder came from a checkpoint.
    pub fn build(self) -> Result<Session, SessionError> {
        if self.split.num_users() == 0 {
            return Err(SessionError::EmptyPopulation);
        }
        if let Some(es) = &self.early_stop {
            if es.patience == 0 {
                return Err(SessionError::ZeroPatience);
            }
        }
        let Self {
            source,
            split,
            eval_every,
            early_stop,
            threads_override,
        } = self;

        let mut session = match source {
            Source::Fresh { mut cfg, strategy } => {
                if let Some(threads) = threads_override {
                    cfg.threads = threads;
                }
                cfg.validate()?;
                let server = ServerState::new(split.num_items(), &cfg, strategy);
                Session::assemble(cfg, strategy, split, server, None)
            }
            Source::Checkpoint { json } => Session::restore_doc(&json, threads_override, split)?,
        };
        session.eval_every = eval_every;
        session.early_stop = early_stop;
        Ok(session)
    }
}

/// A resumable federated training run.
///
/// Construct via [`SessionBuilder`]; drive it with [`Session::step`] /
/// [`Session::events`] for event-by-event control, [`Session::run_epoch`]
/// for epoch-at-a-time control, or [`Session::run`] to completion.
pub struct Session {
    cfg: TrainConfig,
    strategy: Strategy,
    split: SplitDataset,
    server: ServerState,
    users: Vec<UserState>,
    /// Tier each client's *model* has (strategy-dependent).
    model_groups: ClientGroups,
    /// Tier each client's *data volume* implies (always the ratio
    /// division; drives Fig. 6 reporting and exclusive filtering).
    data_groups: ClientGroups,
    scheduler: RoundScheduler,
    faults: FaultInjector,
    ledger: CommLedger,
    round_counter: u64,
    history: History,
    // --- stepper state (checkpointed) ---
    /// 1-based epoch currently in progress (0 before the first step).
    epoch: usize,
    in_epoch: bool,
    pending: VecDeque<Vec<usize>>,
    rounds_in_epoch: usize,
    round_in_epoch: usize,
    epoch_loss_sum: f64,
    epoch_sample_sum: usize,
    finished: Option<StopReason>,
    stop_requested: bool,
    best_ndcg: Option<f64>,
    evals_since_improvement: usize,
    /// Synchronous-mode logical clock: each round costs the slowest
    /// available client's latency draw. (The async engine keeps its own
    /// clock; [`Session::clock`] reads whichever is active.)
    clock: u64,
    /// The event-driven engine — `Some` exactly when `cfg.mode` is
    /// [`Mode::Async`].
    async_state: Option<EventScheduler>,
    /// Secure-aggregation state (the key-agreement RNG) — `Some`
    /// exactly when `cfg.secagg.enabled`.
    secagg: Option<secagg::SecAggState>,
    /// Population size at construction, before any streamed ingest.
    baseline_users: usize,
    /// Streamed interactions applied via [`Session::ingest`] (duplicates
    /// included). Resume replays exactly this many events from the same
    /// stream before restoring, so the split matches the checkpoint.
    ingested_events: u64,
    // --- builder-side settings (not checkpointed) ---
    eval_every: usize,
    early_stop: Option<EarlyStopConfig>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The full state is megabytes of tables; summarise the run instead.
        f.debug_struct("Session")
            .field("strategy", &self.strategy.name())
            .field("mode", &self.cfg.mode.tag())
            .field("epoch", &self.epoch)
            .field("round_counter", &self.round_counter)
            .field("clock", &self.clock())
            .field("in_epoch", &self.in_epoch)
            .field("finished", &self.finished)
            .field("users", &self.users.len())
            .field("history_epochs", &self.history.epochs.len())
            .finish_non_exhaustive()
    }
}

impl Session {
    // -- accessors ----------------------------------------------------------

    /// The active configuration.
    pub fn cfg(&self) -> &TrainConfig {
        &self.cfg
    }

    /// The active strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Server state (public parameters).
    pub fn server(&self) -> &ServerState {
        &self.server
    }

    /// The split dataset this run trains on.
    pub fn split(&self) -> &SplitDataset {
        &self.split
    }

    /// Every client's private state.
    pub fn users(&self) -> &[UserState] {
        &self.users
    }

    /// One client's private state (user embedding and, in standalone
    /// mode, its local model) — the serving path reads this.
    pub fn user_state(&self, user: usize) -> &UserState {
        &self.users[user]
    }

    /// The model-tier assignment.
    pub fn model_groups(&self) -> &ClientGroups {
        &self.model_groups
    }

    /// The data-size division (Fig. 6 buckets).
    pub fn data_groups(&self) -> &ClientGroups {
        &self.data_groups
    }

    /// Communication ledger accumulated so far.
    pub fn ledger(&self) -> &CommLedger {
        &self.ledger
    }

    /// History of evaluated epochs.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Global rounds executed so far.
    pub fn rounds_completed(&self) -> u64 {
        self.round_counter
    }

    /// Simulated wall-clock in logical ticks: how long the run has taken
    /// under the configured latency profile. With the default unit
    /// profile in synchronous mode, one round costs one tick.
    pub fn clock(&self) -> u64 {
        self.async_state
            .as_ref()
            .map_or(self.clock, |st| st.clock())
    }

    /// Epochs fully completed so far.
    pub fn epochs_completed(&self) -> usize {
        if self.in_epoch {
            self.epoch.saturating_sub(1)
        } else {
            self.epoch
        }
    }

    /// Why the session stopped, once it has.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.finished
    }

    /// `true` once the event stream is exhausted.
    pub fn is_finished(&self) -> bool {
        self.finished.is_some()
    }

    /// The last evaluation recorded in the history, if any.
    pub fn final_eval(&self) -> Option<&EvalOutput> {
        self.history.final_eval()
    }

    // -- driving ------------------------------------------------------------

    /// Executes the next unit of work and reports it: the next round
    /// (a lockstep cohort in synchronous mode, an arrival batch in
    /// asynchronous mode), or — when the epoch's work is exhausted — the
    /// epoch boundary (evaluation per cadence, history append, early-stop
    /// bookkeeping). Returns `None` once the session has finished.
    pub fn step(&mut self) -> Option<SessionEvent> {
        if self.finished.is_some() {
            return None;
        }
        if !self.in_epoch {
            self.start_epoch();
        }
        let round_ready = match self.cfg.mode {
            Mode::Sync => !self.pending.is_empty(),
            Mode::Async => self.async_state.as_ref().is_some_and(|st| !st.idle()),
        };
        if round_ready {
            self.round_counter += 1;
            self.round_in_epoch += 1;
            let (report, loss_sum) = match self.cfg.mode {
                Mode::Sync => {
                    let cohort = self.pending.pop_front().expect("pending cohort");
                    self.run_round(&cohort)
                }
                Mode::Async => self.run_async_round(),
            };
            self.epoch_loss_sum += loss_sum;
            self.epoch_sample_sum += report.samples;
            return Some(SessionEvent::Round(report));
        }
        Some(SessionEvent::Epoch(self.finish_epoch()))
    }

    /// Iterator view over [`Session::step`] — `for event in session.events()`.
    pub fn events(&mut self) -> impl Iterator<Item = SessionEvent> + '_ {
        std::iter::from_fn(|| self.step())
    }

    /// Drives the session to completion (configured epochs, early stop,
    /// or a requested stop) and returns the accumulated history.
    pub fn run(&mut self) -> &History {
        while self.step().is_some() {}
        &self.history
    }

    /// Runs exactly one epoch and returns its mean training loss.
    ///
    /// Manual epoch driving deliberately ignores the `cfg.epochs` horizon
    /// (and any previous stop): each call forces one more full epoch, so
    /// exploratory callers can keep training past the configured end.
    pub fn run_epoch(&mut self) -> f64 {
        self.finished = None;
        loop {
            match self.step() {
                Some(SessionEvent::Epoch(report)) => return report.train_loss,
                Some(SessionEvent::Round(_)) => {}
                // `finished` was just cleared and step() only yields None
                // when it is set; the epoch report above returns first.
                None => unreachable!("step() must produce an epoch report"),
            }
        }
    }

    /// Asks the session to stop at the next epoch boundary. The stepper
    /// then reports [`StopReason::Requested`] and yields `None`.
    pub fn request_stop(&mut self) {
        self.stop_requested = true;
    }

    /// Evaluates the current model state (does not advance the run).
    pub fn evaluate(&self) -> EvalOutput {
        evaluate(
            &self.cfg,
            self.strategy,
            &self.split,
            &self.server,
            &self.users,
            &self.model_groups,
            &self.data_groups,
        )
    }

    // -- streaming ingest ---------------------------------------------------

    /// Population size at construction, before any streamed admissions.
    pub fn baseline_users(&self) -> usize {
        self.baseline_users
    }

    /// Streamed interactions applied so far (duplicates included).
    pub fn ingested_events(&self) -> u64 {
        self.ingested_events
    }

    /// Applies a batch of streamed `(user, item)` interactions between
    /// rounds: new training positives are appended to existing users'
    /// histories, and `user == split.num_users()` admits a brand-new
    /// client into every subsystem (split, tier groups, private state,
    /// round scheduler, and — in async mode — the event engine).
    ///
    /// Existing users are **never re-tiered**: their embedding width is
    /// fixed at their tier's dimension, so tiers freeze at division time
    /// and new users are placed by the frozen thresholds. Every event —
    /// including duplicates, which leave the split unchanged — counts
    /// toward [`Session::ingested_events`], so resuming a checkpoint
    /// replays exactly that many events from the same stream.
    ///
    /// # Panics
    /// Panics when an item is outside the item universe or a user id
    /// would leave a gap (same contract as `SplitDataset::ingest`).
    pub fn ingest(&mut self, interactions: &[(usize, u32)]) -> IngestReport {
        let mut report = IngestReport::default();
        for &(user, item) in interactions {
            if user == self.split.num_users() {
                self.admit_user(item);
                report.admitted += 1;
            } else if self.split.ingest(user, item) {
                report.appended += 1;
            } else {
                report.duplicates += 1;
            }
            self.ingested_events += 1;
        }
        report
    }

    /// Admits one new client holding `item` as its only interaction.
    fn admit_user(&mut self, item: u32) {
        let user = self.split.num_users();
        self.split.ingest(user, item);
        let model_tier = self
            .strategy
            .pinned_tier()
            .unwrap_or_else(|| self.model_groups.tier_for_count(1));
        let data_tier = self.data_groups.tier_for_count(1);
        self.model_groups.admit(model_tier);
        self.data_groups.admit(data_tier);
        let state = self.new_user(user);
        self.users.push(state);
        self.scheduler.admit();
        if let Some(st) = self.async_state.as_mut() {
            st.admit();
        }
    }

    // -- internals ----------------------------------------------------------

    /// The one constructor, for fresh and restored sessions alike: the
    /// tier groups, round scheduler, fault injector, async engine and
    /// secure-aggregation state all come from `cfg`, and the stepper
    /// stands before the first round. `users` are the clients' private
    /// states; `None` starts every client fresh ([`Session::new_user`]).
    /// Restore then overwrites what its document carries.
    fn assemble(
        cfg: TrainConfig,
        strategy: Strategy,
        split: SplitDataset,
        server: ServerState,
        users: Option<Vec<UserState>>,
    ) -> Session {
        let population = split.num_users();
        let faults = if cfg.drop_prob > 0.0 || cfg.churn != ChurnProfile::None {
            FaultInjector::with_churn(cfg.seed, cfg.drop_prob, cfg.churn)
        } else {
            FaultInjector::disabled()
        };
        let mut session = Session {
            model_groups: strategy.assign_tiers(&split, cfg.ratio),
            data_groups: ClientGroups::divide(&split, cfg.ratio),
            scheduler: RoundScheduler::new(population, cfg.clients_per_round, cfg.seed),
            faults,
            async_state: (cfg.mode == Mode::Async).then(|| EventScheduler::new(population)),
            secagg: cfg.secagg.enabled.then(|| secagg::SecAggState::new(&cfg)),
            cfg,
            strategy,
            split,
            server,
            users: Vec::new(),
            ledger: CommLedger::default(),
            round_counter: 0,
            history: History::default(),
            epoch: 0,
            in_epoch: false,
            pending: VecDeque::new(),
            rounds_in_epoch: 0,
            round_in_epoch: 0,
            epoch_loss_sum: 0.0,
            epoch_sample_sum: 0,
            finished: None,
            stop_requested: false,
            best_ndcg: None,
            evals_since_improvement: 0,
            clock: 0,
            baseline_users: population,
            ingested_events: 0,
            eval_every: 1,
            early_stop: None,
        };
        session.users =
            users.unwrap_or_else(|| (0..population).map(|u| session.new_user(u)).collect());
        session
    }

    /// A new client's private state: an embedding of its model tier's
    /// width and, under [`Strategy::Standalone`], its own copy of that
    /// tier's predictor.
    fn new_user(&self, user: usize) -> UserState {
        let tier = self.model_groups.tier(user);
        let standalone_theta =
            matches!(self.strategy, Strategy::Standalone).then(|| self.server.theta(tier).clone());
        UserState::init(user, self.cfg.dims.dim(tier), &self.cfg, standalone_theta)
    }

    fn start_epoch(&mut self) {
        self.epoch += 1;
        match self.cfg.mode {
            Mode::Sync => {
                let rounds = self.scheduler.next_epoch();
                self.rounds_in_epoch = rounds.len();
                self.pending = rounds.into();
            }
            Mode::Async => {
                // Same shuffle stream as the synchronous cohorts, fed
                // through the event engine instead of chunked.
                let traversal = self.scheduler.next_traversal();
                let st = self
                    .async_state
                    .as_mut()
                    .expect("async engine present in async mode");
                st.begin_epoch(traversal);
                // Each round absorbs min(buffer, concurrency) arrivals
                // until the tail, so this is the exact round count when
                // no client is skipped and an upper bound otherwise.
                let per_round = self
                    .cfg
                    .async_cfg
                    .buffer
                    .min(self.cfg.async_cfg.concurrency);
                self.rounds_in_epoch = self.split.num_users().div_ceil(per_round);
                self.async_fill();
            }
        }
        self.round_in_epoch = 0;
        self.epoch_loss_sum = 0.0;
        self.epoch_sample_sum = 0;
        self.in_epoch = true;
    }

    fn should_eval(&self) -> bool {
        if self.eval_every == 0 {
            return false;
        }
        // The final *configured* epoch always evaluates; epochs driven
        // past the horizon via run_epoch follow the cadence alone.
        self.epoch.is_multiple_of(self.eval_every) || self.epoch == self.cfg.epochs
    }

    fn finish_epoch(&mut self) -> EpochReport {
        let train_loss = if self.epoch_sample_sum == 0 {
            0.0
        } else {
            self.epoch_loss_sum / self.epoch_sample_sum as f64
        };
        let eval = self.should_eval().then(|| self.evaluate());
        if let Some(e) = &eval {
            self.history.epochs.push(EpochRecord {
                epoch: self.epoch,
                train_loss,
                eval: e.clone(),
            });
            self.note_eval(e.overall.ndcg);
        }
        self.in_epoch = false;

        let plateaued = self
            .early_stop
            .is_some_and(|es| eval.is_some() && self.evals_since_improvement >= es.patience);
        if self.stop_requested {
            self.finished = Some(StopReason::Requested { epoch: self.epoch });
        } else if plateaued {
            self.finished = Some(StopReason::EarlyStopped { epoch: self.epoch });
        } else if self.epoch >= self.cfg.epochs {
            self.finished = Some(StopReason::Completed);
        }

        EpochReport {
            epoch: self.epoch,
            train_loss,
            eval,
        }
    }

    fn note_eval(&mut self, ndcg: f64) {
        let min_delta = self.early_stop.map(|es| es.min_delta).unwrap_or(0.0);
        // A NaN eval (diverged run) never counts as an improvement, and a
        // NaN never becomes the best — otherwise `ndcg > NaN + δ` is false
        // forever and one transient divergence would poison the plateau
        // detector (and `Some(NaN)` would round-trip through a checkpoint
        // as `None`, breaking resume bit-identity of the early-stop state).
        let improved = !ndcg.is_nan()
            && match self.best_ndcg {
                None => true,
                Some(best) => best.is_nan() || ndcg > best + min_delta,
            };
        if improved {
            self.best_ndcg = Some(ndcg);
            self.evals_since_improvement = 0;
        } else {
            self.evals_since_improvement += 1;
        }
    }
}

/// What a [`Session::ingest`] batch did to the population.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Interactions appended to existing users' training histories.
    pub appended: usize,
    /// Brand-new users admitted into the population.
    pub admitted: usize,
    /// Events already present in the split (no-ops).
    pub duplicates: usize,
}
