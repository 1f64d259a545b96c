//! Versioned checkpoint serialization and restore.
//!
//! Schema history:
//!
//! * **v2** — the oldest document this build restores: config (with
//!   `mode`/`async`/`latency`/`churn`), strategy, server and client
//!   state, scheduler RNG, fault injector (with its churn profile),
//!   ledger, stepper bookkeeping, history, `clock` (synchronous logical
//!   time) and `event_scheduler` (the async engine's clock, in-flight
//!   arrival queue, not-yet-dispatched traversal remainder, and
//!   per-client dispatch versions; `null` in synchronous runs). The
//!   pre-event-engine v1 document is refused by its version stamp.
//! * **v3** — adds the secure-aggregation state: the config gains
//!   `secagg`, and the document gains a `secagg` object
//!   `{"rng":…,"pending":null}` — the key-agreement RNG, from which a
//!   resumed run sets up the exact same groups. `pending` once carried a
//!   pipelined setup for the next cohort; it is always `null` now, and a
//!   document with a setup in flight is refused.
//! * **v4** — adds the streaming-ingest state: an `ingest` object with
//!   the baseline population, the number of stream events applied, and
//!   the frozen per-client tier assignments plus division thresholds
//!   (streamed interactions mutate train counts after division, so the
//!   restore path must not recompute tiers from the split).
//!
//! Every later addition has a prior-version default (secure aggregation
//! off, no ingest), so v2 and v3 documents still restore (bar a v3 setup
//! in flight, above) — the reader accepts
//! `MIN_CHECKPOINT_VERSION..=CHECKPOINT_VERSION` (2..=4).
//! Conversely a run with secure aggregation *off* stamps version 2 and
//! omits the `secagg` field, and one that never ingested omits `ingest`
//! (stamping at most v3), so default-configuration checkpoints stay
//! byte-identical to earlier builds.
//!
//! Restore builds the session the way a fresh build does
//! (`Session::assemble`, from the document's `cfg` and its parsed server
//! and users) and then overwrites only the state the document carries.
//! What the config makes is derived, never read: the document's copies of
//! two settings, `scheduler.clients_per_round` and `faults`, stay in the
//! bytes but must match what `cfg` makes, or the restore is refused.

use super::reports::{History, StopReason};
use super::{Session, SessionBuilder, SessionError};
use crate::client::UserState;
use crate::config::TrainConfig;
use crate::server::ServerState;
use crate::strategy::Strategy;
use hf_dataset::{ClientGroups, SplitDataset};
use hf_fedsim::comm::CommLedger;
use hf_fedsim::events::EventScheduler;
use hf_fedsim::faults::FaultInjector;
use hf_fedsim::scheduler::RoundScheduler;
use hf_tensor::ser::{obj, parse_json, ToJson};
use std::io::Write as _;

/// Checkpoint document identifier.
const CHECKPOINT_FORMAT: &str = "hetefedrec.checkpoint";
/// Newest checkpoint schema version. The writer stamps the lowest
/// version that fits the state a document carries (see
/// [`Session::checkpoint`]), so this one appears only after an ingest.
const CHECKPOINT_VERSION: u64 = 4;
/// Oldest schema version this build still restores.
const MIN_CHECKPOINT_VERSION: u64 = 2;

impl Session {
    /// Serialises the session's complete mutable state as a versioned
    /// JSON document. Restoring it (on an identically generated split)
    /// resumes the run bit-identically — even mid-epoch, in either
    /// orchestration mode, and regardless of the thread count on either
    /// side.
    pub fn checkpoint(&self) -> String {
        // Stamp the version the document actually needs: v4 state exists
        // only once ingest happened, v3 only with secure aggregation on,
        // so default runs keep writing byte-identical v2 documents.
        let version: u64 = if self.ingested_events > 0 {
            4
        } else if self.secagg.is_some() {
            3
        } else {
            2
        };
        let mut out = String::new();
        obj(&mut out, |o| {
            o.field("format", &CHECKPOINT_FORMAT)
                .field("version", &version)
                .field("cfg", &self.cfg)
                .field("strategy", &self.strategy)
                .field("num_users", &self.split.num_users())
                .field("num_items", &self.split.num_items())
                .field("round_counter", &self.round_counter)
                .field("epoch", &self.epoch)
                .field("in_epoch", &self.in_epoch)
                .field("pending", &self.pending.iter().collect::<Vec<_>>())
                .field("rounds_in_epoch", &self.rounds_in_epoch)
                .field("round_in_epoch", &self.round_in_epoch)
                .field("epoch_loss_sum", &self.epoch_loss_sum)
                .field("epoch_sample_sum", &self.epoch_sample_sum)
                .field("finished", &self.finished)
                .field("stop_requested", &self.stop_requested)
                .field("best_ndcg", &self.best_ndcg)
                .field("evals_since_improvement", &self.evals_since_improvement)
                .field("clock", &self.clock)
                .field("event_scheduler", &self.async_state);
            // v3 addition, present only when the state exists.
            if let Some(secagg) = &self.secagg {
                o.field("secagg", secagg);
            }
            // v4 addition, present only once the stream touched the
            // population: carries the frozen tier assignments so restore
            // never re-divides the mutated split.
            if self.ingested_events > 0 {
                struct Ingest<'a>(&'a Session);
                impl ToJson for Ingest<'_> {
                    fn write_json(&self, out: &mut String) {
                        let s = self.0;
                        obj(out, |o| {
                            o.field("baseline_users", &s.baseline_users)
                                .field("events", &s.ingested_events)
                                .field("model_tiers", &s.model_groups.tier_indices())
                                .field("data_tiers", &s.data_groups.tier_indices())
                                .field(
                                    "model_thresholds",
                                    &[s.model_groups.thresholds.0, s.model_groups.thresholds.1],
                                )
                                .field(
                                    "data_thresholds",
                                    &[s.data_groups.thresholds.0, s.data_groups.thresholds.1],
                                );
                        });
                    }
                }
                o.field("ingest", &Ingest(self));
            }
            o.field("ledger", &self.ledger)
                .field("scheduler", &self.scheduler)
                .field("faults", &self.faults)
                .field("server", &self.server)
                .field("users", &self.users)
                .field("history", &self.history);
        });
        out
    }

    /// Writes [`Session::checkpoint`] to a file, creating parent
    /// directories as needed. Atomic ([`hf_tensor::wire::write_file`]):
    /// a failed or interrupted write leaves the previous checkpoint at
    /// `path` intact.
    pub fn write_checkpoint(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        hf_tensor::wire::write_file(path.as_ref(), |mut out| {
            writeln!(out, "{}", self.checkpoint())?;
            out.flush()
        })
    }

    /// Restores a session from a [`Session::checkpoint`] document with
    /// default settings. Use [`SessionBuilder::from_checkpoint`] to
    /// re-apply cadence or early stopping.
    pub fn restore(json: &str, split: SplitDataset) -> Result<Self, SessionError> {
        SessionBuilder::from_checkpoint(json, split)?.build()
    }

    /// Restores a session from a parsed [`Session::checkpoint`] document.
    ///
    /// The configuration is the document's `cfg` (with the builder's
    /// thread override). The state is built the way a fresh session is,
    /// by [`Session::assemble`] from the parsed server and users, and then
    /// overwritten with what the document carries. Two settings the
    /// document also writes, `scheduler.clients_per_round` and `faults`,
    /// must be what `cfg` makes, or the restore is refused.
    pub(super) fn restore_doc(
        json: &str,
        threads_override: Option<usize>,
        split: SplitDataset,
    ) -> Result<Self, SessionError> {
        // The one and only parse of the checkpoint text; the tree borrows
        // its number tokens from `json`.
        let doc = parse_json(json)?;
        let format = doc.get("format")?.as_str()?;
        if format != CHECKPOINT_FORMAT {
            return Err(SessionError::Checkpoint(format!(
                "unknown format `{format}`"
            )));
        }
        let version = doc.get("version")?.as_u64()?;
        if !(MIN_CHECKPOINT_VERSION..=CHECKPOINT_VERSION).contains(&version) {
            return Err(SessionError::Checkpoint(format!(
                "unsupported version {version} (this build reads \
                 {MIN_CHECKPOINT_VERSION}..={CHECKPOINT_VERSION})"
            )));
        }
        let mut cfg = TrainConfig::from_json(doc.get("cfg")?)?;
        let strategy = Strategy::from_json(doc.get("strategy")?)?;
        if let Some(threads) = threads_override {
            cfg.threads = threads;
        }
        cfg.validate()?;

        let expected_users = doc.get("num_users")?.as_usize()?;
        let expected_items = doc.get("num_items")?.as_usize()?;
        if expected_users != split.num_users() || expected_items != split.num_items() {
            return Err(SessionError::DatasetMismatch {
                expected_users,
                actual_users: split.num_users(),
                expected_items,
                actual_items: split.num_items(),
            });
        }
        let population = split.num_users();
        let server = ServerState::from_json(doc.get("server")?, split.num_items(), &cfg, strategy)?;
        let users_json = doc.get("users")?.as_arr()?;
        if users_json.len() != population {
            return Err(SessionError::Checkpoint(format!(
                "{} user states for {population} users",
                users_json.len()
            )));
        }
        let mut users = Vec::with_capacity(population);
        for (u, v) in users_json.iter().enumerate() {
            let state = UserState::from_json(v, split.num_items())
                .map_err(|e| SessionError::Checkpoint(format!("user {u}: {e}")))?;
            users.push(state);
        }

        let mut s = Session::assemble(cfg, strategy, split, server, Some(users));

        // v4 addition, present once the stream touched the population: the
        // tier assignments frozen at division time and extended by
        // admissions (streamed interactions changed train counts since, so
        // dividing the split again would re-tier users), the baseline
        // population and the number of stream events applied.
        if let Some(ingest) = doc.opt("ingest") {
            let read = |tiers_key: &str, thr_key: &str| -> Result<ClientGroups, SessionError> {
                let raw = ingest.get(tiers_key)?.as_u64_vec()?;
                if raw.len() != population {
                    return Err(SessionError::Checkpoint(format!(
                        "`{tiers_key}` has {} entries for {population} users",
                        raw.len()
                    )));
                }
                let mut indices = Vec::with_capacity(raw.len());
                for v in raw {
                    // Checked conversion: a raw `as u8` would wrap 256 back
                    // to a valid index and mask the corruption.
                    if v > 2 {
                        return Err(SessionError::Checkpoint(format!(
                            "tier index {v} out of range in `{tiers_key}`"
                        )));
                    }
                    indices.push(v as u8);
                }
                let thr = ingest.get(thr_key)?.as_usize_vec()?;
                if thr.len() != 2 {
                    return Err(SessionError::Checkpoint(format!(
                        "`{thr_key}` must hold exactly two thresholds, got {}",
                        thr.len()
                    )));
                }
                ClientGroups::from_tier_indices(&indices, (thr[0], thr[1]))
                    .map_err(SessionError::Checkpoint)
            };
            s.model_groups = read("model_tiers", "model_thresholds")?;
            s.data_groups = read("data_tiers", "data_thresholds")?;
            s.baseline_users = ingest.get("baseline_users")?.as_usize()?;
            s.ingested_events = ingest.get("events")?.as_u64()?;
        }
        for (u, state) in s.users.iter().enumerate() {
            let expected_dim = s.cfg.dims.dim(s.model_groups.tier(u));
            if state.dim() != expected_dim {
                return Err(SessionError::Checkpoint(format!(
                    "user {u} embedding has width {}, expected {expected_dim}",
                    state.dim()
                )));
            }
        }

        // The round size the scheduler was built with: admissions grow
        // the population after construction, not the round.
        let clients_per_round = s.cfg.clients_per_round.min(s.baseline_users);
        s.scheduler =
            RoundScheduler::from_json(doc.get("scheduler")?, population, clients_per_round)?;
        if FaultInjector::from_json(doc.get("faults")?)? != s.faults {
            return Err(SessionError::Checkpoint(
                "`faults` differ from the injector the configuration makes".into(),
            ));
        }
        // `null` (what a synchronous run writes) keeps the fresh engine.
        if let Some(st) = s.async_state.as_mut() {
            match doc.get("event_scheduler")? {
                v if v.is_null() => {}
                v => *st = EventScheduler::from_json(v, population)?,
            }
        }
        // v3 addition — kept fresh when the document predates it (or was
        // written with secure aggregation off and the config was since
        // flipped on by hand).
        if let Some(secagg) = s.secagg.as_mut() {
            match doc.opt("secagg") {
                Some(v) if !v.is_null() => *secagg = super::secagg::SecAggState::from_json(v)?,
                _ => {}
            }
        }

        for cohort in doc.get("pending")?.as_arr()? {
            let cohort = cohort.as_usize_vec()?;
            if cohort.iter().any(|&u| u >= population) {
                return Err(SessionError::Checkpoint(
                    "pending cohort references unknown client".into(),
                ));
            }
            s.pending.push_back(cohort);
        }
        s.finished = match doc.get("finished")? {
            v if v.is_null() => None,
            v => Some(StopReason::from_json(v)?),
        };
        s.best_ndcg = match doc.get("best_ndcg")? {
            v if v.is_null() => None,
            v => Some(v.as_f64()?),
        };
        s.ledger = CommLedger::from_json(doc.get("ledger")?)?;
        s.round_counter = doc.get("round_counter")?.as_u64()?;
        s.history = History::from_json(doc.get("history")?)?;
        s.epoch = doc.get("epoch")?.as_usize()?;
        s.in_epoch = doc.get("in_epoch")?.as_bool()?;
        s.rounds_in_epoch = doc.get("rounds_in_epoch")?.as_usize()?;
        s.round_in_epoch = doc.get("round_in_epoch")?.as_usize()?;
        s.epoch_loss_sum = doc.get("epoch_loss_sum")?.as_f64()?;
        s.epoch_sample_sum = doc.get("epoch_sample_sum")?.as_usize()?;
        s.stop_requested = doc.get("stop_requested")?.as_bool()?;
        s.evals_since_improvement = doc.get("evals_since_improvement")?.as_usize()?;
        s.clock = doc.get("clock")?.as_u64()?;
        Ok(s)
    }
}
