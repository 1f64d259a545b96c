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

use super::reports::{History, StopReason};
use super::{Session, SessionBuilder, SessionError};
use crate::client::UserState;
use crate::config::{Mode, TrainConfig};
use crate::server::ServerState;
use crate::strategy::Strategy;
use hf_dataset::{ClientGroups, SplitDataset};
use hf_fedsim::comm::CommLedger;
use hf_fedsim::events::EventScheduler;
use hf_fedsim::faults::FaultInjector;
use hf_fedsim::scheduler::RoundScheduler;
use hf_tensor::ser::{obj, JsonValue, ToJson};
use std::collections::VecDeque;
use std::io::Write as _;

/// Checkpoint document identifier.
pub(crate) const CHECKPOINT_FORMAT: &str = "hetefedrec.checkpoint";
/// Newest checkpoint schema version. The writer stamps the lowest
/// version that fits the state a document carries (see
/// [`Session::checkpoint`]), so this one appears only after an ingest.
pub(crate) const CHECKPOINT_VERSION: u64 = 4;
/// Oldest schema version this build still restores.
pub(crate) const MIN_CHECKPOINT_VERSION: u64 = 2;

impl Session {
    /// Serialises the session's complete mutable state as a versioned
    /// JSON document. Restoring it (on an identically generated split)
    /// resumes the run bit-identically — even mid-epoch, in either
    /// orchestration mode, and regardless of the thread count on either
    /// side.
    pub fn checkpoint(&self) -> String {
        struct Pending<'a>(&'a VecDeque<Vec<usize>>);
        impl ToJson for Pending<'_> {
            fn write_json(&self, out: &mut String) {
                out.push('[');
                for (i, cohort) in self.0.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    cohort.write_json(out);
                }
                out.push(']');
            }
        }
        struct Server<'a>(&'a ServerState);
        impl ToJson for Server<'_> {
            fn write_json(&self, out: &mut String) {
                self.0.snapshot_json(out);
            }
        }
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
                .field("pending", &Pending(&self.pending))
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
                .field("server", &Server(&self.server))
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

    /// Recovers the tier assignments for a restoring session. v4
    /// documents carry them verbatim (frozen at division time, extended
    /// by admissions); earlier documents recompute from the split, which
    /// no stream ever touched.
    pub(super) fn restore_groups(
        doc: &JsonValue<'_>,
        cfg: &TrainConfig,
        strategy: Strategy,
        split: &SplitDataset,
    ) -> Result<(ClientGroups, ClientGroups), SessionError> {
        let Some(ingest) = doc.opt("ingest") else {
            return Ok((
                strategy.assign_tiers(split, cfg.ratio),
                ClientGroups::divide(split, cfg.ratio),
            ));
        };
        let read = |tiers_key: &str, thr_key: &str| -> Result<ClientGroups, SessionError> {
            let raw = ingest.get(tiers_key)?.as_u64_vec()?;
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
        Ok((
            read("model_tiers", "model_thresholds")?,
            read("data_tiers", "data_thresholds")?,
        ))
    }

    pub(super) fn restore_parts(
        doc: &JsonValue<'_>,
        cfg: TrainConfig,
        strategy: Strategy,
        split: SplitDataset,
        model_groups: ClientGroups,
        data_groups: ClientGroups,
    ) -> Result<Self, SessionError> {
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

        let server = ServerState::from_json(doc.get("server")?, split.num_items(), &cfg, strategy)?;
        let users_json = doc.get("users")?.as_arr()?;
        if users_json.len() != split.num_users() {
            return Err(SessionError::Checkpoint(format!(
                "{} user states for {} users",
                users_json.len(),
                split.num_users()
            )));
        }
        let mut users = Vec::with_capacity(users_json.len());
        for (u, v) in users_json.iter().enumerate() {
            let state = UserState::from_json(v, split.num_items())
                .map_err(|e| SessionError::Checkpoint(format!("user {u}: {e}")))?;
            let expected_dim = cfg.dims.dim(model_groups.tier(u));
            if state.emb.len() != expected_dim {
                return Err(SessionError::Checkpoint(format!(
                    "user {u} embedding has width {}, expected {expected_dim}",
                    state.emb.len()
                )));
            }
            users.push(state);
        }

        let mut pending = VecDeque::new();
        for cohort in doc.get("pending")?.as_arr()? {
            let cohort = cohort.as_usize_vec()?;
            if cohort.iter().any(|&u| u >= split.num_users()) {
                return Err(SessionError::Checkpoint(
                    "pending cohort references unknown client".into(),
                ));
            }
            pending.push_back(cohort);
        }

        let finished = match doc.get("finished")? {
            v if v.is_null() => None,
            v => Some(StopReason::from_json(v)?),
        };
        let best = doc.get("best_ndcg")?;
        let best_ndcg = if best.is_null() {
            None
        } else {
            Some(best.as_f64()?)
        };

        let clock = doc.get("clock")?.as_u64()?;
        let async_state = if cfg.mode == Mode::Async {
            // `null` (what a synchronous run writes) means a fresh engine.
            let mut st = match doc.get("event_scheduler")? {
                v if !v.is_null() => EventScheduler::from_json(
                    v,
                    split.num_users(),
                    cfg.async_cfg.concurrency,
                    cfg.latency.clone(),
                    cfg.seed,
                )?,
                _ => EventScheduler::new(
                    split.num_users(),
                    cfg.async_cfg.concurrency,
                    cfg.latency.clone(),
                    cfg.seed,
                ),
            };
            // Tier tags are pure functions of the (restored) groups, so
            // they are rebuilt rather than checkpointed.
            st.set_tiers(model_groups.tier_indices());
            Some(st)
        } else {
            None
        };
        // v3 addition — rebuilt fresh when the document predates it (or
        // was written with secure aggregation off and the config was
        // since flipped on by hand).
        let secagg = if cfg.secagg.enabled {
            Some(match doc.opt("secagg") {
                Some(v) if !v.is_null() => super::secagg::SecAggState::from_json(v)?,
                _ => super::secagg::SecAggState::new(&cfg),
            })
        } else {
            None
        };
        // v4 addition — absent means the stream never ran: the whole
        // population is the baseline and resume replays zero events.
        let (baseline_users, ingested_events) = match doc.opt("ingest") {
            Some(v) => (
                v.get("baseline_users")?.as_usize()?,
                v.get("events")?.as_u64()?,
            ),
            None => (split.num_users(), 0),
        };

        Ok(Session {
            scheduler: RoundScheduler::from_json(doc.get("scheduler")?, split.num_users())?,
            faults: FaultInjector::from_json(doc.get("faults")?)?,
            ledger: CommLedger::from_json(doc.get("ledger")?)?,
            round_counter: doc.get("round_counter")?.as_u64()?,
            history: History::from_json(doc.get("history")?)?,
            epoch: doc.get("epoch")?.as_usize()?,
            in_epoch: doc.get("in_epoch")?.as_bool()?,
            pending,
            rounds_in_epoch: doc.get("rounds_in_epoch")?.as_usize()?,
            round_in_epoch: doc.get("round_in_epoch")?.as_usize()?,
            epoch_loss_sum: doc.get("epoch_loss_sum")?.as_f64()?,
            epoch_sample_sum: doc.get("epoch_sample_sum")?.as_usize()?,
            finished,
            stop_requested: doc.get("stop_requested")?.as_bool()?,
            best_ndcg,
            evals_since_improvement: doc.get("evals_since_improvement")?.as_usize()?,
            clock,
            async_state,
            secagg,
            baseline_users,
            ingested_events,
            cfg,
            strategy,
            split,
            server,
            users,
            model_groups,
            data_groups,
            eval_every: 1,
            early_stop: None,
        })
    }
}
