//! Typed events and metric history yielded by the session stepper.

use crate::eval::EvalOutput;
use hf_tensor::ser::{obj, JsonError, JsonValue, ToJson};

/// One completed federation round (a cohort trained, aggregated, and —
/// under full HeteFedRec — distilled).
#[derive(Clone, Debug)]
pub struct RoundReport {
    /// Global 1-based round counter (monotone across epochs and resumes).
    pub round: u64,
    /// 1-based epoch this round belongs to.
    pub epoch: usize,
    /// 1-based position within the epoch.
    pub round_in_epoch: usize,
    /// Total rounds this epoch will run. Exact under the synchronous mode;
    /// an upper bound under the asynchronous mode (churn can shrink an
    /// epoch's arrival count).
    pub rounds_in_epoch: usize,
    /// Clients selected this round.
    pub cohort: usize,
    /// Mean local training loss per sample this round (0 when no samples).
    pub loss: f64,
    /// (item, label) samples processed this round.
    pub samples: usize,
    /// Uploads accepted into aggregation (cohort minus strategy-filtered,
    /// dropped, and empty updates).
    pub accepted: usize,
    /// Bytes downloaded by this round's cohort.
    pub download_bytes: u64,
    /// Bytes uploaded by this round's accepted clients.
    pub upload_bytes: u64,
    /// Asynchronous-mode extensions — `None` under the synchronous mode.
    pub asynchrony: Option<AsyncRoundStats>,
    /// Secure-aggregation telemetry — `Some` exactly when the round ran
    /// the masked upload path.
    pub secagg: Option<SecAggRoundStats>,
}

impl ToJson for RoundReport {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            o.field("round", &self.round)
                .field("epoch", &self.epoch)
                .field("round_in_epoch", &self.round_in_epoch)
                .field("rounds_in_epoch", &self.rounds_in_epoch)
                .field("cohort", &self.cohort)
                .field("loss", &self.loss)
                .field("samples", &self.samples)
                .field("accepted", &self.accepted)
                .field("download_bytes", &self.download_bytes)
                .field("upload_bytes", &self.upload_bytes)
                .field("asynchrony", &self.asynchrony)
                .field("secagg", &self.secagg);
        });
    }
}

/// Telemetry for one round of the masked (secure-aggregation) upload
/// path: who committed at setup, who survived, and whether the unmasked
/// ring aggregate matched the plaintext quantized reference bit-for-bit.
#[derive(Clone, Debug)]
pub struct SecAggRoundStats {
    /// Masking groups this round (1 for padded aggregation; up to 3 —
    /// one per tier — under clustered aggregation).
    pub groups: usize,
    /// Clients that committed to the protocol at setup (exchanged keys
    /// and escrowed their seed shares).
    pub participants: usize,
    /// Committed clients whose masked upload arrived.
    pub survivors: usize,
    /// `survivors` split by model tier (S, M, L). Each uploaded its
    /// tier's prefix of the group layout, so `masked_bytes` is the sum
    /// over tiers of this count × the tier's `MaskedUpload` size.
    pub survivors_by_tier: [usize; 3],
    /// Committed clients that dropped after setup (churn, injected
    /// drops, or an unencodable update).
    pub dropped: usize,
    /// Dropped clients whose orphaned masks were reconstructed from
    /// escrowed shares and stripped from the aggregate.
    pub recovered: usize,
    /// Wire bytes of this round's masked uploads.
    pub masked_bytes: u64,
    /// Wire bytes of this round's setup traffic (keys + share bundles).
    pub setup_bytes: u64,
    /// `true` when every group's unmasked aggregate equalled the
    /// plaintext quantized ring sum of its survivors exactly. `false`
    /// only when a group lost too many members to recover.
    pub verified: bool,
}

impl ToJson for SecAggRoundStats {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            o.field("groups", &self.groups)
                .field("participants", &self.participants)
                .field("survivors", &self.survivors)
                .field("survivors_by_tier", &self.survivors_by_tier)
                .field("dropped", &self.dropped)
                .field("recovered", &self.recovered)
                .field("masked_bytes", &self.masked_bytes)
                .field("setup_bytes", &self.setup_bytes)
                .field("verified", &self.verified);
        });
    }
}

/// Staleness and in-flight telemetry for one asynchronous round.
#[derive(Clone, Debug)]
pub struct AsyncRoundStats {
    /// Logical clock (ticks) after this round's arrivals were absorbed.
    pub clock: u64,
    /// Clients in flight after this round's re-dispatch.
    pub in_flight: usize,
    /// `staleness_hist[s]` counts this round's updates that were `s`
    /// aggregation rounds stale when applied.
    pub staleness_hist: Vec<usize>,
    /// Largest staleness aggregated this round.
    pub max_staleness: u64,
    /// Mean staleness across this round's updates.
    pub mean_staleness: f64,
}

impl ToJson for AsyncRoundStats {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            o.field("clock", &self.clock)
                .field("in_flight", &self.in_flight)
                .field("staleness_hist", &self.staleness_hist)
                .field("max_staleness", &self.max_staleness)
                .field("mean_staleness", &self.mean_staleness);
        });
    }
}

/// One completed epoch (a full traversal of the client queue).
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// 1-based epoch number.
    pub epoch: usize,
    /// Mean local training loss across the epoch's client selections.
    pub train_loss: f64,
    /// Post-epoch evaluation — `Some` when the eval cadence hit this
    /// epoch (always on the final configured epoch unless cadence is 0).
    pub eval: Option<EvalOutput>,
}

impl ToJson for EpochReport {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            o.field("epoch", &self.epoch)
                .field("train_loss", &self.train_loss)
                .field("eval", &self.eval);
        });
    }
}

/// A typed event yielded by the session stepper.
#[derive(Clone, Debug)]
pub enum SessionEvent {
    /// A federation round completed.
    Round(RoundReport),
    /// An epoch boundary was crossed.
    Epoch(EpochReport),
}

/// Why a session stopped stepping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// All configured epochs ran.
    Completed,
    /// The NDCG plateau detector fired after `epoch`.
    EarlyStopped {
        /// Epoch after which training stopped.
        epoch: usize,
    },
    /// [`Session::request_stop`](super::Session::request_stop) was
    /// honoured after `epoch`.
    Requested {
        /// Epoch after which training stopped.
        epoch: usize,
    },
}

impl ToJson for StopReason {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            match self {
                StopReason::Completed => o.field("reason", &"completed"),
                StopReason::EarlyStopped { epoch } => {
                    o.field("reason", &"early_stopped").field("epoch", epoch)
                }
                StopReason::Requested { epoch } => {
                    o.field("reason", &"requested").field("epoch", epoch)
                }
            };
        });
    }
}

impl StopReason {
    pub(super) fn from_json(v: &JsonValue<'_>) -> Result<Self, JsonError> {
        match v.get("reason")?.as_str()? {
            "completed" => Ok(StopReason::Completed),
            "early_stopped" => Ok(StopReason::EarlyStopped {
                epoch: v.get("epoch")?.as_usize()?,
            }),
            "requested" => Ok(StopReason::Requested {
                epoch: v.get("epoch")?.as_usize()?,
            }),
            other => Err(JsonError::msg(format!("unknown stop reason `{other}`"))),
        }
    }
}

/// Per-epoch record for convergence curves (Fig. 7).
#[derive(Clone, Debug)]
pub struct EpochRecord {
    /// 1-based epoch number.
    pub epoch: usize,
    /// Mean local training loss across all client selections.
    pub train_loss: f64,
    /// Post-epoch evaluation.
    pub eval: EvalOutput,
}

impl ToJson for EpochRecord {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            o.field("epoch", &self.epoch)
                .field("train_loss", &self.train_loss)
                .field("eval", &self.eval);
        });
    }
}

impl EpochRecord {
    fn from_json(v: &JsonValue<'_>) -> Result<Self, JsonError> {
        Ok(Self {
            epoch: v.get("epoch")?.as_usize()?,
            train_loss: v.get("train_loss")?.as_f64()?,
            eval: EvalOutput::from_json(v.get("eval")?)?,
        })
    }
}

/// Metric history across a training run (one record per *evaluated*
/// epoch; with the default cadence of 1 that is every epoch).
#[derive(Clone, Debug, Default)]
pub struct History {
    /// One record per evaluated epoch.
    pub epochs: Vec<EpochRecord>,
}

impl ToJson for History {
    fn write_json(&self, out: &mut String) {
        self.epochs.write_json(out);
    }
}

impl History {
    /// The best NDCG reached and the epoch it occurred in. NaN entries
    /// (diverged runs) rank lowest instead of aborting, so diagnostics
    /// survive divergence; the result is NaN only when *every* epoch
    /// diverged.
    pub fn best_ndcg(&self) -> Option<(usize, f64)> {
        self.epochs
            .iter()
            .map(|e| (e.epoch, e.eval.overall.ndcg))
            .max_by(|a, b| {
                // total_cmp ranks NaN above +inf; push it below -inf
                // instead so a diverged epoch never wins.
                match (a.1.is_nan(), b.1.is_nan()) {
                    (true, true) => std::cmp::Ordering::Equal,
                    (true, false) => std::cmp::Ordering::Less,
                    (false, true) => std::cmp::Ordering::Greater,
                    (false, false) => a.1.total_cmp(&b.1),
                }
            })
    }

    /// The final evaluated epoch's evaluation.
    pub fn final_eval(&self) -> Option<&EvalOutput> {
        self.epochs.last().map(|e| &e.eval)
    }

    /// Restores a checkpointed history.
    pub fn from_json(v: &JsonValue<'_>) -> Result<Self, JsonError> {
        let epochs = v
            .as_arr()?
            .iter()
            .map(EpochRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { epochs })
    }
}
