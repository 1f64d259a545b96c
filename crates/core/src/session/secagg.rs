//! Secure-aggregation glue: group scheduling, the masked upload path,
//! and dropout recovery (DESIGN.md §10).
//!
//! When [`TrainConfig::secagg`](crate::config::SecAggConfig) is enabled,
//! every accepted upload travels as a **dense quantized u64 ring vector**
//! blinded by pairwise masks, and the server only ever sees the group
//! sum. The orchestration here has three parts:
//!
//! * **Setup scheduling.** Synchronous rounds pipeline: at the end of
//!   round `r` the session prepares the key exchange and Shamir escrow
//!   for the *next* cohort in the epoch queue, so a mid-epoch checkpoint
//!   carries in-flight escrowed shares (the checkpoint v3 state) and a
//!   resumed run replays them byte-identically. Asynchronous rounds form
//!   their group at collection time (arrival batches are not known in
//!   advance; overlapping setup with training is a recorded follow-up).
//! * **The masked path.** Survivors quantize their (staleness-weighted)
//!   deltas into the group layout and apply their pairwise masks; the
//!   fold is *streamed* ([`fold_group`]): each worker builds, folds and
//!   drops one member's payload at a time, so a round holds three ring
//!   vectors per worker, not two per survivor. Wrapping ring addition is
//!   exact and commutative, so the sum is the same for any thread count.
//! * **Recovery + self-check.** Members that committed at setup but
//!   never delivered (churn, injected drops, or an unencodable update)
//!   leave orphaned masks; survivors reveal the dropped member's
//!   escrowed shares and the session strips those masks. The engine then
//!   asserts the unmasked aggregate equals the plaintext quantized ring
//!   sum of the survivors **bit-for-bit** — the proof obligation the
//!   integration tests and the `secure_aggregation` example surface.

use super::reports::SecAggRoundStats;
use super::Session;
use crate::config::TrainConfig;
use hf_dataset::Tier;
use hf_fedsim::parallel::parallel_map;
use hf_fedsim::transport::ClientUpdate;
use hf_models::RowGradBuffer;
use hf_secagg::{PayloadLayout, PreparedGroup, Quantizer};
use hf_tensor::rng::{stream, SeedStream, StdRng};
use hf_tensor::ser::{obj, JsonError, JsonValue, ToJson};
use std::collections::HashMap;
use std::time::Instant;

/// Session-owned secure-aggregation state. Present exactly when the
/// configuration enables the masked path.
pub(super) struct SecAggState {
    /// Key-agreement RNG (its own purpose stream, advanced only by group
    /// setup, so enabling secure aggregation never perturbs scheduling,
    /// training, or fault draws).
    pub(super) rng: StdRng,
    /// Pipelined setup for the next synchronous cohort, if one has been
    /// prepared. Checkpointed: this is the in-flight round state that
    /// makes mid-epoch resume byte-identical.
    pub(super) pending: Option<PendingSetup>,
    /// Wall-clock nanoseconds spent in the streamed fold: quantizing,
    /// deriving and applying masks, ring-adding. Not serialized (timing
    /// is an observation, not state).
    pub(super) mask_nanos: u64,
    /// Wall-clock nanoseconds spent reconstructing dropped members'
    /// secrets and stripping orphaned masks. Not serialized.
    pub(super) recovery_nanos: u64,
}

/// A prepared (but not yet consumed) group setup for one future round.
pub(super) struct PendingSetup {
    /// The round the setup was prepared for.
    pub(super) round: u64,
    /// The scheduled cohort it was prepared against.
    pub(super) cohort: Vec<usize>,
    /// One prepared group per masking partition.
    pub(super) groups: Vec<PreparedGroup>,
}

impl SecAggState {
    /// Fresh state from the run seed.
    pub(super) fn new(cfg: &TrainConfig) -> Self {
        Self {
            rng: stream(cfg.seed, SeedStream::SecAggSecret),
            pending: None,
            mask_nanos: 0,
            recovery_nanos: 0,
        }
    }

    /// Restores checkpointed state, validating uids against the
    /// population size.
    pub(super) fn from_json(v: &JsonValue<'_>, num_users: usize) -> Result<Self, JsonError> {
        let pending = match v.get("pending")? {
            p if p.is_null() => None,
            p => {
                let cohort = p.get("cohort")?.as_usize_vec()?;
                if cohort.iter().any(|&u| u >= num_users) {
                    return Err(JsonError::msg(
                        "pending secagg cohort references unknown client",
                    ));
                }
                let mut groups = Vec::new();
                for g in p.get("groups")?.as_arr()? {
                    let g = PreparedGroup::from_json(g)?;
                    if g.members.iter().any(|&m| m as usize >= num_users) {
                        return Err(JsonError::msg(
                            "pending secagg group references unknown client",
                        ));
                    }
                    groups.push(g);
                }
                Some(PendingSetup {
                    round: p.get("round")?.as_u64()?,
                    cohort,
                    groups,
                })
            }
        };
        Ok(Self {
            rng: StdRng::from_json(v.get("rng")?)?,
            pending,
            mask_nanos: 0,
            recovery_nanos: 0,
        })
    }
}

impl ToJson for SecAggState {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            o.field("rng", &self.rng).field("pending", &self.pending);
        });
    }
}

impl ToJson for PendingSetup {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            o.field("round", &self.round)
                .field("cohort", &self.cohort)
                .field("groups", &self.groups);
        });
    }
}

impl Session {
    /// Wall-clock nanoseconds spent in (the streamed quantize + mask +
    /// fold, dropout recovery) since construction — `None` when secure
    /// aggregation is off. `examples/secure_aggregation.rs` prints it as
    /// protocol overhead.
    pub fn secagg_timing(&self) -> Option<(u64, u64)> {
        self.secagg
            .as_ref()
            .map(|st| (st.mask_nanos, st.recovery_nanos))
    }

    /// Partitions a scheduled cohort into masking groups: the eligible
    /// members (those whose uploads the strategy accepts) form one
    /// Nl-wide group under padded aggregation, or one group per model
    /// tier under clustered aggregation. Empty partitions are dropped.
    fn secagg_partition(&self, cohort: &[usize]) -> Vec<Vec<u64>> {
        let mut eligible: Vec<usize> = cohort
            .iter()
            .copied()
            .filter(|&uid| self.strategy.accepts_update(self.data_groups.tier(uid)))
            .collect();
        eligible.sort_unstable();
        let parts: Vec<Vec<u64>> = if self.strategy.aggregates_across_tiers() {
            vec![eligible.iter().map(|&u| u as u64).collect()]
        } else {
            Tier::ALL
                .iter()
                .map(|&t| {
                    eligible
                        .iter()
                        .filter(|&&u| self.model_groups.tier(u) == t)
                        .map(|&u| u as u64)
                        .collect()
                })
                .collect()
        };
        parts.into_iter().filter(|m| !m.is_empty()).collect()
    }

    /// Runs the setup phase (key agreement + escrow) for one cohort.
    fn secagg_setup(&mut self, round: u64, cohort: &[usize]) -> Vec<PreparedGroup> {
        let parts = self.secagg_partition(cohort);
        let st = self.secagg.as_mut().expect("secagg state present");
        parts
            .iter()
            .map(|members| PreparedGroup::setup(round, members, &mut st.rng))
            .collect()
    }

    /// Obtains the group setups for the synchronous round about to run:
    /// consumes the pipelined setup when it matches this round and
    /// cohort, otherwise (first round of an epoch, or a resume whose
    /// pending state was for different work) draws a fresh one.
    pub(super) fn secagg_groups_for_round(
        &mut self,
        cohort: &[usize],
    ) -> Option<Vec<PreparedGroup>> {
        self.secagg.as_ref()?;
        let round = self.round_counter;
        let st = self.secagg.as_mut().expect("checked above");
        if let Some(pending) = st.pending.take() {
            if pending.round == round && pending.cohort == cohort {
                return Some(pending.groups);
            }
            // Stale (mode flip or abandoned epoch): discard and redraw.
        }
        Some(self.secagg_setup(round, cohort))
    }

    /// Group setup for an asynchronous arrival batch, formed at
    /// collection time.
    pub(super) fn secagg_groups_for_batch(
        &mut self,
        cohort: &[usize],
    ) -> Option<Vec<PreparedGroup>> {
        self.secagg.as_ref()?;
        Some(self.secagg_setup(self.round_counter, cohort))
    }

    /// Pipelines the setup for the next cohort in the synchronous epoch
    /// queue, so its escrowed shares exist before the round starts (and
    /// land in any checkpoint taken between the rounds).
    pub(super) fn secagg_prepare_next(&mut self) {
        if self.secagg.is_none() {
            return;
        }
        let Some(next) = self.pending.front().cloned() else {
            return;
        };
        let round = self.round_counter + 1;
        let groups = self.secagg_setup(round, &next);
        let st = self.secagg.as_mut().expect("secagg state present");
        st.pending = Some(PendingSetup {
            round,
            cohort: next,
            groups,
        });
    }

    /// The dense ring layout shared by one group: full item table at the
    /// group width plus every predictor the group's members may upload.
    fn secagg_layout(&self, tier: Option<Tier>) -> PayloadLayout {
        match tier {
            // Padded aggregation: deltas land at their natural prefix of
            // an Nl-wide row, and any member may carry any predictor.
            None => PayloadLayout {
                num_items: self.split.num_items(),
                width: self.cfg.dims.largest(),
                theta_lens: [
                    self.server.theta(Tier::Small).num_params(),
                    self.server.theta(Tier::Medium).num_params(),
                    self.server.theta(Tier::Large).num_params(),
                ],
            },
            // Clustered: each tier masks among itself at its own width.
            Some(t) => {
                let mut theta_lens = [0usize; 3];
                theta_lens[t.index()] = self.server.theta(t).num_params();
                PayloadLayout {
                    num_items: self.split.num_items(),
                    width: self.cfg.dims.dim(t),
                    theta_lens,
                }
            }
        }
    }

    /// Executes the masked aggregation for one round: builds each
    /// survivor's quantized payload, masks and ring-folds them, recovers
    /// dropped members' masks from escrow, verifies the unmasked sum
    /// against the plaintext quantized reference, and applies the
    /// decoded aggregate through the same server seams the plaintext
    /// path uses. Returns the round stats plus the accepted-upload count
    /// (survivors with a non-empty update) and masked wire bytes.
    pub(super) fn secagg_aggregate(
        &mut self,
        groups: &[PreparedGroup],
        uploads: &HashMap<u64, (ClientUpdate, f32)>,
    ) -> (SecAggRoundStats, usize, u64) {
        let quant = Quantizer::new(self.cfg.secagg.scale_bits)
            .expect("scale_bits validated at session build");
        let clustered = !self.strategy.aggregates_across_tiers();
        let mut stats = SecAggRoundStats {
            groups: groups.len(),
            participants: 0,
            survivors: 0,
            dropped: 0,
            recovered: 0,
            masked_bytes: 0,
            setup_bytes: groups.iter().map(PreparedGroup::setup_bytes).sum(),
            verified: true,
        };
        let mut accepted = 0usize;

        for group in groups {
            stats.participants += group.member_count();
            let tier = clustered.then(|| self.model_groups.tier(group.members[0] as usize));
            let layout = self.secagg_layout(tier);

            let mask_start = Instant::now();
            let GroupFold {
                survivors,
                dropped,
                accepted: group_accepted,
                mut aggregate,
                reference,
            } = fold_group(group, &layout, quant, uploads, self.cfg.threads);
            self.secagg.as_mut().expect("secagg state").mask_nanos +=
                mask_start.elapsed().as_nanos() as u64;
            accepted += group_accepted;
            stats.survivors += survivors.len();
            stats.dropped += dropped.len();
            if survivors.is_empty() {
                continue;
            }

            // Wire cost of one MaskedUpload: tag + round + uid + count +
            // 8 bytes per ring word.
            let bytes = 1 + 8 + 8 + 4 + 8 * layout.len();
            for _ in &survivors {
                self.ledger.record_secagg_upload(bytes);
                stats.masked_bytes += bytes as u64;
            }

            if !dropped.is_empty() {
                let recovery_start = Instant::now();
                let recovered = group.unmask_dropped(&mut aggregate, &dropped, &survivors);
                self.secagg.as_mut().expect("secagg state").recovery_nanos +=
                    recovery_start.elapsed().as_nanos() as u64;
                match recovered {
                    Ok(n) => stats.recovered += n,
                    Err(_) => {
                        // Below the escrow threshold: the aggregate is
                        // unrecoverable, so the group's round is lost.
                        stats.verified = false;
                        continue;
                    }
                }
            }

            // The proof obligation: after recovery, the masked aggregate
            // must equal the plaintext quantized ring sum bit-for-bit.
            assert_eq!(
                aggregate, reference,
                "secure-aggregation self-check failed: unmasked sum diverged \
                 from the plaintext quantized reference"
            );

            self.secagg_apply(&layout, quant, tier, &aggregate);
        }

        if !groups.is_empty() {
            self.ledger.record_secagg_setup(stats.setup_bytes);
        }
        let masked_bytes = stats.masked_bytes;
        (stats, accepted, masked_bytes)
    }

    /// Decodes an unmasked ring aggregate and applies it through
    /// [`ServerState::apply_item_aggregate`](crate::server::ServerState::apply_item_aggregate)
    /// / [`apply_theta_aggregate`](crate::server::ServerState::apply_theta_aggregate)
    /// — the same seams the plaintext path reduces to.
    fn secagg_apply(
        &mut self,
        layout: &PayloadLayout,
        quant: Quantizer,
        tier: Option<Tier>,
        aggregate: &[u64],
    ) {
        let mut acc = RowGradBuffer::new(layout.width);
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for row in 0..layout.num_items {
            let count = aggregate[layout.item_count_offset() + row];
            if count == 0 {
                continue;
            }
            let base = row * layout.width;
            let delta: Vec<f32> = aggregate[base..base + layout.width]
                .iter()
                .map(|&w| quant.decode(w))
                .collect();
            acc.accumulate(row as u32, 1.0, &delta);
            counts.insert(row as u32, count.min(u32::MAX as u64) as u32);
        }
        if !acc.is_empty() {
            let tiers: Vec<Tier> = match tier {
                Some(t) => vec![t],
                None => Tier::ALL.to_vec(),
            };
            self.server.apply_item_aggregate(&mut acc, &counts, &tiers);
        }
        for (t, &len) in Tier::ALL.iter().zip(&layout.theta_lens) {
            if len == 0 {
                continue;
            }
            let count = aggregate[layout.theta_count_offset(t.index())] as usize;
            let weight_sum = quant.decode(aggregate[layout.theta_weight_offset(t.index())]);
            let off = layout.theta_offset(t.index());
            let sum: Vec<f32> = aggregate[off..off + len]
                .iter()
                .map(|&w| quant.decode(w))
                .collect();
            self.server
                .apply_theta_aggregate(*t, sum, count, weight_sum);
        }
    }
}

/// One group's masked uploads, folded.
struct GroupFold {
    /// Members whose update arrived and quantized, in member order.
    survivors: Vec<u64>,
    /// Committed members that delivered nothing usable, in member order;
    /// their masks are still in `aggregate`.
    dropped: Vec<u64>,
    /// Survivors with a non-empty update.
    accepted: usize,
    /// Ring sum of the survivors' masked payloads.
    aggregate: Vec<u64>,
    /// Ring sum of the same payloads before masking.
    reference: Vec<u64>,
}

/// Folds a group's uploads without ever holding more than one payload
/// per worker. Each of `threads` workers takes a contiguous share of the
/// members (masking costs the same for every member) and, member by
/// member, quantizes the payload, ring-adds it into its `reference`,
/// masks it in place, ring-adds it into its `aggregate` and drops it;
/// the per-worker sums are then ring-added in share order. A committed
/// member survives when its (weighted) update both arrived and
/// quantized; anything else orphans its masks.
fn fold_group(
    group: &PreparedGroup,
    layout: &PayloadLayout,
    quant: Quantizer,
    uploads: &HashMap<u64, (ClientUpdate, f32)>,
    threads: usize,
) -> GroupFold {
    let members = &group.members;
    let shares = threads.min(members.len()).max(1);
    let bounds: Vec<(usize, usize)> = (0..shares)
        .map(|s| (s * members.len() / shares, (s + 1) * members.len() / shares))
        .collect();
    let mut partials = parallel_map(&bounds, shares, |&(start, end)| {
        let mut fold = GroupFold {
            survivors: Vec::new(),
            dropped: Vec::new(),
            accepted: 0,
            aggregate: vec![0u64; layout.len()],
            reference: vec![0u64; layout.len()],
        };
        for &m in &members[start..end] {
            let built = uploads.get(&m).and_then(|(update, weight)| {
                let payload = build_payload(layout, quant, update, *weight)?;
                Some((update, payload))
            });
            let Some((update, mut payload)) = built else {
                fold.dropped.push(m);
                continue;
            };
            if !(update.items.is_empty() && update.thetas.is_empty()) {
                fold.accepted += 1;
            }
            fold.survivors.push(m);
            ring_add(&mut fold.reference, &payload);
            group.mask_payload(m, &mut payload);
            ring_add(&mut fold.aggregate, &payload);
        }
        fold
    })
    .into_iter();
    let mut total = partials.next().expect("at least one share");
    for part in partials {
        total.survivors.extend(part.survivors);
        total.dropped.extend(part.dropped);
        total.accepted += part.accepted;
        ring_add(&mut total.aggregate, &part.aggregate);
        ring_add(&mut total.reference, &part.reference);
    }
    total
}

/// Quantizes one survivor's weighted update into the group's dense ring
/// layout. The aggregation weight scales deltas client-side (before
/// quantization); contributor counts stay unweighted, and each uploaded
/// predictor carries its quantized weight so the server can form the
/// weighted average from the sum alone. Returns `None` when any delta is
/// non-finite — such a client cannot participate and is treated as
/// dropped (its masks get recovered like any other dropout).
fn build_payload(
    layout: &PayloadLayout,
    quant: Quantizer,
    update: &ClientUpdate,
    weight: f32,
) -> Option<Vec<u64>> {
    let mut payload = vec![0u64; layout.len()];
    for (row, delta) in &update.items.rows {
        let row = *row as usize;
        debug_assert!(delta.len() <= layout.width, "delta wider than group slot");
        let base = row * layout.width;
        for (d, &x) in delta.iter().enumerate() {
            payload[base + d] = quant.encode(weight * x).ok()?;
        }
        payload[layout.item_count_offset() + row] = 1;
    }
    for (tier, flat) in &update.thetas {
        let t = *tier as usize;
        debug_assert_eq!(flat.len(), layout.theta_lens[t], "theta slot mismatch");
        let off = layout.theta_offset(t);
        for (i, &x) in flat.iter().enumerate() {
            payload[off + i] = quant.encode(weight * x).ok()?;
        }
        payload[layout.theta_weight_offset(t)] = quant.encode(weight).ok()?;
        payload[layout.theta_count_offset(t)] = 1;
    }
    Some(payload)
}

/// Wrapping element-wise ring addition.
fn ring_add(acc: &mut [u64], words: &[u64]) {
    debug_assert_eq!(acc.len(), words.len());
    for (a, &w) in acc.iter_mut().zip(words) {
        *a = a.wrapping_add(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_fedsim::transport::SparseRowUpdate;

    const LAYOUT: PayloadLayout = PayloadLayout {
        num_items: 12,
        width: 4,
        theta_lens: [3, 0, 0],
    };

    fn update(row: u32, x: f32) -> ClientUpdate {
        ClientUpdate {
            items: SparseRowUpdate::new(4, vec![(row, vec![x, -x, 0.5 * x, 2.0 * x])]),
            thetas: vec![(0, vec![x, x + 0.25, -x])],
        }
    }

    #[test]
    fn streamed_fold_is_the_same_for_any_share_of_the_members() {
        let quant = Quantizer::new(24).expect("valid scale");
        let members: Vec<u64> = (0..24).map(|i| 100 + 3 * i).collect();
        let mut rng = stream(9, SeedStream::SecAggSecret);
        let group = PreparedGroup::setup(5, &members, &mut rng);

        // Unencodable updates at the head of the first share, inside a
        // middle share (8 workers: members 9..12) and at the tail of the
        // last; one member that never delivered; one empty update (a
        // survivor that is not an accepted upload).
        let poisoned = [members[0], members[11], members[23]];
        let silent = members[6];
        let empty = members[17];
        let mut uploads: HashMap<u64, (ClientUpdate, f32)> = HashMap::new();
        for (i, &m) in members.iter().enumerate() {
            let x = if poisoned.contains(&m) {
                f32::NAN
            } else {
                0.01 * (i as f32 + 1.0)
            };
            let upload = if m == empty {
                ClientUpdate::default()
            } else {
                update(i as u32 % 12, x)
            };
            if m != silent {
                uploads.insert(m, (upload, 1.0 + 0.125 * (i % 3) as f32));
            }
        }
        let dropped: Vec<u64> = vec![members[0], silent, members[11], members[23]];
        let survivors: Vec<u64> = members
            .iter()
            .copied()
            .filter(|m| !dropped.contains(m))
            .collect();
        let mut reference = vec![0u64; LAYOUT.len()];
        for m in &survivors {
            let (upload, weight) = &uploads[m];
            let payload = build_payload(&LAYOUT, quant, upload, *weight).expect("finite update");
            ring_add(&mut reference, &payload);
        }

        let folds: Vec<GroupFold> = [1, 2, 8]
            .iter()
            .map(|&threads| fold_group(&group, &LAYOUT, quant, &uploads, threads))
            .collect();
        for (fold, threads) in folds.iter().zip([1, 2, 8]) {
            assert_eq!(fold.survivors, survivors, "{threads} threads");
            assert_eq!(fold.dropped, dropped, "{threads} threads");
            assert_eq!(fold.accepted, survivors.len() - 1, "{threads} threads");
            assert_eq!(fold.reference, reference, "{threads} threads");
            assert_eq!(fold.aggregate, folds[0].aggregate, "{threads} threads");
            assert_ne!(fold.aggregate, reference, "orphaned masks must blind");

            let mut aggregate = fold.aggregate.clone();
            let recovered = group.unmask_dropped(&mut aggregate, &fold.dropped, &fold.survivors);
            assert_eq!(recovered, Ok(dropped.len()));
            assert_eq!(aggregate, reference, "{threads} threads: masks recovered");
        }
    }

    #[test]
    fn a_group_nobody_delivers_for_folds_to_nothing() {
        let quant = Quantizer::new(24).expect("valid scale");
        let mut rng = stream(9, SeedStream::SecAggSecret);
        let group = PreparedGroup::setup(1, &[3, 4, 8], &mut rng);
        let fold = fold_group(&group, &LAYOUT, quant, &HashMap::new(), 8);
        assert!(fold.survivors.is_empty());
        assert_eq!(fold.dropped, vec![3, 4, 8]);
        assert_eq!(fold.accepted, 0);
        assert!(fold.aggregate.iter().all(|&w| w == 0));
    }
}
