//! Secure-aggregation glue: group scheduling, the masked upload path,
//! and dropout recovery (DESIGN.md §10).
//!
//! When [`TrainConfig::secagg`](crate::config::SecAggConfig) is enabled,
//! every accepted upload travels as a **quantized u64 ring vector**
//! blinded by pairwise masks — the prefix of the group's nested tier
//! bands ([`BandLayout`]) that the member's model tier holds, dense over
//! the item rows — and the server only ever sees the group sum. The
//! orchestration here has three parts:
//!
//! * **Setup when the round runs.** Both modes set a round's groups up
//!   (key exchange and Shamir escrow) as the round starts: over the
//!   scheduled cohort in synchronous mode, over the arrival batch in
//!   asynchronous mode. Setup alone advances the key-agreement RNG, so
//!   the RNG is all a checkpoint carries and a resumed run draws the
//!   same groups from it.
//! * **The masked path.** Survivors quantize their (staleness-weighted)
//!   deltas into their tier's prefix of the group layout and apply their
//!   pairwise masks, each pair over the words both members carry; the
//!   fold is *streamed* ([`fold_group`]): each worker builds one member's
//!   prefix at a time in a buffer it reuses and ring-adds it into the
//!   head of a full-length sum, so a round holds three ring vectors per
//!   worker, not two per survivor. Wrapping ring addition is exact and
//!   commutative, so the sum is the same for any thread count.
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
use hf_fedsim::transport::ClientUpdate;
use hf_models::RowGradBuffer;
use hf_secagg::{BandLayout, MaskedUpload, PayloadLayout, PreparedGroup, Quantizer};
use hf_tensor::parallel::parallel_map;
use hf_tensor::rng::{stream, SeedStream, StdRng};
use hf_tensor::ser::{obj, JsonError, JsonValue, ToJson};
use std::collections::HashMap;

/// Session-owned secure-aggregation state. Present exactly when the
/// configuration enables the masked path.
pub(super) struct SecAggState {
    /// Key-agreement RNG (its own purpose stream, advanced only by group
    /// setup, so enabling secure aggregation never perturbs scheduling,
    /// training, or fault draws).
    pub(super) rng: StdRng,
}

impl SecAggState {
    /// Fresh state from the run seed.
    pub(super) fn new(cfg: &TrainConfig) -> Self {
        Self {
            rng: stream(cfg.seed, SeedStream::SecAggSecret),
        }
    }

    /// Restores checkpointed state. Groups are set up when their round
    /// runs, so a document carrying a setup in flight (`pending`, which
    /// earlier builds wrote mid-epoch) is refused rather than resumed
    /// on different masks.
    pub(super) fn from_json(v: &JsonValue<'_>) -> Result<Self, JsonError> {
        if !v.get("pending")?.is_null() {
            return Err(JsonError::msg(
                "secagg `pending` holds a group setup in flight: this checkpoint cannot resume",
            ));
        }
        Ok(Self {
            rng: StdRng::from_json(v.get("rng")?)?,
        })
    }
}

impl ToJson for SecAggState {
    fn write_json(&self, out: &mut String) {
        // `pending` is always null: the retired in-flight setup keeps its
        // place so every document stays byte-identical.
        obj(out, |o| {
            o.field("rng", &self.rng).field("pending", &None::<bool>);
        });
    }
}

impl Session {
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

    /// Sets up the masking groups (key agreement + escrow) for the round
    /// about to run over `cohort`; `None` when secure aggregation is off.
    pub(super) fn secagg_groups(&mut self, cohort: &[usize]) -> Option<Vec<PreparedGroup>> {
        self.secagg.as_ref()?;
        let parts = self.secagg_partition(cohort);
        let round = self.round_counter;
        let st = self.secagg.as_mut().expect("checked above");
        Some(
            parts
                .iter()
                .map(|members| PreparedGroup::setup(round, members, &mut st.rng))
                .collect(),
        )
    }

    /// The ring layout shared by one masking group: the full item table
    /// in nested tier bands plus every predictor its members may upload.
    /// `None` is the one cross-tier group of padded aggregation — a
    /// member of model tier τ uploads `prefix_words(τ)` of it — and
    /// `Some(t)` the tier-`t` group of clustered aggregation.
    pub fn secagg_layout(&self, tier: Option<Tier>) -> BandLayout {
        let num_items = self.split.num_items();
        let theta_len = |t: Tier| self.server.theta(t).num_params();
        match tier {
            // Padded aggregation: each tier's columns and predictor sit
            // in its own band, so a delta lands at its natural prefix of
            // an Nl-wide row.
            None => BandLayout {
                num_items,
                widths: Tier::ALL.map(|t| self.cfg.dims.dim(t)),
                theta_lens: Tier::ALL.map(theta_len),
            },
            // Clustered: each tier masks among itself at its own width —
            // one band of columns.
            Some(t) => {
                let mut theta_lens = [0usize; 3];
                theta_lens[t.index()] = theta_len(t);
                PayloadLayout {
                    num_items,
                    width: self.cfg.dims.dim(t),
                    theta_lens,
                }
                .bands()
            }
        }
    }

    /// Ring words each member of `group` carries, in member order: the
    /// prefix of `layout` its model tier holds. The one map both masking
    /// and dropout recovery cut their pair streams by.
    fn secagg_prefixes(&self, group: &PreparedGroup, layout: &BandLayout) -> Vec<usize> {
        group
            .members
            .iter()
            .map(|&m| layout.prefix_words(self.model_groups.tier(m as usize).index()))
            .collect()
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
            survivors_by_tier: [0; 3],
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
            let prefixes = self.secagg_prefixes(group, &layout);

            let GroupFold {
                survivors,
                dropped,
                accepted: group_accepted,
                mut aggregate,
                reference,
            } = fold_group(group, &layout, &prefixes, quant, uploads, self.cfg.threads);
            accepted += group_accepted;
            stats.survivors += survivors.len();
            stats.dropped += dropped.len();
            if survivors.is_empty() {
                continue;
            }

            // Wire cost of one MaskedUpload of the survivor's tier prefix.
            for &m in &survivors {
                let i = group.index_of(m).expect("a survivor is a group member");
                let bytes = MaskedUpload::encoded_len_for(prefixes[i]);
                self.ledger.record_secagg_upload(bytes);
                stats.masked_bytes += bytes as u64;
                stats.survivors_by_tier[self.model_groups.tier(m as usize).index()] += 1;
            }

            if !dropped.is_empty() {
                match group
                    .unmask_dropped_prefix(&mut aggregate, &dropped, &survivors, |j| prefixes[j])
                {
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
        layout: &BandLayout,
        quant: Quantizer,
        tier: Option<Tier>,
        aggregate: &[u64],
    ) {
        let width = layout.widths[2];
        let mut acc = RowGradBuffer::new(width);
        let mut counts: HashMap<u32, u32> = HashMap::new();
        // One row, gathered from its three bands.
        let mut delta = vec![0f32; width];
        for row in 0..layout.num_items {
            let count = aggregate[layout.item_count_offset() + row];
            if count == 0 {
                continue;
            }
            for b in 0..3 {
                let cols = layout.band_columns(b);
                let words = &aggregate[layout.row_offset(b, row)..][..cols.len()];
                for (x, &w) in delta[cols].iter_mut().zip(words) {
                    *x = quant.decode(w);
                }
            }
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
/// members ([`mask_cost_shares`]) and, member by member, quantizes the
/// member's prefix (`prefixes[i]` words) into a buffer it reuses,
/// ring-adds it into the head of its `reference`, masks it in place and
/// ring-adds it into the head of its `aggregate`; the full-length
/// per-worker sums are then ring-added in share order. A committed
/// member survives when its (weighted) update both arrived and
/// quantized; anything else orphans its masks.
fn fold_group(
    group: &PreparedGroup,
    layout: &BandLayout,
    prefixes: &[usize],
    quant: Quantizer,
    uploads: &HashMap<u64, (ClientUpdate, f32)>,
    threads: usize,
) -> GroupFold {
    let bounds = mask_cost_shares(prefixes, threads);
    let mut partials = parallel_map(&bounds, bounds.len(), |&(start, end)| {
        let mut fold = GroupFold {
            survivors: Vec::new(),
            dropped: Vec::new(),
            accepted: 0,
            aggregate: vec![0u64; layout.len()],
            reference: vec![0u64; layout.len()],
        };
        let mut buffer = vec![0u64; layout.len()];
        for i in start..end {
            let m = group.members[i];
            let payload = &mut buffer[..prefixes[i]];
            let built = uploads.get(&m).and_then(|(update, weight)| {
                build_payload(layout, quant, update, *weight, payload)?;
                Some(update)
            });
            let Some(update) = built else {
                fold.dropped.push(m);
                continue;
            };
            if !(update.items.is_empty() && update.thetas.is_empty()) {
                fold.accepted += 1;
            }
            fold.survivors.push(m);
            ring_add(&mut fold.reference[..payload.len()], payload);
            group.mask_prefix(m, payload, |j| prefixes[j]);
            ring_add(&mut fold.aggregate[..payload.len()], payload);
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

/// Cuts the members into at most `threads` contiguous, non-empty shares
/// of about equal masking work. Member `i` expands one pair stream per
/// peer over the shorter of the two prefixes, so a Large member among
/// Small peers costs little more than they do and equal head counts
/// would leave a worker idle.
fn mask_cost_shares(prefixes: &[usize], threads: usize) -> Vec<(usize, usize)> {
    let n = prefixes.len();
    let shares = threads.min(n).max(1);
    let cost: Vec<usize> = prefixes
        .iter()
        .map(|&p| prefixes.iter().map(|&q| p.min(q)).sum::<usize>() - p)
        .collect();
    let total: usize = cost.iter().sum();
    let mut bounds = Vec::with_capacity(shares);
    let (mut start, mut done) = (0, 0);
    for (i, c) in cost.iter().enumerate() {
        done += c;
        // Close share k at the first member that brings the running
        // cost to (k + 1) / shares of the total; the last share takes
        // whoever is left.
        let (k, end) = (bounds.len(), i + 1);
        if k + 1 < shares && end < n && done * shares >= total * (k + 1) {
            bounds.push((start, end));
            start = end;
        }
    }
    bounds.push((start, n));
    bounds
}

/// Quantizes one survivor's weighted update into `payload`, the prefix
/// of the group's band layout its tier carries (zeroed here, so a worker
/// can reuse one buffer). The aggregation weight scales deltas
/// client-side (before quantization); contributor counts stay
/// unweighted, and each uploaded predictor carries its quantized weight
/// so the server can form the weighted average from the sum alone.
/// Returns `None` when any delta is non-finite — such a client cannot
/// participate and is treated as dropped (its masks get recovered like
/// any other dropout). An update wider than the prefix is a bug and
/// panics on the slice bound.
fn build_payload(
    layout: &BandLayout,
    quant: Quantizer,
    update: &ClientUpdate,
    weight: f32,
    payload: &mut [u64],
) -> Option<()> {
    payload.fill(0);
    for (row, delta) in &update.items.rows {
        let row = *row as usize;
        for b in 0..3 {
            let cols = layout.band_columns(b);
            if cols.start >= delta.len() {
                break;
            }
            let cols = cols.start..cols.end.min(delta.len());
            let slots = &mut payload[layout.row_offset(b, row)..][..cols.len()];
            for (slot, &x) in slots.iter_mut().zip(&delta[cols]) {
                *slot = quant.encode(weight * x).ok()?;
            }
        }
        payload[layout.item_count_offset() + row] = 1;
    }
    for (tier, flat) in &update.thetas {
        let t = *tier as usize;
        debug_assert_eq!(flat.len(), layout.theta_lens[t], "theta slot mismatch");
        let off = layout.theta_offset(t);
        for (slot, &x) in payload[off..off + flat.len()].iter_mut().zip(flat) {
            *slot = quant.encode(weight * x).ok()?;
        }
        payload[layout.theta_weight_offset(t)] = quant.encode(weight).ok()?;
        payload[layout.theta_count_offset(t)] = 1;
    }
    Some(())
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
    use crate::client::{train_client, ClientCtx};
    use crate::session::engine::theta_tiers;
    use crate::session::SessionBuilder;
    use crate::strategy::{Ablation, Strategy};
    use hf_dataset::{SplitDataset, SyntheticConfig};
    use hf_fedsim::comm::RoundCost;
    use hf_fedsim::transport::SparseRowUpdate;
    use hf_models::ModelKind;
    use hf_tensor::RowBlock;

    /// Three bands of 2, 1 and 1 columns; predictors of 3, 2 and 1 words.
    const LAYOUT: BandLayout = BandLayout {
        num_items: 12,
        widths: [2, 3, 4],
        theta_lens: [3, 2, 1],
    };

    /// What a tier-`t` client uploads with UDL on: its tier's columns of
    /// one row, and every predictor at or below its tier.
    fn update(t: usize, row: u32, x: f32) -> ClientUpdate {
        let delta = [x, -x, 0.5 * x, 2.0 * x];
        let width = LAYOUT.widths[t];
        let mut rows = RowBlock::new(width);
        rows.push(row, delta[..width].iter().copied());
        ClientUpdate {
            items: SparseRowUpdate { rows },
            thetas: (0..=t)
                .map(|k| (k as u8, vec![x + k as f32; LAYOUT.theta_lens[k]]))
                .collect(),
        }
    }

    /// The dense form every group carried before tier prefixes: one
    /// full-length vector per member, rows row-major at the group width.
    /// Kept as the reference the banded fold must equal once its
    /// aggregate is mapped back ([`row_major`]).
    fn build_dense_payload(
        layout: &PayloadLayout,
        quant: Quantizer,
        update: &ClientUpdate,
        weight: f32,
    ) -> Option<Vec<u64>> {
        let mut payload = vec![0u64; layout.len()];
        for (row, delta) in &update.items.rows {
            let row = *row as usize;
            let base = row * layout.width;
            for (d, &x) in delta.iter().enumerate() {
                payload[base + d] = quant.encode(weight * x).ok()?;
            }
            payload[layout.item_count_offset() + row] = 1;
        }
        for (tier, flat) in &update.thetas {
            let t = *tier as usize;
            let off = layout.theta_offset(t);
            for (i, &x) in flat.iter().enumerate() {
                payload[off + i] = quant.encode(weight * x).ok()?;
            }
            payload[layout.theta_weight_offset(t)] = quant.encode(weight).ok()?;
            payload[layout.theta_count_offset(t)] = 1;
        }
        Some(payload)
    }

    /// The dense layout with the same rows, columns and predictors.
    fn dense_of(layout: &BandLayout) -> PayloadLayout {
        PayloadLayout {
            num_items: layout.num_items,
            width: layout.widths[2],
            theta_lens: layout.theta_lens,
        }
    }

    /// A banded ring vector permuted into [`dense_of`]'s order.
    fn row_major(layout: &BandLayout, words: &[u64]) -> Vec<u64> {
        let dense = dense_of(layout);
        assert_eq!(words.len(), dense.len(), "the same words, permuted");
        let mut out = vec![0u64; dense.len()];
        for row in 0..layout.num_items {
            for b in 0..3 {
                let cols = layout.band_columns(b);
                let from = &words[layout.row_offset(b, row)..][..cols.len()];
                out[row * dense.width..][cols].copy_from_slice(from);
            }
            out[dense.item_count_offset() + row] = words[layout.item_count_offset() + row];
        }
        for t in 0..3 {
            let len = layout.theta_lens[t] + 2;
            out[dense.theta_offset(t)..][..len]
                .copy_from_slice(&words[layout.theta_offset(t)..][..len]);
        }
        out
    }

    /// Ring sum of the dense payloads of `members`' uploads.
    fn dense_sum(
        layout: &BandLayout,
        quant: Quantizer,
        uploads: &HashMap<u64, (ClientUpdate, f32)>,
        members: &[u64],
    ) -> Vec<u64> {
        let dense = dense_of(layout);
        let mut sum = vec![0u64; dense.len()];
        for m in members {
            let (upload, weight) = &uploads[m];
            let payload =
                build_dense_payload(&dense, quant, upload, *weight).expect("finite update");
            ring_add(&mut sum, &payload);
        }
        sum
    }

    #[test]
    fn streamed_fold_is_the_same_for_any_share_of_the_members() {
        let quant = Quantizer::new(24).expect("valid scale");
        let members: Vec<u64> = (0..24).map(|i| 100 + 3 * i).collect();
        let mut rng = stream(9, SeedStream::SecAggSecret);
        let group = PreparedGroup::setup(5, &members, &mut rng);
        // Mixed tiers, 5:3:2 in no particular uid order.
        let tier_of = |i: usize| [0, 1, 0, 2, 0, 1, 0, 0, 1, 2][i % 10];
        let prefixes: Vec<usize> = (0..24).map(|i| LAYOUT.prefix_words(tier_of(i))).collect();

        // Unencodable updates at the head of the first share, inside a
        // middle share and at the tail of the last; one member that
        // never delivered; one empty update (a survivor that is not an
        // accepted upload).
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
                update(tier_of(i), i as u32 % 12, x)
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
        let reference = dense_sum(&LAYOUT, quant, &uploads, &survivors);

        let folds: Vec<GroupFold> = [1, 2, 8]
            .iter()
            .map(|&threads| fold_group(&group, &LAYOUT, &prefixes, quant, &uploads, threads))
            .collect();
        for (fold, threads) in folds.iter().zip([1, 2, 8]) {
            assert_eq!(fold.survivors, survivors, "{threads} threads");
            assert_eq!(fold.dropped, dropped, "{threads} threads");
            assert_eq!(fold.accepted, survivors.len() - 1, "{threads} threads");
            assert_eq!(
                row_major(&LAYOUT, &fold.reference),
                reference,
                "{threads} threads"
            );
            assert_eq!(fold.aggregate, folds[0].aggregate, "{threads} threads");
            assert_ne!(fold.aggregate, fold.reference, "orphaned masks must blind");

            let mut aggregate = fold.aggregate.clone();
            let recovered =
                group.unmask_dropped_prefix(&mut aggregate, &fold.dropped, &fold.survivors, |j| {
                    prefixes[j]
                });
            assert_eq!(recovered, Ok(dropped.len()));
            assert_eq!(
                aggregate, fold.reference,
                "{threads} threads: masks recovered"
            );
        }
    }

    #[test]
    fn a_group_nobody_delivers_for_folds_to_nothing() {
        let quant = Quantizer::new(24).expect("valid scale");
        let mut rng = stream(9, SeedStream::SecAggSecret);
        let group = PreparedGroup::setup(1, &[3, 4, 8], &mut rng);
        let prefixes = [0, 2, 1].map(|t| LAYOUT.prefix_words(t));
        let fold = fold_group(&group, &LAYOUT, &prefixes, quant, &HashMap::new(), 8);
        assert!(fold.survivors.is_empty());
        assert_eq!(fold.dropped, vec![3, 4, 8]);
        assert_eq!(fold.accepted, 0);
        assert!(fold.aggregate.iter().all(|&w| w == 0));
    }

    #[test]
    fn shares_are_contiguous_non_empty_and_balance_the_mask_cost() {
        let [s, m, l] = [0, 1, 2].map(|t| LAYOUT.prefix_words(t));
        let cases: [&[usize]; 5] = [
            &[s; 24],
            &[l, s, s, s, s, s, s, s],
            &[s, s, s, s, s, s, m, l],
            &[s, m, l],
            &[l],
        ];
        for prefixes in cases {
            for threads in [1, 2, 3, 8, 64] {
                let bounds = mask_cost_shares(prefixes, threads);
                assert!(bounds.len() <= threads.min(prefixes.len()));
                assert_eq!(bounds[0].0, 0);
                assert_eq!(bounds[bounds.len() - 1].1, prefixes.len());
                assert!(bounds.iter().all(|&(start, end)| start < end));
                assert!(bounds.windows(2).all(|w| w[0].1 == w[1].0));
            }
        }
        // Equal members: equal head counts, as before prefixes.
        assert_eq!(
            mask_cost_shares(&[s; 24], 8),
            (0..8).map(|k| (3 * k, 3 * k + 3)).collect::<Vec<_>>()
        );
        // At the benchmark's Small and Large prefixes a Large member's
        // streams cost 1.74 Small members': the cut falls one head short
        // of the middle.
        let (s, l) = (8_562, 31_760);
        assert_eq!(
            mask_cost_shares(&[l, l, l, l, s, s, s, s, s, s, s, s], 2),
            [(0, 5), (5, 12)]
        );
    }

    /// A secagg-enabled session of `strategy` over the tiny split.
    fn masked_session(strategy: Strategy) -> Session {
        let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
        cfg.secagg.enabled = true;
        let data = SyntheticConfig::tiny().generate(9);
        SessionBuilder::new(cfg, strategy, SplitDataset::paper_split(&data, 9))
            .build()
            .expect("valid config")
    }

    /// What `cohort` would upload this round: real local training
    /// against the session's server state, with staleness-like weights.
    fn trained_uploads(s: &Session, cohort: &[usize]) -> HashMap<u64, (ClientUpdate, f32)> {
        let udl = s.strategy.ablation().udl;
        cohort
            .iter()
            .map(|&uid| {
                let tier = s.model_groups.tier(uid);
                let ctx = ClientCtx {
                    cfg: &s.cfg,
                    strategy: s.strategy,
                    split: &s.split,
                    user_id: uid,
                    model_tier: tier,
                    table: s.server.table(tier),
                    thetas: &s.server.thetas_for(tier, udl),
                    theta_tiers: &theta_tiers(tier, udl),
                    round_key: s.round_counter,
                };
                let update = train_client(&ctx, &s.users[uid]).update;
                (uid as u64, (update, 1.0 - 0.25 * (uid % 3) as f32))
            })
            .collect()
    }

    #[test]
    fn banded_aggregate_is_the_dense_aggregate_permuted() {
        let quant = Quantizer::new(16).expect("valid scale");
        for strategy in [
            Strategy::HeteFedRec(Ablation::FULL),
            Strategy::DirectlyAggregate,
            Strategy::AllSmall,
            Strategy::ClusteredFedRec,
        ] {
            let s = masked_session(strategy);
            let cohort: Vec<usize> = (0..s.split.num_users()).step_by(2).collect();
            let mut uploads = trained_uploads(&s, &cohort);
            let mut rng = stream(3, SeedStream::SecAggSecret);
            let parts = s.secagg_partition(&cohort);
            assert_eq!(
                parts.len(),
                if strategy == Strategy::ClusteredFedRec {
                    3
                } else {
                    1
                },
                "{strategy:?}"
            );
            let mut carried = [false; 3];
            for members in &parts {
                // One member of every group commits and never delivers.
                let silent = members[members.len() / 2];
                uploads.remove(&silent);
                let group = PreparedGroup::setup(s.round_counter, members, &mut rng);
                let tier = (parts.len() > 1).then(|| s.model_groups.tier(members[0] as usize));
                let layout = s.secagg_layout(tier);
                let prefixes = s.secagg_prefixes(&group, &layout);
                let survivors: Vec<u64> =
                    members.iter().copied().filter(|&m| m != silent).collect();
                let reference = dense_sum(&layout, quant, &uploads, &survivors);
                assert!(
                    reference.iter().any(|&w| w != 0),
                    "{strategy:?}: nothing trained"
                );

                for threads in [1, 2, 8] {
                    let mut fold = fold_group(&group, &layout, &prefixes, quant, &uploads, threads);
                    assert_eq!(fold.survivors, survivors, "{strategy:?}, {threads} threads");
                    assert_eq!(fold.dropped, [silent], "{strategy:?}, {threads} threads");
                    let recovered = group.unmask_dropped_prefix(
                        &mut fold.aggregate,
                        &fold.dropped,
                        &fold.survivors,
                        |j| prefixes[j],
                    );
                    assert_eq!(recovered, Ok(1), "{strategy:?}, {threads} threads");
                    assert_eq!(
                        row_major(&layout, &fold.aggregate),
                        reference,
                        "{strategy:?}, {threads} threads: not the dense aggregate"
                    );
                }

                // Nobody's update reaches past its own prefix: the words
                // a survivor omits were exact ring zeros in the dense form.
                for (&m, &prefix) in group.members.iter().zip(&prefixes) {
                    let t = s.model_groups.tier(m as usize).index();
                    carried[t] = true;
                    if let Some((upload, weight)) = uploads.get(&m) {
                        let mut full = vec![0u64; layout.len()];
                        build_payload(&layout, quant, upload, *weight, &mut full[..prefix])
                            .expect("finite update");
                        let dense = build_dense_payload(&dense_of(&layout), quant, upload, *weight)
                            .expect("finite update");
                        assert_eq!(row_major(&layout, &full), dense, "{strategy:?}: member {m}");
                    }
                }
            }
            let expected = if strategy == Strategy::AllSmall {
                [true, false, false]
            } else {
                [true; 3]
            };
            assert_eq!(carried, expected, "{strategy:?}: tiers in the cohort");
        }
    }

    #[test]
    fn a_prefix_is_table_iii_plus_counts_and_predictor_trailers() {
        let s = masked_session(Strategy::HeteFedRec(Ablation::FULL));
        let layout = s.secagg_layout(None);
        let items = s.split.num_items();
        let thetas: Vec<usize> = Tier::ALL
            .iter()
            .map(|&t| s.server.theta(t).num_params())
            .collect();
        for (i, &t) in Tier::ALL.iter().enumerate() {
            let table_iii = RoundCost::dense(items, s.cfg.dims.dim(t), &thetas[..=i]);
            assert_eq!(
                layout.prefix_words(i),
                table_iii.total() + items + 2 * (i + 1),
                "{t:?}"
            );
        }
        assert_eq!(layout.len(), dense_of(&layout).len());
        // A clustered group is one band of columns at the tier's width.
        for (i, &t) in Tier::ALL.iter().enumerate() {
            let own = s.secagg_layout(Some(t));
            assert_eq!(own.widths, [s.cfg.dims.dim(t); 3]);
            assert_eq!(
                own.prefix_words(i),
                items * (s.cfg.dims.dim(t) + 1) + thetas[i] + 2 * (i + 1)
            );
        }
    }
}
