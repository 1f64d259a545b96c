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
//!   same groups from it. Each [`MaskedGroup`] also fixes its layout and
//!   the prefix every member carries before anyone trains.
//! * **The masked path.** A member masks its own upload, as a device
//!   would: the worker that trained it quantizes the (staleness-weighted)
//!   delta into its tier's prefix of the group layout and applies its
//!   pairwise masks, each pair over the words both members carry
//!   ([`MaskedGroup::mask`]). The round's thread ring-adds each masked
//!   prefix into its group's running [`GroupSum`] as it arrives, in the
//!   same sink that folds plaintext uploads, so a round holds one sum
//!   pair per group plus the fan-out's reorder window, never the
//!   cohort's uploads. Wrapping ring addition is exact and commutative,
//!   so the sum is the same in any arrival order and for any thread
//!   count.
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
use hf_secagg::{BandLayout, MaskedUpload, PreparedGroup, Quantizer};
use hf_tensor::rng::{stream, SeedStream, StdRng};
use hf_tensor::ser::{obj, JsonError, JsonValue, ToJson};
use std::collections::HashMap;
use std::sync::Mutex;

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
    /// about to run over `cohort`, each with its layout and its members'
    /// prefixes; `None` when secure aggregation is off.
    pub(super) fn secagg_groups(&mut self, cohort: &[usize]) -> Option<Vec<MaskedGroup>> {
        self.secagg.as_ref()?;
        let quant = Quantizer::new(self.cfg.secagg.scale_bits)
            .expect("scale_bits validated at session build");
        let clustered = !self.strategy.aggregates_across_tiers();
        let round = self.round_counter;
        let parts = self.secagg_partition(cohort);
        let mut groups = Vec::with_capacity(parts.len());
        for members in &parts {
            let st = self.secagg.as_mut().expect("checked above");
            let group = PreparedGroup::setup(round, members, &mut st.rng);
            let tier = clustered.then(|| self.model_groups.tier(members[0] as usize));
            let layout = self.secagg_layout(tier);
            let sum = Mutex::new(GroupSum {
                delivered: vec![false; members.len()],
                accepted: 0,
                aggregate: vec![0; layout.len()],
                reference: vec![0; layout.len()],
            });
            groups.push(MaskedGroup {
                prefixes: self.secagg_prefixes(&group, &layout),
                group,
                tier,
                layout,
                quant,
                sum,
            });
        }
        Some(groups)
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
                BandLayout {
                    num_items,
                    widths: [self.cfg.dims.dim(t); 3],
                    theta_lens,
                }
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

    /// Finishes the masked aggregation for one round over group sums the
    /// members completed as they delivered: recovers dropped members'
    /// masks from escrow, verifies each unmasked sum against its plaintext
    /// quantized reference, and applies the decoded aggregate through the
    /// same server seams the plaintext path uses. Returns the round stats
    /// plus the accepted-upload count (survivors with a non-empty update)
    /// and masked wire bytes.
    pub(super) fn secagg_aggregate(
        &mut self,
        groups: Vec<MaskedGroup>,
    ) -> (SecAggRoundStats, usize, u64) {
        let mut stats = SecAggRoundStats {
            groups: groups.len(),
            participants: 0,
            survivors: 0,
            survivors_by_tier: [0; 3],
            dropped: 0,
            recovered: 0,
            masked_bytes: 0,
            setup_bytes: groups.iter().map(|g| g.group.setup_bytes()).sum(),
            verified: true,
        };
        let mut accepted = 0usize;

        if !groups.is_empty() {
            self.ledger.record_secagg_setup(stats.setup_bytes);
        }
        for masked in groups {
            let (group, prefixes) = (&masked.group, &masked.prefixes);
            let sum = masked.sum.into_inner().expect("group sum poisoned");
            let (survivors, dropped) = sum.survivors_and_dropped(group);
            let mut aggregate = sum.aggregate;
            stats.participants += group.member_count();
            accepted += sum.accepted;
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
                aggregate, sum.reference,
                "secure-aggregation self-check failed: unmasked sum diverged \
                 from the plaintext quantized reference"
            );

            self.secagg_apply(&masked.layout, masked.quant, masked.tier, &aggregate);
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

/// One masking group as its round runs: the setup, the ring layout the
/// members share, what each carries and how they quantize — fixed before
/// the fan-out — and the running sums the members' uploads join as they
/// arrive, from whichever worker trained them.
pub(super) struct MaskedGroup {
    pub(super) group: PreparedGroup,
    /// `Some(t)` for the tier-`t` group of clustered aggregation.
    tier: Option<Tier>,
    layout: BandLayout,
    /// Ring words each member carries, in member order.
    prefixes: Vec<usize>,
    quant: Quantizer,
    sum: Mutex<GroupSum>,
}

/// A masking group's running sums.
struct GroupSum {
    /// Whether each member (in member order) delivered a masked upload.
    delivered: Vec<bool>,
    /// Delivered members with a non-empty update.
    accepted: usize,
    /// Ring sum of the delivered masked prefixes.
    aggregate: Vec<u64>,
    /// Ring sum of the same prefixes before masking.
    reference: Vec<u64>,
}

impl MaskedGroup {
    /// Delivers member `uid`'s upload the way its device would: its
    /// weighted update quantized into the prefix its tier carries and
    /// blinded by its pairwise masks, then ring-added into the group's
    /// aggregate — and the same update's quantized words into the
    /// reference the self-check compares against. An update that does
    /// not quantize is never delivered; the member's masks are then
    /// recovered like any other dropout's. Ring addition is exact and
    /// commutative, so members deliver from any thread in any order.
    pub(super) fn deliver(&self, uid: u64, update: &ClientUpdate, weight: f32) {
        let i = self.group.index_of(uid).expect("a member delivers");
        let mut words = vec![0u64; self.prefixes[i]];
        if add_payload(&self.layout, self.quant, update, weight, &mut words).is_none() {
            return;
        }
        self.group
            .mask_prefix(uid, &mut words, |j| self.prefixes[j]);
        let mut sum = self.sum.lock().expect("group sum poisoned");
        ring_add(&mut sum.aggregate[..words.len()], &words);
        add_payload(&self.layout, self.quant, update, weight, &mut sum.reference)
            .expect("the update quantized for its own upload");
        sum.delivered[i] = true;
        if !(update.items.is_empty() && update.thetas.is_empty()) {
            sum.accepted += 1;
        }
    }
}

impl GroupSum {
    /// `group`'s members that delivered and those that did not (whose
    /// masks are still in the aggregate), each in member order.
    fn survivors_and_dropped(&self, group: &PreparedGroup) -> (Vec<u64>, Vec<u64>) {
        let (mut survivors, mut dropped) = (Vec::new(), Vec::new());
        for (&m, &delivered) in group.members.iter().zip(&self.delivered) {
            if delivered {
                survivors.push(m);
            } else {
                dropped.push(m);
            }
        }
        (survivors, dropped)
    }
}

/// Ring-adds one member's weighted update, quantized, into `target`: the
/// head of the group's band layout, at least the prefix the member's
/// tier carries. The aggregation weight scales deltas client-side
/// (before quantization); contributor counts stay unweighted, and each
/// uploaded predictor carries its quantized weight so the server can
/// form the weighted average from the sum alone. Returns `None` when any
/// delta is non-finite — such a client cannot participate and is treated
/// as dropped — after adding the words before it, so a member builds
/// into a buffer of its own first. An update wider than `target` is a
/// bug and panics on the slice bound.
fn add_payload(
    layout: &BandLayout,
    quant: Quantizer,
    update: &ClientUpdate,
    weight: f32,
    target: &mut [u64],
) -> Option<()> {
    let add = |slot: &mut u64, x: f32| -> Option<()> {
        *slot = slot.wrapping_add(quant.encode(x).ok()?);
        Some(())
    };
    for (row, delta) in &update.items.rows {
        let row = *row as usize;
        for b in 0..3 {
            let cols = layout.band_columns(b);
            if cols.start >= delta.len() {
                break;
            }
            let cols = cols.start..cols.end.min(delta.len());
            let slots = &mut target[layout.row_offset(b, row)..][..cols.len()];
            for (slot, &x) in slots.iter_mut().zip(&delta[cols]) {
                add(slot, weight * x)?;
            }
        }
        target[layout.item_count_offset() + row] += 1;
    }
    for (tier, flat) in &update.thetas {
        let t = *tier as usize;
        debug_assert_eq!(flat.len(), layout.theta_lens[t], "theta slot mismatch");
        let off = layout.theta_offset(t);
        for (slot, &x) in target[off..off + flat.len()].iter_mut().zip(flat) {
            add(slot, weight * x)?;
        }
        add(&mut target[layout.theta_weight_offset(t)], weight)?;
        target[layout.theta_count_offset(t)] += 1;
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
    use hf_secagg::PayloadLayout;
    use hf_tensor::RowBlock;

    /// Three bands of 2, 1 and 1 columns; predictors of 3, 2 and 1 words.
    const LAYOUT: BandLayout = BandLayout {
        num_items: 12,
        widths: [2, 3, 4],
        theta_lens: [3, 2, 1],
    };

    /// One member's upload and its aggregation weight.
    type Upload = (u64, ClientUpdate, f32);

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

    /// The arrival orders every stream is fed in, by name.
    const ORDERS: [&str; 3] = ["member order", "reversed", "interleaved"];

    /// [`ORDERS`] over `n` uploads; interleaved takes them from both ends
    /// in turn.
    fn arrival_orders(n: usize) -> [Vec<usize>; 3] {
        let interleaved = (0..n)
            .map(|k| if k % 2 == 0 { k / 2 } else { n - 1 - k / 2 })
            .collect();
        [(0..n).collect(), (0..n).rev().collect(), interleaved]
    }

    /// `group` over `layout`, its members carrying `prefixes`, before
    /// anyone delivers.
    fn masked_group(
        group: PreparedGroup,
        tier: Option<Tier>,
        layout: BandLayout,
        prefixes: Vec<usize>,
        quant: Quantizer,
    ) -> MaskedGroup {
        let sum = GroupSum {
            delivered: vec![false; group.member_count()],
            accepted: 0,
            aggregate: vec![0; layout.len()],
            reference: vec![0; layout.len()],
        };
        let sum = Mutex::new(sum);
        MaskedGroup {
            group,
            tier,
            layout,
            prefixes,
            quant,
            sum,
        }
    }

    /// A copy of `masked` that nobody has delivered to yet.
    fn fresh(masked: &MaskedGroup) -> MaskedGroup {
        let (group, prefixes) = (masked.group.clone(), masked.prefixes.clone());
        masked_group(group, masked.tier, masked.layout, prefixes, masked.quant)
    }

    /// The sums a fresh copy of `masked` holds once the members among
    /// `uploads` have delivered in `order`, as members finishing in that
    /// order would.
    fn arrive(masked: &MaskedGroup, uploads: &[Upload], order: &[usize]) -> GroupSum {
        let group = fresh(masked);
        for (m, update, weight) in order.iter().map(|&k| &uploads[k]) {
            if group.group.index_of(*m).is_some() {
                group.deliver(*m, update, *weight);
            }
        }
        group.sum.into_inner().expect("group sum poisoned")
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
        uploads: &[Upload],
        members: &[u64],
    ) -> Vec<u64> {
        let dense = dense_of(layout);
        let mut sum = vec![0u64; dense.len()];
        for (_, upload, weight) in uploads.iter().filter(|u| members.contains(&u.0)) {
            let payload =
                build_dense_payload(&dense, quant, upload, *weight).expect("finite update");
            ring_add(&mut sum, &payload);
        }
        sum
    }

    #[test]
    fn streamed_fold_is_the_same_in_any_arrival_order() {
        let quant = Quantizer::new(24).expect("valid scale");
        let members: Vec<u64> = (0..24).map(|i| 100 + 3 * i).collect();
        let mut rng = stream(9, SeedStream::SecAggSecret);
        // Mixed tiers, 5:3:2 in no particular uid order.
        let tier_of = |i: usize| [0, 1, 0, 2, 0, 1, 0, 0, 1, 2][i % 10];
        let masked = masked_group(
            PreparedGroup::setup(5, &members, &mut rng),
            None,
            LAYOUT,
            (0..24).map(|i| LAYOUT.prefix_words(tier_of(i))).collect(),
            quant,
        );

        // Unencodable updates from the first member, a middle one and the
        // last; one member that never delivered; one empty update (a
        // survivor that is not an accepted upload).
        let poisoned = [members[0], members[11], members[23]];
        let silent = members[6];
        let empty = members[17];
        let uploads: Vec<Upload> = members
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m != silent)
            .map(|(i, &m)| {
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
                (m, upload, 1.0 + 0.125 * (i % 3) as f32)
            })
            .collect();
        let dropped: Vec<u64> = vec![members[0], silent, members[11], members[23]];
        let survivors: Vec<u64> = members
            .iter()
            .copied()
            .filter(|m| !dropped.contains(m))
            .collect();
        let reference = dense_sum(&LAYOUT, quant, &uploads, &survivors);

        let mut sums: Vec<GroupSum> = arrival_orders(uploads.len())
            .iter()
            .map(|order| arrive(&masked, &uploads, order))
            .collect();
        // And from two threads at once, each taking every other upload.
        let group = fresh(&masked);
        std::thread::scope(|scope| {
            for half in 0..2 {
                let group = &group;
                let uploads = &uploads;
                scope.spawn(move || {
                    for (m, update, weight) in uploads.iter().skip(half).step_by(2) {
                        group.deliver(*m, update, *weight);
                    }
                });
            }
        });
        sums.push(group.sum.into_inner().expect("group sum poisoned"));
        for (sum, order) in sums.iter().zip(ORDERS.iter().chain(&["two threads"])) {
            assert_eq!(
                sum.survivors_and_dropped(&masked.group),
                (survivors.clone(), dropped.clone()),
                "{order}"
            );
            assert_eq!(sum.accepted, survivors.len() - 1, "{order}");
            assert_eq!(row_major(&LAYOUT, &sum.reference), reference, "{order}");
            assert_eq!(sum.aggregate, sums[0].aggregate, "{order}");
            assert_ne!(sum.aggregate, sum.reference, "orphaned masks must blind");

            let mut aggregate = sum.aggregate.clone();
            let recovered =
                masked
                    .group
                    .unmask_dropped_prefix(&mut aggregate, &dropped, &survivors, |j| {
                        masked.prefixes[j]
                    });
            assert_eq!(recovered, Ok(dropped.len()));
            assert_eq!(aggregate, sum.reference, "{order}: masks recovered");
        }
    }

    #[test]
    fn a_group_nobody_delivers_for_folds_to_nothing() {
        let quant = Quantizer::new(24).expect("valid scale");
        let mut rng = stream(9, SeedStream::SecAggSecret);
        let masked = masked_group(
            PreparedGroup::setup(1, &[3, 4, 8], &mut rng),
            None,
            LAYOUT,
            [0, 2, 1].map(|t| LAYOUT.prefix_words(t)).to_vec(),
            quant,
        );
        // Two members' updates do not quantize; the third never arrives.
        let uploads: Vec<Upload> = vec![
            (3, update(0, 1, f32::NAN), 1.0),
            (8, update(1, 2, f32::INFINITY), 1.0),
        ];
        let sum = arrive(&masked, &uploads, &[0, 1]);
        assert_eq!(
            sum.survivors_and_dropped(&masked.group),
            (vec![], vec![3, 4, 8])
        );
        assert_eq!(sum.accepted, 0);
        assert!(sum.aggregate.iter().all(|&w| w == 0));
        assert!(sum.reference.iter().all(|&w| w == 0));
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

    /// What `cohort` would upload this round, in cohort order: real local
    /// training against the session's server state, with staleness-like
    /// weights.
    fn trained_uploads(s: &Session, cohort: &[usize]) -> Vec<Upload> {
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
                (uid as u64, update, 1.0 - 0.25 * (uid % 3) as f32)
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
                uploads.retain(|u| u.0 != silent);
                let group = PreparedGroup::setup(s.round_counter, members, &mut rng);
                let tier = (parts.len() > 1).then(|| s.model_groups.tier(members[0] as usize));
                let layout = s.secagg_layout(tier);
                let prefixes = s.secagg_prefixes(&group, &layout);
                let masked = masked_group(group, tier, layout, prefixes, quant);
                let survivors: Vec<u64> =
                    members.iter().copied().filter(|&m| m != silent).collect();
                let reference = dense_sum(&layout, quant, &uploads, &survivors);
                assert!(
                    reference.iter().any(|&w| w != 0),
                    "{strategy:?}: nothing trained"
                );

                // The whole cohort's uploads stream past: only members'
                // reach this group's sums.
                let orders = arrival_orders(uploads.len());
                for (order, name) in orders.iter().zip(ORDERS) {
                    let mut sum = arrive(&masked, &uploads, order);
                    let (got, dropped) = sum.survivors_and_dropped(&masked.group);
                    assert_eq!(got, survivors, "{strategy:?}, {name}");
                    assert_eq!(dropped, [silent], "{strategy:?}, {name}");
                    let recovered = masked.group.unmask_dropped_prefix(
                        &mut sum.aggregate,
                        &dropped,
                        &survivors,
                        |j| masked.prefixes[j],
                    );
                    assert_eq!(recovered, Ok(1), "{strategy:?}, {name}");
                    assert_eq!(
                        row_major(&layout, &sum.aggregate),
                        reference,
                        "{strategy:?}, {name}: not the dense aggregate"
                    );
                }

                // Nobody's update reaches past its own prefix: the words
                // a survivor omits were exact ring zeros in the dense form.
                for (&m, &prefix) in masked.group.members.iter().zip(&masked.prefixes) {
                    let t = s.model_groups.tier(m as usize).index();
                    carried[t] = true;
                    if let Some((_, upload, weight)) = uploads.iter().find(|u| u.0 == m) {
                        let mut full = vec![0u64; layout.len()];
                        add_payload(&layout, quant, upload, *weight, &mut full[..prefix])
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
