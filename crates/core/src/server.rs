//! Central-server state: public parameters, padding-based heterogeneous
//! aggregation (Eq. 7–10, 15), and the distillation hook.

use crate::config::{ItemAggNorm, KdConfig, TierDims, TrainConfig};
use crate::reskd;
use crate::strategy::Strategy;
use hf_dataset::Tier;
use hf_fedsim::transport::ClientUpdate;
use hf_models::{paper_predictor_dims, Ffn, RowGradBuffer};
use hf_tensor::rng::StdRng;
use hf_tensor::rng::{stream, SeedStream};
use hf_tensor::Matrix;
use std::collections::HashMap;

/// The server's public parameters and distillation RNG.
#[derive(Clone, Debug)]
pub struct ServerState {
    num_items: usize,
    dims: TierDims,
    strategy: Strategy,
    item_agg_norm: ItemAggNorm,
    server_lr: f32,
    /// Tier item-embedding tables `{Vs, Vm, Vl}`, initialised from the
    /// same point on shared prefixes (required for Eq. 10).
    tables: [Matrix; 3],
    /// Tier predictors `{Θs, Θm, Θl}`.
    thetas: [Ffn; 3],
    /// Distillation RNG (its own stream so KD sampling never perturbs
    /// anything else).
    kd_rng: StdRng,
}

impl ServerState {
    /// Initialises public parameters for `num_items` items.
    ///
    /// `Vl` is drawn Normal(0, 1/√Nl); `Vm` and `Vs` are its leading-column
    /// copies so all tiers start "from the same point" (§IV-B). Each
    /// tier's predictor is drawn independently at its own width.
    pub fn new(num_items: usize, cfg: &TrainConfig, strategy: Strategy) -> Self {
        let mut rng = stream(cfg.seed, SeedStream::ParamInit);
        let dims = cfg.dims;
        let large = hf_tensor::init::embedding_normal(num_items, dims.largest(), &mut rng);
        let tables = [
            large.prefix_columns(dims.dim(Tier::Small)),
            large.prefix_columns(dims.dim(Tier::Medium)),
            large,
        ];
        let thetas = [
            Ffn::new(&paper_predictor_dims(dims.dim(Tier::Small)), &mut rng),
            Ffn::new(&paper_predictor_dims(dims.dim(Tier::Medium)), &mut rng),
            Ffn::new(&paper_predictor_dims(dims.dim(Tier::Large)), &mut rng),
        ];
        Self {
            num_items,
            dims,
            strategy,
            item_agg_norm: cfg.item_agg_norm,
            server_lr: cfg.server_lr,
            tables,
            thetas,
            kd_rng: stream(cfg.seed, SeedStream::Distill),
        }
    }

    /// Item universe size.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Tier dimensions.
    pub fn dims(&self) -> TierDims {
        self.dims
    }

    /// One tier's item-embedding table.
    pub fn table(&self, tier: Tier) -> &Matrix {
        &self.tables[tier.index()]
    }

    /// One tier's predictor.
    pub fn theta(&self, tier: Tier) -> &Ffn {
        &self.thetas[tier.index()]
    }

    /// The predictors a client of `tier` downloads: every tier at or below
    /// its own, ascending (Algorithm 1: `Um` receives `Θs, Θm`; `Ul` all
    /// three).
    pub fn thetas_for(&self, tier: Tier, udl: bool) -> Vec<Ffn> {
        if udl {
            (0..=tier.index()).map(|i| self.thetas[i].clone()).collect()
        } else {
            vec![self.thetas[tier.index()].clone()]
        }
    }

    /// Applies one round of client updates.
    ///
    /// `updates` carries each accepted client's model tier alongside its
    /// payload. Item-embedding deltas aggregate by padded **sum** (Eq. 8):
    /// every delta lands in a `Nl`-wide accumulator at its natural prefix,
    /// and each tier table then absorbs the prefix slice matching its
    /// width (which preserves `Vs = Vm[:Ns] = Vl[:Ns]`, Eq. 10). Under
    /// [`Strategy::ClusteredFedRec`] the sum instead stays within each
    /// tier. Predictor deltas are **averaged** per tier.
    pub fn apply_round(&mut self, updates: &[(Tier, ClientUpdate)]) {
        self.apply_round_weighted(updates, &vec![1.0; updates.len()]);
    }

    /// [`ServerState::apply_round`] with a per-update weight — the
    /// asynchronous mode's staleness discount `1 / (1 + s)^β`.
    ///
    /// Each client's item-embedding delta is scaled by its weight before
    /// the per-row [`ItemAggNorm`] normalisation (contributor counts stay
    /// unweighted), and predictor deltas become a weighted average
    /// (`Σ wᵢ·Δᵢ / Σ wᵢ`). All-ones weights reproduce
    /// [`ServerState::apply_round`] bit-for-bit.
    ///
    /// Both then step by Eq. 9 as written, `V ← V + server_lr · ΣΔ`, with
    /// no optimiser state: each Δ is a client's local step and already
    /// carries the local learning rate. Predictors average rather than sum
    /// because every upload carries a dense delta for the whole predictor,
    /// so a sum would scale its step with the cohort size.
    ///
    /// A fold of `updates` in order through [`ServerState::round_fold`].
    ///
    /// # Panics
    /// Panics if `weights.len() != updates.len()`.
    pub fn apply_round_weighted(&mut self, updates: &[(Tier, ClientUpdate)], weights: &[f32]) {
        assert_eq!(updates.len(), weights.len(), "one weight per update");
        let mut fold = self.round_fold();
        for ((tier, update), &w) in updates.iter().zip(weights) {
            fold.add(*tier, update, w);
        }
        self.apply_fold(fold);
    }

    /// An empty round aggregate sized for this server: what
    /// [`ServerState::apply_round_weighted`] sums, to be filled one upload
    /// at a time ([`RoundFold::add`]) and applied by
    /// [`ServerState::apply_fold`]. Folding the same uploads in the same
    /// order gives the same bits however the uploads arrive.
    pub fn round_fold(&self) -> RoundFold {
        let item_dims: Vec<usize> = if self.strategy.aggregates_across_tiers() {
            vec![self.dims.largest()]
        } else {
            Tier::ALL.iter().map(|&t| self.dims.dim(t)).collect()
        };
        RoundFold {
            items: item_dims
                .into_iter()
                .map(|dim| (RowGradBuffer::new(dim), HashMap::new()))
                .collect(),
            thetas: Tier::ALL.map(|t| ThetaSum {
                sum: vec![0.0; self.thetas[t.index()].num_params()],
                count: 0,
                weight_sum: 0.0,
            }),
            uploads: 0,
        }
    }

    /// Applies a round's folded uploads: each item sum through
    /// [`ServerState::apply_item_aggregate`] (the padded sum to every tier
    /// table, or each tier's own sum to its table), then each tier's
    /// predictor sum through [`ServerState::apply_theta_aggregate`]. A
    /// fold of no uploads changes nothing.
    pub fn apply_fold(&mut self, fold: RoundFold) {
        if fold.uploads == 0 {
            return;
        }
        let across = fold.items.len() == 1;
        for (tier, (mut acc, counts)) in Tier::ALL.into_iter().zip(fold.items) {
            if !acc.is_empty() {
                let tiers = if across { &Tier::ALL[..] } else { &[tier][..] };
                self.apply_item_aggregate(&mut acc, &counts, tiers);
            }
        }
        for (tier, theta) in Tier::ALL.into_iter().zip(fold.thetas) {
            self.apply_theta_aggregate(tier, theta.sum, theta.count, theta.weight_sum);
        }
    }

    /// Applies an **already-summed** item-delta aggregate: per-row
    /// weighted sums in `acc`, per-row contributor counts in `counts`.
    /// This is the seam the secure-aggregation path shares with
    /// [`ServerState::apply_round_weighted`] — the server consumes only
    /// the sum, never individual updates, so an unmasked ring aggregate
    /// plugs in here bit-identically.
    pub fn apply_item_aggregate(
        &mut self,
        acc: &mut RowGradBuffer,
        counts: &HashMap<u32, u32>,
        tiers: &[Tier],
    ) {
        self.normalize_rows(acc, counts);
        self.apply_item_deltas(acc, tiers);
    }

    /// Applies an already-summed predictor aggregate for one tier:
    /// `sum = Σ wᵢ·Δᵢ` over `count` contributors with total weight
    /// `weight_sum`. No-op when nothing contributed (same seam as
    /// [`ServerState::apply_item_aggregate`]).
    pub fn apply_theta_aggregate(
        &mut self,
        tier: Tier,
        mut sum: Vec<f32>,
        count: usize,
        weight_sum: f32,
    ) {
        let idx = tier.index();
        assert_eq!(
            sum.len(),
            self.thetas[idx].num_params(),
            "theta aggregate width mismatch"
        );
        if count == 0 || weight_sum <= 0.0 {
            return;
        }
        let inv = 1.0 / weight_sum;
        sum.iter_mut().for_each(|x| *x *= inv * self.server_lr);
        let delta = Ffn::from_flat(self.thetas[idx].dims(), &sum);
        self.thetas[idx].add_scaled(1.0, &delta);
    }

    /// Applies the configured per-row normalisation to an aggregated
    /// delta buffer (see [`ItemAggNorm`]).
    fn normalize_rows(&self, acc: &mut RowGradBuffer, counts: &HashMap<u32, u32>) {
        if self.item_agg_norm == ItemAggNorm::Sum {
            return;
        }
        acc.scale_rows(|row| {
            let n = counts.get(&row).copied().unwrap_or(1).max(1) as f32;
            match self.item_agg_norm {
                ItemAggNorm::Sum => 1.0,
                ItemAggNorm::Mean => 1.0 / n,
                ItemAggNorm::SqrtCount => 1.0 / n.sqrt(),
            }
        });
    }

    /// Folds an aggregated delta buffer into the given tier tables at
    /// their prefix widths.
    fn apply_item_deltas(&mut self, acc: &RowGradBuffer, tiers: &[Tier]) {
        for &tier in tiers {
            let dim = self.dims.dim(tier).min(acc.dim());
            let table = &mut self.tables[tier.index()];
            for (row, delta) in acc.iter() {
                table.row_axpy(row as usize, self.server_lr, &delta[..dim]);
            }
        }
    }

    /// Runs one relation-based ensemble self-distillation round (Eq. 16–17)
    /// with up to `threads` workers and returns the pre-update alignment
    /// loss. Results are identical for every thread count.
    pub fn distill(&mut self, kd: &KdConfig, threads: usize) -> f32 {
        reskd::distill_round(&mut self.tables, kd, threads, &mut self.kd_rng)
    }

    /// Variance of the singular values of `cov(V_tier)` — the Table V
    /// dimensional-collapse diagnostic.
    pub fn collapse_metric(&self, tier: Tier) -> f32 {
        hf_tensor::stats::singular_value_variance(&self.tables[tier.index()])
    }

    /// Writes the server's *mutable* state (tables, predictors,
    /// distillation RNG) as JSON. Config-derived fields are not repeated —
    /// [`ServerState::from_json`] rebuilds them from the configuration
    /// stored alongside the snapshot. `item_adam` and `theta_adam` are
    /// always `null`: the retired server-Adam state keeps its place so
    /// every snapshot stays byte-identical.
    pub fn snapshot_json(&self, out: &mut String) {
        hf_tensor::ser::obj(out, |o| {
            o.field("tables", &self.tables)
                .field("thetas", &self.thetas)
                .field("item_adam", &None::<bool>)
                .field("theta_adam", &None::<bool>)
                .field("kd_rng", &self.kd_rng);
        });
    }

    /// Restores a server from a [`ServerState::snapshot_json`] snapshot
    /// plus the run's configuration and strategy.
    pub fn from_json(
        v: &hf_tensor::ser::JsonValue<'_>,
        num_items: usize,
        cfg: &TrainConfig,
        strategy: Strategy,
    ) -> Result<Self, hf_tensor::ser::JsonError> {
        use hf_tensor::ser::JsonError;
        let read3 = |key: &str| -> Result<[&hf_tensor::ser::JsonValue<'_>; 3], JsonError> {
            let arr = v.get(key)?.as_arr()?;
            if arr.len() != 3 {
                return Err(JsonError::msg(format!("`{key}` must have 3 tiers")));
            }
            Ok([&arr[0], &arr[1], &arr[2]])
        };
        let mut tables = Vec::with_capacity(3);
        for (tier, t) in Tier::ALL.iter().zip(read3("tables")?) {
            let m = Matrix::from_json(t)?;
            if m.rows() != num_items || m.cols() != cfg.dims.dim(*tier) {
                return Err(JsonError::msg(format!(
                    "{tier:?} table is {}x{}, expected {num_items}x{}",
                    m.rows(),
                    m.cols(),
                    cfg.dims.dim(*tier)
                )));
            }
            tables.push(m);
        }
        let tables: [Matrix; 3] = tables.try_into().expect("length checked");

        let mut thetas = Vec::with_capacity(3);
        for (tier, t) in Tier::ALL.iter().zip(read3("thetas")?) {
            let f = Ffn::from_json(t)?;
            if f.dims() != paper_predictor_dims(cfg.dims.dim(*tier)) {
                return Err(JsonError::msg(format!("{tier:?} predictor shape mismatch")));
            }
            thetas.push(f);
        }
        let thetas: [Ffn; 3] = thetas.try_into().expect("length checked");

        // Every snapshot carries the retired server-Adam state as `null`.
        for key in ["item_adam", "theta_adam"] {
            if !v.get(key)?.is_null() {
                return Err(JsonError::msg(format!(
                    "{key} is no longer supported: this checkpoint cannot resume"
                )));
            }
        }

        Ok(Self {
            num_items,
            dims: cfg.dims,
            strategy,
            item_agg_norm: cfg.item_agg_norm,
            server_lr: cfg.server_lr,
            tables,
            thetas,
            kd_rng: StdRng::from_json(v.get("kd_rng")?)?,
        })
    }

    /// Maximum absolute violation of the Eq. 10 prefix invariant
    /// (`Vs = Vm[:Ns] = Vl[:Ns]`, `Vm = Vl[:Nm]`). Exactly zero while
    /// distillation is disabled; grows once RESKD perturbs tiers
    /// individually.
    pub fn eq10_violation(&self) -> f32 {
        let ns = self.dims.dim(Tier::Small);
        let nm = self.dims.dim(Tier::Medium);
        let mut worst = 0.0f32;
        for row in 0..self.num_items {
            let s = self.tables[0].row(row);
            let m = self.tables[1].row(row);
            let l = self.tables[2].row(row);
            for d in 0..ns {
                worst = worst.max((s[d] - m[d]).abs()).max((s[d] - l[d]).abs());
            }
            for d in 0..nm {
                worst = worst.max((m[d] - l[d]).abs());
            }
        }
        worst
    }
}

/// One round's uploads, summed as they arrive: exactly what
/// [`ServerState::apply_round_weighted`] reads of them, so an upload can
/// be dropped once it is added. Built by [`ServerState::round_fold`],
/// applied by [`ServerState::apply_fold`].
#[derive(Debug)]
pub struct RoundFold {
    /// Weighted item-delta sums with their per-row contributor counts:
    /// one padded sum at the largest width, or under
    /// [`Strategy::ClusteredFedRec`] one per tier at its width.
    items: Vec<(RowGradBuffer, HashMap<u32, u32>)>,
    /// Per-tier predictor sums.
    thetas: [ThetaSum; 3],
    /// Uploads added.
    uploads: usize,
}

/// One tier's predictor deltas, summed: `Σ wᵢ·Δᵢ` over `count`
/// contributors of total weight `weight_sum`.
#[derive(Debug)]
struct ThetaSum {
    sum: Vec<f32>,
    count: usize,
    weight_sum: f32,
}

impl RoundFold {
    /// Adds one upload from a client of model tier `tier` at weight `w`.
    /// Sums are floating-point, so uploads must be added in one fixed
    /// order (the cohort's) for the aggregate's bits to repeat.
    ///
    /// # Panics
    /// Panics if an item delta is wider than its sum or a predictor delta
    /// does not match its tier's width.
    pub fn add(&mut self, tier: Tier, update: &ClientUpdate, w: f32) {
        let slot = if self.items.len() == 1 {
            0
        } else {
            tier.index()
        };
        let (acc, counts) = &mut self.items[slot];
        for (row, delta) in &update.items.rows {
            acc.accumulate(*row, w, delta);
            *counts.entry(*row).or_insert(0) += 1;
        }
        for (t, flat) in &update.thetas {
            // A tag past the three tiers names no predictor.
            let Some(theta) = self.thetas.get_mut(usize::from(*t)) else {
                continue;
            };
            assert_eq!(flat.len(), theta.sum.len(), "theta delta width mismatch");
            hf_tensor::ops::axpy_slice(&mut theta.sum, w, flat);
            theta.count += 1;
            theta.weight_sum += w;
        }
        self.uploads += 1;
    }

    /// Uploads added so far.
    pub fn uploads(&self) -> usize {
        self.uploads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Ablation;
    use hf_fedsim::transport::SparseRowUpdate;
    use hf_models::ModelKind;
    use hf_tensor::RowBlock;

    fn cfg() -> TrainConfig {
        // These tests exercise the Eq. 8/9 literal semantics: plain sum,
        // unit server learning rate.
        let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
        cfg.item_agg_norm = crate::config::ItemAggNorm::Sum;
        cfg.server_lr = 1.0;
        cfg
    }

    fn server(strategy: Strategy) -> ServerState {
        ServerState::new(30, &cfg(), strategy)
    }

    fn update(
        tier: Tier,
        row: u32,
        dim: usize,
        value: f32,
        theta_len: usize,
    ) -> (Tier, ClientUpdate) {
        let mut rows = RowBlock::new(dim);
        rows.push(row, std::iter::repeat_n(value, dim));
        (
            tier,
            ClientUpdate {
                items: SparseRowUpdate { rows },
                thetas: vec![(tier.index() as u8, vec![value; theta_len])],
            },
        )
    }

    #[test]
    fn tables_start_from_the_same_point() {
        let s = server(Strategy::HeteFedRec(Ablation::FULL));
        assert_eq!(s.eq10_violation(), 0.0);
    }

    #[test]
    fn padded_sum_updates_every_tier_prefix() {
        let mut s = server(Strategy::HeteFedRec(Ablation::NO_RESKD));
        let before = s.tables.clone();
        // A small-tier client touches row 3 with +1 on its 4 dims.
        let theta_len = s.theta(Tier::Small).num_params();
        s.apply_round(&[update(Tier::Small, 3, 4, 1.0, theta_len)]);
        // All three tables move on row 3's first 4 columns...
        for tier in Tier::ALL {
            let t = s.table(tier);
            let b = &before[tier.index()];
            for d in 0..4 {
                assert!(
                    (t.get(3, d) - (b.get(3, d) + 1.0)).abs() < 1e-6,
                    "{tier:?} dim {d}"
                );
            }
            // ...and nowhere else.
            for d in 4..t.cols() {
                assert_eq!(t.get(3, d), b.get(3, d), "{tier:?} tail dim {d}");
            }
            assert_eq!(t.row(0), b.row(0), "{tier:?} untouched row");
        }
    }

    #[test]
    fn eq10_invariant_survives_aggregation() {
        let mut s = server(Strategy::HeteFedRec(Ablation::NO_RESKD));
        let tl = [
            s.theta(Tier::Small).num_params(),
            s.theta(Tier::Medium).num_params(),
            s.theta(Tier::Large).num_params(),
        ];
        for round in 0..5 {
            let updates = vec![
                update(Tier::Small, round, 4, 0.1, tl[0]),
                update(Tier::Medium, round + 1, 8, -0.2, tl[1]),
                update(Tier::Large, round + 2, 16, 0.3, tl[2]),
            ];
            s.apply_round(&updates);
        }
        assert!(
            s.eq10_violation() < 1e-6,
            "violation {}",
            s.eq10_violation()
        );
    }

    #[test]
    fn distillation_breaks_eq10_as_documented() {
        let mut s = server(Strategy::HeteFedRec(Ablation::FULL));
        s.distill(
            &KdConfig {
                items: 20,
                lr: 20.0,
                steps: 2,
            },
            1,
        );
        assert!(s.eq10_violation() > 0.0);
    }

    #[test]
    fn clustered_aggregation_stays_within_tier() {
        let mut s = server(Strategy::ClusteredFedRec);
        let before = s.tables.clone();
        let theta_len = s.theta(Tier::Small).num_params();
        s.apply_round(&[update(Tier::Small, 3, 4, 1.0, theta_len)]);
        // Small table moves; medium and large tables must not.
        assert!((s.table(Tier::Small).get(3, 0) - (before[0].get(3, 0) + 1.0)).abs() < 1e-6);
        assert_eq!(s.table(Tier::Medium).row(3), before[1].row(3));
        assert_eq!(s.table(Tier::Large).row(3), before[2].row(3));
    }

    #[test]
    fn unit_weights_reproduce_apply_round_bitwise() {
        let theta_len = |s: &ServerState, t: Tier| s.theta(t).num_params();
        for strategy in [
            Strategy::HeteFedRec(Ablation::NO_RESKD),
            Strategy::ClusteredFedRec,
        ] {
            let mut plain = server(strategy);
            let mut weighted = server(strategy);
            let tl = [
                theta_len(&plain, Tier::Small),
                theta_len(&plain, Tier::Medium),
                theta_len(&plain, Tier::Large),
            ];
            for round in 0..4 {
                let updates = vec![
                    update(Tier::Small, round, 4, 0.1, tl[0]),
                    update(Tier::Medium, round + 1, 8, -0.2, tl[1]),
                    update(Tier::Large, round + 2, 16, 0.3, tl[2]),
                ];
                plain.apply_round(&updates);
                weighted.apply_round_weighted(&updates, &[1.0, 1.0, 1.0]);
            }
            let (mut a, mut b) = (String::new(), String::new());
            plain.snapshot_json(&mut a);
            weighted.snapshot_json(&mut b);
            assert_eq!(a, b, "{strategy:?}");
        }
    }

    #[test]
    fn staleness_weights_discount_item_deltas() {
        let mut s = server(Strategy::HeteFedRec(Ablation::NO_RESKD));
        let before = s.table(Tier::Small).get(3, 0);
        let theta_len = s.theta(Tier::Small).num_params();
        // One client with weight 0.25: the +1 delta lands as +0.25.
        s.apply_round_weighted(&[update(Tier::Small, 3, 4, 1.0, theta_len)], &[0.25]);
        assert!((s.table(Tier::Small).get(3, 0) - (before + 0.25)).abs() < 1e-6);
    }

    #[test]
    fn theta_deltas_weight_average_per_tier() {
        let mut s = server(Strategy::HeteFedRec(Ablation::NO_RESKD));
        let theta_len = s.theta(Tier::Small).num_params();
        let before = s.theta(Tier::Small).to_flat();
        // Weights 3 and 1 over deltas +1 and +5: weighted mean is +2.
        s.apply_round_weighted(
            &[
                update(Tier::Small, 1, 4, 1.0, theta_len),
                update(Tier::Small, 2, 4, 5.0, theta_len),
            ],
            &[3.0, 1.0],
        );
        let after = s.theta(Tier::Small).to_flat();
        for (a, b) in after.iter().zip(&before) {
            assert!((a - b - 2.0).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn theta_deltas_average_per_tier() {
        let mut s = server(Strategy::HeteFedRec(Ablation::NO_RESKD));
        let theta_len = s.theta(Tier::Small).num_params();
        let before = s.theta(Tier::Small).to_flat();
        // Two small clients upload +1 and +3: mean is +2.
        s.apply_round(&[
            update(Tier::Small, 0, 4, 1.0, theta_len),
            update(Tier::Small, 1, 4, 3.0, theta_len),
        ]);
        let after = s.theta(Tier::Small).to_flat();
        for (a, b) in after.iter().zip(&before) {
            assert!((a - b - 2.0).abs() < 1e-5);
        }
        // Medium/large thetas untouched (no deltas for them).
        let _ = s;
    }

    #[test]
    fn snapshots_carrying_server_adam_state_fail_restore() {
        use hf_tensor::ser::parse_json;
        let strategy = Strategy::HeteFedRec(Ablation::FULL);
        let mut json = String::new();
        server(strategy).snapshot_json(&mut json);
        let restore =
            |doc: &str| ServerState::from_json(&parse_json(doc).unwrap(), 30, &cfg(), strategy);
        assert!(restore(&json).is_ok());
        for key in ["item_adam", "theta_adam"] {
            let doc = json.replace(&format!("\"{key}\":null"), &format!("\"{key}\":[]"));
            assert_ne!(doc, json, "the snapshot carries `{key}`");
            let e = restore(&doc).expect_err(key);
            assert!(e.to_string().contains(key), "{e}");
        }
    }

    #[test]
    fn empty_round_is_a_noop() {
        let mut s = server(Strategy::HeteFedRec(Ablation::FULL));
        let before = s.tables.clone();
        s.apply_round(&[]);
        assert_eq!(s.tables, before);
    }

    #[test]
    fn thetas_for_respects_udl_protocol() {
        let s = server(Strategy::HeteFedRec(Ablation::FULL));
        assert_eq!(s.thetas_for(Tier::Small, true).len(), 1);
        assert_eq!(s.thetas_for(Tier::Medium, true).len(), 2);
        assert_eq!(s.thetas_for(Tier::Large, true).len(), 3);
        assert_eq!(s.thetas_for(Tier::Large, false).len(), 1);
        // Without UDL a large client gets only its own predictor.
        let only = &s.thetas_for(Tier::Large, false)[0];
        assert_eq!(only.num_params(), s.theta(Tier::Large).num_params());
    }

    #[test]
    fn collapse_metric_is_finite_and_nonnegative() {
        let s = server(Strategy::HeteFedRec(Ablation::FULL));
        for tier in Tier::ALL {
            let m = s.collapse_metric(tier);
            assert!(m.is_finite() && m >= -1e-6, "{tier:?}: {m}");
        }
    }
}
