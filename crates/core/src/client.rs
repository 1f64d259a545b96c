//! Client-side local training (Algorithm 1, `CLIENT TRAIN`).
//!
//! A selected client downloads its tier's public parameters, trains local
//! copies on its private data, and uploads deltas. The interesting part is
//! **unified dual-task learning** (Eq. 11): a client of tier `a` runs one
//! *task* per tier at or below `a`. Task `b` scores with the prefix
//! slices `u[:N_b]`, `V[x][:N_b]` and tier `b`'s predictor `Θ_b`, so the
//! sub-matrix updates it produces optimise exactly the objective the
//! smaller tier's own clients optimise — which is what makes the padded
//! sum on the server meaningful.
//!
//! Local optimisation follows DESIGN.md §5: per-sample SGD on the local
//! copies of `V` rows and `Θ`, a persistent Adam on the private user
//! embedding (Eq. 3), the DDR penalty (Eq. 14) applied once per local
//! pass over the touched rows, and deltas (`trained − downloaded`)
//! uploaded at the end.
//!
//! # What a client keeps between rounds
//!
//! A session holds one [`UserState`] per client for the whole run, tens
//! of thousands of them at once, and under partial participation most
//! of them never train, so a client keeps only what it has earned: the
//! private embedding alone until its first Adam step, and from then on
//! the embedding and its two Adam moments in one list (`emb | m | v`).
//! Adam's hyper-parameters and step count sit beside the list ([`Adam`]
//! steps over the caller's slices; a step count of zero says the list is
//! `emb` alone, so the moments it lacks are zero), with a pointer that
//! is non-null only under [`Strategy::Standalone`], whose private item
//! rows (one [`RowBlock`], ascending item id) and predictor are the one
//! large per-client cost. That is 48 bytes inline and one allocation of
//! `dim` floats, `3 × dim` once trained; everything a round builds on
//! top — local item rows (one [`RowGradBuffer`], each row copied on
//! first touch), each task's predictor copy, gradient and scratch — is
//! dropped when the round ends, a standalone client's touched rows
//! merged into a fresh sorted block first.

use crate::config::TrainConfig;
use crate::ddr;
use crate::strategy::Strategy;
use hf_dataset::{NegativeSampler, SplitDataset, Tier};
use hf_fedsim::transport::{ClientUpdate, SparseRowUpdate};
use hf_models::ffn::{Ffn, FfnCache};
use hf_models::scoring::propagate_lightgcn;
use hf_models::{paper_predictor_dims, ModelKind, RowGradBuffer};
use hf_tensor::adam::{Adam, AdamConfig};
use hf_tensor::ops::{bce_with_logits, bce_with_logits_grad};
use hf_tensor::rng::Rng;
use hf_tensor::rng::{substream, SeedStream};
use hf_tensor::ser::{obj, JsonError, JsonValue, ToJson};
use hf_tensor::{Matrix, RowBlock};

/// A client's persistent private state (module docs): one allocation
/// of floats — the private user embedding, followed by its two Adam
/// moments (each the embedding's width) once it has taken a step —
/// beside the optimiser, and the standalone model behind one pointer.
#[derive(Clone, Debug)]
pub struct UserState {
    /// `emb` before the first step, `emb | m | v` from then on.
    floats: Box<[f32]>,
    /// The embedding's optimiser: hyper-parameters and step count.
    adam: Adam,
    /// Present only under [`Strategy::Standalone`]: the client's private
    /// copies of the public parameters.
    standalone: Option<Box<StandaloneState>>,
}

/// Standalone-mode private model: item rows the client has trained
/// (overlay over the shared initial table) and its own predictor.
#[derive(Clone, Debug)]
pub struct StandaloneState {
    /// Trained item rows (tier width), ascending item id.
    pub rows: RowBlock,
    /// The client's private predictor.
    pub theta: Ffn,
}

impl UserState {
    /// Initialises a client's private state. The embedding is drawn from
    /// the per-user stream so it is independent of scheduling order.
    pub fn init(
        user_id: usize,
        dim: usize,
        cfg: &TrainConfig,
        standalone_theta: Option<Ffn>,
    ) -> Self {
        let mut rng = substream(cfg.seed, SeedStream::UserInit, user_id as u64);
        // No step taken: the embedding alone, Adam's moments still zero.
        let mut floats = vec![0.0; dim].into_boxed_slice();
        let std = 1.0 / (dim as f32).sqrt();
        hf_tensor::init::fill_normal(&mut floats, std, &mut rng);
        Self {
            floats,
            adam: Adam::new(AdamConfig::with_lr(cfg.user_lr)),
            standalone: standalone_theta.map(|theta| {
                Box::new(StandaloneState {
                    rows: RowBlock::new(dim),
                    theta,
                })
            }),
        }
    }

    /// Width of the private user embedding (its model tier's dimension).
    pub fn dim(&self) -> usize {
        match self.adam.steps() {
            0 => self.floats.len(),
            _ => self.floats.len() / 3,
        }
    }

    /// The private user embedding.
    pub fn emb(&self) -> &[f32] {
        &self.floats[..self.dim()]
    }

    /// The client's private model — present only under
    /// [`Strategy::Standalone`].
    pub fn standalone(&self) -> Option<&StandaloneState> {
        self.standalone.as_deref()
    }

    /// Heap bytes of the float list, plus the standalone box's own size
    /// (not its rows or predictor) when there is one.
    pub fn heap_bytes(&self) -> usize {
        let boxed = self
            .standalone
            .as_ref()
            .map_or(0, |_| std::mem::size_of::<StandaloneState>());
        std::mem::size_of_val(&*self.floats) + boxed
    }

    /// Adam's two moments, `None` before the first step (both zero).
    fn moments(&self) -> Option<(&[f32], &[f32])> {
        let dim = self.dim();
        (self.adam.steps() > 0).then(|| self.floats[dim..].split_at(dim))
    }

    /// A copy that holds `emb | m | v` whatever this state holds, built
    /// in one allocation: an untrained client's zero moments are made
    /// here, as it is about to take its first step.
    fn for_training(&self) -> Self {
        let dim = self.dim();
        let floats = if self.adam.steps() > 0 {
            self.floats.clone()
        } else {
            let mut floats = vec![0.0; 3 * dim].into_boxed_slice();
            floats[..dim].copy_from_slice(&self.floats);
            floats
        };
        Self {
            floats,
            adam: self.adam,
            standalone: self.standalone.clone(),
        }
    }

    /// One Adam step on the embedding along `grads`. The list must hold
    /// both moments ([`for_training`](Self::for_training)).
    fn step_emb(&mut self, grads: &[f32]) {
        let dim = grads.len();
        debug_assert_eq!(self.floats.len(), 3 * dim, "an `emb`-only list");
        let (emb, moments) = self.floats.split_at_mut(dim);
        let (m, v) = moments.split_at_mut(dim);
        self.adam.step(emb, m, v, grads);
    }
}

impl ToJson for UserState {
    fn write_json(&self, out: &mut String) {
        // An untrained client writes the zero moments it does not hold,
        // so the document is the same whichever form its list is in.
        let zeros;
        let (m, v) = match self.moments() {
            Some(moments) => moments,
            None => {
                zeros = vec![0.0; self.dim()];
                (&zeros[..], &zeros[..])
            }
        };
        obj(out, |o| {
            o.field("emb", &self.emb())
                .field("adam", &self.adam.json(m, v))
                .field("standalone", &self.standalone());
        });
    }
}

impl ToJson for StandaloneState {
    fn write_json(&self, out: &mut String) {
        struct Row<'a>(&'a u32, &'a [f32]);
        impl ToJson for Row<'_> {
            fn write_json(&self, out: &mut String) {
                obj(out, |o| {
                    o.field("item", self.0).field("row", &self.1);
                });
            }
        }
        let rows: Vec<Row> = self.rows.iter().map(|(item, row)| Row(item, row)).collect();
        obj(out, |o| {
            o.field("rows", &rows).field("theta", &self.theta);
        });
    }
}

impl UserState {
    /// Restores a checkpointed client state over a catalogue of
    /// `num_items` items. The Adam moments and every standalone row must
    /// be as wide as the embedding, the rows' item ids in range and
    /// strictly ascending, and a standalone predictor of the paper's
    /// shape for the embedding's width. A client that has taken no step
    /// must have all-zero moments (what the writer writes for it); it is
    /// restored as the embedding alone.
    pub fn from_json(v: &JsonValue<'_>, num_items: usize) -> Result<Self, JsonError> {
        let emb = v.get("emb")?.as_f32_vec()?;
        let (adam, m, moment2) = Adam::from_json(v.get("adam")?)?;
        if m.len() != emb.len() {
            return Err(JsonError::msg(format!(
                "`adam` tracks {} parameters for a {}-wide embedding",
                m.len(),
                emb.len()
            )));
        }
        let untrained = adam.steps() == 0;
        if untrained && m.iter().chain(&moment2).any(|x| x.to_bits() != 0) {
            return Err(JsonError::msg(
                "`adam` has taken no step but holds a non-zero moment",
            ));
        }
        let standalone = match v.get("standalone")? {
            s if s.is_null() => None,
            s => {
                let entries = s.get("rows")?.as_arr()?;
                let mut rows = RowBlock::with_capacity(emb.len(), entries.len());
                let mut next = 0;
                for entry in entries {
                    let item = entry.get("item")?.as_usize()?;
                    if !(next..num_items).contains(&item) {
                        return Err(JsonError::msg(format!(
                            "standalone `item` {item} is outside {next}..{num_items}: past \
                             the row before it, inside the catalogue"
                        )));
                    }
                    next = item + 1;
                    let row = entry.get("row")?.as_f32_vec()?;
                    if row.len() != emb.len() {
                        return Err(JsonError::msg(format!(
                            "standalone `row` of item {item} has width {}, expected {}",
                            row.len(),
                            emb.len()
                        )));
                    }
                    rows.push(item as u32, row);
                }
                let theta = Ffn::from_json(s.get("theta")?)?;
                if theta.dims() != paper_predictor_dims(emb.len()) {
                    return Err(JsonError::msg(format!(
                        "standalone predictor has shape {:?}, expected {:?}",
                        theta.dims(),
                        paper_predictor_dims(emb.len())
                    )));
                }
                Some(Box::new(StandaloneState { rows, theta }))
            }
        };
        let floats = if untrained {
            emb.into_boxed_slice()
        } else {
            [emb, m, moment2].concat().into_boxed_slice()
        };
        Ok(Self {
            floats,
            adam,
            standalone,
        })
    }
}

/// Everything a client needs for one round of local training.
pub struct ClientCtx<'a> {
    /// Experiment configuration.
    pub cfg: &'a TrainConfig,
    /// Active strategy (drives UDL/DDR switches and standalone mode).
    pub strategy: Strategy,
    /// The split dataset (clients read only their own row).
    pub split: &'a SplitDataset,
    /// This client's id.
    pub user_id: usize,
    /// This client's model tier.
    pub model_tier: Tier,
    /// Downloaded item-embedding table for this tier (standalone clients
    /// receive the frozen initial table and overlay their own rows).
    pub table: &'a Matrix,
    /// Downloaded predictors, ascending tier; length 1 without UDL.
    pub thetas: &'a [Ffn],
    /// Tier tags matching `thetas` (for upload labelling).
    pub theta_tiers: &'a [Tier],
    /// Unique key of this global round (varies negative sampling between
    /// selections of the same client).
    pub round_key: u64,
}

/// Result of one client's local training.
pub struct ClientOutcome {
    /// Upload payload (empty for standalone clients).
    pub update: ClientUpdate,
    /// The client's advanced private state.
    pub state: UserState,
    /// Summed training loss over all tasks and samples.
    pub loss: f64,
    /// Number of (item, label) samples processed.
    pub samples: usize,
}

/// Item `item`'s row at width `dim`: the client's private copy when
/// `overlay` (a standalone client's trained rows) holds one, else the
/// table's row prefix.
pub fn item_row<'a>(
    table: &'a Matrix,
    overlay: Option<&'a RowBlock>,
    item: u32,
    dim: usize,
) -> &'a [f32] {
    overlay
        .and_then(|rows| rows.get(item))
        .unwrap_or_else(|| table.row_prefix(item as usize, dim))
}

/// Local item-row store: the touched rows in one [`RowGradBuffer`], each
/// copied from the downloaded table (or the standalone overlay) on first
/// touch, so a touched row costs no allocation of its own.
struct LocalRows<'a> {
    base: &'a Matrix,
    overlay: Option<&'a RowBlock>,
    rows: RowGradBuffer,
}

impl<'a> LocalRows<'a> {
    fn new(base: &'a Matrix, overlay: Option<&'a RowBlock>, width: usize) -> Self {
        Self {
            base,
            overlay,
            rows: RowGradBuffer::new(width),
        }
    }

    /// The pristine (downloaded) value of a row.
    fn pristine(&self, item: u32) -> &'a [f32] {
        item_row(self.base, self.overlay, item, self.rows.dim())
    }

    /// Current local value (read path; no copy for untouched rows).
    fn get(&self, item: u32) -> &[f32] {
        self.rows.get(item).unwrap_or_else(|| self.pristine(item))
    }

    /// Mutable local copy, cloned from pristine on first touch.
    fn get_mut(&mut self, item: u32) -> &mut [f32] {
        let (base, overlay) = (self.base, self.overlay);
        self.rows.row_mut(item, |row| {
            row.copy_from_slice(item_row(base, overlay, item, row.len()));
        })
    }

    /// `(item, local)` over touched rows, ascending item id; with
    /// `untouched`, also every overlay row the round left alone.
    fn sorted(&self, untouched: bool) -> Vec<(u32, &[f32])> {
        let kept = self.overlay.filter(|_| untouched).into_iter().flatten();
        let mut rows: Vec<(u32, &[f32])> = self.rows.iter().collect();
        rows.extend(
            kept.map(|(&item, row)| (item, row))
                .filter(|&(item, _)| self.rows.get(item).is_none()),
        );
        rows.sort_unstable_by_key(|&(item, _)| item);
        rows
    }

    /// The upload's item block: `local − pristine` over touched rows.
    fn deltas(&self) -> RowBlock {
        let rows = self.sorted(false);
        let mut block = RowBlock::with_capacity(self.rows.dim(), rows.len());
        for (item, local) in rows {
            let pristine = self.pristine(item);
            block.push(item, local.iter().zip(pristine).map(|(l, p)| l - p));
        }
        block
    }

    /// A standalone client's rows after the round: the overlay with each
    /// touched row replaced by, or added as, its local copy.
    fn persisted(&self) -> RowBlock {
        let rows = self.sorted(true);
        let mut block = RowBlock::with_capacity(self.rows.dim(), rows.len());
        for (item, row) in rows {
            block.push(item, row.iter().copied());
        }
        block
    }

    /// Touched row ids, ascending.
    fn touched(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.rows.iter().map(|(item, _)| item).collect();
        ids.sort_unstable();
        ids
    }
}

/// One UDL task: a tier width, the predictor it trains, and scratch
/// buffers.
struct Task {
    tier: Tier,
    dim: usize,
    /// The local copy of the downloaded predictor, trained in place.
    theta: Ffn,
    theta_grad: Ffn,
    cache: FfnCache,
    /// The predictor's input `[u, v]`, `2 * dim` wide.
    input: Vec<f32>,
    /// `∂L/∂[u, v]`: the user gradient, then the item gradient.
    d_input: Vec<f32>,
    /// LightGCN: propagated user representation (refreshed per pass).
    prop_user: Vec<f32>,
    /// LightGCN: accumulated `∂L/∂u'` for the deferred graph-row update.
    d_prop_total: Vec<f32>,
}

/// Runs one client's local training and returns its upload and new state.
pub fn train_client(ctx: &ClientCtx<'_>, prev: &UserState) -> ClientOutcome {
    let user_split = ctx.split.user(ctx.user_id);
    let cfg = ctx.cfg;
    let is_standalone = matches!(ctx.strategy, Strategy::Standalone);
    let tier_dim = cfg.dims.dim(ctx.model_tier);
    debug_assert_eq!(prev.dim(), tier_dim);

    if user_split.train.is_empty() {
        return ClientOutcome {
            update: ClientUpdate::default(),
            state: prev.clone(),
            loss: 0.0,
            samples: 0,
        };
    }
    // Every positive is a sample, so the state takes at least one step.
    let mut state = prev.for_training();

    // --- Set up local copies -------------------------------------------------
    let overlay = prev.standalone().map(|s| &s.rows);
    let mut local = LocalRows::new(ctx.table, overlay, tier_dim);

    let downloaded_thetas: Vec<&Ffn> = if is_standalone {
        vec![&prev.standalone().expect("standalone state").theta]
    } else {
        ctx.thetas.iter().collect()
    };
    let task_tiers: &[Tier] = if is_standalone {
        &[ctx.model_tier][..]
    } else {
        ctx.theta_tiers
    };

    let mut tasks: Vec<Task> = task_tiers
        .iter()
        .zip(&downloaded_thetas)
        .map(|(&tier, theta)| {
            let dim = cfg.dims.dim(tier);
            Task {
                tier,
                dim,
                theta: (*theta).clone(),
                theta_grad: theta.zeros_like(),
                cache: FfnCache::for_ffn(theta),
                input: vec![0.0; 2 * dim],
                d_input: vec![0.0; 2 * dim],
                prop_user: Vec::new(),
                d_prop_total: vec![0.0; dim],
            }
        })
        .collect();

    let is_gcn = cfg.model == ModelKind::LightGcn;
    let graph_items: &[u32] = user_split.train;
    let graph_coeff = 1.0 / (graph_items.len() as f32).sqrt();

    let sampler = NegativeSampler::new(ctx.split.num_items(), cfg.negatives);
    let mut rng = substream(
        cfg.seed,
        SeedStream::Negatives,
        (ctx.user_id as u64) << 20 ^ ctx.round_key,
    );

    let mut du_full = vec![0.0f32; tier_dim];
    let mut total_loss = 0.0f64;
    let mut total_samples = 0usize;

    // --- Local passes ---------------------------------------------------------
    for _pass in 0..cfg.local_epochs.max(1) {
        // LightGCN: refresh each task's propagated user from the current
        // local rows once per pass. It is held fixed within the pass, so
        // the graph-row gradients can be summed in `d_prop_total` and
        // applied once at the end instead of re-propagating over every
        // graph row after every sample.
        if is_gcn {
            for task in &mut tasks {
                task.prop_user = propagate_lightgcn(
                    &state.emb()[..task.dim],
                    graph_items.len(),
                    graph_items.iter().map(|&i| local.get(i)),
                );
            }
        }

        let (items, labels) = sampler.build_epoch(&user_split, &mut rng);
        for (&item, &label) in items.iter().zip(&labels) {
            du_full.iter_mut().for_each(|x| *x = 0.0);
            for task in &mut tasks {
                // Own-tier task at full weight; auxiliary prefix tasks
                // damped (see `TrainConfig::udl_aux_weight`).
                let task_scale = if task.tier == ctx.model_tier {
                    1.0
                } else {
                    cfg.udl_aux_weight
                };
                let user = if is_gcn {
                    &task.prop_user
                } else {
                    &state.emb()[..task.dim]
                };
                let (u, v) = task.input.split_at_mut(task.dim);
                u.copy_from_slice(user);
                v.copy_from_slice(&local.get(item)[..task.dim]);
                let logit = task.theta.forward(&task.input, &mut task.cache);
                total_loss += (task_scale * bce_with_logits(logit, label)) as f64;
                let d_logit = task_scale * bce_with_logits_grad(logit, label);

                task.theta.backward(
                    d_logit,
                    &mut task.cache,
                    &mut task.theta_grad,
                    &mut task.d_input,
                );
                let (du, dv) = task.d_input.split_at(task.dim);
                // Θ: immediate local SGD step, then reset the accumulator.
                task.theta.add_scaled(-cfg.local_lr, &task.theta_grad);
                task.theta_grad.zero();
                // V row: immediate local SGD step on the task's prefix.
                {
                    let row = local.get_mut(item);
                    hf_tensor::ops::axpy_slice(&mut row[..task.dim], -cfg.local_lr, dv);
                }
                // User embedding gradient.
                if is_gcn {
                    // u' = (u + coeff Σ V_g)/2 ⇒ ∂u'/∂u = 1/2; graph-row
                    // gradients are deferred via d_prop_total.
                    for (acc, &d) in du_full.iter_mut().zip(du) {
                        *acc += 0.5 * d;
                    }
                    hf_tensor::ops::axpy_slice(&mut task.d_prop_total, 1.0, du);
                } else {
                    for (acc, &d) in du_full.iter_mut().zip(du) {
                        *acc += d;
                    }
                }
            }
            state.step_emb(&du_full);
            total_samples += 1;
        }
    }

    // --- Deferred LightGCN graph-row gradients --------------------------------
    if is_gcn {
        for task in &tasks {
            let scale = -cfg.local_lr * 0.5 * graph_coeff;
            if scale != 0.0 {
                for &item in graph_items {
                    let row = local.get_mut(item);
                    hf_tensor::ops::axpy_slice(&mut row[..task.dim], scale, &task.d_prop_total);
                }
            }
        }
    }

    // --- Dimensional decorrelation regularization (Eq. 13–14) -----------------
    let ablation = ctx.strategy.ablation();
    if ablation.ddr && ctx.model_tier != Tier::Small {
        let mut touched = local.touched();
        if touched.len() > cfg.ddr_max_rows {
            // Deterministic subsample via the client RNG.
            for i in 0..cfg.ddr_max_rows {
                let j = rng.gen_range(i..touched.len());
                touched.swap(i, j);
            }
            touched.truncate(cfg.ddr_max_rows);
        }
        if touched.len() >= 2 {
            let mut z = Matrix::zeros(touched.len(), tier_dim);
            for (slot, &item) in touched.iter().enumerate() {
                z.row_mut(slot).copy_from_slice(local.get(item));
            }
            let (reg_loss, grad) = ddr::decorrelation_loss_grad(&z);
            total_loss += (cfg.alpha * reg_loss) as f64;
            let step = -cfg.local_lr * cfg.alpha;
            for (slot, &item) in touched.iter().enumerate() {
                let row = local.get_mut(item);
                hf_tensor::ops::axpy_slice(row, step, grad.row(slot));
            }
        }
    }

    // --- Build the upload / persist standalone state --------------------------
    let update = if is_standalone {
        let standalone = state.standalone.as_mut().expect("standalone state");
        standalone.rows = local.persisted();
        standalone.theta = tasks.pop().expect("one task").theta;
        ClientUpdate::default()
    } else {
        let thetas = tasks
            .iter()
            .zip(&downloaded_thetas)
            .map(|(task, downloaded)| {
                let (trained, base) = (task.theta.as_flat(), downloaded.as_flat());
                let delta: Vec<f32> = trained.iter().zip(base).map(|(t, b)| t - b).collect();
                (task.tier.index() as u8, delta)
            })
            .collect();
        ClientUpdate {
            items: SparseRowUpdate {
                rows: local.deltas(),
            },
            thetas,
        }
    };

    ClientOutcome {
        update,
        state,
        loss: total_loss,
        samples: total_samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerState;
    use crate::strategy::Ablation;
    use hf_dataset::SyntheticConfig;

    fn setup(model: ModelKind, strategy: Strategy) -> (TrainConfig, SplitDataset, ServerState) {
        let cfg = TrainConfig::test_default(model);
        let data = SyntheticConfig::tiny().generate(3);
        let split = SplitDataset::paper_split(&data, 3);
        let server = ServerState::new(split.num_items(), &cfg, strategy);
        (cfg, split, server)
    }

    fn run_one(
        cfg: &TrainConfig,
        strategy: Strategy,
        split: &SplitDataset,
        server: &ServerState,
        user_id: usize,
        tier: Tier,
    ) -> ClientOutcome {
        let udl = strategy.ablation().udl;
        let thetas = server.thetas_for(tier, udl);
        let theta_tiers: Vec<Tier> = if udl {
            Tier::ALL[..=tier.index()].to_vec()
        } else {
            vec![tier]
        };
        let standalone_theta =
            matches!(strategy, Strategy::Standalone).then(|| server.theta(tier).clone());
        let state = UserState::init(user_id, cfg.dims.dim(tier), cfg, standalone_theta);
        let ctx = ClientCtx {
            cfg,
            strategy,
            split,
            user_id,
            model_tier: tier,
            table: server.table(tier),
            thetas: &thetas,
            theta_tiers: &theta_tiers,
            round_key: 1,
        };
        train_client(&ctx, &state)
    }

    #[test]
    fn small_client_uploads_one_theta() {
        let strategy = Strategy::HeteFedRec(Ablation::FULL);
        let (cfg, split, server) = setup(ModelKind::Ncf, strategy);
        let out = run_one(&cfg, strategy, &split, &server, 0, Tier::Small);
        assert_eq!(out.update.thetas.len(), 1);
        assert_eq!(out.update.thetas[0].0, 0);
        assert_eq!(out.update.items.dim(), cfg.dims.dim(Tier::Small));
        assert!(out.samples > 0);
        assert!(out.loss.is_finite());
    }

    #[test]
    fn large_client_uploads_three_thetas_under_udl() {
        let strategy = Strategy::HeteFedRec(Ablation::FULL);
        let (cfg, split, server) = setup(ModelKind::Ncf, strategy);
        let out = run_one(&cfg, strategy, &split, &server, 1, Tier::Large);
        let tiers: Vec<u8> = out.update.thetas.iter().map(|(t, _)| *t).collect();
        assert_eq!(tiers, vec![0, 1, 2]);
        assert_eq!(out.update.items.dim(), cfg.dims.dim(Tier::Large));
    }

    #[test]
    fn large_client_uploads_one_theta_without_udl() {
        let strategy = Strategy::DirectlyAggregate;
        let (cfg, split, server) = setup(ModelKind::Ncf, strategy);
        let out = run_one(&cfg, strategy, &split, &server, 1, Tier::Large);
        assert_eq!(out.update.thetas.len(), 1);
        assert_eq!(out.update.thetas[0].0, 2);
    }

    #[test]
    fn update_touches_only_sampled_items() {
        let strategy = Strategy::HeteFedRec(Ablation::FULL);
        let (cfg, split, server) = setup(ModelKind::Ncf, strategy);
        let out = run_one(&cfg, strategy, &split, &server, 2, Tier::Medium);
        let positives = split.user(2).train;
        // Every train positive must be touched; the touched set is
        // positives + negatives, well below the universe.
        let touched: Vec<u32> = out.update.items.rows.iter().map(|(r, _)| *r).collect();
        for p in positives {
            assert!(touched.contains(p), "positive {p} untouched");
        }
        assert!(touched.len() < split.num_items());
    }

    #[test]
    fn deltas_are_nonzero_and_finite() {
        let strategy = Strategy::HeteFedRec(Ablation::FULL);
        let (cfg, split, server) = setup(ModelKind::Ncf, strategy);
        let out = run_one(&cfg, strategy, &split, &server, 3, Tier::Medium);
        let mut nonzero = 0;
        for (_, delta) in &out.update.items.rows {
            assert!(delta.iter().all(|x| x.is_finite()));
            if delta.iter().any(|&x| x != 0.0) {
                nonzero += 1;
            }
        }
        assert!(nonzero > 0, "all deltas are zero");
    }

    #[test]
    fn training_advances_user_embedding() {
        let strategy = Strategy::HeteFedRec(Ablation::FULL);
        let (cfg, split, server) = setup(ModelKind::Ncf, strategy);
        let before = UserState::init(4, cfg.dims.dim(Tier::Small), &cfg, None);
        let out = run_one(&cfg, strategy, &split, &server, 4, Tier::Small);
        assert_ne!(before.emb(), out.state.emb());
        assert!(out.state.emb().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn standalone_produces_no_upload_but_advances_locally() {
        let strategy = Strategy::Standalone;
        let (cfg, split, server) = setup(ModelKind::Ncf, strategy);
        let out = run_one(&cfg, strategy, &split, &server, 0, Tier::Medium);
        assert!(out.update.items.is_empty());
        assert!(out.update.thetas.is_empty());
        let standalone = out.state.standalone().expect("standalone state");
        assert!(!standalone.rows.is_empty(), "no local rows trained");
    }

    #[test]
    fn lightgcn_client_trains_and_touches_graph_items() {
        let strategy = Strategy::HeteFedRec(Ablation::FULL);
        let (cfg, split, server) = setup(ModelKind::LightGcn, strategy);
        let out = run_one(&cfg, strategy, &split, &server, 5, Tier::Medium);
        assert!(out.samples > 0);
        assert!(out.loss.is_finite());
        // Graph items (= train positives) must all carry deltas.
        let touched: Vec<u32> = out.update.items.rows.iter().map(|(r, _)| *r).collect();
        for p in split.user(5).train {
            assert!(touched.contains(p));
        }
    }

    #[test]
    fn udl_trains_the_prefix_against_small_theta() {
        // With UDL, a medium client's update on the small prefix should
        // differ from the no-UDL case (the extra small-task gradient).
        let (cfg, split, _) = setup(ModelKind::Ncf, Strategy::DirectlyAggregate);
        let server_udl = ServerState::new(
            split.num_items(),
            &cfg,
            Strategy::HeteFedRec(Ablation::NO_RESKD),
        );
        let with_udl = run_one(
            &cfg,
            Strategy::HeteFedRec(Ablation::NO_RESKD),
            &split,
            &server_udl,
            6,
            Tier::Medium,
        );
        let server_no = ServerState::new(split.num_items(), &cfg, Strategy::DirectlyAggregate);
        let without = run_one(
            &cfg,
            Strategy::DirectlyAggregate,
            &split,
            &server_no,
            6,
            Tier::Medium,
        );
        let a = with_udl
            .update
            .items
            .rows
            .iter()
            .find(|(r, _)| **r == split.user(6).train[0]);
        let b = without
            .update
            .items
            .rows
            .iter()
            .find(|(r, _)| **r == split.user(6).train[0]);
        assert_ne!(a.unwrap().1, b.unwrap().1);
    }

    #[test]
    fn ddr_changes_medium_client_updates() {
        let (cfg, split, server) = setup(ModelKind::Ncf, Strategy::HeteFedRec(Ablation::NO_RESKD));
        let with_ddr = run_one(
            &cfg,
            Strategy::HeteFedRec(Ablation::NO_RESKD),
            &split,
            &server,
            7,
            Tier::Medium,
        );
        let without = run_one(
            &cfg,
            Strategy::HeteFedRec(Ablation::NO_RESKD_DDR),
            &split,
            &server,
            7,
            Tier::Medium,
        );
        assert_ne!(
            with_ddr.update.items.rows, without.update.items.rows,
            "DDR had no effect on the upload"
        );
    }

    #[test]
    fn client_with_no_train_data_is_a_noop() {
        let cfg = TrainConfig::test_default(ModelKind::Ncf);
        let data = hf_dataset::ImplicitDataset::new(10, vec![vec![0], vec![1, 2, 3]]);
        // User 0 has one interaction which survives as train (never empty),
        // so construct a truly empty user via an empty list.
        let data2 = hf_dataset::ImplicitDataset::new(10, vec![vec![], vec![1, 2, 3]]);
        let _ = data;
        let split = SplitDataset::paper_split(&data2, 1);
        let strategy = Strategy::HeteFedRec(Ablation::FULL);
        let server = ServerState::new(10, &cfg, strategy);
        let out = run_one(&cfg, strategy, &split, &server, 0, Tier::Small);
        assert_eq!(out.samples, 0);
        assert!(out.update.items.is_empty());
    }

    #[test]
    fn training_is_deterministic() {
        let strategy = Strategy::HeteFedRec(Ablation::FULL);
        let (cfg, split, server) = setup(ModelKind::Ncf, strategy);
        let a = run_one(&cfg, strategy, &split, &server, 8, Tier::Large);
        let b = run_one(&cfg, strategy, &split, &server, 8, Tier::Large);
        assert_eq!(a.update, b.update);
        assert_eq!(a.state.emb(), b.state.emb());
    }

    #[test]
    fn local_loss_decreases_over_repeated_selection() {
        // Selecting the same client repeatedly (applying its own updates
        // to its private state and keeping the server frozen) must reduce
        // its local loss: the local optimisation is genuinely descending.
        let strategy = Strategy::HeteFedRec(Ablation::NO_RESKD_DDR);
        let (mut cfg, split, server) = setup(ModelKind::Ncf, strategy);
        cfg.local_epochs = 2;
        let thetas = server.thetas_for(Tier::Small, true);
        let theta_tiers = vec![Tier::Small];
        let mut state = UserState::init(9, cfg.dims.dim(Tier::Small), &cfg, None);
        // Each round draws fresh negatives, so per-round loss is a noisy
        // estimate; compare averaged windows rather than single rounds.
        let mut losses = Vec::new();
        for round in 0..16 {
            let ctx = ClientCtx {
                cfg: &cfg,
                strategy,
                split: &split,
                user_id: 9,
                model_tier: Tier::Small,
                table: server.table(Tier::Small),
                thetas: &thetas,
                theta_tiers: &theta_tiers,
                round_key: round,
            };
            let out = train_client(&ctx, &state);
            state = out.state;
            losses.push(out.loss / out.samples.max(1) as f64);
        }
        let head = losses[..4].iter().sum::<f64>() / 4.0;
        let tail = losses[losses.len() - 4..].iter().sum::<f64>() / 4.0;
        assert!(tail < head, "head {head}, tail {tail}, losses {losses:?}");
    }
}
