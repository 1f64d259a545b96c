//! Experiment configuration.

use hf_dataset::{DatasetProfile, DivisionRatio, Tier};
use hf_fedsim::{ChurnProfile, LatencyProfile};
use hf_models::ModelKind;
use hf_tensor::ser::{obj, JsonError, JsonValue, ToJson};

/// A rejected configuration field.
///
/// Produced by [`TrainConfig::validate`] — the session builder surfaces
/// these as `Result`s instead of panicking deep inside the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending field, e.g. `"local_lr"`.
    pub field: &'static str,
    /// Why the value was rejected.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "config field `{}`: {}", self.field, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn bad(field: &'static str, message: impl Into<String>) -> ConfigError {
    ConfigError {
        field,
        message: message.into(),
    }
}

/// The three tier embedding dimensions `{Ns, Nm, Nl}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TierDims {
    dims: [usize; 3],
}

impl TierDims {
    /// Creates tier dimensions, enforcing `Ns < Nm < Nl` (paper §IV-A).
    pub fn new(small: usize, medium: usize, large: usize) -> Self {
        assert!(
            small > 0 && small < medium && medium < large,
            "tier dims must satisfy 0 < Ns < Nm < Nl, got {small},{medium},{large}"
        );
        Self {
            dims: [small, medium, large],
        }
    }

    /// The paper's ML/Anime setting `{8, 16, 32}`.
    pub fn paper_small() -> Self {
        Self::new(8, 16, 32)
    }

    /// The paper's Douban setting `{32, 64, 128}`.
    pub fn paper_large() -> Self {
        Self::new(32, 64, 128)
    }

    /// The RQ5 tiny setting `{2, 4, 8}`.
    pub fn rq5_tiny() -> Self {
        Self::new(2, 4, 8)
    }

    /// Dimension of one tier.
    pub fn dim(&self, tier: Tier) -> usize {
        self.dims[tier.index()]
    }

    /// All three dimensions, ascending.
    pub fn as_array(&self) -> [usize; 3] {
        self.dims
    }

    /// The widest dimension (`Nl`).
    pub fn largest(&self) -> usize {
        self.dims[2]
    }

    /// Paper-style label, e.g. `{8,16,32}`.
    pub fn label(&self) -> String {
        format!("{{{},{},{}}}", self.dims[0], self.dims[1], self.dims[2])
    }

    /// Restores checkpointed tier dimensions (monotonicity re-checked).
    pub fn from_json(v: &JsonValue<'_>) -> Result<Self, JsonError> {
        let dims = v.as_usize_vec()?;
        let [s, m, l]: [usize; 3] = dims
            .try_into()
            .map_err(|_| JsonError::msg("tier dims must have 3 entries"))?;
        if !(s > 0 && s < m && m < l) {
            return Err(JsonError::msg(format!(
                "tier dims must satisfy 0 < Ns < Nm < Nl, got {s},{m},{l}"
            )));
        }
        Ok(Self { dims: [s, m, l] })
    }
}

impl ToJson for TierDims {
    fn write_json(&self, out: &mut String) {
        self.dims.write_json(out);
    }
}

/// Relation-based ensemble self-distillation settings (Eq. 16–17).
#[derive(Clone, Copy, Debug)]
pub struct KdConfig {
    /// Items sampled per distillation step (`|V_kd|`).
    pub items: usize,
    /// Server-side gradient-step size on the alignment loss.
    pub lr: f32,
    /// Gradient steps per aggregation round.
    pub steps: usize,
}

impl Default for KdConfig {
    fn default() -> Self {
        Self {
            items: 128,
            lr: 1.0,
            steps: 1,
        }
    }
}

impl ToJson for KdConfig {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            o.field("items", &self.items)
                .field("lr", &self.lr)
                .field("steps", &self.steps);
        });
    }
}

impl KdConfig {
    /// Restores a checkpointed distillation configuration.
    pub fn from_json(v: &JsonValue<'_>) -> Result<Self, JsonError> {
        Ok(Self {
            items: v.get("items")?.as_usize()?,
            lr: v.get("lr")?.as_f32()?,
            steps: v.get("steps")?.as_usize()?,
        })
    }
}

/// How the server folds aggregated deltas into the public parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerOpt {
    /// Eq. 9 literal: `V -= server_lr * Σ Δ` (deltas already carry the
    /// local learning rate, so `server_lr = 1` reproduces summed local
    /// progress). Predictors average rather than sum — see DESIGN.md §5.
    SgdSum,
    /// Server-side Adam over the summed deltas (per embedding row and per
    /// predictor tensor) — the ablation alternative.
    Adam,
}

/// Per-row normalisation of the aggregated item-embedding delta.
///
/// Eq. 8's plain sum lets a popular item accumulate one full local step
/// from *every* client that touched it each round, which overdrives head
/// items and destabilises training (visible as post-peak degradation in
/// the convergence curves). Normalising by the contributor count per row
/// restores stability; `SqrtCount` is the compromise that keeps some
/// popularity-proportional progress. The server-optimiser ablation bench
/// compares all three.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemAggNorm {
    /// Eq. 8 literal: plain sum.
    Sum,
    /// Divide each row's summed delta by its contributor count.
    Mean,
    /// Divide each row's summed delta by sqrt(contributor count).
    SqrtCount,
}

impl ServerOpt {
    /// Stable checkpoint tag.
    pub fn tag(self) -> &'static str {
        match self {
            ServerOpt::SgdSum => "sgd_sum",
            ServerOpt::Adam => "adam",
        }
    }

    /// Parses a [`ServerOpt::tag`] spelling.
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "sgd_sum" => Some(ServerOpt::SgdSum),
            "adam" => Some(ServerOpt::Adam),
            _ => None,
        }
    }
}

impl ItemAggNorm {
    /// Stable checkpoint tag.
    pub fn tag(self) -> &'static str {
        match self {
            ItemAggNorm::Sum => "sum",
            ItemAggNorm::Mean => "mean",
            ItemAggNorm::SqrtCount => "sqrt_count",
        }
    }

    /// Parses an [`ItemAggNorm::tag`] spelling.
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "sum" => Some(ItemAggNorm::Sum),
            "mean" => Some(ItemAggNorm::Mean),
            "sqrt_count" => Some(ItemAggNorm::SqrtCount),
            _ => None,
        }
    }
}

/// How the session orchestrates client training.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The paper's lockstep rounds: every cohort trains against the same
    /// parameters and the server waits for all of them (§V-D).
    Sync,
    /// Event-driven asynchronous federation: clients are dispatched up to a
    /// concurrency cap, arrive after per-client latency draws, and are
    /// aggregated in buffered batches with staleness-discounted weights.
    Async,
}

impl Mode {
    /// Stable checkpoint tag.
    pub fn tag(self) -> &'static str {
        match self {
            Mode::Sync => "sync",
            Mode::Async => "async",
        }
    }

    /// Parses a [`Mode::tag`] spelling.
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "sync" => Some(Mode::Sync),
            "async" => Some(Mode::Async),
            _ => None,
        }
    }
}

/// Knobs of the asynchronous aggregation policy (only read when
/// [`TrainConfig::mode`] is [`Mode::Async`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AsyncConfig {
    /// Staleness discount exponent β: an update dispatched `s` aggregation
    /// rounds ago is weighted `1 / (1 + s)^β`. Zero disables discounting.
    pub staleness_beta: f32,
    /// Arrivals aggregated per async round (the FedBuff-style buffer).
    pub buffer: usize,
    /// Maximum clients in flight at once.
    pub concurrency: usize,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        Self {
            staleness_beta: 0.5,
            buffer: 64,
            concurrency: 512,
        }
    }
}

impl ToJson for AsyncConfig {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            o.field("staleness_beta", &self.staleness_beta)
                .field("buffer", &self.buffer)
                .field("concurrency", &self.concurrency);
        });
    }
}

impl AsyncConfig {
    /// Restores checkpointed async settings. A document that turned on
    /// the retired adaptive β (`"adaptive_beta": true`, only ever written
    /// by tests) is refused rather than resumed under a different
    /// weighting.
    pub fn from_json(v: &JsonValue<'_>) -> Result<Self, JsonError> {
        if let Some(adaptive) = v.opt("adaptive_beta") {
            if adaptive.as_bool()? {
                return Err(JsonError::msg(
                    "adaptive_beta is no longer supported: this checkpoint cannot resume",
                ));
            }
        }
        Ok(Self {
            staleness_beta: v.get("staleness_beta")?.as_f32()?,
            buffer: v.get("buffer")?.as_usize()?,
            concurrency: v.get("concurrency")?.as_usize()?,
        })
    }
}

/// Secure-aggregation knobs for the upload path (DESIGN.md §10).
///
/// Default **off**: the session runs today's plaintext upload path and
/// produces byte-identical checkpoints. When enabled, every accepted
/// upload is quantized into the u64 ring and pairwise-masked, and the
/// server only ever sees blind aggregates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SecAggConfig {
    /// Route uploads through the pairwise-masked path.
    pub enabled: bool,
    /// Fixed-point resolution exponent: deltas are quantized to a grid
    /// of `2^-scale_bits`. Must lie in `1..=30`.
    pub scale_bits: u32,
}

impl Default for SecAggConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            scale_bits: 16,
        }
    }
}

impl ToJson for SecAggConfig {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            o.field("enabled", &self.enabled)
                .field("scale_bits", &(self.scale_bits as u64));
        });
    }
}

impl SecAggConfig {
    /// Restores checkpointed secure-aggregation settings.
    pub fn from_json(v: &JsonValue<'_>) -> Result<Self, JsonError> {
        Ok(Self {
            enabled: v.get("enabled")?.as_bool()?,
            scale_bits: v.get("scale_bits")?.as_u64()? as u32,
        })
    }
}

/// Full configuration of one federated training run.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Base recommendation model.
    pub model: ModelKind,
    /// Tier embedding dimensions.
    pub dims: TierDims,
    /// Client division ratio over (small, medium, large).
    pub ratio: DivisionRatio,
    /// Global training epochs (each epoch traverses all clients once).
    pub epochs: usize,
    /// Clients per round (paper: 256).
    pub clients_per_round: usize,
    /// Local passes over a client's data per selection (paper's "local
    /// epochs").
    pub local_epochs: usize,
    /// Client-side learning rate for local public-parameter SGD.
    pub local_lr: f32,
    /// Client-side Adam learning rate for the private user embedding
    /// (paper: Adam, 0.001 — we default higher because each client is
    /// selected only once per epoch).
    pub user_lr: f32,
    /// Server application of aggregated updates.
    pub server_opt: ServerOpt,
    /// Per-row normalisation of aggregated item deltas.
    pub item_agg_norm: ItemAggNorm,
    /// Server learning-rate scale on summed item deltas.
    pub server_lr: f32,
    /// Negatives per positive (paper: 4).
    pub negatives: usize,
    /// DDR weight α (Eq. 14; Fig. 8 sweeps 0.5–2.0).
    pub alpha: f32,
    /// Weight of each *auxiliary* prefix task in the UDL loss (the
    /// client's own-tier task always has weight 1). Eq. 11 sums tasks
    /// unweighted (`= 1.0`); damping the auxiliary tasks keeps the
    /// effective step size on shared prefix dimensions comparable to
    /// single-task clients under per-sample SGD, and bounds how much an
    /// over-fit large client can perturb the small tier's objective. The
    /// ablation bench compares weightings.
    pub udl_aux_weight: f32,
    /// Row cap for the DDR correlation computation (bounds client cost).
    pub ddr_max_rows: usize,
    /// Distillation settings.
    pub kd: KdConfig,
    /// Ranking cutoff (paper: 20).
    pub eval_k: usize,
    /// Worker threads for intra-round parallelism.
    pub threads: usize,
    /// Master experiment seed.
    pub seed: u64,
    /// Client upload drop probability (0 = paper setting).
    pub drop_prob: f64,
    /// Orchestration mode (lockstep rounds vs event-driven async).
    pub mode: Mode,
    /// Asynchronous-mode knobs (ignored under [`Mode::Sync`]).
    pub async_cfg: AsyncConfig,
    /// Per-dispatch client latency model. `Fixed(1)` reproduces the legacy
    /// accounting where one synchronous round costs one logical tick.
    pub latency: LatencyProfile,
    /// Client availability model (`None` = paper setting, always online).
    pub churn: ChurnProfile,
    /// Secure aggregation of the upload path (default off).
    pub secagg: SecAggConfig,
}

impl TrainConfig {
    /// Paper-default hyper-parameters for a dataset profile (§V-D), with
    /// epochs left for the caller to choose.
    pub fn paper_defaults(model: ModelKind, profile: DatasetProfile) -> Self {
        let [s, m, l] = profile.paper_dims();
        Self {
            model,
            dims: TierDims::new(s, m, l),
            ratio: DivisionRatio::PAPER_DEFAULT,
            epochs: 20,
            clients_per_round: 256,
            local_epochs: 2,
            local_lr: 0.05,
            user_lr: 0.01,
            server_opt: ServerOpt::SgdSum,
            item_agg_norm: ItemAggNorm::SqrtCount,
            server_lr: 2.0,
            negatives: 4,
            alpha: 1.0,
            udl_aux_weight: 0.3,
            ddr_max_rows: 256,
            kd: KdConfig::default(),
            eval_k: 20,
            threads: 2,
            seed: 42,
            drop_prob: 0.0,
            mode: Mode::Sync,
            async_cfg: AsyncConfig::default(),
            latency: LatencyProfile::unit(),
            churn: ChurnProfile::None,
            secagg: SecAggConfig::default(),
        }
    }

    /// Checks every field for sanity, returning the first offending one.
    ///
    /// The session builder calls this before constructing any state, so a
    /// bad configuration surfaces as a `Result` at the API boundary
    /// instead of a panic (or NaN cascade) mid-run.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn positive_finite(field: &'static str, x: f32) -> Result<(), ConfigError> {
            if x.is_finite() && x > 0.0 {
                Ok(())
            } else {
                Err(bad(field, format!("must be finite and positive, got {x}")))
            }
        }
        fn nonneg_finite(field: &'static str, x: f32) -> Result<(), ConfigError> {
            if x.is_finite() && x >= 0.0 {
                Ok(())
            } else {
                Err(bad(field, format!("must be finite and >= 0, got {x}")))
            }
        }
        if self.epochs == 0 {
            return Err(bad("epochs", "at least one epoch required"));
        }
        if self.clients_per_round == 0 {
            return Err(bad("clients_per_round", "round size must be positive"));
        }
        if self.local_epochs == 0 {
            return Err(bad("local_epochs", "at least one local pass required"));
        }
        if self.negatives == 0 {
            return Err(bad("negatives", "at least one negative per positive"));
        }
        if self.eval_k == 0 {
            return Err(bad("eval_k", "ranking cutoff must be positive"));
        }
        if self.threads == 0 {
            return Err(bad("threads", "at least one worker thread required"));
        }
        if self.ddr_max_rows < 2 {
            return Err(bad("ddr_max_rows", "correlation needs at least 2 rows"));
        }
        positive_finite("local_lr", self.local_lr)?;
        positive_finite("user_lr", self.user_lr)?;
        positive_finite("server_lr", self.server_lr)?;
        nonneg_finite("alpha", self.alpha)?;
        nonneg_finite("udl_aux_weight", self.udl_aux_weight)?;
        if self.kd.items == 0 {
            return Err(bad("kd.items", "distillation subset must be non-empty"));
        }
        if self.kd.steps == 0 {
            return Err(bad("kd.steps", "at least one distillation step"));
        }
        positive_finite("kd.lr", self.kd.lr)?;
        if !(0.0..1.0).contains(&self.drop_prob) {
            return Err(bad(
                "drop_prob",
                format!("must lie in [0, 1), got {}", self.drop_prob),
            ));
        }
        nonneg_finite("async.staleness_beta", self.async_cfg.staleness_beta)?;
        if self.async_cfg.buffer == 0 {
            return Err(bad("async.buffer", "aggregation buffer must be positive"));
        }
        if self.async_cfg.concurrency == 0 {
            return Err(bad("async.concurrency", "at least one client in flight"));
        }
        self.latency.validate().map_err(|m| bad("latency", m))?;
        self.churn.validate().map_err(|m| bad("churn", m))?;
        if self.secagg.scale_bits == 0 || self.secagg.scale_bits > hf_secagg::MAX_SCALE_BITS {
            return Err(bad(
                "secagg.scale_bits",
                format!(
                    "must lie in 1..={}, got {}",
                    hf_secagg::MAX_SCALE_BITS,
                    self.secagg.scale_bits
                ),
            ));
        }
        Ok(())
    }

    /// Restores a checkpointed configuration (re-validated).
    pub fn from_json(v: &JsonValue<'_>) -> Result<Self, JsonError> {
        let cfg = Self {
            model: ModelKind::from_json(v.get("model")?)?,
            dims: TierDims::from_json(v.get("dims")?)?,
            ratio: DivisionRatio::from_json(v.get("ratio")?)?,
            epochs: v.get("epochs")?.as_usize()?,
            clients_per_round: v.get("clients_per_round")?.as_usize()?,
            local_epochs: v.get("local_epochs")?.as_usize()?,
            local_lr: v.get("local_lr")?.as_f32()?,
            user_lr: v.get("user_lr")?.as_f32()?,
            server_opt: {
                let tag = v.get("server_opt")?.as_str()?;
                ServerOpt::from_tag(tag)
                    .ok_or_else(|| JsonError::msg(format!("unknown server_opt `{tag}`")))?
            },
            item_agg_norm: {
                let tag = v.get("item_agg_norm")?.as_str()?;
                ItemAggNorm::from_tag(tag)
                    .ok_or_else(|| JsonError::msg(format!("unknown item_agg_norm `{tag}`")))?
            },
            server_lr: v.get("server_lr")?.as_f32()?,
            negatives: v.get("negatives")?.as_usize()?,
            alpha: v.get("alpha")?.as_f32()?,
            udl_aux_weight: v.get("udl_aux_weight")?.as_f32()?,
            ddr_max_rows: v.get("ddr_max_rows")?.as_usize()?,
            kd: KdConfig::from_json(v.get("kd")?)?,
            eval_k: v.get("eval_k")?.as_usize()?,
            threads: v.get("threads")?.as_usize()?,
            seed: v.get("seed")?.as_u64()?,
            drop_prob: v.get("drop_prob")?.as_f64()?,
            // The orchestration fields are optional: v1 checkpoints predate
            // them and restore as the synchronous paper setting.
            mode: match v.opt("mode") {
                Some(m) => {
                    let tag = m.as_str()?;
                    Mode::from_tag(tag)
                        .ok_or_else(|| JsonError::msg(format!("unknown mode `{tag}`")))?
                }
                None => Mode::Sync,
            },
            async_cfg: match v.opt("async") {
                Some(a) => AsyncConfig::from_json(a)?,
                None => AsyncConfig::default(),
            },
            latency: match v.opt("latency") {
                Some(l) => LatencyProfile::from_json(l)?,
                None => LatencyProfile::unit(),
            },
            churn: match v.opt("churn") {
                Some(c) => ChurnProfile::from_json(c)?,
                None => ChurnProfile::None,
            },
            // Absent in v1/v2 documents and in every default-off run.
            secagg: match v.opt("secagg") {
                Some(s) => SecAggConfig::from_json(s)?,
                None => SecAggConfig::default(),
            },
        };
        cfg.validate().map_err(|e| JsonError::msg(e.to_string()))?;
        Ok(cfg)
    }

    /// A fast configuration for unit tests: tiny tiers, few epochs.
    pub fn test_default(model: ModelKind) -> Self {
        Self {
            model,
            dims: TierDims::new(4, 8, 16),
            ratio: DivisionRatio::PAPER_DEFAULT,
            epochs: 2,
            clients_per_round: 32,
            local_epochs: 1,
            local_lr: 0.05,
            user_lr: 0.01,
            server_opt: ServerOpt::SgdSum,
            item_agg_norm: ItemAggNorm::SqrtCount,
            server_lr: 2.0,
            negatives: 4,
            alpha: 1.0,
            udl_aux_weight: 0.3,
            ddr_max_rows: 64,
            kd: KdConfig {
                items: 16,
                lr: 0.05,
                steps: 1,
            },
            eval_k: 10,
            threads: 1,
            seed: 7,
            drop_prob: 0.0,
            mode: Mode::Sync,
            async_cfg: AsyncConfig {
                staleness_beta: 0.5,
                buffer: 8,
                concurrency: 16,
            },
            latency: LatencyProfile::unit(),
            churn: ChurnProfile::None,
            secagg: SecAggConfig::default(),
        }
    }
}

impl ToJson for TrainConfig {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            o.field("model", &self.model)
                .field("dims", &self.dims)
                .field("ratio", &self.ratio)
                .field("epochs", &self.epochs)
                .field("clients_per_round", &self.clients_per_round)
                .field("local_epochs", &self.local_epochs)
                .field("local_lr", &self.local_lr)
                .field("user_lr", &self.user_lr)
                .field("server_opt", &self.server_opt.tag())
                .field("item_agg_norm", &self.item_agg_norm.tag())
                .field("server_lr", &self.server_lr)
                .field("negatives", &self.negatives)
                .field("alpha", &self.alpha)
                .field("udl_aux_weight", &self.udl_aux_weight)
                .field("ddr_max_rows", &self.ddr_max_rows)
                .field("kd", &self.kd)
                .field("eval_k", &self.eval_k)
                .field("threads", &self.threads)
                .field("seed", &self.seed)
                .field("drop_prob", &self.drop_prob)
                .field("mode", &self.mode.tag())
                .field("async", &self.async_cfg)
                .field("latency", &self.latency)
                .field("churn", &self.churn);
            // Emitted only when it differs from the default so the
            // default-off configuration serializes byte-identically to
            // every pre-secagg document.
            if self.secagg != SecAggConfig::default() {
                o.field("secagg", &self.secagg);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_dims_accessors() {
        let d = TierDims::paper_small();
        assert_eq!(d.dim(Tier::Small), 8);
        assert_eq!(d.dim(Tier::Medium), 16);
        assert_eq!(d.dim(Tier::Large), 32);
        assert_eq!(d.largest(), 32);
        assert_eq!(d.label(), "{8,16,32}");
    }

    #[test]
    #[should_panic(expected = "tier dims")]
    fn rejects_non_monotone_dims() {
        let _ = TierDims::new(8, 8, 16);
    }

    #[test]
    fn paper_defaults_follow_section_v_d() {
        let cfg = TrainConfig::paper_defaults(ModelKind::Ncf, DatasetProfile::Douban);
        assert_eq!(cfg.dims.as_array(), [32, 64, 128]);
        assert_eq!(cfg.clients_per_round, 256);
        assert_eq!(cfg.negatives, 4);
        assert_eq!(cfg.eval_k, 20);
        assert_eq!(cfg.ratio, DivisionRatio::PAPER_DEFAULT);
    }

    #[test]
    fn ml_defaults_use_small_dims() {
        let cfg = TrainConfig::paper_defaults(ModelKind::LightGcn, DatasetProfile::MovieLens);
        assert_eq!(cfg.dims.as_array(), [8, 16, 32]);
    }

    #[test]
    fn defaults_validate_cleanly() {
        TrainConfig::paper_defaults(ModelKind::Ncf, DatasetProfile::Douban)
            .validate()
            .unwrap();
        TrainConfig::test_default(ModelKind::LightGcn)
            .validate()
            .unwrap();
    }

    #[test]
    fn validate_rejects_bad_fields_with_the_field_name() {
        let base = TrainConfig::test_default(ModelKind::Ncf);
        type Mutation = Box<dyn Fn(&mut TrainConfig)>;
        let cases: Vec<(&str, Mutation)> = vec![
            ("epochs", Box::new(|c| c.epochs = 0)),
            ("clients_per_round", Box::new(|c| c.clients_per_round = 0)),
            ("local_epochs", Box::new(|c| c.local_epochs = 0)),
            ("negatives", Box::new(|c| c.negatives = 0)),
            ("eval_k", Box::new(|c| c.eval_k = 0)),
            ("threads", Box::new(|c| c.threads = 0)),
            ("ddr_max_rows", Box::new(|c| c.ddr_max_rows = 1)),
            ("local_lr", Box::new(|c| c.local_lr = 0.0)),
            ("user_lr", Box::new(|c| c.user_lr = f32::NAN)),
            ("server_lr", Box::new(|c| c.server_lr = -1.0)),
            ("alpha", Box::new(|c| c.alpha = f32::INFINITY)),
            ("udl_aux_weight", Box::new(|c| c.udl_aux_weight = -0.5)),
            ("kd.items", Box::new(|c| c.kd.items = 0)),
            ("kd.steps", Box::new(|c| c.kd.steps = 0)),
            ("kd.lr", Box::new(|c| c.kd.lr = 0.0)),
            ("drop_prob", Box::new(|c| c.drop_prob = 1.0)),
            (
                "async.staleness_beta",
                Box::new(|c| c.async_cfg.staleness_beta = f32::NAN),
            ),
            ("async.buffer", Box::new(|c| c.async_cfg.buffer = 0)),
            (
                "async.concurrency",
                Box::new(|c| c.async_cfg.concurrency = 0),
            ),
            (
                "latency",
                Box::new(|c| c.latency = LatencyProfile::Fixed(0)),
            ),
            (
                "churn",
                Box::new(|c| {
                    c.churn = ChurnProfile::Independent { offline_prob: 1.5 };
                }),
            ),
            ("secagg.scale_bits", Box::new(|c| c.secagg.scale_bits = 31)),
        ];
        for (field, mutate) in cases {
            let mut cfg = base.clone();
            mutate(&mut cfg);
            let err = cfg.validate().expect_err(field);
            assert_eq!(err.field, field, "{err}");
        }
    }

    #[test]
    fn config_json_roundtrips_exactly() {
        use hf_tensor::ser::{parse_json, ToJson};
        let mut cfg = TrainConfig::paper_defaults(ModelKind::LightGcn, DatasetProfile::Douban);
        cfg.server_opt = ServerOpt::Adam;
        cfg.item_agg_norm = ItemAggNorm::Mean;
        cfg.drop_prob = 0.25;
        cfg.local_lr = 1.0 / 3.0;
        cfg.mode = Mode::Async;
        cfg.async_cfg = AsyncConfig {
            staleness_beta: 0.75,
            buffer: 48,
            concurrency: 192,
        };
        cfg.latency = LatencyProfile::LogNormal {
            median: 4.0,
            sigma: 0.8,
        };
        cfg.churn = ChurnProfile::Flappy {
            offline_prob: 0.2,
            period: 5,
        };
        cfg.secagg = SecAggConfig {
            enabled: true,
            scale_bits: 20,
        };
        let back = TrainConfig::from_json(&parse_json(&cfg.to_json()).unwrap()).unwrap();
        assert_eq!(back.model, cfg.model);
        assert_eq!(back.dims, cfg.dims);
        assert_eq!(back.ratio, cfg.ratio);
        assert_eq!(back.epochs, cfg.epochs);
        assert_eq!(back.server_opt, cfg.server_opt);
        assert_eq!(back.item_agg_norm, cfg.item_agg_norm);
        assert_eq!(back.local_lr.to_bits(), cfg.local_lr.to_bits());
        assert_eq!(back.drop_prob.to_bits(), cfg.drop_prob.to_bits());
        assert_eq!(back.seed, cfg.seed);
        assert_eq!(back.mode, cfg.mode);
        assert_eq!(back.async_cfg, cfg.async_cfg);
        assert_eq!(back.latency, cfg.latency);
        assert_eq!(back.churn, cfg.churn);
        assert_eq!(back.secagg, cfg.secagg);
    }

    #[test]
    fn default_off_secagg_serializes_without_the_field() {
        use hf_tensor::ser::{parse_json, ToJson};
        let cfg = TrainConfig::test_default(ModelKind::Ncf);
        let json = cfg.to_json();
        assert!(
            !json.contains("secagg"),
            "default-off secagg must not appear in the document: {json}"
        );
        let back = TrainConfig::from_json(&parse_json(&json).unwrap()).unwrap();
        assert_eq!(back.secagg, SecAggConfig::default());
    }

    #[test]
    fn documents_that_turned_on_adaptive_beta_fail_restore() {
        use hf_tensor::ser::{parse_json, ToJson};
        let cfg = TrainConfig::test_default(ModelKind::Ncf);
        let json = cfg.to_json();
        let with = |flag: bool| {
            let field = format!("\"concurrency\":16,\"adaptive_beta\":{flag}");
            let doc = json.replace("\"concurrency\":16", &field);
            assert_ne!(doc, json, "the async block carries the retired field");
            TrainConfig::from_json(&parse_json(&doc).unwrap())
        };
        let e = with(true).expect_err("refused");
        assert!(e.to_string().contains("adaptive_beta"), "{e}");
        // `false` was its only behaviour, so that still restores.
        assert_eq!(with(false).unwrap().async_cfg, cfg.async_cfg);
    }

    #[test]
    fn per_tier_latency_roundtrips_through_config() {
        use hf_tensor::ser::{parse_json, ToJson};
        let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
        cfg.latency = LatencyProfile::PerTier(Box::new([
            LatencyProfile::Fixed(1),
            LatencyProfile::Uniform { min: 2, max: 6 },
            LatencyProfile::LogNormal {
                median: 9.0,
                sigma: 0.5,
            },
        ]));
        let back = TrainConfig::from_json(&parse_json(&cfg.to_json()).unwrap()).unwrap();
        assert_eq!(back.latency, cfg.latency);
    }

    #[test]
    fn v1_config_without_orchestration_fields_restores_as_sync() {
        use hf_tensor::ser::{parse_json, ToJson};
        let cfg = TrainConfig::test_default(ModelKind::Ncf);
        // Strip the orchestration fields to reconstruct a v1 document.
        let json = cfg.to_json();
        let cut = json.find(",\"mode\":").expect("mode field present");
        let v1 = format!("{}}}", &json[..cut]);
        let back = TrainConfig::from_json(&parse_json(&v1).unwrap()).unwrap();
        assert_eq!(back.mode, Mode::Sync);
        assert_eq!(back.async_cfg, AsyncConfig::default());
        assert_eq!(back.latency, LatencyProfile::unit());
        assert_eq!(back.churn, ChurnProfile::None);
    }

    #[test]
    fn config_from_json_revalidates() {
        use hf_tensor::ser::{parse_json, ToJson};
        let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
        cfg.epochs = 0;
        let json = cfg.to_json();
        let doc = parse_json(&json).unwrap();
        assert!(TrainConfig::from_json(&doc).is_err());
    }
}
