//! # hf_bench
//!
//! Experiment harness: one runnable binary per table and figure of the
//! paper (see `DESIGN.md` §4 for the full index). Performance is not
//! measured here: that is the repo benchmark's job
//! (`benchmark/README.md`).
//!
//! Every binary accepts:
//!
//! * `--scale tiny|small|medium|paper` — dataset fraction and epoch count
//!   (default `tiny`, which completes in well under a minute; `paper` is
//!   the full Table I scale).
//! * `--model ncf|lightgcn|both` — base recommender (default `both`).
//! * `--dataset ml|anime|douban|all` — profile (default depends on the
//!   experiment: figures that the paper shows only for ML default to
//!   `ml`).
//! * `--seed <u64>` — master seed (default 42).
//! * `--json <path>` — JSON snapshot of the results; `--set key=value`
//!   (repeatable) — see [`CliOptions::apply_overrides`].
//!
//! Output is the paper's table/figure re-rendered as text, with the
//! measured values where the paper's numbers would be.

#![warn(missing_docs)]

use hetefedrec_core::config::TrainConfig;
use hf_dataset::{DatasetProfile, SplitDataset};
use hf_models::ModelKind;
use hf_tensor::cli::{self, Cli};

/// Preset experiment scale.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunScale {
    /// Human name.
    pub name: &'static str,
    /// Fraction of the paper's users/items to generate.
    pub fraction: f64,
    /// Global training epochs.
    pub epochs: usize,
}

impl RunScale {
    /// ~2% of paper scale; seconds per run. CI/smoke default.
    pub const TINY: RunScale = RunScale {
        name: "tiny",
        fraction: 0.02,
        epochs: 4,
    };
    /// ~8% of paper scale; a couple of minutes per experiment table.
    pub const SMALL: RunScale = RunScale {
        name: "small",
        fraction: 0.08,
        epochs: 8,
    };
    /// ~25% of paper scale.
    pub const MEDIUM: RunScale = RunScale {
        name: "medium",
        fraction: 0.25,
        epochs: 12,
    };
    /// Full Table I scale with the paper's 20 epochs.
    pub const PAPER: RunScale = RunScale {
        name: "paper",
        fraction: 1.0,
        epochs: 20,
    };

    /// Parses a scale name.
    pub fn parse(s: &str) -> Option<RunScale> {
        match s {
            "tiny" => Some(Self::TINY),
            "small" => Some(Self::SMALL),
            "medium" => Some(Self::MEDIUM),
            "paper" => Some(Self::PAPER),
            _ => None,
        }
    }
}

/// Parsed common CLI options.
#[derive(Clone, Debug)]
pub struct CliOptions {
    /// Experiment scale.
    pub scale: RunScale,
    /// Base models to run.
    pub models: Vec<ModelKind>,
    /// Dataset profiles to run.
    pub datasets: Vec<DatasetProfile>,
    /// Master seed.
    pub seed: u64,
    /// Raw `--set key=value` overrides applied to every config.
    pub overrides: Vec<(String, String)>,
    /// Path to write a JSON snapshot of the run's results (`--json`).
    pub json: Option<String>,
}

impl CliOptions {
    /// Parses the command line, with `default_datasets` used when the user
    /// passes no `--dataset`.
    ///
    /// Exits the process with a usage message on malformed input, and
    /// on `--set` overrides that leave any selected model × dataset
    /// configuration invalid ([`TrainConfig::validate`]): before any data
    /// is generated.
    pub fn parse(default_datasets: &[DatasetProfile]) -> CliOptions {
        let mut cli = Cli::new(USAGE, &[]);
        let opts = CliOptions {
            scale: cli
                .value_with("--scale", RunScale::parse)
                .unwrap_or(RunScale::TINY),
            models: cli
                .value_with("--model", |v| match v {
                    "both" => Some(vec![ModelKind::Ncf, ModelKind::LightGcn]),
                    tag => ModelKind::from_tag(tag).map(|m| vec![m]),
                })
                .unwrap_or_else(|| vec![ModelKind::Ncf, ModelKind::LightGcn]),
            datasets: cli
                .value_with("--dataset", |v| match v {
                    "ml" => Some(vec![DatasetProfile::MovieLens]),
                    "anime" => Some(vec![DatasetProfile::Anime]),
                    "douban" => Some(vec![DatasetProfile::Douban]),
                    "all" => Some(DatasetProfile::ALL.to_vec()),
                    _ => None,
                })
                .unwrap_or_else(|| default_datasets.to_vec()),
            seed: cli.value("--seed").unwrap_or(42),
            overrides: cli
                .values("--set")
                .iter()
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => cli.fail("--set expects key=value"),
                })
                .collect(),
            json: cli.value("--json"),
        };
        cli.finish();
        for &model in &opts.models {
            for &profile in &opts.datasets {
                if let Err(e) = make_config_with(&opts, model, profile).validate() {
                    cli.fail(&format!(
                        "--set leaves {} on {} invalid: {e}",
                        model.name(),
                        profile.name()
                    ));
                }
            }
        }
        opts
    }

    /// Prints the banner every binary opens with.
    pub fn banner(&self, title: &str) {
        println!("{title} (scale={}, seed={})\n", self.scale.name, self.seed);
    }

    /// Writes `report` to the `--json` path, if one was given.
    ///
    /// Convenience wrapper over [`write_json_snapshot`] so a binary's main
    /// can end with `opts.emit_json(&report)`.
    pub fn emit_json(&self, report: &dyn hf_tensor::ser::ToJson) {
        if let Some(path) = &self.json {
            write_json_snapshot(path, report);
        }
    }

    /// Applies any `--set key=value` overrides to a configuration.
    ///
    /// Supported keys: `local_lr`, `user_lr`, `server_lr`, `alpha`,
    /// `kd_lr`, `kd_items`, `kd_steps`, `epochs`, `local_epochs`,
    /// `clients_per_round`, `negatives`, `item_agg_norm`
    /// (`sum|mean|sqrt_count`), `udl_aux` (auxiliary-task weight),
    /// `drop_prob`, `eval_k`, `ddr_max_rows`,
    /// and the event-engine knobs: `mode` (`sync|async`),
    /// `staleness_beta`, `async_buffer`, `async_concurrency`, `latency`
    /// (`fixed:T`, `uniform:MIN:MAX`, `lognormal:MEDIAN:SIGMA`), `churn`
    /// (`none`, `independent:P`, `flappy:P:PERIOD`), and the
    /// secure-aggregation knobs: `secagg` (`on|off`),
    /// `secagg_scale_bits`.
    pub fn apply_overrides(&self, cfg: &mut TrainConfig) {
        use hetefedrec_core::config::{ItemAggNorm, Mode};
        use hf_fedsim::events::LatencyProfile;
        use hf_fedsim::faults::ChurnProfile;
        fn bad(k: &str, v: &str) -> ! {
            cli::fail(USAGE, &format!("bad value for --set {k}={v}"))
        }
        fn num<T: std::str::FromStr>(k: &str, v: &str) -> T {
            v.parse().unwrap_or_else(|_| bad(k, v))
        }
        for (k, v) in &self.overrides {
            match k.as_str() {
                "local_lr" => cfg.local_lr = num(k, v),
                "user_lr" => cfg.user_lr = num(k, v),
                "server_lr" => cfg.server_lr = num(k, v),
                "alpha" => cfg.alpha = num(k, v),
                "kd_lr" => cfg.kd.lr = num(k, v),
                "kd_items" => cfg.kd.items = num(k, v),
                "kd_steps" => cfg.kd.steps = num(k, v),
                "epochs" => cfg.epochs = num(k, v),
                "local_epochs" => cfg.local_epochs = num(k, v),
                "clients_per_round" => cfg.clients_per_round = num(k, v),
                "negatives" => cfg.negatives = num(k, v),
                "drop_prob" => cfg.drop_prob = num(k, v),
                "eval_k" => cfg.eval_k = num(k, v),
                "ddr_max_rows" => cfg.ddr_max_rows = num(k, v),
                "udl_aux" => cfg.udl_aux_weight = num(k, v),
                "item_agg_norm" => {
                    cfg.item_agg_norm = ItemAggNorm::from_tag(v).unwrap_or_else(|| bad(k, v))
                }
                "mode" => cfg.mode = Mode::from_tag(v).unwrap_or_else(|| bad(k, v)),
                "staleness_beta" => cfg.async_cfg.staleness_beta = num(k, v),
                "async_buffer" => cfg.async_cfg.buffer = num(k, v),
                "async_concurrency" => cfg.async_cfg.concurrency = num(k, v),
                "latency" => {
                    cfg.latency = LatencyProfile::parse(v)
                        .unwrap_or_else(|e| cli::fail(USAGE, &format!("--set {k}={v}: {e}")))
                }
                "churn" => {
                    cfg.churn = ChurnProfile::parse(v)
                        .unwrap_or_else(|e| cli::fail(USAGE, &format!("--set {k}={v}: {e}")))
                }
                "secagg" => {
                    cfg.secagg.enabled = match v.as_str() {
                        "on" => true,
                        "off" => false,
                        _ => bad(k, v),
                    }
                }
                "secagg_scale_bits" => cfg.secagg.scale_bits = num(k, v),
                _ => cli::fail(USAGE, &format!("unknown --set key {k}")),
            }
        }
    }
}

const USAGE: &str = "usage: <bin> [--scale tiny|small|medium|paper] [--model ncf|lightgcn|both]\n\
    \x20             [--dataset ml|anime|douban|all] [--seed <u64>]\n\
    \x20             [--json <path>] [--set key=value]...";

/// Serialises `report` and writes it to `path` (atomically, parents
/// created: [`hf_tensor::wire::write_file`]). Exits with an error
/// message on I/O failure (snapshots are an explicit user request;
/// failing silently would lose the run's results) — status 1 without the
/// usage banner: the arguments were fine, the filesystem was not.
pub fn write_json_snapshot(path: &str, report: &dyn hf_tensor::ser::ToJson) {
    use std::io::Write as _;
    let written = hf_tensor::wire::write_file(path.as_ref(), |mut out| {
        writeln!(out, "{}", report.to_json())?;
        out.flush()
    });
    if let Err(e) = written {
        cli::fatal(format!("cannot write {path}: {e}"));
    }
    eprintln!("json snapshot written to {path}");
}

/// One generic `--json` snapshot row: string labels identifying the
/// setting (model, dataset, method, …) followed by named numeric
/// results, and optionally named numeric series (per-epoch curves,
/// histogram counts). Binaries whose output maps onto labels + scalars
/// use this; binaries with richer structure (Table I stats, Table V
/// diagnostics) define bespoke row types instead.
#[derive(Default)]
pub struct SnapshotRow {
    labels: Vec<(&'static str, String)>,
    values: Vec<(&'static str, f64)>,
    series: Vec<(&'static str, Vec<f64>)>,
}

impl SnapshotRow {
    /// An empty row; chain [`Self::label`]/[`Self::value`]/[`Self::series`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a string field (emitted in insertion order, before values).
    pub fn label(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.labels.push((name, value.into()));
        self
    }

    /// Adds a numeric field.
    pub fn value(mut self, name: &'static str, value: f64) -> Self {
        self.values.push((name, value));
        self
    }

    /// Adds a numeric-array field.
    pub fn series(mut self, name: &'static str, values: Vec<f64>) -> Self {
        self.series.push((name, values));
        self
    }
}

impl hf_tensor::ser::ToJson for SnapshotRow {
    fn write_json(&self, out: &mut String) {
        hf_tensor::ser::obj(out, |o| {
            for (name, value) in &self.labels {
                o.field(name, value);
            }
            for (name, value) in &self.values {
                o.field(name, value);
            }
            for (name, values) in &self.series {
                o.field(name, values);
            }
        });
    }
}

/// Generates and splits a profile at the given scale, deterministically.
pub fn make_split(profile: DatasetProfile, scale: RunScale, seed: u64) -> SplitDataset {
    let data = profile.config_scaled(scale.fraction).generate(seed);
    SplitDataset::paper_split(&data, seed)
}

/// Paper-default training configuration at this scale (threads matched to
/// the machine, epochs from the scale preset).
pub fn make_config(
    model: ModelKind,
    profile: DatasetProfile,
    scale: RunScale,
    seed: u64,
) -> TrainConfig {
    let mut cfg = TrainConfig::paper_defaults(model, profile);
    cfg.epochs = scale.epochs;
    cfg.seed = seed;
    cfg.threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    cfg
}

/// [`make_config`] plus the CLI's `--set` overrides.
pub fn make_config_with(
    opts: &CliOptions,
    model: ModelKind,
    profile: DatasetProfile,
) -> TrainConfig {
    let mut cfg = make_config(model, profile, opts.scale, opts.seed);
    opts.apply_overrides(&mut cfg);
    cfg
}

/// One model × dataset cell of an experiment grid: what [`run_grid`]
/// hands a binary for each combination the CLI selected.
pub struct Cell {
    /// Base recommender of this cell.
    pub model: ModelKind,
    /// Dataset profile of this cell.
    pub profile: DatasetProfile,
    /// The profile generated and split at the CLI's scale and seed.
    pub split: SplitDataset,
    /// Paper defaults at the CLI's scale and seed, `--set` applied.
    pub cfg: TrainConfig,
}

impl Cell {
    /// A snapshot row labelled with this cell's model and dataset.
    pub fn row(&self) -> SnapshotRow {
        SnapshotRow::new()
            .label("model", self.model.name())
            .label("dataset", self.profile.name())
    }
}

/// The skeleton the model × dataset binaries share: parse the CLI,
/// print the banner, run `cell` on every combination (models outer,
/// datasets inner) under an `== model on dataset ==` heading, then write
/// the `--json` snapshot of the rows it pushed.
pub fn run_grid(
    title: &str,
    default_datasets: &[DatasetProfile],
    mut cell: impl FnMut(&Cell, &mut Vec<SnapshotRow>),
) {
    let opts = CliOptions::parse(default_datasets);
    opts.banner(title);
    let mut snapshot = Vec::new();
    for &model in &opts.models {
        for &profile in &opts.datasets {
            println!("== {} on {} ==", model.name(), profile.name());
            let split = make_split(profile, opts.scale, opts.seed);
            let cfg = make_config_with(&opts, model, profile);
            cell(
                &Cell {
                    model,
                    profile,
                    split,
                    cfg,
                },
                &mut snapshot,
            );
            println!();
        }
    }
    opts.emit_json(&snapshot);
}

/// Renders a horizontal rule sized to a header line.
pub fn rule(header: &str) -> String {
    "-".repeat(header.chars().count())
}

/// Formats a metric to the paper's 5-decimal style.
pub fn fmt5(x: f64) -> String {
    format!("{x:.5}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(RunScale::parse("tiny"), Some(RunScale::TINY));
        assert_eq!(RunScale::parse("paper"), Some(RunScale::PAPER));
        assert_eq!(RunScale::parse("bogus"), None);
    }

    #[test]
    fn make_split_is_deterministic() {
        let a = make_split(DatasetProfile::MovieLens, RunScale::TINY, 1);
        let b = make_split(DatasetProfile::MovieLens, RunScale::TINY, 1);
        assert_eq!(a.num_users(), b.num_users());
        assert_eq!(a.user(0).train, b.user(0).train);
    }

    #[test]
    fn make_config_applies_scale() {
        let cfg = make_config(
            ModelKind::Ncf,
            DatasetProfile::MovieLens,
            RunScale::SMALL,
            7,
        );
        assert_eq!(cfg.epochs, RunScale::SMALL.epochs);
        assert_eq!(cfg.seed, 7);
        assert!(cfg.threads >= 1);
    }

    #[test]
    fn fmt5_matches_paper_style() {
        assert_eq!(fmt5(0.026_62), "0.02662");
    }

    #[test]
    fn json_snapshot_roundtrips_through_the_filesystem() {
        // Pid-suffixed so concurrent test runs on one machine don't race
        // on the same path.
        let dir =
            std::env::temp_dir().join(format!("hf_bench_snapshot_test_{}", std::process::id()));
        let path = dir.join("nested").join("snap.json");
        let path_str = path.to_str().expect("utf-8 temp path");
        write_json_snapshot(path_str, &vec![1u32, 2, 3]);
        let contents = std::fs::read_to_string(&path).expect("snapshot written");
        assert_eq!(contents, "[1,2,3]\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
