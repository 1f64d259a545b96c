//! The repo benchmark.
//!
//! ```text
//! hf-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! hf-benchmark run     [--seed n] [--seconds s] [--smoke]
//! hf-benchmark repeat  [--seconds s] [--smoke]
//! hf-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of its output, one JSON object with the metrics
//! `BENCHMARK.json` names. `run` re-executes this binary once per
//! workload, so set-up time and peak memory are per workload. The
//! README has the metric definitions and the baseline.

mod conn;
mod report;
mod runner;
mod serve;
mod stats;
mod swap;
mod trace;
mod train;

use report::{Metrics, Outcome};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Which passes a workload process runs, and what its last line holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trace {
    /// End-to-end pass only, recorder off; prints the contract's bounded
    /// end-to-end metrics.
    Off,
    /// End-to-end pass (the per-layer metrics that set a layer against
    /// the end-to-end number need one), then the traced pass; prints the
    /// contract's per-layer metrics.
    Layers,
    /// Both passes; prints everything. What `run` asks of its children.
    Both,
}

/// One workload run's parameters.
pub struct Plan {
    pub seed: u64,
    /// Length of a serving workload's end-to-end window, seconds (the
    /// training workloads run a fixed number of rounds); the traced pass
    /// is budgeted from it.
    pub seconds: f64,
    pub trace: Trace,
    /// Windows of at most a second, one set-up, small training data;
    /// every correctness check stays on.
    pub smoke: bool,
}

/// `--seconds` when none is given: the length `BENCHMARK.json` fixes for
/// the driver's runs, and what `run` and `repeat` use.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// Set-ups in a run whose last line carries `setup_s` (`--trace 0`); the
/// metric is their median. The benchmark contract asks for several in a
/// run because one set-up is too noisy to hold a bound (the cheapest is
/// 40 ms). Every other run sets up once.
const SETUPS: usize = 3;

impl Plan {
    pub fn new(seed: u64, seconds: f64, trace: Trace, smoke: bool) -> Self {
        let seconds = if smoke { seconds.min(1.8) } else { seconds };
        Self {
            seed,
            seconds,
            trace,
            smoke,
        }
    }

    pub fn traced(&self) -> bool {
        self.trace != Trace::Off
    }

    /// Wall time the traced pass may take.
    pub fn trace_budget_s(&self) -> f64 {
        self.seconds * 0.25
    }

    /// Sets the workload up (see [`SETUPS`]), keeps the last environment
    /// and reports the median time as `setup_s`. Each environment is
    /// dropped before the next is built, so peak memory is one
    /// environment's.
    pub fn set_up<E>(
        &self,
        outcome: &mut Outcome,
        mut build: impl FnMut(&Scratch) -> E,
    ) -> (E, Scratch) {
        let mut times = Vec::new();
        let mut kept = None;
        let several = self.trace == Trace::Off && !self.smoke;
        for _ in 0..if several { SETUPS } else { 1 } {
            drop(kept.take());
            let started = Instant::now();
            let scratch = Scratch::new();
            let env = build(&scratch);
            times.push(started.elapsed().as_secs_f64());
            kept = Some((env, scratch));
        }
        let setup_s = stats::median(&times).expect("at least one set-up");
        outcome.end_to_end.put("setup_s", setup_s, "s");
        kept.expect("at least one set-up")
    }

    /// Reads the process's resident high-water mark at the end of the
    /// end-to-end pass (before the traced pass can raise it).
    pub fn record_peak_rss(&self, outcome: &mut Outcome) {
        let peak = hf_serve::footprint::peak_resident_bytes().unwrap_or(0);
        outcome
            .end_to_end
            .put("peak_rss_mib", peak as f64 / (1 << 20) as f64, "MiB");
    }
}

/// Where results and traces go: `benchmark/results/`.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// A per-process scratch directory under `results/` for artifact
/// generations, removed when dropped (the checkout is the only place the
/// benchmark may write).
pub struct Scratch(PathBuf);

impl Scratch {
    #[allow(clippy::new_without_default)] // creates a directory: not a default value
    pub fn new() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = results_dir().join(format!("scratch-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Self(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload in this process.
pub fn run_workload(name: &str, plan: &Plan) -> Option<Outcome> {
    let (outcome, tracer) = match name {
        "serve_rank" => serve::run(&serve::RANK, plan),
        "serve_wire" => serve::run(&serve::WIRE, plan),
        "serve_swap" => swap::run(plan),
        "train_plain" => train::run(false, plan),
        "train_masked" => train::run(true, plan),
        _ => return None,
    };
    if let Some(tracer) = tracer {
        let path = results_dir().join(format!("trace-{name}.json"));
        std::fs::create_dir_all(results_dir()).expect("create results/");
        std::fs::write(&path, trace::to_json(name, plan.seed, tracer.spans()))
            .expect("write the trace");
    }
    Some(outcome)
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: hf-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n\
         \x20      hf-benchmark run [--seed n] [--seconds s] [--smoke]\n\
         \x20      hf-benchmark repeat [--seconds s] [--smoke]\n\
         \x20      hf-benchmark compare <a.json> <b.json>",
        report::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

/// Flags shared by every form of the command line.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: Trace,
    pub smoke: bool,
    pub positional: Vec<String>,
}

fn parse(args: &[String]) -> Args {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: Trace::Off,
        smoke: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")),
            "--seed" => {
                parsed.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a whole number"));
            }
            "--seconds" => {
                let s: f64 = value("--seconds")
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds takes a number"));
                if !(s > 0.0 && s <= 60.0) {
                    usage("--seconds must lie in (0, 60]");
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value("--trace").as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::Layers,
                    "2" => Trace::Both,
                    _ => usage("--trace takes 0, 1 or 2"),
                };
            }
            "--smoke" => parsed.smoke = true,
            flag if flag.starts_with("--") => usage(&format!("unknown flag {flag}")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    parsed
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv);
    if let Some(name) = &args.workload {
        if !args.positional.is_empty() {
            usage("--workload takes no sub-command");
        }
        let plan = Plan::new(
            args.seed,
            args.seconds.unwrap_or(DEFAULT_SECONDS),
            args.trace,
            args.smoke,
        );
        let Some(outcome) = run_workload(name, &plan) else {
            usage(&format!("unknown workload {name}"));
        };
        outcome.print_table(name);
        let metrics = match plan.trace {
            Trace::Off => outcome.contract_end_to_end(),
            Trace::Layers => outcome.contract_layers(),
            Trace::Both => {
                let mut all = Metrics::default();
                all.extend(outcome.end_to_end.clone());
                all.extend(outcome.counts.clone());
                all.extend(outcome.layers.clone());
                all
            }
        };
        println!("{}", outcome.result_line(&metrics));
        return;
    }
    let code = match args.positional.first().map(String::as_str) {
        Some("run") => runner::run(&args),
        Some("repeat") => runner::repeat(&args),
        Some("compare") => runner::compare(&args),
        Some(other) => usage(&format!("unknown sub-command {other}")),
        None => usage("name a workload or a sub-command"),
    };
    std::process::exit(code);
}
