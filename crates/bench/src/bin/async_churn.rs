//! **Async vs sync under churn** — the event-driven engine's headline
//! comparison (no figure in the paper; this is the follow-up experiment
//! for the asynchronous federation direction).
//!
//! Runs HeteFedRec under both orchestration modes across three
//! deployment scenarios — uniform latency with no churn, heavy-tailed
//! (lognormal) latency, and heavy-tailed latency with flap-prone churn —
//! and reports final quality next to the *simulated wall-clock* cost:
//! the logical ticks the run consumed, the client trainings it
//! completed, and trainings per kilotick. Two readings matter:
//!
//! * at zero churn with uniform latency the async NDCG should sit close
//!   to sync (staleness weighting does not wreck quality), and
//! * under the heavy-tailed profile async completes more work per tick —
//!   sync rounds wait for the slowest cohort member, async keeps the
//!   concurrency window full past stragglers.
//!
//! ```text
//! cargo run --release -p hf_bench --bin async_churn -- --scale tiny
//! cargo run --release -p hf_bench --bin async_churn -- \
//!     --set staleness_beta=1.0 --set async_buffer=32
//! ```

use hetefedrec_core::{Ablation, Mode, SessionBuilder, SessionEvent, Strategy};
use hf_bench::{fmt5, rule, run_grid};
use hf_dataset::DatasetProfile;
use hf_fedsim::events::LatencyProfile;
use hf_fedsim::faults::ChurnProfile;

struct Scenario {
    name: &'static str,
    latency: LatencyProfile,
    churn: ChurnProfile,
}

const SCENARIOS: [Scenario; 3] = [
    Scenario {
        name: "uniform/stable",
        latency: LatencyProfile::Uniform { min: 1, max: 9 },
        churn: ChurnProfile::None,
    },
    Scenario {
        name: "heavy-tail/stable",
        latency: LatencyProfile::LogNormal {
            median: 4.0,
            sigma: 1.0,
        },
        churn: ChurnProfile::None,
    },
    Scenario {
        name: "heavy-tail/flappy",
        latency: LatencyProfile::LogNormal {
            median: 4.0,
            sigma: 1.0,
        },
        churn: ChurnProfile::Flappy {
            offline_prob: 0.3,
            period: 40,
        },
    },
];

struct RunStats {
    ndcg: f64,
    ticks: u64,
    trainings: u64,
    mean_staleness: f64,
    max_staleness: u64,
}

fn run(cfg: &hetefedrec_core::TrainConfig, split: &hf_dataset::SplitDataset) -> RunStats {
    let strategy = Strategy::HeteFedRec(Ablation::FULL);
    let mut session = SessionBuilder::new(cfg.clone(), strategy, split.clone())
        .build()
        .expect("valid experiment configuration");
    let mut trainings = 0u64;
    let mut staleness_sum = 0u64;
    let mut staleness_n = 0u64;
    let mut max_staleness = 0u64;
    let mut ndcg = 0.0f64;
    for event in session.events() {
        match event {
            SessionEvent::Round(report) => {
                trainings += report.cohort as u64;
                if let Some(stats) = &report.asynchrony {
                    staleness_n += report.cohort as u64;
                    staleness_sum += stats
                        .staleness_hist
                        .iter()
                        .enumerate()
                        .map(|(s, &n)| s as u64 * n as u64)
                        .sum::<u64>();
                    max_staleness = max_staleness.max(stats.max_staleness);
                }
            }
            SessionEvent::Epoch(report) => {
                if let Some(eval) = &report.eval {
                    ndcg = eval.overall.ndcg;
                }
            }
        }
    }
    RunStats {
        ndcg,
        ticks: session.clock(),
        trainings,
        mean_staleness: if staleness_n == 0 {
            0.0
        } else {
            staleness_sum as f64 / staleness_n as f64
        },
        max_staleness,
    }
}

fn main() {
    run_grid(
        "Async vs sync federation under churn",
        &[DatasetProfile::MovieLens],
        |c, snapshot| {
            let header = format!(
                "{:<20} {:<6} {:>8} {:>9} {:>10} {:>10} {:>7} {:>6}",
                "scenario", "mode", "ndcg", "ticks", "trainings", "work/ktick", "stale", "max"
            );
            println!("{header}\n{}", rule(&header));
            for scenario in &SCENARIOS {
                for mode in [Mode::Sync, Mode::Async] {
                    let mut cfg = c.cfg.clone();
                    cfg.mode = mode;
                    cfg.latency = scenario.latency.clone();
                    cfg.churn = scenario.churn;
                    let stats = run(&cfg, &c.split);
                    let work_per_ktick = if stats.ticks == 0 {
                        0.0
                    } else {
                        stats.trainings as f64 * 1000.0 / stats.ticks as f64
                    };
                    println!(
                        "{:<20} {:<6} {:>8} {:>9} {:>10} {:>10.1} {:>7.2} {:>6}",
                        scenario.name,
                        mode.tag(),
                        fmt5(stats.ndcg),
                        stats.ticks,
                        stats.trainings,
                        work_per_ktick,
                        stats.mean_staleness,
                        stats.max_staleness,
                    );
                    snapshot.push(
                        c.row()
                            .label("scenario", scenario.name)
                            .label("mode", mode.tag())
                            .value("final_ndcg", stats.ndcg)
                            .value("ticks", stats.ticks as f64)
                            .value("trainings", stats.trainings as f64)
                            .value("work_per_ktick", work_per_ktick)
                            .value("mean_staleness", stats.mean_staleness)
                            .value("max_staleness", stats.max_staleness as f64),
                    );
                }
            }
        },
    );
}
