//! **Fig. 7** — convergence curves (NDCG@20 per epoch) for All Small,
//! All Large, and HeteFedRec on ML.
//!
//! Consumes the session event stream directly: each strategy's curve is
//! built from the [`EpochReport`]s as they are produced, rather than from
//! a post-hoc history dump. HeteFedRec is additionally run under the
//! asynchronous event-driven engine (`mode=async`) so the two
//! orchestration policies' convergence can be overlaid per epoch.
//!
//! ```text
//! cargo run --release -p hf_bench --bin fig7_convergence -- --scale small
//! ```

use hetefedrec_core::{Ablation, EpochReport, Mode, SessionBuilder, SessionEvent, Strategy};
use hf_bench::run_grid;
use hf_dataset::DatasetProfile;

fn main() {
    let strategies = [
        Strategy::AllSmall,
        Strategy::AllLarge,
        Strategy::ClusteredFedRec,
        Strategy::HeteFedRec(Ablation::FULL),
    ];
    run_grid(
        "Fig. 7: convergence, NDCG@20 per epoch",
        &[DatasetProfile::MovieLens],
        |c, snapshot| {
            let cfg = &c.cfg;
            let mut runs: Vec<(String, Strategy, Mode)> = strategies
                .iter()
                .map(|s| (s.name().to_string(), *s, cfg.mode))
                .collect();
            // Overlay: HeteFedRec again under the other orchestration
            // mode, so sync and async convergence sit side by side.
            let other = match cfg.mode {
                Mode::Sync => Mode::Async,
                Mode::Async => Mode::Sync,
            };
            runs.push((
                format!("hetefedrec ({})", other.tag()),
                Strategy::HeteFedRec(Ablation::FULL),
                other,
            ));

            print!("{:<22}", "epoch");
            for e in 1..=cfg.epochs {
                print!(" {e:>7}");
            }
            println!();
            for (name, strategy, mode) in runs {
                let mut run_cfg = cfg.clone();
                run_cfg.mode = mode;
                let mut session = SessionBuilder::new(run_cfg, strategy, c.split.clone())
                    .build()
                    .expect("valid experiment configuration");
                let mut curve: Vec<f64> = Vec::with_capacity(cfg.epochs);
                for event in session.events() {
                    if let SessionEvent::Epoch(EpochReport {
                        eval: Some(eval), ..
                    }) = event
                    {
                        curve.push(eval.overall.ndcg);
                    }
                }
                print!("{name:<22}");
                for v in &curve {
                    print!(" {v:>7.4}");
                }
                println!();
                snapshot.push(
                    c.row()
                        .label("method", name)
                        .series("ndcg_per_epoch", curve),
                );
            }
        },
    );
}
