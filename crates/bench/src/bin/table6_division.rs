//! **Table VI** — HeteFedRec under different client-division ratios
//! (5:3:2, 1:1:1, 2:3:5) bracketed by All Small (≈10:0:0) and All Large
//! (≈0:0:10).
//!
//! ```text
//! cargo run --release -p hf_bench --bin table6_division -- --scale small --dataset all
//! ```

use hetefedrec_core::{run_experiment, Ablation, Strategy};
use hf_bench::{fmt5, make_config_with, make_split, rule, CliOptions, SnapshotRow};
use hf_dataset::{DatasetProfile, DivisionRatio};

fn main() {
    let opts = CliOptions::parse(&DatasetProfile::ALL);
    let mut snapshot: Vec<SnapshotRow> = Vec::new();
    opts.banner("Table VI: client-division ratios");

    let ratios = [
        DivisionRatio::PAPER_DEFAULT,
        DivisionRatio::NEUTRAL,
        DivisionRatio::OPTIMISTIC,
    ];

    for model in &opts.models {
        println!("== {} ==", model.name());
        let header = format!(
            "{:<10} {:<8} {:>10} {:>8} {:>8} {:>8} {:>10}",
            "Dataset", "Metric", "All Small", "5:3:2", "1:1:1", "2:3:5", "All Large"
        );
        println!("{header}");
        println!("{}", rule(&header));
        for profile in &opts.datasets {
            let split = make_split(*profile, opts.scale, opts.seed);
            let base = make_config_with(&opts, *model, *profile);

            let small = run_experiment(&base, Strategy::AllSmall, &split);
            let large = run_experiment(&base, Strategy::AllLarge, &split);
            let mut cells = Vec::new();
            for ratio in ratios {
                let mut cfg = base.clone();
                cfg.ratio = ratio;
                cells.push(run_experiment(
                    &cfg,
                    Strategy::HeteFedRec(Ablation::FULL),
                    &split,
                ));
            }

            println!(
                "{:<10} {:<8} {:>10} {:>8} {:>8} {:>8} {:>10}",
                profile.name(),
                "Recall",
                fmt5(small.final_eval.overall.recall),
                fmt5(cells[0].final_eval.overall.recall),
                fmt5(cells[1].final_eval.overall.recall),
                fmt5(cells[2].final_eval.overall.recall),
                fmt5(large.final_eval.overall.recall),
            );
            println!(
                "{:<10} {:<8} {:>10} {:>8} {:>8} {:>8} {:>10}",
                "",
                "NDCG",
                fmt5(small.final_eval.overall.ndcg),
                fmt5(cells[0].final_eval.overall.ndcg),
                fmt5(cells[1].final_eval.overall.ndcg),
                fmt5(cells[2].final_eval.overall.ndcg),
                fmt5(large.final_eval.overall.ndcg),
            );
            let settings = [
                ("All Small", &small),
                ("5:3:2", &cells[0]),
                ("1:1:1", &cells[1]),
                ("2:3:5", &cells[2]),
                ("All Large", &large),
            ];
            for (setting, result) in settings {
                snapshot.push(
                    SnapshotRow::new()
                        .label("model", model.name())
                        .label("dataset", profile.name())
                        .label("division", setting)
                        .value("recall", result.final_eval.overall.recall)
                        .value("ndcg", result.final_eval.overall.ndcg),
                );
            }
        }
        println!();
    }
    opts.emit_json(&snapshot);
}
