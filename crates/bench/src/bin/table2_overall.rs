//! **Table II** — overall Recall@20 / NDCG@20 of HeteFedRec against the
//! six baselines, per dataset and base model.
//!
//! ```text
//! cargo run --release -p hf_bench --bin table2_overall -- --scale small --dataset all
//! ```

use hetefedrec_core::{run_experiment, Strategy};
use hf_bench::{fmt5, make_split, rule, CliOptions, SnapshotRow};
use hf_dataset::DatasetProfile;

fn main() {
    let opts = CliOptions::parse(&DatasetProfile::ALL);
    let mut snapshot: Vec<SnapshotRow> = Vec::new();
    opts.banner("Table II: overall performance");

    for model in &opts.models {
        println!("== {} ==", model.name());
        let header = format!(
            "{:<22} {:>9} {:>9} | {:>9} {:>9}",
            "Method", "Recall@20", "NDCG@20", "type", "epochs"
        );
        for profile in &opts.datasets {
            println!("\n-- {} --", profile.name());
            println!("{header}");
            println!("{}", rule(&header));
            let split = make_split(*profile, opts.scale, opts.seed);
            let cfg = hf_bench::make_config_with(&opts, *model, *profile);
            for strategy in Strategy::ALL {
                let result = run_experiment(&cfg, strategy, &split);
                let kind = if strategy.is_heterogeneous() {
                    "hetero"
                } else {
                    "homog"
                };
                println!(
                    "{:<22} {:>9} {:>9} | {:>9} {:>9}",
                    result.strategy,
                    fmt5(result.final_eval.overall.recall),
                    fmt5(result.final_eval.overall.ndcg),
                    kind,
                    result.history.epochs.len(),
                );
                snapshot.push(
                    SnapshotRow::new()
                        .label("model", model.name())
                        .label("dataset", profile.name())
                        .label("method", &result.strategy)
                        .label("type", kind)
                        .value("recall", result.final_eval.overall.recall)
                        .value("ndcg", result.final_eval.overall.ndcg)
                        .value("epochs", result.history.epochs.len() as f64),
                );
            }
        }
        println!();
    }
    opts.emit_json(&snapshot);
}
