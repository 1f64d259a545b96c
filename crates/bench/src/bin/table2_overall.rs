//! **Table II** — overall Recall@20 / NDCG@20 of HeteFedRec against the
//! six baselines, per dataset and base model.
//!
//! ```text
//! cargo run --release -p hf_bench --bin table2_overall -- --scale small --dataset all
//! ```

use hetefedrec_core::{run_experiment, Strategy};
use hf_bench::{fmt5, rule, run_grid};
use hf_dataset::DatasetProfile;

fn main() {
    run_grid(
        "Table II: overall performance",
        &DatasetProfile::ALL,
        |c, snapshot| {
            let header = format!(
                "{:<22} {:>9} {:>9} | {:>9} {:>9}",
                "Method", "Recall@20", "NDCG@20", "type", "epochs"
            );
            println!("{header}");
            println!("{}", rule(&header));
            for strategy in Strategy::ALL {
                let result = run_experiment(&c.cfg, strategy, &c.split);
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
                    c.row()
                        .label("method", &result.strategy)
                        .label("type", kind)
                        .value("recall", result.final_eval.overall.recall)
                        .value("ndcg", result.final_eval.overall.ndcg)
                        .value("epochs", result.history.epochs.len() as f64),
                );
            }
        },
    );
}
