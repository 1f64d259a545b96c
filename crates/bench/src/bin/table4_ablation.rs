//! **Table IV** — ablation study: HeteFedRec, −RESKD, −RESKD−DDR,
//! −RESKD−DDR−UDL (the last row equals "Directly Aggregate").
//!
//! ```text
//! cargo run --release -p hf_bench --bin table4_ablation -- --scale small --dataset all
//! ```

use hetefedrec_core::{run_experiment, Ablation, Strategy};
use hf_bench::{fmt5, make_split, rule, CliOptions, SnapshotRow};
use hf_dataset::DatasetProfile;

fn main() {
    let opts = CliOptions::parse(&DatasetProfile::ALL);
    let mut snapshot: Vec<SnapshotRow> = Vec::new();
    opts.banner("Table IV: ablation study");

    let rows: [(&str, Ablation); 4] = [
        ("HeteFedRec", Ablation::FULL),
        ("- RESKD", Ablation::NO_RESKD),
        ("- RESKD,DDR", Ablation::NO_RESKD_DDR),
        ("- RESKD,DDR,UDL", Ablation::NONE),
    ];

    for model in &opts.models {
        println!("== {} ==", model.name());
        for profile in &opts.datasets {
            println!("\n-- {} --", profile.name());
            let header = format!("{:<18} {:>9} {:>9}", "Variant", "Recall@20", "NDCG@20");
            println!("{header}");
            println!("{}", rule(&header));
            let split = make_split(*profile, opts.scale, opts.seed);
            let cfg = hf_bench::make_config_with(&opts, *model, *profile);
            for (label, ablation) in rows {
                let result = run_experiment(&cfg, Strategy::HeteFedRec(ablation), &split);
                println!(
                    "{label:<18} {:>9} {:>9}",
                    fmt5(result.final_eval.overall.recall),
                    fmt5(result.final_eval.overall.ndcg),
                );
                snapshot.push(
                    SnapshotRow::new()
                        .label("model", model.name())
                        .label("dataset", profile.name())
                        .label("variant", label)
                        .value("recall", result.final_eval.overall.recall)
                        .value("ndcg", result.final_eval.overall.ndcg),
                );
            }
        }
        println!();
    }
    opts.emit_json(&snapshot);
}
