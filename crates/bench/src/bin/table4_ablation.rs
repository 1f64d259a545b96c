//! **Table IV** — ablation study: HeteFedRec, −RESKD, −RESKD−DDR,
//! −RESKD−DDR−UDL (the last row equals "Directly Aggregate").
//!
//! ```text
//! cargo run --release -p hf_bench --bin table4_ablation -- --scale small --dataset all
//! ```

use hetefedrec_core::{run_experiment, Ablation, Strategy};
use hf_bench::{fmt5, rule, run_grid};
use hf_dataset::DatasetProfile;

fn main() {
    let rows: [(&str, Ablation); 4] = [
        ("HeteFedRec", Ablation::FULL),
        ("- RESKD", Ablation::NO_RESKD),
        ("- RESKD,DDR", Ablation::NO_RESKD_DDR),
        ("- RESKD,DDR,UDL", Ablation::NONE),
    ];

    run_grid(
        "Table IV: ablation study",
        &DatasetProfile::ALL,
        |c, snapshot| {
            let header = format!("{:<18} {:>9} {:>9}", "Variant", "Recall@20", "NDCG@20");
            println!("{header}");
            println!("{}", rule(&header));
            for (label, ablation) in rows {
                let result = run_experiment(&c.cfg, Strategy::HeteFedRec(ablation), &c.split);
                println!(
                    "{label:<18} {:>9} {:>9}",
                    fmt5(result.final_eval.overall.recall),
                    fmt5(result.final_eval.overall.ndcg),
                );
                snapshot.push(
                    c.row()
                        .label("variant", label)
                        .value("recall", result.final_eval.overall.recall)
                        .value("ndcg", result.final_eval.overall.ndcg),
                );
            }
        },
    );
}
