//! **Table VII** — NDCG@20 of All Small / All Large / HeteFedRec under the
//! three model-size settings {2,4,8}, {8,16,32}, {32,64,128} on ML.
//!
//! ```text
//! cargo run --release -p hf_bench --bin table7_modelsize -- --scale small
//! ```

use hetefedrec_core::{run_experiment, Ablation, Strategy, TierDims};
use hf_bench::{fmt5, rule, run_grid};
use hf_dataset::DatasetProfile;

fn main() {
    let settings = [
        TierDims::rq5_tiny(),
        TierDims::paper_small(),
        TierDims::paper_large(),
    ];
    run_grid(
        "Table VII: model-size settings, NDCG@20",
        &[DatasetProfile::MovieLens],
        |c, snapshot| {
            let header = format!(
                "{:<14} {:>10} {:>10} {:>12}",
                "Dims", "All Small", "All Large", "HeteFedRec"
            );
            println!("{header}");
            println!("{}", rule(&header));
            for dims in settings {
                let mut cfg = c.cfg.clone();
                cfg.dims = dims;
                let small = run_experiment(&cfg, Strategy::AllSmall, &c.split);
                let large = run_experiment(&cfg, Strategy::AllLarge, &c.split);
                let hete = run_experiment(&cfg, Strategy::HeteFedRec(Ablation::FULL), &c.split);
                println!(
                    "{:<14} {:>10} {:>10} {:>12}",
                    dims.label(),
                    fmt5(small.final_eval.overall.ndcg),
                    fmt5(large.final_eval.overall.ndcg),
                    fmt5(hete.final_eval.overall.ndcg),
                );
                snapshot.push(
                    c.row()
                        .label("dims", dims.label())
                        .value("all_small_ndcg", small.final_eval.overall.ndcg)
                        .value("all_large_ndcg", large.final_eval.overall.ndcg)
                        .value("hetefedrec_ndcg", hete.final_eval.overall.ndcg),
                );
            }
        },
    );
}
