//! **Fig. 6** — NDCG@20 broken down by client data-size group
//! (`Us`/`Um`/`Ul`) for every strategy.
//!
//! ```text
//! cargo run --release -p hf_bench --bin fig6_groups -- --scale small --dataset all
//! ```

use hetefedrec_core::{run_experiment, Strategy};
use hf_bench::{fmt5, rule, run_grid};
use hf_dataset::DatasetProfile;

fn main() {
    run_grid(
        "Fig. 6: per-group NDCG@20",
        &DatasetProfile::ALL,
        |c, snapshot| {
            let header = format!(
                "{:<22} {:>9} {:>9} {:>9} {:>9}",
                "Method", "Us", "Um", "Ul", "overall"
            );
            println!("{header}");
            println!("{}", rule(&header));
            for strategy in Strategy::ALL {
                let result = run_experiment(&c.cfg, strategy, &c.split);
                let g = &result.final_eval.per_group;
                println!(
                    "{:<22} {:>9} {:>9} {:>9} {:>9}",
                    result.strategy,
                    fmt5(g[0].ndcg),
                    fmt5(g[1].ndcg),
                    fmt5(g[2].ndcg),
                    fmt5(result.final_eval.overall.ndcg),
                );
                snapshot.push(
                    c.row()
                        .label("method", &result.strategy)
                        .value("ndcg_us", g[0].ndcg)
                        .value("ndcg_um", g[1].ndcg)
                        .value("ndcg_ul", g[2].ndcg)
                        .value("ndcg_overall", result.final_eval.overall.ndcg),
                );
            }
        },
    );
}
