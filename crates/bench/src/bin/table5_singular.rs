//! **Table V** — variance of the singular values of `cov(Vl)` with and
//! without dimensional decorrelation regularization. Higher = more severe
//! dimensional collapse.
//!
//! ```text
//! cargo run --release -p hf_bench --bin table5_singular -- --scale small --dataset all
//! ```

use hetefedrec_core::{Ablation, SessionBuilder, Strategy};
use hf_bench::{make_config_with, make_split, rule, CliOptions, SnapshotRow};
use hf_dataset::{DatasetProfile, Tier};

fn main() {
    let opts = CliOptions::parse(&DatasetProfile::ALL);
    let mut snapshot: Vec<SnapshotRow> = Vec::new();
    opts.banner("Table V: variance of singular values of cov(Vl) ± DDR");

    for model in &opts.models {
        println!("== {} ==", model.name());
        let header = format!(
            "{:<10} {:>12} {:>12} {:>10}",
            "Dataset", "- DDR", "+ DDR", "reduction"
        );
        println!("{header}");
        println!("{}", rule(&header));
        for profile in &opts.datasets {
            let split = make_split(*profile, opts.scale, opts.seed);
            let cfg = make_config_with(&opts, *model, *profile);

            let variance_of = |ablation: Ablation| -> f32 {
                // Table V needs only the trained tables, so skip per-epoch
                // evaluation entirely (`eval_every(0)`).
                let mut s =
                    SessionBuilder::new(cfg.clone(), Strategy::HeteFedRec(ablation), split.clone())
                        .eval_every(0)
                        .build()
                        .expect("valid experiment configuration");
                s.run();
                s.server().collapse_metric(Tier::Large)
            };

            // "- DDR": UDL without the regulariser (Table V isolates DDR;
            // RESKD is off in both arms so the tables differ only in DDR).
            let without = variance_of(Ablation::NO_RESKD_DDR);
            let with = variance_of(Ablation::NO_RESKD);
            println!(
                "{:<10} {:>12.4} {:>12.4} {:>9.1}%",
                profile.name(),
                without,
                with,
                100.0 * (1.0 - with / without.max(1e-12)),
            );
            snapshot.push(
                SnapshotRow::new()
                    .label("model", model.name())
                    .label("dataset", profile.name())
                    .value("without_ddr", without as f64)
                    .value("with_ddr", with as f64),
            );
        }
        println!();
    }
    opts.emit_json(&snapshot);
}
