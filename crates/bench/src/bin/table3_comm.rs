//! **Table III** — one-time transmission cost per client type, comparing
//! All Small, All Large, and HeteFedRec, the masked (secure-aggregation)
//! upload each tier would make, and the measured sparse-upload sizes from
//! a real training round.
//!
//! ```text
//! cargo run --release -p hf_bench --bin table3_comm -- --scale small --dataset ml
//! ```

use hetefedrec_core::{Ablation, SessionBuilder, Strategy};
use hf_bench::{make_config_with, make_split, rule, CliOptions, SnapshotRow};
use hf_dataset::{DatasetProfile, Tier};
use hf_fedsim::comm::RoundCost;
use hf_models::{paper_predictor_dims, Ffn};

fn main() {
    let opts = CliOptions::parse(&[DatasetProfile::MovieLens]);
    let mut snapshot: Vec<SnapshotRow> = Vec::new();
    opts.banner("Table III: one-time transmission cost per client type");

    for profile in &opts.datasets {
        let model = opts.models[0];
        let split = make_split(*profile, opts.scale, opts.seed);
        let cfg = make_config_with(&opts, model, *profile);
        let num_items = split.num_items();
        let dims = cfg.dims;

        // Predictor sizes at each tier width.
        let thetas: Vec<usize> = Tier::ALL
            .iter()
            .map(|&t| Ffn::param_count(&paper_predictor_dims(dims.dim(t))).expect("tier widths"))
            .collect();

        let mut session = SessionBuilder::new(
            cfg.clone(),
            Strategy::HeteFedRec(Ablation::FULL),
            split.clone(),
        )
        .eval_every(0)
        .build()
        .expect("valid experiment configuration");

        // With secure aggregation on, a client uploads its tier's prefix
        // of the group's ring layout: the HeteFedRec column, one
        // contributor count per item and two words per predictor, at 8
        // bytes a ring word (analytic, from the session's own layout).
        let layout = session.secagg_layout(None);

        println!(
            "== {} ({} items, dims {}) ==",
            profile.name(),
            num_items,
            dims.label()
        );
        let header = format!(
            "{:<6} {:>22} {:>22} {:>26}",
            "Client", "All Small (params)", "All Large (params)", "HeteFedRec (params)"
        );
        println!("{header}");
        println!("{}", rule(&header));
        for (i, tier) in Tier::ALL.iter().enumerate() {
            let all_small = RoundCost::dense(num_items, dims.dim(Tier::Small), &thetas[..1]);
            let all_large = RoundCost::dense(num_items, dims.dim(Tier::Large), &thetas[2..3]);
            let hete = RoundCost::dense(num_items, dims.dim(*tier), &thetas[..=i]);
            println!(
                "{:<6} {:>22} {:>22} {:>26}",
                tier.label(),
                format!("{} = V+{}", all_small.total(), all_small.theta_params),
                format!("{} = V+{}", all_large.total(), all_large.theta_params),
                format!("{} = V+{}", hete.total(), hete.theta_params),
            );
            snapshot.push(
                SnapshotRow::new()
                    .label("dataset", profile.name())
                    .label("client", tier.label())
                    .value("all_small_params", all_small.total() as f64)
                    .value("all_large_params", all_large.total() as f64)
                    .value("hetefedrec_params", hete.total() as f64)
                    .value("masked_upload_words", layout.prefix_words(i) as f64),
            );
        }

        println!("\nMasked upload per client (secure aggregation on, u64 ring words):");
        for (i, tier) in Tier::ALL.iter().enumerate() {
            let words = layout.prefix_words(i);
            println!(
                "{:<6} {:>22} {:>22}",
                tier.label(),
                format!("{words} words"),
                format!("{:.1} KiB", (8 * words) as f64 / 1024.0),
            );
        }

        // Measured traffic over one epoch of actual training.
        session.run_epoch();
        let ledger = session.ledger();
        println!(
            "\nMeasured (1 epoch of HeteFedRec): mean download {:.1} KiB (dense),\n\
             mean upload {:.1} KiB (sparse wire format), {} uploads / {} downloads",
            ledger.mean_download() / 1024.0,
            ledger.mean_upload() / 1024.0,
            ledger.uploads,
            ledger.downloads,
        );
        snapshot.push(
            SnapshotRow::new()
                .label("dataset", profile.name())
                .label("client", "measured_epoch")
                .value("mean_download_bytes", ledger.mean_download())
                .value("mean_upload_bytes", ledger.mean_upload())
                .value("uploads", ledger.uploads as f64)
                .value("downloads", ledger.downloads as f64),
        );
        println!();
    }
    opts.emit_json(&snapshot);
}
