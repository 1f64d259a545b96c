//! **Fig. 1** — per-user interaction-count distributions of the three
//! dataset profiles, rendered as ASCII histograms.
//!
//! ```text
//! cargo run --release -p hf_bench --bin fig1_distribution -- --scale small
//! ```

use hf_bench::{CliOptions, SnapshotRow};
use hf_dataset::stats::InteractionHistogram;
use hf_dataset::{DatasetProfile, DatasetStats};

fn main() {
    let opts = CliOptions::parse(&DatasetProfile::ALL);
    let mut snapshot: Vec<SnapshotRow> = Vec::new();
    opts.banner("Fig. 1: distribution of users' item interaction numbers");
    for profile in &opts.datasets {
        let data = profile
            .config_scaled(opts.scale.fraction)
            .generate(opts.seed);
        let stats = DatasetStats::compute(&data);
        println!(
            "== {} ==  (std dev {:.1}, mean {:.1} — paper quotes std {:.1}, mean {:.1})",
            profile.name(),
            stats.std_dev,
            stats.mean,
            match profile {
                DatasetProfile::MovieLens => 154.2,
                DatasetProfile::Anime => 79.8,
                DatasetProfile::Douban => 105.2,
            },
            profile.paper_mean(),
        );
        let hist = InteractionHistogram::compute(&data, 24);
        print!("{}", hist.render(48));
        println!();
        snapshot.push(
            SnapshotRow::new()
                .label("dataset", profile.name())
                .value("mean", stats.mean)
                .value("std_dev", stats.std_dev)
                .value("bin_width", hist.bin_width as f64)
                .series(
                    "bin_edges",
                    hist.bin_edges.iter().map(|&e| e as f64).collect(),
                )
                .series("counts", hist.counts.iter().map(|&c| c as f64).collect()),
        );
    }
    opts.emit_json(&snapshot);
}
