//! **Table I** — dataset statistics (users, items, interactions, mean,
//! p50, p80) of the generated profiles, next to the paper's values.
//!
//! ```text
//! cargo run --release -p hf_bench --bin table1_stats -- --scale paper
//! ```

use hf_bench::{rule, CliOptions};
use hf_dataset::{DatasetProfile, DatasetStats};
use hf_tensor::ser::{obj, ToJson};

/// One `--json` snapshot row: profile name plus its measured statistics.
struct StatsRow {
    dataset: &'static str,
    stats: DatasetStats,
}

impl ToJson for StatsRow {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            o.field("dataset", &self.dataset)
                .field("stats", &self.stats);
        });
    }
}

fn main() {
    let opts = CliOptions::parse(&DatasetProfile::ALL);
    let mut snapshot: Vec<StatsRow> = Vec::new();
    opts.banner("Table I: dataset statistics");
    let header = format!(
        "{:<8} {:>7} {:>7} {:>11} {:>6} {:>6} {:>6}   | paper: {:>7} {:>7} {:>11} {:>6} {:>6} {:>6}",
        "Dataset", "Users", "Items", "Interact.", "Avg.", "<50%", "<80%",
        "Users", "Items", "Interact.", "Avg.", "<50%", "<80%"
    );
    println!("{header}");
    println!("{}", rule(&header));
    for profile in &opts.datasets {
        let data = profile
            .config_scaled(opts.scale.fraction)
            .generate(opts.seed);
        let s = DatasetStats::compute(&data);
        println!(
            "{:<8} {:>7} {:>7} {:>11} {:>6.0} {:>6} {:>6}   |        {:>7} {:>7} {:>11} {:>6.0} {:>6.0} {:>6.0}",
            profile.name(),
            s.users,
            s.items,
            s.interactions,
            s.mean,
            s.p50,
            s.p80,
            profile.paper_users(),
            profile.paper_items(),
            profile.paper_interactions(),
            profile.paper_mean(),
            profile.paper_p50(),
            profile.paper_p80(),
        );
        snapshot.push(StatsRow {
            dataset: profile.name(),
            stats: s,
        });
    }
    opts.emit_json(&snapshot);
    println!(
        "\n(At scale={} the generated counts are the paper's scaled by the\n\
         user/item fraction {:.2} and count factor {:.2}; at --scale paper they\n\
         match Table I directly.)",
        opts.scale.name,
        opts.scale.fraction,
        opts.scale.fraction.powf(0.25),
    );
}
