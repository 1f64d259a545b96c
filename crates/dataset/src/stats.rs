//! Dataset statistics: Table I rows and Fig. 1 histograms.

use crate::types::ImplicitDataset;

/// The statistics reported per dataset in the paper's Table I.
#[derive(Clone, Debug)]
pub struct DatasetStats {
    /// Number of users.
    pub users: usize,
    /// Number of items.
    pub items: usize,
    /// Total interactions.
    pub interactions: usize,
    /// Mean interactions per user ("Avg.").
    pub mean: f64,
    /// Median interactions per user ("<50%").
    pub p50: usize,
    /// 80th-percentile interactions per user ("<80%").
    pub p80: usize,
    /// Standard deviation of per-user counts (quoted in the introduction).
    pub std_dev: f64,
}

impl DatasetStats {
    /// Computes the Table I row for a dataset.
    pub fn compute(dataset: &ImplicitDataset) -> Self {
        let mut counts = dataset.interaction_counts();
        counts.sort_unstable();
        let n = counts.len();
        let interactions: usize = counts.iter().sum();
        let mean = if n > 0 {
            interactions as f64 / n as f64
        } else {
            0.0
        };
        let var = if n > 0 {
            counts
                .iter()
                .map(|&c| (c as f64 - mean).powi(2))
                .sum::<f64>()
                / n as f64
        } else {
            0.0
        };
        Self {
            users: n,
            items: dataset.num_items(),
            interactions,
            mean,
            p50: percentile(&counts, 0.50),
            p80: percentile(&counts, 0.80),
            std_dev: var.sqrt(),
        }
    }
}

impl hf_tensor::ser::ToJson for DatasetStats {
    fn write_json(&self, out: &mut String) {
        hf_tensor::ser::obj(out, |o| {
            o.field("users", &self.users)
                .field("items", &self.items)
                .field("interactions", &self.interactions)
                .field("mean", &self.mean)
                .field("p50", &self.p50)
                .field("p80", &self.p80)
                .field("std_dev", &self.std_dev);
        });
    }
}

/// Value at quantile `q` of an ascending-sorted slice (nearest-rank).
fn percentile(sorted: &[usize], q: f64) -> usize {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Histogram of per-user interaction counts — the data behind Fig. 1.
#[derive(Clone, Debug)]
pub struct InteractionHistogram {
    /// Inclusive lower edge of each bin.
    pub bin_edges: Vec<usize>,
    /// Users per bin.
    pub counts: Vec<usize>,
    /// Bin width.
    pub bin_width: usize,
}

impl InteractionHistogram {
    /// Builds a fixed-width histogram with `num_bins` bins spanning
    /// `[0, max_count]`.
    pub fn compute(dataset: &ImplicitDataset, num_bins: usize) -> Self {
        assert!(num_bins > 0, "need at least one bin");
        let counts = dataset.interaction_counts();
        let max = counts.iter().copied().max().unwrap_or(0);
        let bin_width = (max / num_bins).max(1);
        let n_bins = max / bin_width + 1;
        let mut bins = vec![0usize; n_bins];
        for c in counts {
            bins[c / bin_width] += 1;
        }
        Self {
            bin_edges: (0..n_bins).map(|b| b * bin_width).collect(),
            counts: bins,
            bin_width,
        }
    }

    /// Renders an ASCII bar chart (the reproduction's version of Fig. 1).
    pub fn render(&self, max_width: usize) -> String {
        let peak = self.counts.iter().copied().max().unwrap_or(1).max(1);
        let mut out = String::new();
        for (edge, &count) in self.bin_edges.iter().zip(&self.counts) {
            let bar = (count * max_width).div_ceil(peak);
            out.push_str(&format!(
                "{:>6}-{:<6} |{:<width$}| {count}\n",
                edge,
                edge + self.bin_width - 1,
                "#".repeat(bar),
                width = max_width
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::DatasetProfile;
    use crate::synthetic::SyntheticConfig;

    #[test]
    fn stats_on_toy_dataset() {
        let d = ImplicitDataset::new(
            10,
            vec![vec![0], vec![1, 2], vec![3, 4, 5], vec![6, 7, 8, 9]],
        );
        let s = DatasetStats::compute(&d);
        assert_eq!(s.users, 4);
        assert_eq!(s.items, 10);
        assert_eq!(s.interactions, 10);
        assert!((s.mean - 2.5).abs() < 1e-9);
        assert_eq!(s.p50, 2);
        assert_eq!(s.p80, 4);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(percentile(&v, 0.5), 5);
        assert_eq!(percentile(&v, 0.8), 8);
        assert_eq!(percentile(&v, 1.0), 10);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn profile_generation_approximates_table1() {
        // Scaled-down generation should still land near the scaled targets.
        let cfg = DatasetProfile::MovieLens.config_scaled(0.05);
        let d = cfg.generate(17);
        let s = DatasetStats::compute(&d);
        let rel_mean = (s.mean - cfg.mean_interactions).abs() / cfg.mean_interactions;
        assert!(
            rel_mean < 0.25,
            "mean {} vs target {}",
            s.mean,
            cfg.mean_interactions
        );
        let rel_p50 = (s.p50 as f64 - cfg.median_interactions).abs() / cfg.median_interactions;
        assert!(
            rel_p50 < 0.3,
            "p50 {} vs target {}",
            s.p50,
            cfg.median_interactions
        );
    }

    #[test]
    fn histogram_partitions_users() {
        let d = SyntheticConfig::tiny().generate(2);
        let h = InteractionHistogram::compute(&d, 10);
        assert_eq!(h.counts.iter().sum::<usize>(), d.num_users());
    }

    #[test]
    fn histogram_is_skewed_for_lognormal_counts() {
        let mut cfg = SyntheticConfig::tiny();
        cfg.num_users = 500;
        cfg.num_items = 800;
        cfg.mean_interactions = 40.0;
        cfg.median_interactions = 22.0;
        let d = cfg.generate(3);
        let h = InteractionHistogram::compute(&d, 20);
        // The mode should be in the lower third of bins (Fig. 1 shape).
        let peak_bin = h
            .counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap();
        assert!(
            peak_bin < h.counts.len() / 3,
            "peak bin {peak_bin} of {}",
            h.counts.len()
        );
    }

    #[test]
    fn render_produces_one_line_per_bin() {
        let d = SyntheticConfig::tiny().generate(4);
        let h = InteractionHistogram::compute(&d, 8);
        let txt = h.render(30);
        assert_eq!(txt.lines().count(), h.counts.len());
    }
}
