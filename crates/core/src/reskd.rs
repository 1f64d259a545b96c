//! Relation-based ensemble self-knowledge distillation (Eq. 16–17).
//!
//! Classic federated distillation needs a public reference dataset, which
//! FedRec privacy rules out (§IV-C). HeteFedRec instead distils on the
//! server, using only the item-embedding tables themselves: if the tables
//! are well trained, the *relative geometry* of any item subset should
//! agree across tiers. Each round the server
//!
//! 1. samples a subset `V_kd` of items,
//! 2. computes each tier's pairwise cosine-similarity matrix over the
//!    subset and averages them into the ensemble target
//!    `d_ens = (1/3) Σ_a d(V_a, V_kd)` (Eq. 16),
//! 3. takes gradient steps on each tier's sampled rows to minimise
//!    `‖d(V_a, V_kd) − d_ens‖²` (Eq. 17).
//!
//! Because each tier's update comes from its own alignment gradient, this
//! step intentionally breaks the exact Eq. 10 prefix equality that
//! aggregation maintains (see DESIGN.md §5).

use crate::config::KdConfig;
use hf_tensor::rng::Rng;
use hf_tensor::sim::{alignment_loss_grad, cosine_similarity_matrix, mean_of};
use hf_tensor::Matrix;

/// Samples `count` distinct item indices from `0..num_items` via a partial
/// Fisher–Yates pass (deterministic given the RNG state).
pub fn sample_items(num_items: usize, count: usize, rng: &mut impl Rng) -> Vec<usize> {
    let count = count.min(num_items);
    let mut pool: Vec<usize> = (0..num_items).collect();
    for i in 0..count {
        let j = rng.gen_range(i..num_items);
        pool.swap(i, j);
    }
    pool.truncate(count);
    pool
}

/// One full distillation round over the tier tables.
///
/// `tables` are the post-aggregation `{Vs, Vm, Vl}` (any widths). Returns
/// the summed alignment loss *before* the update — the quantity that
/// shrinks round over round when distillation works.
///
/// The three per-tier alignment descents are independent once the
/// ensemble target is fixed, and their costs are skewed by tier width
/// (the large tier pays ~4x the small tier per step), so they fan out
/// over the work-stealing pool when `threads > 1`. Each tier's descent is
/// a self-contained computation, so results are bit-identical for every
/// thread count.
pub fn distill_round(
    tables: &mut [Matrix; 3],
    kd: &KdConfig,
    threads: usize,
    rng: &mut impl Rng,
) -> f32 {
    let num_items = tables[0].rows();
    debug_assert!(tables.iter().all(|t| t.rows() == num_items));
    if kd.items < 2 || num_items < 2 {
        return 0.0;
    }
    let selected = sample_items(num_items, kd.items, rng);

    // Eq. 16: per-tier similarity over the subset, then the ensemble mean.
    let subsets: Vec<Matrix> = tables.iter().map(|t| t.select_rows(&selected)).collect();
    let sims: Vec<Matrix> = subsets.iter().map(cosine_similarity_matrix).collect();
    let target = mean_of(&sims.iter().collect::<Vec<_>>());

    // Eq. 17: align each tier to the ensemble target. The raw alignment
    // loss sums over all k² similarity pairs, so its gradient magnitude
    // grows with the subset size; normalising by the off-diagonal pair
    // count makes `kd.lr` scale-free in `kd.items`.
    let k = selected.len() as f32;
    let pair_norm = 1.0 / (k * (k - 1.0)).max(1.0);
    let distilled = hf_fedsim::parallel::parallel_map(&subsets, threads, |subset| {
        let mut subset = subset.clone();
        let mut first_loss = None;
        for _ in 0..kd.steps.max(1) {
            let (loss, grad) = alignment_loss_grad(&subset, &target);
            first_loss.get_or_insert(loss * pair_norm);
            subset.axpy(-kd.lr * pair_norm, &grad);
        }
        (subset, first_loss.unwrap_or(0.0))
    });

    let mut total_loss = 0.0;
    for (table, (subset, loss)) in tables.iter_mut().zip(distilled) {
        total_loss += loss;
        // Write the distilled rows back.
        for (slot, &item) in selected.iter().enumerate() {
            table.row_mut(item).copy_from_slice(subset.row(slot));
        }
    }
    total_loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_tensor::rng::{stream, SeedStream};
    use hf_tensor::{init, sim};

    fn tables(seed: u64) -> [Matrix; 3] {
        let mut rng = stream(seed, SeedStream::ParamInit);
        [
            init::embedding_normal(50, 4, &mut rng),
            init::embedding_normal(50, 8, &mut rng),
            init::embedding_normal(50, 16, &mut rng),
        ]
    }

    #[test]
    fn sample_items_distinct_and_in_range() {
        let mut rng = stream(1, SeedStream::Distill);
        let s = sample_items(100, 30, &mut rng);
        assert_eq!(s.len(), 30);
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 30);
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn sample_items_clamps_to_universe() {
        let mut rng = stream(2, SeedStream::Distill);
        assert_eq!(sample_items(5, 100, &mut rng).len(), 5);
    }

    #[test]
    fn distillation_reduces_alignment_loss() {
        let mut t = tables(10);
        let kd = KdConfig {
            items: 50,
            lr: 30.0,
            steps: 1,
        };
        // Run several rounds on the same (full) subset; the reported
        // pre-update loss must shrink.
        let mut rng = stream(3, SeedStream::Distill);
        let first = distill_round(&mut t, &kd, 1, &mut rng);
        let mut last = first;
        for _ in 0..20 {
            let mut rng = stream(3, SeedStream::Distill); // same subset each time
            last = distill_round(&mut t, &kd, 1, &mut rng);
        }
        assert!(last < first * 0.5, "first {first}, last {last}");
    }

    #[test]
    fn distillation_pulls_tier_geometries_together() {
        let mut t = tables(11);
        let kd = KdConfig {
            items: 50,
            lr: 30.0,
            steps: 2,
        };
        let spread = |t: &[Matrix; 3]| -> f32 {
            let sims: Vec<Matrix> = t.iter().map(cosine_similarity_matrix).collect();
            let mean = sim::mean_of(&sims.iter().collect::<Vec<_>>());
            sims.iter().map(|s| s.sub(&mean).sum_squares() as f32).sum()
        };
        let before = spread(&t);
        for _ in 0..30 {
            let mut rng = stream(4, SeedStream::Distill);
            distill_round(&mut t, &kd, 1, &mut rng);
        }
        let after = spread(&t);
        assert!(after < before * 0.6, "before {before}, after {after}");
    }

    #[test]
    fn untouched_rows_are_unchanged() {
        let mut t = tables(12);
        let originals = t.clone();
        let kd = KdConfig {
            items: 10,
            lr: 5.0,
            steps: 1,
        };
        let mut rng = stream(5, SeedStream::Distill);
        let selected = {
            // Re-derive the same subset the round will use.
            let mut probe = stream(5, SeedStream::Distill);
            sample_items(50, 10, &mut probe)
        };
        distill_round(&mut t, &kd, 1, &mut rng);
        for (table, original) in t.iter().zip(&originals) {
            for row in 0..50 {
                if !selected.contains(&row) {
                    assert_eq!(table.row(row), original.row(row), "row {row} moved");
                }
            }
        }
    }

    #[test]
    fn distillation_is_bit_identical_across_thread_counts() {
        let kd = KdConfig {
            items: 30,
            lr: 10.0,
            steps: 2,
        };
        let mut reference = tables(15);
        let loss_ref = distill_round(&mut reference, &kd, 1, &mut stream(8, SeedStream::Distill));
        for threads in [2, 4, 8] {
            let mut t = tables(15);
            let loss = distill_round(&mut t, &kd, threads, &mut stream(8, SeedStream::Distill));
            assert_eq!(loss.to_bits(), loss_ref.to_bits(), "threads = {threads}");
            for (a, b) in t.iter().zip(&reference) {
                assert_eq!(a, b, "threads = {threads}");
            }
        }
    }

    #[test]
    fn degenerate_kd_is_noop() {
        let mut t = tables(13);
        let before = t.clone();
        let kd = KdConfig {
            items: 1,
            lr: 0.1,
            steps: 1,
        };
        let mut rng = stream(6, SeedStream::Distill);
        assert_eq!(distill_round(&mut t, &kd, 1, &mut rng), 0.0);
        assert_eq!(t[0], before[0]);
    }

    #[test]
    fn distillation_is_deterministic() {
        let mut a = tables(14);
        let mut b = tables(14);
        let kd = KdConfig::default();
        let la = distill_round(&mut a, &kd, 1, &mut stream(7, SeedStream::Distill));
        let lb = distill_round(&mut b, &kd, 1, &mut stream(7, SeedStream::Distill));
        assert_eq!(la, lb);
        assert_eq!(a[1], b[1]);
    }
}
