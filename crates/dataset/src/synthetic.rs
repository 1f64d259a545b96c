//! Latent-factor synthetic interaction generator.
//!
//! Substitutes for the paper's three real datasets (DESIGN.md §2). The
//! generator has three properties the experiments require:
//!
//! 1. **Heavy-tailed per-user interaction counts** (Fig. 1): counts are
//!    drawn from a log-normal whose median and mean are calibrated to the
//!    target profile, reproducing the p50/p80 thresholds of Table I.
//! 2. **Learnable collaborative structure**: users and items carry
//!    ground-truth latent vectors drawn around shared cluster centroids;
//!    a user interacts preferentially with items whose latent vectors
//!    align with theirs. Matrix-factorisation-style models can therefore
//!    genuinely learn from aggregated signal.
//! 3. **Skewed item popularity**: a Zipf popularity boost concentrates
//!    interactions on head items, as in every real recommendation dataset.
//!
//! Selection uses Gumbel-top-k: `score + Gumbel noise`, take the top
//! `n_u`, which is equivalent to sampling `n_u` items without replacement
//! from the softmax of the scores (Plackett–Luce), in one `O(|V|)` pass
//! per user.

use crate::types::{ImplicitDataset, ItemId};
use hf_tensor::parallel::parallel_map;
use hf_tensor::rng::Rng;
use hf_tensor::rng::{stream, substream, SeedStream};

/// Users handed to a worker at a time; one Gumbel key buffer is reused
/// across them.
const USERS_PER_CHUNK: usize = 16;

/// Below this many `(user, item)` scores the whole population costs a few
/// milliseconds and is built on the calling thread: spawning workers
/// would be most of the bill (and test-sized datasets stay thread-free).
const PARALLEL_MIN_SCORES: usize = 1 << 18;

/// Configuration of the synthetic generator.
#[derive(Clone, Debug)]
pub struct SyntheticConfig {
    /// Number of users (federated clients).
    pub num_users: usize,
    /// Item-universe size.
    pub num_items: usize,
    /// Median of the per-user interaction count distribution (Table I "<50%").
    pub median_interactions: f64,
    /// Mean of the per-user interaction count distribution (Table I "Avg.").
    pub mean_interactions: f64,
    /// Lower clamp on per-user counts (every client must train something).
    pub min_interactions: usize,
    /// Ground-truth latent dimensionality.
    pub latent_dim: usize,
    /// Number of user/item clusters ("genres").
    pub num_clusters: usize,
    /// Std of latent vectors around their cluster centroid; smaller means
    /// crisper collaborative structure.
    pub cluster_spread: f32,
    /// Zipf exponent for item popularity (0 disables the popularity boost).
    pub zipf_exponent: f32,
    /// Weight of the popularity boost relative to latent affinity.
    pub popularity_weight: f32,
    /// Softmax temperature on affinity scores; lower is more deterministic.
    pub temperature: f32,
}

impl SyntheticConfig {
    /// A small, fast configuration for tests and examples.
    pub fn tiny() -> Self {
        Self {
            num_users: 60,
            num_items: 120,
            median_interactions: 12.0,
            mean_interactions: 20.0,
            min_interactions: 4,
            latent_dim: 8,
            num_clusters: 4,
            cluster_spread: 0.35,
            zipf_exponent: 0.8,
            popularity_weight: 0.5,
            temperature: 0.4,
        }
    }

    /// Log-normal parameters `(mu, sigma)` matching the configured median
    /// and mean: `median = exp(mu)`, `mean = exp(mu + sigma²/2)`.
    pub fn lognormal_params(&self) -> (f64, f64) {
        assert!(
            self.mean_interactions >= self.median_interactions,
            "a log-normal requires mean >= median"
        );
        let mu = self.median_interactions.ln();
        let sigma = (2.0 * (self.mean_interactions / self.median_interactions).ln()).sqrt();
        (mu, sigma)
    }

    /// Generates the dataset deterministically from `seed`.
    ///
    /// Users fan out over every available core once the population is
    /// large enough to pay for the threads; each user draws from its own
    /// substream, so the result is bit-identical for any worker count.
    pub fn generate(&self, seed: u64) -> ImplicitDataset {
        self.generate_on(seed, self.workers())
    }

    /// Threads [`generate`](Self::generate) fans out over: every core, or
    /// one when the work is too small to pay for spawning them.
    fn workers(&self) -> usize {
        if self.num_users.saturating_mul(self.num_items) < PARALLEL_MIN_SCORES {
            1
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }

    /// [`generate`](Self::generate) on exactly `workers` threads.
    pub(crate) fn generate_on(&self, seed: u64, workers: usize) -> ImplicitDataset {
        assert!(
            self.num_users > 0 && self.num_items > 1,
            "degenerate universe"
        );
        assert!(self.num_clusters > 0, "need at least one cluster");
        let mut rng = stream(seed, SeedStream::Dataset);

        // Ground-truth cluster centroids, shared between users and items so
        // that affinity has signal.
        let centroids: Vec<Vec<f32>> = (0..self.num_clusters)
            .map(|_| sample_unit_vector(self.latent_dim, &mut rng))
            .collect();

        let item_latents: Vec<Vec<f32>> = (0..self.num_items)
            .map(|_| {
                let c = rng.gen_range(0..self.num_clusters);
                perturb(&centroids[c], self.cluster_spread, &mut rng)
            })
            .collect();

        // Zipf popularity over a random item permutation so that item id
        // order carries no information.
        let mut pop_rank: Vec<usize> = (0..self.num_items).collect();
        hf_tensor::rng::shuffle(&mut pop_rank, &mut rng);
        let log_pop: Vec<f32> = {
            let mut lp = vec![0.0_f32; self.num_items];
            for (rank, &item) in pop_rank.iter().enumerate() {
                lp[item] = -self.zipf_exponent * ((rank + 1) as f32).ln();
            }
            lp
        };

        let (mu, sigma) = self.lognormal_params();
        let max_count = self.num_items.saturating_sub(1).max(self.min_interactions);

        let chunk_starts: Vec<usize> = (0..self.num_users).step_by(USERS_PER_CHUNK).collect();
        let chunks = parallel_map(&chunk_starts, workers, |&start| {
            let mut keys = Vec::with_capacity(self.num_items);
            (start..(start + USERS_PER_CHUNK).min(self.num_users))
                .map(|u| {
                    // Per-user substream: independent of user iteration order.
                    let mut urng = substream(seed, SeedStream::Dataset, u as u64 + 1);
                    let c = urng.gen_range(0..self.num_clusters);
                    let latent = perturb(&centroids[c], self.cluster_spread, &mut urng);
                    let n = sample_lognormal_count(mu, sigma, &mut urng)
                        .clamp(self.min_interactions, max_count);
                    self.select_items(&latent, &item_latents, &log_pop, n, &mut urng, &mut keys)
                })
                .collect::<Vec<_>>()
        });
        // Reserved up front: `flatten` has no exact size hint, and a
        // doubling `collect` would leave the outer list over-sized.
        let mut per_user: Vec<Vec<ItemId>> = Vec::with_capacity(self.num_users);
        per_user.extend(chunks.into_iter().flatten());

        ImplicitDataset::new(self.num_items, per_user)
    }

    /// Gumbel-top-k selection of `n` items for one user. `keys` is scratch
    /// (refilled on every call); the returned list holds exactly its ids.
    fn select_items(
        &self,
        user_latent: &[f32],
        item_latents: &[Vec<f32>],
        log_pop: &[f32],
        n: usize,
        rng: &mut impl Rng,
        keys: &mut Vec<(f32, ItemId)>,
    ) -> Vec<ItemId> {
        let inv_temp = 1.0 / self.temperature.max(1e-3);
        keys.clear();
        keys.extend(item_latents.iter().enumerate().map(|(i, latent)| {
            let affinity = hf_tensor::ops::dot(user_latent, latent);
            let score = inv_temp * (affinity + self.popularity_weight * log_pop[i]) + gumbel(rng);
            (score, i as ItemId)
        }));
        let n = n.min(keys.len());
        keys.select_nth_unstable_by(n.saturating_sub(1), |a, b| {
            b.0.partial_cmp(&a.0).expect("scores are finite")
        });
        // A fresh list of capacity `n`: collecting the truncated buffer
        // itself would hand its whole `num_items`-wide allocation to the
        // dataset for life.
        keys[..n].iter().map(|&(_, i)| i).collect()
    }
}

/// Uniformly random unit vector.
fn sample_unit_vector(dim: usize, rng: &mut impl Rng) -> Vec<f32> {
    let v = hf_tensor::init::normal_vec(dim, 1.0, rng);
    let norm = hf_tensor::ops::l2_norm(&v).max(1e-6);
    v.into_iter().map(|x| x / norm).collect()
}

/// Centroid plus isotropic Gaussian noise.
fn perturb(center: &[f32], spread: f32, rng: &mut impl Rng) -> Vec<f32> {
    let noise = hf_tensor::init::normal_vec(center.len(), spread, rng);
    center.iter().zip(noise).map(|(c, n)| c + n).collect()
}

/// One log-normal draw, rounded to a count.
fn sample_lognormal_count(mu: f64, sigma: f64, rng: &mut impl Rng) -> usize {
    let z = standard_normal(rng);
    (mu + sigma * z).exp().round().max(0.0) as usize
}

fn standard_normal(rng: &mut impl Rng) -> f64 {
    rng.standard_normal()
}

/// Standard Gumbel(0,1) draw.
fn gumbel(rng: &mut impl Rng) -> f32 {
    rng.gumbel01()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SyntheticConfig::tiny();
        let a = cfg.generate(42);
        let b = cfg.generate(42);
        assert_eq!(a.interaction_counts(), b.interaction_counts());
        for u in 0..a.num_users() {
            assert_eq!(a.user(u).items(), b.user(u).items());
        }
    }

    /// FNV-1a over the universe size and every list, in user order.
    fn digest(d: &ImplicitDataset) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        eat(d.num_items() as u64);
        for (_, ints) in d.iter_users() {
            eat(ints.len() as u64);
            for &i in ints.items() {
                eat(i as u64);
            }
        }
        h
    }

    #[test]
    fn output_is_pinned_and_independent_of_the_worker_count() {
        // Digests of what the sequential, collect-in-place generator
        // produced (computed at commit 131f2d0, before the fan-out).
        let tiny = SyntheticConfig::tiny();
        let ml = crate::profiles::DatasetProfile::MovieLens.config_scaled(0.05);
        let pinned = [
            (&tiny, 42, 0x9764_8475_e7f2_c99f_u64),
            (&tiny, 7, 0xedf0_0e66_2c16_1dec),
            (&ml, 42, 0x9440_6622_8eca_80e1),
            (&ml, 7, 0x2aab_7e47_8d3d_7bbb),
        ];
        for (cfg, seed, want) in pinned {
            assert!(cfg.num_users > USERS_PER_CHUNK, "several chunks to steal");
            for workers in [1, 2, 8] {
                let got = digest(&cfg.generate_on(seed, workers));
                assert_eq!(
                    got, want,
                    "{} users, seed {seed}, {workers} workers: {got:#018x}",
                    cfg.num_users
                );
            }
            assert_eq!(digest(&cfg.generate(seed)), want);
        }
    }

    #[test]
    fn only_populations_worth_a_thread_fan_out() {
        assert_eq!(SyntheticConfig::tiny().workers(), 1);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let ml = crate::profiles::DatasetProfile::MovieLens.config_scaled(0.25);
        assert_eq!(ml.workers(), cores);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = SyntheticConfig::tiny();
        let a = cfg.generate(1);
        let b = cfg.generate(2);
        let same = (0..a.num_users()).all(|u| a.user(u).items() == b.user(u).items());
        assert!(!same);
    }

    #[test]
    fn respects_minimum_interactions() {
        let cfg = SyntheticConfig::tiny();
        let d = cfg.generate(7);
        assert!(d
            .interaction_counts()
            .iter()
            .all(|&c| c >= cfg.min_interactions));
    }

    #[test]
    fn mean_count_is_roughly_calibrated() {
        let mut cfg = SyntheticConfig::tiny();
        cfg.num_users = 800;
        cfg.num_items = 600;
        cfg.mean_interactions = 40.0;
        cfg.median_interactions = 25.0;
        let d = cfg.generate(3);
        let mean = d.num_interactions() as f64 / d.num_users() as f64;
        // Log-normal sampling + clamping: allow 20% tolerance.
        assert!((mean - 40.0).abs() < 8.0, "mean {mean}");
    }

    #[test]
    fn median_count_is_roughly_calibrated() {
        let mut cfg = SyntheticConfig::tiny();
        cfg.num_users = 800;
        cfg.num_items = 600;
        cfg.mean_interactions = 40.0;
        cfg.median_interactions = 25.0;
        let d = cfg.generate(4);
        let mut counts = d.interaction_counts();
        counts.sort_unstable();
        let median = counts[counts.len() / 2] as f64;
        assert!((median - 25.0).abs() < 6.0, "median {median}");
    }

    #[test]
    fn counts_are_heavy_tailed() {
        let mut cfg = SyntheticConfig::tiny();
        cfg.num_users = 800;
        cfg.num_items = 600;
        cfg.mean_interactions = 40.0;
        cfg.median_interactions = 25.0;
        let d = cfg.generate(5);
        let counts = d.interaction_counts();
        let max = *counts.iter().max().unwrap() as f64;
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        assert!(max > 3.0 * mean, "max {max} vs mean {mean}: tail too light");
    }

    #[test]
    fn popularity_is_skewed() {
        let cfg = SyntheticConfig::tiny();
        let d = cfg.generate(6);
        let mut item_counts = vec![0usize; d.num_items()];
        for (_, ints) in d.iter_users() {
            for &i in ints.items() {
                item_counts[i as usize] += 1;
            }
        }
        item_counts.sort_unstable_by(|a, b| b.cmp(a));
        let head: usize = item_counts[..d.num_items() / 10].iter().sum();
        let total: usize = item_counts.iter().sum();
        // Top 10% of items should hold well over 10% of interactions.
        assert!(head as f64 > 0.2 * total as f64, "head {head} of {total}");
    }

    #[test]
    fn collaborative_structure_exists() {
        // Users in the same cluster should overlap more than random item
        // selection predicts. Compare the mean pairwise Jaccard overlap
        // against the analytic random baseline for the same set sizes:
        // E[|A∩B|] = |A||B|/M for uniform selections from M items.
        let mut cfg = SyntheticConfig::tiny();
        cfg.num_users = 60;
        cfg.num_items = 400;
        cfg.mean_interactions = 30.0;
        cfg.median_interactions = 25.0;
        cfg.popularity_weight = 0.0; // isolate the latent affinity signal
        cfg.temperature = 0.35;
        let d = cfg.generate(8);
        let m = d.num_items() as f64;
        let (mut observed, mut baseline, mut pairs) = (0.0, 0.0, 0.0);
        for a in 0..40 {
            for b in (a + 1)..40 {
                let ia = d.user(a).items();
                let na = ia.len() as f64;
                let nb = d.user(b).len() as f64;
                let inter = ia.iter().filter(|&&x| d.user(b).contains(x)).count() as f64;
                let union = na + nb - inter;
                let exp_inter = na * nb / m;
                if union > 0.0 {
                    observed += inter / union;
                    baseline += exp_inter / (na + nb - exp_inter);
                    pairs += 1.0;
                }
            }
        }
        let (observed, baseline) = (observed / pairs, baseline / pairs);
        assert!(
            observed > 1.4 * baseline,
            "mean Jaccard {observed} vs random baseline {baseline}: no structure"
        );
    }

    #[test]
    fn lognormal_params_roundtrip() {
        let cfg = SyntheticConfig::tiny();
        let (mu, sigma) = cfg.lognormal_params();
        let median = mu.exp();
        let mean = (mu + sigma * sigma / 2.0).exp();
        assert!((median - cfg.median_interactions).abs() < 1e-9);
        assert!((mean - cfg.mean_interactions).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "mean >= median")]
    fn rejects_impossible_calibration() {
        let mut cfg = SyntheticConfig::tiny();
        cfg.mean_interactions = 5.0;
        cfg.median_interactions = 10.0;
        let _ = cfg.lognormal_params();
    }
}
