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
//! from the softmax of the scores (Plackett–Luce).
//!
//! Per user the generator scores every item against an item-latent panel
//! laid out in blocks of 32 items, one item per lane. Each lane adds the
//! products in the order and from the `-0.0` that [`hf_tensor::ops::dot`]'s
//! chain uses, so every affinity is the bit pattern `dot` would give. It
//! then draws one 24-bit uniform per item, in item order, as before. The
//! two `ln`s of a Gumbel key are paid only by candidates whose bounds
//! straddle the `(n_u+1)`-th largest upper bound (about one a user). A
//! table of `g` bounds over the top 12 bits of the draw settles every
//! other item as a sure loser or a sure winner, and `f32` addition rounds
//! monotonically, so a bounded key is a true bound on the exact one. When
//! the `n_u`-th and `(n_u+1)`-th exact keys tie, which items win depends on
//! the selection algorithm's pass over the full key array, so that user
//! runs exactly that pass. Every dataset is therefore the one the plain
//! full-array selection gives (the digests in this module's tests pin it).
//! Winners are emitted in item order, so each user's ids come out sorted.

use crate::types::{offsets_of, population_workers, user_chunks, ImplicitDataset, ItemId};
use hf_tensor::parallel::parallel_fill_ordered;
use hf_tensor::rng::{stream, substream, Rng, SeedStream, StdRng};
use std::cmp::Ordering;
use std::sync::OnceLock;

/// Bits of a 24-bit Gumbel draw (the top ones) that pick its bound bucket.
const BUCKET_BITS: u32 = 12;
/// Draws per bucket.
const BUCKET_DRAWS: u32 = 1 << (24 - BUCKET_BITS);
/// How far each bucket's bounds reach past the `g` of its first and last
/// draw, so an `ln` that rounds non-monotonically cannot step outside.
const BUCKET_SLACK: f32 = 1e-3;
/// Items a block of the item-latent panel holds, one a lane.
const LANES: usize = 32;
/// Items tested for candidacy, branch-free, before their candidates are
/// appended to the list.
const CANDIDATE_BLOCK: usize = 64;

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

/// One generation's shared draws: what every user is drawn around and
/// scored against.
struct Generator<'a> {
    cfg: &'a SyntheticConfig,
    seed: u64,
    /// Ground-truth cluster centroids, shared between users and items so
    /// that affinity has signal.
    centroids: Vec<Vec<f32>>,
    /// Item latents in blocks of [`LANES`] items, one a lane: block `k`
    /// holds, for each `d` in turn, the `d`-th coordinate of items
    /// `LANES·k..` (zero past the last item).
    panel: Vec<f32>,
    /// `popularity_weight · log_pop` per item.
    boost: Vec<f32>,
    /// Log-normal `(mu, sigma)` of the counts.
    lognormal: (f64, f64),
}

/// Per-item buffers reused across one chunk's users.
#[derive(Default)]
struct Scratch {
    /// The user being filled in's latent.
    latent: Vec<f32>,
    /// Each item's score before Gumbel noise.
    scores: Vec<f32>,
    /// The 24-bit uniform behind each item's Gumbel noise.
    draws: Vec<u32>,
    /// What a selection ranks: the keys' lower bounds, then the
    /// candidates' upper bounds, then the straddlers' exact keys.
    ranked: Vec<f32>,
    /// The candidates in item order, each with its upper bound, then with
    /// its exact key (`+∞` for a sure winner); or every item's exact key.
    keys: Vec<(f32, ItemId)>,
    /// Exact Gumbel keys computed so far.
    exact_keys: usize,
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
        population_workers(self.num_users.saturating_mul(self.num_items))
    }

    /// [`generate`](Self::generate) on exactly `workers` threads.
    pub(crate) fn generate_on(&self, seed: u64, workers: usize) -> ImplicitDataset {
        let gen = Generator::new(self, seed);
        // A user's count comes off its own substream (independent of user
        // iteration order), so one cheap pass sizes every section before
        // any item is scored.
        let offsets = offsets_of((0..self.num_users).map(|u| gen.count(u)));

        // Each chunk's ids go into a recycled buffer on a worker and from
        // there, in user order, into the one id buffer. The per-item
        // scratch lives for one chunk, so a chunk waiting in the reorder
        // window holds its ids alone.
        let mut ids = Vec::with_capacity(*offsets.last().expect("one offset") as usize);
        parallel_fill_ordered(
            &user_chunks(self.num_users),
            workers,
            |users, chunk: &mut Vec<ItemId>| {
                chunk.clear();
                let mut scratch = Scratch::default();
                for u in users.clone() {
                    gen.fill(u, &mut scratch, chunk);
                }
            },
            |_, chunk| ids.extend_from_slice(chunk),
        );
        ImplicitDataset::from_sections(self.num_items, ids, offsets)
    }
}

impl<'a> Generator<'a> {
    /// Draws the centroids, the item latents and the popularity boost off
    /// `seed`'s dataset stream.
    fn new(cfg: &'a SyntheticConfig, seed: u64) -> Self {
        assert!(
            cfg.num_users > 0 && cfg.num_items > 1,
            "degenerate universe"
        );
        assert!(cfg.num_clusters > 0, "need at least one cluster");
        let mut rng = stream(seed, SeedStream::Dataset);
        let centroids: Vec<Vec<f32>> = (0..cfg.num_clusters)
            .map(|_| sample_unit_vector(cfg.latent_dim, &mut rng))
            .collect();

        let blocks = cfg.num_items.div_ceil(LANES);
        let mut panel = vec![0.0_f32; blocks * cfg.latent_dim * LANES];
        let mut latent = vec![0.0_f32; cfg.latent_dim];
        for i in 0..cfg.num_items {
            let c = rng.gen_range(0..cfg.num_clusters);
            perturb(&mut latent, &centroids[c], cfg.cluster_spread, &mut rng);
            let block = (i / LANES) * cfg.latent_dim * LANES;
            for (d, &x) in latent.iter().enumerate() {
                panel[block + d * LANES + i % LANES] = x;
            }
        }

        // Zipf popularity over a random item permutation so that item id
        // order carries no information.
        let mut pop_rank: Vec<usize> = (0..cfg.num_items).collect();
        hf_tensor::rng::shuffle(&mut pop_rank, &mut rng);
        let mut boost = vec![0.0_f32; cfg.num_items];
        for (rank, &item) in pop_rank.iter().enumerate() {
            let log_pop = -cfg.zipf_exponent * ((rank + 1) as f32).ln();
            boost[item] = cfg.popularity_weight * log_pop;
        }
        Self {
            cfg,
            seed,
            centroids,
            panel,
            boost,
            lognormal: cfg.lognormal_params(),
        }
    }

    /// User `u`'s count, the third thing off its substream. The words
    /// before it are skipped, not turned into a latent: one picks the
    /// cluster and two make each Box–Muller normal of the latent.
    fn count(&self, u: usize) -> usize {
        let mut urng = self.user_stream(u);
        for _ in 0..1 + 2 * self.cfg.latent_dim {
            urng.next_u64();
        }
        self.draw_count(&mut urng)
    }

    /// Draws user `u`'s cluster and latent (into `latent`) and count, and
    /// returns the count with the substream at the user's first item draw.
    fn draw_user(&self, u: usize, latent: &mut Vec<f32>) -> (usize, StdRng) {
        let mut urng = self.user_stream(u);
        let c = urng.gen_range(0..self.cfg.num_clusters);
        latent.resize(self.cfg.latent_dim, 0.0);
        perturb(
            latent,
            &self.centroids[c],
            self.cfg.cluster_spread,
            &mut urng,
        );
        (self.draw_count(&mut urng), urng)
    }

    fn user_stream(&self, u: usize) -> StdRng {
        substream(self.seed, SeedStream::Dataset, u as u64 + 1)
    }

    fn draw_count(&self, rng: &mut impl Rng) -> usize {
        let cfg = self.cfg;
        let (mu, sigma) = self.lognormal;
        let max_count = cfg.num_items.saturating_sub(1).max(cfg.min_interactions);
        sample_lognormal_count(mu, sigma, rng)
            .clamp(cfg.min_interactions, max_count)
            .min(cfg.num_items)
    }

    /// Appends user `u`'s ids, sorted, to `ids`: Gumbel-top-k
    /// selection of its count's worth of items, the `n` largest keys
    /// `score + g`, where `g` is one Gumbel draw per item in item order.
    fn fill(&self, u: usize, scratch: &mut Scratch, ids: &mut Vec<ItemId>) {
        let (n, mut urng) = self.draw_user(u, &mut scratch.latent);
        let inv_temp = 1.0 / self.cfg.temperature.max(1e-3);
        let Scratch {
            latent,
            scores,
            draws,
            ..
        } = scratch;
        scores.clear();
        scores.resize(self.boost.len(), 0.0);
        let stride = latent.len() * LANES;
        let lanes = scores.chunks_mut(LANES).zip(self.boost.chunks(LANES));
        for (k, (out, boost)) in lanes.enumerate() {
            let block = &self.panel[k * stride..][..stride];
            let mut acc = [-0.0_f32; LANES];
            for (&w, row) in latent.iter().zip(block.chunks_exact(LANES)) {
                for (a, &x) in acc.iter_mut().zip(row) {
                    *a += w * x;
                }
            }
            for ((s, a), &b) in out.iter_mut().zip(acc).zip(boost) {
                *s = inv_temp * (a + b);
            }
        }
        draws.clear();
        draws.extend(scores.iter().map(|_| (urng.next_u64() >> 40) as u32));
        top_n(scratch, n, ids);
    }
}

/// The standard Gumbel draw [`Rng::gumbel01`] makes when the `f32`
/// uniform it takes carries the 24-bit draw `m`.
fn gumbel_of(m: u32) -> f32 {
    struct Drawn(u64);
    impl Rng for Drawn {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }
    Drawn(u64::from(m) << 40).gumbel01()
}

/// `(low, high)` bounds on [`gumbel_of`] over each bucket of draws
/// sharing their top [`BUCKET_BITS`] bits.
fn gumbel_bounds() -> &'static [(f32, f32)] {
    static BOUNDS: OnceLock<Vec<(f32, f32)>> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        (0..1u32 << BUCKET_BITS)
            .map(|b| {
                let first = b * BUCKET_DRAWS;
                let last = first + BUCKET_DRAWS - 1;
                (
                    gumbel_of(first) - BUCKET_SLACK,
                    gumbel_of(last) + BUCKET_SLACK,
                )
            })
            .collect()
    })
}

fn bucket(m: u32) -> usize {
    (m / BUCKET_DRAWS) as usize
}

/// Largest first. Keys and bounds are never NaN, so `total_cmp`
/// (branch-free, unlike the `partial_cmp` the full-array pass keeps)
/// orders them as `<` does, bar `-0.0 < 0.0`: a zero-signed tie is still
/// a tie to `==`.
fn descending(a: &f32, b: &f32) -> Ordering {
    b.total_cmp(a)
}

/// Appends to `ids`, in ascending order, the `n` items with the largest
/// keys `scores[i] + gumbel_of(draws[i])`.
fn top_n(scratch: &mut Scratch, n: usize, ids: &mut Vec<ItemId>) {
    let num_items = scratch.scores.len();
    if n >= num_items {
        ids.extend(0..num_items as ItemId);
    } else if n > 0 && !top_n_bounded(scratch, n, ids) {
        top_n_exact(scratch, n);
        let start = ids.len();
        ids.extend(scratch.keys[..n].iter().map(|&(_, i)| i));
        ids[start..].sort_unstable();
    }
}

/// [`top_n`] with exact keys only for the candidates whose bounds
/// straddle the `(n+1)`-th largest upper bound, for `0 < n < items`;
/// `false`, with nothing appended, when the `n`-th and `(n+1)`-th exact
/// keys tie, since which of the tied items wins is up to
/// [`top_n_exact`].
///
/// Each item's key lies in `[lo, hi]`, its score plus its bucket's
/// bounds (`f32` addition rounds monotonically). Three facts settle all
/// but a few items:
///
/// 1. At least `n` exact keys reach `floor`, the `n`-th largest `lo`, so
///    the `n`-th largest key does too. An item whose `hi` is below
///    `floor` loses; the rest are the candidates, and every winner is
///    one.
/// 2. Let `H` be the `(n+1)`-th largest `hi`: with more than `n`
///    candidates, a candidate's, since theirs reach `floor` and no other
///    item's does. A candidate `c` with `lo > H` wins outright: every item whose key reaches `c`'s has
///    `hi ≥ key ≥ lo > H`, and at most `n` items (`c` among them) have
///    `hi > H`. So fewer than `n + 1` keys reach `c`'s: it is in the top
///    `n` and strictly above the `(n+1)`-th key, never in a boundary
///    tie. With exactly `n` candidates they are the winners (the rest lie
///    below `floor`), and `H = −∞` marks them all so.
/// 3. The other `r = n − sure` winners are therefore the `r` largest
///    exact keys among the straddlers, the candidates with `lo ≤ H`. The
///    `(n+1)`-th key overall is the `(r+1)`-th among the non-sure items;
///    when that is not a straddler it lies below `floor` and ties
///    nothing, so a boundary tie shows as a straddler past the `r`-th
///    whose key equals the `r`-th's.
fn top_n_bounded(scratch: &mut Scratch, n: usize, ids: &mut Vec<ItemId>) -> bool {
    let bounds = gumbel_bounds();
    let Scratch {
        scores,
        draws,
        ranked,
        keys,
        exact_keys,
        ..
    } = scratch;
    ranked.clear();
    ranked.extend(
        scores
            .iter()
            .zip(draws.iter())
            .map(|(&s, &m)| s + bounds[bucket(m)].0),
    );
    let floor = *ranked.select_nth_unstable_by(n - 1, descending).1;
    // Each item is written where the next candidate goes, which only a
    // candidate then claims: no branch on the comparison. A block of items
    // at a time, so `keys` grows to the candidates alone.
    keys.clear();
    let mut block = [(0.0, 0); CANDIDATE_BLOCK];
    let items = scores
        .chunks(CANDIDATE_BLOCK)
        .zip(draws.chunks(CANDIDATE_BLOCK));
    for (b, (scores, draws)) in items.enumerate() {
        let mut len = 0;
        for (j, (&s, &m)) in scores.iter().zip(draws).enumerate() {
            let hi = s + bounds[bucket(m)].1;
            block[len] = (hi, (b * CANDIDATE_BLOCK + j) as ItemId);
            len += usize::from(hi >= floor);
        }
        keys.extend_from_slice(&block[..len]);
    }
    let lo = |i: usize| scores[i] + bounds[bucket(draws[i])].0;
    let h = if keys.len() > n {
        ranked.clear();
        ranked.extend(keys.iter().map(|&(hi, _)| hi));
        *ranked.select_nth_unstable_by(n, descending).1
    } else {
        f32::NEG_INFINITY
    };
    ranked.clear();
    for (key, i) in keys.iter_mut() {
        let i = *i as usize;
        *key = if lo(i) > h {
            f32::INFINITY
        } else {
            let exact = scores[i] + gumbel_of(draws[i]);
            ranked.push(exact);
            exact
        };
    }
    *exact_keys += ranked.len();
    let r = n - (keys.len() - ranked.len());
    // The straddlers' `r`-th largest key: sure winners (`+∞`) and exactly
    // `r` straddlers reach it.
    let cut = if r == 0 {
        f32::INFINITY
    } else {
        let (_, &mut rth, rest) = ranked.select_nth_unstable_by(r - 1, descending);
        if rest.contains(&rth) {
            return false;
        }
        rth
    };
    ids.extend(keys.iter().filter(|&&(k, _)| k >= cut).map(|&(_, i)| i));
    true
}

/// [`top_n`] over every item's exact key, leaving the winners in
/// `keys[..n]`: the selection the generator has always made.
fn top_n_exact(scratch: &mut Scratch, n: usize) {
    let keys = &mut scratch.keys;
    keys.clear();
    keys.extend(
        scratch
            .scores
            .iter()
            .zip(&scratch.draws)
            .enumerate()
            .map(|(i, (&s, &m))| (s + gumbel_of(m), i as ItemId)),
    );
    scratch.exact_keys += keys.len();
    keys.select_nth_unstable_by(n - 1, |a, b| {
        b.0.partial_cmp(&a.0).expect("scores are finite")
    });
}

/// Uniformly random unit vector.
fn sample_unit_vector(dim: usize, rng: &mut impl Rng) -> Vec<f32> {
    let v = hf_tensor::init::normal_vec(dim, 1.0, rng);
    let norm = hf_tensor::ops::l2_norm(&v).max(1e-6);
    v.into_iter().map(|x| x / norm).collect()
}

/// Writes `center` plus isotropic Gaussian noise into `out`.
fn perturb(out: &mut [f32], center: &[f32], spread: f32, rng: &mut impl Rng) {
    hf_tensor::init::fill_normal(out, spread, rng);
    for (x, &c) in out.iter_mut().zip(center) {
        *x += c;
    }
}

/// One log-normal draw, rounded to a count.
fn sample_lognormal_count(mu: f64, sigma: f64, rng: &mut impl Rng) -> usize {
    let z = standard_normal(rng);
    (mu + sigma * z).exp().round().max(0.0) as usize
}

fn standard_normal(rng: &mut impl Rng) -> f64 {
    rng.standard_normal()
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
        // produced (computed at commit 131f2d0, before the fan-out); the
        // quarter-scale MovieLens (the training workloads' shape) and
        // Anime digests come from the full-array generator before the
        // bounded Gumbel keys (commit 4a8305d).
        let tiny = SyntheticConfig::tiny();
        let ml = crate::profiles::DatasetProfile::MovieLens.config_scaled(0.05);
        let ml_quarter = crate::profiles::DatasetProfile::MovieLens.config_scaled(0.25);
        let anime_quarter = crate::profiles::DatasetProfile::Anime.config_scaled(0.25);
        let pinned = [
            (&tiny, 42, 0x9764_8475_e7f2_c99f_u64),
            (&tiny, 7, 0xedf0_0e66_2c16_1dec),
            (&ml, 42, 0x9440_6622_8eca_80e1),
            (&ml, 7, 0x2aab_7e47_8d3d_7bbb),
            (&ml_quarter, 42, 0x1b7a_4e3a_2529_4dfd),
            (&ml_quarter, 7, 0xd8ee_411a_8ab4_ab9b),
            (&anime_quarter, 42, 0xb5b9_bd59_a539_0ca8),
            (&anime_quarter, 7, 0x01a0_f2a0_2247_506b),
        ];
        assert_eq!((ml_quarter.num_users, ml_quarter.num_items), (1_510, 927));
        assert_eq!(
            (anime_quarter.num_users, anime_quarter.num_items),
            (2_621, 1_722)
        );
        for (cfg, seed, want) in pinned {
            assert!(
                cfg.num_users > crate::types::USERS_PER_CHUNK,
                "several chunks to steal"
            );
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
    fn split_is_independent_of_the_worker_count() {
        // Past the fan-out threshold in ids, so `split` itself fans out
        // wherever there are cores to fan out over.
        let mut ml = crate::profiles::DatasetProfile::MovieLens.config_scaled(0.25);
        ml.num_users = 3_000;
        let data = ml.generate(42);
        assert!(data.num_interactions() >= crate::types::PARALLEL_MIN_WORK);
        let split_on = |workers| crate::SplitDataset::split_on(&data, 0.2, 0.1, 42, workers);
        let one = split_on(1);
        for many in [
            split_on(2),
            split_on(8),
            crate::SplitDataset::paper_split(&data, 42),
        ] {
            assert_eq!(many.num_users(), one.num_users());
            for ((u, a), (_, b)) in one.iter_users().zip(many.iter_users()) {
                assert_eq!(
                    (a.train, a.valid, a.test),
                    (b.train, b.valid, b.test),
                    "user {u}"
                );
            }
        }
    }

    /// Scratch holding `scores` and `draws` for [`top_n`].
    fn scratch(scores: Vec<f32>, draws: Vec<u32>) -> Scratch {
        Scratch {
            scores,
            draws,
            ..Scratch::default()
        }
    }

    /// What the full-array pass selects, sorted.
    fn exact_winners(s: &mut Scratch, n: usize) -> Vec<ItemId> {
        top_n_exact(s, n);
        let mut ids: Vec<ItemId> = s.keys[..n].iter().map(|&(_, i)| i).collect();
        ids.sort_unstable();
        ids
    }

    /// Runs the bounded pass alone on `scores` and `draws` and checks it
    /// against the full-array pass: the same set, ascending, unless it
    /// saw a boundary tie, when it must append nothing. Returns whether it
    /// settled the selection and how many exact keys it computed.
    fn check_bounded(scores: Vec<f32>, draws: Vec<u32>, n: usize) -> (bool, usize) {
        let mut s = scratch(scores, draws);
        let full = exact_winners(&mut s, n);
        assert_eq!(full.len(), n);
        s.exact_keys = 0;
        let mut ids = Vec::new();
        let settled = top_n_bounded(&mut s, n, &mut ids);
        let exact_keys = s.exact_keys;
        if settled {
            assert_eq!(ids, full, "n = {n}");
        } else {
            assert!(ids.is_empty(), "a tie appends nothing");
        }
        ids.clear();
        top_n(&mut s, n, &mut ids);
        assert_eq!(ids, full, "top_n, n = {n}");
        (settled, exact_keys)
    }

    #[test]
    fn bounded_keys_select_what_the_full_array_selects() {
        let mut rng = stream(11, SeedStream::Custom(0x7465_7374));
        for num_items in [2, 3, 40, 500] {
            for _ in 0..50 {
                let scores: Vec<f32> = (0..num_items)
                    .map(|_| rng.standard_normal_f32() * 3.0)
                    .collect();
                let draws: Vec<u32> = (0..num_items)
                    .map(|_| (rng.next_u64() >> 40) as u32)
                    .collect();
                for n in [1, num_items / 3, num_items - 1] {
                    let n = n.max(1);
                    let (settled, _) = check_bounded(scores.clone(), draws.clone(), n);
                    assert!(settled, "no tie at n = {n}");
                }
            }
        }
    }

    #[test]
    fn a_boundary_tie_falls_back_to_the_full_array() {
        // Items 5..15 share a score and a draw, and so an exact key; the
        // rest sit far below. Picking 4 of the 10 tied items is up to the
        // full-array selection.
        let num_items = 40;
        let scores = vec![0.5; num_items];
        let draws: Vec<u32> = (0..num_items as u32)
            .map(|i| if (5..15).contains(&i) { 0xff_f000 } else { i })
            .collect();
        let (settled, _) = check_bounded(scores.clone(), draws.clone(), 4);
        assert!(!settled, "the tie must be seen");
        let mut ids = Vec::new();
        top_n(&mut scratch(scores.clone(), draws.clone()), 4, &mut ids);
        assert!(ids.iter().all(|i| (5..15).contains(i)), "{ids:?}");
        // A tie strictly inside the winners decides nothing: the ten tied
        // items are the only candidates, so all are sure winners.
        let (settled, exact_keys) = check_bounded(scores, draws, 10);
        assert!(settled);
        assert_eq!(exact_keys, 0);
    }

    #[test]
    fn items_straddling_in_one_bucket_all_pay_exact_keys() {
        // Equal scores and every draw in one bucket: every item's bounds
        // are the same interval, so each straddles the (n+1)-th upper
        // bound and is ranked by its exact key alone.
        let num_items = 64;
        let scores = vec![0.25; num_items];
        let draws: Vec<u32> = (0..num_items as u32).map(|i| 0x80_0000 + 37 * i).collect();
        assert!(draws.iter().all(|&m| bucket(m) == bucket(draws[0])));
        for n in [1, num_items / 2, num_items - 1] {
            let (settled, exact_keys) = check_bounded(scores.clone(), draws.clone(), n);
            assert!(settled, "distinct draws, distinct keys at n = {n}");
            assert_eq!(exact_keys, num_items, "n = {n}");
        }
    }

    #[test]
    fn exactly_n_candidates_are_all_sure_winners() {
        // n items sit far above the rest, whatever their draws: they are
        // the only candidates and win without an exact key.
        let mut rng = stream(12, SeedStream::Custom(0x7465_7374));
        let num_items = 50;
        for n in [1, 7, num_items - 1] {
            let scores = (0..num_items)
                .map(|i| if i * 7 % num_items < n { 40.0 } else { -40.0 })
                .collect();
            let draws = (0..num_items)
                .map(|_| (rng.next_u64() >> 40) as u32)
                .collect();
            assert_eq!(check_bounded(scores, draws, n), (true, 0), "n = {n}");
        }
    }

    #[test]
    fn a_tie_inside_the_sure_winners_decides_nothing() {
        // Items 3 and 30 share a score and a draw far above the rest, so
        // their equal keys are both sure winners; the boundary sits among
        // the random rest.
        let mut rng = stream(13, SeedStream::Custom(0x7465_7374));
        let num_items = 200;
        for _ in 0..20 {
            let mut scores: Vec<f32> = (0..num_items).map(|_| rng.standard_normal_f32()).collect();
            let mut draws: Vec<u32> = (0..num_items)
                .map(|_| (rng.next_u64() >> 40) as u32)
                .collect();
            scores[3] = 50.0;
            scores[30] = 50.0;
            draws[30] = draws[3];
            for n in [2, 5, 60] {
                assert!(check_bounded(scores.clone(), draws.clone(), n).0, "n = {n}");
            }
        }
    }

    #[test]
    fn exact_gumbel_keys_are_rare_at_the_training_shape() {
        // Sure winners and losers are settled from their bounds, so a user
        // computes about one exact key, not one per candidate (~110 a user
        // when every candidate paid).
        let cfg = crate::profiles::DatasetProfile::MovieLens.config_scaled(0.25);
        let gen = Generator::new(&cfg, 42);
        let (mut s, mut ids) = (Scratch::default(), Vec::new());
        let mut selected = 0;
        for u in 0..cfg.num_users {
            ids.clear();
            gen.fill(u, &mut s, &mut ids);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "user {u} sorted");
            selected += ids.len();
        }
        let users = cfg.num_users as f64;
        let per_user = s.exact_keys as f64 / users;
        assert!(per_user <= 4.0, "{per_user} exact keys a user");
        println!(
            "gumbel keys per user: {per_user:.2} (n {:.1})",
            selected as f64 / users
        );
    }

    #[test]
    fn the_sizing_pass_skips_exactly_the_latents_words() {
        // `count` skips `1 + 2·latent_dim` words where `draw_user` draws a
        // cluster and a Box–Muller latent; a draw that changed its word
        // count would shift every count after it.
        let tiny = SyntheticConfig::tiny();
        let ml = crate::profiles::DatasetProfile::MovieLens.config_scaled(0.05);
        let ml_quarter = crate::profiles::DatasetProfile::MovieLens.config_scaled(0.25);
        let anime_quarter = crate::profiles::DatasetProfile::Anime.config_scaled(0.25);
        let mut latent = Vec::new();
        for cfg in [&tiny, &ml, &ml_quarter, &anime_quarter] {
            for seed in [42, 7] {
                let gen = Generator::new(cfg, seed);
                for u in 0..cfg.num_users {
                    assert_eq!(gen.count(u), gen.draw_user(u, &mut latent).0, "user {u}");
                }
            }
        }
    }

    /// Every `step`-th 24-bit draw (and the last) has its `g` inside its
    /// bucket's bounds.
    fn check_bucket_bounds(step: usize) {
        let bounds = gumbel_bounds();
        assert_eq!(bounds.len(), 1 << BUCKET_BITS);
        for m in (0..1u32 << 24).step_by(step).chain([(1 << 24) - 1]) {
            let (lo, hi) = bounds[bucket(m)];
            let g = gumbel_of(m);
            assert!(lo <= g && g <= hi, "draw {m}: {g} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn gumbel_draws_lie_inside_their_bucket_bounds() {
        check_bucket_bounds(97);
    }

    /// Exhaustive: run with `cargo test --release -p hf_dataset -- --ignored`.
    #[test]
    #[ignore = "exhaustive over all 2^24 draws; ci.sh runs it in release"]
    fn every_gumbel_draw_lies_inside_its_bucket_bounds() {
        check_bucket_bounds(1);
    }

    #[test]
    fn gumbel_of_a_draw_is_the_rng_gumbel() {
        let mut a = stream(5, SeedStream::Custom(0x7465_7374));
        let mut b = a.clone();
        for _ in 0..10_000 {
            assert_eq!(
                gumbel_of((a.next_u64() >> 40) as u32).to_bits(),
                b.gumbel01().to_bits()
            );
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
