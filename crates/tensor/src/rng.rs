//! Deterministic, purpose-keyed random streams — std-only.
//!
//! Federated experiments have many independent sources of randomness
//! (parameter init, client-queue shuffles, negative sampling, KD item
//! sampling, ...). Deriving each from a single experiment seed *and* a
//! stable purpose key means adding a new consumer never perturbs the draws
//! of existing ones — a property the reproducibility tests rely on.
//!
//! The workspace must build with an empty cargo registry, so this module
//! carries its own generator instead of depending on the `rand` crate:
//! [`StdRng`] is xoshiro256++ (Blackman & Vigna) seeded through SplitMix64,
//! and [`Rng`] exposes the small API surface the workspace actually uses
//! (`gen`, `gen_range`, `gen_bool`, plus Gaussian/Gumbel draws).

use std::ops::{Range, RangeInclusive};

/// Stable stream identifiers for every random consumer in the workspace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SeedStream {
    /// Public parameter initialisation (item embeddings, FFN weights).
    ParamInit,
    /// Per-client private user-embedding initialisation.
    UserInit,
    /// Synthetic dataset generation.
    Dataset,
    /// Train/validation/test splitting.
    Split,
    /// Negative sampling during local training.
    Negatives,
    /// Client queue shuffling at the start of each epoch.
    ClientQueue,
    /// Knowledge-distillation item subset sampling.
    Distill,
    /// Failure injection (client drop simulation).
    Faults,
    /// Per-dispatch client latency draws (event-driven simulation).
    Latency,
    /// Client availability (churn) draws.
    Churn,
    /// Secure-aggregation key-agreement secrets (per client, per session).
    SecAggSecret,
    /// Secure-aggregation pairwise mask expansion for one round. The
    /// round number is folded into the key so the same pair secret
    /// yields an unrelated mask stream every round.
    SecAggMask {
        /// Round the mask stream belongs to.
        round: u64,
    },
    /// Free-form stream for tests and tools.
    Custom(u64),
}

impl SeedStream {
    fn key(self) -> u64 {
        match self {
            SeedStream::ParamInit => 0x5045_5249,
            SeedStream::UserInit => 0x5553_4552,
            SeedStream::Dataset => 0x4441_5441,
            SeedStream::Split => 0x5350_4c54,
            SeedStream::Negatives => 0x4e45_4753,
            SeedStream::ClientQueue => 0x5155_4555,
            SeedStream::Distill => 0x4449_5354,
            SeedStream::Faults => 0x4641_554c,
            SeedStream::Latency => 0x4c41_5459,
            SeedStream::Churn => 0x4348_524e,
            SeedStream::SecAggSecret => 0x5341_5345,
            SeedStream::SecAggMask { round } => 0x5341_4d4b ^ split_mix64(round),
            SeedStream::Custom(k) => 0xc000_0000_0000_0000 ^ k,
        }
    }
}

/// The uniform random source: everything else is derived from `next_u64`.
///
/// Implemented for [`StdRng`] and for `&mut R` so `&mut impl Rng` call
/// sites compose. The generic helpers (`gen`, `gen_range`, ...) are
/// provided methods, so implementors only supply the raw stream.
pub trait Rng {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform draw of a primitive: `u32`/`u64`/`usize` over their full
    /// range, `f32`/`f64` in `[0, 1)`, `bool` fair.
    fn gen<T: FromRng>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// Uniform draw from a range (`a..b` or `a..=b` for integers,
    /// `a..b` for floats). Panics on an empty range.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Bernoulli draw: `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }

    /// Standard normal N(0, 1) draw via Box–Muller.
    fn standard_normal(&mut self) -> f64
    where
        Self: Sized,
    {
        let u1: f64 = 1.0 - self.gen::<f64>(); // (0, 1] so ln() is finite
        let u2: f64 = self.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Standard normal N(0, 1) draw as `f32`.
    fn standard_normal_f32(&mut self) -> f32
    where
        Self: Sized,
    {
        self.standard_normal() as f32
    }

    /// Standard Gumbel(0, 1) draw (for top-k sampling tricks).
    fn gumbel01(&mut self) -> f32
    where
        Self: Sized,
    {
        let u: f32 = self.gen::<f32>().max(1e-9);
        -(-u.ln()).ln()
    }
}

impl<R: Rng> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Primitive types drawable uniformly from an [`Rng`]. Floats land in
/// `[0, 1)` with 24 (`f32`) / 53 (`f64`) bits of precision.
pub trait FromRng {
    /// Draws one value from the generator.
    fn from_rng<R: Rng>(rng: &mut R) -> Self;
}

impl FromRng for u64 {
    fn from_rng<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl FromRng for u32 {
    fn from_rng<R: Rng>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl FromRng for usize {
    fn from_rng<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl FromRng for bool {
    fn from_rng<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl FromRng for f32 {
    fn from_rng<R: Rng>(rng: &mut R) -> Self {
        ((rng.next_u64() >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
    }
}

impl FromRng for f64 {
    fn from_rng<R: Rng>(rng: &mut R) -> Self {
        ((rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges an [`Rng`] can sample uniformly.
pub trait SampleRange {
    /// Element type of the range.
    type Output;
    /// Draws one value; panics if the range is empty.
    fn sample<R: Rng>(self, rng: &mut R) -> Self::Output;
}

/// Rejection-free-enough uniform integer in `[0, n)` (Lemire-style
/// widening multiply keeps modulo bias below 2^-64 relative).
fn uniform_below<R: Rng>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    ((u128::from(rng.next_u64()) * u128::from(n)) >> 64) as u64
}

macro_rules! int_range_impls {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                // wrapping arithmetic: the span is correct modulo 2^64 even
                // for signed ranges wider than the signed max.
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                let span = hi.wrapping_sub(lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_below(rng, span + 1) as $t)
            }
        }
    )*};
}

int_range_impls!(u32, u64, usize, i64);

impl SampleRange for Range<f32> {
    type Output = f32;
    fn sample<R: Rng>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "gen_range on empty range");
        let v = self.start + rng.gen::<f32>() * (self.end - self.start);
        // Rounding can land exactly on the exclusive bound for narrow
        // ranges; keep the half-open contract.
        if v < self.end {
            v
        } else {
            self.end.next_down().max(self.start)
        }
    }
}

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample<R: Rng>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range on empty range");
        let v = self.start + rng.gen::<f64>() * (self.end - self.start);
        if v < self.end {
            v
        } else {
            self.end.next_down().max(self.start)
        }
    }
}

/// xoshiro256++ generator — the workspace's sole uniform source.
///
/// Small (4×u64), fast, and passes BigCrush; named `StdRng` so call sites
/// read the same as they would against the `rand` crate.
#[derive(Clone, Debug)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Expands a 64-bit seed into the full 256-bit state via SplitMix64
    /// (the seeding procedure recommended by the xoshiro authors).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            *slot = split_mix64(x);
        }
        // All-zero state is the one invalid xoshiro state.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        Self { s }
    }

    /// The full 256-bit generator state (for checkpointing).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from [`StdRng::state`] output, resuming the
    /// stream exactly where it was captured.
    ///
    /// # Panics
    /// Panics on the all-zero state (invalid for xoshiro).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s != [0, 0, 0, 0], "all-zero xoshiro state is invalid");
        Self { s }
    }
}

impl crate::ser::ToJson for StdRng {
    fn write_json(&self, out: &mut String) {
        self.s.write_json(out);
    }
}

impl StdRng {
    /// Restores a checkpointed generator from its JSON state.
    pub fn from_json(v: &crate::ser::JsonValue<'_>) -> Result<Self, crate::ser::JsonError> {
        let s = v.as_u64_vec()?;
        let s: [u64; 4] = s
            .try_into()
            .map_err(|_| crate::ser::JsonError::msg("rng state must have 4 words"))?;
        if s == [0, 0, 0, 0] {
            return Err(crate::ser::JsonError::msg("all-zero rng state"));
        }
        Ok(Self::from_state(s))
    }
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Derives a deterministic [`StdRng`] from `(experiment seed, stream)`.
///
/// Uses SplitMix64 over the combined key so nearby seeds produce unrelated
/// streams.
pub fn stream(seed: u64, which: SeedStream) -> StdRng {
    let mixed = split_mix64(seed ^ split_mix64(which.key()));
    StdRng::seed_from_u64(mixed)
}

/// Derives a sub-stream keyed by an extra index (e.g. a client id), so that
/// per-client randomness is independent of iteration order.
pub fn substream(seed: u64, which: SeedStream, index: u64) -> StdRng {
    let mixed =
        split_mix64(seed ^ split_mix64(which.key()) ^ split_mix64(index.wrapping_add(0x9e37)));
    StdRng::seed_from_u64(mixed)
}

/// SplitMix64 finaliser — a cheap, well-distributed 64-bit mixer.
fn split_mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by the supplied RNG (extracted so protocol
/// code and tests share one implementation).
pub fn shuffle<T>(items: &mut [T], rng: &mut impl Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws<T: FromRng>(seed: u64, which: SeedStream, n: usize) -> Vec<T> {
        let mut rng = stream(seed, which);
        (0..n).map(|_| rng.gen::<T>()).collect()
    }

    #[test]
    fn same_seed_same_stream_is_deterministic() {
        let a: Vec<u32> = draws(7, SeedStream::Dataset, 8);
        let b: Vec<u32> = draws(7, SeedStream::Dataset, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn different_streams_decorrelate() {
        let a: u64 = stream(7, SeedStream::Dataset).gen();
        let b: u64 = stream(7, SeedStream::Split).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_decorrelate() {
        let a: u64 = stream(1, SeedStream::ParamInit).gen();
        let b: u64 = stream(2, SeedStream::ParamInit).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn substreams_differ_per_index() {
        let a: u64 = substream(7, SeedStream::UserInit, 0).gen();
        let b: u64 = substream(7, SeedStream::UserInit, 1).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn secagg_streams_decorrelate_from_each_other_and_per_round() {
        let secret: u64 = stream(7, SeedStream::SecAggSecret).gen();
        let mask0: u64 = stream(7, SeedStream::SecAggMask { round: 0 }).gen();
        let mask1: u64 = stream(7, SeedStream::SecAggMask { round: 1 }).gen();
        assert_ne!(secret, mask0);
        assert_ne!(mask0, mask1);
        // And neither collides with an established stream.
        let faults: u64 = stream(7, SeedStream::Faults).gen();
        assert_ne!(secret, faults);
        assert_ne!(mask0, faults);
    }

    #[test]
    fn custom_streams_are_keyed() {
        let a: u64 = stream(7, SeedStream::Custom(1)).gen();
        let b: u64 = stream(7, SeedStream::Custom(2)).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn floats_land_in_unit_interval() {
        let mut rng = stream(9, SeedStream::Custom(0));
        for _ in 0..10_000 {
            let x: f32 = rng.gen();
            let y: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x), "f32 {x}");
            assert!((0.0..1.0).contains(&y), "f64 {y}");
        }
    }

    #[test]
    fn float_draws_are_roughly_uniform() {
        let mut rng = stream(10, SeedStream::Custom(0));
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = stream(11, SeedStream::Custom(1));
        for _ in 0..10_000 {
            let a = rng.gen_range(3usize..17);
            assert!((3..17).contains(&a));
            let b = rng.gen_range(0usize..=5);
            assert!(b <= 5);
            let c = rng.gen_range(-2.5f32..2.5);
            assert!((-2.5..2.5).contains(&c));
            let d = rng.gen_range(7u32..8);
            assert_eq!(d, 7);
        }
    }

    #[test]
    fn gen_range_hits_every_value() {
        let mut rng = stream(12, SeedStream::Custom(2));
        let mut seen = [false; 6];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..=5)] = true;
        }
        assert!(seen.iter().all(|&s| s), "seen {seen:?}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = stream(13, SeedStream::Custom(3));
        let _ = rng.gen_range(5usize..5);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = stream(14, SeedStream::Custom(4));
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
        let mut rng = stream(15, SeedStream::Custom(5));
        assert!((0..1000).all(|_| !rng.gen_bool(0.0)));
        assert!((0..1000).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn standard_normal_has_unit_moments() {
        let mut rng = stream(16, SeedStream::Custom(6));
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
        assert!(xs.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn gumbel_draws_are_finite() {
        let mut rng = stream(17, SeedStream::Custom(7));
        assert!((0..10_000).all(|_| rng.gumbel01().is_finite()));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..50).collect();
        let mut rng = stream(3, SeedStream::ClientQueue);
        shuffle(&mut v, &mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // With 50 elements the probability of the identity permutation is
        // negligible; treat identity as a shuffle failure.
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_handles_degenerate_lengths() {
        let mut rng = stream(3, SeedStream::ClientQueue);
        let mut empty: [u8; 0] = [];
        shuffle(&mut empty, &mut rng);
        let mut single = [42];
        shuffle(&mut single, &mut rng);
        assert_eq!(single, [42]);
    }

    #[test]
    fn state_snapshot_resumes_the_stream_exactly() {
        use crate::ser::{parse_json, ToJson};
        let mut rng = stream(11, SeedStream::Distill);
        for _ in 0..100 {
            rng.next_u64();
        }
        let json = rng.to_json();
        let mut resumed = StdRng::from_json(&parse_json(&json).unwrap()).unwrap();
        for _ in 0..50 {
            assert_eq!(rng.next_u64(), resumed.next_u64());
        }
    }

    #[test]
    fn invalid_rng_states_are_rejected() {
        use crate::ser::parse_json;
        assert!(StdRng::from_json(&parse_json("[0,0,0,0]").unwrap()).is_err());
        assert!(StdRng::from_json(&parse_json("[1,2,3]").unwrap()).is_err());
    }
}
