//! Log-bucketed latency histogram.
//!
//! The serving stack measures socket-to-socket latency under load, where
//! storing every sample is wasteful and percentiles over a sorted vector
//! do not merge across threads. [`LatencyHistogram`] instead counts
//! samples in geometrically spaced buckets: constant *relative* error
//! (each bucket is `GROWTH` (8.3 %) wider than the previous one, so any
//! reported quantile is within ~4% of the true value), constant memory,
//! and lossless merging — each load-generator connection records into its
//! own histogram and the totals are summed at the end.
//!
//! Quantiles interpolate within the winning bucket, so `quantile(0.0)` /
//! `quantile(1.0)` approach the recorded extremes rather than bucket
//! midpoints.

use std::time::Duration;

/// Geometric growth factor between bucket upper bounds (~8.3% per bucket,
/// ≤ ~4.2% half-width relative quantile error).
const GROWTH: f64 = 1.083;

/// Upper bound of bucket 0, in seconds (1 µs — below any socket round
/// trip this stack can observe).
const BASE: f64 = 1e-6;

/// Number of buckets. `BASE * GROWTH^(N-1)` ≈ 6.7e3 seconds, far beyond
/// any latency worth distinguishing; larger samples clamp into the last
/// bucket.
const BUCKETS: usize = 285;

/// A mergeable, fixed-memory histogram of latency samples with
/// geometrically spaced buckets.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    /// Exact extremes, in seconds (quantile interpolation clamps to
    /// these, so p0/p100 are exact).
    min: f64,
    max: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Records one duration sample.
    pub fn record(&mut self, sample: Duration) {
        self.record_secs(sample.as_secs_f64());
    }

    /// Records one sample given in seconds. Negative and NaN samples are
    /// clamped to zero (they can only come from clock skew).
    pub fn record_secs(&mut self, secs: f64) {
        let secs = if secs.is_finite() && secs > 0.0 {
            secs
        } else {
            0.0
        };
        let idx = Self::bucket_of(secs);
        self.counts[idx] += 1;
        self.total += 1;
        self.min = self.min.min(secs);
        self.max = self.max.max(secs);
    }

    /// Adds every sample of `other` into `self` (lossless: bucket counts
    /// are summed).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `p`-quantile (`p` in `[0, 1]`) in seconds, or `None` when the
    /// histogram is empty. Linear interpolation inside the winning
    /// bucket, clamped to the exact recorded extremes.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        // The extremes are tracked exactly; skip the bucket walk.
        if p == 0.0 {
            return Some(self.min);
        }
        if p == 1.0 {
            return Some(self.max);
        }
        // Rank of the wanted sample (1-based, nearest-rank).
        let rank = ((p * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                // Interpolate inside bucket i by the rank's position.
                let (lo, hi) = Self::bucket_bounds(i);
                let within = (rank - seen) as f64 / c as f64;
                let v = lo + (hi - lo) * within;
                return Some(v.clamp(self.min, self.max));
            }
            seen += c;
        }
        Some(self.max)
    }

    /// [`LatencyHistogram::quantile`] in milliseconds (the unit the bench
    /// tables print).
    pub fn quantile_ms(&self, p: f64) -> Option<f64> {
        self.quantile(p).map(|s| s * 1e3)
    }

    /// Mean of the recorded samples in seconds (bucket-midpoint
    /// approximation), or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let mut sum = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                let (lo, hi) = Self::bucket_bounds(i);
                sum += c as f64 * (lo + hi) * 0.5;
            }
        }
        Some(sum / self.total as f64)
    }

    /// Non-empty `(bucket upper bound in seconds, count)` pairs —
    /// the raw series a `--json` snapshot archives.
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_bounds(i).1, c))
            .collect()
    }

    /// Index of the bucket holding `secs`.
    fn bucket_of(secs: f64) -> usize {
        if secs <= BASE {
            return 0;
        }
        let idx = (secs / BASE).ln() / GROWTH.ln();
        (idx.ceil() as usize).min(BUCKETS - 1)
    }

    /// `(lower, upper)` bounds of bucket `i`, in seconds.
    fn bucket_bounds(i: usize) -> (f64, f64) {
        let hi = BASE * GROWTH.powi(i as i32);
        let lo = if i == 0 { 0.0 } else { hi / GROWTH };
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_millis(3));
        for p in [0.0, 0.5, 0.99, 1.0] {
            let q = h.quantile(p).unwrap();
            assert!((q - 3e-3).abs() < 3e-3 * 0.05, "p{p}: {q}");
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        // 1..=1000 µs uniform: p50 ≈ 500 µs, p99 ≈ 990 µs.
        let mut h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        let p50 = h.quantile(0.50).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((p50 - 500e-6).abs() / 500e-6 < 0.05, "p50 {p50}");
        assert!((p99 - 990e-6).abs() / 990e-6 < 0.05, "p99 {p99}");
        // Quantiles are monotone in p.
        let mut prev = 0.0;
        for i in 0..=20 {
            let q = h.quantile(i as f64 / 20.0).unwrap();
            assert!(q >= prev, "quantiles must be monotone");
            prev = q;
        }
    }

    #[test]
    fn extremes_are_exact() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(17));
        h.record(Duration::from_millis(40));
        assert_eq!(h.quantile(0.0), Some(17e-6));
        assert_eq!(h.quantile(1.0), Some(40e-3));
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for i in 0..500u64 {
            let d = Duration::from_micros(10 + i * 7);
            if i % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            whole.record(d);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        for p in [0.1, 0.5, 0.95, 0.99] {
            assert_eq!(a.quantile(p), whole.quantile(p), "p{p}");
        }
    }

    #[test]
    fn degenerate_samples_are_clamped_not_panicked() {
        let mut h = LatencyHistogram::new();
        h.record_secs(-1.0);
        h.record_secs(f64::NAN);
        h.record_secs(1e12); // clamps into the last bucket
        assert_eq!(h.count(), 3);
        assert!(h.quantile(0.5).unwrap().is_finite());
    }

    #[test]
    fn buckets_expose_only_populated_cells() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(100));
        h.record(Duration::from_micros(100));
        h.record(Duration::from_millis(10));
        let buckets = h.buckets();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), 3);
        assert!(buckets[0].0 < buckets[1].0);
    }
}
