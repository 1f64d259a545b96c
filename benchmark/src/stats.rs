//! Order statistics over exact samples (no bucketing: every sample is
//! kept, so a percentile is a real observation or the interpolation of
//! two neighbours).

/// Linear-interpolated quantile `p ∈ [0, 1]` of an unsorted sample;
/// `None` when the sample is empty.
pub fn quantile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The highest percentile of the ladder, no higher than `want`, that a
/// sample of `n` supports with at least `beyond` observations above it.
/// A tail percentile read off fewer than `beyond` points is an anecdote,
/// so small samples fall back to a lower rung (down to the median).
pub fn supported_percentile(n: usize, want: f64, beyond: usize) -> f64 {
    const LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];
    LADDER
        .into_iter()
        .filter(|&p| p <= want)
        .find(|&p| (n as f64 * (1.0 - p)).floor() as usize >= beyond)
        .unwrap_or(0.5)
}

/// Completions per second over consecutive chunks of `chunk`
/// completions each (a trailing partial chunk is dropped). Counting by
/// completions, not by time, keeps a server that answers in bursts of a
/// whole batch from quantising the rate.
pub fn chunk_rates(done_ns: &[u64], chunk: usize) -> Vec<f64> {
    let mut sorted = done_ns.to_vec();
    sorted.sort_unstable();
    let chunk = chunk.max(1);
    sorted
        .chunks_exact(chunk + 1)
        .map(|c| (c[chunk] - c[0]).max(1))
        .map(|span_ns| chunk as f64 * 1e9 / span_ns as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_and_handles_edges() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        // rank 0.9 * 3 = 2.7 → between 3 and 4
        assert!((quantile(&xs, 0.9).unwrap() - 3.7).abs() < 1e-12);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(10_000, 0.99, 10), 0.99);
        assert_eq!(supported_percentile(1_000, 0.99, 10), 0.99);
        assert_eq!(supported_percentile(999, 0.99, 10), 0.95);
        assert_eq!(supported_percentile(200, 0.99, 10), 0.95);
        assert_eq!(supported_percentile(199, 0.99, 10), 0.9);
        assert_eq!(supported_percentile(40, 0.99, 10), 0.75);
        assert_eq!(supported_percentile(12, 0.99, 10), 0.5);
        // never above what was asked for
        assert_eq!(supported_percentile(1_000_000, 0.9, 10), 0.9);
    }

    #[test]
    fn chunk_rates_count_completions_not_time() {
        // bursts of 4 completions every 10 ms: 400/s however chunks fall
        let done: Vec<u64> = (0..40u64).map(|i| (i / 4) * 10_000_000).collect();
        let rates = chunk_rates(&done, 8);
        assert_eq!(rates.len(), 4);
        for r in &rates {
            assert!((r - 400.0).abs() < 1e-9, "{r}");
        }
        // the reported rate is the median segment: one stalled segment
        // (here a third of the pace) does not move it
        let mut stalled = rates;
        stalled[1] /= 3.0;
        assert!((median(&stalled).unwrap() - 400.0).abs() < 1e-9);
    }
}
