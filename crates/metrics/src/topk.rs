//! Top-K selection with an exclusion mask.
//!
//! Full-ranking evaluation masks each user's training positives (they are
//! trivially "known" and excluding them is the standard protocol the
//! paper follows \[69\], \[73\]). A fixed-size binary min-heap over the
//! candidate scores gives `O(|V| log K)` selection without sorting the
//! whole universe.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Score-keyed heap entry; the `BinaryHeap` is a max-heap, so ordering is
/// reversed to evict the *smallest* retained score first.
#[derive(PartialEq)]
struct Entry {
    score: f32,
    item: u32,
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse on score, forward on item id for deterministic ties.
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.item.cmp(&other.item))
    }
}

/// Selects the `k` highest-scoring items, skipping any in the `exclude`
/// mask: [`top_k_scored`] over the whole universe (`base = 0`), ids only.
pub fn top_k_excluding(scores: &[f32], k: usize, exclude: &[u32]) -> Vec<u32> {
    top_k_scored(scores, k, 0, exclude)
        .into_iter()
        .map(|e| e.0)
        .collect()
}

/// Selects the `k` highest-scoring items of a panel, skipping any in the
/// `exclude` mask: `scores[i]` holds the score of item `base + i`, and
/// the returned candidates carry their scores so per-panel winners can
/// be merged without re-reading (or even retaining) the panel's score
/// vector.
///
/// NaN scores are skipped, the `exclude` mask is honoured (ids are
/// global, i.e. already offset by `base`), ties break toward the smaller
/// item id so results are deterministic, and the output is sorted
/// best-first by `(score desc, item asc)`. Merging the outputs of a panel
/// partition of the universe under that same order and truncating to `k`
/// therefore reproduces the ranking over the concatenated scores exactly:
/// any item a panel evicts was beaten by `k` items of its own panel, so
/// it cannot appear in the global top-K.
///
/// The mask lookup binary-searches, which requires sorted input; callers
/// normally pass the pre-sorted training positives. An unsorted mask used
/// to be accepted silently and produced wrong rankings (the binary search
/// missed members, so "known" items leaked into the top-K). It is now
/// detected with one `O(|exclude|)` scan and sorted into a local copy
/// before use.
pub fn top_k_scored(scores: &[f32], k: usize, base: u32, exclude: &[u32]) -> Vec<(u32, f32)> {
    if k == 0 {
        return Vec::new();
    }
    let sorted_fallback: Vec<u32>;
    let exclude = if exclude.windows(2).all(|w| w[0] <= w[1]) {
        exclude
    } else {
        let mut copy = exclude.to_vec();
        copy.sort_unstable();
        sorted_fallback = copy;
        &sorted_fallback
    };
    let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(k + 1);
    for (i, &score) in scores.iter().enumerate() {
        if score.is_nan() {
            continue;
        }
        let item = base + i as u32;
        if exclude.binary_search(&item).is_ok() {
            continue;
        }
        if heap.len() < k {
            heap.push(Entry { score, item });
        } else if let Some(worst) = heap.peek() {
            // Keep the candidate if it beats the current worst (or ties
            // with a smaller id).
            let better = score > worst.score || (score == worst.score && item < worst.item);
            if better {
                heap.pop();
                heap.push(Entry { score, item });
            }
        }
    }
    let mut out: Vec<Entry> = heap.into_vec();
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.item.cmp(&b.item))
    });
    out.into_iter().map(|e| (e.item, e.score)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_highest_scores_in_order() {
        let scores = [0.1, 0.9, 0.5, 0.7, 0.3];
        assert_eq!(top_k_excluding(&scores, 3, &[]), vec![1, 3, 2]);
    }

    #[test]
    fn excludes_masked_items() {
        let scores = [0.1, 0.9, 0.5, 0.7, 0.3];
        assert_eq!(top_k_excluding(&scores, 3, &[1, 3]), vec![2, 4, 0]);
    }

    #[test]
    fn k_larger_than_universe() {
        let scores = [0.2, 0.1];
        assert_eq!(top_k_excluding(&scores, 10, &[]), vec![0, 1]);
    }

    #[test]
    fn k_zero_is_empty() {
        assert!(top_k_excluding(&[1.0, 2.0], 0, &[]).is_empty());
    }

    #[test]
    fn ties_break_to_smaller_id() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        assert_eq!(top_k_excluding(&scores, 2, &[]), vec![0, 1]);
    }

    #[test]
    fn nan_scores_are_skipped() {
        let scores = [f32::NAN, 0.5, f32::NAN, 0.7];
        assert_eq!(top_k_excluding(&scores, 3, &[]), vec![3, 1]);
    }

    #[test]
    fn unsorted_exclude_mask_is_handled() {
        // Regression: an unsorted mask used to defeat the binary search,
        // so masked items leaked into the ranking. The sort-detect
        // fallback must produce exactly the sorted-mask result.
        let scores = [0.1, 0.9, 0.5, 0.7, 0.3, 0.8];
        assert_eq!(
            top_k_excluding(&scores, 3, &[5, 1, 3]),
            top_k_excluding(&scores, 3, &[1, 3, 5]),
        );
        assert_eq!(top_k_excluding(&scores, 3, &[5, 1, 3]), vec![2, 4, 0]);
        // Larger pseudo-random case against the oracle with a shuffled mask.
        let scores: Vec<f32> = (0..300)
            .map(|i| ((i * 48_271_usize) % 997) as f32 / 997.0)
            .collect();
        let mut exclude: Vec<u32> = (0..300).filter(|i| i % 5 == 0).map(|i| i as u32).collect();
        exclude.reverse(); // decidedly unsorted
        let got = top_k_excluding(&scores, 15, &exclude);
        let mut sorted = exclude.clone();
        sorted.sort_unstable();
        assert_eq!(got, top_k_excluding(&scores, 15, &sorted));
        assert!(got.iter().all(|i| !sorted.contains(i)));
    }

    #[test]
    fn scored_variant_agrees_with_the_id_variant() {
        let scores: Vec<f32> = (0..200)
            .map(|i| ((i * 48_271_usize) % 499) as f32 / 499.0)
            .collect();
        let exclude: Vec<u32> = (0..200).filter(|i| i % 6 == 0).map(|i| i as u32).collect();
        let ids = top_k_excluding(&scores, 12, &exclude);
        let scored = top_k_scored(&scores, 12, 0, &exclude);
        assert_eq!(scored.iter().map(|&(i, _)| i).collect::<Vec<_>>(), ids);
        for &(item, score) in &scored {
            assert_eq!(score.to_bits(), scores[item as usize].to_bits());
        }
        assert!(top_k_scored(&scores, 0, 0, &[]).is_empty());
    }

    #[test]
    fn panel_merge_reproduces_the_dense_ranking() {
        // Rank a 300-item universe densely, then in 64-item panels merged
        // under (score desc, id asc); the two must agree exactly. Ties and
        // NaNs included to exercise the edge rules.
        let scores: Vec<f32> = (0..300)
            .map(|i| {
                if i % 31 == 0 {
                    f32::NAN
                } else {
                    ((i * 2_654_435_761_u64 as usize) % 97) as f32 / 97.0
                }
            })
            .collect();
        let exclude: Vec<u32> = (0..300).filter(|i| i % 9 == 0).map(|i| i as u32).collect();
        let k = 17;
        let dense = top_k_excluding(&scores, k, &exclude);

        let mut merged: Vec<(u32, f32)> = Vec::new();
        for start in (0..scores.len()).step_by(64) {
            let end = (start + 64).min(scores.len());
            merged.extend(top_k_scored(&scores[start..end], k, start as u32, &exclude));
        }
        merged.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        merged.truncate(k);
        assert_eq!(merged.iter().map(|&(i, _)| i).collect::<Vec<_>>(), dense);
    }

    #[test]
    fn scored_boundaries_at_scale_seams() {
        // The capacity serving path leans on exactly these edges: k = 0
        // (metadata-only probes), k ≥ panel/universe size (small tail
        // panels of a blocked catalogue), and all-NaN panels (every
        // candidate filtered out).
        let scores = [0.4, 0.2, 0.9];
        // k = 0 is empty regardless of base/exclusions.
        assert!(top_k_scored(&scores, 0, 1_000, &[1_002]).is_empty());
        // k ≥ num_items returns every non-excluded candidate, ranked.
        for k in [3, 4, 100] {
            assert_eq!(
                top_k_scored(&scores, k, 10, &[]),
                vec![(12, 0.9), (10, 0.4), (11, 0.2)],
                "k = {k}"
            );
        }
        assert_eq!(
            top_k_scored(&scores, 100, 10, &[12]),
            vec![(10, 0.4), (11, 0.2)]
        );
        // All-NaN panels yield nothing (never a panic, never a NaN entry).
        let nans = [f32::NAN; 8];
        assert!(top_k_scored(&nans, 5, 0, &[]).is_empty());
        assert!(top_k_excluding(&nans, 5, &[]).is_empty());
        // Empty panels too (a zero-item tail is representable).
        assert!(top_k_scored(&[], 5, 77, &[]).is_empty());
    }

    #[test]
    fn exact_ties_across_panel_merge_boundaries() {
        // Every item scores identically; panels of 7 over 40 items. The
        // merged ranking must be items 0..k in id order — the
        // (score desc, id asc) tie-break may not depend on which panel a
        // candidate came from or on merge order.
        let scores = vec![0.625f32; 40];
        let k = 11;
        let dense = top_k_excluding(&scores, k, &[]);
        assert_eq!(dense, (0..k as u32).collect::<Vec<_>>());
        // Merge panels in reverse order to stress order-independence.
        let mut merged: Vec<(u32, f32)> = Vec::new();
        let starts: Vec<usize> = (0..scores.len()).step_by(7).collect();
        for &start in starts.iter().rev() {
            let end = (start + 7).min(scores.len());
            merged.extend(top_k_scored(&scores[start..end], k, start as u32, &[]));
            merged.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| a.0.cmp(&b.0))
            });
            merged.truncate(k);
        }
        assert_eq!(merged.iter().map(|&(i, _)| i).collect::<Vec<_>>(), dense);
        for &(item, score) in &merged {
            assert_eq!(score.to_bits(), scores[item as usize].to_bits());
        }
        // Two-value tie straddling a boundary: ids 5 and 7 tie at the
        // top across panels [0..6) and [6..12); the smaller id wins.
        let scores = [0.1, 0.1, 0.1, 0.1, 0.1, 0.8, 0.1, 0.8, 0.1, 0.1, 0.1, 0.1];
        let mut merged: Vec<(u32, f32)> = Vec::new();
        for start in [6usize, 0] {
            merged.extend(top_k_scored(
                &scores[start..start + 6],
                2,
                start as u32,
                &[],
            ));
        }
        merged.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        merged.truncate(2);
        assert_eq!(merged, vec![(5, 0.8), (7, 0.8)]);
    }

    #[test]
    fn matches_full_sort_reference() {
        // Pseudo-random scores; compare against a sort-everything oracle.
        let scores: Vec<f32> = (0..500)
            .map(|i| ((i * 2_654_435_761_u64 as usize) % 1000) as f32 / 1000.0)
            .collect();
        let exclude: Vec<u32> = (0..500).filter(|i| i % 7 == 0).map(|i| i as u32).collect();
        let got = top_k_excluding(&scores, 20, &exclude);

        let mut oracle: Vec<(f32, u32)> = scores
            .iter()
            .enumerate()
            .filter(|(i, _)| exclude.binary_search(&(*i as u32)).is_err())
            .map(|(i, &s)| (s, i as u32))
            .collect();
        oracle.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        let expected: Vec<u32> = oracle.into_iter().take(20).map(|(_, i)| i).collect();
        assert_eq!(got, expected);
    }
}
