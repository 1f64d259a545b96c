//! Scoped worker pool for intra-round parallelism.
//!
//! Clients selected in the same round train independently against the same
//! downloaded snapshot of the public parameters, so their local work is
//! embarrassingly parallel. [`parallel_map`] fans a slice of inputs over a
//! bounded number of `std::thread::scope` workers and returns outputs in
//! input order — determinism is preserved because each client's computation
//! derives its randomness from its own id, never from execution order.
//!
//! Work is claimed from a shared atomic index in small batches rather than
//! pre-split into fixed contiguous chunks. Heterogeneous tiers make
//! per-client cost skewed (large-tier clients train wider models), and with
//! fixed chunking the round serialises on whichever worker drew the most
//! expensive chunk; with atomic claiming, workers that finish early steal
//! the remaining items instead of idling. Which worker computes an item
//! never affects its value, so results stay bit-identical across thread
//! counts.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on the number of items a worker claims per atomic fetch.
/// Small enough to keep stealing effective on skewed workloads, large
/// enough that the shared counter is not contended for cheap items.
const MAX_CLAIM: usize = 16;

/// Applies `f` to every element of `items`, using up to `threads` worker
/// threads, returning results in input order.
///
/// Workers repeatedly claim the next batch of items from a shared atomic
/// cursor (work stealing via self-scheduling), so skewed per-item costs
/// re-balance automatically. Each worker records `(index, value)` pairs
/// that are scattered back into input order after the join — `f(items[i])`
/// is computed exactly once, by exactly one worker, so the output is
/// bit-identical regardless of `threads`. With `threads <= 1` (or one
/// item) this degrades to a plain sequential map with zero thread or
/// atomic overhead.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let workers = threads.min(items.len());
    // Batch size: fine-grained enough that `workers * 4` claims exist even
    // if every item were uniform, capped so cheap items amortise the
    // atomic traffic.
    let claim = (items.len() / (workers * 4)).clamp(1, MAX_CLAIM);
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let cursor = &cursor;

    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut produced: Vec<(usize, R)> = Vec::new();
                    loop {
                        let start = cursor.fetch_add(claim, Ordering::Relaxed);
                        if start >= items.len() {
                            break;
                        }
                        let end = (start + claim).min(items.len());
                        for (i, item) in items[start..end].iter().enumerate() {
                            produced.push((start + i, f(item)));
                        }
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            for (i, value) in handle.join().expect("worker thread panicked") {
                debug_assert!(slots[i].is_none(), "item {i} computed twice");
                slots[i] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every item claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map(&items, 4, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_fallback_matches() {
        let items: Vec<u64> = (0..10).collect();
        let par = parallel_map(&items, 4, |&x| x + 1);
        let seq = parallel_map(&items, 1, |&x| x + 1);
        assert_eq!(par, seq);
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7], 4, |&x| x * 3), vec![21]);
    }

    #[test]
    fn more_threads_than_items() {
        let items = [1, 2, 3];
        assert_eq!(parallel_map(&items, 64, |&x| x), vec![1, 2, 3]);
    }

    #[test]
    fn results_are_deterministic_regardless_of_threads() {
        let items: Vec<u64> = (0..256).collect();
        // A mildly expensive, pure function.
        let f = |&x: &u64| -> u64 {
            let mut h = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for _ in 0..100 {
                h = h.rotate_left(13).wrapping_mul(31);
            }
            h
        };
        let a = parallel_map(&items, 1, f);
        let b = parallel_map(&items, 2, f);
        let c = parallel_map(&items, 8, f);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn float_results_are_bit_identical_across_thread_counts() {
        // Guards the fan-out rewrite (fixed chunks → work stealing): the
        // pool must not perturb results (no reduction-order effects, no
        // reordering), down to the bit pattern of non-trivial f32 math.
        // Per-item cost grows linearly with the index — the skewed-cost
        // profile of heterogeneous tiers — so late items land on whichever
        // worker steals them, exercising out-of-order claiming.
        let items: Vec<u64> = (0..1000).collect();
        let f = |&x: &u64| -> f32 {
            let mut acc = (x as f32).sin();
            // Skew: item i costs ~i inner iterations.
            for k in 1..(x + 2) {
                acc += ((x * k) as f32).sqrt().cos() / k as f32;
            }
            acc
        };
        let seq = parallel_map(&items, 1, f);
        for threads in [2, 8] {
            let par = parallel_map(&items, threads, f);
            assert_eq!(seq.len(), par.len());
            for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{threads} threads, item {i}: {a} != {b}"
                );
            }
        }
        // Input order: recompute independently and compare positionally.
        let par = parallel_map(&items, 8, f);
        for (i, v) in par.iter().enumerate() {
            assert_eq!(v.to_bits(), f(&items[i]).to_bits(), "item {i} out of order");
        }
    }

    #[test]
    fn extreme_skew_completes_and_matches() {
        // One item dwarfs the rest: fixed chunking would strand all other
        // items of that chunk behind it, work stealing must not deadlock
        // or misplace results.
        let items: Vec<u64> = (0..64).collect();
        let f = |&x: &u64| -> u64 {
            let iters = if x == 0 { 200_000 } else { 10 };
            let mut h = x + 1;
            for _ in 0..iters {
                h = h.rotate_left(7).wrapping_mul(0x2545_f491_4f6c_dd1d);
            }
            h
        };
        let seq: Vec<u64> = items.iter().map(f).collect();
        assert_eq!(parallel_map(&items, 8, f), seq);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let items = [1, 2, 3, 4];
        let _ = parallel_map(&items, 2, |&x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
    }
}
