//! Scoped worker pool for intra-round parallelism.
//!
//! Clients selected in the same round train independently against the same
//! downloaded snapshot of the public parameters, so their local work is
//! embarrassingly parallel. [`parallel_for_each_ordered`] fans a slice of
//! inputs over a bounded number of `std::thread::scope` workers and hands
//! each output to the calling thread in input order as soon as it and every
//! earlier one are ready; [`parallel_map`] collects them. Determinism is
//! preserved because each client's computation derives its randomness from
//! its own id, never from execution order.
//!
//! Work is claimed from a shared atomic index one item at a time rather
//! than pre-split into fixed contiguous chunks. Heterogeneous tiers make
//! per-client cost skewed (large-tier clients train wider models), and with
//! fixed chunking the round serialises on whichever worker drew the most
//! expensive chunk; with atomic claiming, workers that finish early steal
//! the remaining items instead of idling. Which worker computes an item
//! never affects its value, so results stay bit-identical across thread
//! counts. Claims are not batched: every result already costs a channel
//! send, which outweighs the claim's atomic, and a batch claimed ahead
//! would wait whole in the caller's reorder window.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Applies `f` to every element of `items`, using up to `threads` worker
/// threads, returning results in input order.
///
/// `f(items[i])` is computed exactly once, by exactly one worker, so the
/// output is bit-identical regardless of `threads`. A collect over
/// [`parallel_for_each_ordered`].
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    parallel_for_each_ordered(items, threads, f, |_, value| out.push(value));
    out
}

/// Applies `f` to every element of `items` on up to `threads` worker
/// threads and calls `sink(i, f(&items[i]))` on the calling thread for
/// every `i` in ascending order, each as soon as that result and every
/// earlier one are ready.
///
/// Workers repeatedly claim the next item from a shared atomic cursor
/// (work stealing via self-scheduling), so skewed per-item costs
/// re-balance automatically, and send each result to the caller as it is
/// computed. The caller holds only the *reorder window*: results that
/// arrived ahead of the next index `sink` expects, which is about one
/// result per other worker unless one item is far slower than the ones
/// after it. A consumer that folds each result and drops it therefore
/// never holds the whole output. With `threads <= 1` (or one item) this
/// degrades to a plain sequential loop with zero thread or atomic
/// overhead.
///
/// # Panics
/// A panic in `f` is re-raised on the calling thread with the worker's
/// payload once every worker has stopped; `sink` has then seen a prefix
/// of the results.
pub fn parallel_for_each_ordered<T, R, F, S>(items: &[T], threads: usize, f: F, mut sink: S)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    S: FnMut(usize, R),
{
    if threads <= 1 || items.len() <= 1 {
        for (i, item) in items.iter().enumerate() {
            sink(i, f(item));
        }
        return;
    }
    let workers = threads.min(items.len());
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let cursor = &cursor;

    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let tx = tx.clone();
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else {
                        break;
                    };
                    // A closed channel means the caller is unwinding.
                    if tx.send((i, f(item))).is_err() {
                        break;
                    }
                })
            })
            .collect();
        // Only the workers hold senders now, so the receive loop ends when
        // the last one has finished or panicked.
        drop(tx);
        // `window[k]` holds item `next + k`'s result once it has arrived.
        let mut window: VecDeque<Option<R>> = VecDeque::new();
        let mut next = 0;
        for (i, value) in rx {
            let k = i - next;
            if window.len() <= k {
                window.resize_with(k + 1, || None);
            }
            debug_assert!(window[k].is_none(), "item {i} computed twice");
            window[k] = Some(value);
            while let Some(value) = window.front_mut().and_then(Option::take) {
                window.pop_front();
                sink(next, value);
                next += 1;
            }
        }
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
        assert_eq!(next, items.len(), "every item claimed exactly once");
    });
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

    /// Item `x` costs about `x²` rounds of mixing, so later items are
    /// slower and each worker's claims finish out of input order.
    fn skewed(x: &u64) -> u64 {
        let mut h = *x + 1;
        for _ in 0..(x * x) {
            h = h.rotate_left(7).wrapping_mul(0x2545_f491_4f6c_dd1d);
        }
        h
    }

    #[test]
    fn ordered_sink_sees_every_index_once_in_order() {
        // Reversed costs too: the first items are then the slowest, so
        // nearly every result waits in the reorder window.
        let rising: Vec<u64> = (0..200).collect();
        let falling: Vec<u64> = (0..200).rev().collect();
        for items in [rising, falling] {
            let expected: Vec<u64> = items.iter().map(skewed).collect();
            for threads in [1, 2, 8] {
                let mut seen = Vec::new();
                parallel_for_each_ordered(&items, threads, skewed, |i, value| {
                    assert_eq!(i, seen.len(), "{threads} threads: index out of order");
                    seen.push(value);
                });
                assert_eq!(seen, expected, "{threads} threads");
            }
        }
    }

    #[test]
    fn parallel_map_is_unchanged_by_the_ordered_fan_out() {
        let items: Vec<u64> = (0..300).collect();
        let expected: Vec<u64> = items.iter().map(skewed).collect();
        for threads in [1, 2, 8] {
            assert_eq!(parallel_map(&items, threads, skewed), expected, "{threads}");
        }
    }

    #[test]
    #[should_panic(expected = "worker failed on item 37")]
    fn worker_panic_propagates() {
        let items: Vec<u64> = (0..64).collect();
        parallel_for_each_ordered(
            &items,
            2,
            |&x| {
                if x == 37 {
                    panic!("worker failed on item {x}");
                }
                skewed(&x)
            },
            |_, _| {},
        );
    }

    #[test]
    fn a_worker_panic_leaves_the_sink_a_prefix() {
        let items: Vec<u64> = (0..64).collect();
        let mut seen = Vec::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_for_each_ordered(
                &items,
                8,
                |&x| {
                    assert!(x != 5, "boom at {x}");
                    x
                },
                |i, _| seen.push(i),
            )
        }));
        let payload = caught.expect_err("the worker's panic propagates");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert_eq!(message, "boom at 5");
        assert_eq!(seen, (0..5).collect::<Vec<_>>());
    }
}
