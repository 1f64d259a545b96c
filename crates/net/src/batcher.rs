//! The bounded in-flight queue and the micro-batching policy.
//!
//! Connection reader threads push decoded requests into a [`Queue`]; the
//! single batcher thread pops them in **micro-batches**, and the policy
//! is work-conserving: [`Queue::pop_batch`] blocks for the first job,
//! takes whatever else is already queued up to `batch_max`, and returns.
//! There is no timer. An isolated request is answered as soon as it is
//! asked; under load the backlog that builds while the previous batch
//! ranks is the next batch, so coalescing follows the load by itself.
//!
//! A timed coalescing window buys nothing here. With precomputed item
//! halves one `recommend_batch` call over 64 requests costs what 64
//! calls over one cost (`serve.recommender.batch64_us_per_req` 611 µs
//! against `batch1_us` 610 µs), so waiting to fill a batch saves no
//! ranking work, while even a 500 µs wait is 25× the ~20 µs a
//! small-tier ranking takes.
//!
//! Backpressure is the queue bound: [`Queue::push`] blocks while the
//! queue holds `capacity` jobs, which stalls that connection's reader
//! thread, which stops draining its socket, which fills the kernel
//! buffers, which stalls the client's writes. No frame is ever dropped;
//! the slowdown propagates to the sender, end to end.
//!
//! Coalescing never changes answers: `Recommender::recommend_batch` is
//! bit-identical across batch compositions by the serving determinism
//! contract, so how requests happen to share batches is invisible in
//! the response bytes.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

/// A queue slot: one decoded request plus the context needed to answer
/// it (generic so tests can drive the policy without sockets).
pub(crate) struct Queue<T> {
    inner: Mutex<VecDeque<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    closed: AtomicBool,
}

impl<T> Queue<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            inner: Mutex::new(VecDeque::with_capacity(capacity)),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            closed: AtomicBool::new(false),
        }
    }

    /// `true` once [`Queue::close`] has been called.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Closes the queue: pushes start failing, and poppers drain what is
    /// left and then see `None`.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Blocks until there is room (backpressure), then enqueues.
    /// Returns `false` — the job was not accepted — once closed.
    pub(crate) fn push(&self, job: T) -> bool {
        let mut q = self.inner.lock().expect("queue poisoned");
        while q.len() >= self.capacity {
            if self.is_closed() {
                return false;
            }
            q = self.not_full.wait(q).expect("queue poisoned");
        }
        if self.is_closed() {
            return false;
        }
        q.push_back(job);
        drop(q);
        self.not_empty.notify_one();
        true
    }

    /// Pops the next micro-batch: blocks for the first job, then takes
    /// what is already queued, up to `max` jobs, in arrival order — it
    /// never waits for a batch to fill. Returns `None` when the queue is
    /// closed *and* drained.
    pub(crate) fn pop_batch(&self, max: usize) -> Option<Vec<T>> {
        let mut q = self.inner.lock().expect("queue poisoned");
        while q.is_empty() {
            if self.is_closed() {
                return None;
            }
            q = self.not_empty.wait(q).expect("queue poisoned");
        }
        let n = q.len().min(max);
        let batch: Vec<T> = q.drain(..n).collect();
        drop(q);
        self.not_full.notify_all();
        Some(batch)
    }

    /// Number of queued jobs right now (diagnostics only).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn a_lone_job_is_a_batch_of_one() {
        // Nothing else is ever pushed: a policy that waited for company
        // would have nothing to return with.
        let q = Queue::new(8);
        assert!(q.push(7u32));
        assert_eq!(q.pop_batch(8).unwrap(), vec![7]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn a_backlog_within_max_is_one_fifo_batch() {
        let q = Queue::new(64);
        for i in 0..10 {
            assert!(q.push(i));
        }
        assert_eq!(q.pop_batch(10).unwrap(), (0..10).collect::<Vec<_>>());
        for i in 10..13 {
            assert!(q.push(i));
        }
        assert_eq!(q.pop_batch(64).unwrap(), vec![10, 11, 12]);
    }

    #[test]
    fn a_backlog_over_max_splits_in_order() {
        let q = Queue::new(64);
        for i in 0..10 {
            assert!(q.push(i));
        }
        assert_eq!(q.pop_batch(4).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(q.pop_batch(4).unwrap(), vec![4, 5, 6, 7]);
        assert_eq!(q.pop_batch(4).unwrap(), vec![8, 9]);
    }

    #[test]
    fn a_parked_pop_returns_the_first_arrival_alone() {
        let q = Arc::new(Queue::new(8));
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(8))
        };
        assert!(q.push(1u32));
        // The popper can only return after a push; were it to wait for
        // more, this join would never come back.
        assert_eq!(popper.join().unwrap().unwrap(), vec![1]);
    }

    #[test]
    fn push_blocks_at_capacity_until_popped() {
        let q = Arc::new(Queue::new(2));
        assert!(q.push(1u32));
        assert!(q.push(2));
        let blocked = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(3))
        };
        // The push cannot complete while the queue is full.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 2);
        let batch = q.pop_batch(2).unwrap();
        assert_eq!(batch, vec![1, 2]);
        assert!(blocked.join().unwrap());
        assert_eq!(q.pop_batch(8).unwrap(), vec![3]);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = Queue::new(8);
        q.push(1u32);
        q.push(2);
        q.close();
        assert!(!q.push(3), "closed queue rejects new jobs");
        assert_eq!(q.pop_batch(8).unwrap(), vec![1, 2]);
        assert!(q.pop_batch(8).is_none());
    }

    #[test]
    fn close_unblocks_a_full_queue_push() {
        let q = Arc::new(Queue::new(1));
        assert!(q.push(1u32));
        let blocked = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(2))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(!blocked.join().unwrap(), "push fails after close");
    }
}
