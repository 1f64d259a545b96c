//! Round scheduling.
//!
//! Paper §V-D: "At the beginning of an epoch, the server shuffles the
//! queue of clients. Then, at each epoch, there are several rounds for the
//! central server to traverse the client queue. During each round, the
//! central server selects 256 users for training." The scheduler
//! reproduces exactly that: one shuffle per epoch, then contiguous chunks
//! of the queue as rounds (the final round of an epoch may be smaller).
//!
//! The shuffle itself is exposed through
//! [`TraversalPolicy`]: synchronous rounds
//! are one policy over the per-epoch traversal (chunk it into lockstep
//! cohorts); the event-driven asynchronous engine
//! ([`crate::events::EventScheduler`]) is another consumer of the very same
//! traversal, so both modes share the shuffle RNG stream.

use crate::events::TraversalPolicy;
use hf_tensor::rng::StdRng;
use hf_tensor::rng::{stream, SeedStream};

/// Epoch/round scheduler over a fixed client population.
#[derive(Clone, Debug)]
pub struct RoundScheduler {
    queue: Vec<usize>,
    clients_per_round: usize,
    rng: StdRng,
}

impl RoundScheduler {
    /// Creates a scheduler for `num_clients` clients with the given round
    /// size, seeded deterministically.
    ///
    /// # Panics
    /// Panics on an empty population or zero round size.
    pub fn new(num_clients: usize, clients_per_round: usize, seed: u64) -> Self {
        assert!(num_clients > 0, "no clients to schedule");
        assert!(clients_per_round > 0, "round size must be positive");
        Self {
            queue: (0..num_clients).collect(),
            clients_per_round: clients_per_round.min(num_clients),
            rng: stream(seed, SeedStream::ClientQueue),
        }
    }

    /// Paper-default round size of 256 clients.
    pub fn paper_default(num_clients: usize, seed: u64) -> Self {
        Self::new(num_clients, 256, seed)
    }

    /// Admits one newly arrived client, returning its id. The client joins
    /// the traversal from the next shuffle on; the current epoch's chunks
    /// (already handed out by [`RoundScheduler::next_epoch`]) are
    /// unaffected. Admission order is part of the deterministic state: the
    /// queue (including admits) is checkpointed verbatim.
    pub fn admit(&mut self) -> usize {
        let client = self.queue.len();
        self.queue.push(client);
        client
    }

    /// Number of rounds per epoch (`ceil(num_clients / clients_per_round)`).
    pub fn rounds_per_epoch(&self) -> usize {
        self.queue.len().div_ceil(self.clients_per_round)
    }

    /// Shuffles the queue and returns this epoch's rounds — the synchronous
    /// policy: the traversal chunked into lockstep cohorts.
    pub fn next_epoch(&mut self) -> Vec<Vec<usize>> {
        self.next_traversal();
        self.queue
            .chunks(self.clients_per_round)
            .map(|c| c.to_vec())
            .collect()
    }

    /// Restores a checkpointed scheduler (queue order + shuffle-RNG state),
    /// resuming the epoch sequence exactly where it was captured.
    pub fn from_json(v: &hf_tensor::ser::JsonValue<'_>) -> Result<Self, hf_tensor::ser::JsonError> {
        let queue = v.get("queue")?.as_usize_vec()?;
        if queue.is_empty() {
            return Err(hf_tensor::ser::JsonError::msg("empty scheduler queue"));
        }
        let clients_per_round = v.get("clients_per_round")?.as_usize()?;
        if clients_per_round == 0 {
            return Err(hf_tensor::ser::JsonError::msg("zero round size"));
        }
        Ok(Self {
            queue,
            clients_per_round,
            rng: StdRng::from_json(v.get("rng")?)?,
        })
    }
}

impl TraversalPolicy for RoundScheduler {
    fn population(&self) -> usize {
        self.queue.len()
    }

    fn next_traversal(&mut self) -> Vec<usize> {
        hf_tensor::rng::shuffle(&mut self.queue, &mut self.rng);
        self.queue.clone()
    }
}

impl hf_tensor::ser::ToJson for RoundScheduler {
    fn write_json(&self, out: &mut String) {
        hf_tensor::ser::obj(out, |o| {
            o.field("queue", &self.queue)
                .field("clients_per_round", &self.clients_per_round)
                .field("rng", &self.rng);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_traverses_every_client_once() {
        let mut s = RoundScheduler::new(100, 32, 1);
        let rounds = s.next_epoch();
        assert_eq!(rounds.len(), 4); // ceil(100/32)
        let mut all: Vec<usize> = rounds.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn last_round_holds_the_remainder() {
        let mut s = RoundScheduler::new(100, 32, 1);
        let rounds = s.next_epoch();
        assert_eq!(rounds[0].len(), 32);
        assert_eq!(rounds[3].len(), 4);
    }

    #[test]
    fn epochs_differ_in_order() {
        let mut s = RoundScheduler::new(64, 64, 2);
        let a = s.next_epoch();
        let b = s.next_epoch();
        assert_ne!(a[0], b[0], "consecutive epochs should reshuffle");
    }

    #[test]
    fn scheduling_is_deterministic_per_seed() {
        let mut s1 = RoundScheduler::new(50, 16, 7);
        let mut s2 = RoundScheduler::new(50, 16, 7);
        assert_eq!(s1.next_epoch(), s2.next_epoch());
        assert_eq!(s1.next_epoch(), s2.next_epoch());
    }

    #[test]
    fn round_size_is_clamped_to_population() {
        let mut s = RoundScheduler::new(10, 256, 3);
        let rounds = s.next_epoch();
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].len(), 10);
        assert_eq!(s.rounds_per_epoch(), 1);
    }

    #[test]
    #[should_panic(expected = "no clients")]
    fn rejects_empty_population() {
        let _ = RoundScheduler::new(0, 8, 0);
    }

    #[test]
    fn traversal_and_rounds_share_the_shuffle_stream() {
        let mut by_rounds = RoundScheduler::new(50, 16, 7);
        let mut by_traversal = RoundScheduler::new(50, 16, 7);
        for _ in 0..3 {
            let flat: Vec<usize> = by_rounds.next_epoch().into_iter().flatten().collect();
            assert_eq!(flat, by_traversal.next_traversal());
        }
    }

    #[test]
    fn admitted_clients_join_the_next_traversal() {
        let mut s = RoundScheduler::new(10, 4, 3);
        let _ = s.next_epoch();
        assert_eq!(s.admit(), 10);
        assert_eq!(s.admit(), 11);
        assert_eq!(s.population(), 12);
        let mut flat: Vec<usize> = s.next_epoch().into_iter().flatten().collect();
        flat.sort_unstable();
        assert_eq!(flat, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn admission_is_checkpointed_with_the_queue() {
        use hf_tensor::ser::{parse_json, ToJson};
        let mut s = RoundScheduler::new(8, 4, 9);
        s.next_epoch();
        s.admit();
        let mut resumed = RoundScheduler::from_json(&parse_json(&s.to_json()).unwrap()).unwrap();
        assert_eq!(s.next_epoch(), resumed.next_epoch());
    }

    #[test]
    fn checkpoint_resumes_the_epoch_sequence_exactly() {
        use hf_tensor::ser::{parse_json, ToJson};
        let mut s = RoundScheduler::new(50, 16, 7);
        s.next_epoch();
        let mut resumed = RoundScheduler::from_json(&parse_json(&s.to_json()).unwrap()).unwrap();
        for _ in 0..3 {
            assert_eq!(s.next_epoch(), resumed.next_epoch());
        }
    }
}
