//! Deterministic interaction streams feeding a running session.
//!
//! A stream yields timestamped `(user, item)` interaction events; the
//! [`PipelineDriver`](crate::PipelineDriver) polls it against the
//! session's simulated clock at each cycle boundary and hands the due
//! events to [`Session::ingest`](hetefedrec_core::Session::ingest).
//!
//! The shipped implementation, [`ReplayStream`], is a *replay* source:
//! it carves a deterministic "future" out of an [`ImplicitDataset`] —
//! a fraction of every retained user's interactions plus the trailing
//! users in their entirety — and replays it over a logical-time
//! horizon. The same held-out events double as the post-cutoff
//! evaluation set for [`drift_report`](crate::drift_report): they are
//! exactly the interactions the stale artifact has never seen.
//!
//! # Ordering contract
//!
//! `Session::ingest` admits a brand-new user only when its id equals
//! the current user count, so a stream must order events such that the
//! first event of new user `u` precedes the first event of new user
//! `u + 1` and no event references a user beyond the next unadmitted
//! id. [`ReplayStream::replay`] constructs such an order by inserting
//! each new user's event block at a deterministic position in the
//! shuffled existing-user event list, blocks in increasing user order.

use hf_dataset::types::{ItemId, UserId};
use hf_dataset::ImplicitDataset;
use hf_tensor::rng::{shuffle, stream, SeedStream};

/// One timestamped interaction delivered by a stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamEvent {
    /// Logical arrival time, on the session's simulated clock.
    pub time: u64,
    /// Interacting user (may be one past the session's current user
    /// count: that event admits the user).
    pub user: UserId,
    /// Interacted item.
    pub item: ItemId,
}

/// A source of timestamped interaction events.
pub trait InteractionStream {
    /// Returns every not-yet-delivered event with `time <= clock`, in
    /// arrival order. Delivery is destructive: an event is returned at
    /// most once.
    fn poll(&mut self, clock: u64) -> Vec<StreamEvent>;

    /// Number of events not yet delivered.
    fn remaining(&self) -> usize;
}

/// Shape of the held-out "future" a [`ReplayStream`] replays.
#[derive(Clone, Copy, Debug)]
pub struct ReplayConfig {
    /// Fraction of each retained user's interactions held out as
    /// stream events (each user always keeps at least one interaction
    /// in the base split).
    pub item_frac: f64,
    /// Number of trailing users withheld from the base dataset
    /// entirely; their events admit them as new users mid-stream.
    pub new_users: usize,
    /// Timestamp of the first event.
    pub start: u64,
    /// Events are spread uniformly over `[start, start + horizon)`.
    pub horizon: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            item_frac: 0.2,
            new_users: 0,
            start: 1,
            horizon: 16,
        }
    }
}

/// A deterministic replay of held-out interactions.
///
/// Built by [`ReplayStream::replay`], which also returns the pre-cutoff
/// base dataset the session should be trained (and split) on. The full
/// event list stays readable after delivery ([`ReplayStream::events`])
/// so a resumed pipeline can re-align ([`ReplayStream::skip`]) and a
/// drift evaluation can replay the same future against two artifacts.
#[derive(Clone, Debug)]
pub struct ReplayStream {
    events: Vec<StreamEvent>,
    cursor: usize,
}

impl ReplayStream {
    /// Wraps an explicit event list (must be sorted by `time` and obey
    /// the new-user ordering contract of the module docs).
    ///
    /// # Panics
    /// Panics if timestamps are not non-decreasing.
    pub fn new(events: Vec<StreamEvent>) -> Self {
        assert!(
            events.windows(2).all(|w| w[0].time <= w[1].time),
            "stream events must be sorted by time"
        );
        Self { events, cursor: 0 }
    }

    /// Splits `dataset` into a pre-cutoff base dataset and the stream
    /// of post-cutoff events, deterministically in `seed`.
    ///
    /// Holdout: the last `cfg.new_users` users are withheld entirely
    /// (their ids become the new-user ids `base_users..`); every other
    /// user contributes `floor(len * cfg.item_frac)` interactions,
    /// chosen by a per-user seeded shuffle, capped so at least one
    /// interaction stays in the base. Existing-user events are shuffled
    /// into one arrival order and each new user's block is inserted at
    /// an evenly-spaced position, in increasing user order; timestamps
    /// then spread uniformly over `[cfg.start, cfg.start + cfg.horizon)`.
    ///
    /// # Panics
    /// Panics if `cfg.new_users >= dataset.num_users()` or `item_frac`
    /// is not in `[0, 1]`.
    pub fn replay(
        dataset: &ImplicitDataset,
        cfg: &ReplayConfig,
        seed: u64,
    ) -> (ImplicitDataset, ReplayStream) {
        assert!(
            cfg.new_users < dataset.num_users(),
            "cannot hold out all {} users",
            dataset.num_users()
        );
        assert!(
            (0.0..=1.0).contains(&cfg.item_frac),
            "item_frac must be a fraction, got {}",
            cfg.item_frac
        );
        let base_users = dataset.num_users() - cfg.new_users;

        // Per-user item holdout for the retained users.
        let hold_of =
            |len: usize| ((len as f64 * cfg.item_frac) as usize).min(len.saturating_sub(1));
        let held: usize = (0..base_users)
            .map(|u| hold_of(dataset.user(u).len()))
            .sum();
        let mut base_lists: Vec<Vec<ItemId>> = Vec::with_capacity(base_users);
        let mut existing: Vec<(UserId, ItemId)> = Vec::with_capacity(held);
        // Shuffled in a scratch buffer so each base list is allocated at
        // exactly the size it keeps.
        let mut items: Vec<ItemId> = Vec::new();
        for u in 0..base_users {
            items.clear();
            items.extend_from_slice(dataset.user(u).items());
            let hold = hold_of(items.len());
            if hold > 0 {
                let mut rng = stream(seed, SeedStream::Custom(u as u64));
                shuffle(&mut items, &mut rng);
            }
            let (kept, held_out) = items.split_at(items.len() - hold);
            existing.extend(held_out.iter().map(|&it| (u, it)));
            base_lists.push(kept.to_vec());
        }
        let base = ImplicitDataset::new(dataset.num_items(), base_lists);

        // One global arrival order for the existing-user events; the
        // stream id is offset past any plausible user id so the order
        // draw never collides with a per-user holdout stream.
        let mut rng = stream(seed, SeedStream::Custom((1u64 << 40) | 1));
        shuffle(&mut existing, &mut rng);

        // Insert each new user's block at an evenly-spaced position, in
        // increasing user order (the admission contract).
        let withheld: usize = (base_users..dataset.num_users())
            .map(|u| dataset.user(u).len())
            .sum();
        let mut merged: Vec<(UserId, ItemId)> = Vec::with_capacity(held + withheld);
        let slots = cfg.new_users + 1;
        let mut next = 0usize; // next new user (offset)
        for (i, &pair) in existing.iter().enumerate() {
            while next < cfg.new_users && i >= ((next + 1) * existing.len()) / slots {
                let u = base_users + next;
                merged.extend(dataset.user(u).items().iter().map(|&it| (u, it)));
                next += 1;
            }
            merged.push(pair);
        }
        for u in base_users + next..dataset.num_users() {
            merged.extend(dataset.user(u).items().iter().map(|&it| (u, it)));
        }

        // Spread timestamps over the horizon, non-decreasing.
        let total = merged.len().max(1) as u64;
        let events = merged
            .into_iter()
            .enumerate()
            .map(|(i, (user, item))| StreamEvent {
                time: cfg.start + (i as u64 * cfg.horizon) / total,
                user,
                item,
            })
            .collect();
        (base, ReplayStream::new(events))
    }

    /// The full event list, delivered or not.
    pub fn events(&self) -> &[StreamEvent] {
        &self.events
    }

    /// Number of events already delivered by [`InteractionStream::poll`].
    pub fn delivered(&self) -> usize {
        self.cursor
    }

    /// Marks the first `n` events as already delivered — how a resumed
    /// pipeline re-aligns the stream with a checkpointed session's
    /// [`ingested_events`](hetefedrec_core::Session::ingested_events)
    /// count.
    ///
    /// # Panics
    /// Panics if `n` exceeds the event count.
    pub fn skip(&mut self, n: usize) {
        assert!(n <= self.events.len(), "cannot skip past the stream end");
        self.cursor = n;
    }
}

impl InteractionStream for ReplayStream {
    fn poll(&mut self, clock: u64) -> Vec<StreamEvent> {
        let start = self.cursor;
        while self.cursor < self.events.len() && self.events[self.cursor].time <= clock {
            self.cursor += 1;
        }
        self.events[start..self.cursor].to_vec()
    }

    fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_dataset::SyntheticConfig;

    fn data(seed: u64) -> ImplicitDataset {
        SyntheticConfig::tiny().generate(seed)
    }

    fn cfg() -> ReplayConfig {
        ReplayConfig {
            item_frac: 0.25,
            new_users: 3,
            start: 1,
            horizon: 10,
        }
    }

    #[test]
    fn replay_is_deterministic_in_the_seed() {
        let d = data(7);
        let (base_a, stream_a) = ReplayStream::replay(&d, &cfg(), 11);
        let (base_b, stream_b) = ReplayStream::replay(&d, &cfg(), 11);
        assert_eq!(stream_a.events(), stream_b.events());
        for u in 0..base_a.num_users() {
            assert_eq!(base_a.user(u).items(), base_b.user(u).items());
        }
        let (_, stream_c) = ReplayStream::replay(&d, &cfg(), 12);
        assert_ne!(stream_a.events(), stream_c.events());
    }

    #[test]
    fn holdout_conserves_interactions_and_keeps_users_nonempty() {
        let d = data(8);
        let (base, stream) = ReplayStream::replay(&d, &cfg(), 3);
        assert_eq!(base.num_users(), d.num_users() - 3);
        assert_eq!(
            base.num_interactions() + stream.events().len(),
            d.num_interactions()
        );
        for u in 0..base.num_users() {
            assert!(!base.user(u).items().is_empty(), "user {u} lost everything");
            // Every held-out (user, item) really came from the source
            // user and is absent from the base.
            for e in stream.events().iter().filter(|e| e.user == u) {
                assert!(d.user(u).contains(e.item));
                assert!(!base.user(u).contains(e.item));
            }
        }
    }

    #[test]
    fn population_heap_follows_what_is_held() {
        // The benchmark's population shape (MovieLens x 0.25 is 927
        // items). A list that keeps its builder's scratch room — the
        // generator's `num_items`-wide key buffer, a `drain`ed shuffle
        // buffer — shows here as heap far above its ids.
        let mut cfg = hf_dataset::DatasetProfile::MovieLens.config_scaled(0.25);
        cfg.num_users = 2_000;
        assert_eq!(cfg.num_items, 927);
        let data = cfg.generate(42);
        let replay = ReplayConfig {
            item_frac: 0.2,
            new_users: 8,
            ..ReplayConfig::default()
        };
        let (base, _) = ReplayStream::replay(&data, &replay, 42);
        let split = hf_dataset::SplitDataset::paper_split(&base, 42);

        // Per list: the `Vec` header plus four ids of allocator rounding.
        const LIST: usize = 24 + 16;
        let ids = std::mem::size_of::<ItemId>();
        let bound = |interactions: usize, lists: usize| interactions * ids + lists * LIST;
        let (train, valid, test) = split.totals();
        for (name, heap, bound) in [
            (
                "generate",
                data.heap_bytes(),
                bound(data.num_interactions(), data.num_users()),
            ),
            (
                "replay base",
                base.heap_bytes(),
                bound(base.num_interactions(), base.num_users()),
            ),
            (
                "paper_split",
                split.heap_bytes(),
                bound(train + valid + test, 3 * split.num_users()),
            ),
        ] {
            assert!(heap <= bound, "{name}: {heap} B reserved, {bound} B held");
        }
    }

    #[test]
    fn new_user_blocks_arrive_in_admission_order() {
        let d = data(9);
        let (base, stream) = ReplayStream::replay(&d, &cfg(), 5);
        let first_of = |u: usize| stream.events().iter().position(|e| e.user == u);
        let mut admitted = base.num_users();
        for (i, e) in stream.events().iter().enumerate() {
            if e.user >= admitted {
                // An unseen user must be exactly the next id.
                assert_eq!(e.user, admitted, "event {i} skips a user id");
                admitted += 1;
            }
        }
        assert_eq!(admitted, d.num_users(), "every new user must appear");
        for u in base.num_users()..d.num_users() - 1 {
            assert!(first_of(u) < first_of(u + 1));
        }
    }

    #[test]
    fn timestamps_cover_the_horizon_monotonically() {
        let d = data(10);
        let c = cfg();
        let (_, stream) = ReplayStream::replay(&d, &c, 5);
        let times: Vec<u64> = stream.events().iter().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(times.first(), Some(&c.start));
        assert!(*times.last().unwrap() < c.start + c.horizon);
    }

    #[test]
    fn poll_respects_the_clock_and_delivers_exactly_once() {
        let d = data(11);
        let (_, mut stream) = ReplayStream::replay(&d, &cfg(), 5);
        let total = stream.events().len();
        let early = stream.poll(0);
        assert!(early.is_empty(), "nothing is due before start");
        let mut seen = Vec::new();
        for clock in 0..20 {
            for e in stream.poll(clock) {
                assert!(e.time <= clock);
                seen.push(e);
            }
        }
        assert_eq!(seen.len(), total);
        assert_eq!(seen.as_slice(), stream.events());
        assert_eq!(stream.remaining(), 0);
        assert!(stream.poll(u64::MAX).is_empty());
    }

    #[test]
    fn skip_aligns_a_resumed_stream() {
        let d = data(12);
        let (_, mut a) = ReplayStream::replay(&d, &cfg(), 5);
        let (_, mut b) = ReplayStream::replay(&d, &cfg(), 5);
        let first = a.poll(4);
        b.skip(first.len());
        assert_eq!(a.delivered(), b.delivered());
        assert_eq!(a.poll(u64::MAX), b.poll(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "sorted by time")]
    fn unsorted_events_are_rejected() {
        ReplayStream::new(vec![
            StreamEvent {
                time: 2,
                user: 0,
                item: 0,
            },
            StreamEvent {
                time: 1,
                user: 0,
                item: 1,
            },
        ]);
    }
}
