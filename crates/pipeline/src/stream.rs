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
//!
//! # What a replay stores
//!
//! A replay holds the whole held-out future for as long as the pipeline
//! runs, so it keeps each event at its data size: a `(u32 user, item)`
//! pair, 8 bytes, in arrival order. Times are non-decreasing and a
//! horizon has few ticks, so they are kept run-length coded, one
//! `(time, first index)` entry (16 bytes) per distinct time: a 256-tick
//! horizon is 256 entries however many events it spreads. Delivered
//! [`StreamEvent`]s are rebuilt from the two on the way out
//! ([`ReplayStream::events`], [`InteractionStream::poll`]).
//! [`ReplayStream::replay`] writes the pairs straight into that one
//! array, so building a stream copies no event list either. The base
//! dataset it returns is built the way [`hf_dataset::types`] describes:
//! users fan out in chunks, each chunk's kept ids and held-out pairs go
//! into recycled scratch buffers, and the in-order sink appends them to
//! the base's id buffer and the event array, both allocated once at
//! their final length.

use hf_dataset::types::{offsets_of, population_workers, user_chunks, ItemId, UserId};
use hf_dataset::ImplicitDataset;
use hf_tensor::parallel::parallel_fill_ordered;
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
/// base dataset the session should be trained (and split) on. Every
/// event stays readable after delivery ([`ReplayStream::events`])
/// so a resumed pipeline can re-align ([`ReplayStream::skip`]) and a
/// drift evaluation can replay the same future against two artifacts.
///
/// Stored at its data size (module docs): one `(u32 user, item)` pair
/// per event and one `(time, first index)` entry per distinct time.
#[derive(Clone, Debug)]
pub struct ReplayStream {
    /// `(user, item)` per event, in arrival order.
    pairs: Vec<(u32, ItemId)>,
    /// `(time, index of its first event)` per distinct time, ascending
    /// in both.
    runs: Vec<(u64, usize)>,
    cursor: usize,
}

/// A user id as the stream stores it.
///
/// # Panics
/// Panics if `user` does not fit in 32 bits.
fn stored_user(user: UserId) -> u32 {
    u32::try_from(user)
        .unwrap_or_else(|_| panic!("user id {user} does not fit the stream's 32-bit user column"))
}

/// What one chunk of retained users leaves for the sink: the ids each
/// keeps in the base and the events it holds out, plus the per-user
/// scratch that chose them.
#[derive(Default)]
struct Holdout {
    kept: Vec<ItemId>,
    held: Vec<(u32, ItemId)>,
    order: Vec<u32>,
    held_at: Vec<bool>,
}

/// Events `index..` of a stream, rebuilt from its pairs and time runs.
struct Events<'a> {
    /// Pairs still to yield, the first at `index`.
    pairs: &'a [(u32, ItemId)],
    /// Runs starting after `index`'s.
    runs: &'a [(u64, usize)],
    /// Time of the run `index` is in.
    time: u64,
    index: usize,
}

impl Iterator for Events<'_> {
    type Item = StreamEvent;

    fn next(&mut self) -> Option<StreamEvent> {
        let (&(user, item), rest) = self.pairs.split_first()?;
        if let Some((&(time, first), later)) = self.runs.split_first() {
            if first == self.index {
                self.time = time;
                self.runs = later;
            }
        }
        self.pairs = rest;
        self.index += 1;
        Some(StreamEvent {
            time: self.time,
            user: user as UserId,
            item,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.pairs.len(), Some(self.pairs.len()))
    }
}

impl ExactSizeIterator for Events<'_> {}

impl ReplayStream {
    /// Wraps an explicit event list (must be sorted by `time` and obey
    /// the new-user ordering contract of the module docs).
    ///
    /// # Panics
    /// Panics if timestamps are not non-decreasing or a user id does not
    /// fit in 32 bits.
    pub fn new(events: Vec<StreamEvent>) -> Self {
        assert!(
            events.windows(2).all(|w| w[0].time <= w[1].time),
            "stream events must be sorted by time"
        );
        let mut runs: Vec<(u64, usize)> = Vec::new();
        for (i, e) in events.iter().enumerate() {
            if runs.last().is_none_or(|&(time, _)| time != e.time) {
                runs.push((e.time, i));
            }
        }
        runs.shrink_to_fit();
        Self {
            pairs: events
                .iter()
                .map(|e| (stored_user(e.user), e.item))
                .collect(),
            runs,
            cursor: 0,
        }
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
    /// Panics if `cfg.new_users >= dataset.num_users()`, `item_frac` is
    /// not in `[0, 1]`, `cfg.start + cfg.horizon` overflows the `u64`
    /// clock, or a user id does not fit in 32 bits.
    pub fn replay(
        dataset: &ImplicitDataset,
        cfg: &ReplayConfig,
        seed: u64,
    ) -> (ImplicitDataset, ReplayStream) {
        let workers = population_workers(dataset.num_interactions());
        Self::replay_on(dataset, cfg, seed, workers)
    }

    /// [`replay`](Self::replay) on exactly `workers` threads.
    fn replay_on(
        dataset: &ImplicitDataset,
        cfg: &ReplayConfig,
        seed: u64,
        workers: usize,
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
        assert!(
            cfg.start.checked_add(cfg.horizon).is_some(),
            "start {} + horizon {} overflows the u64 clock",
            cfg.start,
            cfg.horizon
        );
        stored_user(dataset.num_users() - 1);
        let base_users = dataset.num_users() - cfg.new_users;

        // Per-user item holdout for the retained users: the base's id
        // buffer and the one event array are sized for every kept and
        // every held-out interaction before any is written.
        let hold_of =
            |len: usize| ((len as f64 * cfg.item_frac) as usize).min(len.saturating_sub(1));
        let held: usize = (0..base_users)
            .map(|u| hold_of(dataset.user(u).len()))
            .sum();
        let withheld: usize = (base_users..dataset.num_users())
            .map(|u| dataset.user(u).len())
            .sum();
        let offsets = offsets_of((0..base_users).map(|u| {
            let len = dataset.user(u).len();
            len - hold_of(len)
        }));
        let mut base_ids = Vec::with_capacity(*offsets.last().expect("one offset") as usize);
        let mut pairs: Vec<(u32, ItemId)> = Vec::with_capacity(held + withheld);
        // The shuffle permutes positions (its draws depend only on the
        // length): the last `hold` shuffled positions are held out, in
        // shuffled order, and the base keeps the rest in the sorted order
        // the ids already have.
        parallel_fill_ordered(
            &user_chunks(base_users),
            workers,
            |users, chunk: &mut Holdout| {
                let Holdout {
                    kept,
                    held,
                    order,
                    held_at,
                } = chunk;
                kept.clear();
                held.clear();
                for u in users.clone() {
                    let items = dataset.user(u).items();
                    let hold = hold_of(items.len());
                    if hold == 0 {
                        kept.extend_from_slice(items);
                        continue;
                    }
                    order.clear();
                    order.extend(0..items.len() as u32);
                    let mut rng = stream(seed, SeedStream::Custom(u as u64));
                    shuffle(order, &mut rng);
                    held_at.clear();
                    held_at.resize(items.len(), false);
                    for &pos in &order[items.len() - hold..] {
                        held_at[pos as usize] = true;
                        held.push((u as u32, items[pos as usize]));
                    }
                    kept.extend(
                        items
                            .iter()
                            .zip(held_at.iter())
                            .filter(|&(_, &held)| !held)
                            .map(|(&it, _)| it),
                    );
                }
            },
            |_, chunk| {
                base_ids.extend_from_slice(&chunk.kept);
                pairs.extend_from_slice(&chunk.held);
            },
        );
        let base = ImplicitDataset::from_sections(dataset.num_items(), base_ids, offsets);

        // One global arrival order for the existing-user events; the
        // stream id is offset past any plausible user id so the order
        // draw never collides with a per-user holdout stream. The draws
        // depend only on the length, not on the element type.
        let mut rng = stream(seed, SeedStream::Custom((1u64 << 40) | 1));
        shuffle(&mut pairs, &mut rng);

        // Insert each new user's block at an evenly-spaced position, in
        // increasing user order (the admission contract): block `k` goes
        // before existing event `(k + 1) * held / (new_users + 1)`.
        // Filled back to front in place, so no event moves twice.
        pairs.resize(held + withheld, (0, 0));
        let slots = cfg.new_users + 1;
        let (mut read, mut write) = (held, pairs.len());
        for k in (0..cfg.new_users).rev() {
            let at = ((k + 1) * held) / slots;
            pairs.copy_within(at..read, write - (read - at));
            write -= read - at;
            read = at;
            let u = base_users + k;
            let block = dataset.user(u).items();
            write -= block.len();
            for (slot, &it) in pairs[write..].iter_mut().zip(block) {
                *slot = (u as u32, it);
            }
        }
        debug_assert_eq!(read, write);

        // Spread timestamps over the horizon, non-decreasing: event `i`
        // arrives at `start + i * horizon / total`. Each run of equal
        // times is found from its first index alone — the next run starts
        // at the first `i` whose time is one tick later — so the work is
        // one step per distinct time, in 128 bits, which no horizon
        // overflows.
        let (n, h) = (pairs.len() as u128, u128::from(cfg.horizon));
        let mut runs = Vec::with_capacity(if n == 0 { 0 } else { n.min(h).max(1) as usize });
        let mut i = 0u128;
        while i < n {
            let q = i * h / n;
            runs.push((cfg.start + q as u64, i as usize));
            i = if h == 0 { n } else { ((q + 1) * n).div_ceil(h) };
        }
        (
            base,
            ReplayStream {
                pairs,
                runs,
                cursor: 0,
            },
        )
    }

    /// Every event, delivered or not, in arrival order: an exact-size
    /// iterator that rebuilds each [`StreamEvent`] from the stored pair
    /// and its time run (no event list is materialised).
    pub fn events(&self) -> impl ExactSizeIterator<Item = StreamEvent> + '_ {
        self.events_from(0, self.pairs.len())
    }

    /// Events `start..end`.
    fn events_from(&self, start: usize, end: usize) -> Events<'_> {
        // The run holding `start`: the last one starting at or before it.
        let run = self.runs.partition_point(|&(_, first)| first <= start);
        Events {
            pairs: &self.pairs[start..end],
            runs: &self.runs[run..],
            time: run.checked_sub(1).map_or(0, |r| self.runs[r].0),
            index: start,
        }
    }

    /// Number of events already delivered by [`InteractionStream::poll`].
    pub fn delivered(&self) -> usize {
        self.cursor
    }

    /// Heap bytes the stream holds: 8 per event and 16 per distinct
    /// time, at capacity.
    pub fn heap_bytes(&self) -> usize {
        self.pairs.capacity() * std::mem::size_of::<(u32, ItemId)>()
            + self.runs.capacity() * std::mem::size_of::<(u64, usize)>()
    }

    /// Marks the first `n` events as already delivered — how a resumed
    /// pipeline re-aligns the stream with a checkpointed session's
    /// [`ingested_events`](hetefedrec_core::Session::ingested_events)
    /// count.
    ///
    /// # Panics
    /// Panics if `n` exceeds the event count.
    pub fn skip(&mut self, n: usize) {
        assert!(n <= self.pairs.len(), "cannot skip past the stream end");
        self.cursor = n;
    }
}

impl InteractionStream for ReplayStream {
    fn poll(&mut self, clock: u64) -> Vec<StreamEvent> {
        // Due events end where the first run past `clock` begins.
        let end = match self.runs.partition_point(|&(time, _)| time <= clock) {
            r if r == self.runs.len() => self.pairs.len(),
            r => self.runs[r].1,
        }
        .max(self.cursor);
        let due = self.events_from(self.cursor, end).collect();
        self.cursor = end;
        due
    }

    fn remaining(&self) -> usize {
        self.pairs.len() - self.cursor
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
        assert!(stream_a.events().eq(stream_b.events()));
        for u in 0..base_a.num_users() {
            assert_eq!(base_a.user(u).items(), base_b.user(u).items());
        }
        let (_, stream_c) = ReplayStream::replay(&d, &cfg(), 12);
        assert!(!stream_a.events().eq(stream_c.events()));
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
            for e in stream.events().filter(|e| e.user == u) {
                assert!(d.user(u).contains(e.item));
                assert!(!base.user(u).contains(e.item));
            }
        }
    }

    #[test]
    fn replay_is_independent_of_the_worker_count() {
        // Past the fan-out threshold in ids, so `replay` itself fans out
        // wherever there are cores to fan out over.
        let mut ml = hf_dataset::DatasetProfile::MovieLens.config_scaled(0.25);
        ml.num_users = 3_000;
        let data = ml.generate(42);
        assert!(data.num_interactions() >= hf_dataset::types::PARALLEL_MIN_WORK);
        let replay = ReplayConfig {
            item_frac: 0.2,
            new_users: 8,
            start: 1,
            horizon: 256,
        };
        let replay_on = |workers| ReplayStream::replay_on(&data, &replay, 42, workers);
        let (base, stream) = replay_on(1);
        let others = [
            replay_on(2),
            replay_on(8),
            ReplayStream::replay(&data, &replay, 42),
        ];
        for (run, (b, s)) in ["2 workers", "8 workers", "replay"].iter().zip(others) {
            assert!(s.events().eq(stream.events()), "{run}");
            assert_eq!(b.num_users(), base.num_users());
            for u in 0..base.num_users() {
                assert_eq!(b.user(u), base.user(u), "{run}, user {u}");
            }
        }
    }

    #[test]
    fn population_heap_follows_what_is_held() {
        // The benchmark's population shape (MovieLens x 0.25 is 927
        // items). Each dataset is one id buffer plus `u32` offsets, so its
        // heap is 4 B an id and 4 B an offset: a `Vec` a user would add
        // its header, and a list that keeps its builder's scratch room —
        // the generator's `num_items`-wide key buffer, a `drain`ed shuffle
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
        let (base, stream) = ReplayStream::replay(&data, &replay, 42);
        let split = hf_dataset::SplitDataset::paper_split(&base, 42);

        // Ids and offsets are both 4 bytes: a dataset has one offset a
        // user and a final end, a split three cut points a user and a
        // final end.
        let word = std::mem::size_of::<ItemId>();
        let bound = |ids: usize, offsets: usize| (ids + offsets) * word;
        let (train, valid, test) = split.totals();
        let mut per_user = Vec::new();
        for (name, heap, bound, users) in [
            (
                "generate",
                data.heap_bytes(),
                bound(data.num_interactions(), data.num_users() + 1),
                data.num_users(),
            ),
            (
                "replay base",
                base.heap_bytes(),
                bound(base.num_interactions(), base.num_users() + 1),
                base.num_users(),
            ),
            (
                "paper_split",
                split.heap_bytes(),
                bound(train + valid + test, 3 * split.num_users() + 1),
                split.num_users(),
            ),
        ] {
            assert!(heap <= bound, "{name}: {heap} B reserved, {bound} B held");
            per_user.push(format!("{name} {:.1}", heap as f64 / users as f64));
        }

        // The stream: one `(u32 user, item)` pair per event and one
        // `(time, first index)` entry per distinct time — no 24-byte
        // event records.
        let mut times: Vec<u64> = stream.events().map(|e| e.time).collect();
        times.dedup();
        let held = stream.events().len() * 8 + times.len() * 16;
        assert!(
            stream.heap_bytes() <= held,
            "replay stream: {} B reserved, {held} B held",
            stream.heap_bytes()
        );

        // The clients: each one list, the embedding alone until its first
        // Adam step, beside the step count, the optimiser's four
        // hyper-parameters and the standalone pointer.
        use hetefedrec_core::{Ablation, SessionBuilder, SessionEvent, Strategy, TrainConfig};
        let mut cfg = TrainConfig::paper_defaults(
            hf_models::ModelKind::Ncf,
            hf_dataset::DatasetProfile::MovieLens,
        );
        cfg.clients_per_round = 16;
        let mut session = SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), split)
            .eval_every(0)
            .build()
            .expect("valid training configuration");
        // Its one list: the `Vec` header plus four floats of allocator
        // rounding.
        const CLIENT: usize = 24 + 16 + 8 + 16 + 8;
        let users = session.users();
        let held: usize = users.iter().map(|u| 4 * u.dim() + CLIENT).sum();
        let client_bytes = |users: &[hetefedrec_core::client::UserState]| -> usize {
            users
                .iter()
                .map(|u| std::mem::size_of_val(u) + u.heap_bytes())
                .sum()
        };
        let fresh = client_bytes(users);
        assert!(
            fresh <= held,
            "{} client states: {fresh} B, {held} B held",
            users.len()
        );

        // One round: exactly its cohort has stepped, and holds `emb | m | v`.
        let before: Vec<Vec<f32>> = users.iter().map(|u| u.emb().to_vec()).collect();
        let Some(SessionEvent::Round(round)) = session.step() else {
            panic!("the first step is a round");
        };
        let users = session.users();
        let mut trained = 0;
        for (u, (state, emb)) in users.iter().zip(&before).enumerate() {
            let stepped = state.emb() != &emb[..];
            let floats = if stepped {
                3 * state.dim()
            } else {
                state.dim()
            };
            assert_eq!(
                state.heap_bytes(),
                4 * floats,
                "user {u}, stepped: {stepped}"
            );
            trained += usize::from(stepped);
        }
        assert_eq!(
            trained, round.cohort,
            "one list of moments per client trained"
        );
        let after = client_bytes(users);

        // Printed only once every bound above held.
        println!("population bytes per user: {}", per_user.join(", "));
        let per = |bytes: usize| bytes as f64 / users.len() as f64;
        println!(
            "client bytes per user: fresh {:.1}, after a {trained}-client round {:.1}",
            per(fresh),
            per(after)
        );
    }

    #[test]
    fn ingest_keeps_the_split_within_half_again_its_live_ids() {
        // The swap workload's stream at 2 000 users, replayed to its
        // horizon: every user's train set outgrows its section, and the
        // sections left behind are squeezed out once they pass half the
        // buffer. A grown list holds at least the section it replaced, so
        // the dead ids stay under half the live ones. Beside the ids: the
        // cut points with at most an eighth spare, and per user a 4-byte
        // slot and one grown list's header, the list of lists room for
        // twice what it holds.
        let mut ml = hf_dataset::DatasetProfile::MovieLens.config_scaled(0.25);
        ml.num_users = 2_000;
        let replay = ReplayConfig {
            item_frac: 0.2,
            new_users: 8,
            start: 1,
            horizon: 256,
        };
        let (base, mut stream) = ReplayStream::replay(&ml.generate(42), &replay, 42);
        let mut split = hf_dataset::SplitDataset::paper_split(&base, 42);
        for e in stream.poll(u64::MAX) {
            split.ingest(e.user, e.item);
        }
        let (train, valid, test) = split.totals();
        let live = train + valid + test;
        let users = split.num_users();
        let word = std::mem::size_of::<ItemId>();
        let per_user = word + 2 * std::mem::size_of::<Vec<ItemId>>();
        let cuts = 3 * users + 1;
        let bound = (3 * live / 2 + cuts + cuts / 8) * word + per_user * users;
        assert!(
            split.heap_bytes() <= bound,
            "{} B reserved for {live} live ids and {users} users, {bound} B allowed",
            split.heap_bytes()
        );
    }

    #[test]
    fn a_long_horizon_does_not_overflow_the_clock() {
        // `i * horizon` passes u64::MAX from the third event on; the
        // times must still spread over the horizon in order.
        let d = data(13);
        let c = ReplayConfig {
            horizon: u64::MAX / 2,
            ..cfg()
        };
        let (_, stream) = ReplayStream::replay(&d, &c, 5);
        let times: Vec<u64> = stream.events().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(times.first(), Some(&c.start));
        let total = times.len() as u128;
        let last = c.start + ((total - 1) * u128::from(c.horizon) / total) as u64;
        assert_eq!(times.last(), Some(&last));
    }

    #[test]
    fn a_zero_horizon_delivers_everything_at_start() {
        let c = ReplayConfig {
            horizon: 0,
            ..cfg()
        };
        let (_, mut stream) = ReplayStream::replay(&data(15), &c, 5);
        assert!(stream.events().all(|e| e.time == c.start));
        assert_eq!(stream.poll(c.start).len(), stream.events().len());
    }

    #[test]
    #[should_panic(expected = "overflows the u64 clock")]
    fn a_horizon_past_the_clock_is_refused() {
        let c = ReplayConfig {
            start: 2,
            horizon: u64::MAX - 1,
            ..cfg()
        };
        ReplayStream::replay(&data(14), &c, 5);
    }

    #[test]
    #[should_panic(expected = "32-bit user column")]
    fn a_user_id_past_u32_is_refused() {
        ReplayStream::new(vec![StreamEvent {
            time: 0,
            user: u32::MAX as usize + 1,
            item: 0,
        }]);
    }

    #[test]
    fn events_rebuild_what_new_was_given() {
        // Runs of equal times, a gap, and ids at the edge of the columns.
        let given: Vec<StreamEvent> = [(1, 0, 3), (1, 4, 1), (4, 2, 0), (9, u32::MAX, 7)]
            .into_iter()
            .map(|(time, user, item)| StreamEvent {
                time,
                user: user as usize,
                item,
            })
            .collect();
        let mut stream = ReplayStream::new(given.clone());
        assert_eq!(stream.events().len(), 4);
        assert_eq!(stream.events().collect::<Vec<_>>(), given);
        assert_eq!(stream.poll(0), []);
        assert_eq!(stream.poll(3), given[..2]);
        assert_eq!(stream.poll(8), given[2..3]);
        assert_eq!(stream.poll(9), given[3..]);
        stream.skip(1);
        assert_eq!(stream.poll(1), given[1..2]);
    }

    #[test]
    fn new_user_blocks_arrive_in_admission_order() {
        let d = data(9);
        let (base, stream) = ReplayStream::replay(&d, &cfg(), 5);
        let first_of = |u: usize| stream.events().position(|e| e.user == u);
        let mut admitted = base.num_users();
        for (i, e) in stream.events().enumerate() {
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
        let times: Vec<u64> = stream.events().map(|e| e.time).collect();
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
        assert_eq!(seen, stream.events().collect::<Vec<_>>());
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
