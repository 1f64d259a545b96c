//! Train / validation / test splitting.
//!
//! Paper §V-A: "for each dataset, 80% of data and 20% of data are used as
//! training and test set. When a client is selected for training, 10% of
//! its training data will be used as the validation set to guide the local
//! training." Splits are per-user (the client owns all of its data) and
//! deterministic given the seed.
//!
//! # Layout
//!
//! Like an [`ImplicitDataset`] (see [`crate::types`]), a [`SplitDataset`]
//! is one id buffer: each user's ids are a train | valid | test run of
//! three sorted sections, users end to end, with three `u32` cut points a
//! user (where its sections start) and one final end. It costs 4 bytes an
//! id and 12 a user, and [`SplitDataset::user`] lends a [`UserSplit`] of
//! three borrowed slices. [`SplitDataset::split`] sizes every section
//! from the dataset's lengths, then fills the buffer chunk by chunk in
//! user order, so it is allocated once at its final length.
//!
//! A streamed interaction ([`SplitDataset::ingest`]) does not shift the
//! buffer: on a user's first insert its train section is copied into an
//! owned list, which serves as its train set from then on, so an insert
//! costs that user's list, never the population's (the first ingest also
//! allocates a 4-byte slot a user naming who owns a list). A user
//! admitted by ingest gets empty sections at the buffer's end and an
//! owned train list holding its first item. The sections grown users
//! leave behind are dead ids; once they pass half the buffer, every run
//! moves left over them in place and the buffer is cut to what is left
//! (a grown user keeps an empty train section). Nothing is allocated,
//! the split never holds more than one and a half times its live ids,
//! and the squeeze's cost is paid by the copies that killed those
//! sections.

use crate::types::{population_workers, user_chunks, ImplicitDataset, ItemId, UserId};
use hf_tensor::parallel::parallel_fill_ordered;
use hf_tensor::rng::{substream, SeedStream};

/// A user's split interaction data, borrowed from its [`SplitDataset`].
#[derive(Clone, Copy, Debug, Default)]
pub struct UserSplit<'a> {
    /// Training positives (sorted).
    pub train: &'a [ItemId],
    /// Validation positives carved out of train (sorted).
    pub valid: &'a [ItemId],
    /// Held-out test positives (sorted).
    pub test: &'a [ItemId],
}

impl UserSplit<'_> {
    /// `true` iff `item` is a train or validation positive (the set a
    /// client may not sample as a negative).
    pub fn is_local_positive(&self, item: ItemId) -> bool {
        self.train.binary_search(&item).is_ok() || self.valid.binary_search(&item).is_ok()
    }
}

/// Which section a position of a user's ids goes to; the discriminant is
/// the section's place in the user's train | valid | test run.
#[derive(Clone, Copy)]
enum Role {
    Train,
    Valid,
    Test,
}

/// What one chunk of users leaves for the sink: their train | valid |
/// test runs end to end, and the per-user scratch that sorted them.
#[derive(Default)]
struct Chunk {
    ids: Vec<ItemId>,
    order: Vec<u32>,
    role: Vec<Role>,
}

/// Dataset with per-user train/valid/test splits (module docs).
#[derive(Clone, Debug)]
pub struct SplitDataset {
    num_items: usize,
    /// Every user's train | valid | test sections, end to end.
    ids: Vec<ItemId>,
    /// `cuts[3u]`, `cuts[3u + 1]`, `cuts[3u + 2]`: where user `u`'s train,
    /// valid and test sections start; the next entry ends its test
    /// section. `3 · num_users + 1` entries.
    cuts: Vec<u32>,
    /// `slot[u]`: where in `grown` user `u`'s train set lives once it has
    /// outgrown its section, or [`NOT_GROWN`]. Empty until the first
    /// ingest, then one entry a user.
    slot: Vec<u32>,
    /// Train sets that outgrew their section (module docs).
    grown: Vec<Vec<ItemId>>,
    /// Ids of the sections `grown` replaced and that are still in `ids`,
    /// read by no one.
    dead: usize,
}

/// A `slot` entry of a user whose train set is still its section.
const NOT_GROWN: u32 = u32::MAX;

/// `v.resize(len, value)`, except that a `v` too small for `len` grows
/// by an eighth of its length (or to `len`, if further) rather than
/// doubling: admitting users one at a time stays amortised `O(1)`, and a
/// population's per-user tables keep at most an eighth spare.
fn resize_by_eighths<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    if len > v.capacity() {
        v.reserve_exact((len - v.len()).max(v.len() / 8));
    }
    v.resize(len, value);
}

impl SplitDataset {
    /// Splits `dataset` with the paper's ratios: `test_frac` of each user's
    /// interactions held out for testing (paper: 0.2) and `valid_frac` of
    /// the remaining training data reserved for validation (paper: 0.1).
    ///
    /// Users with a single interaction keep it in train (an empty local
    /// training set would make the client untrainable); at least one train
    /// item is always retained.
    pub fn split(dataset: &ImplicitDataset, test_frac: f64, valid_frac: f64, seed: u64) -> Self {
        let workers = population_workers(dataset.num_interactions());
        Self::split_on(dataset, test_frac, valid_frac, seed, workers)
    }

    /// [`split`](Self::split) on exactly `workers` threads.
    pub(crate) fn split_on(
        dataset: &ImplicitDataset,
        test_frac: f64,
        valid_frac: f64,
        seed: u64,
        workers: usize,
    ) -> Self {
        assert!((0.0..1.0).contains(&test_frac), "test_frac in [0,1)");
        assert!((0.0..1.0).contains(&valid_frac), "valid_frac in [0,1)");
        // `(n_valid, n_test)` of an `n`-id user.
        let sizes = |n: usize| {
            let n_test = ((n as f64) * test_frac).floor() as usize;
            let n_test = n_test.min(n.saturating_sub(1));
            let rest = n - n_test;
            let n_valid = ((rest as f64) * valid_frac).floor() as usize;
            (n_valid.min(rest.saturating_sub(1)), n_test)
        };
        // A user's sections start where its dataset section does.
        let mut cuts = Vec::with_capacity(3 * dataset.num_users() + 1);
        let mut end = 0;
        for (_, ints) in dataset.iter_users() {
            let (n_valid, n_test) = sizes(ints.len());
            let start = end;
            end += ints.len() as u32;
            cuts.extend([start, end - (n_valid + n_test) as u32, end - n_test as u32]);
        }
        cuts.push(end);

        // A user's sections come out of its sorted ids in their own order:
        // the shuffle permutes positions (its draws depend only on the
        // length), the first `n_test` shuffled positions are held out for
        // testing and the next `n_valid` for validation, and one pass over
        // the ids writes each into its section.
        let mut ids = Vec::with_capacity(dataset.num_interactions());
        parallel_fill_ordered(
            &user_chunks(dataset.num_users()),
            workers,
            |users, chunk: &mut Chunk| {
                let Chunk { ids, order, role } = chunk;
                ids.clear();
                for u in users.clone() {
                    let items = dataset.user(u).items();
                    let n = items.len();
                    order.clear();
                    order.extend(0..n as u32);
                    let mut rng = substream(seed, SeedStream::Split, u as u64);
                    hf_tensor::rng::shuffle(order, &mut rng);
                    let (n_valid, n_test) = sizes(n);

                    role.clear();
                    role.resize(n, Role::Train);
                    for &pos in &order[..n_test] {
                        role[pos as usize] = Role::Test;
                    }
                    for &pos in &order[n_test..n_test + n_valid] {
                        role[pos as usize] = Role::Valid;
                    }
                    let start = ids.len();
                    ids.resize(start + n, 0);
                    let mut at = [start, start + n - n_valid - n_test, start + n - n_test];
                    for (&item, &r) in items.iter().zip(role.iter()) {
                        let at = &mut at[r as usize];
                        ids[*at] = item;
                        *at += 1;
                    }
                }
            },
            |_, chunk| ids.extend_from_slice(&chunk.ids),
        );
        Self {
            num_items: dataset.num_items(),
            ids,
            cuts,
            slot: Vec::new(),
            grown: Vec::new(),
            dead: 0,
        }
    }

    /// Paper-default split: 80/20 train/test, 10% of train as validation.
    pub fn paper_split(dataset: &ImplicitDataset, seed: u64) -> Self {
        Self::split(dataset, 0.2, 0.1, seed)
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.cuts.len() / 3
    }

    /// Item-universe size.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// A user's split.
    pub fn user(&self, u: UserId) -> UserSplit<'_> {
        let cuts = &self.cuts[3 * u..3 * u + 4];
        let section = |k: usize| &self.ids[cuts[k] as usize..cuts[k + 1] as usize];
        let train = match self.grown_slot(u) {
            Some(g) => &self.grown[g],
            None => section(0),
        };
        UserSplit {
            train,
            valid: section(1),
            test: section(2),
        }
    }

    /// Where in `grown` user `u`'s train set lives, once it has outgrown
    /// its section.
    fn grown_slot(&self, u: UserId) -> Option<usize> {
        self.slot
            .get(u)
            .filter(|&&g| g != NOT_GROWN)
            .map(|&g| g as usize)
    }

    /// Iterator over `(user id, split)`.
    pub fn iter_users(&self) -> impl Iterator<Item = (UserId, UserSplit<'_>)> {
        (0..self.num_users()).map(|u| (u, self.user(u)))
    }

    /// Per-user training-set sizes — the quantity client division is based
    /// on (paper groups clients by interaction amounts).
    pub fn train_counts(&self) -> Vec<usize> {
        self.iter_users().map(|(_, u)| u.train.len()).collect()
    }

    /// Ingests one streamed interaction as a training positive.
    ///
    /// `user == num_users()` admits a brand-new user whose split starts as
    /// `train = [item]` with empty validation and test sets (so evaluation
    /// skips it until held-out data exists). For existing users the item
    /// is inserted into the sorted training set; duplicates are ignored.
    /// Returns `true` iff the dataset changed. The id buffer does not
    /// move until dead sections pass half of it (module docs): the cost
    /// is `O(that user's train set)`, amortised.
    ///
    /// # Panics
    /// Panics when `item` is outside the item universe or `user` would
    /// leave a gap in the contiguous user-id space.
    pub fn ingest(&mut self, user: UserId, item: ItemId) -> bool {
        assert!(
            (item as usize) < self.num_items,
            "item {item} outside the {}-item universe",
            self.num_items
        );
        let users = self.num_users();
        assert!(
            user <= users,
            "user {user} would leave a gap (population is {users})"
        );
        if user == users {
            // Empty sections at the buffer's end.
            let end = self.ids.len() as u32;
            let len = self.cuts.len() + 3;
            resize_by_eighths(&mut self.cuts, len, end);
        }
        let pos = match self.user(user).train.binary_search(&item) {
            Ok(_) => return false,
            Err(pos) => pos,
        };
        let len = self.num_users();
        resize_by_eighths(&mut self.slot, len, NOT_GROWN);
        let slot = &mut self.slot[user];
        if *slot == NOT_GROWN {
            *slot = self.grown.len() as u32;
            let section = self.cuts[3 * user] as usize..self.cuts[3 * user + 1] as usize;
            self.dead += section.len();
            self.grown.push(self.ids[section].to_vec());
        }
        // Grown one id at a time, like the section it replaced: a doubling
        // would leave most of the population's train sets half empty.
        let train = &mut self.grown[*slot as usize];
        train.reserve_exact(1);
        train.insert(pos, item);
        if 2 * self.dead > self.ids.len() {
            self.squeeze_dead();
        }
        true
    }

    /// Squeezes the dead sections out of `ids`, in place: every run moves
    /// left over the dead ids before it (a grown user keeps an empty
    /// train section), and the buffer is cut to what is left. Nothing is
    /// allocated, and the cut tail is free for the lists that grow next.
    fn squeeze_dead(&mut self) {
        let users = self.num_users();
        let mut at = 0;
        for u in 0..users {
            // `u + 1`'s start is still its old one: cut points are
            // rewritten a user at a time, in order.
            let [train, valid, test, end] = [0, 1, 2, 3].map(|k| self.cuts[3 * u + k] as usize);
            let from = match self.grown_slot(u) {
                Some(_) => valid,
                None => train,
            };
            self.ids.copy_within(from..end, at);
            let valid_at = at + valid - from;
            self.cuts[3 * u..3 * u + 3].copy_from_slice(&[
                at as u32,
                valid_at as u32,
                (valid_at + test - valid) as u32,
            ]);
            at += end - from;
        }
        self.cuts[3 * users] = at as u32;
        self.ids.truncate(at);
        self.ids.shrink_to_fit();
        self.dead = 0;
    }

    /// Heap bytes the split reserves, at capacity: `4 B` an id and
    /// `4 B × (3 · num_users() + 1)` cut points when nothing is wasted or
    /// ingested; ingest adds a 4-byte slot a user and each grown train set
    /// with its list header.
    pub fn heap_bytes(&self) -> usize {
        let words = self.ids.capacity()
            + self.cuts.capacity()
            + self.slot.capacity()
            + self.grown.iter().map(Vec::capacity).sum::<usize>();
        words * std::mem::size_of::<u32>()
            + self.grown.capacity() * std::mem::size_of::<Vec<ItemId>>()
    }

    /// Total train/valid/test sizes.
    pub fn totals(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for (_, u) in self.iter_users() {
            t.0 += u.train.len();
            t.1 += u.valid.len();
            t.2 += u.test.len();
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticConfig;

    fn dataset() -> ImplicitDataset {
        SyntheticConfig::tiny().generate(11)
    }

    #[test]
    fn admissions_leave_at_most_an_eighth_spare() {
        let d = dataset();
        let mut s = SplitDataset::paper_split(&d, 5);
        let spare = |v: &Vec<u32>| v.capacity() - v.len();
        for i in 0..d.num_users() {
            let (user, item) = (s.num_users(), (i % s.num_items()) as ItemId);
            assert!(s.ingest(user, item));
            assert!(
                spare(&s.cuts) <= s.cuts.len() / 8,
                "admission {i}: {} cut points, room for {}",
                s.cuts.len(),
                s.cuts.capacity()
            );
            assert!(
                spare(&s.slot) <= s.slot.len() / 8,
                "admission {i}: {} slots, room for {}",
                s.slot.len(),
                s.slot.capacity()
            );
        }
    }

    #[test]
    fn split_partitions_each_user() {
        let d = dataset();
        let s = SplitDataset::paper_split(&d, 5);
        for (u, split) in s.iter_users() {
            let mut all: Vec<ItemId> = split
                .train
                .iter()
                .chain(split.valid)
                .chain(split.test)
                .copied()
                .collect();
            all.sort_unstable();
            assert_eq!(all, d.user(u).items(), "user {u} not partitioned");
        }
    }

    #[test]
    fn ratios_are_respected_in_aggregate() {
        let d = dataset();
        let s = SplitDataset::paper_split(&d, 5);
        let (train, valid, test) = s.totals();
        let total = (train + valid + test) as f64;
        let test_frac = test as f64 / total;
        let valid_frac = valid as f64 / (train + valid) as f64;
        assert!((test_frac - 0.2).abs() < 0.05, "test fraction {test_frac}");
        assert!(
            (valid_frac - 0.1).abs() < 0.05,
            "valid fraction {valid_frac}"
        );
    }

    #[test]
    fn every_user_keeps_a_train_item() {
        let d = ImplicitDataset::new(10, vec![vec![0], vec![1, 2], vec![3, 4, 5]]);
        let s = SplitDataset::split(&d, 0.5, 0.5, 1);
        for (u, split) in s.iter_users() {
            assert!(!split.train.is_empty(), "user {u} lost all train items");
        }
    }

    #[test]
    fn split_is_deterministic() {
        let d = dataset();
        let a = SplitDataset::paper_split(&d, 9);
        let b = SplitDataset::paper_split(&d, 9);
        for u in 0..d.num_users() {
            assert_eq!(a.user(u).train, b.user(u).train);
            assert_eq!(a.user(u).test, b.user(u).test);
        }
    }

    #[test]
    fn different_seeds_split_differently() {
        let d = dataset();
        let a = SplitDataset::paper_split(&d, 1);
        let b = SplitDataset::paper_split(&d, 2);
        let same = (0..d.num_users()).all(|u| a.user(u).test == b.user(u).test);
        assert!(!same);
    }

    #[test]
    fn local_positive_covers_train_and_valid_only() {
        let d = dataset();
        let s = SplitDataset::paper_split(&d, 5);
        let (u, split) = s.iter_users().find(|(_, s)| !s.test.is_empty()).unwrap();
        let _ = u;
        assert!(split.is_local_positive(split.train[0]));
        if let Some(&v) = split.valid.first() {
            assert!(split.is_local_positive(v));
        }
        assert!(!split.is_local_positive(split.test[0]));
    }

    #[test]
    fn ingest_appends_sorted_and_admits_new_users() {
        let d = ImplicitDataset::new(10, vec![vec![1, 5], vec![2, 7, 9]]);
        let mut s = SplitDataset::split(&d, 0.0, 0.0, 1);
        let before = s.user(0).train.to_vec();
        assert!(s.ingest(0, 3));
        assert!(!s.ingest(0, 3), "duplicate ingests are no-ops");
        assert!(s.ingest(0, 0));
        let after = s.user(0).train;
        assert!(after.windows(2).all(|w| w[0] < w[1]), "train stays sorted");
        assert_eq!(after, [0, 1, 3, 5]);
        assert_eq!(after.len(), before.len() + 2);
        assert_eq!(s.user(1).train, [2, 7, 9], "other users are untouched");

        assert!(s.ingest(2, 4), "user == num_users admits");
        assert_eq!(s.num_users(), 3);
        assert_eq!(s.user(2).train, vec![4]);
        assert!(s.user(2).valid.is_empty() && s.user(2).test.is_empty());
        assert!(s.ingest(2, 1) && s.ingest(3, 8));
        assert_eq!(s.user(2).train, [1, 4]);
        assert_eq!(s.user(3).train, [8]);
        assert_eq!(s.totals(), (4 + 3 + 2 + 1, 0, 0));
    }

    #[test]
    fn ingest_grows_a_train_set_by_its_ids_and_leaves_the_buffer() {
        let d = ImplicitDataset::new(10, vec![vec![1, 5, 8], vec![2, 7, 9]]);
        let mut s = SplitDataset::split(&d, 0.0, 0.0, 1);
        assert_eq!(s.heap_bytes(), (6 + 7) * 4, "6 ids and 7 cut points");
        let buffer = s.ids.as_ptr();
        for item in [0, 3, 4] {
            assert!(s.ingest(0, item));
        }
        assert_eq!(s.user(0).train, [0, 1, 3, 4, 5, 8]);
        assert_eq!(s.grown[0].capacity(), 6, "one id an insert, no doubling");
        assert_eq!(
            (s.ids.as_ptr(), s.ids.len()),
            (buffer, 6),
            "the buffer never moves"
        );
    }

    #[test]
    fn squeezing_dead_sections_out_changes_no_section() {
        let d = dataset();
        let mut s = SplitDataset::paper_split(&d, 5);
        let mut want: Vec<[Vec<ItemId>; 3]> = s
            .iter_users()
            .map(|(_, u)| [u.train.to_vec(), u.valid.to_vec(), u.test.to_vec()])
            .collect();
        let mut squeezes = 0;
        for i in 0..2 * d.num_interactions() {
            // Every 97th event admits a user; the rest land on a spread
            // of existing users.
            let users = s.num_users();
            let user = if i % 97 == 96 {
                users
            } else {
                i * 7919 % users
            };
            let item = ((i * 31 + user * 17) % s.num_items()) as ItemId;
            if user == users {
                want.push(Default::default());
            }
            let train = &mut want[user][0];
            let changed = match train.binary_search(&item) {
                Ok(_) => false,
                Err(pos) => {
                    train.insert(pos, item);
                    true
                }
            };
            let len = s.ids.len();
            assert_eq!(s.ingest(user, item), changed, "event {i}");
            if s.ids.len() < len {
                squeezes += 1;
                let (train, valid, test) = s.totals();
                let listed: usize = s.grown.iter().map(Vec::len).sum();
                assert_eq!(s.ids.len() + listed, train + valid + test, "a dead id left");
                assert_eq!(s.ids.capacity(), s.ids.len(), "spare room left");
            }
            assert!(2 * s.dead <= s.ids.len(), "event {i}: {} dead", s.dead);
            for (u, [train, valid, test]) in want.iter().enumerate() {
                let got = s.user(u);
                let got = (got.train, got.valid, got.test);
                assert_eq!(
                    got,
                    (&train[..], &valid[..], &test[..]),
                    "event {i}, user {u}"
                );
            }
        }
        assert!(squeezes >= 1, "no squeeze");
    }

    #[test]
    #[should_panic(expected = "gap")]
    fn ingest_rejects_non_contiguous_users() {
        let d = ImplicitDataset::new(10, vec![vec![1]]);
        let mut s = SplitDataset::split(&d, 0.0, 0.0, 1);
        let _ = s.ingest(5, 2);
    }

    /// FNV-1a 64 over every user's train, valid and test lists, each
    /// length-prefixed.
    fn split_digest(s: &SplitDataset) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut put = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for (_, u) in s.iter_users() {
            for list in [&u.train, &u.valid, &u.test] {
                put(&(list.len() as u64).to_le_bytes());
                for item in list.iter() {
                    put(&item.to_le_bytes());
                }
            }
        }
        h
    }

    #[test]
    fn split_is_pinned() {
        // MovieLens x 0.25 at 2 000 users, the paper split. The digests
        // were taken from the split that shuffled each user's ids and
        // sorted the three lists again; marking held-out positions must
        // give the same lists.
        let mut ml = crate::DatasetProfile::MovieLens.config_scaled(0.25);
        ml.num_users = 2_000;
        for (seed, want) in [(42, 0x53a6_b4c3_3200_662c), (7, 0x6586_0529_362c_af24)] {
            let s = SplitDataset::paper_split(&ml.generate(seed), seed);
            let got = split_digest(&s);
            assert_eq!(got, want, "seed {seed}: {got:#018x}");
        }
    }

    #[test]
    #[should_panic(expected = "test_frac")]
    fn rejects_full_test_fraction() {
        let d = dataset();
        let _ = SplitDataset::split(&d, 1.0, 0.1, 0);
    }
}
