//! Train / validation / test splitting.
//!
//! Paper §V-A: "for each dataset, 80% of data and 20% of data are used as
//! training and test set. When a client is selected for training, 10% of
//! its training data will be used as the validation set to guide the local
//! training." Splits are per-user (the client owns all of its data) and
//! deterministic given the seed.

use crate::types::{ImplicitDataset, ItemId, UserId};
use hf_tensor::rng::{substream, SeedStream};

/// A user's split interaction data.
#[derive(Clone, Debug, Default)]
pub struct UserSplit {
    /// Training positives (sorted).
    pub train: Vec<ItemId>,
    /// Validation positives carved out of train (sorted).
    pub valid: Vec<ItemId>,
    /// Held-out test positives (sorted).
    pub test: Vec<ItemId>,
}

impl UserSplit {
    /// `true` iff `item` is a train or validation positive (the set a
    /// client may not sample as a negative).
    pub fn is_local_positive(&self, item: ItemId) -> bool {
        self.train.binary_search(&item).is_ok() || self.valid.binary_search(&item).is_ok()
    }
}

/// Which list a position of a user's ids goes to.
#[derive(Clone, Copy)]
enum Role {
    Train,
    Valid,
    Test,
}

/// Dataset with per-user train/valid/test splits.
#[derive(Clone, Debug)]
pub struct SplitDataset {
    num_items: usize,
    users: Vec<UserSplit>,
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
        assert!((0.0..1.0).contains(&test_frac), "test_frac in [0,1)");
        assert!((0.0..1.0).contains(&valid_frac), "valid_frac in [0,1)");
        // A user's lists come out of its sorted ids in their own order:
        // the shuffle permutes positions (its draws depend only on the
        // length), the first `n_test` shuffled positions are held out for
        // testing and the next `n_valid` for validation, and one pass over
        // the ids sorts each into its list. `order` and `role` are scratch
        // reused across users.
        let (mut order, mut role): (Vec<u32>, Vec<Role>) = (Vec::new(), Vec::new());
        let users = dataset
            .iter_users()
            .map(|(u, ints)| {
                let items = ints.items();
                let n = items.len();
                order.clear();
                order.extend(0..n as u32);
                let mut rng = substream(seed, SeedStream::Split, u as u64);
                hf_tensor::rng::shuffle(&mut order, &mut rng);

                let n_test = ((n as f64) * test_frac).floor() as usize;
                let n_test = n_test.min(n.saturating_sub(1));
                let rest = n - n_test;
                let n_valid = ((rest as f64) * valid_frac).floor() as usize;
                let n_valid = n_valid.min(rest.saturating_sub(1));

                role.clear();
                role.resize(n, Role::Train);
                for &pos in &order[..n_test] {
                    role[pos as usize] = Role::Test;
                }
                for &pos in &order[n_test..n_test + n_valid] {
                    role[pos as usize] = Role::Valid;
                }
                let mut split = UserSplit {
                    train: Vec::with_capacity(rest - n_valid),
                    valid: Vec::with_capacity(n_valid),
                    test: Vec::with_capacity(n_test),
                };
                for (&item, r) in items.iter().zip(&role) {
                    match r {
                        Role::Train => split.train.push(item),
                        Role::Valid => split.valid.push(item),
                        Role::Test => split.test.push(item),
                    }
                }
                split
            })
            .collect();
        Self {
            num_items: dataset.num_items(),
            users,
        }
    }

    /// Paper-default split: 80/20 train/test, 10% of train as validation.
    pub fn paper_split(dataset: &ImplicitDataset, seed: u64) -> Self {
        Self::split(dataset, 0.2, 0.1, seed)
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Item-universe size.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// A user's split.
    pub fn user(&self, u: UserId) -> &UserSplit {
        &self.users[u]
    }

    /// Iterator over `(user id, split)`.
    pub fn iter_users(&self) -> impl Iterator<Item = (UserId, &UserSplit)> {
        self.users.iter().enumerate()
    }

    /// Per-user training-set sizes — the quantity client division is based
    /// on (paper groups clients by interaction amounts).
    pub fn train_counts(&self) -> Vec<usize> {
        self.users.iter().map(|u| u.train.len()).collect()
    }

    /// Ingests one streamed interaction as a training positive.
    ///
    /// `user == num_users()` admits a brand-new user whose split starts as
    /// `train = [item]` with empty validation and test sets (so evaluation
    /// skips it until held-out data exists). For existing users the item
    /// is inserted into the sorted training set; duplicates are ignored.
    /// Returns `true` iff the dataset changed.
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
        assert!(
            user <= self.users.len(),
            "user {user} would leave a gap (population is {})",
            self.users.len()
        );
        if user == self.users.len() {
            self.users.push(UserSplit {
                train: vec![item],
                valid: Vec::new(),
                test: Vec::new(),
            });
            return true;
        }
        let train = &mut self.users[user].train;
        match train.binary_search(&item) {
            Ok(_) => false,
            Err(pos) => {
                train.insert(pos, item);
                true
            }
        }
    }

    /// Heap bytes the split reserves: every list's *capacity* plus the
    /// per-user headers (see [`ImplicitDataset::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        let ids: usize = self
            .users
            .iter()
            .map(|u| u.train.capacity() + u.valid.capacity() + u.test.capacity())
            .sum();
        ids * std::mem::size_of::<ItemId>()
            + self.users.capacity() * std::mem::size_of::<UserSplit>()
    }

    /// Total train/valid/test sizes.
    pub fn totals(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for u in &self.users {
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
    fn split_partitions_each_user() {
        let d = dataset();
        let s = SplitDataset::paper_split(&d, 5);
        for (u, split) in s.iter_users() {
            let mut all: Vec<ItemId> = split
                .train
                .iter()
                .chain(&split.valid)
                .chain(&split.test)
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
        let before = s.user(0).train.clone();
        assert!(s.ingest(0, 3));
        assert!(!s.ingest(0, 3), "duplicate ingests are no-ops");
        let after = &s.user(0).train;
        assert!(after.windows(2).all(|w| w[0] < w[1]), "train stays sorted");
        assert_eq!(after.len(), before.len() + 1);

        assert!(s.ingest(2, 4), "user == num_users admits");
        assert_eq!(s.num_users(), 3);
        assert_eq!(s.user(2).train, vec![4]);
        assert!(s.user(2).valid.is_empty() && s.user(2).test.is_empty());
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
