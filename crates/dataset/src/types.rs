//! Core implicit-feedback dataset types.
//!
//! Following the paper's setting (§III-A): each user `u_i` is one federated
//! client holding a private local dataset `D_i` of `(u_i, v_j, r_ij)`
//! triples with binary implicit feedback — `r_ij = 1` iff the user
//! interacted with item `v_j`. Clients never see each other's data, so
//! there is no global interaction log: each user's sorted item ids form
//! its own section of one id buffer.
//!
//! # Layout
//!
//! An [`ImplicitDataset`] is one `Vec<ItemId>` holding every user's ids
//! end to end, plus `num_users + 1` `u32` offsets: user `u` owns
//! `ids[offsets[u]..offsets[u + 1]]`. A dataset therefore costs 4 bytes an
//! interaction and 4 a user; a `Vec` a user would add a 24-byte header and
//! an allocation's bookkeeping and rounding to every one of them.
//! [`ImplicitDataset::user`] lends a [`UserInteractions`] view of one
//! section. Builders that fan out over workers fill the buffer chunk by
//! chunk in user order ([`hf_tensor::parallel::parallel_fill_ordered`])
//! after sizing it from the per-user lengths, so it is allocated once at
//! its final length and no per-user list ever exists. The generator, the
//! split, the replay (`hf_pipeline`) and artifact synthesis (`hf_serve`)
//! all fan out this way, over [`user_chunks`] on [`population_workers`]
//! threads.

use std::ops::Range;

/// Index of a user (== federated client id).
pub type UserId = usize;
/// Index of an item.
pub type ItemId = u32;

/// Below this much work — `(user, item)` scores for the generator, ids
/// for a split, a replay or a synthesized artifact — a pass over the
/// population costs a few milliseconds and runs on the calling thread:
/// spawning workers would be most of the bill (and test-sized datasets
/// stay thread-free).
pub const PARALLEL_MIN_WORK: usize = 1 << 18;

/// Threads a population pass over `work` units fans out over: every core,
/// or one below [`PARALLEL_MIN_WORK`].
pub fn population_workers(work: usize) -> usize {
    if work < PARALLEL_MIN_WORK {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Users a population pass hands a worker at a time.
pub(crate) const USERS_PER_CHUNK: usize = 16;

/// The user ranges a population pass fans out, in order: 16 users each
/// (the last one fewer), so one claim and one scratch buffer serve
/// several users.
pub fn user_chunks(num_users: usize) -> Vec<Range<usize>> {
    (0..num_users)
        .step_by(USERS_PER_CHUNK)
        .map(|start| start..(start + USERS_PER_CHUNK).min(num_users))
        .collect()
}

/// Running offsets of sections of the given lengths: `lens.len() + 1`
/// entries from 0, allocated at exactly that length.
///
/// # Panics
/// Panics if the total does not fit the `u32` offsets.
pub fn offsets_of(lens: impl ExactSizeIterator<Item = usize>) -> Vec<u32> {
    let mut offsets = Vec::with_capacity(lens.len() + 1);
    let mut end = 0u32;
    offsets.push(end);
    for len in lens {
        end = u32::try_from(len)
            .ok()
            .and_then(|len| end.checked_add(len))
            .expect("a population's ids must fit u32 offsets");
        offsets.push(end);
    }
    offsets
}

/// A user's local interactions: a borrowed view of its sorted section of
/// the dataset's id buffer. Item ids are sorted so membership checks are
/// `O(log n)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UserInteractions<'a> {
    items: &'a [ItemId],
}

impl<'a> UserInteractions<'a> {
    /// Sorted interacted item ids.
    pub fn items(&self) -> &'a [ItemId] {
        self.items
    }

    /// Number of interactions.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if the user has no interactions.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Membership check.
    pub fn contains(&self, item: ItemId) -> bool {
        self.items.binary_search(&item).is_ok()
    }
}

/// An implicit-feedback dataset: one sorted interaction list per user over
/// a fixed item universe, every list a section of one id buffer (module
/// docs).
#[derive(Clone, Debug)]
pub struct ImplicitDataset {
    num_items: usize,
    /// Every user's sorted ids, end to end.
    ids: Vec<ItemId>,
    /// `offsets[u]..offsets[u + 1]` is user `u`'s section of `ids`.
    offsets: Vec<u32>,
}

impl ImplicitDataset {
    /// Builds a dataset from per-user item lists, each sorted and
    /// deduplicated.
    ///
    /// # Panics
    /// Panics if any item id is out of range.
    pub fn new(num_items: usize, mut per_user_items: Vec<Vec<ItemId>>) -> Self {
        for items in &mut per_user_items {
            items.sort_unstable();
            items.dedup();
        }
        let offsets = offsets_of(per_user_items.iter().map(Vec::len));
        let mut ids = Vec::with_capacity(*offsets.last().expect("one offset") as usize);
        for items in &per_user_items {
            ids.extend_from_slice(items);
        }
        Self::from_sections(num_items, ids, offsets)
    }

    /// Builds a dataset from its id buffer and offsets (module docs):
    /// user `u`'s ids are `ids[offsets[u]..offsets[u + 1]]`.
    ///
    /// # Panics
    /// Panics unless the offsets start at 0, never fall and end at
    /// `ids.len()`, and every section is strictly ascending inside the
    /// `num_items`-item universe.
    pub fn from_sections(num_items: usize, ids: Vec<ItemId>, offsets: Vec<u32>) -> Self {
        assert!(
            offsets.first() == Some(&0) && offsets.last().map(|&e| e as usize) == Some(ids.len()),
            "offsets must run from 0 to the {} ids",
            ids.len()
        );
        for (u, bounds) in offsets.windows(2).enumerate() {
            assert!(bounds[0] <= bounds[1], "user {u}'s offsets fall");
            let items = &ids[bounds[0] as usize..bounds[1] as usize];
            assert!(
                items.windows(2).all(|w| w[0] < w[1]),
                "user {u}'s ids are not strictly ascending"
            );
            if let Some(&it) = items.last() {
                assert!(
                    (it as usize) < num_items,
                    "user {u} references item {it} outside universe of {num_items}"
                );
            }
        }
        Self {
            num_items,
            ids,
            offsets,
        }
    }

    /// Number of users (= federated clients).
    pub fn num_users(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Size of the item universe.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// A user's interactions.
    pub fn user(&self, u: UserId) -> UserInteractions<'_> {
        UserInteractions {
            items: &self.ids[self.offsets[u] as usize..self.offsets[u + 1] as usize],
        }
    }

    /// Iterator over `(user id, interactions)` pairs.
    pub fn iter_users(&self) -> impl Iterator<Item = (UserId, UserInteractions<'_>)> {
        (0..self.num_users()).map(|u| (u, self.user(u)))
    }

    /// Total number of interactions across all users.
    pub fn num_interactions(&self) -> usize {
        self.ids.len()
    }

    /// Per-user interaction counts.
    pub fn interaction_counts(&self) -> Vec<usize> {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .collect()
    }

    /// Heap bytes the dataset reserves, at capacity: `4 B ×
    /// num_interactions()` plus `4 B × (num_users() + 1)` when nothing is
    /// wasted.
    pub fn heap_bytes(&self) -> usize {
        (self.ids.capacity() + self.offsets.capacity()) * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> ImplicitDataset {
        ImplicitDataset::new(5, vec![vec![0, 2, 4], vec![1], vec![]])
    }

    #[test]
    fn counts_and_sizes() {
        let d = toy();
        assert_eq!(d.num_users(), 3);
        assert_eq!(d.num_items(), 5);
        assert_eq!(d.num_interactions(), 4);
        assert_eq!(d.interaction_counts(), vec![3, 1, 0]);
    }

    #[test]
    fn interactions_are_sorted_and_deduped() {
        let d = ImplicitDataset::new(5, vec![vec![4, 1, 4, 2], vec![3, 0]]);
        assert_eq!(d.user(0).items(), &[1, 2, 4]);
        assert_eq!(d.user(0).len(), 3);
        assert_eq!(d.user(1).items(), &[0, 3]);
    }

    #[test]
    fn lists_keep_no_spare_capacity() {
        let mut roomy = Vec::with_capacity(1_000);
        roomy.extend([4, 1, 4, 2]);
        let d = ImplicitDataset::new(5, vec![roomy, vec![0]]);
        assert_eq!(d.heap_bytes(), (4 + 3) * 4, "4 ids and 3 offsets");
    }

    #[test]
    fn membership() {
        let d = toy();
        assert!(d.user(0).contains(2));
        assert!(!d.user(0).contains(3));
        assert!(d.user(2).is_empty());
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn rejects_out_of_range_items() {
        let _ = ImplicitDataset::new(3, vec![vec![3]]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_sections() {
        let _ = ImplicitDataset::from_sections(5, vec![1, 3, 2], vec![0, 1, 3]);
    }

    #[test]
    fn iter_users_yields_all() {
        let d = toy();
        let ids: Vec<usize> = d.iter_users().map(|(u, _)| u).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn chunks_cover_the_population_in_order() {
        let chunks = user_chunks(2 * USERS_PER_CHUNK + 3);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[2], 2 * USERS_PER_CHUNK..2 * USERS_PER_CHUNK + 3);
        assert!(chunks.windows(2).all(|w| w[0].end == w[1].start));
        assert_eq!(offsets_of([2, 0, 3].into_iter()), vec![0, 2, 2, 5]);
    }
}
