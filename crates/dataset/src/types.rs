//! Core implicit-feedback dataset types.
//!
//! Following the paper's setting (§III-A): each user `u_i` is one federated
//! client holding a private local dataset `D_i` of `(u_i, v_j, r_ij)`
//! triples with binary implicit feedback — `r_ij = 1` iff the user
//! interacted with item `v_j`. Per-user item lists are the natural storage:
//! clients never see each other's data, so there is no benefit to a global
//! interaction log.

/// Index of a user (== federated client id).
pub type UserId = usize;
/// Index of an item.
pub type ItemId = u32;

/// A user's local interaction list. Item ids are kept sorted so membership
/// checks are `O(log n)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UserInteractions {
    items: Vec<ItemId>,
}

impl UserInteractions {
    /// Builds from an arbitrary item list; sorts, deduplicates and gives
    /// back whatever capacity the argument carried beyond its ids (lists
    /// live as long as the dataset; a builder's scratch room must not).
    pub fn new(mut items: Vec<ItemId>) -> Self {
        items.sort_unstable();
        items.dedup();
        items.shrink_to_fit();
        Self { items }
    }

    /// Sorted interacted item ids.
    pub fn items(&self) -> &[ItemId] {
        &self.items
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

/// An implicit-feedback dataset: one interaction list per user over a fixed
/// item universe.
#[derive(Clone, Debug)]
pub struct ImplicitDataset {
    num_items: usize,
    users: Vec<UserInteractions>,
}

impl ImplicitDataset {
    /// Builds a dataset from per-user item lists.
    ///
    /// # Panics
    /// Panics if any item id is out of range.
    pub fn new(num_items: usize, per_user_items: Vec<Vec<ItemId>>) -> Self {
        for (u, items) in per_user_items.iter().enumerate() {
            for &it in items {
                assert!(
                    (it as usize) < num_items,
                    "user {u} references item {it} outside universe of {num_items}"
                );
            }
        }
        let users = per_user_items
            .into_iter()
            .map(UserInteractions::new)
            .collect();
        Self { num_items, users }
    }

    /// Number of users (= federated clients).
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Size of the item universe.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// A user's interactions.
    pub fn user(&self, u: UserId) -> &UserInteractions {
        &self.users[u]
    }

    /// Iterator over `(user id, interactions)` pairs.
    pub fn iter_users(&self) -> impl Iterator<Item = (UserId, &UserInteractions)> {
        self.users.iter().enumerate()
    }

    /// Total number of interactions across all users.
    pub fn num_interactions(&self) -> usize {
        self.users.iter().map(|u| u.len()).sum()
    }

    /// Per-user interaction counts.
    pub fn interaction_counts(&self) -> Vec<usize> {
        self.users.iter().map(|u| u.len()).collect()
    }

    /// Heap bytes the dataset reserves: every list's *capacity* plus the
    /// list headers — `4 B × num_interactions()` plus 24 B a user when
    /// nothing is wasted.
    pub fn heap_bytes(&self) -> usize {
        let ids: usize = self.users.iter().map(|u| u.items.capacity()).sum();
        ids * std::mem::size_of::<ItemId>()
            + self.users.capacity() * std::mem::size_of::<UserInteractions>()
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
        let u = UserInteractions::new(vec![4, 1, 4, 2]);
        assert_eq!(u.items(), &[1, 2, 4]);
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn lists_keep_no_spare_capacity() {
        let mut roomy = Vec::with_capacity(1_000);
        roomy.extend([4, 1, 4, 2]);
        let u = UserInteractions::new(roomy);
        assert_eq!(u.items.capacity(), 3);
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
    fn iter_users_yields_all() {
        let d = toy();
        let ids: Vec<usize> = d.iter_users().map(|(u, _)| u).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
