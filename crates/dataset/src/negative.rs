//! Negative sampling for implicit feedback.
//!
//! Paper §V-A: "negative instances are sampled with a ratio of 1:4" —
//! for every observed positive, four items the user has not interacted
//! with are drawn as `r_ij = 0` samples. Sampling happens on-device during
//! local training (a client knows only its own positives), so the sampler
//! borrows a user's positive set and rejects collisions against it.

use crate::split::UserSplit;
use crate::types::ItemId;
use hf_tensor::rng::Rng;

/// Uniform negative sampler over the item universe with rejection against
/// a user's local positives.
#[derive(Clone, Copy, Debug)]
pub struct NegativeSampler {
    num_items: usize,
    /// Negatives drawn per positive (paper: 4).
    pub ratio: usize,
}

impl NegativeSampler {
    /// Creates a sampler for a universe of `num_items` items.
    ///
    /// # Panics
    /// Panics if the universe is empty or the ratio is zero.
    pub fn new(num_items: usize, ratio: usize) -> Self {
        assert!(
            num_items > 1,
            "cannot sample negatives from a universe of {num_items}"
        );
        assert!(ratio > 0, "ratio must be positive");
        Self { num_items, ratio }
    }

    /// Paper-default 1:4 sampler.
    pub fn paper_default(num_items: usize) -> Self {
        Self::new(num_items, 4)
    }

    /// Draws one negative for `user`: an item that is not among the user's
    /// train/validation positives.
    ///
    /// Rejection sampling is safe here: real users interact with a tiny
    /// fraction of the universe, and a 4096-attempt guard converts a
    /// pathological dense user into a clean panic instead of a hang.
    pub fn sample_one(&self, user: &UserSplit, rng: &mut impl Rng) -> ItemId {
        for _ in 0..4096 {
            let candidate = rng.gen_range(0..self.num_items) as ItemId;
            if !user.is_local_positive(candidate) {
                return candidate;
            }
        }
        panic!("user has interacted with nearly the whole universe; cannot sample a negative");
    }

    /// Draws `ratio` negatives for one positive, appending to `out`
    /// (allocation-free in the hot training loop).
    pub fn sample_for_positive(&self, user: &UserSplit, rng: &mut impl Rng, out: &mut Vec<ItemId>) {
        for _ in 0..self.ratio {
            out.push(self.sample_one(user, rng));
        }
    }

    /// Builds the full `(item, label)` training stream for one user's
    /// epoch: every train positive followed by `ratio` negatives.
    pub fn build_epoch(&self, user: &UserSplit, rng: &mut impl Rng) -> (Vec<ItemId>, Vec<f32>) {
        let n = user.train.len() * (1 + self.ratio);
        let mut items = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        let mut negs = Vec::with_capacity(self.ratio);
        for &pos in user.train {
            items.push(pos);
            labels.push(1.0);
            negs.clear();
            self.sample_for_positive(user, rng, &mut negs);
            for &neg in &negs {
                items.push(neg);
                labels.push(0.0);
            }
        }
        (items, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_tensor::rng::{stream, SeedStream};

    fn user<'a>(train: &'a [ItemId], valid: &'a [ItemId]) -> UserSplit<'a> {
        UserSplit {
            train,
            valid,
            test: &[],
        }
    }

    #[test]
    fn negatives_avoid_local_positives() {
        let u = user(&[0, 1, 2], &[3]);
        let sampler = NegativeSampler::new(10, 4);
        let mut rng = stream(1, SeedStream::Negatives);
        for _ in 0..200 {
            let n = sampler.sample_one(&u, &mut rng);
            assert!(n >= 4, "sampled positive {n}");
        }
    }

    #[test]
    fn epoch_stream_has_paper_ratio() {
        let u = user(&[0, 5, 9], &[]);
        let sampler = NegativeSampler::paper_default(100);
        let mut rng = stream(2, SeedStream::Negatives);
        let (items, labels) = sampler.build_epoch(&u, &mut rng);
        assert_eq!(items.len(), 3 * 5);
        assert_eq!(labels.iter().filter(|&&l| l == 1.0).count(), 3);
        assert_eq!(labels.iter().filter(|&&l| l == 0.0).count(), 12);
        // Positives appear at stride 5.
        assert_eq!(items[0], 0);
        assert_eq!(items[5], 5);
        assert_eq!(items[10], 9);
    }

    #[test]
    fn epoch_is_deterministic_per_rng() {
        let u = user(&[1, 2], &[]);
        let sampler = NegativeSampler::paper_default(50);
        let a = sampler.build_epoch(&u, &mut stream(7, SeedStream::Negatives));
        let b = sampler.build_epoch(&u, &mut stream(7, SeedStream::Negatives));
        assert_eq!(a, b);
    }

    #[test]
    fn negatives_cover_the_universe() {
        let u = user(&[0], &[]);
        let sampler = NegativeSampler::new(5, 4);
        let mut rng = stream(3, SeedStream::Negatives);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[sampler.sample_one(&u, &mut rng) as usize] = true;
        }
        assert_eq!(seen, [false, true, true, true, true]);
    }

    #[test]
    #[should_panic(expected = "universe")]
    fn rejects_tiny_universe() {
        let _ = NegativeSampler::new(1, 4);
    }

    #[test]
    #[should_panic(expected = "whole universe")]
    fn dense_user_panics_cleanly() {
        let train: Vec<ItemId> = (0..10).collect();
        let u = user(&train, &[]);
        let sampler = NegativeSampler::new(10, 1);
        let mut rng = stream(4, SeedStream::Negatives);
        let _ = sampler.sample_one(&u, &mut rng);
    }
}
