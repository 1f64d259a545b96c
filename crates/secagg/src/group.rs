//! Per-group protocol state: key agreement, escrow, masking, recovery.
//!
//! A [`PreparedGroup`] is the result of one group's setup phase for one
//! round: every member has drawn a key-agreement pair, published its
//! public key, and escrowed its secret as Shamir shares across its
//! peers. From that state the group can (a) mask each member's payload,
//! (b) reconstruct a dropped member's secret from the shares its
//! *surviving* peers hold, and (c) strip the orphaned masks a dropped
//! member left in the aggregate.
//!
//! A group lives for the one round it was set up for (the session sets
//! it up when that round runs, so no checkpoint carries one), and the
//! recovery path is honest: it only consumes shares whose holders
//! survived, fails with a typed error below the threshold, and verifies
//! the reconstructed secret against the member's published public key.

use crate::dh::{keypair, modpow, shared_secret, DH_GENERATOR, DH_PRIME};
use crate::mask::apply_pair_mask;
use crate::shamir::{reconstruct_secret, split_secret, SeedShare, ShamirError};
use hf_tensor::rng::Rng;
use std::fmt;

/// Errors from dropout recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryError {
    /// The uid is not a member of this group.
    UnknownMember {
        /// The unknown uid.
        uid: u64,
    },
    /// Too few surviving share-holders to reach the threshold.
    InsufficientShares {
        /// The dropped member whose secret cannot be reconstructed.
        owner: u64,
        /// Usable shares (held by survivors).
        have: usize,
        /// Threshold required.
        need: usize,
    },
    /// Share interpolation itself failed.
    Shamir(ShamirError),
    /// The reconstructed secret does not match the member's public key.
    WrongSecret {
        /// The member whose escrow was inconsistent.
        owner: u64,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::UnknownMember { uid } => write!(f, "uid {uid} is not a group member"),
            RecoveryError::InsufficientShares { owner, have, need } => {
                write!(f, "only {have} of {need} shares survive for member {owner}")
            }
            RecoveryError::Shamir(e) => write!(f, "share reconstruction failed: {e}"),
            RecoveryError::WrongSecret { owner } => {
                write!(
                    f,
                    "reconstructed secret for {owner} fails the public-key check"
                )
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<ShamirError> for RecoveryError {
    fn from(e: ShamirError) -> Self {
        RecoveryError::Shamir(e)
    }
}

/// The most members one group can hold: each secret is escrowed as one
/// Shamir share per peer, and GF(256) has 255 nonzero evaluation points.
pub const MAX_GROUP_MEMBERS: usize = 256;

/// One group's completed setup for one round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreparedGroup {
    /// The round this setup belongs to (keys and escrow are per-round).
    pub round: u64,
    /// Member uids, strictly increasing.
    pub members: Vec<u64>,
    /// Published public keys, aligned with `members`.
    pub publics: Vec<u64>,
    /// Key-agreement secrets, aligned with `members`. Held here because
    /// the simulation hosts every client in-process; the recovery path
    /// deliberately never reads them (it reconstructs from escrow).
    pub secrets: Vec<u64>,
    /// Shares needed to reconstruct one member's secret (majority of its
    /// peers); 0 for groups too small to pair.
    pub threshold: usize,
    /// `escrow[i][k]` = share of member i's secret held by its k-th peer
    /// (peers = members minus i, in member order).
    pub escrow: Vec<Vec<SeedShare>>,
}

impl PreparedGroup {
    /// Runs the setup phase: keypairs, public-key exchange, and Shamir
    /// escrow of every secret across the member's peers. `members` must
    /// be strictly increasing (sort + dedup upstream), non-empty and at
    /// most [`MAX_GROUP_MEMBERS`] long.
    pub fn setup(round: u64, members: &[u64], rng: &mut impl Rng) -> Self {
        assert!(
            (1..=MAX_GROUP_MEMBERS).contains(&members.len()),
            "secagg group needs 1..={MAX_GROUP_MEMBERS} members, got {}",
            members.len()
        );
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "group members must be strictly increasing"
        );
        let n = members.len();
        let pairs: Vec<_> = (0..n).map(|_| keypair(rng)).collect();
        // A majority of the n − 1 peers must survive to reconstruct one
        // secret; a singleton has nobody to pair with.
        let threshold = if n > 1 { (n - 1) / 2 + 1 } else { 0 };
        let escrow = if n > 1 {
            pairs
                .iter()
                .map(|kp| {
                    split_secret(kp.secret, n - 1, threshold, rng)
                        .expect("n-1 peers with majority threshold is a valid split")
                })
                .collect()
        } else {
            vec![Vec::new()]
        };
        Self {
            round,
            members: members.to_vec(),
            publics: pairs.iter().map(|kp| kp.public).collect(),
            secrets: pairs.iter().map(|kp| kp.secret).collect(),
            threshold,
            escrow,
        }
    }

    /// Members in the group.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Index of `uid` in the member list.
    pub fn index_of(&self, uid: u64) -> Option<usize> {
        self.members.binary_search(&uid).ok()
    }

    /// The symmetric pair secret between members `i` and `j`.
    pub fn pair_secret(&self, i: usize, j: usize) -> u64 {
        shared_secret(self.secrets[i], self.publics[j])
    }

    /// Applies all of member `uid`'s pairwise masks to its payload: the
    /// lower uid of each pair adds the stream, the higher subtracts it.
    /// Every member carries `payload.len()` words — the equal-prefix case
    /// of [`PreparedGroup::mask_prefix`].
    pub fn mask_payload(&self, uid: u64, payload: &mut [u64]) {
        let len = payload.len();
        self.mask_prefix(uid, payload, |_| len);
    }

    /// Masks member `uid`'s `payload` — its own prefix of the group's
    /// ring vector — in a group whose `j`-th member (in member order)
    /// carries the first `prefix_of(j)` words. The stream of pair
    /// `(uid, j)` covers the words both carry, so it cancels against
    /// `j`'s half wherever the two uploads overlap and touches nothing
    /// past the shorter one.
    pub fn mask_prefix(&self, uid: u64, payload: &mut [u64], prefix_of: impl Fn(usize) -> usize) {
        let i = self
            .index_of(uid)
            .unwrap_or_else(|| panic!("uid {uid} not in secagg group"));
        for j in 0..self.members.len() {
            if j == i {
                continue;
            }
            let shared = payload.len().min(prefix_of(j));
            let k = self.pair_secret(i, j);
            apply_pair_mask(
                &mut payload[..shared],
                k,
                self.round,
                self.members[i] < self.members[j],
            );
        }
    }

    /// Reconstructs a dropped member's secret from the shares held by
    /// surviving peers (never from the stored secret), verifying it
    /// against the published public key.
    pub fn recover_secret(&self, dropped: u64, survivors: &[u64]) -> Result<u64, RecoveryError> {
        let d = self
            .index_of(dropped)
            .ok_or(RecoveryError::UnknownMember { uid: dropped })?;
        let peers: Vec<u64> = self
            .members
            .iter()
            .copied()
            .filter(|&m| m != dropped)
            .collect();
        let usable: Vec<SeedShare> = peers
            .iter()
            .enumerate()
            .filter(|(_, peer)| survivors.contains(peer))
            .map(|(k, _)| self.escrow[d][k])
            .collect();
        if usable.len() < self.threshold || self.threshold == 0 {
            return Err(RecoveryError::InsufficientShares {
                owner: dropped,
                have: usable.len(),
                need: self.threshold.max(1),
            });
        }
        let secret = reconstruct_secret(&usable, self.threshold)?;
        if modpow(DH_GENERATOR, secret, DH_PRIME) != self.publics[d] {
            return Err(RecoveryError::WrongSecret { owner: dropped });
        }
        Ok(secret)
    }

    /// Strips the orphaned masks of every dropped member from the ring
    /// aggregate of the survivors' payloads. Returns how many dropped
    /// members were recovered.
    ///
    /// For dropped `d` and survivor `v`: `v` applied `±mask(k_vd)` to its
    /// own upload (`+` when `v < d`), and `d`'s cancelling half never
    /// arrived, so the aggregate carries exactly that term — subtract it
    /// when `v < d`, add it back when `v > d`. Masks between two dropped
    /// members appear in no surviving upload and need no correction.
    ///
    /// Every member carried `aggregate.len()` words — the equal-prefix
    /// case of [`PreparedGroup::unmask_dropped_prefix`].
    pub fn unmask_dropped(
        &self,
        aggregate: &mut [u64],
        dropped: &[u64],
        survivors: &[u64],
    ) -> Result<usize, RecoveryError> {
        let len = aggregate.len();
        self.unmask_dropped_prefix(aggregate, dropped, survivors, |_| len)
    }

    /// [`PreparedGroup::unmask_dropped`] for uploads masked with
    /// [`PreparedGroup::mask_prefix`] under the same `prefix_of`: the
    /// orphaned term of `(d, v)` sits in the head of the aggregate, over
    /// the shorter of the two members' prefixes.
    pub fn unmask_dropped_prefix(
        &self,
        aggregate: &mut [u64],
        dropped: &[u64],
        survivors: &[u64],
        prefix_of: impl Fn(usize) -> usize,
    ) -> Result<usize, RecoveryError> {
        let index_of = |uid| {
            self.index_of(uid)
                .ok_or(RecoveryError::UnknownMember { uid })
        };
        let mut recovered = 0;
        for &duid in dropped {
            let secret = self.recover_secret(duid, survivors)?;
            let di = index_of(duid)?;
            for &v in survivors {
                let vi = index_of(v)?;
                let shared = prefix_of(di).min(prefix_of(vi));
                let k = shared_secret(secret, self.publics[vi]);
                apply_pair_mask(&mut aggregate[..shared], k, self.round, v >= duid);
            }
            recovered += 1;
        }
        Ok(recovered)
    }

    /// Bytes this setup moved over the (simulated) wire: public keys to
    /// every peer plus one escrowed share bundle per (owner, holder)
    /// pair, at the [`crate::wire::ShareBundle`] encoded size.
    pub fn setup_bytes(&self) -> u64 {
        let n = self.members.len() as u64;
        if n < 2 {
            return 0;
        }
        // Each member broadcasts its 8-byte public key to n-1 peers and
        // sends one 34-byte ShareBundle to each peer.
        n * (n - 1) * (8 + crate::wire::ShareBundle::ENCODED_LEN as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::mask_words;
    use hf_tensor::rng::{stream, SeedStream};

    fn ring_sum(payloads: &[Vec<u64>]) -> Vec<u64> {
        let mut acc = vec![0u64; payloads[0].len()];
        for p in payloads {
            for (a, w) in acc.iter_mut().zip(p) {
                *a = a.wrapping_add(*w);
            }
        }
        acc
    }

    #[test]
    fn full_participation_masks_cancel_exactly() {
        let mut rng = stream(1, SeedStream::SecAggSecret);
        let members = [3u64, 8, 11, 20, 21];
        let group = PreparedGroup::setup(5, &members, &mut rng);
        let len = 33;
        let plain: Vec<Vec<u64>> = members
            .iter()
            .map(|&m| mask_words(m ^ 0xabcd, 0, len))
            .collect();
        let masked: Vec<Vec<u64>> = members
            .iter()
            .zip(&plain)
            .map(|(&m, p)| {
                let mut p = p.clone();
                group.mask_payload(m, &mut p);
                p
            })
            .collect();
        assert_ne!(masked[0], plain[0], "payloads must actually be masked");
        assert_eq!(ring_sum(&masked), ring_sum(&plain));
    }

    #[test]
    fn dropout_recovery_restores_the_survivor_sum() {
        let mut rng = stream(2, SeedStream::SecAggSecret);
        let members = [1u64, 4, 9, 16, 25, 36];
        let group = PreparedGroup::setup(9, &members, &mut rng);
        let len = 17;
        let plain: Vec<Vec<u64>> = members
            .iter()
            .map(|&m| mask_words(m ^ 0x1234, 1, len))
            .collect();
        // Members 4 and 25 drop after masks were committed.
        let dropped = [4u64, 25];
        let survivors: Vec<u64> = members
            .iter()
            .copied()
            .filter(|m| !dropped.contains(m))
            .collect();
        let masked: Vec<Vec<u64>> = survivors
            .iter()
            .map(|&m| {
                let i = members.iter().position(|&x| x == m).unwrap();
                let mut p = plain[i].clone();
                group.mask_payload(m, &mut p);
                p
            })
            .collect();
        let mut agg = ring_sum(&masked);
        let expected = ring_sum(
            &survivors
                .iter()
                .map(|&m| plain[members.iter().position(|&x| x == m).unwrap()].clone())
                .collect::<Vec<_>>(),
        );
        assert_ne!(agg, expected, "orphaned masks must be present pre-recovery");
        let recovered = group
            .unmask_dropped(&mut agg, &dropped, &survivors)
            .unwrap();
        assert_eq!(recovered, 2);
        assert_eq!(agg, expected);
    }

    #[test]
    fn recovery_below_threshold_is_a_typed_error() {
        let mut rng = stream(3, SeedStream::SecAggSecret);
        let members = [1u64, 2, 3, 4, 5];
        let group = PreparedGroup::setup(0, &members, &mut rng);
        // threshold = majority of 4 peers = 3; only 1 survivor remains.
        let err = group.recover_secret(1, &[2]).unwrap_err();
        assert!(matches!(
            err,
            RecoveryError::InsufficientShares {
                owner: 1,
                have: 1,
                need: 3
            }
        ));
        assert!(matches!(
            group.recover_secret(99, &members),
            Err(RecoveryError::UnknownMember { uid: 99 })
        ));
    }

    #[test]
    fn recovered_secret_passes_the_public_key_check() {
        let mut rng = stream(4, SeedStream::SecAggSecret);
        let members = [10u64, 20, 30, 40];
        let group = PreparedGroup::setup(2, &members, &mut rng);
        let sk = group.recover_secret(20, &[10, 30, 40]).unwrap();
        let i = group.index_of(20).unwrap();
        assert_eq!(sk, group.secrets[i]);
    }

    #[test]
    fn singleton_group_needs_no_masks() {
        let mut rng = stream(5, SeedStream::SecAggSecret);
        let group = PreparedGroup::setup(0, &[7], &mut rng);
        let mut p = vec![1u64, 2, 3];
        group.mask_payload(7, &mut p);
        assert_eq!(p, vec![1, 2, 3]);
        assert_eq!(group.setup_bytes(), 0);
    }

    /// A cohort of three model tiers: two Small members either side of
    /// the only Large one, and two Medium ones.
    const MIXED: [(u64, usize); 6] = [(2, 9), (5, 33), (7, 9), (11, 17), (12, 9), (20, 17)];

    /// The group over [`MIXED`] and each member's plaintext prefix.
    fn mixed_group(seed: u64) -> (PreparedGroup, Vec<Vec<u64>>) {
        let mut rng = stream(seed, SeedStream::SecAggSecret);
        let members = MIXED.map(|(m, _)| m);
        let group = PreparedGroup::setup(4, &members, &mut rng);
        let plain = MIXED
            .iter()
            .map(|&(m, prefix)| mask_words(m ^ 0x5151, 2, prefix))
            .collect();
        (group, plain)
    }

    /// Ring-adds each upload into the head of one full-length aggregate.
    fn head_sum(uploads: &[&Vec<u64>]) -> Vec<u64> {
        let mut acc = vec![0u64; 33];
        for upload in uploads {
            for (a, w) in acc.iter_mut().zip(upload.iter()) {
                *a = a.wrapping_add(*w);
            }
        }
        acc
    }

    fn masked_prefix(group: &PreparedGroup, i: usize, plain: &[u64]) -> Vec<u64> {
        let mut words = plain.to_vec();
        group.mask_prefix(MIXED[i].0, &mut words, |j| MIXED[j].1);
        words
    }

    #[test]
    fn unequal_prefixes_cancel_under_full_participation() {
        let (group, plain) = mixed_group(7);
        let masked: Vec<Vec<u64>> = (0..MIXED.len())
            .map(|i| masked_prefix(&group, i, &plain[i]))
            .collect();
        for (m, p) in masked.iter().zip(&plain) {
            assert_eq!(m.len(), p.len(), "an upload is exactly its prefix");
            assert_ne!(m, p, "payloads must actually be masked");
        }
        // The only Large member's tail is past every peer's prefix: no
        // pair stream reaches it (as exposed as its sum under zeros).
        assert_eq!(masked[1][17..], plain[1][17..]);
        assert_ne!(masked[1][..17], plain[1][..17]);
        assert_eq!(
            head_sum(&masked.iter().collect::<Vec<_>>()),
            head_sum(&plain.iter().collect::<Vec<_>>())
        );
    }

    #[test]
    fn dropouts_in_every_tier_recover_to_the_plaintext_ring_sum() {
        let (group, plain) = mixed_group(8);
        // The only Large member; the Small member between the Large one
        // and a Medium one; a Medium one; pairs; and one of each tier at
        // once, which leaves exactly the 3-of-5 escrow threshold.
        let cases: [&[u64]; 6] = [&[5], &[7], &[11], &[2, 20], &[5, 12], &[2, 5, 11]];
        for dropped in cases {
            let alive: Vec<usize> = (0..MIXED.len())
                .filter(|&i| !dropped.contains(&MIXED[i].0))
                .collect();
            let survivors: Vec<u64> = alive.iter().map(|&i| MIXED[i].0).collect();
            let masked: Vec<Vec<u64>> = alive
                .iter()
                .map(|&i| masked_prefix(&group, i, &plain[i]))
                .collect();
            let expected = head_sum(&alive.iter().map(|&i| &plain[i]).collect::<Vec<_>>());
            let mut agg = head_sum(&masked.iter().collect::<Vec<_>>());
            assert_ne!(agg, expected, "{dropped:?}: orphaned masks must be present");
            let recovered =
                group.unmask_dropped_prefix(&mut agg, dropped, &survivors, |j| MIXED[j].1);
            assert_eq!(recovered, Ok(dropped.len()), "{dropped:?}");
            assert_eq!(agg, expected, "{dropped:?}");
        }
    }

    #[test]
    fn uniform_prefixes_reproduce_the_full_length_mask_words() {
        // What masking was before prefixes: every pair stream over the
        // whole payload, the lower uid adding.
        let mut rng = stream(9, SeedStream::SecAggSecret);
        let members = [3u64, 8, 11, 20, 21];
        let group = PreparedGroup::setup(6, &members, &mut rng);
        let len = 29;
        let full_length = |i: usize, words: &mut [u64]| {
            for j in (0..members.len()).filter(|&j| j != i) {
                let stream = mask_words(group.pair_secret(i, j), group.round, len);
                for (w, s) in words.iter_mut().zip(stream) {
                    *w = if i < j {
                        w.wrapping_add(s)
                    } else {
                        w.wrapping_sub(s)
                    };
                }
            }
        };
        let mut aggregate = vec![0u64; len];
        for (i, &m) in members.iter().enumerate() {
            let plain = mask_words(m ^ 0xabcd, 0, len);
            let mut expected = plain.clone();
            full_length(i, &mut expected);
            let mut uniform = plain.clone();
            group.mask_payload(m, &mut uniform);
            let mut prefixed = plain;
            group.mask_prefix(m, &mut prefixed, |_| len);
            assert_eq!(uniform, expected, "member {m}");
            assert_eq!(prefixed, expected, "member {m}");
            if m != 11 {
                for (a, w) in aggregate.iter_mut().zip(&uniform) {
                    *a = a.wrapping_add(*w);
                }
            }
        }
        // Member 11 never delivered: both entry points strip the same
        // full-length streams.
        let survivors = [3u64, 8, 20, 21];
        let mut by_prefix = aggregate.clone();
        let uniform = group.unmask_dropped(&mut aggregate, &[11], &survivors);
        let prefixed = group.unmask_dropped_prefix(&mut by_prefix, &[11], &survivors, |_| len);
        assert_eq!((uniform, prefixed), (Ok(1), Ok(1)));
        assert_eq!(aggregate, by_prefix);
    }
}
