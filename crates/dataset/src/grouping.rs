//! Client division into small / medium / large groups.
//!
//! Paper §IV-A: clients are categorised into `Us`, `Um`, `Ul` by the scale
//! of their user-item interactions; §V-D fixes the default proportion at
//! `5:3:2` (RQ4 also studies `1:1:1` and `2:3:5`). Division is by rank:
//! after sorting clients by training-interaction count ascending, the
//! first `x/(x+y+z)` fraction becomes `Us`, the next `y/(x+y+z)` becomes
//! `Um`, and the rest `Ul`.

use crate::split::SplitDataset;
use crate::types::UserId;

/// Model-size tier of a client (paper's `Us`/`Um`/`Ul`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Small clients (`Us`): fewest interactions, smallest model.
    Small,
    /// Medium clients (`Um`).
    Medium,
    /// Large clients (`Ul`): most interactions, largest model.
    Large,
}

impl Tier {
    /// All tiers, ascending.
    pub const ALL: [Tier; 3] = [Tier::Small, Tier::Medium, Tier::Large];

    /// Index into `[Ns, Nm, Nl]`-style arrays.
    pub fn index(self) -> usize {
        match self {
            Tier::Small => 0,
            Tier::Medium => 1,
            Tier::Large => 2,
        }
    }

    /// Paper-style group label.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Small => "Us",
            Tier::Medium => "Um",
            Tier::Large => "Ul",
        }
    }
}

/// A division ratio `x:y:z` over (small, medium, large).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DivisionRatio {
    /// Small-group weight.
    pub small: u32,
    /// Medium-group weight.
    pub medium: u32,
    /// Large-group weight.
    pub large: u32,
}

impl DivisionRatio {
    /// The paper's default conservative division.
    pub const PAPER_DEFAULT: DivisionRatio = DivisionRatio {
        small: 5,
        medium: 3,
        large: 2,
    };
    /// The neutral division studied in RQ4.
    pub const NEUTRAL: DivisionRatio = DivisionRatio {
        small: 1,
        medium: 1,
        large: 1,
    };
    /// The optimistic division studied in RQ4.
    pub const OPTIMISTIC: DivisionRatio = DivisionRatio {
        small: 2,
        medium: 3,
        large: 5,
    };

    /// Creates a ratio; at least one weight must be positive.
    pub fn new(small: u32, medium: u32, large: u32) -> Self {
        let ratio = Self {
            small,
            medium,
            large,
        };
        assert!(ratio.total() > 0, "ratio weights sum to zero");
        ratio
    }

    /// The three weights summed, in `u64` so no `u32` weights overflow.
    fn total(&self) -> u64 {
        u64::from(self.small) + u64::from(self.medium) + u64::from(self.large)
    }

    /// Paper-style display, e.g. `5:3:2`.
    pub fn label(&self) -> String {
        format!("{}:{}:{}", self.small, self.medium, self.large)
    }

    /// Restores a checkpointed ratio.
    pub fn from_json(v: &hf_tensor::ser::JsonValue<'_>) -> Result<Self, hf_tensor::ser::JsonError> {
        let read = |key: &str| -> Result<u32, hf_tensor::ser::JsonError> {
            let x = v.get(key)?.as_u64()?;
            u32::try_from(x)
                .map_err(|_| hf_tensor::ser::JsonError::msg(format!("{key} overflows u32")))
        };
        let ratio = Self {
            small: read("small")?,
            medium: read("medium")?,
            large: read("large")?,
        };
        if ratio.total() == 0 {
            return Err(hf_tensor::ser::JsonError::msg("ratio weights sum to zero"));
        }
        Ok(ratio)
    }

    /// Cut points `(n_small, n_small + n_medium)` for `n` clients: the
    /// small and medium shares are each rounded to the nearest count on
    /// their own (clamped so they fit in `n`), and the large group takes
    /// the rest, so group sizes always sum to `n`.
    fn cuts(&self, n: usize) -> (usize, usize) {
        let total = self.total() as f64;
        let n_small = ((n as f64) * (self.small as f64) / total).round() as usize;
        let n_medium = ((n as f64) * (self.medium as f64) / total).round() as usize;
        let n_small = n_small.min(n);
        let n_medium = n_medium.min(n - n_small);
        (n_small, n_small + n_medium)
    }
}

impl hf_tensor::ser::ToJson for DivisionRatio {
    fn write_json(&self, out: &mut String) {
        hf_tensor::ser::obj(out, |o| {
            o.field("small", &self.small)
                .field("medium", &self.medium)
                .field("large", &self.large);
        });
    }
}

/// The result of dividing clients into tiers.
#[derive(Clone, Debug)]
pub struct ClientGroups {
    tiers: Vec<Tier>,
    /// Interaction-count thresholds `(p_small_max, p_medium_max)` implied
    /// by the division — reported alongside Table I's `<50%`/`<80%`.
    pub thresholds: (usize, usize),
}

impl ClientGroups {
    /// Divides clients by ascending training-interaction count under the
    /// given ratio.
    pub fn divide(split: &SplitDataset, ratio: DivisionRatio) -> Self {
        let counts = split.train_counts();
        Self::divide_by_counts(&counts, ratio)
    }

    /// Division from raw per-client counts (exposed for tests and tools).
    pub fn divide_by_counts(counts: &[usize], ratio: DivisionRatio) -> Self {
        let n = counts.len();
        let mut order: Vec<UserId> = (0..n).collect();
        // Stable tie-break on user id keeps the division deterministic.
        order.sort_by_key(|&u| (counts[u], u));

        let (cut1, cut2) = ratio.cuts(n);
        let mut tiers = vec![Tier::Small; n];
        for (rank, &u) in order.iter().enumerate() {
            tiers[u] = if rank < cut1 {
                Tier::Small
            } else if rank < cut2 {
                Tier::Medium
            } else {
                Tier::Large
            };
        }
        let t_small = if cut1 > 0 { counts[order[cut1 - 1]] } else { 0 };
        let t_medium = if cut2 > 0 { counts[order[cut2 - 1]] } else { 0 };
        Self {
            tiers,
            thresholds: (t_small, t_medium),
        }
    }

    /// Assigns every client to one tier (used by the `All Small` /
    /// `All Large` homogeneous baselines, which the paper describes as the
    /// `10:0:0` and `0:0:10` divisions).
    pub fn uniform(num_users: usize, tier: Tier) -> Self {
        Self {
            tiers: vec![tier; num_users],
            thresholds: (0, 0),
        }
    }

    /// Tier of one client.
    pub fn tier(&self, u: UserId) -> Tier {
        self.tiers[u]
    }

    /// Per-client tier indices (0/1/2) — the representation layers without
    /// a [`Tier`] type (simulators, checkpoints) consume.
    pub fn tier_indices(&self) -> Vec<u8> {
        self.tiers.iter().map(|t| t.index() as u8).collect()
    }

    /// Rebuilds a division from checkpointed [`ClientGroups::tier_indices`]
    /// plus its frozen thresholds.
    pub fn from_tier_indices(indices: &[u8], thresholds: (usize, usize)) -> Result<Self, String> {
        let tiers = indices
            .iter()
            .map(|&i| match i {
                0 => Ok(Tier::Small),
                1 => Ok(Tier::Medium),
                2 => Ok(Tier::Large),
                other => Err(format!("tier index {other} out of range")),
            })
            .collect::<Result<Vec<Tier>, String>>()?;
        Ok(Self { tiers, thresholds })
    }

    /// Tier a newly admitted client with `count` training interactions
    /// falls into under this division's frozen thresholds. Existing
    /// members are never re-ranked — admission extends the division, it
    /// does not recompute it.
    pub fn tier_for_count(&self, count: usize) -> Tier {
        let (t_small, t_medium) = self.thresholds;
        if count <= t_small {
            Tier::Small
        } else if count <= t_medium {
            Tier::Medium
        } else {
            Tier::Large
        }
    }

    /// Appends one newly admitted client with the given tier, returning
    /// its id.
    pub fn admit(&mut self, tier: Tier) -> UserId {
        self.tiers.push(tier);
        self.tiers.len() - 1
    }

    /// Number of clients.
    pub fn num_users(&self) -> usize {
        self.tiers.len()
    }

    /// All members of a tier, ascending user id.
    pub fn members(&self, tier: Tier) -> Vec<UserId> {
        self.tiers
            .iter()
            .enumerate()
            .filter(|(_, &t)| t == tier)
            .map(|(u, _)| u)
            .collect()
    }

    /// Group sizes `[|Us|, |Um|, |Ul|]`.
    pub fn sizes(&self) -> [usize; 3] {
        let mut s = [0usize; 3];
        for &t in &self.tiers {
            s[t.index()] += 1;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ratio_partitions_5_3_2() {
        let counts: Vec<usize> = (0..100).collect();
        let g = ClientGroups::divide_by_counts(&counts, DivisionRatio::PAPER_DEFAULT);
        assert_eq!(g.sizes(), [50, 30, 20]);
    }

    #[test]
    fn smaller_counts_land_in_smaller_tiers() {
        let counts = vec![100, 1, 50, 2, 75, 3, 60, 4, 90, 5];
        let g = ClientGroups::divide_by_counts(&counts, DivisionRatio::PAPER_DEFAULT);
        // The five smallest counts (1..=5) are at odd indices.
        for u in [1, 3, 5, 7, 9] {
            assert_eq!(g.tier(u), Tier::Small, "user {u}");
        }
        assert_eq!(g.tier(0), Tier::Large);
    }

    #[test]
    fn sizes_always_sum_to_n() {
        for n in [1usize, 2, 3, 7, 10, 99, 1000] {
            let counts: Vec<usize> = (0..n).map(|i| i * 3 % 17).collect();
            for ratio in [
                DivisionRatio::PAPER_DEFAULT,
                DivisionRatio::NEUTRAL,
                DivisionRatio::OPTIMISTIC,
            ] {
                let g = ClientGroups::divide_by_counts(&counts, ratio);
                assert_eq!(
                    g.sizes().iter().sum::<usize>(),
                    n,
                    "n={n} ratio={:?}",
                    ratio
                );
            }
        }
    }

    #[test]
    fn weights_summing_past_u32_divide_by_their_true_total() {
        // u32::MAX + 1 + 0 wrapped to 1 when summed in u32: a debug build
        // panicked restoring this ratio and a release build divided by 1.
        use hf_tensor::ser::parse_json;
        let doc = r#"{"small":4294967295,"medium":1,"large":0}"#;
        let ratio = DivisionRatio::from_json(&parse_json(doc).unwrap()).unwrap();
        assert_eq!(ratio, DivisionRatio::new(u32::MAX, 1, 0));
        let counts: Vec<usize> = (0..100).collect();
        let g = ClientGroups::divide_by_counts(&counts, ratio);
        assert_eq!(g.sizes(), [100, 0, 0]);
        let g = ClientGroups::divide_by_counts(&counts, DivisionRatio::new(1, u32::MAX, u32::MAX));
        assert_eq!(g.sizes(), [0, 50, 50]);
    }

    #[test]
    fn neutral_ratio_splits_evenly() {
        let counts: Vec<usize> = (0..99).collect();
        let g = ClientGroups::divide_by_counts(&counts, DivisionRatio::NEUTRAL);
        assert_eq!(g.sizes(), [33, 33, 33]);
    }

    #[test]
    fn thresholds_bound_the_groups() {
        let counts: Vec<usize> = (0..200).map(|i| i % 97).collect();
        let g = ClientGroups::divide_by_counts(&counts, DivisionRatio::PAPER_DEFAULT);
        let (t_small, t_medium) = g.thresholds;
        for (u, &count) in counts.iter().enumerate() {
            match g.tier(u) {
                Tier::Small => assert!(count <= t_small),
                Tier::Medium => assert!(count <= t_medium),
                Tier::Large => assert!(count >= t_small),
            }
        }
    }

    #[test]
    fn uniform_assignment() {
        let g = ClientGroups::uniform(10, Tier::Large);
        assert_eq!(g.sizes(), [0, 0, 10]);
        assert_eq!(g.members(Tier::Large).len(), 10);
    }

    #[test]
    fn division_is_deterministic_under_ties() {
        let counts = vec![5usize; 30];
        let a = ClientGroups::divide_by_counts(&counts, DivisionRatio::PAPER_DEFAULT);
        let b = ClientGroups::divide_by_counts(&counts, DivisionRatio::PAPER_DEFAULT);
        for u in 0..30 {
            assert_eq!(a.tier(u), b.tier(u));
        }
    }

    #[test]
    fn tier_indices_roundtrip_and_admission_extends() {
        let counts = vec![1usize, 10, 100, 2, 50];
        let mut g = ClientGroups::divide_by_counts(&counts, DivisionRatio::PAPER_DEFAULT);
        let back = ClientGroups::from_tier_indices(&g.tier_indices(), g.thresholds).unwrap();
        for u in 0..counts.len() {
            assert_eq!(g.tier(u), back.tier(u));
        }
        assert!(ClientGroups::from_tier_indices(&[0, 3], (0, 0)).is_err());

        let before: Vec<Tier> = (0..counts.len()).map(|u| g.tier(u)).collect();
        let tier = g.tier_for_count(1);
        assert_eq!(tier, Tier::Small, "one interaction lands in Us");
        let id = g.admit(tier);
        assert_eq!(id, counts.len());
        assert_eq!(g.tier(id), Tier::Small);
        // Admission never re-ranks existing members.
        for (u, &t) in before.iter().enumerate() {
            assert_eq!(g.tier(u), t);
        }
        let (_, t_medium) = g.thresholds;
        assert_eq!(g.tier_for_count(t_medium + 1), Tier::Large);
    }

    #[test]
    fn tier_labels_match_paper() {
        assert_eq!(Tier::Small.label(), "Us");
        assert_eq!(Tier::Medium.label(), "Um");
        assert_eq!(Tier::Large.label(), "Ul");
        assert_eq!(DivisionRatio::PAPER_DEFAULT.label(), "5:3:2");
    }
}
