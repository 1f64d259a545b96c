//! Training strategies: HeteFedRec, its ablations, and the six baselines
//! of §V-C.

use hf_dataset::{ClientGroups, DivisionRatio, SplitDataset, Tier};

/// Ablation switches over HeteFedRec's three components (Table IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ablation {
    /// Unified dual-task learning (Eq. 11).
    pub udl: bool,
    /// Dimensional decorrelation regularization (Eq. 13–14).
    pub ddr: bool,
    /// Relation-based ensemble self-distillation (Eq. 16–17).
    pub reskd: bool,
}

impl Ablation {
    /// Full HeteFedRec.
    pub const FULL: Ablation = Ablation {
        udl: true,
        ddr: true,
        reskd: true,
    };
    /// Table IV row "- RESKD".
    pub const NO_RESKD: Ablation = Ablation {
        udl: true,
        ddr: true,
        reskd: false,
    };
    /// Table IV row "- RESKD, DDR".
    pub const NO_RESKD_DDR: Ablation = Ablation {
        udl: true,
        ddr: false,
        reskd: false,
    };
    /// Table IV row "- RESKD, DDR, UDL" (equivalent to Directly Aggregate).
    pub const NONE: Ablation = Ablation {
        udl: false,
        ddr: false,
        reskd: false,
    };
}

/// A training strategy: HeteFedRec or one of the paper's baselines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// The paper's method, with ablation switches (full = all on).
    HeteFedRec(Ablation),
    /// Homogeneous: every client trains the small model.
    AllSmall,
    /// Homogeneous: every client trains the large model.
    AllLarge,
    /// Homogeneous large, but only `Um ∪ Ul` clients' updates aggregate.
    AllLargeExclusive,
    /// Heterogeneous sizes, no collaboration at all.
    Standalone,
    /// Heterogeneous sizes, aggregation only within each tier
    /// (clustered federated learning applied to FedRecs).
    ClusteredFedRec,
    /// Heterogeneous sizes, naive padded aggregation without UDL/DDR/RESKD.
    DirectlyAggregate,
}

impl Strategy {
    /// Every strategy in the paper's Table II order.
    pub const ALL: [Strategy; 7] = [
        Strategy::AllSmall,
        Strategy::AllLarge,
        Strategy::AllLargeExclusive,
        Strategy::Standalone,
        Strategy::ClusteredFedRec,
        Strategy::DirectlyAggregate,
        Strategy::HeteFedRec(Ablation::FULL),
    ];

    /// Paper-style display name.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::HeteFedRec(Ablation::FULL) => "HeteFedRec(Ours)",
            Strategy::HeteFedRec(_) => "HeteFedRec(ablated)",
            Strategy::AllSmall => "All Small",
            Strategy::AllLarge => "All Large",
            Strategy::AllLargeExclusive => "All Large/Exclusive",
            Strategy::Standalone => "Standalone",
            Strategy::ClusteredFedRec => "Clustered FedRec",
            Strategy::DirectlyAggregate => "Directly Aggregate",
        }
    }

    /// Whether the paper classifies this as a heterogeneous method.
    pub fn is_heterogeneous(self) -> bool {
        !matches!(
            self,
            Strategy::AllSmall | Strategy::AllLarge | Strategy::AllLargeExclusive
        )
    }

    /// The effective ablation switches (baselines run everything off).
    pub fn ablation(self) -> Ablation {
        match self {
            Strategy::HeteFedRec(a) => a,
            _ => Ablation::NONE,
        }
    }

    /// The one model tier a homogeneous strategy gives every client,
    /// admitted ones included (the paper calls these the `10:0:0` /
    /// `0:0:10` divisions); `None` when tiers follow the data division.
    pub fn pinned_tier(self) -> Option<Tier> {
        match self {
            Strategy::AllSmall => Some(Tier::Small),
            Strategy::AllLarge => Some(Tier::Large),
            _ => None,
        }
    }

    /// Assigns every client its model tier: the
    /// [`Strategy::pinned_tier`] when there is one, otherwise the division
    /// by training-data size under `ratio`. `AllLargeExclusive` models
    /// everyone as Large but still *divides* internally — the division
    /// defines whose updates are accepted.
    pub fn assign_tiers(self, split: &SplitDataset, ratio: DivisionRatio) -> ClientGroups {
        match self.pinned_tier() {
            Some(tier) => ClientGroups::uniform(split.num_users(), tier),
            None => ClientGroups::divide(split, ratio),
        }
    }

    /// Whether `client_tier`'s upload participates in aggregation.
    pub fn accepts_update(self, data_tier: Tier) -> bool {
        match self {
            Strategy::AllLargeExclusive => data_tier != Tier::Small,
            Strategy::Standalone => false,
            _ => true,
        }
    }

    /// Whether item-embedding aggregation crosses tiers (padded sum) or
    /// stays within each tier.
    pub fn aggregates_across_tiers(self) -> bool {
        matches!(
            self,
            Strategy::HeteFedRec(_)
                | Strategy::DirectlyAggregate
                | Strategy::AllSmall
                | Strategy::AllLarge
                | Strategy::AllLargeExclusive
        )
    }
}

impl hf_tensor::ser::ToJson for Ablation {
    fn write_json(&self, out: &mut String) {
        hf_tensor::ser::obj(out, |o| {
            o.field("udl", &self.udl)
                .field("ddr", &self.ddr)
                .field("reskd", &self.reskd);
        });
    }
}

impl Ablation {
    /// Restores checkpointed ablation switches.
    pub fn from_json(v: &hf_tensor::ser::JsonValue<'_>) -> Result<Self, hf_tensor::ser::JsonError> {
        Ok(Self {
            udl: v.get("udl")?.as_bool()?,
            ddr: v.get("ddr")?.as_bool()?,
            reskd: v.get("reskd")?.as_bool()?,
        })
    }
}

impl hf_tensor::ser::ToJson for Strategy {
    fn write_json(&self, out: &mut String) {
        hf_tensor::ser::obj(out, |o| {
            match self {
                Strategy::HeteFedRec(a) => o.field("kind", &"hetefedrec").field("ablation", a),
                Strategy::AllSmall => o.field("kind", &"all_small"),
                Strategy::AllLarge => o.field("kind", &"all_large"),
                Strategy::AllLargeExclusive => o.field("kind", &"all_large_exclusive"),
                Strategy::Standalone => o.field("kind", &"standalone"),
                Strategy::ClusteredFedRec => o.field("kind", &"clustered_fedrec"),
                Strategy::DirectlyAggregate => o.field("kind", &"directly_aggregate"),
            };
        });
    }
}

impl Strategy {
    /// Restores a checkpointed strategy.
    pub fn from_json(v: &hf_tensor::ser::JsonValue<'_>) -> Result<Self, hf_tensor::ser::JsonError> {
        let kind = v.get("kind")?.as_str()?;
        Ok(match kind {
            "hetefedrec" => Strategy::HeteFedRec(Ablation::from_json(v.get("ablation")?)?),
            "all_small" => Strategy::AllSmall,
            "all_large" => Strategy::AllLarge,
            "all_large_exclusive" => Strategy::AllLargeExclusive,
            "standalone" => Strategy::Standalone,
            "clustered_fedrec" => Strategy::ClusteredFedRec,
            "directly_aggregate" => Strategy::DirectlyAggregate,
            other => {
                return Err(hf_tensor::ser::JsonError::msg(format!(
                    "unknown strategy kind `{other}`"
                )))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_dataset::SyntheticConfig;

    fn split() -> SplitDataset {
        let d = SyntheticConfig::tiny().generate(1);
        SplitDataset::paper_split(&d, 1)
    }

    #[test]
    fn table_ii_ordering_and_names() {
        let names: Vec<&str> = Strategy::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "All Small",
                "All Large",
                "All Large/Exclusive",
                "Standalone",
                "Clustered FedRec",
                "Directly Aggregate",
                "HeteFedRec(Ours)"
            ]
        );
    }

    #[test]
    fn homogeneous_vs_heterogeneous_classification() {
        assert!(!Strategy::AllSmall.is_heterogeneous());
        assert!(!Strategy::AllLargeExclusive.is_heterogeneous());
        assert!(Strategy::Standalone.is_heterogeneous());
        assert!(Strategy::HeteFedRec(Ablation::FULL).is_heterogeneous());
    }

    #[test]
    fn all_small_pins_small_tier() {
        let s = split();
        let g = Strategy::AllSmall.assign_tiers(&s, DivisionRatio::PAPER_DEFAULT);
        assert_eq!(g.sizes(), [s.num_users(), 0, 0]);
    }

    #[test]
    fn hetefedrec_divides_5_3_2() {
        let s = split();
        let g = Strategy::HeteFedRec(Ablation::FULL).assign_tiers(&s, DivisionRatio::PAPER_DEFAULT);
        let [small, medium, large] = g.sizes();
        let n = s.num_users();
        assert!(small > medium && medium > large, "{small} {medium} {large}");
        assert_eq!(small + medium + large, n);
    }

    #[test]
    fn exclusive_rejects_small_data_clients() {
        let st = Strategy::AllLargeExclusive;
        assert!(!st.accepts_update(Tier::Small));
        assert!(st.accepts_update(Tier::Medium));
        assert!(st.accepts_update(Tier::Large));
    }

    #[test]
    fn standalone_rejects_everything() {
        for t in Tier::ALL {
            assert!(!Strategy::Standalone.accepts_update(t));
        }
    }

    #[test]
    fn direct_aggregate_equals_fully_ablated_hetefedrec() {
        assert_eq!(Strategy::DirectlyAggregate.ablation(), Ablation::NONE);
        assert_eq!(
            Strategy::HeteFedRec(Ablation::NONE).ablation(),
            Ablation::NONE
        );
        assert!(Strategy::DirectlyAggregate.aggregates_across_tiers());
    }

    #[test]
    fn clustered_does_not_cross_tiers() {
        assert!(!Strategy::ClusteredFedRec.aggregates_across_tiers());
        assert!(Strategy::HeteFedRec(Ablation::FULL).aggregates_across_tiers());
    }

    #[test]
    fn strategies_roundtrip_through_json() {
        use hf_tensor::ser::{parse_json, ToJson};
        let mut all = Strategy::ALL.to_vec();
        all.push(Strategy::HeteFedRec(Ablation::NO_RESKD_DDR));
        for s in all {
            let back = Strategy::from_json(&parse_json(&s.to_json()).unwrap()).unwrap();
            assert_eq!(back, s);
        }
        assert!(Strategy::from_json(&parse_json(r#"{"kind":"bogus"}"#).unwrap()).is_err());
    }
}
