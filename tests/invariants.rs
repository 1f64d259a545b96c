//! Property-based tests on the workspace's core invariants, driven by the
//! workspace's own seeded generators (no proptest dependency — the build
//! must succeed with an empty cargo registry). These cover the algebraic
//! guarantees the paper's method depends on: the Eq. 10 prefix invariant
//! under arbitrary update streams, aggregation linearity, metric bounds,
//! similarity-matrix geometry, and transport robustness against arbitrary
//! bytes.
//!
//! Each property runs `CASES` independently seeded cases; a failure
//! message carries the case index, so `substream(PROP_SEED,
//! SeedStream::Custom(test_key), case)` reproduces the exact inputs.

use hetefedrec::core::config::TrainConfig;
use hetefedrec::core::server::ServerState;
use hetefedrec::core::strategy::{Ablation, Strategy};
use hetefedrec::fedsim::transport::{ClientUpdate, SparseRowUpdate};
use hetefedrec::metrics::eval::Evaluator;
use hetefedrec::models::ModelKind;
use hetefedrec::prelude::Tier;
use hetefedrec::tensor::rng::{substream, Rng, SeedStream, StdRng};
use hetefedrec::tensor::wire::DecodeError;
use hetefedrec::tensor::RowBlock;
use hetefedrec::tensor::{sim, stats, Matrix};

const ITEMS: usize = 24;
const CASES: u64 = 48;
const PROP_SEED: u64 = 0xC0FFEE;

/// One deterministic RNG per (property, case) pair.
fn case_rng(test_key: u64, case: u64) -> StdRng {
    substream(PROP_SEED, SeedStream::Custom(test_key), case)
}

fn test_cfg() -> TrainConfig {
    TrainConfig::test_default(ModelKind::Ncf)
}

/// Random sparse update at a given tier: 1–5 distinct rows, deltas in
/// (-0.5, 0.5).
fn gen_update(rng: &mut StdRng, tier: Tier) -> (Tier, ClientUpdate) {
    let dim = match tier {
        Tier::Small => 4usize,
        Tier::Medium => 8,
        Tier::Large => 16,
    };
    let n_rows = rng.gen_range(1usize..6);
    let mut rows: Vec<(u32, Vec<f32>)> = (0..n_rows)
        .map(|_| {
            let row = rng.gen_range(0u32..ITEMS as u32);
            let delta: Vec<f32> = (0..dim).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
            (row, delta)
        })
        .collect();
    rows.sort_by_key(|(r, _)| *r);
    rows.dedup_by_key(|(r, _)| *r);
    let mut block = RowBlock::new(dim);
    for (row, delta) in rows {
        block.push(row, delta);
    }
    (
        tier,
        ClientUpdate {
            items: SparseRowUpdate { rows: block },
            thetas: vec![],
        },
    )
}

fn gen_tier(rng: &mut StdRng) -> Tier {
    match rng.gen_range(0usize..3) {
        0 => Tier::Small,
        1 => Tier::Medium,
        _ => Tier::Large,
    }
}

/// Random mixed-tier cohort of 1–7 updates.
fn gen_round(rng: &mut StdRng) -> Vec<(Tier, ClientUpdate)> {
    let n = rng.gen_range(1usize..8);
    (0..n)
        .map(|_| {
            let tier = gen_tier(rng);
            gen_update(rng, tier)
        })
        .collect()
}

/// Sorted, deduplicated vector of `len` draws from `0..ITEMS`.
fn gen_item_set(rng: &mut StdRng, len: usize) -> Vec<u32> {
    let mut v: Vec<u32> = (0..len)
        .map(|_| rng.gen_range(0u32..ITEMS as u32))
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Eq. 10: the prefix equality `Vs = Vm[:Ns] = Vl[:Ns]`, `Vm = Vl[:Nm]`
/// survives ANY sequence of padded-sum aggregation rounds while
/// distillation is off.
#[test]
fn eq10_invariant_under_arbitrary_updates() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let n_rounds = rng.gen_range(1usize..5);
        let mut server =
            ServerState::new(ITEMS, &test_cfg(), Strategy::HeteFedRec(Ablation::NO_RESKD));
        for _ in 0..n_rounds {
            let round = gen_round(&mut rng);
            server.apply_round(&round);
        }
        assert!(
            server.eq10_violation() < 1e-4,
            "case {case}: violation {}",
            server.eq10_violation()
        );
    }
}

/// Aggregation is additive: applying two cohorts in one round equals
/// applying them in two consecutive rounds (plain SGD-sum server).
#[test]
fn aggregation_is_additive() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let a = gen_round(&mut rng);
        let b = gen_round(&mut rng);

        let cfg = test_cfg();
        let strategy = Strategy::HeteFedRec(Ablation::NO_RESKD);
        let mut together = ServerState::new(ITEMS, &cfg, strategy);
        let mut split_rounds = ServerState::new(ITEMS, &cfg, strategy);

        let mut combined = a.clone();
        combined.extend(b.clone());
        together.apply_round(&combined);
        split_rounds.apply_round(&a);
        split_rounds.apply_round(&b);

        for tier in Tier::ALL {
            let x = together.table(tier);
            let y = split_rounds.table(tier);
            let diff = x.sub(y).max_abs();
            // SqrtCount normalisation makes the two orders differ when the
            // same row appears in both cohorts; restrict the check to the
            // linear part by allowing that deviation only if row sets
            // overlap. For disjoint rows the results must match exactly.
            let rows_a: std::collections::HashSet<u32> = a
                .iter()
                .flat_map(|(_, u)| u.items.rows.iter().map(|(&r, _)| r))
                .collect();
            let rows_b: std::collections::HashSet<u32> = b
                .iter()
                .flat_map(|(_, u)| u.items.rows.iter().map(|(&r, _)| r))
                .collect();
            if rows_a.is_disjoint(&rows_b) {
                assert!(diff < 1e-4, "case {case}: {tier:?} diff {diff}");
            }
        }
    }
}

/// Ranking metrics stay within [0, 1] for arbitrary score vectors.
#[test]
fn metric_bounds_hold() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let scores: Vec<f32> = (0..ITEMS)
            .map(|_| rng.gen_range(-100.0f32..100.0))
            .collect();
        let mask_len = rng.gen_range(0usize..4);
        let mask = gen_item_set(&mut rng, mask_len);
        let test_len = rng.gen_range(1usize..4);
        let test = gen_item_set(&mut rng, test_len);
        let ev = Evaluator { k: 5 };
        if let Some(user) = ev.evaluate_user(&scores, &mask, &test) {
            for v in [
                user.recall,
                user.ndcg,
                user.hit_rate,
                user.precision,
                user.mrr,
            ] {
                assert!((0.0..=1.0 + 1e-9).contains(&v), "case {case}: metric {v}");
            }
        }
    }
}

/// Cosine-similarity matrices are symmetric with unit diagonal and
/// entries in [-1, 1], for arbitrary embeddings.
#[test]
fn similarity_matrix_geometry() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let data: Vec<f32> = (0..5 * 6).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let v = Matrix::from_vec(5, 6, data);
        let s = sim::cosine_similarity_matrix(&v);
        for i in 0..5 {
            assert!(
                (s.get(i, i) - 1.0).abs() < 1e-5,
                "case {case}: diag {}",
                s.get(i, i)
            );
            for j in 0..5 {
                assert!(
                    (s.get(i, j) - s.get(j, i)).abs() < 1e-5,
                    "case {case}: asymmetric at ({i},{j})"
                );
                assert!(
                    s.get(i, j) >= -1.0 - 1e-4 && s.get(i, j) <= 1.0 + 1e-4,
                    "case {case}: out of range at ({i},{j}): {}",
                    s.get(i, j)
                );
            }
        }
    }
}

/// The correlation matrix of arbitrary data has entries in [-1, 1]
/// and unit diagonal on non-degenerate columns.
#[test]
fn correlation_matrix_bounds() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let data: Vec<f32> = (0..20 * 4).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
        let m = Matrix::from_vec(20, 4, data);
        // The correlation matrix as DDR forms it: the Gram of the
        // column-standardised data over the row count.
        let mut corr = stats::standardize_columns(&m, 1e-9).gram();
        corr.scale(1.0 / m.rows() as f32);
        let vars = stats::column_variances(&m);
        for (i, &var) in vars.iter().enumerate() {
            if var > 1e-6 {
                assert!(
                    (corr.get(i, i) - 1.0).abs() < 1e-2,
                    "case {case}: diag {}",
                    corr.get(i, i)
                );
            }
            for j in 0..4 {
                assert!(
                    corr.get(i, j).abs() <= 1.0 + 1e-3,
                    "case {case}: corr({i},{j}) = {}",
                    corr.get(i, j)
                );
            }
        }
    }
}

/// Transport decode never panics on arbitrary bytes.
#[test]
fn transport_is_robust() {
    for case in 0..CASES * 4 {
        let mut rng = case_rng(6, case);
        let len = rng.gen_range(0usize..256);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
        let _ = ClientUpdate::decode(bytes);
    }
}

/// Decode also survives *mutated valid* payloads — closer to the hostile
/// inputs a server actually sees than uniform noise — and whatever it
/// still accepts re-encodes to the bytes it was given, while every strict
/// prefix fails with exactly `Truncated` (the workspace's one codec
/// harness, over tier-shaped updates).
#[test]
fn transport_survives_bit_flips() {
    hetefedrec::tensor::wire::fuzz_codec(
        PROP_SEED,
        CASES as usize,
        |rng| {
            let tier = gen_tier(rng);
            gen_update(rng, tier).1.encode()
        },
        |wire| ClientUpdate::decode(wire).map(|u| u.encode()),
        |e| *e == DecodeError::Truncated,
    );
}

/// Valid payloads roundtrip exactly at every tier.
#[test]
fn transport_roundtrip() {
    for case in 0..CASES {
        let mut rng = case_rng(8, case);
        let tier = gen_tier(&mut rng);
        let (_, u) = gen_update(&mut rng, tier);
        let decoded = ClientUpdate::decode(u.encode()).expect("valid payload");
        assert_eq!(u, decoded, "case {case}");
    }
}

/// Dataset splits always partition each user's items.
#[test]
fn split_partitions_users() {
    for case in 0..CASES {
        let mut rng = case_rng(9, case);
        let seed = rng.gen_range(0u64..500);
        let data = hetefedrec::dataset::SyntheticConfig {
            num_users: 12,
            num_items: 40,
            median_interactions: 6.0,
            mean_interactions: 9.0,
            min_interactions: 3,
            latent_dim: 4,
            num_clusters: 2,
            cluster_spread: 0.3,
            zipf_exponent: 0.5,
            popularity_weight: 0.3,
            temperature: 0.5,
        }
        .generate(seed);
        let split = hetefedrec::dataset::SplitDataset::paper_split(&data, seed);
        for (u, s) in split.iter_users() {
            let mut all: Vec<u32> = s
                .train
                .iter()
                .chain(s.valid)
                .chain(s.test)
                .copied()
                .collect();
            all.sort_unstable();
            assert_eq!(
                all.as_slice(),
                data.user(u).items(),
                "case {case} (seed {seed}): user {u} not partitioned"
            );
            assert!(
                !s.train.is_empty(),
                "case {case} (seed {seed}): user {u} train empty"
            );
        }
    }
}

/// Client division always partitions the population with small-tier data
/// counts never exceeding large-tier ones.
#[test]
fn division_is_a_partition() {
    for case in 0..CASES {
        let mut rng = case_rng(10, case);
        let n = rng.gen_range(3usize..60);
        let counts: Vec<usize> = (0..n).map(|_| rng.gen_range(0usize..500)).collect();
        let (sw, mw, lw) = (
            rng.gen_range(1u32..6),
            rng.gen_range(1u32..6),
            rng.gen_range(1u32..6),
        );
        let ratio = hetefedrec::dataset::DivisionRatio::new(sw, mw, lw);
        let groups = hetefedrec::dataset::ClientGroups::divide_by_counts(&counts, ratio);
        assert_eq!(
            groups.sizes().iter().sum::<usize>(),
            counts.len(),
            "case {case}: not a partition"
        );
        let smalls: Vec<usize> = groups
            .members(Tier::Small)
            .iter()
            .map(|&u| counts[u])
            .collect();
        let larges: Vec<usize> = groups
            .members(Tier::Large)
            .iter()
            .map(|&u| counts[u])
            .collect();
        if let (Some(&max_s), Some(&min_l)) = (smalls.iter().max(), larges.iter().min()) {
            assert!(
                max_s <= min_l,
                "case {case}: small max {max_s} > large min {min_l}"
            );
        }
    }
}
