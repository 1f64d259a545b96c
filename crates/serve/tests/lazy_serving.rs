//! The capacity determinism contract: lazy, tiled, and sharded serving
//! paths must produce **bit-identical** rankings to the eager path,
//! across thread counts, while actually bounding what is resident.

use hetefedrec_core::config::TierDims;
use hf_dataset::SyntheticProfile;
use hf_serve::{
    ItemHalfMode, LazyConfig, ModelArtifact, RecommendRequest, RecommenderBuilder, ServeError,
};
use std::sync::Arc;

fn synth_file(users: usize, items: usize, seed: u64, name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hf_lazy_serving_{}", std::process::id()));
    let path = dir.join(name);
    let profile = SyntheticProfile::new(users, items);
    ModelArtifact::synthesize_to_file(&profile, TierDims::new(4, 8, 16), seed, &path)
        .expect("synthesize");
    path
}

fn requests(num_users: usize) -> Vec<RecommendRequest> {
    (0..num_users)
        .step_by(7)
        .map(RecommendRequest::new)
        .chain([RecommendRequest::new(usize::MAX)]) // cold start in the mix
        .collect()
}

fn assert_bit_identical(
    a: &[hf_serve::RecommendResponse],
    b: &[hf_serve::RecommendResponse],
    label: &str,
) {
    assert_eq!(a.len(), b.len(), "{label}");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.user, y.user, "{label}");
        assert_eq!(x.tier, y.tier, "{label}");
        assert_eq!(x.cold_start, y.cold_start, "{label}");
        assert_eq!(x.items.len(), y.items.len(), "{label} user {}", x.user);
        for (i, j) in x.items.iter().zip(&y.items) {
            assert_eq!(i.item, j.item, "{label} user {}", x.user);
            assert_eq!(
                i.score.to_bits(),
                j.score.to_bits(),
                "{label} user {} item {}",
                x.user,
                i.item
            );
        }
    }
}

#[test]
fn lazy_tiled_sharded_paths_match_eager_bitwise_across_threads() {
    let path = synth_file(300, 500, 21, "invariance.hfa");
    let reqs = requests(300);

    // Reference: eager artifact, precomputed halves, one thread.
    let eager = ModelArtifact::load_file(&path).expect("eager load");
    assert!(!eager.is_lazy());
    let reference = RecommenderBuilder::new(eager)
        .default_k(9)
        .panel_items(64)
        .build()
        .expect("reference build")
        .recommend_batch(&reqs);

    // Item-half tiles the batch touches: eight 64-item panels for every
    // tier it serves.
    let tiers: std::collections::HashSet<_> = reference.iter().map(|r| r.tier.index()).collect();
    let touched = tiers.len() * 500usize.div_ceil(64);

    // A tiny user cache forces constant eviction and re-decode mid-batch
    // (three shards of two records); the tile budgets run from below one
    // tier's panel count to more than the catalogue holds.
    let tiny = LazyConfig {
        user_shards: 3,
        shard_capacity: 2,
    };
    let modes = [
        ("precomputed", ItemHalfMode::Precomputed),
        ("tiled", ItemHalfMode::Tiled { max_panels: 3 }),
        ("tiled/1", ItemHalfMode::Tiled { max_panels: 1 }),
        ("tiled/all", ItemHalfMode::Tiled { max_panels: 1_000 }),
    ];
    for (mode_name, mode) in modes {
        for threads in [1usize, 2, 8] {
            let lazy = ModelArtifact::load_file_lazy(&path, tiny).expect("lazy load");
            assert!(lazy.is_lazy());
            assert_eq!(lazy.cached_user_records(), 0, "nothing touched yet");
            let r = RecommenderBuilder::new(lazy)
                .default_k(9)
                .panel_items(64)
                .threads(threads)
                .item_half_mode(mode)
                .build()
                .expect("lazy build");
            let got = r.recommend_batch(&reqs);
            assert_bit_identical(&reference, &got, &format!("{mode_name}/{threads} threads"));
            // The resident bound holds: at most shards × capacity records.
            assert!(
                r.artifact().cached_user_records() <= 3 * 2,
                "{mode_name}/{threads}: {} records resident",
                r.artifact().cached_user_records()
            );
            // Once warm the store holds its budget or everything asked
            // of it, whichever is smaller — exactly, at any thread count.
            if let ItemHalfMode::Tiled { max_panels } = mode {
                assert_eq!(
                    r.cached_item_half_panels(),
                    max_panels.min(touched),
                    "{mode_name}/{threads}: tiles resident"
                );
                let again = r.recommend_batch(&reqs);
                assert_bit_identical(&reference, &again, &format!("{mode_name} warm"));
                assert_eq!(r.cached_item_half_panels(), max_panels.min(touched));
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn eager_tiled_matches_eager_precomputed() {
    // Tiling is independent of the artifact backend.
    let path = synth_file(120, 300, 5, "tiled_eager.hfa");
    let reqs = requests(120);
    let reference = RecommenderBuilder::new(ModelArtifact::load_file(&path).unwrap())
        .default_k(6)
        .panel_items(50)
        .build()
        .unwrap()
        .recommend_batch(&reqs);
    let tiled = RecommenderBuilder::new(ModelArtifact::load_file(&path).unwrap())
        .default_k(6)
        .panel_items(50)
        .item_half_mode(ItemHalfMode::Tiled { max_panels: 1 })
        .build()
        .unwrap();
    assert_bit_identical(&reference, &tiled.recommend_batch(&reqs), "eager tiled");
    assert!(tiled.cached_item_half_panels() <= 1);
    std::fs::remove_file(&path).ok();
}

#[test]
fn lazy_artifact_reencodes_bit_identically() {
    // to_bytes() on a lazy artifact streams every record through the
    // bounded store and must reproduce the eager encoder's bytes.
    let path = synth_file(90, 150, 13, "reencode.hfa");
    let eager = ModelArtifact::load_file(&path).unwrap();
    let lazy = ModelArtifact::load_file_lazy(
        &path,
        LazyConfig {
            user_shards: 2,
            shard_capacity: 3,
        },
    )
    .unwrap();
    assert_eq!(eager.to_bytes(), lazy.to_bytes());
    assert_eq!(eager.num_users(), lazy.num_users());
    assert_eq!(eager.num_items(), lazy.num_items());
    std::fs::remove_file(&path).ok();
}

#[test]
fn reencoding_a_lazy_artifact_leaves_its_user_cache_alone() {
    // A cache far smaller than the population: walking every user
    // through it would evict all four touched records.
    let path = synth_file(90, 150, 29, "hotset.hfa");
    let cfg = LazyConfig {
        user_shards: 2,
        shard_capacity: 2,
    };
    let lazy = ModelArtifact::load_file_lazy(&path, cfg).unwrap();
    let held = |user: usize| lazy.user(user).expect("known user");
    let hot: Vec<_> = (0..4).map(|u| (u, held(u))).collect();
    assert_eq!(lazy.cached_user_records(), 4);

    let dir = path.parent().unwrap();
    assert!(lazy.to_bytes() == std::fs::read(&path).unwrap());
    lazy.save_file(dir.join("hotset_copy.hfa")).expect("saved");

    assert_eq!(
        lazy.cached_user_records(),
        4,
        "the re-encode moved the cache"
    );
    for (user, record) in &hot {
        assert!(
            Arc::ptr_eq(record, &held(*user)),
            "user {user} was evicted by the re-encode"
        );
    }
    std::fs::remove_file(dir.join("hotset_copy.hfa")).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn lazy_touch_tracking_is_bounded_by_what_requests_touch() {
    let path = synth_file(400, 200, 3, "touched.hfa");
    let lazy = ModelArtifact::load_file_lazy(&path, LazyConfig::default()).unwrap();
    let r = RecommenderBuilder::new(lazy)
        .default_k(5)
        .item_half_mode(ItemHalfMode::Tiled { max_panels: 8 })
        .build()
        .unwrap();
    // Serve 10 distinct users: at most 10 records decode (default caches
    // are far larger than 10, so nothing evicts either).
    let reqs: Vec<_> = (0..10).map(RecommendRequest::new).collect();
    let _ = r.recommend_batch(&reqs);
    let cached = r.artifact().cached_user_records();
    assert!(
        (1..=10).contains(&cached),
        "10 users touched but {cached} records resident"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn lazy_open_validates_config_and_path() {
    let path = synth_file(20, 60, 1, "cfgcheck.hfa");
    for (cfg, field) in [
        (
            LazyConfig {
                user_shards: 0,
                shard_capacity: 4,
            },
            "user_shards",
        ),
        (
            LazyConfig {
                user_shards: 4,
                shard_capacity: 0,
            },
            "shard_capacity",
        ),
    ] {
        match ModelArtifact::load_file_lazy(&path, cfg) {
            Err(ServeError::Config { field: f, .. }) => assert_eq!(f, field),
            other => panic!("expected Config error for {field}, got {other:?}"),
        }
    }
    assert!(ModelArtifact::load_file_lazy("/nonexistent/x.hfa", LazyConfig::default()).is_err());
    std::fs::remove_file(&path).ok();
}
