//! Back-compat contract: v1 `HFAB` artifacts written by older releases
//! must keep loading, and must survive re-encoding as v2 with nothing
//! lost — the fixture under `tests/fixtures/` is a frozen v1 byte
//! stream, so this test fails if the v1 reader drifts. (The v1 writer
//! that produced it no longer exists; the file is the only source.)

use hetefedrec_core::config::TierDims;
use hf_dataset::SyntheticProfile;
use hf_serve::{LazyConfig, ModelArtifact, RecommendRequest, RecommenderBuilder};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/artifact_v1.hfa"
);

/// The artifact the committed fixture was generated from (small enough
/// to keep the fixture a few tens of KiB, deterministic by seed).
fn fixture_source() -> ModelArtifact {
    ModelArtifact::synthesize(
        &SyntheticProfile::new(48, 120),
        TierDims::new(4, 8, 16),
        2024,
    )
    .expect("fixture profile synthesizes")
}

#[test]
fn v1_fixture_loads_and_reencodes_bit_identically_as_v2() {
    let from_v1 = ModelArtifact::load_file(FIXTURE).expect("v1 fixture loads");
    let source = fixture_source();

    // The decoded v1 document carries the same state the encoder saw...
    assert_eq!(from_v1.num_users(), source.num_users());
    assert_eq!(from_v1.num_items(), source.num_items());
    assert_eq!(
        from_v1.to_bytes(),
        source.to_bytes(),
        "v1 → v2 re-encode drifted"
    );

    // ...and a save_file → load_file round trip through the current (v2)
    // container reproduces it byte for byte, eagerly and lazily.
    let dir = std::env::temp_dir().join(format!("hf_backcompat_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let reencoded = dir.join("reencoded.hfa");
    from_v1.save_file(&reencoded).expect("save as v2");
    let eager = ModelArtifact::load_file(&reencoded).expect("v2 reload");
    let lazy = ModelArtifact::load_file_lazy(&reencoded, LazyConfig::default()).expect("v2 lazy");
    assert!(lazy.is_lazy());
    assert_eq!(from_v1.to_bytes(), eager.to_bytes());
    assert_eq!(from_v1.to_bytes(), lazy.to_bytes());

    // Rankings are bit-identical across the v1 and v2 loads.
    let reqs: Vec<_> = (0..from_v1.num_users())
        .map(RecommendRequest::new)
        .collect();
    let serve = |a: ModelArtifact| {
        RecommenderBuilder::new(a)
            .default_k(8)
            .panel_items(32)
            .build()
            .unwrap()
            .recommend_batch(&reqs)
    };
    let want = serve(from_v1);
    for got in [serve(eager), serve(lazy)] {
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.items.len(), b.items.len());
            for (x, y) in a.items.iter().zip(&b.items) {
                assert_eq!(x.item, y.item, "user {}", a.user);
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "user {}", a.user);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
