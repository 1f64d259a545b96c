//! Malformed-artifact property test: no `HFAB` buffer, however mangled,
//! may panic either reader at open — and anything the eager decoder
//! accepts, the lazy open accepts too, and both re-encode to exactly the
//! bytes they were given.
//!
//! Same shape as `hf_net`'s `frame_fuzz`: take the committed golden
//! files (a synthesized artifact, one whose users carry private
//! `SoloModel`s, and the frozen v1 container), then attack each with
//! seeded truncations and 1–3-byte mutations through **both** entry
//! points, `from_bytes` and `load_file_lazy`.

use hf_serve::{LazyConfig, ModelArtifact};
use hf_tensor::rng::{stream, Rng, SeedStream};

const FUZZ_SEED: u64 = 0x4846_4142; // "HFAB"

const V1: &[u8] = include_bytes!("fixtures/artifact_v1.hfa");
const V2: &[u8] = include_bytes!("fixtures/artifact_v2.hfa");
const V2_SOLO: &[u8] = include_bytes!("fixtures/artifact_v2_solo.hfa");

/// Opens `bytes` through both readers. An eager accept obliges the lazy
/// open to accept as well; the return is the eager verdict plus both
/// re-encodings when it accepted.
fn open_both(bytes: &[u8], path: &std::path::Path) -> Option<(Vec<u8>, Vec<u8>)> {
    std::fs::write(path, bytes).unwrap();
    let lazy = ModelArtifact::load_file_lazy(path, LazyConfig::default());
    let eager = ModelArtifact::from_bytes(bytes).ok()?;
    let lazy = lazy.expect("the lazy open must accept whatever the eager decoder accepts");
    Some((eager.to_bytes(), lazy.to_bytes()))
}

#[test]
fn seeded_mutations_never_panic_and_accepts_are_canonical_through_both_readers() {
    let dir = std::env::temp_dir().join(format!("hf_artifact_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mutated.hfa");
    let mut rng = stream(FUZZ_SEED, SeedStream::Custom(1));
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for golden in [V2, V2_SOLO, V1] {
        // Every strict prefix is rejected (section lengths are exact).
        for _ in 0..150 {
            let cut = rng.gen_range(0..golden.len());
            assert!(
                open_both(&golden[..cut], &path).is_none(),
                "cut at {cut} must be rejected"
            );
        }
        for _ in 0..600 {
            let mut mutated = golden.to_vec();
            // 1-3 random byte flips, biased toward the structure-dense
            // first kilobyte half the time.
            for _ in 0..rng.gen_range(1..4usize) {
                let span = if rng.gen_bool(0.5) {
                    mutated.len().min(1024)
                } else {
                    mutated.len()
                };
                let pos = rng.gen_range(0..span);
                mutated[pos] ^= rng.gen_range(1..=255u32) as u8;
            }
            match open_both(&mutated, &path) {
                Some((eager, lazy)) => {
                    accepted += 1;
                    assert!(eager == lazy, "eager and lazy re-encodings differ");
                    // v1 re-encodes as v2, so only v2 inputs are fixpoints.
                    if golden[4] == 2 {
                        assert!(eager == mutated, "accepted a non-canonical mutation");
                    }
                }
                None => rejected += 1, // typed error: exactly the contract
            }
        }
    }
    // Both outcomes must actually occur, or the test is vacuous: flips
    // in float payloads decode fine, flips in structure get rejected.
    assert!(accepted > 0, "no mutation was ever accepted");
    assert!(rejected > 0, "no mutation was ever rejected");
    std::fs::remove_dir_all(&dir).ok();
}
