//! Malformed-artifact property test: no `HFAB` buffer, however mangled,
//! may panic any reader at open — and anything the eager decoder
//! accepts from a slice it accepts from a file, the lazy open accepts
//! too, and all three re-encode to exactly the bytes they were given.
//!
//! The committed golden files (a synthesized artifact, and one whose
//! users carry private `SoloModel`s) go through
//! the workspace's one seeded mutation harness
//! (`hf_tensor::wire::fuzz_codec`, shared with `hf_net`'s `frame_fuzz`)
//! by all **three** entry points at once: the eager reader over both its
//! sources — `from_bytes` (a slice) and `load_file` (a read window over
//! the file; one decoder, so a cut or a flip must land the same way) —
//! and the lazy reader, `load_file_lazy`.

use hf_serve::{LazyConfig, ModelArtifact, ServeError};
use hf_tensor::wire::fuzz_codec;

const FUZZ_SEED: u64 = 0x4846_4142; // "HFAB"

const V3: &[u8] = include_bytes!("fixtures/artifact_v3.hfa");
const V3_SOLO: &[u8] = include_bytes!("fixtures/artifact_v3_solo.hfa");

#[test]
fn seeded_mutations_never_panic_and_accepts_are_canonical_through_both_readers() {
    let dir = std::env::temp_dir().join(format!("hf_artifact_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mutated.hfa");
    let mut goldens = [V3, V3_SOLO].into_iter().cycle();
    fuzz_codec(
        FUZZ_SEED,
        45,
        |_| goldens.next().expect("cycle").to_vec(),
        // Opens the bytes through every reader: the file decoder must
        // agree with the slice decoder either way, an eager accept
        // obliges the lazy open to accept as well, and all three must
        // re-encode alike.
        |bytes| -> Result<Vec<u8>, ServeError> {
            std::fs::write(&path, bytes).unwrap();
            let lazy = ModelArtifact::load_file_lazy(&path, LazyConfig::default());
            let file = ModelArtifact::load_file(&path);
            let eager = match ModelArtifact::from_bytes(bytes) {
                Ok(eager) => eager.to_bytes(),
                Err(e) => {
                    assert!(file.is_err(), "load_file accepted what from_bytes rejected");
                    return Err(e);
                }
            };
            let file = file.expect("load_file must accept whatever from_bytes accepts");
            let lazy = lazy.expect("the lazy open must accept whatever the eager decoder accepts");
            assert!(
                eager == file.to_bytes(),
                "slice and file re-encodings differ"
            );
            assert!(
                eager == lazy.to_bytes(),
                "eager and lazy re-encodings differ"
            );
            Ok(eager)
        },
        |_| true,
    );
    std::fs::remove_dir_all(&dir).ok();
}
