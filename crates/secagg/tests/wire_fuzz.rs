//! Malformed-buffer property tests for the secagg wire messages: both
//! go through the workspace's one seeded mutation harness
//! (`hf_tensor::wire::fuzz_codec`, shared with `hf_net`'s `frame_fuzz`)
//! — no truncation or byte corruption may panic the decoders, and
//! anything they accept must re-encode canonically; both encodings are
//! length-exact, so every strict prefix fails with exactly
//! [`DecodeError::Truncated`]. The cases only these messages have
//! (hostile word counts, the `Trailing` count) follow.

use hf_secagg::{MaskedUpload, ShareBundle};
use hf_tensor::rng::{stream, Rng, SeedStream};
use hf_tensor::wire::{fuzz_codec, DecodeError};

const FUZZ_SEED: u64 = 0x5341_5746; // "SAWF"

fn random_upload(rng: &mut impl Rng) -> MaskedUpload {
    let n = rng.gen_range(0usize..24);
    MaskedUpload {
        round: rng.gen_range(0..1_000u64),
        uid: rng.gen_range(0..1_000_000u64),
        words: (0..n).map(|_| rng.gen()).collect(),
    }
}

fn random_share(rng: &mut impl Rng) -> ShareBundle {
    let owner = rng.gen_range(0..1_000u64);
    ShareBundle {
        round: rng.gen_range(0..1_000u64),
        owner,
        holder: owner + 1 + rng.gen_range(0..1_000u64),
        x: rng.gen_range(1..=255u32) as u8,
        word: rng.gen(),
    }
}

#[test]
fn seeded_truncations_and_mutations_fail_typed_or_decode_canonically() {
    // A prefix reads the valid tag, ids and count, so it can only run
    // out of bytes; flips in ring words travel as data, flips in the tag
    // or count get rejected.
    let prefix_error = |e: &DecodeError| *e == DecodeError::Truncated;
    fuzz_codec(
        FUZZ_SEED,
        150,
        |rng| {
            let upload = random_upload(rng);
            let buf = upload.encode();
            assert_eq!(buf.len(), MaskedUpload::encoded_len_for(upload.words.len()));
            assert_eq!(MaskedUpload::decode(&buf), Ok(upload));
            buf
        },
        |buf| MaskedUpload::decode(buf).map(|m| m.encode()),
        prefix_error,
    );
    fuzz_codec(
        FUZZ_SEED + 1,
        150,
        |rng| {
            let share = random_share(rng);
            let buf = share.encode();
            assert_eq!(ShareBundle::decode(&buf), Ok(share));
            buf
        },
        |buf| ShareBundle::decode(buf).map(|s| s.encode()),
        prefix_error,
    );
}

#[test]
fn hostile_word_counts_fail_before_allocating() {
    let mut rng = stream(FUZZ_SEED, SeedStream::Custom(3));
    for _ in 0..200 {
        let upload = MaskedUpload {
            round: rng.gen(),
            uid: rng.gen(),
            words: vec![],
        };
        let mut buf = upload.encode();
        // Claim an enormous word count with no bytes behind it.
        let claimed: u32 = rng.gen_range(1_000_000..=u32::MAX);
        buf[17..21].copy_from_slice(&claimed.to_le_bytes());
        buf.extend((0..rng.gen_range(0..32usize)).map(|_| rng.gen_range(0..=255u32) as u8));
        assert_eq!(MaskedUpload::decode(&buf), Err(DecodeError::Truncated));
    }
}

#[test]
fn trailing_garbage_is_a_typed_error() {
    let mut rng = stream(FUZZ_SEED, SeedStream::Custom(4));
    let trailing = DecodeError::Trailing { extra: 1 };
    let mut buf = random_upload(&mut rng).encode();
    buf.push(0x55);
    assert_eq!(MaskedUpload::decode(&buf), Err(trailing));
    let mut buf = random_share(&mut rng).encode();
    buf.push(0x55);
    assert_eq!(ShareBundle::decode(&buf), Err(trailing));
}
