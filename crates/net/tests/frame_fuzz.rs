//! Malformed-frame property test: no buffer, however mangled, may panic
//! the decoder — and anything it *does* accept must be canonical.
//!
//! Strategy: a corpus of valid frames of every kind (with RNG-driven
//! field values) goes through the workspace's one seeded mutation
//! harness, `hf_tensor::wire::fuzz_codec` — every strict prefix must
//! fail with exactly [`DecodeError::Truncated`] (the encoding is
//! length-exact and a prefix reads the valid header, so it can only run
//! out of bytes), and a byte-flipped copy must either fail with a typed
//! [`DecodeError`] or re-encode to the mutated buffer bit for bit.
//! What only this codec has stays here: the over-long error message
//! and **hostile prefixes** — random oversized/undersized outer length
//! prefixes fed through the stream reader must fail before allocating.

use hf_dataset::Tier;
use hf_net::{Frame, NetError, WireError, WireRequest, WireResponse};
use hf_serve::ScoredItem;
use hf_tensor::rng::{stream, Rng, SeedStream};
use hf_tensor::wire::{fuzz_codec, DecodeError};

const FUZZ_SEED: u64 = 0x4652_414d; // "FRAM"

/// A valid frame with RNG-driven field values.
fn random_frame(rng: &mut impl Rng) -> Frame {
    match rng.gen_range(0..8u32) {
        0 => {
            let mut request = WireRequest::new(rng.gen(), rng.gen_range(0..1_000_000u64));
            request.k = rng.gen_range(0..100u32);
            request.exclude_seen = rng.gen_bool(0.5);
            request.min_popularity = rng.gen_range(0..5u32);
            let n = rng.gen_range(0..8usize);
            request.exclude = (0..n).map(|_| rng.gen_range(0..10_000u32)).collect();
            Frame::Request(request)
        }
        1 => {
            let n = rng.gen_range(0..12usize);
            Frame::Response(WireResponse {
                id: rng.gen(),
                user: rng.gen_range(0..1_000_000u64),
                version: rng.gen_range(1..1_000u64),
                tier: Tier::ALL[rng.gen_range(0..3usize)],
                cold_start: rng.gen_bool(0.2),
                items: (0..n)
                    .map(|_| ScoredItem {
                        item: rng.gen_range(0..10_000u32),
                        score: rng.standard_normal_f32(),
                    })
                    .collect(),
            })
        }
        2 => Frame::Error(WireError {
            id: rng.gen(),
            code: hf_net::ErrorCode::Malformed,
            message: "x".repeat(rng.gen_range(0..64usize)),
        }),
        3 => Frame::Ping(rng.gen()),
        4 => Frame::Pong(rng.gen()),
        5 => Frame::Reload,
        6 => Frame::Reloaded(rng.gen()),
        _ => Frame::Shutdown,
    }
}

#[test]
fn seeded_truncations_and_mutations_fail_typed_or_decode_canonically() {
    fuzz_codec(
        FUZZ_SEED,
        300,
        |rng| {
            let frame = random_frame(rng);
            let payload = frame.encode();
            assert_eq!(Frame::decode(&payload).as_ref(), Ok(&frame));
            payload
        },
        |buf| Frame::decode(buf).map(|frame| frame.encode()),
        |e| *e == DecodeError::Truncated,
    );
    // One more input: an error message over the 64 KiB cap whose cut
    // lands inside a multi-byte character. `encode` truncates on a char
    // boundary, so the frame still decodes — to a prefix, canonically.
    let message = "€".repeat(30_000);
    let payload = Frame::Error(WireError {
        id: 7,
        code: hf_net::ErrorCode::Internal,
        message: message.clone(),
    })
    .encode();
    match Frame::decode(&payload) {
        Ok(Frame::Error(e)) => {
            assert_eq!(
                e.message.len(),
                (64 << 10) - 1,
                "cut at the last whole char"
            );
            assert!(message.starts_with(&e.message));
            assert_eq!(Frame::Error(e).encode(), payload);
        }
        other => panic!("an over-long error message must still round-trip, got {other:?}"),
    }
}

#[test]
fn hostile_length_prefixes_fail_before_allocating() {
    let mut rng = stream(FUZZ_SEED, SeedStream::Custom(3));
    for _ in 0..200 {
        // A random oversized prefix followed by garbage.
        let claimed = rng.gen_range(hf_net::MAX_FRAME_LEN as u64 + 1..=u32::MAX as u64);
        let mut buf = (claimed as u32).to_le_bytes().to_vec();
        buf.extend((0..rng.gen_range(0..32usize)).map(|_| rng.gen_range(0..=255u32) as u8));
        match Frame::read_from(&mut &buf[..]) {
            Err(NetError::Frame(DecodeError::Invalid { field: "len" })) => {}
            other => panic!("claimed {claimed}: expected an invalid `len`, got {other:?}"),
        }
    }
    // An honest prefix with a short body is an I/O error (mid-frame EOF),
    // not a hang or a panic.
    for _ in 0..100 {
        let frame = random_frame(&mut rng);
        let mut buf = Vec::new();
        frame.write_to(&mut buf).unwrap();
        let cut = rng.gen_range(4..buf.len());
        match Frame::read_from(&mut &buf[..cut]) {
            Err(NetError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
            }
            other => panic!("mid-frame EOF must be an I/O error, got {other:?}"),
        }
    }
}
