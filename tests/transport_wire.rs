//! Regression tests for the std-only wire codec (`Vec<u8>` cursor
//! replacing the `bytes` crate): encode → decode must be the identity on
//! valid payloads, and `encoded_len` must equal the encoded buffer length
//! *exactly* — communication accounting in Table III depends on it.

use hetefedrec::fedsim::transport::{ClientUpdate, SparseRowUpdate};
use hetefedrec::tensor::rng::{substream, Rng, SeedStream, StdRng};
use hetefedrec::tensor::wire::DecodeError;

fn wire_rng(case: u64) -> StdRng {
    substream(0xB17E5, SeedStream::Custom(99), case)
}

/// Random update exercising the full format: 0–7 sparse rows of a random
/// dim (including dim 0) and 0–3 theta blocks of varying lengths, with
/// extreme float values mixed in.
fn gen_update(rng: &mut StdRng) -> ClientUpdate {
    let dim = rng.gen_range(0usize..20);
    let n_rows = rng.gen_range(0usize..8);
    let mut rows: Vec<(u32, Vec<f32>)> = (0..n_rows)
        .map(|_| {
            let delta: Vec<f32> = (0..dim)
                .map(|_| match rng.gen_range(0usize..8) {
                    0 => f32::MIN_POSITIVE,
                    1 => f32::MAX,
                    2 => -0.0,
                    _ => rng.gen_range(-10.0f32..10.0),
                })
                .collect();
            (rng.gen_range(0u32..10_000), delta)
        })
        .collect();
    rows.sort_by_key(|(r, _)| *r);
    rows.dedup_by_key(|(r, _)| *r);
    let n_thetas = rng.gen_range(0usize..4);
    let thetas: Vec<(u8, Vec<f32>)> = (0..n_thetas)
        .map(|t| {
            let len = rng.gen_range(0usize..40);
            (
                t as u8,
                (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            )
        })
        .collect();
    ClientUpdate {
        items: SparseRowUpdate::new(dim, rows),
        thetas,
    }
}

#[test]
fn encode_decode_is_identity() {
    for case in 0..200 {
        let mut rng = wire_rng(case);
        let u = gen_update(&mut rng);
        let decoded = ClientUpdate::decode(u.encode())
            .unwrap_or_else(|e| panic!("case {case}: valid payload rejected: {e}"));
        assert_eq!(u, decoded, "case {case}");
    }
}

#[test]
fn encoded_len_matches_buffer_length_exactly() {
    for case in 0..200 {
        let mut rng = wire_rng(1_000 + case);
        let u = gen_update(&mut rng);
        let wire = u.encode();
        assert_eq!(
            wire.len(),
            u.encoded_len(),
            "case {case}: encoded_len out of sync with encoder ({} rows, dim {}, {} thetas)",
            u.items.rows.len(),
            u.items.dim,
            u.thetas.len()
        );
    }
}

#[test]
fn degenerate_payloads_roundtrip() {
    // Empty update.
    let empty = ClientUpdate::default();
    assert_eq!(empty.encode().len(), empty.encoded_len());
    assert_eq!(ClientUpdate::decode(empty.encode()).unwrap(), empty);

    // Rows of width zero (dim 0 is legal: a tier with no embedding delta).
    let zero_dim = ClientUpdate {
        items: SparseRowUpdate::new(0, vec![(3, vec![]), (9, vec![])]),
        thetas: vec![(0, vec![])],
    };
    assert_eq!(zero_dim.encode().len(), zero_dim.encoded_len());
    assert_eq!(ClientUpdate::decode(zero_dim.encode()).unwrap(), zero_dim);
}

/// Through the workspace's one codec harness: every strict prefix fails
/// with exactly `Truncated` (the encoding is length-exact, and a prefix
/// reads the valid counts), and a byte-flipped payload either fails or
/// re-encodes to exactly the mutated bytes — which is what rejecting
/// trailing bytes buys (a shrunk row count used to decode with the tail
/// ignored).
#[test]
fn every_truncation_of_a_valid_payload_is_rejected() {
    hetefedrec::tensor::wire::fuzz_codec(
        0xB17E5,
        200,
        |rng| gen_update(rng).encode(),
        |wire| ClientUpdate::decode(wire).map(|u| u.encode()),
        |e| *e == DecodeError::Truncated,
    );
}
