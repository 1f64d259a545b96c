//! The replayed "future" is pinned: every `(time, user, item)` event and
//! every base list [`ReplayStream::replay`] carves out of a dataset, by
//! FNV-1a digest, for two shapes and two seeds each. The digests were
//! taken at 9094e41, from the replay that stored one 24-byte event per
//! interaction; the packed layout must deliver the same events in the
//! same order and keep the same base lists. The proof line prints only
//! when every digest held.

use hf_dataset::{DatasetProfile, ImplicitDataset, SyntheticConfig};
use hf_pipeline::{ReplayConfig, ReplayStream};

/// FNV-1a 64 over `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// `(events, event digest, base digest)` of one replay.
fn digests(data: &ImplicitDataset, cfg: &ReplayConfig, seed: u64) -> (usize, u64, u64) {
    let (base, stream) = ReplayStream::replay(data, cfg, seed);
    let count = stream.events().len();
    let mut events = FNV_OFFSET;
    for e in stream.events() {
        events = fnv1a(events, &e.time.to_le_bytes());
        events = fnv1a(events, &(e.user as u64).to_le_bytes());
        events = fnv1a(events, &e.item.to_le_bytes());
    }
    let mut lists = fnv1a(FNV_OFFSET, &(base.num_items() as u64).to_le_bytes());
    for u in 0..base.num_users() {
        let items = base.user(u).items();
        lists = fnv1a(lists, &(items.len() as u64).to_le_bytes());
        for item in items {
            lists = fnv1a(lists, &item.to_le_bytes());
        }
    }
    (count, events, lists)
}

#[test]
fn replay_stream_is_pinned() {
    // The unit tests' tiny shape (three new users over ten ticks) and the
    // benchmark's population shape at 2 000 users (eight new users over
    // 256 ticks).
    let tiny = ReplayConfig {
        item_frac: 0.25,
        new_users: 3,
        start: 1,
        horizon: 10,
    };
    let movielens = ReplayConfig {
        item_frac: 0.2,
        new_users: 8,
        start: 1,
        horizon: 256,
    };
    let mut ml = DatasetProfile::MovieLens.config_scaled(0.25);
    ml.num_users = 2_000;
    // `(seed, events, event digest, base digest)` per shape.
    let tiny_pins = [
        (42, 492, 0x6a96_9fbe_5fd1_55d0, 0xb094_7508_5eab_6bf8),
        (7, 428, 0x1018_a74f_07be_f04b, 0x717b_4787_b2c2_7a66),
    ];
    let movielens_pins = [
        (42, 42_078, 0x7c78_a654_7cfa_9a7f, 0xcde4_4f86_217d_bfda),
        (7, 44_152, 0x6f96_ac2a_6290_00c8, 0x42d1_cfb3_fcbd_bb0c),
    ];
    for (seed, events, event_digest, base_digest) in tiny_pins {
        let data = SyntheticConfig::tiny().generate(seed);
        let pinned = (events, event_digest, base_digest);
        assert_eq!(digests(&data, &tiny, seed), pinned, "tiny, seed {seed}");
    }
    for (seed, events, event_digest, base_digest) in movielens_pins {
        let data = ml.generate(seed);
        let pinned = (events, event_digest, base_digest);
        assert_eq!(
            digests(&data, &movielens, seed),
            pinned,
            "movielens, seed {seed}"
        );
    }
    println!("replay stream pinned");
}
