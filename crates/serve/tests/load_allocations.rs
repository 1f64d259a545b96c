//! What an eager file load asks the allocator for, counted: the number
//! of allocations must not depend on how many users the file holds (the
//! `users` section is held as one buffer, as the file encodes it, not two
//! `Vec`s a user), the bytes asked for are what the load holds plus its
//! one read window, and a file whose `users` section lies about its size
//! must fail typed before anything is sized by the lie.
//!
//! One `#[test]` on purpose — the counters are process-wide, and a
//! second test running beside this one would be counted too.

use hetefedrec_core::config::TierDims;
use hf_dataset::SyntheticProfile;
use hf_serve::{ModelArtifact, ServeError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every request for memory (`realloc`
/// is one: growing a buffer is what an unsized decoder does).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics and
// allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`; `new_size`
        // is the caller's, passed through as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(result, allocations, bytes asked for)` of one call.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (ALLOCATIONS.load(Relaxed), BYTES.load(Relaxed));
    let out = f();
    (
        out,
        ALLOCATIONS.load(Relaxed) - before.0,
        BYTES.load(Relaxed) - before.1,
    )
}

/// Payload extent of the section tagged `tag` (`tables` 2, `users` 4,
/// `popularity` 5, `fallback` 6): the file header is 10 bytes, each
/// section `tag: u8, len: u64, payload`.
fn section(bytes: &[u8], tag: u8) -> (usize, usize) {
    let mut at = 10;
    loop {
        let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap()) as usize;
        if bytes[at] == tag {
            return (at + 9, len);
        }
        at += 9 + len;
    }
}

#[test]
fn an_eager_load_allocates_by_section_not_by_user() {
    let dir = std::env::temp_dir().join(format!("hf_load_allocations_{}", std::process::id()));
    let file = |users: usize| {
        let path = dir.join(format!("{users}.hfa"));
        let profile = SyntheticProfile::new(users, 300);
        ModelArtifact::synthesize_to_file(&profile, TierDims::new(4, 8, 16), 11, &path).unwrap();
        path
    };
    // Enough users that the `users` section (about a byte an id) dwarfs
    // the read window and the tables a refused load has asked for.
    const MANY: usize = 20_000;
    let (few, many) = (file(MANY / 10), file(MANY));

    // Once uncounted, so first-use initialisation is nobody's.
    ModelArtifact::load_file(&few).unwrap();
    let (small, small_allocations, _) = counted(|| ModelArtifact::load_file(&few).unwrap());
    let (large, large_allocations, large_bytes) =
        counted(|| ModelArtifact::load_file(&many).unwrap());
    assert_eq!((small.num_users(), large.num_users()), (MANY / 10, MANY));
    assert_eq!(
        small_allocations, large_allocations,
        "ten times the users must not cost one allocation more"
    );
    assert!(large_allocations < 100, "{large_allocations} allocations");

    // (a') The load asks for what it holds — the decoded tables, the
    // `users` section as encoded, popularity and the fallback, each no
    // larger than its section — plus the one 128 KiB read window and
    // 16 KiB of slack (the predictors, one scratch record, the layout).
    let valid = std::fs::read(&many).unwrap();
    let (users_at, users_len) = section(&valid, 4);
    let held: usize = [2, 4, 5, 6].map(|tag| section(&valid, tag).1).iter().sum();
    let bound = (held + (128 << 10) + (16 << 10)) as u64;
    assert!(
        large_bytes <= bound,
        "the load asked for {large_bytes} bytes, more than the {bound} it holds and reads through"
    );
    println!("eager load holds its users as encoded: {users_len} bytes for {MANY} users");

    // (b) Hostile `users` sections fail typed, before anything is sized
    // by what they claim: the failing load asks for less memory than the
    // section it refuses holds, where the load that succeeds asks for more.
    assert!(large_bytes > users_len as u64);
    let hostile = dir.join("hostile.hfa");
    let refused = |bytes: &[u8], needle: &str| {
        std::fs::write(&hostile, bytes).unwrap();
        let (outcome, _, bytes_asked) = counted(|| ModelArtifact::load_file(&hostile));
        match outcome {
            Err(ServeError::Artifact(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected a typed artifact error, got {other:?}"),
        }
        assert!(
            bytes_asked < users_len as u64,
            "{needle}: {bytes_asked} bytes asked for before the refusal"
        );
    };
    // The section claims 2^40 bytes.
    let mut bytes = valid.clone();
    bytes[users_at - 8..users_at].copy_from_slice(&(1u64 << 40).to_le_bytes());
    refused(&bytes, "claims");
    // The last directory entry (`end: u64`) ends past the record block.
    let end = |bytes: &mut [u8], user: usize, at: u64| {
        let entry = users_at + 8 * user;
        bytes[entry..entry + 8].copy_from_slice(&at.to_le_bytes());
    };
    let mut bytes = valid.clone();
    end(&mut bytes, MANY - 1, users_len as u64);
    refused(&bytes, "out of bounds");
    // User 1 ends before user 0 does: the ends must never fall, and that
    // fails before any record is parsed.
    let mut bytes = valid.clone();
    end(&mut bytes, 1, 1);
    refused(&bytes, "out of bounds");
    // The last end stops one byte short of the block.
    let mut bytes = valid.clone();
    end(&mut bytes, MANY - 1, (users_len - 8 * MANY - 1) as u64);
    refused(&bytes, "trailing bytes");

    std::fs::remove_dir_all(&dir).ok();
}
