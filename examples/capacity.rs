//! Domain example: serving a synthesized population without loading it.
//!
//! Builds a capacity-scale artifact straight to disk from a
//! `SyntheticProfile` (no training), opens it **lazily**, answers a
//! 64-request batch, and proves the two capacity contracts end to end:
//!
//! 1. **Lazy == eager** — top-K lists served from the lazy, tiled,
//!    sharded path are bit-identical to an eager load of the same file.
//! 2. **O(touched) residency** — after the batch, the lazy store holds
//!    only the records the batch touched, and the resident-footprint
//!    delta of the lazy boot stays below the eager materialisation.
//!    The item-half store holds exactly its 64-tile budget after the
//!    batch and after serving it again, with the same bits.
//! 3. **An eager load costs its payload** — resident memory grows across
//!    `load_file` by at most 1.25× what it holds (the decoded tables, the
//!    `users` section as the file encodes it, popularity and the
//!    fallback), at the peak as well as afterwards (the file is never
//!    resident beside what is taken from it).
//!
//! ```text
//! cargo run --release --example capacity
//! ```
//!
//! Population size defaults to 20k users × 20k items and can be
//! overridden with `HF_CAPACITY_USERS` / `HF_CAPACITY_ITEMS`; the
//! artifact path defaults to `target/ci-artifacts/capacity_model.hfa`
//! and can be overridden with `HF_CAPACITY_ARTIFACT` (ci.sh greps this
//! example's proof lines).

use hetefedrec::prelude::*;
use hetefedrec::serve::footprint;

fn env_size(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Ok(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("error: {name} must be a positive integer, got `{v}`");
            std::process::exit(2);
        }),
        Err(_) => default,
    }
}

/// How many of two batches' responses differ in an item id or a score
/// bit (each one named on stderr).
fn mismatches(a: &[RecommendResponse], b: &[RecommendResponse], what: &str) -> usize {
    let differs = |(a, b): &(&RecommendResponse, &RecommendResponse)| {
        let same = a.items.len() == b.items.len()
            && a.items
                .iter()
                .zip(&b.items)
                .all(|(x, y)| x.item == y.item && x.score.to_bits() == y.score.to_bits());
        if !same {
            eprintln!("user {}: {what} rankings differ", a.user);
        }
        !same
    };
    a.iter().zip(b).filter(differs).count()
}

fn main() {
    let seed = 4242;
    let users = env_size("HF_CAPACITY_USERS", 20_000);
    let items = env_size("HF_CAPACITY_ITEMS", 20_000);
    let path = std::env::var("HF_CAPACITY_ARTIFACT")
        .unwrap_or_else(|_| "target/ci-artifacts/capacity_model.hfa".to_string());

    // --- Synthesize straight to disk ---------------------------------------
    let profile = SyntheticProfile::new(users, items);
    let dims = TierDims::new(4, 8, 16);
    let t0 = std::time::Instant::now();
    let stats = ModelArtifact::synthesize_to_file(&profile, dims, seed, &path)
        .expect("profile synthesizes");
    println!(
        "synthesized {users} users x {items} items in {:.2}s: {} on disk, {} interactions",
        t0.elapsed().as_secs_f64(),
        footprint::fmt_bytes(stats.file_bytes),
        stats.interactions
    );

    // --- Lazy boot (measured first, so eager can't pollute the delta) ------
    let rss_before = footprint::resident_bytes();
    let t0 = std::time::Instant::now();
    let lazy = ModelArtifact::load_file_lazy(&path, LazyConfig::default()).expect("lazy open");
    assert!(lazy.is_lazy());
    let lazy_serve = RecommenderBuilder::new(lazy)
        .default_k(10)
        .item_half_mode(ItemHalfMode::Tiled { max_panels: 64 })
        .build()
        .expect("valid lazy serving configuration");
    println!("lazy boot in {:.3}s", t0.elapsed().as_secs_f64());

    // A 64-request batch striding the population, cold start included.
    let requests: Vec<RecommendRequest> = (0..63)
        .map(|i| RecommendRequest::new(i * 104_729 % users))
        .chain([RecommendRequest::new(usize::MAX)])
        .collect();
    let lazy_batch = lazy_serve.recommend_batch(&requests);
    // The batch walks every tile of its tiers: the first 64 it touched
    // are kept, and a second pass changes neither them nor an answer.
    let budget = lazy_serve.item_half_tiles().min(64);
    assert_eq!(lazy_serve.cached_item_half_panels(), budget);
    let warm_batch = lazy_serve.recommend_batch(&requests);
    assert_eq!(mismatches(&lazy_batch, &warm_batch, "cold and warm"), 0);
    assert_eq!(lazy_serve.cached_item_half_panels(), budget);
    println!(
        "item-half budget held: {budget} of {} tiles",
        lazy_serve.item_half_tiles()
    );
    let touched = lazy_serve.artifact().cached_user_records();
    let lazy_delta = match (rss_before, footprint::resident_bytes()) {
        (Some(a), Some(b)) => Some(b.saturating_sub(a)),
        _ => None,
    };
    println!(
        "served {} requests; {touched} of {users} user records resident (O(touched), not O(users))",
        requests.len()
    );
    assert!(
        touched <= requests.len(),
        "lazy store decoded more records than the batch touched"
    );

    // --- Eager reference ----------------------------------------------------
    // The eager in-memory floor is what the load holds: the tables, the
    // `users` section byte for byte as on disk, popularity (a count an
    // item) and the fallback (a float per tier width).
    let widths: usize = Tier::ALL.iter().map(|&tier| dims.dim(tier)).sum();
    let eager_floor = stats.tables_bytes + stats.users_bytes + 4 * (items + widths) as u64;
    let before = footprint::resident_bytes().zip(footprint::peak_resident_bytes());
    let eager = ModelArtifact::load_file(&path).expect("eager load");
    let after = footprint::resident_bytes().zip(footprint::peak_resident_bytes());
    if let (Some((rss, peak)), Some((rss_after, peak_after))) = (before, after) {
        let grown = rss_after.saturating_sub(rss);
        // The high-water mark only says something about this load if
        // the load moved it.
        let at_peak = if peak_after > peak {
            peak_after.saturating_sub(rss)
        } else {
            grown
        };
        println!(
            "eager load grew resident memory by {} ({} at its peak) for {} of payload \
             ({} of users as encoded)",
            footprint::fmt_bytes(grown),
            footprint::fmt_bytes(at_peak),
            footprint::fmt_bytes(eager_floor),
            footprint::fmt_bytes(stats.users_bytes)
        );
        if grown.max(at_peak) as f64 > 1.25 * eager_floor as f64 {
            eprintln!("FAILED: an eager load must stay within 1.25x of the payload it holds");
            std::process::exit(1);
        }
        println!("eager load within 1.25x of payload");
    }
    let eager_serve = RecommenderBuilder::new(eager)
        .default_k(10)
        .build()
        .expect("valid eager serving configuration");
    let eager_batch = eager_serve.recommend_batch(&requests);

    let mismatches = mismatches(&eager_batch, &lazy_batch, "lazy and eager");
    if mismatches > 0 {
        eprintln!(
            "FAILED: {mismatches} of {} responses differ",
            requests.len()
        );
        std::process::exit(1);
    }
    println!(
        "lazy == eager rankings verified ({} responses bit-identical)",
        requests.len()
    );

    match lazy_delta {
        Some(delta) => println!(
            "resident delta of the lazy path: {} (eager holds at least {})",
            footprint::fmt_bytes(delta),
            footprint::fmt_bytes(eager_floor)
        ),
        None => println!(
            "resident delta unavailable on this platform; eager holds at least {}",
            footprint::fmt_bytes(eager_floor)
        ),
    }
    println!("artifact kept at {path}");
}
