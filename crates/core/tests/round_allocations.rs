//! What one federated round asks the allocator for, counted: local
//! training allocates per client and per local pass, never per sample
//! or per touched row (the backward pass ping-pongs scratch the cache
//! owns, local rows and the upload are flat blocks), so tripling the
//! samples a round trains must leave its allocation count nearly where
//! it was. That holds for a Standalone round too, whose clients keep
//! their trained rows as one sorted block. And a client's set-up stays
//! small: each task copies its predictor as one flat buffer.
//!
//! And what a round holds at once: uploads are folded into the
//! aggregate as they arrive, so a round's peak live heap must not grow
//! with its cohort — nor a masked round's, whose members each mask their
//! own upload and add it to their group's sums.
//!
//! The allocation count is the counted round's own thread's; the live
//! and peak byte counters are process-wide (a round's workers allocate),
//! so the tests take one lock: a test running beside another would be
//! counted too.

use hetefedrec_core::{Ablation, Session, SessionBuilder, SessionEvent, Strategy, TrainConfig};
use hf_dataset::{DatasetProfile, SplitDataset};
use hf_models::ModelKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

/// Allocations made on a thread while its `COUNTING` is set.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// The most `LIVE` has been since it was last reset.
static PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's requests count into `ALLOCATIONS`. `const`
    /// and without a destructor, so reading it allocates nothing.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Counts a request for memory if this thread is being counted.
fn count() {
    if COUNTING.try_with(Cell::get) == Ok(true) {
        ALLOCATIONS.fetch_add(1, Relaxed);
    }
}

/// The system allocator, counting the counted thread's requests for
/// memory (`realloc` is one: growing a buffer is what a per-row store
/// does) and every thread's bytes live at once.
struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics and
// a `const` thread-local flag, and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        grow(layout.size());
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        // SAFETY: `ptr` came from `System` with this `layout`; `new_size`
        // is the caller's, passed through as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Serialises the tests: the byte counters see every thread.
fn counters() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The split every round here trains on: MovieLens x 0.25.
fn movielens() -> SplitDataset {
    let data = DatasetProfile::MovieLens.config_scaled(0.25).generate(42);
    SplitDataset::paper_split(&data, 42)
}

/// `(allocations, samples)` of a session's second round: MovieLens x 0.25,
/// NCF, `strategy`, 64 clients a round on one thread, `local_epochs`
/// passes over each client's data. The first round runs uncounted, so
/// the epoch's schedule is nobody's; on one thread the whole second round
/// runs on this one, the only thread counted.
fn second_round(split: &SplitDataset, strategy: Strategy, local_epochs: usize) -> (u64, usize) {
    let mut cfg = TrainConfig::paper_defaults(ModelKind::Ncf, DatasetProfile::MovieLens);
    cfg.clients_per_round = 64;
    cfg.threads = 1;
    cfg.local_epochs = local_epochs;
    let mut session: Session = SessionBuilder::new(cfg, strategy, split.clone())
        .eval_every(0)
        .build()
        .expect("valid config");
    assert!(matches!(session.step(), Some(SessionEvent::Round(_))));
    let before = ALLOCATIONS.load(Relaxed);
    COUNTING.set(true);
    let step = session.step();
    COUNTING.set(false);
    let Some(SessionEvent::Round(report)) = step else {
        panic!("the second step is a round");
    };
    (ALLOCATIONS.load(Relaxed) - before, report.samples)
}

#[test]
fn a_round_allocates_per_client_not_per_sample() {
    let _counters = counters();
    let split = movielens();
    let strategies = [Strategy::HeteFedRec(Ablation::FULL), Strategy::Standalone];
    for strategy in strategies {
        let name = strategy.name();
        let (one_pass, samples) = second_round(&split, strategy, 1);
        let (three_passes, more_samples) = second_round(&split, strategy, 3);
        println!(
            "{name} round allocations: {one_pass} for {samples} samples, \
             {three_passes} for {more_samples} samples"
        );
        assert_eq!(
            more_samples,
            3 * samples,
            "{name}: the same clients, three passes"
        );
        // Each extra pass draws one negative-sampled epoch per client and
        // may grow a client's row store: a few allocations a client,
        // whatever its sample count. Nothing else may scale with the
        // samples — a Standalone client's persisted rows included.
        let extra = three_passes.saturating_sub(one_pass);
        assert!(
            extra <= 8 * 64 * 2,
            "{name}: {extra} more allocations for {} more samples",
            more_samples - samples
        );
        // Per-client set-up (each task's predictor copy, gradient and
        // scratch, the upload or the persisted rows) and the server's
        // aggregate: a few thousand in all, against roughly eleven a
        // sample when the backward pass and every touched row allocated.
        assert!(
            one_pass < samples as u64 / 2,
            "{name}: {one_pass} allocations for {samples} samples"
        );
        // A task copies its predictor as one flat buffer: 4 636 and
        // 3 482 a round (~72 and ~54 a client); nested per-layer weight
        // and bias vectors made 6 595 and 5 551, past the bound.
        assert!(
            one_pass <= SETUP_PER_CLIENT * 64,
            "{name}: {one_pass} allocations for 64 clients' set-up"
        );
    }
    println!("round allocations per client, not per sample: HeteFedRec and Standalone");
    println!("round set-up allocations: one predictor buffer a task");
}

/// The most allocations one pass of a 64-client round may make per
/// client: the measured ~72 a HeteFedRec client, plus ~10 % headroom.
const SETUP_PER_CLIENT: u64 = 80;

/// `(peak, upload)` of a session's second round: its peak live heap
/// bytes above the heap live when it starts, and its mean upload's
/// encoded bytes. MovieLens x 0.25, NCF, `strategy`, `cohort` clients a
/// round on `threads` workers, `masked` or plaintext uploads; the first
/// round runs unmeasured.
fn round_peak_above_rest(
    split: &SplitDataset,
    strategy: Strategy,
    masked: bool,
    cohort: usize,
    threads: usize,
) -> (u64, u64) {
    let mut cfg = TrainConfig::paper_defaults(ModelKind::Ncf, DatasetProfile::MovieLens);
    cfg.clients_per_round = cohort;
    cfg.threads = threads;
    cfg.secagg.enabled = masked;
    let mut session: Session = SessionBuilder::new(cfg, strategy, split.clone())
        .eval_every(0)
        .build()
        .expect("valid config");
    assert!(matches!(session.step(), Some(SessionEvent::Round(_))));
    let rest = LIVE.load(Relaxed);
    PEAK.store(rest, Relaxed);
    let Some(SessionEvent::Round(report)) = session.step() else {
        panic!("the second step is a round");
    };
    let peak = PEAK.load(Relaxed) - rest;
    assert_eq!(report.cohort, cohort, "a full cohort trains");
    assert!(report.accepted > 0, "uploads were aggregated");
    (peak, report.upload_bytes / report.accepted as u64)
}

#[test]
fn a_round_holds_one_upload_at_a_time() {
    let _counters = counters();
    let split = movielens();
    let strategies = [
        Strategy::HeteFedRec(Ablation::FULL),
        Strategy::ClusteredFedRec,
    ];
    for strategy in strategies {
        let name = strategy.name();
        for threads in [1, 2] {
            let (small, _) = round_peak_above_rest(&split, strategy, false, 16, threads);
            let (large, upload) = round_peak_above_rest(&split, strategy, false, 64, threads);
            let growth = large.saturating_sub(small);
            println!(
                "{name} round peak above rest, {threads} thread(s): {small} B for 16 clients, \
                 {large} B for 64 (+{:.1} uploads of {upload} B)",
                growth as f64 / upload as f64
            );
            // 48 more clients: the aggregate may touch more rows and the
            // fan-out's reorder window may hold an upload or two more, but
            // holding every upload until the round applies them grows the
            // peak by about 40 uploads.
            assert!(
                growth <= 8 * upload,
                "{name}, {threads} thread(s): {large} B at 64 clients against {small} B at 16, \
                 {upload} B an upload"
            );
        }
    }
    println!(
        "round peak heap independent of the cohort: HeteFedRec and Clustered, 1 and 2 threads"
    );
}

#[test]
fn a_masked_round_holds_one_upload_at_a_time() {
    let _counters = counters();
    let split = movielens();
    let strategies = [
        Strategy::HeteFedRec(Ablation::FULL),
        Strategy::ClusteredFedRec,
    ];
    for strategy in strategies {
        let name = strategy.name();
        for threads in [1, 2] {
            let (_, plain) = round_peak_above_rest(&split, strategy, false, 64, threads);
            let (small, _) = round_peak_above_rest(&split, strategy, true, 16, threads);
            let (large, masked) = round_peak_above_rest(&split, strategy, true, 64, threads);
            let growth = large.saturating_sub(small);
            println!(
                "masked {name} round peak above rest, {threads} thread(s): {small} B for 16 \
                 clients, {large} B for 64 (+{:.1} masked uploads of {masked} B, {:.1} \
                 plaintext ones of {plain} B)",
                growth as f64 / masked as f64,
                growth as f64 / plain as f64
            );
            // A group's sums are as long as its layout whatever the
            // cohort, its escrow grows by 9 B a pair of members, and each
            // member's upload is masked and added where it was trained, so
            // a worker holds one prefix at a time (a Large member's is 2.1
            // mean masked uploads). Keeping every member's update until
            // the group is masked grows the peak by about 12 masked
            // uploads (43 plaintext ones).
            assert!(
                growth <= 4 * masked,
                "masked {name}, {threads} thread(s): {large} B at 64 clients against {small} B \
                 at 16, {masked} B a masked upload"
            );
        }
    }
    println!(
        "masked round peak independent of the cohort: HeteFedRec and Clustered, 1 and 2 threads"
    );
}
