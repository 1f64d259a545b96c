//! What one federated round asks the allocator for, counted: local
//! training allocates per client and per local pass, never per sample
//! or per touched row (the backward pass ping-pongs scratch the
//! workspace owns, local rows and the upload are flat blocks), so
//! tripling the samples a round trains must leave its allocation count
//! nearly where it was. That holds for a Standalone round too, whose
//! clients keep their trained rows as one sorted block.
//!
//! And what a round holds at once: uploads are folded into the
//! aggregate as they arrive, so a round's peak live heap must not grow
//! with its cohort.
//!
//! The counters are process-wide, so the tests take one lock: a test
//! running beside another would be counted too.

use hetefedrec_core::{Ablation, Session, SessionBuilder, SessionEvent, Strategy, TrainConfig};
use hf_dataset::{DatasetProfile, SplitDataset};
use hf_models::ModelKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// The most `LIVE` has been since it was last reset.
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every request for memory (`realloc`
/// is one: growing a buffer is what a per-row store does) and the bytes
/// live at once.
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
// allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
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
        ALLOCATIONS.fetch_add(1, Relaxed);
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

/// Serialises the tests: the counters see every thread.
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
/// the epoch's schedule is nobody's.
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
    let Some(SessionEvent::Round(report)) = session.step() else {
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
        // Per-client set-up (task engines, workspaces, the upload or the
        // persisted rows) and the server's aggregate: a few thousand in
        // all, against roughly eleven a sample when the backward pass and
        // every touched row allocated.
        assert!(
            one_pass < samples as u64 / 2,
            "{name}: {one_pass} allocations for {samples} samples"
        );
    }
    println!("round allocations per client, not per sample: HeteFedRec and Standalone");
}

/// `(peak, upload)` of a session's second round: its peak live heap
/// bytes above the heap live when it starts, and its mean upload's
/// encoded bytes. MovieLens x 0.25, NCF, `strategy`, `cohort` clients a
/// round on `threads` workers; the first round runs unmeasured.
fn round_peak_above_rest(
    split: &SplitDataset,
    strategy: Strategy,
    cohort: usize,
    threads: usize,
) -> (u64, u64) {
    let mut cfg = TrainConfig::paper_defaults(ModelKind::Ncf, DatasetProfile::MovieLens);
    cfg.clients_per_round = cohort;
    cfg.threads = threads;
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
            let (small, _) = round_peak_above_rest(&split, strategy, 16, threads);
            let (large, upload) = round_peak_above_rest(&split, strategy, 64, threads);
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
