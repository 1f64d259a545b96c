//! What one federated round asks the allocator for, counted: local
//! training allocates per client and per local pass, never per sample
//! or per touched row (the backward pass ping-pongs scratch the
//! workspace owns, local rows and the upload are flat blocks), so
//! tripling the samples a round trains must leave its allocation count
//! nearly where it was. That holds for a Standalone round too, whose
//! clients keep their trained rows as one sorted block.
//!
//! One `#[test]` on purpose — the counters are process-wide, and a
//! second test running beside this one would be counted too.

use hetefedrec_core::{Ablation, Session, SessionBuilder, SessionEvent, Strategy, TrainConfig};
use hf_dataset::{DatasetProfile, SplitDataset};
use hf_models::ModelKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every request for memory (`realloc`
/// is one: growing a buffer is what a per-row store does).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is an atomic and
// allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`; `new_size`
        // is the caller's, passed through as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

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
    let data = DatasetProfile::MovieLens.config_scaled(0.25).generate(42);
    let split = SplitDataset::paper_split(&data, 42);
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
