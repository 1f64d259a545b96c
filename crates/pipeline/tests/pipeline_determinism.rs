//! Pipeline determinism: a fixed-seed pipeline must emit a
//! bit-identical *sequence* of artifact files regardless of
//! parallelism, and a mid-stream checkpoint must resume it exactly.
//!
//! These are the serving-side attribution guarantees: if generation N
//! is not a pure function of (seed, stream, cadence), "this ranking
//! came from artifact vN" names nothing reproducible.

use hetefedrec_core::{Ablation, Mode, Session, SessionBuilder, Strategy, TrainConfig};
use hf_dataset::{SplitDataset, SyntheticConfig};
use hf_models::ModelKind;
use hf_pipeline::{
    artifact_path, InteractionStream, PipelineConfig, PipelineDriver, ReplayConfig, ReplayStream,
};
use std::path::{Path, PathBuf};

const SEED: u64 = 2024;

/// `(generations, sequence_digest)` of the sync pipeline below, in
/// container 3 (`0x65aa_275c_aa0a_c12c` in container 2: the same decoded
/// generations, histories delta-coded since).
const PINNED_SEQUENCE: (usize, u64) = (4, 0x7924_6eec_c6f2_96a6);

fn replay_cfg() -> ReplayConfig {
    ReplayConfig {
        item_frac: 0.2,
        new_users: 2,
        start: 1,
        horizon: 8,
    }
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hf-pipeline-det-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pipeline_cfg(dir: &Path) -> PipelineConfig {
    PipelineConfig {
        rounds_per_cycle: 3,
        export_every: 2,
        artifact_dir: dir.to_path_buf(),
    }
}

fn fresh_parts(mode: Mode, threads: usize) -> (Session, ReplayStream) {
    let data = SyntheticConfig::tiny().generate(SEED);
    let (base, stream) = ReplayStream::replay(&data, &replay_cfg(), SEED);
    let split = SplitDataset::paper_split(&base, SEED);
    let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
    cfg.epochs = 6;
    cfg.threads = threads;
    cfg.mode = mode;
    let session = SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), split)
        .eval_every(0)
        .build()
        .expect("valid config");
    (session, stream)
}

/// Runs a full pipeline and returns the bytes of every exported
/// generation, in version order.
fn artifact_sequence(mode: Mode, threads: usize, tag: &str) -> Vec<Vec<u8>> {
    let dir = tempdir(tag);
    let (session, stream) = fresh_parts(mode, threads);
    let mut driver =
        PipelineDriver::new(session, stream, pipeline_cfg(&dir)).expect("initial export");
    driver.run().expect("pipeline runs");
    assert_eq!(driver.stream().remaining(), 0, "stream fully delivered");
    let bytes = read_sequence(&dir, driver.version());
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

fn read_sequence(dir: &Path, last: u64) -> Vec<Vec<u8>> {
    (1..=last)
        .map(|v| std::fs::read(artifact_path(dir, v)).expect("artifact on disk"))
        .collect()
}

fn assert_sequences_match(a: &[Vec<u8>], b: &[Vec<u8>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: generation counts differ");
    for (v, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(x == y, "{what}: artifact v{} differs", v + 1);
    }
}

/// FNV-1a over every generation's length and bytes, in version order.
fn sequence_digest(sequence: &[Vec<u8>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for generation in sequence {
        eat(&(generation.len() as u64).to_le_bytes());
        eat(generation);
    }
    h
}

#[test]
fn sync_pipeline_is_bit_identical_across_thread_counts() {
    let one = artifact_sequence(Mode::Sync, 1, "sync-t1");
    assert!(
        one.len() >= 3,
        "expected several generations, got {}",
        one.len()
    );
    // The sequence at commit 8f9f1da, where every export built a
    // `ModelArtifact` and saved it: streaming the session straight
    // through the writer must not move a byte of any generation.
    assert_eq!(
        (one.len(), sequence_digest(&one)),
        PINNED_SEQUENCE,
        "the exported generations drifted from the materialised export's"
    );
    let two = artifact_sequence(Mode::Sync, 2, "sync-t2");
    let eight = artifact_sequence(Mode::Sync, 8, "sync-t8");
    assert_sequences_match(&one, &two, "1 vs 2 threads");
    assert_sequences_match(&one, &eight, "1 vs 8 threads");
}

#[test]
fn async_pipeline_is_bit_identical_across_thread_counts() {
    let one = artifact_sequence(Mode::Async, 1, "async-t1");
    assert!(
        one.len() >= 2,
        "expected several generations, got {}",
        one.len()
    );
    let two = artifact_sequence(Mode::Async, 2, "async-t2");
    assert_sequences_match(&one, &two, "async 1 vs 2 threads");
}

#[test]
fn mid_stream_checkpoint_resumes_the_exact_artifact_sequence() {
    // Reference: one uninterrupted run.
    let reference = artifact_sequence(Mode::Sync, 1, "resume-ref");

    // Interrupted run: a few cycles, checkpoint, tear down.
    let dir = tempdir("resume-cut");
    let (session, stream) = fresh_parts(Mode::Sync, 1);
    let mut driver =
        PipelineDriver::new(session, stream, pipeline_cfg(&dir)).expect("initial export");
    for _ in 0..3 {
        driver
            .run_cycle()
            .expect("cycle runs")
            .expect("not finished yet");
    }
    let (cycles, version) = (driver.cycles(), driver.version());
    let (session, _) = driver.into_parts();
    let ingested = session.ingested_events();
    assert!(ingested > 0, "the cut must land mid-stream");
    assert!(
        session.split().num_users() > session.baseline_users(),
        "the cut must land after an admission"
    );
    let json = session.checkpoint();
    drop(session);

    // Resume in a "new process": rebuild the base split, replay the
    // ingested prefix of the stream into it, restore, re-align the
    // stream cursor, and continue into the same artifact directory.
    let data = SyntheticConfig::tiny().generate(SEED);
    let (base, mut stream) = ReplayStream::replay(&data, &replay_cfg(), SEED);
    let mut split = SplitDataset::paper_split(&base, SEED);
    for e in stream.events().take(ingested as usize) {
        split.ingest(e.user, e.item);
    }
    let session = SessionBuilder::from_checkpoint(&json, split)
        .expect("checkpoint parses")
        .eval_every(0)
        .build()
        .expect("checkpoint restores");
    assert_eq!(session.ingested_events(), ingested);
    stream.skip(ingested as usize);
    let mut driver =
        PipelineDriver::with_progress(session, stream, pipeline_cfg(&dir), cycles, version);
    driver.run().expect("resumed pipeline runs");

    let resumed = read_sequence(&dir, driver.version());
    let _ = std::fs::remove_dir_all(&dir);
    assert_sequences_match(&reference, &resumed, "uninterrupted vs resumed");
}
