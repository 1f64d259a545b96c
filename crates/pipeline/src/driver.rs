//! The pipeline driver: ingest → train → export, one cycle at a time.
//!
//! [`PipelineDriver`] owns a running [`Session`] and an
//! [`InteractionStream`] and alternates them: at each cycle boundary it
//! polls the stream against the session's simulated clock, hands the
//! due events to [`Session::ingest`], steps the session through a fixed
//! number of federation rounds, and every `export_every` cycles
//! streams the model into a *versioned* artifact file
//! (`artifact-v{N}.hfab`) under the configured directory — straight from
//! the session's own state through the artifact writer
//! ([`ExportArtifact::export_artifact_to`]): no artifact object is built
//! only to be written out and dropped. Version 1 is
//! written at construction — the serving side never waits for the
//! first cycle — and the final state is always exported when the
//! session finishes, whatever the cadence.
//!
//! Versions are part of the serving attribution contract: the file
//! name's `N` is the generation a hot-swapping server reports in
//! [`WireResponse::version`](hf_net::WireResponse), so every ranking a
//! client receives names the exact artifact that produced it.
//!
//! Determinism: the session trains bit-identically across thread
//! counts, the stream delivers by logical clock, and exports happen at
//! fixed cycle boundaries — so a fixed-seed pipeline emits a
//! bit-identical artifact *sequence* regardless of parallelism, and a
//! mid-stream checkpoint resumes it exactly (see
//! [`PipelineDriver::with_progress`]).

use crate::stream::InteractionStream;
use hetefedrec_core::{IngestReport, Session, SessionEvent};
use hf_serve::{ExportArtifact, ServeError};
use std::path::{Path, PathBuf};

/// Cadence and destination of a pipeline run.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Federation rounds trained per cycle (at least 1; epoch
    /// boundaries crossed along the way do not count).
    pub rounds_per_cycle: usize,
    /// Export an artifact every this many cycles; `0` exports only the
    /// final state. The final state is always exported.
    pub export_every: usize,
    /// Directory receiving `artifact-v{N}.hfab` files (created on
    /// first export).
    pub artifact_dir: PathBuf,
}

/// What one [`PipelineDriver::run_cycle`] call did.
#[derive(Clone, Debug)]
pub struct CycleReport {
    /// 1-based cycle number.
    pub cycle: usize,
    /// Rounds actually trained (fewer than `rounds_per_cycle` only on
    /// the finishing cycle).
    pub rounds: usize,
    /// How the cycle's polled events were absorbed.
    pub ingest: IngestReport,
    /// `(version, path)` if this cycle exported an artifact.
    pub exported: Option<(u64, PathBuf)>,
    /// Session clock after the cycle.
    pub clock: u64,
}

/// Drives a session against an interaction stream, exporting versioned
/// artifacts (module docs have the full contract).
pub struct PipelineDriver<S: InteractionStream> {
    session: Session,
    stream: S,
    cfg: PipelineConfig,
    cycles: usize,
    version: u64,
}

/// The on-disk name of artifact generation `version` under `dir`.
pub fn artifact_path(dir: &Path, version: u64) -> PathBuf {
    dir.join(format!("artifact-v{version}.hfab"))
}

/// Scans `dir` for `artifact-v{N}.hfab` files and returns the highest
/// `(version, path)`, or `None` if there are none yet. This is the
/// reload closure's half of the hot-swap handshake: re-resolve the
/// newest generation whenever a client sends `Reload`. Exports land by
/// rename (`ModelArtifact::save_file`), so a matching name is always a
/// complete file; an in-flight `artifact-v{N}.hfab.tmp` never matches.
/// Only names [`artifact_path`] writes match: `N` in canonical decimal,
/// so a stray `artifact-v+9.hfab` or `artifact-v07.hfab` is ignored.
pub fn latest_artifact(dir: &Path) -> std::io::Result<Option<(u64, PathBuf)>> {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(version) = name
            .strip_prefix("artifact-v")
            .and_then(|rest| rest.strip_suffix(".hfab"))
            .and_then(|v| v.parse::<u64>().ok().filter(|n| n.to_string() == v))
        else {
            continue;
        };
        if best.as_ref().is_none_or(|(b, _)| version > *b) {
            best = Some((version, path));
        }
    }
    Ok(best)
}

impl<S: InteractionStream> PipelineDriver<S> {
    /// Starts a pipeline and immediately exports artifact version 1.
    pub fn new(session: Session, stream: S, cfg: PipelineConfig) -> Result<Self, ServeError> {
        let mut driver = Self {
            session,
            stream,
            cfg,
            cycles: 0,
            version: 0,
        };
        driver.export()?;
        Ok(driver)
    }

    /// Resumes a pipeline from a restored session without re-exporting:
    /// `cycles` and `version` are the values a previous driver reported
    /// before checkpointing, and the stream must already be aligned
    /// (its first undelivered event is the session's
    /// `ingested_events()`-th — see
    /// [`ReplayStream::skip`](crate::ReplayStream::skip)).
    pub fn with_progress(
        session: Session,
        stream: S,
        cfg: PipelineConfig,
        cycles: usize,
        version: u64,
    ) -> Self {
        Self {
            session,
            stream,
            cfg,
            cycles,
            version,
        }
    }

    /// Runs one cycle: poll + ingest, train `rounds_per_cycle` rounds,
    /// export on cadence. Returns `Ok(None)` once the session has
    /// finished (the finishing cycle itself still reports, with the
    /// final export attached).
    pub fn run_cycle(&mut self) -> Result<Option<CycleReport>, ServeError> {
        if self.session.is_finished() {
            return Ok(None);
        }
        let events = self.stream.poll(self.session.clock());
        let pairs: Vec<(usize, u32)> = events.iter().map(|e| (e.user, e.item)).collect();
        let ingest = self.session.ingest(&pairs);

        let target = self.cfg.rounds_per_cycle.max(1);
        let mut rounds = 0;
        while rounds < target {
            match self.session.step() {
                Some(SessionEvent::Round(_)) => rounds += 1,
                Some(SessionEvent::Epoch(_)) => {}
                None => break,
            }
        }

        self.cycles += 1;
        let due = self.cfg.export_every != 0 && self.cycles.is_multiple_of(self.cfg.export_every);
        let exported = if due || self.session.is_finished() {
            Some(self.export()?)
        } else {
            None
        };
        Ok(Some(CycleReport {
            cycle: self.cycles,
            rounds,
            ingest,
            exported,
            clock: self.session.clock(),
        }))
    }

    /// Runs cycles until the session finishes; returns every report.
    pub fn run(&mut self) -> Result<Vec<CycleReport>, ServeError> {
        let mut reports = Vec::new();
        while let Some(report) = self.run_cycle()? {
            reports.push(report);
        }
        Ok(reports)
    }

    fn export(&mut self) -> Result<(u64, PathBuf), ServeError> {
        self.version += 1;
        let path = artifact_path(&self.cfg.artifact_dir, self.version);
        self.session.export_artifact_to(&path)?;
        Ok((self.version, path))
    }

    /// The driven session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The stream being drained.
    pub fn stream(&self) -> &S {
        &self.stream
    }

    /// Cycles completed so far.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// Latest exported artifact version (1 right after construction).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Tears the driver down into its session and stream — for
    /// checkpointing mid-pipeline or evaluating the final state.
    pub fn into_parts(self) -> (Session, S) {
        (self.session, self.stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{ReplayConfig, ReplayStream};
    use hetefedrec_core::{Ablation, SessionBuilder, Strategy, TrainConfig};
    use hf_dataset::{SplitDataset, SyntheticConfig};
    use hf_models::ModelKind;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hf-pipeline-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn pipeline(tag: &str, epochs: usize) -> (PipelineDriver<ReplayStream>, PathBuf) {
        let data = SyntheticConfig::tiny().generate(21);
        let replay = ReplayConfig {
            item_frac: 0.2,
            new_users: 2,
            start: 1,
            horizon: 8,
        };
        let (base, stream) = ReplayStream::replay(&data, &replay, 21);
        let split = SplitDataset::paper_split(&base, 21);
        let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
        cfg.epochs = epochs;
        let session = SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), split)
            .eval_every(0)
            .build()
            .expect("valid config");
        let dir = tempdir(tag);
        let driver = PipelineDriver::new(
            session,
            stream,
            PipelineConfig {
                rounds_per_cycle: 3,
                export_every: 2,
                artifact_dir: dir.clone(),
            },
        )
        .expect("initial export");
        (driver, dir)
    }

    #[test]
    fn construction_exports_v1_and_cycles_export_on_cadence() {
        let (mut driver, dir) = pipeline("cadence", 2);
        assert_eq!(driver.version(), 1);
        assert!(artifact_path(&dir, 1).is_file());

        let reports = driver.run().expect("pipeline runs");
        assert!(!reports.is_empty());
        for r in &reports {
            if r.cycle % 2 == 0 || r.cycle == reports.len() {
                assert!(r.exported.is_some(), "cycle {} should export", r.cycle);
            }
            assert!(r.rounds > 0 || r.cycle == reports.len());
        }
        // Every version from 1 to the last is on disk, and the scan
        // finds the newest.
        for v in 1..=driver.version() {
            assert!(artifact_path(&dir, v).is_file(), "missing v{v}");
        }
        let (latest, path) = latest_artifact(&dir).expect("readable dir").expect("some");
        assert_eq!(latest, driver.version());
        assert_eq!(path, artifact_path(&dir, driver.version()));
        // An export in flight (or one that crashed) is a truncated
        // `<next>.hfab.tmp` beside the finished generations: the scan
        // must keep answering with the newest *complete* file.
        let partial = artifact_path(&dir, latest + 1).with_extension("hfab.tmp");
        std::fs::write(&partial, b"HFAB\x03\x00").expect("temp file written");
        assert_eq!(latest_artifact(&dir).unwrap(), Some((latest, path)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_artifact_matches_only_names_artifact_path_writes() {
        let dir = tempdir("names");
        std::fs::create_dir_all(&dir).unwrap();
        for name in [
            "artifact-v7.hfab",
            "artifact-v8.hfab",
            "artifact-v+9.hfab",
            "artifact-v09.hfab",
            "artifact-v007.hfab",
            "artifact-v.hfab",
        ] {
            std::fs::write(dir.join(name), b"").unwrap();
        }
        assert_eq!(
            latest_artifact(&dir).unwrap(),
            Some((8, artifact_path(&dir, 8)))
        );
        // Version 7 is `artifact-v7.hfab`, whatever order the directory
        // lists `artifact-v007.hfab` in.
        std::fs::remove_file(artifact_path(&dir, 8)).unwrap();
        assert_eq!(
            latest_artifact(&dir).unwrap(),
            Some((7, artifact_path(&dir, 7)))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_events_are_fully_ingested_and_users_admitted() {
        // 6 epochs x 2+ rounds each: the clock comfortably outruns the
        // stream horizon (8), so every event comes due before the end.
        let (mut driver, dir) = pipeline("ingest", 6);
        let total = driver.stream().events().len();
        let baseline = driver.session().baseline_users();
        driver.run().expect("pipeline runs");
        assert_eq!(driver.session().ingested_events(), total as u64);
        assert_eq!(driver.stream().remaining(), 0);
        assert_eq!(driver.session().split().num_users(), baseline + 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finished_driver_reports_none() {
        let (mut driver, dir) = pipeline("drain", 1);
        driver.run().expect("pipeline runs");
        assert!(driver.run_cycle().expect("no I/O after finish").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
