//! `hf-pipeline` — the online loop, end to end, in one process.
//!
//! ```text
//! hf-pipeline [--seed 42] [--epochs 6] [--addr 127.0.0.1:0]
//!             [--dir <artifact dir>] [--k 8] [--keep]
//! ```
//!
//! Demonstrates (and asserts) the full training-to-serving pipeline on
//! a synthetic dataset:
//!
//! 1. carve a held-out interaction stream from the dataset and train a
//!    session on the pre-cutoff base, exporting versioned artifacts as
//!    the stream is ingested ([`PipelineDriver`]);
//! 2. serve generation 1 over TCP while training runs, then send one
//!    on-wire `Reload` to hot-swap the newest generation in;
//! 3. prove attribution: every response carries the serving slot's
//!    version stamp, pre-swap rankings are bit-identical to an
//!    in-process recommender on generation 1 and post-swap rankings to
//!    the final generation;
//! 4. price the staleness: [`drift_report`] on the held-out events,
//!    stale versus fresh artifact.
//!
//! On success the process prints the machine-checkable line
//! `hot swap verified: v1 -> v2, rankings attributable` and exits 0;
//! any broken invariant panics.

use hetefedrec_core::{Ablation, SessionBuilder, Strategy, TrainConfig};
use hf_dataset::{SplitDataset, SyntheticConfig};
use hf_models::ModelKind;
use hf_net::{serve_slot, Client, ReloadFn, ServerConfig, WireRequest, WireResponse};
use hf_pipeline::{
    drift_report, latest_artifact, InteractionStream, PipelineConfig, PipelineDriver, ReplayConfig,
    ReplayStream,
};
use hf_serve::{ArtifactSlot, ModelArtifact, RecommendRequest, Recommender, RecommenderBuilder};
use hf_tensor::cli::{fatal, Cli};
use std::path::{Path, PathBuf};
use std::time::Duration;

struct Args {
    seed: u64,
    epochs: usize,
    addr: String,
    dir: Option<PathBuf>,
    k: usize,
    keep: bool,
}

const USAGE: &str = "usage: hf-pipeline [--seed 42] [--epochs 6] \
    [--addr 127.0.0.1:0] [--dir <artifact dir>] [--k 8] [--keep]";

fn parse_args() -> Args {
    let mut cli = Cli::new(USAGE, &["--keep"]);
    let args = Args {
        seed: cli.value("--seed").unwrap_or(42),
        epochs: cli.value("--epochs").unwrap_or(6),
        addr: cli.value("--addr").unwrap_or_else(|| "127.0.0.1:0".into()),
        dir: cli.value("--dir"),
        k: cli.value("--k").unwrap_or(8),
        keep: cli.flag("--keep"),
    };
    cli.finish();
    if args.epochs == 0 {
        cli.fail("--epochs must be at least 1");
    }
    if args.k == 0 {
        cli.fail("--k must be at least 1");
    }
    args
}

/// One builder for every recommender in the process — server-side,
/// reload closure, and in-process comparators must agree on serving
/// configuration for rankings to be bit-comparable.
fn build_recommender(artifact: ModelArtifact, k: usize) -> Result<Recommender, String> {
    RecommenderBuilder::new(artifact)
        .default_k(k)
        .threads(1)
        .build()
        .map_err(|e| format!("invalid serving configuration: {e}"))
}

fn load_generation(dir: &Path, version: u64, k: usize) -> Recommender {
    let path = hf_pipeline::artifact_path(dir, version);
    let artifact = ModelArtifact::load_file(&path)
        .unwrap_or_else(|e| panic!("cannot load {}: {e}", path.display()));
    build_recommender(artifact, k).expect("valid serving configuration")
}

/// Issues one wire request per user and asserts every response carries
/// `slot_version` and bit-matches the in-process `reference` ranking.
fn verify_stamped(
    client: &mut Client,
    users: &[usize],
    k: usize,
    slot_version: u64,
    reference: &Recommender,
) -> usize {
    for (i, &user) in users.iter().enumerate() {
        let request = RecommendRequest::new(user).with_k(k);
        let wire = WireRequest::try_from_request((slot_version << 32) | (i as u64 + 1), &request)
            .expect("no closure filters on the wire");
        let served: WireResponse = client.recommend_wire(wire).expect("request served");
        assert_eq!(
            served.version, slot_version,
            "user {user}: response stamped v{}, expected v{slot_version}",
            served.version
        );
        let expect = reference.recommend(&request);
        assert_eq!(
            served.items.len(),
            expect.items.len(),
            "user {user}: ranking lengths differ"
        );
        for (got, want) in served.items.iter().zip(&expect.items) {
            assert_eq!(got.item, want.item, "user {user}: ranked items differ");
            assert_eq!(
                got.score.to_bits(),
                want.score.to_bits(),
                "user {user}: score bits differ on item {}",
                got.item
            );
        }
    }
    users.len()
}

fn main() {
    let args = parse_args();
    let dir = args.dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("hf-pipeline-{}", std::process::id()))
    });

    // 1. Carve the stream, split the base, start the pipeline (exports v1).
    let data = SyntheticConfig::tiny().generate(args.seed);
    let replay = ReplayConfig {
        item_frac: 0.2,
        new_users: 2,
        start: 1,
        horizon: 8,
    };
    let (base, stream) = ReplayStream::replay(&data, &replay, args.seed);
    println!(
        "hf-pipeline: base {} users, {} items; stream holds {} events ({} new users)",
        base.num_users(),
        base.num_items(),
        stream.events().len(),
        replay.new_users
    );
    let split = SplitDataset::paper_split(&base, args.seed);
    let mut cfg = TrainConfig::test_default(ModelKind::Ncf);
    cfg.epochs = args.epochs;
    cfg.seed = args.seed;
    let session = SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), split)
        .eval_every(0)
        .build()
        .expect("valid training configuration");
    let mut driver = PipelineDriver::new(
        session,
        stream,
        PipelineConfig {
            rounds_per_cycle: 3,
            export_every: 2,
            artifact_dir: dir.clone(),
        },
    )
    .expect("initial artifact export");

    // 2. Serve generation 1 while the pipeline trains.
    let slot = ArtifactSlot::new(load_generation(&dir, 1, args.k));
    let reload_dir = dir.clone();
    let reload_k = args.k;
    let reload: ReloadFn = Box::new(move || {
        let (version, path) = latest_artifact(&reload_dir)
            .map_err(|e| format!("cannot scan artifact dir: {e}"))?
            .ok_or_else(|| "no artifact on disk yet".to_string())?;
        let artifact =
            ModelArtifact::load_file(&path).map_err(|e| format!("cannot load v{version}: {e}"))?;
        build_recommender(artifact, reload_k)
    });
    let server_cfg = ServerConfig {
        batch_max: 16,
        queue_capacity: 64,
    };
    let handle = serve_slot(slot, Some(reload), &args.addr, server_cfg)
        .unwrap_or_else(|e| fatal(format!("cannot serve on {}: {e}", args.addr)));
    println!(
        "hf-pipeline: exported artifact-v1.hfab; serving on {}",
        handle.local_addr()
    );
    let mut client =
        Client::connect_retry(handle.local_addr(), Duration::from_secs(5)).expect("connect");

    // 3. Pre-swap traffic: stamped v1, bit-identical to generation 1.
    let users: Vec<usize> = (0..6).collect();
    let gen1 = load_generation(&dir, 1, args.k);
    let pre = verify_stamped(&mut client, &users, args.k, 1, &gen1);
    println!("hf-pipeline: pre-swap rankings match generation 1 bit-for-bit ({pre} requests)");

    // 4. Run the pipeline to completion, exporting as it goes.
    let reports = driver.run().expect("pipeline runs to completion");
    for r in &reports {
        let exported = match &r.exported {
            Some((v, _)) => format!(", exported v{v}"),
            None => String::new(),
        };
        println!(
            "hf-pipeline: cycle {}: {} rounds, ingested {} (+{} users, {} dup), clock {}{exported}",
            r.cycle, r.rounds, r.ingest.appended, r.ingest.admitted, r.ingest.duplicates, r.clock
        );
    }
    let generations = driver.version();
    let (session, stream) = driver.into_parts();
    println!(
        "hf-pipeline: pipeline finished: {generations} generations exported, {} events ingested, {} undelivered",
        session.ingested_events(),
        stream.remaining()
    );
    assert!(
        generations >= 2,
        "pipeline must export a fresher generation"
    );

    // 5. Hot swap over the wire: slot v1 -> v2, serving the newest file.
    let swapped_to = client.reload().expect("reload acknowledged");
    assert_eq!(swapped_to, 2, "first swap must bump the slot to v2");
    println!("hf-pipeline: reload acknowledged: slot v2 = artifact-v{generations}.hfab");
    let fresh = load_generation(&dir, generations, args.k);
    let post = verify_stamped(&mut client, &users, args.k, 2, &fresh);
    println!(
        "hf-pipeline: post-swap rankings match generation {generations} bit-for-bit ({post} requests)"
    );
    println!("hot swap verified: v1 -> v2, rankings attributable");

    // 6. Price the staleness on the held-out events.
    let report = drift_report(&gen1, &fresh, stream.events(), 10);
    println!(
        "hf-pipeline: drift over {} held-out events @{}: stale NDCG {:.5}, fresh {:.5}, delta {:+.5}, mean displacement {:.2}",
        report.events,
        report.k,
        report.stale_ndcg,
        report.fresh_ndcg,
        report.ndcg_delta,
        report.mean_rank_displacement
    );

    client.shutdown_server().expect("shutdown frame");
    handle.wait();
    if !args.keep && args.dir.is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!("hf-pipeline: done");
}
