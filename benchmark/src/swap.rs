//! `serve_swap`: writes beside reads.
//!
//! A real `Session` trains on a MovieLens-shaped population of 24 000
//! users while a `serve_slot` server answers requests from the artifacts
//! it exports. One reader runs an open loop at 500 req/s; one writer
//! calls `PipelineDriver::run_cycle` (ingest, one round, export) and
//! then `Client::reload()` every 333 ms. The serving layer is used the
//! other way round from `serve_rank`: lazily loaded users, tiled item
//! halves, and every swap hands readers a cold user LRU and panel cache,
//! while an O(artifact) export competes for a core. A read-path gain
//! that costs the swap path shows up here.
//!
//! Generations are retired as they are replaced: sustained 8 MiB writes
//! that are never deleted reach the disk, and this VM's disk then
//! throttles every later write from 2 ms to 50–100 ms, which would make
//! the workload measure the hypervisor. Before a generation's file goes,
//! the writer ranks the sampled requests that generation can have
//! answered, so every sampled response is still checked byte for byte.

use crate::conn::{self, Conn, Schedule};
use crate::report::Outcome;
use crate::serve::{
    judge, matmul_probe, open_loop_metrics, probe_ns, verified_metrics, warm_up, wire_metrics,
};
use crate::stats::{median, quantile};
use crate::trace::{share_metrics, Tracer};
use crate::{Plan, Scratch};
use hetefedrec_core::{Ablation, Session, SessionBuilder, SessionEvent, Strategy, TrainConfig};
use hf_dataset::{DatasetProfile, SplitDataset};
use hf_models::ModelKind;
use hf_net::{
    serve_slot, Client, Frame, ReloadFn, ServerConfig, ServerHandle, WireRequest, WireResponse,
};
use hf_pipeline::{
    artifact_path, latest_artifact, InteractionStream, PipelineConfig, PipelineDriver,
    ReplayConfig, ReplayStream,
};
use hf_serve::{
    ArtifactSlot, ExportArtifact, ItemHalfMode, LazyConfig, ModelArtifact, RecommendRequest,
    Recommender, RecommenderBuilder,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Open-loop arrival rate of the reader, requests/second.
const READ_RATE: f64 = 500.0;
/// The writer starts a cycle this often.
const SWAP_EVERY: Duration = Duration::from_millis(333);
/// Requests due this soon after a `Reloaded` ack meet cold caches.
const SWAP_WINDOW_NS: u64 = 50_000_000;
/// Ticks over which the held-out interactions arrive: a few thousand
/// events fall due per cycle.
const STREAM_HORIZON: u64 = 256;

/// Generations the server loaded, in slot-version order: slot version
/// `v` serves generation `loaded[v - 1]`.
type Loaded = Arc<Mutex<Vec<u64>>>;

pub struct Env {
    driver: PipelineDriver<ReplayStream>,
    server: ServerHandle,
    slot: ArtifactSlot,
    addr: SocketAddr,
    dir: PathBuf,
    loaded: Loaded,
    users: u64,
}

/// What the server does on `Reload`: find the newest generation, open
/// it lazily, serve it with a two-panel tile cache.
fn open_latest(dir: &Path) -> Result<(u64, Recommender), String> {
    let (generation, path) = latest_artifact(dir)
        .map_err(|e| e.to_string())?
        .ok_or("no artifact generation on disk")?;
    let artifact =
        ModelArtifact::load_file_lazy(&path, LazyConfig::default()).map_err(|e| e.to_string())?;
    let recommender = build_tiled(artifact)?;
    Ok((generation, recommender))
}

fn build_tiled(artifact: ModelArtifact) -> Result<Recommender, String> {
    RecommenderBuilder::new(artifact)
        .default_k(conn::K as usize)
        .threads(1)
        .item_half_mode(ItemHalfMode::Tiled { max_panels: 2 })
        .build()
        .map_err(|e| e.to_string())
}

fn setup(plan: &Plan, scratch: &Scratch) -> Env {
    let mut data_cfg = DatasetProfile::MovieLens.config_scaled(0.25);
    data_cfg.num_users = if plan.smoke { 3_000 } else { 24_000 };
    let data = data_cfg.generate(plan.seed);
    let replay = ReplayConfig {
        item_frac: 0.2,
        new_users: 8,
        start: 1,
        horizon: STREAM_HORIZON,
    };
    let (base, stream) = ReplayStream::replay(&data, &replay, plan.seed);
    let split = SplitDataset::paper_split(&base, plan.seed);
    let users = split.num_users() as u64;

    let mut cfg = TrainConfig::paper_defaults(ModelKind::Ncf, DatasetProfile::MovieLens);
    cfg.seed = plan.seed;
    cfg.clients_per_round = 16;
    // One worker: the writer takes one core, the server the other.
    cfg.threads = 1;
    cfg.epochs = 1_000; // the run ends on the clock, never on the horizon
    let session = SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), split)
        .eval_every(0)
        .build()
        .expect("valid training configuration");

    let dir = scratch.path().join("generations");
    let driver = PipelineDriver::new(
        session,
        stream,
        PipelineConfig {
            rounds_per_cycle: 1,
            export_every: 1,
            artifact_dir: dir.clone(),
        },
    )
    .expect("export generation 1");

    let loaded: Loaded = Arc::new(Mutex::new(Vec::new()));
    let (generation, recommender) = open_latest(&dir).expect("open generation 1");
    loaded.lock().expect("loaded log").push(generation);
    let slot = ArtifactSlot::new(recommender);
    let reload: ReloadFn = {
        let (dir, loaded) = (dir.clone(), Arc::clone(&loaded));
        Box::new(move || {
            let (generation, recommender) = open_latest(&dir)?;
            loaded
                .lock()
                .map_err(|_| "loaded log poisoned")?
                .push(generation);
            Ok(recommender)
        })
    };
    let server = serve_slot(
        slot.clone(),
        Some(reload),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind a loopback port");
    let addr = server.local_addr();
    warm_up(addr, plan.seed, users);
    Env {
        driver,
        server,
        slot,
        addr,
        dir,
        loaded,
        users,
    }
}

/// One swap as the writer saw it.
struct Swap {
    cycle_ms: f64,
    reload_ms: f64,
    /// When `run_cycle` began and when `Reloaded` arrived.
    start_ns: u64,
    ack_ns: u64,
    artifact_bytes: u64,
}

/// Encoded reference answers by `(generation, request sequence number)`.
type References = HashMap<(u64, usize), Vec<u8>>;

/// Ranks, against `generation`, the sampled requests due in
/// `from_ns..=to_ns` (offsets from the window start) and deletes the
/// generation's file. The server may still hold the file open; an
/// unlinked file stays readable.
fn retire(
    dir: &Path,
    (generation, slot_version): (u64, u64),
    schedule: &Schedule,
    (from_ns, to_ns): (u64, u64),
    references: &mut References,
) {
    let path = artifact_path(dir, generation);
    let sampled: Vec<usize> = (0..schedule.requests.len())
        .step_by(conn::VERIFY_EVERY as usize)
        .filter(|&seq| (from_ns..=to_ns).contains(&schedule.due_ns[seq]))
        .collect();
    if !sampled.is_empty() {
        let reference = ModelArtifact::load_file_lazy(&path, LazyConfig::default())
            .map_err(|e| e.to_string())
            .and_then(build_tiled)
            .expect("reopen a generation the server served");
        let requests: Vec<RecommendRequest> = sampled
            .iter()
            .map(|&seq| schedule.requests[seq].to_request())
            .collect();
        for (&seq, answer) in sampled.iter().zip(reference.recommend_batch(&requests)) {
            let wire =
                WireResponse::from_response(schedule.requests[seq].id, slot_version, &answer);
            references.insert((generation, seq), Frame::Response(wire).encode());
        }
    }
    let _ = std::fs::remove_file(path);
}

/// The writer: cycle + reload on a fixed cadence until `end_ns`.
fn write_loop(
    env: &mut Env,
    schedule: &Schedule,
    epoch: Instant,
    (start_ns, end_ns): (u64, u64),
    outcome: &mut Outcome,
) -> (Vec<Swap>, References) {
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut client = Client::connect(env.addr).expect("connect the writer's control client");
    let mut swaps = Vec::new();
    let mut references = References::new();
    // The live generation, its slot version, and when it went live.
    let mut live = (env.driver.version(), env.slot.version(), 0u64);
    let mut next = now() + SWAP_EVERY.as_nanos() as u64;
    while next + SWAP_EVERY.as_nanos() as u64 <= end_ns {
        let t = now();
        if next > t {
            std::thread::sleep(Duration::from_nanos(next - t));
        }
        next += SWAP_EVERY.as_nanos() as u64;
        outcome.attempted += 1;

        let cycle_start_ns = now();
        let started = Instant::now();
        let exported = match env.driver.run_cycle() {
            Ok(Some(report)) => report.exported,
            Ok(None) => None,
            Err(e) => {
                outcome.notes.push(format!("run_cycle failed: {e}"));
                None
            }
        };
        let cycle_ms = started.elapsed().as_secs_f64() * 1e3;
        let Some((generation, path)) = exported else {
            outcome.failed += 1;
            continue;
        };
        let reload_started = Instant::now();
        let version = match client.reload() {
            Ok(v) if v == live.1 + 1 => v,
            other => {
                outcome.failed += 1;
                outcome.notes.push(format!(
                    "reload after version {} answered {other:?}",
                    live.1
                ));
                continue;
            }
        };
        let ack_ns = now();
        swaps.push(Swap {
            cycle_ms,
            reload_ms: reload_started.elapsed().as_secs_f64() * 1e3,
            start_ns: cycle_start_ns,
            ack_ns,
            artifact_bytes: std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
        });
        // The replaced generation answered requests due from a late
        // limit before it went live until a late limit from now.
        let due = (
            live.2.saturating_sub(conn::LATE_LIMIT_NS),
            ack_ns - start_ns + conn::LATE_LIMIT_NS,
        );
        retire(&env.dir, (live.0, live.1), schedule, due, &mut references);
        live = (generation, version, ack_ns - start_ns);
    }
    let due = (live.2.saturating_sub(conn::LATE_LIMIT_NS), u64::MAX);
    retire(&env.dir, (live.0, live.1), schedule, due, &mut references);
    (swaps, references)
}

fn end_to_end(plan: &Plan, env: &mut Env, outcome: &mut Outcome) -> Vec<WireRequest> {
    let window = Duration::from_secs_f64(plan.seconds);
    let schedule = Schedule::poisson(plan.seed, 0, env.users, READ_RATE, window);
    let epoch = Instant::now();
    let start_ns = epoch.elapsed().as_nanos() as u64;
    let end_ns = start_ns + window.as_nanos() as u64;
    let reader = Conn::connect(env.addr).expect("connect the reader");

    let (read_log, (swaps, references)) = std::thread::scope(|scope| {
        let schedule = &schedule;
        let reading = scope.spawn(move || conn::open_loop(reader, schedule, epoch, start_ns));
        let written = write_loop(env, schedule, epoch, (start_ns, end_ns), outcome);
        (reading.join().expect("reader panicked"), written)
    });
    judge(&read_log, "reader", outcome);
    // Every read of the window counts, the ones that fell due while a
    // cycle ran (reader, trainer and server: three busy threads on two
    // cores) included: a write path that starves reads must show here.
    open_loop_metrics(&read_log, outcome);
    wire_metrics(&read_log, outcome);
    // Goodput at the fixed offered rate: reads answered inside the
    // lateness limit per second of window.
    let in_time = read_log.sent() - read_log.missing_or_late();
    outcome
        .end_to_end
        .put("throughput", in_time as f64 / plan.seconds, "1/s");
    // The same reads split by what the writer was doing when they fell due.
    let (due, lat) = read_log.latencies_ms();
    let in_cycle = |due: u64| swaps.iter().any(|s| (s.start_ns..=s.ack_ns).contains(&due));
    let busy: Vec<f64> = due
        .iter()
        .zip(&lat)
        .filter(|(&due, _)| in_cycle(due))
        .map(|(_, &ms)| ms)
        .collect();
    for (name, p) in [
        ("net.server.cycle_window_p50_ms", 0.5),
        ("net.server.cycle_window_p90_ms", 0.9),
    ] {
        outcome
            .layers
            .put(name, quantile(&busy, p).unwrap_or(f64::NAN), "ms");
    }

    let col = |f: fn(&Swap) -> f64| -> Vec<f64> { swaps.iter().map(f).collect() };
    let swap_p50 = median(&col(|s| s.cycle_ms + s.reload_ms)).unwrap_or(f64::NAN);
    let bytes = col(|s| s.artifact_bytes as f64);
    let mean_bytes = bytes.iter().sum::<f64>() / bytes.len().max(1) as f64;
    outcome.end_to_end.put("swap_p50_ms", swap_p50, "ms");
    outcome
        .end_to_end
        .put("io_kib_per_op", mean_bytes / 1024.0, "KiB");
    outcome.counts.put("swaps", swaps.len() as f64, "count");
    let layers = &mut outcome.layers;
    layers.put(
        "pipeline.driver.cycle_ms",
        median(&col(|s| s.cycle_ms)).unwrap_or(f64::NAN),
        "ms",
    );
    layers.put(
        "net.client.reload_ms",
        median(&col(|s| s.reload_ms)).unwrap_or(f64::NAN),
        "ms",
    );
    // Requests that fell due just after a swap: they meet an empty user
    // LRU and an empty panel cache.
    let cold: Vec<f64> = due
        .iter()
        .zip(&lat)
        .filter(|(&due, _)| {
            swaps
                .iter()
                .any(|s| due >= s.ack_ns && due - s.ack_ns <= SWAP_WINDOW_NS)
        })
        .map(|(_, &ms)| ms)
        .collect();
    layers.put(
        "net.server.swap_window_p50_ms",
        median(&cold).unwrap_or(f64::NAN),
        "ms",
    );
    layers.put(
        "serve.lazy.cached_user_records",
        env.slot.load().1.artifact().cached_user_records() as f64,
        "count",
    );

    // Check every sampled response, byte for byte, against the ranking
    // of the generation its version names.
    let loaded = env.loaded.lock().expect("loaded log").clone();
    let wrong = read_log
        .sampled
        .iter()
        .filter(|(request, served)| {
            let generation = (served.version as usize)
                .checked_sub(1)
                .and_then(|i| loaded.get(i));
            let expect = generation
                .and_then(|&g| references.get(&(g, conn::RequestGen::seq_of(request.id))));
            expect != Some(&Frame::Response(served.clone()).encode())
        })
        .count() as u64;
    if wrong > 0 {
        outcome.failed += wrong;
        outcome.notes.push(format!(
            "{wrong} of {} sampled responses differ from the generation they name",
            read_log.sampled.len()
        ));
    }
    verified_metrics(read_log.sampled.len() as u64, wrong, outcome);
    schedule.requests
}

/// One shadow cycle out of the public pieces `run_cycle` and the reload
/// closure are made of, each under its own span.
#[allow(clippy::too_many_arguments)]
fn shadow_cycle(
    tr: &mut Tracer,
    session: &mut Session,
    stream: &mut ReplayStream,
    dir: &Path,
    slot: &ArtifactSlot,
    generation: u64,
    probe: &RecommendRequest,
) {
    let op = generation;
    let root = tr.begin("root.swap.cycle", op);
    let events = tr.span("pipeline.stream.poll", op, || stream.poll(session.clock()));
    tr.span("core.session.ingest", op, || {
        let pairs: Vec<(usize, u32)> = events.iter().map(|e| (e.user, e.item)).collect();
        session.ingest(&pairs)
    });
    tr.span("core.session.step", op, || {
        while let Some(event) = session.step() {
            if matches!(event, SessionEvent::Round(_)) {
                break;
            }
        }
    });
    let artifact = tr.span("serve.artifact.export", op, || session.export_artifact());
    let path = artifact_path(dir, generation);
    tr.span("serve.binfmt.save", op, || {
        artifact.save_file(&path).expect("write a generation")
    });
    drop(artifact);
    let (_, latest) = tr
        .span("pipeline.driver.latest_artifact", op, || {
            latest_artifact(dir)
        })
        .expect("list generations")
        .expect("a generation exists");
    let lazy = tr.span("serve.lazy.load", op, || {
        ModelArtifact::load_file_lazy(&latest, LazyConfig::default()).expect("open lazily")
    });
    let recommender = tr.span("serve.recommender.build", op, || {
        build_tiled(lazy).expect("valid serving configuration")
    });
    tr.span("serve.recommender.first_batch", op, || {
        black_box(recommender.recommend_batch(std::slice::from_ref(probe)))
    });
    tr.span("serve.slot.swap", op, || slot.swap(recommender));
    tr.end(root);
    // Retired like the end-to-end pass retires them (see the module docs).
    let _ = std::fs::remove_file(artifact_path(dir, generation - 1));
}

/// The traced pass: shadow cycles, recorder off and on alternately.
fn traced(plan: &Plan, env: Env, captured: &[WireRequest], outcome: &mut Outcome) -> Tracer {
    let Env {
        driver,
        server,
        slot,
        dir,
        ..
    } = env;
    server.shutdown();
    let swap_p50_ms = outcome.end_to_end.get("swap_p50_ms").unwrap_or(f64::NAN);
    let mut generation = driver.version();
    let (mut session, mut stream) = driver.into_parts();
    let probe = captured[0].to_request();

    let cycles = if plan.smoke {
        4
    } else {
        // ~50 ms a cycle, half of them traced
        ((plan.trace_budget_s() / 0.06) as usize).clamp(8, 40)
    };
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    for c in 0..cycles {
        generation += 1;
        let (tracer, times) = if c % 2 == 0 {
            (&mut tr, &mut traced_ms)
        } else {
            (&mut off, &mut untraced_ms)
        };
        let t = Instant::now();
        shadow_cycle(
            tracer,
            &mut session,
            &mut stream,
            &dir,
            &slot,
            generation,
            &probe,
        );
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }

    let layers = &mut outcome.layers;
    share_metrics(&tr, layers);
    let (on, off_ms) = (
        median(&traced_ms).unwrap_or(f64::NAN),
        median(&untraced_ms).unwrap_or(f64::NAN),
    );
    layers.put("trace.overhead_share", on / off_ms - 1.0, "ratio");
    let root_p50_us = median(&tr.durations_us("root.swap.cycle", None)).unwrap_or(f64::NAN);
    layers.put("trace.root_p50_us", root_p50_us, "us");
    layers.put(
        "bench.e2e_vs_root",
        swap_p50_ms * 1e3 / root_p50_us,
        "ratio",
    );
    let p50 = |name: &str| median(&tr.durations_us(name, None)).unwrap_or(f64::NAN);
    layers.put("core.session.step_ms", p50("core.session.step") / 1e3, "ms");
    layers.put(
        "core.session.ingest_ms",
        p50("core.session.ingest") / 1e3,
        "ms",
    );
    layers.put(
        "serve.artifact.export_ms",
        p50("serve.artifact.export") / 1e3,
        "ms",
    );
    layers.put("serve.binfmt.save_ms", p50("serve.binfmt.save") / 1e3, "ms");
    layers.put(
        "pipeline.driver.latest_artifact_us",
        p50("pipeline.driver.latest_artifact"),
        "us",
    );
    layers.put("serve.lazy.load_ms", p50("serve.lazy.load") / 1e3, "ms");
    layers.put(
        "serve.recommender.build_ms",
        p50("serve.recommender.build") / 1e3,
        "ms",
    );
    layers.put(
        "serve.recommender.first_batch_ms",
        p50("serve.recommender.first_batch") / 1e3,
        "ms",
    );
    layers.put("serve.slot.swap_us", p50("serve.slot.swap"), "us");
    let newest = artifact_path(&dir, generation);
    layers.put(
        "serve.binfmt.file_mib",
        std::fs::metadata(&newest).map(|m| m.len()).unwrap_or(0) as f64 / (1 << 20) as f64,
        "MiB",
    );

    // The lazy user store, cold and warm: a first touch decodes the
    // record from the file, a second finds it in the shard LRU.
    let lazy = ModelArtifact::load_file_lazy(&newest, LazyConfig::default()).expect("open lazily");
    let users: Vec<usize> = captured
        .iter()
        .map(|r| r.user as usize)
        .filter(|&u| u < lazy.num_users())
        .take(256)
        .collect();
    let t = Instant::now();
    for &u in &users {
        black_box(lazy.user(u));
    }
    layers.put(
        "serve.lazy.user_miss_us",
        t.elapsed().as_secs_f64() * 1e6 / users.len().max(1) as f64,
        "us",
    );
    let hit_ns = probe_ns(Duration::from_millis(10), || {
        for &u in &users {
            black_box(lazy.user(u));
        }
    });
    layers.put(
        "serve.lazy.user_hit_ns",
        hit_ns / users.len().max(1) as f64,
        "ns",
    );
    matmul_probe(plan.seed, layers);
    tr
}

pub fn run(plan: &Plan) -> (Outcome, Option<Tracer>) {
    let mut outcome = Outcome::default();
    let (mut env, scratch) = plan.set_up(&mut outcome, |scratch| setup(plan, scratch));
    let captured = end_to_end(plan, &mut env, &mut outcome);
    plan.record_peak_rss(&mut outcome);
    let tracer = if plan.traced() {
        Some(traced(plan, env, &captured, &mut outcome))
    } else {
        env.server.shutdown();
        None
    };
    drop(scratch);
    (outcome, tracer)
}
