//! `serve_rank` and `serve_wire`: the request path socket→socket
//! through `hf_net::serve_slot`, on a synthesized artifact.
//!
//! The two differ only in catalogue size. At 10 000 items ranking is
//! almost all of a request, so kernel and allocation work shows and wire
//! changes should not; at 256 items ranking is ~20 µs and framing, the
//! batch window, thread hand-offs and socket writes are what is left.
//! Each is the other's control.

use crate::conn::{self, Conn, PhaseLog, RequestGen, Schedule};
use crate::report::{Metrics, Outcome};
use crate::stats::{chunk_rates, median, quantile, supported_percentile};
use crate::trace::{share_metrics, Tracer};
use crate::{Plan, Scratch};
use hetefedrec_core::config::TierDims;
use hf_dataset::{SyntheticProfile, Tier};
use hf_metrics::topk::top_k_scored;
use hf_models::scoring::SplitNcf;
use hf_net::{serve_slot, Frame, ServerConfig, ServerHandle, WireRequest, WireResponse};
use hf_serve::{
    ArtifactSlot, ItemHalfMode, ModelArtifact, RecommendRequest, Recommender, RecommenderBuilder,
};
use hf_tensor::rng::{substream, Rng, SeedStream};
use hf_tensor::Matrix;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Population of the synthesized artifact.
const USERS: usize = 20_000;
/// Requests answered before anything is timed.
pub const WARMUP_REQUESTS: usize = 200;
/// In-flight requests per closed-loop connection.
const OUTSTANDING: usize = 32;
/// Closed-loop throughput is the median rate over this many segments of
/// the window (about half a second each at ten seconds).
const RATE_SEGMENTS: usize = 9;
/// The ISSUE's lateness limit; answers past it are counted per layer,
/// answers past `conn::LATE_LIMIT_NS` fail.
const SLOW_NS: u64 = 250_000_000;
/// Hot swaps of the served artifact into the live slot after the window.
const ADOPTIONS: usize = 15;

/// What distinguishes the two workloads.
pub struct Spec {
    pub items: usize,
    /// Open-loop arrival rate, requests/second.
    pub open_rate: f64,
}

pub const RANK: Spec = Spec {
    items: 10_000,
    open_rate: 400.0,
};
pub const WIRE: Spec = Spec {
    items: 256,
    open_rate: 2000.0,
};

/// A booted server and what booting it cost.
pub struct Env {
    pub server: ServerHandle,
    pub slot: ArtifactSlot,
    pub addr: SocketAddr,
    /// Set-up stages, ms: synthesize, save, load, build, first batch.
    pub stages_ms: [f64; 5],
    /// The artifact file the server booted from.
    pub path: PathBuf,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Answers `WARMUP_REQUESTS` requests so lazy set-up (thread stacks,
/// socket buffers, allocator pools) is paid before the window opens.
pub fn warm_up(addr: SocketAddr, seed: u64, users: u64) {
    let mut conn = Conn::connect(addr).expect("connect for warm-up");
    conn.set_read_timeout(Duration::from_secs(5))
        .expect("warm-up read timeout");
    for request in RequestGen::new(seed, 99, users).take(WARMUP_REQUESTS) {
        conn.send(&Frame::Request(request)).expect("warm-up send");
        conn.recv().expect("warm-up answer");
    }
}

/// What a server does to adopt a generation: reads the artifact file
/// eagerly, builds its recommender (item halves precomputed) and ranks a
/// first batch. Returns the three stages' times, ms.
fn adopt(path: &Path) -> (Recommender, [f64; 3]) {
    let t = Instant::now();
    let artifact = ModelArtifact::load_file(path).expect("read the artifact back");
    let load_ms = ms(t);
    let t = Instant::now();
    let recommender = RecommenderBuilder::new(artifact)
        .default_k(conn::K as usize)
        .threads(1)
        .item_half_mode(ItemHalfMode::Precomputed)
        .build()
        .expect("valid serving configuration");
    let build_ms = ms(t);
    let t = Instant::now();
    black_box(recommender.recommend_batch(&[RecommendRequest::new(0)]));
    let first_batch_ms = ms(t);
    (recommender, [load_ms, build_ms, first_batch_ms])
}

/// Synthesizes, saves, loads and builds the artifact, boots the server
/// and warms it up: everything `setup_s` covers.
pub fn setup(spec: &Spec, seed: u64, scratch: &Scratch) -> Env {
    let profile = SyntheticProfile::new(USERS, spec.items);
    let path = scratch.path().join("serve.hfab");

    let t = Instant::now();
    let artifact = ModelArtifact::synthesize(&profile, TierDims::new(8, 16, 32), seed)
        .expect("valid synthetic profile");
    let synth_ms = ms(t);
    let t = Instant::now();
    artifact.save_file(&path).expect("write the artifact");
    let save_ms = ms(t);
    drop(artifact);

    let (recommender, [load_ms, build_ms, first_batch_ms]) = adopt(&path);

    let slot = ArtifactSlot::new(recommender);
    let server = serve_slot(slot.clone(), None, "127.0.0.1:0", ServerConfig::default())
        .expect("bind a loopback port");
    let addr = server.local_addr();
    warm_up(addr, seed, USERS as u64);
    Env {
        server,
        slot,
        addr,
        stages_ms: [synth_ms, save_ms, load_ms, build_ms, first_batch_ms],
        path,
    }
}

/// Replays every sampled exchange through `recommender` in-process and
/// counts the responses whose encoded bytes differ.
pub fn mismatches(recommender: &Recommender, sampled: &[(WireRequest, WireResponse)]) -> u64 {
    let requests: Vec<RecommendRequest> = sampled.iter().map(|(q, _)| q.to_request()).collect();
    let expected = recommender.recommend_batch(&requests);
    sampled
        .iter()
        .zip(&expected)
        .filter(|((request, served), expect)| {
            let want = WireResponse::from_response(request.id, served.version, expect);
            Frame::Response(served.clone()).encode() != Frame::Response(want).encode()
        })
        .count() as u64
}

/// `quality` on a serving workload: the share of sampled responses that
/// are byte for byte the in-process ranking.
pub fn verified_metrics(sampled: u64, wrong: u64, outcome: &mut Outcome) {
    let verified = sampled - wrong;
    outcome
        .end_to_end
        .put("quality", verified as f64 / sampled.max(1) as f64, "ratio");
    outcome
        .counts
        .put("verified_responses", verified as f64, "count");
}

/// Failure counts and notes every serving workload derives from a log.
pub fn judge(log: &PhaseLog, phase: &str, outcome: &mut Outcome) {
    outcome.attempted += log.sent();
    let lost = log.missing_or_late();
    outcome.failed += lost + log.non_monotone + log.unexpected;
    if lost + log.non_monotone + log.unexpected + log.remote_errors > 0 {
        outcome.notes.push(format!(
            "{phase}: {lost} unanswered or later than 1 s, {} error frames, \
             {} stray answers, {} version regressions",
            log.remote_errors, log.unexpected, log.non_monotone
        ));
    }
}

/// The open-loop numbers, over every answered request of the window,
/// each timed from the instant it was due: `op_p50_ms`, `op_p90_ms`, and
/// the tail and generator-lateness layer metrics.
pub fn open_loop_metrics(log: &PhaseLog, outcome: &mut Outcome) {
    let (_, lat) = log.latencies_ms();
    let q = |p| quantile(&lat, p).unwrap_or(f64::NAN);
    outcome.end_to_end.put("op_p50_ms", q(0.5), "ms");
    outcome.end_to_end.put("op_p90_ms", q(0.9), "ms");
    let tail = supported_percentile(lat.len(), 0.99, 10);
    outcome.layers.put("net.server.lat_p99_ms", q(tail), "ms");
    outcome
        .layers
        .put("net.server.lat_percentile", tail, "ratio");
    outcome
        .layers
        .put("net.server.lat_samples", lat.len() as f64, "count");
    let slow = lat.iter().filter(|&&ms| ms * 1e6 > SLOW_NS as f64).count();
    outcome
        .layers
        .put("net.server.over_250ms", slow as f64, "count");
    let late = log.lateness_us();
    outcome.layers.put(
        "bench.gen.late_p99_us",
        quantile(&late, 0.99).unwrap_or(f64::NAN),
        "us",
    );
    outcome.layers.put(
        "bench.gen.late_p50_us",
        median(&late).unwrap_or(f64::NAN),
        "us",
    );
}

/// Wire cost per request, exact: encoded bytes in both directions.
/// Returns their sum.
pub fn wire_metrics(log: &PhaseLog, outcome: &mut Outcome) -> f64 {
    let req = log.req_bytes as f64 / log.sent().max(1) as f64;
    let resp = log.resp_bytes as f64 / log.answered().max(1) as f64;
    outcome.layers.put("net.frame.req_bytes", req, "B");
    outcome.layers.put("net.frame.resp_bytes", resp, "B");
    req + resp
}

/// The end-to-end pass: open loop on one connection, then a closed loop
/// on two.
fn end_to_end(spec: &Spec, plan: &Plan, env: &Env, outcome: &mut Outcome) -> Vec<WireRequest> {
    let open = Duration::from_secs_f64(plan.seconds * 0.55);
    let closed = Duration::from_secs_f64(plan.seconds * 0.45);
    let epoch = Instant::now();
    let now = || epoch.elapsed().as_nanos() as u64;

    let schedule = Schedule::poisson(plan.seed, 0, USERS as u64, spec.open_rate, open);
    let conn = Conn::connect(env.addr).expect("connect the open-loop client");
    let mut open_log = conn::open_loop(conn, &schedule, epoch, now());
    judge(&open_log, "open loop", outcome);
    open_loop_metrics(&open_log, outcome);

    let start_ns = now();
    let end_ns = start_ns + closed.as_nanos() as u64;
    let mut closed_log = PhaseLog::default();
    let logs: Vec<PhaseLog> = std::thread::scope(|scope| {
        let clients: Vec<_> = (1..=2u64)
            .map(|stream| {
                let conn = Conn::connect(env.addr).expect("connect a closed-loop client");
                scope.spawn(move || {
                    let mut gen = RequestGen::new(plan.seed, stream, USERS as u64);
                    conn::closed_loop(conn, &mut gen, OUTSTANDING, epoch, end_ns)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("closed-loop client panicked"))
            .collect()
    });
    for log in logs {
        judge(&log, "closed loop", outcome);
        closed_log.merge(log);
    }
    // Completions inside the window (the drain after it is excluded), in
    // segments that are whole batches; the median segment.
    let done: Vec<u64> = closed_log
        .done_ns
        .iter()
        .copied()
        .filter(|&t| t != 0 && t <= end_ns)
        .collect();
    let chunk = (done.len() / RATE_SEGMENTS / 64).max(1) * 64;
    let rates = chunk_rates(&done, chunk);
    outcome
        .end_to_end
        .put("throughput", median(&rates).unwrap_or(f64::NAN), "1/s");

    // Verify one exchange in 16 against the in-process ranking.
    let (_, recommender) = env.slot.load();
    let mut sampled = std::mem::take(&mut open_log.sampled);
    sampled.append(&mut closed_log.sampled);
    let wrong = mismatches(&recommender, &sampled);
    if wrong > 0 {
        outcome.failed += wrong;
        outcome.notes.push(format!(
            "{wrong} of {} sampled responses differ from in-process recommend_batch",
            sampled.len()
        ));
    }
    verified_metrics(sampled.len() as u64, wrong, outcome);

    open_log.merge(closed_log);
    let bytes_per_req = wire_metrics(&open_log, outcome);
    outcome
        .end_to_end
        .put("io_kib_per_op", bytes_per_req / 1024.0, "KiB");
    schedule.requests
}

/// The serving side of a hot swap, on the live server: the artifact file
/// opened, a first batch ranked, the slot swapped, [`ADOPTIONS`] times.
fn adoptions(env: &Env, outcome: &mut Outcome) {
    let adopt_ms: Vec<f64> = (0..ADOPTIONS)
        .map(|_| {
            let t = Instant::now();
            let (recommender, _) = adopt(&env.path);
            env.slot.swap(recommender);
            ms(t)
        })
        .collect();
    outcome
        .end_to_end
        .put("swap_p50_ms", median(&adopt_ms).unwrap_or(f64::NAN), "ms");
}

/// One replayed request through every stage a socket request crosses,
/// minus the socket and the batcher: client encode → server decode →
/// `to_request` → `recommend_batch` → `from_response` → `write_to` →
/// client decode.
fn replay_one(tr: &mut Tracer, rec: &Recommender, version: u64, request: &WireRequest, op: u64) {
    let root = tr.begin("root.replay.batch1", op);
    let bytes = tr.span("net.frame.encode_req", op, || {
        Frame::Request(request.clone()).encode()
    });
    let decoded = tr.span("net.frame.decode_req", op, || {
        Frame::decode(&bytes).expect("own encoding decodes")
    });
    let Frame::Request(wire) = decoded else {
        unreachable!("a request frame decodes to a request");
    };
    let lib = tr.span("net.frame.to_request", op, || wire.to_request());
    let responses = tr.span("serve.recommender.recommend_batch", op, || {
        rec.recommend_batch(std::slice::from_ref(&lib))
    });
    let answer = tr.span("net.frame.from_response", op, || {
        WireResponse::from_response(wire.id, version, &responses[0])
    });
    let mut out = Vec::with_capacity(256);
    tr.span("net.frame.encode_resp", op, || {
        Frame::Response(answer)
            .write_to(&mut out)
            .expect("write to memory")
    });
    tr.span("net.frame.decode_resp", op, || {
        black_box(Frame::decode(&out[4..]).expect("own encoding decodes"))
    });
    tr.end(root);
}

/// The same stages over a batch, as the batcher runs them under load.
fn replay_batch(tr: &mut Tracer, rec: &Recommender, version: u64, batch: &[WireRequest], op: u64) {
    let root = tr.begin("root.replay.batch64", op);
    let frames: Vec<Vec<u8>> = tr.span("net.frame.encode_req", op, || {
        batch
            .iter()
            .map(|r| Frame::Request(r.clone()).encode())
            .collect()
    });
    let wires: Vec<WireRequest> = tr.span("net.frame.decode_req", op, || {
        frames
            .iter()
            .map(|b| match Frame::decode(b).expect("own encoding decodes") {
                Frame::Request(w) => w,
                _ => unreachable!("a request frame decodes to a request"),
            })
            .collect()
    });
    let libs: Vec<RecommendRequest> = tr.span("net.frame.to_request", op, || {
        wires.iter().map(WireRequest::to_request).collect()
    });
    let responses = tr.span("serve.recommender.recommend_batch", op, || {
        rec.recommend_batch(&libs)
    });
    let answers: Vec<WireResponse> = tr.span("net.frame.from_response", op, || {
        wires
            .iter()
            .zip(&responses)
            .map(|(w, r)| WireResponse::from_response(w.id, version, r))
            .collect()
    });
    let mut out = Vec::with_capacity(256 * batch.len());
    let mut ends = Vec::with_capacity(batch.len());
    tr.span("net.frame.encode_resp", op, || {
        for answer in answers {
            Frame::Response(answer)
                .write_to(&mut out)
                .expect("write to memory");
            ends.push(out.len());
        }
    });
    tr.span("net.frame.decode_resp", op, || {
        let mut start = 0;
        for &end in &ends {
            black_box(Frame::decode(&out[start + 4..end]).expect("own encoding decodes"));
            start = end;
        }
    });
    tr.end(root);
}

/// Runs `f` in a loop for about `budget` (at least 3 times) and returns
/// the median nanoseconds per call.
pub fn probe_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    f(); // warm caches
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64);
        if samples.len() >= 10_000 {
            break;
        }
    }
    median(&samples).expect("at least three samples")
}

/// `tensor.matrix.matmul_rows_ns_per_fma` on the product shape every
/// path leans on: an `items × 32` table panel times a `32 × 8` first
/// layer. Seeded inputs; reported by every workload.
pub fn matmul_probe(seed: u64, layers: &mut Metrics) {
    let mut rng = substream(seed, SeedStream::Custom(0x6d6d), 0);
    let (rows, inner, cols) = (2048, 32, 8);
    let a = Matrix::from_fn(rows, inner, |_, _| rng.standard_normal_f32());
    let b = Matrix::from_fn(inner, cols, |_, _| rng.standard_normal_f32());
    let ns = probe_ns(Duration::from_millis(30), || {
        black_box(black_box(&a).matmul_rows(black_box(&b), 0, rows));
    });
    layers.put(
        "tensor.matrix.matmul_rows_ns_per_fma",
        ns / (rows * inner * cols) as f64,
        "ns",
    );
}

/// Kernel probes on the served artifact's own large-tier parameters: the
/// pieces `recommend_batch` is made of, which cannot be seen from
/// outside it.
pub fn scoring_probes(artifact: &ModelArtifact, layers: &mut Metrics) {
    let tier = Tier::Large;
    let table = artifact.table(tier);
    let scorer = SplitNcf::from_ffn(table.cols(), artifact.theta(tier));
    let items = table.rows();
    let user: Vec<f32> = artifact.fallback(tier).to_vec();
    let budget = Duration::from_millis(20);

    let ns = probe_ns(budget, || {
        black_box(scorer.user_half(black_box(&user)));
    });
    layers.put("models.scoring.user_half_ns", ns, "ns");

    let ns = probe_ns(budget, || {
        black_box(scorer.item_half_block(black_box(table), 0, items));
    });
    layers.put(
        "models.scoring.item_half_ns_per_item",
        ns / items as f64,
        "ns",
    );

    let halves = scorer.item_half_block(table, 0, items);
    let user_half = scorer.user_half(&user);
    let mut ws = scorer.workspace();
    let mut scores = vec![0.0f32; items];
    let ns = probe_ns(budget, || {
        for (r, s) in scores.iter_mut().enumerate() {
            *s = scorer.finish(&user_half, halves.row(r), &mut ws);
        }
        black_box(&scores);
    });
    layers.put("models.scoring.finish_ns_per_item", ns / items as f64, "ns");

    let ns = probe_ns(budget, || {
        black_box(top_k_scored(black_box(&scores), conn::K as usize, 0, &[]));
    });
    layers.put(
        "metrics.topk.top_k_scored_ns_per_item",
        ns / items as f64,
        "ns",
    );
}

/// The traced pass: replays captured requests in-process at batch 1 and
/// batch 64, once with the recorder off and once with it on.
fn traced(plan: &Plan, env: &Env, captured: &[WireRequest], outcome: &mut Outcome) -> Tracer {
    let (version, rec) = env.slot.load();
    let socket_p50_us = outcome.end_to_end.get("op_p50_ms").unwrap_or(f64::NAN) * 1e3;

    // Size the replay from one request, to fit a quarter of the budget
    // per pass (two passes, two batch shapes).
    let t = Instant::now();
    replay_one(&mut Tracer::new(false), &rec, version, &captured[0], 0);
    let one_s = t.elapsed().as_secs_f64().max(1e-6);
    let fit = (plan.trace_budget_s() / 4.0 / one_s) as usize;
    let n = fit.clamp(64, 1024).min(captured.len()) / 64 * 64;
    let requests = &captured[..n.max(1).min(captured.len())];

    // Recorder off and on alternate chunk by chunk (and swap order), so
    // drift in machine speed lands on both sides of the overhead ratio.
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    for (c, chunk) in requests.chunks(64).enumerate() {
        let pass = |tr: &mut Tracer| {
            let t = Instant::now();
            for (i, request) in chunk.iter().enumerate() {
                replay_one(tr, &rec, version, request, (c * 64 + i) as u64);
            }
            replay_batch(tr, &rec, version, chunk, c as u64);
            t.elapsed().as_secs_f64()
        };
        if c % 2 == 0 {
            untraced_s += pass(&mut off);
            traced_s += pass(&mut tr);
        } else {
            traced_s += pass(&mut tr);
            untraced_s += pass(&mut off);
        }
    }

    let layers = &mut outcome.layers;
    share_metrics(&tr, layers);
    layers.put("trace.overhead_share", traced_s / untraced_s - 1.0, "ratio");
    let p50_us =
        |name: &str, under: &str| median(&tr.durations_us(name, Some(under))).unwrap_or(f64::NAN);
    let root_p50 = median(&tr.durations_us("root.replay.batch1", None)).unwrap_or(f64::NAN);
    layers.put("trace.root_p50_us", root_p50, "us");
    layers.put("bench.e2e_vs_root", socket_p50_us / root_p50, "ratio");
    layers.put("net.server.overhead_us", socket_p50_us - root_p50, "us");

    // Per-stage costs at batch 1: spans of the batch-1 roots only.
    for stage in ["encode_req", "decode_req", "encode_resp", "decode_resp"] {
        let ns = p50_us(&format!("net.frame.{stage}"), "root.replay.batch1") * 1e3;
        layers.put(&format!("net.frame.{stage}_ns"), ns, "ns");
    }
    const RANK: &str = "serve.recommender.recommend_batch";
    layers.put(
        "serve.recommender.batch1_us",
        p50_us(RANK, "root.replay.batch1"),
        "us",
    );
    layers.put(
        "serve.recommender.batch64_us_per_req",
        p50_us(RANK, "root.replay.batch64") / 64.0,
        "us",
    );
    layers.put("bench.replayed_requests", requests.len() as f64, "count");

    matmul_probe(plan.seed, layers);
    scoring_probes(rec.artifact(), layers);
    tr
}

/// Runs one of the two workloads.
pub fn run(spec: &Spec, plan: &Plan) -> (Outcome, Option<Tracer>) {
    let mut outcome = Outcome::default();
    let (env, scratch) = plan.set_up(&mut outcome, |scratch| setup(spec, plan.seed, scratch));
    let layers = &mut outcome.layers;
    for (name, ms) in [
        "serve.synth.synthesize_ms",
        "serve.binfmt.save_ms",
        "serve.binfmt.load_ms",
        "serve.recommender.build_ms",
        "serve.recommender.first_batch_ms",
    ]
    .into_iter()
    .zip(env.stages_ms)
    {
        layers.put(name, ms, "ms");
    }
    let file_bytes = std::fs::metadata(&env.path)
        .expect("artifact written")
        .len();
    layers.put(
        "serve.binfmt.file_mib",
        file_bytes as f64 / (1 << 20) as f64,
        "MiB",
    );

    let captured = end_to_end(spec, plan, &env, &mut outcome);
    // before the adoptions: each holds a second recommender for a moment
    plan.record_peak_rss(&mut outcome);
    adoptions(&env, &mut outcome);
    let tracer = plan
        .traced()
        .then(|| traced(plan, &env, &captured, &mut outcome));
    env.server.shutdown();
    drop(scratch);
    (outcome, tracer)
}
