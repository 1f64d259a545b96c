//! `train_plain` and `train_masked`: one federated round from cohort
//! dispatch to applied aggregate, through `Session::step`.
//!
//! Both run the paper's algorithm (NCF, full HeteFedRec) on MovieLens at
//! a quarter of the paper's scale with 64 clients a round; the masked
//! one turns secure aggregation on. Plaintext uploads never enter
//! `hf_secagg`, so `train_plain` is the control for masking changes, and
//! `train_masked` is where quantise + pairwise mask + dropout recovery
//! dominate the round.
//!
//! The traced pass cannot see inside `Session::step`, so it runs
//! **shadow rounds**: the same work out of the public functions the
//! session's round is made of, each under its own span.

use crate::report::Outcome;
use crate::serve::{matmul_probe, probe_ns};
use crate::stats::{median, quantile};
use crate::trace::{share_metrics, Tracer};
use crate::Plan;
use hetefedrec_core::client::{train_client, ClientCtx, UserState};
use hetefedrec_core::ddr::decorrelation_loss_grad;
use hetefedrec_core::server::ServerState;
use hetefedrec_core::{Ablation, Session, SessionBuilder, SessionEvent, Strategy, TrainConfig};
use hf_dataset::{ClientGroups, DatasetProfile, SplitDataset, Tier};
use hf_fedsim::parallel::parallel_map;
use hf_fedsim::transport::ClientUpdate;
use hf_models::{Ffn, ModelKind, RowGradBuffer};
use hf_secagg::{MaskedUpload, PayloadLayout, PreparedGroup, Quantizer};
use hf_serve::ExportArtifact;
use hf_tensor::rng::{shuffle, stream, substream, SeedStream, StdRng};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Clients selected per round.
const COHORT: usize = 64;
/// Worker threads of the round's fan-out.
const THREADS: usize = 2;

/// Whether the `i`-th client of a shadow cohort delivers its upload:
/// every 20th is lost, as `drop_prob = 0.05` loses it in the session.
fn delivered(i: usize) -> bool {
    i % 20 != 7
}

/// Uploads a full shadow cohort delivers.
fn survivors() -> usize {
    (0..COHORT).filter(|&i| delivered(i)).count()
}

/// Epochs of the end-to-end pass: a fixed amount of work, never a
/// clock, so the rounds, the uploads and the final NDCG repeat exactly
/// for a seed — 4 plain epochs (96 rounds) or 2 masked ones (48 rounds, a
/// masked round costs ~2.5 plain ones), about 7 s either way. A smoke
/// run trains one.
fn epochs(masked: bool, plan: &Plan) -> usize {
    match (plan.smoke, masked) {
        (true, _) => 1,
        (false, false) => 4,
        (false, true) => 2,
    }
}

fn build_session(masked: bool, plan: &Plan) -> Session {
    let fraction = if plan.smoke { 0.05 } else { 0.25 };
    let data = DatasetProfile::MovieLens
        .config_scaled(fraction)
        .generate(plan.seed);
    let split = SplitDataset::paper_split(&data, plan.seed);
    let mut cfg = TrainConfig::paper_defaults(ModelKind::Ncf, DatasetProfile::MovieLens);
    cfg.seed = plan.seed;
    // One spare epoch past the end-to-end pass: the traced pass steps
    // through it to time real rounds beside its shadow rounds.
    cfg.epochs = epochs(masked, plan) + 1;
    cfg.clients_per_round = COHORT;
    cfg.threads = THREADS;
    cfg.drop_prob = 0.05;
    cfg.secagg.enabled = masked;
    SessionBuilder::new(cfg, Strategy::HeteFedRec(Ablation::FULL), split)
        .eval_every(1)
        .build()
        .expect("valid training configuration")
}

/// The end-to-end pass: drives the session through `epochs` epochs,
/// timing every step that yields a round, and after each round the
/// training side of a hot swap: the export of the state as an artifact
/// a server could load (timed apart, outside the pass's wall).
fn end_to_end(session: &mut Session, epochs: usize, outcome: &mut Outcome) {
    let (mut round_ms, mut export_ms) = (Vec::new(), Vec::new());
    let (mut samples, mut upload_bytes) = (0u64, 0u64);
    let mut ndcg = f64::NAN;
    let started = Instant::now();
    while session.epochs_completed() < epochs {
        let t = Instant::now();
        match session.step() {
            Some(SessionEvent::Round(report)) => {
                round_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                black_box(session.export_artifact());
                export_ms.push(t.elapsed().as_secs_f64() * 1e3);
                outcome.attempted += 1;
                samples += report.samples as u64;
                upload_bytes += report.upload_bytes;
                let unverified = report.secagg.as_ref().is_some_and(|s| !s.verified);
                if report.accepted == 0 || unverified {
                    outcome.failed += 1;
                    outcome.notes.push(format!(
                        "round {}: accepted {}, secagg verified {}",
                        report.round, report.accepted, !unverified
                    ));
                }
            }
            Some(SessionEvent::Epoch(report)) => {
                if let Some(eval) = report.eval {
                    ndcg = eval.overall.ndcg;
                }
            }
            None => break,
        }
    }
    let wall_s = started.elapsed().as_secs_f64() - export_ms.iter().sum::<f64>() / 1e3;
    outcome.attempted += 1; // the final evaluation
    if !ndcg.is_finite() {
        outcome.failed += 1;
        outcome.notes.push(format!("final NDCG is {ndcg}"));
    }
    let rounds = round_ms.len().max(1) as f64;
    let q = |p| quantile(&round_ms, p).unwrap_or(f64::NAN);
    let e2e = &mut outcome.end_to_end;
    e2e.put("op_p50_ms", q(0.5), "ms");
    // the wall of the whole pass: epoch-end evaluations included
    e2e.put("throughput", samples as f64 / wall_s, "1/s");
    e2e.put("swap_p50_ms", median(&export_ms).unwrap_or(f64::NAN), "ms");
    e2e.put(
        "io_kib_per_op",
        upload_bytes as f64 / rounds / 1024.0,
        "KiB",
    );
    e2e.put("op_p90_ms", q(0.9), "ms");
    e2e.put("quality", ndcg, "ratio");
    outcome.counts.put("rounds", rounds, "count");
    outcome
        .counts
        .put("epochs", session.epochs_completed() as f64, "count");
}

/// What the shadow rounds read and mutate: copies taken when the traced
/// pass starts, so the session can keep stepping beside them.
struct Shadow {
    cfg: TrainConfig,
    strategy: Strategy,
    split: SplitDataset,
    tiers: ClientGroups,
    server: ServerState,
    users: Vec<UserState>,
    secagg_rng: StdRng,
}

/// One trained client and when its worker ran it.
struct Trained {
    uid: usize,
    tier: Tier,
    update: ClientUpdate,
    samples: usize,
    start_ns: u64,
    end_ns: u64,
}

impl Shadow {
    /// One round: fan-out over `train_client`, transport, then the
    /// plaintext or the masked aggregation, then ReSKD.
    fn round(&mut self, tr: &mut Tracer, round: u64, cohort: &[usize]) -> Vec<Trained> {
        let op = round;
        let root = tr.begin("root.train.round", op);
        let (cfg, strategy) = (&self.cfg, self.strategy);
        let udl = strategy.ablation().udl;
        let thetas: [Vec<Ffn>; 3] = Tier::ALL.map(|t| self.server.thetas_for(t, udl));
        let tags: [Vec<Tier>; 3] = Tier::ALL.map(|t| {
            if udl {
                Tier::ALL[..=t.index()].to_vec()
            } else {
                vec![t]
            }
        });

        // Group setup precedes the round (the session pipelines it one
        // round ahead); members are the cohort, strictly increasing.
        let group = cfg.secagg.enabled.then(|| {
            let mut members: Vec<u64> = cohort.iter().map(|&u| u as u64).collect();
            members.sort_unstable();
            tr.span("secagg.group.setup", op, || {
                PreparedGroup::setup(round, &members, &mut self.secagg_rng)
            })
        });

        let fan = tr.begin("fedsim.parallel.map", op);
        let epoch = tr.epoch();
        let (server, users) = (&self.server, &self.users);
        let (split, tiers) = (&self.split, &self.tiers);
        let trained: Vec<Trained> = parallel_map(cohort, cfg.threads, |&uid| {
            let tier = tiers.tier(uid);
            let ctx = ClientCtx {
                cfg,
                strategy,
                split,
                user_id: uid,
                model_tier: tier,
                table: server.table(tier),
                thetas: &thetas[tier.index()],
                theta_tiers: &tags[tier.index()],
                round_key: round,
            };
            let start_ns = epoch.elapsed().as_nanos() as u64;
            let outcome = train_client(&ctx, &users[uid]);
            let end_ns = epoch.elapsed().as_nanos() as u64;
            (outcome, tier, uid, start_ns, end_ns)
        })
        .into_iter()
        .map(|(outcome, tier, uid, start_ns, end_ns)| {
            self.users[uid] = outcome.state;
            Trained {
                uid,
                tier,
                update: outcome.update,
                samples: outcome.samples,
                start_ns,
                end_ns,
            }
        })
        .collect();
        for t in &trained {
            tr.attach("core.client.train_client", op, t.start_ns, t.end_ns);
        }
        tr.end(fan);

        match group {
            None => {
                let wires: Vec<Vec<u8>> = tr.span("fedsim.transport.encode", op, || {
                    trained.iter().map(|t| t.update.encode()).collect()
                });
                let accepted: Vec<(Tier, ClientUpdate)> =
                    tr.span("fedsim.transport.decode", op, || {
                        trained
                            .iter()
                            .zip(&wires)
                            .enumerate()
                            .filter(|(i, _)| delivered(*i))
                            .map(|(_, (t, wire))| {
                                let update = ClientUpdate::decode(wire).expect("own encoding");
                                (t.tier, update)
                            })
                            .collect()
                    });
                tr.span("core.server.apply_round", op, || {
                    self.server.apply_round(&accepted)
                });
            }
            Some(group) => self.masked_aggregate(tr, op, &group, &trained),
        }
        let (kd, threads) = (self.cfg.kd, self.cfg.threads);
        tr.span("core.server.distill", op, || {
            self.server.distill(&kd, threads)
        });
        tr.end(root);
        trained
    }

    /// The masked upload path out of its public parts: quantise into the
    /// group's dense ring layout, mask, encode for the wire, fold,
    /// recover the dropped members' masks, decode and apply.
    fn masked_aggregate(
        &mut self,
        tr: &mut Tracer,
        op: u64,
        group: &PreparedGroup,
        trained: &[Trained],
    ) {
        let cfg = &self.cfg;
        let quant = Quantizer::new(cfg.secagg.scale_bits).expect("validated scale_bits");
        let layout = ring_layout(&self.server, cfg);
        let payloads: Vec<(u64, Vec<u64>)> = tr.span("secagg.quant.encode", op, || {
            trained
                .iter()
                .enumerate()
                .filter(|(i, _)| delivered(*i))
                .map(|(_, t)| (t.uid as u64, quantise(&layout, quant, &t.update)))
                .collect()
        });
        let survivors: Vec<u64> = payloads.iter().map(|(m, _)| *m).collect();
        let dropped: Vec<u64> = group
            .members
            .iter()
            .copied()
            .filter(|m| !survivors.contains(m))
            .collect();

        let masked: Vec<Vec<u64>> = tr.span("secagg.group.mask_payload", op, || {
            parallel_map(&payloads, cfg.threads, |(m, p)| {
                let mut words = p.clone();
                group.mask_payload(*m, &mut words);
                words
            })
        });
        let uploads: Vec<MaskedUpload> = survivors
            .iter()
            .zip(masked)
            .map(|(&uid, words)| MaskedUpload {
                round: group.round,
                uid,
                words,
            })
            .collect();
        tr.span("secagg.wire.encode", op, || {
            for upload in &uploads {
                black_box(upload.encode());
            }
        });
        let mut aggregate = vec![0u64; layout.len()];
        tr.span("secagg.ring.fold", op, || {
            for upload in &uploads {
                for (a, &w) in aggregate.iter_mut().zip(&upload.words) {
                    *a = a.wrapping_add(w);
                }
            }
        });
        tr.span("secagg.group.unmask_dropped", op, || {
            group
                .unmask_dropped(&mut aggregate, &dropped, &survivors)
                .expect("a majority of the group survived")
        });
        tr.span("core.server.apply_round", op, || {
            apply_aggregate(&mut self.server, &layout, quant, &aggregate)
        });
    }
}

/// The dense ring layout of a padded-aggregation group: the full item
/// table at the widest tier plus every predictor.
fn ring_layout(server: &ServerState, cfg: &TrainConfig) -> PayloadLayout {
    PayloadLayout {
        num_items: server.num_items(),
        width: cfg.dims.largest(),
        theta_lens: Tier::ALL.map(|t| server.theta(t).num_params()),
    }
}

/// One update in the group's dense ring layout (the session's
/// `build_payload` at weight 1).
fn quantise(layout: &PayloadLayout, quant: Quantizer, update: &ClientUpdate) -> Vec<u64> {
    let mut payload = vec![0u64; layout.len()];
    let mut words = Vec::with_capacity(layout.width);
    for (row, delta) in &update.items.rows {
        words.clear();
        quant.encode_into(delta, &mut words).expect("finite delta");
        let base = *row as usize * layout.width;
        payload[base..base + words.len()].copy_from_slice(&words);
        payload[layout.item_count_offset() + *row as usize] = 1;
    }
    for (tier, flat) in &update.thetas {
        let t = *tier as usize;
        words.clear();
        quant.encode_into(flat, &mut words).expect("finite delta");
        let off = layout.theta_offset(t);
        payload[off..off + words.len()].copy_from_slice(&words);
        payload[layout.theta_weight_offset(t)] = quant.encode(1.0).expect("finite weight");
        payload[layout.theta_count_offset(t)] = 1;
    }
    payload
}

/// Decodes an unmasked ring aggregate and applies it through the seams
/// the session's masked path uses.
fn apply_aggregate(
    server: &mut ServerState,
    layout: &PayloadLayout,
    quant: Quantizer,
    aggregate: &[u64],
) {
    let mut acc = RowGradBuffer::new(layout.width);
    let mut counts: HashMap<u32, u32> = HashMap::new();
    for row in 0..layout.num_items {
        let count = aggregate[layout.item_count_offset() + row];
        if count == 0 {
            continue;
        }
        let base = row * layout.width;
        let delta: Vec<f32> = aggregate[base..base + layout.width]
            .iter()
            .map(|&w| quant.decode(w))
            .collect();
        acc.accumulate(row as u32, 1.0, &delta);
        counts.insert(row as u32, count.min(u32::MAX as u64) as u32);
    }
    if !acc.is_empty() {
        server.apply_item_aggregate(&mut acc, &counts, &Tier::ALL);
    }
    for (t, &len) in Tier::ALL.iter().zip(&layout.theta_lens) {
        let count = aggregate[layout.theta_count_offset(t.index())] as usize;
        let weight_sum = quant.decode(aggregate[layout.theta_weight_offset(t.index())]);
        let off = layout.theta_offset(t.index());
        let sum: Vec<f32> = aggregate[off..off + len]
            .iter()
            .map(|&w| quant.decode(w))
            .collect();
        server.apply_theta_aggregate(*t, sum, count, weight_sum);
    }
}

/// The traced pass: shadow rounds with the recorder off and on
/// alternately, each beside one real `Session::step` round of the spare
/// epoch — the machine's speed drifts by tens of percent over seconds, so
/// a shadow round is only comparable with a real round timed next to it.
/// Then one-off probes of evaluation and checkpointing.
fn traced(plan: &Plan, session: &mut Session, outcome: &mut Outcome) -> Tracer {
    let round_p50_ms = outcome.end_to_end.get("op_p50_ms").unwrap_or(f64::NAN);
    let cfg = session.cfg().clone();
    let masked = cfg.secagg.enabled;
    let mut order: Vec<usize> = (0..session.users().len()).collect();
    shuffle(
        &mut order,
        &mut substream(plan.seed, SeedStream::Custom(0x7368), 0),
    );
    let mut shadow = Shadow {
        cfg: cfg.clone(),
        strategy: session.strategy(),
        split: session.split().clone(),
        tiers: session.model_groups().clone(),
        server: session.server().clone(),
        users: session.users().to_vec(),
        secagg_rng: stream(plan.seed, SeedStream::SecAggSecret),
    };
    let pairs = if plan.smoke {
        2
    } else {
        // a real and a shadow round per pair; fit the budget from the
        // measured round, and stay inside the spare epoch
        ((plan.trace_budget_s() * 1e3 / round_p50_ms / 2.0) as usize).clamp(4, 20)
    };
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);
    // Shadow rounds are compared per sample trained: cohorts differ in
    // how much data their clients hold.
    let (mut real_ms, mut untraced_us, mut traced_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut trained_log: Vec<Trained> = Vec::new();
    for (r, cohort) in order.chunks_exact(COHORT).cycle().take(pairs).enumerate() {
        let t = Instant::now();
        if let Some(SessionEvent::Round(report)) = session.step() {
            // the epoch's last cohort is a partial one
            if report.cohort == COHORT {
                real_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        let traced_round = r % 2 == 0;
        let t = Instant::now();
        let trained = shadow.round(
            if traced_round { &mut tr } else { &mut off },
            r as u64 + 1,
            cohort,
        );
        let samples: usize = trained.iter().map(|t| t.samples).sum();
        let us_per_sample = t.elapsed().as_secs_f64() * 1e6 / samples.max(1) as f64;
        if traced_round {
            traced_us.push(us_per_sample);
            trained_log.extend(trained);
        } else {
            untraced_us.push(us_per_sample);
        }
    }
    let real_p50_ms = median(&real_ms).unwrap_or(f64::NAN);

    let layers = &mut outcome.layers;
    let sum = share_metrics(&tr, layers);
    layers.put(
        "trace.overhead_share",
        median(&traced_us).unwrap_or(f64::NAN) / median(&untraced_us).unwrap_or(f64::NAN) - 1.0,
        "ratio",
    );
    let root_p50_us = median(&tr.durations_us("root.train.round", None)).unwrap_or(f64::NAN);
    layers.put("trace.root_p50_us", root_p50_us, "us");
    layers.put(
        "bench.e2e_vs_root",
        real_p50_ms * 1e3 / root_p50_us,
        "ratio",
    );
    layers.put(
        "core.session.step_overhead_ms",
        real_p50_ms - root_p50_us / 1e3,
        "ms",
    );
    layers.put("core.session.step_beside_shadow_ms", real_p50_ms, "ms");
    let p50_us = |name: &str| median(&tr.durations_us(name, None)).unwrap_or(f64::NAN);
    layers.put(
        "core.client.train_client_ms",
        p50_us("core.client.train_client") / 1e3,
        "ms",
    );
    let clients = trained_log.len().max(1) as f64;
    layers.put(
        "core.client.samples_per_client",
        trained_log.iter().map(|t| t.samples as f64).sum::<f64>() / clients,
        "count",
    );
    // Fan-out wall minus the ideal split of the clients' own time.
    let fan = sum.get("fedsim.parallel.map");
    let client = sum.get("core.client.train_client");
    layers.put(
        "fedsim.parallel.map_overhead_us",
        (fan.total_ns as f64 - client.total_ns as f64 / cfg.threads as f64)
            / fan.count.max(1) as f64
            / 1e3,
        "us",
    );
    layers.put(
        "fedsim.transport.update_bytes",
        trained_log
            .iter()
            .map(|t| t.update.encoded_len() as f64)
            .sum::<f64>()
            / clients,
        "B",
    );
    layers.put(
        "core.server.apply_round_ms",
        p50_us("core.server.apply_round") / 1e3,
        "ms",
    );
    layers.put(
        "core.server.distill_ms",
        p50_us("core.server.distill") / 1e3,
        "ms",
    );
    if masked {
        let words = ring_layout(session.server(), &cfg).len() as f64;
        let survivors = survivors() as f64;
        layers.put("secagg.group.payload_words", words, "count");
        layers.put(
            "secagg.quant.encode_ns_per_word",
            p50_us("secagg.quant.encode") * 1e3 / (survivors * words),
            "ns",
        );
        layers.put(
            "secagg.group.setup_ms",
            p50_us("secagg.group.setup") / 1e3,
            "ms",
        );
        // Wall of the two-thread masking fan-out per word of every
        // survivor's payload; each word takes one mask per peer.
        layers.put(
            "secagg.group.mask_ns_per_word",
            p50_us("secagg.group.mask_payload") * 1e3 / (survivors * words),
            "ns",
        );
        layers.put(
            "secagg.group.unmask_dropped_ms",
            p50_us("secagg.group.unmask_dropped") / 1e3,
            "ms",
        );
        layers.put(
            "secagg.wire.encode_us",
            p50_us("secagg.wire.encode") / survivors,
            "us",
        );
        let members: Vec<u64> = (0..COHORT as u64).collect();
        let group = PreparedGroup::setup(1, &members, &mut shadow.secagg_rng);
        layers.put("secagg.group.setup_bytes", group.setup_bytes() as f64, "B");
    } else {
        layers.put(
            "fedsim.transport.encode_us",
            p50_us("fedsim.transport.encode") / COHORT as f64,
            "us",
        );
        layers.put(
            "fedsim.transport.decode_us",
            p50_us("fedsim.transport.decode") / survivors() as f64,
            "us",
        );
    }

    // One-off probes: evaluation, the DDR kernel, checkpoint and restore.
    let t = Instant::now();
    black_box(session.evaluate());
    layers.put(
        "core.eval.evaluate_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    let table = session.server().table(Tier::Large);
    let rows: Vec<usize> = (0..table.rows().min(cfg.ddr_max_rows)).collect();
    let z = table.select_rows(&rows);
    let ns = probe_ns(Duration::from_millis(20), || {
        black_box(decorrelation_loss_grad(black_box(&z)));
    });
    layers.put("core.ddr.loss_grad_us", ns / 1e3, "us");
    let t = Instant::now();
    let checkpoint = session.checkpoint();
    layers.put(
        "core.session.checkpoint_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    layers.put(
        "core.session.checkpoint_mib",
        checkpoint.len() as f64 / (1 << 20) as f64,
        "MiB",
    );
    let t = Instant::now();
    let restored = Session::restore(&checkpoint, session.split().clone()).map(drop);
    layers.put(
        "core.session.restore_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    if let Err(e) = restored {
        outcome.failed += 1;
        outcome.notes.push(format!(
            "the session's own checkpoint does not restore: {e}"
        ));
    }
    matmul_probe(plan.seed, &mut outcome.layers);
    tr
}

pub fn run(masked: bool, plan: &Plan) -> (Outcome, Option<Tracer>) {
    let mut outcome = Outcome::default();
    let (mut session, scratch) = plan.set_up(&mut outcome, |_| build_session(masked, plan));
    end_to_end(&mut session, epochs(masked, plan), &mut outcome);
    plan.record_peak_rss(&mut outcome);
    let tracer = plan
        .traced()
        .then(|| traced(plan, &mut session, &mut outcome));
    drop(scratch);
    (outcome, tracer)
}
