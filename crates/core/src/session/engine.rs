//! Round execution: the compute core shared by both orchestration modes.
//!
//! [`Session::execute_cohort`] is the single path that trains a set of
//! clients, accounts traffic, filters accepted updates, and aggregates
//! them with per-update weights. The synchronous policy feeds it lockstep
//! cohorts with all-ones weights (bit-identical to the historical
//! unweighted path); the asynchronous policy feeds it event-queue arrival
//! batches with staleness-discounted weights `1/(1+s)^β`.

use super::reports::{AsyncRoundStats, RoundReport};
use super::secagg::MaskedGroup;
use super::Session;
use crate::client::{train_client, ClientCtx, ClientOutcome, UserState};
use crate::config::TrainConfig;
use hf_dataset::{ClientGroups, Tier};
use hf_fedsim::comm::RoundCost;
use hf_models::Ffn;
use hf_tensor::parallel::parallel_for_each_ordered;

impl Session {
    /// Executes one synchronous round over the given lockstep cohort,
    /// returning the report plus the raw loss sum (kept separate so the
    /// epoch mean accumulates exactly the per-sample sums, in round
    /// order). Clients the churn model reports offline at the current
    /// tick sit the round out entirely (no download, no training); the
    /// round then advances the logical clock by the slowest available
    /// client's latency draw.
    pub(super) fn run_round(&mut self, cohort: &[usize]) -> (RoundReport, f64) {
        let clock = self.clock;
        // Secure-aggregation groups commit at setup against the full
        // scheduled cohort; members churn takes offline become dropouts
        // whose masks the survivors recover.
        let groups = self.secagg_groups(cohort);
        let available: Vec<usize> = cohort
            .iter()
            .copied()
            .filter(|&uid| !self.faults.offline(clock, uid))
            .collect();
        let weights = vec![1.0f32; available.len()];
        let result = self.execute_cohort(&available, &weights, groups);
        let duration = available
            .iter()
            .map(|&uid| latency(&self.cfg, &self.model_groups, uid, self.round_counter))
            .max()
            // An all-offline cohort still ticks, so churn windows advance.
            .unwrap_or(1);
        self.clock += duration;
        result
    }

    /// Executes one asynchronous round: pops the next aggregation buffer
    /// of arrivals (advancing the engine clock), trains them, aggregates
    /// with staleness weights `1/(1+s)^β`, then re-dispatches up to the
    /// concurrency cap. Only called when the engine is not idle, so the
    /// batch is never empty.
    pub(super) fn run_async_round(&mut self) -> (RoundReport, f64) {
        let buffer = self.cfg.async_cfg.buffer;
        let beta = self.cfg.async_cfg.staleness_beta;
        let arrivals = self
            .async_state
            .as_mut()
            .expect("async engine present in async mode")
            .pop_batch(buffer);
        let cohort: Vec<usize> = arrivals.iter().map(|a| a.client).collect();
        // `round_counter - 1` rounds were complete when this round's
        // parameters were current, so an update dispatched then has
        // staleness 0.
        let round = self.round_counter;
        let stalenesses: Vec<u64> = arrivals
            .iter()
            .map(|a| (round - 1).saturating_sub(a.dispatched_round))
            .collect();
        let weights: Vec<f32> = stalenesses
            .iter()
            .map(|&s| 1.0 / (1.0 + s as f32).powf(beta))
            .collect();

        // Asynchronous groups form at collection time over the arrival
        // batch (clients churned offline never dispatched, so the only
        // dropouts here are injected upload losses).
        let groups = self.secagg_groups(&cohort);
        let (mut report, loss_sum) = self.execute_cohort(&cohort, &weights, groups);
        self.async_fill();

        let st = self.async_state.as_ref().expect("async engine");
        let max_staleness = stalenesses.iter().copied().max().unwrap_or(0);
        let mut staleness_hist = vec![0usize; max_staleness as usize + 1];
        for &s in &stalenesses {
            staleness_hist[s as usize] += 1;
        }
        let mean_staleness = if stalenesses.is_empty() {
            0.0
        } else {
            stalenesses.iter().sum::<u64>() as f64 / stalenesses.len() as f64
        };
        report.asynchrony = Some(AsyncRoundStats {
            clock: st.clock(),
            in_flight: st.in_flight(),
            staleness_hist,
            max_staleness,
            mean_staleness,
        });
        (report, loss_sum)
    }

    /// Tops the event engine back up to the concurrency cap, consulting
    /// the churn model at the engine's current tick. Returns the number
    /// of offline clients skipped (they miss the rest of the epoch).
    pub(super) fn async_fill(&mut self) -> usize {
        let (cfg, faults, groups) = (&self.cfg, &self.faults, &self.model_groups);
        let round = self.round_counter;
        let st = self
            .async_state
            .as_mut()
            .expect("async engine present in async mode");
        let clock = st.clock();
        st.fill(cfg.async_cfg.concurrency, round, |client, version| {
            (!faults.offline(clock, client)).then(|| latency(cfg, groups, client, version))
        })
    }

    /// Trains `cohort` in parallel, accounts downloads/uploads, filters
    /// accepted updates, and applies them with the given per-client
    /// aggregation weights (aligned with `cohort`; only the weights of
    /// accepted updates reach the server). All-ones weights reproduce the
    /// unweighted aggregation bit-for-bit.
    ///
    /// Results reach this thread in cohort order as clients finish
    /// ([`parallel_for_each_ordered`]), and a round holds one upload at a
    /// time plus the fan-out's reorder window, never the cohort's
    /// uploads. Without `secagg_groups` each accepted upload is added to
    /// the round's [`RoundFold`](crate::server::RoundFold) there and
    /// dropped: float sums need the one fixed order.
    ///
    /// With them the round aggregates through the masked ring path:
    /// eligibility was fixed at group setup, and the worker that trains a
    /// member also quantizes and masks its tier's prefix and adds it to
    /// its group's sums ([`MaskedGroup::deliver`]) unless the upload is
    /// dropped — ring sums need no order — so no plaintext update reaches
    /// this thread. Members that never deliver become dropouts whose
    /// orphaned masks get recovered from escrow once the fan-out ends.
    fn execute_cohort(
        &mut self,
        cohort: &[usize],
        weights: &[f32],
        secagg_groups: Option<Vec<MaskedGroup>>,
    ) -> (RoundReport, f64) {
        debug_assert_eq!(cohort.len(), weights.len());
        let udl = self.strategy.ablation().udl;
        // Per-tier download bundles, cloned once per round, and the bytes
        // one download of each moves: tier table + every predictor.
        let tier_thetas: [Vec<Ffn>; 3] = Tier::ALL.map(|t| self.server.thetas_for(t, udl));
        let tier_tags: [Vec<Tier>; 3] = Tier::ALL.map(|t| theta_tiers(t, udl));
        let download_bytes: [usize; 3] = Tier::ALL.map(|t| {
            let sizes: Vec<usize> = tier_thetas[t.index()].iter().map(Ffn::num_params).collect();
            RoundCost::dense(self.split.num_items(), self.cfg.dims.dim(t), &sizes).bytes()
        });

        let cfg = &self.cfg;
        let strategy = self.strategy;
        let split = &self.split;
        let server = &self.server;
        let users = &self.users;
        let model_groups = &self.model_groups;
        let faults = &self.faults;
        let round_key = self.round_counter;
        let masked = secagg_groups.as_deref();

        let mut fold = masked.is_none().then(|| server.round_fold());
        // New client states wait for the fan-out, which reads the old ones.
        let mut states: Vec<UserState> = Vec::with_capacity(cohort.len());
        let mut loss_sum = 0.0;
        let mut sample_sum = 0usize;
        let mut round_download = 0u64;
        let mut round_upload = 0u64;
        let jobs: Vec<(usize, f32)> = cohort
            .iter()
            .copied()
            .zip(weights.iter().copied())
            .collect();
        let train = |&(uid, weight): &(usize, f32)| {
            let tier = model_groups.tier(uid);
            let ctx = ClientCtx {
                cfg,
                strategy,
                split,
                user_id: uid,
                model_tier: tier,
                table: server.table(tier),
                thetas: &tier_thetas[tier.index()],
                theta_tiers: &tier_tags[tier.index()],
                round_key,
            };
            let mut outcome = train_client(&ctx, &users[uid]);
            if let Some(groups) = masked {
                // A member masks its own upload, as its device would; a
                // lost upload never arrives.
                let update = std::mem::take(&mut outcome.update);
                let member = groups
                    .iter()
                    .find(|g| g.group.index_of(uid as u64).is_some());
                if let Some(group) = member.filter(|_| !faults.drops(round_key, uid)) {
                    group.deliver(uid as u64, &update, weight);
                }
            }
            outcome
        };
        parallel_for_each_ordered(&jobs, cfg.threads, train, |i, outcome: ClientOutcome| {
            let (uid, weight) = jobs[i];
            let model_tier = model_groups.tier(uid);
            let download = download_bytes[model_tier.index()];
            self.ledger.record_download(download);
            round_download += download as u64;

            loss_sum += outcome.loss;
            sample_sum += outcome.samples;
            states.push(outcome.state);

            if let Some(fold) = fold.as_mut() {
                let update = &outcome.update;
                if strategy.accepts_update(self.data_groups.tier(uid))
                    && !faults.drops(round_key, uid)
                    && !(update.items.is_empty() && update.thetas.is_empty())
                {
                    let bytes = update.encoded_len();
                    self.ledger.record_upload(bytes);
                    round_upload += bytes as u64;
                    fold.add(model_tier, update, weight);
                }
            }
        });
        for (&uid, state) in cohort.iter().zip(states) {
            self.users[uid] = state;
        }

        let mut secagg_stats = None;
        let accepted_count = if let Some(groups) = secagg_groups {
            let (stats, accepted, masked_bytes) = self.secagg_aggregate(groups);
            round_upload += masked_bytes;
            secagg_stats = Some(stats);
            accepted
        } else {
            let fold = fold.expect("plaintext rounds fold");
            let accepted = fold.uploads();
            self.server.apply_fold(fold);
            accepted
        };
        if self.strategy.ablation().reskd {
            self.server.distill(&self.cfg.kd, self.cfg.threads);
        }
        let report = RoundReport {
            round: self.round_counter,
            epoch: self.epoch,
            round_in_epoch: self.round_in_epoch,
            rounds_in_epoch: self.rounds_in_epoch,
            cohort: cohort.len(),
            loss: if sample_sum == 0 {
                0.0
            } else {
                loss_sum / sample_sum as f64
            },
            samples: sample_sum,
            accepted: accepted_count,
            download_bytes: round_download,
            upload_bytes: round_upload,
            asynchrony: None,
            secagg: secagg_stats,
        };
        (report, loss_sum)
    }
}

/// Ticks `client`'s dispatch number `version` takes, drawn from the
/// configured profile under the client's model tier. The one latency draw
/// of both modes: a sync round keys it by the round counter, the async
/// engine by the client's dispatch count.
fn latency(cfg: &TrainConfig, model_groups: &ClientGroups, client: usize, version: u64) -> u64 {
    cfg.latency
        .draw(cfg.seed, client, version, model_groups.tier(client).index())
}

/// Tier tags for the predictors a client of `tier` holds.
pub(crate) fn theta_tiers(tier: Tier, udl: bool) -> Vec<Tier> {
    if udl {
        Tier::ALL[..=tier.index()].to_vec()
    } else {
        vec![tier]
    }
}
