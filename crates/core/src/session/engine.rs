//! Round execution: the compute core shared by both orchestration modes.
//!
//! [`Session::execute_cohort`] is the single path that trains a set of
//! clients, accounts traffic, filters accepted updates, and aggregates
//! them with per-update weights. The synchronous policy feeds it lockstep
//! cohorts with all-ones weights (bit-identical to the historical
//! unweighted path); the asynchronous policy feeds it event-queue arrival
//! batches with staleness-discounted weights `1/(1+s)^β`.

use super::reports::{AsyncRoundStats, RoundReport};
use super::Session;
use crate::client::{train_client, ClientCtx, ClientOutcome};
use crate::config::TrainConfig;
use hf_dataset::{ClientGroups, Tier};
use hf_fedsim::comm::RoundCost;
use hf_fedsim::parallel::parallel_map;
use hf_fedsim::transport::ClientUpdate;
use hf_models::Ffn;
use hf_secagg::PreparedGroup;
use std::collections::HashMap;

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
    /// With `secagg_groups` present the round aggregates through the
    /// masked ring path instead: eligibility was fixed at group setup,
    /// survivors upload their tier's quantized ring prefix, and injected
    /// drops become dropouts whose orphaned masks get recovered from
    /// escrow.
    fn execute_cohort(
        &mut self,
        cohort: &[usize],
        weights: &[f32],
        secagg_groups: Option<Vec<PreparedGroup>>,
    ) -> (RoundReport, f64) {
        debug_assert_eq!(cohort.len(), weights.len());
        let udl = self.strategy.ablation().udl;
        // Per-tier download bundles, cloned once per round.
        let tier_thetas: [Vec<Ffn>; 3] = [
            self.server.thetas_for(Tier::Small, udl),
            self.server.thetas_for(Tier::Medium, udl),
            self.server.thetas_for(Tier::Large, udl),
        ];
        let tier_tags: [Vec<Tier>; 3] = [
            theta_tiers(Tier::Small, udl),
            theta_tiers(Tier::Medium, udl),
            theta_tiers(Tier::Large, udl),
        ];

        let cfg = &self.cfg;
        let strategy = self.strategy;
        let split = &self.split;
        let server = &self.server;
        let users = &self.users;
        let model_groups = &self.model_groups;
        let round_key = self.round_counter;

        let outcomes: Vec<ClientOutcome> = parallel_map(cohort, cfg.threads, |&uid| {
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
            train_client(&ctx, &users[uid])
        });

        let masked = secagg_groups.is_some();
        let mut accepted: Vec<(Tier, ClientUpdate)> = Vec::new();
        let mut accepted_weights: Vec<f32> = Vec::new();
        // Masked path: surviving uploads keyed by uid (group membership
        // and eligibility were fixed at setup; a committed member absent
        // from this map is a dropout).
        let mut survivor_uploads: HashMap<u64, (ClientUpdate, f32)> = HashMap::new();
        let mut loss_sum = 0.0;
        let mut sample_sum = 0usize;
        let mut round_download = 0u64;
        let mut round_upload = 0u64;
        for ((&uid, outcome), &weight) in cohort.iter().zip(outcomes).zip(weights) {
            let model_tier = self.model_groups.tier(uid);
            let data_tier = self.data_groups.tier(uid);
            // Download accounting: tier table + every downloaded predictor.
            let theta_sizes: Vec<usize> = tier_thetas[model_tier.index()]
                .iter()
                .map(Ffn::num_params)
                .collect();
            let download = RoundCost::dense(
                self.split.num_items(),
                self.cfg.dims.dim(model_tier),
                &theta_sizes,
            );
            self.ledger.record_download(download.bytes());
            round_download += download.bytes() as u64;

            loss_sum += outcome.loss;
            sample_sum += outcome.samples;
            self.users[uid] = outcome.state;

            if masked {
                if !self.faults.drops(self.round_counter, uid) {
                    survivor_uploads.insert(uid as u64, (outcome.update, weight));
                }
            } else if self.strategy.accepts_update(data_tier)
                && !self.faults.drops(self.round_counter, uid)
                && !(outcome.update.items.is_empty() && outcome.update.thetas.is_empty())
            {
                let bytes = outcome.update.encoded_len();
                self.ledger.record_upload(bytes);
                round_upload += bytes as u64;
                accepted.push((model_tier, outcome.update));
                accepted_weights.push(weight);
            }
        }

        let mut accepted_count = accepted.len();
        let mut secagg_stats = None;
        if let Some(groups) = secagg_groups {
            let (stats, secagg_accepted, masked_bytes) =
                self.secagg_aggregate(&groups, &survivor_uploads);
            accepted_count = secagg_accepted;
            round_upload += masked_bytes;
            secagg_stats = Some(stats);
        } else {
            self.server
                .apply_round_weighted(&accepted, &accepted_weights);
        }
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
