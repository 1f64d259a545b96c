//! Logical-clock event scheduling for asynchronous federation.
//!
//! The paper's loop is strictly synchronous (§V-D), but churn-heavy
//! deployments face stragglers and heavy-tailed client latency. This module
//! provides the deterministic machinery for an event-driven mode:
//!
//! * [`LatencyProfile`] — pluggable per-dispatch latency models whose draws
//!   are *pure functions* of `(seed, client, dispatch version)`, so no RNG
//!   state needs checkpointing and results are independent of query order.
//! * [`PendingArrival`] — one in-flight client training; the scheduler
//!   keeps them in a priority queue ordered by `(logical_time, client_id)`,
//!   a total order that is deterministic even when many arrivals share a
//!   tick.
//! * [`EventScheduler`] — the logical clock plus dispatch bookkeeping
//!   (per-client dispatch versions, the not-yet-dispatched remainder of the
//!   epoch traversal), checkpointable to JSON and restored bit-exactly. It
//!   consumes the same shuffled epoch traversal as the lockstep rounds
//!   ([`RoundScheduler::next_traversal`](crate::scheduler::RoundScheduler::next_traversal)).
//!   It holds no settings: every field is in its JSON, and the caller
//!   passes the concurrency cap and a dispatch closure that draws each
//!   latency (or reports the client offline) to [`EventScheduler::fill`],
//!   so the session draws sync and async latencies through one function.
//!
//! Time is integer "ticks" — float-free so ordering never depends on
//! rounding mode or summation order.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use hf_tensor::rng::{substream, Rng, SeedStream};
use hf_tensor::ser::{obj, JsonError, JsonValue, ToJson};

/// The longest latency a profile may name or draw, in ticks. The clock
/// adds one draw per dispatch, so a bound far below `u64::MAX` keeps it
/// from overflowing.
const MAX_TICKS: u64 = 1 << 40;

/// Ticks a dispatched client takes before its update arrives.
///
/// Every draw is a pure function of `(seed, client, version)` via the
/// [`SeedStream::Latency`] substream: no mutable RNG state, so checkpoints
/// carry nothing and draws are independent of evaluation order. All
/// profiles return at least 1 tick so logical time always advances.
#[derive(Clone, Debug, PartialEq)]
pub enum LatencyProfile {
    /// Every client takes exactly `ticks` ticks (the legacy synchronous
    /// accounting: `Fixed(1)` makes one round cost one tick).
    Fixed(u64),
    /// Uniform in `[min, max]` ticks.
    Uniform {
        /// Fastest possible response (≥ 1).
        min: u64,
        /// Slowest possible response (≥ min).
        max: u64,
    },
    /// Heavy-tailed log-normal: `exp(ln(median) + sigma·z)` ticks, rounded.
    /// The straggler model — most clients are fast, a few are very slow.
    LogNormal {
        /// Median response time in ticks (> 0).
        median: f64,
        /// Log-space standard deviation (≥ 0); larger = heavier tail.
        sigma: f64,
    },
    /// One sub-profile per model tier, indexed small/medium/large — so
    /// small-model clients can be simulated as systematically faster.
    /// Sub-profiles may not nest another `PerTier`. Callers that have no
    /// tier notion draw tier 0.
    PerTier(Box<[LatencyProfile; 3]>),
}

impl LatencyProfile {
    /// The legacy profile: every training takes one tick.
    pub fn unit() -> Self {
        LatencyProfile::Fixed(1)
    }

    /// Validates the profile's parameters, returning a message on failure.
    pub fn validate(&self) -> Result<(), &'static str> {
        match self {
            LatencyProfile::Fixed(t) => {
                if *t == 0 {
                    return Err("fixed latency must be at least 1 tick");
                }
                if *t > MAX_TICKS {
                    return Err("fixed latency may not exceed 2^40 ticks");
                }
            }
            LatencyProfile::Uniform { min, max } => {
                if *min == 0 {
                    return Err("uniform latency min must be at least 1 tick");
                }
                if min > max {
                    return Err("uniform latency needs min <= max");
                }
                if *max > MAX_TICKS {
                    return Err("uniform latency max may not exceed 2^40 ticks");
                }
            }
            LatencyProfile::LogNormal { median, sigma } => {
                if !(median.is_finite() && *median > 0.0) {
                    return Err("lognormal median must be positive and finite");
                }
                if !(sigma.is_finite() && *sigma >= 0.0) {
                    return Err("lognormal sigma must be non-negative and finite");
                }
            }
            LatencyProfile::PerTier(tiers) => {
                for sub in tiers.iter() {
                    if matches!(sub, LatencyProfile::PerTier(_)) {
                        return Err("per-tier latency sub-profiles may not nest");
                    }
                    sub.validate()?;
                }
            }
        }
        Ok(())
    }

    /// Latency of `client`'s dispatch number `version` — a pure function of
    /// its arguments plus `seed`, clamped to `[1, 2^40]` ticks. `tier` is the
    /// client's model-tier index (small/medium/large); only
    /// [`LatencyProfile::PerTier`] consults it, so draws under the flat
    /// profiles are bit-identical whatever tier the caller passes.
    pub fn draw(&self, seed: u64, client: usize, version: u64, tier: usize) -> u64 {
        match self {
            LatencyProfile::Fixed(t) => *t,
            LatencyProfile::Uniform { min, max } => {
                if min == max {
                    return *min;
                }
                let mut rng = substream(seed, SeedStream::Latency, draw_key(client, version));
                rng.gen_range(*min..=*max)
            }
            LatencyProfile::LogNormal { median, sigma } => {
                let mut rng = substream(seed, SeedStream::Latency, draw_key(client, version));
                let z = rng.standard_normal();
                let ticks = (median.ln() + sigma * z).exp().round();
                if ticks.is_nan() {
                    return 1;
                }
                (ticks as u64).clamp(1, MAX_TICKS)
            }
            LatencyProfile::PerTier(tiers) => tiers[tier.min(2)].draw(seed, client, version, 0),
        }
    }

    /// Parses a CLI spec: `fixed:T`, `uniform:MIN:MAX`,
    /// `lognormal:MEDIAN:SIGMA`, or `pertier:SMALL/MEDIUM/LARGE` where each
    /// slot is itself a flat spec (e.g.
    /// `pertier:fixed:1/uniform:2:6/lognormal:9:0.5`).
    pub fn parse(spec: &str) -> Result<Self, String> {
        if let Some(rest) = spec.strip_prefix("pertier:") {
            let subs: Vec<&str> = rest.split('/').collect();
            if subs.len() != 3 {
                return Err(format!(
                    "pertier latency needs exactly 3 `/`-separated sub-specs, got {}",
                    subs.len()
                ));
            }
            let mut parsed = Vec::with_capacity(3);
            for sub in subs {
                parsed.push(LatencyProfile::parse(sub)?);
            }
            let profile = LatencyProfile::PerTier(Box::new(
                <[LatencyProfile; 3]>::try_from(parsed).expect("three sub-profiles"),
            ));
            profile.validate().map_err(str::to_owned)?;
            return Ok(profile);
        }
        let parts: Vec<&str> = spec.split(':').collect();
        let profile = match parts.as_slice() {
            ["fixed", t] => {
                LatencyProfile::Fixed(t.parse().map_err(|_| format!("bad fixed ticks `{t}`"))?)
            }
            ["uniform", min, max] => LatencyProfile::Uniform {
                min: min
                    .parse()
                    .map_err(|_| format!("bad uniform min `{min}`"))?,
                max: max
                    .parse()
                    .map_err(|_| format!("bad uniform max `{max}`"))?,
            },
            ["lognormal", median, sigma] => LatencyProfile::LogNormal {
                median: median
                    .parse()
                    .map_err(|_| format!("bad lognormal median `{median}`"))?,
                sigma: sigma
                    .parse()
                    .map_err(|_| format!("bad lognormal sigma `{sigma}`"))?,
            },
            _ => {
                return Err(format!(
                    "unknown latency spec `{spec}` (expected fixed:T, \
                     uniform:MIN:MAX, lognormal:MEDIAN:SIGMA, or \
                     pertier:SMALL/MEDIUM/LARGE)"
                ))
            }
        };
        profile.validate().map_err(str::to_owned)?;
        Ok(profile)
    }

    /// Restores a profile from its JSON form.
    pub fn from_json(v: &JsonValue<'_>) -> Result<Self, JsonError> {
        let profile = match v.get("kind")?.as_str()? {
            "fixed" => LatencyProfile::Fixed(v.get("ticks")?.as_u64()?),
            "uniform" => LatencyProfile::Uniform {
                min: v.get("min")?.as_u64()?,
                max: v.get("max")?.as_u64()?,
            },
            "lognormal" => LatencyProfile::LogNormal {
                median: v.get("median")?.as_f64()?,
                sigma: v.get("sigma")?.as_f64()?,
            },
            "per_tier" => {
                let arr = v.get("tiers")?;
                let arr = arr.as_arr()?;
                if arr.len() != 3 {
                    return Err(JsonError::msg(format!(
                        "per_tier latency needs 3 sub-profiles, got {}",
                        arr.len()
                    )));
                }
                let mut subs = Vec::with_capacity(3);
                for item in arr {
                    subs.push(LatencyProfile::from_json(item)?);
                }
                LatencyProfile::PerTier(Box::new(
                    <[LatencyProfile; 3]>::try_from(subs).expect("three sub-profiles"),
                ))
            }
            other => return Err(JsonError::msg(format!("unknown latency kind `{other}`"))),
        };
        profile.validate().map_err(JsonError::msg)?;
        Ok(profile)
    }
}

impl ToJson for LatencyProfile {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| match self {
            LatencyProfile::Fixed(t) => {
                o.field("kind", &"fixed").field("ticks", t);
            }
            LatencyProfile::Uniform { min, max } => {
                o.field("kind", &"uniform")
                    .field("min", min)
                    .field("max", max);
            }
            LatencyProfile::LogNormal { median, sigma } => {
                o.field("kind", &"lognormal")
                    .field("median", median)
                    .field("sigma", sigma);
            }
            LatencyProfile::PerTier(tiers) => {
                let subs: Vec<LatencyProfile> = tiers.to_vec();
                o.field("kind", &"per_tier").field("tiers", &subs);
            }
        });
    }
}

/// Mixes `(client, version)` into one substream index (same idiom as
/// `FaultInjector::drops`).
fn draw_key(client: usize, version: u64) -> u64 {
    (client as u64).wrapping_mul(0x0100_0000_01b3) ^ version
}

/// One in-flight client training: dispatched with the parameters of round
/// `dispatched_round`, arriving at logical tick `time`.
///
/// The derived order — `(time, client)` — is the event queue's total order;
/// client id breaks ties so simultaneous arrivals pop deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PendingArrival {
    /// Arrival tick on the logical clock.
    pub time: u64,
    /// Client id (tie-break within a tick).
    pub client: usize,
    /// Value of the global round counter when this client got its
    /// parameters; staleness at aggregation is measured against it.
    pub dispatched_round: u64,
}

impl ToJson for PendingArrival {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            o.field("time", &self.time)
                .field("client", &self.client)
                .field("dispatched_round", &self.dispatched_round);
        });
    }
}

impl PendingArrival {
    /// Restores one arrival from its JSON form.
    pub fn from_json(v: &JsonValue<'_>) -> Result<Self, JsonError> {
        Ok(Self {
            time: v.get("time")?.as_u64()?,
            client: v.get("client")?.as_usize()?,
            dispatched_round: v.get("dispatched_round")?.as_u64()?,
        })
    }
}

/// The logical clock plus dispatch bookkeeping for the asynchronous mode.
///
/// One instance drives one epoch at a time: [`EventScheduler::begin_epoch`]
/// loads a traversal, [`EventScheduler::fill`] dispatches clients up to a
/// concurrency cap (asking the caller for each latency, or whether the
/// client is offline), and [`EventScheduler::pop_batch`] removes the next
/// aggregation buffer of arrivals, advancing the clock to the latest one.
/// Everything is deterministic: draws are pure functions, and the queue's
/// `(time, client)` order is total. Every field is checkpointed; the
/// settings (latency profile, concurrency, seed) stay with the caller.
#[derive(Clone, Debug)]
pub struct EventScheduler {
    clock: u64,
    /// In-flight arrivals, a min-heap on `(time, client)`.
    arrivals: BinaryHeap<Reverse<PendingArrival>>,
    /// This epoch's not-yet-dispatched clients, in traversal order.
    pending_dispatch: VecDeque<usize>,
    /// Per-client dispatch versions: how many times each client has been
    /// handed parameters. Keys the latency draws, so it is checkpointed.
    dispatch_versions: Vec<u64>,
}

impl EventScheduler {
    /// Creates an idle scheduler over `population` clients.
    ///
    /// # Panics
    /// Panics on an empty population.
    pub fn new(population: usize) -> Self {
        assert!(population > 0, "no clients to schedule");
        Self {
            clock: 0,
            arrivals: BinaryHeap::new(),
            pending_dispatch: VecDeque::new(),
            dispatch_versions: vec![0; population],
        }
    }

    /// Grows the population by one newly admitted client, returning its
    /// id. The new client joins traversals from the next epoch on (its
    /// dispatch version starts at zero).
    pub fn admit(&mut self) -> usize {
        let client = self.dispatch_versions.len();
        self.dispatch_versions.push(0);
        client
    }

    /// Current logical time in ticks.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Number of in-flight (dispatched, not yet arrived) clients.
    pub fn in_flight(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the current epoch is fully drained (nothing in flight and
    /// nothing left to dispatch).
    pub fn idle(&self) -> bool {
        self.arrivals.is_empty() && self.pending_dispatch.is_empty()
    }

    /// Loads the next epoch's traversal. Must only be called when
    /// [`EventScheduler::idle`] — epochs are drained barriers so evaluation
    /// cadence matches the synchronous mode.
    ///
    /// # Panics
    /// Panics if the previous epoch has not drained.
    pub fn begin_epoch(&mut self, traversal: Vec<usize>) {
        assert!(self.idle(), "previous epoch not drained");
        self.pending_dispatch = traversal.into();
    }

    /// Dispatches queued clients until `concurrency` are in flight or the
    /// traversal is exhausted. `dispatch(client, version)` names the
    /// latency in ticks of `client`'s dispatch number `version`, or
    /// `None` when the client is offline at the current clock tick;
    /// offline clients are skipped for the rest of the epoch and keep
    /// their version. Returns the number skipped.
    pub fn fill(
        &mut self,
        concurrency: usize,
        dispatched_round: u64,
        mut dispatch: impl FnMut(usize, u64) -> Option<u64>,
    ) -> usize {
        let mut skipped = 0;
        while self.arrivals.len() < concurrency {
            let Some(client) = self.pending_dispatch.pop_front() else {
                break;
            };
            let version = self.dispatch_versions[client];
            let Some(ticks) = dispatch(client, version) else {
                skipped += 1;
                continue;
            };
            self.dispatch_versions[client] = version + 1;
            self.arrivals.push(Reverse(PendingArrival {
                time: self.clock + ticks,
                client,
                dispatched_round,
            }));
        }
        skipped
    }

    /// Pops up to `max` earliest arrivals and advances the clock to the
    /// latest of them. Returns an empty vec when nothing is in flight.
    pub fn pop_batch(&mut self, max: usize) -> Vec<PendingArrival> {
        let mut batch = Vec::with_capacity(max.min(self.arrivals.len()));
        while batch.len() < max {
            let Some(Reverse(a)) = self.arrivals.pop() else {
                break;
            };
            self.clock = self.clock.max(a.time);
            batch.push(a);
        }
        batch
    }

    /// Restores a checkpointed scheduler over `population` clients: the
    /// clock, queue, pending dispatches and dispatch versions. Every
    /// client id they name must be below `population`.
    pub fn from_json(v: &JsonValue<'_>, population: usize) -> Result<Self, JsonError> {
        let dispatch_versions = v.get("dispatch_versions")?.as_u64_vec()?;
        if dispatch_versions.len() != population {
            return Err(JsonError::msg(format!(
                "dispatch_versions has {} entries for population {}",
                dispatch_versions.len(),
                population
            )));
        }
        let s = Self {
            clock: v.get("clock")?.as_u64()?,
            arrivals: (v.get("events")?.as_arr()?.iter())
                .map(|a| PendingArrival::from_json(a).map(Reverse))
                .collect::<Result<_, _>>()?,
            pending_dispatch: v.get("pending_dispatch")?.as_usize_vec()?.into(),
            dispatch_versions,
        };
        let stray = |field: &str, client: usize| {
            JsonError::msg(format!(
                "`{field}` names client {client} of population {population}"
            ))
        };
        if let Some(&c) = s.pending_dispatch.iter().find(|&&c| c >= population) {
            return Err(stray("pending_dispatch", c));
        }
        if let Some(Reverse(a)) = s.arrivals.iter().find(|Reverse(a)| a.client >= population) {
            return Err(stray("events", a.client));
        }
        Ok(s)
    }
}

impl ToJson for EventScheduler {
    fn write_json(&self, out: &mut String) {
        let pending: Vec<usize> = self.pending_dispatch.iter().copied().collect();
        // In `(time, client)` order, not heap layout, so the bytes are stable.
        let mut events: Vec<PendingArrival> = self.arrivals.iter().map(|Reverse(a)| *a).collect();
        events.sort_unstable();
        obj(out, |o| {
            o.field("clock", &self.clock)
                .field("events", &events)
                .field("pending_dispatch", &pending)
                .field("dispatch_versions", &self.dispatch_versions);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_tensor::ser::parse_json;

    #[test]
    fn latency_draws_are_pure_and_order_independent() {
        let p = LatencyProfile::LogNormal {
            median: 4.0,
            sigma: 0.8,
        };
        let forward: Vec<u64> = (0..50).map(|c| p.draw(7, c, 3, 0)).collect();
        let backward: Vec<u64> = (0..50).rev().map(|c| p.draw(7, c, 3, 0)).collect();
        let reversed: Vec<u64> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed);
        assert!(forward.iter().any(|&t| t != forward[0]), "draws vary");
    }

    #[test]
    fn latency_draws_vary_by_version() {
        let p = LatencyProfile::Uniform { min: 1, max: 1000 };
        let by_version: Vec<u64> = (0..64).map(|v| p.draw(3, 5, v, 0)).collect();
        assert!(by_version.iter().any(|&t| t != by_version[0]));
    }

    #[test]
    fn latency_respects_bounds() {
        let u = LatencyProfile::Uniform { min: 2, max: 9 };
        assert!((0..1000).all(|c| (2..=9).contains(&u.draw(1, c, 0, 0))));
        let f = LatencyProfile::Fixed(3);
        assert!((0..100).all(|c| f.draw(1, c, 0, 0) == 3));
        let ln = LatencyProfile::LogNormal {
            median: 4.0,
            sigma: 1.0,
        };
        assert!((0..1000).all(|c| ln.draw(1, c, 0, 0) >= 1));
    }

    #[test]
    fn latency_validation_rejects_bad_parameters() {
        assert!(LatencyProfile::Fixed(0).validate().is_err());
        assert!(LatencyProfile::Uniform { min: 0, max: 3 }
            .validate()
            .is_err());
        assert!(LatencyProfile::Uniform { min: 5, max: 3 }
            .validate()
            .is_err());
        assert!(LatencyProfile::LogNormal {
            median: 0.0,
            sigma: 1.0
        }
        .validate()
        .is_err());
        assert!(LatencyProfile::LogNormal {
            median: 2.0,
            sigma: -1.0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn latency_above_two_to_the_forty_ticks_is_refused() {
        let edge = 1u64 << 40;
        let per_tier = |sub: LatencyProfile| {
            LatencyProfile::PerTier(Box::new([
                LatencyProfile::unit(),
                sub,
                LatencyProfile::unit(),
            ]))
        };
        for ticks in [edge, edge + 1] {
            let ok = ticks == edge;
            let fixed = LatencyProfile::Fixed(ticks);
            let uniform = LatencyProfile::Uniform { min: 1, max: ticks };
            assert_eq!(fixed.validate().is_ok(), ok, "{fixed:?}");
            assert_eq!(uniform.validate().is_ok(), ok, "{uniform:?}");
            assert_eq!(per_tier(fixed).validate().is_ok(), ok);
            assert_eq!(per_tier(uniform).validate().is_ok(), ok);
            let parsed = LatencyProfile::parse(&format!("fixed:{ticks}"));
            assert_eq!(parsed.is_ok(), ok, "{parsed:?}");
        }
        assert!(LatencyProfile::parse("fixed:18446744073709551615").is_err());
    }

    #[test]
    fn latency_json_roundtrips() {
        for p in [
            LatencyProfile::Fixed(7),
            LatencyProfile::Uniform { min: 1, max: 12 },
            LatencyProfile::LogNormal {
                median: 4.5,
                sigma: 0.75,
            },
        ] {
            let json = p.to_json();
            let back = LatencyProfile::from_json(&parse_json(&json).unwrap()).unwrap();
            assert_eq!(p, back, "{json}");
        }
        assert!(LatencyProfile::from_json(&parse_json(r#"{"kind":"nope"}"#).unwrap()).is_err());
    }

    #[test]
    fn latency_parse_accepts_cli_specs() {
        assert_eq!(
            LatencyProfile::parse("fixed:3").unwrap(),
            LatencyProfile::Fixed(3)
        );
        assert_eq!(
            LatencyProfile::parse("uniform:1:9").unwrap(),
            LatencyProfile::Uniform { min: 1, max: 9 }
        );
        assert_eq!(
            LatencyProfile::parse("lognormal:4:0.8").unwrap(),
            LatencyProfile::LogNormal {
                median: 4.0,
                sigma: 0.8
            }
        );
        assert!(LatencyProfile::parse("uniform:9:1").is_err());
        assert!(LatencyProfile::parse("bogus").is_err());
    }

    fn per_tier_fixture() -> LatencyProfile {
        LatencyProfile::PerTier(Box::new([
            LatencyProfile::Fixed(2),
            LatencyProfile::Uniform { min: 4, max: 9 },
            LatencyProfile::LogNormal {
                median: 20.0,
                sigma: 0.5,
            },
        ]))
    }

    #[test]
    fn per_tier_selects_the_tier_sub_profile() {
        let p = per_tier_fixture();
        assert_eq!(p.draw(7, 3, 0, 0), 2);
        let medium = p.draw(7, 3, 0, 1);
        assert!((4..=9).contains(&medium));
        // The per-tier draw matches the bare sub-profile's draw exactly:
        // same (seed, client, version) key, tier only picks the arm.
        let bare = LatencyProfile::Uniform { min: 4, max: 9 };
        assert_eq!(medium, bare.draw(7, 3, 0, 0));
        // Out-of-range tiers clamp to the large arm.
        assert_eq!(p.draw(7, 3, 0, 2), p.draw(7, 3, 0, 9));
    }

    #[test]
    fn per_tier_validation_rejects_bad_and_nested_sub_profiles() {
        let bad = LatencyProfile::PerTier(Box::new([
            LatencyProfile::Fixed(0),
            LatencyProfile::unit(),
            LatencyProfile::unit(),
        ]));
        assert!(bad.validate().is_err());
        let nested = LatencyProfile::PerTier(Box::new([
            per_tier_fixture(),
            LatencyProfile::unit(),
            LatencyProfile::unit(),
        ]));
        assert_eq!(
            nested.validate(),
            Err("per-tier latency sub-profiles may not nest")
        );
    }

    #[test]
    fn per_tier_json_and_cli_roundtrip() {
        let p = per_tier_fixture();
        let back = LatencyProfile::from_json(&parse_json(&p.to_json()).unwrap()).unwrap();
        assert_eq!(p, back);
        let parsed = LatencyProfile::parse("pertier:fixed:2/uniform:4:9/lognormal:20:0.5").unwrap();
        assert_eq!(parsed, p);
        assert!(LatencyProfile::parse("pertier:fixed:1/fixed:2").is_err());
        assert!(LatencyProfile::parse("pertier:fixed:0/fixed:1/fixed:1").is_err());
    }

    /// A `fill` dispatch closure: every client online, latency drawn
    /// from `latency` under `seed` (tier 0).
    fn online(latency: &LatencyProfile, seed: u64) -> impl FnMut(usize, u64) -> Option<u64> + '_ {
        move |client, version| Some(latency.draw(seed, client, version, 0))
    }

    #[test]
    fn scheduler_draws_by_tier_and_admits_new_clients() {
        // Tiers live with the caller: its dispatch closure picks the
        // sub-profile, and the engine keys each draw by dispatch version.
        let p = per_tier_fixture();
        let tiers = [0, 1, 2];
        let mut s = EventScheduler::new(2);
        assert_eq!(s.admit(), 2);
        let mut start = 0;
        for version in 0..2 {
            s.begin_epoch(vec![2, 0, 1]);
            let mut asked = Vec::new();
            s.fill(4, version, |c, v| {
                asked.push((c, v));
                Some(p.draw(11, c, v, tiers[c]))
            });
            assert_eq!(asked, [(2, version), (0, version), (1, version)]);
            let batch = s.pop_batch(3);
            let by_client: std::collections::BTreeMap<usize, u64> =
                batch.iter().map(|a| (a.client, a.time)).collect();
            for c in 0..3 {
                assert_eq!(by_client[&c], start + p.draw(11, c, version, tiers[c]));
            }
            start = s.clock();
        }
    }

    #[test]
    fn scheduler_pops_in_time_then_client_order() {
        let mut s = EventScheduler::new(10);
        s.begin_epoch(vec![2, 9, 1, 0, 7]);
        s.fill(5, 0, |c, _| {
            Some(match c {
                0 | 9 => 3,
                7 => 4,
                _ => 5,
            })
        });
        let order: Vec<(u64, usize)> = std::iter::from_fn(|| s.pop_batch(1).pop())
            .map(|a| (a.time, a.client))
            .collect();
        assert_eq!(order, vec![(3, 0), (3, 9), (4, 7), (5, 1), (5, 2)]);
    }

    #[test]
    fn scheduler_events_are_sorted_and_roundtrip() {
        let mut s = EventScheduler::new(10);
        s.begin_epoch(vec![9, 1, 4, 7]);
        s.fill(4, 0, |c, _| Some(10 - c as u64));
        let json = s.to_json();
        let doc = parse_json(&json).unwrap();
        let events = (doc.get("events").unwrap().as_arr().unwrap().iter())
            .map(|a| PendingArrival::from_json(a).unwrap())
            .collect::<Vec<_>>();
        assert_eq!(events.len(), 4);
        assert!(events.windows(2).all(|w| w[0] < w[1]));
        let mut back = EventScheduler::from_json(&doc, 10).unwrap();
        assert_eq!(back.to_json(), json);
        let drain = |s: &mut EventScheduler| {
            std::iter::from_fn(|| s.pop_batch(1).pop()).collect::<Vec<_>>()
        };
        assert_eq!(drain(&mut s), drain(&mut back));
    }

    #[test]
    fn scheduler_runs_an_epoch_deterministically() {
        let latency = LatencyProfile::Uniform { min: 1, max: 20 };
        let run = || {
            let mut s = EventScheduler::new(16);
            s.begin_epoch((0..16).collect());
            let mut seen = Vec::new();
            let mut round = 0u64;
            s.fill(4, round, online(&latency, 42));
            while !s.idle() {
                let batch = s.pop_batch(2);
                round += 1;
                seen.extend(batch.iter().map(|a| (a.time, a.client)));
                s.fill(4, round, online(&latency, 42));
            }
            (seen, s.clock())
        };
        let (a, clock_a) = run();
        let (b, clock_b) = run();
        assert_eq!(a, b);
        assert_eq!(clock_a, clock_b);
        let clients: std::collections::BTreeSet<usize> = a.iter().map(|&(_, c)| c).collect();
        assert_eq!(clients.len(), 16, "every client arrives exactly once");
    }

    #[test]
    fn scheduler_respects_concurrency_and_skips_offline() {
        let mut s = EventScheduler::new(10);
        s.begin_epoch((0..10).collect());
        let skipped = s.fill(3, 0, |c, _| (c % 2 == 0).then_some(2));
        assert_eq!(s.in_flight(), 3);
        assert!(skipped > 0);
        let batch = s.pop_batch(10);
        assert_eq!(batch.len(), 3);
        assert_eq!(s.clock(), 2);
    }

    #[test]
    fn scheduler_checkpoint_resumes_mid_epoch() {
        let latency = LatencyProfile::Uniform { min: 1, max: 9 };
        let mut s = EventScheduler::new(12);
        s.begin_epoch((0..12).collect());
        s.fill(4, 0, online(&latency, 5));
        let _ = s.pop_batch(2);
        s.fill(4, 1, online(&latency, 5));

        let json = s.to_json();
        let mut r = EventScheduler::from_json(&parse_json(&json).unwrap(), 12).unwrap();
        assert_eq!(r.clock(), s.clock());
        let mut round = 2u64;
        while !s.idle() {
            assert_eq!(s.pop_batch(3), r.pop_batch(3));
            s.fill(4, round, online(&latency, 5));
            r.fill(4, round, online(&latency, 5));
            round += 1;
        }
        assert!(r.idle());
        assert_eq!(s.to_json(), r.to_json());
    }

    #[test]
    fn scheduler_rejects_mismatched_restores() {
        let json = EventScheduler::new(4).to_json();
        let doc = parse_json(&json).unwrap();
        assert!(EventScheduler::from_json(&doc, 5).is_err());
    }
}
