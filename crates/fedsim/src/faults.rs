//! Client-failure injection.
//!
//! The paper assumes every selected client returns its update. Real
//! cross-device deployments lose a fraction of clients per round to
//! connectivity and battery constraints, so the robustness extension
//! (DESIGN.md §6) injects seeded, per-(round, client) deterministic drops:
//! a dropped client trains locally (its private state advances) but its
//! upload never reaches the server.
//!
//! The asynchronous mode layers *churn* on top: a [`ChurnProfile`] decides
//! whether a client is offline at a given logical tick, consulted at
//! dispatch time. Like drops, availability verdicts are pure functions of
//! `(seed, time, client)` — no mutable RNG state, so they survive
//! checkpoint/restore and are independent of query order.

use hf_tensor::rng::Rng;
use hf_tensor::rng::{substream, SeedStream};
use hf_tensor::ser::{obj, JsonError, JsonValue, ToJson};

/// Client availability model for churn-heavy deployments.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChurnProfile {
    /// Every client is always online (the paper's setting).
    None,
    /// Each `(time, client)` pair is offline independently with the given
    /// probability — memoryless unavailability.
    Independent {
        /// Probability a client is offline at any given tick, in `[0, 1)`.
        offline_prob: f64,
    },
    /// Flap-prone churn: availability is redrawn once per `period`-tick
    /// window, so an offline client stays dark for the whole window and
    /// then may come back — bursty outages rather than white noise.
    Flappy {
        /// Probability a client is offline in any given window, in `[0, 1)`.
        offline_prob: f64,
        /// Window length in ticks (≥ 1).
        period: u64,
    },
}

impl ChurnProfile {
    /// Validates the profile's parameters, returning a message on failure.
    pub fn validate(&self) -> Result<(), &'static str> {
        let prob = match *self {
            ChurnProfile::None => return Ok(()),
            ChurnProfile::Independent { offline_prob } => offline_prob,
            ChurnProfile::Flappy {
                offline_prob,
                period,
            } => {
                if period == 0 {
                    return Err("flappy churn period must be at least 1 tick");
                }
                offline_prob
            }
        };
        if !(0.0..1.0).contains(&prob) {
            return Err("offline probability in [0,1)");
        }
        Ok(())
    }

    /// Parses a CLI spec: `none`, `independent:P`, or `flappy:P:PERIOD`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        let profile = match parts.as_slice() {
            ["none"] => ChurnProfile::None,
            ["independent", p] => ChurnProfile::Independent {
                offline_prob: p.parse().map_err(|_| format!("bad probability `{p}`"))?,
            },
            ["flappy", p, period] => ChurnProfile::Flappy {
                offline_prob: p.parse().map_err(|_| format!("bad probability `{p}`"))?,
                period: period
                    .parse()
                    .map_err(|_| format!("bad period `{period}`"))?,
            },
            _ => {
                return Err(format!(
                    "unknown churn spec `{spec}` (expected none, independent:P, \
                     or flappy:P:PERIOD)"
                ))
            }
        };
        profile.validate().map_err(str::to_owned)?;
        Ok(profile)
    }

    /// Restores a profile from its JSON form.
    pub fn from_json(v: &JsonValue<'_>) -> Result<Self, JsonError> {
        let profile = match v.get("kind")?.as_str()? {
            "none" => ChurnProfile::None,
            "independent" => ChurnProfile::Independent {
                offline_prob: v.get("offline_prob")?.as_f64()?,
            },
            "flappy" => ChurnProfile::Flappy {
                offline_prob: v.get("offline_prob")?.as_f64()?,
                period: v.get("period")?.as_u64()?,
            },
            other => return Err(JsonError::msg(format!("unknown churn kind `{other}`"))),
        };
        profile.validate().map_err(JsonError::msg)?;
        Ok(profile)
    }
}

impl ToJson for ChurnProfile {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| match *self {
            ChurnProfile::None => {
                o.field("kind", &"none");
            }
            ChurnProfile::Independent { offline_prob } => {
                o.field("kind", &"independent")
                    .field("offline_prob", &offline_prob);
            }
            ChurnProfile::Flappy {
                offline_prob,
                period,
            } => {
                o.field("kind", &"flappy")
                    .field("offline_prob", &offline_prob)
                    .field("period", &period);
            }
        });
    }
}

/// Deterministic client-drop injector.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultInjector {
    seed: u64,
    drop_prob: f64,
    churn: ChurnProfile,
}

impl FaultInjector {
    /// Creates an injector dropping each upload independently with
    /// probability `drop_prob`.
    ///
    /// # Panics
    /// Panics unless `0 <= drop_prob < 1`.
    pub fn new(seed: u64, drop_prob: f64) -> Self {
        Self::with_churn(seed, drop_prob, ChurnProfile::None)
    }

    /// Creates an injector with both upload drops and an availability
    /// (churn) model.
    ///
    /// # Panics
    /// Panics unless `0 <= drop_prob < 1` and the churn profile validates.
    pub fn with_churn(seed: u64, drop_prob: f64, churn: ChurnProfile) -> Self {
        assert!((0.0..1.0).contains(&drop_prob), "drop probability in [0,1)");
        churn.validate().expect("valid churn profile");
        Self {
            seed,
            drop_prob,
            churn,
        }
    }

    /// An injector that never drops (the paper's setting).
    pub fn disabled() -> Self {
        Self {
            seed: 0,
            drop_prob: 0.0,
            churn: ChurnProfile::None,
        }
    }

    /// Restores a checkpointed injector. Decisions are a pure function of
    /// `(seed, round, client)`, so seed + probabilities are the whole
    /// state.
    pub fn from_json(v: &JsonValue<'_>) -> Result<Self, JsonError> {
        let drop_prob = v.get("drop_prob")?.as_f64()?;
        if !(0.0..1.0).contains(&drop_prob) {
            return Err(JsonError::msg("drop probability in [0,1)"));
        }
        Ok(Self {
            seed: v.get("seed")?.as_u64()?,
            drop_prob,
            churn: ChurnProfile::from_json(v.get("churn")?)?,
        })
    }

    /// Whether `client`'s upload in global round `round` is lost.
    /// Deterministic in `(seed, round, client)` — independent of
    /// evaluation order, thread count, or how many other clients exist.
    pub fn drops(&self, round: u64, client: usize) -> bool {
        if self.drop_prob == 0.0 {
            return false;
        }
        let key = round.wrapping_mul(0x0100_0000_01b3) ^ (client as u64);
        let mut rng = substream(self.seed, SeedStream::Faults, key);
        rng.gen::<f64>() < self.drop_prob
    }

    /// Whether `client` is offline at logical tick `time`. Deterministic in
    /// `(seed, churn, time, client)` — independent of evaluation order,
    /// thread count, or checkpoint boundaries.
    pub fn offline(&self, time: u64, client: usize) -> bool {
        let (prob, window) = match self.churn {
            ChurnProfile::None => return false,
            ChurnProfile::Independent { offline_prob } => (offline_prob, time),
            ChurnProfile::Flappy {
                offline_prob,
                period,
            } => (offline_prob, time / period),
        };
        if prob == 0.0 {
            return false;
        }
        let key = window.wrapping_mul(0x0100_0000_01b3) ^ (client as u64);
        let mut rng = substream(self.seed, SeedStream::Churn, key);
        rng.gen::<f64>() < prob
    }
}

impl ToJson for FaultInjector {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            o.field("seed", &self.seed)
                .field("drop_prob", &self.drop_prob)
                .field("churn", &self.churn);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_drops() {
        let f = FaultInjector::disabled();
        assert!((0..1000).all(|c| !f.drops(0, c)));
    }

    #[test]
    fn drop_rate_approximates_probability() {
        let f = FaultInjector::new(1, 0.3);
        let drops = (0..10_000).filter(|&c| f.drops(5, c)).count();
        let rate = drops as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultInjector::new(9, 0.5);
        let b = FaultInjector::new(9, 0.5);
        for round in 0..10 {
            for client in 0..50 {
                assert_eq!(a.drops(round, client), b.drops(round, client));
            }
        }
    }

    #[test]
    fn decisions_vary_by_round_and_client() {
        let f = FaultInjector::new(2, 0.5);
        let by_round: Vec<bool> = (0..64).map(|r| f.drops(r, 0)).collect();
        let by_client: Vec<bool> = (0..64).map(|c| f.drops(0, c)).collect();
        assert!(by_round.iter().any(|&d| d) && by_round.iter().any(|&d| !d));
        assert!(by_client.iter().any(|&d| d) && by_client.iter().any(|&d| !d));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_certain_drop() {
        let _ = FaultInjector::new(0, 1.0);
    }

    #[test]
    fn drop_verdicts_survive_checkpoint_restore() {
        use hf_tensor::ser::parse_json;
        let original = FaultInjector::with_churn(
            11,
            0.4,
            ChurnProfile::Flappy {
                offline_prob: 0.3,
                period: 4,
            },
        );
        let json = original.to_json();
        let restored = FaultInjector::from_json(&parse_json(&json).unwrap()).unwrap();
        for round in 0..20 {
            for client in 0..64 {
                assert_eq!(
                    original.drops(round, client),
                    restored.drops(round, client),
                    "round {round} client {client}"
                );
                assert_eq!(
                    original.offline(round, client),
                    restored.offline(round, client),
                    "tick {round} client {client}"
                );
            }
        }
    }

    #[test]
    fn drop_verdicts_are_independent_of_query_order() {
        let f = FaultInjector::new(13, 0.5);
        let pairs: Vec<(u64, usize)> = (0..16).flat_map(|r| (0..16).map(move |c| (r, c))).collect();
        let forward: Vec<bool> = pairs.iter().map(|&(r, c)| f.drops(r, c)).collect();
        let backward: Vec<bool> = pairs.iter().rev().map(|&(r, c)| f.drops(r, c)).collect();
        let reversed: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed);
        // Interleave drop and offline queries: neither stream perturbs the
        // other because both are stateless.
        let g = FaultInjector::with_churn(13, 0.5, ChurnProfile::Independent { offline_prob: 0.4 });
        let interleaved: Vec<bool> = pairs
            .iter()
            .map(|&(r, c)| {
                let _ = g.offline(r, c);
                g.drops(r, c)
            })
            .collect();
        assert_eq!(forward, interleaved);
    }

    #[test]
    fn independent_churn_rate_approximates_probability() {
        let f = FaultInjector::with_churn(7, 0.0, ChurnProfile::Independent { offline_prob: 0.3 });
        let offline = (0..10_000).filter(|&c| f.offline(2, c)).count();
        let rate = offline as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn flappy_churn_holds_verdicts_for_the_whole_window() {
        let f = FaultInjector::with_churn(
            5,
            0.0,
            ChurnProfile::Flappy {
                offline_prob: 0.5,
                period: 8,
            },
        );
        for client in 0..32 {
            for window in 0..8u64 {
                let first = f.offline(window * 8, client);
                for t in window * 8..(window + 1) * 8 {
                    assert_eq!(f.offline(t, client), first, "client {client} tick {t}");
                }
            }
            // Across many windows the verdict must flip at least once.
            let flips: Vec<bool> = (0..64).map(|w| f.offline(w * 8, client)).collect();
            assert!(
                flips.iter().any(|&o| o != flips[0]),
                "client {client} never flips"
            );
        }
    }

    #[test]
    fn churn_profiles_roundtrip_through_json() {
        use hf_tensor::ser::parse_json;
        for p in [
            ChurnProfile::None,
            ChurnProfile::Independent { offline_prob: 0.2 },
            ChurnProfile::Flappy {
                offline_prob: 0.35,
                period: 6,
            },
        ] {
            let back = ChurnProfile::from_json(&parse_json(&p.to_json()).unwrap()).unwrap();
            assert_eq!(p, back);
        }
        assert!(ChurnProfile::parse("independent:0.2").is_ok());
        assert!(ChurnProfile::parse("flappy:0.3:5").is_ok());
        assert_eq!(ChurnProfile::parse("none").unwrap(), ChurnProfile::None);
        assert!(ChurnProfile::parse("flappy:1.5:5").is_err());
        assert!(ChurnProfile::parse("flappy:0.3:0").is_err());
        assert!(ChurnProfile::parse("bogus").is_err());
    }
}
