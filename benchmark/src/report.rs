//! Metric names, the contract with `BENCHMARK.json`, and result output.
//!
//! `BENCHMARK.json` has one list of bounded end-to-end metrics and one
//! list of unbounded per-layer metrics, and every workload must print
//! every entry of the list it is asked for. The end-to-end names are
//! therefore roles that every workload fills (the README says with
//! what). A bounded metric's spread over ten seeds has to stay inside its
//! bound on *every* workload; the end-to-end timings cannot promise that
//! on this host, so they are demoted: still measured with the recorder
//! off, but listed per layer, where the driver reports them without a
//! gate. Everything else a workload measures is printed by `run` and
//! written to the results file.

use hf_tensor::ser::{obj, JsonError, JsonValue, ToJson};

/// Whether a larger value is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn tag(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric of the contract.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
    /// Exact counts must repeat bit for bit within a seed.
    pub exact: bool,
}

/// The workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 5] = [
    "serve_rank",
    "serve_wire",
    "serve_swap",
    "train_plain",
    "train_masked",
];

/// The bounded end-to-end metrics every workload reports (`--trace 0`).
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "io_kib_per_op",
        unit: "KiB",
        better: Better::Lower,
        bound: 0.10,
        exact: true,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
];

/// End-to-end metrics that could not hold a bound and were demoted to
/// the per-layer list (the README has the spreads that decided it).
pub const DEMOTED: [(&str, &str, Better); 5] = [
    ("op_p50_ms", "ms", Better::Lower),
    ("op_p90_ms", "ms", Better::Lower),
    ("throughput", "1/s", Better::Higher),
    ("swap_p50_ms", "ms", Better::Lower),
    ("quality", "ratio", Better::Higher),
];

/// The layer metrics every path has (`--trace 1` prints [`DEMOTED`],
/// then these). A share is computed from the trace, never defaulted: it
/// reads 0 where no span of that layer ran under the root.
pub const PER_LAYER: [(&str, &str, Better); 14] = [
    ("trace.coverage", "ratio", Better::Higher),
    ("trace.overhead_share", "ratio", Better::Lower),
    ("trace.root_p50_us", "us", Better::Lower),
    ("trace.spans", "count", Better::Lower),
    ("trace.share.net", "ratio", Better::Lower),
    ("trace.share.recommender", "ratio", Better::Lower),
    ("trace.share.load", "ratio", Better::Lower),
    ("trace.share.export", "ratio", Better::Lower),
    ("trace.share.train_client", "ratio", Better::Lower),
    ("trace.share.transport", "ratio", Better::Lower),
    ("trace.share.aggregate", "ratio", Better::Lower),
    ("trace.share.secagg", "ratio", Better::Lower),
    ("tensor.matrix.matmul_rows_ns_per_fma", "ns", Better::Lower),
    ("bench.e2e_vs_root", "ratio", Better::Lower),
];

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// A list of metrics in insertion order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        debug_assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn extend(&mut self, other: Metrics) {
        for m in other.0 {
            self.put(&m.name, m.value, &m.unit);
        }
    }

    pub fn from_json(v: &JsonValue<'_>) -> Result<Self, JsonError> {
        let mut out = Metrics::default();
        for (name, m) in v.as_obj()? {
            out.put(name, m.get("value")?.as_f64()?, m.get("unit")?.as_str()?);
        }
        Ok(out)
    }
}

impl ToJson for Metrics {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            for m in &self.0 {
                o.field(&m.name, &MetricBody(m));
            }
        });
    }
}

struct MetricBody<'a>(&'a Metric);

impl ToJson for MetricBody<'_> {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            o.field("value", &self.0.value).field("unit", &self.0.unit);
        });
    }
}

/// What one workload run produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, and anything a reader of the table needs.
    pub notes: Vec<String>,
    /// Everything measured end to end, with the recorder off: the
    /// contract's bounded metrics and the demoted ones.
    pub end_to_end: Metrics,
    /// What sizes the run: rounds, swaps, verified responses.
    pub counts: Metrics,
    /// Every per-layer metric this workload measured.
    pub layers: Metrics,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The contract's bounded end-to-end metrics, in contract order.
    ///
    /// # Panics
    /// Panics if the workload left one out: every workload reports every
    /// end-to-end metric.
    pub fn contract_end_to_end(&self) -> Metrics {
        let mut out = Metrics::default();
        for m in &END_TO_END {
            let value = self
                .end_to_end
                .get(m.name)
                .unwrap_or_else(|| panic!("the workload did not report {}", m.name));
            out.put(m.name, value, m.unit);
        }
        out
    }

    /// The contract's per-layer metrics, in contract order: the demoted
    /// end-to-end metrics, then the layers.
    ///
    /// # Panics
    /// Panics if either pass left one out.
    pub fn contract_layers(&self) -> Metrics {
        let mut out = Metrics::default();
        for (from, list) in [(&self.end_to_end, &DEMOTED[..]), (&self.layers, &PER_LAYER)] {
            for &(name, unit, _) in list {
                let value = from
                    .get(name)
                    .unwrap_or_else(|| panic!("the workload did not report {name}"));
                out.put(name, value, unit);
            }
        }
        out
    }

    /// The result object a workload process prints as its last line.
    pub fn result_line(&self, metrics: &Metrics) -> String {
        let mut out = String::new();
        obj(&mut out, |o| {
            o.field("correct", &self.correct())
                .field("attempted", &self.attempted)
                .field("failed", &self.failed)
                .field("metrics", metrics);
        });
        out
    }

    /// Human-readable table of everything measured.
    pub fn print_table(&self, workload: &str) {
        println!(
            "== {workload}: attempted {} failed {} ==",
            self.attempted, self.failed
        );
        for note in &self.notes {
            println!("   note: {note}");
        }
        let all = [&self.end_to_end, &self.counts, &self.layers];
        for m in all.into_iter().flat_map(|list| &list.0) {
            println!("   {:<44} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_tensor::ser::parse_json;

    /// `true` when `name` fits the contract's naming rule.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    /// `(name, unit, better, bound)` of every entry of a contract list.
    fn entries(doc: &JsonValue<'_>, list: &str) -> Vec<(String, String, String, Option<f64>)> {
        let text = |v: &JsonValue<'_>, key: &str| -> String {
            v.opt(key)
                .map(|s| s.as_str().expect("a string").to_string())
                .unwrap_or_default()
        };
        doc.get(list)
            .and_then(JsonValue::as_arr)
            .expect("a list")
            .iter()
            .map(|v| {
                let bound = v.opt("bound").map(|b| b.as_f64().expect("a number"));
                (text(v, "name"), text(v, "unit"), text(v, "better"), bound)
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_names_this_binary_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");

        let workloads: Vec<String> = entries(&doc, "workloads")
            .into_iter()
            .map(|e| e.0)
            .collect();
        assert_eq!(workloads, WORKLOADS);

        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.tag().to_string(),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(entries(&doc, "end_to_end"), want);
        // 0.25 is the widest bound the driver accepts
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));

        let want: Vec<_> = DEMOTED
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.tag().to_string(), None))
            .collect();
        assert_eq!(entries(&doc, "per_layer"), want);

        for list in ["workloads", "end_to_end", "per_layer"] {
            for (name, ..) in entries(&doc, list) {
                assert!(valid_name(&name), "{name} breaks the naming rule");
            }
        }
        assert_eq!(
            doc.get("paths")
                .and_then(JsonValue::as_arr)
                .expect("paths")
                .len(),
            1
        );
    }

    #[test]
    fn names_follow_the_contract_rule() {
        assert!(valid_name("net.frame.req_bytes"));
        assert!(valid_name("9lives-ok_1"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_parses_and_keeps_every_digit() {
        let mut outcome = Outcome {
            attempted: 1000,
            ..Outcome::default()
        };
        outcome.end_to_end.put("setup_s", 1.203_456_789_012, "s");
        let line = outcome.result_line(&outcome.end_to_end);
        let doc = parse_json(&line).expect("the result line parses");
        assert!(doc.get("correct").unwrap().as_bool().unwrap());
        assert_eq!(doc.get("attempted").unwrap().as_u64().unwrap(), 1000);
        let back = Metrics::from_json(doc.get("metrics").unwrap()).expect("metrics");
        assert_eq!(back, outcome.end_to_end);
        // a run that attempted nothing is not correct
        assert!(!Outcome::default().correct());
    }
}
