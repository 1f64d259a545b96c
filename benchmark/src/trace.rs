//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! layer (name, start, end, parent, operation id), kept in memory and
//! written out once at the end. A span's **self time** is its duration
//! minus the part of its interval its children cover; children that ran
//! in parallel overlap, so the covered part is the *union* of their
//! intervals, never the sum.

use crate::report::Metrics;
use hf_tensor::ser::{obj, ToJson};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request or round the span belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

impl ToJson for Span {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            o.field("name", &self.name)
                .field("start_ns", &self.start_ns)
                .field("end_ns", &self.end_ns)
                .field("parent", &self.parent)
                .field("op", &self.op);
        });
    }
}

/// Handle returned by [`Tracer::begin`]; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// The recorder. A disabled recorder takes no timestamps, so the same
/// replay code measures the untraced pass.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder's epoch (for spans timed on
    /// worker threads and attached with [`Tracer::attach`]).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorder's epoch, for worker threads to time against.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span; spans close innermost first.
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Times `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, op);
        let out = f();
        self.end(open);
        out
    }

    /// Records a span that was timed elsewhere (a worker thread) as a
    /// child of the innermost open span.
    pub fn attach(&mut self, name: &'static str, op: u64, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.stack.last().copied(),
                op,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name` — of those directly
    /// under a span called `under`, when one is named.
    pub fn durations_us(&self, name: &str, under: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| match under {
                None => true,
                Some(parent) => s.parent.is_some_and(|p| self.spans[p].name == parent),
            })
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (s, e) = (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi));
            if e > s {
                children[p].push((s, e));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (s, e) in kids {
                if e > reach {
                    covered += e - s.max(reach);
                    reach = e;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per-name aggregate of a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// What the per-layer metrics are computed from.
pub struct Summary {
    pub by_name: BTreeMap<&'static str, NameTotal>,
    /// Durations of the root spans (spans without a parent), in order.
    pub roots_ns: Vec<u64>,
    /// Σ root self time: the part of the roots no layer span covers.
    pub root_self_ns: u64,
}

impl Summary {
    pub fn of(spans: &[Span]) -> Self {
        let selfs = self_times(spans);
        let mut by_name: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        let mut roots_ns = Vec::new();
        let mut root_self_ns = 0;
        for (span, self_ns) in spans.iter().zip(selfs) {
            let t = by_name.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += self_ns;
            if span.parent.is_none() {
                roots_ns.push(span.duration_ns());
                root_self_ns += self_ns;
            }
        }
        Self {
            by_name,
            roots_ns,
            root_self_ns,
        }
    }

    pub fn get(&self, name: &str) -> NameTotal {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    pub fn root_total_ns(&self) -> u64 {
        self.roots_ns.iter().sum()
    }

    /// Share of the roots' time that child spans cover.
    pub fn coverage(&self) -> f64 {
        let root = self.root_total_ns();
        if root == 0 {
            0.0
        } else {
            1.0 - self.root_self_ns as f64 / root as f64
        }
    }

    /// Share of the covered root time spent in spans whose name starts
    /// with one of `prefixes`: the covered time is split in proportion to
    /// self (busy) time, so on a single-threaded path this is the wall
    /// share, and parallel stages weigh in by the CPU time they burn.
    pub fn share(&self, prefixes: &[&str]) -> f64 {
        let is_root = |name: &str| name.starts_with("root.");
        let layers: u64 = self
            .by_name
            .iter()
            .filter(|(n, _)| !is_root(n))
            .map(|(_, t)| t.self_ns)
            .sum();
        if layers == 0 {
            return 0.0;
        }
        let group: u64 = self
            .by_name
            .iter()
            .filter(|(n, _)| !is_root(n) && prefixes.iter().any(|p| n.starts_with(p)))
            .map(|(_, t)| t.self_ns)
            .sum();
        self.coverage() * group as f64 / layers as f64
    }
}

/// The contract's coverage, span count and shares, from one trace.
pub fn share_metrics(tracer: &Tracer, layers: &mut Metrics) -> Summary {
    let sum = Summary::of(tracer.spans());
    layers.put("trace.coverage", sum.coverage(), "ratio");
    layers.put("trace.spans", tracer.spans().len() as f64, "count");
    for (name, prefixes) in [
        ("trace.share.net", &["net."][..]),
        ("trace.share.recommender", &["serve.recommender."][..]),
        (
            "trace.share.load",
            &["serve.lazy.", "pipeline.driver.latest"][..],
        ),
        (
            "trace.share.export",
            &["serve.artifact.export", "serve.binfmt.save"][..],
        ),
        ("trace.share.train_client", &["core.client."][..]),
        ("trace.share.transport", &["fedsim.transport."][..]),
        ("trace.share.aggregate", &["core.server."][..]),
        ("trace.share.secagg", &["secagg."][..]),
    ] {
        layers.put(name, sum.share(prefixes), "ratio");
    }
    sum
}

/// The trace document written to `results/trace-<workload>.json`.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::new();
    obj(&mut out, |o| {
        o.field("workload", &workload)
            .field("seed", &seed)
            .field("unit", &"ns since the traced pass began")
            .field("spans", &spans);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("root.round", 0, 100, None),
            // two workers in parallel: 10..60 and 30..80 cover 10..80
            span("fan", 10, 90, Some(0)),
            span("client", 10, 60, Some(1)),
            span("client", 30, 80, Some(1)),
            // nested fully inside the first client: must not count twice
            span("grad", 20, 40, Some(2)),
            // sticks out past its parent: clipped to 90
            span("late", 85, 120, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 80); // root minus fan
        assert_eq!(selfs[1], 80 - 70 - 5); // fan minus (10..80 ∪ 85..90)
        assert_eq!(selfs[2], 50 - 20);
        assert_eq!(selfs[3], 50);
        assert_eq!(selfs[4], 20);

        let sum = Summary::of(&spans);
        assert_eq!(sum.roots_ns, vec![100]);
        assert!((sum.coverage() - 0.8).abs() < 1e-12);
        assert_eq!(sum.get("client").count, 2);
        assert_eq!(sum.get("client").self_ns, 80);
        // shares of the non-root layers sum to the coverage
        let total = sum.share(&["fan", "client", "grad", "late"]);
        assert!((total - sum.coverage()).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nesting_sets_parents() {
        let mut off = Tracer::new(false);
        let o = off.begin("a", 1);
        off.attach("b", 1, 0, 5);
        off.end(o);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        let outer = on.begin("root.x", 7);
        on.span("inner", 7, || std::hint::black_box(3));
        on.attach("worker", 7, 1, 2);
        on.end(outer);
        let spans = on.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let doc = to_json("w", 42, spans);
        let parsed = hf_tensor::ser::parse_json(&doc).expect("trace document parses");
        assert_eq!(parsed.get("spans").unwrap().as_arr().unwrap().len(), 3);
    }
}
