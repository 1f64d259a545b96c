//! `run`, `repeat` and `compare`: the whole set, twice, side by side.
//!
//! `run` re-executes this binary once per workload (`--trace 2`: the
//! end-to-end pass, then the traced pass), so set-up time and peak
//! memory are per workload, echoes each child's table and writes every
//! metric to one result file. `compare` reads two such files.

use crate::report::{Better, Metrics, DEMOTED, END_TO_END, WORKLOADS};
use crate::{results_dir, Args, DEFAULT_SECONDS};
use hf_tensor::ser::{obj, parse_json, JsonValue, ToJson};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Unbounded metrics that are exact counts: equal, bit for bit, between
/// two runs of one seed and one window length.
const EXACT_EXTRAS: [&str; 5] = [
    "quality",
    "rounds",
    "net.frame.req_bytes",
    "net.frame.resp_bytes",
    "secagg.group.payload_words",
];

/// One workload's line of a result set.
struct Row {
    workload: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl ToJson for Row {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            o.field("correct", &self.correct)
                .field("attempted", &self.attempted)
                .field("failed", &self.failed)
                .field("metrics", &self.metrics);
        });
    }
}

impl Row {
    fn from_json(workload: &str, v: &JsonValue<'_>) -> Result<Self, String> {
        let parse = || -> Result<Row, hf_tensor::ser::JsonError> {
            Ok(Row {
                workload: workload.to_string(),
                correct: v.get("correct")?.as_bool()?,
                attempted: v.get("attempted")?.as_u64()?,
                failed: v.get("failed")?.as_u64()?,
                metrics: Metrics::from_json(v.get("metrics")?)?,
            })
        };
        parse().map_err(|e| format!("{workload}: {e}"))
    }
}

/// A whole set: every workload once.
struct ResultSet {
    seed: u64,
    seconds: f64,
    smoke: bool,
    wall_s: f64,
    rows: Vec<Row>,
}

impl ResultSet {
    fn to_json(&self) -> String {
        let mut out = String::new();
        obj(&mut out, |o| {
            o.field("seed", &self.seed)
                .field("seconds", &self.seconds)
                .field("smoke", &self.smoke)
                .field("wall_s", &self.wall_s)
                .field("workloads", &Workloads(&self.rows));
        });
        out
    }

    fn read(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let field = |name: &str| {
            doc.get(name)
                .map_err(|e| format!("{}: {e}", path.display()))
        };
        let rows = field("workloads")?
            .as_obj()
            .map_err(|e| e.to_string())?
            .iter()
            .map(|(name, v)| Row::from_json(name, v))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            seed: field("seed")?.as_u64().map_err(|e| e.to_string())?,
            seconds: field("seconds")?.as_f64().map_err(|e| e.to_string())?,
            smoke: field("smoke")?.as_bool().map_err(|e| e.to_string())?,
            wall_s: field("wall_s")?.as_f64().map_err(|e| e.to_string())?,
            rows,
        })
    }
}

struct Workloads<'a>(&'a [Row]);

impl ToJson for Workloads<'_> {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            for row in self.0 {
                o.field(&row.workload, row);
            }
        });
    }
}

/// Runs one workload in a child process and parses its last line.
fn child(workload: &str, seed: u64, seconds: f64, smoke: bool) -> Result<Row, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--trace", "2"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child: nothing outlives the run.
    let output = command
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let doc = parse_json(last).map_err(|e| format!("{workload} printed no result: {e}"))?;
    Row::from_json(workload, &doc)
}

/// Runs every workload `takes` times, the takes of one workload next
/// to each other (the machine's speed drifts over minutes, so two runs
/// are comparable only when they are adjacent), and returns one set per
/// take.
fn run_sets(seed: u64, seconds: f64, smoke: bool, takes: usize) -> Result<Vec<ResultSet>, String> {
    let mut sets: Vec<ResultSet> = (0..takes)
        .map(|_| ResultSet {
            seed,
            seconds,
            smoke,
            wall_s: 0.0,
            rows: Vec::new(),
        })
        .collect();
    for workload in WORKLOADS {
        for set in &mut sets {
            let t = Instant::now();
            set.rows.push(child(workload, seed, seconds, smoke)?);
            let took = t.elapsed().as_secs_f64();
            set.wall_s += took;
            println!("   ({workload} took {took:.1} s all-in)\n");
        }
    }
    Ok(sets)
}

fn write_set(set: &ResultSet, path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, set.to_json()).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn summary(set: &ResultSet) -> bool {
    println!(
        "== summary: seed {} · {} s windows · {:.1} s wall ==",
        set.seed, set.seconds, set.wall_s
    );
    let names = || {
        let bounded = END_TO_END.iter().map(|m| m.name);
        bounded.chain(DEMOTED.iter().map(|m| m.0))
    };
    print!("{:<14} {:>9} {:>7}", "workload", "attempted", "failed");
    for name in names() {
        print!(" {name:>14}");
    }
    println!();
    for row in &set.rows {
        print!(
            "{:<14} {:>9} {:>7}",
            row.workload, row.attempted, row.failed
        );
        for name in names() {
            print!(" {:>14.4}", row.metrics.get(name).unwrap_or(f64::NAN));
        }
        println!();
    }
    set.rows.iter().all(|r| r.correct)
}

/// `run`: the full set once.
pub fn run(args: &Args) -> i32 {
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let set = match run_sets(args.seed, seconds, args.smoke, 1) {
        Ok(mut sets) => sets.remove(0),
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let path = results_dir().join(format!("run-seed{}.json", set.seed));
    if let Err(e) = write_set(&set, &path) {
        eprintln!("error: {e}");
        return 1;
    }
    let correct = summary(&set);
    println!("results: {}", path.display());
    println!(
        "traces:  {}",
        results_dir().join("trace-<workload>.json").display()
    );
    i32::from(!correct)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Prints both sets side by side; `true` when `b` holds every bound
/// against `a` and every exact count repeats. The demoted end-to-end
/// metrics are shown with their difference and no verdict.
fn compare_sets(a: &ResultSet, b: &ResultSet) -> bool {
    let same_inputs = a.seed == b.seed && a.seconds == b.seconds && a.smoke == b.smoke;
    println!(
        "{:<14} {:<28} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    let mut ok = true;
    for row_a in &a.rows {
        let Some(row_b) = b.rows.iter().find(|r| r.workload == row_a.workload) else {
            println!("{:<14} missing from b", row_a.workload);
            ok = false;
            continue;
        };
        if !(row_a.correct && row_b.correct) {
            println!(
                "{:<14} failed operations: a {} b {}",
                row_a.workload, row_a.failed, row_b.failed
            );
            ok = false;
        }
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (row_a.metrics.get(m.name), row_b.metrics.get(m.name))
            else {
                println!("{:<14} {:<28} missing", row_a.workload, m.name);
                ok = false;
                continue;
            };
            let worse = worsening(va, vb, m.better);
            let exact = m.exact && same_inputs;
            let holds = if exact { va == vb } else { worse <= m.bound };
            ok &= holds;
            println!(
                "{:<14} {:<28} {:>16.6} {:>16.6} {:>+8.2}% {:>7}  {}",
                row_a.workload,
                m.name,
                va,
                vb,
                worse * 100.0,
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.0}%", m.bound * 100.0)
                },
                if holds { "ok" } else { "REGRESSION" }
            );
        }
        for (name, _, better) in DEMOTED {
            if let (Some(va), Some(vb)) = (row_a.metrics.get(name), row_b.metrics.get(name)) {
                println!(
                    "{:<14} {:<28} {:>16.6} {:>16.6} {:>+8.2}% {:>7}  shown",
                    row_a.workload,
                    name,
                    va,
                    vb,
                    worsening(va, vb, better) * 100.0,
                    "none"
                );
            }
        }
        if same_inputs {
            for name in EXACT_EXTRAS {
                if let (Some(va), Some(vb)) = (row_a.metrics.get(name), row_b.metrics.get(name)) {
                    let holds = va == vb;
                    ok &= holds;
                    println!(
                        "{:<14} {:<28} {:>16.6} {:>16.6} {:>9} {:>7}  {}",
                        row_a.workload,
                        name,
                        va,
                        vb,
                        "",
                        "exact",
                        if holds { "ok" } else { "DIFFERS" }
                    );
                }
            }
        }
    }
    ok
}

/// `compare <a.json> <b.json>`.
pub fn compare(args: &Args) -> i32 {
    let [_, a, b] = &args.positional[..] else {
        eprintln!("error: compare takes two result files");
        return 2;
    };
    match (ResultSet::read(Path::new(a)), ResultSet::read(Path::new(b))) {
        (Ok(a), Ok(b)) => i32::from(!compare_sets(&a, &b)),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            2
        }
    }
}

/// `repeat`: the full set twice on each of two seeds; every bounded
/// metric of the second set must hold its bound against the first.
pub fn repeat(args: &Args) -> i32 {
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let mut ok = true;
    for seed in [42u64, 7] {
        let sets = match run_sets(seed, seconds, args.smoke, 2) {
            Ok(sets) => sets,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
        let mut paths: Vec<PathBuf> = Vec::new();
        for (set, take) in sets.iter().zip(["a", "b"]) {
            let path = results_dir().join(format!("repeat-seed{seed}-{take}.json"));
            if let Err(e) = write_set(set, &path) {
                eprintln!("error: {e}");
                return 1;
            }
            ok &= summary(set);
            paths.push(path);
        }
        println!(
            "\n== seed {seed}: {} vs {} ==",
            paths[0].display(),
            paths[1].display()
        );
        ok &= compare_sets(&sets[0], &sets[1]);
        println!();
    }
    println!(
        "{}",
        if ok {
            "repeat: every bound held"
        } else {
            "repeat: a bound was broken"
        }
    );
    i32::from(!ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 80.0, Better::Higher) - 0.20).abs() < 1e-12);
    }

    #[test]
    fn result_sets_round_trip_and_compare() {
        let row = |rss: f64| {
            let mut metrics = Metrics::default();
            for m in &END_TO_END {
                metrics.put(
                    m.name,
                    if m.name == "peak_rss_mib" { rss } else { 2.5 },
                    m.unit,
                );
            }
            // demoted: shown, never judged
            metrics.put("op_p50_ms", rss * rss, "ms");
            metrics.put("rounds", 96.0, "count");
            Row {
                workload: "train_plain".to_string(),
                correct: true,
                attempted: 97,
                failed: 0,
                metrics,
            }
        };
        let set = |rss: f64| ResultSet {
            seed: 42,
            seconds: 10.0,
            smoke: false,
            wall_s: 70.25,
            rows: vec![row(rss)],
        };
        let dir = results_dir().join(format!("test-{}", std::process::id()));
        let path = dir.join("set.json");
        write_set(&set(10.0), &path).expect("write a result set");
        let back = ResultSet::read(&path).expect("read it back");
        std::fs::remove_dir_all(&dir).expect("clean up");
        assert_eq!(back.seed, 42);
        assert_eq!(back.rows[0].metrics, set(10.0).rows[0].metrics);
        assert!(compare_sets(&back, &set(12.4)), "+24% holds a 25% bound");
        assert!(!compare_sets(&back, &set(12.6)), "+26% breaks it");
        assert!(compare_sets(&back, &set(5.0)), "an improvement is fine");
    }
}
