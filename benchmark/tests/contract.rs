//! The binary against `BENCHMARK.json`: every workload, in smoke mode,
//! prints exactly the metrics the contract names, as JSON the repo's own
//! parser reads, with every correctness check on.

use hf_tensor::ser::{parse_json, JsonValue};
use std::path::Path;
use std::process::Command;

fn contract() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn names(doc: &JsonValue<'_>, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|e| panic!("{list}: {e}"))
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(JsonValue::as_str).expect("name");
            // workloads have no unit
            let unit = entry.opt("unit").map(|u| u.as_str().expect("unit"));
            (name.to_string(), unit.unwrap_or_default().to_string())
        })
        .collect()
}

/// Runs one workload in smoke mode and returns its last line.
fn smoke(workload: &str, trace: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_hf-benchmark"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "2"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("start the benchmark");
    assert!(
        output.status.success(),
        "{workload} exited with {}",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn smoke_runs_emit_exactly_the_contract_metrics() {
    let text = contract();
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    for (workload, _) in names(&doc, "workloads") {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let line = smoke(&workload, trace);
            let result = parse_json(&line)
                .unwrap_or_else(|e| panic!("{workload} --trace {trace}: {e}\n{line}"));
            let failed = result
                .get("failed")
                .and_then(JsonValue::as_u64)
                .expect("failed");
            let attempted = result
                .get("attempted")
                .and_then(JsonValue::as_u64)
                .expect("attempted");
            assert_eq!(failed, 0, "{workload} --trace {trace} failed operations");
            assert!(attempted >= 1, "{workload} attempted nothing");
            assert!(result
                .get("correct")
                .and_then(JsonValue::as_bool)
                .expect("correct"));
            let metrics = result
                .get("metrics")
                .and_then(JsonValue::as_obj)
                .expect("metrics");
            let mut got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(JsonValue::as_f64).expect("value");
                    assert!(
                        value.is_finite(),
                        "{workload}: {name} is not a finite number"
                    );
                    let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            let mut want = names(&doc, list);
            got.sort();
            want.sort();
            assert_eq!(
                got, want,
                "{workload} --trace {trace} vs BENCHMARK.json {list}"
            );
        }
    }
}

#[test]
fn unknown_workloads_and_flags_are_usage_errors() {
    for args in [&["--workload", "nope"][..], &["--frobnicate"][..], &[][..]] {
        let output = Command::new(env!("CARGO_BIN_EXE_hf-benchmark"))
            .args(args)
            .output()
            .expect("start the benchmark");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
