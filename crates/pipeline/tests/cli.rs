//! `hf-pipeline`'s command line, driven through the built binary: every
//! case exits while parsing, before any artifact is exported.

use std::process::Command;

const PIPELINE: &str = env!("CARGO_BIN_EXE_hf_pipeline");
const USAGE: &str = "usage: hf-pipeline [--seed 42]";

/// Runs the binary with `args`: exit code, stdout, stderr.
fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(PIPELINE)
        .args(args)
        .output()
        .expect("binary runs");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8 output");
    (
        out.status.code().expect("exit code"),
        text(out.stdout),
        text(out.stderr),
    )
}

/// `args` is a usage error: exit 2, nothing on stdout, `error:` naming
/// `needle` and the usage on stderr.
fn refused(args: &[&str], needle: &str) {
    let (code, stdout, stderr) = run(args);
    assert_eq!(code, 2, "{args:?}: {stderr}");
    assert_eq!(stdout, "", "{args:?}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(stderr.contains(USAGE), "{args:?}: {stderr}");
}

#[test]
fn help_prints_the_usage_to_stdout() {
    for flag in ["--help", "-h"] {
        let (code, stdout, stderr) = run(&["--keep", flag]);
        assert_eq!(code, 0, "{stderr}");
        assert!(stdout.starts_with(USAGE), "{stdout}");
        assert_eq!(stderr, "");
    }
}

#[test]
fn malformed_command_lines_are_usage_errors() {
    refused(&["--bogus"], "unknown flag `--bogus`");
    refused(&["--keep", "--seed"], "--seed needs a value");
    refused(&["--seed", "x"], "bad value for --seed");
    refused(&["--epochs", "0"], "--epochs must be at least 1");
}

#[test]
fn a_zero_k_is_refused_before_anything_is_exported() {
    let dir = std::env::temp_dir().join(format!("hf_pipeline_cli_k0_{}", std::process::id()));
    let (code, _, stderr) = run(&["--k", "0", "--dir", dir.to_str().expect("utf-8 path")]);
    let exported = dir.exists();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(code, 2, "{stderr}");
    assert!(
        stderr.starts_with("error: --k must be at least 1\n"),
        "{stderr}"
    );
    assert!(!exported, "--k 0 exported into {}", dir.display());
}
