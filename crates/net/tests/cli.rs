//! `hf-serve` and `hf-loadgen` command lines, driven through the built
//! binaries: every case exits while parsing, before any socket opens.

use std::process::Command;

const SERVE: &str = env!("CARGO_BIN_EXE_hf-serve");
const LOADGEN: &str = env!("CARGO_BIN_EXE_hf-loadgen");

/// Runs `bin` with `args`: exit code, stdout, stderr.
fn run(bin: &str, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8 output");
    (
        out.status.code().expect("exit code"),
        text(out.stdout),
        text(out.stderr),
    )
}

/// `args` is a usage error: exit 2, nothing on stdout, `error:` naming
/// `needle` and the usage (`usage`) on stderr.
fn refused(bin: &str, args: &[&str], needle: &str, usage: &str) {
    let (code, stdout, stderr) = run(bin, args);
    assert_eq!(code, 2, "{args:?}: {stderr}");
    assert_eq!(stdout, "", "{args:?}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(stderr.contains(usage), "{args:?}: {stderr}");
}

#[test]
fn help_prints_the_usage_to_stdout() {
    for (bin, usage) in [
        (SERVE, "usage: hf-serve --artifact"),
        (LOADGEN, "usage: hf-loadgen --addr"),
    ] {
        for flag in ["--help", "-h"] {
            let (code, stdout, stderr) = run(bin, &[flag]);
            assert_eq!(code, 0, "{stderr}");
            assert!(stdout.starts_with(usage), "{stdout}");
            assert_eq!(stderr, "");
        }
    }
}

#[test]
fn hf_serve_refuses_malformed_command_lines() {
    let usage = "usage: hf-serve --artifact";
    refused(SERVE, &[], "--artifact is required", usage);
    refused(SERVE, &["--lazy"], "--artifact is required", usage);
    refused(
        SERVE,
        &["--artifact", "m.hfa", "--bogus"],
        "unknown flag `--bogus`",
        usage,
    );
    refused(SERVE, &["--artifact"], "--artifact needs a value", usage);
    refused(
        SERVE,
        &["--artifact", "m.hfa", "--k", "abc"],
        "bad value for --k",
        usage,
    );
    refused(
        SERVE,
        &["--artifact", "m.hfa", "--tile-panels", "-1"],
        "bad value for --tile-panels",
        usage,
    );
}

#[test]
fn hf_loadgen_refuses_malformed_command_lines() {
    let usage = "usage: hf-loadgen --addr";
    let addr = ["--addr", "127.0.0.1:1"];
    let with = |extra: &[&'static str]| -> Vec<&'static str> {
        addr.iter().chain(extra).copied().collect()
    };
    refused(LOADGEN, &["--users", "10"], "--addr is required", usage);
    refused(
        LOADGEN,
        &with(&["--bogus", "1"]),
        "unknown flag `--bogus`",
        usage,
    );
    refused(LOADGEN, &with(&["--rate"]), "--rate needs a value", usage);
    refused(
        LOADGEN,
        &with(&["--rate", "fast"]),
        "bad value for --rate",
        usage,
    );
    refused(
        LOADGEN,
        &with(&[]),
        "--users is required without --verify-artifact",
        usage,
    );
}
