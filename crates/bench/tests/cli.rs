//! The experiment binaries' command line, driven through the built
//! binaries: every case exits while parsing, before any data is made.

use std::process::Command;

const TABLE4: &str = env!("CARGO_BIN_EXE_table4_ablation");
const TABLE1: &str = env!("CARGO_BIN_EXE_table1_stats");

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
/// `needle` and the usage on stderr.
fn refused(bin: &str, args: &[&str], needle: &str) {
    let (code, stdout, stderr) = run(bin, args);
    assert_eq!(code, 2, "{args:?}: {stderr}");
    assert_eq!(stdout, "", "{args:?}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(
        stderr.contains("usage: <bin> [--scale"),
        "{args:?}: {stderr}"
    );
}

#[test]
fn help_prints_the_usage_to_stdout() {
    for bin in [TABLE4, TABLE1] {
        for flag in ["--help", "-h"] {
            let (code, stdout, stderr) = run(bin, &["--seed", "1", flag]);
            assert_eq!(code, 0, "{stderr}");
            assert!(stdout.starts_with("usage: <bin> [--scale"), "{stdout}");
            assert_eq!(stderr, "");
        }
    }
}

#[test]
fn malformed_command_lines_are_usage_errors() {
    refused(TABLE4, &["--bogus", "x"], "unknown flag `--bogus`");
    refused(
        TABLE4,
        &["--scale", "tiny", "--seed"],
        "--seed needs a value",
    );
    refused(TABLE4, &["--seed", "abc"], "bad value for --seed");
    refused(TABLE4, &["--scale", "huge"], "bad value for --scale");
    refused(TABLE4, &["--model", "mf"], "bad value for --model");
    refused(TABLE4, &["--dataset", "netflix"], "bad value for --dataset");
    refused(TABLE4, &["--set", "epochs"], "--set expects key=value");
    refused(
        TABLE4,
        &["--set", "epochs=x"],
        "bad value for --set epochs=x",
    );
    refused(TABLE4, &["--set", "foo=1"], "unknown --set key foo");
    // Every occurrence is checked, not only the last.
    refused(
        TABLE4,
        &["--seed", "x", "--seed", "1"],
        "bad value for --seed",
    );
}

#[test]
fn overrides_the_config_refuses_fail_before_any_work() {
    let base = ["--scale", "tiny", "--dataset", "ml", "--model", "ncf"];
    for (set, field) in [
        ("epochs=0", "`epochs`"),
        ("kd_items=0", "`kd.items`"),
        ("drop_prob=1", "`drop_prob`"),
        ("local_lr=-1", "`local_lr`"),
    ] {
        let args: Vec<&str> = base.iter().copied().chain(["--set", set]).collect();
        refused(TABLE4, &args, field);
    }
    // Binaries that train nothing still refuse what the config refuses.
    refused(TABLE1, &["--set", "epochs=0"], "`epochs`");
}
