//! `hf-loadgen` — open-loop load generation against an `hf-serve`
//! address, with optional bit-identity verification.
//!
//! ```text
//! hf-loadgen --addr 127.0.0.1:7878 [--connections 8] [--rate 2000]
//!            [--requests 4000] [--seed 7] [--users 1000] [--k 0]
//!            [--max-seconds 60] [--verify-artifact model.hfa] [--shutdown]
//! ```
//!
//! Arrivals are Poisson (exponential inter-arrivals from the in-repo
//! deterministic RNG) split across `--connections`; the report prints
//! achieved qps and socket-to-socket p50/p95/p99 from the log-bucketed
//! latency histogram. With `--verify-artifact`, every exchange is
//! captured and replayed through an in-process `Recommender` built from
//! the same artifact file; the run fails unless every served ranking is
//! bit-identical, and prints the `served == in-process` proof line CI
//! greps. `--shutdown` sends a `Shutdown` frame after the run so a
//! scripted server exits gracefully.

use hf_net::{run_loadgen, verify_exchanges, Client, LoadGen};
use hf_serve::{ModelArtifact, RecommenderBuilder};
use hf_tensor::cli::{fatal, Cli};
use std::time::Duration;

const USAGE: &str = "usage: hf-loadgen --addr <host:port> [--connections 8] [--rate 2000]\n\
    \x20   [--requests 4000] [--seed 7] [--users N] [--k 0] [--max-seconds 60]\n\
    \x20   [--verify-artifact model.hfa] [--shutdown]";

fn main() {
    let mut cli = Cli::new(USAGE, &["--shutdown"]);
    let addr: String = cli
        .value("--addr")
        .unwrap_or_else(|| cli.fail("--addr is required"));
    let users: Option<u64> = cli.value("--users");
    let mut config = LoadGen {
        connections: cli.value("--connections").unwrap_or(8),
        target_qps: cli.value("--rate").unwrap_or(2000.0),
        requests: cli.value("--requests").unwrap_or(4000),
        max_duration: Duration::from_secs(cli.value("--max-seconds").unwrap_or(60)),
        seed: cli.value("--seed").unwrap_or(7),
        users: users.unwrap_or(0),
        k: cli.value("--k").unwrap_or(0),
        capture: false,
    };
    let verify_artifact: Option<String> = cli.value("--verify-artifact");
    let shutdown = cli.flag("--shutdown");
    cli.finish();

    // The verification recommender must match hf-serve's defaults so the
    // in-process replay answers from the same configuration.
    let verifier = verify_artifact.as_ref().map(|path| {
        let artifact = ModelArtifact::load_file(path)
            .unwrap_or_else(|e| fatal(format!("cannot load {path}: {e}")));
        if users.is_none() {
            // Exercise cold-start ids: ~4% of draws land past the
            // artifact's user count.
            config.users = (artifact.num_users() as u64).max(1) * 105 / 100;
        }
        config.capture = true;
        RecommenderBuilder::new(artifact)
            .default_k(10)
            .build()
            .unwrap_or_else(|e| fatal(format!("invalid verification configuration: {e}")))
    });
    if config.users == 0 {
        cli.fail("--users is required without --verify-artifact");
    }

    // Wait for a booting server (CI starts hf-serve in the background).
    Client::connect_retry(addr.as_str(), Duration::from_secs(10))
        .and_then(|mut probe| probe.ping())
        .unwrap_or_else(|e| fatal(format!("{addr} is not serving: {e}")));

    println!(
        "hf-loadgen: {} connections, target {} req/s, {} requests, seed {}",
        config.connections, config.target_qps, config.requests, config.seed
    );
    let report = run_loadgen(addr.as_str(), &config)
        .unwrap_or_else(|e| fatal(format!("load generation failed: {e}")));

    let q = |p: f64| report.latency.quantile_ms(p).unwrap_or(f64::NAN);
    println!(
        "sent {}  received {}  remote-errors {}  elapsed {:.3}s",
        report.sent,
        report.received,
        report.remote_errors,
        report.elapsed.as_secs_f64()
    );
    println!(
        "achieved {:.0} req/s  latency p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms",
        report.achieved_qps(),
        q(0.50),
        q(0.95),
        q(0.99)
    );
    if report.received < report.sent {
        fatal(format!(
            "{} requests went unanswered",
            report.sent - report.received
        ));
    }

    if let Some(recommender) = &verifier {
        match verify_exchanges(recommender, &report.exchanges) {
            Ok(n) => println!("served == in-process ({n} responses bit-identical)"),
            Err(e) => fatal(format!("verification failed: {e}")),
        }
    }

    if shutdown {
        let sent = Client::connect(addr.as_str()).and_then(|mut c| c.shutdown_server());
        match sent {
            Ok(()) => println!("hf-loadgen: sent shutdown"),
            Err(e) => fatal(format!("could not send shutdown: {e}")),
        }
    }
}
