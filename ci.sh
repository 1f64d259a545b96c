#!/usr/bin/env bash
# Tier-1 gate for the HeteFedRec workspace.
#
# The workspace is std-only: it must build with an EMPTY cargo registry,
# which `--offline` enforces. Run from the repo root:
#
#   ./ci.sh          # build + test + fmt check
#   ./ci.sh quick    # skip the release build and the repo-benchmark block
set -euo pipefail
cd "$(dirname "$0")"

quick="${1:-}"

if [[ "$quick" != "quick" ]]; then
    echo "==> cargo build --release --offline (zero crates.io deps)"
    cargo build --release --offline --workspace --all-targets
fi

echo "==> cargo test -q (workspace: unit + integration + doctests)"
cargo test -q --offline --workspace

echo "==> bench smoke (std::time::Instant harness, no criterion)"
cargo test -q --offline -p hf_bench --benches

echo "==> smoke snapshot artefact (--json wiring)"
cargo run -q --offline -p hf_bench --bin table1_stats -- \
    --scale tiny --dataset ml --json target/ci-artifacts/table1_smoke.json
test -s target/ci-artifacts/table1_smoke.json

echo "==> checkpoint/resume smoke (movie_recommendation example)"
# The example checkpoints mid-run, restores, and asserts the restored
# evaluation is bit-identical to the uninterrupted run (it exits non-zero
# on mismatch). The checkpoint document is archived as a CI artefact.
mkdir -p target/ci-artifacts
HF_CHECKPOINT_PATH=target/ci-artifacts/movie_recommendation_checkpoint.json \
    cargo run -q --offline --release --example movie_recommendation \
    > target/ci-artifacts/movie_recommendation_smoke.log
grep -q "resume verified" target/ci-artifacts/movie_recommendation_smoke.log
test -s target/ci-artifacts/movie_recommendation_checkpoint.json

echo "==> serving smoke (serve_throughput --json + serving example proofs)"
cargo run -q --offline --release -p hf_bench --bin serve_throughput -- \
    --scale tiny --dataset ml --model ncf \
    --json target/ci-artifacts/serve_throughput_smoke.json
test -s target/ci-artifacts/serve_throughput_smoke.json
# The serving example exports an artifact, proves "serving matches eval"
# (bit-identical metrics through the Recommender), and proves the
# checkpoint→artifact reload path (it exits non-zero on any mismatch).
HF_SERVE_CHECKPOINT_PATH=target/ci-artifacts/serving_checkpoint.json \
    cargo run -q --offline --release --example serving \
    > target/ci-artifacts/serving_smoke.log
grep -q "serving matches eval" target/ci-artifacts/serving_smoke.log
grep -q "artifact reload verified" target/ci-artifacts/serving_smoke.log
test -s target/ci-artifacts/serving_checkpoint.json

echo "==> async engine smoke (async_churn --json + determinism proof line)"
# Sync vs async under churn; the snapshot is archived as a CI artefact.
cargo run -q --offline --release -p hf_bench --bin async_churn -- \
    --scale tiny --dataset ml --model ncf \
    --json target/ci-artifacts/async_churn_smoke.json
test -s target/ci-artifacts/async_churn_smoke.json
# The integration test proves async runs are byte-identical across
# thread counts and across a mid-stream checkpoint/resume, printing its
# proof line only when the resumed bytes match.
cargo test -q --offline --release --test async_determinism -- --nocapture \
    | tee target/ci-artifacts/async_determinism.log
grep -q "async resume verified" target/ci-artifacts/async_determinism.log

echo "==> network serving smoke (hf-serve + hf-loadgen + net_throughput --json)"
# The example saves the binary artifact, serves it over loopback TCP, and
# proves served rankings bit-identical to in-process recommend_batch (it
# exits non-zero on any mismatch).
HF_ARTIFACT_PATH=target/ci-artifacts/serving_model.hfa \
    cargo run -q --offline --release --example network_serving \
    > target/ci-artifacts/network_serving_smoke.log
grep -q "served == in-process" target/ci-artifacts/network_serving_smoke.log
test -s target/ci-artifacts/serving_model.hfa
# Boot the real hf-serve binary on the artifact the example just wrote,
# drive it with the load generator (fixed seed, bounded duration), verify
# every served exchange against an in-process replay, then shut the
# server down over the wire and require a clean exit.
cargo run -q --offline --release -p hf_net --bin hf-serve -- \
    --artifact target/ci-artifacts/serving_model.hfa --addr 127.0.0.1:47731 \
    > target/ci-artifacts/hf_serve_smoke.log &
serve_pid=$!
cargo run -q --offline --release -p hf_net --bin hf-loadgen -- \
    --addr 127.0.0.1:47731 --connections 8 --rate 4000 --requests 2000 \
    --seed 7 --max-seconds 30 \
    --verify-artifact target/ci-artifacts/serving_model.hfa --shutdown \
    > target/ci-artifacts/hf_loadgen_smoke.log
wait "$serve_pid"
grep -q "served == in-process" target/ci-artifacts/hf_loadgen_smoke.log
grep -q "drained and stopped" target/ci-artifacts/hf_serve_smoke.log
# Socket-to-socket latency sweep (batch window x connections) snapshot.
cargo run -q --offline --release -p hf_bench --bin net_throughput -- \
    --scale tiny --dataset ml --model ncf \
    --json target/ci-artifacts/net_throughput_smoke.json
test -s target/ci-artifacts/net_throughput_smoke.json

echo "==> capacity smoke (synthetic profile + lazy serving + capacity --json)"
# The example synthesizes a 100k x 100k artifact straight to disk, boots
# it lazily, and proves lazy/tiled/sharded rankings bit-identical to the
# eager load (it exits non-zero on any mismatch).
HF_CAPACITY_USERS=100000 HF_CAPACITY_ITEMS=100000 \
    HF_CAPACITY_ARTIFACT=target/ci-artifacts/capacity_model.hfa \
    cargo run -q --offline --release --example capacity \
    > target/ci-artifacts/capacity_smoke.log
grep -q "lazy == eager rankings verified" target/ci-artifacts/capacity_smoke.log
test -s target/ci-artifacts/capacity_model.hfa
# Boot the real hf-serve binary lazily on that artifact and verify every
# served exchange against an in-process replay of the same file.
cargo run -q --offline --release -p hf_net --bin hf-serve -- \
    --artifact target/ci-artifacts/capacity_model.hfa --lazy \
    --addr 127.0.0.1:47733 \
    > target/ci-artifacts/hf_serve_lazy_smoke.log &
lazy_pid=$!
cargo run -q --offline --release -p hf_net --bin hf-loadgen -- \
    --addr 127.0.0.1:47733 --connections 4 --rate 2000 --requests 500 \
    --seed 7 --max-seconds 30 \
    --verify-artifact target/ci-artifacts/capacity_model.hfa --shutdown \
    > target/ci-artifacts/hf_loadgen_lazy_smoke.log
wait "$lazy_pid"
grep -q "served == in-process" target/ci-artifacts/hf_loadgen_lazy_smoke.log
grep -q "resident footprint" target/ci-artifacts/hf_serve_lazy_smoke.log
grep -q "drained and stopped" target/ci-artifacts/hf_serve_lazy_smoke.log
# Capacity sweep snapshot (10k profile at tiny scale) as a CI artefact.
cargo run -q --offline --release -p hf_bench --bin capacity -- \
    --scale tiny --json target/ci-artifacts/capacity_smoke.json
test -s target/ci-artifacts/capacity_smoke.json

echo "==> secure-aggregation smoke (example proofs + secagg --json)"
# The example runs the same federation masked and plaintext and exits
# non-zero unless every round's unmasked ring aggregate matches the
# plaintext quantized reference and injected dropouts were recovered
# from escrowed shares.
cargo run -q --offline --release --example secure_aggregation \
    > target/ci-artifacts/secure_aggregation_smoke.log
grep -q "masked aggregate == plaintext quantized aggregate" \
    target/ci-artifacts/secure_aggregation_smoke.log
grep -q "recovery under injected dropout verified" \
    target/ci-artifacts/secure_aggregation_smoke.log
# Cohort x dropout overhead sweep snapshot as a CI artefact (the binary
# asserts every masked round verified).
cargo run -q --offline --release -p hf_bench --bin secagg -- \
    --scale tiny --dataset ml --model ncf \
    --json target/ci-artifacts/secagg_smoke.json
test -s target/ci-artifacts/secagg_smoke.json

echo "==> online pipeline smoke (hf-pipeline hot swap + pipeline --json)"
# The demo trains against a replayed interaction stream, serves
# generation 1 over TCP, hot-swaps the freshest export with one on-wire
# Reload, and asserts every response's version stamp and ranking bits
# (it exits non-zero on any broken invariant). The proof line certifies
# v1 -> v2 attribution across the swap.
cargo run -q --offline --release -p hf_pipeline --bin hf_pipeline \
    > target/ci-artifacts/hf_pipeline_smoke.log
grep -q "hot swap verified: v1 -> v2, rankings attributable" \
    target/ci-artifacts/hf_pipeline_smoke.log
# The example drives the same loop through the facade crate.
HF_PIPELINE_DIR=target/ci-artifacts/online_pipeline \
    cargo run -q --offline --release --example online_pipeline \
    > target/ci-artifacts/online_pipeline_smoke.log
grep -q "responses re-stamped mid-connection" \
    target/ci-artifacts/online_pipeline_smoke.log
# Freshness-drift + swap-latency snapshot as a CI artefact.
cargo run -q --offline --release -p hf_bench --bin pipeline -- \
    --scale tiny --dataset ml --model ncf --set epochs=4 \
    --json target/ci-artifacts/pipeline_smoke.json
test -s target/ci-artifacts/pipeline_smoke.json

if [[ "$quick" != "quick" ]]; then
    echo "==> repo benchmark (own workspace: tests + every workload, smoke windows)"
    # benchmark/ is its own [workspace], so nothing above compiles it and
    # an API drift in a crate it uses would first show in the benchmark
    # stage. Build and test it against the crates as they are now, then
    # run all five workloads briefly; no operation may fail. It builds
    # into benchmark/target/ and writes under benchmark/results/, both
    # git-ignored there.
    cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
    cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- run --smoke \
        > target/ci-artifacts/benchmark_smoke.log
    awk '/^== summary/ { on = 1 } on && /^(serve|train)_/ { rows++; bad += $3 }
         END { exit !(rows == 5 && bad == 0) }' target/ci-artifacts/benchmark_smoke.log
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "ci.sh: all green"
