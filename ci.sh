#!/usr/bin/env bash
# Tier-1 gate for the HeteFedRec workspace.
#
# The workspace is std-only: it must build with an EMPTY cargo registry,
# which `--offline` enforces. Run from the repo root:
#
#   ./ci.sh          # build + test + proofs + benchmark smoke + fmt/clippy
#   ./ci.sh quick    # skip the release build and the repo-benchmark block
set -euo pipefail
cd "$(dirname "$0")"

quick="${1:-}"

# The benchmark block builds a package whose tracked lock file cargo
# rewrites (it still records crate edges the workspace has since dropped,
# and only a PR that may touch benchmark/ can refresh it): the block
# saves the lock and this puts it back, so `git status` after a run is
# what it was before.
lock_saved=target/ci-artifacts/benchmark-Cargo.lock
restore_benchmark_lock() {
    if [[ -f "$lock_saved" ]]; then
        mv -f "$lock_saved" benchmark/Cargo.lock
    fi
}

# hf-serve runs in the background on fixed ports: if a step fails while
# one is up, `set -e` exits the script, so kill it or the next run
# cannot bind.
trap 'kill $(jobs -p) 2>/dev/null || true; restore_benchmark_lock' EXIT

if [[ "$quick" != "quick" ]]; then
    echo "==> cargo build --release --offline (zero crates.io deps)"
    cargo build --release --offline --workspace --all-targets
fi

echo "==> cargo test -q (workspace: unit + integration + doctests)"
cargo test -q --offline --workspace

if [[ "$quick" != "quick" ]]; then
    echo "==> exhaustive Gumbel bucket bounds (hf_dataset ignored tests, release)"
    # SyntheticConfig::generate skips the exact Gumbel key of any item
    # whose bounded key cannot win; its datasets stay bit-identical only
    # if every 24-bit draw lies inside its bucket's bounds. The default
    # test checks a stride of the draws, this one all 2^24.
    cargo test -q --release --offline -p hf_dataset -- --ignored
fi

echo "==> non-test line count"
# Every .rs under crates/ src/ examples/ outside tests/ directories and
# tests.rs files, each cut where a column-0 #[cfg(test)] opens an inline
# `mod … {` (a `#[cfg(test)] mod tests;` declaration is not a cut).
find crates src examples -name '*.rs' -not -path '*/tests/*' -not -name tests.rs -exec awk '
    FNR == 1 { cut = 0; prev = "" }
    !cut && prev == "#[cfg(test)]" && /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{/ { n--; cut = 1 }
    !cut { n++ }
    { prev = $0 }
    END { print n }' {} + | awk '{ n += $1 } END { print "non-test lines: " n }'

echo "==> smoke snapshot artefact (--json wiring)"
cargo run -q --offline -p hf_bench --bin table1_stats -- \
    --scale tiny --dataset ml --json target/ci-artifacts/table1_smoke.json
test -s target/ci-artifacts/table1_smoke.json

echo "==> LightGCN smoke (table4_ablation trains Fed-LightGCN end to end)"
cargo run -q --offline -p hf_bench --bin table4_ablation -- \
    --scale tiny --dataset ml --model lightgcn --json target/ci-artifacts/table4_lightgcn_smoke.json
test -s target/ci-artifacts/table4_lightgcn_smoke.json

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

echo "==> serving smoke (serving example proofs)"
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
# A latency the engine clock cannot hold is a usage error (exit 2, the
# offending key named on stderr), not a run that overflows later.
status=0
cargo run -q --offline --release -p hf_bench --bin async_churn -- \
    --scale tiny --dataset ml --model ncf \
    --set latency=fixed:18446744073709551615 \
    > /dev/null 2> target/ci-artifacts/async_churn_bad_latency.err || status=$?
test "$status" -eq 2
grep -q "latency" target/ci-artifacts/async_churn_bad_latency.err
# So is an override the config refuses: it is checked while the command
# line is parsed, before any data is generated.
status=0
cargo run -q --offline --release -p hf_bench --bin async_churn -- \
    --scale tiny --dataset ml --model ncf --set epochs=0 \
    > /dev/null 2> target/ci-artifacts/async_churn_bad_epochs.err || status=$?
test "$status" -eq 2
grep -q "epochs" target/ci-artifacts/async_churn_bad_epochs.err
# The integration test proves async runs are byte-identical across
# thread counts and across a mid-stream checkpoint/resume, and pins every
# per-tier latency draw of sync and async runs with admissions by
# checkpoint and round-report digests; each proof line prints only when
# its comparison held.
cargo test -q --offline --release --test async_determinism -- --nocapture \
    | tee target/ci-artifacts/async_determinism.log
grep -q "async resume verified" target/ci-artifacts/async_determinism.log
grep -q "latency draws pinned" target/ci-artifacts/async_determinism.log

echo "==> training bits (NCF pins)"
# Every float an NCF run trains lands in its checkpoint, and every float a
# client uploads in the first round's encoded uploads: the test pins both
# by digest for four strategies in both orchestration modes, so a change
# to the forward/backward passes, the local row store or the upload
# layout that moves one bit fails here. The proof line prints only when
# every digest held.
cargo test -q --offline --release -p hetefedrec_core --lib ncf_training_bits_are_pinned -- --nocapture \
    | tee target/ci-artifacts/training_bits.log
grep -q "training bits pinned" target/ci-artifacts/training_bits.log

echo "==> exact Gumbel keys (generator selection)"
# The generator settles sure winners and sure losers from their key
# bounds and computes an exact Gumbel key only for a candidate whose
# bounds straddle the (n+1)-th largest upper bound: at the training
# shape that is about one key a user, not one per candidate (~104). The
# line prints only when the count stayed under its bound.
cargo test -q --offline --release -p hf_dataset --lib exact_gumbel_keys_are_rare_at_the_training_shape \
    -- --nocapture | tee target/ci-artifacts/gumbel_keys.log
grep -q "gumbel keys per user:" target/ci-artifacts/gumbel_keys.log

echo "==> round allocations"
# A counting global allocator holds a round's allocations to a few a
# client and a pass, never one a sample or a touched row: for HeteFedRec
# and for Standalone, whose clients keep their trained rows between
# rounds, and to at most 80 a client in all (each task's predictor is one
# flat buffer). It also holds a round's peak live heap flat from 16 to 64
# clients (uploads fold into the aggregate as they arrive), plaintext
# and masked (each member masks its own upload and adds it to its
# group's sums). Each proof line prints only when its bounds held.
cargo test -q --offline --release -p hetefedrec_core --test round_allocations -- --nocapture \
    | tee target/ci-artifacts/round_allocations.log
grep -q "round allocations per client, not per sample" \
    target/ci-artifacts/round_allocations.log
grep -q "round set-up allocations: one predictor buffer a task" \
    target/ci-artifacts/round_allocations.log
grep -q "round peak heap independent of the cohort" \
    target/ci-artifacts/round_allocations.log
grep -q "masked round peak independent of the cohort" \
    target/ci-artifacts/round_allocations.log

echo "==> online pipeline smoke (hf-pipeline hot swap)"
# The demo trains against a replayed interaction stream, serves
# generation 1 over TCP, hot-swaps the freshest export with one on-wire
# Reload, and asserts every response's version stamp and ranking bits
# (it exits non-zero on any broken invariant). The proof line certifies
# v1 -> v2 attribution across the swap; the generations it exported stay
# in --dir for the next block to serve.
rm -rf target/ci-artifacts/hf_pipeline
cargo run -q --offline --release -p hf_pipeline --bin hf_pipeline -- \
    --dir target/ci-artifacts/hf_pipeline \
    > target/ci-artifacts/hf_pipeline_smoke.log
grep -q "hot swap verified: v1 -> v2, rankings attributable" \
    target/ci-artifacts/hf_pipeline_smoke.log
test -s target/ci-artifacts/hf_pipeline/artifact-v1.hfab
# The replayed future is pinned: every (time, user, item) event and every
# base list, by digest, for two shapes and two seeds; the proof line
# prints only when each digest held.
cargo test -q --offline --release -p hf_pipeline --test replay_pinned -- --nocapture \
    | tee target/ci-artifacts/replay_pinned.log
grep -q "replay stream pinned" target/ci-artifacts/replay_pinned.log
# The population is paid for in ids: the generated dataset, the replay
# base and the split each reserve 4 bytes an id plus their u32 offsets,
# no list per user; a client holds its embedding alone until its first
# Adam step, and only a round's cohort gains the two moments. The lines
# print only when every bound held.
cargo test -q --offline --release -p hf_pipeline --lib population_heap_follows_what_is_held \
    -- --nocapture | tee target/ci-artifacts/population_heap.log
grep -q "population bytes per user:" target/ci-artifacts/population_heap.log
grep -q "client bytes per user:" target/ci-artifacts/population_heap.log

echo "==> network serving smoke (hf-serve + hf-loadgen)"
# Boot the real hf-serve binary on a generation the pipeline just
# exported, drive it with the load generator (fixed seed, bounded
# duration), verify every served exchange against an in-process replay,
# then shut the server down over the wire and require a clean exit.
cargo run -q --offline --release -p hf_net --bin hf-serve -- \
    --artifact target/ci-artifacts/hf_pipeline/artifact-v1.hfab --addr 127.0.0.1:47731 \
    > target/ci-artifacts/hf_serve_smoke.log &
serve_pid=$!
cargo run -q --offline --release -p hf_net --bin hf-loadgen -- \
    --addr 127.0.0.1:47731 --connections 8 --rate 4000 --requests 2000 \
    --seed 7 --max-seconds 30 \
    --verify-artifact target/ci-artifacts/hf_pipeline/artifact-v1.hfab --shutdown \
    > target/ci-artifacts/hf_loadgen_smoke.log
wait "$serve_pid"
grep -q "served == in-process" target/ci-artifacts/hf_loadgen_smoke.log
grep -q "drained and stopped" target/ci-artifacts/hf_serve_smoke.log

echo "==> capacity smoke (synthetic profile + lazy serving)"
# The example synthesizes a 100k x 100k artifact straight to disk, boots
# it lazily, and proves lazy/tiled/sharded rankings bit-identical to the
# eager load, the item-half store at exactly its budget after one pass and
# after two, and the eager load's resident growth — afterwards and at its
# peak — within 1.25x of the payload it holds (it exits non-zero on any
# mismatch or overshoot).
HF_CAPACITY_USERS=100000 HF_CAPACITY_ITEMS=100000 \
    HF_CAPACITY_ARTIFACT=target/ci-artifacts/capacity_model.hfa \
    cargo run -q --offline --release --example capacity \
    > target/ci-artifacts/capacity_smoke.log
grep -q "lazy == eager rankings verified" target/ci-artifacts/capacity_smoke.log
grep -q "item-half budget held: 64 of 588 tiles" target/ci-artifacts/capacity_smoke.log
grep -q "eager load within 1.25x of payload" target/ci-artifacts/capacity_smoke.log
test -s target/ci-artifacts/capacity_model.hfa
# Synthesis fans its users out in chunks; the bytes are pinned by digest
# at 1, 2 and 8 workers and for the streamed file (more chunks than the
# 8-worker reorder window holds). The line prints only when every digest
# held.
cargo test -q --offline --release -p hf_serve --lib output_is_pinned_and_independent_of_the_worker_count \
    -- --nocapture | tee target/ci-artifacts/synthesis_pinned.log
grep -q "synthesis bytes pinned at 1, 2 and 8 workers" target/ci-artifacts/synthesis_pinned.log
# An eager load holds the `users` section as the file encodes it: a
# counting allocator bounds what the load asks for by the tables, that
# section, popularity and the fallback plus the one read window. The
# line prints only when the bound held.
cargo test -q --offline --release -p hf_serve --test load_allocations -- --nocapture \
    | tee target/ci-artifacts/load_allocations.log
grep -q "eager load holds its users as encoded" target/ci-artifacts/load_allocations.log
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

echo "==> secure-aggregation smoke (example proofs)"
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
# The integration test proves masked runs are byte-identical across
# thread counts and across a mid-epoch resume (the document carries the
# key-agreement RNG, from which the resumed rounds set up their groups), and
# that tier-prefix uploads train the model the dense uploads trained (bits
# pinned from the commit before them), and pins every masked round's setup,
# masks and recovery by checkpoint and round-report digests; each proof
# line prints only when its comparison held.
cargo test -q --offline --release --test secagg_determinism -- --nocapture \
    | tee target/ci-artifacts/secagg_determinism.log
grep -q "secagg resume verified" target/ci-artifacts/secagg_determinism.log
grep -q "tier-prefix aggregate == dense aggregate" \
    target/ci-artifacts/secagg_determinism.log
grep -q "masked setups pinned" target/ci-artifacts/secagg_determinism.log

if [[ "$quick" != "quick" ]]; then
    echo "==> repo benchmark (own workspace: tests + every workload, smoke windows)"
    # benchmark/ is its own [workspace], so nothing above compiles it and
    # an API drift in a crate it uses would first show in the benchmark
    # stage. Build and test it against the crates as they are now, then
    # run all five workloads briefly; no operation may fail. It builds
    # into benchmark/target/ and writes under benchmark/results/, both
    # git-ignored there.
    cp -p benchmark/Cargo.lock "$lock_saved"
    cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
    cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- run --smoke \
        > target/ci-artifacts/benchmark_smoke.log
    awk '/^== summary/ { on = 1 } on && /^(serve|train)_/ { rows++; bad += $3 }
         END { exit !(rows == 5 && bad == 0) }' target/ci-artifacts/benchmark_smoke.log
    restore_benchmark_lock
fi

echo "==> cargo fmt --check + clippy -D warnings + rustdoc -D warnings"
cargo fmt --check
cargo clippy -q --offline --workspace --all-targets -- -D warnings
# Library docs only: the `hf-serve` binary's docs would collide with the
# `hf_serve` library's output directory. A dangling intra-doc link (to a
# deleted or private item) fails here.
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace --lib

echo "ci.sh: all green"
