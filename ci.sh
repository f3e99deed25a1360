#!/usr/bin/env bash
# Offline CI gate: everything here runs with no network access.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace

# Global per-invocation timeout: a hung test run must become a CI
# failure, not a wedged pipeline. Uses coreutils timeout when present.
with_timeout() {
    if command -v timeout >/dev/null 2>&1; then
        timeout --signal=KILL "$1" "${@:2}"
    else
        "${@:2}"
    fi
}

echo "==> cargo test -q"
with_timeout 1800 cargo test -q --workspace

echo "==> chaos stress gate (formerly-quarantined skiplist workloads)"
# The two historically flaky concurrent skiplist tests (DL and BDL mixed
# ops; DESIGN.md §5.3) run 200 iterations under seeded
# deterministic-interleaving schedules (htm_sim::chaos). Split into four
# 50-iteration processes: thread ids are dense process-lifetime values
# with a budget of 1024, and every iteration spawns a fresh worker set.
# A failure prints the seed and the recorded schedule tail; replay with
#   ./target/release/chaos_stress --iters 1 --seed-base <seed>
for base in 0xC4A05EED 0xC4A05F1F 0xC4A05F51 0xC4A05F83; do
    with_timeout 900 ./target/release/chaos_stress \
        --iters 50 --seed-base "$base" --watchdog-secs 120
done

echo "==> btree optimistic-read gate (20 runs of the btree unit-test binary)"
# `elim_tree_matches_oracle_under_contention` asserts on every value an
# optimistic `get` returns while four threads churn 32 keys; before the
# leaf-stripe seqlock it failed about one debug run in two on two vCPUs.
btree_bin=$(cargo test -p btree --lib --no-run 2>&1 \
    | sed -n 's/.*Executable.*(\(.*\))$/\1/p')
[ -x "$btree_bin" ] || { echo "btree test binary not found"; exit 1; }
for _ in $(seq 20); do
    with_timeout 300 "$btree_bin" -q >/dev/null
done

echo "==> file size (no library source file over 800 lines)"
# A file that long holds more than one mechanism; split it by mechanism.
long=$(find crates/*/src -name '*.rs' -exec wc -l {} + \
    | awk '$2 != "total" && $1 > 800 { print $2 " (" $1 " lines)" }')
if [ -n "$long" ]; then
    echo "source files over 800 lines:"; echo "$long"; exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> examples build and run (quickstart runs in the metrics smoke below)"
for ex in kv_store ordered_index crash_recovery; do
    echo "--- example: $ex"
    cargo run --release -q --example "$ex"
done

echo "==> repo benchmark smoke (oracle, validate() and recovered map on all four workloads)"
# The end-to-end check: each BENCHMARK.json workload at 1/20 scale, with
# every get compared with an oracle, validate() after every recovery and
# the recovered map compared key by key. Exits non-zero on any mismatch.
with_timeout 900 bash benchmark/run.sh --smoke >/dev/null

echo "==> metrics smoke (quickstart --metrics-json + validation)"
cargo run --release -q --example quickstart -- --metrics-json target/metrics-smoke.json
./target/release/metrics_check target/metrics-smoke.json

echo "==> durability-lag telemetry smoke (series + trace on a pipelined run)"
# A short pipelined fig7 run streaming the metrics time series and the
# Perfetto trace; metrics_check validates all three artifacts (report
# invariants incl. lag quantiles, dense/monotone series, balanced
# trace flow arrows). The report must carry nonzero durability-lag
# samples: pipelined mode always defers durability behind commit.
BDHTM_SECS=0.25 BDHTM_SCALE=12 BDHTM_THREADS=2 \
    ./target/release/fig7_epoch_length --pipeline=bg \
    --metrics-json target/lag-smoke.json \
    --metrics-series target/lag-smoke.jsonl --series-interval-ms 20 \
    --trace-out target/lag-smoke-trace.json >/dev/null
./target/release/metrics_check target/lag-smoke.json
./target/release/metrics_check --series target/lag-smoke.jsonl
./target/release/metrics_check --trace target/lag-smoke-trace.json
lag_count=$(grep -o '"durability_lag_ns":{"unit":"ns","count":[0-9]*' \
    target/lag-smoke.json | grep -o '[0-9]*$')
[ "${lag_count:-0}" -gt 0 ] || {
    echo "pipelined run recorded no durability-lag spans"; exit 1; }
# The persister must seal epochs early (write-back while the next epoch
# runs, DESIGN.md §3.4.2), not leave every seal to the advance.
early_seals=$(grep -o '"early_seals":[0-9]*' target/lag-smoke.json | grep -o '[0-9]*$')
[ "${early_seals:-0}" -gt 0 ] || {
    echo "pipelined run sealed no epoch early"; exit 1; }
echo "durability-lag smoke OK (${lag_count} spans, ${early_seals} early seals)"

echo "==> println! hygiene (library code logs via metrics/trace, not stdout)"
# Benches and examples print; library crates must not (stderr via
# eprintln! is fine — it does not corrupt machine-readable stdout).
# bin/, tests, and in-file #[cfg(test)] modules are exempt.
# The filter greps legitimately match nothing when every println! is
# in bin/; `|| true` keeps that from tripping pipefail + set -e.
stray=$(grep -rnE '(^|[^e])println!' crates/*/src --include='*.rs' \
    | { grep -vE '/bin/|/tests/' || true; } \
    | while IFS=: read -r file line _; do
        # exempt matches inside the file's trailing test module
        testline=$(grep -n '#\[cfg(test)\]' "$file" | head -1 | cut -d: -f1)
        if [ -z "$testline" ] || [ "$line" -lt "$testline" ]; then
            echo "$file:$line"
        fi
    done)
if [ -n "$stray" ]; then
    echo "stray println! in library code:"; echo "$stray"; exit 1
fi

echo "==> fault sweep digests (behavior-preservation pins, sync and pipelined)"
# Expected values live in one place: fault::digest.
FAULT_SEED=0xBD15EED ./target/release/fault_sweep --digest --check

echo "==> fault sweep smoke (pinned FAULT_SEED, incl. pipelined modes)"
# Every crash mode; the runtime mode runs once per pinned seed below.
with_timeout 600 env FAULT_SEED=0xBD15EED ./target/release/fault_sweep --ops 160 --replays 40 \
    --modes plain,torn,double,aborts,pipelined,pipelined-torn

echo "==> runtime fault gate (device faults: retry/degrade/fail-stop)"
# The live-system counterpart of the crash sweeps (DESIGN.md §5.2):
# seeded transient device-fault schedules across all three structure
# families, over a small pinned seed set.
for seed in 0xBD15EED 0xD15EA5E 0xBD15EE0; do
    with_timeout 600 env FAULT_SEED=$seed ./target/release/fault_sweep --modes runtime
done

echo "==> ci.sh: all gates passed"
