#!/usr/bin/env bash
# The repo benchmark. Builds the harness, then
#
#   run.sh --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
#       one run of one workload; the last line of stdout is the result
#       object BENCHMARK.json describes (this is the form the driver uses);
#
#   run.sh [--seed N] [--seconds S] [--trace] [--smoke]
#       the suite: every workload once untraced (end-to-end metrics) and,
#       with --trace, once more traced (per-layer metrics and the two
#       trace files per workload in benchmark/out/).
#
# Exits non-zero if the build fails or any run fails a check. Run it from
# the root of the checkout. See benchmark/README.md.
set -euo pipefail

here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"

# Cargo's progress goes to stderr; stdout carries results only.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2
bin="$target/release/bdhtm-benchmark"

# Keep freed memory in the process (no mmap for large blocks, no trimming):
# the harness touches its peak footprint once before any clock starts, and
# every later heap image then reuses those pages instead of faulting in
# fresh ones inside a timed section. First-touch faults cost seconds per GB
# on a VM and vary run to run.
export MALLOC_MMAP_MAX_=0
export MALLOC_TRIM_THRESHOLD_=1099511627776

workload="" seed=1 seconds=12 trace=0 smoke=""
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace)
            # The driver passes a value; the suite form takes none.
            case "${2:-}" in
                0|1) trace="$2"; shift 2 ;;
                *) trace=1; shift ;;
            esac ;;
        --smoke) smoke=--smoke; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

run() { # workload, trace
    "$bin" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2" \
        --out "$here/out" $smoke
}

if [ -n "$workload" ]; then
    run "$workload" "$trace"
    exit
fi

status=0
for w in $("$bin" --list); do
    run "$w" 0 || status=1
    if [ "$trace" = 1 ]; then
        run "$w" 1 || status=1
    fi
done
exit "$status"
