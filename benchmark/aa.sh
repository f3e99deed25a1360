#!/usr/bin/env bash
# A/A check: benchmark/aa.sh N [--smoke] runs every workload 2×N times,
# alternating between two sets of runs of the same code, and fails if the
# two sets' medians differ by more than a metric's bound. See aa.py.
exec python3 "$(dirname "$0")/aa.py" "$@"
