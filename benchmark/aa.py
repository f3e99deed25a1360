#!/usr/bin/env python3
"""A/A check of the benchmark against its own bounds.

    benchmark/aa.sh N [--smoke]

Runs every workload of BENCHMARK.json 2×N times with 2×N different seeds,
alternating between set A and set B, exactly as a parent/change comparison
would alternate two builds -- except that both sets are the same code. For
each (workload, end-to-end metric) it prints each set's median and
quartiles, the gap between the two medians (signed so that positive means
B is worse) and the run-to-run spread (distance between the quartiles of
all 2×N values, as statistics.quantiles(values, n=4) gives them) -- all as
shares of the median. It exits non-zero if any gap exceeds the metric's
bound, or any run fails a check.

With N = 10 this is the acceptance test a driver applies to the benchmark:
two sets of ten runs per workload; every spread (setup_s excepted) within
the bound and no second median worse than the first by more than the bound.

Raw results are appended to benchmark/out/aa.jsonl.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main():
    args = [a for a in sys.argv[1:] if a != "--smoke"]
    smoke = ["--smoke"] if "--smoke" in sys.argv[1:] else []
    if len(args) != 1 or not args[0].isdigit() or int(args[0]) < 1:
        sys.exit(__doc__)
    n = int(args[0])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = open(os.path.join(HERE, "out", "aa.jsonl"), "a")

    # values[workload][metric][set] = [..]
    values = {w["name"]: {m["name"]: ([], []) for m in spec["end_to_end"]}
              for w in spec["workloads"]}
    failed_runs = 0
    for i in range(2 * n):
        side = i % 2 if (i // 2) % 2 == 0 else 1 - i % 2  # A B B A A B B A ...
        for w in values:
            cmd = spec["command"] + ["--workload", w, "--seed", str(i + 1),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"] + smoke
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"FAILED RUN: {' '.join(cmd)} (exit {run.returncode})")
                failed_runs += 1
                continue
            result = json.loads(lines[-1])
            log.write(json.dumps({"workload": w, "seed": i + 1, "set": "AB"[side], **result}) + "\n")
            log.flush()
            if not result["correct"] or result["failed"]:
                failed_runs += 1
            for name, m in result["metrics"].items():
                values[w][name][side].append(m["value"])
            print(f"run {i + 1}/{2 * n} set {'AB'[side]} {w}: "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)

    print(f"\n{'workload':24}{'metric':23}{'A median [q1, q3]':>36}{'B median [q1, q3]':>36}"
          f"{'gap':>8}{'spread':>8}{'bound':>7}")
    over = 0
    for w, metrics in values.items():
        for m in spec["end_to_end"]:
            a, b = metrics[m["name"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) if m["better"] == "lower" else (ma - mb)
            gap = worse / ma
            q1, q3 = quartiles(a + b)
            spread = (q3 - q1) / statistics.median(a + b)
            flag = ""
            if abs(gap) > m["bound"]:
                over += 1
                flag = "  GAP > BOUND"
            elif abs(gap) > 0.6 * m["bound"]:
                flag = "  gap > 60% of bound"
            if spread > m["bound"] / 3 and m["name"] != "setup_s":
                flag += "  spread > bound/3"

            def cell(v, m_):
                lo, hi = quartiles(v)
                return f"{m_:.6g} [{lo:.6g}, {hi:.6g}]"
            print(f"{w:24}{m['name']:23}{cell(a, ma):>36}{cell(b, mb):>36}"
                  f"{gap:>+8.2%}{spread:>8.2%}{m['bound']:>7.0%}{flag}")
    if failed_runs or over:
        sys.exit(f"A/A FAILED: {failed_runs} failed runs, {over} gaps over their bound")
    print("A/A passed: every pair of medians agrees within its bound")


if __name__ == "__main__":
    main()
