#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json, from the repository root, `--runs`
times per workload and per set, each run with another seed (1..runs), the
sets alternating run by run. For every end-to-end metric it prints each
set's median and quartiles, the spread (Q3 - Q1) / median, and how far the
second set's median moved from the first's, against the metric's bound.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads a,b]

`--workloads` may name a workload the command runs but BENCHMARK.json does
not list (advise-mega). Raw result lines are appended to
perfbench/out/steadiness.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if proc.returncode != 0 or not last.startswith("{"):
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(last)


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0,
                    help="override run_seconds from BENCHMARK.json")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)
    log = open(os.path.join(ROOT, "perfbench", "out", "steadiness.jsonl"), "a")

    for workload in workloads:
        sets = [[] for _ in range(args.sets)]
        for seed in range(1, args.runs + 1):
            for s in range(args.sets):
                result = run_once(bench["command"], workload, seed, seconds)
                if not result["correct"]:
                    sys.exit(f"{workload} seed {seed}: output checks failed")
                sets[s].append(result["metrics"])
                log.write(json.dumps({"workload": workload, "set": s,
                                      "seed": seed, "result": result}) + "\n")
                log.flush()
        print(f"\n{workload}: {args.sets} alternating sets x {args.runs} runs "
              f"of {seconds} s, seeds 1..{args.runs}")
        print(f"{'metric':<18} {'set':>3} {'median':>14} {'Q1':>14} {'Q3':>14} "
              f"{'spread':>7} {'bound':>6} {'vs set 0':>9}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first_median = None
            for s, runs in enumerate(sets):
                med, q1, q3 = summary([r[name]["value"] for r in runs])
                spread = (q3 - q1) / med if med else float("inf")
                if first_median is None:
                    first_median, shift = med, 0.0
                else:
                    shift = (med - first_median) / first_median
                    if m["better"] == "higher":
                        shift = -shift
                print(f"{name:<18} {s:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{spread:>7.3f} {bound:>6} {shift:>+9.3f}")


if __name__ == "__main__":
    main()
