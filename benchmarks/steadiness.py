"""Run each workload repeatedly and report the spread of every end-to-end metric.

    python3 benchmarks/steadiness.py --runs 10 --sets 2
    python3 benchmarks/steadiness.py --workloads certify --runs 5 --sets 1
    python3 benchmarks/steadiness.py --overhead --runs 3

Runs `benchmarks/run.py` one process at a time from the repository root, with
the run length and bounds of BENCHMARK.json.  Every set uses the seeds
first_seed ... first_seed + runs - 1, and the sets take turns seed by seed
(the set that goes first rotates), so that a slow spell of the machine lands
on all of them alike and the sets differ only by noise.  For every workload and
metric it prints the median and quartiles (statistics.quantiles, n=4) of each
set, the spread (q3 - q1) / median against the metric's bound, and, with two
sets, how far the second median moved from the first in the worse direction.
It also checks that every run was correct and that failed/attempted is the
same in every run.  --overhead instead runs each seed untraced and traced,
alternating which goes first, and compares the median ops_per_s (each run's
summary holds the end-to-end metrics, traced or not).
Results also go to benchmarks/out/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")


def load_spec():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(spec, workload, seed, trace=0):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def steadiness(spec, workloads, runs, sets, first_seed):
    report = {}
    for workload in workloads:
        report[workload] = entry = {"sets": []}
        by_set = [[] for _ in range(sets)]
        for i, seed in enumerate(range(first_seed, first_seed + runs)):
            for k in [(i + j) % sets for j in range(sets)]:
                by_set[k].append(run_once(spec, workload, seed))
                print(f"  {workload} set {k + 1} seed {seed}: {json.dumps(by_set[k][-1])}",
                      file=sys.stderr, flush=True)
        for results in by_set:
            entry["sets"].append({
                "correct": all(r["correct"] for r in results),
                "failed_share": sorted({str(Fraction(r["failed"], r["attempted"]))
                                        for r in results}),
                "attempted": [r["attempted"] for r in results],
                "metrics": {
                    m["name"]: describe([r["metrics"][m["name"]]["value"] for r in results])
                    for m in spec["end_to_end"]
                },
            })
        print_workload(spec, workload, entry)
    return report


def print_workload(spec, workload, entry):
    sets = entry["sets"]
    shares = {share for s in sets for share in s["failed_share"]}
    correct = all(s["correct"] for s in sets)
    print(f"\n{workload}: correct={correct} failed/attempted={sorted(shares)}")
    header = ("metric", "set", "median", "q1", "q3", "spread", "bound")
    print("  {:<12} {:>3} {:>12} {:>12} {:>12} {:>8} {:>6}".format(*header))
    for m in spec["end_to_end"]:
        for k, s in enumerate(sets):
            d = s["metrics"][m["name"]]
            print(f"  {m['name']:<12} {k + 1:>3} {d['median']:>12.5g} {d['q1']:>12.5g}"
                  f" {d['q3']:>12.5g} {d['spread']:>8.4f} {m['bound']:>6}")
        if len(sets) > 1:
            first, second = (s["metrics"][m["name"]]["median"] for s in sets[:2])
            worse = (second - first) / first * (1 if m["better"] == "lower" else -1)
            print(f"  {'':<12} second median worse by {worse:+.4f} (bound {m['bound']})")


def overhead(spec, workloads, runs, first_seed):
    """Median ops_per_s of untraced and traced runs, alternating which goes first."""
    report = {}
    for workload in workloads:
        rates = {0: [], 1: []}
        for i, seed in enumerate(range(first_seed, first_seed + runs)):
            for trace in ((0, 1) if i % 2 == 0 else (1, 0)):
                run_once(spec, workload, seed, trace)
                summary = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")
                with open(summary, encoding="utf-8") as fh:
                    rates[trace].append(json.load(fh)["end_to_end"]["ops_per_s"])
        untraced, traced = (statistics.median(rates[t]) for t in (0, 1))
        report[workload] = {"untraced_ops_per_s": rates[0], "traced_ops_per_s": rates[1],
                            "overhead": untraced / traced - 1.0}
        print(f"{workload}: median ops_per_s {untraced:.4g} untraced, {traced:.4g} traced"
              f" over {runs} pairs; tracing adds {100 * (untraced / traced - 1.0):+.1f}%"
              " to the operation time", flush=True)
    return report


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    if args.overhead:
        report = overhead(spec, workloads, args.runs, args.first_seed)
    else:
        report = steadiness(spec, workloads, args.runs, args.sets, args.first_seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "steadiness.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
