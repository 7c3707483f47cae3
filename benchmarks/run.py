"""Fixed-work benchmark of circext.

    python3 benchmarks/run.py --workload extend --seed 1 --seconds 20 --trace 0

One workload runs in this single process, one operation at a time, with BLAS
held to one thread.  Set-up imports circext, generates the workload's inputs
from the seed (three times, keeping the median time) and runs one warm-up
cycle.  The timed phase then repeats whole cycles of the same operations until
--seconds have passed and at least MIN_CYCLES cycles have run.

The processor of the machine this was written on runs the same code either
fast or up to 1.8x slower, switching every second or so and sometimes staying
slow for minutes, whatever the program does.  So every latency is scaled to a
nominal machine speed: after each operation the harness times reference(), a
fixed piece of numpy and interpreter work that never calls circext, and each
operation's time is multiplied by REFERENCE_S over the mean of the reference
times just before and just after it.  An operation's latency is the median of
its scaled repeats over the timed cycles.  op_p50_ms and op_p90_ms rank those
latencies (a failed operation ranks slowest), and ops_per_s is the cycle's
successful operations over their sum.  setup_s is scaled by the median
reference time of the warm-up cycle.  attempted and failed count every repeat.

Each timed output must equal its warm-up twin exactly; that comparison runs
between operations, outside every latency.  After the timed phase the warm-up
outputs are checked against independent computations, and any error other
than an operation's named fault makes the run incorrect.

The last line of standard output is one JSON object with correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of tracing.PER_LAYER with --trace 1.  A summary (and with --trace 1
the spans) is also written under benchmarks/out/.
"""

import os
import time

T_SCRIPT = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _seconds_since_process_start() -> float:
    """Interpreter start-up before this script ran, from /proc (0 where absent)."""
    try:
        with open("/proc/self/stat") as fh:
            ticks = int(fh.read().rpartition(")")[2].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - ticks / os.sysconf("SC_CLK_TCK"))


STARTUP_S = _seconds_since_process_start()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
MIN_CYCLES = 3
REFERENCE_S = 0.0005    # nominal time of reference(); see the module docstring
GENERATIONS = 3


_REFERENCE_X = np.linspace(0.0, 1.0, 256)


def reference() -> float:
    """A fixed mix of interpreter work, small numpy calls and one FFT; no circext."""
    total = 0.0
    for k in range(100):
        a = np.zeros(8)
        a[k % 8] = 1.0
        total += float(a @ _REFERENCE_X[:8]) + sum(i * i for i in range(40))
    return total + float(np.abs(np.fft.fft(_REFERENCE_X)).sum())


def time_reference() -> float:
    started = time.perf_counter()
    reference()
    return time.perf_counter() - started


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def fingerprint(op, output):
    if isinstance(output, Exception):
        return ("raised", type(output).__name__, str(output))
    return op.fingerprint(output)


def same_output(a, b) -> bool:
    def equal(x, y):
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            return np.array_equal(x, y)
        return x == y

    return len(a) == len(b) and all(equal(x, y) for x, y in zip(a, b))


def attempt(op, tracer):
    """Run one operation; returns (output or exception, seconds, succeeded)."""
    started = time.perf_counter()
    try:
        output = tracer.call(tracing.ROOT, op.run) if tracer else op.run()
        ok = True
    except Exception as exc:    # a failed operation is counted, not fatal
        output, ok = exc, False
    return output, time.perf_counter() - started, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "circext", "__init__.py")):
        print(f"no circext sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    build = workloads.BUILDERS.get(args.workload)
    if build is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.BUILDERS)}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        return run(args, build, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, build, workdir) -> int:
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    imported = time.perf_counter()

    generation = []
    for _ in range(GENERATIONS):
        started = time.perf_counter()
        ops = build(args.seed, workdir)
        generation.append(time.perf_counter() - started)

    warm, warm_s, warm_refs = [], 0.0, [time_reference()]
    for op in ops:
        output, seconds, _ = attempt(op, tracer)
        warm.append(output)
        warm_s += seconds
        warm_refs.append(time_reference())
    unscaled_setup_s = STARTUP_S + (imported - T_SCRIPT) + statistics.median(generation) + warm_s
    setup_s = unscaled_setup_s * REFERENCE_S / statistics.median(warm_refs)
    warm_prints = [fingerprint(op, out) for op, out in zip(ops, warm)]

    if tracer:
        tracer.reset()
    latencies = [[] for _ in ops]    # per operation, one entry per timed cycle
    scaled = [[] for _ in ops]       # the same, at the reference's nominal speed
    failed_ops = [False] * len(ops)
    failures, problems, cycle_ends, failed = {}, [], [], 0
    phase_start = time.perf_counter()
    before = time_reference()
    while True:    # whole cycles only
        for i, (op, warm_print) in enumerate(zip(ops, warm_prints)):
            output, seconds, ok = attempt(op, tracer)
            after = time_reference()
            latencies[i].append(seconds)
            scaled[i].append(seconds * 2.0 * REFERENCE_S / (before + after))
            before = after
            if not ok:
                failed_ops[i], failed = True, failed + 1
                failures.setdefault(op.label, f"{type(output).__name__}: {output}")
            if not same_output(fingerprint(op, output), warm_print):
                cycle = len(latencies[i])
                problems.append(f"{op.label}: cycle {cycle} output differs from the warm-up")
        cycle_ends.append(time.perf_counter() - phase_start)
        if cycle_ends[-1] >= args.seconds and len(cycle_ends) >= MIN_CYCLES:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for op, output in zip(ops, warm):
        if isinstance(output, Exception):
            if f"{type(output).__name__}: {output}" != op.fault:
                problems.append(f"{op.label}: raised {type(output).__name__}: {output}")
            continue
        try:
            problems += [f"{op.label}: {p}" for p in op.check(output)]
        except Exception as exc:    # a check that cannot run is a failed check
            problems.append(f"{op.label}: check raised {type(exc).__name__}: {exc}")

    # An operation's latency is the median of its scaled repeats; an operation
    # that failed (its output repeats, so it failed every time) ranks slower
    # than every success.
    cycles = len(cycle_ends)
    latency = [statistics.median(times) for times in scaled]
    attempted = cycles * len(ops)
    ranked = sorted(math.inf if bad else t for t, bad in zip(latency, failed_ops))
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((len(ops) - sum(failed_ops)) / sum(latency), "1/s"),
        "op_p50_ms": (1e3 * nearest_rank(ranked, 0.5), "ms"),
        "op_p90_ms": (1e3 * nearest_rank(ranked, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for name, (value, _) in end_to_end.items():
        if not math.isfinite(value):
            problems.append(f"{name} is {value}: too many operations failed")
    if tracer:
        layer = tracer.layer_metrics(attempted)
        metrics = {name: {"value": layer[name], "unit": u} for name, u, _ in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": v if math.isfinite(v) else None, "unit": unit}
                   for name, (v, unit) in end_to_end.items()}

    for label, message in failures.items():
        print(f"failed: {label}: {message}", file=sys.stderr)
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}

    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    summary = {
        **result,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "ops_per_cycle": len(ops), "timed_cycles": cycles,
        "cycle_s": [b - a for a, b in zip([0.0] + cycle_ends, cycle_ends)],
        "op_mean_ms": 1e3 * sum(map(sum, latencies)) / attempted,
        "setup_parts_s": {"startup": STARTUP_S, "import": imported - T_SCRIPT,
                          "generation_median": statistics.median(generation), "warm_up": warm_s,
                          "unscaled_total": unscaled_setup_s},
        "reference_ms": {"warm_up_median": 1e3 * statistics.median(warm_refs)},
        "end_to_end": {name: value for name, (value, _) in end_to_end.items()},
        "op_ms": {f"{i}: {op.label}": {"scaled_median": 1e3 * statistics.median(s),
                                      "median": 1e3 * statistics.median(t), "fastest": 1e3 * min(t)}
                  for i, (op, s, t) in enumerate(zip(ops, scaled, latencies))},
        "failures": failures, "problems": problems,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    if tracer:
        tracer.dump(stem + ".spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
