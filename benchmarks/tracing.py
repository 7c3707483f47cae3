"""Span tracing of circext from outside the package, and the per-layer metrics.

Tracer.install wraps every public function of every circext module and
rebinds each name wherever a circext module holds it: module attributes
(which covers `from .kernels import moment_vector` style imports) and values
of module-level dicts such as the CLI's handler table.  Each call records a
span [name, start, end, parent, failed] in memory; a few wrappers also count
work from their arguments or results.  Self time is a span's duration minus
the time its child spans cover, so the self times of all spans under an
operation add up to the operation's duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

MODULES = (
    "grid", "circulant", "kernels", "simplex", "moments", "dual",
    "cepstral", "approx", "process", "fileio", "cli",
)
ROOT = "op"    # span the benchmark opens around each operation


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _moment_cells(counters, args, kwargs, result):
    cells = np.size(_arg(args, kwargs, 0, "angles")) * (_arg(args, kwargs, 2, "kmax") + 1)
    counters["kernels.moment_vector.cells"] += cells


def _tableau_cells(counters, args, kwargs, result):
    m, n = np.shape(_arg(args, kwargs, 1, "A"))
    counters["simplex.simplex_maximize.cells"] += m * (n + m + 1)


def _newton_steps(counters, args, kwargs, report):
    counters["dual.newton_solve.iterations"] += report.iterations
    counters["dual.newton_solve.damped_steps"] += sum(rec.step_size < 1.0 for rec in report.trace)


def _joint_steps(counters, args, kwargs, report):
    counters["cepstral.joint_solve.iterations"] += report.iterations


def _ensemble_bytes(counters, args, kwargs, names):
    out_dir = _arg(args, kwargs, 0, "out_dir")
    total = sum(os.path.getsize(os.path.join(out_dir, name)) for name in [*names, "manifest.json"])
    counters["fileio.write_ensemble.bytes"] += total


COUNTERS = {
    "kernels.moment_vector": _moment_cells,
    "simplex.simplex_maximize": _tableau_cells,
    "dual.newton_solve": _newton_steps,
    "cepstral.joint_solve": _joint_steps,
    "fileio.write_ensemble": _ensemble_bytes,
}

# (name, unit, better).  Times and call counts are per operation attempted;
# cells, iterations, steps, certificates and bytes are per call of the
# function named; failed counts raised calls per operation.
PER_LAYER = [
    ("kernels.moment_vector.calls", "count", "lower"),
    ("kernels.moment_vector.self_ms", "ms", "lower"),
    ("kernels.moment_vector.cells", "count", "lower"),
    ("kernels.trig_basis.self_ms", "ms", "lower"),
    ("circulant.eval_symbol.self_ms", "ms", "lower"),
    ("dual.newton_solve.self_ms", "ms", "lower"),
    ("dual.newton_solve.iterations", "count", "lower"),
    ("dual.newton_solve.damped_steps", "count", "lower"),
    ("dual.newton_solve.failed", "count", "lower"),
    ("cepstral.joint_solve.self_ms", "ms", "lower"),
    ("cepstral.joint_solve.iterations", "count", "lower"),
    ("cepstral.joint_solve.failed", "count", "lower"),
    ("cepstral.joint_solve.seed_ms", "ms", "lower"),
    ("simplex.simplex_maximize.self_ms", "ms", "lower"),
    ("simplex.simplex_maximize.failed", "count", "lower"),
    ("simplex.simplex_maximize.cells", "count", "lower"),
    ("moments.feasibility_certificate.self_ms", "ms", "lower"),
    ("moments.toeplitz_positive.self_ms", "ms", "lower"),
    ("approx.find_threshold.self_ms", "ms", "lower"),
    ("approx.find_threshold.certificates", "count", "lower"),
    ("approx.convergence_sweep.self_ms", "ms", "lower"),
    ("grid.idft.calls", "count", "lower"),
    ("grid.idft.self_ms", "ms", "lower"),
    ("grid.dft.calls", "count", "lower"),
    ("process.sample_realizations.self_ms", "ms", "lower"),
    ("process.estimate_covariances.self_ms", "ms", "lower"),
    ("process.estimate_cepstra.self_ms", "ms", "lower"),
    ("process.periodogram.calls", "count", "lower"),
    ("process.conjugacy_check.self_ms", "ms", "lower"),
    ("fileio.write_ensemble.self_ms", "ms", "lower"),
    ("fileio.write_ensemble.bytes", "B", "lower"),
    ("fileio.read_ensemble.self_ms", "ms", "lower"),
    ("fileio.dump_json.self_ms", "ms", "lower"),
    ("fileio.load_problem.self_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
] + [(f"layer.{module}.self_ms", "ms", "lower") for module in MODULES] + [
    ("layer.harness.self_ms", "ms", "lower"),
    ("op.mean_ms", "ms", "lower"),
]

PER_CALL = {
    "kernels.moment_vector.cells": "kernels.moment_vector",
    "simplex.simplex_maximize.cells": "simplex.simplex_maximize",
    "dual.newton_solve.iterations": "dual.newton_solve",
    "dual.newton_solve.damped_steps": "dual.newton_solve",
    "cepstral.joint_solve.iterations": "cepstral.joint_solve",
    "fileio.write_ensemble.bytes": "fileio.write_ensemble",
}


class Tracer:
    """In-memory span recorder that wraps circext's public functions."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: defaultdict = defaultdict(float)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.counters.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        record = [self._name_id(name), 0.0, 0.0, self._stack[-1] if self._stack else -1, False]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            record[4] = True
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"circext.{m}") for m in MODULES]
        wrappers = {}
        for short, module in zip(MODULES, modules):
            for attr, value in vars(module).items():
                public = not attr.startswith("_")
                if public and inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrappers[value] = self._wrap(f"{short}.{attr}", value)
        for module in [importlib.import_module("circext"), *modules]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                elif isinstance(value, dict):
                    for key, entry in value.items():
                        if inspect.isfunction(entry) and entry in wrappers:
                            value[key] = wrappers[entry]

    def layer_metrics(self, attempted: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        start = np.array([s[1] for s in spans])
        duration = np.array([s[2] for s in spans]) - start
        parent = np.array([s[3] for s in spans], dtype=int)
        name = np.array([s[0] for s in spans], dtype=int)
        failed = np.array([s[4] for s in spans], dtype=bool)
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(spans)
        )
        self_ms = 1e3 * (duration - child_time)
        ids = {n: i for i, n in enumerate(self.names)}

        def of(fn):
            return name == ids.get(fn, -1)

        values: dict[str, float] = {}
        for metric, _, _ in PER_LAYER:
            fn, _, stat = metric.rpartition(".")
            if stat == "self_ms" and fn.startswith("layer."):
                module = fn.split(".")[1]
                mask = (name == ids.get(ROOT, -1)) if module == "harness" else np.isin(
                    name, [i for n, i in ids.items() if n.startswith(module + ".")]
                )
                values[metric] = float(self_ms[mask].sum()) / attempted
            elif stat == "self_ms":
                values[metric] = float(self_ms[of(fn)].sum()) / attempted
            elif stat == "calls":
                values[metric] = float(of(fn).sum()) / attempted
            elif stat == "failed":
                values[metric] = float((of(fn) & failed).sum()) / attempted
            elif metric in PER_CALL:
                calls = int(of(PER_CALL[metric]).sum())
                values[metric] = self.counters[metric] / calls if calls else 0.0
            elif metric == "cepstral.joint_solve.seed_ms":
                joint = of("cepstral.joint_solve")
                seeded = of("dual.maxent_solve") & has_parent & joint[np.maximum(parent, 0)]
                values[metric] = 1e3 * float(duration[seeded].sum()) / attempted
            elif metric == "approx.find_threshold.certificates":
                search = of("approx.find_threshold")
                inside = of("moments.feasibility_certificate") & self._under(search, parent)
                values[metric] = float(inside.sum()) / max(1, int(search.sum()))
            elif metric == "op.mean_ms":
                values[metric] = 1e3 * float(duration[of(ROOT)].sum()) / attempted
            else:
                raise KeyError(metric)
        return values

    @staticmethod
    def _under(marked: np.ndarray, parent: np.ndarray) -> np.ndarray:
        """Spans with an ancestor in marked (parents always precede children)."""
        inside = np.zeros(marked.size, dtype=bool)
        for i, p in enumerate(parent):
            if p >= 0:
                inside[i] = marked[p] or inside[p]
        return inside

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent", "failed"],
                       "spans": self.spans}, fh)
