"""Command-line front end for the solvers and the sampling tools.

Subcommands: solve, maxent, cepstral, approx, simulate, estimate, check.
Each reads JSON input, writes JSON and CSV results into an output directory
(--out, else the CIRCEXT_OUT_DIR environment variable, else the current
directory), and leaves a run.json provenance record.  Exit codes: 0 success,
1 input error, 2 infeasible input / boundary failure / threshold not found /
certificate LP over its pivot budget or failing its residual check, 3
numerator collapse in unregularized cepstral matching.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .approx import (
    DEFAULT_N_MAX,
    DEFAULT_REFERENCE_N,
    NotInOuterCone,
    ThresholdNotFound,
    convergence_sweep,
    default_schedule,
    find_threshold,
)
from .cepstral import (
    DEFAULT_REGULARIZATION,
    JointProblem,
    joint_solve,
)
from .circulant import constant_symbol, eval_symbol
from .dual import (
    BoundaryCollapseError,
    DualProblem,
    MaxIterationsError,
    newton_solve,
)
from . import fileio
from .fileio import InputFormatError
from .moments import UNCHECKED_MESSAGE, CovarianceSequence, feasibility_certificate
from .process import estimate_cepstra, estimate_covariances, sample_realizations
from .simplex import PIVOT_BUDGET_MESSAGE

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_COLLAPSE = 3

OUT_DIR_ENV = "CIRCEXT_OUT_DIR"


def _out_dir(args) -> str:
    out = args.out or os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _warn(lines):
    for line in lines:
        print(line, file=sys.stderr)


def _options(spec, args):
    opts = spec.options
    if args.tol is not None:
        opts = replace(opts, grad_tol=args.tol)
    if args.max_iter is not None:
        opts = replace(opts, max_iter=args.max_iter)
    return opts


def _finish(out, command, input_path, started, outputs, timings=None):
    record = fileio.run_record(
        command,
        fileio.sha256_file(input_path),
        1e3 * (time.perf_counter() - started),
        outputs,
        timings,
    )
    fileio.dump_json(record, os.path.join(out, "run.json"))


def _certificate_record(cert) -> dict:
    """Pivot count and a-posteriori residuals of a certificate, for run.json."""
    names = ("pivots", "lag_residual", "min_dual", "duality_gap")
    return {"certificate": {name: getattr(cert, name) for name in names}}


def run_solve(args, maxent: bool = False) -> int:
    started = time.perf_counter()
    spec = fileio.load_problem(args.problem)
    _warn(spec.warnings)
    out = _out_dir(args)
    p = constant_symbol(1.0) if (maxent or spec.p is None) else spec.p
    cert = feasibility_certificate(spec.c, spec.grid)
    if not cert.feasible:
        print(
            f"InfeasibleSequenceError: no positive spectrum on N={spec.grid.N} "
            f"matches these lags (margin {cert.margin:.3e})",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    report = newton_solve(DualProblem(spec.grid, spec.c, p), _options(spec, args))
    fileio.dump_json(fileio.solution_to_dict(report), os.path.join(out, "solution.json"))
    fileio.write_spectrum_csv(os.path.join(out, "spectrum.csv"), report.phi)
    fileio.write_extended_csv(os.path.join(out, "extended_c.csv"), report.extended_c)
    print(
        f"matched {spec.c.n + 1} lags on N={spec.grid.N} in {report.iterations} "
        f"iterations, residual {report.residual:.3e}"
    )
    outputs = ["solution.json", "spectrum.csv", "extended_c.csv"]
    _finish(out, args.command, args.problem, started, outputs, _certificate_record(cert))
    return EXIT_OK


def run_cepstral(args) -> int:
    started = time.perf_counter()
    spec = fileio.load_problem(args.problem)
    _warn(spec.warnings)
    if spec.m is None:
        raise InputFormatError(f'{args.problem}: cepstral matching needs field "m"')
    out = _out_dir(args)
    opts = _options(spec, args)
    lam = args.regularization
    if lam is None:
        lam = spec.regularization
    if lam is None:
        lam = DEFAULT_REGULARIZATION

    if args.lambda_sweep is not None:
        try:
            lams = [float(x) for x in args.lambda_sweep.split(",") if x.strip()]
        except ValueError as exc:
            raise InputFormatError(f"--lambda-sweep: {exc}") from exc
        if not lams or any(x <= 0 for x in lams):
            raise InputFormatError("--lambda-sweep needs positive comma-separated values")
        rows = []
        for stage_lam in lams:
            report = joint_solve(
                JointProblem(spec.grid, spec.c, spec.m, stage_lam), opts
            )
            pv = eval_symbol(report.p, spec.grid).real_values()
            rows.append((stage_lam, float(np.max(np.abs(pv - 1.0)))))
        fileio.write_csv(
            os.path.join(out, "lambda_sweep.csv"), "lambda,p_deviation", rows
        )
        print(f"swept {len(rows)} regularization values")
        _finish(out, "cepstral", args.problem, started, ["lambda_sweep.csv"])
        return EXIT_OK

    prob = JointProblem(spec.grid, spec.c, spec.m, lam)
    try:
        report = joint_solve(prob, opts)
    except BoundaryCollapseError as exc:
        print(f"BoundaryCollapseError: {exc}", file=sys.stderr)
        return EXIT_COLLAPSE if lam == 0.0 else EXIT_INFEASIBLE
    fileio.dump_json(fileio.joint_to_dict(report), os.path.join(out, "joint.json"))
    fileio.write_spectrum_csv(os.path.join(out, "spectrum.csv"), report.phi)
    flag = ", numerator on boundary" if report.boundary_flag else ""
    print(
        f"matched lags and cepstra on N={prob.grid.N} at lambda={lam:g} in "
        f"{report.iterations} iterations, residuals "
        f"({report.covariance_residual:.3e}, {report.cepstral_residual:.3e}){flag}"
    )
    _finish(out, "cepstral", args.problem, started, ["joint.json", "spectrum.csv"])
    return EXIT_OK


def run_approx(args) -> int:
    started = time.perf_counter()
    data = fileio.load_json(args.config)
    _warn(fileio._header(data, args.config, ("c",), fileio.APPROX_KEYS))
    c = fileio._checked(
        args.config, lambda: CovarianceSequence(fileio.parse_complex_list(data["c"], "c"))
    )
    p = fileio.symbol_from_json(data["p"], "p") if "p" in data else None
    n_max = data.get("n_max", DEFAULT_N_MAX)
    reference_N = data.get("reference_N", DEFAULT_REFERENCE_N)
    for name, value in (("n_max", n_max), ("reference_N", reference_N)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise InputFormatError(f'{args.config}: "{name}" must be a positive integer')
    out = _out_dir(args)

    sizes = data.get("grid_sizes")
    if sizes is None:
        schedule = default_schedule(c, n_max)
        threshold = schedule[0]
        sizes = [N for N in schedule if N < reference_N]
    else:
        threshold = find_threshold(c, n_max)
        if not isinstance(sizes, list) or any(
            isinstance(N, bool) or not isinstance(N, int) for N in sizes
        ):
            raise InputFormatError(f'{args.config}: "grid_sizes" must be integers')
    report = convergence_sweep(c, sizes, p=p, reference_N=reference_N)
    stages = []
    rows = []
    runtimes = []
    for s in report.stages:
        entry = {"N": s.N, "feasible": s.feasible}
        if s.distance is not None:
            entry["distance"] = s.distance
            entry["iterations"] = s.iterations
            rows.append((s.N, s.distance, s.iterations))
            runtimes.append({"N": s.N, "runtime_ms": s.runtime_ms})
        if s.error is not None:
            entry["error"] = s.error
        stages.append(entry)
    payload = {
        "version": fileio.FORMAT_VERSION,
        "kind": "approx",
        "threshold": threshold,
        "reference_N": reference_N,
        "reference_q": fileio.symbol_to_json(report.reference_q),
        "eventually_decreasing": report.eventually_decreasing,
        "stages": stages,
    }
    fileio.dump_json(payload, os.path.join(out, "approx.json"))
    fileio.write_csv(
        os.path.join(out, "sweep.csv"), "N,distance,iterations", rows
    )
    print(
        f"threshold N0={threshold}; swept {len(rows)} feasible grids, "
        f"eventually_decreasing={report.eventually_decreasing}"
    )
    _finish(
        out, "approx", args.config, started, ["approx.json", "sweep.csv"], {"stages": runtimes}
    )
    return EXIT_OK


def run_simulate(args) -> int:
    started = time.perf_counter()
    grid, p, q = fileio.load_model(args.model)
    phi = fileio.model_spectrum(grid, p, q)
    realizations = sample_realizations(
        phi, args.count, seed=args.seed, real_valued=args.real
    )
    out = _out_dir(args)
    names = fileio.write_ensemble(
        out, realizations, grid, args.seed, fileio.sha256_file(args.model), args.real
    )
    print(f"wrote {len(names)} realizations of length {grid.size}")
    _finish(out, "simulate", args.model, started, names + ["manifest.json"])
    return EXIT_OK


def run_estimate(args) -> int:
    started = time.perf_counter()
    realizations, grid, _ = fileio.read_ensemble(args.ensemble)
    c = estimate_covariances(realizations, grid, args.degree)
    payload = {
        "version": fileio.FORMAT_VERSION,
        "N": grid.N,
        "c": fileio.complex_pairs(c.c),
    }
    if args.cepstral:
        m = estimate_cepstra(
            realizations, grid, args.degree, smoothing=not args.no_smoothing
        )
        payload["m"] = fileio.complex_pairs(m.m)
    out = _out_dir(args)
    fileio.dump_json(payload, os.path.join(out, "estimates.json"))
    print(
        f"estimated {args.degree + 1} lags"
        + (" and cepstra" if args.cepstral else "")
        + f" from {realizations.shape[0]} realizations"
    )
    _finish(
        out,
        "estimate",
        os.path.join(args.ensemble, "manifest.json"),
        started,
        ["estimates.json"],
    )
    return EXIT_OK


def run_check(args) -> int:
    started = time.perf_counter()
    spec = fileio.load_problem(args.problem)
    _warn(spec.warnings)
    cert = feasibility_certificate(spec.c, spec.grid)
    out = _out_dir(args)
    payload = {
        "version": fileio.FORMAT_VERSION,
        "kind": "check",
        "N": spec.grid.N,
        "feasible": cert.feasible,
        "margin": cert.margin,
    }
    if cert.witness is not None:
        payload["witness"] = [float(x) for x in cert.witness.real_values()]
    fileio.dump_json(payload, os.path.join(out, "check.json"))
    print(
        ("feasible" if cert.feasible else "infeasible")
        + f" on N={spec.grid.N}, margin {cert.margin:.6g}"
    )
    _finish(out, "check", args.problem, started, ["check.json"], _certificate_record(cert))
    return EXIT_OK if cert.feasible else EXIT_INFEASIBLE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--tol", type=float, default=None, help="solver gradient tolerance")
    shared.add_argument("--max-iter", type=int, default=None, help="solver iteration budget")
    shared.add_argument(
        "--lambda",
        dest="regularization",
        type=float,
        default=None,
        help="regularization weight for cepstral matching",
    )
    shared.add_argument("--seed", type=int, default=None, help="random seed")
    shared.add_argument("--out", default=None, help=f"output directory (default ${OUT_DIR_ENV} or .)")

    parser = argparse.ArgumentParser(
        prog="circext",
        description="Rational covariance and cepstral extension on the discrete unit circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", parents=[shared], help="match lags with a fixed numerator")
    sp.add_argument("problem", help="problem JSON file")

    sp = sub.add_parser("maxent", parents=[shared], help="match lags with numerator one")
    sp.add_argument("problem", help="problem JSON file")

    sp = sub.add_parser("cepstral", parents=[shared], help="match lags and cepstra jointly")
    sp.add_argument("problem", help="problem JSON file with c and m")
    sp.add_argument(
        "--lambda-sweep",
        default=None,
        metavar="L1,L2,...",
        help="solve at each weight and emit lambda_sweep.csv instead of one solution",
    )

    sp = sub.add_parser("approx", parents=[shared], help="feasibility threshold and grid refinement sweep")
    sp.add_argument("config", help="sweep configuration JSON file")

    sp = sub.add_parser("simulate", parents=[shared], help="draw realizations from a model file")
    sp.add_argument("model", help="model or solution JSON with p and q")
    sp.add_argument("--count", type=int, default=1, help="number of realizations")
    sp.add_argument("--real", action="store_true", help="draw a real-valued process")

    sp = sub.add_parser("estimate", parents=[shared], help="estimate moments from an ensemble directory")
    sp.add_argument("ensemble", help="directory holding manifest.json and realization CSVs")
    sp.add_argument("--degree", type=int, required=True, help="highest lag to estimate")
    sp.add_argument("--cepstral", action="store_true", help="also estimate cepstral coefficients")
    sp.add_argument(
        "--no-smoothing",
        action="store_true",
        help="average log periodograms instead of the periodograms themselves",
    )

    sp = sub.add_parser("check", parents=[shared], help="feasibility certificate only")
    sp.add_argument("problem", help="problem JSON file")
    return parser


HANDLERS = {
    "solve": run_solve,
    "maxent": lambda args: run_solve(args, maxent=True),
    "cepstral": run_cepstral,
    "approx": run_approx,
    "simulate": run_simulate,
    "estimate": run_estimate,
    "check": run_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except (NotInOuterCone, ThresholdNotFound, BoundaryCollapseError, MaxIterationsError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except RuntimeError as exc:
        if not str(exc).startswith((PIVOT_BUDGET_MESSAGE, UNCHECKED_MESSAGE)):
            raise
        print(f"{type(exc).__name__}: {exc}; the certificate LP is undecided", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (InputFormatError, OSError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
