"""The four benchmark workloads: seeded inputs, operations and output checks.

Each builder returns the fixed operation list of one cycle.  The seed only
moves coefficients; grid sizes, degrees, ensemble sizes and the order of the
operations are the same for every seed, so every cycle has the same make-up.
Operations receive plain arrays and files made here and call circext through
its module attributes at call time, so that a tracer that patches those
attributes sees every call.

An operation's check returns a list of problems (empty when the output is
right).  Checks compare against `oracles`, which never calls circext.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

import circext as ce
import circext.cli
import oracles as o

MOMENT_TOL = 1e-8        # relative match of lags and cepstra, as the solvers promise
EXACT_TOL = 1e-10        # relative match of two computations of one quantity
SIGMAS = 5.0             # estimates must sit within this many standard errors
JOINT_LAMBDA = 1e-3
THRESHOLD_N_MAX = 512


@dataclass
class Op:
    """One operation of a cycle.

    run() performs the call and returns its output; fingerprint(output)
    gives the arrays, numbers and bytes that must repeat exactly from cycle to
    cycle; check(output) returns the problems found in the output.  fault,
    when given, is the one error ("Type: message") the operation may raise
    instead of returning; any other error makes the run incorrect.
    """

    label: str
    run: Callable
    fingerprint: Callable
    check: Callable
    fault: str | None = None


def _rel_err(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _model(rng, n: int, N: int, real: bool, zeros: float = 0.5, poles: float = 0.7):
    """Node values of numerator and denominator of a random ARMA spectrum P/Q.

    Zeros and poles lie within the given radii (see oracles.min_phase_power).
    """
    return o.min_phase_power(rng, n, N, zeros, real), o.min_phase_power(rng, n, N, poles, real)


def _solver_model(rng, n: int, N: int, real: bool):
    """ARMA model for solver inputs: peaked at degree 1, near-white above.

    The damped Newton line search stalls on a small share of ill-conditioned
    problems of degree 2 and more (the objective decrease of the last step
    falls below rounding), so those models keep zeros and poles within radius 0.2.
    """
    return _model(rng, n, N, real) if n == 1 else _model(rng, n, N, real, 0.2, 0.2)


# ---------------------------------------------------------------- extend

# Grid of each slot; a slot runs maxent, newton_solve and joint_solve on its
# own lags, and one maxent at EXTEND_LARGE_N ends the cycle: 103 operations.
# Sorted by latency, the N = 256 slots hold the median operation (rank 52)
# and the N = 1024 slots the 90th percentile (rank 93 of ranks 91-102), so
# neither percentile sits on the edge between two grid sizes.
EXTEND_GRIDS = (64,) * 8 + (256,) * 20 + (512,) * 2 + (1024,) * 4
EXTEND_LARGE_N = 4096


def _is_ratio(phi, pv, qv) -> bool:
    """phi * Q = P up to the rounding of evaluating Q, which scales with max phi * max Q."""
    scale = float(np.max(phi) * np.max(np.abs(qv)))
    return float(np.max(np.abs(phi * qv - pv))) <= EXACT_TOL * scale


def _check_fixed_numerator(report, c, pv, N, maxent):
    n = c.size - 1
    phi = report.phi.values.real
    qv = o.symbol_values(report.q.coeffs, N)
    full = o.moments(phi, N, N)
    problems = []
    _expect(problems, _rel_err(full[: n + 1], c) <= MOMENT_TOL, "lags of phi differ from c")
    _expect(problems, qv.min() > 0.0, "Q is not positive on the grid")
    _expect(problems, _is_ratio(phi, pv, qv), "phi is not P/Q")
    _expect(problems, _rel_err(report.extended_c, full) <= EXACT_TOL,
            "extended_c differs from the moments of phi")
    if maxent:
        inverse = o.moments(1.0 / phi, N, N)
        tail = float(np.max(np.abs(inverse[n + 1 :])))
        _expect(problems, tail <= EXACT_TOL * float(np.max(np.abs(inverse))),
                "1/phi has Fourier coefficients beyond lag n")
    return problems


def _solution_fingerprint(report):
    return (report.q.coeffs, report.phi.values, report.extended_c)


def _maxent_op(c, N):
    def run():
        return ce.maxent_solve(ce.CovarianceSequence(c), ce.DiscreteGrid(N))

    def check(report):
        return _check_fixed_numerator(report, c, np.ones(2 * N), N, maxent=True)

    return Op(f"maxent n={c.size - 1} N={N}", run, _solution_fingerprint, check)


def _newton_op(c, pv, N):
    n = c.size - 1
    p = o.moments(pv, N, n)

    def run():
        grid = ce.DiscreteGrid(N)
        return ce.newton_solve(
            ce.DualProblem(grid, ce.CovarianceSequence(c), ce.SymmetricPseudoPolynomial(p))
        )

    def check(report):
        return _check_fixed_numerator(report, c, pv, N, maxent=False)

    return Op(f"newton_solve n={n} N={N}", run, _solution_fingerprint, check)


def _joint_op(phi, N, n):
    c = o.moments(phi, N, n)
    m = o.moments(np.log(phi), N, n)[1:]

    def run():
        seqs = ce.CovarianceSequence(c), ce.CepstralSequence(m)
        return ce.joint_solve(ce.JointProblem(ce.DiscreteGrid(N), *seqs, JOINT_LAMBDA))

    def check(report):
        phi_out = report.phi.values.real
        pv = o.symbol_values(report.p.coeffs, N)
        qv = o.symbol_values(report.q.coeffs, N)
        log_moments = o.moments(np.log(phi_out), N, n)[1:]
        attained = log_moments - JOINT_LAMBDA * o.moments(1.0 / pv, N, n)[1:]
        problems = []
        _expect(problems, _rel_err(o.moments(phi_out, N, n), c) <= MOMENT_TOL,
                "lags of phi differ from c")
        _expect(problems, min(pv.min(), qv.min()) > 0.0, "P or Q is not positive on the grid")
        _expect(problems, _is_ratio(phi_out, pv, qv), "phi is not P/Q")
        _expect(problems, _rel_err(attained, m) <= MOMENT_TOL,
                "log-moments of phi minus lambda * moments of 1/P differ from m")
        return problems

    def fingerprint(report):
        return (report.p.coeffs, report.q.coeffs, report.phi.values)

    return Op(f"joint_solve n={n} N={N}", run, fingerprint, check)


def build_extend(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for i, N in enumerate(EXTEND_GRIDS):
        n, real = 1 + i % 5, i % 2 == 0
        pv, qv = _solver_model(rng, n, N, real)
        ops.append(_maxent_op(o.moments(pv / qv, N, n), N))
        pv, qv = _solver_model(rng, n, N, real)
        ops.append(_newton_op(o.moments(pv / qv, N, n), pv, N))
        pv, qv = _solver_model(rng, n, N, real)
        ops.append(_joint_op(pv / qv, N, n))
    pv, qv = _solver_model(rng, 1, EXTEND_LARGE_N, False)
    ops.append(_maxent_op(o.moments(pv / qv, EXTEND_LARGE_N, 1), EXTEND_LARGE_N))
    return ops


# ---------------------------------------------------------------- certify

# The degree-5 sequence whose certificate at N = 1024 exhausts the simplex
# pivot budget; it stays in every cycle, independent of the seed.
FAULT_C = np.array([1.0, 0.5, 0.2 + 0.1j, 0.05, 0.02, 0.01])
FAULT_N = 1024
FAULT_ERROR = "RuntimeError: simplex exceeded the pivot budget"

# (kind, degree, N) of the certificate operations.  "line" lags are a
# spectral line plus 1-10% white noise, close to the boundary of the cone and
# infeasible on coarse grids; "real"/"complex" are ARMA model lags.  Real
# lags stay at degree <= 3 and N <= 64, and N = 512 only at degree 1: beyond
# that the certificate returns wrong witnesses or raises on some seeds.  The
# simplex cost of one instance swings several-fold with its lags, so every
# kind of slot comes twice and the 90th percentile (rank 525 of 583) sits
# among 128 instances of degree 4 and 5 at N = 64, and the median among some
# 300 instances below N = 64.
CERTIFY_SLOTS = 2 * (
    [("line", n, N) for n in range(1, 6) for N in (8, 16, 32) for _ in range(8)]
    + [("line", n, 64) for n in range(1, 6) for _ in range(6)]
    + [("line", n, 64) for n in (4, 5) for _ in range(24)]
    + [("complex", n, N) for n in range(1, 6) for N in (16, 32, 64) for _ in range(2)]
    + [("real", n, N) for n in (1, 2, 3) for N in (16, 32, 64) for _ in range(2)]
    + [("line", n, 128) for n in range(1, 6) for _ in range(2)]
    + [("line", n, 256) for n in (1, 2, 3)]
    + [("real", 1, 512), ("complex", 1, 512)]
)
THRESHOLD_DEGREES = (1, 2, 3, 4, 5) * 12


def _line_lags(rng, n):
    eps = rng.uniform(0.01, 0.1)
    c = (1.0 - eps) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi) * np.arange(n + 1))
    c[0] = 1.0
    return c


def _reference_margin(c, N, cache):
    """HiGHS margin of one certificate LP, solved once per input."""
    key = (c.tobytes(), N)
    if key not in cache:
        cache[key] = o.lp_margin(c, N)
    return cache[key]


def _certificate_op(c, N, cache, name="certificate", fault=None):
    n = c.size - 1
    tol = MOMENT_TOL * c[0].real

    def run():
        return ce.feasibility_certificate(ce.CovarianceSequence(c), ce.DiscreteGrid(N))

    def check(cert):
        margin = _reference_margin(c, N, cache)
        problems = []
        _expect(problems, abs(cert.margin - margin) <= tol,
                f"margin {cert.margin!r} differs from HiGHS {margin!r}")
        if abs(margin) > tol:
            _expect(problems, cert.feasible == (margin > 0.0), "verdict differs from HiGHS")
        if cert.feasible:
            w = cert.witness.values.real
            _expect(problems, w.min() >= cert.margin - tol, "witness dips below the margin")
            _expect(problems, _rel_err(o.moments(w, N, n), c) <= MOMENT_TOL,
                    "witness lags differ from c")
        return problems

    def fingerprint(cert):
        witness = () if cert.witness is None else cert.witness.values
        return (cert.feasible, cert.margin, witness)

    return Op(f"{name} n={n} N={N}", run, fingerprint, check, fault)


def _threshold_op(c, cache):
    n = c.size - 1
    tol = MOMENT_TOL * c[0].real

    def run():
        return ce.find_threshold(ce.CovarianceSequence(c), THRESHOLD_N_MAX)

    def check(N):
        # margins within the tolerance of zero count as either verdict
        problems = []
        _expect(problems, _reference_margin(c, N, cache) > -tol,
                f"HiGHS finds the returned N={N} infeasible")
        if N > n + 1:
            _expect(problems, _reference_margin(c, N - 1, cache) < tol,
                    f"HiGHS finds N-1={N - 1} feasible")
        return problems

    return Op(f"find_threshold n={n}", run, lambda N: (N,), check)


def build_certify(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    cache: dict = {}
    ops = []
    for kind, n, N in CERTIFY_SLOTS:
        if kind == "line":
            c = _line_lags(rng, n)
        else:
            pv, qv = _model(rng, n, N, kind == "real")
            c = o.moments(pv / qv, N, n)
        ops.append(_certificate_op(c, N, cache))
    ops += [_threshold_op(_line_lags(rng, n), cache) for n in THRESHOLD_DEGREES]
    ops.append(_certificate_op(FAULT_C, FAULT_N, cache, "fault", FAULT_ERROR))
    return ops


# ---------------------------------------------------------------- stochastic

# (N, degree, count, real) of sampling, estimation and whitening operations:
# one or two large ensembles per kind, then every grid size at a few hundred
# realizations, 100 operations in all.  Real-valued sampling costs several
# times more per realization from N = 32 on, so its grids stop at 128.
GRIDS = (8, 16, 32, 64, 128, 256, 512)


def _sweep(grids, count, real, first_degree=1):
    return tuple((N, 1 + (first_degree + i) % 3, count, real) for i, N in enumerate(grids))


SAMPLE_SLOTS = (
    ((8, 2, 10_000, False), (32, 1, 1000, False), (8, 3, 1000, True))
    + _sweep(GRIDS, 300, False) + _sweep(GRIDS, 200, False, 1)
    + _sweep(GRIDS[:5], 200, True) + _sweep(GRIDS[:5], 100, True, 2)
)
COVARIANCE_SLOTS = (
    ((8, 3, 2000, False), (16, 1, 1000, True), (64, 2, 500, True), (8, 2, 500, True),
     (32, 3, 500, False))
    + _sweep(GRIDS, 300, False) + _sweep(GRIDS, 200, False, 2) + _sweep(GRIDS, 300, True, 1)
)
CEPSTRA_SLOTS = (
    ((8, 2, 1000, True), (16, 1, 1000, False), (64, 3, 500, False), (8, 3, 300, False),
     (32, 2, 500, True))
    + _sweep(GRIDS, 300, False) + _sweep(GRIDS, 200, False, 1) + _sweep(GRIDS, 300, True, 2)
)
CONJUGACY_SLOTS = (
    ((8, 1, 1000, False),)
    + _sweep(GRIDS[:5], 300, False) + _sweep(GRIDS[:5], 200, False, 1)
    + _sweep(GRIDS[:5], 300, True, 2) + _sweep(GRIDS[:5], 100, True)
)
CHECK_LAGS = 3


def _sample_op(phi, N, count, real, sample_seed):
    def run():
        spectrum = ce.SpectrumSamples(ce.DiscreteGrid(N), phi)
        return ce.sample_realizations(spectrum, count, seed=sample_seed, real_valued=real)

    def check(y):
        products = o.lag_products(y, CHECK_LAGS)
        worst = o.within_se(products.mean(axis=0), o.moments(phi, N, CHECK_LAGS), products)
        problems = []
        _expect(problems, y.shape == (count, 2 * N), f"shape {y.shape}")
        if real:
            _expect(problems, not np.iscomplexobj(y) or not np.any(y.imag),
                    "real-valued draws have an imaginary part")
        _expect(problems, worst <= SIGMAS, f"sample lags {worst:.2f} SE from the model lags")
        return problems

    kind = "real" if real else "complex"
    return Op(f"sample_realizations {kind} N={N} count={count}", run, lambda y: (y,), check)


def _covariance_op(y, phi, N, n):
    def run():
        return ce.estimate_covariances(y, ce.DiscreteGrid(N), n)

    def check(est):
        products = o.lag_products(y, n)
        worst = o.within_se(est.c, o.moments(phi, N, n), products)
        problems = []
        _expect(problems, _rel_err(est.c, products.mean(axis=0)) <= EXACT_TOL,
                "differs from the cyclic sample lags")
        _expect(problems, worst <= SIGMAS, f"estimate {worst:.2f} SE from the model lags")
        return problems

    return Op(f"estimate_covariances N={N} count={len(y)}", run, lambda est: (est.c,), check)


def _cepstra_op(y, phi, N, n):
    def run():
        return ce.estimate_cepstra(y, ce.DiscreteGrid(N), n)

    def check(est):
        spectra = o.periodograms(y, N)
        mean = spectra.mean(axis=0)
        # delta method: each realization moves log(mean) by its periodogram over the mean
        influence = o.moments(spectra / mean, N, n)[:, 1:]
        worst = o.within_se(est.m, o.moments(np.log(phi), N, n)[1:], influence)
        problems = []
        _expect(problems, _rel_err(est.m, o.moments(np.log(mean), N, n)[1:]) <= EXACT_TOL,
                "differs from the log-mean-periodogram cepstra")
        _expect(problems, worst <= SIGMAS, f"estimate {worst:.2f} SE from the model cepstra")
        return problems

    return Op(f"estimate_cepstra N={N} count={len(y)}", run, lambda est: (est.m,), check)


def _conjugacy_op(phi, N, count, sample_seed):
    def run():
        spectrum = ce.SpectrumSamples(ce.DiscreteGrid(N), phi)
        return ce.conjugacy_check(spectrum, count, seed=sample_seed)

    def check(distance):
        # each cross-moment entry e(t) conj(y(s)) has variance mean(phi) * mean(1/phi)
        bound = SIGMAS * np.sqrt(phi.mean() * (1.0 / phi).mean() / count)
        problems = []
        _expect(problems, 0.0 < distance <= bound,
                f"whitening distance {distance!r} outside (0, {bound!r}]")
        return problems

    return Op(f"conjugacy_check N={N} count={count}", run, lambda d: (d,), check)


def build_stochastic(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 3])

    def spectrum(N, n, real):
        pv, qv = _model(rng, n, N, real)
        return pv / qv

    def library_seed():
        return int(rng.integers(2**31))

    ops = []
    for N, n, count, real in SAMPLE_SLOTS:
        ops.append(_sample_op(spectrum(N, n, real), N, count, real, library_seed()))
    for N, n, count, real in COVARIANCE_SLOTS:
        phi = spectrum(N, n, real)
        ops.append(_covariance_op(o.draw(phi, N, count, rng, real), phi, N, n))
    for N, n, count, real in CEPSTRA_SLOTS:
        phi = spectrum(N, n, real)
        ops.append(_cepstra_op(o.draw(phi, N, count, rng, real), phi, N, n))
    for N, n, count, real in CONJUGACY_SLOTS:
        ops.append(_conjugacy_op(spectrum(N, n, real), N, count, library_seed()))
    return ops


# ---------------------------------------------------------------- cli

# (N, degree, real) of the generated problem files; one round of eight
# commands runs on each, 104 operations in all.  Grids stay at N <= 32, where
# the solvers' per-call costs dominate and their cost varies little with the
# lags, so the median falls among some 50 solve/maxent/cepstral runs of
# similar cost.  Every round simulates the same number of real-valued
# realizations on the same grid, so the 13 `simulate` runs cost alike and are
# the slowest operations but for a few `approx` runs: the 90th percentile
# (rank 94) falls among them whatever the seed.
CLI_ROUNDS = tuple(((8, 16, 32)[r % 3], 1 + (r // 3) % 3, r % 2 == 0) for r in range(13))
CLI_SIM_N = 32
CLI_SIM_COUNT = 48
CLI_APPROX = {"n_max": 64, "reference_N": 128}


def _pairs(values):
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex)]


def _flat(coeffs):
    out = [float(coeffs[0].real)]
    for z in coeffs[1:]:
        out += [float(z.real), float(z.imag)]
    return out


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _strict_json(path):
    def refuse(token):
        raise ValueError(f"non-finite number {token}")

    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.read(), parse_constant=refuse)


def _mask_runtimes(name, data):
    """Blank the wall-clock runtime_ms values that `approx` writes into its outputs."""
    if name == "approx.json":
        return re.sub(rb'("runtime_ms": )[^,\n]*', rb"\1", data)
    if name == "sweep.csv":
        return b"\n".join(line.rpartition(b",")[0] for line in data.split(b"\n"))
    return data


def _cli_op(label, command, source, extra, out_dir, lags_file=None, mask=None):
    """`circext command source --out out_dir extra...`, run in process.

    Every cycle writes into the same directory.  The fingerprint holds the
    exit code and the bytes of every output but run.json, so each rerun must
    rewrite the warm-up's files byte for byte.  lags_file, when given, is the
    problem file whose lags the written spectrum.csv must reproduce.
    mask(name, bytes), when given, removes the parts of an output that are
    known to differ between reruns.
    """
    mask = mask or (lambda name, data: data)
    argv = [command, source, "--out", out_dir, *extra]

    def run():
        with open(os.devnull, "w") as sink:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return circext.cli.main(argv)

    def fingerprint(code):
        outputs = []
        for name in sorted(os.listdir(out_dir)):
            if name != "run.json":
                with open(os.path.join(out_dir, name), "rb") as fh:
                    outputs.append((name, mask(name, fh.read())))
        return (code, tuple(outputs))

    def check(code):
        problems = []
        _expect(problems, code == 0, f"exit code {code}")
        names = sorted(os.listdir(out_dir))
        for name in names:
            if name.endswith(".json"):
                try:
                    _strict_json(os.path.join(out_dir, name))
                except ValueError as exc:
                    problems.append(f"{name} is not strict JSON: {exc}")
        if lags_file is not None and "spectrum.csv" in names:
            problem = _strict_json(lags_file)
            c = np.array([complex(*pair) for pair in problem["c"]])
            spectrum = os.path.join(out_dir, "spectrum.csv")
            phi = np.loadtxt(spectrum, delimiter=",", skiprows=1)[:, 1]
            _expect(problems, _rel_err(o.moments(phi, problem["N"], c.size - 1), c) <= MOMENT_TOL,
                    "spectrum.csv does not reproduce the lags")
        return problems

    return Op(label, run, fingerprint, check)


def build_cli(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 4])
    inputs = os.path.join(workdir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    ops = []
    for r, (N, n, real) in enumerate(CLI_ROUNDS):
        problem, joint, approx, model = (
            os.path.join(inputs, f"{kind}_{r}.json")
            for kind in ("problem", "joint", "approx", "model")
        )
        pv, qv = _solver_model(rng, n, N, real)
        c, p = o.moments(pv / qv, N, n), o.moments(pv, N, n)
        _write_json(problem, {"version": 1, "N": N, "c": _pairs(c), "p": _flat(p)})
        pv, qv = _solver_model(rng, n, N, real)
        phi = pv / qv
        _write_json(joint, {
            "version": 1, "N": N, "c": _pairs(o.moments(phi, N, n)),
            "m": _pairs(o.moments(np.log(phi), N, n)[1:]), "lambda": JOINT_LAMBDA,
        })
        d = min(n, 2)
        pv, qv = _solver_model(rng, d, 256, real)
        _write_json(approx, {"version": 1, "c": _pairs(o.moments(pv / qv, 256, d)), **CLI_APPROX})
        pv, qv = _solver_model(rng, n, CLI_SIM_N, True)
        _write_json(model, {
            "version": 1, "kind": "model", "N": CLI_SIM_N,
            "p": _flat(o.moments(pv, CLI_SIM_N, n)), "q": _flat(o.moments(qv, CLI_SIM_N, n)),
        })
        sim_args = ("--count", str(CLI_SIM_COUNT), "--seed", str(int(rng.integers(2**31))))
        sim_args += ("--real",)

        def out(tag):
            return os.path.join(workdir, f"{tag}_{r}")

        estimates = os.path.join(out("estimate"), "estimates.json")
        steps = (
            # command, output tag, grid, input, extra arguments, lags file, mask
            ("check", "check", N, problem, (), None, None),
            ("solve", "solve", N, problem, (), problem, None),
            ("maxent", "maxent", N, problem, (), problem, None),
            ("cepstral", "cepstral", N, joint, (), joint, None),
            ("approx", "approx", f"..{CLI_APPROX['n_max']}", approx, (), None, _mask_runtimes),
            ("simulate", "simulate", CLI_SIM_N, model, sim_args, None, None),
            ("estimate", "estimate", CLI_SIM_N, out("simulate"),
             ("--degree", str(n), "--cepstral"), None, None),
            ("solve", "resolve", CLI_SIM_N, estimates, (), estimates, None),
        )
        for command, tag, grid, source, extra, lags_file, mask in steps:
            label = f"circext {command} {tag}_{r} N={grid} n={n}"
            ops.append(_cli_op(label, command, source, extra, out(tag), lags_file, mask))
    return ops


BUILDERS = {
    "extend": build_extend,
    "certify": build_certify,
    "stochastic": build_stochastic,
    "cli": build_cli,
}
