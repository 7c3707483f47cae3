"""Acceptance gate: one test per delivery criterion, pinned tolerances.

Each test prints a single summary line (visible with -s or on failure) and
asserts the criterion it names.  Tolerances here are contractual; loosening
them is a release decision, not a test fix.
"""

import json
import os
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from circext import (
    CepstralSequence,
    Circulant,
    CovarianceSequence,
    CyclicShift,
    DiscreteGrid,
    DualProblem,
    JointProblem,
    Signal,
    SpectrumSamples,
    SymmetricPseudoPolynomial,
    add,
    cepstral_moments,
    conjugacy_check,
    constant_symbol,
    convergence_sweep,
    covariance_moments,
    dft,
    dual_gradient,
    dual_hessian,
    dual_value,
    epsilon_report,
    eval_symbol,
    feasibility_certificate,
    idft,
    integrate,
    joint_gradient,
    joint_hessian,
    joint_solve,
    joint_value,
    maxent_solve,
    multiply,
    newton_solve,
    plancherel_inner,
    sample_realizations,
    toeplitz_matrix,
    toeplitz_positive,
)
from circext import fileio as fio
from circext.cli import main as cli_main

from conftest import (
    make_rng,
    random_feasible_covariances,
    random_positive_symbol,
    symbol_distance,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

GATE_SEED = 93101


def gate_instances(count=50):
    """The shared randomized instance pool for criteria 1 and 2."""
    rng = make_rng(GATE_SEED)
    pool = []
    for _ in range(count):
        n = int(rng.integers(1, 6))
        N = int(rng.integers(max(4, n + 1), 65))
        grid = DiscreteGrid(N)
        c = random_feasible_covariances(rng, n, grid)
        p = random_positive_symbol(rng, n, grid)
        pool.append((grid, c, p))
    return pool


def random_interior_q(rng, prob, base):
    q = random_positive_symbol(rng, prob.n, prob.grid, floor=0.3)
    scale = base.coeffs[0].real / q.coeffs[0].real
    return SymmetricPseudoPolynomial(q.coeffs * scale)


def dual_params(q):
    return np.concatenate(([q.coeffs[0].real], q.coeffs[1:].real, q.coeffs[1:].imag))


def dual_symbol(v, n):
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = v[0]
    if n:
        coeffs[1:] = v[1 : n + 1] + 1j * v[n + 1 :]
    return SymmetricPseudoPolynomial(coeffs)


def test_criterion_1_moment_matching():
    worst_residual = 0.0
    slowest = 0.0
    for grid, c, p in gate_instances(50):
        started = time.perf_counter()
        report = newton_solve(DualProblem(grid, c, p))
        elapsed = time.perf_counter() - started
        slowest = max(slowest, elapsed)
        # recompute the matched moments from the spectrum, not the report
        attained = np.array([integrate(report.phi, k) for k in range(c.n + 1)])
        residual = float(np.max(np.abs(c.c - attained)))
        worst_residual = max(worst_residual, residual)
        assert residual <= 1e-8 * max(1.0, c.sup_norm())
        assert elapsed < 1.0
    print(
        f"criterion 1 PASS: 50 instances, worst residual {worst_residual:.3e}, "
        f"slowest solve {slowest:.3f}s"
    )


def test_criterion_2_uniqueness_and_convexity():
    rng = make_rng(GATE_SEED + 1)
    worst_spread = 0.0
    for grid, c, p in gate_instances(20):
        prob = DualProblem(grid, c, p)
        runs = [newton_solve(prob)]
        for _ in range(3):
            init = random_interior_q(rng, prob, runs[0].q)
            runs.append(newton_solve(prob, initial=init))
        scale = max(1.0, float(np.max(np.abs(runs[0].q.coeffs))))
        for other in runs[1:]:
            spread = symbol_distance(runs[0].q, other.q)
            worst_spread = max(worst_spread, spread / scale)
            assert spread <= 1e-6 * scale
        for run in runs:
            assert all(rec.hessian_min_eig > 0.0 for rec in run.trace)
    print(
        "criterion 2 PASS: 20 instances x 3 interior starts, worst relative "
        f"spread {worst_spread:.3e}, Hessian PD at every accepted iterate"
    )


def test_criterion_3_derivatives_match_finite_differences():
    rng = make_rng(GATE_SEED + 2)
    grid = DiscreteGrid(8)
    n = 2
    c = random_feasible_covariances(rng, n, grid)
    p = random_positive_symbol(rng, n, grid)
    prob = DualProblem(grid, c, p)
    h = 1e-6
    for _ in range(10):
        q = random_positive_symbol(rng, n, grid, floor=0.5)
        g = dual_gradient(prob, q)
        analytic = np.concatenate(([g[0].real], 2.0 * g[1:].real, 2.0 * g[1:].imag))
        v0 = dual_params(q)
        fd = np.zeros_like(v0)
        for i in range(v0.size):
            step = np.zeros_like(v0)
            step[i] = h
            fd[i] = (
                dual_value(prob, dual_symbol(v0 + step, n))
                - dual_value(prob, dual_symbol(v0 - step, n))
            ) / (2.0 * h)
        scale = max(1.0, float(np.max(np.abs(fd))))
        np.testing.assert_allclose(analytic, fd, atol=1e-5 * scale)

        H = dual_hessian(prob, q)
        for l in range(n + 1):
            real = q.coeffs.copy()
            real[l] += h
            g_px = dual_gradient(prob, SymmetricPseudoPolynomial(real))
            real[l] -= 2 * h
            g_mx = dual_gradient(prob, SymmetricPseudoPolynomial(real))
            dx = (g_px - g_mx) / (2.0 * h)
            if l == 0:
                column = dx
            else:
                imag = q.coeffs.copy()
                imag[l] += 1j * h
                g_py = dual_gradient(prob, SymmetricPseudoPolynomial(imag))
                imag[l] -= 2j * h
                g_my = dual_gradient(prob, SymmetricPseudoPolynomial(imag))
                column = 0.5 * (dx - 1j * (g_py - g_my) / (2.0 * h))
            hscale = max(1.0, float(np.max(np.abs(H[:, l]))))
            np.testing.assert_allclose(H[:, l], column, atol=1e-5 * hscale)

    m = CepstralSequence(0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    checked = 0
    for lam in (0.0, 1e-2):
        jprob = JointProblem(grid, c, m, regularization=lam)
        for _ in range(5):
            pp = random_positive_symbol(rng, n, grid, floor=0.4)
            pp = SymmetricPseudoPolynomial(pp.coeffs / pp.coeffs[0].real)
            qq = random_positive_symbol(rng, n, grid, floor=0.5)
            gq, gp = joint_gradient(jprob, pp, qq)
            analytic = np.concatenate(
                (
                    [gq[0].real],
                    2.0 * gq[1:].real,
                    2.0 * gq[1:].imag,
                    2.0 * gp.real,
                    2.0 * gp.imag,
                )
            )

            def value_at(v):
                q_sym = SymmetricPseudoPolynomial(
                    np.concatenate(([v[0]], v[1 : n + 1] + 1j * v[n + 1 : 2 * n + 1]))
                )
                p_sym = SymmetricPseudoPolynomial(
                    np.concatenate(
                        ([1.0], v[2 * n + 1 : 3 * n + 1] + 1j * v[3 * n + 1 :])
                    )
                )
                return joint_value(jprob, p_sym, q_sym)

            v0 = np.concatenate(
                (
                    [qq.coeffs[0].real],
                    qq.coeffs[1:].real,
                    qq.coeffs[1:].imag,
                    pp.coeffs[1:].real,
                    pp.coeffs[1:].imag,
                )
            )
            fd = np.zeros_like(v0)
            for i in range(v0.size):
                step = np.zeros_like(v0)
                step[i] = h
                fd[i] = (value_at(v0 + step) - value_at(v0 - step)) / (2.0 * h)
            scale = max(1.0, float(np.max(np.abs(fd))))
            np.testing.assert_allclose(analytic, fd, atol=1e-5 * scale)

            H = joint_hessian(jprob, pp, qq)

            def stacked(p_sym, q_sym):
                g1, g2 = joint_gradient(jprob, p_sym, q_sym)
                return np.concatenate((g1, g2))

            for col in range(2 * n + 1):

                def bump(delta):
                    qc = qq.coeffs.copy()
                    pc = pp.coeffs.copy()
                    if col <= n:
                        qc[col] += delta
                    else:
                        pc[col - n] += delta
                    return stacked(
                        SymmetricPseudoPolynomial(pc), SymmetricPseudoPolynomial(qc)
                    )

                dx = (bump(h) - bump(-h)) / (2.0 * h)
                if col == 0:
                    column = dx
                else:
                    dy = (bump(1j * h) - bump(-1j * h)) / (2.0 * h)
                    column = 0.5 * (dx - 1j * dy)
                hscale = max(1.0, float(np.max(np.abs(H[:, col]))))
                np.testing.assert_allclose(H[:, col], column, atol=1e-5 * hscale)
            checked += 1
    assert checked == 10
    print(
        "criterion 3 PASS: dual and joint gradients/Hessians match central "
        "differences at 10 interior points each (1e-5 relative)"
    )


def test_criterion_4_brute_force_oracle():
    rng = make_rng(GATE_SEED + 3)
    grid = DiscreteGrid(4)
    worst = 0.0
    for trial in range(3):
        c = random_feasible_covariances(rng, 1, grid)
        p = constant_symbol(1.0) if trial == 0 else random_positive_symbol(rng, 1, grid)
        prob = DualProblem(grid, c, p)

        def objective(v):
            q = dual_symbol(v, 1)
            if eval_symbol(q, grid).real_values().min() <= 0.0:
                return np.inf
            return dual_value(prob, q)

        report = newton_solve(prob)
        start = np.array([integrate(prob.p_samples, 0).real / c.c[0].real, 0.0, 0.0])
        res = minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000},
        )
        assert res.success
        scale = max(1.0, float(np.max(np.abs(report.q.coeffs))))
        distance = symbol_distance(report.q, dual_symbol(res.x, 1))
        worst = max(worst, distance / scale)
        assert distance <= 1e-6 * scale
    print(
        f"criterion 4 PASS: Nelder-Mead agreement on n=1, 2N=8, worst relative "
        f"distance {worst:.3e}"
    )


def test_criterion_5_cone_structure():
    rng = make_rng(GATE_SEED + 4)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(n + 1, 17))
        grid = DiscreteGrid(N)
        c = random_feasible_covariances(rng, n, grid)
        assert feasibility_certificate(c, grid).feasible
        assert feasibility_certificate(c, DiscreteGrid(2 * N)).feasible

    # a sequence with a positive definite Toeplitz matrix that no coarse grid
    # supports: necessary, not sufficient
    awkward = CovarianceSequence([1.0, 0.0, -0.95])
    positive, min_eig = toeplitz_positive(awkward)
    assert positive and min_eig > 0.04
    infeasible_at = [
        N
        for N in range(3, 10)
        if not feasibility_certificate(awkward, DiscreteGrid(N)).feasible
    ]
    assert infeasible_at == [3, 5, 7, 9]
    print(
        "criterion 5 PASS: 20 doubling checks; Toeplitz-positive instance "
        f"(1, 0, -0.95) infeasible at N in {infeasible_at}"
    )


def test_criterion_6_grid_refinement():
    started = time.perf_counter()
    c = CovarianceSequence([1.0, 0.4])
    report = convergence_sweep(
        c, [8, 16, 32, 64, 128, 256, 512], reference_N=4096
    )
    elapsed = time.perf_counter() - started
    distances = [s.distance for s in report.stages]
    assert all(d is not None for d in distances)
    assert report.eventually_decreasing
    assert distances[-1] <= 1e-4
    assert elapsed < 30.0
    print(
        f"criterion 6 PASS: refinement sweep to N=512 vs N=4096 reference, "
        f"final distance {distances[-1]:.3e}, {elapsed:.1f}s"
    )


def test_criterion_7_cepstral_round_trip():
    grid = DiscreteGrid(8)
    p0 = SymmetricPseudoPolynomial([1.0, 0.15, 0.05])
    q0 = SymmetricPseudoPolynomial([1.2, -0.3, 0.08])
    phi0 = SpectrumSamples(
        grid,
        eval_symbol(p0, grid).real_values() / eval_symbol(q0, grid).real_values(),
    )
    c = covariance_moments(phi0, 2)
    m = cepstral_moments(phi0, 2)

    exact = joint_solve(JointProblem(grid, c, m, regularization=0.0))
    spectrum_error = float(
        np.max(np.abs(exact.phi.real_values() - phi0.real_values()))
    )
    assert spectrum_error <= 1e-6 * max(1.0, float(phi0.real_values().max()))

    regular = joint_solve(JointProblem(grid, c, m, regularization=0.01))
    assert regular.covariance_residual <= 1e-8 * max(1.0, c.sup_norm())
    adjusted = epsilon_report(regular)
    attained = np.array(
        [integrate(SpectrumSamples(grid, np.log(regular.phi.real_values())), k)
         for k in range(1, 3)]
    )
    np.testing.assert_allclose(attained, adjusted, atol=1e-8)

    deviations = []
    for lam in (0.01, 0.1, 1.0, 10.0, 100.0):
        rep = joint_solve(JointProblem(grid, c, m, regularization=lam))
        deviations.append(
            float(np.max(np.abs(eval_symbol(rep.p, grid).real_values() - 1.0)))
        )
    assert all(b < a for a, b in zip(deviations, deviations[1:]))
    assert deviations[-1] <= 1e-3
    print(
        f"criterion 7 PASS: exact recovery at lambda=0 (error {spectrum_error:.3e}), "
        f"epsilon identity at lambda=0.01, sweep deviation {deviations[0]:.2e} -> "
        f"{deviations[-1]:.2e}"
    )


def test_criterion_8_transform_and_algebra_kernel():
    rng = make_rng(GATE_SEED + 5)
    for N in (4, 16, 32):
        grid = DiscreteGrid(N)
        x = Signal(
            grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        )
        y = Signal(
            grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        )
        back = idft(dft(x)).values
        assert np.max(np.abs(back - x.values)) <= 1e-12 * max(1.0, np.max(np.abs(x.values)))
        index_side = complex(np.sum(x.values * np.conj(y.values)))
        node_side = complex(np.mean(dft(x).values * np.conj(dft(y).values)))
        scale = max(1.0, abs(index_side))
        assert abs(index_side - node_side) <= 1e-12 * scale
        assert abs(plancherel_inner(x, y) - index_side) <= 1e-12 * scale

        a = Circulant.from_symbol(grid, random_positive_symbol(rng, min(3, N - 1), grid))
        tail = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        b = Circulant.from_symbol(
            grid, SymmetricPseudoPolynomial(np.concatenate(([1.0], tail)))
        )
        for op, matop in ((multiply, lambda u, v: u @ v), (add, lambda u, v: u + v)):
            dense = matop(a.dense(), b.dense())
            assert np.max(np.abs(op(a, b).dense() - dense)) <= 1e-10 * max(
                1.0, float(np.max(np.abs(dense)))
            )

    grid = DiscreteGrid(8)
    c = CovarianceSequence([1.0, 0.3 + 0.1j])
    report = maxent_solve(c, grid)
    Sigma = Circulant(grid, report.phi.values).dense()
    S = CyclicShift(grid).dense(1)
    assert np.max(np.abs(S @ Sigma @ S.conj().T - Sigma)) <= 1e-12
    block = Sigma[: c.n + 1, : c.n + 1]
    np.testing.assert_allclose(
        block, toeplitz_matrix(c), atol=1e-8 * max(1.0, c.sup_norm())
    )
    eigs = np.linalg.eigvalsh(Sigma)
    assert eigs.min() > 0.0
    print(
        "criterion 8 PASS: round trip and Plancherel to 1e-12, homomorphism vs "
        f"dense to 1e-10 (2N <= 64), solved Sigma shift-invariant, top-left "
        f"block = T_n, min eig {eigs.min():.3f}"
    )


def _covariance_within_5se(phi, count, seed):
    """Sample covariance matrix against the model circulant, entrywise."""
    grid = phi.grid
    y = sample_realizations(phi, count, seed=seed)
    Sigma = Circulant(grid, phi.values).dense()
    mean = np.einsum("rt,rs->ts", y, np.conj(y)) / count
    power = np.abs(y) ** 2
    second = power.T @ power / count
    se = np.sqrt(np.maximum(second - np.abs(mean) ** 2, 0.0)) / np.sqrt(count)
    deviation = np.abs(mean - Sigma)
    assert np.all(deviation <= 5.0 * np.maximum(se, 1e-12))
    return float(np.max(deviation / np.maximum(se, 1e-12)))


def _conjugacy_within_5se(phi, count, seed):
    """Recompute the whitening cross moment with entrywise standard errors."""
    grid = phi.grid
    vals = phi.real_values()
    y = sample_realizations(phi, count, seed=seed)
    cross = np.zeros((grid.size, grid.size), dtype=complex)
    second = np.zeros((grid.size, grid.size))
    for row in y:
        yhat = dft(Signal(grid, row)).values
        e = idft(SpectrumSamples(grid, yhat / vals)).values
        outer = np.outer(e, np.conj(row))
        cross += outer
        second += np.abs(outer) ** 2
    cross /= count
    second /= count
    se = np.sqrt(np.maximum(second - np.abs(cross) ** 2, 0.0)) / np.sqrt(count)
    deviation = np.abs(cross - np.eye(grid.size))
    assert np.all(deviation <= 5.0 * np.maximum(se, 1e-12))
    # the library distance is the max entry of the same estimate
    library = conjugacy_check(phi, count, seed=seed)
    assert library == pytest.approx(float(deviation.max()), abs=1e-12)
    return library


def test_criterion_9_stochastic_layer(tmp_path):
    count = 10**4
    grid = DiscreteGrid(8)
    white = SpectrumSamples(grid, np.full(grid.size, 1.7))
    ar = maxent_solve(CovarianceSequence([1.0, 0.3 + 0.1j]), grid)
    arma = newton_solve(
        DualProblem(
            grid,
            CovarianceSequence([1.0, 0.3 + 0.1j]),
            SymmetricPseudoPolynomial([1.0, 0.2]),
        )
    )
    models = [("white", white), ("AR", ar.phi), ("ARMA", arma.phi)]
    ratios = {}
    for offset, (name, phi) in enumerate(models):
        ratios[name] = _covariance_within_5se(phi, count, seed=GATE_SEED + offset)
        _conjugacy_within_5se(phi, count, seed=GATE_SEED + 10 + offset)

    # byte-level reproducibility of the checked-in simulation goldens
    out = tmp_path / "regen"
    code = cli_main(
        [
            "simulate",
            os.path.join(FIXTURES, "sim_model.json"),
            "--count",
            "2",
            "--seed",
            "20260822",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    for name in ("manifest.json", "realization_0000.csv", "realization_0001.csv"):
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            assert (out / name).read_bytes() == fh.read()
    worst = max(ratios.values())
    print(
        f"criterion 9 PASS: 10^4 draws x 3 models within 5 SE (worst ratio "
        f"{worst:.2f}), conjugacy within 5 SE, goldens byte-identical"
    )
