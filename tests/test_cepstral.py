"""Joint covariance/cepstral matching and its regularized variant."""

import numpy as np
import pytest

from circext import (
    BoundaryCollapseError,
    CepstralSequence,
    CovarianceSequence,
    DiscreteGrid,
    JointProblem,
    SolverOptions,
    SymmetricPseudoPolynomial,
    cepstral_moments,
    constant_symbol,
    continuation_solve,
    covariance_moments,
    epsilon_report,
    eval_symbol,
    integrate,
    joint_gradient,
    joint_hessian,
    joint_solve,
    joint_value,
    maxent_solve,
)

from conftest import make_rng, random_positive_symbol, symbol_distance


def normalized_positive(rng, n, grid, floor=0.25):
    """Random grid-positive symbol rescaled to a unit constant term."""
    p = random_positive_symbol(rng, n, grid, floor=floor)
    return SymmetricPseudoPolynomial(p.coeffs / p.coeffs[0].real)


def consistent_instance(seed=523, N=8, n=2):
    """A model pair and the exact moment data it generates."""
    rng = make_rng(seed)
    grid = DiscreteGrid(N)
    p0 = normalized_positive(rng, n, grid)
    q0 = random_positive_symbol(rng, n, grid)
    phi = eval_symbol(p0, grid).real_values() / eval_symbol(q0, grid).real_values()
    from circext import SpectrumSamples

    spectrum = SpectrumSamples(grid, phi)
    c = covariance_moments(spectrum, n)
    m = cepstral_moments(spectrum, n)
    return grid, p0, q0, spectrum, c, m


FLAT = SymmetricPseudoPolynomial(np.array([1.0, 0.0]))


class TestObjective:
    def test_flat_value(self):
        grid = DiscreteGrid(8)
        c = CovarianceSequence([1.0, 0.0])
        m = CepstralSequence([0.0])
        for lam in (0.0, 1e-3):
            prob = JointProblem(grid, c, m, regularization=lam)
            # P = Q = 1: the pairing reduces to c_0 and every integral vanishes
            assert joint_value(prob, FLAT, FLAT) == pytest.approx(1.0, abs=1e-14)

    def test_numerator_normalization_enforced(self):
        grid = DiscreteGrid(8)
        prob = JointProblem(grid, CovarianceSequence([1.0, 0.0]), CepstralSequence([0.0]))
        skewed = SymmetricPseudoPolynomial(np.array([1.5, 0.0]))
        with pytest.raises(ValueError):
            joint_value(prob, skewed, FLAT)

    def test_white_data_is_a_fixed_point(self):
        grid = DiscreteGrid(8)
        c = CovarianceSequence([1.0, 0.0])
        m = CepstralSequence([0.0])
        for lam in (0.0, 1e-3):
            report = joint_solve(JointProblem(grid, c, m, regularization=lam))
            assert report.iterations == 0
            np.testing.assert_allclose(report.p.coeffs, [1.0, 0.0], atol=1e-12)
            np.testing.assert_allclose(report.q.coeffs, [1.0, 0.0], atol=1e-12)


class TestDerivatives:
    def test_gradient_matches_finite_differences(self):
        rng = make_rng(541)
        grid = DiscreteGrid(8)
        n = 2
        c = covariance_moments(
            eval_symbol(random_positive_symbol(rng, n, grid), grid), n
        )
        m = CepstralSequence(0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        for lam in (0.0, 1e-2):
            prob = JointProblem(grid, c, m, regularization=lam)
            for _ in range(5):
                p = normalized_positive(rng, n, grid)
                q = random_positive_symbol(rng, n, grid, floor=0.5)
                gq, gp = joint_gradient(prob, p, q)
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
                    qq = SymmetricPseudoPolynomial(
                        np.concatenate(([v[0]], v[1 : n + 1] + 1j * v[n + 1 : 2 * n + 1]))
                    )
                    pp = SymmetricPseudoPolynomial(
                        np.concatenate(([1.0], v[2 * n + 1 : 3 * n + 1] + 1j * v[3 * n + 1 :]))
                    )
                    return joint_value(prob, pp, qq)

                v0 = np.concatenate(
                    (
                        [q.coeffs[0].real],
                        q.coeffs[1:].real,
                        q.coeffs[1:].imag,
                        p.coeffs[1:].real,
                        p.coeffs[1:].imag,
                    )
                )
                h = 1e-6
                fd = np.zeros_like(v0)
                for i in range(v0.size):
                    step = np.zeros_like(v0)
                    step[i] = h
                    fd[i] = (value_at(v0 + step) - value_at(v0 - step)) / (2.0 * h)
                scale = max(1.0, float(np.max(np.abs(fd))))
                np.testing.assert_allclose(analytic, fd, atol=1e-5 * scale)

    def test_hessian_blocks_at_flat_point(self):
        grid = DiscreteGrid(8)
        c = CovarianceSequence([1.0, 0.0])
        m = CepstralSequence([0.0])
        prob = JointProblem(grid, c, m, regularization=0.0)
        H = joint_hessian(prob, FLAT, FLAT)
        expected = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -1.0], [0.0, -1.0, 1.0]])
        np.testing.assert_allclose(H, expected, atol=1e-14)
        # the unregularized flat point is singular: P and Q can slide together
        assert abs(np.linalg.eigvalsh(H).min()) < 1e-12
        reg = JointProblem(grid, c, m, regularization=1e-3)
        H_reg = joint_hessian(reg, FLAT, FLAT)
        assert np.linalg.eigvalsh(H_reg).min() > 0.0
        assert H_reg[2, 2] == pytest.approx(1.0 + 1e-3)

    def test_hessian_matches_gradient_differences(self):
        rng = make_rng(547)
        grid = DiscreteGrid(8)
        n = 2
        c = covariance_moments(
            eval_symbol(random_positive_symbol(rng, n, grid), grid), n
        )
        m = CepstralSequence(0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        for lam in (0.0, 1e-2):
            prob = JointProblem(grid, c, m, regularization=lam)
            for _ in range(5):
                p = normalized_positive(rng, n, grid)
                q = random_positive_symbol(rng, n, grid, floor=0.5)
                H = joint_hessian(prob, p, q)
                h = 1e-6

                def stacked(pp, qq):
                    gq, gp = joint_gradient(prob, pp, qq)
                    return np.concatenate((gq, gp))

                for col in range(2 * n + 1):
                    def bump(delta):
                        qc = q.coeffs.copy()
                        pc = p.coeffs.copy()
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
                    scale = max(1.0, float(np.max(np.abs(H))))
                    np.testing.assert_allclose(H[:, col], column, atol=1e-5 * scale)


class TestRoundTrip:
    def test_exact_recovery_without_regularization(self):
        grid, p0, q0, spectrum, c, m = consistent_instance()
        prob = JointProblem(grid, c, m, regularization=0.0)
        report = joint_solve(prob)
        worst = float(
            np.max(np.abs(report.phi.real_values() - spectrum.real_values()))
        )
        scale = float(np.max(spectrum.real_values()))
        assert worst <= 1e-6 * scale
        assert symbol_distance(report.p, p0) <= 1e-6
        assert not report.boundary_flag
        assert report.residual <= 1e-8 * max(1.0, c.sup_norm())

    def test_regularized_residuals_and_epsilon(self):
        grid, p0, q0, spectrum, c, m = consistent_instance()
        prob = JointProblem(grid, c, m, regularization=0.01)
        report = joint_solve(prob)
        scale = max(1.0, c.sup_norm())
        assert report.covariance_residual <= 1e-8 * scale
        assert report.epsilon is not None
        # the epsilon-adjusted targets are the log moments actually attained
        adjusted = epsilon_report(report, tol=1e-8)
        assert adjusted.shape == (c.n,)
        np.testing.assert_allclose(adjusted, m.m + report.epsilon, atol=1e-14)
        log_phi = np.log(report.phi.real_values())
        for k in range(1, c.n + 1):
            attained = np.mean(np.exp(1j * k * grid.angles) * log_phi)
            assert attained == pytest.approx(adjusted[k - 1], abs=1e-8)

    def test_epsilon_shrinks_with_regularization(self):
        grid, p0, q0, spectrum, c, m = consistent_instance()
        sizes = {}
        for lam in (1e-2, 1e-4):
            report = joint_solve(JointProblem(grid, c, m, regularization=lam))
            sizes[lam] = float(np.max(np.abs(report.epsilon)))
        assert sizes[1e-4] <= 0.05 * sizes[1e-2]

    def test_epsilon_requires_regularization(self):
        grid, p0, q0, spectrum, c, m = consistent_instance()
        report = joint_solve(JointProblem(grid, c, m, regularization=0.0))
        assert report.epsilon is None
        with pytest.raises(ValueError):
            epsilon_report(report)


class TestOptimality:
    def test_strong_duality_gap_vanishes(self):
        # the attained log integral equals the dual value minus the numerator
        # mass: certifies the solution is the entropy-optimal spectrum for
        # its own moment data
        grid, p0, q0, spectrum, c, m = consistent_instance()
        prob = JointProblem(grid, c, m, regularization=0.0)
        report = joint_solve(prob)
        primal = float(np.mean(np.log(report.phi.real_values())))
        p_mass = integrate(eval_symbol(report.p, grid), 0).real
        dual = joint_value(prob, report.p, report.q) - p_mass
        assert primal == pytest.approx(dual, abs=1e-8)

    def test_weak_duality_bounds_the_attained_entropy(self):
        # every admissible dual pair upper-bounds the attained log integral,
        # so no other spectrum matching (c, m) can beat the solution
        rng = make_rng(557)
        grid, p0, q0, spectrum, c, m = consistent_instance()
        prob = JointProblem(grid, c, m, regularization=0.0)
        report = joint_solve(prob)
        primal = float(np.mean(np.log(report.phi.real_values())))
        for _ in range(10):
            p_try = normalized_positive(rng, 2, grid)
            q_try = random_positive_symbol(rng, 2, grid, floor=0.4)
            p_mass = integrate(eval_symbol(p_try, grid), 0).real
            bound = joint_value(prob, p_try, q_try) - p_mass
            assert primal <= bound + 1e-10


class TestRegularizationSweep:
    def test_numerator_flattens_as_lambda_grows(self):
        grid, p0, q0, spectrum, c, m = consistent_instance()
        deviations = []
        for lam in (1e-3, 1e-1, 1.0, 10.0, 100.0):
            report = joint_solve(JointProblem(grid, c, m, regularization=lam))
            pv = eval_symbol(report.p, grid).real_values()
            deviations.append(float(np.max(np.abs(pv - 1.0))))
        for earlier, later in zip(deviations, deviations[1:]):
            assert later <= earlier + 1e-12
        assert deviations[-1] <= 0.02

    def test_large_lambda_approaches_maxent(self):
        # the numerator penalty pins P to 1 at rate 1/lambda, so the
        # denominator approaches the constant-numerator solution
        grid, p0, q0, spectrum, c, m = consistent_instance()
        base = maxent_solve(c, grid)
        scale = max(1.0, float(np.max(np.abs(base.q.coeffs))))
        dist = {}
        for lam in (1e2, 1e3):
            report = joint_solve(JointProblem(grid, c, m, regularization=lam))
            dist[lam] = symbol_distance(report.q, base.q)
        assert dist[1e3] <= 1e-3 * scale
        assert dist[1e3] <= 0.2 * dist[1e2]


class TestUniqueness:
    def test_multiple_starts_agree(self):
        rng = make_rng(563)
        grid, p0, q0, spectrum, c, m = consistent_instance()
        prob = JointProblem(grid, c, m, regularization=1e-3)
        reference = joint_solve(prob)
        scale = max(1.0, float(np.max(np.abs(reference.q.coeffs))))
        for _ in range(3):
            p_start = normalized_positive(rng, 2, grid)
            q_start = random_positive_symbol(rng, 2, grid, floor=0.4)
            other = joint_solve(prob, initial=(p_start, q_start))
            assert symbol_distance(reference.q, other.q) <= 1e-6 * scale
            assert symbol_distance(reference.p, other.p) <= 1e-6

    def test_trace_decreases_with_regularization(self):
        grid, p0, q0, spectrum, c, m = consistent_instance()
        report = joint_solve(JointProblem(grid, c, m, regularization=1e-3))
        values = [rec.objective for rec in report.trace]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-12 * (1.0 + abs(earlier))
        assert all(rec.hessian_min_eig > 0.0 for rec in report.trace)


class TestBoundary:
    def test_inconsistent_data_collapses_without_regularization(self):
        grid = DiscreteGrid(8)
        c = CovarianceSequence([1.0, 0.3 + 0.1j])
        m = CepstralSequence([0.05 - 0.02j])
        with pytest.raises(BoundaryCollapseError) as info:
            joint_solve(JointProblem(grid, c, m, regularization=0.0))
        assert "regularization > 0" in str(info.value)
        assert info.value.min_sample < 1e-6

    def test_default_regularization_handles_the_same_data(self):
        grid = DiscreteGrid(8)
        c = CovarianceSequence([1.0, 0.3 + 0.1j])
        m = CepstralSequence([0.05 - 0.02j])
        report = joint_solve(JointProblem(grid, c, m))
        assert report.covariance_residual <= 1e-8
        assert not report.boundary_flag
        epsilon_report(report, tol=1e-8)
        assert eval_symbol(report.p, grid).real_values().min() > 0.0


class TestContinuation:
    def test_matches_direct_solve(self):
        grid, p0, q0, spectrum, c, m = consistent_instance()
        prob = JointProblem(grid, c, m, regularization=1e-2)
        direct = joint_solve(prob)
        staged = continuation_solve(prob, start=1.0)
        assert symbol_distance(direct.q, staged.q) <= 1e-8
        assert symbol_distance(direct.p, staged.p) <= 1e-8

    def test_start_validation(self):
        grid, p0, q0, spectrum, c, m = consistent_instance()
        prob = JointProblem(grid, c, m, regularization=1e-2)
        with pytest.raises(ValueError):
            continuation_solve(prob, start=0.0)
        with pytest.raises(ValueError):
            continuation_solve(prob, start=1e-3)


class TestValidation:
    def test_degree_mismatch(self):
        grid = DiscreteGrid(8)
        with pytest.raises(ValueError):
            JointProblem(grid, CovarianceSequence([1.0, 0.1]), CepstralSequence([0.0, 0.0]))

    def test_negative_regularization(self):
        grid = DiscreteGrid(8)
        with pytest.raises(ValueError):
            JointProblem(
                grid,
                CovarianceSequence([1.0, 0.1]),
                CepstralSequence([0.0]),
                regularization=-1.0,
            )

    def test_degree_zero_rejected(self):
        grid = DiscreteGrid(8)
        with pytest.raises(ValueError):
            JointProblem(grid, CovarianceSequence([1.0]), CepstralSequence([0.0]))

    def test_non_finite_cepstra_are_refused(self):
        # a NaN target once gave a converged report: max(cov_res, nan) drops the NaN
        with pytest.raises(ValueError, match="must be finite"):
            CepstralSequence([np.nan])
        m = CepstralSequence([0.0])
        m.m = np.array([np.nan], dtype=complex)    # past the constructor check
        prob = JointProblem(DiscreteGrid(8), CovarianceSequence([1.0, 0.3]), m)
        with pytest.raises(ValueError, match="non-finite gradient residual"):
            joint_solve(prob)

    def test_initial_pair_validated(self):
        grid, p0, q0, spectrum, c, m = consistent_instance()
        prob = JointProblem(grid, c, m, regularization=1e-3)
        bad_p = SymmetricPseudoPolynomial(np.array([2.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            joint_solve(prob, initial=(bad_p, q0))
