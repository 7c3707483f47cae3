"""Dual Newton solver: matching, uniqueness, derivatives, and failure modes."""

import numpy as np
import pytest
from scipy.optimize import minimize

from circext import (
    BoundaryCollapseError,
    Circulant,
    CovarianceSequence,
    DiscreteGrid,
    DualProblem,
    JointProblem,
    MaxIterationsError,
    SolverOptions,
    SpectrumSamples,
    SymmetricPseudoPolynomial,
    banded_check,
    cepstral_moments,
    complete_covariances,
    constant_symbol,
    covariance_moments,
    dual_gradient,
    dual_hessian,
    dual_value,
    eval_symbol,
    integrate,
    invert,
    joint_solve,
    maxent_solve,
    newton_solve,
)

from conftest import (
    make_rng,
    random_feasible_covariances,
    random_hermitian_tail,
    random_positive_symbol,
    symbol_distance,
)

AWKWARD = CovarianceSequence([1.0, 0.0, -0.95])


def real_params(q):
    return np.concatenate(([q.coeffs[0].real], q.coeffs[1:].real, q.coeffs[1:].imag))


def params_to_symbol(v, n):
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = v[0]
    if n:
        coeffs[1:] = v[1 : n + 1] + 1j * v[n + 1 :]
    return SymmetricPseudoPolynomial(coeffs)


def random_interior_q(rng, prob, base):
    """A random positive denominator of the problem degree near base scale."""
    grid = prob.grid
    q = random_positive_symbol(rng, prob.n, grid, floor=0.3)
    scale = base.coeffs[0].real / q.coeffs[0].real
    return SymmetricPseudoPolynomial(q.coeffs * scale)


class TestExactCases:
    def test_white_noise(self):
        grid = DiscreteGrid(8)
        c = CovarianceSequence([2.5, 0.0, 0.0])
        report = maxent_solve(c, grid)
        assert report.iterations == 0
        np.testing.assert_allclose(report.q.coeffs, [1 / 2.5, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(report.phi.real_values(), 2.5, atol=1e-10)

    def test_lag_zero_only(self):
        # with n = 0 the initialization q_0 = (int P)/c_0 is already optimal
        rng = make_rng(307)
        grid = DiscreteGrid(6)
        p = random_positive_symbol(rng, 2, grid)
        prob = DualProblem(grid, CovarianceSequence([3.0]), p)
        report = newton_solve(prob)
        assert report.iterations == 0
        p_mean = integrate(prob.p_samples, 0).real
        assert report.q.coeffs[0].real == pytest.approx(p_mean / 3.0)

    def test_first_lag_matches_closed_form_limit(self):
        # the maxent denominator for lags (1, a) approaches the closed-form
        # autoregressive answer as the grid refines; at N=64 the aliasing
        # correction is far below the comparison tolerance
        a = 0.4
        c = CovarianceSequence([1.0, a])
        report = maxent_solve(c, DiscreteGrid(64))
        sigma2 = 1.0 - a * a
        np.testing.assert_allclose(
            report.q.coeffs,
            [(1.0 + a * a) / sigma2, -a / sigma2],
            atol=1e-10,
        )


class TestMomentMatching:
    @pytest.mark.parametrize("seed,n,N", [(1, 1, 4), (2, 2, 8), (3, 3, 8), (4, 4, 16), (5, 5, 24)])
    def test_randomized_instances(self, seed, n, N):
        rng = make_rng(1000 + seed)
        grid = DiscreteGrid(N)
        c = random_feasible_covariances(rng, n, grid)
        p = random_positive_symbol(rng, min(n, 3), grid)
        report = newton_solve(DualProblem(grid, c, p))
        scale = max(1.0, c.sup_norm())
        assert report.residual <= 1e-8 * scale
        np.testing.assert_allclose(report.extended_c[: n + 1], c.c, atol=1e-8 * scale)
        # the spectrum is strictly positive and reproduces the residual claim
        assert report.phi.real_values().min() > 0.0

    def test_extended_lags_complete_the_sequence(self):
        rng = make_rng(311)
        grid = DiscreteGrid(8)
        c = random_feasible_covariances(rng, 2, grid)
        report = maxent_solve(c, grid)
        extended = complete_covariances(report)
        assert extended.shape == (grid.N + 1,)
        np.testing.assert_allclose(extended, report.extended_c)
        # the same completion is available straight from the spectrum
        np.testing.assert_allclose(extended, complete_covariances(report.phi))
        for k in range(grid.N + 1):
            assert extended[k] == pytest.approx(integrate(report.phi, k), abs=1e-12)

    def test_trace_objective_decreases(self):
        rng = make_rng(313)
        grid = DiscreteGrid(8)
        c = random_feasible_covariances(rng, 3, grid)
        report = maxent_solve(c, grid)
        assert report.iterations >= 1
        values = [rec.objective for rec in report.trace]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-12 * (1.0 + abs(earlier))
        assert all(rec.hessian_min_eig > 0.0 for rec in report.trace)
        assert all(rec.min_q_sample > 0.0 for rec in report.trace)


class TestBruteForce:
    def test_nelder_mead_agreement(self):
        # independent generic minimizer of the same dual functional
        rng = make_rng(317)
        grid = DiscreteGrid(4)
        c = random_feasible_covariances(rng, 1, grid)
        p = random_positive_symbol(rng, 1, grid)
        prob = DualProblem(grid, c, p)

        def objective(v):
            q = params_to_symbol(v, 1)
            vals = eval_symbol(q, grid).real_values()
            if vals.min() <= 0.0:
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
        brute = params_to_symbol(res.x, 1)
        scale = max(1.0, float(np.max(np.abs(report.q.coeffs))))
        assert symbol_distance(report.q, brute) <= 1e-6 * scale


class TestDerivatives:
    def test_value_scaling_identity(self):
        # J(t Q) - J(Q) = (t - 1) <C,Q> - (int P) log t for every t > 0
        rng = make_rng(331)
        grid = DiscreteGrid(8)
        c = random_feasible_covariances(rng, 2, grid)
        p = random_positive_symbol(rng, 2, grid)
        prob = DualProblem(grid, c, p)
        q = random_positive_symbol(rng, 2, grid)
        base = dual_value(prob, q)
        pairing = inner = float(
            (c.c[0] * np.conj(q.coeffs[0])).real
            + 2.0 * np.sum((c.c[1:] * np.conj(q.coeffs[1:])).real)
        )
        p_mean = integrate(prob.p_samples, 0).real
        for t in (0.5, 2.0, 7.5):
            scaled = SymmetricPseudoPolynomial(q.coeffs * t)
            expected = base + (t - 1.0) * pairing - p_mean * np.log(t)
            assert dual_value(prob, scaled) == pytest.approx(expected, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(337)
        grid = DiscreteGrid(8)
        c = random_feasible_covariances(rng, 2, grid)
        p = random_positive_symbol(rng, 2, grid)
        prob = DualProblem(grid, c, p)
        for _ in range(10):
            q = random_positive_symbol(rng, 2, grid, floor=0.5)
            g = dual_gradient(prob, q)
            analytic = np.concatenate(([g[0].real], 2.0 * g[1:].real, 2.0 * g[1:].imag))
            v = real_params(q)
            h = 1e-6

            def value_at(vv):
                return dual_value(prob, params_to_symbol(vv, 2))

            fd = np.zeros_like(v)
            for i in range(v.size):
                step = np.zeros_like(v)
                step[i] = h
                fd[i] = (value_at(v + step) - value_at(v - step)) / (2.0 * h)
            scale = max(1.0, float(np.max(np.abs(fd))))
            np.testing.assert_allclose(analytic, fd, atol=1e-5 * scale)

    def test_hessian_identity_at_flat_point(self):
        # with P = Q = 1 the kernel P/Q^2 is constant, so the lag matrix of
        # the Hessian is the identity
        grid = DiscreteGrid(8)
        prob = DualProblem(grid, CovarianceSequence([1.0, 0.1]), constant_symbol(1.0))
        flat = SymmetricPseudoPolynomial(np.array([1.0, 0.0]))
        H = dual_hessian(prob, flat)
        np.testing.assert_allclose(H, np.eye(2), atol=1e-14)

    def test_hessian_matches_gradient_differences(self):
        # column l of the complex Hessian is the Wirtinger derivative of the
        # gradient: H[k,l] = (d/dx_l - i d/dy_l) g_k / 2
        rng = make_rng(347)
        grid = DiscreteGrid(8)
        c = random_feasible_covariances(rng, 2, grid)
        p = random_positive_symbol(rng, 2, grid)
        prob = DualProblem(grid, c, p)
        for _ in range(10):
            q = random_positive_symbol(rng, 2, grid, floor=0.5)
            H = dual_hessian(prob, q)
            assert np.linalg.eigvalsh(H).min() > 0.0
            h = 1e-6
            for l in range(3):
                coeffs = q.coeffs.copy()
                coeffs[l] += h
                g_plus = dual_gradient(prob, SymmetricPseudoPolynomial(coeffs))
                coeffs[l] -= 2 * h
                g_minus = dual_gradient(prob, SymmetricPseudoPolynomial(coeffs))
                dx = (g_plus - g_minus) / (2.0 * h)
                if l == 0:
                    column = dx
                else:
                    coeffs = q.coeffs.copy()
                    coeffs[l] += 1j * h
                    g_plus = dual_gradient(prob, SymmetricPseudoPolynomial(coeffs))
                    coeffs[l] -= 2j * h
                    g_minus = dual_gradient(prob, SymmetricPseudoPolynomial(coeffs))
                    dy = (g_plus - g_minus) / (2.0 * h)
                    column = 0.5 * (dx - 1j * dy)
                scale = max(1.0, float(np.max(np.abs(H))))
                np.testing.assert_allclose(H[:, l], column, atol=1e-5 * scale)


class TestUniqueness:
    def test_multiple_starts_agree(self):
        rng = make_rng(353)
        for trial in range(5):
            n = int(rng.integers(1, 4))
            grid = DiscreteGrid(8)
            c = random_feasible_covariances(rng, n, grid)
            p = random_positive_symbol(rng, n, grid)
            prob = DualProblem(grid, c, p)
            reference = newton_solve(prob)
            scale = max(1.0, float(np.max(np.abs(reference.q.coeffs))))
            for _ in range(3):
                start = random_interior_q(rng, prob, reference.q)
                other = newton_solve(prob, SolverOptions(initial_q=start))
                assert symbol_distance(reference.q, other.q) <= 1e-6 * scale


class TestSensitivity:
    def test_lag_perturbation_is_controlled_by_the_hessian(self):
        rng = make_rng(359)
        grid = DiscreteGrid(8)
        c = random_feasible_covariances(rng, 2, grid)
        p = random_positive_symbol(rng, 2, grid)
        base = newton_solve(DualProblem(grid, c, p))
        H = dual_hessian(DualProblem(grid, c, p), base.q)
        bound = 1.0 / np.linalg.eigvalsh(H).min()
        eps = 1e-6
        delta = random_hermitian_tail(rng, 2)
        delta = np.concatenate(([1.0], delta / np.max(np.abs(delta))))
        c_shift = CovarianceSequence(c.c + eps * delta)
        shifted = newton_solve(DualProblem(grid, c_shift, p))
        moved = symbol_distance(base.q, shifted.q)
        assert moved <= 100.0 * eps * max(1.0, bound)

    def test_numerator_continuity(self):
        rng = make_rng(367)
        grid = DiscreteGrid(8)
        c = random_feasible_covariances(rng, 2, grid)
        p = random_positive_symbol(rng, 2, grid)
        base = newton_solve(DualProblem(grid, c, p))
        bump = random_hermitian_tail(rng, 2)
        moves = []
        for delta in (1e-3, 1e-5):
            coeffs = p.coeffs.copy()
            coeffs[1:] += delta * bump
            p_shift = SymmetricPseudoPolynomial(coeffs)
            shifted = newton_solve(DualProblem(grid, c, p_shift))
            moves.append(symbol_distance(base.q, shifted.q))
        assert moves[0] > 0.0
        # two decades smaller perturbation moves the solution roughly two
        # decades less; one decade of slack on the comparison
        assert moves[1] <= 0.1 * moves[0]


class TestMaxent:
    def test_entropy_dominance(self):
        # among spectra matching the same lags the constant-numerator answer
        # has the largest log integral
        rng = make_rng(373)
        grid = DiscreteGrid(8)
        c = random_feasible_covariances(rng, 2, grid)
        best = maxent_solve(c, grid)
        best_entropy = np.log(best.phi.real_values()).mean()
        for _ in range(5):
            p = random_positive_symbol(rng, 2, grid)
            other = newton_solve(DualProblem(grid, c, p))
            other_entropy = np.log(other.phi.real_values()).mean()
            assert other_entropy <= best_entropy + 1e-9

    def test_inverse_is_banded(self):
        # the maxent spectrum is 1/Q, so the inverse covariance operator has
        # the band width of the lag window
        rng = make_rng(379)
        grid = DiscreteGrid(16)
        c = random_feasible_covariances(rng, 2, grid)
        report = maxent_solve(c, grid)
        sigma = Circulant(grid, report.phi.values)
        assert banded_check(invert(sigma), 2)
        assert not banded_check(invert(sigma), 1)


class TestBoundaryNumerator:
    def test_isolated_zero_is_allowed(self):
        # P = 1 - cos(theta - theta_0) vanishes at one node yet the solve
        # still matches moments
        rng = make_rng(383)
        grid = DiscreteGrid(8)
        theta0 = grid.angles[grid.position(2)]
        p = SymmetricPseudoPolynomial(np.array([1.0, -0.5 * np.exp(1j * theta0)]))
        vals = eval_symbol(p, grid).real_values()
        assert vals.min() == pytest.approx(0.0, abs=1e-12)
        c = random_feasible_covariances(rng, 1, grid)
        report = newton_solve(DualProblem(grid, c, p))
        scale = max(1.0, c.sup_norm())
        assert report.residual <= 1e-8 * scale

    def test_identically_zero_rejected(self):
        grid = DiscreteGrid(4)
        with pytest.raises(ValueError):
            DualProblem(grid, CovarianceSequence([1.0]), constant_symbol(0.0))

    def test_negative_numerator_rejected(self):
        grid = DiscreteGrid(4)
        with pytest.raises(ValueError):
            DualProblem(grid, CovarianceSequence([1.0]), constant_symbol(-1.0))


class TestFailureModes:
    @pytest.mark.parametrize("N", [3, 5])
    def test_infeasible_lags_collapse(self, N):
        grid = DiscreteGrid(N)
        with pytest.raises(BoundaryCollapseError) as info:
            maxent_solve(AWKWARD, grid)
        err = info.value
        assert err.iteration >= 0
        assert err.residual > 0.0
        assert err.min_sample > 0.0
        assert "feasibility_certificate" in str(err)

    def test_non_finite_lags_are_refused(self):
        # NaN lags once ended in BoundaryCollapseError, blaming infeasibility
        with pytest.raises(ValueError, match="must be finite"):
            CovarianceSequence([1.0, np.nan])
        c = CovarianceSequence([1.0, 0.3])
        c.c = np.array([1.0, np.nan], dtype=complex)    # past the constructor check
        with pytest.raises(ValueError, match="non-finite gradient residual"):
            maxent_solve(c, DiscreteGrid(8))

    def test_iteration_budget(self):
        grid = DiscreteGrid(8)
        c = CovarianceSequence([1.0, 0.3 + 0.1j])
        with pytest.raises(MaxIterationsError):
            maxent_solve(c, grid, SolverOptions(max_iter=1))

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(grad_tol=0.0)
        with pytest.raises(ValueError):
            SolverOptions(max_iter=0)
        with pytest.raises(ValueError):
            SolverOptions(backtrack_ratio=1.0)

    def test_problem_validation(self):
        grid = DiscreteGrid(3)
        with pytest.raises(ValueError):
            DualProblem(grid, CovarianceSequence([1.0, 0.1, 0.1j, 0.05]), constant_symbol(1.0))
        rng = make_rng(389)
        with pytest.raises(ValueError):
            DualProblem(grid, CovarianceSequence([1.0]), random_positive_symbol(rng, 3, grid))

    def test_initial_q_validation(self):
        rng = make_rng(397)
        grid = DiscreteGrid(8)
        c = random_feasible_covariances(rng, 1, grid)
        prob = DualProblem(grid, c, constant_symbol(1.0))
        too_long = SymmetricPseudoPolynomial(np.array([1.0, 0.1, 0.1]))
        with pytest.raises(ValueError):
            newton_solve(prob, SolverOptions(initial_q=too_long))
        negative = SymmetricPseudoPolynomial(np.array([1.0, 0.8]))
        with pytest.raises(ValueError):
            newton_solve(prob, SolverOptions(initial_q=negative))


def arma_spectra(seed, count, degrees, N=64):
    """Seeded ARMA spectra |b|^2/|a|^2 with zeros within 0.5 and poles within 0.7."""
    rng = make_rng(seed)
    grid = DiscreteGrid(N)

    def power(n, radius):
        roots = rng.uniform(0.2, radius, n) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        return np.abs(np.prod(1.0 - roots[:, None] * grid.nodes[None, :], axis=0)) ** 2

    for i in range(count):
        n = degrees[i % len(degrees)]
        yield grid, n, SpectrumSamples(grid, power(n, 0.5) / power(n, 0.7))


class TestConvergenceNearOptimum:
    """Both solvers reach grad_tol where the objective decrease falls below rounding.

    On about 1% of these problems the last Newton decrements are 1e-15 to
    1e-13, under the rounding of the objective, so a strict-decrease line
    search alone rejects the full steps and the iteration runs out of budget.
    """

    def test_maxent_population(self):
        for grid, n, phi in arma_spectra(20261018, 400, (4, 5)):
            report = maxent_solve(covariance_moments(phi, n), grid)
            assert report.residual <= 1e-10 * max(1.0, report.c.sup_norm())

    def test_joint_population(self):
        for grid, n, phi in arma_spectra(20261019, 300, (2, 3, 4, 5)):
            c, m = covariance_moments(phi, n), cepstral_moments(phi, n)
            report = joint_solve(JointProblem(grid, c, m, 1e-3))
            scale = max(1.0, c.sup_norm(), float(np.max(np.abs(m.m))))
            assert report.residual <= 1e-10 * scale
