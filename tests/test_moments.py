"""Moment functionals, the Toeplitz test, and the LP feasibility certificate."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from circext import (
    BoundaryCollapseError,
    CepstralSequence,
    CovarianceSequence,
    DiscreteGrid,
    MaxIterationsError,
    SpectrumSamples,
    SymmetricPseudoPolynomial,
    cepstral_moments,
    covariance_moments,
    eval_symbol,
    feasibility_certificate,
    find_threshold,
    inner_product,
    integrate,
    maxent_solve,
    toeplitz_matrix,
    toeplitz_positive,
)
from circext import approx, moments
from circext.kernels import coeffs_to_real, grid_basis, hermitian_toeplitz
from circext.moments import CERT_TOL, UNCHECKED_MESSAGE

from conftest import (
    arma_lags, assert_margin_sandwich, assert_vertex, line_lags, make_rng, model_lags, random_feasible_covariances,
    random_hermitian_tail, symbol_values,
)

# infeasibility of this sequence depends on the grid parity at small N even
# though its Toeplitz matrix is positive definite
AWKWARD = CovarianceSequence([1.0, 0.0, -0.95])


def certificate_margin_reference(c, grid):
    """Independent LP formulation via scipy: maximize t s.t. t <= x_j and
    the node values x reproduce the lags of c."""
    size = grid.size
    angles = grid.angles
    nv = 1 + size
    rows = [np.concatenate(([0.0], np.full(size, 1.0 / size)))]
    rhs = [c.c[0].real]
    for k in range(1, c.n + 1):
        phase = np.exp(1j * k * angles)
        rows.append(np.concatenate(([0.0], phase.real / size)))
        rhs.append(c.c[k].real)
        rows.append(np.concatenate(([0.0], phase.imag / size)))
        rhs.append(c.c[k].imag)
    A_ub = np.zeros((size, nv))
    A_ub[:, 0] = 1.0
    A_ub[:, 1:] = -np.eye(size)
    cost = np.zeros(nv)
    cost[0] = -1.0
    res = linprog(
        cost,
        A_ub=A_ub,
        b_ub=np.zeros(size),
        A_eq=np.array(rows),
        b_eq=np.array(rhs),
        bounds=[(None, None)] * nv,
        method="highs",
    )
    assert res.status == 0, f"reference LP failed: {res.message}"
    return -res.fun


def equality_form_margin(c, N):
    """HiGHS margin of max t over t + mean(s) = c_0 and the node means of
    s e^{ik theta} = c_k, s >= 0, at 1e-10 feasibility tolerances.

    Equality rows and bounds only: at N = 4096 HiGHS solves this form in
    about a second, where the inequality form above needs 2N dense rows.
    """
    size = 2 * N
    theta = np.pi * np.arange(-N + 1, N + 1) / N
    rows, rhs = [np.concatenate(([1.0], np.full(size, 1.0 / size)))], [c[0].real]
    for k in range(1, len(c)):
        phase = np.exp(1j * k * theta) / size
        rows += [np.concatenate(([0.0], phase.real)), np.concatenate(([0.0], phase.imag))]
        rhs += [c[k].real, c[k].imag]
    cost = np.zeros(size + 1)
    cost[0] = -1.0
    res = linprog(
        cost, A_eq=np.array(rows), b_eq=np.array(rhs),
        bounds=[(None, None)] + [(0, None)] * size, method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, f"reference LP failed: {res.message}"
    return -res.fun


def ordinary_maxent_q(c):
    """q_0 ... q_n of the N = infinity maximum-entropy denominator Q = |a|^2 / sigma^2,
    and the condition number of T_n.

    Yule-Walker: x solves T_n x = e_0 with T[k, l] = c_{k-l}, so a = x / x_0 is the
    predictor, sigma^2 = 1 / x_0 and q_k = sum_j x_{j+k} conj(x_j) / x_0.  No grid,
    no FFT and no Newton step; O(n^3) work.
    """
    n = len(c) - 1
    T = np.array([[c[k - l] if k >= l else np.conj(c[l - k]) for l in range(n + 1)]
                  for k in range(n + 1)])
    x = np.linalg.solve(T, np.eye(n + 1)[0])
    q = np.array([np.sum(x[k:] * np.conj(x[: n + 1 - k])) for k in range(n + 1)]) / x[0].real
    return q, np.linalg.cond(T)


class TestSequences:
    def test_covariance_validation(self):
        with pytest.raises(ValueError):
            CovarianceSequence([])
        with pytest.raises(ValueError):
            CovarianceSequence([-1.0, 0.2])
        with pytest.raises(ValueError):
            CovarianceSequence([0.0, 0.2])
        with pytest.raises(ValueError):
            CovarianceSequence([1.0 + 0.5j, 0.2])

    def test_covariance_accessors(self):
        c = CovarianceSequence([2.0, 0.1 + 0.2j])
        assert c.n == 1
        assert c.sup_norm() == pytest.approx(2.0)

    def test_cepstral_with_zero(self):
        m = CepstralSequence([0.1 - 0.3j, 0.05])
        assert m.n == 2
        padded = m.with_zero()
        assert padded[0] == 0.0
        np.testing.assert_allclose(padded[1:], m.m)

    def test_cepstral_needs_entries(self):
        with pytest.raises(ValueError):
            CepstralSequence([])


class TestToeplitz:
    def test_structure(self):
        c = CovarianceSequence([1.0, 0.3 + 0.1j, -0.2j])
        T = toeplitz_matrix(c)
        assert T.shape == (3, 3)
        np.testing.assert_allclose(T, T.conj().T)
        assert T[1, 0] == pytest.approx(0.3 + 0.1j)
        assert T[0, 1] == pytest.approx(0.3 - 0.1j)
        assert T[2, 0] == pytest.approx(-0.2j)

    def test_positive_boundary(self):
        flag, smallest = toeplitz_positive(CovarianceSequence([1.0, 0.99]))
        assert flag and smallest == pytest.approx(0.01)
        flag, smallest = toeplitz_positive(CovarianceSequence([1.0, 1.0]))
        assert not flag and smallest == pytest.approx(0.0, abs=1e-12)
        flag, _ = toeplitz_positive(CovarianceSequence([1.0, 1.01]))
        assert not flag

    def test_awkward_instance_matrix(self):
        eigs = np.linalg.eigvalsh(toeplitz_matrix(AWKWARD))
        np.testing.assert_allclose(eigs, [0.05, 1.0, 1.95], atol=1e-12)
        assert toeplitz_positive(AWKWARD)[0]


class TestMomentExtraction:
    def test_covariance_moments_of_symbol(self):
        # moments of a degree-<=n spectrum are exactly its coefficients
        rng = make_rng(211)
        grid = DiscreteGrid(8)
        tail = random_hermitian_tail(rng, 3, scale=0.1)
        p = SymmetricPseudoPolynomial(np.concatenate(([2.0], tail)))
        c = covariance_moments(eval_symbol(p, grid), 3)
        np.testing.assert_allclose(c.c, p.coeffs, atol=1e-12)

    def test_cepstral_moments_of_exponential(self):
        # for phi = exp(g) with g a low-degree trigonometric polynomial the
        # log moments are exactly the coefficients of g
        rng = make_rng(223)
        grid = DiscreteGrid(8)
        gamma = random_hermitian_tail(rng, 3, scale=0.2)
        angles = grid.angles
        g = np.zeros(grid.size)
        for k in range(1, 4):
            g += 2.0 * (gamma[k - 1] * np.exp(-1j * k * angles)).real
        phi = SpectrumSamples(grid, np.exp(g))
        m = cepstral_moments(phi, 3)
        np.testing.assert_allclose(m.m, gamma, atol=1e-12)

    def test_cepstral_moments_need_positive_samples(self):
        grid = DiscreteGrid(3)
        values = np.ones(grid.size)
        values[0] = 0.0
        with pytest.raises(ValueError):
            cepstral_moments(SpectrumSamples(grid, values), 1)

    @pytest.mark.parametrize("n", [3, 4])
    def test_covariance_lags_must_stay_below_N(self, n):
        grid = DiscreteGrid(3)
        with pytest.raises(ValueError, match="0 <= n < N=3"):
            covariance_moments(SpectrumSamples(grid, np.ones(grid.size)), n)

    def test_scaling_shifts_only_the_mean(self):
        # log(alpha phi) = log alpha + log phi, so lags k >= 1 are unchanged
        grid = DiscreteGrid(6)
        values = 1.0 + 0.5 * np.cos(grid.angles)
        base = cepstral_moments(SpectrumSamples(grid, values), 2)
        scaled = cepstral_moments(SpectrumSamples(grid, 7.0 * values), 2)
        np.testing.assert_allclose(scaled.m, base.m, atol=1e-12)


class TestInnerProduct:
    def test_matches_spectral_pairing(self):
        # <C, P> equals the node average of C(zeta) P(zeta) when both symbols
        # have degree <= N - 1 (no aliasing on the grid)
        rng = make_rng(227)
        grid = DiscreteGrid(8)
        c = random_feasible_covariances(rng, 3, grid)
        tail = random_hermitian_tail(rng, 2)
        p = SymmetricPseudoPolynomial(np.concatenate(([1.5], tail)))
        c_symbol = SymmetricPseudoPolynomial(c.c)
        spectral = np.mean(
            eval_symbol(c_symbol, grid).real_values() * eval_symbol(p, grid).real_values()
        )
        assert inner_product(c, p) == pytest.approx(spectral, rel=1e-12)

    def test_quadratic_form_identity(self):
        # with P = |a|^2 the pairing equals the Toeplitz quadratic form a* T_n a
        rng = make_rng(229)
        for trial in range(10):
            n = int(rng.integers(1, 5))
            grid = DiscreteGrid(n + 3)
            c = random_feasible_covariances(rng, n, grid)
            a = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            p_coeffs = np.zeros(n + 1, dtype=complex)
            for k in range(n + 1):
                p_coeffs[k] = np.sum(a[k:] * np.conj(a[: n + 1 - k]))
            p = SymmetricPseudoPolynomial(p_coeffs)
            quad = np.conj(a) @ toeplitz_matrix(c) @ a
            assert quad.imag == pytest.approx(0.0, abs=1e-9)
            assert inner_product(c, p) == pytest.approx(quad.real, abs=1e-9)

    def test_positive_for_feasible_pairs(self):
        rng = make_rng(233)
        grid = DiscreteGrid(6)
        for _ in range(5):
            c = random_feasible_covariances(rng, 2, grid)
            from conftest import random_positive_symbol

            p = random_positive_symbol(rng, 2, grid)
            assert inner_product(c, p) > 0.0


class TestCertificate:
    def test_against_reference_lp(self):
        rng = make_rng(239)
        for trial in range(12):
            n = int(rng.integers(1, 4))
            N = n + 1 + int(rng.integers(0, 4))
            grid = DiscreteGrid(N)
            if trial % 3 == 0:
                c = CovarianceSequence(
                    np.concatenate(([1.0], random_hermitian_tail(rng, n, scale=0.6)))
                )
            else:
                c = random_feasible_covariances(rng, n, grid)
            cert = feasibility_certificate(c, grid)
            ref = certificate_margin_reference(c, grid)
            assert cert.margin == pytest.approx(ref, abs=1e-8)
            assert cert.feasible == (ref > 1e-12)

    def test_witness_reproduces_moments(self):
        rng = make_rng(241)
        grid = DiscreteGrid(7)
        c = random_feasible_covariances(rng, 2, grid)
        cert = feasibility_certificate(c, grid)
        assert cert.feasible
        assert cert.witness.values.real.min() == pytest.approx(cert.margin)
        for k in range(c.n + 1):
            assert integrate(cert.witness, k) == pytest.approx(c.c[k], abs=1e-9)

    def test_boundary_counts_as_infeasible(self):
        # all mass at theta = 0 matches (1, 1) with zero slack elsewhere
        cert = feasibility_certificate(CovarianceSequence([1.0, 1.0]), DiscreteGrid(4))
        assert not cert.feasible
        assert cert.margin == pytest.approx(0.0, abs=1e-9)
        assert cert.witness is None

    def test_monotone_under_grid_doubling(self):
        rng = make_rng(251)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            N = n + 1 + int(rng.integers(0, 3))
            c = random_feasible_covariances(rng, n, DiscreteGrid(N))
            assert feasibility_certificate(c, DiscreteGrid(N)).feasible
            assert feasibility_certificate(c, DiscreteGrid(2 * N)).feasible
            assert feasibility_certificate(c, DiscreteGrid(4 * N)).feasible

    def test_toeplitz_positivity_is_necessary(self):
        rng = make_rng(257)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            grid = DiscreteGrid(n + 2)
            c = random_feasible_covariances(rng, n, grid)
            assert toeplitz_positive(c)[0]

    def test_awkward_instance_parity_pattern(self):
        # positive definite Toeplitz matrix, yet infeasible on every small odd
        # grid: the witness needs nodes at +-pi/2, present only for even N
        expected = {3: False, 4: True, 5: False, 6: True, 7: False, 8: True, 9: False, 11: True}
        for N, feasible in expected.items():
            cert = feasibility_certificate(AWKWARD, DiscreteGrid(N))
            assert cert.feasible == feasible, f"N={N}"
        assert feasibility_certificate(AWKWARD, DiscreteGrid(3)).margin == pytest.approx(-0.9, abs=1e-6)
        assert feasibility_certificate(AWKWARD, DiscreteGrid(4)).margin == pytest.approx(0.05, abs=1e-6)
        assert feasibility_certificate(AWKWARD, DiscreteGrid(5)).margin == pytest.approx(
            -0.174264578, abs=1e-6
        )

    def test_degree_must_fit_grid(self):
        with pytest.raises(ValueError):
            feasibility_certificate(AWKWARD, DiscreteGrid(2))

    @pytest.mark.parametrize("lags", [[np.nan, 0.3], [1.0, np.nan], [np.inf, 0.3]])
    def test_non_finite_margin_is_refused(self, lags):
        with pytest.raises(ValueError, match="must be finite"):
            CovarianceSequence(np.array(lags, dtype=complex))
        # the constructor refuses such lags; set them afterwards to reach the
        # certificate's own check
        c = CovarianceSequence([1.0, 0.3])
        c.c = np.array(lags, dtype=complex)
        with pytest.raises(ValueError, match="non-finite|must be finite"):
            feasibility_certificate(c, DiscreteGrid(8))


# (kind, degree, N) of the dual-certificate cases; one seed per case
DUAL_CASES = (
    [(kind, n, N) for N in (8, 64, 512) for n in (1, 4, 7)
     for kind in ("line", "real", "complex", "infeasible")]
    + [("line", 5, 1024), ("real", 8, 1024), ("complex", 3, 1024)]
    + [("line", 8, 4096), ("real", 5, 4096), ("complex", 8, 4096), ("infeasible", 3, 4096)]
)


class TestDualCertificate:
    """Every verdict comes with its proof: a witness and a dual symbol Q."""

    @pytest.mark.parametrize("kind,n,N", DUAL_CASES)
    def test_verdict_is_proven(self, kind, n, N):
        rng = make_rng([263, n, N, len(kind)])
        if kind == "line":
            c = line_lags(rng, n)
        elif kind == "infeasible":
            c = np.concatenate(([1.0], random_hermitian_tail(rng, n, scale=1.5)))
        else:
            c = arma_lags(rng, n, N, kind == "real")
        seq = CovarianceSequence(c)
        cert = feasibility_certificate(seq, DiscreteGrid(N))
        tol = 1e-9 * seq.c[0].real
        assert cert.lag_residual <= tol
        assert cert.min_dual >= -1e-12    # every reduced cost at most 1e-12 at the optimum
        assert cert.duality_gap <= tol
        assert type(cert.feasible) is bool and type(cert.margin) is float    # JSON-ready
        assert_margin_sandwich(seq, cert.margin, N)

        # the same proof, recomputed here: Q >= 0 with q_0 = 1 bounds every
        # margin by <C,Q>, and <C,Q> equals the returned margin
        q = cert.dual.coeffs
        assert q.size == n + 1 and q[0] == pytest.approx(1.0, abs=1e-15)
        assert symbol_values(q, N).min() >= -1e-9
        assert_vertex(cert.dual, N)
        assert inner_product(seq, cert.dual) == pytest.approx(cert.margin, abs=tol)
        if cert.feasible:
            w = cert.witness.values.real
            assert w.min() == pytest.approx(cert.margin, abs=tol)
            theta = np.pi * np.arange(-N + 1, N + 1) / N
            lags = [np.mean(w * np.exp(1j * k * theta)) for k in range(n + 1)]
            np.testing.assert_allclose(lags, seq.c, rtol=0, atol=tol)
        else:
            # the separating hyperplane: Q >= 0 on the grid with <C,Q> <= 0
            assert inner_product(seq, cert.dual) <= tol
            assert cert.witness is None
        if kind == "line" and n >= 4 and N >= 512:
            assert cert.feasible    # a 1-10% noise floor fills fine grids
        if kind in ("real", "complex"):
            assert cert.feasible

        assert cert.margin == pytest.approx(equality_form_margin(seq.c, N), abs=tol)

    def test_peaked_real_lags(self):
        # a degree-6 real spectrum with poles near radius 0.9: its optimal
        # basis has condition number about 6e4, and ratio ties measured in
        # step length rather than in basic values once let a basic value
        # reach -7e-5, which the residual check refused
        c = CovarianceSequence([
            4.790171075404768, 2.2904400239315716 + 9.194034422677078e-17j,
            -1.6392759477203507 - 2.6020852139652106e-18j,
            -3.7972116934262696 - 6.814210654071395e-17j,
            -1.8852919540398108 - 2.0274580625478933e-17j,
            1.3055275733505372 - 8.744090521095593e-17j,
            2.601163702112401 + 2.1250362580715887e-17j,
        ])
        cert = feasibility_certificate(c, DiscreteGrid(1024))
        assert cert.feasible
        assert cert.lag_residual <= 1e-12 * c.c[0].real
        assert cert.margin == pytest.approx(equality_form_margin(c.c, 1024), abs=1e-9)
        assert_margin_sandwich(c, cert.margin, 1024)

    def test_real_lags_with_rounding_noise(self):
        # imaginary parts at rounding level leave 7 of 14 rows degenerate;
        # with the artificials numbered last, ratio ties kept them basic and
        # Bland's rule walked node by node through the pivot budget
        c = CovarianceSequence([
            2.1061148463105575, 1.3121942516116087 - 3.011883029489903e-17j,
            0.3288805367681948 - 1.566502732652103e-17j,
            0.05475172729680251 - 4.0409433571091527e-17j,
            0.02882859322037995 - 1.2274354438662066e-17j,
            0.025083740410080733 - 1.9543558435567854e-17j,
            0.012670411959741463 + 1.3986208025063007e-17j,
            0.00021411898234252006 - 1.666110531606147e-17j,
        ])
        cert = feasibility_certificate(c, DiscreteGrid(1024))
        assert cert.feasible and cert.pivots < 1000
        assert cert.lag_residual <= 1e-12 * c.c[0].real
        assert_margin_sandwich(c, cert.margin, 1024)

    def test_ill_conditioned_bases_fall_back_to_solves(self):
        # degree-8 real lags at N = 4096 whose pivots pass through
        # ill-conditioned bases.  A loop that only updates the basis inverse
        # drifts there: recomputed every pivot it cycles into the pivot
        # budget, recomputed every m pivots it returns Q dipping to -4e-10
        # and a margin 3.5e-8 low.  Solving with the basis keeps the proof tight.
        c = CovarianceSequence([
            511.16655141380136, 489.0938542425838, 428.5388560485437, 343.92907586346024,
            252.70257390147376, 169.6327973182855, 103.56284515979546, 57.04539002347947,
            27.99433061372179,
        ])
        cert = feasibility_certificate(c, DiscreteGrid(4096))
        tol = 1e-9 * c.c[0].real
        assert cert.feasible
        assert cert.margin == pytest.approx(0.005818169095391568, abs=tol)
        assert cert.lag_residual <= tol and cert.duality_gap <= tol and cert.min_dual >= -1e-9
        # tight to rounding, not only to the residual check's tolerance
        assert cert.margin == pytest.approx(0.005818169095391568, abs=1e-12 * c.c[0].real)
        assert cert.min_dual >= -1e-12
        assert_margin_sandwich(c, cert.margin, 4096)

    def test_residual_failure_raises(self, monkeypatch):
        import circext.moments

        solve = circext.moments._pivot_until_optimal

        def shifted_witness(*args, **kwargs):
            xb, y, pivots = solve(*args, **kwargs)
            xb = xb.copy()
            xb[0] += 1e-6
            return xb, y, pivots

        monkeypatch.setattr(circext.moments, "_pivot_until_optimal", shifted_witness)
        with pytest.raises(RuntimeError, match="certificate failed its residual check"):
            feasibility_certificate(CovarianceSequence([1.0, 0.3]), DiscreteGrid(64))

    def test_overflowing_ratios_fail_the_residual_check_without_a_simplex_warning(self):
        # the ratio test divides basic values near 1e308 by entries below 1:
        # the step is inf, as in IEEE arithmetic, and the proof then fails
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RuntimeError, match=UNCHECKED_MESSAGE):
                feasibility_certificate(CovarianceSequence([1.0, 1e308]), DiscreteGrid(3))
        assert not [w for w in caught if w.filename.endswith("simplex.py")]


ROOT_RADIUS = 0.97
REFERENCE_N = 4096    # the grid on which a drawn model's lags are taken


@st.composite
def arma_cases(draw):
    """(lags, N): a degree-n ARMA model with roots of modulus <= ROOT_RADIUS, and n < N <= 512."""
    n, real = draw(st.integers(3, 8)), draw(st.booleans())
    radius = st.floats(0.0, ROOT_RADIUS)

    def roots():
        if not real:
            pairs = st.tuples(radius, st.floats(0.0, 2.0 * np.pi))
            return [r * np.exp(1j * a) for r, a in draw(st.lists(pairs, min_size=n, max_size=n))]
        pairs = st.tuples(radius, st.floats(0.0, np.pi))
        upper = [r * np.exp(1j * a) for r, a in draw(st.lists(pairs, min_size=n // 2, max_size=n // 2))]
        line = draw(st.lists(st.floats(-ROOT_RADIUS, ROOT_RADIUS), min_size=n % 2, max_size=n % 2))
        return upper + list(np.conj(upper)) + line

    return model_lags(roots(), roots(), n, REFERENCE_N), draw(st.integers(n + 1, 512))


def peaked(n, radius, N):
    """Fixed (lags, N) case: n poles of modulus radius spread over the circle, no zeros."""
    return model_lags([], radius * np.exp(2j * np.pi * (np.arange(n) + 0.5) / n), n, REFERENCE_N), N


class TestGridDoublingProperty:
    """The 2N-th roots of unity are among the 4N-th, so the cone at 2N contains the
    cone at N: a verdict feasible at N stays feasible at 2N, and the margin does
    not fall.  Each margin is proven by its dual symbol."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(arma_cases())
    @example(peaked(8, ROOT_RADIUS, 2048))
    @example(peaked(5, 0.9, 2048))
    @example(peaked(3, ROOT_RADIUS, 2048))
    def test_feasible_verdicts_survive_doubling(self, case):
        c, N = case
        seq = CovarianceSequence(c)
        tol = CERT_TOL * seq.sup_norm()
        coarse, fine = (feasibility_certificate(seq, DiscreteGrid(M)) for M in (N, 2 * N))
        for M, cert in ((N, coarse), (2 * N, fine)):
            assert inner_product(seq, cert.dual) == pytest.approx(cert.margin, abs=tol)
            assert symbol_values(cert.dual.coeffs, M).min() >= -CERT_TOL
            assert cert.min_dual >= -1e-12    # every reduced cost at most 1e-12 at the optimum
            assert_margin_sandwich(seq, cert.margin, M)
        assert fine.margin >= coarse.margin - tol
        assert fine.feasible or not coarse.feasible

    def test_near_white_noise_lags_are_certified(self):
        # white noise plus lags at rounding level, the lags of a degree-6
        # model with every root at 0.  Every right-hand side is below
        # RATIO_TOL, so every primal ratio ties; a phase one from artificial
        # columns walked into bases of condition 4e10 here and missed the
        # lags by 3e-8 at N = 152.  The crash basis is optimal at once.
        c = CovarianceSequence([
            1.0, 2.77555756e-17, -2.77555756e-17, 4.85722573e-17 - 4.16333634e-17j,
            -3.46944695e-17, 4.85722573e-17, -4.85722573e-17,
        ])
        for N in (76, 152):
            cert = feasibility_certificate(c, DiscreteGrid(N))
            assert cert.feasible
            assert_margin_sandwich(c, cert.margin, N)


class TestCrashBasis:
    """The certificate LP starts at n disjoint pairs of adjacent nodes, whose dual
    symbol is prod_i (cos(pi/2N) - cos(theta - phi_i)) / q_0: nonnegative at
    every node and zero at the pairs, so the start is dual feasible."""

    @staticmethod
    def random_pairs(rng, n, N):
        """Starts of n disjoint adjacent node pairs (m, m+1 mod 2N), at random."""
        tokens = rng.permutation([2] * n + [1] * (2 * N - 2 * n))
        starts = (np.cumsum(tokens) - tokens)[tokens == 2]
        return (starts + rng.integers(2 * N)) % (2 * N)

    def test_random_pairs_give_a_dual_zero_exactly_at_the_pairs(self):
        rng = make_rng(271)
        for _ in range(60):
            N = int(rng.integers(2, 300))
            n = int(rng.integers(1, min(N, 9)))
            starts = self.random_pairs(rng, n, N)
            basis = np.concatenate((starts, (starts + 1) % (2 * N)))
            theta = np.pi * np.arange(-N + 1, N + 1) / N
            k = np.arange(1, n + 1)[:, None]
            rows = np.vstack((np.cos(k * theta), np.sin(k * theta)))
            B = rows[:, basis]
            assert np.linalg.matrix_rank(B) == 2 * n, (n, N, starts)
            q = 1.0 + np.linalg.solve(B.T, -np.ones(2 * n)) @ rows    # Q = 1 + y . rows, zero on the basis
            # factor i vanishes at pair i and is at least cos(pi/2N) - cos(3pi/2N) at every other node
            mids = theta[starts] + np.pi / (2 * N)
            factors = np.cos(np.pi / (2 * N)) - np.cos(theta - mids[:, None])
            pair = np.zeros_like(factors, dtype=bool)
            pair[np.arange(n), starts], pair[np.arange(n), (starts + 1) % (2 * N)] = True, True
            assert np.abs(factors[pair]).max() <= 1e-15
            assert factors[~pair].min() >= 0.99 * (np.cos(np.pi / (2 * N)) - np.cos(1.5 * np.pi / N))
            closed = np.prod(factors, axis=0)
            # the solve loses about cond(B) eps; adjacent columns make B ill-conditioned
            np.testing.assert_allclose(q, closed / closed.mean(), rtol=0, atol=1e-15 * np.linalg.cond(B) * q.max())

    @pytest.mark.parametrize("kind", ["line", "real", "complex", "white"])
    def test_crash_is_n_disjoint_adjacent_pairs(self, kind):
        rng = make_rng([277, len(kind)])
        for n in range(1, 9):
            for N in (n + 1, n + 2, 2 * n + 1, 64, 1024):
                if kind == "line":
                    c = line_lags(rng, n)
                elif kind == "white":
                    c = np.eye(n + 1)[0]
                else:
                    c = arma_lags(rng, n, N, kind == "real")
                starts = moments._crash_basis(CovarianceSequence(c).c, N).reshape(n, 2)
                assert ((starts[:, 1] - starts[:, 0]) % (2 * N) == 1).all(), (n, N)
                assert np.unique(starts).size == 2 * n, (n, N)

    @staticmethod
    def numpy_crash_basis(lags, N):
        """The all-array placement of the pairs, kept as an oracle: (pairs, dips of |V|^2)."""
        n, size = lags.size - 1, 2 * N
        eigs, vecs = np.linalg.eigh(hermitian_toeplitz(np.concatenate(([0.0], lags[1:]))))
        space = vecs[:, eigs <= eigs[0] + 1e-9 * np.abs(eigs).max()]
        v = space @ space[0].conj()
        power = coeffs_to_real(np.correlate(v, v, "full")[n:]) @ grid_basis(size, n)
        below, above = np.roll(power, 1), np.roll(power, -1)
        dips = np.flatnonzero((power <= below) & (power < above))
        dips = dips[np.argsort(power[dips])[:n]]
        starts = np.concatenate((dips - (below[dips] < above[dips]), np.arange(n - dips.size) * size // n))
        starts, steps = np.sort(starts % size), 2 * np.arange(n)
        starts = np.maximum.accumulate(starts - steps) + steps
        starts = np.minimum(starts, starts[:1] + size - 2 * n + steps) % size
        return np.stack((starts, (starts + 1) % size), axis=1).reshape(-1), dips

    def test_pairs_match_the_array_placement(self):
        # line lags at the angle of storage position 0 or 2N-1 put a dip of |V|^2 on
        # that node, so its pair can wrap round from 2N-1 to 0; white lags have no dip
        rng = make_rng(278)
        draws = few_dips = wrapped = 0
        for n in range(9):
            for N in sorted({n + 1, n + 2, 2 * n + 1, 64, 1024, 4096}):
                cases = [("edge", pos) for pos in (0, 2 * N - 1)]
                cases += [(kind, None) for kind in ("line", "real", "complex", "white") for _ in range(10)]
                for kind, pos in cases:
                    if kind == "edge":
                        c = 0.95 * np.exp(1j * np.pi * (pos - N + 1) / N * np.arange(n + 1))
                        c[0] = 1.0
                    elif kind == "line":
                        c = line_lags(rng, n)
                    elif kind == "white":
                        c = np.concatenate(([rng.uniform(0.5, 2.0)], 1e-17 * random_hermitian_tail(rng, n)))
                    else:
                        c = arma_lags(rng, n, N, kind == "real")
                    lags = CovarianceSequence(c).c
                    expected, dips = self.numpy_crash_basis(lags, N)
                    pairs = moments._crash_basis(lags, N)
                    assert pairs.dtype == expected.dtype and np.array_equal(pairs, expected), (kind, n, N)
                    if kind == "edge" and n > 0:
                        assert pos in dips, (n, N, pos)
                    draws += 1
                    few_dips += dips.size < n
                    wrapped += bool((pairs.reshape(-1, 2)[:, 0] == 2 * N - 1).any())
        assert draws >= 2000 and few_dips >= 100 and wrapped >= 100, (draws, few_dips, wrapped)


class TestDegenerateLags:
    """Lags at or near white noise, where every ratio of a phase one would tie."""

    @pytest.mark.parametrize("n", [0, 2, 4])
    def test_white_noise_has_margin_c0(self, n):
        c = CovarianceSequence(np.concatenate(([2.5], np.zeros(n))))
        for N in (n + 1, 8, 1024):
            cert = feasibility_certificate(c, DiscreteGrid(N))
            assert cert.feasible and cert.margin == 2.5 and cert.pivots == 0
            np.testing.assert_array_equal(cert.witness.values, 2.5)
            assert_margin_sandwich(c, cert.margin, N)

    def test_rounding_level_lags_are_all_certified(self):
        # 600 draws of white noise plus lags of size 1e-17; a phase one from
        # artificial columns refused 201 of them on its residual check
        rng = np.random.default_rng(17)
        for _ in range(600):
            n = int(rng.integers(1, 9))
            N = int(rng.integers(n + 1, 260))
            c = np.concatenate(([1.0], 1e-17 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))))
            seq = CovarianceSequence(c)
            cert = feasibility_certificate(seq, DiscreteGrid(N))
            assert cert.feasible and cert.margin == pytest.approx(1.0, abs=1e-12), (n, N)
            assert_margin_sandwich(seq, cert.margin, N)


class TestPolygonOracle:
    """For n = 1 the cone is a polygon: c = (1, c_1) is feasible on N exactly when
    c_1 lies inside the convex hull of the 2N nodes e^{i pi m/N}: the regular 2N-gon
    whose edges have outward normals at angles pi (m + 1/2)/N and lie cos(pi/2N) from
    the origin.  The oracle shares no code with the simplex."""

    @staticmethod
    def slack(c1, N):
        """Distance of c_1 inside the 2N-gon; negative outside."""
        normals = np.exp(-1j * np.pi * (np.arange(2 * N) + 0.5) / N)
        return np.cos(np.pi / (2 * N)) - (c1 * normals).real.max()

    def test_degree_one_verdicts(self):
        rng = make_rng(1301)
        sizes = [*range(2, 40), 64, 128, 257, 512]
        checked = 0
        for _ in range(60):
            c1 = (1.0 - 10.0 ** rng.uniform(-4.0, -1.0)) * np.exp(2j * np.pi * rng.random())
            seq = CovarianceSequence([1.0, c1])
            for N in sizes:
                slack = self.slack(c1, N)
                if abs(slack) <= 1e-9:
                    continue
                verdict = feasibility_certificate(seq, DiscreteGrid(N)).feasible
                assert verdict == (slack > 0), (c1, N, slack)
                checked += 1
        assert checked >= 2500

    def test_threshold_contract(self, monkeypatch):
        # find_threshold's N is feasible and N - 1 is not (unless N = 2), on draws whose
        # bisection also meets infeasible midpoints after a feasible probe
        rng = np.random.default_rng(3)
        certify, verdicts = approx._is_feasible, []
        monkeypatch.setattr(approx, "_is_feasible", lambda c, N: verdicts.append(certify(c, N)) or verdicts[-1])
        bisected_down = 0
        for _ in range(40):
            c1 = (1.0 - 10.0 ** rng.uniform(-3.0, -1.0)) * np.exp(2j * np.pi * rng.random())
            verdicts.clear()
            N = find_threshold(CovarianceSequence([1.0, c1]), n_max=512)
            assert self.slack(c1, N) > 1e-9, (c1, N)
            assert N == 2 or self.slack(c1, N - 1) < -1e-9, (c1, N)
            bisected_down += not all(verdicts[verdicts.index(True):])
        assert bisected_down >= 20


class TestThresholdContract:
    """find_threshold's contract for degrees above one, against the equality-form LP.

    The lags are the certify benchmark's spectral lines: n = 2 ... 5, 1-10% white
    noise, n_max = 512.  HiGHS, which shares no code with the simplex, finds the
    returned N feasible and N - 1 infeasible unless N = n + 1.  No margin of these
    draws lies within 1e-4 of zero, so the 1e-9 allowance decides no verdict.
    """

    def test_returned_grid_is_feasible_and_the_one_below_is_not(self):
        rng = make_rng(11)
        for draw in range(40):
            n = 2 + draw % 4
            c = line_lags(rng, n)
            N = find_threshold(CovarianceSequence(c), n_max=512)
            assert equality_form_margin(c, N) > -1e-9, (c, N)
            assert N == n + 1 or equality_form_margin(c, N - 1) < 1e-9, (c, N)


class TestOrdinaryMaxentOracle:
    """maxent_solve tends to the N = infinity solution at the aliasing rate.

    The lags are those of 1/|b|^2 with b(z) = prod(1 - r z) of degree n = 1 ... 8,
    |r| < 0.9, scaled to c_0 = 1; rho is the largest |r| and kappa the condition
    number of T_n.  Over 2000 such draws on other seeds, with N from n+1 to 4096,
    the distance of q_N to q_inf relative to max |q_inf| never exceeded
    1200 rho^(2(N-n)) + 2 kappa (residual + eps): aliasing of lags k <= n from
    lag 2N-k, plus the Yule-Walker perturbation bound on the solver's stopping
    residual and on rounding.  The test doubles both constants.
    """

    def test_yule_walker_recovers_the_model(self):
        rng = make_rng(20261020)
        for n in range(1, 9):
            poles = rng.uniform(0.0, 0.9, n) * np.exp(2j * np.pi * rng.random(n))
            b = np.poly(poles)[::-1]    # coefficients of prod(1 - r z), b_0 = 1
            expected = [np.sum(b[k:] * np.conj(b[: n + 1 - k])) for k in range(n + 1)]
            q, kappa = ordinary_maxent_q(model_lags([], poles, n, 2**15))
            assert np.abs(q - expected).max() <= 1e-14 * kappa * np.abs(expected).max()

    def test_distance_to_the_ordinary_solution(self):
        rng = make_rng(20261021)
        eps = np.finfo(float).eps
        reached = 0
        for i in range(40):
            n = 1 + i % 8
            poles = rng.uniform(0.0, 0.9, n) * np.exp(2j * np.pi * rng.random(n))
            rho = float(np.abs(poles).max())
            c = model_lags([], poles, n, 2**15)
            seq = CovarianceSequence(c / c[0].real)
            q_inf, kappa = ordinary_maxent_q(seq.c)
            scale = np.abs(q_inf).max()
            for N in sorted({n + 1, n + 2, n + 3, *np.geomspace(n + 4, 4096, 8).astype(int)}):
                grid = DiscreteGrid(int(N))
                try:
                    report = maxent_solve(seq, grid)
                except (BoundaryCollapseError, MaxIterationsError):
                    assert not feasibility_certificate(seq, grid).feasible, (n, rho, N)
                    continue
                distance = np.abs(report.q.coeffs - q_inf).max() / scale
                floor = kappa * (report.residual + eps)
                assert distance <= 2400 * rho ** (2 * (N - n)) + 4 * floor, (n, rho, N)
                if rho ** (2 * N) < 1e-16 and floor <= 1e-13:
                    assert distance <= 1e-12, (n, rho, N)
                    reached += 1
        assert reached >= 60
