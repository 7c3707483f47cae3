"""Moment functionals, the Toeplitz test, and the LP feasibility certificate."""

import numpy as np
import pytest
from scipy.optimize import linprog

from circext import (
    CepstralSequence,
    CovarianceSequence,
    DiscreteGrid,
    SpectrumSamples,
    SymmetricPseudoPolynomial,
    cepstral_moments,
    covariance_moments,
    eval_symbol,
    feasibility_certificate,
    inner_product,
    integrate,
    toeplitz_matrix,
    toeplitz_positive,
)

from conftest import make_rng, random_feasible_covariances, random_hermitian_tail

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
