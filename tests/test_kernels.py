"""FFT moment kernel, Toeplitz builder and the moment-built Newton Hessians."""

import numpy as np
import pytest

from circext import (
    CepstralSequence,
    CovarianceSequence,
    DiscreteGrid,
    JointProblem,
    SymmetricPseudoPolynomial,
    eval_symbol,
)
from circext.cepstral import _joint_derivatives, _real_hessian
from circext.kernels import hermitian_toeplitz, moment_vector, trig_basis, trig_gram

from conftest import make_rng, random_positive_symbol


def direct_moments(N, values, kmax):
    """(1/2N) sum_j e^{i pi k j / N} v_j, one lag at a time.

    The phase exponent k*j is reduced mod 2N in integers and looked up in a
    table of the 2N-th roots of unity, so the reference carries no phase
    error that grows with k.
    """
    size = 2 * N
    j = np.arange(-N + 1, N + 1)
    roots = np.exp(1j * np.pi * np.arange(size) / N)
    return np.array([np.mean(roots[(k * j) % size] * values) for k in range(kmax + 1)])


def random_values(rng, size, complex_values):
    values = rng.standard_normal(size)
    if complex_values:
        values = values + 1j * rng.standard_normal(size)
    return values


def dense_gram(angles, weight, n):
    B = trig_basis(angles, n)
    return (B * weight) @ B.T / angles.size


def joint_moments(grid, pv, qv, lam, n):
    """The moment rows joint_solve transforms at node samples (P, Q); the targets do not enter."""
    prob = JointProblem(grid, CovarianceSequence(np.ones(n + 1)), CepstralSequence(np.zeros(n)), lam)
    return _joint_derivatives(prob, np.array((pv, qv)))[1]


def rel_err(got, ref):
    return float(np.max(np.abs(got - ref))) / float(np.max(np.abs(ref)))


class TestMomentVector:
    @pytest.mark.parametrize("N", [1, 2, 3, 8, 64, 4096])
    @pytest.mark.parametrize("complex_values", [False, True])
    def test_matches_direct_sum(self, N, complex_values):
        rng = make_rng(N)
        angles = DiscreteGrid(N).angles
        n = min(5, N - 1)
        values = random_values(rng, 2 * N, complex_values)
        reference = direct_moments(N, values, max(2 * n, N))
        for kmax in (0, n, 2 * n, N):
            got = moment_vector(angles, values, kmax)
            assert got.shape == (kmax + 1,)
            assert rel_err(got, reference[: kmax + 1]) <= 1e-12

    def test_lags_wrap_modulo_the_grid(self):
        N = 8
        values = random_values(make_rng(1), 2 * N, True)
        got = moment_vector(DiscreteGrid(N).angles, values, 4 * N + 3)
        np.testing.assert_allclose(got[2 * N :], got[: 2 * N + 4], rtol=0, atol=1e-15)
        assert rel_err(got, direct_moments(N, values, 4 * N + 3)) <= 1e-12

    def test_batched_call_equals_row_calls(self):
        N = 64
        angles = DiscreteGrid(N).angles
        rng = make_rng(2)
        values = np.stack([random_values(rng, 2 * N, k % 2 == 1) for k in range(6)])
        values = values.reshape(2, 3, 2 * N)
        batched = moment_vector(angles, values, 10)
        assert batched.shape == (2, 3, 11)
        for i in range(2):
            for r in range(3):
                np.testing.assert_array_equal(batched[i, r], moment_vector(angles, values[i, r], 10))

    def test_row_length_must_match_the_grid(self):
        with pytest.raises(ValueError, match="expected 16 values"):
            moment_vector(DiscreteGrid(8).angles, np.ones(15), 3)


class TestToeplitz:
    def test_matches_loop(self):
        rng = make_rng(3)
        h = random_values(rng, 5, True)
        h[0] = h[0].real
        T = hermitian_toeplitz(h)
        for k in range(5):
            for l in range(5):
                assert T[k, l] == (h[k - l] if k >= l else np.conj(h[l - k]))
        np.testing.assert_array_equal(T, T.conj().T)


class TestMomentBuiltHessians:
    @pytest.mark.parametrize("n", [0, 1, 3, 5])
    @pytest.mark.parametrize("N", [8, 64, 1024])
    def test_gram_matches_dense_product(self, n, N):
        rng = make_rng(100 * N + n)
        grid = DiscreteGrid(N)
        weight = 0.1 + rng.random(grid.size)
        G = trig_gram(moment_vector(grid.angles, weight, 2 * n))
        assert rel_err(G, G.T) <= 1e-15
        assert rel_err(G, dense_gram(grid.angles, weight, n)) <= 1e-12

    @pytest.mark.parametrize("n,N", [(1, 8), (3, 64), (5, 1024)])
    def test_fixed_numerator_hessian(self, n, N):
        # newton_solve builds its Hessian as trig_gram of the P/Q^2 moments
        rng = make_rng(n + N)
        grid = DiscreteGrid(N)
        pv = eval_symbol(random_positive_symbol(rng, n, grid), grid).real_values()
        qv = eval_symbol(random_positive_symbol(rng, n, grid), grid).real_values()
        mom = moment_vector(grid.angles, np.stack([pv / qv, pv / qv**2]), 2 * n)
        dense = dense_gram(grid.angles, pv / qv**2, n)
        assert rel_err(trig_gram(mom[1]), dense) <= 1e-12

    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    @pytest.mark.parametrize("n,N", [(1, 8), (3, 64), (5, 1024)])
    def test_joint_hessian(self, n, N, lam):
        rng = make_rng(n + N + 7)
        grid = DiscreteGrid(N)
        tail = random_positive_symbol(rng, n, grid).coeffs[1:]
        p = SymmetricPseudoPolynomial(np.concatenate(([1.0], 0.3 * tail / np.abs(tail).sum())))
        pv = eval_symbol(p, grid).real_values()
        qv = eval_symbol(random_positive_symbol(rng, n, grid), grid).real_values()
        H = _real_hessian(joint_moments(grid, pv, qv, lam, n))
        B = trig_basis(grid.angles, n)
        Bp = B[1:]
        qq = (B * (pv / qv**2)) @ B.T / grid.size
        qp = -(B / qv) @ Bp.T / grid.size
        pp = (Bp * (1.0 / pv + lam / pv**2)) @ Bp.T / grid.size
        dense = np.block([[qq, qp], [qp.T, pp]])
        assert rel_err(H, H.T) <= 1e-15
        assert rel_err(H, dense) <= 1e-12

    def test_joint_moment_rows(self):
        # the last row is 1/P whatever lambda, as the cepstral gradient needs
        grid = DiscreteGrid(16)
        rng = make_rng(5)
        pv = 1.0 + 0.5 * rng.random(grid.size)
        qv = 1.0 + 0.5 * rng.random(grid.size)
        for lam in (0.0, 0.1):
            mom = joint_moments(grid, pv, qv, lam, 2)
            np.testing.assert_allclose(
                mom[-1], moment_vector(grid.angles, 1.0 / pv, 4), rtol=0, atol=1e-15
            )
