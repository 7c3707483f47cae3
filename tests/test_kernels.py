"""FFT moment kernel, cached trig basis, Toeplitz builder and the moment-built Newton Hessians."""

import numpy as np
import pytest

from circext import (
    CepstralSequence,
    Circulant,
    CovarianceSequence,
    DiscreteGrid,
    JointProblem,
    Signal,
    SpectrumSamples,
    SymmetricPseudoPolynomial,
    banded_check,
    dft_direct,
    eval_symbol,
    feasibility_certificate,
    idft_direct,
    integrate,
)
from circext.cepstral import _joint_derivatives, _real_hessian
from circext.kernels import grid_basis, hermitian_toeplitz, moment_vector, trig_basis, trig_gram

from conftest import make_rng, random_positive_symbol


def direct_moments(N, values, kmax):
    """(1/2N) sum_j e^{i pi k j / N} v_j along the last axis, one lag at a time.

    The phase exponent k*j is reduced mod 2N in integers and looked up in a
    table of the 2N-th roots of unity, so the reference carries no phase
    error that grows with k.
    """
    size = 2 * N
    j = np.arange(-N + 1, N + 1)
    roots = np.exp(1j * np.pi * np.arange(size) / N)
    return np.stack([np.mean(roots[(k * j) % size] * values, axis=-1) for k in range(kmax + 1)], axis=-1)


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
    """Real rows against the exact-phase direct sum, mirrored lags above N included."""

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 64, 4096])
    def test_matches_direct_sum(self, N):
        rng = make_rng(N)
        angles = DiscreteGrid(N).angles
        n = min(5, N - 1)
        values = rng.standard_normal((2, 2, 2 * N))
        reference = direct_moments(N, values, 2 * N - 1)
        for kmax in (0, n, 2 * n, N, 2 * N - 1):
            got = moment_vector(angles, values, kmax)
            assert got.shape == (2, 2, kmax + 1)
            assert rel_err(got, reference[..., : kmax + 1]) <= 1e-12

    def test_lags_wrap_modulo_the_grid(self):
        N = 8
        values = random_values(make_rng(1), 2 * N, False)
        got = moment_vector(DiscreteGrid(N).angles, values, 4 * N + 3)
        np.testing.assert_allclose(got[2 * N :], got[: 2 * N + 4], rtol=0, atol=1e-15)
        # a real row's lag 2N - k is the conjugate of its lag k
        np.testing.assert_allclose(got[2 * N - 1 : N : -1], np.conj(got[1:N]), rtol=0, atol=1e-15)
        assert rel_err(got, direct_moments(N, values, 4 * N + 3)) <= 1e-12

    def test_batched_call_equals_row_calls(self):
        N = 64
        angles = DiscreteGrid(N).angles
        values = make_rng(2).standard_normal((2, 3, 2 * N))
        batched = moment_vector(angles, values, 2 * N + 10)
        assert batched.shape == (2, 3, 2 * N + 11)
        for i in range(2):
            for r in range(3):
                np.testing.assert_array_equal(batched[i, r], moment_vector(angles, values[i, r], 2 * N + 10))

    def test_row_length_must_match_the_grid(self):
        with pytest.raises(ValueError, match="expected 16 values"):
            moment_vector(DiscreteGrid(8).angles, np.ones(15), 3)

    def test_complex_rows_are_refused(self):
        # complex rows take the grid's inverse transform, never a half spectrum
        with pytest.raises(TypeError):
            moment_vector(DiscreteGrid(8).angles, np.ones(16, dtype=complex), 3)


class TestComplexCallers:
    """integrate and banded_check read complex samples through the grid's inverse transform."""

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 64])
    def test_integrate_matches_the_direct_transforms(self, N):
        grid = DiscreteGrid(N)
        spectrum = SpectrumSamples(grid, random_values(make_rng(N + 50), grid.size, True))
        signal = idft_direct(spectrum)
        reference = direct_moments(N, spectrum.values, 2 * N - 1)
        for k in range(-N, N + 1):
            got = integrate(spectrum, k)
            # lag -N is lag N on the grid
            assert abs(got - signal[k if k > -N else N]) <= 1e-12 * np.abs(signal.values).max()
            assert abs(got - reference[k % grid.size]) <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("N", [2, 3, 8, 64])
    def test_banded_check_reads_the_direct_window(self, N):
        grid = DiscreteGrid(N)
        rng = make_rng(N + 60)
        for n in range(0, N, max(1, N // 8)):
            coeffs = np.where(np.abs(grid.indices) <= n, random_values(rng, grid.size, True), 0.0)
            symbol = Circulant(grid, dft_direct(Signal(grid, coeffs)).values)
            assert banded_check(symbol, n)
            assert not banded_check(symbol, n - 1)


def trig_basis_loop(angles, n):
    """Rows [1, 2cos(k t) for k = 1..n, 2sin(k t) for k = 1..n], one frequency at a time."""
    rows = [np.ones_like(angles)]
    rows += [2.0 * np.cos(k * angles) for k in range(1, n + 1)]
    rows += [2.0 * np.sin(k * angles) for k in range(1, n + 1)]
    return np.array(rows)


class TestTrigBasis:
    @pytest.mark.parametrize("N", [1, 2, 3, 8, 64, 1024, 4096])
    def test_equals_per_frequency_loop_bit_for_bit(self, N):
        # the certificate rows and the Newton Hessians are built from this
        # basis, so the one-product form must not move a single bit
        angles = DiscreteGrid(N).angles
        for n in range(min(8, N) + 1):
            B = trig_basis(angles, n)
            assert B.shape == (2 * n + 1, 2 * N)
            assert np.array_equal(B, trig_basis_loop(angles, n)), f"n={n}"


class TestGridBasis:
    """The cached basis is trig_basis at the grid's angles, read-only and shared."""

    @pytest.mark.parametrize("N", [1, 2, 3, 64, 4096])
    def test_equals_trig_basis_at_the_grid_angles(self, N):
        grid = DiscreteGrid(N)
        for n in range(min(8, N) + 1):
            B = grid_basis(grid.size, n)
            assert B.tobytes() == trig_basis(grid.angles, n).tobytes(), f"n={n}"
            assert grid_basis(grid.size, n) is B and not B.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                B[0, 0] = 2.0

    def test_certificate_leaves_the_basis_alone(self):
        grid, c = DiscreteGrid(16), CovarianceSequence([1.0, 0.5, 0.2 + 0.1j])
        B = grid_basis(grid.size, c.n)
        before = B.copy()
        assert feasibility_certificate(c, grid).feasible
        assert grid_basis(grid.size, c.n) is B and not B.flags.writeable
        assert np.array_equal(B, before)

    def test_one_extend_cycle_stays_cached(self):
        # the (2N, n) keys of the extend benchmark: its slots at N = 64, 256, 512 and
        # 1024 and the closing maxent at N = 4096
        keys = [(128, n) for n in range(1, 6)] + [(512, n) for n in range(1, 6)]
        keys += [(1024, 4), (1024, 5)] + [(2048, n) for n in range(1, 5)] + [(8192, 1)]
        bases = [grid_basis(*key) for key in keys]
        assert len(set(keys)) == 17 and sum(B.nbytes for B in bases) == 932864
        assert all(grid_basis(*key) is B for key, B in zip(keys, bases))


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
    @pytest.mark.parametrize("n", range(9))
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
