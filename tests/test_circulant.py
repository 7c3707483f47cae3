"""Symbols, circulant operators, and the pointwise algebra homomorphism."""

import numpy as np
import pytest

from circext import (
    Circulant,
    CyclicShift,
    DiscreteGrid,
    GridMismatchError,
    HermitianCirculant,
    Signal,
    SingularSymbolError,
    SpectrumSamples,
    SymmetricPseudoPolynomial,
    add,
    banded_check,
    constant_symbol,
    eval_symbol,
    idft,
    invert,
    is_positive_on_grid,
    multiply,
    symbol_from_samples,
)

from conftest import make_rng, random_positive_symbol


def random_symbol(rng, n, scale=1.0):
    coeffs = scale * (rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
    coeffs[0] = coeffs[0].real
    return SymmetricPseudoPolynomial(coeffs)


def dense_oracle(grid, circ):
    """Independent dense build: entry (t, s) is the coefficient at t - s.

    Coefficients come from the inverse transform of the symbol samples, and
    the difference t - s is wrapped back into the signed index window.
    """
    g = idft(SpectrumSamples(grid, circ.sample_values)).values
    size = grid.size
    M = np.zeros((size, size), dtype=complex)
    for pt in range(size):
        for ps in range(size):
            diff = (pt - ps) % size
            # wrap into -N+1 ... N
            k = diff if diff <= grid.N else diff - size
            M[pt, ps] = g[grid.position(k)]
    return M


class TestSymbol:
    def test_constant(self):
        p = constant_symbol(2.0)
        assert p.degree == 0
        grid = DiscreteGrid(4)
        np.testing.assert_allclose(eval_symbol(p, grid).real_values(), 2.0)

    def test_p0_must_be_real(self):
        with pytest.raises(ValueError):
            SymmetricPseudoPolynomial(np.array([1.0 + 0.5j, 0.2]))

    def test_coefficients_must_be_finite(self):
        for coeffs in ([np.nan], [1.0, np.inf], [1.0, complex(0.1, np.nan)]):
            with pytest.raises(ValueError, match="must be finite"):
                SymmetricPseudoPolynomial(np.array(coeffs))

    def test_eval_matches_loop(self):
        rng = make_rng(31)
        grid = DiscreteGrid(6)
        p = random_symbol(rng, 3)
        vals = np.zeros(grid.size, dtype=complex)
        for pos in range(grid.size):
            zeta = grid.nodes[pos]
            total = p.coeffs[0]
            for k in range(1, p.degree + 1):
                total = total + p.coeffs[k] * zeta ** (-k) + np.conj(p.coeffs[k]) * zeta**k
            vals[pos] = total
        np.testing.assert_allclose(vals.imag, 0.0, atol=1e-12)
        np.testing.assert_allclose(eval_symbol(p, grid).real_values(), vals.real, atol=1e-12)

    def test_degree_cap(self):
        grid = DiscreteGrid(2)
        with pytest.raises(ValueError):
            eval_symbol(SymmetricPseudoPolynomial(np.array([1.0, 0.1, 0.1, 0.1])), grid)

    def test_top_coefficient_real_at_degree_N(self):
        grid = DiscreteGrid(2)
        good = SymmetricPseudoPolynomial(np.array([1.0, 0.1j, 0.3]))
        vals = eval_symbol(good, grid).real_values()
        np.testing.assert_allclose(vals[grid.position(0)], 1.0 + 0.3)
        bad = SymmetricPseudoPolynomial(np.array([1.0, 0.1, 0.3j]))
        with pytest.raises(ValueError):
            eval_symbol(bad, grid)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_coefficient_round_trip(self, n):
        rng = make_rng(40 + n)
        grid = DiscreteGrid(5)
        p = random_symbol(rng, n)
        q = symbol_from_samples(eval_symbol(p, grid), n)
        np.testing.assert_allclose(q.coeffs, p.coeffs, atol=1e-12)

    @pytest.mark.parametrize("n", [-1, 5])
    def test_sample_degree_must_lie_in_the_window(self, n):
        grid = DiscreteGrid(4)
        with pytest.raises(ValueError, match="outside"):
            symbol_from_samples(SpectrumSamples(grid, np.ones(grid.size)), n)

    def test_samples_round_trip_at_full_degree(self):
        # any real sample vector is reproduced exactly by its degree-N symbol
        rng = make_rng(43)
        grid = DiscreteGrid(4)
        values = rng.standard_normal(grid.size)
        p = symbol_from_samples(SpectrumSamples(grid, values), grid.N)
        np.testing.assert_allclose(eval_symbol(p, grid).real_values(), values, atol=1e-10)

    def test_positivity_margin(self):
        grid = DiscreteGrid(4)
        flag, margin = is_positive_on_grid(constant_symbol(0.5), grid)
        assert flag and margin == pytest.approx(0.5)
        dip = SymmetricPseudoPolynomial(np.array([1.0, 0.6]))
        flag, margin = is_positive_on_grid(dip, grid)
        assert not flag
        assert margin == pytest.approx(1.0 - 1.2)

    def test_random_positive_generator_is_positive(self):
        rng = make_rng(47)
        grid = DiscreteGrid(8)
        for _ in range(10):
            p = random_positive_symbol(rng, 3, grid)
            flag, _ = is_positive_on_grid(p, grid)
            assert flag


class TestDense:
    @pytest.mark.parametrize("N", [2, 4, 16, 32])
    def test_dense_matches_oracle(self, N):
        rng = make_rng(300 + N)
        grid = DiscreteGrid(N)
        circ = Circulant.from_symbol(grid, random_symbol(rng, min(3, N - 1)))
        np.testing.assert_allclose(circ.dense(), dense_oracle(grid, circ), atol=1e-10)

    def test_apply_matches_dense(self):
        rng = make_rng(51)
        grid = DiscreteGrid(6)
        circ = Circulant.from_symbol(grid, random_symbol(rng, 2))
        x = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        out = circ.apply(Signal(grid, x))
        np.testing.assert_allclose(out.values, circ.dense() @ x, atol=1e-10)

    def test_shift_invariance_and_hermitian(self):
        rng = make_rng(53)
        grid = DiscreteGrid(5)
        circ = Circulant.from_symbol(grid, random_symbol(rng, 2))
        M = circ.dense()
        S = CyclicShift(grid).dense()
        np.testing.assert_allclose(S @ M @ S.conj().T, M, atol=1e-10)
        np.testing.assert_allclose(M, M.conj().T, atol=1e-10)

    def test_dense_cap(self):
        grid = DiscreteGrid(300)
        circ = HermitianCirculant.identity(grid)
        with pytest.raises(ValueError):
            circ.dense()

    def test_dense_cap_comes_before_allocation(self, monkeypatch):
        grid = DiscreteGrid(257)
        circ = HermitianCirculant.identity(grid)

        def refuse(*args, **kwargs):
            raise AssertionError("dense() allocated before its size check")

        for name in ("zeros", "exp", "outer"):
            monkeypatch.setattr(np, name, refuse)
        for dense in (CyclicShift(grid).dense, circ.dense):
            with pytest.raises(ValueError, match="capped at 2N <= 512, grid has 514"):
                dense()

    def test_hermitian_requires_real_samples(self):
        grid = DiscreteGrid(3)
        with pytest.raises(ValueError):
            HermitianCirculant(grid, grid.nodes)


class TestShift:
    def test_permutation_matrix(self):
        grid = DiscreteGrid(4)
        S = CyclicShift(grid)
        np.testing.assert_allclose(S.as_circulant(1).dense().real, S.dense(1), atol=1e-12)

    def test_power_identities(self):
        grid = DiscreteGrid(3)
        S = CyclicShift(grid)
        size = grid.size
        np.testing.assert_allclose(
            np.linalg.matrix_power(S.dense(1), size), np.eye(size), atol=1e-12
        )
        np.testing.assert_allclose(S.dense(-2), S.dense(2).T, atol=1e-12)

    def test_apply_rolls(self):
        grid = DiscreteGrid(3)
        sig = Signal(grid, np.arange(grid.size, dtype=float))
        shifted = CyclicShift(grid).apply(sig)
        np.testing.assert_allclose(shifted.values, np.roll(sig.values, -1))


class TestAlgebra:
    @pytest.mark.parametrize("N", [4, 16, 32])
    def test_homomorphism(self, N):
        rng = make_rng(400 + N)
        grid = DiscreteGrid(N)
        a = Circulant.from_symbol(grid, random_symbol(rng, 2))
        b = Circulant.from_symbol(grid, random_symbol(rng, min(3, N - 1)))
        np.testing.assert_allclose(
            multiply(a, b).dense(), a.dense() @ b.dense(), atol=1e-10
        )
        np.testing.assert_allclose(add(a, b).dense(), a.dense() + b.dense(), atol=1e-10)

    def test_inverse(self):
        rng = make_rng(59)
        grid = DiscreteGrid(8)
        a = Circulant.from_symbol(grid, random_positive_symbol(rng, 2, grid))
        inv = invert(a)
        np.testing.assert_allclose(
            inv.dense() @ a.dense(), np.eye(grid.size), atol=1e-10
        )
        again = invert(inv)
        np.testing.assert_allclose(again.sample_values, a.sample_values, rtol=1e-10)

    def test_singular_symbol_rejected(self):
        grid = DiscreteGrid(3)
        values = np.ones(grid.size)
        values[2] = 0.0
        with pytest.raises(SingularSymbolError):
            invert(Circulant(grid, values))

    def test_operands_on_other_grids_are_refused(self):
        small, large = DiscreteGrid(3), DiscreteGrid(4)
        signal = Signal(large, np.ones(large.size))
        with pytest.raises(GridMismatchError):
            HermitianCirculant.identity(small).apply(signal)
        with pytest.raises(GridMismatchError):
            CyclicShift(small).apply(signal)
        with pytest.raises(GridMismatchError):
            multiply(HermitianCirculant.identity(small), CyclicShift(large))

    def test_products_of_real_symbols_stay_hermitian(self):
        rng = make_rng(61)
        grid = DiscreteGrid(5)
        a = HermitianCirculant(grid, 1.0 + rng.random(grid.size))
        b = HermitianCirculant(grid, 1.0 + rng.random(grid.size))
        assert isinstance(multiply(a, b), HermitianCirculant)
        assert isinstance(invert(a), HermitianCirculant)


class TestBanded:
    def test_banded_at_symbol_degree(self):
        rng = make_rng(67)
        grid = DiscreteGrid(8)
        p = random_symbol(rng, 3)
        circ = Circulant.from_symbol(grid, p)
        assert banded_check(circ, 3)
        assert banded_check(circ, 5)
        assert not banded_check(circ, 2)

    def test_full_band_always_passes(self):
        rng = make_rng(71)
        grid = DiscreteGrid(4)
        circ = Circulant(grid, 1.0 + rng.random(grid.size))
        assert banded_check(circ, grid.N)
