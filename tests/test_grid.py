"""Grid construction, index layout, transforms, the evenness predicate, and node refusals."""

import numpy as np
import pytest

from circext import (
    Circulant,
    CovarianceSequence,
    DiscreteGrid,
    DualProblem,
    GridMismatchError,
    HermitianCirculant,
    InputFormatError,
    Signal,
    SingularSymbolError,
    SpectrumSamples,
    SymmetricPseudoPolynomial,
    conjugacy_check,
    constant_symbol,
    convergence_sweep,
    dft,
    dft_direct,
    eval_symbol,
    idft,
    idft_direct,
    integrate,
    invert,
    is_hermitian_even,
    plancherel_inner,
    sample_realizations,
)
from circext.fileio import model_spectrum
from circext.grid import require_positive

from conftest import dft_loop, make_rng


def random_signal(rng, grid, scale=1.0):
    values = scale * (rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size))
    return Signal(grid, values)


class TestGrid:
    def test_nodes_are_roots_of_unity(self):
        grid = DiscreteGrid(4)
        assert grid.size == 8
        np.testing.assert_allclose(grid.nodes ** (2 * grid.N), np.ones(8), atol=1e-12)
        # node at j = 0 is 1, node at j = N is -1
        assert grid.nodes[grid.position(0)] == pytest.approx(1.0)
        assert grid.nodes[grid.position(grid.N)] == pytest.approx(-1.0)

    def test_node_conjugate_symmetry(self):
        grid = DiscreteGrid(5)
        for j in range(1, grid.N):
            left = grid.nodes[grid.position(-j)]
            right = grid.nodes[grid.position(j)]
            assert left == pytest.approx(np.conj(right))

    def test_index_window(self):
        grid = DiscreteGrid(3)
        assert [grid.indices[0], grid.indices[-1]] == [-2, 3]
        assert grid.position(-2) == 0
        assert grid.position(3) == grid.size - 1
        with pytest.raises(ValueError):
            grid.position(4)
        with pytest.raises(ValueError):
            grid.position(-3)

    def test_measure_weight(self):
        assert DiscreteGrid(8).measure_weight == pytest.approx(1.0 / 16.0)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            DiscreteGrid(0)
        with pytest.raises(ValueError):
            DiscreteGrid(-2)
        with pytest.raises(ValueError):
            DiscreteGrid(2.5)

    def test_minimal_grid(self):
        grid = DiscreteGrid(1)
        assert grid.size == 2
        np.testing.assert_allclose(grid.nodes, [1.0, -1.0], atol=1e-15)


class TestTransforms:
    @pytest.mark.parametrize("N", [1, 2, 3, 5, 8])
    def test_dft_matches_loop_oracle(self, N):
        rng = make_rng(100 + N)
        grid = DiscreteGrid(N)
        sig = random_signal(rng, grid)
        expected = dft_loop(grid, sig.values)
        np.testing.assert_allclose(dft(sig).values, expected, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(dft_direct(sig).values, expected, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("N", [1, 2, 7, 16, 64])
    def test_round_trips(self, N):
        rng = make_rng(200 + N)
        grid = DiscreteGrid(N)
        sig = random_signal(rng, grid, scale=1e6)
        back = idft(dft(sig))
        np.testing.assert_allclose(back.values, sig.values, rtol=1e-12, atol=1e-12 * 1e6)
        spec = SpectrumSamples(grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size))
        np.testing.assert_allclose(dft(idft(spec)).values, spec.values, rtol=1e-12, atol=1e-12)

    def test_fast_matches_direct(self):
        rng = make_rng(7)
        for N in (3, 6, 12):
            grid = DiscreteGrid(N)
            sig = random_signal(rng, grid)
            np.testing.assert_allclose(
                dft(sig).values, dft_direct(sig).values, rtol=1e-10, atol=1e-12
            )
            spec = SpectrumSamples(grid, rng.standard_normal(grid.size) * 1j + rng.standard_normal(grid.size))
            np.testing.assert_allclose(
                idft(spec).values, idft_direct(spec).values, rtol=1e-10, atol=1e-12
            )

    def test_delta_transforms_to_phase(self):
        grid = DiscreteGrid(4)
        for k0 in (-3, 0, 2, 4):
            values = np.zeros(grid.size, dtype=complex)
            values[grid.position(k0)] = 1.0
            spec = dft(Signal(grid, values))
            np.testing.assert_allclose(spec.values, grid.nodes ** (-k0), atol=1e-12)

    def test_near_real_input_is_accepted(self):
        # an imaginary part below the realness tolerance must not make the
        # transforms, or a circulant applied through them, refuse the signal
        grid = DiscreteGrid(4)
        values = np.zeros(grid.size, dtype=complex)
        values[grid.position(0)] = 1.0 + 0.9e-12j
        sig = Signal(grid, values)
        real_hat = dft_direct(Signal(grid, values.real)).values
        np.testing.assert_allclose(dft(sig).values, real_hat, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(dft_direct(sig).values, real_hat, rtol=0.0, atol=1e-12)
        out = HermitianCirculant.identity(grid).apply(sig)
        np.testing.assert_allclose(out.values, values.real, rtol=0.0, atol=1e-12)

    def test_plancherel(self):
        rng = make_rng(11)
        grid = DiscreteGrid(9)
        f = random_signal(rng, grid)
        g = random_signal(rng, grid)
        direct = complex(np.sum(f.values * np.conj(g.values)))
        assert plancherel_inner(f, g) == pytest.approx(direct, rel=1e-12)

    def test_grid_mismatch_rejected(self):
        f = Signal(DiscreteGrid(3), np.zeros(6))
        g = Signal(DiscreteGrid(4), np.zeros(8))
        with pytest.raises(GridMismatchError):
            plancherel_inner(f, g)
        with pytest.raises(GridMismatchError):
            Signal(DiscreteGrid(3), np.zeros(5))


class TestIntegrate:
    def test_moment_extraction_is_exact(self):
        # integrating e^{ik theta} against a degree-d spectrum recovers the
        # coefficient exactly as long as d <= N - 1
        rng = make_rng(13)
        grid = DiscreteGrid(6)
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        coeffs[0] = coeffs[0].real
        angles = grid.angles
        values = np.full(grid.size, coeffs[0], dtype=complex)
        for k in range(1, 4):
            values += coeffs[k] * np.exp(-1j * k * angles)
            values += np.conj(coeffs[k]) * np.exp(1j * k * angles)
        spec = SpectrumSamples(grid, values)
        for k in range(4):
            assert integrate(spec, k) == pytest.approx(coeffs[k], abs=1e-12)
        # beyond the stored degree the moments vanish
        assert integrate(spec, 5) == pytest.approx(0.0, abs=1e-12)

    def test_constant_spectrum(self):
        grid = DiscreteGrid(5)
        spec = SpectrumSamples(grid, np.full(grid.size, 2.5))
        assert integrate(spec, 0) == pytest.approx(2.5)
        assert integrate(spec, 3) == pytest.approx(0.0, abs=1e-15)

    def test_out_of_range_k(self):
        grid = DiscreteGrid(4)
        spec = SpectrumSamples(grid, np.ones(grid.size))
        with pytest.raises(ValueError):
            integrate(spec, grid.N + 1)


class TestEvenness:
    def test_real_coefficients_give_even_samples(self):
        rng = make_rng(17)
        grid = DiscreteGrid(8)
        values = np.zeros(grid.size, dtype=complex)
        for k, g in ((0, 1.0), (1, 0.4), (3, -0.2)):
            values += g * np.exp(-1j * k * grid.angles)
            if k:
                values += g * np.exp(1j * k * grid.angles)
        assert is_hermitian_even(grid, values)

    def test_complex_coefficients_break_evenness(self):
        grid = DiscreteGrid(8)
        values = 1.0 + 2.0 * (0.3 * np.exp(-1j * grid.angles)).real
        values += 2.0 * ((0.1j) * np.exp(-1j * grid.angles)).real
        assert not is_hermitian_even(grid, values)

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 64, 4096])
    def test_real_signals_transform_even(self, N):
        rng = make_rng(400 + N)
        grid = DiscreteGrid(N)
        assert is_hermitian_even(grid, dft(Signal(grid, rng.standard_normal(grid.size))).values)
        for k in sorted({-N + 1, 0, 1, N}):
            delta = np.zeros(grid.size)
            delta[grid.position(k)] = rng.standard_normal()
            assert is_hermitian_even(grid, dft(Signal(grid, delta)).values), k

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 64, 4096])
    def test_real_symbols_evaluate_even(self, N):
        rng = make_rng(500 + N)
        grid = DiscreteGrid(N)
        for n in sorted({0, 1, min(N, 4)}):
            p = SymmetricPseudoPolynomial(rng.standard_normal(n + 1))
            assert is_hermitian_even(grid, eval_symbol(p, grid).values), n

    def test_real_values_accessor(self):
        grid = DiscreteGrid(3)
        spec = SpectrumSamples(grid, np.ones(grid.size) + 1e-6j)
        with pytest.raises(ValueError):
            spec.real_values()
        clean = SpectrumSamples(grid, np.ones(grid.size) + 0j)
        np.testing.assert_allclose(clean.real_values(), np.ones(grid.size))

    def test_signed_getitem(self):
        grid = DiscreteGrid(4)
        values = np.arange(grid.size, dtype=float)
        sig = Signal(grid, values)
        assert sig[-3] == 0.0
        assert sig[4] == grid.size - 1
        spec = SpectrumSamples(grid, values)
        assert spec[0] == values[grid.position(0)]


G4 = DiscreteGrid(4)
FLAT = constant_symbol(1.0)
# 0.1 - cos(theta): negative for |j| <= 1 on N = 4 (|j| <= 3 on N = 8), least at j = 0,
# so its first bad node in storage order, j = -1 (j = -3), is not its argmin
DIP = SymmetricPseudoPolynomial([0.1, -0.5])
# 1.7e308 + 1.6e308 cos(theta) overflows to inf where cos(theta) > 0.06: first at j = -1
HUGE = SymmetricPseudoPolynomial([1.7e308, 0.8e308])


def dip(j, N=4):
    return 0.1 - np.cos(np.pi * j / N)


def with_overflow(call):
    def run():
        with np.errstate(over="ignore"):    # the symbol's own overflow warning
            return call()
    return run


class TestNodeRefusal:
    """Every site that refuses node samples names the first bad node and its plain value."""

    @pytest.mark.parametrize("call, error, j, value", [
        pytest.param(lambda: require_positive(G4, np.array([1, 2, 0, -1, -3, 1, 1, 1.0]), "x"),
                     ValueError, -1, 0.0, id="require_positive"),
        pytest.param(lambda: conjugacy_check(SpectrumSamples(G4, [1, 1, 1, 0, 1, 1, 1, 1]), 2),
                     ValueError, 0, 0.0, id="conjugacy_check"),
        pytest.param(lambda: sample_realizations(
                         SpectrumSamples(G4, [1, 2, -0.5, -2, 1, 1, 1, 1]), 2, seed=0),
                     ValueError, -1, -0.5, id="spectral_draws"),
        pytest.param(lambda: invert(Circulant(G4, [1, 1, 1e-20, 0, 1, 1, 1, 1])),
                     SingularSymbolError, -1, 1e-20, id="invert"),
        pytest.param(with_overflow(lambda: model_spectrum(G4, HUGE, FLAT)),
                     InputFormatError, -1, np.inf, id="model_numerator_finite"),
        pytest.param(with_overflow(lambda: model_spectrum(G4, FLAT, HUGE)),
                     InputFormatError, -1, np.inf, id="model_denominator_finite"),
        pytest.param(lambda: model_spectrum(G4, DIP, FLAT),
                     InputFormatError, -1, dip(-1), id="model_numerator_negative"),
        pytest.param(lambda: model_spectrum(G4, FLAT, DIP),
                     InputFormatError, -1, dip(-1), id="model_denominator_positive"),
        pytest.param(lambda: model_spectrum(G4, constant_symbol(1e300), constant_symbol(1e-10)),
                     InputFormatError, -3, np.inf, id="model_quotient_finite"),
        pytest.param(lambda: DualProblem(G4, CovarianceSequence([1.0, 0.2]), DIP),
                     ValueError, -1, dip(-1), id="dual_numerator"),
        pytest.param(lambda: convergence_sweep(CovarianceSequence([1.0, 0.2]), [2], DIP, 4),
                     ValueError, -3, dip(-3, N=8), id="sweep_numerator_on_the_circle"),
    ])
    def test_first_bad_node_and_plain_value(self, call, error, j, value):
        with pytest.raises(error) as info:
            call()
        message = str(info.value)
        assert "np.float64(" not in message
        _, sep, printed = message.rpartition(f" at node j={j}: ")
        assert sep, message
        assert float(printed) == pytest.approx(value, rel=1e-12)
