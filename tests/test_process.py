"""Sampling through the spectral representation and moment estimation."""

import numpy as np
import pytest

from circext import (
    CovarianceSequence,
    DiscreteGrid,
    Signal,
    SpectrumSamples,
    complete_covariances,
    conjugacy_check,
    dft,
    estimate_cepstra,
    estimate_covariances,
    idft,
    integrate,
    maxent_solve,
    periodogram,
    sample_realizations,
)

from conftest import make_rng


def ar_model(N=8):
    """A first-order maxent model with complex lags."""
    grid = DiscreteGrid(N)
    c = CovarianceSequence([1.0, 0.3 + 0.1j])
    return grid, maxent_solve(c, grid)


def even_model(N=8):
    """A model with real lags, hence an even spectrum usable for real paths."""
    grid = DiscreteGrid(N)
    c = CovarianceSequence([1.0, 0.4])
    return grid, maxent_solve(c, grid)


def per_row_realizations(phi, count, seed, real_valued):
    """Reference sampler: the Box-Muller draws and inverse transform row by row."""
    grid = phi.grid
    scale = np.sqrt(grid.size * phi.real_values())
    rng = np.random.default_rng(seed)
    out = np.empty((count, grid.size), dtype=float if real_valued else complex)
    for r in range(count):
        u = rng.random((grid.size, 2))
        radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
        z1 = radius * np.cos(2.0 * np.pi * u[:, 1])
        z2 = radius * np.sin(2.0 * np.pi * u[:, 1])
        if not real_valued:
            row = scale * (z1 + 1j * z2) / np.sqrt(2.0)
        else:
            row = np.empty(grid.size, dtype=complex)
            for j in range(1, grid.N):
                pos = grid.position(j)
                row[pos] = scale[pos] * (z1[pos] + 1j * z2[pos]) / np.sqrt(2.0)
                row[grid.position(-j)] = np.conj(row[pos])
            for pos in (grid.position(0), grid.position(grid.N)):
                row[pos] = scale[pos] * z1[pos]
        y = idft(SpectrumSamples(grid, row)).values
        out[r] = y.real if real_valued else y
    return out


class TestSampling:
    @pytest.mark.parametrize("N", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("count", [1, 5])
    @pytest.mark.parametrize("real_valued", [False, True])
    def test_batched_draws_equal_per_row_draws(self, N, count, real_valued):
        # the whole ensemble comes from one uniform draw and one transform;
        # it must reproduce the row-by-row stream bit for bit
        grid = DiscreteGrid(N)
        values = 1.0 + 0.5 * np.cos(grid.angles)
        if not real_valued:
            values = values + 0.3 * np.sin(grid.angles)
        phi = SpectrumSamples(grid, values)
        seed = 1000 * N + count
        batched = sample_realizations(phi, count, seed=seed, real_valued=real_valued)
        reference = per_row_realizations(phi, count, seed, real_valued)
        assert batched.dtype == reference.dtype
        assert np.array_equal(batched, reference)


    def test_shapes_and_types(self):
        grid, report = ar_model()
        y = sample_realizations(report.phi, 5, seed=1)
        assert y.shape == (5, grid.size)
        assert np.iscomplexobj(y)

    def test_seed_reproducibility(self):
        grid, report = ar_model()
        a = sample_realizations(report.phi, 4, seed=99)
        b = sample_realizations(report.phi, 4, seed=99)
        np.testing.assert_array_equal(a, b)
        c = sample_realizations(report.phi, 4, seed=100)
        assert np.max(np.abs(a - c)) > 0.0

    def test_transform_magnitudes_follow_the_spectrum(self):
        # E |y-hat(zeta_j)|^2 = 2N phi(zeta_j); exponential spread gives the
        # standard error of the mean
        grid, report = ar_model()
        count = 4000
        y = sample_realizations(report.phi, count, seed=5)
        power = np.zeros(grid.size)
        for row in y:
            power += np.abs(dft(Signal(grid, row)).values) ** 2
        power /= count
        target = grid.size * report.phi.real_values()
        tol = 5.0 * target / np.sqrt(count)
        assert np.all(np.abs(power - target) <= tol)

    def test_sample_covariances_match_the_model(self):
        grid, report = ar_model()
        count = 10000
        y = sample_realizations(report.phi, count, seed=7)
        est = estimate_covariances(y, grid, 3)
        target = complete_covariances(report)[:4]
        # empirical standard errors from the per-realization lag estimates
        for k in range(4):
            per_row = np.mean(np.roll(y, -k, axis=1) * np.conj(y), axis=1)
            se = np.std(per_row) / np.sqrt(count)
            assert abs(est.c[k] - target[k]) <= 5.0 * max(se, 1e-12)

    def test_real_valued_needs_an_even_spectrum(self):
        grid, report = ar_model()
        with pytest.raises(ValueError):
            sample_realizations(report.phi, 2, seed=1, real_valued=True)

    def test_real_valued_sampling(self):
        grid, report = even_model()
        count = 4000
        y = sample_realizations(report.phi, count, seed=11, real_valued=True)
        assert not np.iscomplexobj(y)
        est = estimate_covariances(y.astype(complex), grid, 1)
        target = complete_covariances(report)[:2]
        per_row = np.mean(np.roll(y, -1, axis=1) * y, axis=1)
        se = np.std(per_row) / np.sqrt(count)
        assert abs(est.c[0] - target[0]) <= 5.0 * np.std(np.mean(np.abs(y) ** 2, axis=1)) / np.sqrt(count)
        assert abs(est.c[1] - target[1]) <= 5.0 * max(se, 1e-12)

    def test_count_must_be_positive(self):
        grid, report = ar_model()
        with pytest.raises(ValueError):
            sample_realizations(report.phi, 0, seed=1)

    def test_spectrum_must_be_nonnegative(self):
        grid = DiscreteGrid(4)
        values = np.ones(grid.size)
        values[3] = -0.1
        with pytest.raises(ValueError):
            sample_realizations(SpectrumSamples(grid, values), 2, seed=1)


class TestPeriodogram:
    def test_impulse(self):
        grid = DiscreteGrid(4)
        y = np.zeros(grid.size, dtype=complex)
        y[grid.position(0)] = 1.0
        per = periodogram(y, grid)
        np.testing.assert_allclose(per.real_values(), 1.0 / grid.size, atol=1e-14)

    def test_nonnegative_and_integrates_to_sample_power(self):
        rng = make_rng(601)
        grid = DiscreteGrid(8)
        y = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        per = periodogram(y, grid)
        assert per.real_values().min() >= 0.0
        c0 = np.mean(np.abs(y) ** 2)
        assert integrate(per, 0).real == pytest.approx(c0, rel=1e-12)

    def test_moments_equal_circular_lag_averages(self):
        # the periodogram moments are exactly the circular sample lags; this
        # identity is what makes estimate_covariances consistent
        rng = make_rng(607)
        grid = DiscreteGrid(6)
        y = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        per = periodogram(y, grid)
        for k in range(grid.N + 1):
            direct = np.mean(np.roll(y, -k) * np.conj(y))
            assert integrate(per, k) == pytest.approx(direct, abs=1e-12)


class TestEstimation:
    def test_covariances_of_known_data(self):
        grid = DiscreteGrid(2)
        y = np.array([[1.0, 1.0, -1.0, -1.0]], dtype=complex)
        est = estimate_covariances(y, grid, 2)
        assert est.c[0] == pytest.approx(1.0)
        assert est.c[1] == pytest.approx(0.0, abs=1e-15)
        assert est.c[2] == pytest.approx(-1.0)

    @pytest.mark.parametrize("N", [1, 2, 8, 64])
    @pytest.mark.parametrize("real", [False, True])
    def test_covariances_equal_cyclic_lag_averages(self, N, real):
        # definition: chat_k = mean over rows and t of y(t+k) conj(y(t))
        rng = make_rng(613 + N)
        grid = DiscreteGrid(N)
        y = rng.standard_normal((5, grid.size))
        if not real:
            y = y + 1j * rng.standard_normal((5, grid.size))
        for n in (0, N):
            est = estimate_covariances(y, grid, n)
            direct = np.array([np.mean(np.roll(y, -k, axis=1) * np.conj(y)) for k in range(n + 1)])
            assert np.max(np.abs(est.c - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_lag_count_validation(self):
        grid = DiscreteGrid(4)
        y = np.ones((2, grid.size), dtype=complex)
        with pytest.raises(ValueError):
            estimate_covariances(y, grid, grid.N + 1)
        with pytest.raises(ValueError):
            estimate_covariances(np.ones((0, grid.size), dtype=complex), grid, 1)

    def test_zero_data_rejected(self):
        grid = DiscreteGrid(4)
        y = np.zeros((3, grid.size), dtype=complex)
        with pytest.raises(ValueError):
            estimate_covariances(y, grid, 1)

    def test_cepstra_need_enough_realizations_for_smoothing(self):
        grid, report = even_model()
        y = sample_realizations(report.phi, 7, seed=3)
        with pytest.raises(ValueError):
            estimate_cepstra(y, grid, 1)

    def test_smoothed_cepstra_approach_the_model(self):
        grid, report = ar_model()
        y = sample_realizations(report.phi, 4096, seed=13)
        est = estimate_cepstra(y, grid, 1)
        true_m = np.mean(
            np.exp(1j * grid.angles) * np.log(report.phi.real_values())
        )
        assert abs(est.m[0] - true_m) <= 0.05

    def test_cepstra_scale_invariance(self):
        # log(alpha^2 phi) shifts only the zeroth coefficient, which is not
        # part of the estimate
        grid, report = ar_model()
        y = sample_realizations(report.phi, 16, seed=17)
        base = estimate_cepstra(y, grid, 2)
        scaled = estimate_cepstra(3.0 * y, grid, 2)
        np.testing.assert_allclose(scaled.m, base.m, atol=1e-12)

    def test_unsmoothed_variant_differs_and_is_fragile(self):
        grid, report = ar_model()
        y = sample_realizations(report.phi, 16, seed=19)
        smoothed = estimate_cepstra(y, grid, 1)
        rough = estimate_cepstra(y, grid, 1, smoothing=False)
        assert abs(smoothed.m[0] - rough.m[0]) > 0.0
        # a silent stretch in the data floors one periodogram at zero
        y_bad = y.copy()
        y_bad[0] = 0.0
        with pytest.raises(ValueError):
            estimate_cepstra(y_bad, grid, 1, smoothing=False)


class TestConjugacy:
    def test_error_process_is_orthogonal_to_the_past(self):
        # the cross moments of the conjugate pair settle to the identity at
        # the Monte-Carlo rate
        grid, report = ar_model()
        distance = conjugacy_check(report.phi, 3000, seed=23)
        assert distance <= 0.2

    def test_requires_positive_spectrum(self):
        grid = DiscreteGrid(4)
        values = np.ones(grid.size)
        values[1] = 0.0
        with pytest.raises(ValueError):
            conjugacy_check(SpectrumSamples(grid, values), 10, seed=1)


class TestClosedLoop:
    def test_identification_recovers_the_model(self):
        grid, report = ar_model()
        y = sample_realizations(report.phi, 4096, seed=29)
        est = estimate_covariances(y, grid, 1)
        recovered = maxent_solve(est, grid)
        worst = float(np.max(np.abs(recovered.q.coeffs - report.q.coeffs)))
        assert worst <= 0.1
