"""Sampling through the spectral representation and moment estimation."""

import hashlib
import json
import os
import re
import tracemalloc

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

from conftest import make_rng, rewrite_record


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


SPECTRA = ("smooth", "zero at even |j|", "all zero")


def spectrum_values(grid, kind, even):
    """Samples of one of SPECTRA; even=False adds an odd part, so only complex draws take it."""
    values = 1.0 + 0.5 * np.cos(grid.angles)
    if not even:
        values = values + 0.3 * np.sin(grid.angles)
    if kind == "zero at even |j|":
        values = np.where(grid.indices % 2 == 0, 0.0, values)
    elif kind == "all zero":
        values = np.zeros(grid.size)
    return values


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
        self.assert_batched_equals_per_row(N, count, real_valued, "smooth")

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("count", [1, 5])
    @pytest.mark.parametrize("real_valued", [False, True])
    @pytest.mark.parametrize("kind", SPECTRA[1:])
    def test_batched_draws_equal_per_row_draws_on_spectra_with_zeros(self, N, count, real_valued, kind):
        # a zero sample makes every draw there a signed zero, whose sign
        # np.array_equal would not see
        self.assert_batched_equals_per_row(N, count, real_valued, kind)

    @staticmethod
    def assert_batched_equals_per_row(N, count, real_valued, kind):
        grid = DiscreteGrid(N)
        phi = SpectrumSamples(grid, spectrum_values(grid, kind, even=real_valued))
        seed = 1000 * N + count
        batched = sample_realizations(phi, count, seed=seed, real_valued=real_valued)
        reference = per_row_realizations(phi, count, seed, real_valued)
        assert batched.dtype == reference.dtype
        # bytes, not np.array_equal, which calls -0.0 equal to 0.0
        assert batched.tobytes() == reference.tobytes()

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("real_valued", [False, True])
    def test_non_finite_spectrum_is_refused_before_any_draw(self, bad, real_valued):
        # NaN passes both the sign test and the evenness test, and inf made
        # numpy warn; the sampler names the first such node instead
        grid = DiscreteGrid(4)
        values = np.ones(grid.size)
        values[[grid.position(-1), grid.position(1)]] = bad
        with pytest.raises(ValueError, match=f"spectrum sample is negative or not finite at node j=-1: {bad!r}"):
            sample_realizations(SpectrumSamples(grid, values), 2, seed=1, real_valued=real_valued)


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


    def test_one_realization_only(self):
        grid = DiscreteGrid(4)
        for shape in ((1, grid.size), (grid.size + 1,)):
            with pytest.raises(ValueError, match="one realization"):
                periodogram(np.ones(shape), grid)

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 64, 4096])
    def test_dropped_phase_is_invisible(self, N):
        # the periodogram skips the grid transform's unit-modulus phase
        rng = make_rng(611 + N)
        grid = DiscreteGrid(N)
        real = rng.standard_normal(grid.size)
        for y in (real, real + 1j * rng.standard_normal(grid.size)):
            expected = np.abs(dft(Signal(grid, y)).values) ** 2 / grid.size
            got = periodogram(y, grid).real_values()
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(expected)


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

    @pytest.mark.parametrize("shape", [(3, 7), (3, 8, 1), (2, 8, 3)])
    def test_realizations_must_be_rows_of_the_grid(self, shape):
        # a third axis was refused only by a broadcasting error deep in the transform
        grid = DiscreteGrid(4)
        y = np.ones(shape)
        y.flat[-1] = np.inf
        for run in (lambda: estimate_covariances(y, grid, 1), lambda: estimate_cepstra(y, grid, 1)):
            with pytest.raises(ValueError, match=re.escape(f"realizations must be rows of 8 time points, got shape {shape}")):
                run()

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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1.0, np.inf)])
    @pytest.mark.parametrize("call", ["covariances", "cepstra", "unsmoothed cepstra", "periodogram"])
    def test_non_finite_realizations_are_refused_before_any_transform(self, bad, call):
        # the refusal names the first row and time point; no transform runs,
        # so numpy warns of nothing
        grid = DiscreteGrid(4)
        y = make_rng(619).standard_normal((8, grid.size)).astype(type(bad))
        row = 0 if call == "periodogram" else 5
        y[row, 2] = bad
        runs = {
            "covariances": lambda: estimate_covariances(y, grid, 1),
            "cepstra": lambda: estimate_cepstra(y, grid, 1),
            "unsmoothed cepstra": lambda: estimate_cepstra(y, grid, 1, smoothing=False),
            "periodogram": lambda: periodogram(y[0], grid),
        }
        with pytest.raises(ValueError, match=re.escape(f"realization {row} is not finite at t=2: {bad!r}")):
            runs[call]()

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

    def test_count_must_be_positive(self):
        grid, report = ar_model()
        with pytest.raises(ValueError, match="count must be at least 1, got 0"):
            conjugacy_check(report.phi, 0, seed=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_spectrum_is_refused(self, bad):
        grid = DiscreteGrid(4)
        values = np.ones(grid.size)
        values[grid.position(2)] = bad
        with pytest.raises(ValueError, match=f"spectrum sample is negative or not finite at node j=2: {bad!r}"):
            conjugacy_check(SpectrumSamples(grid, values), 10, seed=1)

    def test_spectrum_is_checked_before_the_count(self):
        # the sampler refuses a count below one; the spectrum is refused first
        grid = DiscreteGrid(4)
        values = np.ones(grid.size)
        values[1] = 0.0
        with pytest.raises(ValueError, match="spectrum sample is not positive at node j=-2: 0.0"):
            conjugacy_check(SpectrumSamples(grid, values), 0, seed=1)


class TestMemory:
    """Peak traced bytes of one call on N = 512, count = 300, against the complex ensemble's bytes.

    Every pass over the ensemble writes into a buffer it owns.  A draw holds
    at most three ensemble-sized complex arrays at once (the uniform block
    with its radius, angle and cosine buffers, 2.5; then the draws, the FFT
    output and the shifted result, 3); an estimate holds the FFT output,
    phased in place, and its magnitudes (1.5 ensembles).  With a copy and
    complex temporaries on every pass, all three read 4.03.
    """

    @pytest.mark.parametrize(
        "call, limit",
        [("sample_realizations", 3.25), ("estimate_covariances", 1.75), ("estimate_cepstra", 1.75)],
    )
    def test_peak_traced_bytes(self, call, limit):
        grid = DiscreteGrid(512)
        phi = SpectrumSamples(grid, spectrum_values(grid, "smooth", even=False))
        y = sample_realizations(phi, 300, seed=31)
        runs = {
            "sample_realizations": lambda: sample_realizations(phi, 300, seed=32),
            "estimate_covariances": lambda: estimate_covariances(y, grid, 3),
            "estimate_cepstra": lambda: estimate_cepstra(y, grid, 3),
        }
        tracemalloc.start()
        try:
            runs[call]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit * y.nbytes


SAMPLING_RECORD = os.path.join(os.path.dirname(__file__), "golden", "sampling_census.json")
RECORD_GRIDS = (1, 2, 3, 8, 64, 512, 4096)


def digest(array):
    """dtype, shape and the SHA-256 of the bytes of array."""
    array = np.ascontiguousarray(array)
    return f"{array.dtype} {array.shape} {hashlib.sha256(array.tobytes()).hexdigest()}"


def sampling_runs():
    """Label -> function of no arguments giving the entry on record."""
    runs = {}
    for N in RECORD_GRIDS:
        grid = DiscreteGrid(N)
        count = 5 if N <= 64 else 2
        for kind in SPECTRA:
            for real_valued, name in ((False, "complex"), (True, "real")):
                phi = SpectrumSamples(grid, spectrum_values(grid, kind, even=real_valued))
                runs[f"sample {name} {kind} N={N}"] = (
                    lambda phi=phi, real_valued=real_valued, seed=N + count:
                    digest(sample_realizations(phi, count, seed=seed, real_valued=real_valued))
                )
        ensembles = {
            name: sample_realizations(
                SpectrumSamples(grid, spectrum_values(grid, "smooth", even=real_valued)),
                16, seed=7 * N, real_valued=real_valued,
            )
            for real_valued, name in ((False, "complex"), (True, "float"))
        }
        n = min(N, 3)
        for name, y in ensembles.items():
            runs[f"estimate_covariances {name} N={N}"] = (
                lambda y=y, grid=grid, n=n: digest(estimate_covariances(y, grid, n).c)
            )
            for smoothing in (True, False):
                runs[f"estimate_cepstra {name} smoothing={smoothing} N={N}"] = (
                    lambda y=y, grid=grid, n=n, smoothing=smoothing:
                    digest(estimate_cepstra(y, grid, n, smoothing=smoothing).m)
                )
            runs[f"periodogram {name} N={N}"] = lambda y=y, grid=grid: digest(periodogram(y[0], grid).values)
        rows = dict(ensembles, sparse=spectrum_values(grid, "zero at even |j|", even=False))
        for name, row in rows.items():
            row = np.atleast_2d(row)[0]
            runs[f"dft {name} N={N}"] = lambda grid=grid, row=row: digest(dft(Signal(grid, row)).values)
            runs[f"idft {name} N={N}"] = (
                lambda grid=grid, row=row: digest(idft(SpectrumSamples(grid, row)).values)
            )
        if N <= 512:
            for even, name in ((True, "even"), (False, "tilted")):
                phi = SpectrumSamples(grid, spectrum_values(grid, "smooth", even=even))
                runs[f"conjugacy_check {name} N={N}"] = (
                    lambda phi=phi, seed=3 * N: repr(conjugacy_check(phi, 50, seed=seed))
                )
    return runs


def write_sampling_record():
    """Record every run in tests/golden/sampling_census.json."""
    rewrite_record(SAMPLING_RECORD, {label: run() for label, run in sampling_runs().items()}, indent=1)


class TestSamplingRecord:
    """Each draw, estimate, transform and whitening distance gives the bits on record.

    The record holds the dtype, shape and SHA-256 of the bytes of every
    output array, and the repr of every conjugacy_check distance.  A change
    that means to alter the draw stream or the rounding of any output
    rewrites it with `PYTHONPATH=src python tests/test_process.py` and says
    so.
    """

    RUNS = sampling_runs()

    @pytest.mark.parametrize("label", list(RUNS))
    def test_matches_the_record(self, label):
        with open(SAMPLING_RECORD, encoding="utf-8") as fh:
            expected = json.load(fh)[label]
        assert self.RUNS[label]() == expected


class TestClosedLoop:
    def test_identification_recovers_the_model(self):
        grid, report = ar_model()
        y = sample_realizations(report.phi, 4096, seed=29)
        est = estimate_covariances(y, grid, 1)
        recovered = maxent_solve(est, grid)
        worst = float(np.max(np.abs(recovered.q.coeffs - report.q.coeffs)))
        assert worst <= 0.1


if __name__ == "__main__":
    write_sampling_record()
