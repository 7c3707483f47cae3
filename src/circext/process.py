"""Sampling of periodic processes and moment estimation from realizations.

A spectrum Phi on the grid defines a stationary Gaussian process on the 2N
cyclic time points whose covariance circulant has symbol Phi.  Draws are made
in the spectral domain, where the transform coordinates are independent with
variance 2N Phi_j, and mapped back by the inverse transform; the resulting
realizations carry the target covariance exactly, not asymptotically.  An
ensemble is a (count, 2N) array with one realization per row; draws and
estimates are made on all rows at once, one batched transform per step.

Uniform variates come from numpy's default generator and are mapped to
normals by an explicit Box-Muller step.  Keeping the normal transform in the
library (rather than using the generator's own) pins the exact draw sequence
for a given seed, so golden outputs stay stable across numpy versions.
"""

from __future__ import annotations

import numpy as np

from .grid import DiscreteGrid, SpectrumSamples, _transform, is_hermitian_even, require_positive
from .kernels import moment_vector
from .moments import CepstralSequence, CovarianceSequence

MIN_SMOOTHING_COUNT = 8
REAL_TOL = 1e-10


def _standard_normals(rng, shape):
    # Box-Muller on (1-u) in (0,1]; two independent streams per entry
    u = rng.random(shape + (2,))
    radius = np.sqrt(-2.0 * np.log1p(-u[..., 0]))
    return radius * np.cos(2.0 * np.pi * u[..., 1]), radius * np.sin(2.0 * np.pi * u[..., 1])


def _spectral_draws(phi: SpectrumSamples, count, rng, real_valued):
    """Independent transform-domain draws with E|yhat_j|^2 = 2N Phi_j, shape (count, 2N)."""
    grid = phi.grid
    vals = phi.real_values()
    bad = np.nonzero(vals < 0.0)[0]
    if bad.size:
        j = int(grid.indices[bad[0]])
        raise ValueError(f"spectrum sample at node j={j} is {vals[bad[0]]!r}, negative")
    scale = np.sqrt(grid.size * vals)
    if real_valued and not is_hermitian_even(grid, vals, REAL_TOL):
        raise ValueError("a real-valued process needs an even spectrum")
    z1, z2 = _standard_normals(rng, (count, grid.size))
    out = scale * (z1 + 1j * z2) / np.sqrt(2.0)
    if real_valued:
        # j = 1 ... N-1 at positions N ... 2N-2 mirror onto -j at 2N-2 ... 0;
        # the self-paired frequencies j = 0 and j = N take real draws
        pos = np.arange(grid.N, grid.size - 1)
        out[:, grid.size - 2 - pos] = np.conj(out[:, pos])
        half = [grid.position(0), grid.position(grid.N)]
        out[:, half] = scale[half] * z1[:, half]
    return out


def sample_realizations(
    phi: SpectrumSamples,
    count: int,
    seed: int | None = None,
    real_valued: bool = False,
) -> np.ndarray:
    """Draw `count` realizations of the process with spectrum phi.

    Returns an array of shape (count, 2N); rows are time-domain sample paths.
    With real_valued=True the transform draws are constrained to Hermitian
    symmetry (requires an even spectrum) and the rows come out real.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    rng = np.random.default_rng(seed)
    y = _transform(_spectral_draws(phi, count, rng, real_valued), inverse=True)
    return y.real.copy() if real_valued else y


def _periodograms(y: np.ndarray, grid: DiscreteGrid) -> np.ndarray:
    """|transform|^2 / 2N of every row of y."""
    return np.abs(_transform(y.astype(complex))) ** 2 / grid.size


def _ensemble(realizations, grid: DiscreteGrid) -> np.ndarray:
    y = np.atleast_2d(np.asarray(realizations))
    if y.shape[0] == 0:
        raise ValueError("need at least one realization")
    if y.shape[1] != grid.size:
        raise ValueError(f"realizations must have {grid.size} time points per row")
    return y


def periodogram(y: np.ndarray, grid: DiscreteGrid) -> SpectrumSamples:
    """Sample spectrum |transform of y|^2 / 2N of one realization.

    Its node integral recovers the sample variance of y, and its k-th moment
    equals the cyclic sample covariance at lag k.
    """
    y = np.asarray(y)
    if y.shape != (grid.size,):
        raise ValueError(f"expected one realization of shape ({grid.size},)")
    vals = _periodograms(y, grid)
    return SpectrumSamples(grid, vals, hermitian_even=is_hermitian_even(grid, vals))


def estimate_covariances(
    realizations: np.ndarray, grid: DiscreteGrid, n: int
) -> CovarianceSequence:
    """Cyclic sample covariances up to lag n, averaged over realizations.

    chat_k = mean over rows of (1/2N) sum_t y(t+k) conj(y(t)), with the time
    index wrapping.  Raises through CovarianceSequence when the estimate is
    degenerate (for instance all-zero input).
    """
    y = _ensemble(realizations, grid)
    if not 0 <= n <= grid.N:
        raise ValueError(f"need 0 <= n <= N, got n={n}")
    # the k-th moment of a periodogram is the cyclic sample covariance at lag k
    acc = moment_vector(grid.angles, _periodograms(y, grid).mean(axis=0), n)
    return CovarianceSequence(np.concatenate(([acc[0].real], acc[1:])))


def estimate_cepstra(
    realizations: np.ndarray,
    grid: DiscreteGrid,
    n: int,
    smoothing: bool = True,
) -> CepstralSequence:
    """Cepstral coefficients mhat_1 ... mhat_n from realizations.

    With smoothing (default) the periodograms are ensemble-averaged before
    the logarithm, which needs at least 8 realizations to keep the log
    moments stable.  smoothing=False takes the log realization by
    realization and averages afterwards; that variant is unbiased only
    up to the Euler-Mascheroni offset in the constant term and fails
    outright whenever a single periodogram touches zero, so it is kept
    for diagnostics rather than production use.
    """
    y = _ensemble(realizations, grid)
    if not 1 <= n <= grid.N:
        raise ValueError(f"need 1 <= n <= N, got n={n}")
    if smoothing and y.shape[0] < MIN_SMOOTHING_COUNT:
        raise ValueError(
            f"smoothed estimation needs at least {MIN_SMOOTHING_COUNT} "
            f"realizations, got {y.shape[0]}"
        )
    specs = _periodograms(y, grid)
    if smoothing:
        specs = specs.mean(axis=0, keepdims=True)
    if specs.min() <= 0.0:
        which = "averaged periodogram" if smoothing else "a periodogram"
        raise ValueError(f"{which} touches zero; cannot take logs")
    m = moment_vector(grid.angles, np.log(specs).mean(axis=0), n)[1:]
    return CepstralSequence(m)


def conjugacy_check(phi: SpectrumSamples, count: int, seed: int | None = None) -> float:
    """Monte Carlo distance from the whitening identity E[e(t) conj(y(s))] = I.

    The conjugate process divides each transform draw by its spectrum sample.
    Exact pairing of the draws makes the cross moment the identity matrix in
    expectation; the return value is the sup-norm deviation of the estimate,
    which shrinks like one over the square root of count.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    grid = phi.grid
    vals = require_positive(grid, phi.real_values(), "spectrum")
    rng = np.random.default_rng(seed)
    draws = _spectral_draws(phi, count, rng, real_valued=False)
    y = _transform(draws, inverse=True)
    e = _transform(draws / vals, inverse=True)
    cross = e.T @ np.conj(y) / count
    return float(np.max(np.abs(cross - np.eye(grid.size))))
