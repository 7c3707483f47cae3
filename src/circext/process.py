"""Sampling of periodic processes and moment estimation from realizations.

A spectrum Phi on the grid defines a stationary Gaussian process on the 2N
cyclic time points whose covariance circulant has symbol Phi.  Draws are made
in the spectral domain, where the transform coordinates are independent with
variance 2N Phi_j, and mapped back by the inverse transform; the resulting
realizations carry the target covariance exactly, not asymptotically.

An ensemble is a (count, 2N) array, one realization per row; each pass over it
writes into a buffer it owns.  A draw pays for one uniform block, Box-Muller
(libm's cos and sin are most of it), one complex assembly and one inverse FFT;
a real draw takes the same block but runs Box-Muller only for j = 0 ... N.  The
library's own Box-Muller pins the draws of a seed; tests/golden holds the bits.
"""

from __future__ import annotations

import numpy as np

from .grid import DiscreteGrid, SpectrumSamples, _transform, is_hermitian_even, refuse_nodes, require_positive
from .kernels import moment_vector
from .moments import CepstralSequence, CovarianceSequence

MIN_SMOOTHING_COUNT = 8
REAL_TOL = 1e-10


def _standard_normals(u):
    # Box-Muller on (1-u) in (0,1]; each half of the (..., 2) block is made contiguous once, then worked in place
    radius, angle = np.negative(u[..., 0]), np.multiply(u[..., 1], 2.0 * np.pi)
    np.sqrt(np.multiply(np.log1p(radius, out=radius), -2.0, out=radius), out=radius)
    z1 = np.cos(angle)
    return np.multiply(z1, radius, out=z1), np.multiply(np.sin(angle, out=angle), radius, out=angle)


def _spectral_draws(phi: SpectrumSamples, count, seed, real_valued):
    """Independent spectral draws, E|yhat_j|^2 = 2N Phi_j, shape (count >= 1, 2N), from default_rng(seed)."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    grid, N = phi.grid, phi.grid.N
    vals = phi.real_values()
    refuse_nodes(grid, vals, ~np.isfinite(vals) | (vals < 0.0), "spectrum sample is negative or not finite")
    with np.errstate(over="ignore"):    # an overflow is refused before any draw
        variance = grid.size * vals
    refuse_nodes(grid, vals, ~np.isfinite(variance), f"spectrum sample times 2N={grid.size} is not finite")
    scale = np.sqrt(variance)
    if real_valued and not is_hermitian_even(grid, vals, REAL_TOL):
        raise ValueError("a real-valued process needs an even spectrum")
    # a real draw runs Box-Muller on j = 0 ... N only; -j mirrors j, and j = 0 and j = N are real
    lo = N - 1 if real_valued else 0
    z1, z2 = _standard_normals(np.random.default_rng(seed).random((count, grid.size, 2))[:, lo:])
    # scale * (z1 + 1j * z2) / sqrt(2) with numpy's complex multiply and divide, in one buffer
    out = np.empty((count, grid.size), dtype=complex)
    body = np.add(z1, np.multiply(1j, z2, out=out[:, lo:]), out=out[:, lo:])
    np.divide(np.multiply(scale[lo:], body, out=body), np.sqrt(2.0), out=body)
    if real_valued:
        np.conjugate(out[:, -2 : N - 1 : -1], out=out[:, : N - 1])
        out[:, N - 1 :: N] = scale[N - 1 :: N] * z1[:, ::N]
    return out


def sample_realizations(
    phi: SpectrumSamples, count: int, seed: int | None = None, real_valued: bool = False
) -> np.ndarray:
    """Draw `count` realizations of the process with spectrum phi.

    Returns an array of shape (count, 2N); rows are time-domain sample paths.
    With real_valued=True the transform draws are constrained to Hermitian
    symmetry (requires an even spectrum) and the rows come out real.
    """
    y = _transform(_spectral_draws(phi, count, seed, real_valued), inverse=True)
    return y.real.copy() if real_valued else y


def _periodograms(y: np.ndarray, grid: DiscreteGrid) -> np.ndarray:
    """|FFT|^2 / 2N of every row of y: the grid phase has modulus one.  FFT order; np.roll by N - 1 gives nodes."""
    spec = np.abs(np.fft.fft(y, axis=-1))
    return np.divide(np.square(spec, out=spec), grid.size, out=spec)


def _ensemble(realizations, grid: DiscreteGrid) -> np.ndarray:
    y = np.atleast_2d(np.asarray(realizations))
    if y.shape[0] == 0:
        raise ValueError("need at least one realization")
    if y.ndim != 2 or y.shape[1] != grid.size:
        raise ValueError(f"realizations must be rows of {grid.size} time points, got shape {y.shape}")
    if not np.isfinite(y).all():
        rows, ts = np.nonzero(~np.isfinite(y))
        raise ValueError(f"realization {rows[0]} is not finite at t={ts[0]}: {y[rows[0], ts[0]].item()!r}")
    return y


def periodogram(y: np.ndarray, grid: DiscreteGrid) -> SpectrumSamples:
    """Sample spectrum |transform of y|^2 / 2N of one realization.

    Its node integral recovers the sample variance of y, and its k-th moment
    equals the cyclic sample covariance at lag k.
    """
    if np.shape(y) != (grid.size,):
        raise ValueError(f"expected one realization of shape ({grid.size},)")
    return SpectrumSamples(grid, np.roll(_periodograms(_ensemble(y, grid), grid)[0], grid.N - 1))


def estimate_covariances(realizations: np.ndarray, grid: DiscreteGrid, n: int) -> CovarianceSequence:
    """Cyclic sample covariances up to lag n, averaged over realizations.

    chat_k = mean over rows of (1/2N) sum_t y(t+k) conj(y(t)), with the time
    index wrapping.  Raises through CovarianceSequence when the estimate is
    degenerate (for instance all-zero input).
    """
    y = _ensemble(realizations, grid)
    if not 0 <= n <= grid.N:
        raise ValueError(f"need 0 <= n <= N, got n={n}")
    # the k-th moment of a periodogram is the cyclic sample covariance at lag k
    return CovarianceSequence(moment_vector(grid.angles, np.roll(_periodograms(y, grid).mean(0), grid.N - 1), n))


def estimate_cepstra(
    realizations: np.ndarray, grid: DiscreteGrid, n: int, smoothing: bool = True
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
            f"smoothed estimation needs at least {MIN_SMOOTHING_COUNT} realizations, got {y.shape[0]}"
        )
    specs = _periodograms(y, grid)
    if smoothing:
        specs = specs.mean(axis=0, keepdims=True)
    if specs.min() <= 0.0:
        which = "averaged periodogram" if smoothing else "a periodogram"
        raise ValueError(f"{which} touches zero; cannot take logs")
    m = moment_vector(grid.angles, np.roll(np.log(specs).mean(axis=0), grid.N - 1), n)[1:]
    return CepstralSequence(m)


def conjugacy_check(phi: SpectrumSamples, count: int, seed: int | None = None) -> float:
    """Monte Carlo distance from the whitening identity E[e(t) conj(y(s))] = I.

    The conjugate process divides each transform draw by its spectrum sample.
    Exact pairing of the draws makes the cross moment the identity matrix in
    expectation; the return value is the sup-norm deviation of the estimate,
    which shrinks like one over the square root of count.
    """
    vals = require_positive(phi.grid, phi.real_values(), "spectrum")
    draws = _spectral_draws(phi, count, seed, real_valued=False)
    y = _transform(draws, inverse=True)
    e = _transform(np.divide(draws, vals, out=draws), inverse=True)
    cross = e.T @ np.conjugate(y, out=y) / count
    cross.flat[:: vals.size + 1] -= 1.0
    return float(np.max(np.abs(cross)))
