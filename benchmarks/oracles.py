"""Independent reference computations for the benchmark's output checks.

Nothing here calls circext: moments and symbols go through numpy's FFT in
standard frequency order, the feasibility LP goes through scipy's HiGHS, and
the sampler draws its own normals.  The library stores node j = -N+1 ... N at
position j + N - 1; rolling by -(N-1) puts node j at position j mod 2N, which
is the order numpy's FFT uses.
"""

from __future__ import annotations

import numpy as np


def fft_order(values: np.ndarray, N: int) -> np.ndarray:
    """Node samples (last axis) in library storage order, moved to FFT order."""
    return np.roll(np.asarray(values), -(N - 1), axis=-1)


def storage_order(values: np.ndarray, N: int) -> np.ndarray:
    """Inverse of fft_order."""
    return np.roll(np.asarray(values), N - 1, axis=-1)


def moments(values: np.ndarray, N: int, kmax: int) -> np.ndarray:
    """(1/2N) sum_j e^{ik theta_j} v_j for k = 0 ... kmax along the last axis."""
    return np.fft.ifft(fft_order(values, N), axis=-1)[..., : kmax + 1]


def symbol_values(coeffs: np.ndarray, N: int) -> np.ndarray:
    """P(zeta_j) = sum_{|k|<=n} p_k zeta_j^{-k} with p_{-k} = conj(p_k), for n < N."""
    coeffs = np.asarray(coeffs, dtype=complex)
    full = np.zeros(2 * N, dtype=complex)
    full[0] = coeffs[0].real
    n = coeffs.size - 1
    full[1 : n + 1] = coeffs[1:]
    full[2 * N - n :] = np.conj(coeffs[1:][::-1])
    return storage_order(np.fft.fft(full).real, N)


def node_angles(N: int) -> np.ndarray:
    return np.pi * np.arange(-N + 1, N + 1) / N


def min_phase_power(rng, n: int, N: int, radius: float, real: bool) -> np.ndarray:
    """Node values |a(zeta_j)|^2 of a degree-n polynomial a with roots inside radius.

    Complex roots lie at radii in [0.2, radius].  Real models pair conjugate
    roots and, for odd n, add one real root in [-radius, radius], so their
    power is even in theta.
    """
    if real:
        radii = rng.uniform(0.2, radius, n // 2)
        pairs = radii * np.exp(1j * rng.uniform(0.1, np.pi - 0.1, n // 2))
        roots = np.concatenate((pairs, np.conj(pairs), rng.uniform(-radius, radius, n % 2)))
    else:
        roots = rng.uniform(0.2, radius, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    zeta = np.exp(1j * node_angles(N))
    a = np.prod(1.0 - roots[:, None] * zeta[None, :], axis=0)
    return np.abs(a) ** 2


def lp_margin(c: np.ndarray, N: int):
    """max t such that node values x >= t match the lags c on the 2N grid.

    The equality rows hold plain cosines and sines, unlike the certificate's
    own tableau, whose rows carry a factor 1/(2N).
    """
    from scipy.optimize import linprog

    c = np.asarray(c, dtype=complex)
    size = 2 * N
    theta = node_angles(N)
    rows, rhs = [np.ones(size)], [size * c[0].real]
    for k in range(1, c.size):
        rows += [np.cos(k * theta), np.sin(k * theta)]
        rhs += [size * c[k].real, size * c[k].imag]
    A_eq = np.hstack([np.zeros((len(rows), 1)), np.array(rows)])
    A_ub = np.hstack([np.ones((size, 1)), -np.eye(size)])
    cost = np.zeros(size + 1)
    cost[0] = -1.0
    res = linprog(
        cost, A_ub=A_ub, b_ub=np.zeros(size), A_eq=A_eq, b_eq=np.array(rhs),
        bounds=[(None, None)] * (size + 1), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -res.fun


def draw(phi: np.ndarray, N: int, count: int, rng, real: bool) -> np.ndarray:
    """Exact Gaussian realizations (rows) whose cyclic covariance has spectrum phi."""
    size = 2 * N
    z = rng.standard_normal((count, size)) + 1j * rng.standard_normal((count, size))
    y = np.fft.ifft(np.sqrt(size * fft_order(phi, N) / 2.0) * z, axis=1)
    return np.sqrt(2.0) * y.real if real else y


def lag_products(y: np.ndarray, kmax: int) -> np.ndarray:
    """Per-row cyclic products (1/2N) sum_t y(t+k) conj(y(t)), k = 0 ... kmax."""
    Y = np.fft.fft(y, axis=1)
    return np.fft.ifft(np.abs(Y) ** 2, axis=1)[:, : kmax + 1] / y.shape[1]


def periodograms(y: np.ndarray, N: int) -> np.ndarray:
    """|transform|^2 / 2N of each row, in library storage order."""
    return storage_order(np.abs(np.fft.fft(y, axis=1)) ** 2 / y.shape[1], N)


def within_se(estimate, exact, samples, sigmas: float = 5.0) -> float:
    """Largest |estimate - exact| in units of the standard error of the mean of samples.

    samples holds one row per realization whose column means form the
    estimate to first order; real and imaginary parts are judged separately.
    Returns the worst ratio; callers compare it with sigmas.
    """
    samples = np.asarray(samples)
    count = samples.shape[0]
    worst = 0.0
    diff = np.asarray(estimate) - np.asarray(exact)
    for part in (np.real, np.imag):
        se = part(samples).std(axis=0) / np.sqrt(count)
        d = np.abs(part(diff))
        ratio = d / np.maximum(se, 1e-300)
        ratio[d <= 1e-12 * max(1.0, float(np.max(np.abs(exact))))] = 0.0
        worst = max(worst, float(ratio.max()))
    return worst
