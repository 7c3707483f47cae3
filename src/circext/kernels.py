"""Shared numerical helpers for symbol evaluation and moment extraction.

Everything here works on raw arrays; the typed wrappers live in the module
that owns the corresponding contract.  Moments come from one inverse FFT per
weight, O(N log N) on a 2N-point grid whatever the number of lags, and the
Toeplitz and Gram matrices of the solvers are assembled from those moments
without touching the grid again, in O(n^2) and O(n^3) work.
"""

from __future__ import annotations

import functools

import numpy as np


def trig_basis(angles: np.ndarray, n: int) -> np.ndarray:
    """Rows spanning real symmetric pseudo-polynomials of degree <= n.

    Row layout: [1, 2cos(k*t) for k=1..n, 2sin(k*t) for k=1..n].
    A coefficient vector v against these rows realizes the symbol with
    p_0 = v[0], p_k = v[k] + i*v[n+k], evaluated on the grid.
    """
    rows = [np.ones_like(angles)]
    for k in range(1, n + 1):
        rows.append(2.0 * np.cos(k * angles))
    for k in range(1, n + 1):
        rows.append(2.0 * np.sin(k * angles))
    return np.array(rows)


def moment_vector(angles: np.ndarray, values: np.ndarray, kmax: int) -> np.ndarray:
    """Coefficients (1/2N) sum_j e^{ik theta_j} v_j for k = 0 ... kmax.

    angles are the 2N grid angles theta_j = pi*j/N in storage order
    (j = -N+1 ... N).  values may have shape (..., 2N): every row along the
    last axis is transformed, by a single inverse FFT costing O(N log N) per
    row, and the result has shape (..., kmax+1).  Lags are taken modulo 2N,
    so every kmax >= 0 is exact.
    """
    size = np.size(angles)
    values = np.asarray(values)
    if values.shape[-1] != size:
        raise ValueError(f"expected {size} values per row, got shape {values.shape}")
    half = size // 2
    lags = np.arange(kmax + 1)
    # storage position m holds j = m - N + 1, so lag k picks up e^{-i pi k (N-1)/N};
    # the integer exponent is reduced mod 2N before it meets floating point
    shift = np.exp(lags * (half - 1) % size * (-1j * np.pi / half))
    return np.fft.ifft(values, axis=-1)[..., lags % size] * shift


def pairing(seq: np.ndarray, coeffs: np.ndarray) -> float:
    """Real sum_{k=-n}^{n} seq_k conj(coeffs_k) of hermitian sequences stored for k >= 0."""
    value = (seq[0] * np.conj(coeffs[0])).real
    value += 2.0 * np.sum((seq[1:] * np.conj(coeffs[1:])).real)
    return float(value)


def hermitian_toeplitz(h: np.ndarray) -> np.ndarray:
    """Hermitian Toeplitz matrix T[k, l] = h_{k-l} with h_{-k} = conj(h_k)."""
    h = np.asarray(h, dtype=complex)
    lag = np.subtract.outer(np.arange(h.size), np.arange(h.size))
    return np.where(lag >= 0, h[np.abs(lag)], np.conj(h[np.abs(lag)]))


def trig_gram(h: np.ndarray) -> np.ndarray:
    """Gram matrix (1/2N) sum_j w_j b_j b_j^T of the trig_basis columns b_j.

    h holds the moments h_0 ... h_{2n} of a real weight w on the grid, with
    shape (..., 2n+1) for several weights at once; the result has shape
    (..., 2n+1, 2n+1).  The Gram matrix is linear in h, so it is one product
    with the map that `_gram_map` builds once per degree.
    """
    h = np.asarray(h, dtype=complex)
    n = (h.shape[-1] - 1) // 2
    parts = np.concatenate((h.real, h.imag), axis=-1)
    return (parts @ _gram_map(n).T).reshape(h.shape[:-1] + (2 * n + 1, 2 * n + 1))


@functools.lru_cache(maxsize=32)
def _gram_map(n: int) -> np.ndarray:
    """Read-only matrix taking [Re h_0..h_2n, Im h_0..h_2n] to the flattened Gram matrix.

    Products of cosines and sines are sums of cosines and sines of the
    difference and the sum of their frequencies, so each block is a Toeplitz
    part in h_{k-l} plus a Hankel part in h_{k+l}, with h_{-m} = conj(h_m):
    4 cos cos = 2 (cos(k-l) + cos(k+l)), 4 sin sin = 2 (cos(k-l) - cos(k+l))
    and 4 cos sin = 2 (sin(k+l) - sin(k-l)).
    """
    unit = np.eye(4 * n + 2)
    re, im = unit[: 2 * n + 1], unit[2 * n + 1 :]    # coordinates of Re h_m, Im h_m
    freq = np.arange(1, n + 1)
    diff, total = np.subtract.outer(freq, freq), np.add.outer(freq, freq)
    re_toe, im_toe = re[np.abs(diff)], np.sign(diff)[..., None] * im[np.abs(diff)]
    re_hank, im_hank = re[total], im[total]
    cos, sin = slice(1, n + 1), slice(n + 1, 2 * n + 1)
    G = np.zeros((2 * n + 1, 2 * n + 1, 4 * n + 2))
    G[0, 0] = re[0]
    G[0, cos] = G[cos, 0] = 2.0 * re[freq]
    G[0, sin] = G[sin, 0] = 2.0 * im[freq]
    G[cos, cos] = 2.0 * (re_toe + re_hank)
    G[sin, sin] = 2.0 * (re_toe - re_hank)
    G[cos, sin] = 2.0 * (im_hank - im_toe)
    G[sin, cos] = G[cos, sin].swapaxes(0, 1)
    W = G.reshape(-1, 4 * n + 2)
    W.setflags(write=False)
    return W


def coeffs_to_real(coeffs: np.ndarray) -> np.ndarray:
    """Flatten hermitian coefficients (p_0 ... p_n) to [p0, Re p_k..., Im p_k...]."""
    c = np.asarray(coeffs, dtype=complex)
    return np.concatenate(([c[0].real], c[1:].real, c[1:].imag))


def real_to_coeffs(v: np.ndarray) -> np.ndarray:
    """Inverse of coeffs_to_real."""
    v = np.asarray(v, dtype=float)
    n = (v.size - 1) // 2
    out = np.zeros(n + 1, dtype=complex)
    out[0] = v[0]
    out[1:] = v[1 : n + 1] + 1j * v[n + 1 :]
    return out
