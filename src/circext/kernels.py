"""Shared numerical helpers for symbol evaluation and moment extraction.

Everything here works on raw arrays; the typed wrappers live in the module
that owns the corresponding contract.  Moments of real weights cost one
real-input FFT per weight, O(N log N) on a 2N-point grid, then one gather and
one product with lag tables built once per (2N, kmax), as the trig basis is
once per (2N, n).  hermitian_toeplitz is the one Toeplitz builder: the real
Gram matrices the Newton solvers factor are its matrices over lags <= 2n in
real coordinates, one O(n^3) product with a map derived from it once per degree.
Its |k - l| index and conjugation mask are cached per size k in 9 k^2 bytes,
2.6 kB at the k = 2n+1 = 17 of the n = 8 Gram map.
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
    phases = np.arange(1, n + 1)[:, None] * angles
    return np.vstack((np.ones_like(angles), 2.0 * np.cos(phases), 2.0 * np.sin(phases)))


@functools.lru_cache(maxsize=32)
def grid_basis(size: int, n: int) -> np.ndarray:
    """Read-only trig_basis of degree n at the angles of the size-point grid.

    A basis takes 8 (2n+1) size bytes, so the 32 kept hold at most 36 MB for n <= 8
    and N <= 4096; the 22 of one `extend` benchmark cycle (n <= 5) hold 1.03 MB.
    """
    half = size // 2
    return _read_only(trig_basis(np.pi * np.arange(1 - half, half + 1) / half, n))


def _read_only(table):
    """table, an array or a tuple of arrays, made read-only for a cache to hand out."""
    for part in table if isinstance(table, tuple) else (table,):
        part.setflags(write=False)
    return table


def moment_vector(angles: np.ndarray, values: np.ndarray, kmax: int) -> np.ndarray:
    """Coefficients (1/2N) sum_j e^{ik theta_j} v_j of real values v, k = 0 ... kmax.

    angles are the 2N grid angles theta_j = pi*j/N in storage order
    (j = -N+1 ... N).  values may have shape (..., 2N): every real row along
    the last axis is transformed, by a single real-input FFT costing O(N log N)
    per row, and the result has shape (..., kmax+1).  Lags are taken modulo 2N,
    so every kmax >= 0 is exact.  Complex rows take grid._transform instead.
    """
    size = np.size(angles)
    values = np.asarray(values)
    if values.shape[-1] != size:
        raise ValueError(f"expected {size} values per row, got shape {values.shape}")
    positions, shift, signs = _lag_table(size, kmax)
    out = np.fft.rfft(values, axis=-1, norm="forward")[..., positions]
    out.imag *= signs
    return out * shift


@functools.lru_cache(maxsize=32)
def _lag_table(size: int, kmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only rfft positions of the lags k = 0 ... kmax, their phases and imaginary signs.

    The conjugated rfft of a real row holds lags 0 ... N (sign -1); lag r = k mod 2N
    above N is the conjugate of lag 2N - r, the rfft as it is (sign +1).  Storage
    position m holds j = m - N + 1, so lag k picks up e^{-i pi k (N-1)/N}, its integer
    exponent reduced mod 2N before it meets floating point.  Tables take 32 (kmax+1)
    bytes with kmax < 2N, so the 32 kept hold at most 8.4 MB at N = 4096.
    """
    half, lags = size // 2, np.arange(kmax + 1)
    wrapped = lags % size
    shift = np.exp(lags * (half - 1) % size * (-1j * np.pi / half))
    return _read_only((np.minimum(wrapped, size - wrapped), shift, np.where(wrapped > half, 1.0, -1.0)))


def pairing(seq: np.ndarray, coeffs: np.ndarray) -> float:
    """Real sum_{k=-n}^{n} seq_k conj(coeffs_k) of hermitian sequences stored for k >= 0."""
    value = (seq[0] * np.conj(coeffs[0])).real
    value += 2.0 * np.add.reduce((seq[1:] * np.conj(coeffs[1:])).real)
    return float(value)


def hermitian_toeplitz(h: np.ndarray) -> np.ndarray:
    """Hermitian Toeplitz matrix T[k, l] = h_{k-l} with h_{-k} = conj(h_k), one per row of h."""
    lag, upper = _toeplitz_index(np.shape(h)[-1])
    T = np.asarray(h, dtype=complex)[..., lag]
    return np.conjugate(T, out=T, where=upper)


@functools.lru_cache(maxsize=32)
def _toeplitz_index(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only |k - l| and the mask k < l of the size x size matrices."""
    lag = np.subtract.outer(np.arange(size), np.arange(size))
    return _read_only((np.abs(lag), lag < 0))


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

    For e_j = (e^{ik theta_j}), k = -n ... n, and R the packing real_to_coeffs
    with conjugate rows for k < 0, b_j^T v = e_j^H R v; so the Gram matrix is
    Re(R^H T R), T the hermitian_toeplitz matrix of h, and the map is that
    product on the unit moment vectors (adding 0.0 clears signed zeros).
    """
    half = np.array([real_to_coeffs(e) for e in np.eye(2 * n + 1)]).T
    R = np.vstack((half[:0:-1].conj(), half))
    T = hermitian_toeplitz(np.vstack((np.eye(2 * n + 1), 1j * np.eye(2 * n + 1))))
    return _read_only(np.ascontiguousarray((R.conj().T @ T @ R).real.reshape(4 * n + 2, -1).T) + 0.0)


def coeffs_to_real(coeffs: np.ndarray) -> np.ndarray:
    """Flatten hermitian coefficients (p_0 ... p_n) to [p0, Re p_k..., Im p_k...]."""
    c = np.asarray(coeffs, dtype=complex)
    return np.concatenate(([c[0].real], c[1:].real, c[1:].imag))


def real_to_coeffs(v: np.ndarray) -> np.ndarray:
    """Inverse of coeffs_to_real."""
    v = np.asarray(v, dtype=float)
    n = (v.size - 1) // 2
    return np.concatenate((v[:1], v[1 : n + 1] + 1j * v[n + 1 :]))
