"""Uniform 2N-point grid on the unit circle and the transforms living on it.

The grid nodes are zeta_j = exp(i*pi*j/N) for j = -N+1 ... N, so zeta_0 = 1
and zeta_N = -1.  Arrays indexed by a node j or a lag k store entry j (or k)
at position j + N - 1.  The node measure puts weight 1/(2N) on every node,
hence total mass one, and integrals against it are plain grid averages.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernels import moment_vector

SYMMETRY_TOL = 1e-12     # relative tolerance of every realness test; evenness's default


class GridMismatchError(ValueError):
    """Operands live on different grids."""


@dataclass(frozen=True)
class DiscreteGrid:
    """2N-point uniform grid on the unit circle.

    Parameters
    ----------
    N : int
        Half order.  The grid has 2N nodes zeta_j = exp(i*pi*j/N) for
        j = -N+1 ... N; 2N may be any even integer >= 2.
    """

    N: int

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or isinstance(self.N, bool):
            raise ValueError(f"N must be an integer, got {self.N!r}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        object.__setattr__(self, "N", int(self.N))

    @property
    def size(self) -> int:
        """Number of nodes, 2N."""
        return 2 * self.N

    @cached_property
    def indices(self) -> np.ndarray:
        """Node indices j = -N+1 ... N in storage order."""
        return np.arange(-self.N + 1, self.N + 1)

    @cached_property
    def angles(self) -> np.ndarray:
        """Node angles theta_j = pi*j/N in storage order."""
        return np.pi * self.indices / self.N

    @cached_property
    def nodes(self) -> np.ndarray:
        """The 2N-th roots of unity zeta_j in storage order."""
        return np.exp(1j * self.angles)

    @property
    def measure_weight(self) -> float:
        """Weight of each node, 1/(2N)."""
        return 1.0 / self.size

    def position(self, k: int) -> int:
        """Storage position of index k in the window -N+1 ... N."""
        if not -self.N + 1 <= k <= self.N:
            raise ValueError(f"index {k} outside window [{-self.N + 1}, {self.N}]")
        return k + self.N - 1


def refuse_nodes(grid, values, bad, what: str, error=ValueError) -> None:
    """Raise error naming the first node j where the mask bad holds, and its value there."""
    hits = bad.nonzero()[0]
    if hits.size:
        raise error(f"{what} at node j={grid.indices[hits[0]]}: {float(values[hits[0]])!r}")


def require_positive(grid: DiscreteGrid, values: np.ndarray, name: str) -> np.ndarray:
    """Return the real node values, or raise naming the first node where one is <= 0."""
    refuse_nodes(grid, values, values <= 0.0, f"{name} sample is not positive")
    return values


def _as_complex_values(grid, values):
    arr = np.asarray(values, dtype=complex)
    if arr.shape != (grid.size,):
        raise GridMismatchError(
            f"expected {grid.size} values for a grid with N={grid.N}, got shape {arr.shape}"
        )
    return arr


@dataclass
class _GridValues:
    """Complex values at the 2N storage positions of a grid, read by index or node."""

    grid: DiscreteGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = _as_complex_values(self.grid, self.values)

    def __getitem__(self, k: int) -> complex:
        return self.values[self.grid.position(k)]


class Signal(_GridValues):
    """Complex values g_k on the index window k = -N+1 ... N."""


class SpectrumSamples(_GridValues):
    """Complex samples G(zeta_j) over the grid nodes, one per node."""

    def real_values(self) -> np.ndarray:
        """The samples as a real array; ValueError unless `_is_real` accepts them."""
        if not _is_real(self.values):
            worst = np.max(np.abs(self.values.imag))
            raise ValueError(f"samples are not real: max |Im| = {worst:.3e}")
        return self.values.real.copy()


def is_hermitian_even(grid, values, tol: float = SYMMETRY_TOL):
    """True when values(j) = conj(values(-j)) within tol*scale for all stored j.

    The node j = N has no mirror in the window, so it must be real on its own.
    """
    v = np.asarray(values, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(v))))
    # positions 0 .. 2N-2 hold j = -N+1 .. N-1 and reverse onto themselves
    body = v[: 2 * grid.N - 1]
    if np.max(np.abs(body - np.conj(body[::-1]))) > tol * scale:
        return False
    return abs(v[-1].imag) <= tol * scale


def _transform(values: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Grid transform of every (..., 2N) row along the last axis.

    Forward: G(zeta_j) = sum_k g_k zeta_j^{-k}; inverse: g_k = (1/2N) sum_j
    zeta_j^k G(zeta_j).  One FFT per row, then the shift from FFT order to
    the window -N+1 ... N (FFT slots N+1 ... 2N-1 first) times its phase, in one pass.
    The phase has modulus one, so a periodogram skips it and takes the plain FFT.
    """
    N = values.shape[-1] // 2
    raw = np.fft.ifft(values, axis=-1) if inverse else np.fft.fft(values, axis=-1)
    phase = np.exp((-1j if inverse else 1j) * np.pi * (N - 1) * np.arange(-N + 1, N + 1) / N)
    out = np.empty_like(raw)
    np.multiply(raw[..., N + 1:], phase[: N - 1], out=out[..., : N - 1])
    np.multiply(raw[..., : N + 1], phase[N - 1:], out=out[..., N - 1:])
    return out


def _is_real(values: np.ndarray) -> bool:
    """True when max |Im| <= SYMMETRY_TOL * max(1, max |v|): the one realness rule."""
    scale = max(1.0, np.max(np.abs(values)))
    return bool(np.max(np.abs(values.imag)) <= SYMMETRY_TOL * scale)


def dft(signal: Signal) -> SpectrumSamples:
    """Transform a signal to its node samples G(zeta_j) = sum_k g_k zeta_j^{-k}.

    FFT-backed; agrees with the direct summation reference `dft_direct`.
    """
    return SpectrumSamples(signal.grid, _transform(signal.values))


def idft(spectrum: SpectrumSamples) -> Signal:
    """Recover g_k = (1/2N) sum_j zeta_j^k G(zeta_j); inverse of `dft`."""
    return Signal(spectrum.grid, _transform(spectrum.values, inverse=True))


def dft_direct(signal: Signal) -> SpectrumSamples:
    """Direct O(N^2) reference transform, same contract as `dft`."""
    grid = signal.grid
    E = np.exp(-1j * np.outer(grid.angles, grid.indices))
    return SpectrumSamples(grid, E @ signal.values)


def idft_direct(spectrum: SpectrumSamples) -> Signal:
    """Direct O(N^2) reference inverse transform, same contract as `idft`."""
    grid = spectrum.grid
    E = np.exp(1j * np.outer(grid.indices, grid.angles))
    return Signal(grid, (E @ spectrum.values) / grid.size)


def integrate(spectrum: SpectrumSamples, k: int) -> complex:
    """Weighted node sum (1/2N) sum_j zeta_j^k G(zeta_j) for |k| <= N.

    This is the k-th Fourier coefficient of the samples with respect to the
    node measure; k = 0 gives the plain integral.
    """
    grid = spectrum.grid
    if not -grid.N <= k <= grid.N:
        raise ValueError(f"k={k} outside [-N, N] = [{-grid.N}, {grid.N}]")
    # lag k is lag k mod 2N on the grid, so negative k reads a nonnegative lag
    return complex(moment_vector(grid.angles, spectrum.values, k % grid.size)[-1])


def plancherel_inner(f: Signal, g: Signal) -> complex:
    """Index-side inner product sum_k f_k conj(g_k).

    Also evaluates the node-side form (1/2N) sum_j F(zeta_j) conj(G(zeta_j))
    and raises if the two disagree beyond 1e-12 relative.
    """
    if f.grid != g.grid:
        raise GridMismatchError("signals live on different grids")
    lhs = complex(np.sum(f.values * np.conj(g.values)))
    F, G = _transform(np.stack((f.values, g.values)))
    rhs = complex(np.mean(F * np.conj(G)))
    scale = max(1.0, abs(lhs), abs(rhs))
    if abs(lhs - rhs) > 1e-12 * scale:
        raise AssertionError(
            f"Plancherel identity violated: index side {lhs!r}, node side {rhs!r}"
        )
    return lhs
