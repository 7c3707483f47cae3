"""Circulant matrices with shift-invariant structure and their symbols.

A circulant on the 2N-grid is determined by its symbol samples at the grid
nodes; sums, products and inverses act pointwise on those samples because the
DFT diagonalizes every circulant simultaneously.  Dense 2N x 2N matrices are
materialized only for validation and are capped in size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    SYMMETRY_TOL,
    DiscreteGrid,
    GridMismatchError,
    Signal,
    SpectrumSamples,
    _as_complex_values,
    _is_real,
    refuse_nodes,
)
from .kernels import moment_vector

DENSE_CAP = 512          # largest 2N for which dense() materializes
SINGULAR_TOL = 1e-13     # relative threshold below which a sample counts as zero
BANDED_TOL = 1e-10       # relative threshold for a vanishing coefficient


class SingularSymbolError(ValueError):
    """A symbol sample is (numerically) zero where an inverse is required."""


@dataclass(eq=False)
class SymmetricPseudoPolynomial:
    """Hermitian coefficient list p_0 ... p_n with p_{-k} = conj(p_k) implicit.

    p_0 must be real.  Evaluations P(zeta) = sum_{k=-n}^{n} p_k zeta^{-k} are
    real on every grid that admits the degree.  On a grid with N = n the top
    coefficient pairs with itself, so p_N must be real as well.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = _hermitian_coefficients(self.coeffs, "coeffs", "p_0")

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1


def _hermitian_coefficients(values, name: str, first: str) -> np.ndarray:
    """values as a nonempty finite 1-d complex array, entry 0 checked real and made real."""
    c = np.atleast_1d(np.asarray(values, dtype=complex))
    if c.ndim != 1 or c.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d sequence")
    scale = float(np.max(np.abs(c), initial=1.0))    # NaN-propagating, unlike max()
    if not np.isfinite(scale):
        raise ValueError(f"{name} must be finite, got {c!r}")
    if abs(c[0].imag) > SYMMETRY_TOL * scale:
        raise ValueError(f"{first} must be real, got {c[0]!r}")
    c[0] = c[0].real
    return c


def constant_symbol(value: float) -> SymmetricPseudoPolynomial:
    return SymmetricPseudoPolynomial(np.array([value], dtype=complex))


def eval_symbol(p: SymmetricPseudoPolynomial, grid: DiscreteGrid) -> SpectrumSamples:
    """Sample P(zeta_j) = sum_{k=-n}^{n} p_k zeta_j^{-k} over the grid.

    The result is real-valued.  Degree must not exceed N, and a degree-N
    symbol needs a real top coefficient (its term is self-paired on the grid).
    """
    n = p.degree
    if n > grid.N:
        raise ValueError(f"symbol degree {n} exceeds grid half order N={grid.N}")
    scale = max(1.0, float(np.max(np.abs(p.coeffs))))
    angles = grid.angles
    vals = np.full(grid.size, float(p.coeffs[0].real))
    top_paired = min(n, grid.N - 1)
    for k in range(1, top_paired + 1):
        vals += 2.0 * (p.coeffs[k] * np.exp(-1j * k * angles)).real
    if n == grid.N:
        pN = p.coeffs[n]
        if abs(pN.imag) > SYMMETRY_TOL * scale:
            raise ValueError(
                f"degree-N symbol needs a real top coefficient, got {pN!r}"
            )
        vals += pN.real * np.cos(grid.N * angles)
    return SpectrumSamples(grid, vals)


def symbol_from_samples(s: SpectrumSamples, n: int) -> SymmetricPseudoPolynomial:
    """Extract coefficients p_k = integrate(s, k) for k = 0 ... n.

    Exact when the samples come from a symbol of degree <= n; otherwise the
    plain truncation, which is the least-squares fit in the node measure.
    Samples must be real.
    """
    grid = s.grid
    if not 0 <= n <= grid.N:
        raise ValueError(f"requested degree {n} outside [0, N={grid.N}]")
    vals = s.real_values()
    coeffs = moment_vector(grid.angles, vals, n)
    if n == grid.N:
        coeffs[n] = coeffs[n].real
    return SymmetricPseudoPolynomial(coeffs)


def is_positive_on_grid(p: SymmetricPseudoPolynomial, grid: DiscreteGrid):
    """(flag, margin): flag is min_j P(zeta_j) > 0, margin that minimum."""
    vals = eval_symbol(p, grid).real_values()
    margin = float(vals.min())
    return margin > 0.0, margin


def _check_dense_cap(grid: DiscreteGrid) -> None:
    if grid.size > DENSE_CAP:
        raise ValueError(
            f"dense materialization capped at 2N <= {DENSE_CAP}, grid has {grid.size}"
        )


@dataclass
class Circulant:
    """A circulant operator held by its symbol samples on the grid."""

    grid: DiscreteGrid
    sample_values: np.ndarray

    def __post_init__(self):
        self.sample_values = _as_complex_values(self.grid, self.sample_values)

    @classmethod
    def from_symbol(cls, grid: DiscreteGrid, p: SymmetricPseudoPolynomial):
        return cls(grid, eval_symbol(p, grid).values)

    def apply(self, signal: Signal) -> Signal:
        """Matrix-vector product via pointwise action in the transform domain."""
        from .grid import dft, idft

        if signal.grid != self.grid:
            raise GridMismatchError("signal grid differs from operator grid")
        hat = dft(signal).values * self.sample_values
        return idft(SpectrumSamples(self.grid, hat))

    def dense(self) -> np.ndarray:
        """Materialize the 2N x 2N matrix (validation only, capped size)."""
        _check_dense_cap(self.grid)
        F = np.exp(-1j * np.outer(self.grid.angles, self.grid.indices))
        return (F.conj().T * self.sample_values) @ F / self.grid.size


class HermitianCirculant(Circulant):
    """Circulant with real symbol samples; its dense form is Hermitian."""

    def __post_init__(self):
        super().__post_init__()
        real = SpectrumSamples(self.grid, self.sample_values).real_values()
        self.sample_values = real.astype(complex)

    @classmethod
    def identity(cls, grid: DiscreteGrid):
        return cls(grid, np.ones(grid.size))


@dataclass(frozen=True)
class CyclicShift:
    """The cyclic shift S on the grid: (S g)_k = g_{k+1}, symbol zeta."""

    grid: DiscreteGrid

    def as_circulant(self, power: int = 1) -> Circulant:
        return Circulant(self.grid, self.grid.nodes**power)

    def dense(self, power: int = 1) -> np.ndarray:
        """The 2N x 2N permutation matrix of S**power (validation only, capped size)."""
        _check_dense_cap(self.grid)
        size = self.grid.size
        S = np.zeros((size, size))
        for i in range(size):
            S[i, (i + power) % size] = 1.0
        return S

    def apply(self, signal: Signal, power: int = 1) -> Signal:
        if signal.grid != self.grid:
            raise GridMismatchError("signal grid differs from shift grid")
        return Signal(self.grid, np.roll(signal.values, -power))


def _wrap(grid, values) -> Circulant:
    # products of real-sampled operators stay real; keep the stronger type then
    cls = HermitianCirculant if _is_real(values) else Circulant
    return cls(grid, values)


def _samples_of(*operands) -> tuple:
    """The grid the operands share, then the symbol samples of each."""
    ops = [a.as_circulant() if isinstance(a, CyclicShift) else a for a in operands]
    if any(a.grid != ops[0].grid for a in ops):
        raise GridMismatchError("operands live on different grids")
    return (ops[0].grid, *(a.sample_values for a in ops))


def multiply(a, b) -> Circulant:
    """Product of circulants: pointwise product of symbol samples."""
    grid, va, vb = _samples_of(a, b)
    return _wrap(grid, va * vb)


def add(a, b) -> Circulant:
    """Sum of circulants: pointwise sum of symbol samples."""
    grid, va, vb = _samples_of(a, b)
    return _wrap(grid, va + vb)


def invert(a) -> Circulant:
    """Inverse circulant: pointwise reciprocal of symbol samples.

    Raises SingularSymbolError naming the first offending node when any
    sample falls below SINGULAR_TOL relative to the largest one.
    """
    grid, v = _samples_of(a)
    mags = np.abs(v)
    floor = SINGULAR_TOL * float(mags.max()) if mags.max() > 0 else 0.0
    what = "symbol sample magnitude is below the invertibility floor"
    refuse_nodes(grid, mags, mags <= floor, what, SingularSymbolError)
    return _wrap(grid, 1.0 / v)


def banded_check(m, n: int) -> bool:
    """True when symbol coefficients with |k| > n vanish to 1e-10 relative."""
    grid, v = _samples_of(m)
    # full coefficient window k = -N+1 ... N, lag k stored at k mod 2N
    coeffs = moment_vector(grid.angles, v, grid.size - 1)[grid.indices % grid.size]
    scale = max(float(np.max(np.abs(coeffs))), 1e-300)
    tail = coeffs[np.abs(grid.indices) > n]
    if tail.size == 0:
        return True
    return float(np.max(np.abs(tail))) <= BANDED_TOL * scale
