"""Covariance and cepstral moment functionals, Toeplitz tests, feasibility.

A covariance sequence c_0 ... c_n pairs with symmetric pseudo-polynomials
through <C,P> = sum_{k=-n}^{n} c_k conj(p_k).  Membership of c in the cone of
sequences realizable by a strictly positive spectrum on a given grid is
decided exactly by a small linear program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circulant import SymmetricPseudoPolynomial
from .grid import DiscreteGrid, SpectrumSamples, require_positive
from .kernels import hermitian_toeplitz, moment_vector, pairing
from .simplex import simplex_maximize

REAL_TOL = 1e-12
FEASIBLE_TOL = 1e-12     # strictly-interior floor on the LP margin


@dataclass
class CovarianceSequence:
    """Lags c_0 ... c_n with c_0 real and positive."""

    c: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.c, dtype=complex))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("c must be a nonempty 1-d sequence")
        scale = float(np.max(np.abs(arr), initial=1.0))    # NaN-propagating, unlike max()
        if not np.isfinite(scale):
            raise ValueError(f"c must be finite, got {arr!r}")
        if abs(arr[0].imag) > REAL_TOL * scale:
            raise ValueError(f"c_0 must be real, got {arr[0]!r}")
        if arr[0].real <= 0.0:
            raise ValueError(f"c_0 must be positive, got {arr[0].real!r}")
        arr[0] = arr[0].real
        self.c = arr

    @property
    def n(self) -> int:
        return self.c.size - 1

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.c)))


@dataclass
class CepstralSequence:
    """Logarithmic moments m_1 ... m_n; m_0 is fixed to zero and not stored."""

    m: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.m, dtype=complex).reshape(-1)
        if arr.size == 0:
            raise ValueError("cepstral sequence needs at least m_1")
        if not np.isfinite(arr).all():
            raise ValueError(f"m must be finite, got {arr!r}")
        self.m = arr

    @property
    def n(self) -> int:
        return self.m.size

    def with_zero(self) -> np.ndarray:
        """The sequence as m_0=0, m_1, ..., m_n."""
        return np.concatenate(([0.0 + 0.0j], self.m))


def toeplitz_matrix(c: CovarianceSequence) -> np.ndarray:
    """The (n+1) x (n+1) Hermitian Toeplitz matrix T[i, j] = c_{i-j}.

    This is the covariance matrix of n+1 consecutive samples: the first
    column holds c_0 ... c_n, the first row their conjugates.
    """
    return hermitian_toeplitz(c.c)


def toeplitz_positive(c: CovarianceSequence):
    """(flag, min_eigenvalue): flag is strict positive definiteness of T_n."""
    eigs = np.linalg.eigvalsh(toeplitz_matrix(c))
    smallest = float(eigs[0])
    return smallest > 0.0, smallest


def covariance_moments(phi: SpectrumSamples, n: int) -> CovarianceSequence:
    """Lags c_k = integrate(phi, k) for k = 0 ... n of a positive spectrum."""
    grid = phi.grid
    if not 0 <= n < grid.N:
        raise ValueError(f"lag count n={n} must satisfy 0 <= n < N={grid.N}")
    vals = require_positive(grid, phi.real_values(), "spectrum")
    c = moment_vector(grid.angles, vals, n)
    return CovarianceSequence(c)


def cepstral_moments(phi: SpectrumSamples, n: int) -> CepstralSequence:
    """Logarithmic moments m_k = integrate(log phi, k) for k = 1 ... n."""
    grid = phi.grid
    if not 0 <= n < grid.N:
        raise ValueError(f"lag count n={n} must satisfy 0 <= n < N={grid.N}")
    vals = require_positive(grid, phi.real_values(), "spectrum")
    m = moment_vector(grid.angles, np.log(vals), n)
    return CepstralSequence(m[1:])


def inner_product(c: CovarianceSequence, p: SymmetricPseudoPolynomial) -> float:
    """The real pairing sum_{k=-n}^{n} c_k conj(p_k), zero-padding the shorter."""
    n = max(c.n, p.degree)
    cc = np.zeros(n + 1, dtype=complex)
    pp = np.zeros(n + 1, dtype=complex)
    cc[: c.n + 1] = c.c
    pp[: p.degree + 1] = p.coeffs
    return pairing(cc, pp)


@dataclass
class FeasibilityCertificate:
    """Outcome of the max-min feasibility program on one grid."""

    feasible: bool
    witness: SpectrumSamples | None
    margin: float


def feasibility_certificate(c: CovarianceSequence, grid: DiscreteGrid) -> FeasibilityCertificate:
    """Decide whether strictly positive node values can match the lags of c.

    Solves  maximize t  subject to  x_j >= t  and the 2n+1 real constraints
    (1/2N) sum_j zeta_j^k x_j = c_k for k = 0 ... n.  Writing x_j = t + s_j
    with s_j >= 0 removes t from every k >= 1 row, leaving a standard-form
    program for the dense simplex.  Feasible means t* > 0; the boundary case
    t* = 0 is reported infeasible with margin 0.
    """
    n = c.n
    if n >= grid.N:
        raise ValueError(f"need n < N, got n={n}, N={grid.N}")
    size = grid.size
    angles = grid.angles
    nv = 2 + size                      # t+, t-, s_0 ... s_{2N-1}
    rows = []
    rhs = []
    row0 = np.zeros(nv)
    row0[0], row0[1] = 1.0, -1.0
    row0[2:] = 1.0 / size
    rows.append(row0)
    rhs.append(c.c[0].real)
    for k in range(1, n + 1):
        phase = np.exp(1j * k * angles)
        re_row = np.zeros(nv)
        re_row[2:] = phase.real / size
        rows.append(re_row)
        rhs.append(c.c[k].real)
        im_row = np.zeros(nv)
        im_row[2:] = phase.imag / size
        rows.append(im_row)
        rhs.append(c.c[k].imag)
    objective = np.zeros(nv)
    objective[0], objective[1] = 1.0, -1.0
    x, value = simplex_maximize(objective, np.array(rows), np.array(rhs))
    margin = float(value)
    if not np.isfinite(margin):
        raise ValueError(f"certificate LP returned margin {margin}; the lags must be finite")
    tol = FEASIBLE_TOL * max(1.0, c.c[0].real)
    if margin <= tol:
        return FeasibilityCertificate(False, None, margin)
    witness = SpectrumSamples(grid, margin + x[2:])
    return FeasibilityCertificate(True, witness, margin)
