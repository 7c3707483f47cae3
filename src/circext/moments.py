"""Covariance and cepstral moment functionals, Toeplitz tests, feasibility.

A covariance sequence c_0 ... c_n pairs with symmetric pseudo-polynomials
through <C,P> = sum_{k=-n}^{n} c_k conj(p_k).  Membership of c in the cone of
sequences realizable by a strictly positive spectrum on a given grid is
decided by a small linear program whose dual symbol proves the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circulant import SymmetricPseudoPolynomial, _hermitian_coefficients
from .grid import DiscreteGrid, SpectrumSamples, require_positive
from .kernels import (
    coeffs_to_real, grid_basis, hermitian_toeplitz, moment_vector, pairing, real_to_coeffs,
)
from .simplex import _simplex

FEASIBLE_TOL = 1e-12     # strictly-interior floor on the LP margin
CERT_TOL = 1e-9          # a-posteriori bound on the certificate residuals
UNCHECKED_MESSAGE = "certificate failed its residual check"


@dataclass
class CovarianceSequence:
    """Lags c_0 ... c_n with c_0 real and positive."""

    c: np.ndarray

    def __post_init__(self):
        self.c = _hermitian_coefficients(self.c, "c", "c_0")
        if self.c[0].real <= 0.0:
            raise ValueError(f"c_0 must be positive, got {self.c[0].real!r}")

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


def _positive_values(phi: SpectrumSamples, n: int) -> np.ndarray:
    """The real node values of phi, checked positive, after checking 0 <= n < N."""
    grid = phi.grid
    if not 0 <= n < grid.N:
        raise ValueError(f"lag count n={n} must satisfy 0 <= n < N={grid.N}")
    return require_positive(grid, phi.real_values(), "spectrum")


def covariance_moments(phi: SpectrumSamples, n: int) -> CovarianceSequence:
    """Lags c_k = integrate(phi, k) for k = 0 ... n of a positive spectrum."""
    return CovarianceSequence(moment_vector(phi.grid.angles, _positive_values(phi, n), n))


def cepstral_moments(phi: SpectrumSamples, n: int) -> CepstralSequence:
    """Logarithmic moments m_k = integrate(log phi, k) for k = 1 ... n."""
    m = moment_vector(phi.grid.angles, np.log(_positive_values(phi, n)), n)
    return CepstralSequence(m[1:])


def inner_product(c: CovarianceSequence, p: SymmetricPseudoPolynomial) -> float:
    """The real pairing sum_{k=-n}^{n} c_k conj(p_k); terms past the shorter add nothing."""
    n = min(c.n, p.degree)
    return pairing(c.c[: n + 1], p.coeffs[: n + 1])


@dataclass
class FeasibilityCertificate:
    """Outcome of the max-min feasibility program on one grid, with its proof.

    dual is the dual symbol Q with q_0 = 1.  The residuals, checked on return, are
    the largest lag error of the node values, min_j Q(zeta_j) and |<C,Q> - margin|.
    """

    feasible: bool
    witness: SpectrumSamples | None
    margin: float
    dual: SymmetricPseudoPolynomial
    pivots: int
    lag_residual: float
    min_dual: float
    duality_gap: float


def feasibility_certificate(c: CovarianceSequence, grid: DiscreteGrid) -> FeasibilityCertificate:
    """Decide whether strictly positive node values can match the lags of c.

    Solves  maximize t  subject to  x_j >= t  and the 2n+1 real constraints
    (1/2N) sum_j zeta_j^k x_j = c_k for k = 0 ... n.  With x_j = t + 2N u_j,
    u_j >= 0, the k = 0 row reads t = c_0 - sum_j u_j, so the simplex minimizes
    sum_j u_j subject to the rows cos(k theta_j), sin(k theta_j) against
    (Re c_k, Im c_k).  Their multipliers y give the dual symbol Q = 1 + y . rows:
    Q >= 0 on the grid, q_0 = 1 and <C,Q> = t*, which proves the margin
    optimal and, for t* <= 0, separates c from the cone.  Feasible means
    t* > 0; t* = 0 is reported infeasible.  RuntimeError is raised when the
    lag residual or duality gap exceeds CERT_TOL * max|c_k| or min Q < -CERT_TOL.
    """
    n = c.n
    if n >= grid.N:
        raise ValueError(f"need n < N, got n={n}, N={grid.N}")
    if not np.isfinite(c.c).all():
        raise ValueError(f"the lags must be finite, got {c.c!r}")
    rows = 0.5 * grid_basis(grid.size, n)[1:]
    u, value, y, pivots = _simplex(-np.ones(grid.size), rows, coeffs_to_real(c.c)[1:])
    margin = float(c.c[0].real + value)
    nodes = margin + grid.size * u
    dual = SymmetricPseudoPolynomial(real_to_coeffs(np.concatenate(([1.0], 0.5 * y))))
    lag_residual = float(np.abs(moment_vector(grid.angles, nodes, n) - c.c).max())
    min_dual = float((1.0 + y @ rows).min())
    duality_gap = abs(pairing(c.c, dual.coeffs) - margin)
    tol = CERT_TOL * c.sup_norm()
    if not (lag_residual <= tol and duality_gap <= tol and min_dual >= -CERT_TOL):
        raise RuntimeError(
            f"{UNCHECKED_MESSAGE}: lag residual {lag_residual:.3e}, min Q {min_dual:.3e}, "
            f"duality gap {duality_gap:.3e} against tolerance {tol:.3e}"
        )
    feasible = bool(margin > FEASIBLE_TOL * max(1.0, c.c[0].real))
    witness = SpectrumSamples(grid, nodes) if feasible else None
    return FeasibilityCertificate(
        feasible, witness, margin, dual, pivots, lag_residual, min_dual, duality_gap
    )
