"""Covariance matching with a fixed numerator by damped Newton iteration.

For a numerator symbol P that is nonnegative on the grid and lags c_0 ... c_n,
the solver minimizes the strictly convex functional

    J(Q) = <C,Q> - integral P log Q dnu

over denominators Q of degree n that stay positive at every node.  The unique
interior minimizer matches the lags of P/Q to c exactly.  Optimization runs
over the 2n+1 real degrees of freedom (q_0, Re q_k, Im q_k); each step solves
the real symmetric Newton system and backtracks until the iterate is interior
and the objective has decreased.  Each iteration takes the moments of P/Q and
P/Q^2 from one FFT, O(N log N), and assembles the Hessian from them in O(n^3).
Where the Newton decrement is below the rounding of the objective, a full
interior step that lowers the residual is accepted as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circulant import SymmetricPseudoPolynomial, eval_symbol
from .grid import DiscreteGrid, SpectrumSamples
from .kernels import (
    coeffs_to_real,
    hermitian_toeplitz,
    moment_vector,
    real_to_coeffs,
    trig_basis,
    trig_gram,
)
from .moments import CovarianceSequence

MAX_BACKTRACKS = 60
DESCENT_SLACK = 1e-15    # rounding allowance on the strict-decrease test
FLAT_DECREMENT = 1e-12   # Newton decrement below which objective rounding hides progress
NONNEG_TOL = 1e-12


class MaxIterationsError(RuntimeError):
    """Newton iteration exhausted its budget before the residual converged."""


class BoundaryCollapseError(RuntimeError):
    """Backtracking pinned the iterate to the positivity floor.

    With a nonzero gradient this signals that the lags are likely outside the
    feasible cone for this grid; run feasibility_certificate to confirm.
    """

    def __init__(self, message, iteration, residual, min_sample):
        super().__init__(message)
        self.iteration = iteration
        self.residual = residual
        self.min_sample = min_sample


@dataclass
class SolverOptions:
    grad_tol: float = 1e-10
    max_iter: int = 100
    boundary_floor: float = 1e-12
    backtrack_ratio: float = 0.5
    initial_q: SymmetricPseudoPolynomial | None = None

    def __post_init__(self):
        if self.grad_tol <= 0 or self.max_iter <= 0 or self.boundary_floor <= 0:
            raise ValueError("tolerances and iteration budget must be positive")
        if not 0.0 < self.backtrack_ratio < 1.0:
            raise ValueError(f"backtrack_ratio must lie in (0,1), got {self.backtrack_ratio}")


@dataclass
class DualProblem:
    """Fixed numerator p and target lags c on one grid.

    p must be nonnegative at every node and not identically zero; isolated
    zeros are allowed (the spectrum P/Q then has removable zero samples).
    """

    grid: DiscreteGrid
    c: CovarianceSequence
    p: SymmetricPseudoPolynomial
    p_samples: SpectrumSamples = field(init=False)

    def __post_init__(self):
        if self.c.n > self.grid.N - 1:
            raise ValueError(f"need deg c <= N-1, got {self.c.n} on N={self.grid.N}")
        if self.p.degree > self.grid.N - 1:
            raise ValueError(f"need deg p <= N-1, got {self.p.degree} on N={self.grid.N}")
        self.p_samples = eval_symbol(self.p, self.grid)
        vals = self.p_samples.real_values()
        scale = max(1.0, float(np.max(np.abs(vals))))
        if vals.min() < -NONNEG_TOL * scale:
            raise ValueError(f"numerator is negative on the grid (min {vals.min():.3e})")
        if vals.max() <= 0.0:
            raise ValueError("numerator is identically zero on the grid")

    @property
    def n(self) -> int:
        return self.c.n


@dataclass
class IterationRecord:
    objective: float
    grad_norm: float
    step_size: float
    min_q_sample: float
    hessian_min_eig: float


@dataclass
class SolutionReport:
    q: SymmetricPseudoPolynomial
    p: SymmetricPseudoPolynomial
    phi: SpectrumSamples
    extended_c: np.ndarray
    iterations: int
    residual: float
    trace: list[IterationRecord]
    grid: DiscreteGrid
    c: CovarianceSequence


def _q_samples(prob, q: SymmetricPseudoPolynomial) -> np.ndarray:
    if q.degree != prob.n:
        raise ValueError(f"denominator degree {q.degree} differs from lag count {prob.n}")
    vals = eval_symbol(q, prob.grid).real_values()
    bad = np.nonzero(vals <= 0.0)[0]
    if bad.size:
        j = int(prob.grid.indices[bad[0]])
        raise ValueError(f"denominator sample at node j={j} is {vals[bad[0]]!r}, not positive")
    return vals


def _pairing(c_arr: np.ndarray, coeffs: np.ndarray) -> float:
    # sum_{k=-n}^n c_k conj(q_k) for hermitian sequences, a real number
    value = (c_arr[0] * np.conj(coeffs[0])).real
    if c_arr.size > 1:
        value += 2.0 * np.sum((c_arr[1:] * np.conj(coeffs[1:])).real)
    return float(value)


def dual_value(prob: DualProblem, q: SymmetricPseudoPolynomial) -> float:
    """Objective <C,Q> - integral P log Q dnu at a grid-positive Q."""
    qv = _q_samples(prob, q)
    pv = prob.p_samples.values.real
    return _pairing(prob.c.c, q.coeffs) - float(np.mean(pv * np.log(qv)))


def dual_gradient(prob: DualProblem, q: SymmetricPseudoPolynomial) -> np.ndarray:
    """Components c_k - integrate(P/Q, k) for k = 0 ... n."""
    qv = _q_samples(prob, q)
    pv = prob.p_samples.values.real
    return prob.c.c - moment_vector(prob.grid.angles, pv / qv, prob.n)


def dual_hessian(prob: DualProblem, q: SymmetricPseudoPolynomial) -> np.ndarray:
    """Hermitian Toeplitz matrix with entries h_{k-l}, h_k = integrate(P/Q^2, k).

    Positive definite at every interior point: the quadratic form is the node
    integral of |a(zeta)|^2 P/Q^2.
    """
    qv = _q_samples(prob, q)
    pv = prob.p_samples.values.real
    return hermitian_toeplitz(moment_vector(prob.grid.angles, pv / qv**2, prob.n))


def _real_gradient(gc: np.ndarray) -> np.ndarray:
    # gradient with respect to (q_0, Re q_k, Im q_k); q_0 block stays scalar
    if gc.size == 1:
        return np.array([gc[0].real])
    return np.concatenate(([gc[0].real], 2.0 * gc[1:].real, 2.0 * gc[1:].imag))


def newton_solve(prob: DualProblem, opts: SolverOptions | None = None) -> SolutionReport:
    """Minimize the dual objective; returns the matched denominator and spectrum.

    Starts from Q = (integral P dnu)/c_0 (constant) unless opts.initial_q is
    given.  Raises BoundaryCollapseError when backtracking cannot leave the
    positivity floor and MaxIterationsError when the budget runs out.
    """
    opts = opts or SolverOptions()
    grid, n = prob.grid, prob.n
    angles = grid.angles
    pv = prob.p_samples.values.real
    scale = max(1.0, prob.c.sup_norm())
    B = trig_basis(angles, n)

    if opts.initial_q is not None:
        q0 = opts.initial_q
        if q0.degree > n:
            raise ValueError(f"initial_q degree {q0.degree} exceeds lag count {n}")
        coeffs = np.zeros(n + 1, dtype=complex)
        coeffs[: q0.degree + 1] = q0.coeffs
        v = coeffs_to_real(coeffs)
    else:
        v = np.zeros(2 * n + 1)
        v[0] = float(np.mean(pv)) / prob.c.c[0].real
    qv = v @ B
    if qv.min() <= opts.boundary_floor:
        raise ValueError("initial denominator is not interior on this grid")

    def objective(qvals, vvec):
        return _pairing(prob.c.c, real_to_coeffs(vvec)) - float(np.mean(pv * np.log(qvals)))

    def residual_at(qvals):
        return float(np.max(np.abs(prob.c.c - moment_vector(angles, pv / qvals, n))))

    trace: list[IterationRecord] = []
    current = objective(qv, v)
    for iteration in range(opts.max_iter + 1):
        # one transform per iteration: P/Q for the gradient, P/Q^2 for the Hessian
        ratio = pv / qv
        mom = moment_vector(angles, np.array([ratio, pv / qv**2]), 2 * n)
        gc = prob.c.c - mom[0, : n + 1]
        residual = float(np.max(np.abs(gc)))
        if residual <= opts.grad_tol * scale:
            q = SymmetricPseudoPolynomial(real_to_coeffs(v))
            phi = SpectrumSamples(grid, ratio)
            extended = moment_vector(angles, ratio, grid.N)
            return SolutionReport(
                q=q,
                p=prob.p,
                phi=phi,
                extended_c=extended,
                iterations=iteration,
                residual=residual,
                trace=trace,
                grid=grid,
                c=prob.c,
            )
        if iteration == opts.max_iter:
            break
        H = trig_gram(mom[1])
        hess_min = float(np.linalg.eigvalsh(H)[0])
        g = _real_gradient(gc)
        step = np.linalg.solve(H, -g)
        slack = DESCENT_SLACK * (1.0 + abs(current))
        # below the rounding of the objective the decrease test cannot see
        # progress, so a full step then counts if it lowers the residual
        flat = -float(g @ step) <= FLAT_DECREMENT * (1.0 + abs(current))
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            v_new = v + t * step
            qv_new = v_new @ B
            if qv_new.min() > opts.boundary_floor:
                candidate = objective(qv_new, v_new)
                if candidate <= current + slack:
                    break
                if flat and t == 1.0 and residual_at(qv_new) < residual:
                    break
            t *= opts.backtrack_ratio
        else:
            raise BoundaryCollapseError(
                f"backtracking stalled at iteration {iteration} with residual "
                f"{residual:.3e} and min denominator sample {qv.min():.3e}; "
                "the lags are likely infeasible on this grid "
                "(feasibility_certificate gives the exact answer)",
                iteration,
                residual,
                float(qv.min()),
            )
        v, qv, current = v_new, qv_new, candidate
        trace.append(
            IterationRecord(
                objective=current,
                grad_norm=residual,
                step_size=t,
                min_q_sample=float(qv.min()),
                hessian_min_eig=hess_min,
            )
        )
    raise MaxIterationsError(
        f"no convergence after {opts.max_iter} iterations, residual {residual:.3e}"
    )


def complete_covariances(report) -> np.ndarray:
    """Extend the matched lags to k = 0 ... N by integrating the spectrum.

    Accepts a SolutionReport (uses its phi) or SpectrumSamples directly.
    """
    phi = getattr(report, "phi", report)
    vals = phi.real_values()
    return moment_vector(phi.grid.angles, vals, phi.grid.N)


def maxent_solve(
    c: CovarianceSequence, grid: DiscreteGrid, opts: SolverOptions | None = None
) -> SolutionReport:
    """Covariance matching with numerator one.

    Among all spectra matching the lags, the result maximizes the node
    integral of log(spectrum); its inverse is banded of order n.
    """
    prob = DualProblem(grid, c, SymmetricPseudoPolynomial(np.array([1.0 + 0.0j])))
    return newton_solve(prob, opts)
