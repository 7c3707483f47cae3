"""Covariance matching with a fixed numerator by damped Newton iteration.

For a numerator symbol P that is nonnegative on the grid and lags c_0 ... c_n,
the solver minimizes the strictly convex functional

    J(Q) = <C,Q> - integral P log Q dnu

over denominators Q of degree n that stay positive at every node.  The unique
interior minimizer matches the lags of P/Q to c exactly.  The damped Newton
driver `_damped_newton`, which cepstral.joint_solve shares, runs over the 2n+1
real parameters (q_0, Re q_k, Im q_k): each step solves the Newton system and
backtracks until the iterate is interior and the objective has decreased, or,
below the objective's rounding, until a full step lowers the residual.  Q
starts at lags 0 ... n of P times the N = infinity maximum-entropy denominator
(Yule-Walker), for a constant P the answer up to aliasing.  Symbols, P once and
Q at every point, are sampled through the trig basis built once per (2N, degree).
Each iteration pays for one real-input FFT of P/Q and P/Q^2, O(N log N), and an
eigvalsh and a solve of the Hessian built from those moments, O(n^3); each trial
step, for the samples w @ basis and one objective.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field

import numpy as np

from .circulant import SymmetricPseudoPolynomial
from .grid import DiscreteGrid, SpectrumSamples, refuse_nodes, require_positive
from .kernels import (
    coeffs_to_real, grid_basis, hermitian_toeplitz, moment_vector, pairing, real_to_coeffs, trig_gram,
)
from .moments import CovarianceSequence

MAX_BACKTRACKS = 60
BACKTRACK_RATIO = 0.5
BOUNDARY_FLOOR = 1e-12   # samples at or below it leave the interior
DESCENT_SLACK = 1e-15    # rounding allowance on the strict-decrease test
FLAT_DECREMENT = 1e-12   # Newton decrement below which objective rounding hides progress
NONNEG_TOL = 1e-12


class MaxIterationsError(RuntimeError):
    """Newton iteration exhausted its budget; residual and samples are the last iterate's."""

    def __init__(self, message, residual, samples):
        super().__init__(message)
        self.residual = residual
        self.samples = samples


class BoundaryCollapseError(RuntimeError):
    """Backtracking pinned the iterate to the positivity floor, or <C,Q> <= 0 at a Q > 0.

    The latter proves the lags infeasible on the grid; the former, with a nonzero
    gradient, signals that they likely are: run feasibility_certificate to confirm.
    """

    def __init__(self, message, iteration, residual, min_sample):
        super().__init__(message)
        self.iteration = iteration
        self.residual = residual
        self.min_sample = min_sample


@dataclass
class SolverOptions:
    """grad_tol is the gradient stop, scaled by max(1, sup|c|) in newton_solve and by
    max(1, sup|c|, max|m|) in joint_solve; max_iter is the iteration budget of one solve.
    A problem file's `options` may set each field.
    """

    grad_tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self):
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer)):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if not 0 < self.grad_tol <= sys.float_info.max or self.max_iter <= 0:
            raise ValueError("tolerances must be positive and finite, the iteration budget positive")


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
        for name, degree in (("c", self.c.n), ("p", self.p.degree)):
            if degree > self.grid.N - 1:
                raise ValueError(f"need deg {name} <= N-1, got {degree} on N={self.grid.N}")
        vals = coeffs_to_real(self.p.coeffs) @ grid_basis(self.grid.size, self.p.degree)
        self.p_samples = SpectrumSamples(self.grid, vals)
        scale = max(1.0, float(np.max(np.abs(vals))))
        refuse_nodes(self.grid, vals, vals < -NONNEG_TOL * scale, "numerator is negative")
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


def _symbol_samples(prob, q: SymmetricPseudoPolynomial, name: str = "denominator") -> np.ndarray:
    """Positive node samples of a symbol of the problem degree."""
    if q.degree != prob.n:
        raise ValueError(f"{name} degree {q.degree} differs from the problem degree {prob.n}")
    values = coeffs_to_real(q.coeffs) @ grid_basis(prob.grid.size, prob.n)
    return require_positive(prob.grid, values, name)


def _dual_objective(prob: DualProblem, v: np.ndarray, qv: np.ndarray) -> float:
    """<C,Q> - integral P log Q dnu at real parameters v with node samples qv."""
    pv = prob.p_samples.values.real
    return pairing(prob.c.c, real_to_coeffs(v)) - float(np.add.reduce(pv * np.log(qv))) / qv.size


def _dual_derivatives(prob: DualProblem, qv: np.ndarray):
    """Gradient block c_k - integrate(P/Q, k), k <= n, and the P/Q^2 moments to lag 2n."""
    n, pv = prob.n, prob.p_samples.values.real
    mom = moment_vector(prob.grid.angles, np.array([pv / qv, pv / qv**2]), 2 * n)
    return (prob.c.c - mom[0, : n + 1],), mom[1]


def dual_value(prob: DualProblem, q: SymmetricPseudoPolynomial) -> float:
    """Objective <C,Q> - integral P log Q dnu at a grid-positive Q."""
    return _dual_objective(prob, coeffs_to_real(q.coeffs), _symbol_samples(prob, q))


def dual_gradient(prob: DualProblem, q: SymmetricPseudoPolynomial) -> np.ndarray:
    """Components c_k - integrate(P/Q, k) for k = 0 ... n."""
    return _dual_derivatives(prob, _symbol_samples(prob, q))[0][0]


def dual_hessian(prob: DualProblem, q: SymmetricPseudoPolynomial) -> np.ndarray:
    """Hermitian Toeplitz matrix with entries h_{k-l}, h_k = integrate(P/Q^2, k).

    Positive definite at every interior point: the quadratic form is the node
    integral of |a(zeta)|^2 P/Q^2.
    """
    _, h = _dual_derivatives(prob, _symbol_samples(prob, q))
    return hermitian_toeplitz(h[: prob.n + 1])


def _real_gradient(gq: np.ndarray, gp: np.ndarray | None = None) -> np.ndarray:
    """Gradient in (q_0, Re q_k, Im q_k[, Re p_k, Im p_k]); gp holds p_k for k >= 1 only."""
    parts = [gq[:1].real, 2.0 * gq[1:].real, 2.0 * gq[1:].imag]
    if gp is not None:
        parts += [2.0 * gp.real, 2.0 * gp.imag]
    return np.concatenate(parts)


def _damped_newton(v, samples, objective, derivatives, hessian, opts, scale, hint, refutes=None):
    """Minimize objective(v, s) over real parameters v with node samples s = samples(v).

    The samples must stay above BOUNDARY_FLOOR.  derivatives(s) gives the
    complex gradient blocks (see _real_gradient) and the moments that
    hessian(moments) turns into the real Hessian.  Returns (v, s, blocks,
    moments, iterations, trace) once every gradient component is at most
    opts.grad_tol * scale.  A stalled line search or a singular Newton system
    raises BoundaryCollapseError, whose message hint ends; so does an interior
    trial point at which refutes(v) holds, a proof that no minimizer exists.
    """
    s = samples(v)
    if s.min() <= BOUNDARY_FLOOR:
        raise ValueError("the initial point is not interior on this grid")
    current = objective(v, s)
    trace: list[IterationRecord] = []
    for iteration in range(opts.max_iter + 1):
        blocks, mom = derivatives(s)
        residual = _residual(blocks)
        if residual <= opts.grad_tol * scale:
            return v, s, blocks, mom, iteration, trace
        if iteration == opts.max_iter:
            break
        H = hessian(mom)
        hess_min = float(np.linalg.eigvalsh(H)[0])
        g = _real_gradient(*blocks)
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            raise _collapse("singular Newton system", iteration, residual, s, hint) from None
        slack = DESCENT_SLACK * (1.0 + abs(current))
        # below the rounding of the objective the decrease test cannot see
        # progress, so a full step then counts if it lowers the residual
        flat = -float(g @ step) <= FLAT_DECREMENT * (1.0 + abs(current))
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            v_new = v + t * step
            s_new = samples(v_new)
            if (low := s_new.min()) > BOUNDARY_FLOOR:
                if refutes is not None and refutes(v_new):
                    raise _collapse("<C,Q> <= 0 at a grid-positive Q", iteration, residual, s_new, hint)
                candidate = objective(v_new, s_new)
                if candidate <= current + slack:
                    break
                if flat and t == 1.0 and _residual(derivatives(s_new)[0]) < residual:
                    break
            t *= BACKTRACK_RATIO
        else:
            raise _collapse("backtracking stalled", iteration, residual, s, hint)
        v, s, current = v_new, s_new, candidate
        trace.append(IterationRecord(current, residual, t, float(low), hess_min))
    raise MaxIterationsError(
        f"no convergence after {opts.max_iter} iterations, residual {residual:.3e}",
        residual,
        s,
    )


def _collapse(what, iteration, residual, s, hint) -> BoundaryCollapseError:
    """The error of an iteration that cannot leave the samples s."""
    where = f"at iteration {iteration} with residual {residual:.3e} and min sample {s.min():.3e}"
    return BoundaryCollapseError(f"{what} {where}{hint}", iteration, residual, float(s.min()))


def _residual(blocks) -> float:
    """Largest gradient component; a non-finite one, which max() could drop, raises."""
    norms = [float(np.abs(g).max()) for g in blocks]
    if not np.isfinite(norms).all():
        raise ValueError(f"non-finite gradient residual: block norms {norms}")
    return max(norms)


def newton_solve(
    prob: DualProblem, opts: SolverOptions | None = None, initial: SymmetricPseudoPolynomial | None = None
) -> SolutionReport:
    """Minimize the dual objective; returns the matched denominator and spectrum.

    Q starts at `initial`, zero-padded to degree n, when given; else at lags 0 ... n
    of P times the Yule-Walker denominator where that is interior, else at (integral
    P dnu)/c_0.  Raises BoundaryCollapseError when backtracking cannot leave the
    positivity floor or <C,Q> <= 0 at a grid-positive Q, and MaxIterationsError
    when the budget runs out.
    """
    opts = opts or SolverOptions()
    grid, n, pv = prob.grid, prob.n, prob.p_samples.values.real
    B = grid_basis(grid.size, n)
    coeffs = np.zeros(n + 1, dtype=complex)
    if initial is not None:
        if initial.degree > n:
            raise ValueError(f"initial degree {initial.degree} exceeds lag count {n}")
        coeffs[: initial.degree + 1] = initial.coeffs
    else:
        coeffs[0] = float(np.mean(pv)) / prob.c.c[0].real
        if (q := _yule_walker_start(prob.c.c, prob.p.coeffs)) is not None:
            if (coeffs_to_real(q) @ B).min() > BOUNDARY_FLOOR:
                coeffs = q
    v, qv, (gc,), _, iterations, trace = _damped_newton(
        coeffs_to_real(coeffs),
        lambda w: w @ B,
        functools.partial(_dual_objective, prob),
        functools.partial(_dual_derivatives, prob),
        trig_gram,
        opts,
        max(1.0, prob.c.sup_norm()),
        "; the lags are likely infeasible on this grid "
        "(feasibility_certificate gives the exact answer)",
        # feasible lags give <C,Q> = integral Phi Q dnu > 0 at every grid-positive Q
        lambda w: pairing(prob.c.c, real_to_coeffs(w)) <= 0.0,
    )
    ratio = pv / qv
    return SolutionReport(
        q=SymmetricPseudoPolynomial(real_to_coeffs(v)),
        p=prob.p,
        phi=SpectrumSamples(grid, ratio),
        extended_c=moment_vector(grid.angles, ratio, grid.N),
        iterations=iterations,
        residual=float(np.abs(gc).max()),
        trace=trace,
        grid=grid,
        c=prob.c,
    )


def _yule_walker_start(c: np.ndarray, p: np.ndarray) -> np.ndarray | None:
    """Lags 0 ... n of P q_inf, q_inf the N = infinity maximum-entropy denominator; or None.

    x solves T_n x = e_0 (T[k, l] = c_{k-l}); a = x / x_0, sigma^2 = 1 / x_0 and q_inf =
    |a|^2 / sigma^2 is the autocorrelation of w = a / sigma, lags -n ... n.  For P = p_0 the
    result is p_0 q_inf.  None when T_n is singular or x_0 > 0 fails (NaN too).
    """
    try:
        x = np.linalg.solve(hermitian_toeplitz(c), np.eye(c.size)[0])
    except np.linalg.LinAlgError:
        return None
    if not x[0].real > 0.0:
        return None
    w = x / np.sqrt(x[0].real)
    product = np.convolve(np.concatenate((p[:0:-1].conj(), p)), np.correlate(w, w, "full"))
    return product[p.size + c.size - 2 : p.size + 2 * c.size - 2]


def complete_covariances(report) -> np.ndarray:
    """Extend the matched lags to k = 0 ... N by integrating the spectrum.

    Accepts a SolutionReport (uses its phi) or SpectrumSamples directly.
    """
    phi = getattr(report, "phi", report)
    return moment_vector(phi.grid.angles, phi.real_values(), phi.grid.N)


def maxent_solve(
    c: CovarianceSequence, grid: DiscreteGrid, opts: SolverOptions | None = None
) -> SolutionReport:
    """Covariance matching with numerator one.

    Among all spectra matching the lags, the result maximizes the node
    integral of log(spectrum); its inverse is banded of order n.
    """
    prob = DualProblem(grid, c, SymmetricPseudoPolynomial(np.array([1.0 + 0.0j])))
    return newton_solve(prob, opts)
