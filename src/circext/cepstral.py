"""Joint covariance and cepstral matching with optional interior regularization.

Given lags c_0 ... c_n and cepstral targets m_1 ... m_n, the solver minimizes

    J_lambda(P, Q) = <C,Q> - <M,P> + integral P log(P/Q) dnu
                     - lambda * integral log P dnu

over symbols P, Q of degree n that are positive on the grid, with the
normalization p_0 = 1.  At an interior optimum the spectrum P/Q matches the
lags exactly; the cepstral targets are met exactly at lambda = 0 and up to an
explicit nonnegative correction epsilon_k for lambda > 0.  The lambda term
repels P from the boundary, trading cepstral accuracy for robustness.

Optimization runs over the 4n+1 free real parameters (all of Q, P minus its
pinned constant) with the dual module's damped Newton driver.  P starts at one
and Q at maxent_solve's answer for c, which keeps the initial Hessian away from
the rank deficiency that the flat start (P and Q both constant) exhibits at
lambda = 0.  Each iteration transforms all the weights that its gradient and
Hessian need in one batched real-input FFT.  joint_value and joint_gradient
evaluate the functions the solver runs; joint_hessian gives the complex Toeplitz
blocks (k, l >= 0), whose real form over lags <= 2n the solver factors, both
from one Toeplitz builder.  `lambda_path` loops over weights, each warm-started.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .circulant import SymmetricPseudoPolynomial
from .dual import (
    IterationRecord,
    MaxIterationsError,
    SolverOptions,
    _collapse,
    _damped_newton,
    _symbol_samples,
    maxent_solve,
)
from .grid import DiscreteGrid, SpectrumSamples
from .kernels import (
    coeffs_to_real, grid_basis, hermitian_toeplitz, moment_vector, pairing, real_to_coeffs, trig_gram,
)
from .moments import CepstralSequence, CovarianceSequence, cepstral_moments

BOUNDARY_DETECT_TOL = 1e-12
DEFAULT_REGULARIZATION = 1e-3
EPSILON_TOL = 1e-8       # relative agreement epsilon_report demands of the attained log moments


@dataclass
class JointProblem:
    """Lag and cepstral targets of a common degree n on one grid.

    regularization is the weight lambda of the interior term; the default
    keeps P safely off the boundary at a cepstral cost of order lambda.
    Zero is allowed for exact cepstral matching but the numerator may then
    collapse onto the boundary.
    """

    grid: DiscreteGrid
    c: CovarianceSequence
    m: CepstralSequence
    regularization: float = DEFAULT_REGULARIZATION

    def __post_init__(self):
        if self.c.n != self.m.n:
            raise ValueError(
                f"lag degree {self.c.n} and cepstral degree {self.m.n} must agree"
            )
        if self.c.n > self.grid.N - 1:
            raise ValueError(f"need degree <= N-1, got {self.c.n} on N={self.grid.N}")
        if not 0 <= self.regularization < np.inf:
            raise ValueError(f"regularization must be finite and >= 0, got {self.regularization}")

    @property
    def n(self) -> int:
        return self.c.n


@dataclass
class JointReport:
    p: SymmetricPseudoPolynomial
    q: SymmetricPseudoPolynomial
    phi: SpectrumSamples
    epsilon: np.ndarray | None
    iterations: int
    covariance_residual: float
    cepstral_residual: float
    boundary_flag: bool
    trace: list[IterationRecord]
    grid: DiscreteGrid
    c: CovarianceSequence
    m: CepstralSequence
    regularization: float

    @property
    def residual(self) -> float:
        return max(self.covariance_residual, self.cepstral_residual)


def _samples(prob, p, q) -> np.ndarray:
    """Node samples (P, Q) of validated symbols, as the rows of one array."""
    if abs(p.coeffs[0] - 1.0) > 1e-12:
        raise ValueError(f"numerator constant term must be one, got {p.coeffs[0]!r}")
    return np.array((_symbol_samples(prob, p, "numerator"), _symbol_samples(prob, q)))


def _params(p, q) -> np.ndarray:
    """Real parameters (q_0, Re q_k, Im q_k, Re p_k, Im p_k); p_0 = 1 is pinned."""
    return np.concatenate([coeffs_to_real(q.coeffs), coeffs_to_real(p.coeffs)[1:]])


def _joint_objective(prob: JointProblem, u: np.ndarray, s: np.ndarray) -> float:
    """J_lambda at real parameters u with node samples s = (P, Q)."""
    size = 2 * prob.n + 1
    lam = prob.regularization
    pv, qv = s
    value = pairing(prob.c.c, real_to_coeffs(u[:size]))
    value -= pairing(prob.m.with_zero(), real_to_coeffs(np.concatenate(([1.0], u[size:]))))
    value += float(np.add.reduce(pv * np.log(pv / qv))) / pv.size
    if lam:
        value -= lam * (float(np.add.reduce(np.log(pv))) / pv.size)
    return value


def _joint_derivatives(prob: JointProblem, s: np.ndarray):
    """Gradient blocks (g_q, g_p) at node samples s = (P, Q) and the moments behind them.

    One transform takes every weight a Newton step needs to lag 2n.  Rows:
    P/Q, P/Q^2, log(P/Q), 1/Q, 1/P + lambda/P^2 and, for lambda > 0, 1/P; so
    the last row holds the moments of 1/P at every lambda.
    """
    n, lam = prob.n, prob.regularization
    pv, qv = s
    weights = [pv / qv, pv / qv**2, np.log(pv / qv), 1.0 / qv, 1.0 / pv + lam / pv**2]
    if lam:
        weights.append(1.0 / pv)
    mom = moment_vector(prob.grid.angles, np.array(weights), 2 * n)
    gq = prob.c.c - mom[0, : n + 1]
    gp = mom[2, 1 : n + 1] - prob.m.m - lam * mom[-1, 1 : n + 1]
    return (gq, gp), mom


def joint_value(prob: JointProblem, p, q) -> float:
    """Regularized objective at grid-positive symbols p, q with p_0 = 1."""
    return _joint_objective(prob, _params(p, q), _samples(prob, p, q))


def joint_gradient(prob: JointProblem, p, q) -> tuple[np.ndarray, np.ndarray]:
    """Complex gradient blocks (g_q of length n+1, g_p of length n).

    g_q[k] = c_k - integrate(P/Q, k); g_p[k] = integrate(log(P/Q), k) - m_k
    minus the regularization moments lambda * integrate(1/P, k).
    """
    return _joint_derivatives(prob, _samples(prob, p, q))[0]


def joint_hessian(prob: JointProblem, p, q) -> np.ndarray:
    """Complex second-derivative blocks [[QQ, QP], [QP*, PP]].

    QQ[k,l] = integrate(P/Q^2, k-l) for k, l = 0 ... n; QP[k,l] =
    -integrate(1/Q, k-l) against the free p_l directions (l = 1 ... n);
    PP[k,l] = integrate(1/P, k-l) plus lambda * integrate(1/P^2, k-l).
    Each block is Toeplitz.
    """
    _, mom = _joint_derivatives(prob, _samples(prob, p, q))
    return _hessian_blocks(*hermitian_toeplitz(mom[[1, 3, 4], : prob.n + 1]))


def _real_hessian(mom):
    """Real Hessian in (q_0, Re q_k, Im q_k, Re p_k, Im p_k) from `_joint_derivatives` moments."""
    return _hessian_blocks(*trig_gram(mom[[1, 3, 4]]))


def _hessian_blocks(qq, inv_q, pp):
    """[[QQ, QP], [QP*, PP]] with QP = -inv_q; P loses its pinned constant direction."""
    size = qq.shape[0]
    H = np.empty((2 * size - 1, 2 * size - 1), dtype=qq.dtype)
    H[:size, :size] = qq
    H[:size, size:] = -inv_q[:, 1:]
    H[size:, :size] = -inv_q[1:, :]
    H[size:, size:] = pp[1:, 1:]
    return H


def joint_solve(
    prob: JointProblem,
    opts: SolverOptions | None = None,
    initial: tuple[SymmetricPseudoPolynomial, SymmetricPseudoPolynomial] | None = None,
) -> JointReport:
    """Newton iteration for the joint problem at the stored regularization.

    `initial` optionally seeds the iteration with a (p, q) pair, for example
    the symbols of a solve at a larger regularization, as `lambda_path` passes
    them.  Raises BoundaryCollapseError when a symbol is forced to the
    positivity floor; at lambda = 0 that commonly means the cepstral targets
    demand a spectral zero, and rerunning with a small positive
    regularization is the recommended fallback.
    """
    opts = opts or SolverOptions()
    grid, n = prob.grid, prob.n
    lam = prob.regularization
    size = 2 * n + 1
    B = grid_basis(grid.size, n)
    scale = max(1.0, prob.c.sup_norm(), float(np.max(np.abs(prob.m.m), initial=0.0)))

    if initial is not None:
        _samples(prob, *initial)    # degree, normalization and positivity checks
        u = _params(*initial)
    else:
        # P = 1 flat, Q from plain covariance matching: a strictly interior
        # pair whose Hessian is nonsingular even without regularization
        q = maxent_solve(prob.c, grid, SolverOptions(grad_tol=1e-8)).q
        u = np.concatenate([coeffs_to_real(q.coeffs), np.zeros(2 * n)])

    hint = "" if lam else (
        "; the unregularized problem may need a spectral zero, "
        "retry with regularization > 0"
    )
    try:
        u, s, (gq, gp), mom, iterations, trace = _damped_newton(
            u,
            lambda w: np.array((1.0 + w[size:] @ B[1:], w[:size] @ B)),
            functools.partial(_joint_objective, prob),
            functools.partial(_joint_derivatives, prob),
            _real_hessian,
            opts,
            scale,
            hint,
        )
    except MaxIterationsError as exc:
        pv = exc.samples[0]
        if lam == 0.0 and pv.min() < 1e-3 * max(1.0, pv.max()):
            # Stalling with a collapsing numerator is the boundary phenomenon of the
            # unregularized problem, not a generic iteration budget issue.
            raise _collapse("iteration budget spent", opts.max_iter, exc.residual, pv, hint) from exc
        raise
    pv, qv = s
    floor = BOUNDARY_DETECT_TOL * max(1.0, float(pv.max()))
    return JointReport(
        p=SymmetricPseudoPolynomial(real_to_coeffs(np.concatenate(([1.0], u[size:])))),
        q=SymmetricPseudoPolynomial(real_to_coeffs(u[:size])),
        phi=SpectrumSamples(grid, pv / qv),
        epsilon=lam * mom[-1, 1 : n + 1] if lam else None,
        iterations=iterations,
        covariance_residual=float(np.abs(gq).max()),
        cepstral_residual=float(np.abs(gp).max()),
        boundary_flag=(lam == 0.0 and float(pv.min()) <= floor),
        trace=trace,
        grid=grid,
        c=prob.c,
        m=prob.m,
        regularization=lam,
    )


def epsilon_report(report: JointReport) -> np.ndarray:
    """Adjusted cepstral targets m_k + epsilon_k, k = 1 ... n.

    These are the logarithmic moments the solved spectrum actually attains:
    the function recomputes integrate(log(P/Q), k) from the report and
    verifies agreement within EPSILON_TOL before returning.  Only defined for a
    report solved with regularization > 0.
    """
    if report.epsilon is None:
        raise ValueError("epsilon is only reported for regularization > 0")
    adjusted = report.m.m + report.epsilon
    attained = cepstral_moments(report.phi, report.m.n).m
    worst = float(np.max(np.abs(attained - adjusted)))
    scale = max(1.0, float(np.max(np.abs(adjusted))))
    if worst > EPSILON_TOL * scale:
        raise AssertionError(
            f"adjusted cepstra differ from attained log moments by {worst:.3e}"
        )
    return adjusted


def lambda_path(
    prob: JointProblem, weights, opts: SolverOptions | None = None
) -> list[JointReport]:
    """Reports of `prob` at weights given largest first, each from the last (p, q).

    Its last report can reach a small lambda at which a cold solve stalls.
    """
    reports = []
    for lam in weights:
        seed = (reports[-1].p, reports[-1].q) if reports else None
        stage = replace(prob, regularization=lam)
        reports.append(joint_solve(stage, opts, initial=seed))
    return reports

