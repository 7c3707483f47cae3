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
pinned constant) with a damped Newton method.  P starts at one and Q at the
maximum-entropy denominator for c, which keeps the initial Hessian away from
the rank deficiency that the flat start (P and Q both constant) exhibits at
lambda = 0.  Each iteration transforms all the weights that its gradient and
Hessian need in one batched FFT, and its line search accepts steps by the
same rule as newton_solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circulant import SymmetricPseudoPolynomial
from .dual import (
    DESCENT_SLACK,
    FLAT_DECREMENT,
    MAX_BACKTRACKS,
    BoundaryCollapseError,
    IterationRecord,
    MaxIterationsError,
    SolverOptions,
    maxent_solve,
)
from .grid import DiscreteGrid, SpectrumSamples
from .kernels import (
    coeffs_to_real,
    hermitian_toeplitz,
    moment_vector,
    real_to_coeffs,
    trig_basis,
    trig_gram,
)
from .moments import CepstralSequence, CovarianceSequence

BOUNDARY_DETECT_TOL = 1e-12
DEFAULT_REGULARIZATION = 1e-3


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
        if self.c.n < 1:
            raise ValueError("joint matching needs degree at least 1")
        if self.regularization < 0:
            raise ValueError(f"regularization must be >= 0, got {self.regularization}")

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


def _samples(prob, p, q):
    n = prob.n
    if p.degree != n or q.degree != n:
        raise ValueError(
            f"symbol degrees ({p.degree}, {q.degree}) differ from target degree {n}"
        )
    if abs(p.coeffs[0] - 1.0) > 1e-12:
        raise ValueError(f"numerator constant term must be one, got {p.coeffs[0]!r}")
    B = trig_basis(prob.grid.angles, n)
    pv = coeffs_to_real(p.coeffs) @ B
    qv = coeffs_to_real(q.coeffs) @ B
    for name, vals in (("numerator", pv), ("denominator", qv)):
        bad = np.nonzero(vals <= 0.0)[0]
        if bad.size:
            j = int(prob.grid.indices[bad[0]])
            raise ValueError(f"{name} sample at node j={j} is {vals[bad[0]]!r}, not positive")
    return pv, qv


def _pair(seq: np.ndarray, coeffs: np.ndarray) -> float:
    value = (seq[0] * np.conj(coeffs[0])).real
    if seq.size > 1:
        value += 2.0 * np.sum((seq[1:] * np.conj(coeffs[1:])).real)
    return float(value)


def joint_value(prob: JointProblem, p, q) -> float:
    """Regularized objective at grid-positive symbols p, q with p_0 = 1."""
    pv, qv = _samples(prob, p, q)
    lam = prob.regularization
    value = _pair(prob.c.c, q.coeffs) - _pair(prob.m.with_zero(), p.coeffs)
    value += float(np.mean(pv * np.log(pv / qv)))
    if lam:
        value -= lam * float(np.mean(np.log(pv)))
    return value


def joint_gradient(prob: JointProblem, p, q) -> tuple[np.ndarray, np.ndarray]:
    """Complex gradient blocks (g_q of length n+1, g_p of length n).

    g_q[k] = c_k - integrate(P/Q, k); g_p[k] = integrate(log(P/Q), k) - m_k
    minus the regularization moments lambda * integrate(1/P, k).
    """
    pv, qv = _samples(prob, p, q)
    ratio, log_ratio, inv_p = moment_vector(
        prob.grid.angles, np.stack([pv / qv, np.log(pv / qv), 1.0 / pv]), prob.n
    )
    return prob.c.c - ratio, log_ratio[1:] - prob.m.m - prob.regularization * inv_p[1:]


def joint_hessian(prob: JointProblem, p, q) -> np.ndarray:
    """Complex second-derivative blocks [[QQ, QP], [QP*, PP]].

    QQ[k,l] = integrate(P/Q^2, k-l) for k, l = 0 ... n; QP[k,l] =
    -integrate(1/Q, k-l) against the free p_l directions (l = 1 ... n);
    PP[k,l] = integrate(1/P, k-l) plus lambda * integrate(1/P^2, k-l).
    Each block is Toeplitz.
    """
    pv, qv = _samples(prob, p, q)
    lam = prob.regularization
    pp_w = 1.0 / pv + (lam / pv**2 if lam else 0.0)
    mom = moment_vector(prob.grid.angles, np.stack([pv / qv**2, 1.0 / qv, pp_w]), prob.n)
    qq, inv_q, pp = (hermitian_toeplitz(h) for h in mom)
    top = np.hstack([qq, -inv_q[:, 1:]])
    bottom = np.hstack([-inv_q[1:, :], pp[1:, 1:]])
    return np.vstack([top, bottom])


def _moments(angles, pv, qv, lam, n):
    """Moments to lag 2n of every weight one Newton step needs, in one transform.

    Rows: P/Q, P/Q^2, log(P/Q), 1/Q, 1/P + lambda/P^2 and, for lambda > 0,
    1/P; so the last row holds the moments of 1/P at every lambda.
    """
    weights = [pv / qv, pv / qv**2, np.log(pv / qv), 1.0 / qv, 1.0 / pv + lam / pv**2]
    if lam:
        weights.append(1.0 / pv)
    return moment_vector(angles, np.array(weights), 2 * n)


def _real_hessian(mom):
    """Real Hessian in (q_0, Re q_k, Im q_k, Re p_k, Im p_k) from `_moments` rows."""
    qq, inv_q, pp = trig_gram(mom[[1, 3, 4]])
    size = qq.shape[0]    # 2n+1 parameters of Q, then the 2n free ones of P
    H = np.empty((2 * size - 1, 2 * size - 1))
    H[:size, :size] = qq
    H[:size, size:] = -inv_q[:, 1:]
    H[size:, :size] = -inv_q[1:, :]
    H[size:, size:] = pp[1:, 1:]
    return H


def _real_grad(gq, gp):
    parts = [np.array([gq[0].real])]
    if gq.size > 1:
        parts += [2.0 * gq[1:].real, 2.0 * gq[1:].imag]
    parts += [2.0 * gp.real, 2.0 * gp.imag]
    return np.concatenate(parts)


def joint_solve(
    prob: JointProblem,
    opts: SolverOptions | None = None,
    initial: tuple[SymmetricPseudoPolynomial, SymmetricPseudoPolynomial] | None = None,
) -> JointReport:
    """Newton iteration for the joint problem at the stored regularization.

    `initial` optionally seeds the iteration with a (p, q) pair, for example
    the symbols of a solve at a larger regularization.  Raises
    BoundaryCollapseError when a symbol is forced to the positivity floor; at
    lambda = 0 that commonly means the cepstral targets demand a spectral
    zero, and rerunning with a small positive regularization is the
    recommended fallback.
    """
    opts = opts or SolverOptions()
    grid, n = prob.grid, prob.n
    angles = grid.angles
    lam = prob.regularization
    B = trig_basis(angles, n)
    Bp = B[1:]
    scale = max(1.0, prob.c.sup_norm(), float(np.max(np.abs(prob.m.m), initial=0.0)))

    if initial is not None:
        p0, q0 = initial
        _samples(prob, p0, q0)    # degree, normalization and positivity checks
        vq = coeffs_to_real(q0.coeffs)
        vp = coeffs_to_real(p0.coeffs)[1:]
    else:
        # P = 1 flat, Q from plain covariance matching: a strictly interior
        # pair whose Hessian is nonsingular even without regularization
        base = maxent_solve(prob.c, grid, SolverOptions(grad_tol=1e-8))
        vq = coeffs_to_real(base.q.coeffs)
        vp = np.zeros(2 * n)

    def node_values(u):
        return 1.0 + u[2 * n + 1 :] @ Bp, u[: 2 * n + 1] @ B

    def objective(u, pv, qv):
        value = _pair(prob.c.c, real_to_coeffs(u[: 2 * n + 1]))
        p_real = np.concatenate(([1.0], u[2 * n + 1 :]))
        value -= _pair(prob.m.with_zero(), real_to_coeffs(p_real))
        value += float(np.mean(pv * np.log(pv / qv)))
        if lam:
            value -= lam * float(np.mean(np.log(pv)))
        return value

    def gradient(mom):
        gq = prob.c.c - mom[0, : n + 1]
        gp = mom[2, 1 : n + 1] - prob.m.m - lam * mom[-1, 1 : n + 1]
        return gq, gp

    def residual_of(gq, gp):
        return max(float(np.max(np.abs(gq))), float(np.max(np.abs(gp))))

    u = np.concatenate([vq, vp])
    pv, qv = node_values(u)
    if min(pv.min(), qv.min()) <= opts.boundary_floor:
        raise ValueError("initial symbols are not interior on this grid")
    current = objective(u, pv, qv)
    trace: list[IterationRecord] = []
    for iteration in range(opts.max_iter + 1):
        mom = _moments(angles, pv, qv, lam, n)
        gq, gp = gradient(mom)
        cov_res = float(np.max(np.abs(gq)))
        cep_res = float(np.max(np.abs(gp)))
        residual = max(cov_res, cep_res)
        if residual <= opts.grad_tol * scale:
            q = SymmetricPseudoPolynomial(real_to_coeffs(u[: 2 * n + 1]))
            p = SymmetricPseudoPolynomial(
                real_to_coeffs(np.concatenate(([1.0], u[2 * n + 1 :])))
            )
            epsilon = lam * mom[-1, 1 : n + 1] if lam else None
            floor = BOUNDARY_DETECT_TOL * max(1.0, float(pv.max()))
            return JointReport(
                p=p,
                q=q,
                phi=SpectrumSamples(grid, pv / qv),
                epsilon=epsilon,
                iterations=iteration,
                covariance_residual=cov_res,
                cepstral_residual=cep_res,
                boundary_flag=(lam == 0.0 and float(pv.min()) <= floor),
                trace=trace,
                grid=grid,
                c=prob.c,
                m=prob.m,
                regularization=lam,
            )
        if iteration == opts.max_iter:
            break
        H = _real_hessian(mom)
        hess_min = float(np.linalg.eigvalsh(H)[0])
        g = _real_grad(gq, gp)
        step = np.linalg.solve(H, -g)
        slack = DESCENT_SLACK * (1.0 + abs(current))
        # same rule as newton_solve: when the decrement is below the rounding
        # of the objective, a full interior step counts if it lowers the residual
        flat = -float(g @ step) <= FLAT_DECREMENT * (1.0 + abs(current))
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            u_new = u + t * step
            pv_new, qv_new = node_values(u_new)
            if min(pv_new.min(), qv_new.min()) > opts.boundary_floor:
                candidate = objective(u_new, pv_new, qv_new)
                if candidate <= current + slack:
                    break
                if flat and t == 1.0:
                    moved = gradient(_moments(angles, pv_new, qv_new, lam, n))
                    if residual_of(*moved) < residual:
                        break
            t *= opts.backtrack_ratio
        else:
            hint = ""
            if lam == 0.0:
                hint = (
                    "; the unregularized problem may need a spectral zero, "
                    "retry with regularization > 0"
                )
            raise BoundaryCollapseError(
                f"backtracking stalled at iteration {iteration} with residual "
                f"{residual:.3e} and min samples (P {pv.min():.3e}, Q {qv.min():.3e})"
                + hint,
                iteration,
                residual,
                float(min(pv.min(), qv.min())),
            )
        u, pv, qv, current = u_new, pv_new, qv_new, candidate
        trace.append(
            IterationRecord(
                objective=current,
                grad_norm=residual,
                step_size=t,
                min_q_sample=float(min(pv.min(), qv.min())),
                hessian_min_eig=hess_min,
            )
        )
    if lam == 0.0 and pv.min() < 1e-3 * max(1.0, pv.max()):
        # Stalling with a collapsing numerator is the boundary phenomenon of the
        # unregularized problem, not a generic iteration budget issue.
        raise BoundaryCollapseError(
            f"no convergence after {opts.max_iter} iterations, residual "
            f"{residual:.3e}; the numerator is approaching the boundary, which "
            "exact cepstral matching may require -- retry with "
            "regularization > 0",
            opts.max_iter,
            residual,
            float(pv.min()),
        )
    raise MaxIterationsError(
        f"no convergence after {opts.max_iter} iterations, residual {residual:.3e}"
    )


def epsilon_report(report: JointReport, tol: float = 1e-8) -> np.ndarray:
    """Adjusted cepstral targets m_k + epsilon_k, k = 1 ... n.

    These are the logarithmic moments the solved spectrum actually attains:
    the function recomputes integrate(log(P/Q), k) from the report and
    verifies agreement within tol before returning.  Only defined for a
    report solved with regularization > 0.
    """
    if report.epsilon is None:
        raise ValueError("epsilon is only reported for regularization > 0")
    adjusted = report.m.m + report.epsilon
    grid = report.grid
    attained = moment_vector(
        grid.angles, np.log(report.phi.real_values()), report.m.n
    )[1:]
    worst = float(np.max(np.abs(attained - adjusted)))
    scale = max(1.0, float(np.max(np.abs(adjusted))))
    if worst > tol * scale:
        raise AssertionError(
            f"adjusted cepstra differ from attained log moments by {worst:.3e}"
        )
    return adjusted


def continuation_solve(
    prob: JointProblem, opts: SolverOptions | None = None, start: float = 1.0
) -> JointReport:
    """Solve a chain of decreasing regularizations, warm-starting each stage.

    Stages shrink geometrically from `start` (a tenth per stage) and finish
    at the problem's stored regularization exactly.  Useful near the boundary
    of the cepstral cone, where a cold solve at small lambda stalls.
    """
    target = prob.regularization
    if start <= 0 or start < target:
        raise ValueError(
            f"need start > 0 and start >= target regularization, got {start}"
        )
    lams = []
    lam = start
    while lam > max(target, 1e-16) * (1.0 + 1e-9):
        lams.append(lam)
        lam /= 10.0
    lams.append(target)
    report = None
    for lam in lams:
        stage = JointProblem(prob.grid, prob.c, prob.m, regularization=lam)
        seed = None if report is None else (report.p, report.q)
        report = joint_solve(stage, opts, initial=seed)
    return report
