"""Grid refinement: feasibility thresholds and solver convergence sweeps.

A lag sequence whose Toeplitz matrix is positive definite always becomes
feasible on a fine enough grid, but can be infeasible on coarse ones.
find_threshold locates a grid size where feasibility switches on by doubling
and then bisecting with the exact linear-programming certificate.  Feasibility
is not monotone step by step (a sequence can be feasible at N and infeasible
at N+1), so the returned size is the switch point of the doubling chain: it is
feasible and its immediate predecessor is not.

convergence_sweep tracks how the matched denominator on growing grids
approaches the one computed on a fixed fine reference grid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .circulant import SymmetricPseudoPolynomial, constant_symbol, eval_symbol
from .dual import DualProblem, SolverOptions, newton_solve
from .grid import DiscreteGrid, refuse_nodes
from .moments import CovarianceSequence, feasibility_certificate, toeplitz_positive

DEFAULT_N_MAX = 4096
DEFAULT_REFERENCE_N = 4096
MONOTONE_FLOOR = 1e-12    # distances below this (relative) count as ties
SCHEDULE_CAP = 512        # largest grid size of a default schedule


class NotInOuterCone(ValueError):
    """The Toeplitz matrix of the lags is not positive definite.

    No grid, however fine, makes such a sequence feasible.
    """


class ThresholdNotFound(RuntimeError):
    """Doubling reached the search cap without hitting a feasible grid."""

    def __init__(self, message, n_max):
        super().__init__(message)
        self.n_max = n_max


def _is_feasible(c: CovarianceSequence, N: int) -> bool:
    return feasibility_certificate(c, DiscreteGrid(N)).feasible


def find_threshold(c: CovarianceSequence, n_max: int = DEFAULT_N_MAX) -> int:
    """A grid parameter feasible for c, by doubling and bisection; not always the smallest.

    Returns an N with c feasible on DiscreteGrid(N) and infeasible on
    DiscreteGrid(N-1), or N = n+1 (the coarsest grid accommodating the lags)
    when that is already feasible.  Raises NotInOuterCone when no threshold
    exists and ThresholdNotFound when it exceeds n_max.
    """
    positive, min_eig = toeplitz_positive(c)
    if not positive:
        raise NotInOuterCone(
            f"Toeplitz matrix has min eigenvalue {min_eig:.6e}; "
            "no grid size makes these lags feasible"
        )
    lo = c.n + 1
    if lo > n_max:
        raise ThresholdNotFound(
            f"the coarsest grid for degree {c.n} already exceeds N_max={n_max}", n_max
        )
    if _is_feasible(c, lo):
        return lo
    # doubling probe clamped at n_max, so a feasible N under the cap is not
    # skipped over by the last doubling step
    hi = lo
    while True:
        if hi >= n_max:
            raise ThresholdNotFound(
                f"no feasible grid with N <= {n_max} (last tried N={hi})", n_max
            )
        lo, hi = hi, min(2 * hi, n_max)
        if _is_feasible(c, hi):
            break
    # invariant: lo infeasible, hi feasible; shrink to an adjacent pair
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _is_feasible(c, mid):
            hi = mid
        else:
            lo = mid
    return hi


def default_schedule(c: CovarianceSequence, n_max: int = DEFAULT_N_MAX) -> list[int]:
    """Doubling schedule N0, 2 N0, 4 N0, ... up to SCHEDULE_CAP, from the feasibility threshold."""
    start = find_threshold(c, n_max)
    schedule = [start]
    while schedule[-1] * 2 <= SCHEDULE_CAP:
        schedule.append(schedule[-1] * 2)
    return schedule


def check_schedule(c: CovarianceSequence, grid_sizes: list[int], reference_N: int) -> None:
    """Refuse an empty schedule, or one not strictly increasing within (c.n, reference_N)."""
    if not grid_sizes:
        raise ValueError("the schedule must contain at least one grid size")
    if any(b <= a for a, b in zip(grid_sizes, grid_sizes[1:])):
        raise ValueError("the schedule must be strictly increasing")
    if grid_sizes[0] <= c.n:
        raise ValueError(f"every grid size must exceed the lag degree {c.n}")
    if reference_N <= grid_sizes[-1]:
        raise ValueError(f"reference_N must exceed every swept grid size; reference_N={reference_N}, largest N={grid_sizes[-1]}")


@dataclass
class SweepStage:
    N: int
    feasible: bool
    distance: float | None = None
    iterations: int | None = None
    runtime_ms: float | None = None
    error: str | None = None


@dataclass
class SweepReport:
    reference_N: int
    reference_q: SymmetricPseudoPolynomial
    stages: list[SweepStage] = field(default_factory=list)
    eventually_decreasing: bool = False


def convergence_sweep(
    c: CovarianceSequence,
    grid_sizes: list[int],
    p: SymmetricPseudoPolynomial | None = None,
    reference_N: int = DEFAULT_REFERENCE_N,
    opts: SolverOptions | None = None,
) -> SweepReport:
    """Solve on each grid size and measure distance to a fine-grid reference.

    The numerator defaults to one.  Each stage first runs the feasibility
    certificate; infeasible or failing stages are recorded and skipped rather
    than aborting the sweep.  Distances are sup norms over the complex
    denominator coefficients.  The eventually_decreasing flag certifies that
    the distances of the last (up to four) successful stages are nonincreasing.
    """
    check_schedule(c, grid_sizes, reference_N)
    if p is None:
        p = constant_symbol(1.0)
    # dense check on the continuous circle: the 4 * reference_N nodes of a doubled grid
    dense = DiscreteGrid(2 * reference_N)
    vals = eval_symbol(p, dense).real_values()
    refuse_nodes(dense, vals, vals <= 0.0, f"numerator is not positive on the circle (N={dense.N})")

    ref_grid = DiscreteGrid(reference_N)
    ref = newton_solve(DualProblem(ref_grid, c, p), opts)
    report = SweepReport(reference_N=reference_N, reference_q=ref.q)

    for N in grid_sizes:
        grid = DiscreteGrid(N)
        started = time.perf_counter()
        stage = SweepStage(N=N, feasible=feasibility_certificate(c, grid).feasible)
        report.stages.append(stage)
        if not stage.feasible:
            continue
        try:
            sol = newton_solve(DualProblem(grid, c, p), opts)
        except Exception as exc:    # keep sweeping; record what failed
            stage.error = str(exc)
            continue
        stage.runtime_ms = 1e3 * (time.perf_counter() - started)
        stage.distance = float(np.max(np.abs(sol.q.coeffs - ref.q.coeffs)))
        stage.iterations = sol.iterations

    # distances that sit at the floating-point floor count as ties, so a
    # fully converged tail is not flagged non-monotone on rounding jitter
    floor = MONOTONE_FLOOR * max(1.0, float(np.max(np.abs(ref.q.coeffs))))
    tail = [
        max(s.distance, floor) for s in report.stages if s.distance is not None
    ][-4:]
    report.eventually_decreasing = len(tail) >= 2 and all(
        b <= a for a, b in zip(tail, tail[1:])
    )
    return report
