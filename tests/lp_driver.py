"""Two-phase simplex over the library's pivot loop, for tests and their records.

Solves  maximize  obj . x   subject to  A x = b,  x >= 0  from no basis at
all: phase one starts at artificial columns, pivots them out and drops the
rows they show redundant, and phase two pivots on the original columns.  Both
phases run `circext.simplex._pivot_until_optimal`, looked up through the
module at each call so that a test patching the loop patches this driver too.
The library's own LP, the feasibility certificate, starts at a dual feasible
basis instead and never runs this driver.
"""

import numpy as np

from circext import simplex
from circext.simplex import PIVOT_BUDGET, PIVOT_TOL

ARTIFICIAL_TOL = 1e-7


class InfeasibleError(ValueError):
    """The constraint set A x = b, x >= 0 is empty."""


class UnboundedError(ValueError):
    """The objective is unbounded above on the feasible set."""


def _simplex(obj, A, b, max_pivots: int = PIVOT_BUDGET):
    """Optimal (x, value, y, pivots) of max obj.x over {A x = b, x >= 0}.

    y has one multiplier per row of A, zero on rows dropped as redundant,
    with y A >= obj within PRICE_TOL and b . y = value; pivots counts both
    phases, each of which may take max_pivots >= 0.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    obj = np.asarray(obj, dtype=float)
    m, n = A.shape
    if b.shape != (m,) or obj.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    if max_pivots < 0:
        raise ValueError(f"the pivot budget must be nonnegative, got {max_pivots}")
    if not (np.isfinite(A).all() and np.isfinite(b).all() and np.isfinite(obj).all()):
        raise ValueError("LP data must be finite")
    sign = np.where(b < 0, -1.0, 1.0)
    A *= sign[:, None]
    b *= sign

    # phase one: artificial columns first, so that ratio ties drop them first
    work = np.hstack([np.eye(m), A])
    basis = np.arange(m)
    phase1_cost = np.concatenate([-np.ones(m), np.zeros(n)])
    xb, _, pivots = simplex._pivot_until_optimal(work, b, phase1_cost, basis, max_pivots)
    residual = float(xb[basis < m].sum())
    if residual > ARTIFICIAL_TOL:
        raise InfeasibleError(f"phase one residual {residual:.3e}")

    # pivot zero-level artificials out; where their row of B^-1 A vanishes
    # on the original columns, the artificial's own row is redundant
    keep = np.ones(m, dtype=bool)
    for i in np.flatnonzero(basis < m):
        row = np.linalg.solve(work[:, basis].T, np.eye(m)[i]) @ A
        j = int(np.argmax(np.abs(row)))
        if abs(row[j]) > PIVOT_TOL:
            basis[i] = m + j
        else:
            keep[basis[i]] = False
    basis = basis[basis >= m] - m

    # phase two on the original columns
    result = simplex._pivot_until_optimal(A[keep], b[keep], obj, basis, max_pivots)
    if result is None:
        raise UnboundedError("phase two found an improving ray")
    x = np.zeros(n)
    x[basis] = np.maximum(result[0], 0.0)    # a negative basic value is a rounded zero
    y = np.zeros(m)
    y[keep] = result[1]
    return x, float(obj @ x), sign * y, pivots + result[2]


def simplex_maximize(obj, A, b, max_pivots: int = PIVOT_BUDGET):
    """Maximize obj.x over {A x = b, x >= 0}; returns (x, value).

    Raises InfeasibleError when phase one cannot zero the artificials,
    UnboundedError when phase two finds an improving ray, and RuntimeError
    with PIVOT_BUDGET_MESSAGE when a phase needs more than max_pivots pivots;
    ValueError for a negative max_pivots, before any pivot.
    """
    return _simplex(obj, A, b, max_pivots)[:2]
