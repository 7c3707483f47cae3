"""Revised simplex for small equality-form linear programs.

Solves  maximize  obj . x   subject to  A x = b,  x >= 0  for few rows and
many columns.  `_simplex` starts at artificial columns and pivots in two
phases; the certificate LP hands `_pivot_until_optimal` a dual feasible crash
basis instead.  Each pivot reads the basic values, the row multipliers y and
the entering column off an explicit inverse of the m x m basis matrix.  While
a basic value is negative a dual step lets the most negative one leave, for
the column whose reduced cost the dual ratio test picks; otherwise columns are
priced all at once by the reduced costs obj - y A: Dantzig's rule, or Bland's
(smallest improving index) after more than m degenerate pivots in a row until
the objective moves, which rules out cycling.  Ratio ties go to the smallest
basis index.  At the optimum, xb and y are solved from the final basis, and y
solves  min b . y  over  y A >= obj.  A pivot's time goes to one O(m n)
pricing product y A, one more for the row of a dual step, and an O(m) ratio
test on Python floats.  At a certificate's m <= 16 rows NumPy call overhead
outweighs that arithmetic: with m = 6 and 128 columns on a 2-vCPU Xeon, a call
costs ~35 us, 2/3 of it the first inverse and closing solves, and ~20 us a pivot.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-9     # smallest usable entry of an entering column or basis row
PRICE_TOL = 1e-12    # reduced cost above which a column improves the objective
RATIO_TOL = 1e-12    # basic values this close to zero at the step tie; shorter steps are degenerate
PIVOT_BUDGET_MESSAGE = "simplex exceeded the pivot budget"
ARTIFICIAL_TOL = 1e-7
PIVOT_BUDGET = 20000    # pivots per call of the pivot loop


class InfeasibleError(ValueError):
    """The constraint set A x = b, x >= 0 is empty."""


class UnboundedError(ValueError):
    """The objective is unbounded above on the feasible set."""


def _pivot_until_optimal(A, b, cost, basis, max_pivots):
    """Pivot basis in place to optimality: (basic values, y, pivots), None on an improving ray.

    pivots counts dual and primal exchanges alike.  Dual steps run while a
    basic value is below -1e-13 max(1, |b|); one that moves b . y by at most
    RATIO_TOL is degenerate.  After more than m of those in a row the leaving
    row and ratio ties go to the smallest index, and after 2m the values still
    short count as rounded zeros: an ill-conditioned basis can flip their sign.
    Each exchange updates the basis inverse by a rank-one product-form step,
    and np.linalg.inv recomputes it every m pivots from the first.  Once it
    has max|inv| > 1e3 / (m max|A|), an ill-conditioned basis on which updated
    products can cycle, the rest of the loop solves three systems with B.
    """
    m = basis.size
    scale, B, cb = m * np.abs(A).max(initial=0.0), A[:, basis], cost[basis]
    floor = -1e-13 * max(1.0, np.abs(b).max(initial=0.0))
    stalled, solving = 0, False
    for pivots in range(max_pivots + 1):
        if not solving and pivots % max(m, 1) == 0:
            inv = np.linalg.inv(B)
            solving = scale * np.abs(inv).max(initial=0.0) > 1e3
        y = np.linalg.solve(B.T, cb) if solving else cb @ inv
        reduced = cost - y @ A
        reduced[basis] = 0.0    # exact for basic columns, which rounding could make re-enter
        xb = np.linalg.solve(B, b) if solving else inv @ b
        dual = stalled <= 2 * m and xb.min(initial=0.0) < floor
        if dual:    # A.shape[1] exceeds every basis index, so only a short row can win
            leaving = int(np.where(xb < floor, basis, A.shape[1]).argmin() if stalled > m else xb.argmin())
            alpha = (np.linalg.solve(B.T, np.eye(m)[leaving]) if solving else inv[leaving]) @ A
            alpha[basis] = 0.0
            cols = np.flatnonzero(alpha < -PIVOT_TOL)
            dual = cols.size > 0
        if dual:
            ratios = np.minimum(reduced[cols], 0.0) / alpha[cols]
            best = int(ratios.argmin())
            stalled = stalled + 1 if ratios[best] * -xb[leaving] <= RATIO_TOL else 0
            entering = int(cols[(ratios - ratios[best]) * -alpha[cols] <= RATIO_TOL][0] if stalled > m else cols[best])
        else:
            entering = int((reduced > PRICE_TOL if stalled > m else reduced).argmax())
            if reduced[entering] <= PRICE_TOL:
                return np.linalg.solve(B, b), np.linalg.solve(B.T, cb), pivots
        if pivots == max_pivots:
            break
        col = A[:, entering]
        d = np.linalg.solve(B, col) if solving else inv @ col
        dl = d.tolist()
        if not dual:
            ratios = [(max(x, 0.0) / di, i) for i, (x, di) in enumerate(zip(xb.tolist(), dl)) if di > PIVOT_TOL]
            if not ratios:
                return None
            low = min(ratios)[0]
            stalled = stalled + 1 if low <= RATIO_TOL else 0
            leaving = min([(basis[i], i) for r, i in ratios if (r - low) * dl[i] <= RATIO_TOL])[1]
        basis[leaving], cb[leaving], B[:, leaving] = entering, cost[entering], col
        if not solving:
            row = inv[leaving] / dl[leaving]
            inv -= d[:, None] * row
            inv[leaving] = row
    raise RuntimeError(PIVOT_BUDGET_MESSAGE)


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
    xb, _, pivots = _pivot_until_optimal(work, b, phase1_cost, basis, max_pivots)
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
    result = _pivot_until_optimal(A[keep], b[keep], obj, basis, max_pivots)
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
