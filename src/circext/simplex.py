"""Dual simplex pivots for small equality-form linear programs from a dual feasible basis.

Pivots  maximize  obj . x   subject to  A x = b,  x >= 0, few rows and many
columns, from a dual feasible basis the caller supplies: the certificate LP's
crash basis.  Each pivot reads the basic values, the row multipliers y and
the pivot row off an explicit inverse of the m x m basis matrix, formed only
once a pivot is needed.  While a basic value is negative a dual step lets the
most negative one leave, for the column whose reduced cost the dual ratio
test picks.  Dual steps keep every reduced cost obj - y A at most zero up to
rounding, so once the basic values are nonnegative, xb and y solved from the
final basis are optimal and y solves  min b . y  over  y A >= obj; the caller
checks both.  A pivot's time goes to two O(m n) products, the pivot row and
y A, and an O(m^2) update of the inverse.  At m = 6 and 128 columns (n = 3,
N = 64) on a 2-vCPU Xeon with one BLAS thread, NumPy call overhead outweighs
that arithmetic: a call that stops at its start costs ~15 us, the first pivot
~35 us more and each later one ~17 us.
"""

import numpy as np

PIVOT_TOL = 1e-9     # smallest usable entry of a basis row
RATIO_TOL = 1e-12    # steps that move b . y by at most this are degenerate
PIVOT_BUDGET_MESSAGE = "simplex exceeded the pivot budget"
PIVOT_BUDGET = 20000    # pivots per call of the pivot loop


def _pivot_until_optimal(A, b, cost, basis, max_pivots):
    """Dual steps on basis in place until no basic value is short: (basic values, y, pivots).

    A's largest entry is 1 in magnitude, as in the certificate's rows.  Dual
    steps run while a basic value is below -1e-13 max(1, |b|) and a column
    can enter its row; one moving b . y by at most RATIO_TOL is degenerate.
    After more than m of those in a row the leaving row and ratio ties go to
    the smallest index, and after 2m the values still short count as rounded
    zeros: an ill-conditioned basis can flip their sign.  A start with none
    short returns at once.  Otherwise each step updates the basis inverse by
    a rank-one product-form step, and np.linalg.inv recomputes it every m
    pivots from the first.  Once max|inv| > 1e3 / m, a basis on which updated
    products can cycle, the rest of the loop solves three systems with B.
    More than max_pivots steps raise RuntimeError.
    """
    m, B, cb = basis.size, A[:, basis], cost[basis]
    floor = -1e-13 * max(1.0, np.abs(b).max(initial=0.0))
    xb = np.linalg.solve(B, b)
    if xb.min(initial=0.0) >= floor:    # an optimal start needs no inverse
        return xb, np.linalg.solve(B.T, cb), 0
    stalled, solving = 0, False
    for pivots in range(max_pivots + 1):
        if not solving and pivots % m == 0:
            inv = np.linalg.inv(B)
            solving = m * np.abs(inv).max() > 1e3
        xb = np.linalg.solve(B, b) if solving else inv @ b
        if stalled > 2 * m or xb.min() >= floor:
            break
        # A.shape[1] exceeds every basis index, so only a short row can win
        leaving = int(np.where(xb < floor, basis, A.shape[1]).argmin() if stalled > m else xb.argmin())
        alpha = (np.linalg.solve(B.T, np.eye(m)[leaving]) if solving else inv[leaving]) @ A
        alpha[basis] = 0.0
        cols = np.flatnonzero(alpha < -PIVOT_TOL)
        if cols.size == 0:
            break
        if pivots == max_pivots:
            raise RuntimeError(PIVOT_BUDGET_MESSAGE)
        y = np.linalg.solve(B.T, cb) if solving else cb @ inv
        ratios = np.minimum((cost - y @ A)[cols], 0.0) / alpha[cols]
        best = int(ratios.argmin())
        stalled = stalled + 1 if ratios[best] * -xb[leaving] <= RATIO_TOL else 0
        entering = int(cols[(ratios - ratios[best]) * -alpha[cols] <= RATIO_TOL][0] if stalled > m else cols[best])
        col = A[:, entering]
        basis[leaving], cb[leaving], B[:, leaving] = entering, cost[entering], col
        if not solving:
            d = inv @ col
            row = inv[leaving] / d[leaving]
            inv -= d[:, None] * row
            inv[leaving] = row
    return np.linalg.solve(B, b), np.linalg.solve(B.T, cb), pivots
