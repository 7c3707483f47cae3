"""Revised simplex pivots for small equality-form linear programs from a given basis.

Pivots  maximize  obj . x   subject to  A x = b,  x >= 0, few rows and many
columns, from a basis the caller supplies; the certificate LP hands it a dual
feasible crash basis.  Each pivot reads the basic values, the row multipliers
y and the entering column off an explicit inverse of the m x m basis matrix.
While a basic value is negative a dual step lets the most negative one leave,
for the column whose reduced cost the dual ratio test picks; otherwise columns
are priced all at once by the reduced costs obj - y A: Dantzig's rule, or
Bland's (smallest improving index) after more than m degenerate pivots in a
row until the objective moves, which rules out cycling.  Ratio ties go to the
smallest basis index.  At the optimum, xb and y are solved from the final
basis, and y solves  min b . y  over  y A >= obj.  A pivot's time goes to one
O(m n) pricing product y A, one more for the row of a dual step, and an O(m)
ratio test on Python floats.  At a certificate's m <= 16 rows NumPy call
overhead outweighs that arithmetic: with m = 6 and 128 columns (n = 3, N = 64)
on a 2-vCPU Xeon with one BLAS thread, a call that stops at its start costs
~30 us, and each pivot on the updated inverse ~16 us more.
"""

import numpy as np

PIVOT_TOL = 1e-9     # smallest usable entry of an entering column or basis row
PRICE_TOL = 1e-12    # reduced cost above which a column improves the objective
RATIO_TOL = 1e-12    # basic values this close to zero at the step tie; shorter steps are degenerate
PIVOT_BUDGET_MESSAGE = "simplex exceeded the pivot budget"
PIVOT_BUDGET = 20000    # pivots per call of the pivot loop


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
