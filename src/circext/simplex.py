"""Dense two-phase simplex for small equality-form linear programs.

Solves  maximize  obj . x   subject to  A x = b,  x >= 0  on a full tableau
with explicit Gauss-Jordan pivots.  Entering columns follow Bland's rule
(smallest improving index), which rules out cycling, and leaving rows break
ratio ties by smallest basis index.  Intended for desk-scale problems where
determinism matters more than speed.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-9
PIVOT_BUDGET_MESSAGE = "simplex exceeded the pivot budget"
ARTIFICIAL_TOL = 1e-7


class InfeasibleError(ValueError):
    """The constraint set A x = b, x >= 0 is empty."""


class UnboundedError(ValueError):
    """The objective is unbounded above on the feasible set."""


def _pivot_until_optimal(tableau, basis, cost, max_pivots):
    """Run primal simplex pivots in place; False when an unbounded ray appears."""
    m = tableau.shape[0]
    for _ in range(max_pivots):
        reduced = cost - cost[basis] @ tableau[:, :-1]
        entering = -1
        for j in range(reduced.size):
            if reduced[j] > PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return True
        col = tableau[:, entering]
        leaving = -1
        best_ratio = None
        for i in range(m):
            if col[i] > PIVOT_TOL:
                ratio = tableau[i, -1] / col[i]
                if (
                    best_ratio is None
                    or ratio < best_ratio - 1e-12
                    or (abs(ratio - best_ratio) <= 1e-12 and basis[i] < basis[leaving])
                ):
                    leaving, best_ratio = i, ratio
        if leaving < 0:
            return False
        tableau[leaving] /= tableau[leaving, entering]
        for i in range(m):
            if i != leaving and tableau[i, entering] != 0.0:
                tableau[i] -= tableau[i, entering] * tableau[leaving]
        basis[leaving] = entering
    raise RuntimeError(PIVOT_BUDGET_MESSAGE)


def simplex_maximize(obj, A, b, max_pivots: int = 20000):
    """Maximize obj.x over {A x = b, x >= 0}; returns (x, value).

    Raises InfeasibleError when phase one cannot zero the artificials and
    UnboundedError when phase two finds an improving ray.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    obj = np.asarray(obj, dtype=float)
    m, n = A.shape
    if b.shape != (m,) or obj.shape != (n,):
        raise ValueError("inconsistent LP dimensions")

    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # phase one: artificial basis, drive sum of artificials to zero
    tableau = np.zeros((m, n + m + 1))
    tableau[:, :n] = A
    tableau[:, n : n + m] = np.eye(m)
    tableau[:, -1] = b
    basis = list(range(n, n + m))
    phase1_cost = np.zeros(n + m)
    phase1_cost[n:] = -1.0
    _pivot_until_optimal(tableau, basis, phase1_cost, max_pivots)
    residual = sum(tableau[i, -1] for i in range(m) if basis[i] >= n)
    if residual > ARTIFICIAL_TOL:
        raise InfeasibleError(f"phase one residual {residual:.3e}")

    # pivot lingering zero-level artificials out; drop genuinely redundant rows
    drop = []
    for i in range(m):
        if basis[i] >= n:
            pivot_col = -1
            for j in range(n):
                if abs(tableau[i, j]) > PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col < 0:
                drop.append(i)
                continue
            tableau[i] /= tableau[i, pivot_col]
            for r in range(m):
                if r != i and tableau[r, pivot_col] != 0.0:
                    tableau[r] -= tableau[r, pivot_col] * tableau[i]
            basis[i] = pivot_col
    if drop:
        keep = [i for i in range(m) if i not in drop]
        tableau = tableau[keep]
        basis = [basis[i] for i in keep]

    # phase two on the original columns
    tableau = np.hstack([tableau[:, :n], tableau[:, -1:]])
    if not _pivot_until_optimal(tableau, basis, obj, max_pivots):
        raise UnboundedError("phase two found an improving ray")
    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i, -1]
    return x, float(obj @ x)
