"""The two-phase test driver and the certificate's dual simplex loop, against independent LP solvers."""

import hashlib
import json
import os

import numpy as np
import pytest
from scipy.optimize import linprog

from circext import CovarianceSequence, DiscreteGrid, feasibility_certificate, moments
from circext.kernels import coeffs_to_real, grid_basis
from circext.simplex import PIVOT_BUDGET_MESSAGE, _pivot_until_optimal

from conftest import arma_lags, assert_margin_sandwich, line_lags, make_rng, rewrite_record
from lp_driver import InfeasibleError, UnboundedError, _simplex, simplex_maximize, three_solve_pivot_until_optimal


def linprog_maximize(obj, A, b):
    """Reference solve of max obj.x over {A x = b, x >= 0} via scipy."""
    res = linprog(
        -np.asarray(obj, dtype=float),
        A_eq=np.asarray(A, dtype=float),
        b_eq=np.asarray(b, dtype=float),
        bounds=[(0, None)] * len(obj),
        method="highs",
    )
    return res


class TestAgainstReference:
    def test_random_feasible_instances(self):
        rng = make_rng(101)
        solved = 0
        for trial in range(50):
            m = int(rng.integers(1, 6))
            n = m + int(rng.integers(1, 8))
            A = rng.standard_normal((m, n))
            # rhs from a random nonnegative point, so the program is feasible
            x_feas = rng.random(n)
            b = A @ x_feas
            obj = rng.standard_normal(n)
            ref = linprog_maximize(obj, A, b)
            if ref.status == 3:
                with pytest.raises(UnboundedError):
                    simplex_maximize(obj, A, b)
                continue
            assert ref.status == 0, f"reference failed on trial {trial}"
            x, value = simplex_maximize(obj, A, b)
            assert value == pytest.approx(-ref.fun, abs=1e-8)
            np.testing.assert_allclose(A @ x, b, atol=1e-8)
            assert x.min() >= -1e-9
            solved += 1
        assert solved >= 20

    def test_known_optimum(self):
        # max x + y over x + 2y + s1 = 4, 3x + y + s2 = 6; optimum at (8/5, 6/5)
        obj = [1.0, 1.0, 0.0, 0.0]
        A = [[1.0, 2.0, 1.0, 0.0], [3.0, 1.0, 0.0, 1.0]]
        b = [4.0, 6.0]
        x, value = simplex_maximize(obj, A, b)
        assert value == pytest.approx(14.0 / 5.0)
        np.testing.assert_allclose(x[:2], [8.0 / 5.0, 6.0 / 5.0], atol=1e-9)


class TestEdgeCases:
    def test_infeasible(self):
        # x1 + x2 = -1 has no nonnegative solution
        with pytest.raises(InfeasibleError):
            simplex_maximize([1.0, 0.0], [[1.0, 1.0]], [-1.0])
        res = linprog_maximize([1.0, 0.0], [[1.0, 1.0]], [-1.0])
        assert res.status == 2

    def test_unbounded(self):
        # max x1 with x1 - x2 = 1: the ray (1 + t, t) grows without bound
        with pytest.raises(UnboundedError):
            simplex_maximize([1.0, 0.0], [[1.0, -1.0]], [1.0])

    def test_redundant_rows(self):
        # duplicated constraint leaves a zero-level artificial to clean up
        obj = [1.0, 2.0, 0.0]
        A = [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]
        b = [3.0, 3.0, 6.0]
        x, value = simplex_maximize(obj, A, b)
        assert value == pytest.approx(6.0)
        np.testing.assert_allclose(np.array(A) @ x, b, atol=1e-9)

    @pytest.mark.parametrize("obj", [[-1.0, -1.0], [1.0, -2.0]])
    def test_zero_level_artificial_pivots_out(self, obj):
        # x1 = x2 twice over: phase one ends with an artificial basic at level zero
        # whose row still meets an original column, so it pivots out instead of
        # dropping; without that row the second objective would be unbounded
        x, value = simplex_maximize(obj, [[1.0, -1.0], [-1.0, 1.0]], [0.0, 0.0])
        np.testing.assert_array_equal(x, [0.0, 0.0])
        assert value == 0.0

    def test_negative_rhs_flip(self):
        # -x1 = -2 is x1 = 2 after the sign normalization
        x, value = simplex_maximize([1.0], [[-1.0]], [-2.0])
        assert x[0] == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            simplex_maximize([1.0, 2.0], [[1.0]], [1.0])

    def test_degenerate_vertex(self):
        # three constraints meet at one vertex; Bland's rule must not cycle
        obj = [1.0, 1.0, 0.0, 0.0, 0.0]
        A = [
            [1.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 1.0, 0.0],
            [1.0, 1.0, 0.0, 0.0, 1.0],
        ]
        b = [1.0, 1.0, 2.0]
        x, value = simplex_maximize(obj, A, b)
        assert value == pytest.approx(2.0)


# Beale (1955): from the slack basis x1, x2, x3, the largest-coefficient rule
# with smallest-index ties cycles through six degenerate bases
BEALE_OBJ = [0.0, 0.0, 0.0, 0.75, -150.0, 0.02, -6.0]
BEALE_A = [
    [1.0, 0.0, 0.0, 0.25, -60.0, -0.04, 9.0],
    [0.0, 1.0, 0.0, 0.5, -90.0, -0.02, 3.0],
    [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
]
BEALE_B = [0.0, 0.0, 1.0]


class TestCycling:
    def test_beale_terminates_at_the_optimum(self):
        ref = linprog_maximize(BEALE_OBJ, BEALE_A, BEALE_B)
        assert ref.status == 0
        x, value = simplex_maximize(BEALE_OBJ, BEALE_A, BEALE_B)
        assert value == pytest.approx(-ref.fun, abs=1e-12)
        assert value == pytest.approx(0.05, abs=1e-12)
        np.testing.assert_allclose(np.array(BEALE_A) @ x, BEALE_B, atol=1e-12)

    def test_beale_from_the_slack_basis(self):
        # the cycling start itself: the degenerate stall hands pricing to Bland
        basis = np.array([0, 1, 2])
        A, b, obj = np.array(BEALE_A), np.array(BEALE_B), np.array(BEALE_OBJ)
        xb, y, pivots = three_solve_pivot_until_optimal(A, b, obj, basis, 50)
        assert obj[basis] @ xb == pytest.approx(0.05, abs=1e-12)
        assert b @ y == pytest.approx(0.05, abs=1e-12)
        assert pivots < 50

    def test_pivot_budget(self):
        with pytest.raises(RuntimeError) as info:
            simplex_maximize(BEALE_OBJ, BEALE_A, BEALE_B, max_pivots=1)
        assert str(info.value) == PIVOT_BUDGET_MESSAGE

    def test_negative_pivot_budget_is_refused(self):
        # a budget below zero is a caller's error, not an undecided LP
        with pytest.raises(ValueError, match="pivot budget must be nonnegative, got -1"):
            simplex_maximize(BEALE_OBJ, BEALE_A, BEALE_B, max_pivots=-1)
        with pytest.raises(RuntimeError) as info:
            simplex_maximize(BEALE_OBJ, BEALE_A, BEALE_B, max_pivots=0)
        assert str(info.value) == PIVOT_BUDGET_MESSAGE


def random_bounded_lps():
    """50 seeded random LPs; a row of ones bounds each feasible set, other rows may have b < 0."""
    rng = make_rng(103)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        n = m + int(rng.integers(1, 8))
        A = np.vstack([rng.standard_normal((m, n)), np.ones(n)])
        b = A @ rng.random(n)
        yield rng.standard_normal(n), A, b


class TestDualMultipliers:
    def test_random_instances_satisfy_strong_duality(self):
        for trial, (obj, A, b) in enumerate(random_bounded_lps()):
            ref = linprog_maximize(obj, A, b)
            assert ref.status == 0, f"reference failed on trial {trial}"
            x, value, y, pivots = _simplex(obj, A, b)
            assert value == pytest.approx(-ref.fun, abs=1e-8)
            assert b @ y == pytest.approx(value, abs=1e-8)
            assert (y @ A - obj).min() >= -1e-9
            assert pivots >= 1    # phase one starts with every artificial positive

    def test_large_costs(self):
        # reduced costs of basic columns round to about 1e-9 here; were they
        # priced, a basic column would re-enter in place of itself forever
        rng = make_rng(107)
        for trial in range(40):
            m = int(rng.integers(2, 6))
            n = m + int(rng.integers(2, 10))
            A = np.vstack([rng.standard_normal((m, n)), np.ones(n)])
            b = A @ rng.random(n)
            obj = 1e7 * rng.standard_normal(n)
            ref = linprog_maximize(obj, A, b)
            x, value = simplex_maximize(obj, A, b, max_pivots=200)
            assert value == pytest.approx(-ref.fun, rel=1e-9)
            np.testing.assert_allclose(A @ x, b, atol=1e-9)

    def test_redundant_row_gets_zero_multiplier(self):
        obj = [1.0, 2.0, 0.0]
        A = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        b = np.array([3.0, 3.0, 6.0])
        x, value, y, _ = _simplex(obj, A, b)
        assert value == pytest.approx(6.0)
        assert b @ y == pytest.approx(6.0)
        assert (y @ A - obj).min() >= -1e-9
        assert np.count_nonzero(y) == 1

    def test_non_finite_data_is_refused(self):
        with pytest.raises(ValueError, match="must be finite"):
            simplex_maximize([1.0, 0.0], [[1.0, 1.0]], [np.nan])


# (kind, degree, N) of the certificate LPs; one seed per case
CERTIFICATE_CASES = [
    (kind, n, N) for N in (8, 64, 1024) for n in (1, 3, 5, 8) if n < N
    for kind in ("line", "real", "complex")
] + [("real", 7, 165)]    # the rare branches' case below
# every degree up to 8 at grid sizes between those, for the updated inverse's test
INVERSE_CASES = CERTIFICATE_CASES + [
    (kind, n, N) for N in (16, 32, 128, 256, 512) for n in range(1, 9)
    for kind in ("line", "real", "complex")
]


def certificate_lags(kind, n, N):
    rng = make_rng([331, n, N, len(kind)])
    return CovarianceSequence(line_lags(rng, n) if kind == "line" else arma_lags(rng, n, N, kind == "real"))


class TestBasisInverse:
    """The updated basis inverse against the three-solve loop it replaced."""

    @pytest.mark.parametrize("kind,n,N", CERTIFICATE_CASES)
    def test_certificates_match_the_three_solve_loop(self, kind, n, N, monkeypatch):
        c, grid = certificate_lags(kind, n, N), DiscreteGrid(N)
        cert = feasibility_certificate(c, grid)
        monkeypatch.setattr(moments, "_pivot_until_optimal", three_solve_pivot_until_optimal)
        ref = feasibility_certificate(c, grid)
        scale = c.c[0].real
        assert cert.feasible == ref.feasible
        assert cert.margin == pytest.approx(ref.margin, abs=1e-12 * scale)
        assert cert.duality_gap <= 1e-12 * scale and cert.min_dual >= -1e-12

    def test_updated_inverse_matches_a_fresh_one(self, monkeypatch):
        # the loop updates each np.linalg.inv result in place until the next
        # refresh, so the last one recorded in a phase has seen its final pivots
        refreshed = []    # (the array the loop updates, its value when computed)
        inv, pivot = np.linalg.inv, moments._pivot_until_optimal
        updates = []

        def recording_inv(B):
            result = inv(B)
            refreshed.append((result, result.copy()))
            return result

        def checked_pivot(A, b, cost, basis, max_pivots):
            start = len(refreshed)
            result = pivot(A, b, cost, basis, max_pivots)
            scale = basis.size * np.abs(A).max()
            # a start that is already optimal forms no inverse to compare
            computed = refreshed[start:]
            if computed and all(scale * np.abs(fresh).max() <= 1e3 for _, fresh in computed):
                fresh = inv(A[:, basis])
                assert np.abs(refreshed[-1][0] - fresh).max() <= 1e-10 * np.abs(fresh).max()
                updates.append(result[2] % basis.size)
            return result

        monkeypatch.setattr(np.linalg, "inv", recording_inv)
        monkeypatch.setattr(moments, "_pivot_until_optimal", checked_pivot)
        for kind, n, N in INVERSE_CASES:
            feasibility_certificate(certificate_lags(kind, n, N), DiscreteGrid(N))
        # phases that end on a refresh compare a fresh inverse with itself;
        # most certificates take 0 to 2 pivots, so it takes more of them than
        # CERTIFICATE_CASES to see as many phases end after updates
        assert sum(k > 0 for k in updates) >= len(CERTIFICATE_CASES)

    def test_an_optimal_crash_basis_forms_no_inverse(self, monkeypatch):
        inverses, inv = [], np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda B: inverses.append(B) or inv(B))
        optimal = 0
        for kind, n, N in CERTIFICATE_CASES:
            inverses.clear()
            cert = feasibility_certificate(certificate_lags(kind, n, N), DiscreteGrid(N))
            assert (cert.pivots == 0) == (not inverses), (kind, n, N)
            optimal += cert.pivots == 0
        assert optimal >= len(CERTIFICATE_CASES) // 2

    @pytest.mark.parametrize("kind,n,N", CERTIFICATE_CASES)
    def test_a_precomputed_power_gives_the_same_bits(self, kind, n, N):
        # one power serves two grids, as in a threshold search
        c = certificate_lags(kind, n, N)
        power = moments._pisarenko_power(c.c)
        for size in (N, N + 1):
            cert, ref = moments._certify(c, DiscreteGrid(size), power), feasibility_certificate(c, DiscreteGrid(size))
            assert (cert.margin, cert.pivots) == (ref.margin, ref.pivots)
            assert cert.dual.coeffs.tobytes() == ref.dual.coeffs.tobytes()
            assert (cert.witness and cert.witness.values.tobytes()) == (ref.witness and ref.witness.values.tobytes())


# The degree-5 lags whose certificate at N = 1024 runs in every cycle of the
# certify benchmark, where it once exhausted the pivot budget.
FAULT_C = [1.0, 0.5, 0.2 + 0.1j, 0.05, 0.02, 0.01]
# Certificates on the record that take the two rare branches of the pivot
# loop, found by counting them once over certificate_lags for n <= 8 and
# N < 200, where this case alone stalls: BLAND_CASE takes 29 dual steps that
# leave b . y where it was, the last 14 of them by smallest index, and then
# takes the basic values still short for rounded zeros; THREE_SOLVE_CASE
# starts at a crash basis whose inverse is too large to update and solves
# with B at each of those pivots.
BLAND_CASE = THREE_SOLVE_CASE = ("real", 7, 165)
LP_RECORD = os.path.join(os.path.dirname(__file__), "golden", "certificate_census.json")


def digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def certificate_entry(c, N):
    """Pivots, verdict, margin and the digests of the witness and dual bytes of one certificate.

    The margin must also lie in the N -> infinity sandwich around lambda_min of T_n(c).
    """
    seq = CovarianceSequence(c)
    cert = feasibility_certificate(seq, DiscreteGrid(N))
    assert_margin_sandwich(seq, cert.margin, N)
    return {
        "pivots": cert.pivots,
        "feasible": cert.feasible,
        "margin": repr(cert.margin),
        "witness": None if cert.witness is None else digest(cert.witness.values),
        "dual": digest(cert.dual.coeffs),
    }


def lp_entry(obj, A, b):
    x, value, y, pivots = _simplex(obj, A, b)
    return {"pivots": pivots, "value": repr(value), "x": digest(x), "y": digest(y)}


def record_runs():
    """Label -> (entry function, its arguments) for every run on the record."""
    runs = {
        f"{kind} n={n} N={N}": (certificate_entry, (certificate_lags(kind, n, N).c, N))
        for kind, n, N in CERTIFICATE_CASES
    }
    runs["fault n=5 N=1024"] = (certificate_entry, (FAULT_C, 1024))
    runs.update({f"lp {i}": (lp_entry, lp) for i, lp in enumerate(random_bounded_lps())})
    return runs


def write_record():
    """Record every run in tests/golden/certificate_census.json."""
    rewrite_record(LP_RECORD, {label: entry(*args) for label, (entry, args) in record_runs().items()}, indent=2)


class TestLPRecord:
    """Each certificate and LP takes the pivots and gives the bits on record.

    A change that means to alter a pivot sequence or the rounding of any
    output rewrites the record with `PYTHONPATH=src python
    tests/test_simplex.py` and says so.
    """

    RUNS = record_runs()

    @pytest.mark.parametrize("label", list(RUNS))
    def test_matches_the_record(self, label):
        with open(LP_RECORD, encoding="utf-8") as fh:
            expected = json.load(fh)[label]
        entry, args = self.RUNS[label]
        assert entry(*args) == expected

    def test_record_covers_both_rare_branches(self, monkeypatch):
        assert {"%s n=%d N=%d" % case for case in (BLAND_CASE, THREE_SOLVE_CASE)} <= set(self.RUNS)
        # the updated-inverse path solves with B twice to close; the
        # three-solve path solves three times at every pivot
        solves, solve = [], np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(1) or solve(*args))
        kind, n, N = THREE_SOLVE_CASE
        feasibility_certificate(certificate_lags(kind, n, N), DiscreteGrid(N))
        assert len(solves) > 4 + 2 * n

    def test_pivot_budget_of_the_dual_loop(self):
        # the record's line n=5 N=64 certificate takes 6 dual steps from its
        # crash basis: a budget of 5 stops it, and 6 gives the margin on record
        c, size = certificate_lags("line", 5, 64).c, 128
        rows, b, cost = 0.5 * grid_basis(size, 5)[1:], coeffs_to_real(c)[1:], -np.ones(size)
        power = moments._pisarenko_power(c)
        with pytest.raises(RuntimeError) as info:
            _pivot_until_optimal(rows, b, cost, moments._crash_basis(power, 64), 5)
        assert str(info.value) == PIVOT_BUDGET_MESSAGE
        basis = moments._crash_basis(power, 64)
        xb, _, pivots = _pivot_until_optimal(rows, b, cost, basis, 6)
        u = np.zeros(size)
        u[basis] = np.maximum(xb, 0.0)
        with open(LP_RECORD, encoding="utf-8") as fh:
            expected = json.load(fh)["line n=5 N=64"]
        assert pivots == expected["pivots"] == 6
        assert repr(float(c[0].real - u.sum())) == expected["margin"]


if __name__ == "__main__":
    write_record()
