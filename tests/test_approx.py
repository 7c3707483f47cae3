"""Feasibility threshold search and grid-refinement convergence."""

import json

import numpy as np
import pytest

from circext import (
    CovarianceSequence,
    MaxIterationsError,
    NotInOuterCone,
    SymmetricPseudoPolynomial,
    ThresholdNotFound,
    constant_symbol,
    convergence_sweep,
    default_schedule,
    find_threshold,
)
from circext import approx
from circext import fileio as fio
from circext.cli import main

from conftest import line_lags, make_rng
from test_moments import ordinary_maxent_q

AWKWARD = CovarianceSequence([1.0, 0.0, -0.95])


class TestThreshold:
    def test_white_noise_needs_the_coarsest_grid(self):
        assert find_threshold(CovarianceSequence([1.0])) == 1
        assert find_threshold(CovarianceSequence([2.0, 0.0])) == 2
        assert find_threshold(CovarianceSequence([1.0, 0.0, 0.0])) == 3

    def test_near_boundary_instance(self):
        # mass concentrates near theta = 0, which even the two-node grid of
        # N = 2 can represent
        assert find_threshold(CovarianceSequence([1.0, 0.99])) == 2

    def test_awkward_instance(self):
        assert find_threshold(AWKWARD) == 4
        # the cap clamps the doubling probe without skipping a feasible N
        assert find_threshold(AWKWARD, n_max=4) == 4

    def test_outer_cone_is_required(self):
        with pytest.raises(NotInOuterCone):
            find_threshold(CovarianceSequence([1.0, 1.01]))
        # the boundary of the outer cone does not count either
        with pytest.raises(NotInOuterCone):
            find_threshold(CovarianceSequence([1.0, 1.0]))

    def test_cap_exhausted(self):
        with pytest.raises(ThresholdNotFound) as info:
            find_threshold(AWKWARD, n_max=3)
        assert info.value.n_max == 3

    def test_cap_below_degree(self):
        c = CovarianceSequence([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ThresholdNotFound):
            find_threshold(c, n_max=3)


class TestPisarenkoOnce:
    """A threshold search or a sweep computes the grid-independent Pisarenko power once."""

    @pytest.fixture
    def eighs(self, monkeypatch):
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *args, **kwargs: calls.append(args) or eigh(*args, **kwargs))
        return calls

    def test_one_eigh_per_threshold_search(self, eighs, monkeypatch):
        probes, probe = [], approx._is_feasible
        monkeypatch.setattr(approx, "_is_feasible", lambda c, N, power: probes.append(N) or probe(c, N, power))
        c = CovarianceSequence(line_lags(make_rng([0]), 3))
        assert find_threshold(c, n_max=512) == 13
        assert len(probes) >= 5 and len(eighs) == 1

    def test_one_eigh_per_sweep(self, eighs):
        c = CovarianceSequence(line_lags(make_rng([0]), 3))
        report = convergence_sweep(c, [8, 12, 13, 16, 32], reference_N=128)
        assert [s.feasible for s in report.stages] == [False, False, True, True, True]
        assert len(eighs) == 1


class TestSchedule:
    def test_doubles_from_threshold(self, monkeypatch):
        assert default_schedule(CovarianceSequence([1.0, 0.0])) == [2, 4, 8, 16, 32, 64, 128, 256, 512]
        monkeypatch.setattr(approx, "SCHEDULE_CAP", 40)
        assert default_schedule(AWKWARD) == [4, 8, 16, 32]

    def test_cap_below_threshold_keeps_one_entry(self, monkeypatch):
        monkeypatch.setattr(approx, "SCHEDULE_CAP", 4)
        assert default_schedule(AWKWARD) == [4]


class TestSweep:
    def test_white_noise_is_grid_independent(self):
        report = convergence_sweep(
            CovarianceSequence([2.0, 0.0]), [2, 4, 8], reference_N=64
        )
        for stage in report.stages:
            assert stage.feasible
            assert stage.distance <= 1e-10
        assert report.eventually_decreasing
        np.testing.assert_allclose(report.reference_q.coeffs, [0.5, 0.0], atol=1e-10)

    def test_rounding_jitter_at_the_floor_still_counts_as_monotone(self):
        # once every stage agrees with the reference to machine precision the
        # tail distances bounce around 1e-16; that must not clear the flag
        report = convergence_sweep(
            CovarianceSequence([1.0, 0.4]), [32, 64, 128, 256], reference_N=1024
        )
        assert all(s.distance <= 1e-12 for s in report.stages)
        assert report.eventually_decreasing

    def test_first_order_instance_refines(self):
        # rho = 0.72 keeps rho^(2N) above the solver tolerance up to N = 32, so every
        # stage iterates; with rho below about 0.7 the finest stages start at their
        # answer and their distances are exactly 0
        report = convergence_sweep(
            CovarianceSequence([1.0, 0.72]), [4, 8, 16, 32], reference_N=256
        )
        distances = [s.distance for s in report.stages]
        assert all(d is not None for d in distances)
        for earlier, later in zip(distances, distances[1:]):
            assert later < earlier
        assert distances[-1] <= 1e-8
        assert report.eventually_decreasing
        for stage in report.stages:
            assert stage.iterations >= 1
            assert stage.runtime_ms > 0.0

    def test_infeasible_stages_are_recorded_not_fatal(self):
        report = convergence_sweep(AWKWARD, [3, 4, 5, 8], reference_N=64)
        flags = [s.feasible for s in report.stages]
        assert flags == [False, True, False, True]
        # distances exist exactly for the feasible stages
        assert [s.distance is None for s in report.stages] == [True, False, True, False]
        assert report.eventually_decreasing

    def test_schedule_validation(self):
        c = CovarianceSequence([1.0, 0.4])
        with pytest.raises(ValueError):
            convergence_sweep(c, [], reference_N=64)
        with pytest.raises(ValueError):
            convergence_sweep(c, [8, 4], reference_N=64)
        with pytest.raises(ValueError):
            convergence_sweep(c, [1, 4], reference_N=64)
        with pytest.raises(ValueError):
            convergence_sweep(c, [4, 8], reference_N=8)

    def test_numerator_must_be_positive_on_the_circle(self):
        # positive at every node of the swept grids yet negative between
        # nodes: the dense pre-check must reject it
        c = CovarianceSequence([1.0, 0.4])
        p2 = -0.505 * np.exp(1j * np.pi / 4.0)
        dipper = SymmetricPseudoPolynomial(np.array([1.0, 0.0, p2]))
        grid_vals = []
        for j in range(-3, 5):
            theta = np.pi * j / 4.0
            grid_vals.append(1.0 + 2.0 * (p2 * np.exp(-2j * theta)).real)
        assert min(grid_vals) > 0.0
        with pytest.raises(ValueError, match="circle"):
            convergence_sweep(c, [4], p=dipper, reference_N=64)

    def test_custom_numerator_sweep(self):
        p = SymmetricPseudoPolynomial(np.array([1.0, 0.3]))
        report = convergence_sweep(
            CovarianceSequence([1.0, 0.2]), [4, 8, 16], p=p, reference_N=128
        )
        distances = [s.distance for s in report.stages]
        assert report.eventually_decreasing
        assert distances[-1] < distances[0]


class TestReferenceOracle:
    def test_criterion_6_reference_is_the_yule_walker_solution(self):
        # c = (1, 0.4) is the AR(1) model |1 - 0.4 z|^{-2} / 0.84, whose aliasing
        # 0.4^{2(N-1)} underflows at N = 4096: the reference solve is the N = infinity
        # denominator q_inf = (1.16, -0.4) / 0.84 to rounding
        c = CovarianceSequence([1.0, 0.4])
        reference = convergence_sweep(c, [8], reference_N=4096).reference_q.coeffs
        q_inf, kappa = ordinary_maxent_q(c.c)
        np.testing.assert_allclose(q_inf, np.array([1.16, -0.4]) / 0.84, rtol=0, atol=1e-15)
        assert np.abs(reference - q_inf).max() <= 4.0 * np.finfo(float).eps * kappa * np.abs(q_inf).max()


class TestFailedStage:
    """A grid whose solve raises is recorded with its error and skipped."""

    C = CovarianceSequence([1.0, 0.4])
    SIZES = [4, 8, 16]

    @pytest.fixture(autouse=True)
    def fail_at_eight(self, monkeypatch):
        solve = approx.newton_solve

        def newton_solve(prob, opts=None):
            if prob.grid.N == 8:
                raise MaxIterationsError("no convergence at N=8", 1.0, None)
            return solve(prob, opts)

        monkeypatch.setattr(approx, "newton_solve", newton_solve)

    def test_sweep_records_the_error(self):
        report = convergence_sweep(self.C, self.SIZES, reference_N=64)
        assert [s.N for s in report.stages] == self.SIZES
        failed = report.stages[1]
        assert failed.feasible and failed.error == "no convergence at N=8"
        assert (failed.distance, failed.iterations, failed.runtime_ms) == (None, None, None)
        for stage in (report.stages[0], report.stages[2]):
            assert stage.error is None
            assert None not in (stage.distance, stage.iterations, stage.runtime_ms)
        assert report.eventually_decreasing

    def test_command_writes_the_error_only_to_approx_json(self, tmp_path):
        config = tmp_path / "config.json"
        fio.dump_json(
            {"version": 1, "c": [[1.0, 0.0], [0.4, 0.0]], "n_max": 64,
             "grid_sizes": self.SIZES, "reference_N": 64},
            str(config),
        )
        out = tmp_path / "o"
        assert main(["approx", str(config), "--out", str(out)]) == 0
        stages = json.loads((out / "approx.json").read_text())["stages"]
        assert stages[1] == {"N": 8, "feasible": True, "error": "no convergence at N=8"}
        sweep = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1, ndmin=2)
        assert sweep[:, 0].tolist() == [4, 16]
        timings = json.loads((out / "run.json").read_text())["timings"]["stages"]
        assert [t["N"] for t in timings] == [4, 16]
