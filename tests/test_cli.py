"""End-to-end command line runs, exit codes, and file-level reproducibility."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circext import approx, cli
from circext import fileio as fio
from circext.cli import main

WHITE = {"version": 1, "N": 8, "c": [[1.0, 0.0]]}
AR1 = {"version": 1, "N": 8, "c": [[1.0, 0.0], [0.3, 0.1]]}
AWKWARD = {"version": 1, "N": 3, "c": [[1.0, 0.0], [0.0, 0.0], [-0.95, 0.0]]}


def write_problem(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    fio.dump_json(payload, str(path))
    return str(path)


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class TestSolve:
    def test_white_noise_solution(self, tmp_path, capsys):
        problem = write_problem(tmp_path, WHITE)
        out = tmp_path / "out"
        assert main(["solve", problem, "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("matched 1 lags on N=8")
        for name in ("solution.json", "spectrum.csv", "extended_c.csv", "run.json"):
            assert (out / name).exists()
        spectrum = read_csv(out / "spectrum.csv")
        np.testing.assert_allclose(spectrum[:, 1], 1.0, atol=1e-12)
        solution = json.loads((out / "solution.json").read_text())
        assert solution["q"] == [1.0]
        extended = read_csv(out / "extended_c.csv")
        np.testing.assert_allclose(extended[1:, 1:], 0.0, atol=1e-12)

    def test_solution_is_byte_reproducible(self, tmp_path):
        problem = write_problem(tmp_path, AR1)
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["solve", problem, "--out", str(first)]) == 0
        assert main(["solve", problem, "--out", str(second)]) == 0
        for name in ("solution.json", "spectrum.csv", "extended_c.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        # run.json is the one file allowed to differ, and only in its clock
        a = json.loads((first / "run.json").read_text())
        b = json.loads((second / "run.json").read_text())
        for key in ("timestamp", "wall_clock_ms"):
            a.pop(key), b.pop(key)
        assert a == b

    def test_numerator_from_problem_file(self, tmp_path):
        data = dict(AR1)
        data["p"] = [1.0, 0.2, 0.0]
        problem = write_problem(tmp_path, data)
        solve_out = tmp_path / "solve"
        maxent_out = tmp_path / "maxent"
        assert main(["solve", problem, "--out", str(solve_out)]) == 0
        assert main(["maxent", problem, "--out", str(maxent_out)]) == 0
        solved = json.loads((solve_out / "solution.json").read_text())
        white = json.loads((maxent_out / "solution.json").read_text())
        assert solved["p"] == [1.0, 0.2, 0.0]
        assert white["p"] == [1.0]
        assert solved["q"] != white["q"]

    def test_infeasible_input_exits_two(self, tmp_path, capsys):
        problem = write_problem(tmp_path, AWKWARD)
        assert main(["solve", problem, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "InfeasibleSequenceError" in err and "margin" in err

    def test_iteration_budget_exits_two(self, tmp_path, capsys):
        problem = write_problem(tmp_path, AR1)
        code = main(["solve", problem, "--out", str(tmp_path / "o"), "--max-iter", "1"])
        assert code == 2
        assert "MaxIterationsError" in capsys.readouterr().err

    def test_input_errors_exit_one(self, tmp_path, capsys):
        missing_c = write_problem(tmp_path, {"version": 1, "N": 8}, "no_c.json")
        assert main(["solve", missing_c, "--out", str(tmp_path / "o")]) == 1
        assert '"c"' in capsys.readouterr().err
        broken = tmp_path / "broken.json"
        broken.write_text("{oops")
        assert main(["solve", str(broken), "--out", str(tmp_path / "o")]) == 1
        assert main(["solve", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("option", ["max_iter", "grad_tol"])
    def test_overflowing_option_exits_one(self, tmp_path, capsys, option):
        # json reads 1e400 as inf without consulting parse_constant
        problem = tmp_path / "problem.json"
        problem.write_text(
            f'{{"version": 1, "N": 8, "c": [1.0, 0.4], "options": {{"{option}": 1e400}}}}'
        )
        out = tmp_path / "o"
        assert main(["maxent", str(problem), "--out", str(out)]) == 1
        assert "non-finite number 1e400" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_field_warns_on_stderr(self, tmp_path, capsys):
        data = dict(AR1)
        data["author"] = "me"
        problem = write_problem(tmp_path, data)
        assert main(["solve", problem, "--out", str(tmp_path / "o")]) == 0
        assert 'ignoring unknown field "author"' in capsys.readouterr().err

    def test_out_dir_environment_fallback(self, tmp_path, monkeypatch):
        problem = write_problem(tmp_path, WHITE)
        target = tmp_path / "env_out"
        monkeypatch.setenv("CIRCEXT_OUT_DIR", str(target))
        assert main(["solve", problem]) == 0
        assert (target / "solution.json").exists()


class TestCheck:
    def test_feasible(self, tmp_path, capsys):
        problem = write_problem(tmp_path, AR1)
        out = tmp_path / "o"
        assert main(["check", problem, "--out", str(out)]) == 0
        assert "feasible" in capsys.readouterr().out
        payload = json.loads((out / "check.json").read_text())
        assert payload["feasible"] is True
        assert payload["margin"] > 0
        assert len(payload["witness"]) == 16
        assert min(payload["witness"]) == pytest.approx(payload["margin"])

    def test_lags_above_unit_variance(self, tmp_path):
        data = {"version": 1, "N": 8, "c": [[2.5, 0.0], [0.75, 0.25]]}
        out = tmp_path / "o"
        assert main(["check", write_problem(tmp_path, data), "--out", str(out)]) == 0
        assert json.loads((out / "check.json").read_text())["feasible"] is True

    @pytest.mark.parametrize("N", [1024, 4096])
    def test_degree_five_on_large_grids(self, tmp_path, capsys, N):
        data = {"version": 1, "N": N, "c": [[1.0, 0.0], [0.5, 0.0], [0.2, 0.1], [0.05, 0.0],
                                            [0.02, 0.0], [0.01, 0.0]]}
        out = tmp_path / "o"
        assert main(["check", write_problem(tmp_path, data), "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("feasible")
        payload = json.loads((out / "check.json").read_text())
        assert len(payload["witness"]) == 2 * N
        assert min(payload["witness"]) == pytest.approx(payload["margin"])
        record = json.loads((out / "run.json").read_text())["timings"]["certificate"]
        assert record["pivots"] > 0
        assert record["lag_residual"] <= 1e-9
        assert record["min_dual"] >= -1e-9
        assert record["duality_gap"] <= 1e-9

    @pytest.mark.parametrize("command", ["solve", "maxent"])
    def test_certificate_residuals_go_to_run_json_only(self, tmp_path, command):
        out = tmp_path / "o"
        assert main([command, write_problem(tmp_path, AR1), "--out", str(out)]) == 0
        record = json.loads((out / "run.json").read_text())["timings"]["certificate"]
        assert set(record) == {"pivots", "lag_residual", "min_dual", "duality_gap"}
        for name in ("solution.json", "spectrum.csv", "extended_c.csv"):
            assert "pivots" not in (out / name).read_text()

    def test_unchecked_certificate_exits_two(self, tmp_path, capsys, monkeypatch):
        import circext.moments

        solve = circext.moments._simplex

        def wrong_dual(*args, **kwargs):
            x, value, y, pivots = solve(*args, **kwargs)
            return x, value, y + 0.5, pivots

        monkeypatch.setattr(circext.moments, "_simplex", wrong_dual)
        out = tmp_path / "o"
        assert main(["check", write_problem(tmp_path, AR1), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("RuntimeError: certificate failed its residual check")
        assert not (out / "check.json").exists()

    def test_infeasible(self, tmp_path, capsys):
        problem = write_problem(tmp_path, AWKWARD)
        out = tmp_path / "o"
        assert main(["check", problem, "--out", str(out)]) == 2
        assert capsys.readouterr().out.startswith("infeasible")
        payload = json.loads((out / "check.json").read_text())
        assert payload["feasible"] is False
        assert payload["margin"] == pytest.approx(-0.9, abs=1e-6)
        assert "witness" not in payload

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_input_exits_one(self, tmp_path, capsys, token):
        problem = tmp_path / "problem.json"
        problem.write_text(f'{{"version": 1, "N": 8, "c": [{token}, 0.3]}}')
        out = tmp_path / "o"
        assert main(["check", str(problem), "--out", str(out)]) == 1
        assert "InputFormatError" in capsys.readouterr().err
        assert not (out / "check.json").exists()

    def test_pivot_budget_exits_two(self, tmp_path, capsys, monkeypatch):
        import circext.moments

        def exhausted(*args, **kwargs):
            raise RuntimeError("simplex exceeded the pivot budget")

        monkeypatch.setattr(circext.moments, "_simplex", exhausted)
        problem = write_problem(tmp_path, AR1)
        out = tmp_path / "o"
        assert main(["check", problem, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("RuntimeError: simplex exceeded the pivot budget")
        assert err.count("\n") == 1
        assert not (out / "check.json").exists()

    def test_other_runtime_errors_propagate(self, tmp_path, monkeypatch):
        import circext.moments

        def broken(*args, **kwargs):
            raise RuntimeError("something else")

        monkeypatch.setattr(circext.moments, "_simplex", broken)
        with pytest.raises(RuntimeError, match="something else"):
            main(["check", write_problem(tmp_path, AR1), "--out", str(tmp_path / "o")])


class TestCepstral:
    def test_white_fixed_point(self, tmp_path):
        data = {"version": 1, "N": 8, "c": [[1.0, 0.0], [0.0, 0.0]], "m": [[0.0, 0.0]]}
        problem = write_problem(tmp_path, data)
        out = tmp_path / "o"
        assert main(["cepstral", problem, "--out", str(out)]) == 0
        payload = json.loads((out / "joint.json").read_text())
        assert payload["p"] == [1.0, 0.0, 0.0]
        assert payload["q"] == [1.0, 0.0, 0.0]
        assert payload["iterations"] == 0
        spectrum = read_csv(out / "spectrum.csv")
        np.testing.assert_allclose(spectrum[:, 1], 1.0, atol=1e-12)

    def test_regularization_resolution_order(self, tmp_path):
        data = {"version": 1, "N": 8, "c": [[1.0, 0.0], [0.3, 0.0]],
                "m": [[0.05, 0.0]], "lambda": 0.5}
        problem = write_problem(tmp_path, data)
        out_file = tmp_path / "file_lam"
        out_flag = tmp_path / "flag_lam"
        assert main(["cepstral", problem, "--out", str(out_file)]) == 0
        assert json.loads((out_file / "joint.json").read_text())["lambda"] == 0.5
        assert main(["cepstral", problem, "--out", str(out_flag), "--lambda", "0.05"]) == 0
        assert json.loads((out_flag / "joint.json").read_text())["lambda"] == 0.05

    def test_unregularized_collapse_exits_three(self, tmp_path, capsys):
        data = {"version": 1, "N": 8, "c": [[1.0, 0.0], [0.3, 0.1]],
                "m": [[0.05, -0.02]]}
        problem = write_problem(tmp_path, data)
        code = main(["cepstral", problem, "--out", str(tmp_path / "o"), "--lambda", "0"])
        assert code == 3
        err = capsys.readouterr().err
        assert "BoundaryCollapseError" in err
        assert "regularization > 0" in err
        # the default weight handles the same data
        assert main(["cepstral", problem, "--out", str(tmp_path / "ok")]) == 0

    def test_singular_newton_system_exits_three(self, tmp_path, capsys):
        data = {"version": 1, "N": 8,
                "c": [[0.8431523373502422, 0.0], [-0.41767121540659213, -0.17286736390866092]],
                "m": [[0.14351837371653225, 0.0327550272501523]]}
        problem = write_problem(tmp_path, data)
        code = main(["cepstral", problem, "--out", str(tmp_path / "o"), "--lambda", "0"])
        assert code == 3
        assert capsys.readouterr().err.startswith("BoundaryCollapseError: singular Newton system")
        assert main(["cepstral", problem, "--out", str(tmp_path / "ok")]) == 0

    def test_lambda_sweep(self, tmp_path, capsys):
        data = {"version": 1, "N": 8, "c": [[1.0, 0.0], [0.3, 0.0]], "m": [[0.05, 0.0]]}
        problem = write_problem(tmp_path, data)
        out = tmp_path / "o"
        code = main(
            ["cepstral", problem, "--out", str(out), "--lambda-sweep", "0.1,1,10,100"]
        )
        assert code == 0
        rows = read_csv(out / "lambda_sweep.csv")
        assert rows.shape == (4, 2)
        np.testing.assert_array_equal(rows[:, 0], [0.1, 1.0, 10.0, 100.0])
        # the numerator flattens toward one as the weight grows
        assert np.all(np.diff(rows[:, 1]) < 0)
        assert rows[-1, 1] <= 0.01

    def test_sweep_validation(self, tmp_path, capsys):
        data = {"version": 1, "N": 8, "c": [[1.0, 0.0], [0.3, 0.0]], "m": [[0.05, 0.0]]}
        problem = write_problem(tmp_path, data)
        for bad in ("", "1,-2", "1,frog"):
            code = main(
                ["cepstral", problem, "--out", str(tmp_path / "o"), "--lambda-sweep", bad]
            )
            assert code == 1

    def test_missing_cepstra_rejected(self, tmp_path, capsys):
        problem = write_problem(tmp_path, AR1)
        assert main(["cepstral", problem, "--out", str(tmp_path / "o")]) == 1
        assert '"m"' in capsys.readouterr().err


class TestApprox:
    def test_threshold_and_sweep(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        fio.dump_json(
            {
                "version": 1,
                "c": [[1.0, 0.0], [0.99, 0.0]],
                "n_max": 64,
                "grid_sizes": [2, 4, 8, 16],
                "reference_N": 64,
            },
            str(config),
        )
        out = tmp_path / "o"
        assert main(["approx", str(config), "--out", str(out)]) == 0
        payload = json.loads((out / "approx.json").read_text())
        assert payload["threshold"] == 2
        assert payload["eventually_decreasing"] is True
        assert [s["N"] for s in payload["stages"]] == [2, 4, 8, 16]
        assert all(s["feasible"] for s in payload["stages"])
        sweep = read_csv(out / "sweep.csv")
        assert sweep.shape[0] == 4
        assert sweep[-1, 1] < sweep[0, 1]

    def test_outputs_are_byte_reproducible(self, tmp_path):
        config = tmp_path / "config.json"
        fio.dump_json(
            {"version": 1, "c": [[1.0, 0.0], [0.6, 0.2]], "n_max": 16, "reference_N": 64},
            str(config),
        )
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["approx", str(config), "--out", str(first)]) == 0
        assert main(["approx", str(config), "--out", str(second)]) == 0
        assert sorted(os.listdir(first)) == ["approx.json", "run.json", "sweep.csv"]
        for name in ("approx.json", "sweep.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        assert b"runtime_ms" not in (first / "approx.json").read_bytes()
        assert (first / "sweep.csv").read_text().splitlines()[0] == "N,distance,iterations"
        # the wall-clock stage times live in run.json, one per solved grid
        payload = json.loads((first / "approx.json").read_text())
        solved = [s["N"] for s in payload["stages"] if "distance" in s]
        timings = json.loads((first / "run.json").read_text())["timings"]["stages"]
        assert [t["N"] for t in timings] == solved
        assert all(t["runtime_ms"] > 0.0 for t in timings)

    def test_infeasible_stages_are_recorded(self, tmp_path):
        config = tmp_path / "config.json"
        fio.dump_json(
            {
                "version": 1,
                "c": [[1.0, 0.0], [0.0, 0.0], [-0.95, 0.0]],
                "n_max": 16,
                "grid_sizes": [3, 4, 6],
                "reference_N": 32,
            },
            str(config),
        )
        out = tmp_path / "o"
        assert main(["approx", str(config), "--out", str(out)]) == 0
        payload = json.loads((out / "approx.json").read_text())
        assert [s["feasible"] for s in payload["stages"]] == [False, True, True]
        assert "distance" not in payload["stages"][0]

    def test_threshold_not_found_exits_two(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        fio.dump_json(
            {"version": 1, "c": [[1.0, 0.0], [0.0, 0.0], [-0.95, 0.0]], "n_max": 3},
            str(config),
        )
        assert main(["approx", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "ThresholdNotFound" in capsys.readouterr().err

    def test_config_validation(self, tmp_path):
        config = tmp_path / "config.json"
        fio.dump_json({"version": 1, "n_max": 8}, str(config))
        assert main(["approx", str(config), "--out", str(tmp_path / "o")]) == 1
        fio.dump_json({"version": 1, "c": [[1.0, 0.0]], "n_max": 0}, str(config))
        assert main(["approx", str(config), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("grid_sizes", [None, [4, 8]])
    def test_one_threshold_search_per_run(self, tmp_path, monkeypatch, grid_sizes):
        calls = []
        search = approx.find_threshold

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(approx, "find_threshold", counted)
        monkeypatch.setattr(cli, "find_threshold", counted)
        config = {"version": 1, "c": [[1.0, 0.0], [0.6, 0.2]], "n_max": 16, "reference_N": 64}
        if grid_sizes is not None:
            config["grid_sizes"] = grid_sizes
        fio.dump_json(config, str(tmp_path / "config.json"))
        out = tmp_path / "o"
        assert main(["approx", str(tmp_path / "config.json"), "--out", str(out)]) == 0
        assert len(calls) == 1
        payload = json.loads((out / "approx.json").read_text())
        assert payload["threshold"] == search(*calls[0])


class TestSimulateEstimate:
    def solved_model(self, tmp_path):
        problem = write_problem(tmp_path, AR1)
        out = tmp_path / "model"
        assert main(["solve", problem, "--out", str(out)]) == 0
        return str(out / "solution.json")

    def test_simulate_writes_a_reproducible_ensemble(self, tmp_path):
        model = self.solved_model(tmp_path)
        first, second = tmp_path / "e1", tmp_path / "e2"
        args = ["simulate", model, "--count", "3", "--seed", "11"]
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        names = [f"realization_{r:04d}.csv" for r in range(3)]
        for name in names + ["manifest.json"]:
            assert (first / name).read_bytes() == (second / name).read_bytes()
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["files"] == names
        different = tmp_path / "e3"
        assert main(["simulate", model, "--count", "3", "--seed", "12", "--out", str(different)]) == 0
        assert (first / names[0]).read_bytes() != (different / names[0]).read_bytes()

    def test_simulated_spectrum_matches_solution_file(self, tmp_path):
        # re-ingesting the solution as a model reproduces the solver spectrum
        model = self.solved_model(tmp_path)
        grid, p, q = fio.load_model(model)
        phi = fio.model_spectrum(grid, p, q)
        solved = read_csv(os.path.join(os.path.dirname(model), "spectrum.csv"))
        np.testing.assert_allclose(phi.real_values(), solved[:, 1], atol=1e-12)

    def test_real_draws_need_even_spectra(self, tmp_path, capsys):
        model = self.solved_model(tmp_path)
        code = main(["simulate", model, "--count", "2", "--seed", "1", "--real",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "even" in capsys.readouterr().err

    def test_estimate_matches_direct_recomputation(self, tmp_path):
        model = self.solved_model(tmp_path)
        ensemble = tmp_path / "ens"
        assert main(["simulate", model, "--count", "12", "--seed", "3",
                     "--out", str(ensemble)]) == 0
        out = tmp_path / "est"
        assert main(["estimate", str(ensemble), "--degree", "2", "--cepstral",
                     "--out", str(out)]) == 0
        payload = json.loads((out / "estimates.json").read_text())
        c_hat = fio.parse_complex_list(payload["c"], "c")
        rows, grid, _ = fio.read_ensemble(str(ensemble))
        for k in range(3):
            direct = np.mean(
                [np.mean(np.roll(row, -k) * np.conj(row)) for row in rows]
            )
            assert abs(c_hat[k] - direct) <= 1e-12
        assert len(fio.parse_complex_list(payload["m"], "m")) == 2

    def test_estimate_smoothing_guard(self, tmp_path, capsys):
        model = self.solved_model(tmp_path)
        ensemble = tmp_path / "ens"
        assert main(["simulate", model, "--count", "4", "--seed", "3",
                     "--out", str(ensemble)]) == 0
        code = main(["estimate", str(ensemble), "--degree", "1", "--cepstral",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "8" in capsys.readouterr().err
        code = main(["estimate", str(ensemble), "--degree", "1", "--cepstral",
                     "--no-smoothing", "--out", str(tmp_path / "o2")])
        assert code == 0

    def test_closed_loop_identification(self, tmp_path):
        model = self.solved_model(tmp_path)
        ensemble = tmp_path / "ens"
        assert main(["simulate", model, "--count", "256", "--seed", "7",
                     "--out", str(ensemble)]) == 0
        est_out = tmp_path / "est"
        assert main(["estimate", str(ensemble), "--degree", "1",
                     "--out", str(est_out)]) == 0
        payload = json.loads((est_out / "estimates.json").read_text())
        replayed = write_problem(
            tmp_path, {"version": 1, "N": payload["N"], "c": payload["c"]}, "replay.json"
        )
        final = tmp_path / "final"
        assert main(["solve", replayed, "--out", str(final)]) == 0
        original = json.loads(
            (tmp_path / "model" / "solution.json").read_text()
        )
        recovered = json.loads((final / "solution.json").read_text())
        worst = max(
            abs(a - b) for a, b in zip(original["q"], recovered["q"])
        )
        assert worst <= 0.25


class TestParserReuse:
    """main builds its parser once per process; no call may see another's arguments."""

    def test_arguments_do_not_leak_between_calls(self, tmp_path, monkeypatch):
        cli.build_parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 2
        real = write_problem(tmp_path, {"version": 1, "N": 8, "c": [[1.0, 0.0], [0.3, 0.0]]})
        assert main(["solve", real, "--out", str(tmp_path / "model")]) == 0
        model = str(tmp_path / "model" / "solution.json")
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["simulate", model, "--real", "--count", "3", "--seed", "5",
                     "--out", str(first)]) == 0
        assert main(["simulate", model, "--out", str(second)]) == 0
        manifest = json.loads((second / "manifest.json").read_text())
        assert (manifest["real_valued"], manifest["count"], manifest["seed"]) == (False, 1, None)
        assert json.loads((first / "manifest.json").read_text())["count"] == 3

        seen = []
        monkeypatch.setitem(cli.HANDLERS, "cepstral", lambda args: seen.append(args) or 0)
        assert main(["cepstral", real, "--tol", "1e-6", "--lambda", "0.5"]) == 0
        assert main(["cepstral", real]) == 0
        assert (seen[0].tol, seen[0].regularization) == (1e-6, 0.5)
        assert (seen[1].tol, seen[1].regularization) == (None, None)
        with pytest.raises(SystemExit) as exc:
            main(["solve", real, "--tol", "tight"])
        assert exc.value.code == 2
        assert cli.build_parser() is cli.build_parser()



# Generated input files: well-formed documents, with some fields dropped or
# replaced by any JSON value (wrong types, bools, nested lists), stray keys
# added, and numbers that are often extreme (+-1e300, any float or integer).
EXTREMES = st.one_of(
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e300, -1e300]),
)
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), EXTREMES, st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)
# N, n_max and reference_N stop at 64, only to bound the runtime
SIZE_FIELDS = ("N", "n_max", "reference_N")
SIZES = st.integers(1, 64)
NOT_SIZES = st.one_of(st.integers(max_value=0), JSON.filter(lambda v: type(v) is not int))
REALIZATIONS = [f"realization_{r:04d}.csv" for r in range(3)]


def number(low, high):
    """A float in [low, high] three times in four, else an extreme number."""
    return st.sampled_from([st.floats(low, high)] * 3 + [EXTREMES]).flatmap(lambda s: s)


def lags(n):
    """n+1 entries: a leading number in [0.5, 2], then reals or [re, im] pairs near zero."""
    entry = st.one_of(number(-0.6, 0.6), st.lists(number(-0.6, 0.6), min_size=2, max_size=2))
    return st.tuples(number(0.5, 2.0), st.lists(entry, min_size=n, max_size=n)).map(
        lambda pair: [pair[0], *pair[1]]
    )


def symbol(n):
    """Flat [p_0, re p_1, im p_1, ...] of degree <= n with p_0 in [0.5, 3]."""
    return st.integers(0, n).flatmap(
        lambda d: st.lists(number(-0.1, 0.1), min_size=2 * d, max_size=2 * d).flatmap(
            lambda tail: number(0.5, 3.0).map(lambda p0: [p0, *tail])
        )
    )


@st.composite
def documents(draw, command):
    """An input file for command, as a dict ready for json.dump."""
    n = draw(st.integers(0, 4))
    if command == "approx":
        doc = {"c": draw(lags(n)), "p": draw(symbol(n)), "n_max": draw(SIZES),
               "reference_N": draw(SIZES),
               "grid_sizes": draw(st.lists(SIZES, max_size=4).map(sorted))}
    elif command == "simulate":
        doc = {"N": draw(SIZES), "p": draw(symbol(n)), "q": draw(symbol(n))}
    elif command == "estimate":
        doc = {"N": draw(st.one_of(st.just(4), SIZES)),
               "files": draw(st.lists(st.sampled_from(REALIZATIONS), max_size=10))}
    else:
        options = {"grad_tol": number(1e-14, 1e-6), "max_iter": st.integers(1, 100),
                   "boundary_floor": number(0.0, 1e-3), "backtrack_ratio": number(0.0, 1.0)}
        doc = {"N": draw(SIZES), "c": draw(lags(n)),
               "m": draw(st.lists(number(-1.0, 1.0), min_size=n, max_size=n)),
               "p": draw(symbol(n)), "options": draw(st.fixed_dictionaries({}, optional=options)),
               "lambda": draw(number(0.0, 1.0))}
    doc = {"version": 1, **doc}
    for key in list(doc):
        action = draw(st.integers(0, 11))    # 0, the simplest draw, keeps the field
        if action == 11:
            del doc[key]
        elif action == 10:
            doc[key] = draw(NOT_SIZES if key in SIZE_FIELDS else JSON)
    stray = st.dictionaries(st.text(max_size=4).filter(lambda k: k not in doc), JSON, max_size=2)
    return {**doc, **draw(st.one_of(st.just({}), stray))}


class TestAnyInputFile:
    """Every generated input file ends in a documented exit code, never in a traceback.

    N, n_max and reference_N stop at 64, and approx always gets n_max and
    reference_N (their defaults are 4096), only to bound the runtime.  Numbers
    near the float limit overflow to inf, and then to nan, on the way to that
    exit code.  The command line prints numpy's warnings for those and goes on,
    so this test lets them pass instead of raising them; every other warning
    still fails it.
    """

    @pytest.mark.filterwarnings(
        "ignore:(overflow|invalid value|divide by zero) encountered:RuntimeWarning"
    )
    @pytest.mark.parametrize(
        "command", ["approx", "cepstral", "check", "estimate", "maxent", "simulate", "solve"]
    )
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_exit_code(self, command, data):
        document = data.draw(documents(command), label="input")
        flag = data.draw(st.booleans(), label="--real or --cepstral")
        with tempfile.TemporaryDirectory() as tmp:
            path = target = os.path.join(tmp, "input.json")
            extra = []
            if command == "simulate":
                extra = ["--count", "2", "--seed", "1"] + (["--real"] if flag else [])
            if command == "estimate":
                # the manifest may list these three realizations of N = 4
                path = os.path.join(tmp, "ensemble")
                target = os.path.join(path, "manifest.json")
                os.mkdir(path)
                for seed, name in enumerate(REALIZATIONS):
                    y = np.random.default_rng(seed).standard_normal(8)
                    fio.write_realization_csv(os.path.join(path, name), y)
                extra = ["--degree", str(data.draw(st.integers(-1, 4), label="--degree"))]
                extra += ["--cepstral"] if flag else []
            with open(target, "w") as fh:
                json.dump(document, fh)
            code = main([command, path, "--out", os.path.join(tmp, "out"), *extra])
        assert code in (0, 1, 2, 3)
