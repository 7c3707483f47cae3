"""End-to-end command line runs, exit codes, and file-level reproducibility."""

import json
import os

import numpy as np
import pytest

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

        monkeypatch.setattr(circext.moments, "simplex_maximize", exhausted)
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

        monkeypatch.setattr(circext.moments, "simplex_maximize", broken)
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
