"""Problem files, result payloads, CSV round trips, deterministic output."""

import dataclasses
import hashlib
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circext import (
    CepstralSequence,
    CovarianceSequence,
    DiscreteGrid,
    JointProblem,
    SolverOptions,
    SpectrumSamples,
    cepstral_moments,
    covariance_moments,
    eval_symbol,
    joint_solve,
    maxent_solve,
)
from circext import approx
from circext import fileio as fio
from circext.circulant import SymmetricPseudoPolynomial


class TestNumberFormat:
    def test_seventeen_digits_round_trip(self):
        for x in (1.0 / 3.0, math.pi, 1e-17, -2.5e300, 0.1 + 0.2):
            assert float(fio.format_float(x)) == x

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_numbers_are_refused(self, x, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            fio.format_float(x)
        with pytest.raises(ValueError, match="non-finite"):
            fio.dump_json({"margin": x}, str(tmp_path / "out.json"))
        with pytest.raises(ValueError, match="non-finite"):
            fio.write_csv(str(tmp_path / "out.csv"), "x", [(1.0,), (x,)])
        assert not list(tmp_path.iterdir())

    def test_emitter_layout_is_stable(self):
        payload = {"version": 1, "c": [[1.0, 0.0], [0.25, -0.5]], "note": "x"}
        first = fio._emit(payload)
        second = fio._emit(payload)
        assert first == second
        # short flat arrays inline, pairs of pairs break across lines
        assert "[1, 0.25" not in first
        assert "[1, 0]" in first

    def test_empty_containers_stay_on_one_line(self):
        assert fio._emit({}) == "{}"
        assert fio._emit({"a": {}, "b": []}) == '{\n  "a": {},\n  "b": []\n}'

    def test_emitter_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            fio._emit({"bad": object()})

    def test_dump_is_valid_json_and_byte_stable(self, tmp_path):
        payload = {
            "version": 1,
            "N": 8,
            "values": list(np.linspace(0.0, 1.0, 7)),
            "flag": True,
            "missing": None,
        }
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        fio.dump_json(payload, str(a))
        fio.dump_json(payload, str(b))
        assert a.read_bytes() == b.read_bytes()
        parsed = json.loads(a.read_text())
        assert parsed["values"] == payload["values"]
        assert parsed["flag"] is True
        assert parsed["missing"] is None

    def test_sha256_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"spectral density")
        expected = hashlib.sha256(b"spectral density").hexdigest()
        assert fio.sha256_file(str(path)) == expected


class TestComplexLists:
    def test_pairs_round_trip(self):
        values = np.array([1.0, 0.3 + 0.1j, -0.2 - 0.7j])
        raw = fio.complex_pairs(values).tolist()
        assert raw == [[1.0, 0.0], [0.3, 0.1], [-0.2, -0.7]]
        back = fio.parse_complex_list(raw, "c")
        np.testing.assert_array_equal(back, values)

    def test_bare_reals_accepted(self):
        back = fio.parse_complex_list([1, 0.5], "c")
        np.testing.assert_array_equal(back, [1.0 + 0.0j, 0.5 + 0.0j])

    def test_malformed_entries_rejected(self):
        for bad in ([], "no", [[1.0]], [[1.0, 2.0, 3.0]], [True], [[1.0, "x"]]):
            with pytest.raises(fio.InputFormatError):
                fio.parse_complex_list(bad, "c")


class TestSymbolFormat:
    def test_flat_layout(self):
        p = SymmetricPseudoPolynomial([2.0, 0.3 + 0.1j, -0.05j])
        raw = fio.symbol_to_json(p)
        assert raw == [2.0, 0.3, 0.1, 0.0, -0.05]
        back = fio.symbol_from_json(raw, "p")
        np.testing.assert_array_equal(back.coeffs, p.coeffs)

    def test_constant_symbol(self):
        back = fio.symbol_from_json([1.5], "q")
        assert back.degree == 0
        assert back.coeffs[0] == 1.5

    def test_even_length_rejected(self):
        with pytest.raises(fio.InputFormatError):
            fio.symbol_from_json([1.0, 0.5], "p")

    def test_non_numeric_rejected(self):
        for bad in ("p", [], [1.0, "a", 0.0], [True, 0.0, 0.0]):
            with pytest.raises(fio.InputFormatError):
                fio.symbol_from_json(bad, "p")


class TestProblemParsing:
    def base(self):
        return {
            "version": 1,
            "N": 8,
            "c": [[1.0, 0.0], [0.3, 0.1]],
        }

    def test_happy_path(self):
        data = self.base()
        data["m"] = [[0.05, -0.02]]
        data["p"] = [1.0, 0.2, 0.0]
        data["options"] = {"grad_tol": 1e-9, "max_iter": 50}
        data["lambda"] = 0.01
        spec = fio.problem_from_dict(data)
        assert spec.grid.N == 8
        assert spec.c.n == 1
        assert spec.m.n == 1
        assert spec.p.degree == 1
        assert spec.options.grad_tol == 1e-9
        assert spec.options.max_iter == 50
        assert spec.regularization == 0.01
        assert spec.warnings == []

    def test_minimal_problem(self):
        spec = fio.problem_from_dict(self.base())
        assert spec.m is None and spec.p is None and spec.regularization is None

    def test_unknown_field_warns_not_rejects(self):
        data = self.base()
        data["comment"] = "hand written"
        spec = fio.problem_from_dict(data, source="inline")
        assert any("comment" in w for w in spec.warnings)

    def test_missing_version_warns(self):
        data = self.base()
        del data["version"]
        spec = fio.problem_from_dict(data)
        assert any("version" in w for w in spec.warnings)

    def test_wrong_version_rejected(self):
        data = self.base()
        data["version"] = 2
        with pytest.raises(fio.InputFormatError, match="version"):
            fio.problem_from_dict(data)

    def test_missing_required_fields(self):
        with pytest.raises(fio.InputFormatError, match='"N"'):
            fio.problem_from_dict({"version": 1, "c": [[1.0, 0.0]]})
        with pytest.raises(fio.InputFormatError, match='"c"'):
            fio.problem_from_dict({"version": 1, "N": 8})

    def test_type_errors(self):
        data = self.base()
        data["N"] = True
        with pytest.raises(fio.InputFormatError):
            fio.problem_from_dict(data)
        data = self.base()
        data["options"] = []
        with pytest.raises(fio.InputFormatError):
            fio.problem_from_dict(data)
        data = self.base()
        data["options"] = {"grad_tol": "tight"}
        with pytest.raises(fio.InputFormatError):
            fio.problem_from_dict(data)
        data = self.base()
        data["lambda"] = -0.5
        with pytest.raises(fio.InputFormatError):
            fio.problem_from_dict(data)

    def test_unknown_option_warns(self):
        data = self.base()
        data["options"] = {"verbose": 1}
        spec = fio.problem_from_dict(data)
        assert any("verbose" in w for w in spec.warnings)
        assert spec.options.max_iter == 100

    def test_every_solver_option_is_a_file_option(self):
        # the parser reads its option names off SolverOptions, so the two cannot drift apart
        assert [f.name for f in dataclasses.fields(SolverOptions)] == ["grad_tol", "max_iter"]
        data = self.base()
        data["options"] = {f.name: 3 * f.default for f in dataclasses.fields(SolverOptions)}
        spec = fio.problem_from_dict(data)
        assert dataclasses.asdict(spec.options) == {"grad_tol": 3e-10, "max_iter": 300}
        assert spec.warnings == []

    @pytest.mark.parametrize("option, value, message", [
        ("max_iter", 2.5, "max_iter must be an integer"),
        ("max_iter", 3.0, "max_iter must be an integer"),
        ("grad_tol", 10**400, "positive and finite"),
    ], ids=["fractional_budget", "integral_float_budget", "tolerance_beyond_the_floats"])
    def test_option_values_meet_the_solver_options_rule_uncast(self, option, value, message):
        # the parser once truncated a fractional budget and raised OverflowError on a
        # tolerance beyond the floats; SolverOptions' own rule refuses both
        data = self.base()
        data["options"] = {option: value}
        with pytest.raises(fio.InputFormatError, match=message):
            fio.problem_from_dict(data)

    def test_invalid_sequence_values_rejected(self):
        data = self.base()
        data["c"] = [[0.0, 0.0], [0.3, 0.1]]
        with pytest.raises(fio.InputFormatError):
            fio.problem_from_dict(data)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "problem.json"
        fio.dump_json(self.base(), str(path))
        spec = fio.load_problem(str(path))
        assert spec.grid.N == 8
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(fio.InputFormatError):
            fio.load_problem(str(bad))
        arr = tmp_path / "array.json"
        arr.write_text("[1, 2]")
        with pytest.raises(fio.InputFormatError):
            fio.load_problem(str(arr))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    def test_non_finite_numbers_rejected(self, tmp_path, token):
        path = tmp_path / "problem.json"
        path.write_text(f'{{"version": 1, "N": 8, "c": [1.0, [0.3, {token}]]}}')
        with pytest.raises(fio.InputFormatError, match=f"non-finite number {token}"):
            fio.load_problem(str(path))


def solved_report():
    grid = DiscreteGrid(8)
    c = CovarianceSequence([1.0, 0.3 + 0.1j])
    return grid, maxent_solve(c, grid)


class TestResultPayloads:
    def test_solution_payload(self):
        grid, report = solved_report()
        data = fio.solution_to_dict(report)
        assert data["version"] == fio.FORMAT_VERSION
        assert data["kind"] == "solution"
        assert data["N"] == grid.N and data["n"] == 1
        q = fio.symbol_from_json(data["q"], "q")
        np.testing.assert_array_equal(q.coeffs, report.q.coeffs)
        assert len(data["extended_c"]) == grid.N + 1
        assert data["residual"] <= 1e-8

    def test_joint_payload_with_epsilon(self, tmp_path):
        grid = DiscreteGrid(8)
        c = CovarianceSequence([1.0, 0.3])
        m = CepstralSequence([0.05])
        report = joint_solve(JointProblem(grid, c, m, regularization=0.01))
        fio.dump_json(fio.joint_to_dict(report), str(tmp_path / "joint.json"))
        data = fio.load_json(str(tmp_path / "joint.json"))
        assert data["kind"] == "joint"
        assert data["lambda"] == 0.01
        assert data["boundary_flag"] is False
        eps = fio.parse_complex_list(data["epsilon"], "epsilon")
        np.testing.assert_allclose(eps, report.epsilon, atol=1e-15)

    def test_joint_payload_without_epsilon(self):
        grid = DiscreteGrid(8)
        phi0 = eval_symbol(SymmetricPseudoPolynomial([1.0, 0.2]), grid)
        c = covariance_moments(phi0, 1)
        m = cepstral_moments(phi0, 1)
        report = joint_solve(JointProblem(grid, c, m, regularization=0.0))
        data = fio.joint_to_dict(report)
        assert "epsilon" not in data


class TestModelFiles:
    def test_solution_file_reloads_as_model(self, tmp_path):
        grid, report = solved_report()
        path = tmp_path / "solution.json"
        fio.dump_json(fio.solution_to_dict(report), str(path))
        grid2, p, q = fio.load_model(str(path))
        assert grid2.N == grid.N
        phi = fio.model_spectrum(grid2, p, q)
        np.testing.assert_allclose(
            phi.real_values(), report.phi.real_values(), atol=1e-12
        )

    def test_model_needs_core_fields(self, tmp_path):
        path = tmp_path / "model.json"
        fio.dump_json({"N": 8, "p": [1.0]}, str(path))
        with pytest.raises(fio.InputFormatError, match='"q"'):
            fio.load_model(str(path))

    def test_model_positivity_enforced(self):
        grid = DiscreteGrid(4)
        flat = SymmetricPseudoPolynomial([1.0])
        # denominator hits zero at theta = 0
        sick = SymmetricPseudoPolynomial([1.0, -0.5])
        with pytest.raises(fio.InputFormatError, match="denominator"):
            fio.model_spectrum(grid, flat, sick)
        negative = SymmetricPseudoPolynomial([1.0, -0.6])
        with pytest.raises(fio.InputFormatError, match="numerator"):
            fio.model_spectrum(grid, negative, flat)

    def test_model_beyond_the_float_range_refused(self):
        grid = DiscreteGrid(4)
        flat = SymmetricPseudoPolynomial([1.0])
        steep = SymmetricPseudoPolynomial([1e300])
        shallow = SymmetricPseudoPolynomial([1e-10])
        # each sample is finite, but their quotient 1e310 is not
        with pytest.raises(fio.InputFormatError, match=r"P/Q is not finite at node j="):
            fio.model_spectrum(grid, steep, shallow)
        assert fio.model_spectrum(grid, steep, flat).real_values().max() == 1e300


class TestApproxConfig:
    def load(self, tmp_path, **fields):
        path = tmp_path / "config.json"
        fio.dump_json({"version": 1, "c": [[1.0, 0.0], [0.4, 0.0]], **fields}, str(path))
        return fio.load_approx(str(path))

    def test_defaults(self, tmp_path):
        c, p, n_max, reference_N, sizes, warnings = self.load(tmp_path)
        np.testing.assert_array_equal(c.c, [1.0, 0.4])
        assert p is None and sizes is None and warnings == []
        assert (n_max, reference_N) == (approx.DEFAULT_N_MAX, approx.DEFAULT_REFERENCE_N)

    def test_given_fields(self, tmp_path):
        c, p, n_max, reference_N, sizes, _ = self.load(
            tmp_path, p=[1.0, 0.2, 0.0], n_max=64, reference_N=128, grid_sizes=[4, 8]
        )
        assert p.coeffs.tolist() == [1.0, 0.2]
        assert (n_max, reference_N, sizes) == (64, 128, [4, 8])

    def test_unknown_field_warns(self, tmp_path):
        *_, warnings = self.load(tmp_path, author="me")
        assert warnings == [f'{tmp_path / "config.json"}: ignoring unknown field "author"']

    @pytest.mark.parametrize("field", ["n_max", "reference_N"])
    @pytest.mark.parametrize("value", [0, -3, True, 8.5, "8"])
    def test_sizes_must_be_positive_integers(self, tmp_path, field, value):
        with pytest.raises(fio.InputFormatError, match=f'"{field}" must be a positive integer'):
            self.load(tmp_path, **{field: value})

    @pytest.mark.parametrize("value", ["x", [1.5], [True], [4, None], 8])
    def test_grid_sizes_must_be_integers(self, tmp_path, value):
        with pytest.raises(fio.InputFormatError, match='"grid_sizes" must be integers'):
            self.load(tmp_path, grid_sizes=value)

    @pytest.mark.parametrize("fields, message", [
        ({"grid_sizes": [8, 4]}, "strictly increasing"),
        ({"grid_sizes": []}, "at least one grid size"),
        ({"grid_sizes": [1, 4]}, "exceed the lag degree 1"),
        ({"grid_sizes": [4, 256], "reference_N": 128}, "reference_N must exceed"),
    ])
    def test_schedule_is_checked_at_load(self, tmp_path, fields, message):
        with pytest.raises(fio.InputFormatError, match=message):
            self.load(tmp_path, **fields)

    def test_missing_lags(self, tmp_path):
        path = tmp_path / "config.json"
        fio.dump_json({"version": 1, "n_max": 8}, str(path))
        with pytest.raises(fio.InputFormatError, match='missing required field "c"'):
            fio.load_approx(str(path))

    def test_lags_are_checked(self, tmp_path):
        with pytest.raises(fio.InputFormatError, match="config.json"):
            self.load(tmp_path, c=[[0.0, 1.0]])


class TestCsv:
    def test_realization_round_trip(self, tmp_path):
        grid = DiscreteGrid(4)
        rng = np.random.default_rng(31)
        y = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        path = tmp_path / "row.csv"
        fio.write_complex_csv(str(path), "t,re,im", y)
        back = fio.read_realization_csv(str(path), grid)
        np.testing.assert_array_equal(back, y)

    @pytest.mark.parametrize("body, message", [
        ("0,1,0\n1,abc,0\n", "could not convert string 'abc'"),
        ("", "expected 8 rows of t,re,im"),
    ], ids=["non_numeric_field", "header_only"])
    def test_unreadable_realization_names_its_file(self, tmp_path, body, message):
        # an error that starts with the path, and no numpy warning before it
        path = tmp_path / "realization_0007.csv"
        path.write_text("t,re,im\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fio.InputFormatError, match=message) as info:
                fio.read_realization_csv(str(path), DiscreteGrid(4))
        assert str(info.value).startswith(f"{path}: ")

    def test_realization_shape_check(self, tmp_path):
        path = tmp_path / "short.csv"
        fio.write_complex_csv(str(path), "t,re,im", np.zeros(4, dtype=complex))
        with pytest.raises(fio.InputFormatError):
            fio.read_realization_csv(str(path), DiscreteGrid(4))

    def test_spectrum_csv(self, tmp_path):
        grid, report = solved_report()
        path = tmp_path / "spectrum.csv"
        fio.write_spectrum_csv(str(path), report.phi)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "theta,phi"
        assert len(lines) == grid.size + 1
        theta, phi = lines[1].split(",")
        assert float(theta) == grid.angles[0]
        assert float(phi) == report.phi.real_values()[0]

    def test_extended_csv(self, tmp_path):
        path = tmp_path / "extended.csv"
        fio.write_complex_csv(str(path), "k,re,im", np.array([1.0, 0.3 + 0.1j]))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "k,re,im"
        assert lines[1].startswith("0,1,")
        k, re, im = lines[2].split(",")
        assert (int(k), float(re), float(im)) == (1, 0.3, 0.1)

    def test_csv_rerun_is_byte_identical(self, tmp_path):
        grid, report = solved_report()
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        fio.write_spectrum_csv(str(a), report.phi)
        fio.write_spectrum_csv(str(b), report.phi)
        assert a.read_bytes() == b.read_bytes()


# finite float64 values with the awkward ones drawn often: signed zeros,
# subnormals, the edge of the range and whole numbers
EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1.7e308, -1.7e308, 1e16, 1e17]
)
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    EDGE_FLOATS,
    st.integers(-(10**9), 10**9).map(float),
)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def float_arrays(min_size=1, max_size=12):
    return st.lists(FLOATS, min_size=min_size, max_size=max_size).map(np.array)


def reference_table(header, rows):
    """The table formatted one value at a time: str(int) and f"{x:.17g}"."""
    def cell(x):
        return str(x) if isinstance(x, int) else f"{x:.17g}"

    return "\n".join([header] + [",".join(cell(x) for x in row) for row in rows]) + "\n"


def written(write, *args):
    """Text that write(path, *args) puts in a fresh file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        write(path, *args)
        with open(path, encoding="utf-8") as fh:
            return fh.read()


def refused(write, *args):
    """True when write(path, *args) refuses with the non-finite error, makes no file
    where there was none, and leaves a file that was there byte for byte as it was."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        with pytest.raises(ValueError, match="non-finite"):
            write(path, *args)
        created = os.path.exists(path)
        earlier = b"an earlier output\n" * 40
        with open(path, "wb") as fh:
            fh.write(earlier)
        with pytest.raises(ValueError, match="non-finite"):
            write(path, *args)
        with open(path, "rb") as fh:
            return not created and fh.read() == earlier


class TestWriterProperties:
    """Array-at-a-time writers against per-value formatting."""

    @PROPERTY
    @given(float_arrays(), st.data())
    def test_write_csv(self, x, data):
        y = data.draw(float_arrays(x.size, x.size))
        rows = list(zip(range(x.size), x.tolist(), y.tolist()))
        assert written(fio.write_csv, "i,x,y", rows) == reference_table("i,x,y", rows)
        # numpy scalars in the rows format like the Python numbers they hold
        scalars = list(zip(np.arange(x.size), x, y))
        assert written(fio.write_csv, "i,x,y", scalars) == reference_table("i,x,y", rows)

    @PROPERTY
    @given(st.integers(1, 6).flatmap(lambda N: float_arrays(2 * N, 2 * N)))
    def test_write_spectrum_csv(self, values):
        grid = DiscreteGrid(values.size // 2)
        phi = SpectrumSamples(grid, values)
        rows = list(zip(grid.angles.tolist(), values.tolist()))
        assert written(fio.write_spectrum_csv, phi) == reference_table("theta,phi", rows)

    @PROPERTY
    @given(float_arrays(), st.data())
    def test_complex_writers(self, re, data):
        im = data.draw(float_arrays(re.size, re.size))
        z = re.astype(complex)
        z.imag = im    # re + 1j * im would turn an imaginary -0.0 into 0.0
        rows = list(zip(range(z.size), re.tolist(), im.tolist()))
        assert written(fio.write_complex_csv, "k,re,im", z) == reference_table("k,re,im", rows)
        assert written(fio.write_complex_csv, "t,re,im", z) == reference_table("t,re,im", rows)

    @PROPERTY
    @given(float_arrays(5, 12), float_arrays(2, 2), st.integers(-(10**12), 10**12))
    def test_dump_json(self, values, pair, n):
        payload = {"n": n, "pair": pair, "values": values.tolist()}
        lines = [f"    {x:.17g}" for x in values.tolist()]
        expected = (
            f'{{\n  "n": {n},\n  "pair": [{pair[0]:.17g}, {pair[1]:.17g}],\n'
            '  "values": [\n' + ",\n".join(lines) + "\n  ]\n}\n"
        )
        assert written(lambda path, obj: fio.dump_json(obj, path), payload) == expected

    def test_table_without_rows_is_its_header(self):
        assert written(fio.write_csv, "N,distance,iterations", []) == "N,distance,iterations\n"

    @PROPERTY
    @given(float_arrays(), st.data())
    def test_non_finite_values_are_refused(self, values, data):
        values[data.draw(st.integers(0, values.size - 1))] = data.draw(
            st.sampled_from([math.nan, math.inf, -math.inf])
        )
        rows = [(i, 1.0, x) for i, x in enumerate(values.tolist())]
        assert refused(fio.write_csv, "i,one,x", rows)
        assert refused(fio.write_complex_csv, "k,re,im", values)
        imaginary = np.zeros(values.size, dtype=complex)
        imaginary.imag = values
        assert refused(fio.write_complex_csv, "t,re,im", imaginary)
        assert refused(lambda path, obj: fio.dump_json(obj, path), {"values": values.tolist()})
        if values.size % 2 == 0:
            phi = SpectrumSamples(DiscreteGrid(values.size // 2), values)
            assert refused(fio.write_spectrum_csv, phi)


def reference_json(obj, indent=0):
    """The layout rule one value at a time: format_float per float, at most 4 flat
    scalars inline, longer lists and lists of lists one item per line."""
    pad, inner = " " * indent, " " * (indent + 2)
    if isinstance(obj, dict):
        items = [f"{inner}{json.dumps(key)}: {reference_json(v, indent + 2)}" for key, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        obj = list(obj)
    if isinstance(obj, list):
        if not obj:
            return "[]"
        if len(obj) <= 4 and not any(isinstance(x, (list, np.ndarray)) for x in obj):
            return "[" + ", ".join(fio.format_float(x) for x in obj) + "]"
        return "[\n" + ",\n".join(inner + reference_json(x, indent + 2) for x in obj) + "\n" + pad + "]"
    return fio.format_float(obj)


def float_rows(width):
    return st.lists(st.lists(FLOATS, min_size=width, max_size=width), max_size=9)


class TestArrayPath:
    """_emit's one %-format per float array against per-value format_float."""

    @PROPERTY
    @given(st.lists(FLOATS, max_size=12))
    def test_flat_lists(self, values):
        assert fio._emit(values) == reference_json(values)
        assert fio._emit({"a": {"b": values}}) == reference_json({"a": {"b": values}})

    @PROPERTY
    @given(float_rows(2))
    def test_lists_of_pairs(self, rows):
        assert fio._emit({"c": rows}) == reference_json({"c": rows})

    @PROPERTY
    @given(float_arrays(0, 12))
    def test_flat_arrays(self, values):
        assert fio._emit({"x": values}) == reference_json({"x": values})
        single = np.clip(values, -1e38, 1e38).astype(np.float32)
        assert fio._emit({"x": single}) == reference_json({"x": single})

    @PROPERTY
    @given(st.integers(0, 6).flatmap(float_rows))
    def test_row_arrays(self, rows):
        width = len(rows[0]) if rows else 2
        table = np.array(rows, dtype=float).reshape(len(rows), width)
        assert fio._emit({"t": table}) == reference_json({"t": table})

    def test_lists_that_are_not_all_floats_keep_each_form(self):
        # ints, bools and None are not floats: 10**20 stays exact, True stays true
        mixed = [1, 2.5, True, 10**20, None, 3.0]
        assert fio._emit(mixed) == "[\n  1,\n  2.5,\n  true,\n  100000000000000000000,\n  null,\n  3\n]"
        assert fio._emit([2, 0.5]) == "[2, 0.5]"
        assert fio._emit(np.arange(6)) == "[\n" + ",\n".join(f"  {k}" for k in range(6)) + "\n]"


class TestInPlaceRewrite:
    """Every writer rewrites its file in place and cuts it to the new length."""

    WRITERS = {
        "dump_json": lambda path, n: fio.dump_json({"values": np.linspace(-1.0, 1.0, n)}, path),
        "write_csv": lambda path, n: fio.write_csv(path, "i,x", [(i, i / 3.0) for i in range(n)]),
        "write_complex_csv": lambda path, n: fio.write_complex_csv(
            path, "k,re,im", np.exp(1j * np.arange(n))
        ),
        "write_spectrum_csv": lambda path, n: fio.write_spectrum_csv(
            path, SpectrumSamples(DiscreteGrid(n), np.linspace(0.5, 2.0, 2 * n))
        ),
    }

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_shorter_rewrite_equals_a_fresh_write(self, tmp_path, writer):
        write = self.WRITERS[writer]
        path, fresh = str(tmp_path / "out"), str(tmp_path / "fresh")
        write(path, 50)
        longer = os.path.getsize(path)
        write(path, 3)
        write(fresh, 3)
        assert os.path.getsize(path) < longer
        with open(path, "rb") as a, open(fresh, "rb") as b:
            assert a.read() == b.read()

    def test_short_writes_are_continued(self, tmp_path, monkeypatch):
        # a write may take fewer bytes than asked; the writer goes on where it stopped
        payload, write = {"values": np.linspace(-1.0, 1.0, 9)}, os.write
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, bytes(data[:7])))
        fio.dump_json(payload, str(tmp_path / "short.json"))
        monkeypatch.undo()
        fio.dump_json(payload, str(tmp_path / "whole.json"))
        assert (tmp_path / "short.json").read_bytes() == (tmp_path / "whole.json").read_bytes()


class TestEnsembleFiles:
    def test_round_trip(self, tmp_path):
        grid = DiscreteGrid(4)
        rng = np.random.default_rng(37)
        y = rng.standard_normal((3, grid.size)) + 1j * rng.standard_normal((3, grid.size))
        names = fio.write_ensemble(str(tmp_path), y, grid, 37, "f" * 64, False)
        assert names == [f"realization_{r:04d}.csv" for r in range(3)]
        back, grid2, manifest = fio.read_ensemble(str(tmp_path))
        np.testing.assert_array_equal(back, y)
        assert grid2.N == grid.N
        assert manifest["seed"] == 37
        assert manifest["count"] == 3
        assert manifest["real_valued"] is False

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(fio.InputFormatError, match="manifest"):
            fio.read_ensemble(str(tmp_path))

    def test_empty_ensemble_rejected(self, tmp_path):
        fio.dump_json(
            {"version": 1, "kind": "ensemble", "N": 4, "files": []},
            str(tmp_path / "manifest.json"),
        )
        with pytest.raises(fio.InputFormatError, match="no realizations"):
            fio.read_ensemble(str(tmp_path))

    @pytest.mark.parametrize(
        "field, value", [("files", [1]), ("files", 5), ("files", "a.csv"), ("N", True)]
    )
    def test_malformed_manifest_rejected(self, tmp_path, field, value):
        manifest = {"version": 1, "kind": "ensemble", "N": 4, "files": ["a.csv"]}
        manifest[field] = value
        fio.dump_json(manifest, str(tmp_path / "manifest.json"))
        with pytest.raises(fio.InputFormatError, match=f'"{field}"|{field} must'):
            fio.read_ensemble(str(tmp_path))


class TestRunRecord:
    def test_fields(self):
        record = fio.run_record("solve", "a" * 64, 12.5, ["solution.json"])
        assert record["kind"] == "run"
        assert record["command"] == "solve"
        assert record["outputs"] == ["solution.json"]
        assert record["artifact_version"] == fio.ARTIFACT_VERSION
        # timestamp is the single intentionally non-reproducible value
        from datetime import datetime

        datetime.fromisoformat(record["timestamp"])
        assert "timings" not in record

    def test_timings(self):
        timings = {"stages": [{"N": 8, "runtime_ms": 1.5}]}
        record = fio.run_record("approx", "a" * 64, 12.5, ["approx.json"], timings)
        assert record["timings"] == timings
