"""Problem files, result records, and CSV emission.

JSON carries structured inputs and outputs, CSV carries array and plot data.
Numbers are serialized with 17 significant digits so every round trip is
lossless, and the writer emits keys in insertion order with fixed layout.  A
float array in JSON and a CSV table are each formatted in one %-format (%.17g,
%d for integer columns), checked for finiteness once, before the file opens.
An ensemble is checked once before its first file opens, formatted through one
template and read back in one parse; read_realization_csv judges a file off
the written layout.  Each file is rewritten in place and cut to length: a
rerun's bytes equal a fresh run's, a refused write leaves existing files as
they were, and files that only an earlier, larger run wrote (extra
realization_*.csv) are not removed.

Conventions: covariance and cepstral sequences are lists of [re, im] pairs
(bare numbers are accepted on input and read as real); symbols are flat real
arrays [p_0, re p_1, im p_1, ...] of odd length.  Every file carries a
"version" field.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from itertools import chain

import numpy as np

from .approx import DEFAULT_N_MAX, DEFAULT_REFERENCE_N, check_schedule
from .circulant import SymmetricPseudoPolynomial, eval_symbol
from .dual import SolverOptions
from .grid import DiscreteGrid, SpectrumSamples, refuse_nodes
from .moments import CepstralSequence, CovarianceSequence

FORMAT_VERSION = 1
ARTIFACT_VERSION = "0.1.0"

PROBLEM_KEYS = {"version", "N", "c", "m", "p", "options", "lambda"}
APPROX_KEYS = {"version", "c", "p", "n_max", "grid_sizes", "reference_N"}


class InputFormatError(ValueError):
    """A problem or model file violates the documented schema."""


def format_float(x: float) -> str:
    """17 significant digits of a finite float; nan and inf have no JSON form."""
    if not math.isfinite(x):
        raise ValueError(f"refusing to write the non-finite number {x}")
    return f"{float(x):.17g}"


def _finite(arr: np.ndarray) -> np.ndarray:
    """arr, unless it holds a nan or an inf: then the non-finite refusal."""
    return arr if np.isfinite(arr).all() else format_float(arr[~np.isfinite(arr)].flat[0])


def _float_rows(seq):
    """seq as a float array if it is a flat list of floats or a float array flat or of rows of at most 4."""
    if not isinstance(seq, np.ndarray):
        return np.array(seq, dtype=float) if all(isinstance(x, (float, np.floating)) for x in seq) else None
    return seq if seq.dtype.kind == "f" and (seq.ndim == 1 or seq.ndim == 2 and seq.shape[1] <= 4) else None


def _emit(obj, indent: int = 0) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        items = [f"{inner}{json.dumps(str(key))}: {_emit(value, indent + 2)}" for key, value in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}" if items else "{}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        arr = _float_rows(obj)    # a float array is laid out by one %-format over its values
        if arr is None:
            items = [_emit(x, indent + 2) for x in obj]
            flat = not any(isinstance(x, (dict, list, tuple, np.ndarray)) for x in obj)
        else:
            row = "%.17g" if arr.ndim == 1 else "[" + ", ".join(["%.17g"] * arr.shape[1]) + "]"
            items, flat = [row] * len(arr), arr.ndim == 1
        inline = not items or flat and len(items) <= 4
        text = "[" + ", ".join(items) + "]" if inline else f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
        return text if arr is None else text % tuple(_finite(arr).ravel().tolist())
    if isinstance(obj, (bool, str)) or obj is None:    # before int: bool subclasses int
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_text(path: str, text: str) -> None:
    """Write text over the file in place, then cut it where the text ends: a rerun reuses its blocks."""
    rest, fd = memoryview(text.encode()), os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        while rest:    # a write may take fewer bytes than asked
            rest = rest[os.write(fd, rest):]
        os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    finally:
        os.close(fd)


def dump_json(obj: dict, path: str) -> None:
    _write_text(path, _emit(obj) + "\n")


def load_json(path: str) -> dict:
    """Parse a JSON object, refusing NaN, Infinity and literals that overflow to infinity."""

    def refuse(token):
        raise InputFormatError(f"{path}: non-finite number {token} is not allowed")

    def finite(literal):
        value = float(literal)
        return value if np.isfinite(value) else refuse(literal)

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=refuse, parse_float=finite)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise InputFormatError(f"{path}: expected a JSON object at top level")
    return data


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def complex_pairs(values: np.ndarray) -> np.ndarray:
    return np.column_stack([np.real(values), np.imag(values)])


def _is_number(x) -> bool:
    """A JSON number: an int or a float, but not a bool, which subclasses int."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def parse_complex_list(raw, name: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise InputFormatError(f'field "{name}" must be a nonempty array')
    out = np.empty(len(raw), dtype=complex)
    for i, entry in enumerate(raw):
        if _is_number(entry):
            out[i] = float(entry)
        elif isinstance(entry, list) and len(entry) == 2 and all(map(_is_number, entry)):
            out[i] = complex(float(entry[0]), float(entry[1]))
        else:
            raise InputFormatError(
                f'field "{name}"[{i}] must be a number or an [re, im] pair'
            )
    return out


def symbol_to_json(p: SymmetricPseudoPolynomial) -> list:
    """Flat real array [p_0, re p_1, im p_1, ...]."""
    return [float(p.coeffs[0].real)] + complex_pairs(p.coeffs[1:]).ravel().tolist()


def symbol_from_json(raw, name: str) -> SymmetricPseudoPolynomial:
    if not isinstance(raw, list) or len(raw) % 2 == 0 or not all(map(_is_number, raw)):
        raise InputFormatError(
            f'field "{name}" must be a flat numeric array [p0, re p1, im p1, ...] '
            "of odd length"
        )
    flat = np.asarray(raw, dtype=float)
    coeffs = np.append(flat[0], flat[1::2]).astype(complex)
    coeffs[1:].imag = flat[2::2]
    try:
        return SymmetricPseudoPolynomial(coeffs)
    except ValueError as exc:
        raise InputFormatError(f'field "{name}": {exc}') from exc


@dataclass
class ProblemSpec:
    """Validated content of a problem file."""

    grid: DiscreteGrid
    c: CovarianceSequence
    m: CepstralSequence | None
    p: SymmetricPseudoPolynomial | None
    options: SolverOptions
    regularization: float | None
    warnings: list[str]


def _checked(source: str, build):
    """build(), with a ValueError raised again as an InputFormatError naming source."""
    try:
        return build()
    except ValueError as exc:
        raise InputFormatError(f"{source}: {exc}") from exc


def _header(data: dict, source: str, required, known=None) -> list[str]:
    """Warnings on the fields of an input file; a missing required field raises.

    A file with a fixed schema passes known: fields outside it and a missing
    "version" draw warnings, a foreign version raises.  Model and manifest
    files hold whatever their writer put there, so only required is checked.
    """
    warnings = []
    if known is not None:
        warnings = [f'{source}: ignoring unknown field "{key}"' for key in data if key not in known]
        version = data.get("version")
        if version is None:
            warnings.append(f'{source}: missing "version" field, assuming {FORMAT_VERSION}')
        elif version != FORMAT_VERSION:
            raise InputFormatError(f"{source}: unsupported version {version!r}")
    for key in required:
        if key not in data:
            raise InputFormatError(f'{source}: missing required field "{key}"')
    return warnings


def problem_from_dict(data: dict, source: str = "problem") -> ProblemSpec:
    warnings = _header(data, source, ("N", "c"), PROBLEM_KEYS)
    grid = _checked(source, lambda: DiscreteGrid(data["N"]))
    c = _checked(source, lambda: CovarianceSequence(parse_complex_list(data["c"], "c")))

    m = None
    if "m" in data:
        m = _checked(source, lambda: CepstralSequence(parse_complex_list(data["m"], "m")))

    p = symbol_from_json(data["p"], "p") if "p" in data else None

    opts_kwargs = {}
    raw_opts = data.get("options", {})
    if not isinstance(raw_opts, dict):
        raise InputFormatError(f'{source}: field "options" must be an object')
    option_keys = {f.name for f in fields(SolverOptions)}
    for key, value in raw_opts.items():
        if key not in option_keys:
            warnings.append(f'{source}: ignoring unknown option "{key}"')
            continue
        if not _is_number(value):
            raise InputFormatError(f'{source}: option "{key}" must be a number')
        opts_kwargs[key] = value
    options = _checked(source, lambda: SolverOptions(**opts_kwargs))

    regularization = None
    if "lambda" in data:
        lam = data["lambda"]
        if not _is_number(lam) or lam < 0:
            raise InputFormatError(f'{source}: field "lambda" must be a number >= 0')
        regularization = float(lam)
    return ProblemSpec(grid, c, m, p, options, regularization, warnings)


def load_problem(path: str) -> ProblemSpec:
    return problem_from_dict(load_json(path), source=path)


def load_approx(path: str) -> tuple:
    """An approx config as (c, p or None, n_max, reference_N, grid_sizes or None, warnings)."""
    data = load_json(path)
    warnings = _header(data, path, ("c",), APPROX_KEYS)
    c = _checked(path, lambda: CovarianceSequence(parse_complex_list(data["c"], "c")))
    p = symbol_from_json(data["p"], "p") if "p" in data else None
    n_max = data.get("n_max", DEFAULT_N_MAX)
    reference_N = data.get("reference_N", DEFAULT_REFERENCE_N)
    for name, value in (("n_max", n_max), ("reference_N", reference_N)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise InputFormatError(f'{path}: "{name}" must be a positive integer')
    sizes = data.get("grid_sizes")
    if sizes is not None:
        if not isinstance(sizes, list) or any(
            isinstance(N, bool) or not isinstance(N, int) for N in sizes
        ):
            raise InputFormatError(f'{path}: "grid_sizes" must be integers')
        _checked(path, lambda: check_schedule(c, sizes, reference_N))
    return c, p, n_max, reference_N, sizes, warnings


def solution_to_dict(report) -> dict:
    """JSON payload for a covariance matching report."""
    return {
        "version": FORMAT_VERSION,
        "kind": "solution",
        "N": report.grid.N,
        "n": report.c.n,
        "c": complex_pairs(report.c.c),
        "p": symbol_to_json(report.p),
        "q": symbol_to_json(report.q),
        "extended_c": complex_pairs(report.extended_c),
        "residual": report.residual,
        "iterations": report.iterations,
    }


def joint_to_dict(report) -> dict:
    """JSON payload for a joint covariance and cepstral report."""
    out = {
        "version": FORMAT_VERSION,
        "kind": "joint",
        "N": report.grid.N,
        "n": report.c.n,
        "c": complex_pairs(report.c.c),
        "m": complex_pairs(report.m.m),
        "lambda": report.regularization,
        "p": symbol_to_json(report.p),
        "q": symbol_to_json(report.q),
        "covariance_residual": report.covariance_residual,
        "cepstral_residual": report.cepstral_residual,
        "boundary_flag": report.boundary_flag,
        "iterations": report.iterations,
    }
    if report.epsilon is not None:
        out["epsilon"] = complex_pairs(report.epsilon)
    return out


def load_model(path: str) -> tuple[DiscreteGrid, SymmetricPseudoPolynomial, SymmetricPseudoPolynomial]:
    """Read a spectrum model P/Q from a solution file or a hand-written one.

    Requires fields "N", "p", "q"; solution files written by the solvers
    qualify, closing the solve -> simulate loop.
    """
    data = load_json(path)
    _header(data, path, ("N", "p", "q"))
    grid = _checked(path, lambda: DiscreteGrid(data["N"]))
    return grid, symbol_from_json(data["p"], "p"), symbol_from_json(data["q"], "q")


def model_spectrum(grid, p, q) -> SpectrumSamples:
    """Node samples of P/Q, refused unless P >= 0, Q > 0 and P, Q and P/Q are finite."""
    pv = eval_symbol(p, grid).real_values()
    qv = eval_symbol(q, grid).real_values()
    with np.errstate(all="ignore"):    # a quotient of refused samples is never returned
        phi = pv / qv
    for what, values, bad in (
        ("numerator is not finite", pv, ~np.isfinite(pv)),
        ("denominator is not finite", qv, ~np.isfinite(qv)),
        ("numerator is negative", pv, pv < 0.0),
        ("denominator is not positive", qv, qv <= 0.0),
        ("spectrum P/Q is not finite", phi, ~np.isfinite(phi)),
    ):
        refuse_nodes(grid, values, bad, f"model {what}", InputFormatError)
    return SpectrumSamples(grid, phi)


def write_csv(path: str, header: str, rows) -> None:
    _write_table(path, header, zip(*rows))


def _write_table(path: str, header: str, columns) -> None:
    """Write columns under header with one %-format over the whole table."""
    formats, values = [], []
    for column in columns:
        arr = np.asarray(column)
        if arr.dtype.kind not in "iu":
            arr = _finite(np.asarray(arr, dtype=float))
        formats.append("%d" if arr.dtype.kind in "iu" else "%.17g")
        values.append(arr.tolist())
    body = (",".join(formats) + "\n") * (len(values[0]) if values else 0)
    _write_text(path, header + "\n" + body % tuple(chain.from_iterable(zip(*values))))


def write_spectrum_csv(path: str, phi: SpectrumSamples) -> None:
    _write_table(path, "theta,phi", [phi.grid.angles, phi.real_values()])


def write_complex_csv(path: str, header: str, values: np.ndarray) -> None:
    _write_table(path, header, [np.arange(len(values)), np.real(values), np.imag(values)])


def read_realization_csv(path: str, grid: DiscreteGrid) -> np.ndarray:
    with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # a file without rows fails the check below
        data = _checked(path, lambda: np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2))
    if data.shape[1] != 3 or data.shape[0] != grid.size:
        raise InputFormatError(f"{path}: expected {grid.size} rows of t,re,im")
    return np.ascontiguousarray(data[:, 1:]).view(complex)[:, 0]    # no 0 * inf from 1j * im


def write_ensemble(out_dir: str, realizations: np.ndarray, grid, seed, model_hash, real_valued) -> list[str]:
    """Write one CSV per realization plus a manifest; returns the file names."""
    parts = _finite(np.ascontiguousarray(realizations, dtype=complex).view(float))    # re, im of (row, t)
    names = [f"realization_{r:04d}.csv" for r in range(parts.shape[0])]
    body = "t,re,im\n" + "".join(f"{t},%.17g,%.17g\n" for t in range(parts.shape[1] // 2))
    for name, row in zip(names, parts):    # a tolist per row keeps one row's floats alive, not the ensemble's
        _write_text(os.path.join(out_dir, name), body % tuple(row.tolist()))
    manifest = dict(version=FORMAT_VERSION, kind="ensemble", N=grid.N, count=len(names), seed=seed,
                    real_valued=bool(real_valued), model_sha256=model_hash, files=names)
    dump_json(manifest, os.path.join(out_dir, "manifest.json"))
    return names


def _read_written(paths: list[str], size: int) -> np.ndarray:
    """The (count, size) realizations in files laid out as written, from one parse; any other file raises."""
    lines = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            text = fh.read().split("\n")
        if len(text) != size + 2 or text[-1]:
            raise ValueError(f"{path} is not a header and {size} lines")
        lines += text[1:-1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # blank or comment lines give no rows, refused below
        data = np.loadtxt(lines, delimiter=",", ndmin=2)
    if data.shape != (len(lines), 3):    # else each line gave its own row, as in the per-file parse
        raise ValueError("a line gave no row, or not three fields")
    return np.ascontiguousarray(data[:, 1:]).view(complex).reshape(len(paths), size)


def read_ensemble(dir_path: str) -> tuple[np.ndarray, DiscreteGrid, dict]:
    manifest_path = os.path.join(dir_path, "manifest.json")
    if not os.path.exists(manifest_path):
        raise InputFormatError(f"{dir_path}: no manifest.json found")
    manifest = load_json(manifest_path)
    _header(manifest, manifest_path, ("N", "files"))
    grid = _checked(manifest_path, lambda: DiscreteGrid(manifest["N"]))
    files = manifest["files"]
    if not isinstance(files, list) or not all(isinstance(name, str) for name in files):
        raise InputFormatError(f'{manifest_path}: field "files" must be a list of file names')
    if not files:
        raise InputFormatError(f"{dir_path}: ensemble holds no realizations")
    paths = [os.path.join(dir_path, name) for name in files]
    try:
        return _read_written(paths, grid.size), grid, manifest
    except (OSError, ValueError):    # a missing, undecodable or off-layout file: the per-file reader reads or names it
        return np.stack([read_realization_csv(path, grid) for path in paths]), grid, manifest


def run_record(
    command: str,
    input_sha256: str,
    wall_clock_ms: float,
    outputs: list[str],
    timings: dict | None = None,
) -> dict:
    """Provenance sidecar, the one non-reproducible file.

    It holds the timestamp and every wall-clock figure: the whole run's and,
    when given, the command's own timings (for approx, one per swept grid).
    """
    record = {
        "version": FORMAT_VERSION,
        "kind": "run",
        "artifact_version": ARTIFACT_VERSION,
        "command": command,
        "input_sha256": input_sha256,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "wall_clock_ms": wall_clock_ms,
        "outputs": outputs,
    }
    if timings:
        record["timings"] = timings
    return record
