"""Problem files, result records, and CSV emission.

JSON carries structured inputs and outputs, CSV carries array and plot data.
Numbers are serialized with 17 significant digits so every round trip is
lossless, and the writer emits keys in insertion order with fixed layout, so
rerunning a command on identical input produces byte-identical files.  A CSV
table is formatted in one %-format over its columns: %d for integer columns,
%.17g for the rest, each float column checked for finiteness once.

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
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain

import numpy as np

from .circulant import SymmetricPseudoPolynomial, eval_symbol
from .dual import SolverOptions
from .grid import DiscreteGrid, SpectrumSamples
from .moments import CepstralSequence, CovarianceSequence

FORMAT_VERSION = 1
ARTIFACT_VERSION = "0.1.0"

PROBLEM_KEYS = {"version", "N", "c", "m", "p", "options", "lambda"}
APPROX_KEYS = {"version", "c", "p", "n_max", "grid_sizes", "reference_N"}
OPTION_KEYS = {"grad_tol", "max_iter", "boundary_floor", "backtrack_ratio"}


class InputFormatError(ValueError):
    """A problem or model file violates the documented schema."""


def format_float(x: float) -> str:
    """17 significant digits of a finite float; nan and inf have no JSON form."""
    if not math.isfinite(x):
        raise ValueError(f"refusing to write the non-finite number {x}")
    return f"{float(x):.17g}"


def _emit(obj, indent: int = 0) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(key))}: {_emit(value, indent + 2)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(not isinstance(x, (dict, list, tuple, np.ndarray)) for x in seq)
        if flat and len(seq) <= 4:
            return "[" + ", ".join(_emit(x) for x in seq) + "]"
        items = [f"{inner}{_emit(x, indent + 2)}" for x in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj: dict, path: str) -> None:
    text = _emit(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


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


def complex_pairs(values: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex)]


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
    tail = p.coeffs[1:]
    return [float(p.coeffs[0].real)] + np.column_stack([tail.real, tail.imag]).ravel().tolist()


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


def _grid(data: dict, source: str) -> DiscreteGrid:
    return _checked(source, lambda: DiscreteGrid(data["N"]))


def problem_from_dict(data: dict, source: str = "problem") -> ProblemSpec:
    warnings = _header(data, source, ("N", "c"), PROBLEM_KEYS)
    grid = _grid(data, source)
    c = _checked(source, lambda: CovarianceSequence(parse_complex_list(data["c"], "c")))

    m = None
    if "m" in data:
        m = _checked(source, lambda: CepstralSequence(parse_complex_list(data["m"], "m")))

    p = symbol_from_json(data["p"], "p") if "p" in data else None

    opts_kwargs = {}
    raw_opts = data.get("options", {})
    if not isinstance(raw_opts, dict):
        raise InputFormatError(f'{source}: field "options" must be an object')
    for key, value in raw_opts.items():
        if key not in OPTION_KEYS:
            warnings.append(f'{source}: ignoring unknown option "{key}"')
            continue
        if not _is_number(value):
            raise InputFormatError(f'{source}: option "{key}" must be a number')
        opts_kwargs[key] = int(value) if key == "max_iter" else float(value)
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
    return _grid(data, path), symbol_from_json(data["p"], "p"), symbol_from_json(data["q"], "q")


def model_spectrum(grid, p, q) -> SpectrumSamples:
    """Node samples of P/Q with positivity checks on both symbols."""
    pv = eval_symbol(p, grid).real_values()
    qv = eval_symbol(q, grid).real_values()
    if pv.min() < 0.0:
        j = grid.indices[np.argmin(pv)]
        raise InputFormatError(f"model numerator is negative at node j={j}")
    if qv.min() <= 0.0:
        j = grid.indices[np.argmin(qv)]
        raise InputFormatError(f"model denominator is not positive at node j={j}")
    return SpectrumSamples(grid, pv / qv)


def write_csv(path: str, header: str, rows) -> None:
    _write_table(path, header, zip(*rows))


def _write_table(path: str, header: str, columns) -> None:
    """Write columns under header with one %-format over the whole table."""
    formats, values = [], []
    for column in columns:
        arr = np.asarray(column)
        if arr.dtype.kind not in "iu":
            arr = np.asarray(arr, dtype=float)
            bad = arr[~np.isfinite(arr)]
            if bad.size:
                format_float(bad[0])    # raises the non-finite refusal
        formats.append("%d" if arr.dtype.kind in "iu" else "%.17g")
        values.append(arr.tolist())
    body = (",".join(formats) + "\n") * (len(values[0]) if values else 0)
    text = header + "\n" + body % tuple(chain.from_iterable(zip(*values)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_spectrum_csv(path: str, phi: SpectrumSamples) -> None:
    _write_table(path, "theta,phi", [phi.grid.angles, phi.real_values()])


def write_extended_csv(path: str, extended_c: np.ndarray) -> None:
    z = np.asarray(extended_c, dtype=complex)
    _write_table(path, "k,re,im", [np.arange(z.size), z.real, z.imag])


def write_realization_csv(path: str, y: np.ndarray) -> None:
    z = np.asarray(y, dtype=complex)
    _write_table(path, "t,re,im", [np.arange(z.size), z.real, z.imag])


def read_realization_csv(path: str, grid: DiscreteGrid) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        data = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 3 or data.shape[0] != grid.size:
        raise InputFormatError(f"{path}: expected {grid.size} rows of t,re,im")
    return data[:, 1] + 1j * data[:, 2]


def write_ensemble(out_dir: str, realizations: np.ndarray, grid, seed, model_hash, real_valued) -> list[str]:
    """Write one CSV per realization plus a manifest; returns the file names."""
    names = [f"realization_{r:04d}.csv" for r in range(realizations.shape[0])]
    for name, row in zip(names, realizations):
        write_realization_csv(os.path.join(out_dir, name), row)
    manifest = {
        "version": FORMAT_VERSION,
        "kind": "ensemble",
        "N": grid.N,
        "count": int(realizations.shape[0]),
        "seed": seed,
        "real_valued": bool(real_valued),
        "model_sha256": model_hash,
        "files": names,
    }
    dump_json(manifest, os.path.join(out_dir, "manifest.json"))
    return names


def read_ensemble(dir_path: str) -> tuple[np.ndarray, DiscreteGrid, dict]:
    manifest_path = os.path.join(dir_path, "manifest.json")
    if not os.path.exists(manifest_path):
        raise InputFormatError(f"{dir_path}: no manifest.json found")
    manifest = load_json(manifest_path)
    _header(manifest, manifest_path, ("N", "files"))
    grid = _grid(manifest, manifest_path)
    files = manifest["files"]
    if not isinstance(files, list) or not all(isinstance(name, str) for name in files):
        raise InputFormatError(f'{manifest_path}: field "files" must be a list of file names')
    rows = [read_realization_csv(os.path.join(dir_path, name), grid) for name in files]
    if not rows:
        raise InputFormatError(f"{dir_path}: ensemble holds no realizations")
    return np.stack(rows), grid, manifest


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
