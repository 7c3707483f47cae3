"""Shared helpers for the test suite.

Everything random is seeded through numpy's Generator so runs are
reproducible; oracles here are written independently of the library
internals (explicit loops, no shared kernels).
"""

import cmath
import json
import os

import numpy as np
import pytest

from circext import (
    CovarianceSequence,
    DiscreteGrid,
    SpectrumSamples,
    SymmetricPseudoPolynomial,
    covariance_moments,
    toeplitz_matrix,
)


def make_rng(seed):
    return np.random.default_rng(seed)


def symbol_values(coeffs, N):
    """Q(zeta_j) = q_0 + 2 Re sum_k q_k zeta_j^{-k} by an explicit sum."""
    theta = np.pi * np.arange(-N + 1, N + 1) / N
    values = np.full(2 * N, coeffs[0].real)
    for k in range(1, len(coeffs)):
        values += 2.0 * (coeffs[k] * np.exp(-1j * k * theta)).real
    return values


def assert_vertex(dual, N):
    """The dual symbol of an optimal basis: >= -1e-12 on the grid and zero, to
    1e-9 of its largest value, at the 2n nodes of the basic columns at least."""
    values = symbol_values(dual.coeffs, N)
    assert values.min() >= -1e-12
    assert np.count_nonzero(np.abs(values) <= 1e-9 * values.max()) >= 2 * dual.degree


def assert_margin_sandwich(c, margin, N):
    """A certificate's margin on the 2N-grid against lambda_min of T_n(c), the N = infinity margin.

    A grid measure is a measure on the circle, so margin <= lambda_min.  With
    k = n^2 pi^2 / 8N^2 and k(n+1) < 1, a degree-n Q with q_0 = 1 that is >= 0
    at the nodes dips at most kappa = k(n+1) / (1 - k(n+1)) below zero between
    them (Bernstein's inequality), so the margin, the least such <C,Q>, is at
    least lambda_min - kappa (c_0 - lambda_min).  Both sides allow 1e-12 c_0.
    """
    c0, lam = c.c[0].real, float(np.linalg.eigvalsh(toeplitz_matrix(c))[0])
    assert margin <= lam + 1e-12 * c0, (margin, lam)
    spill = (c.n * np.pi / N) ** 2 / 8.0 * (c.n + 1)    # k(n+1)
    if spill < 1.0:
        kappa = spill / (1.0 - spill)
        assert margin >= lam - kappa * (c0 - lam) - 1e-12 * c0, (margin, lam, kappa)


def random_hermitian_tail(rng, n, scale=1.0):
    """n complex coefficients with decaying magnitudes."""
    decay = scale / (1.0 + np.arange(n))
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * decay


def random_positive_symbol(rng, n, grid, floor=0.2):
    """A degree-n symbol strictly positive at every node of grid.

    The trigonometric tail is drawn at random and the constant term is
    raised until the minimum node value equals floor times the mean.
    """
    tail = random_hermitian_tail(rng, n)
    angles = grid.angles
    trig = np.zeros(grid.size)
    for k in range(1, n + 1):
        trig += 2.0 * (tail[k - 1] * np.exp(-1j * k * angles)).real
    p0 = float(floor - trig.min() + rng.random())
    return SymmetricPseudoPolynomial(np.concatenate(([p0], tail)))


def random_feasible_covariances(rng, n, grid, low=0.2, high=2.0):
    """Covariances of a strictly positive random spectrum on grid.

    Feasible by construction: the drawn node values are an interior
    witness for the cone at this grid size.
    """
    values = low + (high - low) * rng.random(grid.size)
    return covariance_moments(SpectrumSamples(grid, values), n)


def line_lags(rng, n):
    """A spectral line plus 1-10% white noise: close to the boundary of the cone."""
    eps = rng.uniform(0.01, 0.1)
    c = (1.0 - eps) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi) * np.arange(n + 1))
    c[0] = 1.0
    return c


def model_lags(zeros, poles, n, N):
    """Lags 0 ... n of |a|^2 / |b|^2 for the given roots, from its 2N node values."""
    zeta = np.exp(1j * np.pi * np.arange(-N + 1, N + 1) / N)

    def power(roots):
        return np.abs(np.prod(1.0 - np.asarray(roots, dtype=complex)[:, None] * zeta, axis=0)) ** 2

    phi = power(zeros) / power(poles)
    return np.array([np.mean(phi * zeta**k) for k in range(n + 1)])


def arma_lags(rng, n, N, real):
    """Lags 0 ... n of |a|^2 / |b|^2 on the grid, zeros within 0.5 and poles within 0.7."""

    def roots(radius):
        if real:
            pairs = rng.uniform(0.2, radius, n // 2) * np.exp(1j * rng.uniform(0.1, 3.0, n // 2))
            return np.concatenate((pairs, np.conj(pairs), rng.uniform(-radius, radius, n % 2)))
        return rng.uniform(0.2, radius, n) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))

    return model_lags(roots(0.5), roots(0.7), n, N)


def dft_loop(grid, coefficients):
    """O(N^2) transform oracle: G_j = sum_k g_k zeta_j^{-k}, explicit loops."""
    size = grid.size
    out = np.zeros(size, dtype=complex)
    for pos_j in range(size):
        j = pos_j - (grid.N - 1)
        total = 0.0 + 0.0j
        for pos_k in range(size):
            k = pos_k - (grid.N - 1)
            total += coefficients[pos_k] * cmath.exp(-1j * cmath.pi * j * k / grid.N)
        out[pos_j] = total
    return out


def central_difference(f, x, h=1e-6):
    """Central finite-difference derivative of f at a real vector x, one last-axis entry per coordinate.

    A scalar f gives its gradient; a vector f gives its Jacobian, row i the derivative of f_i.
    """
    x = np.asarray(x, dtype=float)
    return np.stack([(f(x + step) - f(x - step)) / (2.0 * h) for step in h * np.eye(x.size)], axis=-1)


def outcome_fields(entry):
    """The exit and error fields of a record entry, or of each entry of a list."""
    if isinstance(entry, list):
        return [outcome_fields(e) for e in entry]
    return {key: entry[key] for key in ("exit", "error") if key in entry}


def rewrite_record(path, record, indent):
    """Write record to path as sorted JSON; print the labels whose value differs from the file on disk.

    A label only in the new record prints as (new), one only on disk as (gone).  A
    label on both says whether its exit and error fields changed, and how.
    """
    old = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            old = json.load(fh)
    moved = sorted(label for label in record.keys() | old.keys() if record.get(label) != old.get(label))
    print(f"{os.path.basename(path)}: {len(moved)} of {len(record)} entries moved")
    for label in moved:
        if label not in old:
            note = f" (new): exit/error {outcome_fields(record[label])}"
        elif label not in record:
            note = f" (gone): exit/error {outcome_fields(old[label])}"
        else:
            before, after = outcome_fields(old[label]), outcome_fields(record[label])
            note = f": exit/error {before} -> {after}" if before != after else f": exit/error unchanged {after}"
        print(f"  {label}{note}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=indent, sort_keys=True)
        fh.write("\n")


def symbol_norm(p):
    return float(np.max(np.abs(p.coeffs)))


def symbol_distance(a, b):
    """max |a_k - b_k| over the union of coefficient windows."""
    n = max(a.degree, b.degree)
    ca = np.zeros(n + 1, dtype=complex)
    cb = np.zeros(n + 1, dtype=complex)
    ca[: a.degree + 1] = a.coeffs
    cb[: b.degree + 1] = b.coeffs
    return float(np.max(np.abs(ca - cb)))


@pytest.fixture
def rng():
    return make_rng(20260822)
