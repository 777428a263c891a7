"""One body per wing functional, for a point and for the wing grid.

``oracle._wing_f`` (the supremum's scan), ``fukasawa._level_at`` (the root
``l-``) and ``fukasawa._threshold_end_at`` (the decorrelated threshold) each
evaluate the wing grid and Brent's scalar steps.  On the grid's terms, a
``core._Grid``, their linear forms are products with the shape-free columns
of ``core._grid_cols`` and the rest runs in place; on plain terms, a point
or arrays, the linear forms are inline.  The brackets, and with them every
iterate and output, depend on the grid's values only through their sign
patterns and the argmax of ``f``.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from smile_domain import core, fukasawa, oracle
from smile_domain.core import EvaluationDomainError, NormalizedSvi, _u_grid, _wing_slack

SRC = Path(__file__).resolve().parents[1] / "src"
EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# a first-order bound on the rounding of an expression, in any order of
# summation: a body on the grid's columns and on plain terms both lie
# within it of the exact value, so within twice it of each other
# ---------------------------------------------------------------------------
class _Bound:
    """A value and a first-order bound, in units of eps, on its absolute
    rounding error; the wing terms and the shape's coefficients, the same
    floats on both routes, carry none."""

    def __init__(self, v, e=0.0):
        self.v, self.e = v, e


def _sum(*xs):
    v = sum(x.v for x in xs)
    return _Bound(v, sum(x.e for x in xs) + len(xs) * sum(np.abs(x.v) for x in xs))


def _mul(x, y):
    v = x.v * y.v
    return _Bound(v, np.abs(y.v) * x.e + np.abs(x.v) * y.e + np.abs(v))


def _div(x, y):
    v = x.v / y.v
    return _Bound(v, (x.e + np.abs(v) * y.e) / np.abs(y.v) + np.abs(v))


def _c(v):
    return _Bound(v)


def _two_d(t, gamma, p):
    a, c, e = (_c(x) for x in t[:3])
    return _mul(_c(2.0), _sum(_mul(_c(gamma), c), _mul(_c(p), a), e))


def _wing_bound(t, gamma, b, rho, mu, w):
    """The bounds of _wing_f's (g2/c, f)."""
    a, c, _, es, q, qr, eqr, c2s3 = (_c(x) for x in t)
    p = 1.0 + rho
    two_d, n1 = _two_d(t, gamma, p), _sum(_c(p), _mul(_c(-1.0), es))
    g2c = _sum(c2s3, _mul(_c(-1.0), _div(_mul(n1, n1), two_d)))
    y0, y1, y2, y3, y4 = (_c(x) for x in core._wing_coefs(gamma, b, rho, mu, w))
    y = _sum(y0, _mul(y1, q), _mul(y2, qr), _mul(y3, es), _mul(y4, eqr))
    hm = _div(_sum(_mul(_c(p * w), a), _mul(c, y)), two_d)
    hp = _sum(hm, _mul(_c(b / 2.0), n1))
    if w:
        return g2c, _div(_mul(_mul(_c(-b / 2.0), c), g2c), _mul(hm, hp))
    return g2c, _div(_mul(_c(-b / 2.0), g2c), _mul(_div(y, two_d), hp))


def _level_bound(t, gamma, b, rho):
    """The bound of _level_at."""
    es, c2s3 = _c(t[3]), _c(t[7])
    p = 1.0 - rho
    two_d, n1 = _two_d(t, gamma, p), _sum(_c(p), _mul(_c(-1.0), es))
    tail = _sum(_c(2.0 - b * p), _mul(_c(b), es))
    return _sum(_div(_mul(_mul(n1, n1), tail), _c(4.0)),
                _mul(_c(-1.0), _div(_mul(c2s3, two_d), _c(2.0))))


def _threshold_bound(t, b):
    """The bound of _threshold_end_at, with 2 - b*n1 bounded in both of the
    forms 2 - b*(1 - e/s) and 2 - b + b*e/s."""
    a, es, c2s3 = _c(t[0]), _c(t[3]), _c(t[7])
    n1 = _sum(_c(1.0), _mul(_c(-1.0), es))
    bn1 = _mul(_c(b), n1)
    slack = _sum(_c(2.0), _mul(_c(-1.0), bn1))
    slack.e = slack.e + _sum(_c(2.0 - b), _mul(_c(b), es)).e
    tail = _div(_sum(bn1, _c(-4.0)), _c(8.0))
    return _sum(_mul(_mul(n1, slack), tail), _mul(a, c2s3))


def _assert_within(col, ref, bound, what):
    # within twice the bound (and a factor 2 for its first-order terms), and
    # the same sign at every point, which is all that a bracket reads
    with np.errstate(invalid="ignore"):
        bad = np.flatnonzero(~(np.abs(col - ref) <= 4.0 * EPS * bound.e) & (col != ref))
    assert not bad.size, (what, bad[:5], col[bad[:5]], ref[bad[:5]], bound.e[bad[:5]])
    assert np.array_equal(np.sign(col), np.sign(ref), equal_nan=True), what


def _shapes():
    """(gamma, b, rho, mu): interior draws, then the slope bound (w = 0), a
    flat wing (|rho| = 1), b -> 0 and gamma from 1e3 to 1e12."""
    rng = np.random.default_rng(31)
    for _ in range(60):
        rho = rng.uniform(-0.99, 0.99)
        floor = -math.sqrt((1.0 - rho) * (1.0 + rho))
        gamma = rng.uniform(floor + 1e-3, 3.0)
        yield gamma, rng.uniform(0.01, 0.99) * 2.0 / (1.0 + abs(rho)), rho, rng.uniform(-1.0, 1.0)
    for rho in (-0.9, -0.3, 0.0, 0.5, 0.99):
        yield 0.5, 2.0 / (1.0 + abs(rho)), rho, 0.1
    for rho in (1.0, -1.0):
        yield 0.3, 0.5, rho, -0.2
        yield 2.0, 1.0, rho, 1.0
    for b in (1e-6, 1e-10, 1e-14):
        yield 0.4, b, 0.3, 0.0
        yield -0.5, b, -0.6, 0.2
    for gamma in (1e3, 1e6, 1e9, 1e12):
        yield gamma, 0.8, -0.4, 0.0
        yield gamma, 1.0, 0.6, 0.3 * gamma


SHAPES = list(_shapes())


# ---------------------------------------------------------------------------
# (a) each body on the grid's columns is the body on plain terms
# ---------------------------------------------------------------------------
def _plain(terms):
    """The same terms as a plain tuple: the bodies take them inline."""
    return tuple(terms)


@pytest.mark.parametrize("gamma, b, rho, mu", SHAPES)
def test_wing_scan_is_the_scalar_body_on_every_point(gamma, b, rho, mu):
    terms = _u_grid()[1]
    w = _wing_slack(b, rho)
    if 1.0 + rho == 0.0:  # the flat wing: N*c = 0 at u = 0, on both routes
        for t in (terms, _plain(terms)):
            with pytest.raises(EvaluationDomainError):
                oracle._wing_f(t, gamma, b, rho, mu, w)
        return
    with np.errstate(divide="ignore", invalid="ignore"):
        bounds = _wing_bound(terms, gamma, b, rho, mu, w)
    for col, ref, bound, what in zip(oracle._wing_f(terms, gamma, b, rho, mu, w),
                                     oracle._wing_f(_plain(terms), gamma, b, rho, mu, w), bounds,
                                     ("g2/c", "f")):
        _assert_within(col, ref, bound, what)


@pytest.mark.parametrize("gamma, b, rho, mu", SHAPES)
def test_level_scan_is_the_scalar_body_on_every_point(gamma, b, rho, mu):
    if rho >= 1.0:  # solve_l_minus has no wing below the minimum
        return
    end = math.sqrt((1.0 - rho) * (1.0 + rho)) / rho if rho > 0.0 else math.inf
    n = int(np.searchsorted(_u_grid()[0], end))  # the points solve_l_minus reads
    terms = _u_grid()[1]
    t = _plain(x[:n] for x in terms)
    _assert_within(fukasawa._level_at(terms, gamma, b, rho)[:n], fukasawa._level_at(t, gamma, b, rho),
                   _level_bound(t, gamma, b, rho), "level")


@pytest.mark.parametrize("b", [1e-14, 1e-6, 0.01, 0.5, 1.0, 1.5, 1.99, 2.0 - 1e-6, 2.0 - 1e-10,
                               2.0 - 1e-14])
def test_threshold_scan_is_the_scalar_body_on_every_point(b):
    terms = _u_grid()[1]
    _assert_within(fukasawa._threshold_end_at(terms, b), fukasawa._threshold_end_at(_plain(terms), b),
                   _threshold_bound(terms, b), "threshold")


def test_u_root_hands_f_the_whole_grid_and_reads_it_below_the_end():
    # f gets the grid's own _Grid, columns and all, for any end; past a
    # finite end its values are not read: cos(u) changes sign at u = pi/2,
    # past grid[300], so the bracket is [grid[299], end]
    grid, terms, _ = _u_grid()
    seen = []

    def f(t):
        if np.ndim(t[0]):
            seen.append(t)
        return np.cos(t[1] / t[0])

    core._u_root(f, math.inf)
    with pytest.raises(ValueError, match="different signs"):  # cos > 0 up to the end
        core._u_root(f, float(grid[300]))
    assert len(seen) == 2 and seen[0] is terms and seen[1] is terms


# ---------------------------------------------------------------------------
# (b) the columns: read-only, built once, on first use
# ---------------------------------------------------------------------------
def test_wing_grid_columns_are_read_only_constants():
    grid, terms, cols = _u_grid()
    assert _u_grid()[2] is cols
    a, c, e, es, q, qr, eqr, c2s3 = terms
    expected = (np.stack([c, a, e]), np.stack([a, c, c * q, c * qr, c * es, c * eqr]),
                np.stack([np.ones_like(a), q, qr, es, eqr]), c * c2s3)
    assert len(cols) == len(expected)
    for col, want in zip(cols, expected):
        assert np.array_equal(col, want)
        assert col.shape[-1] == len(grid)
        assert not col.flags.writeable
    # the density grid's columns come from the same builder
    half_terms = oracle._density_grid()[1]
    d_cols, m_cols, _, cc2s3 = core._grid_cols(half_terms)
    for got, want in zip(oracle._density_grid()[2:], (d_cols, m_cols, cc2s3)):
        assert np.array_equal(got, want)
        assert not got.flags.writeable


def test_importing_the_oracle_builds_no_grid():
    code = ("import sys, smile_domain.oracle as o, smile_domain.core as c\n"
            "print(c._u_grid.cache_info().currsize, o._density_grid.cache_info().currsize,"
            " 'numpy' in sys.modules)")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.split() == ["0", "0", "False"]


# ---------------------------------------------------------------------------
# (c) once the grids exist, a body computes no terms and no column
# ---------------------------------------------------------------------------
def test_scans_compute_no_array_terms_once_the_grids_exist(monkeypatch):
    def calls():
        out = []
        for gamma, b, rho, mu in ((0.5, 0.8, 0.3, -0.1), (0.3, 1.0, 1.0, -0.5), (0.5, 1.0, 0.0, 0.2),
                                  (0.2, 0.6, -0.7, 0.3), (1e6, 0.8, -0.4, 0.0)):
            out.append(oracle.sigma_star(gamma, b, rho, mu))
            out.append(fukasawa.mu_interval(gamma, b, rho))
            out.append(oracle.durrleman_check(NormalizedSvi(gamma, b, rho, mu, 0.7).to_raw()))
        out.append(fukasawa.fukasawa_threshold(1.2, 0.0))
        out.append(fukasawa.fukasawa_threshold(0.9, -0.6))
        return out

    expected = calls()

    def scalar_only(fn):
        def wrapped(u):
            if np.ndim(u):
                raise AssertionError("_wing_terms evaluated on an array")
            return fn(u)
        return wrapped

    for module in (core, oracle, fukasawa):
        monkeypatch.setattr(module, "_wing_terms", scalar_only(module._wing_terms))

    def refuse(*args, **kwargs):
        raise AssertionError("grid terms or columns recomputed")

    monkeypatch.setattr(np, "hypot", refuse)
    monkeypatch.setattr(np, "stack", refuse)
    monkeypatch.setattr(core, "_grid_cols", refuse)
    monkeypatch.setattr(oracle, "_grid_cols", refuse)
    assert calls() == expected
