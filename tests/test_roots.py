from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from smile_domain import NoRootError, fukasawa, oracle, ssvi, symmetric
from smile_domain.core import _u_grid, _u_root, _wing_terms
from smile_domain.roots import RTOL, brentq

SRC = Path(__file__).resolve().parents[1] / "src"


def _same_root(f, a, b, **kw):
    ours = brentq(f, a, b, **kw)
    assert type(ours) is float
    assert ours == scipy.optimize.brentq(f, a, b, **kw)
    return ours


def _grid_bracket(f, grid):
    vals = np.sign(f(grid))
    i = int(np.flatnonzero(vals[:-1] != vals[1:])[0])
    return grid[i], grid[i + 1]


# ---------------------------------------------------------------------------
# bit-identical to scipy.optimize.brentq
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("xtol", [2e-12, 1e-13, 1e-14, 1e-15])
@pytest.mark.parametrize("bracket", [(0.0, 3.0), (3.0, 0.0), (-10.0, 10.0)])
def test_matches_scipy_on_cubic(xtol, bracket):
    root = _same_root(lambda x: x**3 - 2.0 * x - 5.0, *bracket, xtol=xtol)
    assert root == pytest.approx(2.0945514815423265, abs=1e-11)


@pytest.mark.parametrize(
    "f", [lambda x: x, lambda x: x + x**3, math.sin, lambda x: math.atan(1e3 * x)]
)
def test_matches_scipy_on_root_at_zero(f):
    assert abs(_same_root(f, -1.0, 2.0, xtol=1e-15)) < 1e-15


def test_matches_scipy_where_steps_divide_by_zero():
    # with xtol at the smallest subnormal the tolerance rounds to 0 near the
    # root, so interpolation divides 0 by 0 and must fall back to bisection
    _same_root(lambda x: x**3, -1.0, 2.0, xtol=5e-324, maxiter=2000)


def _ssvi_u_end(rho):
    # l_bar_zero's far bracket end u = 1/l at x = max(x2, rho)
    x = max(ssvi.x_of_rho(rho), rho)
    return math.sqrt((1.0 - x) * (1.0 + x)) / x


@pytest.mark.parametrize("rho", [0.0, 0.2, 0.5, 0.8, 0.95])
def test_matches_scipy_on_ssvi_sweep_endpoint(rho):
    # l_bar_zero's whole bracket in u = 1/l, as l_bar_zero solves it
    def f(u):
        return ssvi._pq(u, rho)[3]

    u = _same_root(f, 0.0, _ssvi_u_end(rho), xtol=ssvi._UTOL)
    assert 1.0 / u == ssvi.l_bar_zero(rho)


@pytest.mark.parametrize("gamma", [-0.9, -0.3, 0.0, 0.5, 2.0])
def test_matches_scipy_on_symmetric_sextic(gamma):
    # z_star_zero's whole bracket, as z_star_zero solves it
    def f(z):
        return symmetric._p_num(z, gamma)

    z = _same_root(f, 1e-12, symmetric.z2(gamma) - 1e-12, xtol=1e-15)
    assert z == symmetric.z_star_zero(gamma)


@pytest.mark.parametrize(
    "gamma, b, rho",
    [(0.5, 1.0, 0.0), (0.2, 0.5, -0.4), (1.5, 1.2, 0.3), (0.05, 0.3, 0.7)],
)
def test_matches_scipy_on_fukasawa_level_curve(gamma, b, rho):
    def f(u):
        return fukasawa._level_at(_wing_terms(u), gamma, b, rho)

    lo, hi = _grid_bracket(f, _fukasawa_grid(rho))
    root = _same_root(f, lo, hi, xtol=1e-14 * lo * lo)
    assert -1.0 / root == fukasawa.solve_l_minus(gamma, b, rho)


def _fukasawa_grid(rho):
    # the wing grid, cut at the minimum u* for rho > 0, which ends the last bracket
    grid = _u_grid()[0]
    if rho <= 0.0:
        return grid
    end = math.sqrt((1.0 - rho) * (1.0 + rho)) / rho
    return np.append(grid[grid < end], end)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("rho", [0.0, 0.5, 0.95])
def test_grid_root_matches_scipy_on_the_ordered_pair(rho, reverse):
    # a 256-point grid over l_bar_zero's bracket in u = 1/l, scanned in
    # either order, has one sign change; the root on that pair, taken in the
    # scan's order, is scipy's, and l_bar_zero's one brentq on the whole
    # bracket lands on it
    def f(u):
        return ssvi._pq(u, rho)[3]

    grid = np.linspace(0.0, _ssvi_u_end(rho), 256)
    if reverse:
        grid = grid[::-1]
    signs = np.sign(f(grid))
    assert np.count_nonzero(signs[:-1] != signs[1:]) == 1
    a, b = _grid_bracket(f, grid)
    root = _same_root(f, a, b, xtol=ssvi._UTOL)
    assert min(a, b) < root < max(a, b)
    assert 1.0 / ssvi.l_bar_zero(rho) == pytest.approx(root, rel=2.0 * RTOL)


def test_grid_root_matches_scipy_on_a_descending_grid():
    # the wing grid scanned from its far end meets the one sign change that
    # core._u_root meets from u = 0, and solve_l_minus returns its root
    gamma, b, rho = 0.2, 0.5, -0.4

    def f(u):
        return fukasawa._level_at(_wing_terms(u), gamma, b, rho)

    grid = _fukasawa_grid(rho)
    hi, lo = _grid_bracket(f, grid[::-1])
    assert (lo, hi) == _grid_bracket(f, grid)
    root = _same_root(f, lo, hi, xtol=1e-14 * lo * lo)
    assert -1.0 / root == fukasawa.solve_l_minus(gamma, b, rho)


# ---------------------------------------------------------------------------
# error contract
# ---------------------------------------------------------------------------
def test_same_signs_raise_value_error():
    with pytest.raises(ValueError) as exc:
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    assert str(exc.value) == "f(a) and f(b) must have different signs"


def test_nan_objective_raises_value_error():
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 2.0)


@pytest.mark.parametrize("kw", [{"xtol": 0.0}, {"xtol": -1e-12}, {"rtol": RTOL / 2}])
def test_tolerances_out_of_range_raise_value_error(kw):
    with pytest.raises(ValueError, match="too small"):
        brentq(lambda x: x - 0.5, 0.0, 1.0, **kw)


def test_exhausted_iterations_raise_runtime_error():
    with pytest.raises(RuntimeError, match="after 3 iterations"):
        brentq(lambda x: x**3 - 2.0 * x - 5.0, 0.0, 3.0, maxiter=3)


def test_zero_at_an_endpoint_returns_it_without_iterating():
    calls = []

    def f(x):
        calls.append(x)
        return x - 1.0

    assert brentq(f, 1.0, 5.0) == 1.0
    assert brentq(f, -3.0, 1.0) == 1.0
    assert calls == [1.0, 5.0, -3.0, 1.0]


# ---------------------------------------------------------------------------
# the wing grid's scan plus brentq: core._u_root
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "vals, expected",
    [
        ([-2.0, -1.0, 1.0, -1.0], 1),
        ([3.0, 2.0, 1.0], None),
        ([-1.0, 0.0, 1.0], 0),
        ([0.0, 0.0], None),  # a zero value alone is no sign change
    ],
)
def test_first_sign_change(vals, expected):
    # _u_root solves on the first pair of neighbours whose signs differ; f is
    # piecewise linear in u = c/a through vals at the first grid points
    def f(t):
        return np.interp(t[1] / t[0], _u_grid()[0][: len(vals)], vals)

    if expected is None:
        with pytest.raises(NoRootError):
            _u_root(f, math.inf)
    else:
        lo, hi = float(_u_grid()[0][expected]), float(_u_grid()[0][expected + 1])
        root = brentq(lambda u: f(_wing_terms(u)), lo, hi, xtol=max(1e-14 * lo * lo, 1e-300))
        assert _u_root(f, math.inf) == root


def test_u_root_brackets_the_last_point_and_a_finite_end():
    # no sign change below the end: the bracket runs from the last grid
    # point below it to the end itself
    lo = float(_u_grid()[0][300])
    end = 0.5 * (lo + _u_grid()[0][301])
    root = 0.5 * (lo + end)

    def f(t):
        return t[1] / t[0] - root

    assert _u_root(f, end) == brentq(lambda u: f(_wing_terms(u)), lo, end, xtol=1e-14 * lo * lo)
    assert _u_root(f, end) == pytest.approx(root, rel=1e-14)


def test_u_root_evaluates_the_grid_once():
    arrays = []

    def f(t):
        if np.ndim(t[0]):
            arrays.append(len(t[0]))
        return np.cos(t[1] / t[0])

    assert _u_root(f, math.inf) == pytest.approx(math.pi / 2, rel=1e-15)
    assert arrays == [len(_u_grid()[0])]
    arrays.clear()
    end = float(_u_grid()[0][200])
    with pytest.raises(ValueError, match="different signs"):  # cos > 0 up to the end
        _u_root(f, end)
    assert arrays == [200]


def test_u_root_brackets_the_first_sign_change_of_any_values():
    # +-0, NaN, infinities and subnormals: the pair _u_root solves on is
    # the first one where np.diff(np.sign(values)) != 0
    rng = np.random.default_rng(7)
    pool = np.array([1.0, -1.0, 0.0, -0.0, 2.0, np.nan, np.inf, -np.inf, 1e-310])

    class Bracket(Exception):
        pass

    for _ in range(2000):
        vals = rng.choice(pool, rng.integers(0, 10))
        grid_vals = np.append(vals, np.full(len(_u_grid()[0]) - len(vals), vals[-1] if len(vals) else 1.0))

        def f(t):
            if np.ndim(t[0]):
                return grid_vals
            raise Bracket(t[1] / t[0])

        idx = np.flatnonzero(np.diff(np.sign(grid_vals)) != 0)
        if not idx.size:
            with pytest.raises(NoRootError):
                _u_root(f, math.inf)
            continue
        with pytest.raises(Bracket) as lo:
            _u_root(f, math.inf)
        assert lo.value.args[0] == _u_grid()[0][idx[0]]


# ---------------------------------------------------------------------------
# the oracle's supremum: brentq on the critical-point residual
# ---------------------------------------------------------------------------
def test_maximize_evaluations_on_the_oracle_objective(monkeypatch):
    # the oracle's right-wing search solves the critical-point residual
    # across a scan bracket of the requirement, one brentq per wing
    counts = []
    residual = oracle._critical_residual

    def counting(crit, b):
        counts[-1] += 1
        return residual(crit, b)

    monkeypatch.setattr(oracle, "_critical_residual", counting)
    for gamma, b, rho, mu in [(0.5, 1.0, 0.3, 0.1), (0.8, 1.0, 0.0, 0.4),
                              (0.2, 0.6, -0.5, -0.3)]:
        counts.append(0)
        arg, _ = oracle._wing_sup(gamma, b, rho, mu)
        assert math.isfinite(arg)
    assert 0 < min(counts) and max(counts) <= 12


# ---------------------------------------------------------------------------
# scipy stays off the import path
# ---------------------------------------------------------------------------
# a certificate, then the oracle's root, supremum and density-check paths
CLI_CALLS = [
    ["certify", "ssvi", "--theta", "0.1", "--phi", "1", "--rho", "-0.3"],
    ["bound", "symmetric", "--gamma", "0.3", "--b", "1.2", "--oracle", "--json"],
    ["certify", "ssvi", "--theta", "0.1", "--phi", "1", "--rho", "0.5", "--oracle"],
]


def test_cli_call_does_not_import_scipy():
    script = (
        "import contextlib, io, json, sys\n"
        "import smile_domain, smile_domain.cli\n"
        "out = []\n"
        f"for argv in {CLI_CALLS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = smile_domain.cli.main(argv)\n"
        "    scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "    out.append({'code': code, 'scipy': scipy})\n"
        "print(json.dumps(out))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert [r["code"] in (0, 1) for r in out] == [True] * len(CLI_CALLS)
    assert [r["scipy"] for r in out] == [[]] * len(CLI_CALLS)
