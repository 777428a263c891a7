from __future__ import annotations

import math

import numpy as np
import pytest

from smile_domain import (
    EvaluationDomainError,
    FukasawaInterval,
    InvalidParamsError,
    NoRootError,
    fukasawa_threshold,
    l_minus_curve,
    mu_interval,
    mu_lower_curve,
    sigma_star,
    solve_l_minus,
)
from smile_domain import fukasawa
from smile_domain.core import _u_grid, _u_root, _wing_n_at, _wing_terms
from smile_domain.roots import RTOL
from smile_domain.symmetric import fukasawa_threshold_closed
from smile_domain.vanishing import fukasawa_bound
from test_overlaps import _mp_lower_end


def test_curve_exact_point():
    # rho=0, b=0, l=-1: (0+(-1))^2 * (sqrt2/2) - sqrt2 = -sqrt2/2
    assert l_minus_curve(-1.0, 0.0, 0.0) == pytest.approx(
        -math.sqrt(2.0) / 2.0, rel=1e-15
    )


def test_curve_even_in_rho_at_zero():
    ls = np.linspace(-8.0, -0.1, 40)
    np.testing.assert_allclose(
        l_minus_curve(ls, 0.7, 0.0), l_minus_curve(ls, 0.7, -0.0), rtol=0
    )


@pytest.mark.parametrize("b", [0.3, 0.8, 1.3, 1.9])
def test_curve_hits_symmetric_threshold(b):
    # the decorrelated threshold is the curve value at -6b/sqrt(b^4-20b^2+64)
    l = -6.0 * b / math.sqrt(b**4 - 20.0 * b * b + 64.0)
    assert l_minus_curve(l, b, 0.0) == pytest.approx(
        fukasawa_threshold_closed(b), rel=1e-12
    )


def test_solve_l_minus_residual_and_location():
    for gamma, b, rho in [(0.0, 0.5, 0.3), (1.2, 1.0, -0.4), (-0.3, 0.7, 0.0)]:
        l = solve_l_minus(gamma, b, rho)
        assert abs(l_minus_curve(l, b, rho) - gamma) <= 1e-12
        assert l < -rho / math.sqrt(1 - rho * rho)


def test_solve_l_minus_matches_dense_scan():
    # b -> 0, rho = 0, gamma = 0
    l = solve_l_minus(0.0, 0.0, 0.0)
    grid = np.linspace(-50.0, -1e-6, 2_000_001)
    vals = l_minus_curve(grid, 0.0, 0.0)
    i = int(np.flatnonzero(np.diff(np.sign(vals)))[0])
    assert grid[i] <= l <= grid[i + 1] or grid[i + 1] >= l >= grid[i]
    assert l == pytest.approx(grid[i], abs=5e-5)


def test_solve_l_minus_degenerate():
    with pytest.raises(NoRootError) as err:
        solve_l_minus(1.0, 2.0, 0.0)
    assert err.value.degenerate_case == "b2_rho0"
    with pytest.raises(NoRootError) as err:
        solve_l_minus(1.0, 2.0 / (1.0 - 0.4), 0.4)
    assert err.value.degenerate_case == "b_one_minus_rho_eq_2"


def test_mu_lower_curve_exact_point():
    # b=0, l=-1, gamma=0, rho=0: 2*sqrt2*(-sqrt2) + 1 = -3
    assert mu_lower_curve(-1.0, 0.0, 0.0, 0.0) == pytest.approx(-3.0, rel=1e-14)


def test_mu_lower_curve_undefined_at_minimum():
    with pytest.raises(EvaluationDomainError):
        mu_lower_curve(0.0, 0.5, 1.0, 0.0)


@pytest.mark.parametrize(
    "l", [np.array([0.0]), np.array([-2.0, 0.0, -5.0]), np.array([math.nan, 0.0])],
    ids=["one", "among_valid", "after_nan"],
)
def test_mu_lower_curve_undefined_at_minimum_in_an_array(l):
    # N'(0) = 0 at rho = 0; a NaN next to it must not hide it
    with pytest.raises(EvaluationDomainError, match="N'"):
        mu_lower_curve(l, 0.5, 1.0, 0.0)


def test_mu_lower_curve_passes_empty_input():
    out = mu_lower_curve(np.array([]), 0.5, 1.0, 0.0)
    assert isinstance(out, np.ndarray) and out.shape == (0,)


def test_mu_lower_nonpositive_at_root_for_nonnegative_gamma():
    for gamma, b, rho in [(0.0, 0.5, 0.2), (1.0, 1.2, -0.3), (0.4, 0.9, 0.6)]:
        l = solve_l_minus(gamma, b, rho)
        assert mu_lower_curve(l, gamma, b, rho) <= 1e-12


def test_vanishing_bound_via_mirrored_curve():
    # gamma=0, rho=1 smiles: upper mu bound -L(l-(0,b,-1)) equals sqrt(3(1-b))
    for b in np.linspace(0.005, 0.995, 199).tolist():
        l = solve_l_minus(0.0, b, -1.0)
        upper = -mu_lower_curve(l, 0.0, b, -1.0)
        assert abs(upper - math.sqrt(3.0 * (1.0 - b))) <= 1e-12
        # mu_interval reads the same bound, one-sided, and mirrors it at rho = -1
        up = mu_interval(0.0, b, 1.0)
        assert up.lower == -math.inf
        assert abs(up.upper - math.sqrt(3.0 * (1.0 - b))) <= 1e-12
        down = mu_interval(0.0, b, -1.0)
        assert (down.lower, down.upper) == (-up.upper, math.inf)


@pytest.mark.parametrize("gamma", [0.0, 0.3, 5.0])
def test_solve_l_minus_budget_at_rho_minus_one(monkeypatch, gamma):
    # the grid's terms are built once, so Brent's method alone evaluates the
    # chart's level curve on scalars, and polishes a short bracket
    scalar_calls = []

    def counted(t, level, rho):
        if np.ndim(t[0]) == 0:
            scalar_calls.append(t[0])
        return _wing_n_at(t, level, rho)

    monkeypatch.setattr(fukasawa, "_wing_n_at", counted)
    for b in np.linspace(0.01, 0.99, 99).tolist():
        scalar_calls.clear()
        l = solve_l_minus(gamma, b, -1.0)
        assert abs(l_minus_curve(l, b, -1.0) - gamma) <= 1e-12 * max(1.0, gamma)
        assert 0 < len(scalar_calls) <= 12


def test_chart_solves_build_no_grid(monkeypatch):
    # the wing grid's terms are built once, on first use: a solve computes
    # no array of terms, and Brent's scalar steps take math.hypot
    def refuse(*args, **kwargs):
        raise AssertionError("array built per call")

    solve_l_minus(0.3, 0.8, 0.0)
    monkeypatch.setattr(np, "hypot", refuse)
    monkeypatch.setattr(np, "geomspace", refuse)
    for rho in (-0.5, 0.0, 0.5):
        assert solve_l_minus(0.3, 0.8, rho) < 0.0
    assert -1.0 < fukasawa_threshold(1.2, 0.0) < 0.0


@pytest.mark.parametrize("rho", [-1.0, -1.0 + 1e-14, -0.5, -1e-3, 0.0, 0.5, 1.0 - 1e-14])
def test_scan_grid_starts_below_the_level(rho):
    # the chart's level curve is positive at u = 0, l = -inf, and negative at
    # the grid's inner end, l = -1e-6, or for rho > 0 at the minimum u*; so
    # the grid's first sign change, or else [last point, u*], brackets l-
    floor = -math.sqrt(max(0.0, (1.0 - rho) * (1.0 + rho)))
    end = -floor / rho if rho > 0.0 else float(_u_grid()[0][-1])
    first, last = _wing_terms(0.0), _wing_terms(end)
    for frac in (0.0, 0.5, 0.999):
        b = frac * 2.0 / (1.0 + abs(rho))
        for gamma in floor + np.geomspace(1e-12, 50.0, 40):
            assert fukasawa._level_at(first, gamma, b, rho) > 0.0
            assert fukasawa._level_at(last, gamma, b, rho) < 0.0


_UNIT_RHO = [(0.3, 0.5, 1.0 - 1e-14), (2.0, 0.5, 1.0 - 1e-12), (0.3, 0.5, -1.0 + 1e-14),
             (2.0, 0.01, 1.0 - 1e-12), (2.0, 0.99, 1.0 - 1e-12)]


@pytest.mark.parametrize("gamma, b, rho", _UNIT_RHO)
def test_interval_with_a_root_beyond_the_scan_grid(gamma, b, rho):
    # within about 1e-12 of |rho| = 1 the root l- of the solve at rho (or at
    # -rho, for the mirrored upper end) lies past a fixed l-grid of 1e8
    iv = mu_interval(gamma, b, rho)
    assert math.isfinite(iv.lower) and math.isfinite(iv.upper)
    assert iv.lower < iv.upper
    r = abs(rho)
    l = solve_l_minus(gamma, b, r)
    tol = 1e-14 + RTOL * abs(l)
    assert l_minus_curve(l - tol, b, r) - gamma >= 0.0 >= l_minus_curve(l + tol, b, r) - gamma
    assert abs(l_minus_curve(l, b, r) - gamma) <= 1e-12 * max(1.0, gamma)
    end = _mp_lower_end(gamma, b, r)
    assert (iv.lower if rho > 0.0 else -iv.upper) == pytest.approx(end, rel=1e-14, abs=0.0)


def _mp_level_root(gamma, b, rho, l):
    """Root of l_minus_curve = gamma in mpmath (50 digits), in its algebraic
    form, from l; and the level's residual at l itself."""
    from mpmath import findroot, mp, mpf, sqrt as msqrt

    with mp.workdps(50):
        g, bb, r = mpf(gamma), mpf(b), mpf(rho)

        def f(x):
            s = msqrt(x * x + 1)
            return (r * s + x) ** 2 * (s * (0.5 + bb * r / 4) + bb * x / 4) - (r * x + s) - g

        return float(findroot(f, mpf(l))), float(f(mpf(l)))


def test_solve_l_minus_matches_an_mpmath_root():
    # the roots in u = -1/l against 50 digits, up to 0.999 of the slope bound
    # (within 7e-14 relative on this sweep); within 1e-9 of the floor the
    # curve is flat and only the residual is judged (at most 5.6e-12)
    cases = [(g, b, abs(rho)) for g, b, rho in _UNIT_RHO]
    for rho in [s * r for r in np.linspace(0.005, 0.995, 12).tolist() for s in (1.0, -1.0)] + [
        1.0 - 1e-10, -0.99
    ]:
        floor = -math.sqrt((1.0 - rho) * (1.0 + rho))
        for frac in (0.01, 0.3, 0.999):
            b = frac * 2.0 / (1.0 + abs(rho))
            cases += [(g, b, rho) for g in (floor + 1e-9, floor / 2.0, 0.0, 0.3, 2.0)]
    for gamma, b, rho in cases:
        l = solve_l_minus(gamma, b, rho)
        ref, residual = _mp_level_root(gamma, b, rho, l)
        if gamma - 1e-9 <= -math.sqrt((1.0 - rho) * (1.0 + rho)):
            assert abs(residual) <= 1e-11
        else:
            assert abs(l - ref) <= 1e-13 * abs(ref)


# ---------------------------------------------------------------------------
# mu_interval
# ---------------------------------------------------------------------------
def test_interval_extremal_case():
    iv = mu_interval(1.0, 2.0, 0.0)
    assert iv.degenerate_case == "b2_rho0"
    assert (iv.lower, iv.upper) == (-1.0, 1.0)
    assert iv.contains(0.5) and not iv.contains(1.0)


def test_interval_contains_minimum_location_for_ssvi():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho = rng.uniform(-0.9, 0.9)
        root = math.sqrt(1 - rho * rho)
        b = rng.uniform(0.05, 0.95) * 2.0 / (1 + abs(rho))
        iv = mu_interval(root, b, rho)
        assert iv.contains(-rho / root)


def test_interval_empty_below_threshold():
    thr = fukasawa_threshold(1.0, 0.3)
    assert mu_interval(thr - 1e-4, 1.0, 0.3).is_empty
    assert not mu_interval(thr + 1e-4, 1.0, 0.3).is_empty


@pytest.mark.parametrize(
    "b, rho", [(0.5, 0.3), (1.0, -0.5), (0.8, 0.6), (1.2, 0.2), (0.3, -0.9)]
)
def test_threshold_is_sharp_to_1e_9(b, rho):
    # the interval opens within 1e-9 of the threshold on either side
    thr = fukasawa_threshold(b, rho)
    assert mu_interval(thr - 1e-9, b, rho).is_empty
    assert not mu_interval(thr + 1e-9, b, rho).is_empty


def test_interval_antisymmetric_under_inversion():
    for gamma, b, rho in [(0.5, 0.8, 0.4), (-0.2, 1.1, -0.6), (2.0, 0.3, 0.9)]:
        iv = mu_interval(gamma, b, rho)
        mirrored = mu_interval(gamma, b, -rho)
        assert mirrored.lower == pytest.approx(-iv.upper, abs=1e-10)
        assert mirrored.upper == pytest.approx(-iv.lower, abs=1e-10)


def test_interval_nonempty_for_positive_gamma():
    rng = np.random.default_rng(11)
    for _ in range(25):
        rho = rng.uniform(-0.95, 0.95)
        b = rng.uniform(0.01, 1.0) * 2.0 / (1 + abs(rho))
        gamma = rng.uniform(1e-3, 5.0)
        assert not mu_interval(gamma, b, rho).is_empty


def test_interval_decorrelated_matches_two_sided_formula():
    # at rho = 0 the mirrored solve is skipped; the result must not change
    rng = np.random.default_rng(17)
    for _ in range(60):
        b = float(rng.uniform(0.0, 2.0 - 1e-6))
        gamma = float(rng.uniform(-0.999, 3.0))
        lower = fukasawa._lower_end(gamma, b, 0.0)
        upper = -fukasawa._lower_end(gamma, b, -0.0)
        assert mu_interval(gamma, b, 0.0) == FukasawaInterval(lower, upper)


def test_interval_degenerate_tags():
    rho = 0.4
    iv = mu_interval(0.7, 2.0 / (1 + rho), rho)
    assert iv.degenerate_case == "b_one_plus_rho_eq_2"
    assert iv.upper == pytest.approx(0.7 / (1 + rho), rel=1e-12)  # b*gamma/2
    iv = mu_interval(0.7, 2.0 / (1 - (-0.4)), -0.4)
    assert iv.degenerate_case == "b_one_minus_rho_eq_2"
    assert iv.lower == pytest.approx(-0.7 / 1.4, rel=1e-12)


def test_interval_rejects_bad_params():
    with pytest.raises(InvalidParamsError):
        mu_interval(0.5, 3.0, 0.0)  # wing slope > 2
    with pytest.raises(InvalidParamsError):
        mu_interval(-1.5, 0.5, 0.0)  # gamma below the level floor
    with pytest.raises(InvalidParamsError):
        mu_interval(0.5, 0.5, 1.5)  # |rho| > 1


@pytest.mark.parametrize(
    "fn, args",
    [(solve_l_minus, (0.3, 0.5, -1.5)), (solve_l_minus, (0.3, -0.5, 0.2)),
     (mu_interval, (math.nan, 0.5, 0.2)), (mu_interval, (math.inf, 0.5, 0.2)),
     (sigma_star, (math.nan, 0.5, 0.2, 0.0)), (sigma_star, (0.3, 0.5, 0.2, math.nan))],
    ids=["solve_rho", "solve_b", "interval_nan", "interval_inf", "oracle_nan_gamma", "oracle_nan_mu"],
)
def test_invalid_inputs_are_invalid_params(fn, args):
    # not a solver error, a missing root, or arbitrage claimed for a NaN
    with pytest.raises(InvalidParamsError):
        fn(*args)


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("b", [0.1, 0.5, 1.0, 1.5, 1.9])
def test_threshold_matches_closed_form_decorrelated(b):
    assert fukasawa_threshold(b, 0.0) == pytest.approx(
        fukasawa_threshold_closed(b), abs=1e-8
    )


def test_threshold_tight_to_closed_form_decorrelated():
    worst = max(
        abs(fukasawa_threshold(float(b), 0.0) - fukasawa_threshold_closed(float(b)))
        for b in np.linspace(0.05, 1.95, 39)
    )
    assert worst <= 1e-10


@pytest.mark.parametrize("d", [1.1e-4, 1.6e-5, 6.7e-6, 3.4e-8, 2.8e-10])
def test_threshold_decorrelated_next_to_the_bound(d):
    # gamma at the root comes from the root's own chart terms, so the
    # rounding of 2 - b*n1 cancels; read through l_minus_curve(-1/u) it is
    # 1.7e-8 off at d = 6.7e-6
    b = 2.0 - d
    assert abs(fukasawa_threshold(b, 0.0) - fukasawa_threshold_closed(b)) <= 1e-10


def test_threshold_decorrelated_is_the_closed_form():
    # at rho = 0 the threshold is one root in u = -1/l, with no nested solve
    worst = max(
        abs(fukasawa_threshold(float(b), 0.0) - fukasawa_threshold_closed(float(b)))
        for b in np.linspace(0.05, 1.95, 96)
    )
    assert worst <= 1e-12


@pytest.mark.parametrize("b, rho", [(0.1, 0.0), (1.0, 0.0), (1.9, 0.0), (2.0, 0.0),
                                    (0.9, -0.6), (1.2, 0.3), (0.5, 0.8)])
def test_threshold_mu_interval_calls(monkeypatch, b, rho):
    calls, roots = [], []

    def counted(*args):
        calls.append(args)
        return mu_interval(*args)

    def counted_root(*args):
        roots.append(args)
        return _u_root(*args)

    monkeypatch.setattr(fukasawa, "mu_interval", counted)
    monkeypatch.setattr(fukasawa, "_u_root", counted_root)
    fukasawa_threshold(b, rho)
    if rho == 0.0 and b < 2.0:
        # decorrelated inside the wing-slope bound: one root in u, no interval
        assert (len(calls), len(roots)) == (0, 1)
    else:
        assert 0 < len(calls) <= 16


def _two_step_threshold(b):
    # the decorrelated threshold as probe, then root: the floor where the
    # interval is open just above it, else the root in u
    floor = -1.0
    if not mu_interval(floor + 1e-12, b, 0.0).is_empty:
        return floor
    return fukasawa._threshold_decorrelated(b)


def test_threshold_decorrelated_equals_the_two_step_result():
    # inside the wing-slope bound only; where the slack is 0 (2 - b within
    # 4.4e-16) the threshold takes the width's root as for any rho
    bs = np.random.default_rng(20).uniform(0.0, 2.0, 60).tolist() + [1e-14, 1e-7, 2.0 - 2e-10]
    for b in bs:
        assert fukasawa.wing_slope(b, 0.0) == "inside"
        assert fukasawa_threshold(b, 0.0) == _two_step_threshold(b), b


def test_threshold_boundary_values():
    assert fukasawa_threshold(2.0, 0.0) == pytest.approx(0.0, abs=1e-9)
    assert fukasawa_threshold(0.0, 0.0) == pytest.approx(-1.0, abs=1e-9)
    # at |rho| = 1 one wing has no condition: every level >= 0 opens the interval
    assert fukasawa_threshold(0.5, 1.0) == 0.0
    assert fukasawa_threshold(0.5, -1.0) == 0.0


def test_threshold_monotone_in_b():
    bs = np.linspace(0.0, 2.0, 50)
    vals = [fukasawa_threshold(float(b), 0.0) for b in bs]
    assert np.all(np.diff(vals) >= -1e-9)


def test_threshold_in_range_for_correlated():
    for rho in (-0.6, 0.3, 0.8):
        b = 0.8 * 2.0 / (1 + abs(rho))
        t = fukasawa_threshold(b, rho)
        assert -1.0 <= t <= 0.0
        # the threshold separates empty from non-empty intervals
        assert mu_interval(t + 1e-6, b, rho).is_empty is False
        assert mu_interval(t - 1e-6, b, rho).is_empty is True


@pytest.mark.parametrize("slack", [1e-4, 1e-8, 1e-10, 1e-12, 1e-14, 1e-15])
def test_vanishing_interval_end_next_to_the_slope_bound_is_the_closed_form(slack):
    # 1 - b = slack is exact; read off mu_lower_curve in the l chart, where its
    # O(|l|) terms cancel, the end was 2.5e-7 off at 1e-10 and 1.0e-2 at 1e-14
    b = 1.0 - slack
    upper = mu_interval(0.0, b, 1.0).upper
    assert upper == pytest.approx(fukasawa_bound(b), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("slack", [1e-4, 1e-8, 1e-10, 1e-12, 1e-14, 1e-15])
def test_vanishing_interval_end_is_the_closed_form_to_the_last_bits(slack):
    # the end is read off the root's wing terms with the slack split out
    b = 1.0 - slack
    upper = mu_interval(0.0, b, 1.0).upper
    assert upper == pytest.approx(fukasawa_bound(b), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("slack", [1e-6, 1e-10, 1e-12, 1e-14])
def test_symmetric_interval_end_next_to_the_slope_bound_is_the_80_digit_end(slack):
    # the l-chart bound curve was 1.7e-10 off at slack 1e-12 and 2.0e-9 at 1e-14
    b = 2.0 * (1.0 - slack)
    lower = mu_interval(0.5, b, 0.0).lower
    assert lower == pytest.approx(_mp_lower_end(0.5, b, 0.0), rel=1e-15, abs=0.0)
