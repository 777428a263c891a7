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
    solve_l_minus,
)
from smile_domain import fukasawa
from smile_domain.roots import RTOL, grid_root
from smile_domain.symmetric import fukasawa_threshold_closed


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
    # the scan grid starts next to l = 0, so Brent's method polishes a
    # short bracket instead of bisecting one 1e7 wide (49-51 evaluations)
    scalar_calls = []

    def counted(l, b, rho):
        if np.ndim(l) == 0:
            scalar_calls.append(l)
        return l_minus_curve(l, b, rho)

    monkeypatch.setattr(fukasawa, "l_minus_curve", counted)
    for b in np.linspace(0.01, 0.99, 99).tolist():
        scalar_calls.clear()
        l = solve_l_minus(gamma, b, -1.0)
        assert abs(l_minus_curve(l, b, -1.0) - gamma) <= 1e-12 * max(1.0, gamma)
        assert 0 < len(scalar_calls) <= 12


@pytest.mark.parametrize("rho", [-1.0, -1.0 + 1e-14, -0.5, -1e-3, 0.0])
def test_scan_grid_starts_below_the_level(rho):
    # the first grid point has the curve below every admissible level, so
    # the grid's first sign change brackets the root l-
    floor = -math.sqrt(max(0.0, (1.0 - rho) * (1.0 + rho)))
    start = fukasawa._scan_grid(rho)[0]
    assert start < 0.0
    for frac in (0.0, 0.5, 0.999):
        b = frac * 2.0 / (1.0 - rho)
        for gamma in floor + np.geomspace(1e-12, 50.0, 40):
            assert l_minus_curve(start, b, rho) - gamma < 0.0


def _per_call_scan_grid(rho):
    # the grid as it was built on every solve before its offsets became a
    # module constant
    start = -rho / math.sqrt((1.0 - rho) * (1.0 + rho)) if rho > 0.0 else 0.0
    upper = start - 1e-6
    return upper - np.geomspace(1e-6, upper + 1e8, 128)


@pytest.mark.parametrize("rho", [0.0, -0.0, -1e-300, -0.5, -1.0 + 1e-14, -1.0])
def test_scan_grid_unchanged_for_nonpositive_rho(rho):
    grid = fukasawa._scan_grid(rho)
    assert grid.tobytes() == _per_call_scan_grid(rho).tobytes()
    assert grid.flags.writeable and not fukasawa._SCAN_OFFSETS.flags.writeable


def test_scan_grid_roots_for_positive_rho_within_the_solver_tolerance():
    # for rho > 0 the far end moved from l = -1e8 to 1e8 below the start, so
    # the bracket, and the root in its last bits, can differ: over this
    # sweep 558 of 1035 roots are bitwise equal and the rest lie within
    # 4.3 solver tolerances.  Within 1e-9 of the floor the level curve is
    # flat and the roots differ up to 1.5e-8 relative, so there the residual
    # is checked instead (at most 2.0e-12 on this sweep).
    for rho in np.linspace(0.005, 0.995, 67).tolist() + [1e-12, 1.0 - 1e-10]:
        floor = -math.sqrt((1.0 - rho) * (1.0 + rho))
        for frac in (0.01, 0.3, 0.999):
            b = frac * 2.0 / (1.0 + rho)
            for gamma in (floor + 1e-9, floor / 2.0, 0.0, 0.3, 2.0):
                def f(l):
                    return l_minus_curve(l, b, rho) - gamma

                old = grid_root(f, _per_call_scan_grid(rho), xtol=1e-14)
                new = solve_l_minus(gamma, b, rho)
                assert mu_interval(gamma, b, rho).lower == mu_lower_curve(new, gamma, b, rho)
                if gamma == floor + 1e-9:
                    assert abs(f(new)) <= 1e-11
                else:
                    assert abs(new - old) <= 8.0 * (1e-14 + RTOL * abs(old))


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
        lower = mu_lower_curve(solve_l_minus(gamma, b, 0.0), gamma, b, 0.0)
        upper = -mu_lower_curve(solve_l_minus(gamma, b, -0.0), gamma, b, -0.0)
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


def test_threshold_decorrelated_is_the_closed_form():
    # at rho = 0 the threshold is one root in l, with no nested solve
    worst = max(
        abs(fukasawa_threshold(float(b), 0.0) - fukasawa_threshold_closed(float(b)))
        for b in np.linspace(0.05, 1.95, 96)
    )
    assert worst <= 1e-12


@pytest.mark.parametrize("b, rho", [(0.1, 0.0), (1.0, 0.0), (1.9, 0.0), (2.0, 0.0),
                                    (0.9, -0.6), (1.2, 0.3), (0.5, 0.8)])
def test_threshold_mu_interval_calls(monkeypatch, b, rho):
    calls = []

    def counted(*args):
        calls.append(args)
        return mu_interval(*args)

    monkeypatch.setattr(fukasawa, "mu_interval", counted)
    fukasawa_threshold(b, rho)
    assert 0 < len(calls) <= 16


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
