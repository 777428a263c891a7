from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from smile_domain import (
    BOUNDARY_TOL,
    EvaluationDomainError,
    InvalidParamsError,
    NormalizedSvi,
    RawSviParams,
    g1,
    hgg2,
    hgg2_prime,
    invert,
    n_funcs,
    sigma_floor,
    sigma_floor_dual,
    total_variance,
)
from smile_domain.core import wing_slope

SQRT2 = math.sqrt(2.0)


def _nsvi(gamma, b, rho, mu, sigma=1.0):
    return NormalizedSvi(gamma=gamma, b=b, rho=rho, mu=mu, sigma=sigma)


# ---------------------------------------------------------------------------
# total variance
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "params, k, expected",
    [
        ((0.0, 1.0, 1.0, 0.0, 1.0), 0.0, 1.0),
        ((0.0, 0.5, 1.0, -1.0, 1.0), -1.0, 0.5),
        ((8.0, 2.0, 0.0, 2.0, 2.0), 2.0, 12.0),
    ],
)
def test_total_variance_examples(params, k, expected):
    p = RawSviParams(*params)
    assert total_variance(p, k) == pytest.approx(expected, abs=1e-14)


def test_total_variance_vectorized_and_nonnegative():
    p = RawSviParams(a=0.04, b=0.4, rho=-0.6, m=0.1, sigma=0.3)
    k = np.linspace(-5, 5, 101)
    w = total_variance(p, k)
    assert w.shape == k.shape
    assert np.all(w >= 0.0)
    assert np.min(w) >= p.min_total_variance - 1e-14


def test_raw_params_validation():
    with pytest.raises(InvalidParamsError):
        RawSviParams(a=0.0, b=-0.1, rho=0.0, m=0.0, sigma=1.0)
    with pytest.raises(InvalidParamsError):
        RawSviParams(a=0.0, b=1.0, rho=1.5, m=0.0, sigma=1.0)
    with pytest.raises(InvalidParamsError):
        RawSviParams(a=0.0, b=0.0, rho=0.0, m=0.0, sigma=1.0)  # trivial smile
    with pytest.raises(InvalidParamsError):
        RawSviParams(a=-1.0, b=1.0, rho=0.0, m=0.0, sigma=0.5)  # negative min
    # Black-Scholes case is fine
    RawSviParams(a=0.04, b=0.0, rho=0.0, m=0.0, sigma=1.0)


def test_normalization_round_trip():
    p = RawSviParams(a=0.04, b=0.4, rho=-0.6, m=0.1, sigma=0.3)
    q = p.normalized().to_raw()
    for name in ("a", "b", "rho", "m", "sigma"):
        assert getattr(q, name) == pytest.approx(getattr(p, name), rel=1e-12)


def test_normalization_rejects_degenerate():
    with pytest.raises(InvalidParamsError):
        RawSviParams(a=0.1, b=1.0, rho=0.0, m=0.0, sigma=0.0).normalized()
    with pytest.raises(InvalidParamsError):
        RawSviParams(a=0.1, b=0.0, rho=0.0, m=0.0, sigma=1.0).normalized()


# ---------------------------------------------------------------------------
# n_funcs
# ---------------------------------------------------------------------------
def test_n_funcs_trivial():
    n, n1, n2 = n_funcs(0.0, 0.0, 0.0)
    assert (n, n1, n2) == (1.0, 0.0, 1.0)


def test_n_funcs_minimum_at_l_star():
    for rho in (-0.9, -0.3, 0.2, 0.7):
        l_star = -rho / math.sqrt(1 - rho * rho)
        _, n1, _ = n_funcs(l_star, 0.5, rho)
        assert n1 == pytest.approx(0.0, abs=1e-14)


def test_n_funcs_exact_point():
    n, n1, n2 = n_funcs(1.0, 0.0, 1.0)
    assert n == pytest.approx(1.0 + SQRT2, rel=1e-15)
    assert n1 == pytest.approx(1.0 + 1.0 / SQRT2, rel=1e-15)
    assert n2 == pytest.approx(2.0**-1.5, rel=1e-15)


def test_n_funcs_stable_in_deep_wings():
    # rationalized forms: no catastrophic cancellation at |l| = 1e8
    n, n1, _ = n_funcs(-1.0e8, 0.0, 1.0)
    assert n == pytest.approx(0.5e-8, rel=1e-9)  # l + sqrt(l^2+1) ~ 1/(2|l|)
    assert n1 == pytest.approx(0.5e-16, rel=1e-6)
    n, n1, _ = n_funcs(1.0e8, 0.0, -1.0)
    assert n == pytest.approx(0.5e-8, rel=1e-9)
    assert n1 == pytest.approx(-0.5e-16, rel=1e-6)


# ---------------------------------------------------------------------------
# hgg2 / g1
# ---------------------------------------------------------------------------
def test_hgg2_trivial():
    h, g, g2 = hgg2(0.0, _nsvi(0.0, 1.0, 0.0, 0.0))
    assert (h, g, g2) == (1.0, 0.0, 1.0)


def test_hgg2_high_precision_point():
    # frozen from a 50-digit evaluation of the definitions
    h, g, g2 = hgg2(1.0, _nsvi(1.0, 1.0, 0.5, 0.0))
    assert h == pytest.approx(0.7928932188134524756, rel=1e-15)
    assert g == pytest.approx(0.3017766952966368811, rel=1e-15)
    assert g2 == pytest.approx(0.1035533905932737622, rel=1e-15)


def test_g2_symmetric_when_decorrelated():
    nsvi = _nsvi(0.3, 1.0, 0.0, 0.7)
    for l in (0.3, 1.0, 2.5, 10.0):
        _, _, g2p = hgg2(l, nsvi)
        _, _, g2m = hgg2(-l, nsvi)
        assert g2p == pytest.approx(g2m, rel=1e-14)


def test_hgg2_raises_where_level_vanishes():
    # gamma = -sqrt(1-rho^2): N touches zero at the minimum
    nsvi = _nsvi(-1.0, 1.0, 0.0, 0.0)
    with pytest.raises(EvaluationDomainError):
        hgg2(0.0, nsvi)


_LEVEL_CHECKED = (hgg2, hgg2_prime, sigma_floor)


@pytest.mark.parametrize("fn", _LEVEL_CHECKED)
def test_level_check_passes_empty_input(fn):
    out = fn(np.array([]), _nsvi(0.3, 1.0, -0.4, 0.2))
    out = out if isinstance(out, tuple) else (out,)
    assert all(isinstance(v, np.ndarray) and v.shape == (0,) for v in out)


@pytest.mark.parametrize("fn", _LEVEL_CHECKED)
@pytest.mark.parametrize("gamma", [-1.0, -1.0 - BOUNDARY_TOL / 2])
@pytest.mark.parametrize(
    "l", [0.0, np.array([0.0]), np.array([2.0, 0.0, -3.0]), np.array([math.nan, 0.0])],
    ids=["scalar", "one", "among_valid", "after_nan"],
)
def test_level_check_raises_where_level_is_not_positive(fn, gamma, l):
    # N(0) = gamma + 1 <= 0 at rho = 0; a NaN next to it must not hide it
    with pytest.raises(EvaluationDomainError, match="smile level vanishes"):
        fn(l, _nsvi(gamma, 1.0, 0.0, 0.0))


def test_g1_factorization():
    rng = np.random.default_rng(42)
    for _ in range(50):
        rho = rng.uniform(-0.95, 0.95)
        gamma = rng.uniform(-0.5, 2.0)
        b = rng.uniform(0.05, 2.0 / (1 + abs(rho)))
        mu = rng.uniform(-1.0, 1.0)
        l = rng.uniform(-5.0, 5.0)
        nsvi = _nsvi(gamma, b, rho, mu)
        G1, plus, minus = g1(l, nsvi)
        h, g, _ = hgg2(l, nsvi)
        assert G1 == pytest.approx(plus * minus, rel=1e-12)
        assert G1 == pytest.approx(h * h - b * b * g * g, rel=1e-12, abs=1e-15)


def test_g1_reduces_to_h_squared_without_curvature():
    nsvi = _nsvi(2.0, 1e-300, 0.2, 0.4)  # b -> 0 limit
    G1, _, _ = g1(0.7, nsvi)
    h, _, _ = hgg2(0.7, nsvi)
    assert G1 == pytest.approx(h * h, rel=1e-12)


def test_g1_vanishing_closed_form():
    # gamma=0, rho=1: G1 = (1-(l+mu)/(2s))^2 - (b^2/16)(1+l/s)^2
    b, mu = 0.6, -0.8
    nsvi = _nsvi(0.0, b, 1.0, mu)
    for l in (0.5, 1.0, 3.0):
        s = math.hypot(l, 1.0)
        expected = (1 - (l + mu) / (2 * s)) ** 2 - b * b / 16 * (1 + l / s) ** 2
        G1, _, _ = g1(l, nsvi)
        assert G1 == pytest.approx(expected, rel=1e-13)


def test_g1_ssvi_wing_asymmetry():
    # for the SSVI shape: G1(l) - G1(-l) = -b^2*rho*l/(4*sqrt(l^2+1))
    rho, b = 0.4, 0.9
    root = math.sqrt(1 - rho * rho)
    nsvi = _nsvi(root, b, rho, -rho / root)
    for l in (1.5, 2.0, 4.0):
        G1p, _, _ = g1(l, nsvi)
        G1m, _, _ = g1(-l, nsvi)
        expected = -b * b * rho * l / (4 * math.hypot(l, 1.0))
        assert G1p - G1m == pytest.approx(expected, rel=1e-11)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------
def test_hgg2_prime_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(25):
        rho = rng.uniform(-0.9, 0.9)
        gamma = rng.uniform(-0.3, 2.0)
        mu = rng.uniform(-1.0, 1.0)
        l = rng.uniform(-4.0, 4.0)
        nsvi = _nsvi(gamma, 1.0, rho, mu)
        h, g, g2, h1, g1d, g21 = hgg2_prime(l, nsvi)
        eps = 1e-6
        hp, gp, g2p = hgg2(l + eps, nsvi)
        hm, gm, g2m = hgg2(l - eps, nsvi)
        assert h1 == pytest.approx((hp - hm) / (2 * eps), rel=2e-8, abs=1e-10)
        assert g1d == pytest.approx((gp - gm) / (2 * eps), rel=2e-8, abs=1e-10)
        assert g21 == pytest.approx((g2p - g2m) / (2 * eps), rel=2e-8, abs=1e-10)
        assert (h, g, g2) == pytest.approx(hgg2(l, nsvi))


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------
def test_invert_examples():
    p = RawSviParams(a=0.0, b=1.0, rho=1.0, m=-1.0, sigma=1.0)
    q = invert(p)
    assert (q.a, q.b, q.rho, q.m, q.sigma) == (0.0, 1.0, -1.0, 1.0, 1.0)
    assert invert(q) == p
    fixed = RawSviParams(a=0.1, b=0.5, rho=0.0, m=0.0, sigma=1.0)
    assert invert(fixed) == fixed


@settings(max_examples=200, deadline=None)
@given(
    l=st.floats(-50.0, 50.0),
    gamma=st.floats(-0.4, 3.0),
    rho=st.floats(-0.95, 0.95),
    mu=st.floats(-3.0, 3.0),
)
def test_f_invariant_under_inversion(l, gamma, rho, mu):
    # f(l; gamma, rho, mu) = f(-l; gamma, -rho, -mu) exactly
    assume(gamma > -math.sqrt((1.0 - rho) * (1.0 + rho)))  # a valid smile level
    b = 0.8 * 2.0 / (1 + abs(rho))
    nsvi = _nsvi(gamma, b, rho, mu)
    mirrored = _nsvi(gamma, b, -rho, -mu)
    lhs = sigma_floor(l, nsvi)
    rhs = sigma_floor(-l, mirrored)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_dual_objective_reciprocity():
    nsvi = _nsvi(0.5, 1.2, 0.3, -0.2)
    for l in (2.0, 3.0, 6.0):
        f = sigma_floor(l, nsvi)
        dual = sigma_floor_dual(l, nsvi)
        assert f * dual == pytest.approx(nsvi.b / 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# the wing-slope bound
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("rho", [0.0, 0.4, -0.4, 1.0, -0.999])
@pytest.mark.parametrize(
    "k, expected", [(-2.0, "inside"), (-0.5, "on"), (0.5, "on"), (2.0, "beyond")]
)
def test_wing_slope_against_two(rho, k, expected):
    # right wing slope b*(1 + rho) = 2 + k*BOUNDARY_TOL
    slope = 2.0 + k * BOUNDARY_TOL
    assert wing_slope(slope / (1.0 + rho), rho) == expected
    if rho < 1.0:  # left wing slope b*(1 - rho), the right wing at -rho
        assert wing_slope(slope / (1.0 - rho), -rho) == expected
