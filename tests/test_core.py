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
    n_funcs,
    sigma_floor,
    sigma_floor_dual,
    total_variance,
)
from smile_domain import core
from smile_domain.core import wing_slope
from smile_domain.fukasawa import l_minus_curve, mu_lower_curve

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
# scalar and array inputs
# ---------------------------------------------------------------------------
_NSVI = _nsvi(0.4, 0.9, -0.6, 0.1)
_SHAPE_FUNCTIONS = {
    "n_funcs": lambda l: n_funcs(l, 0.4, -0.6),
    "hgg2": lambda l: hgg2(l, _NSVI),
    "g1": lambda l: g1(l, _NSVI),
    "hgg2_prime": lambda l: hgg2_prime(l, _NSVI),
    "sigma_floor": lambda l: (sigma_floor(l, _NSVI),),
    "l_minus_curve": lambda l: (l_minus_curve(l, 0.9, -0.6),),
    "mu_lower_curve": lambda l: (mu_lower_curve(l, 0.4, 0.9, -0.6),),
}


@pytest.mark.parametrize("fn", _SHAPE_FUNCTIONS.values(), ids=_SHAPE_FUNCTIONS.keys())
def test_python_numbers_give_python_floats(fn):
    for l in (2.5, 2):
        assert all(type(v) is float for v in fn(l))


@pytest.mark.parametrize("fn", _SHAPE_FUNCTIONS.values(), ids=_SHAPE_FUNCTIONS.keys())
def test_numpy_scalars_give_floats_and_arrays_give_arrays(fn):
    for l in (np.float64(2.5), np.array(2.5)):
        out = fn(l)
        assert all(isinstance(v, float) and np.ndim(v) == 0 for v in out)
        assert [float(v) for v in out] == [float(v) for v in fn(2.5)]
    out = fn(np.array([2.5, -1.0]))
    assert all(isinstance(v, np.ndarray) and v.shape == (2,) for v in out)


_AGREEMENT_RHOS = [-1.0, -0.6, -1e-12, 0.0, 1e-12, 0.6, 1.0]


def _agreement_points(rho):
    ls = [0.0, 1e8, -1e8, 0.75, -0.75, 3.0, -3.0, 1e-3, -1e-3]
    if abs(rho) < 1.0:  # l/s == rho, where rho - l/s once sat in a denominator
        ls.append(rho / math.sqrt((1.0 - rho) * (1.0 + rho)))
    return ls


@pytest.mark.parametrize("rho", _AGREEMENT_RHOS)
@pytest.mark.parametrize("level", ["low", "high"])
def test_scalar_and_array_results_agree(rho, level):
    floor = -math.sqrt((1.0 - rho) * (1.0 + rho))
    gamma = floor + 0.3 if level == "low" else 0.8
    b = 0.9 * 2.0 / (1.0 + abs(rho))
    nsvi = _nsvi(gamma, b, rho, 0.1)
    fns = [
        lambda l: n_funcs(l, gamma, rho),
        lambda l: hgg2_prime(l, nsvi),
        lambda l: g1(l, nsvi),
        lambda l: (sigma_floor(l, nsvi),),
        lambda l: (l_minus_curve(l, b, rho),),
        lambda l: (mu_lower_curve(l, gamma, b, rho),),
    ]
    for fn in fns:
        ls = _agreement_points(rho)
        if fn is fns[-1]:  # the bound curve is undefined where N' = 0
            ls = [l for l in ls if n_funcs(l, gamma, rho)[1] != 0.0]
        arrays = fn(np.array(ls))
        for i, l in enumerate(ls):
            scalars = fn(l)
            for arr, val in zip(arrays, scalars):
                np.testing.assert_array_max_ulp(arr[i], val, maxulp=4)


@pytest.mark.parametrize("rho, l", [(0.6, 0.75), (-0.6, -0.75)])
def test_rationalized_derivative_where_rho_equals_l_over_s(rho, l):
    # s = 1.25 and l/s = rho exactly: rho - l/s is 0 here, |rho| + |l/s| is not
    n, n1, n2 = n_funcs(l, 0.2, rho)
    assert (n, n1, n2) == (0.2 + rho * l + 1.25, 2.0 * rho, 1.25**-3)
    arrays = n_funcs(np.array([l]), 0.2, rho)
    assert [v[0] for v in arrays] == [n, n1, n2]


@pytest.mark.parametrize("rho", [0.0, -0.0])
@pytest.mark.parametrize("gamma", [-0.9, 0.4])
def test_level_at_zero_correlation_is_the_two_branch_form(rho, gamma):
    # at rho = +-0 the rationalized N is never selected, so it is not computed
    ls = [0.0, 1e-3, -1e-3, 1e8, -1e8]

    def two_branch(l):
        s = np.hypot(l, 1.0)
        lin = rho * l
        n_alt = gamma + (l * l * ((1.0 - rho) * (1.0 + rho)) + 1.0) / (s + abs(lin))
        return np.where(lin < 0.0, n_alt, gamma + lin + s)

    arr = np.array(ls)
    assert n_funcs(arr, gamma, rho)[0].tobytes() == two_branch(arr).tobytes()
    for l in ls:
        n = n_funcs(l, gamma, rho)[0]
        assert type(n) is float
        assert n.hex() == float(two_branch(np.float64(l))).hex()


@pytest.mark.parametrize("g2v", [-1.0, 1.0])
def test_sigma_floor_signed_infinity_where_g1_is_zero(monkeypatch, g2v):
    # G1+ = h - b*g = 0 exactly: -b*g2/(2*G1) is -inf*sign(g2), scalar or array
    nsvi = _nsvi(0.4, 2.0, 0.0, 0.0)
    monkeypatch.setattr(core, "hgg2", lambda l, _: (0.5 + 0 * l, 0.25 + 0 * l, g2v + 0 * l))
    expected = -math.copysign(math.inf, g2v)
    assert sigma_floor(1.5, nsvi) == expected
    assert list(sigma_floor(np.array([1.5, 2.5]), nsvi)) == [expected, expected]


# n_funcs and hgg2_prime on 8 points for 5 shapes (gamma, b, rho, mu), as float.hex:
# per point N, N', N'', then h, g, g2, h', g', g2'.  The array path keeps these
# bit for bit.
_GOLDEN_L = [-1e8, -37.5, -0.75, -1e-3, 0.0, 0.75, 2.5, 1e8]
_GOLDEN = {
    (0.3, 0.8, -0.6, 0.2): (
        "0x1.312d00099999ap+27 -0x1.999999999999ap+0 0x1.357c299a88ea8p-80"
        " 0x1.00000010a49b8p-1 -0x1.999999999999ap-2 -0x1.12e0be79c7cd5p-27"
        " 0x1.6567d90000000p-56 0x1.357c299a88ea8p-82 -0x1.70ef544d372c9p-54",
        "0x1.e281b3aa12f24p+5 -0x1.99824f8c16734p+0 0x1.3dce820779da1p-16"
        " 0x1.02be9352ff762p-1 -0x1.99824f8c16734p-2 -0x1.5b3ea6eba4158p-6"
        " 0x1.366d0c99c5100p-13 0x1.3dce820779da1p-18 -0x1.25eaad70630b5p-11",
        "0x1.0000000000000p+1 -0x1.3333333333333p+0 0x1.0624dd2f1a9fcp-1"
        " 0x1.ab851eb851eb8p-1 -0x1.3333333333333p-2 0x1.374bc6a7ef9dcp-3"
        " 0x1.15e9e1b089a02p-2 0x1.0624dd2f1a9fcp-3 0x1.a82e87d2c7b8ap-1",
        "0x1.4cf42784a9246p+0 -0x1.33b6459d7f3dcp-1 0x1.ffffcdab1d3d4p-1"
        " 0x1.0bc53d28fe2aep+0 -0x1.33b6459d7f3dcp-3 0x1.b8e73c178e8c5p-1"
        " 0x1.6804d3745aa0bp-3 0x1.ffffcdab1d3d4p-3 0x1.9a8cb991efdcep-2",
        "0x1.4cccccccccccdp+0 -0x1.3333333333333p-1 0x1.0000000000000p+0"
        " 0x1.0bd0bd0bd0bd1p+0 -0x1.3333333333333p-3 0x1.b91b91b91b91cp-1"
        " 0x1.66b3f517ef08cp-3 0x1.0000000000000p-2 0x1.972d240d54868p-2",
        "0x1.199999999999ap+0 0x1.1111111111111p-54 0x1.0624dd2f1a9fcp-1"
        " 0x1.0000000000000p+0 0x1.1111111111111p-56 0x1.0624dd2f1a9fcp-1"
        " -0x1.c4cb4f7fe82b3p-3 0x1.0624dd2f1a9fcp-3 -0x1.797cc39ffd60fp-1",
        "0x1.7e19e161e80b4p+0 0x1.505c319366e70p-2 0x1.a3a5567fe99f8p-5"
        " 0x1.67e2bef003626p-1 0x1.505c319366e70p-4 0x1.ee344d2a9d9bcp-7"
        " -0x1.74adad87fd841p-4 0x1.a3a5567fe99f8p-7 -0x1.cd4e7eb2e7b6ap-5",
        "0x1.312d002666668p+25 0x1.999999999999bp-2 0x1.357c299a88ea8p-80"
        " 0x1.000000179f506p-1 0x1.999999999999bp-4 -0x1.12e0be5fd6f95p-29"
        " -0x1.fb49150000000p-56 0x1.357c299a88ea8p-82 0x1.70ef540794d5dp-56",
    ),
    (0.05, 1.2, 0.6, -0.4): (
        "0x1.312d000666668p+25 -0x1.999999999999bp-2 0x1.357c299a88ea8p-80"
        " 0x1.ffffffe860afap-2 -0x1.999999999999bp-4 -0x1.12e0be7ca9abep-29"
        " -0x1.fb490e0000000p-57 0x1.357c299a88ea8p-82 -0x1.70ef5454f3e02p-56",
        "0x1.e206cea84bc94p+3 -0x1.993c71638d007p-2 0x1.3dce820779da1p-16"
        " 0x1.fd2c09c27b978p-2 -0x1.993c71638d007p-4 -0x1.5a323bd78951bp-8"
        " -0x1.9ebba8d262400p-15 0x1.3dce820779da1p-18 -0x1.22bdd7f487febp-13",
        "0x1.b333333333334p-1 -0x1.1111111111111p-54 0x1.0624dd2f1a9fcp-1"
        " 0x1.0000000000000p+0 -0x1.1111111111111p-56 0x1.0624dd2f1a9fcp-1"
        " 0x1.62aa586ce7c91p-2 0x1.0624dd2f1a9fcp-3 0x1.797cc39ffd60fp-1",
        "0x1.0ca582dbe7cfap+0 0x1.32b020c8e7289p-1 0x1.ffffcdab1d3d4p-1"
        " 0x1.1d4c523b7b994p+0 0x1.32b020c8e7289p-3 0x1.a8785c243b47dp-1"
        " -0x1.46fed9e9a8f61p-3 0x1.ffffcdab1d3d4p-3 -0x1.e1814203252d4p-2",
        "0x1.0cccccccccccdp+0 0x1.3333333333333p-1 0x1.0000000000000p+0"
        " 0x1.1d41d41d41d42p+0 0x1.3333333333333p-3 0x1.a83a83a83a83bp-1"
        " -0x1.48cb6824391efp-3 0x1.0000000000000p-2 -0x1.e4d528c042dfap-2",
        "0x1.c000000000000p+0 0x1.3333333333333p+0 0x1.0624dd2f1a9fcp-1"
        " 0x1.c28f5c28f5c29p-1 0x1.3333333333333p-2 0x1.9bf0c94a05444p-4"
        " -0x1.3f4102662a7b3p-2 0x1.0624dd2f1a9fcp-3 -0x1.9ccbead238583p-1",
        "0x1.0f8678587a02dp+2 0x1.874a3f980cecfp+0 0x1.a3a5567fe99f8p-5"
        " 0x1.3e519354992a2p-1 0x1.874a3f980cecfp-2 -0x1.caf826c5aa59ep-3"
        " -0x1.cf156051d8e20p-5 0x1.a3a5567fe99f8p-7 0x1.c697736b4d094p-6",
        "0x1.312d00019999ap+27 0x1.999999999999ap+0 0x1.357c299a88ea8p-80"
        " 0x1.0000001285a4ep-1 0x1.999999999999ap-2 -0x1.12e0be80fc79fp-27"
        " -0x1.8dc2070000000p-56 0x1.357c299a88ea8p-82 0x1.70ef54608eef2p-54",
    ),
    (-0.5, 1.0, 0.0, 0.1): (
        "0x1.7d783fe000000p+26 -0x1.0000000000000p+0 0x1.357c299a88ea8p-80"
        " 0x1.ffffffdda3e82p-2 -0x1.0000000000000p-2 -0x1.5798ee3fdb763p-28"
        " -0x1.70ef550000000p-56 0x1.357c299a88ea8p-82 -0x1.cd2b29cae7a5dp-55",
        "0x1.281b4d43ac8bep+5 -0x1.ffd16be4f9b36p-1 0x1.3dce820779da1p-16"
        " 0x1.fad5c9e4697c8p-2 -0x1.ffd16be4f9b36p-3 -0x1.b9b74f9abb27ap-7"
        " -0x1.099bccdbf4840p-13 0x1.3dce820779da1p-18 -0x1.7c29daa965b56p-12",
        "0x1.8000000000000p-1 -0x1.3333333333333p-1 0x1.0624dd2f1a9fcp-1"
        " 0x1.7ae147ae147aep-1 -0x1.3333333333333p-3 0x1.16872b020c49cp-2"
        " 0x1.a7cca9d8f3936p-2 0x1.0624dd2f1a9fcp-3 0x1.e8e60807357e6p-1",
        "0x1.000010c6f75a6p-1 -0x1.0624d4981517cp-10 0x1.ffffcdab1d3d4p-1"
        " 0x1.00067cf11fdf6p+0 -0x1.0624d4981517cp-12 0x1.ffffac1d3261cp-1"
        " -0x1.9167fb80c0a19p-4 0x1.ffffcdab1d3d4p-3 0x1.47add1e87c52dp-8",
        "0x1.0000000000000p-1 0x0.0p+0 0x1.0000000000000p+0"
        " 0x1.0000000000000p+0 0x0.0p+0 0x1.0000000000000p+0"
        " -0x1.999999999999ap-4 0x1.0000000000000p-2 0x0.0p+0",
        "0x1.8000000000000p-1 0x1.3333333333333p-1 0x1.0624dd2f1a9fcp-1"
        " 0x1.51eb851eb851ep-1 0x1.3333333333333p-3 0x1.16872b020c49cp-2"
        " -0x1.ac2b250022f3cp-2 0x1.0624dd2f1a9fcp-3 -0x1.e8e60807357e6p-1",
        "0x1.18a68a4a8d9f3p+1 0x1.db614bfce6a6bp-1 0x1.a3a5567fe99f8p-5"
        " 0x1.cc495bf1f26bep-2 0x1.db614bfce6a6bp-3 -0x1.29b32d9408ed3p-3"
        " -0x1.267cb2f5d7d80p-7 0x1.a3a5567fe99f8p-7 0x1.18922bf48cf50p-7",
        "0x1.7d783fe000000p+26 0x1.0000000000000p+0 0x1.357c299a88ea8p-80"
        " 0x1.ffffffcc75dc4p-2 0x1.0000000000000p-2 -0x1.5798ee3fdb763p-28"
        " 0x1.14b37f0000000p-55 0x1.357c299a88ea8p-82 0x1.cd2b29cae7a5dp-55",
    ),
    (0.2, 0.9, 1.0, -0.3): (
        "0x1.99999a456610bp-3 0x1.cd2b297d889bcp-55 0x1.357c299a88ea8p-80"
        " 0x1.00000035afe52p+0 0x1.cd2b297d889bcp-57 0x1.357c297a153dcp-80"
        " 0x1.203af919b0055p-53 0x1.357c299a88ea8p-82 0x1.3789add859771p-105",
        "0x1.b4e6dd462578bp-3 0x1.74a0d83264fd7p-12 0x1.3dce820779da1p-16"
        " 0x1.080f4e7b0690bp+0 0x1.74a0d83264fd7p-14 0x1.38d74464a14b4p-16"
        " 0x1.9fb32bf27b392p-11 0x1.3dce820779da1p-18 0x1.8e2a57b64f074p-20",
        "0x1.6666666666666p-1 0x1.9999999999999p-2 0x1.0624dd2f1a9fcp-1"
        " 0x1.4cccccccccccdp+0 0x1.9999999999999p-4 0x1.974269e92def1p-2"
        " -0x1.2b97d835d5488p-4 0x1.0624dd2f1a9fcp-3 0x1.0520a55d5df81p-1",
        "0x1.32f1b25f6319cp+0 0x1.ff7ced95b3f57p-1 0x1.ffffcdab1d3d4p-1"
        " 0x1.2019eea5c2f04p+0 0x1.ff7ced95b3f57p-3 0x1.2aea34f0284afp-1"
        " -0x1.950c5815b1cb0p-2 0x1.ffffcdab1d3d4p-3 -0x1.ef0941180af88p-2",
        "0x1.3333333333333p+0 0x1.0000000000000p+0 0x1.0000000000000p+0"
        " 0x1.2000000000000p+0 0x1.0000000000000p-2 0x1.2aaaaaaaaaaaap-1"
        " -0x1.9555555555556p-2 0x1.0000000000000p-2 -0x1.f1c71c71c71c8p-2",
        "0x1.199999999999ap+1 0x1.999999999999ap+0 0x1.0624dd2f1a9fcp-1"
        " 0x1.ac37dac37dac4p-1 0x1.999999999999ap-2 -0x1.1df9ab7934518p-4"
        " -0x1.301e99fd420f8p-2 0x1.0624dd2f1a9fcp-3 -0x1.5f7d56f20fe52p-1",
        "0x1.592011f2139c6p+2 0x1.edb0a5fe73536p+0 0x1.a3a5567fe99f8p-5"
        " 0x1.369721eef4947p-1 0x1.edb0a5fe73536p-2 -0x1.2ca5d0c61473ep-2"
        " -0x1.8df5ac6e55420p-5 0x1.a3a5567fe99f8p-7 0x1.aa0431dd04d50p-5",
        "0x1.7d78400666666p+27 0x1.0000000000000p+1 0x1.357c299a88ea8p-80"
        " 0x1.000000112e0bep-1 0x1.0000000000000p-1 -0x1.5798ee1d45064p-27"
        " -0x1.70ef530000000p-56 0x1.357c299a88ea8p-82 0x1.cd2b296e0f333p-54",
    ),
    (0.4, 0.5, -1e-12, 0.0): (
        "0x1.7d7840199b3d0p+26 -0x1.0000000001198p+0 0x1.357c299a88ea8p-80"
        " 0x1.000000112e0bep-1 -0x1.0000000001198p-2 -0x1.5798ee0bfb483p-28"
        " 0x1.70ef530000000p-56 0x1.357c299a88ea8p-82 -0x1.cd2b293fa4f4dp-55",
        "0x1.2f4e8076e108fp+5 -0x1.ffd16be4fbe65p-1 0x1.3dce820779da1p-16"
        " 0x1.02e182301dbeap-1 -0x1.ffd16be4fbe65p-3 -0x1.af3738ec0f2a4p-7"
        " 0x1.4ac68a35a6b00p-13 0x1.3dce820779da1p-18 -0x1.6a3dec09dd62ep-12",
        "0x1.a666666667398p+0 -0x1.3333333335662p-1 0x1.0624dd2f1a9fcp-1"
        " 0x1.ba2e8ba2e85d2p-1 -0x1.3333333335662p-3 0x1.9c943362db6e3p-2"
        " 0x1.fd1f65a36b21dp-3 0x1.0624dd2f1a9fcp-3 0x1.c4806fe082c1bp-1",
        "0x1.66666ec9e213ep+0 -0x1.0624d49c7afe2p-10 0x1.ffffcdab1d3d4p-1"
        " 0x1.fffff4042b395p-1 -0x1.0624d49c7afe2p-12 0x1.ffffc1af48dafp-1"
        " 0x1.767da433b8a3ep-11 0x1.ffffcdab1d3d4p-3 0x1.e6d66e44ffbf0p-9",
        "0x1.6666666666666p+0 -0x1.19799812dea11p-40 0x1.0000000000000p+0"
        " 0x1.0000000000000p+0 -0x1.19799812dea11p-42 0x1.0000000000000p+0"
        " 0x1.921b6b88abc19p-42 0x1.0000000000000p-2 0x1.921b6b88abc19p-41",
        "0x1.a666666665934p+0 0x1.3333333331004p-1 0x1.0624dd2f1a9fcp-1"
        " 0x1.ba2e8ba2e9174p-1 0x1.3333333331004p-3 0x1.9c943362de316p-2"
        " -0x1.fd1f65a36a4cep-3 0x1.0624dd2f1a9fcp-3 -0x1.c4806fe0827a5p-1",
        "0x1.8bd9bd7dbf72ap+1 0x1.db614bfce473bp-1 0x1.a3a5567fe99f8p-5"
        " 0x1.3fdacf8f20bc6p-1 0x1.db614bfce473bp-3 -0x1.691094c26edcap-4"
        " -0x1.dc5a3d817d318p-5 0x1.a3a5567fe99f8p-7 -0x1.b2a09338cc1cap-6",
        "0x1.7d78401997f63p+26 0x1.fffffffffdcd0p-1 0x1.357c299a88ea8p-80"
        " 0x1.000000112e0bep-1 0x1.fffffffffdcd0p-3 -0x1.5798ee0bf8547p-28"
        " -0x1.70ef560000000p-56 0x1.357c299a88ea8p-82 0x1.cd2b293fa0fe3p-55",
    ),
}


@pytest.mark.parametrize("shape", _GOLDEN)
def test_array_outputs_are_pinned(shape):
    gamma, b, rho, mu = shape
    l = np.array(_GOLDEN_L)
    outs = n_funcs(l, gamma, rho) + hgg2_prime(l, _nsvi(gamma, b, rho, mu))
    got = [" ".join(float(o[i]).hex() for o in outs) for i in range(len(l))]
    assert got == [" ".join(row.split()) for row in _GOLDEN[shape]]


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


@pytest.mark.parametrize(
    "rho, gamma, mu", [(0.0, 1.0, 0.5), (0.6, 0.8, -0.75), (0.25, 0.5, 0.1), (1.0, 0.3, -1.0)]
)
def test_wing_chart_on_the_bound_out_to_l_1e30(rho, gamma, mu):
    # sigma_floor through the u = 1/l step at b = 2/(1 + rho), where
    # h - b*g = u*Y/(2*N*u) and u cancels, against mpmath on the exact bound
    from mpmath import mp, mpf, sqrt as msqrt

    b = 2.0 / (1.0 + rho)
    w = core._wing_slack(b, rho)
    assert w == 0.0
    with mp.workdps(60):
        bm = 2 / (1 + mpf(rho))
        for u in [10.0 ** -k for k in range(31)] + [0.0]:
            g2c, _, hp, yd = core._wing_at(core._wing_terms(u), gamma, b, rho, mu, w)
            if u == 0.0:  # the limit 1/(gamma/P - mu)
                ref = 1 / (gamma / (1 + mpf(rho)) - mu)
            else:
                l = 1 / mpf(u)
                s = msqrt(l * l + 1)
                n, n1 = gamma + rho * l + s, rho + l / s
                h, g = 1 - n1 * (l + mu) / (2 * n), n1 / 4
                ref = -bm * (1 / s**3 - n1 * n1 / (2 * n)) / (2 * (h - bm * g) * (h + bm * g))
            assert -b / 2.0 * g2c / (yd * hp) == pytest.approx(float(ref), rel=1e-14), u
