from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smile_domain import (
    BOUNDARY_TOL,
    FukasawaViolation,
    InvalidParamsError,
    NormalizedSvi,
    RawSviParams,
    RogerLeeViolation,
    SmileDomainError,
    durrleman_check,
    fukasawa_threshold,
    g2_zeros,
    hgg2,
    mu_interval,
    sigma_star,
    sigma_floor,
    sigma_floor_dual,
)
from smile_domain import core, oracle, ssvi, symmetric, vanishing
from smile_domain.core import _wing_at, _wing_slack
from smile_domain.extremal import ExtremalParams, sigma_bound
from smile_domain.ssvi import SsviParams
from smile_domain.symmetric import SymmetricParams
from smile_domain.vanishing import VanishingParams


def _g2_at(l, gamma, rho):
    nsvi = NormalizedSvi(gamma=gamma, b=1.0, rho=rho, mu=0.0, sigma=1.0)
    return hgg2(l, nsvi)[2]


# ---------------------------------------------------------------------------
# g2 zeros
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "gamma, rho",
    [(math.nan, 0.3), (math.inf, 0.3), (0.3, math.nan), (0.3, 1.5), (-1.0, 0.0), (-5.0, 0.0)],
    ids=["nan-level", "inf-level", "nan-rho", "rho-beyond-1", "level-on-floor", "level-below-floor"],
)
def test_g2_zeros_rejects_invalid_input(gamma, rho):
    with pytest.raises(InvalidParamsError):
        g2_zeros(gamma, rho)


def test_g2_zeros_vanishing():
    z = g2_zeros(0.0, 1.0)
    assert z.l1 is None
    assert z.l2 == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    assert abs(_g2_at(z.l2, 0.0, 1.0)) <= 1e-12


def test_g2_zeros_symmetric_gamma_zero():
    # z2 = 1/sqrt(3) in the z coordinate means l2 = sqrt(2)
    z = g2_zeros(0.0, 0.0)
    assert z.l2 == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert z.l1 == pytest.approx(-math.sqrt(2.0), rel=1e-12)


def test_g2_zeros_ssvi_closed_form():
    for rho in np.linspace(0.0, 0.98, 25):
        rho = float(rho)
        root = math.sqrt(1 - rho * rho)
        expected = 1.0 / math.tan(math.acos(-rho) / 3.0)
        z = g2_zeros(root, rho)
        assert z.l2 == pytest.approx(expected, rel=1e-11)
        assert abs(_g2_at(z.l2, root, rho)) <= 1e-12


def test_g2_sign_structure():
    # two zeros, negative strictly between... wings negative, bump positive
    gamma, rho = 0.4, 0.5
    z = g2_zeros(gamma, rho)
    assert z.l1 < 0 < z.l2
    inner = np.linspace(z.l1 + 1e-3, z.l2 - 1e-3, 50)
    outer = np.concatenate(
        [np.linspace(z.l1 - 5, z.l1 - 1e-3, 20), np.linspace(z.l2 + 1e-3, z.l2 + 5, 20)]
    )
    assert all(_g2_at(float(l), gamma, rho) > 0 for l in inner)
    assert all(_g2_at(float(l), gamma, rho) < 0 for l in outer)


def test_g2_zeros_one_sided_for_negative_unit_rho():
    z = g2_zeros(0.0, -1.0)
    assert z.l2 is None
    assert z.l1 == pytest.approx(-1.0 / math.sqrt(3.0), rel=1e-12)


# ---------------------------------------------------------------------------
# sigma_star
# ---------------------------------------------------------------------------
def test_sigma_star_extremal_example():
    res = sigma_star(1.0, 2.0, 0.0, 0.5)
    assert res.sigma_star == pytest.approx(2.0, rel=1e-9)
    assert res.side == "limit_at_infinity"
    assert res.argsup_l == math.inf


def test_sigma_star_subnormal_extremal_is_inf_without_a_warning():
    # the requirement's quotient overflows on the wing grid; warnings are errors
    res = sigma_star(1e-310, 2.0, 0.0, 5e-311)
    assert res.sigma_star == math.inf
    assert res.side == "limit_at_infinity"


def test_sigma_star_vanishing_b1():
    # on the wing boundary the requirement is the k -> inf limit -1/mu
    res = sigma_star(0.0, 1.0, 1.0, -1.0)
    assert res.sigma_star == pytest.approx(1.0, rel=1e-9)
    assert res.side == "limit_at_infinity"


def test_sigma_star_ssvi_boundary():
    rho = 0.6
    res = sigma_star(0.8, 2.0 / (1 + rho), rho, -rho / 0.8)
    assert res.sigma_star == pytest.approx(0.8, rel=1e-9)
    assert res.side == "limit_at_infinity"


def test_sigma_star_roger_lee_violation():
    with pytest.raises(RogerLeeViolation):
        sigma_star(1.0, 1.5, 0.5, 0.0)


def test_sigma_star_fukasawa_violation():
    with pytest.raises(FukasawaViolation):
        sigma_star(1.0, 2.0, 0.0, 1.5)  # mu outside (-gamma, gamma)
    with pytest.raises(FukasawaViolation):
        sigma_star(0.0, 0.5, 1.0, 2.0)  # above sqrt(3(1-b))


def test_sigma_star_negative_level_at_unit_rho_is_invalid():
    with pytest.raises(InvalidParamsError):
        sigma_star(-0.1, 0.5, 1.0, -1.0)


def test_sigma_star_vanishing_just_below_the_wing_boundary():
    # 2 - b*(1 + rho) = 1.4e-10 exceeds the wing-boundary tolerance 1e-10, so
    # the bound is the mirrored curve sqrt(3(1-b)), not the limit b*gamma/2 = 0
    b = 1.0 - 7e-11
    upper = mu_interval(0.0, b, 1.0).upper
    assert upper == pytest.approx(math.sqrt(3.0 * (1.0 - b)), rel=1e-5)
    assert math.isfinite(sigma_star(0.0, b, 1.0, 0.0).sigma_star)


def _ssvi_at(slope: float, rho: float) -> SsviParams:
    return SsviParams(theta=2.0 * slope / (1.0 + abs(rho)), phi=1.0, rho=rho)


def _ssvi_shape(slope: float, rho: float) -> tuple[float, float, float, float]:
    p = _ssvi_at(slope, rho)
    return (p.gamma, p.b, p.rho, p.mu)


# per family at the steeper wing's slope s: its certifier, its parameters
# and the shape the oracle takes
SLOPE_CASES = {
    "symmetric": (
        symmetric.certify,
        lambda s: SymmetricParams(gamma=0.5, b=s, sigma=1.0),
        lambda s: (0.5, s, 0.0, 0.0),
    ),
    "vanishing-up": (
        vanishing.certify,
        lambda s: VanishingParams(b=s / 2.0, mu=-0.5, sigma=1.0),
        lambda s: (0.0, s / 2.0, 1.0, -0.5),
    ),
    "vanishing-down": (
        vanishing.certify,
        lambda s: VanishingParams(b=s / 2.0, mu=0.5, sigma=1.0, direction="downward"),
        lambda s: (0.0, s / 2.0, -1.0, 0.5),
    ),
    "ssvi": (ssvi.certify, lambda s: _ssvi_at(s, 0.4), lambda s: _ssvi_shape(s, 0.4)),
    "ssvi-negative-rho": (
        ssvi.certify,
        lambda s: _ssvi_at(s, -0.4),
        lambda s: _ssvi_shape(s, -0.4),
    ),
}


@pytest.mark.parametrize("family", sorted(SLOPE_CASES))
@pytest.mark.parametrize("k", [-2.0, -0.5, 0.5, 2.0])
def test_certifier_and_oracle_share_the_slope_rule(family, k):
    # at the steeper wing's slope 2 + k*BOUNDARY_TOL both routes find the
    # Roger Lee bound kept for k < 1, flagged on it for |k| < 1, and take
    # the wing limit where the slack is 0 (0 <= k < 1); at k = -0.5 the
    # slack is 2.5e-11 and both solve the critical point
    certify, params, shape = SLOPE_CASES[family]
    slope = 2.0 + k * BOUNDARY_TOL
    try:
        res = sigma_star(*shape(slope))
    except RogerLeeViolation:
        res = None
    try:
        cert = certify(params(slope))
    except InvalidParamsError:  # the family's parameters end at the bound
        cert = None
    kept = cert is not None and cert.conditions["roger_lee"]
    assert kept == (res is not None) == (k < 1.0)
    if kept:
        limit = math.isinf(cert.diagnostics.get("argsup", 0.0))
        assert limit == (res.side == "limit_at_infinity") == (0.0 <= k < 1.0)
        assert ("roger_lee" in cert.on_boundary) == (abs(k) < 1.0)
        assert cert.bounds["sigma_star"] == pytest.approx(res.sigma_star, rel=1e-6)


def test_sigma_star_sides_for_decorrelated():
    r_pos = sigma_star(0.8, 1.0, 0.0, 0.4)
    r_neg = sigma_star(0.8, 1.0, 0.0, -0.4)
    assert r_pos.side == "right" and r_pos.argsup_l > 0
    assert r_neg.side == "left" and r_neg.argsup_l < 0
    assert r_pos.sigma_star == pytest.approx(r_neg.sigma_star, rel=1e-9)


def test_sigma_star_inversion_invariance():
    rng = np.random.default_rng(5)
    for _ in range(15):
        rho = rng.uniform(-0.9, 0.9)
        gamma = rng.uniform(-0.3, 2.0)
        b = rng.uniform(0.1, 0.95) * 2.0 / (1 + abs(rho))
        from smile_domain import mu_interval

        iv = mu_interval(gamma, b, rho)
        if iv.is_empty:
            continue
        mu = 0.5 * (iv.lower + iv.upper)
        a = sigma_star(gamma, b, rho, mu).sigma_star
        bb = sigma_star(gamma, b, -rho, -mu).sigma_star
        assert a == pytest.approx(bb, rel=1e-9)


def test_reciprocity_at_supremum():
    nsvi = NormalizedSvi(gamma=0.5, b=1.0, rho=0.3, mu=-0.1, sigma=1.0)
    arg, sup = oracle._wing_sup(nsvi.gamma, nsvi.b, nsvi.rho, nsvi.mu)
    dual = sigma_floor_dual(arg, nsvi)
    assert sup == pytest.approx(nsvi.b / (2.0 * dual), rel=1e-9)
    assert sigma_floor(arg, nsvi) == pytest.approx(sup, rel=1e-12)


def test_maximize_side_dispatch():
    # side s searches the right wing of (gamma, b, s*rho, s*mu), as sigma_star does
    gamma, b, rho, mu = 0.5, 1.0, 0.0, 0.3
    arg_r, sup_r = oracle._wing_sup(gamma, b, rho, mu)
    arg_l, sup_l = oracle._wing_sup(gamma, b, -rho, -mu)
    assert arg_r > 0 and arg_l > 0  # -arg_l on the given shape
    assert sup_r > sup_l  # supremum sits on the side matching sign(mu)


_SSVI_UP = SsviParams(theta=1.8, phi=1.0, rho=0.5)
_SSVI_DOWN = SsviParams(theta=1.8, phi=1.0, rho=-0.5)


_SEARCH_SHAPES = [
    ((0.3, 1.2, 0.0, 0.0), 1),
    ((1.0, 2.0, 0.0, 0.5), 1),
    ((_SSVI_UP.gamma, _SSVI_UP.b, _SSVI_UP.rho, _SSVI_UP.mu), 1),
    ((_SSVI_DOWN.gamma, _SSVI_DOWN.b, _SSVI_DOWN.rho, _SSVI_DOWN.mu), 1),
    ((0.0, 0.5, 1.0, -1.0), 1),
    ((0.0, 0.5, -1.0, 1.0), 1),
    ((0.5, 1.0, 0.3, -0.1), 2),
]
_SEARCH_IDS = ["symmetric", "extremal", "ssvi-up", "ssvi-down", "vanishing-up",
               "vanishing-down", "both-wings"]


def _symmetric_critical(rng):
    # an interior symmetric shape and the certifier's critical point z, as l
    while True:
        gamma = rng.uniform(-0.99, 3.0)
        b = rng.uniform(0.05, 0.97) * symmetric.g_tilde(gamma)
        z = symmetric.certify(SymmetricParams(gamma=gamma, b=b, sigma=1.0)).diagnostics.get("z")
        if z is not None:
            return (gamma, b, 0.0, 0.0), math.sqrt((1.0 - z) * (1.0 + z)) / z


def _vanishing_critical(sign):
    # an interior vanishing shape of direction sign(rho) and the certifier's
    # critical point x, as l; the downward smile is the upward one's mirror
    def draw(rng):
        b = rng.uniform(0.05, 0.98)
        mu_up = vanishing.fukasawa_bound(b) - rng.uniform(0.05, 3.0)
        direction = "upward" if sign > 0.0 else "downward"
        x = vanishing.certify(VanishingParams(b, sign * mu_up, 1.0, direction)).diagnostics["x"]
        return (0.0, b, sign, sign * mu_up), sign * x / math.sqrt((1.0 - x) * (1.0 + x))

    return draw


def _ssvi_critical(rng):
    # an interior SSVI slice and the certifier's critical point l in |rho|
    rho = rng.uniform(-0.9, 0.9)
    p = SsviParams(theta=rng.uniform(0.1, 0.97) * 4.0 / (1.0 + abs(rho)), phi=1.0, rho=rho)
    return (p.gamma, p.b, p.rho, p.mu), math.copysign(ssvi.certify(p).diagnostics["l"], rho)


@pytest.mark.parametrize(
    "draw, seed",
    [(_symmetric_critical, 31), (_vanishing_critical(1.0), 37),
     (_vanishing_critical(-1.0), 41), (_ssvi_critical, 43)],
    ids=["symmetric", "vanishing-up", "vanishing-down", "ssvi"],
)
def test_argsup_is_the_certifiers_critical_point(draw, seed):
    # the oracle's root of the critical-point residual and each certifier's
    # own root, in z, x and l, are the same stationary point; symmetric and
    # vanishing solve independent bodies, while SSVI's certifier evaluates
    # the same core._critical_at, so its case is a consistency check only
    rng = np.random.default_rng(seed)
    for _ in range(50):
        shape, l = draw(rng)
        assert sigma_star(*shape).argsup_l == pytest.approx(l, rel=1e-12)


@pytest.mark.parametrize("shape, zeros", _SEARCH_SHAPES, ids=_SEARCH_IDS)
def test_sigma_star_search_reaches_the_mpmath_supremum(monkeypatch, shape, zeros):
    # the requirement at the residual's root is the supremum to rounding,
    # and never below the best value of the wing scans it refines
    runs = []
    argmax = np.argmax

    def recording(vals):
        runs.append(np.max(vals))
        return argmax(vals)

    monkeypatch.setattr(np, "argmax", recording)
    sup = sigma_star(*shape).sigma_star
    assert len(runs) == zeros
    assert sup >= max(runs)
    assert sup == pytest.approx(_mp_sup(*shape), rel=2e-15)


@pytest.mark.parametrize("shape, zeros", _SEARCH_SHAPES, ids=_SEARCH_IDS)
def test_sigma_star_solves_one_g2_zero_per_wing(monkeypatch, shape, zeros):
    # each searched wing is one _wing_sup call, whose scan also finds its zero
    rhos = []
    wing_sup = oracle._wing_sup

    def counting(gamma, b, rho, mu):
        rhos.append(rho)
        return wing_sup(gamma, b, rho, mu)

    monkeypatch.setattr(oracle, "_wing_sup", counting)
    sigma_star(*shape)
    assert len(rhos) == zeros


def test_sigma_star_never_solves_for_the_g2_zero(monkeypatch):
    before = [sigma_star(*shape) for shape, _ in _SEARCH_SHAPES]

    def refuse(gamma, rho):
        raise AssertionError("sigma_star solved for a zero of g2")

    monkeypatch.setattr(oracle, "_right_zero", refuse)
    assert [sigma_star(*shape) for shape, _ in _SEARCH_SHAPES] == before


@pytest.mark.parametrize("rho", [-(1.0 - 1e-12), -0.7, 0.0, 0.4, 1.0 - 1e-12, 1.0])
def test_wing_scan_ends_at_the_g2_zero(monkeypatch, rho):
    # the run of g2 < 0 that _wing_sup takes its argmax over ends where the
    # grid passes the solved zero l2, inside and on the wing-slope bound and
    # within 1e-9 of the level floor
    runs = []
    argmax = np.argmax

    def recording(vals):
        runs.append(len(vals))
        return argmax(vals)

    monkeypatch.setattr(np, "argmax", recording)
    floor = -math.sqrt((1.0 - rho) * (1.0 + rho))
    for gamma in (floor + 1e-9, floor + 1e-3, 0.5, 40.0):
        for b in (0.5, 2.0 / (1.0 + rho)):
            oracle._wing_sup(gamma, b, rho, 0.0)
            u2 = 1.0 / oracle._right_zero(gamma, rho)
            assert runs.pop() == np.searchsorted(core._u_grid()[0], u2)
            assert not runs


@pytest.mark.parametrize(
    "shape", [(-0.999999999, 0.5, 0.0, 0.0), (-0.714142841854285, 0.5, -0.7, 0.0)]
)
def test_wing_sup_returns_the_scan_point_across_a_pole(shape):
    # off mu_interval G1 vanishes on the wing, so f has a pole next to the
    # scan's best point and the critical-point residual keeps its sign
    # across the bracket: the scan's best point is returned unrefined
    with pytest.raises(FukasawaViolation):
        sigma_star(*shape)
    arg, sup = oracle._wing_sup(*shape)
    assert arg in 1.0 / core._u_grid()[0][1:]
    assert sup == pytest.approx(sigma_floor(arg, NormalizedSvi(*shape, sigma=1.0)), rel=1e-9)


@pytest.mark.parametrize(
    "gamma, b, mu",
    [(0.0, 0.5, 1.0), (0.5, 0.8, 0.5), (0.3, 0.6, 0.0), (0.0, 1.0, 2.0), (1.0, 1.0, -0.2)],
)
def test_sigma_star_rho_minus_one_is_the_mirror_of_rho_one(gamma, b, mu):
    down = sigma_star(gamma, b, -1.0, mu)
    up = sigma_star(gamma, b, 1.0, -mu)
    assert down.sigma_star == up.sigma_star
    assert down.argsup_l == -up.argsup_l
    mirrored = {"right": "left", "limit_at_infinity": "limit_at_infinity"}
    assert down.side == mirrored[up.side]


# extremal shapes with |q| near 1: in the far tail G1 rounds to 0
GAMMA_NEAR_UNIT_Q = 0.17749082696424115


def test_sigma_star_extremal_near_unit_q():
    q = -0.9999999
    res = sigma_star(GAMMA_NEAR_UNIT_Q, 2.0, 0.0, q * GAMMA_NEAR_UNIT_Q)
    assert res.side == "limit_at_infinity"
    assert res.sigma_star == pytest.approx(
        sigma_bound(GAMMA_NEAR_UNIT_Q, q), rel=1e-6
    )


def test_sigma_star_extremal_limit_of_rounded_shape():
    # rounding mu = q*gamma moves gamma - |mu| by about 5e-5 relative here;
    # the oracle returns the left-wing limit of the shape it is given
    q = -0.9999999999999667
    mu = q * GAMMA_NEAR_UNIT_Q
    res = sigma_star(GAMMA_NEAR_UNIT_Q, 2.0, 0.0, mu)
    assert res.side == "limit_at_infinity"
    assert res.argsup_l == -math.inf
    assert res.sigma_star == 1.0 / (GAMMA_NEAR_UNIT_Q - abs(mu))


@pytest.mark.parametrize(
    "gamma, q", [(1.0, 0.5), (0.3, -0.7), (4.0, 0.0), (GAMMA_NEAR_UNIT_Q, -0.9999999)]
)
def test_sigma_star_extremal_tail_needs_no_search(monkeypatch, gamma, q):
    # on the wing-slope bound the wing scan's best point is its first, u = 0,
    # the point at infinity: its value is the limit, returned with no search
    calls = []
    monkeypatch.setattr(oracle, "brentq", lambda *args, **kwargs: calls.append(args))
    res = sigma_star(gamma, 2.0, 0.0, q * gamma)
    assert res.side == "limit_at_infinity"
    assert res.sigma_star == pytest.approx(1.0 / (gamma - abs(q * gamma)), rel=1e-14)
    assert not calls


def test_sigma_floor_scalar_infinite_where_g1_rounds_to_zero():
    gamma = GAMMA_NEAR_UNIT_Q
    nsvi = NormalizedSvi(gamma=gamma, b=2.0, rho=0.0, mu=0.9999999 * gamma, sigma=1.0)
    l = 93115849.91588135
    with np.errstate(divide="ignore"):
        arr = sigma_floor(np.array([l]), nsvi)
    assert sigma_floor(l, nsvi) == arr[0] == math.inf


def test_wing_grid_ends_at_the_point_at_infinity():
    # the zero of g2 and the wing scan share one grid in u = 1/l: from u = 0,
    # l = +inf, to l = 1e-6, with the terms of its points built once
    us = core._u_grid()[0]
    assert us[0] == 0.0 and us[-1] == 1e6 and np.all(np.diff(us) > 0.0)
    a, c = core._u_grid()[1][:2]
    assert (a[0], c[0]) == (1.0, 0.0)
    assert np.allclose(c[1:] / a[1:], us[1:], rtol=1e-15, atol=0.0)
    assert np.all(np.maximum(a, c) == 1.0)
    for term in (us, *core._u_grid()[1]):
        assert term.shape == us.shape
        assert not term.flags.writeable


@pytest.mark.parametrize(
    "gamma, b, rho, mu",
    [(0.5, 1.0, 0.3, -0.1), (0.2, 0.6, -0.7, 0.3), (0.3, 1.2, 0.0, 0.1),
     (1.0, 2.0, 0.0, 0.5), (0.5, 0.8, 1.0, -0.5)],
)
def test_oracle_builds_no_grid_per_call(monkeypatch, gamma, b, rho, mu):
    # the scan grids' shape-independent parts are built once, on first use
    def no_geomspace(*args, **kwargs):
        raise AssertionError("np.geomspace called per call")

    sigma_star(gamma, b, rho, mu)
    monkeypatch.setattr(np, "geomspace", no_geomspace)
    assert sigma_star(gamma, b, rho, mu).sigma_star > 0.0
    assert mu_interval(gamma, b, rho).contains(mu)
    assert -1.0 <= fukasawa_threshold(b, rho) <= 0.0


# ---------------------------------------------------------------------------
# near |rho| = 1: the wing reaches past any fixed end in l
# ---------------------------------------------------------------------------
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _mp_sup(gamma, b, rho, mu):
    """Supremum of f over both wings in mpmath (60 digits): 20 points per
    decade of u = 1/l in [1e-20, 1e4], then golden section between the
    best point's neighbours; the left wing is the mirror's right one."""
    from mpmath import mp, mpf, sqrt as msqrt

    with mp.workdps(60):
        def f(u, r, m):
            l = 1 / u
            s = msqrt(l * l + 1)
            n, n1 = gamma + r * l + s, r + l / s
            h, g = 1 - n1 * (l + m) / (2 * n), n1 / 4
            return -b * (1 / s**3 - n1 * n1 / (2 * n)) / (2 * (h - b * g) * (h + b * g))

        best = mpf(0)
        for r, m in ((mpf(rho), mpf(mu)), (-mpf(rho), -mpf(mu))):
            us = [mpf(10) ** (mpf(k) / 20) for k in range(-400, 81)]
            vals = [f(u, r, m) for u in us]
            i = max(range(len(us)), key=vals.__getitem__)
            lo, hi = us[max(i - 1, 0)], us[min(i + 1, len(us) - 1)]
            for _ in range(150):
                x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
                lo, hi = (lo, x2) if f(x1, r, m) > f(x2, r, m) else (x1, hi)
            best = max(best, f((lo + hi) / 2, r, m))
        return float(best)


@pytest.mark.parametrize(
    "shape",
    [(0.3, 0.5, 1.0 - 1e-14, 0.0), (2.0, 0.5, 1.0 - 1e-12, 1.0),
     (0.3, 0.5, -1.0 + 1e-14, 0.0), (2.0, 0.99, 1.0 - 1e-12, -5.0)],
)
def test_sigma_star_near_unit_rho_matches_an_mpmath_supremum(shape):
    # the zero of g2 on the wing of correlation near -1 lies 1e9 to 1e10
    # past the smile minimum; u = 0 ends its bracket, so sigma* returns,
    # within a tenth of the benchmark's GAP_TOL = 1e-6 of the reference
    assert sigma_star(*shape).sigma_star == pytest.approx(_mp_sup(*shape), rel=1e-7)


@pytest.mark.parametrize("gamma", [1e30, 1e40, 1e50, 1e80, 1e100, 1e200])
@pytest.mark.parametrize("b, rho", [(0.9, 0.0), (1.0, 0.5), (1.0, -0.5), (1.0, 0.9)])
def test_sigma_star_at_large_gamma_is_positive_or_fails_typed(gamma, b, rho):
    # the requirement is positive wherever it binds: a supremum of 0 (f
    # underflows on the grid from 1e50) or a solve that does not converge
    # (from 1e40 at rho = 0.9) is a failed evaluation
    try:
        res = sigma_star(gamma, b, rho, 0.0)
    except SmileDomainError:
        return
    assert res.sigma_star > 0.0


def test_sigma_star_keeps_its_value_at_gamma_1e30():
    assert 1e30 * sigma_star(1e30, 1.0, 0.5, 0.0).sigma_star == 0.6771243444677048


@pytest.mark.parametrize("rho", [0.3, -0.6, 0.9])
@pytest.mark.parametrize("factor", [1.0 - 1e-13, 1.0 + 1e-13])
def test_sigma_star_next_to_an_ssvi_shape_matches_it(rho, factor):
    # an exact SSVI shape searches one side, a shape 1e-13 off it both
    p = SsviParams(theta=1.0, phi=1.0, rho=rho)
    exact = sigma_star(p.gamma, p.b, rho, p.mu).sigma_star
    near = sigma_star(p.gamma * factor, p.b, rho, p.mu).sigma_star
    assert near == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_durrleman_check_sees_an_argsup_past_l_1e6():
    # the seed-1 ssvi / rho_to_1 census draw: sigma* is attained at l about
    # -1.07e7, where the density dips below 0 just below sigma* only
    p = SsviParams(theta=1090667.5587381928, phi=1.3876410324361598e-06, rho=-0.9999999999999898)
    res = sigma_star(p.gamma, p.b, p.rho, p.mu)
    assert res.argsup_l < -1e6
    for factor, negative in ((1.0 - 1e-3, True), (1.0 + 1e-3, False)):
        shape = NormalizedSvi(p.gamma, p.b, p.rho, p.mu, res.sigma_star * factor)
        assert (durrleman_check(shape.to_raw()).min_value < 0.0) == negative


@pytest.mark.parametrize(
    "shape",
    [(0.9198162387749919, 1.0000000000005e-12, -0.999999999999, -2.8905739498069085),
     (-0.46536476068269755, 1.5351089485604304e-12, -0.30283912544157043, 1.8317191046290953)],
)
def test_sigma_star_where_the_best_grid_point_is_the_wings_last(shape):
    # the best grid point's right neighbour lies past the zero of g2, where
    # f < 0 has a critical point of its own: the bracket ends at the wing's
    # end instead (the first shape was 3.0x low, the second 6.4 % low),
    # within the benchmark's GAP_TOL = 1e-6 of the reference
    assert sigma_star(*shape).sigma_star == pytest.approx(_mp_sup(*shape), rel=1e-6)


def test_a_bracket_to_the_wing_grids_finite_end_fails_typed():
    # gamma one ulp above the floor, rho > 0 and a subnormal b: the level
    # curve has one sign from the grid's last point to its finite end
    shape = (-0.9999999999999999, 1e-323, 2.220446049250313e-16)
    with pytest.raises(SmileDomainError):
        mu_interval(*shape)
    with pytest.raises(SmileDomainError):
        sigma_star(*shape, 5.194240041540733e-07)


@settings(max_examples=300, deadline=None)
@given(
    rho=st.sampled_from([5e-324, 1e-16, 1e-8, 0.5, 1.0 - 1e-10]),
    ulps=st.integers(1, 8),
    t=st.floats(5e-324, 1.0),
    frac=st.floats(0.0, 1.0),
)
def test_wing_conditions_next_to_the_gamma_floor_return_or_fail_typed(rho, ulps, t, frac):
    # gamma a few ulps above -sqrt(1 - rho^2), b from 5e-324 to the slope
    # bound: a value or a SmileDomainError, never a bare error
    gamma = -math.sqrt((1.0 - rho) * (1.0 + rho))
    for _ in range(ulps):
        gamma = math.nextafter(gamma, 0.0)
    b = max(t * 2.0 / (1.0 + rho), 5e-324)
    mu = 0.0
    try:
        iv = mu_interval(gamma, b, rho)
        if not iv.is_empty:
            mu = iv.lower + frac * (iv.upper - iv.lower)
    except SmileDomainError:
        pass
    try:
        assert sigma_star(gamma, b, rho, mu).sigma_star > 0.0
    except SmileDomainError:
        pass


# ---------------------------------------------------------------------------
# density check
# ---------------------------------------------------------------------------
def test_durrleman_inside_domain_nonnegative():
    cases = [
        VanishingParams(b=0.5, mu=-1.0, sigma=1.0).to_raw(),
        ExtremalParams(gamma=1.0, q=0.5, sigma=2.5).to_raw(),
        SymmetricParams(gamma=1.0, b=1.6, sigma=0.4).to_raw(),
    ]
    for raw in cases:
        rep = durrleman_check(raw)
        assert rep.min_value >= -1e-10


def test_durrleman_flags_sub_boundary():
    # 0.1% below the exact threshold must be caught somewhere on the grid
    shapes = [
        (0.0, 0.5, 1.0, -1.0),
        (1.0, 2.0, 0.0, 0.5),
        (1.0, 1.6, 0.0, 0.0),
    ]
    for gamma, b, rho, mu in shapes:
        star = sigma_star(gamma, b, rho, mu).sigma_star
        nsvi = NormalizedSvi(gamma=gamma, b=b, rho=rho, mu=mu, sigma=star)
        assert durrleman_check(nsvi.to_raw()).min_value >= -1e-8
        low = NormalizedSvi(
            gamma=gamma, b=b, rho=rho, mu=mu, sigma=star * (1.0 - 1e-3)
        )
        assert durrleman_check(low.to_raw()).min_value < 0


def test_durrleman_black_scholes_case():
    rep = durrleman_check(RawSviParams(a=0.2, b=0.0, rho=0.0, m=0.0, sigma=1.0))
    assert rep.min_value == 1.0


@pytest.mark.parametrize("sigma", [1e-310, 1e-320])
def test_durrleman_check_at_a_subnormal_sigma_is_never_nan(sigma):
    # b/(2*sigma) overflows to inf; the term's exact 0 at u = 0, l = +inf,
    # keeps its limit 0 instead of becoming inf*0 = NaN
    for rho in (1.0, -1.0, 0.3):
        rep = durrleman_check(RawSviParams(a=0.0, b=0.5, rho=rho, m=0.1 * sigma, sigma=sigma))
        assert rep.min_value == -math.inf or rep.min_value < 0.0
        assert not math.isnan(rep.min_value)


def test_normalization_at_a_subnormal_b_sigma_divides_in_two_steps():
    # b*sigma underflows to 0 at sigma = 5e-324; gamma = a/(b*sigma) is then
    # a/b/sigma, exactly 0 at a = 0, and the check's minimum is -inf
    raw = RawSviParams(a=0.0, b=0.5, rho=1.0, m=0.0, sigma=5e-324)
    assert raw.normalized().gamma == 0.0
    assert durrleman_check(raw).min_value == -math.inf
    # the bits of a/(b*sigma) wherever the product is a normal float
    for a, b, sigma in ((0.3, 0.7, 1.1), (1e-300, 0.5, 1e-10), (2.0, 1e-150, 1e-150)):
        raw = RawSviParams(a=a, b=b, rho=0.0, m=0.0, sigma=sigma)
        assert raw.normalized().gamma == a / (b * sigma)
    raw = RawSviParams(a=1e-310, b=0.5, rho=0.0, m=0.0, sigma=1e-310)
    assert raw.normalized().gamma == 2.0
    # where no finite gamma exists the failure is typed
    raw = RawSviParams(a=1.0, b=0.5, rho=1.0, m=0.0, sigma=5e-324)
    for fn in (RawSviParams.normalized, durrleman_check):
        with pytest.raises(SmileDomainError):
            fn(raw)


@pytest.mark.parametrize("mu", [-1e160, -1e300, -0.3])
def test_wing_f_on_the_grid_takes_an_overflowing_g1_without_a_warning(mu):
    # h - b*g and h + b*g grow like |mu| on the wing grid, so their product
    # overflows from about |mu| = 1e154; f is 0 there with numpy's warning
    # (an error under this suite's filter) off, and the plain quotient's
    # bits everywhere
    _, terms, _ = core._u_grid()
    w = _wing_slack(0.5, 1.0)
    g2c, hm, hp, _ = _wing_at(terms, 0.0, 0.5, 1.0, mu, w)
    f = oracle._wing_f(terms, 0.0, 0.5, 1.0, mu, w)[1]
    with np.errstate(over="ignore"):
        assert np.array_equal(f, -0.5 / 2.0 * terms[1] * g2c / (hm * hp))


def _density_on_wing_at(raw):
    """The density functional on the check's grid with each half-line one
    core._wing_at evaluation, the left one as the mirror's right half-line;
    a flat wing of |rho| = 1 is +inf at u = 0, where its N*c is 0."""
    nsvi = raw.normalized()
    gamma, b, rho, mu = nsvi.gamma, nsvi.b, nsvi.rho, nsvi.mu
    half_terms = oracle._density_grid()[1]
    halves = []
    for side in (1.0, -1.0):
        t = half_terms if side * rho > -1.0 else tuple(x[:-1] for x in half_terms)
        g2c, hm, hp, _ = _wing_at(t, gamma, b, side * rho, side * mu, _wing_slack(b, side * rho))
        vals = hm * hp + b / (2.0 * nsvi.sigma) * t[1] * g2c
        halves.append(vals if t is half_terms else np.append(vals, math.inf))
    return np.concatenate([halves[1][:0:-1], halves[0]])


def _density_shapes():
    rng = np.random.default_rng(2014)
    raws = []
    for _ in range(12):
        sigma = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        b = rng.uniform(0.02, 0.98)
        for direction in ("upward", "downward"):
            raws.append(VanishingParams(b=b, mu=rng.uniform(-3.0, 1.7), sigma=sigma,
                                        direction=direction).to_raw())
        raws.append(ExtremalParams(gamma=math.exp(rng.uniform(-2.3, 2.3)),
                                   q=rng.uniform(-0.95, 0.95), sigma=sigma).to_raw())
        b = rng.uniform(0.02, 1.98)
        gamma = rng.uniform(max(fukasawa_threshold(b, 0.0) - 0.05, -0.99), 2.0)
        raws.append(SymmetricParams(gamma=gamma, b=b, sigma=sigma).to_raw())
        rho = rng.uniform(-0.95, 0.95)
        phi = math.sqrt((1.0 - rho) * (1.0 + rho)) / sigma
        b = rng.uniform(0.02, 0.98) * 2.0 / (1.0 + abs(rho))
        raws.append(SsviParams(theta=2.0 * b / phi, phi=phi, rho=rho).to_raw())
    for rho in (-0.9, -0.3, 0.0, 0.5, 0.99, 1.0, -1.0):  # on the wing-slope bound
        for gamma in (0.05, 1.0):
            b = 2.0 / (1.0 + abs(rho))
            raws.append(NormalizedSvi(gamma=gamma, b=b, rho=rho, mu=0.4, sigma=0.7).to_raw())
    for rho in (1.0, -1.0):  # flat wings inside the bound
        for gamma, b, mu in ((0.0, 0.5, -1.0), (0.3, 0.9, 2.0), (2.0, 0.2, 0.0)):
            raws.append(NormalizedSvi(gamma=gamma, b=b, rho=rho, mu=mu, sigma=1.3).to_raw())
    return raws


def test_durrleman_check_equals_the_wing_at_evaluation():
    # the two matrix products sum the same terms in another order
    for raw in _density_shapes():
        vals = _density_on_wing_at(raw)
        i = int(np.argmin(vals))
        report = durrleman_check(raw)
        assert abs(report.min_value - vals[i]) <= 1e-15, raw
        assert report.argmin_l == oracle._density_grid()[0][i]
        assert report.n_points == len(vals)


# ---------------------------------------------------------------------------
# verdict preserved under inversion (oracle route)
# ---------------------------------------------------------------------------
def test_arbitrage_status_invariant_under_inversion():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 100:
        rho = rng.uniform(-0.9, 0.9)
        gamma = rng.uniform(-0.2, 2.0)
        b = rng.uniform(0.1, 0.9) * 2.0 / (1 + abs(rho))
        from smile_domain import mu_interval

        iv = mu_interval(gamma, b, rho)
        if iv.is_empty:
            continue
        mu = iv.lower + rng.uniform(0.2, 0.8) * (iv.upper - iv.lower)
        star = sigma_star(gamma, b, rho, mu).sigma_star
        sigma = star * rng.choice([0.7, 1.4])
        raw = NormalizedSvi(gamma=gamma, b=b, rho=rho, mu=mu, sigma=sigma).to_raw()
        v1 = durrleman_check(raw).min_value >= -1e-8
        inverted = RawSviParams(raw.a, raw.b, -raw.rho, -raw.m, raw.sigma)
        v2 = durrleman_check(inverted).min_value >= -1e-8
        assert v1 == v2
        checked += 1


# ---------------------------------------------------------------------------
# closed-form agreement on random admissible draws, per family
# ---------------------------------------------------------------------------
def test_oracle_vs_closed_form_random_draws():
    import smile_domain.ssvi as ss
    import smile_domain.symmetric as sym
    import smile_domain.vanishing as van

    rng = np.random.default_rng(101)
    worst = 0.0

    for _ in range(25):  # vanishing
        b = rng.uniform(0.05, 0.95)
        x0 = van.x_plus_star(b)
        x = x0 + rng.uniform(0.02, 0.98) * (1 - x0)
        closed = van.sigma_star_closed(x, b)
        got = sigma_star(0.0, b, 1.0, van.mu_star(x, b)).sigma_star
        worst = max(worst, abs(got - closed) / closed)

    for _ in range(25):  # extremal
        gamma = rng.uniform(0.3, 4.0)
        q = rng.uniform(-0.85, 0.85)
        closed = sigma_bound(gamma, q)
        got = sigma_star(gamma, 2.0, 0.0, q * gamma).sigma_star
        worst = max(worst, abs(got - closed) / closed)

    n = 0
    while n < 25:  # symmetric
        gamma = rng.uniform(-0.98, 3.0)
        za, zb = sym.z_interval(gamma)
        if abs(zb - za) < 1e-6:
            continue
        z = za + rng.uniform(0.05, 0.95) * (zb - za)
        closed = sym.sigma_star_closed(z, gamma)
        got = sigma_star(gamma, sym.b_star(z, gamma), 0.0, 0.0).sigma_star
        worst = max(worst, abs(got - closed) / closed)
        n += 1

    for _ in range(25):  # ssvi
        rho = rng.uniform(0.0, 0.95)
        b = rng.uniform(0.1, 0.97) * 2.0 / (1.0 + rho)
        l = ss.l_from_b(b, rho)
        closed = ss.sigma_star_closed(l, rho)
        root = math.sqrt(1 - rho * rho)
        got = sigma_star(root, b, rho, -rho / root).sigma_star
        worst = max(worst, abs(got - closed) / closed)

    assert worst <= 1e-6


@pytest.mark.parametrize(
    "certify, params, shape",
    [
        # SSVI at b = 1e-8, rho = 0.5: the sweep endpoint, where b*(l) raises
        (
            ssvi.certify,
            SsviParams(theta=2e-8, phi=1.0, rho=0.5),
            (math.sqrt(0.75), 1e-8, 0.5, -0.5 / math.sqrt(0.75)),
        ),
        # symmetric near gamma = -1: the root z is ill-conditioned there
        (
            symmetric.certify,
            SymmetricParams(gamma=-0.99999, b=0.001, sigma=1.0),
            (-0.99999, 0.001, 0.0, 0.0),
        ),
        # vanishing near b = 1: the root x is ill-conditioned there
        (
            vanishing.certify,
            VanishingParams(b=0.999999, mu=0.0, sigma=1.0),
            (0.0, 0.999999, 1.0, 0.0),
        ),
    ],
)
def test_certifiers_evaluate_at_the_given_parameter_near_edges(certify, params, shape):
    closed = certify(params).bounds["sigma_star"]
    got = sigma_star(*shape).sigma_star
    assert abs(closed - got) <= 1e-9 * got
