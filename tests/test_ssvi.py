from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from smile_domain import (
    EvaluationDomainError,
    InvalidParamsError,
    NormalizedSvi,
    RogerLeeViolation,
    durrleman_check,
    hgg2,
    mu_interval,
    oracle,
    sigma_star,
    ssvi,
)
from smile_domain.ssvi import (
    X_M2_RHO0,
    X_M2_RHO1,
    HestonLtParams,
    SsviParams,
    UniquenessReport,
    b_star,
    certify,
    gj_sufficient,
    heston_to_ssvi,
    j2_x,
    l2_closed,
    l_bar_zero,
    l_from_b,
    lt_heston_b,
    lt_heston_threshold,
    m2,
    scan_uniqueness,
    sigma_star_closed,
    subdomain_bound,
    subdomain_check,
    uniqueness_target,
    x_of_rho,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def _shape(rho: float, b: float = 1.0) -> NormalizedSvi:
    root = math.sqrt(1 - rho * rho)
    return NormalizedSvi(gamma=root, b=b, rho=rho, mu=-rho / root, sigma=1.0)


# ---------------------------------------------------------------------------
# parameter mapping
# ---------------------------------------------------------------------------
def test_params_mapping_round_trip():
    p = SsviParams(theta=0.3, phi=1.4, rho=-0.4)
    raw = p.to_raw()
    assert raw.a == pytest.approx(0.3 * (1 - 0.16) / 2, rel=1e-14)
    assert raw.b == pytest.approx(0.3 * 1.4 / 2, rel=1e-14)
    assert raw.m == pytest.approx(0.4 / 1.4, rel=1e-14)
    q = SsviParams.from_raw(raw)
    assert q.theta == pytest.approx(p.theta, rel=1e-12)
    assert q.phi == pytest.approx(p.phi, rel=1e-12)
    n = p.normalized()
    assert n.gamma == pytest.approx(math.sqrt(1 - 0.16), rel=1e-14)
    assert n.mu == pytest.approx(n.l_star, rel=1e-14)


def test_from_raw_rejects_non_ssvi():
    from smile_domain import RawSviParams

    with pytest.raises(InvalidParamsError):
        SsviParams.from_raw(RawSviParams(a=0.2, b=0.5, rho=0.3, m=0.0, sigma=1.0))


def test_from_raw_rejects_a_relative_1e_8_off_the_shape():
    from smile_domain import RawSviParams

    rho, b, sigma = 0.3, 0.8, 1.2
    root = math.sqrt((1.0 - rho) * (1.0 + rho))
    a = b * sigma * root * (1.0 + 1e-8)
    with pytest.raises(InvalidParamsError):
        SsviParams.from_raw(RawSviParams(a=a, b=b, rho=rho, m=-rho * sigma / root, sigma=sigma))


def test_params_validation():
    with pytest.raises(InvalidParamsError):
        SsviParams(theta=0.0, phi=1.0, rho=0.0)
    with pytest.raises(InvalidParamsError):
        SsviParams(theta=1.0, phi=1.0, rho=1.0)


@pytest.mark.parametrize("field", ["theta", "phi", "rho"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_fields(field, bad):
    kw = {"theta": 0.3, "phi": 1.4, "rho": -0.4, field: bad}
    with pytest.raises(InvalidParamsError, match="non-finite"):
        SsviParams(**kw)


# ---------------------------------------------------------------------------
# closed forms in x
# ---------------------------------------------------------------------------
def test_x_of_rho_solves_cubic():
    for rho in np.linspace(0.0, 1.0, 50):
        x = x_of_rho(float(rho))
        assert abs(4 * x**3 - 3 * x + rho) <= 1e-13


def test_x_of_rho_decreasing():
    xs = [x_of_rho(float(r)) for r in np.linspace(0.0, 1.0, 40)]
    assert np.all(np.diff(xs) < 0)
    assert xs[0] == pytest.approx(math.sqrt(3) / 2, rel=1e-14)
    assert xs[-1] == pytest.approx(0.5, rel=1e-14)


def test_l2_closed_values_and_residuals():
    assert l2_closed(0.0) == pytest.approx(math.sqrt(3.0), rel=1e-13)
    assert l2_closed(1.0) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-13)
    for rho in np.linspace(0.0, 0.99, 30):
        rho = float(rho)
        l2 = l2_closed(rho)
        _, _, g2v = hgg2(l2, _shape(rho))
        assert abs(g2v) <= 1e-12


def test_m2_endpoint_and_fixed_point():
    assert m2(0.0) == pytest.approx(X_M2_RHO0, abs=1e-12)
    assert m2(1.0) == pytest.approx(X_M2_RHO1, abs=1e-12)
    assert m2(2.0 / math.sqrt(5.0)) == pytest.approx(2.0 / math.sqrt(5.0), rel=1e-12)


def test_m2_is_curvature_critical_point():
    # the defining equation of the curvature minimizer holds at x_m2
    for rho in (0.0, 0.3, 0.7, 1.0):
        x = m2(rho)
        rb = math.sqrt(1 - rho * rho)
        sx = math.sqrt(1 - x * x)
        u = rho * x + rb * sx + 1.0
        residual = (x + rho) ** 3 - 2 * (1 - x * x) * u * (3 * x * u + x + rho)
        assert abs(residual) <= 1e-10


def test_j2_x_matches_l_space():
    for rho in (0.0, 0.5):
        for x in (0.6, 0.8, 0.95):
            l = x / math.sqrt(1 - x * x)
            _, _, g2v = hgg2(l, _shape(rho))
            assert j2_x(x, rho) == pytest.approx(g2v, rel=1e-12)


# ---------------------------------------------------------------------------
# b* sweep
# ---------------------------------------------------------------------------
def test_l_bar_zero_values():
    assert l_bar_zero(0.0) == pytest.approx(math.sqrt(9 + 4 * math.sqrt(6)), abs=1e-10)
    assert l_bar_zero(1.0) == math.inf
    lbar = l_bar_zero(0.5)
    assert lbar > l2_closed(0.5)
    assert b_star(lbar * (1 + 1e-7), 0.5) < 1e-2


def _u_end(rho):
    # l_from_b's far bracket end u = 1/l at x = max(x2, rho)
    x = max(x_of_rho(rho), rho)
    return math.sqrt((1.0 - x) * (1.0 + x)) / x


def test_l_bar_zero_bracket_signs():
    # p/c^2 is (1+rho)/4 at u = 0 and negative at the far end
    for rho in (0.0, 0.3, 0.5, 0.8, 1.0 - 1e-7, 1.0 - 1e-12, math.nextafter(1.0, 0.0)):
        assert ssvi._pq(0.0, rho)[3] == pytest.approx((1.0 + rho) / 4.0, rel=1e-15)
        assert ssvi._pq(_u_end(rho), rho)[3] < 0


def test_l_bar_zero_bracket_has_one_sign_change():
    # sign-change count of p/c^2 on a dense grid over l_bar_zero's bracket in
    # u: one, next to rho = 1 too, where the root is the 50-digit one
    for rho in (0.0, 0.3, 0.6, 0.9, 0.99, 0.999, 1.0 - 1e-9):
        grid = np.linspace(0.0, _u_end(rho), 20_000)
        assert int(np.sum(np.diff(np.sign(ssvi._pq(grid, rho)[3])) != 0)) == 1
    assert l_bar_zero(1.0 - 1e-9) == pytest.approx(_l_bar_mp(1.0 - 1e-9), rel=1e-13)


_BRACKET_RHOS = [0.0, 5e-324, 1e-16, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-9,
                 1.0 - 1e-12, 1.0 - 1e-15, 1.0 - 2.0**-53]


def _b_fractions(rho):
    """b from 1e-300 of the slope bound up to the last b whose slack is
    above 2^-52, the largest at which the critical point is finite."""
    b_max = 2.0 / (1.0 + rho)
    last = b_max
    while ssvi._wing_slack(last, rho) == 0.0:
        last = math.nextafter(last, 0.0)
    fracs = (1e-300, 1e-100, 1e-13, 1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12)
    return [t * b_max for t in fracs if t * b_max < last] + [last]


@pytest.mark.parametrize("rho", _BRACKET_RHOS)
def test_critical_point_bracket_has_its_signs_for_every_b(rho):
    # l_from_b's bracket is l_bar_zero's [0, _u_end(rho)].  The residual
    # h*p - b^2*g*q is positive at u = 0 inside the slope bound; at the far
    # end it is affine in b^2 and negative at b = 0 and at the bound, where
    # it is at most -2/3*|h*p|, so negative for every admissible b
    end, b_max = ssvi._u_end(rho), 2.0 / (1.0 + rho)
    assert end == _u_end(rho)
    at_b0 = ssvi._critical_residual(end, 0.0, rho)
    assert at_b0 < 0.0
    assert ssvi._critical_residual(end, b_max, rho) <= -2.0 / 3.0 * abs(at_b0)
    for b in _b_fractions(rho):
        assert ssvi._critical_residual(0.0, b, rho) > 0.0
        assert ssvi._critical_residual(end, b, rho) < 0.0
        l = l_from_b(b, rho)
        assert 1.0 / end <= l < math.inf
    # one objective for both roots: at b = 0 the residual is h*p, h > 0
    assert l_bar_zero(rho) == l_from_b(0.0, rho)


def test_certificates_do_not_solve_for_the_sweep_end(monkeypatch):
    # l_bar(0, rho) is only a bracket end for the critical point, and the
    # bracket is in closed form
    def refuse(rho):
        raise AssertionError("solved for l_bar(0, rho)")

    monkeypatch.setattr(ssvi, "l_bar_zero", refuse)
    for rho in (-0.9, -0.3, 0.0, 0.5, 0.99, 1.0 - 1e-12):
        for t in (1e-300, 1e-6, 0.5, 1.0 - 1e-9, 1.0):
            b = t * 2.0 / (1.0 + abs(rho))
            assert math.isfinite(certify(SsviParams(theta=2.0 * b, phi=1.0, rho=rho)).bounds["sigma_star"])
            assert l_from_b(b, abs(rho)) > 0.0


def _phi_num_mp(x, rho):
    from mpmath import sqrt as msqrt

    rb = msqrt((1 - rho) * (1 + rho))
    sx = msqrt((1 - x) * (1 + x))
    u = 1 + rho * x + sx * rb
    return -2 * u * u * sx * (x * sx * (3 * rb + sx) + x + rho) + (x + rho) ** 3 * (sx + rb)


def _l_bar_mp(rho):
    # the b -> 0 critical point as the 50-digit root x of the sweep-end
    # polynomial in x = l/sqrt(l^2+1), bracketed from max(x2, rho)
    from mpmath import findroot, mp, mpf, sqrt as msqrt

    with mp.workdps(50):
        r = mpf(float(rho))
        lo = max(mpf(x_of_rho(float(rho))), r)
        x = findroot(lambda t: _phi_num_mp(t, r), (lo, mpf(1.0 - 1e-14)), solver="anderson")
        return float(x / msqrt((1 - x) * (1 + x)))


def test_l_bar_zero_matches_a_50_digit_root():
    for rho in [*np.linspace(0.0, 0.99, 12), 0.995, 0.999, 1.0 - 1e-7, 1.0 - 1e-10, 1.0 - 1e-12]:
        assert l_bar_zero(float(rho)) == pytest.approx(_l_bar_mp(rho), rel=1e-13)
    assert l_bar_zero(1.0 - 1e-7) == pytest.approx(2236.07049366, rel=1e-11)


def test_b_star_independent_formula():
    # b*^2 = h*p/(g*q) with p, q from finite-difference derivatives
    rho, l = 0.0, 5.0
    nsvi = _shape(rho)
    eps = 1e-6
    h, g, g2v = hgg2(l, nsvi)
    hp, gp, g2p = hgg2(l + eps, nsvi)
    hm, gm, g2m = hgg2(l - eps, nsvi)
    dh, dg, dg2 = (hp - hm) / (2 * eps), (gp - gm) / (2 * eps), (g2p - g2m) / (2 * eps)
    p = h * dg2 - 2 * dh * g2v
    q = g * dg2 - 2 * dg * g2v
    assert b_star(l, rho) ** 2 == pytest.approx(h * p / (g * q), rel=1e-6)


def test_b_star_monotone_to_wing_limit():
    for rho in (0.0, 0.4, 0.8):
        lbar = l_bar_zero(rho)
        ls = np.geomspace(lbar * (1 + 1e-6), 1e6, 60)
        vals = [b_star(float(l), rho) for l in ls]
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] == pytest.approx(2.0 / (1.0 + rho), rel=1e-5)


def test_l_from_b_round_trip():
    for rho in (0.0, 0.5, 0.9):
        for t in (0.2, 0.5, 0.9):
            b = t * 2.0 / (1.0 + rho)
            l = l_from_b(b, rho)
            assert b_star(l, rho) == pytest.approx(b, rel=1e-10)


def test_certify_does_not_call_b_star(monkeypatch):
    from smile_domain import ssvi

    calls = []
    monkeypatch.setattr(ssvi, "b_star", lambda *a: calls.append(a) or b_star(*a))
    for rho in (-0.6, 0.0, 0.5, 0.9):
        for t in (1e-6, 0.2, 0.5, 0.9, 0.999999):
            b = t * 2.0 / (1.0 + abs(rho))
            cert = certify(SsviParams(theta=2.0 * b, phi=1.0, rho=rho))
            assert math.isfinite(cert.bounds["sigma_star"])
    assert calls == []


def test_sigma_star_closed_makes_one_pq_call(monkeypatch):
    # b* and the threshold are read off the same terms at u = 1/l, so the
    # default b is bit for bit b_star(l, rho)
    from smile_domain import ssvi

    ls = {rho: l_from_b(1.0 / (1.0 + rho), rho) for rho in (0.0, 0.5, 0.9)}
    calls, pq = [], ssvi._pq
    monkeypatch.setattr(ssvi, "_pq", lambda u, rho: calls.append(u) or pq(u, rho))
    for rho, l in ls.items():
        calls.clear()
        closed = sigma_star_closed(l, rho)
        assert calls == [1.0 / l]
        assert sigma_star_closed(l, rho, b_star(l, rho)) == closed


@pytest.mark.parametrize("l", [0.0, -1.0, 3.0])
def test_sigma_star_closed_keeps_the_b_star_domain_errors(l):
    # l <= 0, and l = 3 just left of the sweep end l_bar(0, 0.5) = 3.53,
    # where p*q < 0
    assert l < l_bar_zero(0.5)
    for fn in (b_star, sigma_star_closed):
        with pytest.raises(EvaluationDomainError, match="left of the critical-point sweep"):
            fn(l, 0.5)


@pytest.mark.parametrize("rho", [0.0, 0.5])
@pytest.mark.parametrize("l", [0.5, 1.0, 2.0])
def test_b_star_refuses_both_p_and_q_negative(l, rho):
    # far left of the sweep end p and q are both negative: their ratio is
    # positive, but h*p/(g*q) there would put b* above the slope bound
    # 2/(1+rho) (4.13 at rho = 0, l = 0.5) and the threshold below 0
    assert ssvi._pq(1.0 / l, rho)[3] < 0.0 and ssvi._pq(1.0 / l, rho)[4] < 0.0
    for fn in (b_star, sigma_star_closed):
        with pytest.raises(EvaluationDomainError, match="left of the critical-point sweep"):
            fn(l, rho)


def test_certify_calls_neither_sigma_floor_nor_normalized_svi(monkeypatch):
    from smile_domain import core

    def refuse(*args, **kw):
        raise AssertionError("certify left the SSVI closed form")

    for name in ("sigma_floor", "NormalizedSvi"):
        monkeypatch.setattr(core, name, refuse)
        monkeypatch.setattr(ssvi, name, refuse, raising=False)
    for rho in (-0.6, 0.0, 0.5, 0.9):
        for t in (1e-6, 0.5, 0.999999, 1.0):
            b = t * 2.0 / (1.0 + abs(rho))
            assert certify(SsviParams(theta=2.0 * b, phi=1.0, rho=rho)).bounds["sigma_star"] > 0


def _pq_outside_brentq(monkeypatch) -> list[float]:
    """Points u of the _pq calls made outside brentq."""
    from smile_domain import ssvi

    inside, calls = [], []
    solve, pq = ssvi.brentq, ssvi._pq

    def traced_brentq(*args, **kw):
        inside.append(True)
        try:
            return solve(*args, **kw)
        finally:
            inside.pop()

    def traced_pq(u, rho):
        if not inside:
            calls.append(u)
        return pq(u, rho)

    monkeypatch.setattr(ssvi, "brentq", traced_brentq)
    monkeypatch.setattr(ssvi, "_pq", traced_pq)
    return calls


def test_l_from_b_evaluates_l_bar_only_in_brentq(monkeypatch):
    # both roots are one brentq each on the closed-form bracket
    # [0, _u_end(rho)]: no residual is evaluated outside them, at l_bar or
    # anywhere else
    calls = _pq_outside_brentq(monkeypatch)
    for rho in (0.0, 0.5, 0.9, 1.0 - 1e-10):
        l_bar_zero(rho)
        for t in (1e-4, 0.5, 0.99, 1.0 - 1e-9):
            l_from_b(t * 2.0 / (1.0 + rho), rho)
    assert calls == []


def test_b_to_0_end_resolves_what_the_residual_cannot(monkeypatch):
    # b^2*g*q is below the rounding of h*p next to l_bar, and that rounding
    # is positive at l_bar itself, so the residual cannot tell the two
    # apart; its sign change on the closed-form bracket, whose far end is
    # negative for every b, puts the critical point on l_bar's float, with
    # no evaluation outside brentq
    calls = _pq_outside_brentq(monkeypatch)
    lbar = l_bar_zero(0.5)
    assert l_from_b(1e-13, 0.5) == lbar
    assert calls == []
    assert ssvi._critical_residual(1.0 / lbar, 1e-13, 0.5) > 0


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("t", [1e-6, 0.5, 1.0 - 1e-9])
@pytest.mark.parametrize("ar", [1.0 - 1e-7, 1.0 - 1e-10, 1.0 - 1e-12, math.nextafter(1.0, 0.0)])
def test_certify_agrees_with_the_oracle_next_to_rho_1(ar, t, sign):
    # within the benchmark's GAP_TOL = 1e-6; at the last rho the sweep end
    # is l = 6.7e7 and the critical l for t = 1 - 1e-9 is 1.5e12
    p = SsviParams(theta=2.0 * t * 2.0 / (1.0 + ar), phi=1.0, rho=sign * ar)
    n = p.normalized()
    ref = sigma_star(n.gamma, n.b, n.rho, n.mu).sigma_star
    assert certify(p).bounds["sigma_star"] == pytest.approx(ref, rel=1e-6)


# ---------------------------------------------------------------------------
# sigma*
# ---------------------------------------------------------------------------
def test_sigma_star_boundary_value():
    for rho in (0.0, 0.3, 0.6, 0.9):
        assert sigma_star_closed(math.inf, rho) == pytest.approx(
            math.sqrt(1 - rho * rho), rel=1e-14
        )


def test_sigma_star_closed_matches_oracle():
    for rho in (0.0, 0.5, 0.8):
        lbar = l_bar_zero(rho)
        for mult in (1.5, 2.0, 4.0):
            l = mult * lbar
            closed = sigma_star_closed(l, rho)
            b = b_star(l, rho)
            shape = _shape(rho, b)
            res = sigma_star(shape.gamma, b, rho, shape.mu)
            assert closed == pytest.approx(res.sigma_star, rel=1e-6)


def test_sigma_star_vanishes_with_b():
    rho = 0.0
    l = l_bar_zero(rho) * (1 + 1e-8)
    assert sigma_star_closed(l, rho) < 1e-3


def test_oracle_prefers_right_side_for_nonnegative_rho():
    rng = np.random.default_rng(53)
    for _ in range(20):
        rho = rng.uniform(0.0, 0.9)
        b = rng.uniform(0.2, 0.95) * 2.0 / (1.0 + rho)
        shape = _shape(rho, b)
        _, sup_r = oracle._wing_sup(shape.gamma, b, rho, shape.mu)
        _, sup_l = oracle._wing_sup(shape.gamma, b, -rho, -shape.mu)
        assert sup_r >= sup_l - 1e-12


def test_fukasawa_automatic():
    rng = np.random.default_rng(59)
    for _ in range(20):
        rho = rng.uniform(-0.95, 0.95)
        b = rng.uniform(0.05, 0.999) * 2.0 / (1.0 + abs(rho))
        shape = _shape(rho, b)
        iv = mu_interval(shape.gamma, b, rho)
        assert iv.contains(shape.mu)


# ---------------------------------------------------------------------------
# certification and sufficient conditions
# ---------------------------------------------------------------------------
def test_certify_figure_instance():
    # b=1, rho=1/2, sigma=1/2 -> phi = sqrt(1-rho^2)/sigma, theta = 2b/phi
    rho, b, sigma = 0.5, 1.0, 0.5
    phi = math.sqrt(1 - rho * rho) / sigma
    p = SsviParams(theta=2 * b / phi, phi=phi, rho=rho)
    cert = certify(p)
    rep = durrleman_check(p.to_raw())
    assert cert.passed == (rep.min_value >= -1e-8)
    assert cert.passed
    assert cert.diagnostics["uniqueness"] == "numerically sustained"
    # residual of the critical-point equation the solver zeroes
    assert abs(cert.diagnostics["critical_residual"]) < 1e-12


def test_certify_boundary_pass():
    rho = 0.4
    b = 2.0 / (1.0 + rho)
    sigma = math.sqrt(1 - rho * rho)
    phi = math.sqrt(1 - rho * rho) / sigma
    cert = certify(SsviParams(theta=2 * b / phi, phi=phi, rho=rho))
    assert cert.passed
    assert "roger_lee" in cert.on_boundary or "sigma_bound" in cert.on_boundary


def test_certify_roger_lee_violation():
    # b(1+|rho|) = 2.01 at rho = 0
    b = 2.01
    phi = 1.0
    cert = certify(SsviParams(theta=2 * b / phi, phi=phi, rho=0.0))
    assert not cert.conditions["roger_lee"]
    assert not cert.passed
    with pytest.raises(RogerLeeViolation):
        sigma_star(1.0, 2.01, 0.0, 0.0)


def test_negative_rho_equivalence():
    rng = np.random.default_rng(61)
    for _ in range(10):
        rho = rng.uniform(0.05, 0.9)
        t = rng.uniform(0.2, 0.95)
        b = t * 2.0 / (1.0 + rho)
        sigma = rng.uniform(0.5, 2.0) * sigma_star_closed(l_from_b(b, rho), rho)
        phi_p = math.sqrt(1 - rho * rho) / sigma
        phi_m = math.sqrt(1 - rho * rho) / sigma
        cert_p = certify(SsviParams(theta=2 * b / phi_p, phi=phi_p, rho=rho))
        cert_m = certify(SsviParams(theta=2 * b / phi_m, phi=phi_m, rho=-rho))
        assert cert_p.passed == cert_m.passed


def test_gj_examples():
    # b=1, rho=0, sigma=0.5: the classical bound is exactly 0.5
    p = SsviParams(theta=2.0 * 0.5, phi=2.0, rho=0.0)  # b=1, sigma=0.5
    assert p.b == 1.0 and p.sigma == 0.5
    assert gj_sufficient(p)
    # exactly on the slope bound: strict condition fails
    rho = 0.3
    b = 2.0 / (1.0 + rho)
    phi = 1.0
    assert not gj_sufficient(SsviParams(theta=2 * b / phi, phi=phi, rho=rho))


def test_sufficient_conditions_imply_certified():
    rng = np.random.default_rng(67)
    n_gj = n_sub = 0
    for _ in range(100):
        rho = rng.uniform(-0.9, 0.9)
        t = rng.uniform(0.1, 0.97)
        b = t * 2.0 / (1.0 + abs(rho))
        sigma = rng.uniform(0.05, 3.0)
        phi = math.sqrt(1 - rho * rho) / sigma
        p = SsviParams(theta=2 * b / phi, phi=phi, rho=rho)
        if gj_sufficient(p):
            n_gj += 1
            assert certify(p).passed
        if subdomain_check(p):
            n_sub += 1
            assert certify(p).passed
    assert n_gj > 5 and n_sub > 5


def test_subdomain_bound_diverges_on_slope_boundary():
    rho = 0.25
    assert subdomain_bound(2.0 / (1 + rho) - 1e-8, rho) > 1e6


def test_subdomain_bound_decorrelated_value():
    expected = -8.0 * 1.0 * j2_x(m2(0.0), 0.0) / 3.0
    assert subdomain_bound(1.0, 0.0) == pytest.approx(expected, rel=1e-13)


def test_gj_vs_subdomain_crossover():
    # near the slope boundary the explicit bound blows up while the
    # classical one stays finite
    rho = 0.2
    b = 2.0 / (1 + rho) - 1e-6
    from smile_domain.ssvi import gj_sigma_bound

    assert subdomain_bound(b, rho) > 100.0 * gj_sigma_bound(b, rho)


# ---------------------------------------------------------------------------
# long-maturity Heston
# ---------------------------------------------------------------------------
def test_lt_heston_b_stable_for_small_vol_of_vol():
    from mpmath import mp, mpf, sqrt as msqrt

    with mp.workdps(50):
        for sv in (1e-4, 1e-8):
            h = HestonLtParams(kappa=1.0, theta_bar=0.04, sigma_vol=sv, rho=0.3)
            d = 2 * mpf(h.kappa) - mpf(h.rho) * mpf(sv)
            e = mpf(sv) ** 2 * (1 - mpf(h.rho) ** 2)
            exact = 2 * (msqrt(d * d + e) - d) / (mpf(sv) * (1 - mpf(h.rho) ** 2))
            assert lt_heston_b(h) == pytest.approx(float(exact), rel=1e-12)


def test_lt_heston_threshold_certifies():
    cases = [
        HestonLtParams(kappa=1.0, theta_bar=0.04, sigma_vol=0.4, rho=-0.7),
        HestonLtParams(kappa=2.0, theta_bar=0.09, sigma_vol=0.6, rho=0.3),
        HestonLtParams(kappa=0.5, theta_bar=0.02, sigma_vol=0.2, rho=0.0),
    ]
    for h in cases:
        t = lt_heston_threshold(h)
        assert t > 0
        p = heston_to_ssvi(h, t)
        assert subdomain_check(p)
        assert certify(p).passed


def test_heston_to_ssvi_takes_a_positive_maturity():
    h = HestonLtParams(kappa=1.0, theta_bar=0.04, sigma_vol=0.4, rho=-0.7)
    with pytest.raises(TypeError):
        heston_to_ssvi(h)  # the maturity is not a setting of the Heston inputs
    with pytest.raises(InvalidParamsError):
        heston_to_ssvi(h, 0.0)
    assert heston_to_ssvi(h, 2.0).phi == pytest.approx(0.5 * heston_to_ssvi(h, 1.0).phi)


def test_lt_heston_slope_violation_detected():
    # kappa -> 0 pushes the wing slope beyond the admissible bound
    h = HestonLtParams(kappa=1e-4, theta_bar=0.04, sigma_vol=0.5, rho=0.6)
    assert lt_heston_b(h) * (1 + abs(h.rho)) > 2.0
    with pytest.raises(RogerLeeViolation):
        lt_heston_threshold(h)


def test_lt_heston_uses_magnitude_of_rho():
    # the curvature well location feeding the threshold depends on |rho|
    hp = HestonLtParams(kappa=1.0, theta_bar=0.04, sigma_vol=0.3, rho=0.5)
    hm = HestonLtParams(kappa=1.0, theta_bar=0.04, sigma_vol=0.3, rho=-0.5)
    assert m2(abs(hp.rho)) == m2(abs(hm.rho))
    assert lt_heston_b(hp) != lt_heston_b(hm)  # b keeps the sign dependence


# ---------------------------------------------------------------------------
# uniqueness scan
# ---------------------------------------------------------------------------
def test_uniqueness_single_point():
    assert uniqueness_target(0.9, 0.0) > 0


def test_uniqueness_target_on_a_float_is_a_float_without_numpy():
    script = (
        "import sys\n"
        "from smile_domain import ssvi\n"
        "v = ssvi.uniqueness_target(0.9, 0.0)\n"
        "print(type(v).__name__, any(m.split('.')[0] == 'numpy' for m in sys.modules))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.split() == ["float", "False"]


def test_uniqueness_target_on_a_float_has_the_bits_of_the_array_path():
    # 10k seeded points of the scan's box and CI's (0.9, 0.0), each term
    # and both second derivatives included: the powers are products and sqrt
    rng = np.random.default_rng(31)
    x = np.append(rng.uniform(X_M2_RHO1, 0.999, 10_000), 0.9)
    rho = np.append(rng.uniform(0.0, 0.999, 10_000), 0.0)
    b = 2.0 / (1.0 + rho)
    arrays = np.stack(ssvi._uniqueness_terms(x, rho, b) + (uniqueness_target(x, rho),))
    floats = [ssvi._uniqueness_terms(*p) + (uniqueness_target(*p[:2]),)
              for p in zip(x.tolist(), rho.tolist(), b.tolist())]
    assert arrays.T.tolist() == [list(t) for t in floats]
    assert floats[-1][-1] == 2.6293854566752954


def test_default_scan_is_pinned():
    rep = scan_uniqueness()
    assert rep.min_value == pytest.approx(2.191882357866213, rel=1e-12)
    assert (rep.arg_rho, rep.arg_x) == (0.0, 0.8603796100280633)
    assert rep.negative_count == 0


def test_uniqueness_scan_small_grid():
    rep = scan_uniqueness(80, 80)
    assert rep.passed
    assert rep.message == "There is unicity"
    assert rep.min_value > 0
    assert rep.negative_count == 0


def _one_shot_scan(target, rho_steps, x_steps):
    """The whole-grid meshgrid evaluation and its reduction."""
    rho = np.linspace(0.0, 0.999, rho_steps)
    x = np.linspace(X_M2_RHO1, 0.999, x_steps)
    rv, xv = np.meshgrid(rho, x)
    vals = target(xv, rv)
    ix, ir = np.unravel_index(int(np.argmin(vals)), vals.shape)
    report = UniquenessReport(
        min_value=float(vals[ix, ir]),
        arg_rho=float(rv[ix, ir]),
        arg_x=float(xv[ix, ir]),
        negative_count=int(np.sum(vals < 0.0)),
        rho_steps=rho_steps,
        x_steps=x_steps,
    )
    return vals, report


@pytest.mark.parametrize("rho_steps, x_steps", [(137, 61), (1, 1), (65, 1000), (61, 137)])
def test_uniqueness_scan_equals_one_shot_reduction(rho_steps, x_steps):
    _, expected = _one_shot_scan(uniqueness_target, rho_steps, x_steps)
    assert scan_uniqueness(rho_steps, x_steps) == expected


def test_uniqueness_scan_values_bit_identical(monkeypatch):
    blocks = []

    def recorded(x, rho):
        vals = uniqueness_target(x, rho)
        blocks.append(vals)
        return vals

    monkeypatch.setattr(ssvi, "uniqueness_target", recorded)
    scan_uniqueness(65, 1000)
    full, _ = _one_shot_scan(uniqueness_target, 65, 1000)
    assert len(blocks) > 1
    assert np.concatenate(blocks).tobytes() == full.tobytes()


@pytest.mark.parametrize("rho_steps, x_steps", [(137, 61), (65, 1000), (7, 300)])
def test_uniqueness_scan_reduction_keeps_first_minimum(monkeypatch, rho_steps, x_steps):
    # a target with many tied minima and negatives in every block: the
    # blocked reduction must keep the first minimum in row-major order and
    # count every negative value once
    def ties(x, rho):
        return np.floor(3.0 * np.cos(40.0 * x + 9.0 * rho))

    _, expected = _one_shot_scan(ties, rho_steps, x_steps)
    monkeypatch.setattr(ssvi, "uniqueness_target", ties)
    report = scan_uniqueness(rho_steps, x_steps)
    assert expected.negative_count > 0
    assert report == expected


def test_uniqueness_scan_memory_stays_at_one_block():
    # the whole 1000 x 1000 grid in float64 is 8 MB per temporary array
    tracemalloc.start()
    try:
        scan_uniqueness(1000, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("rho_steps, x_steps", [(0, 10), (10, 0), (10, -3)])
def test_uniqueness_scan_rejects_empty_grid(rho_steps, x_steps):
    with pytest.raises(InvalidParamsError):
        scan_uniqueness(rho_steps, x_steps)


def test_uniqueness_target_decreasing_in_b_squared():
    for x, rho in [(0.9, 0.2), (0.95, 0.6)]:
        v1 = uniqueness_target(x, rho, b=0.5)
        v2 = uniqueness_target(x, rho, b=1.0)
        assert v2 < v1


def test_second_derivatives_match_finite_differences():
    rng = np.random.default_rng(71)
    for _ in range(100):
        rho = rng.uniform(0.0, 0.95)
        x = rng.uniform(X_M2_RHO1, 0.995)
        b = 2.0 / (1.0 + rho)
        d2j2, d2j1 = ssvi._uniqueness_terms(x, rho, b)[2:]
        h = 1e-5
        f2 = lambda xx: j2_x(xx, rho)  # noqa: E731

        def j1(xx):
            from smile_domain.ssvi import _uniqueness_terms

            return _uniqueness_terms(xx, rho, b)[0]

        fd_j2 = (f2(x + h) - 2 * f2(x) + f2(x - h)) / (h * h)
        fd_j1 = (j1(x + h) - 2 * j1(x) + j1(x - h)) / (h * h)
        assert d2j2 == pytest.approx(fd_j2, rel=1e-5)
        assert d2j1 == pytest.approx(fd_j1, rel=1e-5)


def test_certify_matches_density_check_randomized():
    rng = np.random.default_rng(73)
    for _ in range(40):
        rho = rng.uniform(-0.9, 0.9)
        t = rng.uniform(0.1, 0.98)
        b = t * 2.0 / (1.0 + abs(rho))
        star = sigma_star_closed(l_from_b(b, abs(rho)), abs(rho))
        sigma = star * rng.choice([0.8, 0.95, 1.05, 1.5])
        phi = math.sqrt(1 - rho * rho) / sigma
        p = SsviParams(theta=2 * b / phi, phi=phi, rho=rho)
        rep = durrleman_check(p.to_raw())
        assert certify(p).passed == (rep.min_value >= -1e-8), (rho, b, sigma)
