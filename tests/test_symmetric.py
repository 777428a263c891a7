from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from smile_domain import (
    EvaluationDomainError,
    InvalidParamsError,
    SmileDomainError,
    durrleman_check,
    sigma_star,
)
from smile_domain.symmetric import (
    B_HAT_MAX,
    GAMMA_HAT,
    Z_HAT,
    SymmetricParams,
    _p_num,
    b_star,
    certify,
    eta,
    fukasawa_threshold_closed,
    g_tilde,
    gamma_star,
    j2,
    sigma_star_closed,
    z2,
    z_from_b,
    z_inflection,
    z_interval,
    z_star_at_g_tilde,
    z_star_zero,
)


def test_constants():
    assert GAMMA_HAT == pytest.approx(-0.9905176547264001882, rel=1e-15)
    assert Z_HAT == pytest.approx(0.79622521701812569083, rel=1e-15)
    assert B_HAT_MAX == pytest.approx(0.88578196573791652373, rel=1e-15)


# ---------------------------------------------------------------------------
# threshold and inverse
# ---------------------------------------------------------------------------
def test_threshold_closed_endpoints():
    assert fukasawa_threshold_closed(2.0) == 0.0
    assert fukasawa_threshold_closed(0.0) == -1.0
    assert fukasawa_threshold_closed(1.0) == pytest.approx(
        -0.98386991009990746642, rel=1e-14
    )


def test_g_tilde_base_points():
    assert g_tilde(0.0) == pytest.approx(2.0, rel=1e-12)
    assert g_tilde(0.5) == 2.0
    # shrinks to 0 toward gamma = -1 (like (1+gamma)^(1/4))
    vals = [g_tilde(g) for g in (-0.9, -0.99, -0.999, -0.9999)]
    assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] < 0.3


def test_g_tilde_round_trip():
    for gamma in np.linspace(-0.95, 0.0, 20):
        gamma = float(gamma)
        assert fukasawa_threshold_closed(g_tilde(gamma)) == pytest.approx(
            gamma, abs=1e-10
        )


def test_g_tilde_matches_bisection_inverse():
    gamma = -0.5
    inv = brentq(
        lambda b: fukasawa_threshold_closed(b) - gamma, 1e-12, 2.0, xtol=1e-14
    )
    assert g_tilde(gamma) == pytest.approx(inv, abs=1e-10)


def test_g_tilde_domain():
    with pytest.raises(EvaluationDomainError):
        g_tilde(-1.0)


# ---------------------------------------------------------------------------
# z2 branches
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("gamma", [-0.9, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0])
def test_z2_residual_across_branches(gamma):
    z = z2(gamma)
    assert 0.0 < z < 1.0
    assert abs(2.0 * gamma * z**3 + 3.0 * z * z - 1.0) <= 1e-12
    assert abs(j2(z, gamma)) <= 1e-12


def test_z2_known_values():
    assert z2(0.0) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    assert z2(1.0) == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# gamma_star / z_star
# ---------------------------------------------------------------------------
def test_gamma_star_values_and_sign():
    assert gamma_star(1.0) == pytest.approx(9.0547116499554193994, rel=1e-13)
    assert gamma_star(0.0) == 0.0
    for u in (-0.5, -0.1, 0.3, 2.0):
        assert math.copysign(1.0, gamma_star(u)) == math.copysign(1.0, u) or u == 0


def test_gamma_star_inverts_z_star_zero():
    # z*(gamma*(u), 0) = u/gamma*(u); at u=0 the limit is 1/sqrt(6+sqrt(33))
    assert z_star_zero(0.0) == pytest.approx(0.29179750596487931608, rel=1e-12)
    for u in (-0.7, -0.2, 0.5, 1.5):
        g = gamma_star(u)
        assert z_star_zero(g) == pytest.approx(u / g, rel=1e-9)


def test_gamma_star_branches_are_the_two_roots():
    # both roots of the quadratic in gamma^2 zero the b -> 0 sextic at
    # z = u/gamma; the second is NaN where its gamma^2 is negative
    for u in (-0.98, -0.7, -0.4, -0.1):
        for branch in (1, -1):
            g = gamma_star(u, branch)
            assert -1.0 < g < 0.0
            assert abs(_p_num(u / g, g)) < 1e-12
    assert gamma_star(-0.4, -1) > gamma_star(-0.4)
    assert math.isnan(gamma_star(2.0, -1))


def test_z_star_zero_is_unique_root():
    # sign-change count of the sextic on a dense grid
    for gamma in (-0.95, -0.5, 0.5, 2.0):
        zz = z2(gamma)
        grid = np.linspace(1e-6, zz - 1e-9, 10_000)
        g = gamma
        vals = (
            2 * g * g * grid**6
            + 12 * g**3 * grid**5
            + 3 * grid**4 * (10 * g * g - 1)
            + 28 * g * grid**3
            + 12 * grid**2
            - 1
        )
        assert int(np.sum(np.diff(np.sign(vals)) != 0)) == 1


def test_z_star_zero_at_its_edges_next_to_gamma_minus_one():
    # the rounding of z2 leaves _p_num at 0 on the right end of the bracket,
    # which is then the root; a step closer it is negative there, and no root
    # is bracketed
    gamma = -1.0 + 1e-8
    assert _p_num(z2(gamma) - 1e-12, gamma) == 0.0
    assert z_star_zero(gamma) == z2(gamma) - 1e-12
    with pytest.raises(EvaluationDomainError, match="no critical-point root"):
        z_star_zero(-1.0 + 1e-11)


def test_z_star_at_g_tilde_known_form():
    gt = g_tilde(-0.5)
    expected = math.sqrt((4 - gt * gt) * (16 - gt * gt)) / (gt * gt + 8)
    assert z_star_at_g_tilde(-0.5) == pytest.approx(expected, rel=1e-14)
    # endpoints collide at the exceptional level
    za, zb = z_interval(GAMMA_HAT)
    assert za == pytest.approx(Z_HAT, abs=1e-7)
    assert zb == pytest.approx(Z_HAT, abs=1e-7)


def test_z_star_at_g_tilde_names_a_lost_g_tilde():
    # certify-mix census draw (seed 3): g_tilde returns about 3.8, not a value
    # in [-2, 2], and (4 - G^2)*(16 - G^2) < 0 under the square root
    gamma, b = -0.9999999893831698, 0.0052076955889283835
    with pytest.raises(EvaluationDomainError, match="gamma=-0.9999999893831698, G="):
        z_star_at_g_tilde(gamma)
    with pytest.raises(EvaluationDomainError):
        certify(SymmetricParams(gamma=gamma, b=b, sigma=1.5644836208923327))


# ---------------------------------------------------------------------------
# b_star sweep
# ---------------------------------------------------------------------------
def test_b_star_endpoint_limits():
    for gamma in (-0.95, -0.5, 0.5, 2.0):
        za, zb = z_interval(gamma)
        inward = 1e-7 * (zb - za)
        assert b_star(za + inward, gamma) < 1e-2
        assert b_star(zb - inward, gamma) == pytest.approx(
            g_tilde(gamma), abs=1e-2
        )


def test_b_star_monotone_on_sweep():
    # gamma_hat - 0.01 would fall below the admissible floor -1; probe the
    # below-hat side at -0.995 instead
    for gamma in (-0.999, -0.995, -0.99, -0.9, GAMMA_HAT + 0.01, -0.5, 0.0, 1.0, 5.0):
        za, zb = z_interval(gamma)
        lo, hi = (za, zb) if za < zb else (zb, za)
        if hi - lo < 1e-9:
            continue
        zs = np.linspace(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo), 200)
        vals = [b_star(float(z), gamma) for z in zs]
        diffs = np.diff(vals)
        assert np.all(diffs > 0) or np.all(diffs < 0)


def test_b_star_outside_sweep_raises():
    # just right of the sweep the critical-point factors have opposite signs
    with pytest.raises(EvaluationDomainError):
        b_star(z_star_zero(-0.5) + 1e-3, -0.5)


def test_exceptional_level_collapses_pq():
    # both critical-point factors vanish together only at (gamma_hat, z_hat)
    from smile_domain.symmetric import _p_num, _q_num

    assert abs(_p_num(Z_HAT, GAMMA_HAT)) < 1e-12
    assert abs(_q_num(Z_HAT, GAMMA_HAT)) < 1e-12


# ---------------------------------------------------------------------------
# sigma*
# ---------------------------------------------------------------------------
def test_sigma_star_closed_matches_oracle():
    for gamma in (-0.95, -0.5, 0.5, 2.0):
        za, zb = z_interval(gamma)
        for t in (0.25, 0.5, 0.75):
            z = za + t * (zb - za)
            b = b_star(z, gamma)
            closed = sigma_star_closed(z, gamma)
            res = sigma_star(gamma, b, 0.0, 0.0)
            assert closed == pytest.approx(res.sigma_star, rel=1e-6)


def test_sigma_star_exceptional_level():
    for b in (0.2, 0.5, 0.8):
        closed = sigma_star_closed(Z_HAT, GAMMA_HAT, b=b)
        res = sigma_star(GAMMA_HAT, b, 0.0, 0.0)
        assert closed == pytest.approx(res.sigma_star, rel=1e-6)
        expected = -b * j2(Z_HAT, GAMMA_HAT) / (
            2.0 * (eta(Z_HAT, GAMMA_HAT) ** 2 - b * b * (1 - Z_HAT * Z_HAT) / 16.0)
        )
        assert closed == pytest.approx(expected, rel=1e-14)


def test_sigma_star_increases_toward_extremal_limit():
    # at fixed gamma the threshold climbs toward the b = 2 value 1/gamma
    gamma = 0.05
    lo = sigma_star_closed(z_from_b(1.999, gamma), gamma)
    hi = sigma_star_closed(z_from_b(1.9999, gamma), gamma)
    assert lo < hi < 1.0 / gamma


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------
def test_certify_boundary_b2():
    cert = certify(SymmetricParams(gamma=1.0, b=2.0, sigma=1.0))
    assert cert.passed and "sigma_bound" in cert.on_boundary
    cert = certify(SymmetricParams(gamma=-0.5, b=2.0, sigma=9.0))
    assert not cert.conditions["fukasawa"]


def test_certify_threshold_ordering():
    # F(1.8) ~ -0.674; gamma below it fails the wing conditions
    cert = certify(SymmetricParams(gamma=-0.8, b=1.8, sigma=9.0))
    assert not cert.conditions["fukasawa"] and not cert.passed


@pytest.mark.parametrize("b", [0.5, 1.5])
@pytest.mark.parametrize("k", [0.5, -0.5, 0.99, -0.99, 1.01, -1.01, 2.0, -2.0])
def test_certify_fukasawa_flag_is_the_band_around_the_threshold(b, k):
    # strict gamma > F(b); flagged within BOUNDARY_TOL = 1e-10 on either side
    cert = certify(SymmetricParams(gamma=fukasawa_threshold_closed(b) + k * 1e-10, b=b, sigma=1.0))
    assert cert.conditions["fukasawa"] == (k > 0)
    assert ("fukasawa" in cert.on_boundary) == (abs(k) < 1)


def test_certify_invalid_gamma():
    with pytest.raises(InvalidParamsError):
        SymmetricParams(gamma=-1.5, b=1.0, sigma=9.0)


@pytest.mark.parametrize("field", ["gamma", "b", "sigma"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_fields(field, bad):
    kw = {"gamma": 0.5, "b": 1.0, "sigma": 9.0, field: bad}
    with pytest.raises(InvalidParamsError, match="non-finite"):
        SymmetricParams(**kw)


def test_certify_figure_instance():
    # a=0.64, b=1.6, sigma=0.4 -> gamma = 1
    p = SymmetricParams(gamma=0.64 / (1.6 * 0.4), b=1.6, sigma=0.4)
    cert = certify(p)
    rep = durrleman_check(p.to_raw())
    assert cert.passed == (rep.min_value >= -1e-8)
    assert cert.passed


def test_certify_matches_density_check_randomized():
    rng = np.random.default_rng(43)
    done = 0
    while done < 50:
        gamma = rng.uniform(-0.99, 3.0)
        bmax = g_tilde(gamma)
        b = rng.uniform(0.05, 0.98) * bmax
        probe = certify(SymmetricParams(gamma=gamma, b=b, sigma=1.0))
        star = probe.bounds["sigma_star"]
        if not math.isfinite(star):
            continue
        sigma = star * rng.choice([0.7, 0.9, 1.1, 1.5])
        p = SymmetricParams(gamma=gamma, b=b, sigma=sigma)
        rep = durrleman_check(p.to_raw())
        assert certify(p).passed == (rep.min_value >= -1e-8), (gamma, b, sigma)
        done += 1


def test_certify_near_exceptional_level():
    p = SymmetricParams(gamma=GAMMA_HAT + 5e-10, b=0.5, sigma=5.0)
    cert = certify(p)
    assert cert.passed
    assert cert.diagnostics["z"] == Z_HAT
    # Z_HAT is the critical point to within the level's distance from GAMMA_HAT
    assert abs(cert.diagnostics["critical_residual"]) <= 1e-9
    oracle = sigma_star(p.gamma, p.b, 0.0, 0.0).sigma_star
    assert cert.bounds["sigma_star"] == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("gamma, b", [(1.0, 1e-8), (0.3, 1e-7)])
def test_certify_at_small_b_matches_oracle(gamma, b):
    # near the b -> 0 end of the sweep b*(z) raises or is ill-conditioned;
    # the requirement at the given b and the critical-point residual are not
    cert = certify(SymmetricParams(gamma=gamma, b=b, sigma=1.0))
    assert abs(cert.diagnostics["critical_residual"]) < 1e-12
    closed = cert.bounds["sigma_star"]
    assert closed == pytest.approx(sigma_star(gamma, b, 0.0, 0.0).sigma_star, rel=1e-9)


def _residuals_outside_brentq(monkeypatch) -> list[tuple]:
    """Arguments of the critical-residual calls made outside brentq."""
    from smile_domain import symmetric

    inside, calls = [], []
    solve, residual = symmetric.brentq, symmetric._critical_residual

    def traced_brentq(*args, **kw):
        inside.append(True)
        try:
            return solve(*args, **kw)
        finally:
            inside.pop()

    def traced_residual(*args):
        if not inside:
            calls.append(args)
        return residual(*args)

    monkeypatch.setattr(symmetric, "brentq", traced_brentq)
    monkeypatch.setattr(symmetric, "_critical_residual", traced_residual)
    return calls


def test_z_from_b_evaluates_the_residual_only_in_brentq(monkeypatch):
    calls = _residuals_outside_brentq(monkeypatch)
    for gamma, b in [(0.5, 1.0), (-0.5, 0.3), (2.0, 1e-3)]:
        z_from_b(b, gamma)
    assert calls == []


def test_b_to_0_end_resolves_what_the_residual_cannot(monkeypatch):
    # b^2*(gamma*z + 1)*q is below the rounding of 8*eta*p at the b -> 0
    # end, so the residual has one sign over the whole sweep: the end is the
    # critical point, checked with one residual evaluation
    gamma, b = 1.0154720311257261, 1.9656689883028117e-08
    calls = _residuals_outside_brentq(monkeypatch)
    z = z_from_b(b, gamma)
    assert z == z_star_zero(gamma)
    assert calls == [(z, b, gamma)]
    closed = certify(SymmetricParams(gamma=gamma, b=b, sigma=1.0)).bounds["sigma_star"]
    assert closed == pytest.approx(sigma_star(gamma, b, 0.0, 0.0).sigma_star, rel=1e-9)


def test_b_to_0_end_is_not_taken_against_the_sign_rule():
    # here the residual's sign at the b -> 0 end is the analytic one, and
    # that end lies 1.3e-3 below the oracle: the input must still raise
    p = SymmetricParams(gamma=-0.9999930748914068, b=0.08375221294554457, sigma=1.0)
    with pytest.raises(EvaluationDomainError, match="not bracketed"):
        certify(p)


def test_certify_never_reports_a_nonpositive_sigma_star():
    p = SymmetricParams(gamma=-0.9999999997168405, b=1.6580550654572107e-4, sigma=3.9)
    with pytest.raises(EvaluationDomainError, match="not positive"):
        certify(p)


@pytest.mark.parametrize("b", [0.9, 1.9])
@pytest.mark.parametrize("gamma", [1e16, 1e17, 1e100, 1e200, 1e300])
def test_certify_at_large_gamma_fails_typed(gamma, b):
    # z* is about c/gamma: where the root rounds to 0, or gamma^3 overflows
    # in the sextic, the certifier raises a SmileDomainError, not a
    # ZeroDivisionError or an OverflowError
    try:
        cert = certify(SymmetricParams(gamma=gamma, b=b, sigma=1.0))
    except SmileDomainError:
        return
    assert cert.bounds["sigma_star"] > 0.0


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------
def test_z_inflection_left_of_minimizer():
    for gamma in (-0.9, -0.5, -0.1):
        zi = z_inflection(gamma)
        assert 0.0 < zi < z2(gamma)
        g = gamma
        # inflection equation residual
        val = 6 * g**3 * zi**4 + 19 * g * g * zi**3 + 21 * g * zi * zi + 9 * zi + g
        assert abs(val) < 1e-12
