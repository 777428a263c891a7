from __future__ import annotations

import math

import numpy as np
import pytest

from smile_domain import EvaluationDomainError, InvalidParamsError, durrleman_check, sigma_star
from smile_domain.vanishing import (
    VanishingParams,
    certify,
    fukasawa_bound,
    mu_star,
    sigma_star_closed,
    subdomain_bound,
    subdomain_check,
    x_from_mu,
    x_plus_star,
)

SUB_COEF = 0.68338743024419042921  # (34*sqrt(2) - 5*sqrt(5))/54


@pytest.mark.parametrize(
    "b, expected", [(1.0, 0.0), (0.0, math.sqrt(3.0)), (2.0 / 3.0, 1.0)]
)
def test_fukasawa_bound_examples(b, expected):
    assert fukasawa_bound(b) == pytest.approx(expected, abs=1e-14)


def test_params_validation():
    with pytest.raises(InvalidParamsError):
        VanishingParams(b=1.2, mu=0.0, sigma=1.0)
    with pytest.raises(InvalidParamsError):
        VanishingParams(b=0.5, mu=0.0, sigma=0.0)
    p = VanishingParams(b=0.5, mu=-1.0, sigma=1.0, direction="downward")
    raw = p.to_raw()
    assert raw.rho == -1.0 and raw.a == 0.0 and raw.m == -1.0


@pytest.mark.parametrize("field", ["b", "mu", "sigma"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_fields(field, bad):
    kw = {"b": 0.5, "mu": -1.0, "sigma": 1.0, field: bad}
    with pytest.raises(InvalidParamsError, match="non-finite"):
        VanishingParams(**kw)


# ---------------------------------------------------------------------------
# mu*
# ---------------------------------------------------------------------------
def _mu_star_quadratic_oracle(x: float, b: float) -> float:
    """Root of the quadratic-in-mu critical-point numerator, selected below
    the admissible bound."""
    s = math.sqrt(1 - x * x)
    A = 4.0 * (1 - x * x) * (2 * x * x - 2 * x - 1)
    B = -8.0 * (1 - x) * s * (2 * x * x - 8 * x - 1)
    C = (
        2 * x**4 * (4 - b * b)
        - 6 * x**3 * (b * b + 12)
        + 3 * x * x * (52 - b * b)
        + 4 * x * (b * b - 22)
        + 3 * b * b
    )
    disc = math.sqrt(B * B - 4 * A * C)
    roots = [(-B + disc) / (2 * A), (-B - disc) / (2 * A)]
    ok = [r for r in roots if r < fukasawa_bound(b) + 1e-9]
    assert len(ok) >= 1
    return min(ok, key=lambda r: abs(r - mu_star(x, b)))


def test_mu_star_solves_critical_point_quadratic():
    for b in (0.2, 0.5, 0.8):
        for x in (0.7, 0.8, 0.9, 0.95):
            if x <= x_plus_star(b):
                continue
            assert mu_star(x, b) == pytest.approx(
                _mu_star_quadratic_oracle(x, b), rel=1e-10
            )


def test_mu_star_left_endpoint_limit():
    for b in (0.2, 0.5, 0.8):
        x = x_plus_star(b) + 1e-6
        assert abs(mu_star(x, b) - fukasawa_bound(b)) <= 1e-4


def test_mu_star_diverges_at_one():
    assert mu_star(1.0 - 1e-9, 0.5) < -1e3


def test_mu_star_strictly_decreasing():
    for b in np.arange(0.1, 0.95, 0.1):
        b = float(b)
        xs = np.linspace(x_plus_star(b) + 1e-6, 1.0 - 1e-6, 200)
        vals = [mu_star(float(x), b) for x in xs]
        assert np.all(np.diff(vals) < 0)


def test_mu_star_extends_continuously_to_b_zero():
    # the b -> 0 limit of mu* exists even though b = 0 smiles are flat and
    # excluded from certification
    for x in (0.7, 0.85, 0.95):
        tiny = mu_star(x, 1e-10)
        s = math.sqrt(1 - x * x)
        radicand = 64 * x**4 - 128 * x**3 + 96 * x * x - 32 * x + 4
        limit = (2 * (1 - x) * (2 * x * x - 8 * x - 1) + math.sqrt(radicand)) / (
            2 * s * (2 * x * x - 2 * x - 1)
        )
        assert tiny == pytest.approx(limit, rel=1e-8)


def test_mu_star_domain_errors():
    with pytest.raises(Exception):
        mu_star(0.5, 0.5)  # left of the interval
    with pytest.raises(Exception):
        mu_star(0.9, 1.0)  # b = 1 excluded


# ---------------------------------------------------------------------------
# sigma*
# ---------------------------------------------------------------------------
def test_sigma_star_closed_matches_oracle_grid():
    for b in (0.1, 0.3, 0.5, 0.7, 0.9):
        x0 = x_plus_star(b)
        for t in (0.25, 0.5, 0.75):
            x = x0 + t * (1.0 - x0)
            closed = sigma_star_closed(x, b)
            res = sigma_star(0.0, b, 1.0, mu_star(x, b))
            assert closed == pytest.approx(res.sigma_star, rel=1e-6)
            assert closed > 0.0


def test_sigma_star_dominated_by_subdomain_at_mu_zero():
    for b in (0.2, 0.5, 0.8):
        x = x_from_mu(0.0, b)
        assert sigma_star_closed(x, b) <= subdomain_bound(b) + 1e-12


# ---------------------------------------------------------------------------
# sub-domain
# ---------------------------------------------------------------------------
def test_subdomain_examples():
    bound = SUB_COEF * 0.5 / (1 - 0.25)
    assert subdomain_bound(0.5) == pytest.approx(bound, rel=1e-12)
    assert subdomain_check(0.5, 0.0, bound, "upward")
    assert not subdomain_check(0.5, 0.1, 10.0, "upward")  # mu > 0 exits
    assert subdomain_check(0.5, -0.1, bound, "downward") is False  # mirrored mu
    assert subdomain_check(0.5, 0.1, bound, "downward")


def test_subdomain_bound_diverges():
    assert subdomain_bound(1.0 - 1e-9) > 1e6


@pytest.mark.parametrize("b", [0.0, 1.0, 1.5, -0.25])
def test_subdomain_bound_names_the_b_it_rejects(b):
    with pytest.raises(EvaluationDomainError, match=rf"0 < b < 1, got b={b}$"):
        subdomain_bound(b)


def test_subdomain_implies_certified():
    rng = np.random.default_rng(23)
    for _ in range(50):
        b = rng.uniform(0.05, 0.95)
        mu = rng.uniform(-3.0, 0.0)
        sigma = subdomain_bound(b) * rng.uniform(1.0, 2.0)
        assert subdomain_check(b, mu, sigma)
        assert certify(VanishingParams(b=b, mu=mu, sigma=sigma)).passed


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------
def test_certify_round_trips_mu():
    rng = np.random.default_rng(31)
    for _ in range(30):
        b = rng.uniform(0.05, 0.95)
        mu = fukasawa_bound(b) - rng.uniform(0.01, 4.0)
        x = x_from_mu(mu, b)
        assert mu_star(x, b) == pytest.approx(mu, rel=1e-10, abs=1e-10)


def test_certify_b1_wing_boundary():
    # requirement on the boundary is -1/mu, scale-free in sigma: m <= -1
    cert = certify(VanishingParams(b=1.0, mu=-2.0, sigma=1.0))
    assert cert.passed and cert.bounds["sigma_star"] == pytest.approx(0.5)
    cert = certify(VanishingParams(b=1.0, mu=-2.0, sigma=0.499))
    assert not cert.passed
    cert = certify(VanishingParams(b=1.0, mu=0.5, sigma=5.0))
    assert not cert.conditions["fukasawa"]
    # oracle agreement on the boundary bound
    res = sigma_star(0.0, 1.0, 1.0, -2.0)
    assert res.sigma_star == pytest.approx(0.5, rel=1e-9)


def test_certify_b1_matches_density_check():
    for mu, sigma in [(-1.0, 1.05), (-1.0, 0.9), (-0.5, 2.2), (-0.5, 1.5)]:
        cert = certify(VanishingParams(b=1.0, mu=mu, sigma=sigma))
        rep = durrleman_check(cert.params_raw)
        assert cert.passed == (rep.min_value >= -1e-8)


def test_certify_fukasawa_violation():
    cert = certify(VanishingParams(b=0.5, mu=2.0, sigma=10.0))
    assert not cert.conditions["fukasawa"]
    assert not cert.passed
    assert cert.bounds["sigma_star"] == math.inf


@pytest.mark.parametrize("b", [0.3, 0.8])
@pytest.mark.parametrize("direction", ["upward", "downward"])
@pytest.mark.parametrize("k", [0.5, -0.5, 2.0, -2.0])
def test_certify_fukasawa_flag_is_the_band_around_the_cap(b, direction, k):
    # strict mu_up < sqrt(3(1-b)); flagged within BOUNDARY_TOL = 1e-10 on either side
    mu_up = fukasawa_bound(b) + k * 1e-10
    mu = mu_up if direction == "upward" else -mu_up
    cert = certify(VanishingParams(b=b, mu=mu, sigma=1.0, direction=direction))
    assert cert.conditions["fukasawa"] == (k < 0)
    assert ("fukasawa" in cert.on_boundary) == (abs(k) < 1)


def test_certify_downward_figure_instance():
    # b=1/2, m=1, sigma=1
    p = VanishingParams(b=0.5, mu=1.0, sigma=1.0, direction="downward")
    cert = certify(p)
    rep = durrleman_check(p.to_raw())
    assert cert.passed == (rep.min_value >= -1e-8)
    assert cert.passed  # sits inside the explicit sub-domain


def test_certify_matches_density_check_randomized():
    rng = np.random.default_rng(37)
    for direction in ("upward", "downward"):
        sgn = 1.0 if direction == "upward" else -1.0
        for _ in range(50):
            b = rng.uniform(0.05, 0.98)
            mu_up = fukasawa_bound(b) - rng.uniform(0.05, 3.0)
            star = sigma_star_closed(x_from_mu(mu_up, b), b)
            sigma = star * rng.choice([0.7, 0.9, 1.1, 1.5])
            p = VanishingParams(b=b, mu=sgn * mu_up, sigma=sigma, direction=direction)
            cert = certify(p)
            rep = durrleman_check(p.to_raw())
            assert cert.passed == (rep.min_value >= -1e-8), (b, mu_up, sigma)


def test_certificate_records_diagnostics():
    cert = certify(VanishingParams(b=0.5, mu=-1.0, sigma=1.0))
    assert 0.0 < cert.diagnostics["x"] < 1.0
    assert abs(cert.diagnostics["mu_star_residual"]) < 1e-9
    assert cert.conditions["roger_lee"]


def _sigma_floor_mp(x: float, b: float, mu: float) -> float:
    """-b*g2/(2*G1) of the upward smile (gamma = 0, rho = 1) at
    l = x/sqrt(1-x^2), in 50-digit mpmath from the shape functions N, h, g."""
    from mpmath import mp, mpf, sqrt as msqrt

    with mp.workdps(50):
        x, b, mu = mpf(x), mpf(b), mpf(mu)
        l = x / msqrt(1 - x * x)
        s = msqrt(l * l + 1)
        n, n1, n2 = l + s, 1 + l / s, 1 / s**3
        h, g, g2 = 1 - n1 * (l + mu) / (2 * n), n1 / 4, n2 - n1 * n1 / (2 * n)
        return float(-b * g2 / (2 * (h * h - b * b * g * g)))


def test_certify_sigma_star_matches_a_50_digit_floor_at_its_critical_point():
    # seed-1 certify-mix pool draw 1130, the worst vanishing-up interior draw
    # of seeds 1-3 for the l-chart core.sigma_floor at the same x (2.55e-12);
    # the closed form at the given mu is within 6.9e-13 (2.1e-13 in x; the
    # form in s = sqrt(1 - x) rounds differently, as near as often)
    p = VanishingParams(b=0.3235322317295934, mu=1.424459060415498, sigma=1.0957443515315841)
    cert = certify(p)
    ref = _sigma_floor_mp(cert.diagnostics["x"], p.b, p.mu)
    assert cert.bounds["sigma_star"] == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("direction", ["upward", "downward"])
def test_certify_calls_neither_sigma_floor_nor_normalized_svi(monkeypatch, direction):
    from smile_domain import core, vanishing

    def refuse(*args, **kw):
        raise AssertionError("certify left the vanishing closed form")

    for name in ("sigma_floor", "NormalizedSvi"):
        monkeypatch.setattr(core, name, refuse)
        monkeypatch.setattr(vanishing, name, refuse, raising=False)
    sgn = 1.0 if direction == "upward" else -1.0
    for b in (0.1, 0.5, 0.9):
        for mu_up in (-3.0, 0.0, 0.9 * fukasawa_bound(b)):
            p = VanishingParams(b=b, mu=sgn * mu_up, sigma=1.0, direction=direction)
            assert certify(p).bounds["sigma_star"] > 0


def test_sigma_star_closed_at_a_given_mu():
    # mu*(x) is the default mu; a given mu keeps mu*'s domain errors
    b, x = 0.5, 0.9
    assert sigma_star_closed(x, b, mu_star(x, b)) == sigma_star_closed(x, b)
    assert sigma_star_closed(x, b, -1.0) == pytest.approx(_sigma_floor_mp(x, b, -1.0), rel=1e-13)
    for xb in ((0.5, 0.5), (0.9, 1.0), (0.9, 0.0), (1.0, 0.5)):
        with pytest.raises(EvaluationDomainError):
            sigma_star_closed(*xb, 0.0)
        with pytest.raises(EvaluationDomainError):
            mu_star(*xb)


def test_x_from_mu_takes_few_mu_star_evaluations(monkeypatch):
    import smile_domain.vanishing as van

    calls = []
    mu_star_s = van._mu_star_s

    def counted(s, b):
        calls.append(s)
        return mu_star_s(s, b)

    monkeypatch.setattr(van, "_mu_star_s", counted)
    rng = np.random.default_rng(41)
    for _ in range(200):
        b = rng.uniform(0.02, 0.98)
        mu_up = fukasawa_bound(b) - rng.uniform(1e-3, 4.0)
        calls.clear()
        x = x_from_mu(mu_up, b)
        assert 0 < len(calls) <= 30, (b, mu_up, len(calls))
        assert abs(mu_star(x, b) - mu_up) <= 1e-9 * max(1.0, abs(mu_up))


@pytest.mark.parametrize("b", [0.1, 0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("eps", [1e-13, 1e-12, 1e-10, 1e-8])
def test_certify_mu_next_to_the_cap(b, eps):
    # x_from_mu evaluates mu* only inside its bracket, so a mu this close to
    # the wing bound gets a verdict instead of an EvaluationDomainError
    cert = certify(VanishingParams(b=b, mu=fukasawa_bound(b) - eps, sigma=1.0))
    assert cert.conditions["fukasawa"]
    sstar = cert.bounds["sigma_star"]
    assert math.isfinite(sstar) and sstar > 0.0
    up = certify(VanishingParams(b=b, mu=fukasawa_bound(b) - eps, sigma=2.0 * sstar))
    assert up.passed


@pytest.mark.parametrize("direction", ["upward", "downward"])
def test_certify_just_inside_the_wing_slope_bound(direction):
    # b = 1 - 7e-11 is a wing slope 2b = 2 - 1.4e-10, inside the bound for
    # the oracle and the certifier alike: both solve the critical point
    # below the mirrored-curve cap sqrt(3(1 - b)) instead of taking b = 1
    b, sgn = 1.0 - 7e-11, 1.0 if direction == "upward" else -1.0
    cert = certify(VanishingParams(b=b, mu=-0.5 * sgn, sigma=1.0, direction=direction))
    oracle = sigma_star(0.0, b, sgn, -0.5 * sgn).sigma_star
    assert cert.bounds["sigma_star"] == pytest.approx(oracle, rel=1e-9)
    cert = certify(VanishingParams(b=b, mu=5e-6 * sgn, sigma=1.0, direction=direction))
    assert cert.conditions["fukasawa"]
    assert cert.bounds["mu_bound"] == sgn * math.sqrt(3.0 * (1.0 - b))
    assert math.isfinite(cert.bounds["sigma_star"])


# ---------------------------------------------------------------------------
# mu far below 0: the critical point next to x = 1
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("b", [0.01, 0.5, 0.99])
@pytest.mark.parametrize("direction", ["upward", "downward"])
def test_certify_far_below_zero_mu_is_the_oracle_and_the_limit(b, direction):
    # the critical point sits at 1 - x ~ (1 - b^2)/(2*mu^2), below eps from
    # |mu| of about 1e8: in s = sqrt(1 - x) certify keeps it, agrees with the
    # oracle while that converges, and tends to b/((1 + sqrt(1 - b^2))*|mu|)
    sgn = 1.0 if direction == "upward" else -1.0
    limit = b / (1.0 + math.sqrt((1.0 - b) * (1.0 + b)))
    for e in np.arange(3.0, 300.25, 0.25):
        mu_up = -(10.0**e)
        cert = certify(VanishingParams(b=b, mu=sgn * mu_up, sigma=1.0, direction=direction))
        star = cert.bounds["sigma_star"]
        assert abs(cert.diagnostics["mu_star_residual"]) <= 1e-14 * -mu_up, e
        if e <= 30.0:
            oracle = sigma_star(0.0, b, sgn, sgn * mu_up).sigma_star
            assert abs(star - oracle) <= 1e-6 * oracle, e  # the benchmark's GAP_TOL
        if e >= 8.0:
            assert star * -mu_up == pytest.approx(limit, rel=1e-12, abs=0.0), e


def test_certify_far_below_zero_mu_agrees_with_the_density_check():
    # at mu = -1e8 the critical point x rounds to 1: sigma* is 2.68e-9, not
    # the 6.97e-11 of x = 1 - 1e-12, and the density check finds the arbitrage
    p = VanishingParams(b=0.5, mu=-1e8, sigma=4.32e-10)
    cert = certify(p)
    assert cert.bounds["sigma_star"] == pytest.approx(0.5 / (1.0 + math.sqrt(0.75)) / 1e8, rel=1e-12)
    assert not cert.passed
    assert durrleman_check(p.to_raw()).min_value < 0.0


@pytest.mark.parametrize("mu_up", [-1e306, -1e307, -1.7e308])
def test_certify_past_the_float_range_of_the_critical_point_is_typed(mu_up):
    # 1/s overflows: a domain error, not a bare arithmetic one
    try:
        cert = certify(VanishingParams(b=0.99, mu=mu_up, sigma=1.0))
    except EvaluationDomainError:
        return
    assert cert.bounds["sigma_star"] > 0.0
