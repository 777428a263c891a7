from __future__ import annotations

import math

import numpy as np
import pytest

from smile_domain import InvalidParamsError, durrleman_check, mu_interval, sigma_star
from smile_domain.extremal import ExtremalParams, certify, sigma_bound


def test_params_validation_and_mapping():
    with pytest.raises(InvalidParamsError):
        ExtremalParams(gamma=0.0, q=0.0, sigma=1.0)
    with pytest.raises(InvalidParamsError):
        ExtremalParams(gamma=1.0, q=1.0, sigma=1.0)
    p = ExtremalParams(gamma=1.5, q=0.4, sigma=2.0)
    raw = p.to_raw()
    assert raw.b == 2.0 and raw.rho == 0.0
    assert raw.a == pytest.approx(2.0 * 2.0 * 1.5)
    assert raw.m == pytest.approx(0.4 * 1.5 * 2.0)
    n = raw.normalized()
    assert n.gamma == pytest.approx(1.5) and n.mu == pytest.approx(0.6)


@pytest.mark.parametrize("field", ["gamma", "q", "sigma"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_fields(field, bad):
    kw = {"gamma": 1.5, "q": 0.4, "sigma": 2.0, field: bad}
    with pytest.raises(InvalidParamsError, match="non-finite"):
        ExtremalParams(**kw)


@pytest.mark.parametrize(
    "gamma, q, expected",
    [(1.0, 0.0, 1.0), (1.0, 0.5, 2.0), (2.0, -0.5, 1.0)],
)
def test_sigma_bound_examples(gamma, q, expected):
    assert sigma_bound(gamma, q) == pytest.approx(expected, rel=1e-14)


def test_sigma_bound_even_in_q():
    for gamma in (0.5, 1.0, 3.0):
        for q in (0.1, 0.4, 0.8):
            assert sigma_bound(gamma, q) == sigma_bound(gamma, -q)


def test_certify_examples():
    assert certify(ExtremalParams(gamma=1.0, q=0.0, sigma=1.0)).passed  # boundary
    assert not certify(ExtremalParams(gamma=1.0, q=0.5, sigma=1.999)).passed
    assert certify(ExtremalParams(gamma=2.0, q=-0.5, sigma=1.0)).passed
    cert = certify(ExtremalParams(gamma=1.0, q=0.0, sigma=1.0))
    assert "sigma_bound" in cert.on_boundary


def test_oracle_agreement_and_supremum_side():
    rng = np.random.default_rng(29)
    for _ in range(25):
        gamma = rng.uniform(0.3, 4.0)
        q = rng.uniform(-0.85, 0.85)
        res = sigma_star(gamma, 2.0, 0.0, q * gamma)
        assert res.sigma_star == pytest.approx(sigma_bound(gamma, q), rel=1e-9)
        assert res.side == "limit_at_infinity"
        assert res.argsup_l == (math.inf if q >= 0 else -math.inf)


def test_admissible_interval_is_unit_q_box():
    for gamma in (0.5, 1.0, 2.5):
        iv = mu_interval(gamma, 2.0, 0.0)
        assert iv.lower == pytest.approx(-gamma) and iv.upper == pytest.approx(gamma)
        assert iv.degenerate_case == "b2_rho0"


def test_certify_matches_density_check():
    rng = np.random.default_rng(41)
    for _ in range(40):
        gamma = rng.uniform(0.3, 4.0)
        q = rng.uniform(-0.85, 0.85)
        sigma = sigma_bound(gamma, q) * rng.choice([0.8, 0.95, 1.05, 1.5])
        p = ExtremalParams(gamma=gamma, q=q, sigma=sigma)
        cert = certify(p)
        rep = durrleman_check(p.to_raw())
        assert cert.passed == (rep.min_value >= -1e-8), (gamma, q, sigma)


def test_certificate_flags_the_wing_slope_bound():
    # b = 2, rho = 0 sits on the Roger Lee bound b*(1 + |rho|) = 2, and the
    # oracle takes the wing limit there as the certificate does
    cert = certify(ExtremalParams(gamma=1.0, q=0.3, sigma=2.0))
    assert cert.conditions["roger_lee"]
    assert cert.on_boundary == ("roger_lee",)
    assert math.isinf(cert.diagnostics["argsup"])
    assert sigma_star(1.0, 2.0, 0.0, 0.3).side == "limit_at_infinity"
