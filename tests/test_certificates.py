from __future__ import annotations

import math

import pytest

from smile_domain import EvaluationDomainError
from smile_domain.certificates import make_certificate
from smile_domain.symmetric import SymmetricParams


def _certificate(sigma_star: float, **margin):
    # raw (a, b, rho, m, sigma) = (0.5, 1, 0, 0, 1)
    return make_certificate(
        family="test",
        params=SymmetricParams(gamma=0.5, b=1.0, sigma=1.0),
        sigma_star=sigma_star,
        bounds={},
        diagnostics={},
        **margin,
    )


@pytest.mark.parametrize("sigma_star", [0.0, -1.0, math.nan])
def test_a_sigma_star_that_is_not_positive_is_a_failed_evaluation(sigma_star):
    with pytest.raises(EvaluationDomainError, match="not positive"):
        _certificate(sigma_star)


def test_an_infinite_sigma_star_fails_the_sigma_bound():
    cert = _certificate(math.inf)
    assert not cert.passed and not cert.conditions["sigma_bound"]
    assert cert.conditions["roger_lee"] and cert.bounds["sigma_star"] == math.inf
    assert "sigma_bound" not in cert.on_boundary


def test_a_finite_sigma_star_sets_the_bound_and_its_boundary_flag():
    assert _certificate(0.5).passed
    cert = _certificate(1.0)
    assert cert.passed and cert.on_boundary == ("sigma_bound",)


def test_a_zero_fukasawa_margin_fails_the_condition_and_is_flagged():
    cert = _certificate(0.5, fukasawa_margin=0.0)
    assert not cert.passed and not cert.conditions["fukasawa"]
    assert cert.on_boundary == ("fukasawa",)


def test_the_default_margin_passes_the_fukasawa_condition_unflagged():
    cert = _certificate(0.5)
    assert cert.passed and cert.conditions["fukasawa"]
    assert cert.on_boundary == ()


def test_the_conditions_keep_their_order_and_the_verdict_follows_them():
    cert = _certificate(0.5)
    assert list(cert.conditions) == ["roger_lee", "fukasawa", "sigma_bound"]
    cert.conditions["roger_lee"] = False
    assert not cert.passed and cert.to_dict()["verdict"] == "arbitrage"


def test_the_native_parameters_are_the_dataclass_fields_in_order():
    cert = _certificate(0.5)
    assert cert.params_native == {"gamma": 0.5, "b": 1.0, "sigma": 1.0}
    assert list(cert.params_native) == ["gamma", "b", "sigma"]
    assert cert.params_raw == SymmetricParams(gamma=0.5, b=1.0, sigma=1.0).to_raw()
