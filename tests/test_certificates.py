from __future__ import annotations

import math

import pytest

from smile_domain import EvaluationDomainError, RawSviParams
from smile_domain.certificates import make_certificate


def _certificate(sigma_star: float):
    return make_certificate(
        family="test",
        conditions={},
        bounds={},
        on_boundary=[],
        params_raw=RawSviParams(a=0.5, b=1.0, rho=0.0, m=0.0, sigma=1.0),
        params_native={},
        sigma_star=sigma_star,
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
