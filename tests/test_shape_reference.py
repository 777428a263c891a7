"""The shape functions and the density check against reference copies of
their direct expressions, which recompute sqrt(l^2+1), l*l*(1-rho^2), s*s,
2N and b*g wherever they appear: the outputs must agree bit for bit."""

from __future__ import annotations

import math

import numpy as np
import pytest

from smile_domain import (
    EvaluationDomainError,
    NormalizedSvi,
    hgg2,
    hgg2_prime,
    l_minus_curve,
    n_funcs,
    oracle,
    sigma_floor,
)

RHOS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 0.3, -0.3,
        1.0 - 1e-14, -1.0 + 1e-14, 1.0, -1.0]
B, MU = 0.8, 0.25

_RNG = np.random.default_rng(15)
_HALF = 50_000
L_ARRAY = np.concatenate([
    _RNG.uniform(-60.0, 60.0, _HALF),
    np.where(_RNG.random(_HALF) < 0.5, -1.0, 1.0) * 10.0 ** _RNG.uniform(-12.0, 200.0, _HALF),
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e154, -1e155, 1e308, -1e308],
])
L_SCALARS = L_ARRAY[:: len(L_ARRAY) // 1000].tolist()


# ---------------------------------------------------------------------------
# reference expressions
# ---------------------------------------------------------------------------
def _hypot1(l):
    return math.hypot(l, 1.0) if isinstance(l, (float, int)) else np.hypot(l, 1.0)


def _select(cond, a, b):
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _any(mask):
    return mask if isinstance(mask, bool) else mask.any()


def ref_n_funcs(l, gamma, rho):
    s = _hypot1(l)
    x = l / s
    lin = rho * l
    n = gamma + lin + s
    n1 = rho + x
    if rho != 0.0:
        one_m_rho2 = (1.0 - rho) * (1.0 + rho)
        n_alt = gamma + (l * l * one_m_rho2 + 1.0) / (s + abs(lin))
        n = _select(lin < 0.0, n_alt, n)
        sgn = math.copysign(1.0, rho)
        n1_alt = sgn * (rho * rho - l * l * one_m_rho2) / (s * s) / (abs(rho) + abs(x))
        n1 = _select(rho * x < 0.0, n1_alt, n1)
    n2 = 1.0 / (s * s * s)
    return n, n1, n2


def ref_hgg2(l, nsvi):
    n, n1, n2 = ref_n_funcs(l, nsvi.gamma, nsvi.rho)
    if _any(n <= 0.0):
        raise EvaluationDomainError("N(l) <= 0: smile level vanishes")
    h = 1.0 - n1 * (l + nsvi.mu) / (2.0 * n)
    g = n1 / 4.0
    g2 = n2 - n1 * n1 / (2.0 * n)
    return h, g, g2


def ref_hgg2_prime(l, nsvi):
    n, n1, n2 = ref_n_funcs(l, nsvi.gamma, nsvi.rho)
    if _any(n <= 0.0):
        raise EvaluationDomainError("N(l) <= 0: smile level vanishes")
    s = _hypot1(l)
    n3 = -3.0 * l / s**5
    lm = l + nsvi.mu
    h = 1.0 - n1 * lm / (2.0 * n)
    g = n1 / 4.0
    g2 = n2 - n1 * n1 / (2.0 * n)
    h1 = -(n2 * lm + n1) / (2.0 * n) + n1 * n1 * lm / (2.0 * n * n)
    g1d = n2 / 4.0
    g21 = n3 - n1 * n2 / n + n1**3 / (2.0 * n * n)
    return h, g, g2, h1, g1d, g21


def ref_sigma_floor(l, nsvi):
    h, g, g2v = ref_hgg2(l, nsvi)
    b = nsvi.b
    num, den = -b * g2v, 2.0 * ((h - b * g) * (h + b * g))
    if not _any(den == 0.0):
        return num / den
    with np.errstate(divide="ignore"):
        return np.divide(num, den)


def ref_l_minus_curve(l, b, rho):
    s = _hypot1(l)
    n0, n1, _ = ref_n_funcs(l, 0.0, rho)
    return s**3 * n1 * n1 * (2.0 + b * n1) / 4.0 - n0


def ref_durrleman(p):
    nsvi = p.normalized()
    ls = oracle._DENSITY_GRID
    h, g, g2v = ref_hgg2(ls, nsvi)
    b = nsvi.b
    vals = (h - b * g) * (h + b * g) + b * g2v / (2.0 * nsvi.sigma)
    i = int(np.argmin(vals))
    return float(vals[i]), float(ls[i])


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------
def _outcome(fn, *args):
    """The output's type and bytes, or the type of the exception raised."""
    try:
        out = fn(*args)
    except (EvaluationDomainError, OverflowError) as exc:
        return type(exc)
    outs = out if isinstance(out, tuple) else (out,)
    return [(type(v), np.asarray(v, dtype=np.float64).tobytes()) for v in outs]


def _pairs(rho):
    gamma = -math.sqrt(max(0.0, (1.0 - rho) * (1.0 + rho))) + 1e-12
    nsvi = NormalizedSvi(gamma=gamma, b=B, rho=rho, mu=MU, sigma=1.0)
    return [
        (n_funcs, ref_n_funcs, (gamma, rho)),
        (hgg2, ref_hgg2, (nsvi,)),
        (hgg2_prime, ref_hgg2_prime, (nsvi,)),
        (sigma_floor, ref_sigma_floor, (nsvi,)),
        (l_minus_curve, ref_l_minus_curve, (B, rho)),
    ]


@pytest.mark.parametrize("rho", RHOS)
def test_array_outputs_equal_the_reference_bit_for_bit(rho):
    with np.errstate(all="ignore"):
        for fn, ref, args in _pairs(rho):
            expected = _outcome(ref, L_ARRAY, *args)
            assert _outcome(fn, L_ARRAY, *args) == expected, fn.__name__
            # the floor level keeps N > 0 on every sample
            assert expected is not EvaluationDomainError, fn.__name__


@pytest.mark.parametrize("rho", RHOS)
def test_scalar_outputs_equal_the_reference_bit_for_bit(rho):
    for fn, ref, args in _pairs(rho):
        for l in L_SCALARS:
            assert _outcome(fn, l, *args) == _outcome(ref, l, *args), (fn.__name__, l)


@pytest.mark.parametrize("rho", RHOS)
def test_durrleman_check_equals_the_reference(rho):
    gamma = -math.sqrt(max(0.0, (1.0 - rho) * (1.0 + rho))) + 1e-12
    for sigma in (0.05, 1.0, 20.0):
        raw = NormalizedSvi(gamma=gamma, b=B, rho=rho, mu=MU, sigma=sigma).to_raw()
        report = oracle.durrleman_check(raw)
        assert (report.min_value, report.argmin_l) == ref_durrleman(raw)
        assert report.n_points == len(oracle._DENSITY_GRID)


def test_density_terms_are_read_only_constants():
    assert oracle._DENSITY_TERMS[0] is oracle._DENSITY_GRID
    for term in oracle._DENSITY_TERMS:
        assert term.shape == oracle._DENSITY_GRID.shape
        assert not term.flags.writeable


def test_durrleman_check_recomputes_no_grid_terms(monkeypatch):
    def no_hypot(*args, **kwargs):
        raise AssertionError("np.hypot called")

    raws = [
        NormalizedSvi(gamma=gamma, b=b, rho=rho, mu=mu, sigma=sigma).to_raw()
        for gamma, b, rho, mu, sigma in [
            (0.5, 0.8, 0.3, -0.1, 0.4), (0.0, 1.0, 1.0, -2.0, 1.0),
            (-0.9, 0.3, 0.0, 0.0, 0.5), (1.5, 0.6, -0.7, 0.4, 2.0),
        ]
    ]
    expected = [oracle.durrleman_check(raw) for raw in raws]
    monkeypatch.setattr(np, "hypot", no_hypot)
    with pytest.raises(AssertionError):
        hgg2(oracle._DENSITY_GRID, raws[0].normalized())
    assert [oracle.durrleman_check(raw) for raw in raws] == expected
