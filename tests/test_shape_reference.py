"""The shape functions against reference copies of their direct expressions,
which recompute sqrt(l^2+1), l*l*(1-rho^2), s*s, 2N and b*g wherever they
appear: the outputs must agree bit for bit.  The density check, which runs
in u = 1/l beyond |l| = 50, is held to the direct expressions on its grid."""

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


def ref_density(p):
    """The density functional on the check's grid: the direct expressions
    at every finite l, and the limit G1 = w*(2 - w)/4 of each wing at
    l = +-inf, w being its slack 1 - b*(1 +- rho)/2; a flat wing of
    |rho| = 1 has no value there, which the check counts as +inf."""
    nsvi = p.normalized()
    ls = oracle._density_grid()[0]
    h, g, g2v = ref_hgg2(ls[1:-1], nsvi)
    b = nsvi.b
    ends = [(1.0 - b * (1.0 + r) / 2.0) * (1.0 + b * (1.0 + r) / 2.0) / 4.0
            if r > -1.0 else math.inf for r in (-nsvi.rho, nsvi.rho)]
    inner = (h - b * g) * (h + b * g) + b * g2v / (2.0 * nsvi.sigma)
    return np.concatenate([ends[:1], inner, ends[1:]])


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


def _same_nan(v: bytes) -> bytes:
    """The bytes of an array with every NaN made the same NaN: its sign and
    payload carry nothing."""
    x = np.frombuffer(v, dtype=np.float64)
    return np.where(np.isnan(x), np.nan, x).tobytes()


def _array_outcome(fn, l, *args):
    """The outcome of fn on the 1-element array [l] as floats, NaNs alike."""
    with np.errstate(all="ignore"):
        outcome = _outcome(fn, np.array([l]), *args)
    return [(float, _same_nan(v)) for _, v in outcome]


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
    # where a power of s overflows, the direct expressions raise
    # OverflowError, and a float returns what a 1-element array returns
    for fn, ref, args in _pairs(rho):
        for l in L_SCALARS:
            got, expected = _outcome(fn, l, *args), _outcome(ref, l, *args)
            if expected is OverflowError:
                got = [(t, _same_nan(v)) for t, v in got]
                expected = _array_outcome(fn, l, *args)
            assert got == expected, (fn.__name__, l)


@pytest.mark.parametrize("rho", RHOS)
def test_durrleman_check_equals_the_reference(rho):
    gamma = -math.sqrt(max(0.0, (1.0 - rho) * (1.0 + rho))) + 1e-12
    for sigma in (0.05, 1.0, 20.0):
        raw = NormalizedSvi(gamma=gamma, b=B, rho=rho, mu=MU, sigma=sigma).to_raw()
        report = oracle.durrleman_check(raw)
        vals = ref_density(raw)
        i = int(np.argmin(vals))
        assert report.min_value == pytest.approx(vals[i], rel=1e-12, abs=1e-15)
        assert report.argmin_l == oracle._density_grid()[0][i]
        assert report.n_points == len(oracle._density_grid()[0])


@pytest.mark.parametrize("sigma", [0.05, 1.0, 20.0])
def test_durrleman_check_keeps_the_slack_beyond_the_slope_bound(sigma):
    # the SSVI slice b = 1.5, rho = 0.6 has the right wing's slope 2.4: its
    # slack -0.2 enters h - b*g as it is, and the check finds the arbitrage
    # at l = +inf that the direct expressions give
    raw = NormalizedSvi(gamma=0.8, b=1.5, rho=0.6, mu=-0.75, sigma=sigma).to_raw()
    report = oracle.durrleman_check(raw)
    vals = ref_density(raw)
    i = int(np.argmin(vals))
    assert report.min_value == pytest.approx(vals[i], rel=1e-12, abs=1e-15)
    assert report.argmin_l == oracle._density_grid()[0][i]
    assert report.min_value < 0.0


def test_density_terms_are_read_only_constants():
    # the grid: 4001 uniform l on [-50, 50], and beyond, 500 log-spaced
    # u = 1/l on each side down to u = 0, l = +-inf; the terms of its right
    # half-line are built once, for the pair (a, c) with l = a/c
    ls = oracle._density_grid()[0]
    assert len(ls) == 4001 + 2 * 501
    assert ls[0] == -math.inf and ls[-1] == math.inf
    assert np.array_equal(ls, -ls[::-1]) and np.all(np.diff(ls) > 0.0)
    assert np.allclose(np.diff(ls[501:-501]), 0.025, rtol=0.0, atol=1e-12)
    assert ls[-2] == 1e10
    half = ls[len(ls) // 2:]
    a, c = oracle._density_grid()[1][:2]
    assert np.allclose(a[:-1] / c[:-1], half[:-1], rtol=1e-15, atol=0.0)
    assert (a[-1], c[-1]) == (1.0, 0.0)
    assert not ls.flags.writeable
    for term in oracle._density_grid()[1]:
        assert term.shape == half.shape
        assert not term.flags.writeable
    # the density check's columns, rows here, against (2*gamma, 2*P, 2) and
    # the six coefficients of 2*N*c*(h - b*g), and the shape-free c*c^2/s^3
    a, c, e, es, q, qr, eqr, c2s3 = oracle._density_grid()[1]
    expected = (np.stack([c, a, e]), np.stack([a, c, c * q, c * qr, c * es, c * eqr]), c * c2s3)
    for cols, want in zip(oracle._density_grid()[2:], expected):
        assert np.array_equal(cols, want)
        assert not cols.flags.writeable


def test_durrleman_check_recomputes_no_grid_terms(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("grid terms recomputed")

    raws = [
        NormalizedSvi(gamma=gamma, b=b, rho=rho, mu=mu, sigma=sigma).to_raw()
        for gamma, b, rho, mu, sigma in [
            (0.5, 0.8, 0.3, -0.1, 0.4), (0.0, 1.0, 1.0, -2.0, 1.0),
            (-0.9, 0.3, 0.0, 0.0, 0.5), (1.5, 0.6, -0.7, 0.4, 2.0),
        ]
    ]
    expected = [oracle.durrleman_check(raw) for raw in raws]
    monkeypatch.setattr(np, "hypot", refuse)
    monkeypatch.setattr(np, "stack", refuse)  # nor the columns built of them
    with pytest.raises(AssertionError):
        hgg2(oracle._density_grid()[0], raws[0].normalized())
    assert [oracle.durrleman_check(raw) for raw in raws] == expected
