"""A smile in two families gets the same sigma* from both closed forms, and
each certifier's sigma* is continuous across its switch to a special
formula."""

from __future__ import annotations

import numpy as np
import pytest

from smile_domain import extremal, fukasawa, oracle, ssvi, symmetric, vanishing
from smile_domain.core import InvalidParamsError, RogerLeeViolation

# b from 1e-9 to next to the slope bound 2, denser at both ends
_B = np.concatenate([
    np.geomspace(1e-9, 1e-2, 50, endpoint=False),
    np.linspace(0.01, 1.99, 200),
    2.0 - np.geomspace(1e-2, 2e-10, 56),
])


def test_ssvi_at_rho_0_is_symmetric_at_gamma_1():
    # theta = 2b, phi = 1, rho = 0 is gamma = 1, mu = 0, sigma = 1; the worst
    # gap, 4.4e-11 next to b = 2, is of the size of both routes' own error
    assert len(_B) == 306
    for b in map(float, _B):
        s = ssvi.certify(ssvi.SsviParams(theta=2.0 * b, phi=1.0, rho=0.0))
        m = symmetric.certify(symmetric.SymmetricParams(gamma=1.0, b=b, sigma=1.0))
        assert s.bounds["sigma_star"] == pytest.approx(m.bounds["sigma_star"], rel=1e-10, abs=0.0), b


def test_symmetric_at_b_2_is_extremal_at_q_0():
    for gamma in map(float, np.geomspace(1e-3, 1e3, 200)):
        m = symmetric.certify(symmetric.SymmetricParams(gamma=gamma, b=2.0, sigma=1.0))
        e = extremal.certify(extremal.ExtremalParams(gamma=gamma, q=0.0, sigma=1.0))
        assert m.bounds["sigma_star"] == e.bounds["sigma_star"], gamma


# ---------------------------------------------------------------------------
# continuity across each certifier's switch to a special formula
# ---------------------------------------------------------------------------
_GAP_TOL = 1e-6  # the benchmark's relative gap between two routes
_THRESHOLD_TOL = 1e-8  # the benchmark's bisected vs closed-form wing threshold


@pytest.mark.parametrize(
    "offset",
    [-9e-7, -1e-7, -1e-8, -2e-9, -1.01e-9, -0.99e-9, 0.99e-9, 1.01e-9, 2e-9, 1e-8, 1e-7, 9e-7],
)
def test_symmetric_is_continuous_across_gamma_hat(offset):
    # within 1e-9 of GAMMA_HAT the certifier takes the frozen critical point
    # Z_HAT, outside it solves for z; both sides match the oracle (worst
    # measured 1.1e-14)
    gamma = symmetric.GAMMA_HAT + offset
    cert = symmetric.certify(symmetric.SymmetricParams(gamma=gamma, b=0.3, sigma=1.0))
    assert cert.bounds["sigma_star"] == pytest.approx(
        oracle.sigma_star(gamma, 0.3, 0.0, 0.0).sigma_star, rel=1e-12, abs=0.0
    )


# ---------------------------------------------------------------------------
# continuity at the wing-slope bound: a value takes the bound's limit only
# where core._wing_slack is 0, that is within the rounding of b*(1 + rho)
# (2^-52); BOUNDARY_TOL decides the Roger Lee verdict alone
# ---------------------------------------------------------------------------
_CLAMP, _ULP = 2.0**-52, 2.0**-53  # _wing_slack's clamp; the slack's spacing below 1
# the old band's edges, 5e-11 of slack either side of the bound, and 1 to 8
# ulps either side of the clamp; past -5e-11 the slope is beyond the bound
_SLACKS = [sign * k * 5e-11 for sign in (1.0, -1.0) for k in (0.99, 1.01, 2.0)] + [
    _CLAMP + k * _ULP for k in (-8, -4, -2, -1, 1, 2, 4, 8)
]
# pairs of slacks either side of a switch: the old band's edge and the clamp
_PAIRS = [(0.99 * 5e-11, 1.01 * 5e-11)] + [
    (_CLAMP - k * _ULP, _CLAMP + k * _ULP) for k in (1, 2, 4, 8)
]
# a quarter-decade sweep from 1e-6 of slack down to the bound
_SWEEP = [10.0 ** (-6.0 - k / 4.0) for k in range(41)] + [0.0]


def _ssvi_switch(rho):
    def params(slack):
        b = (2.0 - 2.0 * slack) / (1.0 + abs(rho))
        return ssvi.SsviParams(theta=2.0 * b, phi=1.0, rho=rho)

    def shape(slack):
        p = params(slack)
        return (p.gamma, p.b, p.rho, p.mu)

    return ssvi.certify, params, shape


# each switch as (certify, its parameters at a slack, the oracle's shape)
_SWITCHES = {
    "vanishing": (
        vanishing.certify,
        lambda w: vanishing.VanishingParams(1.0 - w, -0.5, 1.0, "upward"),
        lambda w: (0.0, 1.0 - w, 1.0, -0.5),
    ),
    "ssvi-rho=-0.7": _ssvi_switch(-0.7),
    "ssvi-rho=0.4": _ssvi_switch(0.4),
    "symmetric": (
        symmetric.certify,
        lambda w: symmetric.SymmetricParams(0.5, 2.0 - 2.0 * w, 1.0),
        lambda w: (0.5, 2.0 - 2.0 * w, 0.0, 0.0),
    ),
}


def _both_routes(switch, slack):
    """(certifier's sigma*, oracle's sigma*), each None where it refuses the
    slope as beyond the bound."""
    certify, params, shape = _SWITCHES[switch]
    try:
        cert = certify(params(slack))
        ours = cert.bounds["sigma_star"] if cert.conditions["roger_lee"] else None
    except InvalidParamsError:  # the family's parameters end at the bound
        ours = None
    try:
        ref = oracle.sigma_star(*shape(slack)).sigma_star
    except RogerLeeViolation:
        ref = None
    return ours, ref


@pytest.mark.parametrize("slack", _SLACKS)
@pytest.mark.parametrize("switch", sorted(_SWITCHES))
def test_certifier_is_continuous_at_the_slope_bound(switch, slack):
    # both routes solve the critical point down to the clamp, take the
    # limit below it, and refuse the slope past the Roger Lee band
    ours, ref = _both_routes(switch, slack)
    assert (ours is None) == (ref is None) == (slack < -5e-11)
    if ours is not None:
        assert ours == pytest.approx(ref, rel=_GAP_TOL, abs=0.0)


@pytest.mark.parametrize("pair", _PAIRS)
@pytest.mark.parametrize("switch", sorted(_SWITCHES))
def test_certifier_does_not_jump_across_a_switch(switch, pair):
    # sigma* moves by order sqrt(slack) next to the bound: measured 1.4e-7 to
    # 3.6e-7 across the old band's edge, where it jumped by 1e-5, and 3.3e-8
    # to 1.8e-7 between the clamp's limit and the critical point above it
    lo, hi = (_both_routes(switch, slack)[0] for slack in pair)
    assert lo == pytest.approx(hi, rel=_GAP_TOL, abs=0.0)


@pytest.mark.parametrize("switch", sorted(_SWITCHES))
def test_certifier_sweeps_into_the_slope_bound(switch):
    # worst measured: 3.7e-8 symmetric, 1.1e-8 SSVI, 8.1e-8 vanishing at
    # mu = -0.5 (small |mu| loses more next to b = 1, and is not swept here)
    for slack in _SWEEP:
        ours, ref = _both_routes(switch, slack)
        assert ours == pytest.approx(ref, rel=_GAP_TOL, abs=0.0), slack


def test_vanishing_is_continuous_across_b_1():
    # 1 - b = 5.1e-11 and 4.9e-11 lie either side of the old BOUNDARY_TOL
    # band, which returned -1/mu = 2.0 inside it; both solve the critical point
    def sstar(b):
        return vanishing.certify(vanishing.VanishingParams(b, -0.5, 1.0, "upward")).bounds["sigma_star"]

    assert sstar(1.0 - 5.1e-11) == pytest.approx(sstar(1.0 - 4.9e-11), rel=_GAP_TOL, abs=0.0)


def test_ssvi_is_continuous_across_the_slope_bound():
    # at rho = -0.7, b*(1 + |rho|) = 2 - 1.01e-10 and 2 - 0.99e-10 lie either
    # side of the old band, which returned sqrt(1 - rho^2) inside it, 1.4e-5
    # above the critical point's value
    def sstar(slack):
        b = (2.0 - slack) / 1.7
        return ssvi.certify(ssvi.SsviParams(theta=2.0 * b, phi=1.0, rho=-0.7)).bounds["sigma_star"]

    assert sstar(1.01e-10) == pytest.approx(sstar(0.99e-10), rel=_GAP_TOL, abs=0.0)


# shapes that pass the Fukasawa condition next to the bound, where the slack
# is below the old band, and whose sigma* loses digits (ROADMAP item 4)
_EDGE_LOSS = "sigma* next to the slope bound loses digits (ROADMAP item 4)"


@pytest.mark.xfail(strict=True, reason=_EDGE_LOSS)
def test_vanishing_at_small_mu_next_to_b_1_matches_the_oracle():
    # 1 - b = 1e-14 keeps mu below the cap sqrt(3*(1 - b)); measured 2.0e-2 off
    b = 1.0 - 1e-14
    cert = vanishing.certify(vanishing.VanishingParams(b, vanishing.fukasawa_bound(b) / 2.0, 1.0))
    n = cert.params_raw.normalized()
    ref = oracle.sigma_star(n.gamma, n.b, n.rho, n.mu).sigma_star
    assert cert.bounds["sigma_star"] == pytest.approx(ref, rel=_GAP_TOL, abs=0.0)


@pytest.mark.xfail(strict=True, reason=_EDGE_LOSS)
def test_symmetric_below_gamma_0_next_to_b_2_matches_the_oracle():
    # 2 - b = 1.1e-11 puts the threshold at -5.7e-6, below gamma; measured 9.2e-5 off
    b, gamma = 2.0 - 1.1e-11, -5e-6
    cert = symmetric.certify(symmetric.SymmetricParams(gamma, b, 1.0))
    ref = oracle.sigma_star(gamma, b, 0.0, 0.0).sigma_star
    assert cert.bounds["sigma_star"] == pytest.approx(ref, rel=_GAP_TOL, abs=0.0)


def _mp_lower_end(gamma, b, rho):
    """mu_interval's lower end in 80-digit mpmath: the bound curve
    2*N*(1/N' + b/4) - l at the root l- of l_minus_curve = gamma, by
    bisection in log(-l) from l = -1e-6 to -1e40; the limit -b*gamma/2
    where the left wing's exact slack is not above 0, or l- lies further out."""
    from mpmath import mp, mpf, sqrt as msqrt

    with mp.workdps(80):
        g, bb, r = mpf(gamma), mpf(b), mpf(rho)

        def at(t):  # (level - gamma, bound curve) at l = -exp(t)
            l = -mp.exp(t)
            s = msqrt(l * l + 1)
            n, n1 = g + r * l + s, r + l / s
            level = (r * s + l) ** 2 * (s * (mpf(1) / 2 + bb * r / 4) + bb * l / 4) - (r * l + s)
            return level - g, 2 * n * (1 / n1 + bb / 4) - l

        lo, hi = mp.log(mpf("1e-6")), mp.log(mpf("1e40"))
        if bb * (1 - r) >= 2 or at(hi)[0] <= 0:
            return float(-bb * g / 2)
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if at(mid)[0] > 0 else (mid, hi)
        return float(at(hi)[1])


@pytest.mark.parametrize("slack", _SLACKS)
def test_mu_interval_lower_end_is_continuous_at_the_slope_bound(slack):
    # rho = -0.4: the left wing b*(1 - rho) is the steeper one; its end takes
    # -b*gamma/2 only where the slack is 0, and the tag stays the verdict
    rho, gamma = -0.4, 0.5
    b = (2.0 - 2.0 * slack) / (1.0 - rho)
    if slack < -5e-11:
        with pytest.raises(InvalidParamsError):
            fukasawa.mu_interval(gamma, b, rho)
        return
    iv = fukasawa.mu_interval(gamma, b, rho)
    assert iv.lower == pytest.approx(_mp_lower_end(gamma, b, rho), rel=_GAP_TOL, abs=0.0)
    on = fukasawa.wing_slope(b, -rho) == "on"
    assert iv.degenerate_case == ("b_one_minus_rho_eq_2" if on else "generic")


@pytest.mark.parametrize("d", np.geomspace(1e-6, 2e-14, 31).tolist() + [1.01e-10, 0.99e-10])
def test_threshold_decorrelated_reaches_the_closed_form_at_the_bound(d):
    # the root in u holds down to 2 - b = 2e-14 (measured 3.8e-11 at 1e-10,
    # 7.7e-9 at 1e-14); the old band returned 0 within 2e-10 of b = 2
    b = 2.0 - d
    assert fukasawa.fukasawa_threshold(b, 0.0) == pytest.approx(
        symmetric.fukasawa_threshold_closed(b), rel=0.0, abs=_THRESHOLD_TOL
    )
