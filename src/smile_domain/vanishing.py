"""Explicit no-arbitrage domain for wing-degenerate smiles (|rho| = 1, a = 0).

The upward family w(k) = b*(k - m + sqrt((k-m)^2 + sigma^2)) vanishes on
the left and increases; the downward family is its strike mirror and is
certified by delegation through mu -> -mu.  Wing slopes force 0 < b <= 1.

For 0 < b < 1, in the coordinate x = l/sqrt(l^2+1), the critical-point
equation of the sigma requirement is quadratic in mu.  Solving it yields a
closed-form mu*(x) on x in ((2+b)/(4-b), 1), strictly decreasing from the
admissible mu bound sqrt(3(1-b)) down to -infinity, and with it the exact
threshold sigma*(x).  Both are written in s = sqrt(1 - x): as mu -> -inf
the critical point goes to x = 1 as s ~ sqrt((1 - b^2)/2)/|mu|, which x
cannot hold past |mu| of about 1e8, nor 1 - x past about 1e154, and
sigma* ~ b/((1 + sqrt(1 - b^2))*|mu|).  Certification inverts mu -> s with
Brent's method and evaluates the same closed form at that critical point
for the given mu, not mu*(x).  The requirement is stationary there, so
the root's error enters sigma* only at second order; at mu*(x) it would
enter at first.

For b = 1, a wing slope 2b on the bound 2, the wing factor degenerates
and the requirement is attained only in the k -> +infinity limit, -1/mu,
which certify takes where the slack 1 - b (``core._wing_slack``) is 0;
short of that, x runs out to 1 and sigma* runs into the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .certificates import DomainCertificate, make_certificate
from .core import (
    BOUNDARY_TOL,
    EvaluationDomainError,
    InvalidParamsError,
    RawSviParams,
    _wing_slack,
    wing_slope,
)
from .roots import brentq

__all__ = [
    "VanishingParams",
    "x_plus_star",
    "fukasawa_bound",
    "mu_star",
    "sigma_star_closed",
    "x_from_mu",
    "subdomain_bound",
    "subdomain_check",
    "certify",
]

Direction = Literal["upward", "downward"]

# value of -j2 at its minimizer x = (2 + sqrt(10))/6, times 2
_SUBDOMAIN_COEF = (34.0 * math.sqrt(2.0) - 5.0 * math.sqrt(5.0)) / 54.0

_EDGE = 1e-12


@dataclass(frozen=True, slots=True)
class VanishingParams:
    """Wing-degenerate smile in native coordinates (b, mu, sigma)."""

    b: float
    mu: float
    sigma: float
    direction: Direction = "upward"

    def __post_init__(self):
        if not all(map(math.isfinite, (self.b, self.mu, self.sigma))):
            raise InvalidParamsError(f"non-finite parameters: {self}")
        if not self.b > 0.0 or wing_slope(self.b, 1.0) == "beyond":
            raise InvalidParamsError(f"b must lie in (0, 1], got {self.b}")
        if self.sigma <= 0.0:
            raise InvalidParamsError(f"sigma must be > 0, got {self.sigma}")
        if self.direction not in ("upward", "downward"):
            raise InvalidParamsError(f"unknown direction {self.direction!r}")

    @property
    def rho(self) -> float:
        return 1.0 if self.direction == "upward" else -1.0

    def to_raw(self) -> RawSviParams:
        return RawSviParams(
            a=0.0,
            b=min(self.b, 1.0),
            rho=self.rho,
            m=self.mu * self.sigma,
            sigma=self.sigma,
        )


def x_plus_star(b: float) -> float:
    """Left endpoint (2+b)/(4-b) of the admissible x-interval."""
    return (2.0 + b) / (4.0 - b)


def fukasawa_bound(b: float) -> float:
    """Upper mu bound sqrt(3*(1-b)) for the upward family, 1 - b being the
    slack (the downward family requires mu above the negated value)."""
    if not b >= 0.0 or wing_slope(b, 1.0) == "beyond":
        raise InvalidParamsError(f"b must lie in [0, 1], got {b}")
    return math.sqrt(3.0 * _wing_slack(b, 1.0))


def _mu_star_s(s: float, b: float) -> float:
    """mu* at x = 1 - s^2, with v = s^2 = 1 - x: the radicand is
    4*(1 - b^2) + O(v), and every term stays representable as s -> 0."""
    v = s * s
    b2 = b * b
    radicand = (
        4.0 * b2 * v**6
        - 32.0 * b2 * v**5
        + v**4 * (92.0 * b2 + 64.0)
        - v**3 * (108.0 * b2 + 128.0)
        + v**2 * (31.0 * b2 + 96.0)
        + v * (20.0 * b2 - 32.0)
        + 4.0 * (1.0 - b) * (1.0 + b)
    )
    if radicand < 0.0:
        if radicand < -1e-12:
            raise EvaluationDomainError(
                f"negative radicand {radicand} in mu* at x={1.0 - v}, b={b}"
            )
        radicand = 0.0
    num = 2.0 * v * ((2.0 * v + 4.0) * v - 7.0) + math.sqrt(radicand)
    den = 2.0 * s * math.sqrt(2.0 - v) * ((2.0 * v - 2.0) * v - 1.0)
    return num / den


def mu_star(x: float, b: float) -> float:
    """The unique mu making x the critical point of the sigma requirement.

    Strictly decreasing in x on ((2+b)/(4-b), 1), with limits
    sqrt(3*(1-b)) at the left endpoint and -infinity at x -> 1.
    """
    if not 0.0 < b < 1.0:
        raise EvaluationDomainError(f"mu* requires 0 < b < 1, got b={b}")
    if not x_plus_star(b) < x < 1.0:
        raise EvaluationDomainError(
            f"x={x} outside ({x_plus_star(b)}, 1) for b={b}"
        )
    return _mu_star_s(math.sqrt(1.0 - x), b)


def _sigma_s(s: float, b: float, mu: float) -> float:
    """sigma_star_closed at x = 1 - s^2: -b*g2/(2*G1) with
    sqrt(1 - x^2) = s*sqrt(2 - v), v = s^2, and mu*s*sqrt(2 - v) of order 1
    at the critical point however large |mu| is."""
    v = s * s
    root = s * math.sqrt(2.0 - v)
    num = 4.0 * b * root * (2.0 - v) * (1.0 - 2.0 * v)
    d = 1.0 + v - mu * root
    den = 4.0 * d * d - b * b * (2.0 - v) ** 2
    if den <= 0.0:
        raise EvaluationDomainError(f"nonpositive wing factor in sigma* at x={1.0 - v}, b={b}")
    return num / den


def sigma_star_closed(x: float, b: float, mu: float | None = None) -> float:
    """Sigma threshold -b*g2/(2*G1) at the critical point x of the upward
    smile at mu, by default mu*(x) on the domain boundary (the downward
    family's at -mu); mu_star's domain errors hold for a given mu too."""
    if mu is None or not (0.0 < b < 1.0 and x_plus_star(b) < x < 1.0):
        mu = mu_star(x, b)  # outside its domain mu_star raises
    return _sigma_s(math.sqrt(1.0 - x), b, mu)


def _s_from_mu(mu: float, b: float) -> float:
    """The critical point at mu as s = sqrt(1 - x): Brent's method on
    mu*(s) - mu, strictly increasing in s, taken in 1/s, in which mu* tends
    to a line as mu -> -inf, to the relative tolerance alone.  The bracket's
    upper end in s is x_plus_star(b) + edge, with edge 1e-12, or 1/32 of
    the interval's width where less, as the root sits 1/(1 + 2*mu^2/3) of
    the width from x = 1 when b -> 1, but one ulp at least; a mu beyond its
    image clamps to it.  The lower end starts at x = 1 - edge; above the
    root it becomes the upper end and shrinks, by mu* ~ -sqrt((1 - b^2)/2)/s,
    until it lies below."""
    width = 2.0 * (1.0 - b) / (4.0 - b)  # 1 - x_plus_star(b)
    edge = max(min(_EDGE, width / 32.0), 2.0**-53)
    hi = math.sqrt(width - edge)
    if mu >= _mu_star_s(hi, b):
        return hi
    lo = math.sqrt(edge)
    m_lo = _mu_star_s(lo, b)
    while mu < m_lo:
        hi, lo = lo, lo * m_lo / (2.0 * mu)
        if not lo > 2.0**-1022:  # 1/s overflows from |mu| of about 1e306
            raise EvaluationDomainError(f"critical point below the float range at mu={mu}, b={b}")
        m_lo = _mu_star_s(lo, b)
    return 1.0 / brentq(lambda t: _mu_star_s(1.0 / t, b) - mu, 1.0 / hi, 1.0 / lo, xtol=5e-324)


def x_from_mu(mu: float, b: float) -> float:
    """Invert mu*: the critical point x of the sigma requirement at mu,
    1 - s^2 for the root s = sqrt(1 - x) of certify's inversion; x rounds
    to 1 from |mu| of about 1e8, and a mu at or beyond the cap clamps next
    to x_plus_star(b)."""
    s = _s_from_mu(mu, b)
    return 1.0 - s * s


def subdomain_bound(b: float) -> float:
    """Explicit sufficient sigma level for mu <= 0: b times the depth of
    the curvature well over the worst-case wing factor (1-b^2)/4."""
    if not 0.0 < b < 1.0:
        raise EvaluationDomainError(f"subdomain bound requires 0 < b < 1, got b={b}")
    return _SUBDOMAIN_COEF * b / (1.0 - b * b)


def subdomain_check(
    b: float, mu: float, sigma: float, direction: Direction = "upward"
) -> bool:
    """Membership in the explicit sufficient sub-domain (no inversion
    needed).  True implies the full certification passes; the converse
    fails for mu past 0 or sigma between sigma* and the bound."""
    if not 0.0 < b < 1.0:
        return False
    mu_up = mu if direction == "upward" else -mu
    return mu_up <= 0.0 + BOUNDARY_TOL and sigma >= subdomain_bound(b) - BOUNDARY_TOL


def certify(p: VanishingParams) -> DomainCertificate:
    """Certify a wing-degenerate smile against its explicit domain."""
    mu_up = p.mu if p.direction == "upward" else -p.mu
    mu_cap = fukasawa_bound(p.b)
    margin = mu_cap - mu_up  # the wing conditions: mu_up < mu_cap
    diagnostics: dict[str, float | str] = {}

    if not margin > 0.0:
        sstar = math.inf
    elif _wing_slack(p.b, 1.0) == 0.0:
        # b = 1: requirement attained only in the k -> +inf limit
        sstar = -1.0 / mu_up
        diagnostics["argsup"] = math.inf
    else:
        # the requirement is stationary at the critical point, so its value
        # at the given mu takes the root's error to second order
        s = _s_from_mu(mu_up, p.b)
        sstar = _sigma_s(s, p.b, mu_up)
        diagnostics["x"] = 1.0 - s * s
        diagnostics["mu_star_residual"] = _mu_star_s(s, p.b) - mu_up

    mu_bound = mu_cap if p.direction == "upward" else -mu_cap
    return make_certificate(
        family=f"vanishing-{'up' if p.direction == 'upward' else 'down'}",
        params=p,
        sigma_star=sstar,
        bounds={
            "mu_bound": mu_bound,
            "subdomain_sigma": subdomain_bound(p.b) if 0.0 < p.b < 1.0 else math.inf,
        },
        diagnostics=diagnostics,
        fukasawa_margin=margin,
    )
