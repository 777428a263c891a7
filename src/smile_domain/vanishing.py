"""Explicit no-arbitrage domain for wing-degenerate smiles (|rho| = 1, a = 0).

The upward family w(k) = b*(k - m + sqrt((k-m)^2 + sigma^2)) vanishes on
the left and increases; the downward family is its strike mirror and is
certified by delegation through mu -> -mu.  Wing slopes force 0 < b <= 1.

For 0 < b < 1, in the coordinate x = l/sqrt(l^2+1), the critical-point
equation of the sigma requirement is quadratic in mu.  Solving it yields a
closed-form mu*(x) on x in ((2+b)/(4-b), 1), strictly decreasing from the
admissible mu bound sqrt(3(1-b)) down to -infinity, and with it the exact
threshold sigma*(x).  Certification inverts mu -> x with Brent's method
and compares sigma against the sigma requirement of the given smile at
that critical point.  The requirement is stationary there, so the root's
error enters sigma* only at second order; sigma*(x) itself would carry
it at first order through mu*(x).

For b = 1, a wing slope 2b on the bound 2 (``core.wing_slope``: b within
5e-11 of 1), the wing factor degenerates and the requirement is attained
only in the k -> +infinity limit, where it equals -1/mu.
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
    NormalizedSvi,
    RawSviParams,
    sigma_floor,
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
    """Upper mu bound sqrt(3*(1-b)) for the upward family (the downward
    family requires mu above the negated value)."""
    if not b >= 0.0 or wing_slope(b, 1.0) == "beyond":
        raise InvalidParamsError(f"b must lie in [0, 1], got {b}")
    return math.sqrt(3.0 * max(0.0, 1.0 - b))


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
    b2 = b * b
    radicand = (
        4.0 * b2 * x**6
        + 8.0 * b2 * x**5
        + 8.0 * x**4 * (8.0 - b2)
        - 4.0 * x**3 * (5.0 * b2 + 32.0)
        + x**2 * (96.0 - b2)
        + 2.0 * x * (5.0 * b2 - 16.0)
        + 4.0
        + 3.0 * b2
    )
    if radicand < 0.0:
        if radicand < -1e-12:
            raise EvaluationDomainError(
                f"negative radicand {radicand} in mu* at x={x}, b={b}"
            )
        radicand = 0.0
    num = 2.0 * (1.0 - x) * (2.0 * x**2 - 8.0 * x - 1.0) + math.sqrt(radicand)
    den = 2.0 * math.sqrt((1.0 - x) * (1.0 + x)) * (2.0 * x**2 - 2.0 * x - 1.0)
    return num / den


def sigma_star_closed(x: float, b: float) -> float:
    """Exact sigma threshold along the domain boundary, at mu = mu*(x); the
    downward family has the same value at -mu*(x)."""
    ms = mu_star(x, b)
    root = math.sqrt((1.0 - x) * (1.0 + x))
    num = -4.0 * b * root * (1.0 - x - 2.0 * x**2)
    den = 4.0 * (2.0 - x - ms * root) ** 2 - b * b * (1.0 + x) ** 2
    if den <= 0.0:
        raise EvaluationDomainError(
            f"nonpositive wing factor in sigma* at x={x}, b={b}"
        )
    return num / den


def x_from_mu(mu: float, b: float) -> float:
    """Invert mu*: the critical point x of the sigma requirement at mu.

    Brent's method on mu*(x) - mu, which is strictly decreasing, over
    [x_plus_star(b), 1] shrunk by 1e-12 at both ends; a mu beyond the
    image of an end clamps to that end.
    """
    lo = x_plus_star(b) + _EDGE
    hi = 1.0 - _EDGE
    if mu >= mu_star(lo, b):
        return lo
    if mu <= mu_star(hi, b):
        return hi
    return brentq(lambda x: mu_star(x, b) - mu, lo, hi, xtol=1e-15)


def subdomain_bound(b: float) -> float:
    """Explicit sufficient sigma level for mu <= 0: b times the depth of
    the curvature well over the worst-case wing factor (1-b^2)/4."""
    if not 0.0 < b < 1.0:
        raise EvaluationDomainError(f"subdomain bound requires 0 < b < 1")
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
    at_bound = wing_slope(p.b, 1.0) == "on"
    mu_cap = 0.0 if at_bound else fukasawa_bound(p.b)
    fukasawa_ok = mu_up < mu_cap
    on_boundary: list[str] = []
    if abs(mu_up - mu_cap) <= BOUNDARY_TOL:
        on_boundary.append("fukasawa")

    diagnostics: dict[str, float | str] = {}
    if not fukasawa_ok:
        sstar = math.inf
    elif at_bound:
        # b = 1: requirement attained only in the k -> +inf limit
        sstar = -1.0 / mu_up
        diagnostics["argsup"] = math.inf
    else:
        # the requirement is stationary at the critical point, so its value
        # at the given mu takes the root's error to second order
        x = x_from_mu(mu_up, p.b)
        shape = NormalizedSvi(gamma=0.0, b=p.b, rho=1.0, mu=mu_up, sigma=1.0)
        sstar = sigma_floor(x / math.sqrt((1.0 - x) * (1.0 + x)), shape)
        diagnostics["x"] = x
        diagnostics["mu_star_residual"] = mu_star(x, p.b) - mu_up

    mu_bound = mu_cap if p.direction == "upward" else -mu_cap
    return make_certificate(
        family=f"vanishing-{'up' if p.direction == 'upward' else 'down'}",
        conditions={"fukasawa": fukasawa_ok},
        bounds={
            "mu_bound": mu_bound,
            "subdomain_sigma": subdomain_bound(p.b) if 0.0 < p.b < 1.0 else math.inf,
        },
        on_boundary=on_boundary,
        params_raw=p.to_raw(),
        params_native={"b": p.b, "mu": p.mu, "sigma": p.sigma, "direction": p.direction},
        sigma_star=sstar,
        diagnostics=diagnostics,
    )
