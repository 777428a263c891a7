"""Brute-force arbitrage oracle: numerical sigma* and a direct density check.

sigma* is the supremum of the pointwise requirement f = -b*g2/(2*G1) over
the two wing intervals where g2 < 0.  Each admissible side is searched with
a dense scan in u = 1/l followed by Brent's bounded maximization.  The scan
ends at u = 0, the point at infinity: on the wing-slope boundaries
b*(1 +- rho) = 2 the supremum may be attained only there, as the limit of f.
Every closed-form family domain in this package is validated against this
oracle.

durrleman_check is the independent second route: it verifies nonnegativity
of G1 + b*g2/(2*sigma) directly on a wide grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BOUNDARY_TOL,
    EvaluationDomainError,
    FukasawaViolation,
    NormalizedSvi,
    RawSviParams,
    RogerLeeViolation,
    _wing_at,
    _wing_n_at,
    _wing_slack,
    _ratio,
    _wing_terms,
    wing_slope,
)
from .fukasawa import mu_interval
from .roots import grid_root, maximize

__all__ = [
    "G2Zeros",
    "SigmaStarResult",
    "DensityReport",
    "g2_zeros",
    "maximize_f_on_interval",
    "sigma_star",
    "durrleman_check",
]

# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class G2Zeros:
    """Zeros of g2; one of them is absent when |rho| = 1."""

    l1: float | None
    l2: float | None


@dataclass(frozen=True, slots=True)
class SigmaStarResult:
    sigma_star: float
    argsup_l: float  # +-inf when the supremum is a limit
    side: str  # "left" | "right" | "limit_at_infinity"


@dataclass(frozen=True, slots=True)
class DensityReport:
    """Minimum of the density functional G1 + b*g2/(2*sigma) over the grid."""

    min_value: float
    argmin_l: float
    n_points: int


# ---------------------------------------------------------------------------
# Zeros of g2
# ---------------------------------------------------------------------------
# u = 1/l from u = 0, l = +inf, up to l = 1e-6, left of every zero of g2
_U_GRID = np.append(0.0, np.geomspace(1e-16, 1e6, 551))
_U_TERMS = _wing_terms(_U_GRID)


def _right_zero(gamma: float, rho: float) -> float:
    """Unique zero l2 > 0 of g2 right of the smile minimum, in u = 1/l: the
    grid brackets it, as g2 > 0 on [0, l2) and g2/u = -(1 + rho)/2 at u = 0."""

    def g2u(u):
        return _wing_n_at(_U_TERMS if u is _U_GRID else _wing_terms(u), gamma, rho)[2]

    return 1.0 / grid_root(g2u, _U_GRID, xtol=1e-300, rtol=8.9e-16)


def g2_zeros(gamma: float, rho: float) -> G2Zeros:
    """Zeros l1 < 0 < l2 of g2; single-sided for |rho| = 1.

    The left zero is obtained from the right zero of the strike-inverted
    smile, an exact symmetry of g2.
    """
    if rho >= 1.0:
        return G2Zeros(l1=None, l2=_right_zero(gamma, 1.0))
    if rho <= -1.0:
        return G2Zeros(l1=-_right_zero(gamma, 1.0), l2=None)
    return G2Zeros(
        l1=-_right_zero(gamma, -rho),
        l2=_right_zero(gamma, rho),
    )


# ---------------------------------------------------------------------------
# Supremum search
# ---------------------------------------------------------------------------
def _wing_sup(gamma: float, b: float, rho: float, mu: float) -> tuple[float, float]:
    """(argsup, sup) of f on the right wing (l2, infinity) of the given
    shape, scanned on the u-grid right of l2.  Where the first point, u = 0,
    is the best, its value, the limit of f (0 off the wing-slope bound), is
    the supremum and argsup = +inf; otherwise Brent's search runs in u.
    """
    w = _wing_slack(b, rho)

    def f(t):  # on the bound (w = 0) h - b*g = c*Y/(2*N*c), and c cancels
        g2c, hm, hp, yd = _wing_at(t, gamma, b, rho, mu, w)
        return _ratio(-b / 2.0 * t[1] * g2c, hm * hp) if w else _ratio(-b / 2.0 * g2c, yd * hp)

    n = int(np.searchsorted(_U_GRID, 1.0 / _right_zero(gamma, rho)))
    vals = f(tuple(t[:n] for t in _U_TERMS))
    i = int(np.argmax(vals))
    if vals[0] >= vals[i] * (1.0 - 1e-15):  # u = 0 wins a tie within rounding
        return math.inf, float(vals[0])
    arg, sup = maximize(lambda u: f(_wing_terms(u)), _U_GRID[i - 1], _U_GRID[i + 1])
    return 1.0 / arg, sup


def maximize_f_on_interval(nsvi: NormalizedSvi, side: str) -> tuple[float, float]:
    """(argsup, sup) of f = -b*g2/(2*G1) on one wing interval.

    side "right" searches l > l2, side "left" searches l < l1 as the right
    wing of the strike-inverted shape, through the exact symmetry
    f(l; rho, mu) = f(-l; -rho, -mu).  An argsup of +-inf signals a supremum
    attained only in the limit, which happens exactly on the wing-slope
    boundary of that side.
    """
    g, b, rho, mu = nsvi.gamma, nsvi.b, nsvi.rho, nsvi.mu
    if side == "right":
        return _wing_sup(g, b, rho, mu)
    if side == "left":
        arg, sup = _wing_sup(g, b, -rho, -mu)
        return -arg, sup
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def sigma_star(gamma: float, b: float, rho: float, mu: float) -> SigmaStarResult:
    """Numerical minimal arbitrage-free sigma for shape (gamma, b, rho, mu).

    Requires the wing conditions of mu_interval to hold (RogerLeeViolation
    or FukasawaViolation otherwise).  Side-selection shortcuts: a
    decorrelated smile only needs the side matching the sign of mu; |rho| = 1,
    which has g2 < 0 on one wing only, and a smile with
    gamma = sqrt(1-rho^2) and mu at the minimum only need the side matching
    the sign of rho.  Everything else searches both sides and keeps the
    larger supremum.
    """
    if b <= 0.0:
        raise EvaluationDomainError("sigma_star requires b > 0")
    if wing_slope(b, abs(rho)) == "beyond":
        raise RogerLeeViolation(
            f"wing slope b*(1+|rho|)={b * (1.0 + abs(rho))} exceeds 2"
        )
    interval = mu_interval(gamma, b, rho)
    if interval.is_empty or not interval.contains(mu):
        raise FukasawaViolation(
            f"mu={mu} outside admissible interval "
            f"({interval.lower}, {interval.upper})"
        )

    root = math.sqrt((1.0 - rho) * (1.0 + rho))
    if abs(rho) >= 1.0 or (
        abs(gamma - root) <= 1e-12 and abs(mu + rho / root) <= 1e-9
    ):
        sides = ["right"] if rho >= 0.0 else ["left"]
    elif abs(rho) <= BOUNDARY_TOL:
        sides = ["right"] if mu >= 0.0 else ["left"]
    else:
        sides = ["right", "left"]

    nsvi = NormalizedSvi(gamma=gamma, b=b, rho=rho, mu=mu, sigma=1.0)
    best_sup = -math.inf
    best_arg = math.nan
    best_side = ""
    for side in sides:
        arg, sup = maximize_f_on_interval(nsvi, side)
        if sup > best_sup:
            best_sup, best_arg, best_side = sup, arg, side
    if math.isinf(best_arg):
        best_side = "limit_at_infinity"
    return SigmaStarResult(best_sup, best_arg, best_side)


# ---------------------------------------------------------------------------
# Independent density check
# ---------------------------------------------------------------------------
# the right half-line: 2001 uniform l on [0, 50], then 500 log-spaced
# u = 1/l from 1/50 down to 1e-10 and u = 0; the left one is its mirror
_HALF_L = np.linspace(0.0, 50.0, 2001)
_HALF_U = np.append(np.geomspace(0.02, 1e-10, 501)[1:], 0.0)
with np.errstate(divide="ignore"):
    _HALF = np.concatenate([_HALF_L, 1.0 / _HALF_U])
    _HALF_TERMS = _wing_terms(np.concatenate([1.0 / _HALF_L, _HALF_U]))
_DENSITY_GRID = np.concatenate([-_HALF[:0:-1], _HALF])
for _term in (_U_GRID, *_U_TERMS, _DENSITY_GRID, *_HALF_TERMS):  # built once
    _term.flags.writeable = False


def durrleman_check(p: RawSviParams) -> DensityReport:
    """Minimum of the density functional G1 + b*g2/(2*sigma) on a fixed
    grid: 4001 uniform points on [-50, 50], and on each side 500 points
    log-spaced in u = 1/l down to 1e-10 and u = 0, l = +-inf (its limit).

    Nonnegativity of this functional is equivalent to absence of butterfly
    arbitrage; this check is deliberately independent of the supremum search
    so the two can validate each other.
    """
    if p.b <= 0.0:
        # flat smile: the functional is identically 1
        return DensityReport(min_value=1.0, argmin_l=0.0, n_points=1)
    nsvi = p.normalized()
    gamma, b, rho, mu = nsvi.gamma, nsvi.b, nsvi.rho, nsvi.mu
    k = b / (2.0 * nsvi.sigma)
    halves = []
    for side in (1.0, -1.0):  # the left half-line is the mirror's right one
        # a flat wing of |rho| = 1 (P = 0) has N*u = 0 at u = 0: +inf there
        t = _HALF_TERMS if side * rho > -1.0 else tuple(x[:-1] for x in _HALF_TERMS)
        g2c, hm, hp, _ = _wing_at(t, gamma, b, side * rho, side * mu, _wing_slack(b, side * rho))
        vals = hm * hp + k * t[1] * g2c
        halves.append(vals if t is _HALF_TERMS else np.append(vals, math.inf))
    vals = np.concatenate([halves[1][:0:-1], halves[0]])
    i = int(np.argmin(vals))
    return DensityReport(
        min_value=float(vals[i]), argmin_l=float(_DENSITY_GRID[i]), n_points=len(vals)
    )
