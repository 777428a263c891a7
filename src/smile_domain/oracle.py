"""Brute-force arbitrage oracle: numerical sigma* and a direct density check.

sigma* is the supremum of the pointwise requirement f = -b*g2/(2*G1) over
the two wing intervals where g2 < 0.  Each admissible side is searched with
a dense log-spaced scan followed by Brent's bounded maximization; on the
wing-slope boundaries b*(1 +- rho) = 2 the supremum may be attained only in
the limit l -> +-infinity, so the closed-form limit of f is evaluated
explicitly (a grid cannot witness it).  Every closed-form family domain in
this package is validated against this oracle.

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
    _hgg2_at,
    _l_terms,
    n_funcs,
    sigma_floor,
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
# offsets right of the smile minimum on which the zero of g2 is bracketed
_G2_OFFSETS = np.geomspace(1e-9, 1e7, 400)
_G2_OFFSETS.flags.writeable = False


def _right_zero(gamma: float, rho: float) -> float:
    """Unique zero of g2 to the right of the smile minimum."""
    if abs(rho) < 1.0:
        start = -rho / math.sqrt((1.0 - rho) * (1.0 + rho))
    else:  # rho = 1: g2 > 0 on the whole left half-line
        start = 0.0

    def g2(l):
        n, n1, n2 = n_funcs(l, gamma, rho)
        return n2 - n1 * n1 / (2.0 * n)

    l2 = grid_root(g2, start + _G2_OFFSETS, xtol=1e-15, rtol=8.9e-16)
    if l2 is None:
        raise EvaluationDomainError(
            f"no g2 sign change found for gamma={gamma}, rho={rho}"
        )
    return l2


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
# a wing scan's last points, l about 7e7 to 1e8 beyond the zero of g2
_TAIL_POINTS = 6
_WING_FAR = 1e8
_WING_RAMP = np.arange(512.0)
_WING_RAMP.flags.writeable = False
_LOG_WING_FAR = float(np.log10(_WING_FAR))


def _wing_offsets(near: float):
    """np.geomspace(near, _WING_FAR, 512) bit for bit, for 0 < near < 1e8:
    numpy's own steps (log10 of both ends, a linear ramp, 10**ramp, both
    ends pinned) without its per-call argument handling.  np.log10, not
    math.log10: the two differ in the last bit for some ends."""
    log_near = np.log10(near)
    step = (_LOG_WING_FAR - log_near) / (len(_WING_RAMP) - 1)
    offs = np.power(10.0, _WING_RAMP * step + log_near)
    offs[0], offs[-1] = near, _WING_FAR
    return offs


def _wing_sup(gamma: float, b: float, rho: float, mu: float) -> tuple[float, float]:
    """(argsup, sup) of f on the right wing (l2, infinity) of the given
    shape; argsup = +inf for a supremum attained only in the limit."""
    nsvi = NormalizedSvi(gamma=gamma, b=b, rho=rho, mu=mu, sigma=1.0)
    l2 = _right_zero(gamma, rho)
    grid = l2 + _wing_offsets(1e-8 * max(1.0, abs(l2)))
    vals = np.asarray(sigma_floor(grid, nsvi))
    i = int(np.argmax(vals))
    on_bound = wing_slope(b, rho) == "on"
    if on_bound:
        # on the wing boundary b*(1+rho) = 2, f tends to 1/(gamma/(1+rho) - mu)
        # as l -> +infinity, finite while that wing factor is positive
        denom = gamma / (1.0 + rho) - mu
        lim = 1.0 / denom if denom > 0.0 else math.inf
        if i >= len(grid) - _TAIL_POINTS:
            # a peak that far out is the cancellation noise that the test
            # below takes for the limit, so it needs no search
            return math.inf, lim
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    arg, sup = maximize(lambda l: sigma_floor(l, nsvi), lo, hi)

    if on_bound:
        # G1 ~ 1/(2*lim*l) in the far tail, so a slope within BOUNDARY_TOL
        # of 2, which counts as on the bound, moves f there by a relative
        # BOUNDARY_TOL*l*lim at most; that covers the cancellation noise
        # eps*l*lim too, and f is infinite where G1 rounds to 0; only an
        # interior max that beats the limit beyond that is genuine
        noise_rel = BOUNDARY_TOL * max(abs(arg), 1.0) * max(lim, 1.0) + 1e-12
        if math.isinf(sup) or sup <= lim * (1.0 + noise_rel):
            return math.inf, lim
    return arg, sup


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
_TAIL = np.geomspace(50.0, 1.0e6, 501)[1:]
_DENSITY_GRID = np.concatenate([-_TAIL[::-1], np.linspace(-50.0, 50.0, 4001), _TAIL])
_DENSITY_GRID.flags.writeable = False
# the grid's terms that do not depend on the shape, built once
_DENSITY_TERMS = _l_terms(_DENSITY_GRID)
for _term in _DENSITY_TERMS:
    _term.flags.writeable = False


def durrleman_check(p: RawSviParams) -> DensityReport:
    """Minimum of the density functional G1 + b*g2/(2*sigma) on a fixed
    grid: 4001 uniform points on [-50, 50] and 500 log-spaced points on
    each tail out to 1e6.  The grid's terms in l alone (sqrt(l^2+1), its
    powers, l/sqrt(l^2+1) and l^2) are built once, at import.

    Nonnegativity of this functional is equivalent to absence of butterfly
    arbitrage; this check is deliberately independent of the supremum search
    so the two can validate each other.

    It only checks |l| <= 1e6.  Arbitrage that sits further out is not
    seen: SSVI slices with |rho| within about 1e-14 of 1 have the argsup of
    the requirement at |l| up to 8.4e6, where a sigma below the supremum
    still leaves this minimum positive on the grid.  There only
    ``sigma_star`` judges.
    """
    if p.b <= 0.0:
        # flat smile: the functional is identically 1
        return DensityReport(min_value=1.0, argmin_l=0.0, n_points=1)
    nsvi = p.normalized()
    ls = _DENSITY_GRID
    h, g, g2v = _hgg2_at(_DENSITY_TERMS, nsvi)
    b = nsvi.b
    bg = b * g
    vals = (h - bg) * (h + bg) + b * g2v / (2.0 * nsvi.sigma)
    i = int(np.argmin(vals))
    return DensityReport(
        min_value=float(vals[i]), argmin_l=float(ls[i]), n_points=len(ls)
    )
