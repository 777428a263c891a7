"""Necessary wing-positivity conditions for a general SVI smile.

For fixed (gamma, b, rho), positivity of both factors G1+- of G1 confines
mu to an open interval.  Its endpoints are values of the bound curve

    L-(l) = 2*N(l)*(1/N'(l) + b/4) - l

at the unique root l- of the level curve g-(l; b, rho) = gamma located
below the smile minimum; the mirrored root (rho -> -rho) gives the upper
endpoint.  On the wing-slope boundaries b*(1 -+ rho) = 2 the corresponding
root escapes to -infinity and the endpoint degenerates to the limit value
-+ b*gamma/2.  At |rho| = 1 one wing has no condition and the interval is
one-sided: (-inf, upper) at rho = 1, (lower, +inf) at rho = -1.  The
interval is non-empty iff gamma exceeds a threshold depending on (b, rho)
only, computed here as the root of the interval's width, which increases
in gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EvaluationDomainError,
    InvalidParamsError,
    NoRootError,
    _any,
    _l_terms,
    _n_funcs_at,
    _pow,
    n_funcs,
    wing_slope,
)
from .roots import brentq, grid_root

__all__ = [
    "FukasawaInterval",
    "l_minus_curve",
    "solve_l_minus",
    "mu_lower_curve",
    "mu_interval",
    "fukasawa_threshold",
]

_SCAN_POINTS = 128
_SCAN_FAR = 1.0e8
_SCAN_NEAR = 1.0e-6
# offsets below the grid's first point; they do not depend on the shape
_SCAN_OFFSETS = np.geomspace(_SCAN_NEAR, _SCAN_FAR - _SCAN_NEAR, _SCAN_POINTS)
_SCAN_OFFSETS.flags.writeable = False
_THRESHOLD_XTOL = 1e-10


@dataclass(frozen=True, slots=True)
class FukasawaInterval:
    """Open admissible interval for mu, with its degeneracy tag."""

    lower: float
    upper: float
    degenerate_case: str = "generic"

    @property
    def is_empty(self) -> bool:
        return not self.lower < self.upper

    def contains(self, mu: float) -> bool:
        """Strict membership; boundary points are excluded."""
        return self.lower < mu < self.upper


def l_minus_curve(l, b: float, rho: float):
    """Level curve whose root below the smile minimum locates the mu bound.

    Algebraically (rho*s + l)^2 * (s*(1/2 + b*rho/4) + b*l/4) - (rho*l + s)
    with s = sqrt(l^2+1); evaluated here as s^3*N'^2*(2 + b*N')/4 - N so the
    deep left wing keeps full precision.
    """
    t = _l_terms(l)
    n0, n1, _ = _n_funcs_at(t, 0.0, rho)
    return _pow(t[1], 3) * n1 * n1 * (2.0 + b * n1) / 4.0 - n0


def _validate_level(gamma: float, rho: float) -> None:
    root = math.sqrt(max(0.0, (1.0 - rho) * (1.0 + rho)))
    if abs(rho) < 1.0:
        if gamma + root <= 0.0:
            raise InvalidParamsError(
                f"gamma={gamma} must exceed -sqrt(1-rho^2)={-root}"
            )
    elif gamma < 0.0:
        raise InvalidParamsError(f"gamma={gamma} must be >= 0 when |rho| = 1")


def _scan_grid(rho: float):
    """Log-spaced grid on which the root l- is bracketed: from just below
    min(l*, 0), with l* = -rho/sqrt(1-rho^2) the smile minimum, out to
    about 1e8 below that start (l = -1e8 for rho <= 0).

    For rho > 0 the grid starts next to the minimum l* < 0.  For rho <= 0
    the minimum l* >= 0 is far right (at +infinity for rho = -1), and the
    grid starts next to l = 0 instead, where the level curve is
    rho^2*(2 + b*rho)/4 - 1 <= rho^2/2 - 1 <= -sqrt(1 - rho^2) < gamma
    (at rho = -1, -(2 + b)/4 < 0 <= gamma).  The root is unique, so it lies
    below the start, and the first sign change brackets it.  For |l-| of
    order 1 that is about halfway along the grid (near point 56 of 128);
    the whole grid is one array evaluation, so that position costs nothing.
    """
    start = -rho / math.sqrt((1.0 - rho) * (1.0 + rho)) if rho > 0.0 else 0.0
    return start - _SCAN_NEAR - _SCAN_OFFSETS


def solve_l_minus(gamma: float, b: float, rho: float) -> float:
    """Unique root of l_minus_curve(., b, rho) = gamma below the minimum.

    The curve minus gamma is negative at the start of the scan grid (next
    to min(l*, 0)) and diverges to +infinity on the far left; Brent's method
    on the grid's first sign change takes about 8 scalar evaluations, at
    rho = -1 as for every other rho < 1.  Past a grid with no sign change
    (rho within about 1e-12 of 1) the scan goes on to |l| = 1e100 or so.

    Raises NoRootError in the degenerate case b*(1 - rho) = 2, where the
    curve no longer diverges on the left and the root escapes to -infinity.
    """
    _validate_level(gamma, rho)
    if rho >= 1.0:
        raise EvaluationDomainError("no domain below the minimum for rho = 1")
    if wing_slope(b, -rho) != "inside":
        tag = "b2_rho0" if wing_slope(b, rho) == "on" else "b_one_minus_rho_eq_2"
        raise NoRootError(
            f"left root removed at b*(1-rho)={b * (1.0 - rho)}", degenerate_case=tag
        )

    def level(t):
        return l_minus_curve(t, b, rho) - gamma

    grid = _scan_grid(rho)
    l = grid_root(level, grid, xtol=1e-14)
    if l is None:  # s^3 overflows a little past |l| = 1e102
        l = grid_root(level, np.geomspace(grid[-1], 1e92 * grid[-1], 93), xtol=1e-14)
    if l is None:
        raise NoRootError(
            f"no sign change for gamma={gamma}, b={b}, rho={rho}"
        )
    return l


def mu_lower_curve(l, gamma, b: float, rho: float):
    """Bound curve 2*N*(1/N' + b/4) - l; undefined at the smile minimum.

    l and gamma are floats, or arrays that broadcast together.
    """
    n, n1, _ = n_funcs(l, gamma, rho)
    if _any(n1 == 0.0):
        raise EvaluationDomainError("bound curve undefined where N'(l) = 0")
    return 2.0 * n * (1.0 / n1 + b / 4.0) - l


def _lower_end(gamma: float, b: float, rho: float) -> float:
    """Lower end of the mu-interval: -inf for rho = 1, which has no wing
    below the minimum; the limit -b*gamma/2 on the wing boundary
    b*(1 - rho) = 2; the bound curve at the root l- otherwise."""
    if rho >= 1.0:
        return -math.inf
    if wing_slope(b, -rho) != "inside":
        return -b * gamma / 2.0
    return mu_lower_curve(solve_l_minus(gamma, b, rho), gamma, b, rho)


def mu_interval(gamma: float, b: float, rho: float) -> FukasawaInterval:
    """Admissible open mu-interval for the wing conditions G1+- > 0.

    Covers every |rho| <= 1: the interval is (-inf, upper) at rho = 1 and
    (lower, +inf) at rho = -1.  The upper end is the lower end of the
    strike-inverted shape, negated.  Emptiness is reported through the
    interval itself, never by an exception.
    """
    if abs(rho) > 1.0:
        raise InvalidParamsError(f"mu_interval requires |rho| <= 1, got {rho}")
    _validate_level(gamma, rho)
    if b < 0.0:
        raise InvalidParamsError(f"b must be >= 0, got {b}")
    if wing_slope(b, abs(rho)) == "beyond":
        raise InvalidParamsError(
            f"wing slope b*(1+|rho|)={b * (1.0 + abs(rho))} exceeds 2"
        )

    deg_minus = wing_slope(b, -rho) != "inside"
    deg_plus = wing_slope(b, rho) != "inside"

    if deg_minus and deg_plus:
        return FukasawaInterval(-gamma, gamma, "b2_rho0")

    lower = _lower_end(gamma, b, rho)
    if rho == 0.0:  # the mirrored solve is this one: the interval is symmetric
        return FukasawaInterval(lower, -lower)
    if deg_minus:
        tag = "b_one_minus_rho_eq_2"
    elif deg_plus:
        tag = "b_one_plus_rho_eq_2"
    else:
        tag = "generic"
    return FukasawaInterval(lower, -_lower_end(gamma, b, -rho), tag)


def fukasawa_threshold(b: float, rho: float) -> float:
    """Smallest gamma making the mu-interval non-empty; lies in [-1, 0].

    The interval's width upper - lower is continuous and increasing in
    gamma, and its zero is the threshold, found by Brent's method to
    within ``_THRESHOLD_XTOL``; at rho = 0 inside the wing-slope bound it
    is one root in l instead (see ``_threshold_decorrelated``).
    """
    floor = -math.sqrt(max(0.0, (1.0 - rho) * (1.0 + rho)))

    def width(g: float) -> float:
        iv = mu_interval(g, b, rho)
        return iv.upper - iv.lower

    lo = floor + 1e-12
    if width(lo) > 0.0:
        return floor
    if rho == 0.0 and wing_slope(b, 0.0) == "inside":
        return _threshold_decorrelated(b)
    hi = 0.5
    while width(hi) <= 0.0:  # gamma > 0 is always admissible
        hi *= 2.0
        if hi > 64.0:
            raise NoRootError(f"interval never opens for b={b}, rho={rho}")
    return brentq(width, lo, hi, xtol=_THRESHOLD_XTOL)


def _threshold_decorrelated(b: float) -> float:
    """fukasawa_threshold(b, 0) for b inside the wing-slope bound.

    At rho = 0 the interval is (lower, -lower) and opens where its lower end
    crosses 0.  Along the scan grid, the level whose root l- is l is
    gamma(l) = l_minus_curve(l, b, 0) and the lower end at that level is
    mu_lower_curve(l, gamma(l), b, 0), both explicit, so the threshold is
    gamma at one root in l, with no solve for l- inside it.  The lower end
    is negative on the far left and the first sign change from there is
    taken: gamma(l) is not monotone next to the minimum, where it dips
    below -1 near l = -0.2.
    """

    def lower(l):
        return mu_lower_curve(l, l_minus_curve(l, b, 0.0), b, 0.0)

    l = grid_root(lower, _scan_grid(0.0)[::-1], xtol=1e-14)
    if l is None:
        raise NoRootError(f"interval never opens for b={b}, rho=0")
    return l_minus_curve(l, b, 0.0)
