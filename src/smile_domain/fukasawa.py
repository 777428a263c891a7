"""Necessary wing-positivity conditions for a general SVI smile.

For fixed (gamma, b, rho), positivity of both factors G1+- of G1 confines
mu to an open interval.  Its endpoints are values of the bound curve

    L-(l) = 2*N(l)*(1/N'(l) + b/4) - l

at the unique root l- of the level curve g-(l; b, rho) = gamma located
below the smile minimum; the mirrored root (rho -> -rho) gives the upper
endpoint.  On the wing-slope boundaries b*(1 -+ rho) = 2 the corresponding
root escapes to -infinity and the endpoint degenerates to the limit value
-+ b*gamma/2, taken where the slack ``core._wing_slack`` is 0.  At
|rho| = 1 one wing has no condition and the interval is one-sided:
(-inf, upper) at rho = 1, (lower, +inf) at rho = -1.  It is non-empty iff
gamma exceeds a threshold in (b, rho) alone, the root of its width, which
increases in gamma.  Roots l- are found in u = -1/l on the oracle's wing
grid, where l = -inf is the grid point u = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    EvaluationDomainError,
    InvalidParamsError,
    NoRootError,
    _any,
    _l_terms,
    _n_funcs_at,
    _pow,
    _u_root,
    _wing_n_at,
    _wing_slack,
    _wing_terms,
    n_funcs,
    wing_slope,
)
from .roots import brentq

__all__ = [
    "FukasawaInterval",
    "l_minus_curve",
    "solve_l_minus",
    "mu_lower_curve",
    "mu_interval",
    "fukasawa_threshold",
]

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


def _validate(gamma: float, b: float, rho: float) -> None:
    if not all(map(math.isfinite, (gamma, b, rho))):
        raise InvalidParamsError(f"non-finite gamma={gamma}, b={b} or rho={rho}")
    if abs(rho) > 1.0:
        raise InvalidParamsError(f"|rho| must be <= 1, got {rho}")
    if b < 0.0:
        raise InvalidParamsError(f"b must be >= 0, got {b}")
    root = math.sqrt(max(0.0, (1.0 - rho) * (1.0 + rho)))
    if abs(rho) < 1.0:
        if gamma + root <= 0.0:
            raise InvalidParamsError(
                f"gamma={gamma} must exceed -sqrt(1-rho^2)={-root}"
            )
    elif gamma < 0.0:
        raise InvalidParamsError(f"gamma={gamma} must be >= 0 when |rho| = 1")


def _level_at(t, gamma: float, b: float, rho: float):
    """(c/s)^3*(l_minus_curve(-1/u, b, rho) - gamma) on the wing terms t of
    u: the level curve on the mirrored right wing, N' = -n1, with the same
    sign and root.  At u = 0, l = -inf, it is (1-rho)^2*(2 - b*(1-rho))/4."""
    two_d, n1, _ = _wing_n_at(t, gamma, -rho)
    return n1 * n1 * (2.0 - b * n1) / 4.0 - t[7] * two_d / 2.0


def solve_l_minus(gamma: float, b: float, rho: float) -> float:
    """Unique root of l_minus_curve(., b, rho) = gamma below the minimum.

    It is taken in u = -1/l on the wing grid, from u = 0, l = -inf, where
    the curve minus gamma is positive, to l = -1e-6, or for rho > 0 to the
    minimum u* = sqrt(1-rho^2)/rho (N' = 0), where it is negative: no root
    lies past the grid.  Brent's method takes about 8 scalar evaluations.

    Raises InvalidParamsError where mu_interval does, EvaluationDomainError
    at rho = 1 and NoRootError in the degenerate case b*(1 - rho) = 2, where
    the curve no longer diverges on the left and the root escapes to -inf:
    raised where the left wing's slack is 0, tagged by the wing_slope
    verdict.
    """
    _validate(gamma, b, rho)
    if rho >= 1.0:
        raise EvaluationDomainError("no domain below the minimum for rho = 1")
    if _wing_slack(b, -rho) == 0.0:
        tag = "b2_rho0" if wing_slope(b, rho) == "on" else "b_one_minus_rho_eq_2"
        raise NoRootError(
            f"left root removed at b*(1-rho)={b * (1.0 - rho)}", degenerate_case=tag
        )
    end = math.sqrt((1.0 - rho) * (1.0 + rho)) / rho if rho > 0.0 else math.inf
    return -1.0 / _u_root(lambda t: _level_at(t, gamma, b, rho), end)


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
    b*(1 - rho) = 2, where the left wing's slack is 0; the bound curve at
    the root l- otherwise."""
    if rho >= 1.0:
        return -math.inf
    if _wing_slack(b, -rho) == 0.0:
        return -b * gamma / 2.0
    return mu_lower_curve(solve_l_minus(gamma, b, rho), gamma, b, rho)


def mu_interval(gamma: float, b: float, rho: float) -> FukasawaInterval:
    """Admissible open mu-interval for the wing conditions G1+- > 0.

    Covers every |rho| <= 1: the interval is (-inf, upper) at rho = 1 and
    (lower, +inf) at rho = -1.  The upper end is the lower end of the
    strike-inverted shape, negated.  Emptiness is reported through the
    interval itself, never by an exception.  The tag is the wing_slope
    verdict on each wing.
    """
    _validate(gamma, b, rho)
    if wing_slope(b, abs(rho)) == "beyond":
        raise InvalidParamsError(
            f"wing slope b*(1+|rho|)={b * (1.0 + abs(rho))} exceeds 2"
        )

    deg_minus = wing_slope(b, -rho) != "inside"
    deg_plus = wing_slope(b, rho) != "inside"
    if deg_minus and deg_plus:
        tag = "b2_rho0"
    elif deg_minus:
        tag = "b_one_minus_rho_eq_2"
    elif deg_plus:
        tag = "b_one_plus_rho_eq_2"
    else:
        tag = "generic"

    lower = _lower_end(gamma, b, rho)
    # at rho = 0 the mirrored solve is this one: the interval is symmetric
    upper = -lower if rho == 0.0 else -_lower_end(gamma, b, -rho)
    return FukasawaInterval(lower, upper, tag)


def fukasawa_threshold(b: float, rho: float) -> float:
    """Smallest gamma making the mu-interval non-empty; lies in [-1, 0].

    The interval's width upper - lower is continuous and increasing in
    gamma, and its zero is the threshold, found by Brent's method to
    within ``_THRESHOLD_XTOL``; where the interval is already open at
    floor + 1e-12, the threshold is the floor -sqrt(1 - rho^2) of gamma.
    At rho = 0 with a slack above 0 it is one root in u = -1/l instead
    (see ``_threshold_decorrelated``), and the floor where that root lies
    below floor + 1e-12, with no interval computed.
    """
    floor = -math.sqrt(max(0.0, (1.0 - rho) * (1.0 + rho)))
    lo = floor + 1e-12
    if rho == 0.0 and _wing_slack(b, 0.0) > 0.0:
        root = _threshold_decorrelated(b)
        return floor if root < lo else root

    def width(g: float) -> float:
        iv = mu_interval(g, b, rho)
        return iv.upper - iv.lower

    if width(lo) > 0.0:
        return floor
    return brentq(width, lo, 0.5, xtol=_THRESHOLD_XTOL)  # every gamma > 0 opens it


def _threshold_decorrelated(b: float) -> float:
    """fukasawa_threshold(b, 0) for b < 2, a slope slack above 0.

    At rho = 0 the interval is (lower, -lower) and opens where its lower end
    crosses 0.  On the wing terms of u = -1/l, with N' = -n1 and r = s/c,
    the level whose root l- is l is gamma = r*(r^2*n1^2*(2 - b*n1)/4 - 1)
    and its lower end, times (c/s)^3, is n1*(2-b*n1)*(b*n1-4)/8 + a*c^2/s^3.
    So the threshold is gamma at one root in u, the first sign change from
    u = 0, where the end is (2-b)*(b-4)/8 < 0: gamma is not monotone next to
    the minimum.  gamma is read from the root's own terms, so the rounding
    of 2 - b*n1 next to b = 2 cancels (through l_minus_curve(-1/u) it is
    1.7e-8 off the closed form at b = 2 - 6.7e-6).
    """

    def lower(t):
        n1 = 1.0 - t[3]
        return n1 * (2.0 - b * n1) * (b * n1 - 4.0) / 8.0 + t[0] * t[7]

    a, c, e, es = _wing_terms(_u_root(lower, math.inf))[:4]
    r, n1 = (a + e) / c, 1.0 - es
    return r * (r * r * n1 * n1 * (2.0 - b * n1) / 4.0 - 1.0)
