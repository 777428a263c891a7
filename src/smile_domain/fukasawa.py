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
    l = np.asarray(l, dtype=np.float64)
    s = np.hypot(l, 1.0)
    n0, n1, _ = n_funcs(l, 0.0, rho)
    val = s**3 * n1 * n1 * (2.0 + b * n1) / 4.0 - n0
    return float(val) if np.ndim(val) == 0 else val


def _validate_level(gamma: float, rho: float) -> None:
    root = math.sqrt(max(0.0, (1.0 - rho) * (1.0 + rho)))
    if abs(rho) < 1.0:
        if gamma + root <= 0.0:
            raise InvalidParamsError(
                f"gamma={gamma} must exceed -sqrt(1-rho^2)={-root}"
            )
    elif gamma < 0.0:
        raise InvalidParamsError(f"gamma={gamma} must be >= 0 when |rho| = 1")


def solve_l_minus(gamma: float, b: float, rho: float) -> float:
    """Unique root of l_minus_curve(., b, rho) = gamma below the minimum.

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

    if abs(rho) < 1.0:
        upper = -rho / math.sqrt((1.0 - rho) * (1.0 + rho)) - _SCAN_NEAR
    else:  # rho = -1: the smile minimum sits at +infinity
        upper = _SCAN_FAR
    grid = upper - np.geomspace(_SCAN_NEAR, upper + _SCAN_FAR, _SCAN_POINTS)
    # negative near the minimum, diverges to +infinity on the far left
    l = grid_root(lambda t: l_minus_curve(t, b, rho) - gamma, grid, xtol=1e-14)
    if l is None:
        raise NoRootError(
            f"no sign change for gamma={gamma}, b={b}, rho={rho}"
        )
    return l


def mu_lower_curve(l: float, gamma: float, b: float, rho: float) -> float:
    """Bound curve 2*N*(1/N' + b/4) - l; undefined at the smile minimum."""
    n, n1, _ = n_funcs(l, gamma, rho)
    if n1 == 0.0:
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
    within ``_THRESHOLD_XTOL``.
    """
    floor = -math.sqrt(max(0.0, (1.0 - rho) * (1.0 + rho)))

    def width(g: float) -> float:
        iv = mu_interval(g, b, rho)
        return iv.upper - iv.lower

    lo = floor + 1e-12
    if width(lo) > 0.0:
        return floor
    hi = 0.5
    while width(hi) <= 0.0:  # gamma > 0 is always admissible
        hi *= 2.0
        if hi > 64.0:
            raise NoRootError(f"interval never opens for b={b}, rho={rho}")
    return brentq(width, lo, hi, xtol=_THRESHOLD_XTOL)
