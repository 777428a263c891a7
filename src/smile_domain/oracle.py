"""Brute-force arbitrage oracle: numerical sigma* and a direct density check.

sigma* is the supremum of the pointwise requirement f = -b*g2/(2*G1) over
the two wing intervals where g2 < 0.  Each admissible side is searched with
one scan in u = 1/l, which also reads the wing off the sign of g2, followed
by one brentq on the critical-point residual, of the sign of df/du, across
the scan's best point.  The scan ends at u = 0, the point at infinity: on
the wing-slope boundaries b*(1 +- rho) = 2 the supremum may be attained
only there, as the limit of f.
Every closed-form family domain in this package is validated against this
oracle.

The scan and Brent's steps run one body, _wing_f: on the grid's terms, a
core._Grid, its linear forms are products with the grid's columns.

durrleman_check is the independent second route: it verifies nonnegativity
of G1 + b*g2/(2*sigma) directly on a wide grid, with the half-lines' linear
forms as two-row products on the same kind of columns.  Both grids are
built on first use, numpy with them, so importing this module costs no
array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .core import (
    EvaluationDomainError,
    FukasawaViolation,
    InvalidParamsError,
    NoRootError,
    RawSviParams,
    RogerLeeViolation,
    _critical_at,
    _critical_residual,
    _grid_cols,
    _u_grid,
    _u_root,
    _wing_at,
    _wing_coefs,
    _wing_g2_at,
    _wing_slack,
    _ratio,
    _wing_terms,
    wing_slope,
)
from .fukasawa import _validate, mu_interval
from .roots import brentq

__all__ = [
    "G2Zeros",
    "SigmaStarResult",
    "DensityReport",
    "g2_zeros",
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
def _right_zero(gamma: float, rho: float) -> float:
    """Unique zero l2 > 0 of g2 right of the smile minimum, for g2_zeros: the
    wing grid's root, as g2 > 0 on [0, l2) and g2/c = -(1 + rho)/2 at u = 0."""
    return 1.0 / _u_root(lambda t: _wing_g2_at(t, gamma, rho)[2], math.inf)


def g2_zeros(gamma: float, rho: float) -> G2Zeros:
    """Zeros l1 < 0 < l2 of g2; single-sided for |rho| = 1.

    The left zero is obtained from the right zero of the strike-inverted
    smile, an exact symmetry of g2.  Raises InvalidParamsError for a
    non-finite input, |rho| > 1 or a level gamma on or below the floor
    -sqrt(1 - rho^2) (below 0 at |rho| = 1), as mu_interval does.
    """
    _validate(gamma, 0.0, rho)
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
def _wing_f(t, gamma: float, b: float, rho: float, mu: float, w: float):
    """(g2/c, f) on the terms of _wing_terms, f = -b*g2/(2*G1), for the
    slack w = _wing_slack(b, rho); on the bound (w = 0) h - b*g is
    c*Y/(2*N*c), and c cancels."""
    g2c, hm, hp, yd = _wing_at(t, gamma, b, rho, mu, w)
    return g2c, _ratio(-b / 2.0 * t[1] * g2c, hm, hp) if w else _ratio(-b / 2.0 * g2c, yd, hp)


def _wing_sup(gamma: float, b: float, rho: float, mu: float) -> tuple[float, float]:
    """(argsup, sup) of f on the right wing (l2, infinity) of the given
    shape, from one pass over the u-grid: the wing is the run of points from
    u = 0, where g2/c = -(1 + rho)/2, on which g2 < 0.  Where u = 0 is the
    best, its value, the limit of f (0 off the wing-slope bound), is the
    supremum and argsup = +inf; otherwise argsup is the root in u of the
    critical-point residual, which has the sign of df/du, between the best
    grid point's neighbours, or the wing's end, the zero of g2, where the
    best point is the wing's last, and the supremum is f there.
    """
    import numpy as np

    grid, terms, _ = _u_grid()
    w = _wing_slack(b, rho)
    g2c, vals = _wing_f(terms, gamma, b, rho, mu, w)
    n = int((g2c < 0.0).argmin())  # the first point off the wing
    if g2c[n] < 0.0:  # g2 has one zero right of the smile minimum
        raise NoRootError("g2 has no zero on the wing grid")
    i = int(np.argmax(vals[:n]))
    if vals[0] >= vals[i] * (1.0 - 1e-15):  # u = 0 wins a tie within rounding
        return math.inf, float(vals[0])
    # past the wing's end f < 0 has a critical point of its own
    hi = grid[i + 1] if i + 1 < n else 1.0 / _right_zero(gamma, rho)
    try:  # xtol at the smallest subnormal: only the relative tolerance stops it
        u = brentq(lambda u: _critical_residual(_critical_at(_wing_terms(u), gamma, rho, mu), b),
                   grid[i - 1], hi, xtol=5e-324)
    except ValueError:
        # the residual has one sign at both ends: across a pole of f, where
        # G1 = 0 (outside mu_interval), or where rounding swamps it, as at
        # gamma = 1e16; the value is _wing_f's inline one, not the grid's
        point = tuple(t[i:i + 1] for t in terms)
        return 1.0 / grid[i], float(_wing_f(point, gamma, b, rho, mu, w)[1][0])
    except RuntimeError as exc:
        raise EvaluationDomainError(f"the supremum search failed: {exc}") from exc
    return 1.0 / u, float(_wing_f(_wing_terms(u), gamma, b, rho, mu, w)[1])


def sigma_star(gamma: float, b: float, rho: float, mu: float) -> SigmaStarResult:
    """Numerical minimal arbitrage-free sigma for shape (gamma, b, rho, mu).

    Requires finite inputs and the wing conditions of mu_interval
    (InvalidParamsError, RogerLeeViolation or FukasawaViolation otherwise).
    Side-selection shortcuts: a decorrelated smile only needs the side
    matching the sign of mu; |rho| = 1, which has g2 < 0 on one wing only,
    and an SSVI shape, with gamma = sqrt(1-rho^2) and mu = -rho/gamma
    exactly as SsviParams builds them, only need the side matching the sign
    of rho.  Everything else searches both sides and keeps the larger
    supremum.  Raises EvaluationDomainError where the search does not
    converge or the supremum is not positive, as at a gamma so large that f
    underflows on the grid.
    """
    if not all(map(math.isfinite, (gamma, b, rho, mu))):
        raise InvalidParamsError(f"non-finite shape {(gamma, b, rho, mu)}")
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
    if abs(rho) >= 1.0 or (gamma == root and mu == -rho / root):
        signs = (1.0,) if rho >= 0.0 else (-1.0,)
    elif rho == 0.0:
        signs = (1.0,) if mu >= 0.0 else (-1.0,)
    else:
        signs = (1.0, -1.0)

    best_sup, best_arg = -math.inf, math.nan
    for s in signs:  # s = -1 searches the left wing as the mirror's right one
        arg, sup = _wing_sup(gamma, b, s * rho, s * mu)
        if sup > best_sup:
            best_sup, best_arg = sup, s * arg
    if not best_sup > 0.0:  # the requirement is positive wherever it binds
        raise EvaluationDomainError(f"sigma* = {best_sup} is not positive")
    side = "right" if best_arg > 0.0 else "left"
    if math.isinf(best_arg):
        side = "limit_at_infinity"
    return SigmaStarResult(best_sup, best_arg, side)


# ---------------------------------------------------------------------------
# Independent density check
# ---------------------------------------------------------------------------
@functools.cache
def _density_grid():
    """The density check's grid, the wing terms of its right half-line and
    their core._grid_cols, built once, on first use, read-only:
    (grid, half_terms, d_cols, m_cols, cc2s3).  The right half-line is 2001
    uniform l on [0, 50], then 500 log-spaced u = 1/l from 1/50 down to
    1e-10 and u = 0; the left one is its mirror."""
    import numpy as np

    half_l = np.linspace(0.0, 50.0, 2001)
    half_u = np.append(np.geomspace(0.02, 1e-10, 501)[1:], 0.0)
    with np.errstate(divide="ignore"):
        half = np.concatenate([half_l, 1.0 / half_u])
        terms = _wing_terms(np.concatenate([1.0 / half_l, half_u]))
    grid = np.concatenate([-half[:0:-1], half])
    d_cols, m_cols, _, cc2s3 = _grid_cols(terms)
    for term in (grid, *terms):
        term.flags.writeable = False
    return grid, terms, d_cols, m_cols, cc2s3


def durrleman_check(p: RawSviParams) -> DensityReport:
    """Minimum of the density functional G1 + b*g2/(2*sigma) on a fixed
    grid: 4001 uniform points on [-50, 50], and on each side 500 points
    log-spaced in u = 1/l down to 1e-10 and u = 0, l = +-inf (its limit).

    Nonnegativity of this functional is equivalent to absence of butterfly
    arbitrage; this check is deliberately independent of the supremum search
    so the two can validate each other.  The right half-line (rho, mu) and
    the left one, the mirror's right half-line (-rho, -mu), are two rows:
    2*N*c and 2*N*c*(h - b*g) are each one product of the rows'
    coefficients with the grid's columns, and the rest is evaluated in
    place.  Raises EvaluationDomainError where N <= 0 on the grid.
    """
    if p.b <= 0.0:
        # flat smile: the functional is identically 1
        return DensityReport(min_value=1.0, argmin_l=0.0, n_points=1)
    import numpy as np

    grid, half_terms, d_cols, m_cols, cc2s3 = _density_grid()
    nsvi = p.normalized()
    gamma, b, rho, mu = nsvi.gamma, nsvi.b, nsvi.rho, nsvi.mu
    rows = ((rho, mu, _wing_slack(b, rho)), (-rho, -mu, _wing_slack(b, -rho)))
    d = np.array([(gamma, 1.0 + r, 1.0) for r, _, _ in rows]).dot(d_cols)
    d *= 2.0  # after the product, finite at u = 0 where 2*gamma is not
    hm = np.array([((1.0 + r) * w, *_wing_coefs(gamma, b, r, m, w))
                   for r, m, w in rows]).dot(m_cols)
    n1 = np.array([[1.0 + rho], [1.0 - rho]]) - half_terms[3]  # N'
    # the row of a flat wing of |rho| = 1 (P = 0) has N*c = 0 at u = 0: +inf there
    flat = 0 if rho == -1.0 else 1 if rho == 1.0 else None
    if flat is not None:
        d[flat, -1] = 1.0
    if d.min() <= 0.0:
        raise EvaluationDomainError("N(l) <= 0: smile level vanishes")
    hm /= d  # h - b*g
    cg2 = n1 * n1
    cg2 *= half_terms[1]
    cg2 /= d
    np.subtract(cc2s3, cg2, out=cg2)  # c*g2
    k = b / (2.0 * nsvi.sigma)
    if k < math.inf:
        cg2 *= k
    else:  # a subnormal sigma: the exact 0 of c*g2 at u = 0 keeps its limit 0
        np.multiply(cg2, k, out=cg2, where=cg2 != 0.0)
    n1 *= b / 2.0
    n1 += hm  # h + b*g
    n1 *= hm  # G1
    n1 += cg2
    if flat is not None:
        n1[flat, -1] = math.inf
    vals = np.concatenate([n1[1, :0:-1], n1[0]])
    i = int(np.argmin(vals))
    return DensityReport(
        min_value=float(vals[i]), argmin_l=float(grid[i]), n_points=len(vals)
    )
