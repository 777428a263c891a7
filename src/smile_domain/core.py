"""Core SVI smile machinery shared by every no-arbitrage domain module.

Total variance: ``w(k) = a + b*(rho*(k - m) + sqrt((k - m)^2 + sigma^2))``.

With ``gamma = a/(b*sigma)`` and ``mu = m/sigma`` the smile rescales to
``w(k) = b*sigma*N(l)`` at ``l = (k - m)/sigma``, where

    N(l) = gamma + rho*l + sqrt(l^2 + 1).

Absence of butterfly arbitrage is equivalent to nonnegativity of
``G1 + b*g2/(2*sigma)``, where G1, g2 (and the auxiliary h, g) depend only
on the shape parameters (gamma, b, rho, mu).  Everything in this module is
a pure function of its arguments and safe to call from multiple threads.

numpy is imported where an array is built or reduced, never at import: a
scalar takes the pure-Python branch of each function, so a closed-form
certification runs without it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .roots import brentq

__all__ = [
    "BOUNDARY_TOL",
    "SmileDomainError",
    "InvalidParamsError",
    "EvaluationDomainError",
    "RogerLeeViolation",
    "FukasawaViolation",
    "NoRootError",
    "wing_slope",
    "RawSviParams",
    "NormalizedSvi",
    "total_variance",
    "n_funcs",
    "hgg2",
    "g1",
    "hgg2_prime",
    "sigma_floor",
    "sigma_floor_dual",
]

# Absolute tolerance for all bound comparisons; strict paper inequalities are
# enforced as value < bound, boundary membership reported when within this.
BOUNDARY_TOL = 1e-10


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------
class SmileDomainError(Exception):
    """Base class for errors raised by the domain machinery."""


class InvalidParamsError(SmileDomainError, ValueError):
    """Parameters violate a structural invariant (not merely arbitrageable)."""


class EvaluationDomainError(SmileDomainError, ValueError):
    """A shape function was evaluated outside its mathematical domain."""


class RogerLeeViolation(SmileDomainError):
    """Wing slopes b*(1 +/- rho) exceed 2; no sigma can repair the smile."""


class FukasawaViolation(SmileDomainError):
    """The necessary wing conditions G1+- > 0 fail; sigma* is undefined."""


class NoRootError(SmileDomainError):
    """A normally guaranteed root is removed by a degenerate boundary case."""

    def __init__(self, message: str, degenerate_case: str = "generic"):
        super().__init__(message)
        self.degenerate_case = degenerate_case


# ---------------------------------------------------------------------------
# The wing-slope bound
# ---------------------------------------------------------------------------
def wing_slope(b: float, rho: float) -> str:
    """Where the right wing's slope b*(1 + rho) lies against the Roger Lee
    bound 2, within BOUNDARY_TOL: "inside", "on" or "beyond".  The left
    wing is wing_slope(b, -rho), the steeper one wing_slope(b, abs(rho)).
    Every sub-SVI domain ends at this bound: b = 2 for symmetric smiles,
    b = 1 for vanishing ones and b = 2/(1 + |rho|) for SSVI slices.  It
    decides verdicts and flags; values follow _wing_slack."""
    slope = b * (1.0 + rho)
    if slope < 2.0 - BOUNDARY_TOL:
        return "inside"
    return "on" if slope <= 2.0 + BOUNDARY_TOL else "beyond"


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class RawSviParams:
    """The five raw SVI parameters in total-variance space."""

    a: float
    b: float
    rho: float
    m: float
    sigma: float

    def __post_init__(self):
        vals = (self.a, self.b, self.rho, self.m, self.sigma)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidParamsError(f"non-finite SVI parameters: {vals}")
        if self.b < 0.0:
            raise InvalidParamsError(f"b must be >= 0, got {self.b}")
        if abs(self.rho) > 1.0:
            raise InvalidParamsError(f"|rho| must be <= 1, got {self.rho}")
        if self.sigma < 0.0:
            raise InvalidParamsError(f"sigma must be >= 0, got {self.sigma}")
        if self.b == 0.0 and self.a == 0.0:
            raise InvalidParamsError("a = b = 0 is the trivial (zero) smile")
        if self.min_total_variance < -BOUNDARY_TOL:
            raise InvalidParamsError(
                f"minimum total variance {self.min_total_variance} < 0"
            )

    @property
    def min_total_variance(self) -> float:
        """a + b*sigma*sqrt(1 - rho^2), the smile's global minimum."""
        return self.a + self.b * self.sigma * math.sqrt(
            max(0.0, (1.0 - self.rho) * (1.0 + self.rho))
        )

    def normalized(self) -> "NormalizedSvi":
        return NormalizedSvi.from_raw(self)


@dataclass(frozen=True, slots=True)
class NormalizedSvi:
    """Reduced smile parameters (gamma, b, rho, mu, sigma).

    gamma = a/(b*sigma) and mu = m/sigma; the shape functions below depend
    only on (gamma, b, rho, mu), while sigma sets the arbitrage threshold.
    """

    gamma: float
    b: float
    rho: float
    mu: float
    sigma: float

    def __post_init__(self):
        vals = (self.gamma, self.b, self.rho, self.mu, self.sigma)
        if not all(map(math.isfinite, vals)):
            raise InvalidParamsError(f"non-finite normalized parameters: {vals}")
        if self.b < 0.0 or abs(self.rho) > 1.0 or self.sigma <= 0.0:
            raise InvalidParamsError(
                f"invalid normalized parameters b={self.b}, rho={self.rho}, "
                f"sigma={self.sigma}"
            )
        floor = -math.sqrt(max(0.0, (1.0 - self.rho) * (1.0 + self.rho)))
        if self.gamma < floor - BOUNDARY_TOL:
            raise InvalidParamsError(
                f"gamma={self.gamma} below -sqrt(1-rho^2)={floor}"
            )

    @classmethod
    def from_raw(cls, p: RawSviParams) -> "NormalizedSvi":
        if p.b <= 0.0:
            raise InvalidParamsError("normalization requires b > 0")
        if p.sigma <= 0.0:
            raise InvalidParamsError("normalization requires sigma > 0")
        return cls(
            gamma=p.a / (p.b * p.sigma),
            b=p.b,
            rho=p.rho,
            mu=p.m / p.sigma,
            sigma=p.sigma,
        )

    def to_raw(self) -> RawSviParams:
        return RawSviParams(
            a=self.gamma * self.b * self.sigma,
            b=self.b,
            rho=self.rho,
            m=self.mu * self.sigma,
            sigma=self.sigma,
        )

    @property
    def l_star(self) -> float:
        """Location of the smile minimum, -rho/sqrt(1 - rho^2)."""
        if abs(self.rho) >= 1.0:
            raise EvaluationDomainError("l_star undefined for |rho| = 1")
        return -self.rho / math.sqrt((1.0 - self.rho) * (1.0 + self.rho))


# ---------------------------------------------------------------------------
# Shape functions
# ---------------------------------------------------------------------------
# The shape functions have one body each for a scalar l and an array of them.
# Only these helpers look at the type: a Python number stays a Python float,
# as the scalar solvers call them, and never becomes a 0-d array, and its
# branch needs no numpy.
def _hypot1(l):
    if isinstance(l, (float, int)):
        return math.hypot(l, 1.0)
    import numpy as np

    return np.hypot(l, 1.0)


def _sqrt(x):
    if isinstance(x, (float, int)):
        return math.sqrt(x)
    import numpy as np

    return np.sqrt(x)


def _select(cond, a, b):
    if isinstance(cond, bool):
        return a if cond else b
    import numpy as np

    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _any(mask):
    return mask if isinstance(mask, bool) else mask.any()


def _pow(s, n: int):
    """s**n, inf past the float range for a Python float as for an array."""
    try:
        return s**n
    except OverflowError:
        return math.inf


def _ratio(num, den):
    """num/den, infinite where den is 0, for a scalar as for an array."""
    if not _any(den == 0.0):
        return num / den
    import numpy as np

    with np.errstate(divide="ignore"):
        return np.divide(num, den)


def total_variance(p: RawSviParams, k):
    """Total variance w(k) of the raw SVI smile; vectorized in k."""
    import numpy as np

    d = np.asarray(k, dtype=np.float64) - p.m
    w = p.a + p.b * (p.rho * d + np.hypot(d, p.sigma))
    return float(w) if w.ndim == 0 else w


def _l_terms(l):
    """The terms in l alone: (l, s, l/s, s^2, s^-3, l^2), s = sqrt(l^2+1)."""
    s = _hypot1(l)
    s2 = s * s
    return l, s, l / s, s2, 1.0 / (s2 * s), l * l


def _n_funcs_at(t, gamma: float, rho: float):
    """n_funcs on the terms of _l_terms."""
    l, s, x, s2, n2, ll = t
    lin = rho * l
    n = gamma + lin + s
    n1 = rho + x
    if rho != 0.0:  # at rho = 0, rho*l and rho*x are +-0 and never < 0
        # both branches are evaluated, and |rho| + |x| > 0 here
        l2c = ll * ((1.0 - rho) * (1.0 + rho))
        # rho*l + s == (l^2*(1-rho^2) + 1)/(s + |rho*l|) when signs oppose
        n_alt = gamma + (l2c + 1.0) / (s + abs(lin))
        n = _select(lin < 0.0, n_alt, n)
        # rho + x == sgn(rho)*(rho^2 - x^2)/(|rho| + |x|) when signs oppose,
        # with rho^2 - x^2 = (rho^2 - l^2*(1-rho^2))/(l^2+1)
        den = abs(rho) + abs(x)
        n1_alt = (rho * rho - l2c) / s2 / (den if rho > 0.0 else -den)
        n1 = _select(rho * x < 0.0, n1_alt, n1)
    return n, n1, n2


def n_funcs(l, gamma: float, rho: float):
    """Normalized level N and its first two derivatives at l.

    Returns (N, N', N'') with N = gamma + rho*l + sqrt(l^2+1),
    N' = rho + l/sqrt(l^2+1) and N'' = (l^2+1)^(-3/2).  Both N and N' are
    rationalized when rho*l < 0 so the wings keep full relative precision
    instead of cancelling two nearly equal magnitudes.
    """
    return _n_funcs_at(_l_terms(l), gamma, rho)


def _wing_terms(u):
    """Terms of the point l = 1/u in [0, +inf] alone (a, c, e, e/s, q,
    q*a/s, q*e/s, c^2/s^3): (a, c) = (1/max(u, 1), min(u, 1)), l = a/c,
    s = hypot(a, c), q = c/(s + a), e = s - a = c*q; terms in u for l >= 1."""
    big = u > 1.0
    a, c = 1.0 / _select(big, u, 1.0), _select(big, 1.0, u)
    s = _hypot1(_select(big, a, c))  # one of a, c is 1
    q = c / (s + a)
    e = c * q
    es = e / s
    return a, c, e, es, q, q * a / s, q * es, c * c / (s * s * s)


@functools.cache
def _u_grid():
    """The wing grid, u = 1/l from u = 0 (l = +inf) to l = 1e-6, and its
    terms, built once, on first use, read-only: the oracle's wing scan and
    fukasawa's root l- use it."""
    import numpy as np

    grid = np.append(0.0, np.geomspace(1e-16, 1e6, 551))
    terms = _wing_terms(grid)
    for term in (grid, *terms):
        term.flags.writeable = False
    return grid, terms


def _u_root(f, end: float) -> float:
    """Root in u of f(wing terms) on the first sign change of the grid below
    end, else between its last point and a finite end.  xtol = 1e-14*lo^2
    in u is 1e-14 in |l| = 1/u at the bracket's lower end lo > 0.  Raises
    NoRootError without a bracket, and EvaluationDomainError where brentq
    does not converge (as at gamma = 1e100)."""
    import numpy as np

    grid, terms = _u_grid()
    n = int(np.searchsorted(grid, end))
    sgn = np.sign(f(tuple(t[:n] for t in terms)))
    i = np.flatnonzero(sgn[1:] != sgn[:-1])
    if i.size:
        lo, hi = float(grid[i[0]]), float(grid[i[0] + 1])
    elif end < math.inf:
        lo, hi = float(grid[n - 1]), end
    else:
        raise NoRootError("no sign change on the wing grid")
    try:
        return brentq(lambda u: f(_wing_terms(u)), lo, hi, xtol=max(1e-14 * lo * lo, 1e-300))
    except RuntimeError as exc:
        raise EvaluationDomainError(f"the wing root did not converge: {exc}") from exc


def _wing_slack(b: float, rho: float) -> float:
    """The right wing's slack 1 - b*(1 + rho)/2, 0 where it is not above
    2^-52, the two roundings of b*(1 + rho): the one test of where a value
    takes the wing limit (wing_slope decides the verdicts).  A slope past
    the bound's band is no limit: its slack stays as it is, so that the
    density check's 2*N*c*(h - b*g) = P*w*a + c*Y holds there too."""
    w = 1.0 - b * (1.0 + rho) / 2.0
    return w if w > 2.0**-52 or wing_slope(b, rho) == "beyond" else 0.0


def _wing_n_at(t, gamma: float, rho: float):
    """(2*N*c, N' = P - e/s, g2/c) on the terms of _wing_terms, P = 1 + rho,
    N*c = gamma*c + P*a + e.  Raises EvaluationDomainError where N*c <= 0."""
    a, c, e, es, _, _, _, c2s3 = t
    p = 1.0 + rho
    two_d = 2.0 * (gamma * c + (p * a + e))
    if _any(two_d <= 0.0):
        raise EvaluationDomainError("N(l) <= 0: smile level vanishes")
    n1 = p - es
    return two_d, n1, c2s3 - n1 * n1 / two_d


def _wing_at(t, gamma: float, b: float, rho: float, mu: float, w: float):
    """(g2/c, h - b*g, h + b*g, Y/(2*N*c)) on the terms of _wing_terms, with
    the slack w = _wing_slack(b, rho) split out of 2*N*c*(h - b*g) =
    P*w*a + c*Y, where Y is regular: gamma*(1 + w) - mu*P at l = +inf."""
    a, c, _, es, q, qr, eqr, _ = t
    two_d, n1, g2c = _wing_n_at(t, gamma, rho)
    p = 1.0 + rho
    y = ((gamma * (1.0 + w) - p * mu) + (1.0 + w) * q + (2.0 - w) * qr
         + (mu + b * gamma / 2.0) * es + b / 2.0 * eqr)
    hm = (p * w * a + c * y) / two_d
    return g2c, hm, hm + b / 2.0 * n1, y / two_d


def _wing_prime_at(t, gamma: float, rho: float, mu: float):
    """hgg2_prime on the terms of _wing_terms, scaled to stay finite at
    u = 0: (h, g, g2/c, h'/c, g'/c, g2'/c^2), derivatives in l, with the
    limits (1/2, P/4, -P/2, 0, 0, P/2) there.  With M = (l + mu)*c, h'/c
    takes N'*M - N*c as c*(P*mu - gamma - q*(M/s + 1)), free of the
    cancellation of its two O(1) terms.  Raises EvaluationDomainError where
    N*c <= 0."""
    a, c, e, _, q, _, _, c2s3 = t
    two_d, n1, g2c = _wing_n_at(t, gamma, rho)
    s, m = a + e, a + mu * c
    k = c * ((1.0 + rho) * mu - gamma - q * (m / s + 1.0))
    h1 = (2.0 * n1 * k / two_d - c2s3 * m) / two_d
    g21 = -(2.0 * n1 * g2c / two_d + 3.0 * a * c2s3 / (s * s))
    return 1.0 - n1 * m / two_d, n1 / 4.0, g2c, h1, c2s3 / 4.0, g21


def _critical_at(t, gamma: float, rho: float, mu: float):
    """(h, g, g2/c, p/c^2, q/c^2) on the terms of _wing_terms: the
    critical-point functions p = h*g2' - 2*h'*g2 and q = g*g2' - 2*g'*g2
    (derivatives in l), finite at u = 0, where p/c^2 = P/4 and q/c^2 =
    P^2/8, P = 1 + rho."""
    h, g, g2c, h1, g1d, g21 = _wing_prime_at(t, gamma, rho, mu)
    return h, g, g2c, h * g21 - 2.0 * h1 * g2c, g * g21 - 2.0 * g1d * g2c


def _critical_residual(crit, b: float):
    """(h*p - b^2*g*q)/c^2 from the output of _critical_at: zero at a
    critical point of the requirement f = -b*g2/(2*G1) at level b, and of
    the sign of df/du, P/8*(1 - (b*P/2)^2) > 0 at u = 0 inside the slope
    bound."""
    h, g, _, p, q = crit
    return h * p - b * b * g * q


def hgg2(l, nsvi: NormalizedSvi):
    """Auxiliary functions (h, g, g2) of the normalized smile at l.

    h = 1 - N'*(l + mu)/(2N), g = N'/4 and g2 = N'' - N'^2/(2N).  Raises
    EvaluationDomainError if N <= 0 anywhere on the input.
    """
    t = _l_terms(l)
    n, n1, n2 = _n_funcs_at(t, nsvi.gamma, nsvi.rho)
    if _any(n <= 0.0):
        raise EvaluationDomainError("N(l) <= 0: smile level vanishes")
    two_n = 2.0 * n
    h = 1.0 - n1 * (l + nsvi.mu) / two_n
    g = n1 / 4.0
    g2 = n2 - n1 * n1 / two_n
    return h, g, g2


def g1(l, nsvi: NormalizedSvi):
    """Wing positivity factors (G1, G1+, G1-) with G1 = G1+ * G1-."""
    h, g, _ = hgg2(l, nsvi)
    bg = nsvi.b * g
    plus, minus = h - bg, h + bg
    return plus * minus, plus, minus


def hgg2_prime(l, nsvi: NormalizedSvi):
    """Values and first l-derivatives of (h, g, g2).

    Returns (h, g, g2, h', g', g2'): the l-chart reference pinned by
    test_shape_reference.py.  The library uses _wing_prime_at and
    _critical_at in u = 1/l: in the far wing h' here cancels, off 60-digit
    mpmath by 1.7e-11 to 8.9e-11 relative at l = 1e5 and 3.2e-8 to 4.0e-7
    at l = 1e9 on four shapes, against 4.4e-16 in the chart.
    """
    t = _l_terms(l)
    n, n1, n2 = _n_funcs_at(t, nsvi.gamma, nsvi.rho)
    if _any(n <= 0.0):
        raise EvaluationDomainError("N(l) <= 0: smile level vanishes")
    n3 = -3.0 * l / _pow(t[1], 5)

    lm = l + nsvi.mu
    two_n, n1sq = 2.0 * n, n1 * n1
    two_nn = two_n * n
    h = 1.0 - n1 * lm / two_n
    g = n1 / 4.0
    g2 = n2 - n1sq / two_n
    h1 = -(n2 * lm + n1) / two_n + n1sq * lm / two_nn
    g1d = n2 / 4.0
    g21 = n3 - n1 * n2 / n + n1**3 / two_nn
    return h, g, g2, h1, g1d, g21


def sigma_floor(l, nsvi: NormalizedSvi):
    """Pointwise sigma requirement -b*g2/(2*G1); its supremum over the
    wings is the minimal arbitrage-free sigma.  Where G1 rounds to 0 the
    value is infinite, for a scalar l as for an array.  Of the certifiers
    only symmetric.certify calls it; the others use their closed forms."""
    h, g, g2v = hgg2(l, nsvi)
    b = nsvi.b
    bg = b * g
    return _ratio(-b * g2v, 2.0 * ((h - bg) * (h + bg)))


def sigma_floor_dual(l, nsvi: NormalizedSvi):
    """Dual form -G1/g2 = b/(2*sigma_floor); the same critical point
    minimizes it.  No family or oracle calls it: it is the reference for
    the reciprocity checks in the tests."""
    h, g, g2v = hgg2(l, nsvi)
    bg = nsvi.b * g
    return -((h - bg) * (h + bg)) / g2v
