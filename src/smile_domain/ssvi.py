"""Quasi-explicit domain for SSVI slices, plus the long-maturity Heston link.

An SSVI slice w(k) = (theta/2)*(1 + rho*phi*k + sqrt((phi*k+rho)^2+1-rho^2))
maps to SVI with a = theta*(1-rho^2)/2, b = theta*phi/2, m = -rho/phi and
sigma = sqrt(1-rho^2)/phi, so gamma = sqrt(1-rho^2) and mu sits exactly at
the smile minimum.  The wing conditions are automatic; the only constraint
beyond the slope bound b*(1+|rho|) <= 2 is sigma >= sigma*(b, rho).

On the boundary b = 2/(1+|rho|) the requirement is attained in the limit
and equals sqrt(1-rho^2), which certify takes where the slack
``core._wing_slack`` is 0.  Below it, trading b for the critical point l of
the sigma requirement gives b*(l, rho) on [l_bar(0, rho), infinity) with
the closed-form threshold sigma*(l, rho) at the critical point; l_bar is
the single non-closed-form ingredient, and certification does not solve
for it.  It is the critical point at b = 0: l_bar and the critical point at
a given b are one brentq on one objective in u = 1/l, on one closed-form
bracket from the point at infinity u = 0, where the critical-point
functions scaled by the chart stay finite, to x = max(x2, rho), with no
cut-off for any |rho| < 1.  Certification
evaluates sigma*(l) at the given b, so the root's error enters only at
second order.  Negative rho routes through |rho| by strike inversion.

Uniqueness of the critical point rests on a numerical scan (the target
functional stays positive on a dense grid); scan_uniqueness ships that
check as a first-class reproducible computation and certificates carry a
"numerically sustained" flag rather than claiming a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .certificates import DomainCertificate, make_certificate
from .core import (
    BOUNDARY_TOL,
    EvaluationDomainError,
    InvalidParamsError,
    NormalizedSvi,
    RawSviParams,
    RogerLeeViolation,
    _critical_at,
    _critical_residual as _core_residual,
    _sqrt,
    _wing_slack,
    _wing_terms,
    wing_slope,
)
from .roots import brentq

__all__ = [
    "SsviParams",
    "HestonLtParams",
    "X_M2_RHO1",
    "X_M2_RHO0",
    "x_of_rho",
    "l2_closed",
    "m2",
    "j2_x",
    "b_star",
    "l_bar_zero",
    "sigma_star_closed",
    "l_from_b",
    "certify",
    "gj_sufficient",
    "subdomain_bound",
    "subdomain_check",
    "lt_heston_b",
    "heston_to_ssvi",
    "lt_heston_threshold",
    "uniqueness_target",
    "UniquenessReport",
    "scan_uniqueness",
]

# Endpoints of the curvature-minimizer location x_m2(rho) on rho in [0, 1]
X_M2_RHO1 = (2.0 + math.sqrt(10.0)) / 6.0
X_M2_RHO0 = math.sqrt(math.sqrt(7.0) / 18.0 + 7.0 / 9.0)

_UTOL = 5e-324  # the u-roots stop on brentq's relative tolerance alone
_FROM_RAW_TOL = 1e-9
_BLOCK_ROWS = 64  # x-rows per block of the uniqueness scan


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class SsviParams:
    """Canonical SSVI slice parameters (theta, phi, rho)."""

    theta: float
    phi: float
    rho: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.theta, self.phi, self.rho))):
            raise InvalidParamsError(f"non-finite parameters: {self}")
        if self.theta <= 0.0 or self.phi <= 0.0:
            raise InvalidParamsError(
                f"theta and phi must be > 0, got {self.theta}, {self.phi}"
            )
        if not abs(self.rho) < 1.0:
            raise InvalidParamsError(f"|rho| must be < 1, got {self.rho}")

    @property
    def b(self) -> float:
        return self.theta * self.phi / 2.0

    @property
    def sigma(self) -> float:
        return math.sqrt((1.0 - self.rho) * (1.0 + self.rho)) / self.phi

    @property
    def gamma(self) -> float:
        return math.sqrt((1.0 - self.rho) * (1.0 + self.rho))

    @property
    def mu(self) -> float:
        return -self.rho / self.gamma

    def to_raw(self) -> RawSviParams:
        one_m_rho2 = (1.0 - self.rho) * (1.0 + self.rho)
        return RawSviParams(
            a=self.theta * one_m_rho2 / 2.0,
            b=self.b,
            rho=self.rho,
            m=-self.rho / self.phi,
            sigma=self.sigma,
        )

    def normalized(self) -> NormalizedSvi:
        return NormalizedSvi(
            gamma=self.gamma, b=self.b, rho=self.rho, mu=self.mu, sigma=self.sigma
        )

    @classmethod
    def from_raw(cls, p: RawSviParams) -> "SsviParams":
        """Recover (theta, phi, rho) from raw SVI, verifying the SSVI shape
        constraints a = b*sigma*sqrt(1-rho^2) and m = -rho*sigma/sqrt(1-rho^2)
        to within ``_FROM_RAW_TOL`` relative to max(1, |a|, |m|)."""
        if p.sigma <= 0.0 or p.b <= 0.0 or not abs(p.rho) < 1.0:
            raise InvalidParamsError("raw parameters cannot come from an SSVI")
        root = math.sqrt((1.0 - p.rho) * (1.0 + p.rho))
        phi = root / p.sigma
        theta = 2.0 * p.b / phi
        scale = max(1.0, abs(p.a), abs(p.m))
        if abs(p.a - p.b * p.sigma * root) > _FROM_RAW_TOL * scale:
            raise InvalidParamsError(f"a={p.a} incompatible with an SSVI slice")
        if abs(p.m + p.rho * p.sigma / root) > _FROM_RAW_TOL * scale:
            raise InvalidParamsError(f"m={p.m} incompatible with an SSVI slice")
        return cls(theta=theta, phi=phi, rho=p.rho)


@dataclass(frozen=True, slots=True)
class HestonLtParams:
    """Heston inputs for the long-maturity smile limit (which is an SSVI)."""

    kappa: float
    theta_bar: float
    sigma_vol: float
    rho: float

    def __post_init__(self):
        if min(self.kappa, self.theta_bar, self.sigma_vol) <= 0.0:
            raise InvalidParamsError("kappa, theta_bar, sigma_vol must be > 0")
        if not abs(self.rho) < 1.0:
            raise InvalidParamsError(f"|rho| must be < 1, got {self.rho}")


# ---------------------------------------------------------------------------
# Closed-form ingredients in the x = l/sqrt(l^2+1) coordinate
# ---------------------------------------------------------------------------
def x_of_rho(rho: float) -> float:
    """Largest root of 4x^3 - 3x + rho: the curvature zero in x-coordinates."""
    if not 0.0 <= rho <= 1.0:
        raise EvaluationDomainError(f"rho must lie in [0, 1], got {rho}")
    return math.cos(math.acos(-rho) / 3.0)


def l2_closed(rho: float) -> float:
    """Curvature zero 1/tan(arccos(-rho)/3) for rho in [0, 1]."""
    x = x_of_rho(rho)
    return x / math.sqrt((1.0 - x) * (1.0 + x))


def _rho_of_m2(x: float) -> float:
    """Value of rho whose curvature minimizer sits at x; strictly monotone
    on [X_M2_RHO1, X_M2_RHO0]."""
    x2 = x * x
    inner = 36.0 * x2 * x2 - 24.0 * x2 + 1.0
    return x * (
        -12.0 * x2 * x2
        + 16.0 * x2
        - 5.0
        + 2.0 * (1.0 - x2) * math.sqrt(max(inner, 0.0))
    )


def m2(rho: float) -> float:
    """Location x_m2(rho) of the curvature minimum, by Brent's method on the
    monotone inverse map; endpoint evaluations clamp."""
    if not 0.0 <= rho <= 1.0:
        raise EvaluationDomainError(f"rho must lie in [0, 1], got {rho}")
    if rho >= _rho_of_m2(X_M2_RHO1):
        return X_M2_RHO1
    if rho <= _rho_of_m2(X_M2_RHO0):
        return X_M2_RHO0
    return brentq(lambda x: _rho_of_m2(x) - rho, X_M2_RHO1, X_M2_RHO0, xtol=1e-15)


def _j2(x, rho, sx, rb):
    """The curvature function g2 in the x coordinate, given sx = sqrt(1 - x^2)
    and rb = sqrt(1 - rho^2); the power is a product, so that a float and an
    array give the same bits."""
    xr = x + rho
    return sx * sx * sx - xr * xr * sx / (2.0 * (1.0 + rho * x + rb * sx))


def j2_x(x, rho: float):
    """Curvature function g2 expressed in the x coordinate, x a float or an
    array."""
    return _j2(x, rho, _sqrt((1.0 - x) * (1.0 + x)), math.sqrt((1.0 - rho) * (1.0 + rho)))


# ---------------------------------------------------------------------------
# b* reparametrization on the u = 1/l chart
# ---------------------------------------------------------------------------
def _pq(u, rho: float):
    """core._critical_at for the SSVI shape at correlation rho at l = 1/u:
    (h, g, g2/c, p/c^2, q/c^2), c = min(u, 1)."""
    root = math.sqrt((1.0 - rho) * (1.0 + rho))
    return _critical_at(_wing_terms(u), root, rho, -rho / root)


def b_star(l: float, rho: float) -> float:
    """Curvature level whose sigma requirement is critical at l; strictly
    increasing from 0 at l_bar(0, rho) to 2/(1+rho) at infinity."""
    return _b_star(l, rho)[0]


def _b_star(l: float, rho: float):
    """(b*(l, rho), h, g, g2/c) at u = 1/l, from one _pq call."""
    if l > 0.0:
        h, g, g2c, p, q = _pq(1.0 / l, rho)
        if p > 0.0 and q > 0.0:
            return math.sqrt(h * p / (g * q)), h, g, g2c
    raise EvaluationDomainError(f"l={l} left of the critical-point sweep for rho={rho}")


def _u_end(rho: float) -> float:
    """u = 1/l at x = max(x2, rho): the far end of l_from_b's bracket."""
    x = max(x_of_rho(rho), rho)
    return math.sqrt((1.0 - x) * (1.0 + x)) / x


def l_bar_zero(rho: float) -> float:
    """Left end of the critical-point sweep: the b -> 0 critical point,
    l_from_b(0, rho), the only ingredient of the SSVI domain without a
    closed form.  +inf at rho = 1, where mu = -inf.
    """
    if not 0.0 <= rho <= 1.0:
        raise EvaluationDomainError(f"rho must lie in [0, 1], got {rho}")
    return l_from_b(0.0, rho)


def sigma_star_closed(l: float, rho: float, b: float | None = None) -> float:
    """Sigma threshold -b*g2/(2*(h^2 - b^2*g^2)) at the critical point l, b
    by default b_star(l, rho); the l = inf boundary value is sqrt(1-rho^2)."""
    if math.isinf(l):
        return math.sqrt((1.0 - rho) * (1.0 + rho))
    b, h, g, g2c = _b_star(l, rho) if b is None else (b, *_pq(1.0 / l, rho)[:3])
    den = 2.0 * (h * h - b * b * g * g)
    if den <= 0.0:
        raise EvaluationDomainError(f"nonpositive wing factor at l={l}, rho={rho}")
    return -b * g2c * min(1.0 / l, 1.0) / den


def _critical_residual(u: float, b: float, rho: float) -> float:
    """core._critical_residual at l = 1/u for the SSVI shape: finite from
    u = 0 to the bracket end _u_end(rho)."""
    return _core_residual(_pq(u, rho), b)


def l_from_b(b: float, rho: float) -> float:
    """Invert b_star: the root in u = 1/l of the critical-point equation
    h*p = b^2*g*q for b in [0, 2/(1+rho)), on the closed-form bracket
    [0, _u_end(rho)], by one brentq.  At b = 0 the residual is h*p with
    h > 0 on the sweep, so the root is the sweep end l_bar(0, rho).

    The residual is (1+rho)/8*(1 - (b*(1+rho)/2)^2) > 0 at u = 0.  At the
    far end, x = max(x2, rho), it is affine in b^2 and negative at both
    ends of the b range: h*p < 0 at b = 0, and at b = 2/(1+rho) it is at
    most -2/3*|h*p|; so no admissible b gives the ends one sign.  +inf at
    rho = 1 and where the slope bound's slack (core._wing_slack) is 0.
    """
    if not b >= 0.0 or wing_slope(b, rho) == "beyond":
        raise EvaluationDomainError(f"b={b} outside [0, 2/(1+rho)) for rho={rho}")
    if rho == 1.0 or _wing_slack(b, rho) == 0.0:
        return math.inf
    return 1.0 / brentq(lambda u: _critical_residual(u, b, rho), 0.0, _u_end(rho),
                        xtol=_UTOL)


def certify(p: SsviParams) -> DomainCertificate:
    """Certify an SSVI slice; negative rho routes through |rho| by the
    strike-inversion symmetry."""
    ar = abs(p.rho)
    slope = wing_slope(p.b, ar)
    diagnostics: dict[str, float | str] = {"uniqueness": "numerically sustained"}

    if slope == "beyond":
        sstar = math.inf
    else:
        # the requirement is stationary at the critical point, so its value
        # at the given b takes the root's error to second order
        l = l_from_b(p.b, ar)
        sstar = sigma_star_closed(l, ar, p.b)
        if math.isinf(l):  # no slack: the limit at the point at infinity
            diagnostics["argsup"] = math.inf
        else:
            diagnostics["l"] = l
            # the chart's residual times c^2 = u^2 is the residual in l
            diagnostics["critical_residual"] = _critical_residual(1.0 / l, p.b, ar) / (l * l)

    return make_certificate(  # the fukasawa condition is automatic for SSVI shapes
        family="ssvi",
        params=p,
        sigma_star=sstar,
        bounds={
            "b_max": 2.0 / (1.0 + ar),
            "gj_sigma": gj_sigma_bound(p.b, p.rho),
            "subdomain_sigma": subdomain_bound(p.b, p.rho) if slope == "inside" else math.inf,
        },
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Sufficient conditions
# ---------------------------------------------------------------------------
def gj_sigma_bound(b: float, rho: float) -> float:
    """Sigma level of the classical sufficient conditions,
    (b/2)*(1+|rho|)*sqrt(1-rho^2)."""
    return 0.5 * b * (1.0 + abs(rho)) * math.sqrt((1.0 - rho) * (1.0 + rho))


def gj_sufficient(p: SsviParams) -> bool:
    """Classical sufficient no-arbitrage conditions: the strict slope bound
    b*(1+|rho|) < 2 together with sigma >= (b/2)*(1+|rho|)*sqrt(1-rho^2).
    True implies the exact certification passes, never conversely."""
    if wing_slope(p.b, abs(p.rho)) != "inside":
        return False
    return p.sigma >= gj_sigma_bound(p.b, p.rho) - BOUNDARY_TOL


def subdomain_bound(b: float, rho: float) -> float:
    """Explicit sufficient sigma level -8*b*j2(x_m2)/(4 - b^2*(1+|rho|)^2);
    diverges on the slope boundary."""
    ar = abs(rho)
    den = 4.0 - b * b * (1.0 + ar) ** 2
    if den <= 0.0:
        raise EvaluationDomainError(f"slope bound saturated at b={b}, rho={rho}")
    return -8.0 * b * j2_x(m2(ar), ar) / den


def subdomain_check(p: SsviParams) -> bool:
    """Membership in the explicit sufficient sub-domain."""
    if wing_slope(p.b, abs(p.rho)) != "inside":
        return False
    return p.sigma >= subdomain_bound(p.b, p.rho) - BOUNDARY_TOL


# ---------------------------------------------------------------------------
# Long-maturity Heston limit
# ---------------------------------------------------------------------------
def lt_heston_b(h: HestonLtParams) -> float:
    """Curvature level of the long-maturity smile; maturity-independent.

    Uses the rationalized form when 2*kappa - rho*sigma_vol > 0 so that a
    vanishing vol-of-vol does not cancel catastrophically.
    """
    d = 2.0 * h.kappa - h.rho * h.sigma_vol
    one_m_rho2 = (1.0 - h.rho) * (1.0 + h.rho)
    e = h.sigma_vol * h.sigma_vol * one_m_rho2
    if d > 0.0:
        return 2.0 * h.sigma_vol / (math.sqrt(d * d + e) + d)
    return 2.0 * (math.sqrt(d * d + e) - d) / (h.sigma_vol * one_m_rho2)


def heston_to_ssvi(h: HestonLtParams, maturity: float) -> SsviParams:
    """SSVI slice of the long-maturity smile at the given maturity."""
    if maturity <= 0.0:
        raise InvalidParamsError(f"maturity must be > 0, got {maturity}")
    phi = h.sigma_vol / (h.kappa * h.theta_bar * maturity)
    theta = 2.0 * lt_heston_b(h) / phi
    return SsviParams(theta=theta, phi=phi, rho=h.rho)


def lt_heston_threshold(h: HestonLtParams) -> float:
    """Smallest maturity at which the explicit sufficient sub-domain
    certifies the long-maturity smile (sigma grows linearly in maturity
    while the sub-domain sigma level is maturity-free)."""
    b = lt_heston_b(h)
    if wing_slope(b, abs(h.rho)) != "inside":
        raise RogerLeeViolation(
            f"long-maturity smile violates the slope bound: b*(1+|rho|)="
            f"{b * (1.0 + abs(h.rho))}"
        )
    return subdomain_bound(b, h.rho) * h.sigma_vol / (
        h.kappa * h.theta_bar * math.sqrt((1.0 - h.rho) * (1.0 + h.rho))
    )


# ---------------------------------------------------------------------------
# Uniqueness scan of the critical point
# ---------------------------------------------------------------------------
def _d2_j2_dx2(x, rho, sx, rb):
    """Second x-derivative of the curvature function (symbolic form), given
    sx = sqrt(1 - x^2) and rb = sqrt(1 - rho^2).  Powers are products, so
    that a float and an array give the same bits."""
    u = rho * x + rb * sx + 1.0
    pterm = rho + 3.0 * x * u + x
    xr = rho + x
    w = xr * xr * xr + 2.0 * (x * x - 1.0) * pterm * u
    v = rho * sx - x * rb
    qterm = 3.0 * x * v + sx * (3.0 * rho * x + 3.0 * rb * sx + 4.0)
    num = (
        x * w * u
        - 2.0 * sx * v * w
        + sx
        * u
        * (
            sx * (4.0 * x * pterm * u + 3.0 * (xr * xr))
            + 2.0 * (x * x - 1.0) * v * pterm
            + 2.0 * (x * x - 1.0) * qterm * u
        )
    )
    return num / (2.0 * (sx * sx * sx) * (u * u * u))


def _uniqueness_terms(x, rho, b):
    """(J1, j2, d2 j2/dx2, d2 J1/dx2) at (x, rho) for wing level b, where
    J1 = h^2 - b^2 g^2 with h = (1 + sqrt((1 - x^2)/(1 - rho^2)))/2 and
    g = (x + rho)/4 linear in x.  x, rho and b are floats, or arrays that
    broadcast; each term is computed once, and powers are products and
    sqrt, so that a float and an array give the same bits."""
    cx, cr = 1.0 - x * x, 1.0 - rho * rho
    sx, rb = _sqrt(cx), _sqrt(cr)
    d2j2 = _d2_j2_dx2(x, rho, sx, rb)
    h = 0.5 * (1.0 + _sqrt(cx / cr))
    h1 = -x / (2.0 * rb * sx)
    h2 = -1.0 / (2.0 * rb * (cx * sx))
    d2j1 = 2.0 * (h1 * h1 + h * h2 - b * b / 16.0)
    g = (x + rho) / 4.0
    j1 = h * h - b * b * g * g
    return j1, _j2(x, rho, sx, rb), d2j2, d2j1


def uniqueness_target(x, rho, b=None):
    """J1*d2(j2) - d2(J1)*j2; positivity on x > x_m2(1) at the extremal
    wing level b = 2/(1+rho) rules out interior maxima of the requirement.
    A float in gives a float out, without numpy."""
    j1, j2, d2j2, d2j1 = _uniqueness_terms(x, rho, 2.0 / (1.0 + rho) if b is None else b)
    return j1 * d2j2 - d2j1 * j2


@dataclass(frozen=True, slots=True)
class UniquenessReport:
    min_value: float
    arg_rho: float
    arg_x: float
    negative_count: int
    rho_steps: int
    x_steps: int

    @property
    def passed(self) -> bool:
        return self.negative_count == 0 and self.min_value > 0.0

    @property
    def message(self) -> str:
        return "There is unicity" if self.passed else "No unicity"


def scan_uniqueness(rho_steps: int = 1000, x_steps: int = 1000) -> UniquenessReport:
    """Grid scan of the uniqueness target over rho in [0, 0.999] and
    x in [x_m2(1), 0.999] at the extremal wing level.

    The grid is evaluated in blocks of ``_BLOCK_ROWS`` x-rows, each row
    broadcast against every rho, and each block is reduced before the next
    one is computed, so memory stays at one block instead of the whole
    grid.  Every value is bit for bit the one of a full meshgrid evaluation,
    and the minimum kept is the first in row-major (x, rho) order, so the
    report equals a one-shot reduction of the whole grid.  Raises
    InvalidParamsError for a step count below 1.
    """
    if rho_steps < 1 or x_steps < 1:
        raise InvalidParamsError(
            f"step counts must be >= 1, got rho_steps={rho_steps}, x_steps={x_steps}"
        )
    import numpy as np

    rho = np.linspace(0.0, 0.999, rho_steps)
    x = np.linspace(X_M2_RHO1, 0.999, x_steps)
    min_value, arg_x, arg_rho = math.inf, 0, 0
    negative_count = 0
    for start in range(0, x_steps, _BLOCK_ROWS):
        vals = uniqueness_target(x[start:start + _BLOCK_ROWS, None], rho[None, :])
        ix, ir = np.unravel_index(int(np.argmin(vals)), vals.shape)
        if vals[ix, ir] < min_value:  # strict: an earlier block keeps a tie
            min_value, arg_x, arg_rho = float(vals[ix, ir]), start + int(ix), int(ir)
        negative_count += int(np.count_nonzero(vals < 0.0))
    return UniquenessReport(
        min_value=min_value,
        arg_rho=float(rho[arg_rho]),
        arg_x=float(x[arg_x]),
        negative_count=negative_count,
        rho_steps=rho_steps,
        x_steps=x_steps,
    )
