"""Quasi-explicit domain for SSVI slices, plus the long-maturity Heston link.

An SSVI slice w(k) = (theta/2)*(1 + rho*phi*k + sqrt((phi*k+rho)^2+1-rho^2))
maps to SVI with a = theta*(1-rho^2)/2, b = theta*phi/2, m = -rho/phi and
sigma = sqrt(1-rho^2)/phi, so gamma = sqrt(1-rho^2) and mu sits exactly at
the smile minimum.  The wing conditions are automatic; the only constraint
beyond the slope bound b*(1+|rho|) <= 2 is sigma >= sigma*(b, rho).

On the boundary b = 2/(1+|rho|) the requirement is attained in the limit
and equals sqrt(1-rho^2).  Below it, trading b for the critical point l of
the sigma requirement gives b*(l, rho) on [l_bar(0, rho), infinity) with
the closed-form threshold sigma*(l, rho) at the critical point; l_bar is
the root of a one-dimensional function computed numerically, the single
non-closed-form ingredient.  Negative rho routes through |rho| by the
strike-inversion symmetry.

Uniqueness of the critical point rests on a numerical scan (the target
functional stays positive on a dense grid); scan_uniqueness ships that
check as a first-class reproducible computation and certificates carry a
"numerically sustained" flag rather than claiming a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import DomainCertificate, make_certificate
from .core import (
    BOUNDARY_TOL,
    EvaluationDomainError,
    InvalidParamsError,
    NormalizedSvi,
    RawSviParams,
    RogerLeeViolation,
    hgg2_prime,
    sigma_floor,
    wing_slope,
)
from .roots import brentq, grid_root

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
    "second_derivatives_x",
    "uniqueness_target",
    "UniquenessReport",
    "scan_uniqueness",
]

# Endpoints of the curvature-minimizer location x_m2(rho) on rho in [0, 1]
X_M2_RHO1 = (2.0 + math.sqrt(10.0)) / 6.0
X_M2_RHO0 = math.sqrt(math.sqrt(7.0) / 18.0 + 7.0 / 9.0)

_L_MAX = 1.0e8
_EDGE = 1e-12
_FROM_RAW_TOL = 1e-9


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


def _rho_of_m2(x):
    """Value of rho whose curvature minimizer sits at x; strictly monotone
    on [X_M2_RHO1, X_M2_RHO0]."""
    x = np.asarray(x, dtype=np.float64)
    x2 = x * x
    inner = 36.0 * x2 * x2 - 24.0 * x2 + 1.0
    val = x * (
        -12.0 * x2 * x2
        + 16.0 * x2
        - 5.0
        + 2.0 * (1.0 - x2) * np.sqrt(np.maximum(inner, 0.0))
    )
    return float(val) if np.ndim(val) == 0 else val


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


def _n_x(x, rho: float):
    sx = np.sqrt((1.0 - x) * (1.0 + x))
    return (1.0 + rho * x) / sx + math.sqrt((1.0 - rho) * (1.0 + rho))


def j2_x(x, rho: float):
    """Curvature function g2 expressed in the x coordinate."""
    x = np.asarray(x, dtype=np.float64)
    sx = np.sqrt((1.0 - x) * (1.0 + x))
    val = sx**3 - (x + rho) ** 2 / (2.0 * _n_x(x, rho))
    return float(val) if np.ndim(val) == 0 else val


# ---------------------------------------------------------------------------
# b* reparametrization in the l coordinate
# ---------------------------------------------------------------------------
def _norm_shape(rho: float) -> NormalizedSvi:
    root = math.sqrt((1.0 - rho) * (1.0 + rho))
    return NormalizedSvi(gamma=root, b=1.0, rho=rho, mu=-rho / root, sigma=1.0)


def _pq(l, rho: float):
    """Critical-point functions p = h*g2' - 2*h'*g2 and q = g*g2' - 2*g'*g2
    for the SSVI shape at correlation rho (derivatives in l)."""
    h, g, g2v, h1, g1d, g21 = hgg2_prime(l, _norm_shape(rho))
    p = h * g21 - 2.0 * h1 * g2v
    q = g * g21 - 2.0 * g1d * g2v
    return h, g, g2v, p, q


def b_star(l: float, rho: float) -> float:
    """Curvature level whose sigma requirement is critical at l; strictly
    increasing from 0 at l_bar(0, rho) to 2/(1+rho) at infinity."""
    h, g, _, p, q = _pq(l, rho)
    if p * q <= 0.0:
        raise EvaluationDomainError(
            f"l={l} left of the critical-point sweep for rho={rho}"
        )
    return math.sqrt(h * p / (g * q))


def _phi_num(x, rho: float):
    """Numerator of the b -> 0 critical-point equation in x; negative at
    the left bracket max(x2, rho), positive at 1."""
    x = np.asarray(x, dtype=np.float64)
    rb = math.sqrt((1.0 - rho) * (1.0 + rho))
    sx = np.sqrt((1.0 - x) * (1.0 + x))
    u = 1.0 + rho * x + sx * rb
    v = sx + rb
    val = -2.0 * u * u * sx * (x * sx * (3.0 * rb + sx) + x + rho) + (
        x + rho
    ) ** 3 * v
    return float(val) if np.ndim(val) == 0 else val


def l_bar_zero(rho: float) -> float:
    """Left end of the critical-point sweep: the b -> 0 critical point.

    Root of a one-dimensional function on (max(x2, rho), 1), the only
    ingredient of the SSVI domain without a closed form; +inf at rho = 1.
    """
    if not 0.0 <= rho <= 1.0:
        raise EvaluationDomainError(f"rho must lie in [0, 1], got {rho}")
    if rho >= 1.0 - 1e-12:
        return math.inf
    lo = max(x_of_rho(rho), rho) + _EDGE
    hi = 1.0 - 1e-14
    x = grid_root(lambda t: _phi_num(t, rho), np.linspace(lo, hi, 256), xtol=1e-15)
    if x is None:
        raise EvaluationDomainError(f"no sweep endpoint bracket for rho={rho}")
    return x / math.sqrt((1.0 - x) * (1.0 + x))


def sigma_star_closed(l: float, rho: float) -> float:
    """Sigma threshold -b*(l)*g2(l)/(2*(h^2 - b*(l)^2*g^2)) at the critical
    point l; the l = inf boundary value is sqrt(1-rho^2)."""
    if math.isinf(l):
        return math.sqrt((1.0 - rho) * (1.0 + rho))
    bv = b_star(l, rho)
    h, g, g2v, _, _ = _pq(l, rho)
    den = 2.0 * (h * h - bv * bv * g * g)
    if den <= 0.0:
        raise EvaluationDomainError(f"nonpositive wing factor at l={l}, rho={rho}")
    return -bv * g2v / den


def _critical_residual(l: float, b: float, rho: float) -> float:
    """Critical-point equation h*p - b^2*g*q in l: zero at the critical
    point of the sigma requirement at level b, and finite at the sweep
    endpoint l_bar(0, rho)."""
    h, g, _, p, q = _pq(l, rho)
    return h * p - b * b * g * q


def l_from_b(b: float, rho: float) -> float:
    """Invert b_star by bracket growth plus root finding on the
    critical-point equation h*p = b^2*g*q (finite at the sweep endpoint).

    Returns +inf when the bracket outgrows 1e8, which is the boundary
    b = 2/(1+rho) case for all practical purposes.
    """
    if not b > 0.0 or wing_slope(b, rho) == "beyond":
        raise EvaluationDomainError(f"b={b} outside (0, 2/(1+rho)) for rho={rho}")
    lbar = l_bar_zero(rho)
    if math.isinf(lbar):
        return math.inf

    def fn(l: float) -> float:
        return _critical_residual(l, b, rho)

    # the residual is g*q*(b_star(l)^2 - b^2) with g*q > 0 right of lbar
    hi = max(10.0, 2.0 * lbar)
    while fn(hi) <= 0.0:
        hi *= 2.0
        if hi > _L_MAX:
            return math.inf
    try:
        return brentq(fn, lbar, hi, xtol=1e-13, rtol=8.9e-16)
    except ValueError:
        # at the b -> 0 end the residual is -b^2*g*q analytically; the
        # opposite sign means that term is below the rounding of h*p, so
        # the end is the critical point to working precision
        h, g, _, p, q = _pq(lbar, rho)
        if (h * p - b * b * g * q) * (g * q) > 0.0:
            return lbar
        raise


def certify(p: SsviParams) -> DomainCertificate:
    """Certify an SSVI slice; negative rho routes through |rho| by the
    strike-inversion symmetry."""
    ar = abs(p.rho)
    slope = wing_slope(p.b, ar)
    diagnostics: dict[str, float | str] = {"uniqueness": "numerically sustained"}

    root = math.sqrt((1.0 - p.rho) * (1.0 + p.rho))
    if slope == "beyond":
        sstar = math.inf
    elif slope == "on":
        sstar = root
        diagnostics["argsup"] = math.inf
    else:
        # the requirement is stationary at the critical point, so its value
        # at the given b takes the root's error to second order
        l = l_from_b(p.b, ar)
        diagnostics["l"] = l
        if math.isinf(l):  # b this close to the slope bound: its limit
            sstar = root
        else:
            shape = NormalizedSvi(gamma=root, b=p.b, rho=ar, mu=-ar / root, sigma=1.0)
            sstar = sigma_floor(l, shape)
            diagnostics["critical_residual"] = _critical_residual(l, p.b, ar)

    return make_certificate(
        family="ssvi",
        conditions={"fukasawa": True},  # automatic for SSVI shapes
        bounds={
            "b_max": 2.0 / (1.0 + ar),
            "gj_sigma": gj_sigma_bound(p.b, p.rho),
            "subdomain_sigma": subdomain_bound(p.b, p.rho) if slope == "inside" else math.inf,
        },
        on_boundary=[],
        params_raw=p.to_raw(),
        params_native={"theta": p.theta, "phi": p.phi, "rho": p.rho},
        sigma_star=sstar,
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
def _h_x(x, rho: float):
    return 0.5 * (1.0 + np.sqrt((1.0 - x * x) / (1.0 - rho * rho)))


def _h_x_d1(x, rho: float):
    return -x / (2.0 * np.sqrt(1.0 - rho * rho) * np.sqrt(1.0 - x * x))


def _h_x_d2(x, rho: float):
    return -1.0 / (2.0 * np.sqrt(1.0 - rho * rho) * (1.0 - x * x) ** 1.5)


def _d2_j2_dx2(x, rho):
    """Second x-derivative of the curvature function (symbolic form)."""
    sx = np.sqrt(1.0 - x * x)
    rb = np.sqrt(1.0 - rho * rho)
    u = rho * x + rb * sx + 1.0
    pterm = rho + 3.0 * x * u + x
    w = (rho + x) ** 3 + 2.0 * (x * x - 1.0) * pterm * u
    v = rho * sx - x * rb
    qterm = 3.0 * x * v + sx * (3.0 * rho * x + 3.0 * rb * sx + 4.0)
    num = (
        x * w * u
        - 2.0 * sx * v * w
        + sx
        * u
        * (
            sx * (4.0 * x * pterm * u + 3.0 * (rho + x) ** 2)
            + 2.0 * (x * x - 1.0) * v * pterm
            + 2.0 * (x * x - 1.0) * qterm * u
        )
    )
    return num / (2.0 * sx**3 * u**3)


def second_derivatives_x(x, rho, b):
    """(d2 j2/dx2, d2 J1/dx2) at (x, rho) for wing level b; J1 = h^2 - b^2 g^2
    with g = (x + rho)/4 linear in x."""
    d2j2 = _d2_j2_dx2(np.asarray(x, dtype=np.float64), np.asarray(rho, dtype=np.float64))
    d2j1 = 2.0 * (
        _h_x_d1(x, rho) ** 2 + _h_x(x, rho) * _h_x_d2(x, rho) - np.asarray(b) ** 2 / 16.0
    )
    return d2j2, d2j1


def uniqueness_target(x, rho, b=None):
    """J1*d2(j2) - d2(J1)*j2; positivity on x > x_m2(1) at the extremal
    wing level b = 2/(1+rho) rules out interior maxima of the requirement."""
    x = np.asarray(x, dtype=np.float64)
    rho = np.asarray(rho, dtype=np.float64)
    bv = 2.0 / (1.0 + rho) if b is None else np.asarray(b, dtype=np.float64)
    g = (x + rho) / 4.0
    j1 = _h_x(x, rho) ** 2 - bv * bv * g * g
    sx = np.sqrt(1.0 - x * x)
    rb = np.sqrt(1.0 - rho * rho)
    j2v = sx**3 - (x + rho) ** 2 * sx / (2.0 * (1.0 + rho * x + rb * sx))
    d2j2, d2j1 = second_derivatives_x(x, rho, bv)
    return j1 * d2j2 - d2j1 * j2v


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

    Deterministic single-pass vectorized evaluation; the reduction equals
    the sequential scan bit for bit.
    """
    rho = np.linspace(0.0, 0.999, rho_steps)
    x = np.linspace(X_M2_RHO1, 0.999, x_steps)
    rv, xv = np.meshgrid(rho, x)
    vals = uniqueness_target(xv, rv)
    i = int(np.argmin(vals))
    ix, ir = np.unravel_index(i, vals.shape)
    return UniquenessReport(
        min_value=float(vals[ix, ir]),
        arg_rho=float(rv[ix, ir]),
        arg_x=float(xv[ix, ir]),
        negative_count=int(np.sum(vals < 0.0)),
        rho_steps=rho_steps,
        x_steps=x_steps,
    )
