"""Closed-form domain for the symmetric smile (rho = 0, m = 0).

``w(k) = a + b*sqrt(k^2 + sigma^2)`` with gamma = a/(b*sigma) > -1 and
0 < b <= 2.  The wing conditions reduce to gamma exceeding a closed-form
threshold F(b); its inverse G(gamma) caps the admissible b.

In the coordinate z = 1/sqrt(l^2+1) the sigma requirement has a unique
critical point z*(gamma, b) which sweeps, as b runs over (0, G(gamma)),
the interval between z*(gamma, 0) (the root of a sextic) and a closed-form
z*(gamma, G(gamma)).  Trading b for z gives the quasi-explicit boundary:
b*(z, gamma) from the critical-point equation and sigma*(z, gamma) as the
requirement value there.  The two interval endpoints collide at one
exceptional level gamma_hat where the critical point freezes at z_hat for
every admissible b, which gets a dedicated formula.
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
    _wing_slack,
    sigma_floor,
    wing_slope,
)
from .roots import brentq

__all__ = [
    "SymmetricParams",
    "GAMMA_HAT",
    "Z_HAT",
    "B_HAT_MAX",
    "fukasawa_threshold_closed",
    "g_tilde",
    "z2",
    "gamma_star",
    "j2",
    "eta",
    "b_star",
    "sigma_star_closed",
    "z_star_zero",
    "z_star_at_g_tilde",
    "z_interval",
    "z_from_b",
    "certify",
    "z_inflection",
    "j1_slope",
]

# Exceptional level where the critical point freezes for every b, and the
# frozen location itself.
GAMMA_HAT = -math.sqrt((9.0 + 5.0 * math.sqrt(3.0)) / 18.0)
Z_HAT = math.sqrt((3.0 - math.sqrt(3.0)) / 2.0)
B_HAT_MAX = 2.0 * math.sqrt(3.0 * math.sqrt(3.0) - 5.0)

_EDGE = 1e-12
_GAMMA_HAT_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class SymmetricParams:
    """Symmetric smile in native coordinates (gamma, b, sigma)."""

    gamma: float
    b: float
    sigma: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.gamma, self.b, self.sigma))):
            raise InvalidParamsError(f"non-finite parameters: {self}")
        if self.gamma <= -1.0:
            raise InvalidParamsError(f"gamma must be > -1, got {self.gamma}")
        if not self.b > 0.0 or wing_slope(self.b, 0.0) == "beyond":
            raise InvalidParamsError(f"b must lie in (0, 2], got {self.b}")
        if self.sigma <= 0.0:
            raise InvalidParamsError(f"sigma must be > 0, got {self.sigma}")

    def to_raw(self) -> RawSviParams:
        return RawSviParams(
            a=self.gamma * self.b * self.sigma,
            b=min(self.b, 2.0),
            rho=0.0,
            m=0.0,
            sigma=self.sigma,
        )


# ---------------------------------------------------------------------------
# Threshold and its inverse
# ---------------------------------------------------------------------------
def fukasawa_threshold_closed(b: float) -> float:
    """Closed-form wing threshold -(b^2+32)*sqrt(4-b^2)/(16-b^2)^(3/2)
    on b in [0, 2]; -1 at b = 0, and 0 where the slack 1 - b/2 is 0."""
    if not b >= 0.0 or wing_slope(b, 0.0) == "beyond":
        raise InvalidParamsError(f"b must lie in [0, 2], got {b}")
    b2 = 4.0 if _wing_slack(b, 0.0) == 0.0 else b * b
    return -(b2 + 32.0) * math.sqrt(4.0 - b2) / (16.0 - b2) ** 1.5


def g_tilde(gamma: float) -> float:
    """Inverse of the wing threshold, extended by 2 for gamma > 0.

    The gamma <= 0 branch comes from the trigonometric solution of the
    cubic hiding in the threshold equation.
    """
    if gamma <= -1.0:
        raise EvaluationDomainError(f"gamma must be > -1, got {gamma}")
    if gamma > 0.0:
        return 2.0
    g2v = gamma * gamma
    s = 8.0 * g2v + 1.0
    arg = -(8.0 * g2v * g2v + 20.0 * g2v - 1.0) / s**1.5
    arg = min(1.0, max(-1.0, arg))
    num = 6.0 * math.sqrt(s) * math.cos(math.acos(arg) / 3.0) - 4.0 * g2v - 5.0
    val = max(0.0, num) / (1.0 - g2v)
    return 2.0 * math.sqrt(val)


# ---------------------------------------------------------------------------
# Curvature zero z2 and related z-space functions
# ---------------------------------------------------------------------------
def _p1(z: float, gamma: float) -> float:
    return 2.0 * gamma * z**3 + 3.0 * z * z - 1.0


def z2(gamma: float) -> float:
    """The zero of the curvature numerator 2*gamma*z^3 + 3*z^2 - 1 in (0, 1).

    Four trigonometric/hyperbolic branches depending on gamma, each polished
    with two Newton steps to pin the residual at machine level.
    """
    if gamma <= -1.0:
        raise EvaluationDomainError(f"gamma must be > -1, got {gamma}")
    if abs(gamma) < 1e-7:
        z = 1.0 / math.sqrt(3.0) - gamma / 9.0
    elif gamma < 0.0:
        arg = min(1.0, max(-1.0, 1.0 - 2.0 * gamma * gamma))
        z = (
            -math.cos(math.acos(arg) / 3.0 - 2.0 * math.pi / 3.0) / gamma
            - 0.5 / gamma
        )
    elif gamma <= 1.0:
        arg = min(1.0, max(-1.0, 2.0 * gamma * gamma - 1.0))
        z = math.cos(math.acos(arg) / 3.0) / gamma - 0.5 / gamma
    else:
        z = math.cosh(math.acosh(2.0 * gamma * gamma - 1.0) / 3.0) / gamma - 0.5 / gamma
    for _ in range(2):
        d = 6.0 * gamma * z * z + 6.0 * z
        if d == 0.0:
            break
        z -= _p1(z, gamma) / d
    return z


# j2, eta, _p_num and _q_num take a scalar z as a 0-d array, whose powers
# numpy may round apart from Python's, so their values stay numpy's: they
# import it when called.
def j2(z, gamma: float):
    """Curvature function z*(2*gamma*z^3 + 3*z^2 - 1)/(2*(gamma*z + 1))."""
    import numpy as np

    z = np.asarray(z, dtype=np.float64)
    val = z * (2.0 * gamma * z**3 + 3.0 * z * z - 1.0) / (2.0 * (gamma * z + 1.0))
    return float(val) if np.ndim(val) == 0 else val


def eta(z, gamma: float):
    """Wing-factor function 1 - (1 - z^2)/(2*(1 + gamma*z))."""
    import numpy as np

    z = np.asarray(z, dtype=np.float64)
    val = 1.0 - (1.0 - z * z) / (2.0 * (1.0 + gamma * z))
    return float(val) if np.ndim(val) == 0 else val


def _p_num(z, gamma: float):
    """Numerator of the b -> 0 critical-point function (positive factor
    4*(gamma*z+1)^3 removed)."""
    import numpy as np

    z = np.asarray(z, dtype=np.float64)
    g = gamma
    val = (
        2.0 * g * g * z**6
        + 12.0 * g**3 * z**5
        + 3.0 * z**4 * (10.0 * g * g - 1.0)
        + 28.0 * g * z**3
        + 12.0 * z * z
        - 1.0
    )
    return float(val) if np.ndim(val) == 0 else val


def _q_num(z, gamma: float):
    """Numerator of the companion critical-point function (positive factor
    8*sqrt(1-z^2)*(gamma*z+1)^2 removed)."""
    import numpy as np

    z = np.asarray(z, dtype=np.float64)
    g = gamma
    val = -(
        2.0 * z**4 * g * g * (z * z - 3.0)
        + 4.0 * z**3 * g * (z * z - 3.0)
        + 3.0 * z**4
        - 8.0 * z * z
        + 1.0
    )
    return float(val) if np.ndim(val) == 0 else val


# ---------------------------------------------------------------------------
# Reparametrization: u -> gamma and z -> b
# ---------------------------------------------------------------------------
def gamma_star(u: float, branch: int = 1) -> float:
    """Level gamma whose b -> 0 critical point sits at z = u/gamma.

    The critical-point equation is a quadratic in gamma^2 with roots
    u^2*(6u^3 + 15u^2 + 14u + 6 +- (1+u)^2*sqrt(3*(12u^2 + 12u + 11))), and
    gamma is u times the square root of one of them.  ``branch=1`` takes the
    admissible root: gamma*(u) has the sign of u and spans (-1, inf) as u
    runs over (-1, inf).  ``branch=-1`` takes the other root, and is NaN
    where that root is negative.
    """
    if u <= -1.0:
        raise EvaluationDomainError(f"u must be > -1, got {u}")
    inner = (
        6.0 * u**3
        + 15.0 * u * u
        + 14.0 * u
        + 6.0
        + branch * (1.0 + u) ** 2 * math.sqrt(3.0 * (12.0 * u * u + 12.0 * u + 11.0))
    )
    return u * math.sqrt(inner) if inner >= 0.0 else math.nan


def z_star_zero(gamma: float) -> float:
    """Critical point of the sigma requirement in the b -> 0 limit: the
    only root of the sextic _p_num in (0, z2(gamma)), by one brentq on
    [1e-12, z2 - 1e-12].  p_num(0) = -1 < 0 and p_num > 0 at z2, but next to
    gamma = -1 the rounding of z2 can leave p_num <= 0 at the right end: a
    zero there is the root, and otherwise EvaluationDomainError is raised,
    as it is where gamma^3 overflows (gamma above about 5.6e102)."""
    try:
        return brentq(lambda z: _p_num(z, gamma), _EDGE, z2(gamma) - _EDGE, xtol=1e-15)
    except (ValueError, OverflowError) as exc:
        raise EvaluationDomainError(f"no critical-point root for gamma={gamma}") from exc


def z_star_at_g_tilde(gamma: float) -> float:
    """Critical point at the largest admissible b:
    sqrt((4-G^2)*(16-G^2))/(G^2+8) with G = g_tilde(gamma)."""
    gt = g_tilde(gamma)
    g2v = gt * gt
    rad = (4.0 - g2v) * (16.0 - g2v)
    if rad < 0.0:  # G in (2, 4): g_tilde lost its digits next to gamma = -1
        raise EvaluationDomainError(
            f"(4 - G^2)*(16 - G^2) < 0 at gamma={gamma}, G=g_tilde(gamma)={gt}"
        )
    return math.sqrt(rad) / (g2v + 8.0)


def z_interval(gamma: float) -> tuple[float, float]:
    """Endpoints (z at b -> 0, z at b -> G(gamma)) of the critical-point
    sweep; ordered by role, not by size."""
    return z_star_zero(gamma), z_star_at_g_tilde(gamma)


def b_star(z: float, gamma: float) -> float:
    """Curvature level whose sigma requirement is critical at z.

    From the critical-point identity eta*p = b^2*(sqrt(1-z^2)/4)*q; defined
    where p and q have the same sign, i.e. on the critical-point sweep.
    """
    pn = _p_num(z, gamma)
    qn = _q_num(z, gamma)
    if pn * qn <= 0.0:
        raise EvaluationDomainError(
            f"z={z} outside the critical-point region for gamma={gamma}"
        )
    val = 8.0 * eta(z, gamma) * pn / ((gamma * z + 1.0) * qn)
    if val < 0.0:
        raise EvaluationDomainError(f"negative b*^2 at z={z}, gamma={gamma}")
    return math.sqrt(val)


def sigma_star_closed(z: float, gamma: float, b: float | None = None) -> float:
    """Sigma threshold -b*j2(z)/(2*(eta^2 - b^2*(1-z^2)/16)) at the critical
    point z; b defaults to b_star(z, gamma)."""
    bv = b_star(z, gamma) if b is None else b
    num = -bv * j2(z, gamma)
    den = 2.0 * (eta(z, gamma) ** 2 - bv * bv * (1.0 - z * z) / 16.0)
    if den <= 0.0:
        raise EvaluationDomainError(
            f"nonpositive wing factor in sigma* at z={z}, gamma={gamma}"
        )
    return num / den


def _critical_residual(z: float, b: float, gamma: float) -> float:
    """Critical-point equation 8*eta*p - b^2*(gamma*z + 1)*q in z: zero at
    the critical point of the sigma requirement at level b, and finite at
    both ends of the sweep."""
    return 8.0 * eta(z, gamma) * _p_num(z, gamma) - b * b * (
        gamma * z + 1.0
    ) * _q_num(z, gamma)


def z_from_b(b: float, gamma: float) -> float:
    """Invert b_star over the critical-point sweep.

    b_star is strictly monotone between the endpoints (0 at z_star_zero,
    g_tilde(gamma) at z_star_at_g_tilde), in either orientation.  The root
    search runs on the critical-point equation 8*eta*p = b^2*(gamma*z+1)*q
    itself, which stays finite at the endpoints where b_star degenerates.
    At the exceptional level GAMMA_HAT the sweep collapses to Z_HAT, the
    critical point for every b.
    """
    if abs(gamma - GAMMA_HAT) <= _GAMMA_HAT_TOL:
        return Z_HAT
    za, zb = z_interval(gamma)
    lo, hi = (za, zb) if za < zb else (zb, za)

    def fn(z: float) -> float:
        return _critical_residual(z, b, gamma)

    try:
        return brentq(fn, lo, hi, xtol=1e-15)
    except ValueError as exc:  # a polynomial on (0, 1): the ends share a sign
        # at the b -> 0 end the residual is -b^2*(gamma*z + 1)*q analytically;
        # the opposite sign means that term is below the rounding of 8*eta*p,
        # so the end is the critical point to working precision
        if fn(za) * (gamma * za + 1.0) * _q_num(za, gamma) > 0.0:
            return za
        raise EvaluationDomainError(
            f"b={b} not bracketed on the critical-point sweep for gamma={gamma}"
        ) from exc


def certify(p: SymmetricParams) -> DomainCertificate:
    """Certify a symmetric smile against its quasi-explicit domain."""
    threshold = fukasawa_threshold_closed(p.b)
    fukasawa_ok = p.gamma > threshold
    on_boundary = ["fukasawa"] if abs(p.gamma - threshold) <= BOUNDARY_TOL else []
    diagnostics: dict[str, float | str] = {}

    if not fukasawa_ok:
        sstar = math.inf
    elif _wing_slack(p.b, 0.0) == 0.0:
        # b = 2: the requirement is attained only in the k -> +inf limit
        sstar = 1.0 / p.gamma
        diagnostics["argsup"] = math.inf
    else:
        # the requirement is stationary at the critical point, so its
        # value at the given b takes the root's error to second order
        z = z_from_b(p.b, p.gamma)
        if z == 0.0:  # z* is about c/gamma: not the b = 2 limit
            raise EvaluationDomainError(f"critical point z* underflows at gamma={p.gamma}")
        shape = NormalizedSvi(gamma=p.gamma, b=p.b, rho=0.0, mu=0.0, sigma=1.0)
        sstar = sigma_floor(math.sqrt((1.0 - z) * (1.0 + z)) / z, shape)
        diagnostics["z"] = z
        diagnostics["critical_residual"] = _critical_residual(z, p.b, p.gamma)

    return make_certificate(
        family="symmetric",
        conditions={"fukasawa": fukasawa_ok},
        bounds={
            "gamma_threshold": threshold,
            "b_max": g_tilde(p.gamma),
        },
        on_boundary=on_boundary,
        params_raw=p.to_raw(),
        params_native={"gamma": p.gamma, "b": p.b, "sigma": p.sigma},
        sigma_star=sstar,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Diagnostics (exposed for tables; no role in certification)
# ---------------------------------------------------------------------------
def z_inflection(gamma: float) -> float:
    """Inflection of the curvature function for gamma < 0: root of
    6g^3 z^4 + 19g^2 z^3 + 21g z^2 + 9z + g in (0, 1)."""
    if gamma >= 0.0:
        raise EvaluationDomainError("curvature inflection exists only for gamma < 0")

    def p3(z: float) -> float:
        g = gamma
        return 6.0 * g**3 * z**4 + 19.0 * g * g * z**3 + 21.0 * g * z * z + 9.0 * z + g

    return brentq(p3, _EDGE, 1.0 - _EDGE, xtol=1e-15)


def j1_slope(z: float, gamma: float, b: float) -> float:
    """z-derivative of the wing function eta^2 - b^2*(1-z^2)/16."""
    g = gamma
    b2 = b * b
    num = (
        g * z**4 * (b2 * g * g + 4.0)
        + z**3 * (3.0 * b2 * g * g + 8.0 * g * g + 8.0)
        + 3.0 * g * z * z * (b2 + 8.0)
        + z * (b2 + 8.0 * g * g + 8.0)
        + 4.0 * g
    )
    return num / (8.0 * (g * z + 1.0) ** 3)
