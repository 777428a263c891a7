"""Closed-form domain for the extremal decorrelated smile (b = 2, rho = 0).

With mu = q*gamma and q in (-1, 1) the wing conditions hold exactly on the
unit q-box, and the sigma requirement is attained in the limit on the wing
matching the sign of q, where it equals 1/(gamma*(1 - |q|)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .certificates import DomainCertificate, make_certificate
from .core import InvalidParamsError, RawSviParams

__all__ = ["ExtremalParams", "sigma_bound", "certify"]


@dataclass(frozen=True, slots=True)
class ExtremalParams:
    """Decorrelated smile with b = 2 in native coordinates (gamma, q, sigma),
    i.e. w(k) = 2*sigma*(gamma + sqrt((k/sigma - q*gamma)^2 + 1))."""

    gamma: float
    q: float
    sigma: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.gamma, self.q, self.sigma))):
            raise InvalidParamsError(f"non-finite parameters: {self}")
        if self.gamma <= 0.0:
            raise InvalidParamsError(f"gamma must be > 0, got {self.gamma}")
        if not abs(self.q) < 1.0:
            raise InvalidParamsError(f"|q| must be < 1, got {self.q}")
        if self.sigma <= 0.0:
            raise InvalidParamsError(f"sigma must be > 0, got {self.sigma}")

    @property
    def mu(self) -> float:
        return self.q * self.gamma

    def to_raw(self) -> RawSviParams:
        return RawSviParams(
            a=2.0 * self.sigma * self.gamma,
            b=2.0,
            rho=0.0,
            m=self.mu * self.sigma,
            sigma=self.sigma,
        )


def sigma_bound(gamma: float, q: float) -> float:
    """Minimal arbitrage-free sigma, 1/(gamma*(1 - |q|))."""
    if gamma <= 0.0 or not abs(q) < 1.0:
        raise InvalidParamsError(f"need gamma > 0 and |q| < 1, got {gamma}, {q}")
    return 1.0 / (gamma * (1.0 - abs(q)))


def certify(p: ExtremalParams) -> DomainCertificate:
    """Certify an extremal decorrelated smile; the sigma inequality is
    non-strict, so the boundary passes."""
    return make_certificate(
        family="extremal",
        conditions={"fukasawa": True},  # |q| < 1 is the admissible interval
        bounds={"mu_lower": -p.gamma, "mu_upper": p.gamma},
        on_boundary=[],
        params_raw=p.to_raw(),
        params_native={"gamma": p.gamma, "q": p.q, "sigma": p.sigma},
        sigma_star=sigma_bound(p.gamma, p.q),
        diagnostics={"argsup": math.inf if p.q >= 0.0 else -math.inf},
    )
