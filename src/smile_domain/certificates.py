"""Verdict objects emitted by the family certifiers.

A certificate records one boolean per no-arbitrage condition together with
the computed bounds and diagnostics; the verdict ``passed`` is derived as
the AND of the conditions, so it cannot disagree with them.  Values sitting
within tolerance of a bound are additionally flagged as on-boundary so
callers can tell a comfortable pass from a marginal one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import BOUNDARY_TOL, EvaluationDomainError, RawSviParams, wing_slope

__all__ = ["DomainCertificate", "json_value", "make_certificate"]


def json_value(v):
    """v as strict JSON takes it: infinities become "inf" and "-inf"."""
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


@dataclass(frozen=True)
class DomainCertificate:
    family: str
    conditions: dict[str, bool]
    bounds: dict[str, float]
    on_boundary: tuple[str, ...]
    params_raw: RawSviParams
    params_native: dict[str, float | str]
    diagnostics: dict[str, float | str] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """The verdict: every condition holds."""
        return all(self.conditions.values())

    def to_dict(self) -> dict:
        """JSON-ready representation (infinities become strings)."""
        raw = self.params_raw
        passed = self.passed
        return {
            "family": self.family,
            "passed": passed,
            "verdict": "arbitrage_free" if passed else "arbitrage",
            "conditions": dict(self.conditions),
            "bounds": {k: json_value(v) for k, v in self.bounds.items()},
            "on_boundary": list(self.on_boundary),
            "params": {
                "raw": {
                    "a": raw.a,
                    "b": raw.b,
                    "rho": raw.rho,
                    "m": raw.m,
                    "sigma": raw.sigma,
                },
                "native": {k: json_value(v) for k, v in self.params_native.items()},
            },
            "diagnostics": {k: json_value(v) for k, v in self.diagnostics.items()},
        }


def make_certificate(
    family: str,
    params,
    sigma_star: float,
    bounds: dict[str, float],
    diagnostics: dict[str, float | str],
    fukasawa_margin: float = math.inf,
) -> DomainCertificate:
    """Assemble the certificate of ``params``, a family's slotted parameter
    dataclass: ``params_raw`` is ``params.to_raw()``, ``params_native`` its
    fields in order (``__slots__``), and the verdict the AND of three
    conditions, in order.  ``roger_lee``: the steeper wing's slope
    b*(1 + |rho|) is not beyond 2 (``core.wing_slope``).  ``fukasawa``: the
    wing conditions, ``fukasawa_margin > 0``, the family's distance to its
    strict bound (infinite where its shapes meet them by construction).
    ``sigma_bound``: ``sigma >= sigma_star - BOUNDARY_TOL``, so the boundary
    passes and an infinite ``sigma_star`` marks arbitrage no sigma repairs.
    Each is flagged on-boundary within ``BOUNDARY_TOL`` of its bound: the
    slope 2, a margin of 0, a finite ``sigma_star``.

    Raises EvaluationDomainError for a ``sigma_star`` that is not positive
    (NaN included): the requirement -b*g2/(2*G1) is positive wherever it
    binds, so such a value is a failed evaluation, not a verdict.
    """
    raw = params.to_raw()
    if not sigma_star > 0.0:
        raise EvaluationDomainError(f"{family} sigma* = {sigma_star} is not positive")
    slope = wing_slope(raw.b, abs(raw.rho))
    sigma = raw.sigma
    conditions = {
        "roger_lee": slope != "beyond",
        "fukasawa": fukasawa_margin > 0.0,
        "sigma_bound": sigma >= sigma_star - BOUNDARY_TOL,
    }
    on_boundary = ["roger_lee"] if slope == "on" else []
    if abs(fukasawa_margin) <= BOUNDARY_TOL:
        on_boundary.append("fukasawa")
    if math.isfinite(sigma_star) and abs(sigma - sigma_star) <= BOUNDARY_TOL:
        on_boundary.append("sigma_bound")
    return DomainCertificate(
        family=family,
        conditions=conditions,
        bounds={"sigma_star": sigma_star, **bounds},
        on_boundary=tuple(on_boundary),
        params_raw=raw,
        params_native={name: getattr(params, name) for name in params.__slots__},
        diagnostics=diagnostics,
    )
