"""Verdict objects emitted by the family certifiers.

A certificate records one boolean per no-arbitrage condition together with
the computed bounds and diagnostics; the overall verdict is always the AND
of the individual conditions.  Values sitting within tolerance of a bound
are additionally flagged as on-boundary so callers can tell a comfortable
pass from a marginal one.
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
    passed: bool
    conditions: dict[str, bool]
    bounds: dict[str, float]
    on_boundary: tuple[str, ...]
    params_raw: RawSviParams
    params_native: dict[str, float | str]
    diagnostics: dict[str, float | str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready representation (infinities become strings)."""
        raw = self.params_raw
        return {
            "family": self.family,
            "passed": self.passed,
            "verdict": "arbitrage_free" if self.passed else "arbitrage",
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
    conditions: dict[str, bool],
    bounds: dict[str, float],
    on_boundary: list[str],
    params_raw: RawSviParams,
    params_native: dict,
    sigma_star: float,
    diagnostics: dict | None = None,
) -> DomainCertificate:
    """Assemble a certificate from the family's own conditions and bounds.

    The rules every family shares live here, read from ``params_raw``.
    First the ``roger_lee`` condition: the steeper wing's slope
    b*(1 + |rho|) is not beyond 2, and ``"roger_lee"`` is flagged
    on-boundary within ``BOUNDARY_TOL`` of it (``core.wing_slope``).  Last
    the ``sigma_bound`` condition, ``sigma >= sigma_star - BOUNDARY_TOL``
    (non-strict, so the boundary passes; an infinite ``sigma_star`` marks
    arbitrage no sigma can repair),
    flagged on-boundary within ``BOUNDARY_TOL`` of a finite ``sigma_star``,
    which ``bounds["sigma_star"]`` records.

    Raises EvaluationDomainError for a ``sigma_star`` that is not positive
    (NaN included): the requirement -b*g2/(2*G1) is positive wherever it
    binds, so such a value is a failed evaluation, not a verdict.
    """
    if not sigma_star > 0.0:
        raise EvaluationDomainError(f"{family} sigma* = {sigma_star} is not positive")
    slope = wing_slope(params_raw.b, abs(params_raw.rho))
    sigma = params_raw.sigma
    conditions = {
        "roger_lee": slope != "beyond",
        **conditions,
        "sigma_bound": sigma >= sigma_star - BOUNDARY_TOL,
    }
    on_boundary = (["roger_lee"] if slope == "on" else []) + on_boundary
    if math.isfinite(sigma_star) and abs(sigma - sigma_star) <= BOUNDARY_TOL:
        on_boundary.append("sigma_bound")
    return DomainCertificate(
        family=family,
        passed=all(conditions.values()),
        conditions=conditions,
        bounds={"sigma_star": sigma_star, **bounds},
        on_boundary=tuple(on_boundary),
        params_raw=params_raw,
        params_native=params_native,
        diagnostics=diagnostics or {},
    )
