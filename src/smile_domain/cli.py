"""Command-line surface: certify parameters, print sigma* bounds, sample
arbitrage-free smiles, emit boundary/comparison tables as CSV, and run the
critical-point uniqueness scan.

stdout carries data (JSON or CSV), stderr carries logs.  Exit codes for
``certify``: 0 = arbitrage-free, 1 = arbitrage, 2 = invalid input, 3 = a
solver or closed form failed on a valid input, and a parameter option the
family does not read is an invalid input; ``bound`` exits 0, with an
infinite sigma* on arbitrage, or 2 and 3 as ``certify`` does; ``sample``
exits 0, 1 when a sample fails its certificate, or 2 and 3 as ``certify``
does, and a reversed range or one outside its sampler's domain is an
invalid input, and so is a negative ``--count``; ``scan-uniqueness`` exits 0
when the scan finds uniqueness, 1 when it does not, and 2 for a step count
below 1.
Identical invocations (including --seed) produce byte-identical output.
numpy is imported only where an array is built: by ``sample``,
``scan-uniqueness``, ``--oracle``, the symmetric family's ``certify`` and
``bound``, and the tables ``ssvi-n-curves``, ``symmetric-zstar`` and
``symmetric-zstar-wide``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import extremal, ssvi, symmetric, vanishing
from .certificates import DomainCertificate, json_value
from .core import (
    FukasawaViolation,
    InvalidParamsError,
    RawSviParams,
    RogerLeeViolation,
    SmileDomainError,
)
from .extremal import ExtremalParams
from .oracle import durrleman_check, sigma_star
from .ssvi import SsviParams
from .symmetric import SymmetricParams
from .vanishing import VanishingParams

if TYPE_CHECKING:
    import numpy as np

SCHEMA = "smile-domain/1"


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True))


def _error_doc(kind: str, message: str) -> dict:
    return {"schema": SCHEMA, "error": {"type": kind, "message": message}}


# what a solver or a closed form raises when it fails on a valid input
_SOLVER_ERRORS = (SmileDomainError, ValueError, RuntimeError, ArithmeticError)


def _failure(exc: Exception) -> int:
    """Emit the error document of exc; exit code 2 for an invalid input,
    3 for a solver failure on a valid one."""
    if isinstance(exc, InvalidParamsError):
        _emit(_error_doc("invalid_params", str(exc)))
        return 2
    _emit(_error_doc("solver_failure", str(exc)))
    return 3


# ---------------------------------------------------------------------------
# Parameter parsing: a family's routes, each the options it reads (all
# required) and how it builds the family's parameters from them
# ---------------------------------------------------------------------------
PARAM_OPTIONS = ("a", "b", "rho", "m", "sigma", "mu", "gamma", "q", "theta", "phi")


def _vanishing_routes(direction: str):
    return (
        (("b", "mu", "sigma"), lambda b, mu, sigma: VanishingParams(b, mu, sigma, direction)),
        (("b", "m", "sigma"), lambda b, m, sigma: VanishingParams(b, m / sigma, sigma, direction)),
    )


def _extremal_from_raw(a: float, m: float, sigma: float) -> ExtremalParams:
    gamma = a / (2.0 * sigma)
    if gamma <= 0.0:
        raise InvalidParamsError(f"a={a} implies gamma <= 0")
    return ExtremalParams(gamma=gamma, q=m / (sigma * gamma), sigma=sigma)


_EXTREMAL_ROUTES = (
    (("gamma", "q", "sigma"), ExtremalParams),
    (("a", "m", "sigma"), _extremal_from_raw),
)
_SYMMETRIC_ROUTES = (
    (("gamma", "b", "sigma"), SymmetricParams),
    (("a", "b", "sigma"), lambda a, b, sigma: SymmetricParams(a / (b * sigma), b, sigma)),
)
_SSVI_ROUTES = (
    (("theta", "phi", "rho"), SsviParams),
    # b = theta*phi/2
    (("b", "phi", "rho"), lambda b, phi, rho: SsviParams(2.0 * b / phi, phi, rho)),
    (("a", "b", "rho", "m", "sigma"), lambda *raw: SsviParams.from_raw(RawSviParams(*raw))),
)


# ---------------------------------------------------------------------------
# The family table, with each family's sampler (a constructive
# parametrization that scales its sigma* by the drawn scale >= 1)
# ---------------------------------------------------------------------------
def _ssvi_bounds(b: float, rho: float) -> dict[str, float]:
    """Bounds of the SSVI slice with slope b and correlation rho; phi = 1
    keeps its b equal to the given one bit for bit."""
    return ssvi.certify(SsviParams(theta=2.0 * b, phi=1.0, rho=rho)).bounds


def _draw(rng, pair, name: str, lo: float, hi: float = math.inf, ends: str = "()") -> float:
    """A uniform draw from the range option --name; InvalidParamsError
    unless its ends are in order and lie in the sampler's domain from lo to
    hi, open or closed at each end as ``ends`` reads ("(]": closed at hi)."""
    low, high = pair
    if low > high:
        raise InvalidParamsError(f"--{name} {low!r} {high!r} is reversed")
    low_in = lo < low or (ends[0] == "[" and low == lo)
    high_in = high < hi or (ends[1] == "]" and high == hi)
    if not (low_in and high_in):
        domain = f"{ends[0]}{lo}, {hi}{ends[1]}"
        raise InvalidParamsError(f"--{name} {low!r} {high!r} must lie in {domain}")
    return rng.uniform(low, high)


def _sample_vanishing(args, rng, scale: float, direction: str) -> VanishingParams:
    b = _draw(rng, args.b_range, "b-range", 0.0, 1.0)
    x0 = vanishing.x_plus_star(b)
    x = x0 + _draw(rng, args.u_range or (0.05, 0.95), "u-range", 0.0, 1.0) * (1.0 - x0)
    mu_up = vanishing.mu_star(x, b)
    mu = mu_up if direction == "upward" else -mu_up
    sig = scale * vanishing.sigma_star_closed(x, b)
    return VanishingParams(b=b, mu=mu, sigma=sig, direction=direction)


def _sample_extremal(args, rng, scale: float) -> ExtremalParams:
    gamma = _draw(rng, args.gamma_range, "gamma-range", 0.0)
    q = _draw(rng, args.q_range, "q-range", -1.0, 1.0)
    return ExtremalParams(gamma=gamma, q=q, sigma=scale * extremal.sigma_bound(gamma, q))


def _sample_symmetric(args, rng, scale: float) -> SymmetricParams:
    gamma = symmetric.gamma_star(_draw(rng, args.u_range or (-0.9, 3.0), "u-range", -1.0))
    za, zb = symmetric.z_interval(gamma)
    z = za + _draw(rng, args.t_range, "t-range", 0.0, 1.0) * (zb - za)
    b = symmetric.b_star(z, gamma)
    sig = scale * symmetric.sigma_star_closed(z, gamma)
    return SymmetricParams(gamma=gamma, b=b, sigma=sig)


def _sample_ssvi(args, rng, scale: float) -> SsviParams:
    rho = _draw(rng, args.rho_range, "rho-range", -1.0, 1.0)
    b = _draw(rng, args.t_range, "t-range", 0.0, 1.0, ends="(]") * 2.0 / (1.0 + abs(rho))
    sig = scale * _ssvi_bounds(b, rho)["sigma_star"]
    phi = math.sqrt((1.0 - rho) * (1.0 + rho)) / sig
    return SsviParams(theta=2.0 * b / phi, phi=phi, rho=rho)


@dataclass(frozen=True, slots=True)
class Family:
    """What the commands need of one family: its option routes, its
    certifier, the normalized shape (gamma, b, rho, mu) that
    ``oracle.sigma_star`` takes, and its sampler."""

    routes: tuple[tuple[tuple[str, ...], Callable[..., object]], ...]
    certify: Callable[[object], DomainCertificate]
    shape: Callable[[object], tuple[float, float, float, float]]
    sample: Callable[[argparse.Namespace, np.random.Generator, float], object]


def _vanishing(direction: str) -> Family:
    return Family(
        _vanishing_routes(direction),
        vanishing.certify,
        lambda p: (0.0, p.b, p.rho, p.mu),
        lambda args, rng, scale: _sample_vanishing(args, rng, scale, direction),
    )


FAMILIES = {
    "vanishing-up": _vanishing("upward"),
    "vanishing-down": _vanishing("downward"),
    "extremal": Family(
        _EXTREMAL_ROUTES,
        extremal.certify,
        lambda p: (p.gamma, 2.0, 0.0, p.mu),
        _sample_extremal,
    ),
    "symmetric": Family(
        _SYMMETRIC_ROUTES,
        symmetric.certify,
        lambda p: (p.gamma, p.b, 0.0, 0.0),
        _sample_symmetric,
    ),
    "ssvi": Family(
        _SSVI_ROUTES,
        ssvi.certify,
        lambda p: (p.gamma, p.b, p.rho, p.mu),
        _sample_ssvi,
    ),
}


def _flags(names) -> str:
    return " ".join(f"--{n}" for n in names)


def _params(args, defaults: dict[str, float] | None = None):
    """The family's parameters, built by the first route that has all its
    options and reads every option passed; ``defaults`` fills options left
    out.  An option passed but not read is an invalid input, and so is a
    raw coordinate divided by a zero scale."""
    routes = FAMILIES[args.family].routes
    passed = {n: v for n in PARAM_OPTIONS if (v := getattr(args, n)) is not None}
    given = {**(defaults or {}), **passed}
    complete = [(names, build) for names, build in routes if given.keys() >= set(names)]
    if not complete:
        alternatives = " or ".join(_flags(names) for names, _ in routes)
        raise InvalidParamsError(f"{args.family} needs {alternatives}")
    for names, build in complete:
        if passed.keys() <= set(names):
            try:
                return build(*(given[n] for n in names))
            except ArithmeticError as exc:
                raise InvalidParamsError(str(exc)) from exc
    names = complete[0][0]
    unread = _flags(n for n in passed if n not in names)
    raise InvalidParamsError(f"{args.family} does not read {unread} with {_flags(names)}")


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------
def cmd_certify(args) -> int:
    try:
        cert = FAMILIES[args.family].certify(_params(args))
        doc = cert.to_dict()
        doc["schema"] = SCHEMA
        if args.oracle:
            report = durrleman_check(cert.params_raw)
            doc["diagnostics"]["oracle_min"] = report.min_value
            doc["diagnostics"]["oracle_argmin_l"] = json_value(report.argmin_l)
            doc["diagnostics"]["oracle_grid_points"] = report.n_points
    except _SOLVER_ERRORS as exc:
        return _failure(exc)
    _emit(doc)
    return 0 if cert.passed else 1


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------
def cmd_bound(args) -> int:
    fam = FAMILIES[args.family]
    try:
        # sigma* depends on the shape only, so a scale left out is 1
        p = _params(args, {"sigma": 1.0, "phi": 1.0})
        closed = fam.certify(p).bounds["sigma_star"]
        doc = {"sigma_star": closed}
        if args.oracle:
            try:
                res = sigma_star(*fam.shape(p))
                other, doc["oracle_side"] = res.sigma_star, res.side
            except (FukasawaViolation, RogerLeeViolation):  # arbitrage: no sigma*
                other, doc["oracle_side"] = math.inf, None
            doc["sigma_star_oracle"] = other
            if math.isinf(closed) or math.isinf(other):  # agree on arbitrage or not
                doc["relative_gap"] = 0.0 if closed == other else math.inf
            else:
                doc["relative_gap"] = abs(other - closed) / max(abs(closed), 1e-300)
    except _SOLVER_ERRORS as exc:
        return _failure(exc)
    if args.json:
        doc = {k: json_value(v) for k, v in doc.items()}
        _emit({"schema": SCHEMA, "family": args.family, **doc})
    else:
        for key in ("sigma_star", "sigma_star_oracle", "relative_gap"):
            if key in doc:
                print(f"{key} = {doc[key]!r}")
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------
def cmd_sample(args) -> int:
    if args.count < 0:
        return _failure(InvalidParamsError(f"--count must be >= 0, got {args.count}"))
    import numpy as np

    fam = FAMILIES[args.family]
    rng = np.random.default_rng(args.seed)
    samples = []
    try:
        for _ in range(args.count):
            p = fam.sample(args, rng, _draw(rng, args.scale_range, "scale-range", 1.0, ends="[)"))
            cert = fam.certify(p)
            if not cert.passed:
                print(f"sample failed certification: {p}", file=sys.stderr)
                return 1
            d = cert.to_dict()
            samples.append({"raw": d["params"]["raw"], "native": d["params"]["native"]})
    except _SOLVER_ERRORS as exc:
        return _failure(exc)
    _emit(
        {
            "schema": SCHEMA,
            "family": args.family,
            "seed": args.seed,
            "count": args.count,
            "samples": samples,
        }
    )
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------
def _linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num) for num >= 2, by its arithmetic:
    i*step + start, and stop itself last."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


def _rows_vanishing_domains():
    yield ["b", "subdomain_sigma", "sigma_star_at_mu_zero", "sigma_star_mid", "sigma_star_x099"]
    for b in (i / 20.0 for i in range(1, 20)):
        x_zero = vanishing.x_from_mu(0.0, b)
        x_mid = 0.5 * (x_zero + 0.99)
        yield [
            b,
            vanishing.subdomain_bound(b),
            vanishing.sigma_star_closed(x_zero, b),
            vanishing.sigma_star_closed(x_mid, b),
            vanishing.sigma_star_closed(0.99, b),
        ]


def _rows_symmetric_zstar(gamma_hi: float, n: int):
    yield ["gamma", "z_at_b0", "z_at_bmax"]
    for g in _linspace(-0.9999, gamma_hi, n):
        yield [g, symmetric.z_star_zero(g), symmetric.z_star_at_g_tilde(g)]


def _rows_symmetric_j1prime():
    yield ["gamma", "z_inflection", "j1_slope_at_b2"]
    for g in _linspace(-0.999, -0.001, 100):
        zi = symmetric.z_inflection(g)
        yield [g, zi, symmetric.j1_slope(zi, g, 2.0)]


def _rows_gamma_admissibility():
    yield ["u", "ratio_gamma_plus", "ratio_gamma_minus"]
    for u in _linspace(-0.98, -0.02, 60) + _linspace(0.02, 3.0, 60):
        gp = symmetric.gamma_star(u)
        gm = symmetric.gamma_star(u, branch=-1)  # NaN where it does not exist
        rm = gm * symmetric.z2(gm) / u if u < 0.0 and gm > -1.0 else ""
        yield [u, gp * symmetric.z2(gp) / u, rm]


def _rows_ssvi_n_curves():
    import numpy as np

    rhos = (0.0, 0.25, 0.5, 0.75, 0.999)
    yield ["x"] + [f"n_rho_{r}" for r in rhos]
    xs = np.linspace(ssvi.X_M2_RHO1, 0.999, 200)
    cols = [ssvi.uniqueness_target(xs, r) for r in rhos]
    for i, x in enumerate(xs):
        yield [float(x)] + [float(c[i]) for c in cols]


def _ssvi_bound_rows(rho: float, b: float):
    bounds = _ssvi_bounds(b, rho)
    return [bounds["gj_sigma"], bounds["subdomain_sigma"], bounds["sigma_star"]]


def _rows_ssvi_gj_vs_b():
    yield ["rho", "b", "gj_sigma", "subdomain_sigma", "sigma_star"]
    for rho in (0.3, 0.7):
        bmax = 2.0 / (1.0 + rho)
        for b in _linspace(0.05, bmax - 0.05, 40):
            yield [rho, b] + _ssvi_bound_rows(rho, b)


def _rows_ssvi_gj_vs_rho():
    yield ["b", "rho", "gj_sigma", "subdomain_sigma", "sigma_star"]
    for b in (1.0, 1.5):
        rho_max = min(0.99, 2.0 / b - 1.0)
        for rho in _linspace(0.01, rho_max - 0.01, 40):
            yield [b, rho] + _ssvi_bound_rows(rho, b)


TABLES = {
    "vanishing-domains": _rows_vanishing_domains,
    "symmetric-zstar": lambda: _rows_symmetric_zstar(-0.98, 100),
    "symmetric-zstar-wide": lambda: _rows_symmetric_zstar(0.4, 141),
    "symmetric-j1prime": _rows_symmetric_j1prime,
    "gamma-admissibility": _rows_gamma_admissibility,
    "ssvi-n-curves": _rows_ssvi_n_curves,
    "ssvi-gj-vs-b": _rows_ssvi_gj_vs_b,
    "ssvi-gj-vs-rho": _rows_ssvi_gj_vs_rho,
}


def cmd_table(args) -> int:
    rows = TABLES[args.figure]()
    writer = csv.writer(sys.stdout, lineterminator="\n")
    for row in rows:
        writer.writerow([f"{v!r}" if isinstance(v, float) else v for v in row])
    return 0


# ---------------------------------------------------------------------------
# scan-uniqueness
# ---------------------------------------------------------------------------
def cmd_scan_uniqueness(args) -> int:
    try:
        report = ssvi.scan_uniqueness(args.rho_steps, args.x_steps)
    except InvalidParamsError as exc:
        return _failure(exc)
    print(f"min_n = {report.min_value!r} at rho = {report.arg_rho!r}, x = {report.arg_x!r}")
    print(f"negative_count = {report.negative_count}")
    print(report.message)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------
def _add_param_options(p: argparse.ArgumentParser) -> None:
    for name in PARAM_OPTIONS:
        p.add_argument(f"--{name}", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smile-domain",
        description="Certify and construct butterfly-arbitrage-free SVI smiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="certify a parameter set (JSON on stdout)")
    p.add_argument("family", choices=FAMILIES)
    _add_param_options(p)
    p.add_argument("--oracle", action="store_true", help="also run the density check")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bound", help="print the minimal arbitrage-free sigma")
    p.add_argument("family", choices=FAMILIES)
    _add_param_options(p)
    p.add_argument("--oracle", action="store_true", help="compare against the numerical supremum")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sample", help="sample arbitrage-free smiles (JSON on stdout)")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--b-range", nargs=2, type=float, default=(0.1, 0.9), metavar=("LO", "HI"))
    p.add_argument("--u-range", nargs=2, type=float, default=None, metavar=("LO", "HI"))
    p.add_argument("--t-range", nargs=2, type=float, default=(0.05, 0.95), metavar=("LO", "HI"))
    p.add_argument("--gamma-range", nargs=2, type=float, default=(0.5, 4.0), metavar=("LO", "HI"))
    p.add_argument("--q-range", nargs=2, type=float, default=(-0.8, 0.8), metavar=("LO", "HI"))
    p.add_argument("--rho-range", nargs=2, type=float, default=(-0.9, 0.9), metavar=("LO", "HI"))
    p.add_argument("--scale-range", nargs=2, type=float, default=(1.0, 3.0), metavar=("LO", "HI"))
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("table", help="emit the data behind a figure as CSV")
    p.add_argument("figure", choices=sorted(TABLES))
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("scan-uniqueness", help="grid scan of the critical-point uniqueness target")
    p.add_argument("--rho-steps", type=int, default=1000)
    p.add_argument("--x-steps", type=int, default=1000)
    p.set_defaults(func=cmd_scan_uniqueness)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
