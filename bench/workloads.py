"""Seeded inputs, operations and correctness checks of the three workloads.

Workloads (the names are fixed; later changes refer to them):

certify-mix
    One in-process ``certify`` per operation, cycling through a seeded pool
    of parameter sets shared equally among the five entry points.  The
    scalar ``core`` shape functions, the family root solves and
    ``certificates`` do nearly all the work; ``oracle`` and ``cli`` do none.
    It separates the cheap closed forms (extremal, vanishing) from the
    root-solving families (symmetric, ssvi).
oracle-audit
    One operation audits one seeded shape: the closed-form sigma*, then
    ``oracle.sigma_star``, then ``durrleman_check`` at the closed-form
    sigma*; symmetric shapes also compare ``fukasawa.fukasawa_threshold``
    with ``symmetric.fukasawa_threshold_closed``.  ``oracle`` and
    ``fukasawa`` do most of the work and call ``core`` on arrays of 128 to
    5,000 points instead of scalars.
cli-session
    A fixed list of ``python -m smile_domain`` calls, one child process at
    a time.  Interpreter start-up, imports (mostly ``scipy.optimize``),
    argument parsing and JSON output sit on the blocking path only here.

Inputs: the timed operations of certify-mix and oracle-audit cycle through
a seeded pool of interior draws, five entry points in equal shares, on
which no operation fails.  The edge band is a census instead, run once per
run outside the timed region: a fixed number of draws near a degenerate
edge of the full parameter domain (``gamma -> -1``, ``b -> 0``, ``b`` at
the wing-slope bound, ``|rho| -> 1``; ``|q| -> 1`` for extremal, ``mu`` at
the wing bound for vanishing), every kind and every decade of the distance
to the edge, log-uniform over [1e-14, 1e-2], equally often.  Draws that the
library fails on today are kept, and the census reports them as the edge
``fail_ratio``.  The edge band stays out of the timed load because the
failure count of a timed run would then follow how many operations fit in
it, and because the open defects (an exception leaves a root solve early)
would be timed as fast work.  cli-session times interior draws only; the
two documented edge reproductions (``ANCHORS``) are its census.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from smile_domain import extremal, fukasawa, oracle, ssvi, symmetric, vanishing
from smile_domain.core import FukasawaViolation, RogerLeeViolation
from smile_domain.extremal import ExtremalParams
from smile_domain.ssvi import SsviParams
from smile_domain.symmetric import SymmetricParams
from smile_domain.vanishing import VanishingParams

WORKLOADS = ("certify-mix", "oracle-audit", "cli-session")
FAMILIES = ("vanishing-up", "vanishing-down", "extremal", "symmetric", "ssvi")
EDGE_DECADES = 12
EDGE_KINDS = {
    "vanishing-up": ("b_to_0", "b_at_bound", "mu_at_bound"),
    "vanishing-down": ("b_to_0", "b_at_bound", "mu_at_bound"),
    "extremal": ("q_at_bound",),  # b = 2 already sits on the wing-slope bound
    "symmetric": ("gamma_to_-1", "b_to_0", "b_at_bound"),
    "ssvi": ("b_to_0", "b_at_bound", "rho_to_1"),
}

# Tolerances of the correctness checks, as in the acceptance tests.
GAP_TOL = 1e-6  # relative gap between a closed-form sigma* and the oracle
DENSITY_TOL = 1e-8  # durrleman minimum at the closed-form sigma* >= -DENSITY_TOL
THRESHOLD_TOL = 1e-8  # bisected vs closed-form symmetric wing threshold
ORACLE_EVERY = 47  # certify-mix checks pool items i % 47 == 0 against the oracle

_MODULES = {
    "vanishing-up": vanishing,
    "vanishing-down": vanishing,
    "extremal": extremal,
    "symmetric": symmetric,
    "ssvi": ssvi,
}


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Draw:
    """One parameter set in a family's native coordinates."""

    family: str
    kind: str  # "interior" or the edge kind
    eps: float  # distance to the edge (0 for interior draws)
    native: tuple[float, float, float]


def _logu(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _symmetric_threshold(b: float) -> float:
    """Wing threshold F(b), written out here so inputs do not depend on the
    code under test."""
    b2 = b * b
    return -(b2 + 32.0) * math.sqrt(max(0.0, 4.0 - b2)) / (16.0 - b2) ** 1.5


def _native(family: str, kind: str, eps: float, u1: float, u2: float, u3: float):
    sigma = _logu(u3, 0.1, 10.0)
    if family in ("vanishing-up", "vanishing-down"):
        b = {"b_to_0": eps, "b_at_bound": 1.0 - eps}.get(kind, 0.02 + 0.96 * u1)
        cap = math.sqrt(3.0 * (1.0 - b))
        if kind == "mu_at_bound":
            mu_up = cap - eps
        else:
            mu_up = -3.0 + (1.05 * cap + 3.0) * u2
        return (b, mu_up if family == "vanishing-up" else -mu_up, sigma)
    if family == "extremal":
        gamma = _logu(u1, 0.1, 10.0)
        if kind == "q_at_bound":
            q = (1.0 - eps) * (1.0 if u2 < 0.5 else -1.0)
        else:
            q = -0.95 + 1.9 * u2
        return (gamma, q, sigma)
    if family == "symmetric":
        if kind == "gamma_to_-1":
            return (-1.0 + eps, _logu(u1, 1e-4, 2.0), sigma)
        if kind == "b_to_0":
            return (-0.95 + 2.95 * u2, eps, sigma)
        if kind == "b_at_bound":
            return (-0.2 + 2.2 * u2, 2.0 - 2.0 * eps, sigma)
        b = 0.02 + 1.96 * u1
        lo = max(_symmetric_threshold(b) - 0.05, -0.99)
        return (lo + (2.0 - lo) * u2, b, sigma)
    if family == "ssvi":
        if kind == "rho_to_1":
            rho = (1.0 - eps) * (1.0 if u1 < 0.5 else -1.0)
        else:
            rho = -0.95 + 1.9 * u1
        bmax = 2.0 / (1.0 + abs(rho))
        frac = {"b_to_0": eps, "b_at_bound": 1.0 - eps}.get(kind, 0.02 + 0.96 * u2)
        phi = math.sqrt((1.0 - rho) * (1.0 + rho)) / sigma
        return (2.0 * frac * bmax / phi, phi, rho)
    raise ValueError(f"unknown family {family!r}")


def draw_family(seed: int, family: str, n: int, edge: bool = False) -> list[Draw]:
    """The first n interior (or edge-band) draws of one family; a prefix of
    a longer call.  Edge draws cycle through the family's edge kinds, and
    through the decades of the distance once per cycle of kinds."""
    u = np.random.default_rng([seed, FAMILIES.index(family), int(edge)]).random((n, 4))
    kinds = EDGE_KINDS[family]
    out = []
    for j, (u0, u1, u2, u3) in enumerate(u.tolist()):
        kind, eps = "interior", 0.0
        if edge:
            kind = kinds[j % len(kinds)]
            eps = 10.0 ** -(2.0 + (j // len(kinds)) % EDGE_DECADES + u0)
        d = Draw(family, kind, eps, _native(family, kind, eps, u1, u2, u3))
        make_params(d)  # every draw must be a valid input
        out.append(d)
    return out


def draw_pool(seed: int, n: int, edge: bool = False) -> list[Draw]:
    """n draws, interleaving the five entry points in equal shares."""
    per = -(-n // len(FAMILIES))
    cols = [draw_family(seed, f, per, edge) for f in FAMILIES]
    return [cols[i % len(FAMILIES)][i // len(FAMILIES)] for i in range(n)]


def inputs_bytes(pool: list[Draw]) -> bytes:
    """Canonical serialization of a pool; equal seeds give equal bytes."""
    rows = [[d.family, d.kind, repr(d.eps), [repr(v) for v in d.native]] for d in pool]
    return json.dumps(rows, separators=(",", ":")).encode()


def make_params(d: Draw, sigma: float | None = None):
    """The family's parameter object, optionally at another sigma."""
    x, y, z = d.native
    if d.family in ("vanishing-up", "vanishing-down"):
        direction = "upward" if d.family == "vanishing-up" else "downward"
        return VanishingParams(b=x, mu=y, sigma=z if sigma is None else sigma,
                               direction=direction)
    if d.family == "extremal":
        return ExtremalParams(gamma=x, q=y, sigma=z if sigma is None else sigma)
    if d.family == "symmetric":
        return SymmetricParams(gamma=x, b=y, sigma=z if sigma is None else sigma)
    p = SsviParams(theta=x, phi=y, rho=z)
    if sigma is None:
        return p
    phi = math.sqrt((1.0 - z) * (1.0 + z)) / sigma
    return SsviParams(theta=2.0 * p.b / phi, phi=phi, rho=z)


def shape(d: Draw) -> tuple[float, float, float, float]:
    """Normalized shape (gamma, b, rho, mu) that the oracle takes."""
    x, y, z = d.native
    if d.family == "vanishing-up":
        return (0.0, x, 1.0, y)
    if d.family == "vanishing-down":
        return (0.0, x, -1.0, y)
    if d.family == "extremal":
        return (x, 2.0, 0.0, y * x)
    if d.family == "symmetric":
        return (x, y, 0.0, 0.0)
    p = SsviParams(theta=x, phi=y, rho=z)
    return (p.gamma, p.b, p.rho, p.mu)


# ---------------------------------------------------------------------------
# Operations (module attributes are looked up at call time so that the
# span recorder's wrappers are used when tracing is on)
# ---------------------------------------------------------------------------
def certify_op(d: Draw) -> dict:
    return _MODULES[d.family].certify(make_params(d)).to_dict()


def audit_op(d: Draw) -> dict:
    closed = _MODULES[d.family].certify(make_params(d)).bounds["sigma_star"]
    out = {"closed": closed}
    if math.isfinite(closed):
        out["oracle"] = oracle.sigma_star(*shape(d)).sigma_star
        raw = make_params(d, sigma=closed).to_raw()
        out["density_min"] = oracle.durrleman_check(raw).min_value
    else:
        try:
            out["oracle"] = oracle.sigma_star(*shape(d)).sigma_star
        except (FukasawaViolation, RogerLeeViolation):
            out["oracle"] = math.inf  # both routes find arbitrage
    if d.family == "symmetric":
        b = d.native[1]
        out["threshold"] = fukasawa.fukasawa_threshold(b, 0.0)
        out["threshold_closed"] = symmetric.fukasawa_threshold_closed(b)
    return out


def rel_gap(closed: float, other: float) -> float:
    """Relative gap as ``bound --oracle`` reports it; 0 when both routes
    find arbitrage, inf when only one does."""
    if math.isinf(closed) or math.isinf(other):
        return 0.0 if closed == other else math.inf
    return abs(other - closed) / max(abs(closed), 1e-300)


def check_certificate(doc: dict) -> str | None:
    """The verdict must be the AND of the conditions."""
    passed = all(doc["conditions"].values())
    verdict = "arbitrage_free" if passed else "arbitrage"
    if doc["passed"] != passed or doc["verdict"] != verdict:
        return "verdict is not the AND of the conditions"
    return None


def check_against_oracle(d: Draw, doc: dict) -> tuple[str | None, float]:
    """(failure, gap) of a certificate's sigma* against oracle.sigma_star."""
    closed = doc["bounds"]["sigma_star"]
    closed = math.inf if closed == "inf" else closed
    try:
        other = oracle.sigma_star(*shape(d)).sigma_star
    except (FukasawaViolation, RogerLeeViolation) as exc:
        if math.isinf(closed):
            return None, 0.0
        return f"oracle raised {type(exc).__name__} on a finite closed form", math.inf
    except Exception as exc:  # noqa: BLE001 - an oracle failure fails the check
        return f"oracle raised {type(exc).__name__}", math.inf
    gap = rel_gap(closed, other)
    return (None if gap <= GAP_TOL else f"gap {gap:.3g} > {GAP_TOL:g}"), gap


def check_audit(out: dict) -> tuple[str | None, float]:
    """(failure, gap) of one oracle-audit output."""
    gap = rel_gap(out["closed"], out["oracle"])
    if not gap <= GAP_TOL:
        return f"gap {gap:.3g} > {GAP_TOL:g}", gap
    if out.get("density_min", 0.0) < -DENSITY_TOL:
        return f"density minimum {out['density_min']:.3g} < -{DENSITY_TOL:g}", gap
    if "threshold" in out and not abs(out["threshold"] - out["threshold_closed"]) <= THRESHOLD_TOL:
        return "wing threshold differs from its closed form", gap
    return None, gap


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Command:
    argv: tuple[str, ...]
    kind: str  # "certify", "bound", "sample", "table" or "scan"


# Documented edge reproductions, the census of every cli-session run: a 1e-4
# gap between the closed form and the oracle, and exit code 2 on a valid
# SSVI slice.
ANCHORS = (
    Command(("bound", "vanishing-up", "--b", "0.999999", "--mu", "0", "--oracle", "--json"), "bound"),
    Command(("bound", "ssvi", "--b", "1e-8", "--rho", "0.5", "--json"), "bound"),
)
TABLE = "ssvi-gj-vs-b"


def _opts(names: tuple[str, ...], values) -> list[str]:
    out = []
    for n, v in zip(names, values):
        out += [f"--{n}", repr(float(v))]
    return out


def cli_commands(seed: int) -> list[Command]:
    """The fixed list of CLI calls; the seed picks the parameters."""
    first = {}
    for f in FAMILIES:
        first[f] = draw_family(seed, f, 2)
    names = {
        "vanishing-up": ("b", "mu", "sigma"),
        "vanishing-down": ("b", "mu", "sigma"),
        "extremal": ("gamma", "q", "sigma"),
        "symmetric": ("gamma", "b", "sigma"),
        "ssvi": ("theta", "phi", "rho"),
    }

    def certify(f: str, k: int, oracle_flag: bool) -> Command:
        argv = ["certify", f] + _opts(names[f], first[f][k].native)
        return Command(tuple(argv + (["--oracle"] if oracle_flag else [])), "certify")

    sym, sv = first["symmetric"][1], first["ssvi"][1]
    bound_sym = ["bound", "symmetric"] + _opts(("gamma", "b"), sym.native[:2])
    p = make_params(sv)
    bound_ssvi = ["bound", "ssvi"] + _opts(("b", "rho"), (p.b, p.rho))
    return [
        certify("ssvi", 0, False),
        certify("symmetric", 0, True),
        certify("vanishing-up", 0, False),
        Command(tuple(bound_ssvi + ["--oracle", "--json"]), "bound"),
        certify("extremal", 0, False),
        Command(("sample", "symmetric", "--count", "20", "--seed", str(seed)), "sample"),
        certify("vanishing-down", 0, True),
        Command(tuple(bound_sym + ["--oracle", "--json"]), "bound"),
        Command(("table", TABLE), "table"),
        Command(("scan-uniqueness",), "scan"),
    ]


def run_main(argv) -> tuple[int, str]:
    """cli.main in this process, stdout captured."""
    from smile_domain import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def check_cli(cmd: Command, code: int, stdout: str) -> tuple[str | None, float | None]:
    """(failure, relative_gap) of one CLI call on a valid input."""
    from smile_domain.cli import SCHEMA

    if cmd.kind == "scan":
        ok = code == 0 and stdout.rstrip().endswith("There is unicity")
        return (None if ok else f"scan-uniqueness exit {code}"), None
    if cmd.kind == "table":
        rows = list(csv.reader(io.StringIO(stdout)))
        if code != 0 or len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
            return f"table exit {code} or ragged CSV", None
        try:
            [float(v) for r in rows[1:] for v in r if v]
        except ValueError:
            return "table has a non-numeric cell", None
        return None, None
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return f"exit {code} with stdout that is not JSON", None
    if doc.get("schema") != SCHEMA:
        return f"schema {doc.get('schema')!r}", None
    if "error" in doc:
        return f"exit {code}: {doc['error']['type']}: {doc['error']['message']}", None
    if cmd.kind == "certify":
        expected = 0 if doc["passed"] else 1
        if code != expected:
            return f"exit {code}, expected {expected}", None
        density = doc["diagnostics"].get("oracle_min", 0.0)
        if doc["passed"] and density < -DENSITY_TOL:
            return f"passed with density minimum {density:.3g} < -{DENSITY_TOL:g}", None
        return check_certificate(doc), None
    if code != 0:
        return f"exit {code}, expected 0", None
    if cmd.kind == "sample":
        return (None if len(doc["samples"]) == 20 else "sample count"), None
    gap = doc.get("relative_gap")
    if gap is not None and not gap <= GAP_TOL:
        return f"gap {gap:.3g} > {GAP_TOL:g}", gap
    return None, gap


# ---------------------------------------------------------------------------
# Warm-up and digests
# ---------------------------------------------------------------------------
def warm_up(workload: str, seed: int = 0) -> None:
    """One call into each layer the workload uses."""
    if workload == "cli-session":
        for cmd in cli_commands(seed)[:2]:
            run_main(cmd.argv)
        return
    op = certify_op if workload == "certify-mix" else audit_op
    for d in draw_pool(seed, len(FAMILIES)):
        op(d)


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()
