"""Span recorder for the traced run, applied from outside the library.

``Tracer.install()`` replaces each listed public function with a wrapper
in every ``smile_domain`` module namespace that binds it, and
``uninstall()`` puts the originals back.  A span is (name, layer, start,
end, parent, op, points, error): ``parent`` indexes the enclosing span or
is -1, ``op`` is the operation id the workload set, ``points`` the number
of array elements a ``core`` call evaluated, and ``error`` the name of the
exception that left the call, if any.  Spans stay in memory until the run
writes them out.  ``brentq`` is wrapped too, but only counted: its calls
and the evaluations of its objective are exact counts, and the time spent
in it stays with the layer that called it, whose code the objective is.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

import numpy as np

# layer -> public functions whose calls are recorded
TRACED = {
    "core": ("total_variance", "n_funcs", "hgg2", "g1", "hgg2_prime",
             "sigma_floor", "sigma_floor_dual"),
    "fukasawa": ("solve_l_minus", "mu_interval", "fukasawa_threshold"),
    "oracle": ("sigma_star", "g2_zeros", "durrleman_check"),
    "vanishing": ("certify", "x_from_mu"),
    "extremal": ("certify",),
    "symmetric": ("certify", "z_from_b", "z_star_zero", "fukasawa_threshold_closed"),
    "ssvi": ("certify", "l_from_b", "l_bar_zero", "m2", "sigma_star_closed", "scan_uniqueness"),
    "certificates": ("make_certificate",),
    "cli": ("main",),
}
FAMILY_LAYERS = ("vanishing", "extremal", "symmetric", "ssvi")


def _points(name: str, args) -> int:
    # total_variance(p, k) evaluates at k; the other shape functions at l
    arg = args[1] if name == "total_variance" else args[0]
    return int(np.size(arg))


class Tracer:
    """Records spans around the library's public functions."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.solves = 0
        self.fevals = 0
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        full = f"{layer}.{name}"
        count_points = layer == "core"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            err = None
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                pts = _points(name, args) if count_points else 0
                spans[idx] = (full, layer, t0, t1, parent, tracer.op, pts, err)

        return wrapper

    def _brentq(self, fn):
        tracer = self

        @functools.wraps(fn)
        def brentq(f, a, b, *args, **kwargs):
            def counted(x, *fargs):
                tracer.fevals += 1
                return f(x, *fargs)

            tracer.solves += 1
            return fn(counted, a, b, *args, **kwargs)

        return brentq

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "smile_domain" and not modname.startswith("smile_domain."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self) -> "Tracer":
        import smile_domain.cli  # noqa: F401 - load every module that binds a traced name
        from scipy.optimize import brentq
        from smile_domain.certificates import DomainCertificate

        for layer, names in TRACED.items():
            mod = sys.modules[f"smile_domain.{layer}"]
            for name in names:
                original = getattr(mod, name)
                self._replace_everywhere(original, self._wrap(layer, name, original))
        self._replace_everywhere(brentq, self._brentq(brentq))
        original = DomainCertificate.to_dict
        self._undo.append((DomainCertificate, "to_dict", original))
        DomainCertificate.to_dict = self._wrap("certificates", "to_dict", original)
        return self

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()


def merge(span_lists: list[list[tuple]]) -> list[tuple]:
    """Concatenate span lists from separate processes, re-basing parents."""
    out: list[tuple] = []
    for spans in span_lists:
        base = len(out)
        out.extend(
            (s[0], s[1], s[2], s[3], s[4] + base if s[4] >= 0 else -1, *s[5:])
            for s in spans
        )
    return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[tuple], solves: int, fevals: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in the traced process)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    entries: dict[str, int] = {}
    errors: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    core_points = oracle_points = noroot = 0
    for i, (name, layer, t0, t1, parent, _op, pts, err) in enumerate(spans):
        self_ms[layer] = self_ms.get(layer, 0.0) + (t1 - t0 - child[i]) * 1e3
        if name in ("certificates.make_certificate", "certificates.to_dict"):
            self_ms[name] = self_ms.get(name, 0.0) + (t1 - t0 - child[i]) * 1e3
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(t1 - t0)
        parent_layer = spans[parent][1] if parent >= 0 else None
        if parent_layer == layer:
            continue  # only calls that enter a layer count below
        entries[layer] = entries.get(layer, 0) + 1
        if err is not None:
            errors[layer] = errors.get(layer, 0) + 1
            if layer == "fukasawa" and err == "NoRootError":
                noroot += 1
        if layer == "core":
            core_points += pts
            if parent_layer == "oracle":
                oracle_points += pts

    m = {
        "core.calls": entries.get("core", 0),
        "core.points": core_points,
        "core.self_ms": self_ms.get("core", 0.0),
        "core.us_per_point": self_ms.get("core", 0.0) * 1e3 / core_points if core_points else 0.0,
        "solver.brentq.calls": solves,
        "solver.brentq.fevals": fevals,
        "solver.fevals_per_solve": fevals / solves if solves else 0.0,
    }
    for name in ("vanishing.x_from_mu", "symmetric.z_from_b", "symmetric.z_star_zero",
                 "ssvi.l_from_b", "ssvi.l_bar_zero", "ssvi.m2"):
        m[f"{name}.calls"] = calls.get(name, 0)
    for fam in FAMILY_LAYERS:
        m[f"{fam}.self_ms"] = self_ms.get(fam, 0.0)
        m[f"{fam}.certify.us_p50"] = _median(durations.get(f"{fam}.certify", [])) * 1e6
        m[f"{fam}.errors"] = errors.get(fam, 0)
    m["fukasawa.noroot"] = noroot
    for name in ("solve_l_minus", "mu_interval", "fukasawa_threshold"):
        m[f"fukasawa.{name}.calls"] = calls.get(f"fukasawa.{name}", 0)
    m["fukasawa.self_ms"] = self_ms.get("fukasawa", 0.0)
    m["fukasawa.mu_interval.us_p50"] = _median(durations.get("fukasawa.mu_interval", [])) * 1e6
    m["fukasawa.fukasawa_threshold.ms_p50"] = _median(
        durations.get("fukasawa.fukasawa_threshold", [])) * 1e3
    m["oracle.sigma_star.calls"] = calls.get("oracle.sigma_star", 0)
    m["oracle.sigma_star.ms_p50"] = _median(durations.get("oracle.sigma_star", [])) * 1e3
    m["oracle.g2_zeros.calls"] = calls.get("oracle.g2_zeros", 0)
    m["oracle.durrleman_check.ms_p50"] = _median(durations.get("oracle.durrleman_check", [])) * 1e3
    m["oracle.points"] = oracle_points
    m["oracle.self_ms"] = self_ms.get("oracle", 0.0)
    m["ssvi.scan_uniqueness.ms_p50"] = _median(durations.get("ssvi.scan_uniqueness", [])) * 1e3
    m["certificates.make_certificate.self_ms"] = self_ms.get("certificates.make_certificate", 0.0)
    m["certificates.to_dict.self_ms"] = self_ms.get("certificates.to_dict", 0.0)
    return m
