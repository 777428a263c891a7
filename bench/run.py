"""smile-domain benchmark: three workloads, end-to-end metrics, traced layers.

Usage, from the repository root:

    python3 bench/run.py --workload certify-mix --seed 1 --seconds 20 --trace 0

Workloads are ``certify-mix``, ``oracle-audit`` and ``cli-session`` (see
``workloads.py`` for what each measures and why).  Load is one caller in a
closed loop: the next operation starts when the previous one returns, and
cli-session runs one child process at a time.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds
(cli-session: whole passes of its command list until ``--seconds`` have
passed).  The in-process timings are scaled to a nominal machine speed
measured next to them (see ``speed.py``); cli-session and set-up times are
not.  ``--trace 1`` runs a fixed number of operations twice, untraced
and then with the span recorder of ``spans.py`` installed, and reports the
per-layer metrics; its counts repeat exactly for a given seed.  Both modes
check every output outside the timed region, run the edge-band census
(see ``workloads.py``) once, also outside it, and print a report and, as
the last line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``attempted`` and ``failed`` count the
operations of the measured load; a failure is an exception or exit code 2
on a valid input, or a failed check.  ``correct`` is false when one of
them fails, or an invariant breaks anywhere (a verdict that is not the AND
of its conditions, a CLI child whose output differs from an in-process
call, traced outputs that differ from untraced ones).  Failures in the
edge-band census are the open defects: the report prints them as the edge
``fail_ratio`` and the traced run counts them in ``<family>.errors`` and
``fukasawa.noroot``.  The full result, the machine facts and the spans go
to ``.bench_out/`` at the repository root.

The library is imported from ``src/`` of the checkout this file sits in;
without it the run stops with exit code 2.  It also stops if
``SMILE_DOMAIN_GRID`` is set, because that changes the density-check grid
of ``certify --oracle``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from speed import Speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

POOL = {"certify-mix": 10000, "oracle-audit": 3000}
DIGEST_ITEMS = {"certify-mix": 5000, "oracle-audit": 400}  # reached well within a run
TRACE_OPS = {"certify-mix": 2000, "oracle-audit": 200}
CENSUS = {"certify-mix": 360, "oracle-audit": 180}  # every edge kind x decade per family
SETUP_REPEATS = 9
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT = 120.0
WINDOW_S = 0.5  # in-process work between two speed probes

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _prepare() -> None:
    if "SMILE_DOMAIN_GRID" in os.environ:
        _fail("SMILE_DOMAIN_GRID is set; it changes the density-check grid, unset it")
    if not (SRC / "smile_domain" / "__init__.py").is_file():
        _fail(f"no smile_domain package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import smile_domain

    if Path(smile_domain.__file__).resolve().parent != SRC / "smile_domain":
        _fail(f"imported smile_domain from {smile_domain.__file__}, not from {SRC}")


def _child(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=CHILD_TIMEOUT)


def _cli_argv(cmd) -> list[str]:
    return [sys.executable, "-m", "smile_domain", *cmd.argv]


# ---------------------------------------------------------------------------
# Outcomes and their checks
# ---------------------------------------------------------------------------
def check_inprocess(workload: str, pool, outcomes, oracle_every: int | None = None) -> dict:
    """Check the first outcome of every pool item reached; certify-mix
    compares items k % oracle_every == 0 with the oracle."""
    import workloads as W

    reasons: list[str | None] = []
    gaps: list[float] = []
    broken = 0
    oracle_every = oracle_every or W.ORACLE_EVERY
    for k, (out, err) in enumerate(outcomes):
        d = pool[k]
        if err is not None:
            reason = f"{type(err).__name__}: {err}"
        elif workload == "certify-mix":
            reason = W.check_certificate(out)
            broken += reason is not None  # the verdict invariant holds everywhere
            if reason is None and k % oracle_every == 0:
                reason, gap = W.check_against_oracle(d, out)
                gaps.append(gap)
        else:
            reason, gap = W.check_audit(out)
            gaps.append(gap)
        if reason is not None and d.kind == "interior":
            broken += 1
        reasons.append(reason)
    breakdown: Counter[str] = Counter()
    examples: dict[str, str] = {}
    for k, r in enumerate(reasons):
        if r is not None:
            key = f"{pool[k].family} / {pool[k].kind} / {r.split(':')[0].split(' ')[0]}"
            breakdown[key] += 1
            examples.setdefault(key, r)
    limit = DIGEST_ITEMS[workload]
    return {
        "bad": [r is not None for r in reasons],
        "broken": broken,
        "gaps": gaps,
        "inputs_digest": W.digest([W.inputs_bytes(pool).decode()]),
        "outputs_digest": W.digest(
            [k, {"error": type(e).__name__} if e is not None else o]
            for k, (o, e) in enumerate(outcomes[:limit])),
        "items_digested": min(len(outcomes), limit),
        "failures": dict(sorted(breakdown.items())),
        "examples": [f"{key}: {examples[key]}" for key in sorted(examples)],
    }


def check_cli_runs(cmds, procs) -> dict:
    """Check each CLI call and compare it with an in-process cli.main call."""
    import workloads as W

    reasons: list[str | None] = []
    gaps: list[float] = []
    broken = 0
    for cmd, proc in zip(cmds, procs):
        stdout = proc.stdout.decode()
        reason, gap = W.check_cli(cmd, proc.returncode, stdout)
        if gap is not None:
            gaps.append(gap)
        if W.run_main(cmd.argv) != (proc.returncode, stdout):
            reason = "child output differs from an in-process cli.main call"
            broken += 1
        elif reason is not None and cmd not in W.ANCHORS:
            broken += 1
        reasons.append(reason)
    return {
        "bad": [r is not None for r in reasons],
        "broken": broken,
        "gaps": gaps,
        "inputs_digest": W.digest([list(c.argv) for c in cmds]),
        "outputs_digest": W.digest([p.returncode, p.stdout.decode()] for p in procs),
        "items_digested": len(procs),
        "failures": {" ".join(c.argv): r for c, r in zip(cmds, reasons) if r},
        "examples": [],
    }


def _run_pool(pool, op, tracer=None) -> list[tuple[object, Exception | None]]:
    outcomes = []
    for k, d in enumerate(pool):
        if tracer is not None:
            tracer.op = k
        try:
            outcomes.append((op(d), None))
        except Exception as exc:  # noqa: BLE001 - a failure on a valid input is counted
            outcomes.append((None, exc))
    return outcomes


def _traced_children(cmds) -> tuple[list[subprocess.CompletedProcess], list, int, int]:
    """Run each command in a traced child; (procs, spans, solves, fevals)."""
    import spans

    OUT.mkdir(exist_ok=True)
    procs, lists, solves, fevals = [], [], 0, 0
    for k, cmd in enumerate(cmds):
        path = OUT / f"cli-child-{k}.json"
        procs.append(_child([sys.executable, str(BENCH / "cli_child.py"), str(path), *cmd.argv]))
        doc = json.loads(path.read_text())
        path.unlink()
        lists.append([(*s[:5], k, *s[6:]) for s in doc["spans"]])
        solves += doc["solves"]
        fevals += doc["fevals"]
    return procs, spans.merge(lists), solves, fevals


def run_census(workload: str, seed: int, trace: int) -> dict:
    """The edge-band census, outside the timed region: every draw once
    (cli-session: the anchor commands), each certify-mix certificate checked
    against the oracle.  Traced, it keeps the spans for the error counts."""
    import spans
    import workloads as W

    if workload == "cli-session":
        cmds = list(W.ANCHORS)
        if trace:
            procs, span_list, _, _ = _traced_children(cmds)
        else:
            procs, span_list = [_child(_cli_argv(cmd)) for cmd in cmds], []
        res = check_cli_runs(cmds, procs)
    else:
        pool = W.draw_pool(seed, CENSUS[workload], edge=True)
        tracer = spans.Tracer().install() if trace else None
        try:
            outcomes = _run_pool(pool, _op(workload), tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        span_list = tracer.spans if tracer is not None else []
        res = check_inprocess(workload, pool, outcomes, oracle_every=1)
    res["spans"] = span_list
    res["attempted"] = len(res["bad"])
    res["failed"] = sum(res["bad"])
    return res


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------
def measure_setup(workload: str) -> list[float]:
    """Seconds to import smile_domain and warm every layer, in fresh
    interpreters; the first run fills the bytecode cache and is dropped."""
    argv = [sys.executable, str(BENCH / "setup_probe.py"), workload]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = _child(argv)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode()[-2000:]}")
        times.append(float(proc.stdout.decode().split()[-1]))
    return times[1:]


def _op(workload: str):
    import workloads as W

    return W.certify_op if workload == "certify-mix" else W.audit_op


def run_inprocess(workload: str, seed: int, seconds: float) -> dict:
    """Closed loop over the seeded pool for `seconds`."""
    import workloads as W

    pool = W.draw_pool(seed, POOL[workload])
    op = _op(workload)
    W.warm_up(workload, seed)
    outcomes: list[tuple[object, Exception | None]] = []
    lat: list[float] = []
    pieces: list[tuple[int, float]] = []  # (ops done at the window's end, seconds)
    n = len(pool)
    speed = Speed()
    window = time.perf_counter()
    deadline = window + seconds
    while True:
        i = len(lat)
        t0 = time.perf_counter()
        try:
            out, err = op(pool[i % n]), None
        except Exception as exc:  # noqa: BLE001 - a failure on a valid input is counted
            out, err = None, exc
        t1 = time.perf_counter()
        lat.append(t1 - t0)
        if i < n:
            outcomes.append((out, err))
        if t1 - window >= WINDOW_S or t1 >= deadline:
            pieces.append((len(lat), t1 - window))
            speed.probe()
            if t1 >= deadline:
                break
            window = time.perf_counter()
    scaled: list[float] = []
    for w, (end, _) in enumerate(pieces):
        f = speed.at(w)
        scaled.extend(t / f for t in lat[len(scaled):end])
    res = check_inprocess(workload, pool, outcomes)
    res.update(latencies=lat, elapsed=sum(t for _, t in pieces),
               scaled_latencies=scaled,
               scaled_elapsed=sum(t / speed.at(w) for w, (_, t) in enumerate(pieces)),
               speed=speed.factors,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return res


def run_cli(seed: int, seconds: float) -> dict:
    """Whole passes of the command list, one child at a time."""
    import workloads as W

    cmds = W.cli_commands(seed)
    lat: list[float] = []
    first: list[subprocess.CompletedProcess] = []
    start = time.perf_counter()
    while not lat or time.perf_counter() - start < seconds:
        for cmd in cmds:
            t0 = time.perf_counter()
            proc = _child(_cli_argv(cmd))
            lat.append(time.perf_counter() - t0)
            if len(first) < len(cmds):
                first.append(proc)
    res = check_cli_runs(cmds, first)
    res.update(latencies=lat, elapsed=sum(lat),
               peak_rss_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    return res


def end_to_end(res: dict, latencies: list[float], elapsed: float,
               setup: list[float]) -> dict[str, float]:
    lat_ms = [t * 1e3 for t in latencies]
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[-1] if len(lat_ms) > 1 else lat_ms[0]
    return {
        "ops_per_s": len(lat_ms) / elapsed,
        "latency_ms_p50": statistics.median(lat_ms),
        "latency_ms_p90": p90,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------
def parse_importtime(stderr: str) -> dict[str, float]:
    """Import cost from ``-X importtime``: cli.import_ms is the cumulative
    time of the top-level smile_domain entries; the scipy and numpy figures
    are the cumulative time of each package's outermost entries, that is
    everything their import pulled in."""
    rows = []  # (depth, name, cumulative us), in the post-order printed
    for line in stderr.splitlines():
        parts = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2]
        rows.append(((len(name) - len(name.lstrip()) - 1) // 2, name.strip(), int(parts[1])))
    totals = {"smile_domain": 0, "scipy": 0, "numpy": 0}
    stack: list[tuple[int, str]] = []
    for depth, name, cum in reversed(rows):  # reversed post-order visits parents first
        while stack and stack[-1][0] >= depth:
            stack.pop()
        root = name.split(".")[0]
        if root in totals and all(a.split(".")[0] != root for _, a in stack):
            totals[root] += cum
        stack.append((depth, name))
    return {"cli.import_ms": totals["smile_domain"] / 1e3,
            "cli.import_scipy_ms": totals["scipy"] / 1e3,
            "cli.import_numpy_ms": totals["numpy"] / 1e3}


def cli_layer_metrics(seed: int) -> dict[str, float]:
    """Import cost of the CLI, and the cli-session commands run in-process
    through cli.main (the second of two passes is timed)."""
    import workloads as W

    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = _child([sys.executable, "-X", "importtime", "-c", "import smile_domain.cli"])
        runs.append(parse_importtime(proc.stderr.decode()))
    m = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    cmds = W.cli_commands(seed) + list(W.ANCHORS)
    for cmd in cmds:
        W.run_main(cmd.argv)
    times, codes = [], []
    for cmd in cmds:
        t0 = time.perf_counter()
        code, _ = W.run_main(cmd.argv)
        times.append(time.perf_counter() - t0)
        codes.append(code)
    m["cli.main_ms"] = statistics.median(times) * 1e3
    m["cli.exit2"] = codes.count(2)
    return m


def trace_inprocess(workload: str, seed: int) -> dict:
    import spans
    import workloads as W

    pool = W.draw_pool(seed, TRACE_OPS[workload])
    op = _op(workload)
    W.warm_up(workload, seed)

    def one_pass(tracer=None):
        t0 = time.perf_counter()
        outcomes = _run_pool(pool, op, tracer)
        return time.perf_counter() - t0, outcomes

    plain, plain_out = one_pass()
    tracer = spans.Tracer().install()
    try:
        traced, outcomes = one_pass(tracer)
    finally:
        tracer.uninstall()
    res = check_inprocess(workload, pool, outcomes)
    if res["outputs_digest"] != check_inprocess(workload, pool, plain_out)["outputs_digest"]:
        res["broken"] += 1
        res["examples"].append("traced outputs differ from untraced ones")
    res.update(plain=plain, traced=traced, spans=tracer.spans,
               solves=tracer.solves, fevals=tracer.fevals)
    return res


def trace_cli(seed: int) -> dict:
    import workloads as W

    cmds = W.cli_commands(seed)
    t0 = time.perf_counter()
    plain_procs = [_child(_cli_argv(cmd)) for cmd in cmds]
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    procs, span_list, solves, fevals = _traced_children(cmds)
    traced = time.perf_counter() - t0
    res = check_cli_runs(cmds, procs)
    if [(p.returncode, p.stdout) for p in procs] != [(p.returncode, p.stdout) for p in plain_procs]:
        res["broken"] += 1
        res["examples"].append("traced outputs differ from untraced ones")
    res.update(plain=plain, traced=traced, spans=span_list, solves=solves, fevals=fevals)
    return res


def per_layer(res: dict, census: dict, seed: int) -> dict[str, float]:
    """Layer metrics of the traced pass; the error counts come from the
    traced edge-band census, where the open defects are."""
    import spans

    metrics = spans.layer_metrics(res["spans"], res["solves"], res["fevals"])
    edge = spans.layer_metrics(census["spans"], 0, 0)
    for name in [*(f"{fam}.errors" for fam in spans.FAMILY_LAYERS), "fukasawa.noroot"]:
        metrics[name] = edge[name]
    metrics.update(cli_layer_metrics(seed))
    metrics["trace.overhead_ratio"] = res["plain"] / res["traced"]
    return metrics


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {
        "core.calls": "count", "core.points": "count", "core.self_ms": "ms",
        "core.us_per_point": "us",
        "solver.brentq.calls": "count", "solver.brentq.fevals": "count",
        "solver.fevals_per_solve": "count",
    }
    for name in ("vanishing.x_from_mu", "symmetric.z_from_b", "symmetric.z_star_zero",
                 "ssvi.l_from_b", "ssvi.l_bar_zero", "ssvi.m2"):
        units[f"{name}.calls"] = "count"
    for fam in ("vanishing", "extremal", "symmetric", "ssvi"):
        units[f"{fam}.self_ms"] = "ms"
        units[f"{fam}.certify.us_p50"] = "us"
        units[f"{fam}.errors"] = "count"
    units.update({
        "fukasawa.noroot": "count",
        "fukasawa.solve_l_minus.calls": "count",
        "fukasawa.mu_interval.calls": "count",
        "fukasawa.fukasawa_threshold.calls": "count",
        "fukasawa.self_ms": "ms",
        "fukasawa.mu_interval.us_p50": "us",
        "fukasawa.fukasawa_threshold.ms_p50": "ms",
        "oracle.sigma_star.calls": "count",
        "oracle.sigma_star.ms_p50": "ms",
        "oracle.g2_zeros.calls": "count",
        "oracle.durrleman_check.ms_p50": "ms",
        "oracle.points": "count",
        "oracle.self_ms": "ms",
        "ssvi.scan_uniqueness.ms_p50": "ms",
        "certificates.make_certificate.self_ms": "ms",
        "certificates.to_dict.self_ms": "ms",
        "cli.import_ms": "ms",
        "cli.import_scipy_ms": "ms",
        "cli.import_numpy_ms": "ms",
        "cli.main_ms": "ms",
        "cli.exit2": "count",
        "trace.overhead_ratio": "ratio",
    })
    return units


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def _report_checks(title: str, res: dict) -> None:
    finite = [g for g in res["gaps"] if math.isfinite(g)]
    n = res["attempted"]
    print(title)
    print(f"  fail_ratio       {res['failed'] / n:>14.6g} ratio  ({res['failed']} of {n})")
    print(f"  max_rel_gap      {max(finite, default=0.0):>14.6g} ratio  (over {len(res['gaps'])} "
          f"checked outputs, {len(res['gaps']) - len(finite)} with no finite gap)")
    print(f"  inputs  sha256 {res['inputs_digest']}")
    print(f"  outputs sha256 {res['outputs_digest']} ({res['items_digested']} items)")
    for key, count in res["failures"].items():
        print(f"  failed  {count!s:>5}  {key}")
    for example in res["examples"]:
        print(f"  e.g.    {example[:160]}")


def run(workload: str, seed: int, seconds: float, trace: int, facts: dict) -> dict:
    """One benchmark run; returns the result object printed last."""
    census = run_census(workload, seed, trace)
    if trace:
        res = (trace_cli(seed) if workload == "cli-session"
               else trace_inprocess(workload, seed))
        res["attempted"] = len(res["bad"])
        res["failed"] = sum(res["bad"])
        metrics, units = per_layer(res, census, seed), per_layer_units()
        if set(metrics) != set(units):
            raise RuntimeError(f"per-layer metrics differ from the list: {set(metrics) ^ set(units)}")
        for name, unit in units.items():
            print(f"  {name:40s} {metrics[name]:>14.6g} {unit}")
    else:
        setup = measure_setup(workload)
        res = (run_cli(seed, seconds) if workload == "cli-session"
               else run_inprocess(workload, seed, seconds))
        n = len(res["latencies"])
        res["attempted"] = n
        res["failed"] = sum(res["bad"][i % len(res["bad"])] for i in range(n))
        res["unscaled"] = end_to_end(res, res["latencies"], res["elapsed"], setup)
        metrics, units = res["unscaled"], END_TO_END
        if "speed" in res:
            metrics = end_to_end(res, res["scaled_latencies"], res["scaled_elapsed"], setup)
        notes = {
            "ops_per_s": f"{n} ops in {res['elapsed']:.2f} s",
            "latency_ms_p50": f"n={n}",
            "latency_ms_p90": f"n={n}, {n - math.ceil(0.9 * n)} beyond",
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "peak_rss_mb": "child processes" if workload == "cli-session" else "this process",
        }
        print(f"  {'metric':16s} {'value':>14s} {'unit':6s} {'unscaled':>12s}")
        for name, unit in units.items():
            print(f"  {name:16s} {metrics[name]:>14.6g} {unit:6s} "
                  f"{res['unscaled'][name]:>12.6g}  ({notes[name]})")
        if "speed" in res:
            f = res["speed"]
            print(f"  speed factor     median {statistics.median(f):.4g}, range {min(f):.4g}-"
                  f"{max(f):.4g} over {len(f)} probes (1 = nominal, above 1 = slower)")
        else:
            print("  times are unscaled: the work runs in child processes (see speed.py)")
    _report_checks("measured load", res)
    _report_checks("edge-band census (open defects, outside the measured load)", census)
    result = {
        "correct": res["broken"] == 0 and res["failed"] == 0 and census["broken"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    if trace:
        with open(OUT / f"spans-{stem}.jsonl", "w") as fh:
            for s in res["spans"]:
                fh.write(json.dumps(s) + "\n")
    keep = {k: v for k, v in res.items()
            if k not in ("latencies", "scaled_latencies", "spans", "bad", "speed")}
    keep["census"] = {k: v for k, v in census.items() if k not in ("spans", "bad")}
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({"machine": facts, "detail": keep, "result": result}, fh, indent=1, default=str)
    return result


def main(argv=None) -> int:
    _prepare()
    import machine
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    facts = machine.facts()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("machine " + json.dumps(facts, sort_keys=True))
    result = run(args.workload, args.seed, args.seconds, args.trace, facts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
