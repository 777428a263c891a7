"""Output drift between two trees of the package, on the benchmark's inputs.

``run`` records the outputs of ``certify_op`` and ``audit_op`` from
``bench/workloads.py`` over the interior pools (3000 draws) and the edge-band
census draws (360 for certify, 180 for audit) of each seed, one JSON file
per tree; an operation that raises is recorded as its error type.  Each
audit item also records where ``oracle.sigma_star`` puts the supremum, its
``argsup_l`` and ``side`` (or the error type), as ``argsup.*`` keys.
``compare`` reads two such files and prints, for each output key, how many
values changed and the largest absolute and relative drift, in one table for
the interior pools and one for the census draws (an edge draw's drift would
hide the interior's in a mixed table), then every
outcome change (a value on one side, an error on the other, or two
different errors), then the oracle-audit check failures of each side.

Run it from the root of each tree, with that tree's ``src`` on the path::

    PYTHONPATH=src python tests/drift.py run change.json
    (cd ../parent && PYTHONPATH=src python /path/to/tests/drift.py run parent.json)
    PYTHONPATH=src python tests/drift.py compare parent.json change.json

The file is not a ``test_*.py`` module, so the test suite does not collect it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
POOL = 3000
CENSUS = {"certify": 360, "audit": 180}


def _flat(doc, prefix: str = "") -> dict:
    """A nested output as {"a.b": leaf}."""
    if not isinstance(doc, dict):
        return {prefix: doc}
    out = {}
    for key, val in doc.items():
        out.update(_flat(val, f"{prefix}.{key}" if prefix else str(key)))
    return out


def _argsup(W, d) -> dict:
    """The oracle's argsup and side on the draw's shape."""
    try:
        res = W.oracle.sigma_star(*W.shape(d))
    except Exception as exc:  # noqa: BLE001 - the outcome is the record
        return {"argsup.error": type(exc).__name__}
    return {"argsup.l": res.argsup_l, "argsup.side": res.side}


def record(seeds) -> dict:
    """{item id: flat output or {"error": type name}} for every operation."""
    sys.path.insert(0, str(BENCH))
    import workloads as W

    ops = {"certify": W.certify_op, "audit": W.audit_op}
    out = {}
    for seed in seeds:
        for name, op in ops.items():
            for edge, n in ((False, POOL), (True, CENSUS[name])):
                for k, d in enumerate(W.draw_pool(seed, n, edge=edge)):
                    item = f"{name}/seed{seed}/{'census' if edge else 'pool'}/{k}/{d.family}/{d.kind}"
                    try:
                        out[item] = _flat(op(d))
                        if name == "audit":
                            out[item].update(_argsup(W, d))
                    except Exception as exc:  # noqa: BLE001 - the outcome is the record
                        out[item] = {"error": type(exc).__name__}
    return out


def _outcome(doc: dict) -> str:
    return doc["error"] if "error" in doc else "value"


def _drift(a, b) -> tuple[float, float]:
    """(absolute, relative) drift of two leaves; inf where they differ in
    kind, such as a number against a string or an infinity."""
    if a == b:
        return 0.0, 0.0
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and math.isfinite(a) and math.isfinite(b):
        gap = abs(b - a)
        return gap, gap / max(abs(a), 1e-300)
    return math.inf, math.inf


def compare(old: dict, new: dict) -> None:
    keys: dict[str, list] = {}
    outcomes = []
    for item in sorted(old.keys() & new.keys()):
        a, b = old[item], new[item]
        if _outcome(a) != _outcome(b):
            outcomes.append(f"  {item}: {_outcome(a)} -> {_outcome(b)}")
            continue
        op, _, where = item.split("/")[:3]
        for key in sorted(a.keys() | b.keys()):
            stat = keys.setdefault((where, f"{op}.{key}"), [0, 0, 0.0, 0.0])
            stat[0] += 1
            absd, reld = _drift(a.get(key), b.get(key))
            if absd or reld:
                stat[1] += 1
                stat[2], stat[3] = max(stat[2], absd), max(stat[3], reld)
    for where in ("pool", "census"):
        print(f"{where + ' key':48} {'values':>7} {'changed':>8} {'max abs':>10} {'max rel':>10}")
        for (side, key), (n, changed, absd, reld) in sorted(keys.items()):
            if side == where:
                print(f"{key:48} {n:7d} {changed:8d} {absd:10.3g} {reld:10.3g}")
    print(f"outcome changes: {len(outcomes)}", *outcomes, sep="\n")
    missing = old.keys() ^ new.keys()
    if missing:
        print(f"items in one file only: {len(missing)}")

    sys.path.insert(0, str(BENCH))
    import workloads as W

    for side, doc in (("old", old), ("new", new)):
        fails = Counter()
        for item, out in doc.items():
            if item.startswith("audit/") and "error" not in out:
                reason = W.check_audit(out)[0]
                if reason is not None:
                    fails[f"{item.split('/')[4]} / {item.split('/')[5]} / {reason.split(' ')[0]}"] += 1
        print(f"audit check failures, {side}: {sum(fails.values())} {dict(sorted(fails.items()))}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="record the outputs of this tree")
    run.add_argument("out")
    run.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    cmp = sub.add_parser("compare", help="compare two recorded files")
    cmp.add_argument("old")
    cmp.add_argument("new")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        with open(args.out, "w") as fh:
            json.dump(record(args.seeds), fh)
    else:
        with open(args.old) as fa, open(args.new) as fb:
            compare(json.load(fa), json.load(fb))
    return 0


if __name__ == "__main__":
    sys.exit(main())
