"""Compare measured medians with the ROADMAP item 1 baseline table.

Usage, from the repository root, after runs of every workload with several
seeds (--trace 0 and --trace 1):

    python3 bench/baseline.py

Reads the result files in .bench_out/, takes for each entry the median and
the spread (first to third quartile) over the seeds, and lists every entry
whose baseline lies further from the median than that spread.  Traced
durations include the span recorder's overhead; trace.overhead_ratio in the
same files gives its size.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".bench_out"

# (entry, workload, trace, metric, scale to the baseline's unit, low, high, unit)
BASELINE = [
    ("ssvi.certify", "certify-mix", 1, "ssvi.certify.us_p50", 1.0, 822, 822, "us"),
    ("symmetric.certify", "certify-mix", 1, "symmetric.certify.us_p50", 1.0, 619, 619, "us"),
    ("vanishing.certify", "certify-mix", 1, "vanishing.certify.us_p50", 1.0, 102, 102, "us"),
    ("extremal.certify", "certify-mix", 1, "extremal.certify.us_p50", 1.0, 12, 12, "us"),
    ("mu_interval", "oracle-audit", 1, "fukasawa.mu_interval.us_p50", 1.0, 742, 742, "us"),
    ("oracle sigma_star", "oracle-audit", 1, "oracle.sigma_star.ms_p50", 1.0, 4.6, 7.6, "ms"),
    ("durrleman_check", "oracle-audit", 1, "oracle.durrleman_check.ms_p50", 1e3, 676, 676, "us"),
    ("fukasawa_threshold", "oracle-audit", 1, "fukasawa.fukasawa_threshold.ms_p50", 1.0, 28, 28, "ms"),
    ("scan_uniqueness 1000x1000", "cli-session", 1, "ssvi.scan_uniqueness.ms_p50", 1.0, 252, 252, "ms"),
    ("CLI call (p50 of the session)", "cli-session", 0, "latency_ms_p50", 1e-3, 1.11, 1.11, "s"),
    ("import smile_domain", "cli-session", 1, "cli.import_ms", 1e-3, 0.86, 0.86, "s"),
    ("of which scipy.optimize", "cli-session", 1, "cli.import_scipy_ms", 1e-3, 0.63, 0.63, "s"),
]


def _values(workload: str, trace: int, metric: str) -> list[float]:
    out = []
    for path in sorted(OUT.glob(f"result-{workload}-seed*-trace{trace}.json")):
        result = json.loads(path.read_text())["result"]
        out.append(result["metrics"][metric]["value"])
    return out


def main() -> int:
    differs = []
    print(f"{'entry':32s} {'baseline':>14s} {'median':>10s} {'spread':>9s} {'n':>3s}")
    for entry, workload, trace, metric, scale, low, high, unit in BASELINE:
        vals = [v * scale for v in _values(workload, trace, metric)]
        if not vals:
            print(f"{entry:32s} no results for {workload} --trace {trace}")
            continue
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = q[2] - q[0]
        base = f"{low:g}" if low == high else f"{low:g}-{high:g}"
        print(f"{entry:32s} {base + ' ' + unit:>14s} {med:>10.4g} {spread:>9.3g} {len(vals):>3d}")
        distance = max(low - med, med - high, 0.0)
        if distance > spread:
            differs.append(f"{entry}: baseline {base} {unit}, measured {med:.4g} {unit} "
                           f"(spread {spread:.3g}, n={len(vals)})")
    print("\nentries that differ by more than the measured spread:")
    for line in differs or ["none"]:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
