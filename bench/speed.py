"""Machine-speed reference for the in-process timings.

Other tenants of the machine slow it by 10-30 % for minutes at a time,
which no affordable run length averages out.  A fixed pure-Python kernel,
timed between windows of work in the same process, follows that drift
closely (over 20-second blocks of certify-mix its time correlated at 0.94
with the inverse throughput), so the in-process workloads scale each
window's times by the median factor of the probes around it: times read as
on a machine where the kernel takes REF_NOMINAL_S, its typical time on an
Intel Xeon (KVM, 2 vCPUs) with python 3.11.  Work in child processes
(cli-session, set-up time) stays unscaled, because a probe in a parent that
has been waiting on a child reads a cold, slower CPU.  Two other references
were tried for it and dropped: a reference child (``python -c "import
numpy"``) timed after each CLI call (over five cli-session runs the spread
of latency_ms_p50 was 0.17 unscaled, 0.16 scaled), and this kernel run
without pause for a second before and after the set-up children (over ten
certify-mix runs it widened the spread of setup_s from 0.12 to 0.23).
Reports print the unscaled figures and the factors too.
"""

from __future__ import annotations

import math
import statistics
import time

REF_NOMINAL_S = 1.25e-3


def reference_kernel() -> float:
    s = 0.0
    for i in range(10000):
        s += math.sqrt(i * 0.5) * i
    return s


def factor() -> float:
    """Speed factor now: 1.0 at the nominal speed, above 1 when slower.
    The fastest of three runs, so that one interrupt does not count."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best / REF_NOMINAL_S


class Speed:
    """Factors probed before the first window of work and after each one;
    window w is scaled by the median of the six probes around it."""

    def __init__(self) -> None:
        self.factors: list[float] = [factor()]

    def probe(self) -> None:
        self.factors.append(factor())

    def at(self, w: int) -> float:
        """Factor of window w, the work between probes w and w + 1."""
        return statistics.median(self.factors[max(0, w - 2):w + 4])
