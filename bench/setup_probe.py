"""Set-up time of one workload in a fresh interpreter.

Usage: python3 bench/setup_probe.py WORKLOAD  (with the library's src/ on
PYTHONPATH).  Prints the seconds from the first line of this script to the
end of one warm-up call into each layer the workload uses, import of
``smile_domain`` included.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402 - imports smile_domain, which is the cost measured

workloads.warm_up(sys.argv[1])
print(repr(time.perf_counter() - T0))
