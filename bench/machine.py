"""Machine and environment facts recorded with every run.

Read only from /proc, ``lscpu`` and the interpreter; nothing is changed.
"""

from __future__ import annotations

import os
import platform
import subprocess


def _lscpu() -> dict[str, str]:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                             env={**os.environ, "LC_ALL": "C"}).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    return {k.strip(): v.strip() for k, _, v in (ln.partition(":") for ln in out.splitlines())}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loadavg() -> list[float]:
    try:
        with open("/proc/loadavg") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return []


def facts() -> dict:
    import numpy
    import scipy

    cpu = _lscpu()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_cache": cpu.get("L2 cache", "unknown"),
        "l3_cache": cpu.get("L3 cache", "unknown"),
        "loadavg_at_start": _loadavg(),
        "smile_domain_grid_set": "SMILE_DOMAIN_GRID" in os.environ,
    }
