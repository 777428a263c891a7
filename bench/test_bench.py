"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
(the repository's own suite under tests/ does not collect this file).
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads as W  # noqa: E402

EXACT = re.compile(r"^solver\.|^(core|oracle)\.points$|\.calls$|\.errors$|^fukasawa\.noroot$|^cli\.exit2$")


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every size the runs use, and keep their files in tmp_path."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "POOL", {"certify-mix": 200, "oracle-audit": 30})
    monkeypatch.setattr(run, "TRACE_OPS", {"certify-mix": 100, "oracle-audit": 10})
    monkeypatch.setattr(run, "CENSUS", {"certify-mix": 60, "oracle-audit": 30})
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORTTIME_REPEATS", 1)
    full = W.cli_commands
    monkeypatch.setattr(W, "cli_commands", lambda seed: full(seed)[:2])


def _outcomes(pool, op):
    out = []
    for d in pool:
        try:
            out.append(op(d))
        except Exception as exc:  # noqa: BLE001 - the digest records failures too
            out.append({"error": type(exc).__name__})
    return out


def test_generator_is_deterministic():
    a, b = W.draw_pool(7, 300), W.draw_pool(7, 300)
    assert W.inputs_bytes(a) == W.inputs_bytes(b)
    assert W.inputs_bytes(W.draw_pool(8, 300)) != W.inputs_bytes(a)
    assert W.draw_pool(7, 60) == a[:60]  # a shorter pool is a prefix
    assert W.digest(_outcomes(a, W.certify_op)) == W.digest(_outcomes(b, W.certify_op))
    assert W.digest(_outcomes(a[:15], W.audit_op)) == W.digest(_outcomes(b[:15], W.audit_op))
    assert W.cli_commands(7) == W.cli_commands(7)
    edge = W.draw_pool(7, 90, edge=True)
    assert W.inputs_bytes(edge) == W.inputs_bytes(W.draw_pool(7, 90, edge=True))


def test_entry_points_and_edge_band():
    pool = W.draw_pool(3, 1000)
    assert all(d.kind == "interior" for d in pool)
    census = W.draw_pool(3, run.CENSUS["certify-mix"], edge=True)
    for family in W.FAMILIES:
        assert sum(d.family == family for d in pool) == 200
        edge = [d for d in census if d.family == family]
        kinds = W.EDGE_KINDS[family]
        assert len(edge) % (len(kinds) * W.EDGE_DECADES) == 0  # every kind x decade equally
        assert {d.kind for d in edge} == set(kinds)
        assert all(1e-14 <= d.eps <= 1e-2 for d in edge)
        decades = {(d.kind, math.floor(-math.log10(d.eps))) for d in edge}
        assert len(decades) == len(kinds) * W.EDGE_DECADES


def test_metric_names_and_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    for name in [*e2e, *layers, *(w["name"] for w in spec["workloads"])]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert e2e["setup_s"] == "s"


@pytest.mark.parametrize("workload", W.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(tiny, workload, trace):
    result = run.run(workload, 1, 0.2, trace, {})
    expected = run.per_layer_units() if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, m in result["metrics"].items():
        assert m["unit"] == expected[name]
        assert isinstance(m["value"], (int, float)) and m["value"] == m["value"], name
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert result["correct"] is True


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_traced_counts_repeat_exactly(tiny, workload):
    first = run.run(workload, 4, 0.2, 1, {})["metrics"]
    second = run.run(workload, 4, 0.2, 1, {})["metrics"]
    exact = [n for n in first if EXACT.search(n)]
    assert "core.points" in exact and "solver.brentq.fevals" in exact
    assert {n: first[n]["value"] for n in exact} == {n: second[n]["value"] for n in exact}


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   _io",
        "import time:       300 |        300 |         numpy._core",
        "import time:       200 |        500 |       numpy",
        "import time:        50 |         50 |           scipy",
        "import time:        70 |        120 |         scipy.optimize",
        "import time:        30 |        150 |       smile_domain.fukasawa",
        "import time:        10 |        660 |     smile_domain",
        "import time:        40 |        700 | smile_domain.cli",
    ])
    assert run.parse_importtime(stderr) == {
        "cli.import_ms": 0.7, "cli.import_scipy_ms": 0.12, "cli.import_numpy_ms": 0.5}


def _bench(cwd: Path, env_extra: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(env_extra or {})
    argv = [sys.executable, "bench/run.py", "--workload", "certify-mix", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_refuses_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_refuses_with_grid_override():
    proc = _bench(ROOT, {"SMILE_DOMAIN_GRID": "2001"})
    assert proc.returncode == 2
    assert '"metrics"' not in proc.stdout
