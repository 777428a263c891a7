"""Every library function the benchmark's span recorder wraps exists.

The recorder in bench/spans.py imports smile_domain.cli, then looks each
name of its TRACED table up with getattr in the layer's loaded module when
it installs; a renamed or removed function, or a layer the cli does not
load, would only fail there.  The table is read from the source, without
importing the bench.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def _traced() -> dict[str, tuple[str, ...]]:
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED table in bench/spans.py")


NAMES = [(layer, name) for layer, names in _traced().items() for name in names]


@pytest.mark.parametrize("layer, name", NAMES, ids=[f"{l}.{n}" for l, n in NAMES])
def test_traced_name_exists(layer, name):
    module = importlib.import_module(f"smile_domain.{layer}")
    assert callable(getattr(module, name, None))


def test_cli_import_loads_every_traced_layer():
    # the recorder imports smile_domain.cli alone, then reads each layer's
    # module from sys.modules: numpy loads on first use, the modules do not
    script = "import json, sys\nimport smile_domain.cli\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert [layer for layer in _traced() if f"smile_domain.{layer}" not in loaded] == []
