"""Every library function the benchmark's span recorder wraps exists.

The recorder in bench/spans.py looks each name of its TRACED table up with
getattr when it installs; a renamed or removed function would only fail
there.  The table is read from the source, without importing the bench.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
