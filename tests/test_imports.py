"""No module-level import goes unused in the package or its tests."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(ROOT.glob("src/smile_domain/*.py")) + sorted(ROOT.glob("tests/*.py"))


def unused_imports(source: str, is_init: bool = False) -> list[str]:
    """Names bound by the module's top-level imports and never read; in an
    ``__init__.py`` a name listed in ``__all__`` is read."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    if is_init:
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            ):
                used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_scanner_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from json import dumps as to_json, loads\n"
        "__all__ = ['loads']\n"
        "def f():\n"
        "    return os.path.join(to_json(1))\n"
    )
    assert unused_imports(source) == ["math (line 2)", "loads (line 4)"]
    assert unused_imports(source, is_init=True) == ["math (line 2)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_imports(path):
    unused = unused_imports(path.read_text(), is_init=path.name == "__init__.py")
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def test_importing_the_cli_loads_neither_scipy_nor_mpmath():
    # numpy is the only runtime dependency; scipy and mpmath are test tools
    code = "import sys, smile_domain.cli; print([m for m in ('scipy', 'mpmath') if m in sys.modules])"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
