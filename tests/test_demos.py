"""Smoke test: the demos under demos/ run to completion.

Each demo runs in a fresh interpreter with TMPDIR pointed at the test's
temporary directory, so the run directories a demo makes stay there.
material_values_demo.py is left out: it trains for about ten seconds, more
than the rest of this file together, and uses only calls the others and the
unit tests already make.  Every demo's tdsearch imports are checked without
running it.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tdsearch

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["games_tour", "reference_trees", "update_anatomy",
                                  "pool_training_demo"])
def test_demo_runs(tmp_path, name):
    src = str(Path(tdsearch.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)}
    done = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda path: path.stem)
def test_demo_imports_resolve(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "tdsearch":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{path.name}:{node.lineno} {alias.name}"
