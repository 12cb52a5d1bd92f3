"""Smoke test: the demos under demos/ run to completion.

Each demo runs in a fresh interpreter with TMPDIR pointed at the test's
temporary directory, so the run directories a demo makes stay there.
material_values_demo.py is left out: it trains for about ten seconds, more
than the rest of this file together, and uses only calls the others and the
unit tests already make.
"""

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
