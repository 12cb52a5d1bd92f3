"""Guard: every definition in src/tdsearch is reached from src/tdsearch.

A top-level function or class, or a non-dunder method, whose name no
ast.Name or ast.Attribute anywhere in src/ refers to (references inside its
own body do not count) is code that only tests reach.  Such code belongs in
tests/ (oracles.py for reference implementations) or nowhere.  Imports and
__all__ strings are not references, so a re-export does not keep a name
alive.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tdsearch"

# Names exempt from the guard.  Empty: test-only code lives in tests/.
ALLOWED = set()


def _definitions(module):
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def unreferenced(root=SRC):
    """(name, "file:line qualname") for each definition nothing else names."""
    modules = {path.relative_to(root).as_posix(): ast.parse(path.read_text(), str(path))
               for path in sorted(root.rglob("*.py"))}
    refs = [(node.id if isinstance(node, ast.Name) else node.attr, node)
            for module in modules.values() for node in ast.walk(module)
            if isinstance(node, (ast.Name, ast.Attribute))]
    found = []
    for rel, module in modules.items():
        for qualname, node in _definitions(module):
            own = {id(n) for n in ast.walk(node)}
            if not any(name == node.name and id(ref) not in own for name, ref in refs):
                found.append((node.name, f"{rel}:{node.lineno} {qualname}"))
    return found


def test_every_src_definition_is_referenced_from_src():
    found = [where for name, where in unreferenced() if name not in ALLOWED]
    assert not found, "defined in src/tdsearch but never referenced there:\n" + "\n".join(found)


def terminal_rule_copies(root=SRC / "games"):
    """The "file:line Class" of each Game subclass that writes its own is_terminal.

    A game's one terminal rule is outcome(); Game.is_terminal derives from
    it, so a second copy could only disagree with it.
    """
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if (isinstance(node, ast.ClassDef)
                    and any(isinstance(b, ast.Name) and b.id == "Game" for b in node.bases)
                    and any(isinstance(item, ast.FunctionDef) and item.name == "is_terminal"
                            for item in node.body)):
                found.append(f"{path.name}:{node.lineno} {node.name}")
    return found


def test_games_define_outcome_only():
    found = terminal_rule_copies()
    assert not found, "Game subclasses that define is_terminal again:\n" + "\n".join(found)


# The functions that may take a dot product, as (file under src/tdsearch,
# top-level function).  Search leaves and replay then share one reduction.
DOT_OWNERS = {("evaluation.py", "raw_eval"), ("evaluation.py", "linear_evaluator")}
DOT_NAMES = {"dot", "vdot", "inner", "matmul", "einsum"}


def dot_products(root=SRC):
    """The "file:line" of each dot product in src/ outside DOT_OWNERS.

    A dot product is an attribute named in DOT_NAMES (np.dot, a bound
    ndarray .dot, called or not), a name imported as one of them, or the
    @ operator.
    """
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        module = ast.parse(path.read_text(), str(path))
        owned = {id(n) for node in module.body
                 if isinstance(node, ast.FunctionDef) and (rel, node.name) in DOT_OWNERS
                 for n in ast.walk(node)}
        for node in ast.walk(module):
            if id(node) not in owned and (
                    isinstance(node, ast.Attribute) and node.attr in DOT_NAMES
                    or isinstance(node, ast.alias) and node.name in DOT_NAMES
                    or isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)):
                found.append((rel, node.lineno))
    return [f"{rel}:{line}" for rel, line in sorted(found)]


def test_only_raw_eval_and_linear_evaluator_take_dot_products():
    found = dot_products()
    assert not found, "dot products outside raw_eval and linear_evaluator:\n" + "\n".join(found)


def test_dot_guard_finds_every_spelling(tmp_path):
    (tmp_path / "evaluation.py").write_text(
        "import numpy as np\n"
        "def raw_eval(w, f):\n    return np.dot(w, f)\n"
        "def linear_evaluator(w):\n    dot = w.dot\n    return lambda f: dot(f)\n"
        "def other(w, f):\n    return w.dot(f)\n")
    (tmp_path / "search.py").write_text(
        "from numpy import dot\nimport numpy as np\n"
        "def leaf(w, f):\n    return np.dot(w, f) + (w @ f) + np.inner(w, f)\n"
        "bound = np.ones(3).dot\n")
    assert dot_products(tmp_path) == ["evaluation.py:8", "search.py:1", "search.py:4",
                                      "search.py:4", "search.py:4", "search.py:5"]


# The one module that may import numpy: evaluation.py keeps the extractor
# buffers and takes the two dot products; weights and features elsewhere are
# tuples of Python floats.
NUMPY_OWNERS = {"evaluation.py"}


def numpy_imports(root=SRC):
    """The "file:line" of each import of numpy or a numpy submodule outside NUMPY_OWNERS."""
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel in NUMPY_OWNERS:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append(f"{rel}:{node.lineno}")
    return found


def test_only_evaluation_imports_numpy():
    found = numpy_imports()
    assert not found, "numpy imported outside evaluation.py:\n" + "\n".join(found)


def test_numpy_guard_finds_every_spelling(tmp_path):
    (tmp_path / "evaluation.py").write_text("import numpy as np\n")
    (tmp_path / "games").mkdir()
    (tmp_path / "games" / "evaluation.py").write_text("import numpy\n")
    (tmp_path / "learner.py").write_text(
        "import numpy\n"
        "import numpy as np\n"
        "from numpy import zeros\n"
        "import os, numpy.linalg\n"
        "from numpy.random import default_rng\n"
        "def f():\n    import numpy as lazy\n"
        "import numbers, numpy_like\n"
        "from . import numpy_shim\n"
        '"""import numpy"""\n')
    assert numpy_imports(tmp_path) == ["games/evaluation.py:1", "learner.py:1", "learner.py:2",
                                       "learner.py:3", "learner.py:4", "learner.py:5",
                                       "learner.py:7"]


# Where a MinichessState may be built: its material is kept right only by
# minichess's own from_text and successor; _replace carries it unchanged.
STATE_BUILDERS = {"games/minichess.py"}


def minichess_state_builds(root=SRC):
    """The "file:line" of each MinichessState built outside STATE_BUILDERS.

    A build is a call of the class, of an attribute of it (_make, __new__),
    or of anything with the class as its first argument (tuple.__new__ and
    its aliases); the class may be spelt as a name, an attribute such as
    mc.MinichessState, or a name it was imported as.
    """
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel in STATE_BUILDERS:
            continue
        module = ast.parse(path.read_text(), str(path))
        names = {"MinichessState"} | {alias.asname for node in ast.walk(module)
                                      if isinstance(node, ast.ImportFrom)
                                      for alias in node.names
                                      if alias.name == "MinichessState" and alias.asname}

        def is_class(node):
            return (isinstance(node, ast.Name) and node.id in names
                    or isinstance(node, ast.Attribute) and node.attr == "MinichessState")

        for node in ast.walk(module):
            if isinstance(node, ast.Call) and (
                    is_class(node.func)
                    or isinstance(node.func, ast.Attribute) and is_class(node.func.value)
                    or node.args and is_class(node.args[0])):
                found.append(f"{rel}:{node.lineno}")
    return found


def test_only_minichess_builds_a_minichess_state():
    found = minichess_state_builds()
    assert not found, "MinichessState built outside games/minichess.py:\n" + "\n".join(found)


def test_state_guard_finds_every_spelling(tmp_path):
    (tmp_path / "games").mkdir()
    (tmp_path / "games" / "minichess.py").write_text(
        "def successor(s):\n    return _new_tuple(MinichessState, tuple(s))\n"
        "START = MinichessState(*range(11))\n")
    (tmp_path / "evaluation.py").write_text(
        "from tdsearch.games import minichess as mc\n"
        "from tdsearch.games.minichess import MinichessState, MinichessState as S\n"
        "a = MinichessState(*range(11))\n"
        "b = mc.MinichessState(*range(11))\n"
        "c = _new_tuple(MinichessState, tuple(a))\n"
        "d = tuple.__new__(mc.MinichessState, tuple(a))\n"
        "e = MinichessState._make(a)\n"
        "f = S(*a)\n"
        "ok = a._replace(own=0), isinstance(a, MinichessState), 'MinichessState(1)'\n"
        "def g(s: MinichessState) -> MinichessState:\n    return s._replace(ply=0)\n")
    assert minichess_state_builds(tmp_path) == [
        "evaluation.py:3", "evaluation.py:4", "evaluation.py:5", "evaluation.py:6",
        "evaluation.py:7", "evaluation.py:8"]


# The run directory's file names.  tdsearch.rundir owns the layout, so no
# other module of src/ may spell one, not even in a comment or docstring.
RUN_FILE_NAME = re.compile(r"traces\.log|ratings\.csv|config\.json|weights_\S*snapshot")


def run_file_names(root=SRC):
    """The "file:line" of each run-directory file name spelt outside rundir.py."""
    return [f"{rel}:{n}"
            for path in sorted(root.rglob("*.py"))
            if (rel := path.relative_to(root).as_posix()) != "rundir.py"
            for n, line in enumerate(path.read_text().splitlines(), start=1)
            if RUN_FILE_NAME.search(line)]


def test_only_rundir_names_the_run_directory_files():
    found = run_file_names()
    assert not found, "run-directory file names outside rundir.py:\n" + "\n".join(found)


def test_run_file_guard_finds_every_spelling(tmp_path):
    (tmp_path / "rundir.py").write_text('LOG = "traces.log"\n')
    (tmp_path / "games").mkdir()
    (tmp_path / "games" / "rundir.py").write_text('name = "config.json"\n')
    (tmp_path / "cli.py").write_text(
        '"""Echoes out_dir/config.json."""\n'
        'path = run / "traces.log"\n'
        "rows = 'ratings.csv'\n"
        'numbered = f"weights_{k:06d}.snapshot"\n'
        'final = "weights_final.snapshot"  # written last\n'
        'other = re.compile(r"weights_(\\d+)\\.snapshot")\n'
        'kept = "traces" + ".txt", "weights", "ratings"\n')
    assert run_file_names(tmp_path) == ["cli.py:1", "cli.py:2", "cli.py:3", "cli.py:4",
                                        "cli.py:5", "cli.py:6", "games/rundir.py:1"]


# A reader of text the program writes takes only the writer's spelling, so
# it drops no whitespace: no strip, no split on runs of whitespace, and no
# splitlines, which also ends a line at "\r\n", "\r" and a missing final "\n".
STRIPS = {"strip", "lstrip", "rstrip", "splitlines"}
SPLITS = {"split", "rsplit"}


def _splits_on_whitespace(call):
    sep = call.args[0] if call.args else next(
        (k.value for k in call.keywords if k.arg == "sep"), None)
    return sep is None or isinstance(sep, ast.Constant) and sep.value is None


def whitespace_tolerant_readers(root=SRC):
    """The "file:line function call" of each strip or splitlines, or split without
    a separator, in a src/ function whose name ends in from_text or from_log."""
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and fn.name.endswith(("from_text", "from_log"))):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and (node.func.attr in STRIPS
                             or node.func.attr in SPLITS and _splits_on_whitespace(node))):
                    found.append(f"{rel}:{node.lineno} {fn.name} {node.func.attr}")
    return sorted(found)


def test_readers_take_only_the_writers_spelling():
    found = whitespace_tolerant_readers()
    assert not found, "readers that drop whitespace:\n" + "\n".join(found)


def test_reader_guard_finds_every_spelling(tmp_path):
    (tmp_path / "games").mkdir()
    (tmp_path / "games" / "g.py").write_text(
        "class G:\n"
        "    def from_text(self, text):\n"
        "        return text.strip().split()\n"
        "def traces_from_log(lines):\n"
        "    return [line.rstrip('\\n').rsplit(sep=None) for line in lines]\n"
        "def weights_from_text(text):\n"
        "    return text.lstrip(), text.split(None, 1), text.split(' '), text.split(sep=';')\n"
        "def to_text(text):\n"
        "    return text.strip().split()\n"
        "def snapshot_from_text(text):\n"
        "    return text.splitlines(), text.split('\\n')\n")
    assert whitespace_tolerant_readers(tmp_path) == [
        "games/g.py:11 snapshot_from_text splitlines",
        "games/g.py:3 from_text split", "games/g.py:3 from_text strip",
        "games/g.py:5 traces_from_log rsplit", "games/g.py:5 traces_from_log rstrip",
        "games/g.py:7 weights_from_text lstrip", "games/g.py:7 weights_from_text split"]


def test_the_package_root_imports_no_submodule():
    # Importing one module runs the package root first, so a root that
    # imported submodules would load them all: tdsearch.rng would bring numpy.
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import sys, tdsearch.rng; "
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('tdsearch')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.stdout == "['tdsearch', 'tdsearch.rng']\n", done.stdout + done.stderr
