"""Guard: every definition in src/tdsearch is reached from src/tdsearch.

A top-level function or class, or a non-dunder method, whose name no
ast.Name or ast.Attribute anywhere in src/ refers to (references inside its
own body do not count) is code that only tests reach.  Such code belongs in
tests/ (oracles.py for reference implementations) or nowhere.  Imports and
__all__ strings are not references, so a re-export does not keep a name
alive.
"""

import ast
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
