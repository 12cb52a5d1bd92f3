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
