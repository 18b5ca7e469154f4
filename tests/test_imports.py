"""Package layout rules that hold for every module under src/bml."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bml"


def test_no_module_imports_private_names_of_another():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                source = "." * node.level + (node.module or "")
                found += [
                    f"{path.name}: from {source} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []


def test_every_private_top_level_name_is_used():
    """A module's private top-level name is loaded somewhere in src/bml
    outside the statement that defines it (helpers left behind fail)."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    attributes = {
        node.attr for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }
    unused = []
    for module, tree in sorted(trees.items()):
        defined, used = [], set(attributes)
        for statement in tree.body:
            names = []
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [statement.name]
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            names = [n for n in names if n.startswith("_") and not n.startswith("__")]
            defined += names
            used |= {n.id for n in ast.walk(statement) if isinstance(n, ast.Name)} - set(names)
        unused += [f"{module}: {name}" for name in defined if name not in used]
    assert unused == []
