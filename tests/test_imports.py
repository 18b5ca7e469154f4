"""Package layout rules that hold for every module under src/bml."""

import ast
import math
import os
import subprocess
import sys
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


def test_every_private_default_is_overridden():
    """Each defaulted parameter of a private function in src/bml is passed
    by at least one call there (by position, by keyword, or through * or
    **), so a knob that every caller leaves at one value fails."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    calls = {}
    for node in nodes:
        if isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            calls.setdefault(name, []).append(node)
    unused = []
    for fn in nodes:
        if not isinstance(fn, ast.FunctionDef) or not fn.name.startswith("_") or fn.name.startswith("__"):
            continue
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
        keyword = zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        defaulted += [(math.inf, a.arg) for a, d in keyword if d is not None]
        for index, name in defaulted:
            if not any(
                len(call.args) > index
                or any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg in (name, None) for k in call.keywords)
                for call in calls.get(fn.name, [])
            ):
                unused.append(f"{fn.name}({name}=...)")
    assert unused == []


def test_every_solver_is_called_from_another_module():
    """Each top-level function of `bml.solvers` is called from another
    module of src/bml, so a solver that only the tests call fails."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    solvers = {node.name for node in trees["solvers.py"].body if isinstance(node, ast.FunctionDef)}
    called = {
        node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        for module, tree in trees.items()
        if module != "solvers.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert solvers and sorted(solvers - called) == []


def test_cli_imports_only_the_standard_library_numpy_and_bml():
    """`import bml.cli` in a fresh interpreter loads no third-party module
    besides numpy, and neither numpy.polynomial nor numpy.fft (which only
    circle evaluation loads): the start-up time and the resident memory of
    every `bml` process depend on it."""
    script = (
        "import sys; before = set(sys.modules); import bml.cli; "
        "print('\\n'.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    loaded = out.stdout.split()
    assert "bml.cli" in loaded
    assert "numpy.polynomial" not in loaded
    assert "numpy.fft" not in loaded
    outside = {name.split(".")[0] for name in loaded} - set(sys.stdlib_module_names) - {"numpy", "bml"}
    assert outside == set()
