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
