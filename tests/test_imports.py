"""Every module of the package and of the test suite reads each name it
imports: an `ast` scan, since no linter is a dependency."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# a package's __init__ imports to re-export, as pyflakes reads it too
MODULES = sorted(
    p for p in [*(ROOT / "src" / "spinkin").glob("*.py"), *(ROOT / "tests").glob("*.py")] if p.name != "__init__.py"
)


def _names_in_annotation(node: ast.expr | None) -> set[str]:
    """The names a string annotation such as "FourMomentum" reads."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list[str]:
    """The names that the imports of `source` bind and nothing in it reads:
    not as a name, not as the root of an attribute, not through `__all__`
    and not in a string annotation."""
    tree = ast.parse(source)
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs, node.args.vararg, node.args.kwarg):
                read |= _names_in_annotation(arg.annotation if arg else None)
            read |= _names_in_annotation(node.returns)
        elif isinstance(node, ast.AnnAssign):
            read |= _names_in_annotation(node.annotation)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import spinkin.dirac\n"
        "from math import pi, tau\n"
        "from typing import Any\n"
        "__all__ = ['pi']\n"
        "def f(x: 'Any') -> None:\n"
        "    return np.zeros(spinkin.dirac.X)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 5: tau"]
