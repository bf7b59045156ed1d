"""Every module of the package and of the test suite reads each name it
imports, and every private module-level name of the package is read by the
package: `ast` scans, since no linter is a dependency."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# a package's __init__ imports to re-export, as pyflakes reads it too
SRC_MODULES = sorted((ROOT / "src" / "spinkin").glob("*.py"))
MODULES = sorted(p for p in [*SRC_MODULES, *(ROOT / "tests").glob("*.py")] if p.name != "__init__.py")


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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private names (one leading underscore, not dunder) that the top
    level of a module of `sources` binds by def, class, assignment or loop,
    and that no module of `sources` reads: as a name, or as an attribute
    such as `elko._name`."""
    defined, read = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.For)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.setdefault(name, f"{module}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{where}: {name}" for name, where in defined.items() if name not in read]


def test_every_private_name_is_read_by_the_package():
    # a helper left behind by a move, or one only the tests call, fails here
    assert unread_private_names({p.name: p.read_text() for p in SRC_MODULES}) == []


def test_scan_flags_an_unread_private_name():
    sources = {
        "a.py": (
            "import b\n"
            "__all__ = ['f']\n"
            "_TABLE, _UNUSED = 1, 2\n"
            "def _helper():\n"
            "    return _TABLE\n"
            "def _left_behind():\n"
            "    return 0\n"
            "class _Kept:\n"
            "    pass\n"
            "def f():\n"
            "    return _helper() + b._from_a()\n"
        ),
        "b.py": "import a\ndef _from_a():\n    return a._Kept\n",
    }
    assert unread_private_names(sources) == ["a.py:3: _UNUSED", "a.py:6: _left_behind"]
