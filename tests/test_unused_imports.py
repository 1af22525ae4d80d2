"""Every imported name in the package modules and the tests is read somewhere.

No linter is assumed: each module's syntax tree is walked with `ast`. A name
counts as read when it appears as a loaded `Name`, in code or in an
unquoted annotation. `__init__.py` is left out, because its imports are the
package's exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "liegrowth").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _read(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    read = _read(tree)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_each_kind_of_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from typing import Sequence, Mapping as M\n"
        "from fractions import Fraction\n"
        "def f(x: Sequence[int]) -> M:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [(3, "j"), (5, "Fraction")]
