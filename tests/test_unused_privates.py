"""Every private function and method defined in the package is used in it.

A private name starts with one underscore and is not a dunder. A helper that
a change leaves without callers fails here. As in `test_unused_imports`, no
linter is assumed: the syntax trees of all package modules are walked with
`ast`. A definition counts as used when its name is read anywhere in the
package (a loaded `Name` or an attribute such as `self._helper`), outside
the body of that definition, so a helper that only calls itself is unused.
Tests do not count: code kept only for them does not belong in the package.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liegrowth"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _walk(node: ast.AST, inside: tuple[str, ...], defs: list, reads: set) -> None:
    """Record the private defs under `node`, and each name read with the defs it is read in."""
    if isinstance(node, _DEFS):
        if _private(node.name):
            defs.append(node.name)
        inside += (node.name,)
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        reads.add((node.id, inside))
    elif isinstance(node, ast.Attribute):
        reads.add((node.attr, inside))
    for child in ast.iter_child_nodes(node):
        _walk(child, inside, defs, reads)


def unused_privates(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each private def whose name no code outside it reads."""
    defs: list[tuple[str, str]] = []
    reads: set[tuple[str, tuple[str, ...]]] = set()
    for module, source in sources.items():
        names: list[str] = []
        _walk(ast.parse(source), (), names, reads)
        defs += ((module, name) for name in names)
    used = {name for name, inside in reads if name not in inside}
    return sorted((module, name) for module, name in defs if name not in used)


def test_no_unused_private_functions():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_privates(sources) == []


def test_the_check_sees_each_kind_of_use():
    sources = {
        "a.py": (
            "def _called(): pass\n"
            "def _unused(): pass\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "def __dunder__(): pass\n"
            "class C:\n"
            "    def _method(self): return self._other()\n"
            "    def _other(self): pass\n"
            "    def public(self): return _called\n"
        ),
        "b.py": "from a import C\nC._method\n",
    }
    assert unused_privates(sources) == [("a.py", "_recursive"), ("a.py", "_unused")]
