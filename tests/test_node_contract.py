"""Expression nodes and relators are slotted, not frozen, and never mutated.

`Bracket` and `Relator` are plain slotted dataclasses, so nothing at run time
stops an assignment to a field. Trees share nodes, a memo is keyed by node
identity and both types hash by value, so no module of the package may
assign to `.left`, `.right`, `.lhs` or `.rhs`; the dataclass constructors are
the only writers. Their `==`, `hash`, `repr` and `label` are those of the
frozen dataclasses they replace: through the text format for a `Bracket`,
and over the field tuple for a `Relator`.
"""

from __future__ import annotations

import ast
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from conftest import lie_dags, lie_exprs
from liegrowth.expr import Bracket, format_expr, parse_expr
from liegrowth.presentations import Relator

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "liegrowth").glob("*.py"))
FIELDS = {"left", "right", "lhs", "rhs"}
CONSTRUCTORS = {"__init__", "__post_init__", "__new__"}


def _targets(node: ast.AST) -> list[ast.AST]:
    """The expressions written by an assignment or a deletion, tuples unpacked."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        out = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For, ast.comprehension)):
        out = [node.target]
    elif isinstance(node, ast.withitem):
        out = [node.optional_vars]
    else:
        return []
    flat = []
    while out:
        target = out.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            out += target.elts
        elif isinstance(target, ast.Starred):
            out.append(target.value)
        elif target is not None:
            flat.append(target)
    return flat


def field_writes(source: str) -> list[tuple[int, str]]:
    """(line, field) of each write of a node field outside a constructor."""
    found = []

    def walk(node: ast.AST, in_constructor: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_constructor = node.name in CONSTRUCTORS
        elif not in_constructor:
            for target in _targets(node):
                if isinstance(target, ast.Attribute) and target.attr in FIELDS:
                    found.append((target.lineno, target.attr))
            # setattr(node, "left", v) and object.__setattr__(node, "left", v)
            if isinstance(node, ast.Call) and len(node.args) >= 2:
                func, name = node.func, node.args[1]
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in ("setattr", "__setattr__", "delattr", "__delattr__"):
                    if isinstance(name, ast.Constant) and name.value in FIELDS:
                        found.append((node.lineno, name.value))
        for child in ast.iter_child_nodes(node):
            walk(child, in_constructor)

    walk(ast.parse(source), False)
    return found


def test_no_module_writes_a_node_field():
    writes = {path.name: field_writes(path.read_text()) for path in MODULES}
    assert {name: w for name, w in writes.items() if w} == {}


def test_field_writes_are_found():
    source = """
class Node:
    def __init__(self, left):
        self.left = left

def mutate(b, r, pair):
    b.left = 1
    r.rhs += 1
    b.right, x = pair
    del r.lhs
    for b.left in pair:
        pass
    setattr(b, "right", 2)
    object.__setattr__(r, "lhs", 3)
    b.label = 4
    setattr(b, "kind", 5)
"""
    assert field_writes(source) == [(7, "left"), (8, "rhs"), (9, "right"), (10, "lhs"), (11, "left"), (13, "right"), (14, "lhs")]


def test_nodes_and_relators_are_slotted():
    b = parse_expr("[x1,x2]")
    for obj in (b, Relator(b), Relator(b, b)):
        assert not hasattr(obj, "__dict__")


@given(lie_exprs(max_size=7), lie_exprs(max_size=7))
def test_bracket_equality_hash_and_repr_go_through_the_text(e, f):
    for node in (e, f):
        if type(node) is Bracket:
            text = format_expr(node)
            copy = parse_expr(text)
            assert copy is not node and copy == node and hash(copy) == hash(node) == hash(text)
            assert repr(node) == f"parse_expr({text!r})"
            assert node != text and node != (node.left, node.right)
    assert (e == f) == (format_expr(e) == format_expr(f)) == (f == e)
    if e == f:
        assert hash(e) == hash(f)


@given(lie_dags(), lie_exprs(max_size=5), st.booleans(), st.booleans())
def test_relator_equality_hash_and_label_are_by_value(e, f, e_rhs, f_rhs):
    r = Relator(e, f if e_rhs else None)
    s = Relator(parse_expr(format_expr(e)), parse_expr(format_expr(f)) if e_rhs else None)
    other = Relator(f, e if f_rhs else None)
    assert r == s and hash(r) == hash(s) == hash((r.lhs, r.rhs))
    assert (r == other) == ((r.lhs, r.rhs) == (other.lhs, other.rhs))
    assert r != (r.lhs, r.rhs)
    assert r.label == (format_expr(e) if not e_rhs else f"{format_expr(e)} = {format_expr(f)}")
    assert len({r, s, other}) == (1 if r == other else 2)
