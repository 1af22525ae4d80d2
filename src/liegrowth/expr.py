"""Lie expressions over a typed generator alphabet, with left-normed expansion.

Generators come in four families:

* ``x`` — abstract generators of the free metabelian algebra,
* ``a`` — module basis vectors of a wreath-product model,
* ``t`` — torus generators (polynomial variables),
* ``u`` — torus square generators (acting as t^2).

Programmatic indices are 0-based everywhere; only the text format is 1-based.
An expression is either a ``Generator`` (a leaf) or a ``Bracket`` of two
expressions. The text format writes ``x1`` for leaves and ``[e1,e2]`` for
brackets, and a flat list ``[a1,t2,t2]`` abbreviates the left-nested
``[[a1,t2],t2]``, so ``format_expr`` and ``parse_expr`` round-trip exactly.

Every walk over a tree is one post-order fold, ``_fold``: one loop over one
stack that holds the right children still to walk and, under a marker, each
bracket whose children are being walked. ``format_expr``, ``left_normalize``
and ``evaluate`` differ only in what they do at a leaf and at a bracket.
``_fold`` and ``evaluate`` can carry a node memo (``Memo``) across calls. The
memo holds the value of every node folded, leaf or bracket, so trees that
share nodes, as the relators of a presentation share their leaves and towers,
look up each shared leaf and walk and bracket each shared tower once; and one
memo serves one assignment and one bracket. ``parse_expr`` is one loop
over the text with a stack of open brackets. A ``Bracket``'s ``==``,
``hash`` and ``repr`` go through the text format, which ``format_expr``
writes in time linear in the size of the tree. None of these recurses, so
no depth of tree reaches the interpreter's recursion limit.

A ``Bracket`` is a slotted dataclass, not a frozen one, so that making one
costs no ``object.__setattr__`` per field. It must still never be mutated:
trees share nodes, a memo is keyed by node identity, and the hash is that of
the text, so only the constructor sets ``left`` and ``right``.

``left_normalize`` rewrites any expression as an exact integer combination of
left-normed words (words w = (w0, w1, ..., wk) standing for the iterated
bracket [[..[w0,w1],..],wk]). The rewrite uses the Jacobi identity on the
right factor, [p,[q,r]] = [[p,q],r] - [[p,r],q], recursing until every right
factor is a single letter. The result is a combination equal to the input in
every Lie algebra; no algebra-specific relations are applied at this layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial, reduce
from typing import Callable, Mapping, Sequence, TypeVar, Union

from .poly import add_into, check_int

KINDS = ("x", "a", "t", "u")

V = TypeVar("V")


class ParseError(ValueError):
    pass


class UnboundGeneratorError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class Generator:
    kind: str
    index: int  # 0-based

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator family {self.kind!r}")
        if type(self.index) is not int or self.index < 0:
            raise ValueError("generator index must be an int >= 0")

    def __str__(self) -> str:
        return f"{self.kind}{self.index + 1}"


# slotted, not frozen (module docstring): never assign to a node's fields
@dataclass(slots=True, eq=False, repr=False)
class Bracket:
    left: "LieExpr"
    right: "LieExpr"

    # through the text format, which round-trips exactly and never recurses
    def __eq__(self, other: object) -> bool:
        return type(other) is Bracket and format_expr(self) == format_expr(other)

    def __hash__(self) -> int:
        return hash(format_expr(self))

    def __repr__(self) -> str:
        return f"parse_expr({format_expr(self)!r})"


LieExpr = Union[Generator, Bracket]

Word = tuple[Generator, ...]
Combination = dict[Word, int]
# a node memo of _fold: id(node) -> (node, value) for every node folded, leaf or bracket; keeping
# the node keeps its id from reuse. Its values come from one leaf function and one bracket
Memo = dict[int, tuple[LieExpr, V]]
# on _fold's stack, marks that both children of the node beneath it are folded
_BRACKETED = object()


def _fold(e: LieExpr, leaf: Callable[[Generator], V], bracket: Callable[[V, V], V], memo: Memo | None = None) -> V:
    """Post-order fold: leaf(gen) at each leaf, bracket(left, right) at each bracket.

    One stack, `todo`, walked by one loop, so no depth of tree reaches the
    recursion limit. A node that is neither a `Generator` nor a `Bracket`
    raises `ValueError`; nothing else checks a node, as the presentation
    builders make thousands. A bracket goes on `todo` under `_BRACKETED`,
    with its right child on top, and its left child is walked next, straight
    away. `_BRACKETED` popped means the values of its node's two children top
    `values`, which holds only values still waiting for their bracket.

    With a `memo`, a node found there is read, not folded again, and the value
    of each node folded, leaf or bracket, is recorded under its node.
    """
    todo: list[object] = []
    values: list[V] = []
    node: object = e
    while True:
        if node is _BRACKETED:
            node = todo.pop()
            right = values.pop()
            values[-1] = value = bracket(values[-1], right)
            if memo is not None:
                memo[id(node)] = (node, value)
        elif memo is not None and (entry := memo.get(id(node))) is not None:
            values.append(entry[1])
        elif type(node) is Generator:
            values.append(value := leaf(node))
            if memo is not None:
                memo[id(node)] = (node, value)
        elif type(node) is Bracket:
            todo += (node, _BRACKETED, node.right)
            node = node.left
            continue
        else:
            raise _not_a_node(node)
        if not todo:
            return values[0]
        node = todo.pop()


def _not_a_node(node: object) -> ValueError:
    return ValueError(f"expression node must be a Generator or a Bracket, not {type(node).__name__}")


# ---------------------------------------------------------------- text format

def format_expr(e: LieExpr) -> str:
    # a left factor that is a bracket prints as a list, and the right factor
    # joins that list, so left-normed chains print as flat lists. The fold's
    # values are start indices into `pieces`, one piece per leaf and one "]"
    # per bracket; a piece gains at most two characters, so the time is linear
    pieces: list[str] = []

    def leaf(gen: Generator) -> int:
        pieces.append(str(gen))
        return len(pieces) - 1

    def bracket(left: int, right: int) -> int:
        if right - left == 1:  # a leaf
            pieces[left] = "[" + pieces[left]
        else:  # a bracket: its list goes on
            pieces[right - 1] = ""
        pieces[right] = "," + pieces[right]
        pieces.append("]")
        return left

    _fold(e, leaf, bracket)
    return "".join(pieces)


def parse_expr(text: str) -> LieExpr:
    """Parse the text format; inverse of format_expr.

    One loop over the text: each token is recognized where it starts and goes
    straight to the stack of open brackets, so a text with several faults
    reports the first one reached.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected a str, not {type(text).__name__}")
    # the entries read so far of each open bracket; open_lists[0] takes the whole input
    open_lists: list[list[LieExpr]] = [[]]
    want_entry = True
    pos = -1  # the number of the token read last
    i, n = 0, len(text)
    while i < n:
        start = i
        tok = text[i]
        i += 1
        # the frequent characters first; isspace last, as the text format rarely holds a space
        if tok in "[],":
            pass  # a token of one character
        elif tok in KINDS:
            while i < n and text[i] in "0123456789":  # str.isdigit also takes '²' and '١'
                i += 1
            if i == start + 1:
                raise ParseError(f"generator {tok!r} needs a 1-based index")
            tok = text[start:i]
        elif tok.isspace():
            continue
        else:
            raise ParseError(f"unexpected character {tok!r} at position {start}")
        pos += 1
        if want_entry:
            if tok == "[":
                open_lists.append([])
                continue
            if tok[0] not in KINDS:
                raise ParseError(f"unexpected token {tok!r}")
            try:
                index = int(tok[1:])
            except ValueError:  # past int's limit on the digits of a str
                raise ParseError(f"index of {tok[0]!r} at token {pos} is too long ({len(tok) - 1} digits)") from None
            if index < 1:
                raise ParseError(f"index in {tok!r} must be >= 1")
            open_lists[-1].append(Generator(tok[0], index - 1))
            want_entry = False
        elif len(open_lists) == 1:
            raise ParseError(f"trailing input at token {pos}")
        elif tok == ",":
            want_entry = True
        elif tok != "]":
            raise ParseError("expected ']'")
        else:
            items = open_lists.pop()
            if len(items) < 2:
                raise ParseError("a bracket needs at least two entries")
            open_lists[-1].append(reduce(Bracket, items))
    if want_entry:
        raise ParseError("empty input" if pos < 0 else "unexpected end of input")
    if len(open_lists) > 1:
        raise ParseError("expected ']'")
    return open_lists[0][0]


# ------------------------------------------------------- left-normed spanning

def left_normalize(e: LieExpr) -> Combination:
    """Expand into left-normed words with (nonzero) integer coefficients.

    Length-homogeneous: every word in the result has one letter per leaf of e.
    Deterministic: the Jacobi rewrite always splits the right factor first.
    """
    return _fold(e, lambda gen: {(gen,): 1}, _bracket_combinations)


def _bracket_combinations(left: Combination, right: Combination) -> Combination:
    out: Combination = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            add_into(out, _bracket_words(w1, w2), c1 * c2)
    return out


def _bracket_words(w1: Word, w2: Word) -> Combination:
    # [w1, w2] with both factors left-normed; right length strictly decreases.
    if len(w2) == 1:
        return {w1 + w2: 1}
    prefix, last = w2[:-1], w2[-1]
    out = {w + (last,): c for w, c in _bracket_words(w1, prefix).items()}
    add_into(out, _bracket_words(w1 + (last,), prefix), -1)
    return out


# ------------------------------------------------------------------ evaluation

def leaf_value(assignment: Mapping[Generator, V], node: LieExpr) -> V:
    """The value of a leaf: `UnboundGeneratorError` if it is unbound, `ValueError` if it is not a `Generator`
    or `assignment` is not a mapping."""
    if type(node) is not Generator:
        raise _not_a_node(node)
    try:
        return assignment[node]
    except KeyError:
        raise UnboundGeneratorError(f"unbound generator: {node}") from None
    except TypeError:
        raise ValueError(f"assignment must be a mapping, not {type(assignment).__name__}") from None


def evaluate(
    e: LieExpr, assignment: Mapping[Generator, V], bracket: Callable[[V, V], V], memo: Memo | None = None
) -> V:
    """Structural fold: leaves via assignment (`leaf_value`), brackets via the callback.

    Trees that share nodes can share one `memo` (see `_fold`), which holds
    every node's value, so that each leaf is looked up, and each bracket node
    walked and bracketed, once over all of them. One memo serves one
    assignment and one bracket. A memo that is not a dict, or a bracket that
    cannot be called, raises `ValueError`.
    """
    if memo is not None and type(memo) is not dict:
        raise ValueError(f"memo must be a dict, not {type(memo).__name__}")
    if not callable(bracket):
        raise ValueError(f"bracket must be callable, not {type(bracket).__name__}")
    return _fold(e, partial(leaf_value, assignment), bracket, memo)


# ------------------------------------------------------------- random inputs

def random_expr(rng: random.Random, gens: Sequence[Generator], size: int) -> LieExpr:
    """Uniform-ish random bracketing with `size` leaves drawn from gens."""
    check_int("size", 1, size)
    if not gens:
        raise ValueError("gens must not be empty")
    if size == 1:
        return rng.choice(list(gens))
    split = rng.randint(1, size - 1)
    return Bracket(random_expr(rng, gens, split), random_expr(rng, gens, size - split))
