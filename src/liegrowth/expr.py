"""Lie expressions over a typed generator alphabet, with left-normed expansion.

Generators come in four families:

* ``x`` — abstract generators of the free metabelian algebra,
* ``a`` — module basis vectors of a wreath-product model,
* ``t`` — torus generators (polynomial variables),
* ``u`` — torus square generators (acting as t^2).

Programmatic indices are 0-based everywhere; only the text format is 1-based.
An expression is either a single generator or a bracket of two expressions.
The text format writes ``x1`` for leaves and ``[e1,e2]`` for brackets, and a
flat list ``[a1,t2,t2]`` abbreviates the left-nested ``[[a1,t2],t2]``, so
``format_expr`` and ``parse_expr`` round-trip exactly.

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
from typing import Callable, Mapping, Sequence, TypeVar, Union

from .poly import add_into

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
        if self.index < 0:
            raise ValueError("generator index must be >= 0")

    def __str__(self) -> str:
        return f"{self.kind}{self.index + 1}"


@dataclass(frozen=True)
class Leaf:
    gen: Generator


@dataclass(frozen=True)
class Bracket:
    left: "LieExpr"
    right: "LieExpr"


LieExpr = Union[Leaf, Bracket]

Word = tuple[Generator, ...]
Combination = dict[Word, int]


def length(e: LieExpr) -> int:
    """Number of generator occurrences."""
    return 1 if isinstance(e, Leaf) else length(e.left) + length(e.right)


def left_normed(letters: Sequence[Generator]) -> LieExpr:
    """Build the left-nested bracket [[..[g0,g1],..],gk] from letters."""
    if not letters:
        raise ValueError("empty word")
    e: LieExpr = Leaf(letters[0])
    for g in letters[1:]:
        e = Bracket(e, Leaf(g))
    return e


# ---------------------------------------------------------------- text format

def format_expr(e: LieExpr) -> str:
    if isinstance(e, Leaf):
        return str(e.gen)
    # flatten the left spine so left-normed chains print as flat lists
    parts: list[LieExpr] = []
    node: LieExpr = e
    while isinstance(node, Bracket):
        parts.append(node.right)
        node = node.left
    parts.append(node)
    parts.reverse()
    return "[" + ",".join(format_expr(p) for p in parts) + "]"


def parse_expr(text: str) -> LieExpr:
    """Parse the text format; inverse of format_expr."""
    tokens = _tokenize(text)
    pos, expr = _parse(tokens, 0)
    if pos != len(tokens):
        raise ParseError(f"trailing input at token {pos}")
    return expr


def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "[],":
            tokens.append(ch)
            i += 1
        elif ch in KINDS:
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError(f"generator {ch!r} needs a 1-based index")
            tokens.append(text[i:j])
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} at position {i}")
    if not tokens:
        raise ParseError("empty input")
    return tokens


def _parse(tokens: list[str], pos: int) -> tuple[int, LieExpr]:
    tok = tokens[pos] if pos < len(tokens) else None
    if tok is None:
        raise ParseError("unexpected end of input")
    if tok == "[":
        items: list[LieExpr] = []
        pos += 1
        pos, first = _parse(tokens, pos)
        items.append(first)
        while pos < len(tokens) and tokens[pos] == ",":
            pos, nxt = _parse(tokens, pos + 1)
            items.append(nxt)
        if pos >= len(tokens) or tokens[pos] != "]":
            raise ParseError("expected ']'")
        if len(items) < 2:
            raise ParseError("a bracket needs at least two entries")
        expr: LieExpr = items[0]
        for item in items[1:]:
            expr = Bracket(expr, item)
        return pos + 1, expr
    if tok[0] in KINDS:
        index = int(tok[1:])
        if index < 1:
            raise ParseError(f"index in {tok!r} must be >= 1")
        return pos + 1, Leaf(Generator(tok[0], index - 1))
    raise ParseError(f"unexpected token {tok!r}")


# ------------------------------------------------------- left-normed spanning

def left_normalize(e: LieExpr) -> Combination:
    """Expand into left-normed words with (nonzero) integer coefficients.

    Length-homogeneous: every word in the result has length(e) letters.
    Deterministic: the Jacobi rewrite always splits the right factor first.
    """
    if isinstance(e, Leaf):
        return {(e.gen,): 1}
    out: Combination = {}
    for w1, c1 in left_normalize(e.left).items():
        for w2, c2 in left_normalize(e.right).items():
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

def evaluate(e: LieExpr, assignment: Mapping[Generator, V], bracket: Callable[[V, V], V]) -> V:
    """Structural fold: leaves via assignment, brackets via the callback."""
    if isinstance(e, Leaf):
        try:
            return assignment[e.gen]
        except KeyError:
            raise UnboundGeneratorError(f"unbound generator: {e.gen}") from None
    return bracket(
        evaluate(e.left, assignment, bracket),
        evaluate(e.right, assignment, bracket),
    )


def evaluate_word(word: Word, assignment: Mapping[Generator, V], bracket: Callable[[V, V], V]) -> V:
    return evaluate(left_normed(word), assignment, bracket)


def evaluate_combination(
    comb: Combination,
    assignment: Mapping[Generator, V],
    bracket: Callable[[V, V], V],
    zero: V,
) -> V:
    """Sum of coeff * value(word); V must support + and scalar *."""
    total = zero
    for word, coeff in sorted(comb.items(), key=lambda kv: (len(kv[0]), kv[0])):
        total = total + evaluate_word(word, assignment, bracket) * coeff
    return total


# ------------------------------------------------------------- random inputs

def random_expr(rng: random.Random, gens: Sequence[Generator], size: int) -> LieExpr:
    """Uniform-ish random bracketing with `size` leaves drawn from gens."""
    if size < 1:
        raise ValueError("size must be >= 1")
    if size == 1:
        return Leaf(rng.choice(list(gens)))
    split = rng.randint(1, size - 1)
    return Bracket(random_expr(rng, gens, split), random_expr(rng, gens, size - split))
