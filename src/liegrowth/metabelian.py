"""The free metabelian Lie algebra on d generators, with exact normal forms.

Elements are rational combinations of basis monomials, with coefficients
under the convention of `poly`: an `int` where the value is integral, a
`fractions.Fraction` where it is not, never zero and never a `float`. A basis
monomial of degree n >= 2 is a left-normed word (w0, w1, ..., w_{n-1}) of
generator indices with

    w0 > w1 <= w2 <= ... <= w_{n-1},

i.e. the second letter is the minimum and the tail is sorted; degree-1
monomials are the generators themselves. In any metabelian algebra the first
two letters anticommute, letters at positions >= 2 commute freely (the prefix
of length 2 lies in the derived subalgebra, which is abelian), and Jacobi
gives [c,b,a] = [c,a,b] - [b,a,c] for a <= b <= c. So a left-normed word w of
length >= 2, with h = max(w0, w1), s = min(w0, w1) and sigma = +1 if w0 > w1
else -1, has a normal form of at most two terms, in closed form:

* 0 if w0 == w1;
* sigma * (h, s, *sorted(w[2:])) if s <= every tail letter;
* else, with a = min(w[2:]) and r the other tail letters, one Jacobi step:
  sigma * (h, a, *sorted((s, *r))) - sigma * (s, a, *sorted((h, *r))).

Soundness of the whole normal form is certified externally by the
wreath-model embedding (see `wreath.certify_embedding`) rather than trusted.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import accumulate, combinations_with_replacement
from math import comb

from .expr import LieExpr, left_normalize
from .poly import Rational, TermElement, add_into, check_int, checked_terms, format_terms, ints_in_place

Monomial = tuple[int, ...]


def is_basis_monomial(word: Sequence[int]) -> bool:
    if len(word) == 0:
        return False
    if len(word) == 1:
        return word[0] >= 0
    if word[0] <= word[1]:
        return False
    return all(word[i] <= word[i + 1] for i in range(1, len(word) - 1))


def format_monomial(word: Monomial) -> str:
    if len(word) == 1:
        return f"x{word[0] + 1}"
    return "[" + ",".join(f"x{i + 1}" for i in word) + "]"


def _check_indices(word: object, d: int) -> None:
    """`ValueError` unless `word` is a tuple of generator indices in 0..d-1."""
    if type(word) is not tuple or any(type(i) is not int or not 0 <= i < d for i in word):
        raise ValueError(f"generator index out of range in {word}")


def _check_word(word: object, d: int) -> Monomial:
    """`word` itself if it is a basis monomial over x1..xd; else `ValueError`."""
    _check_indices(word, d)
    if not is_basis_monomial(word):
        raise ValueError(f"not a basis monomial: {word}")
    return word


@dataclass(slots=True, repr=False)
class MetabelianElement(TermElement):
    """Rational combination of basis monomials over x1..xd.

    `MetabelianElement(d, terms)` validates through `poly.checked_terms`, and
    a word that is not a basis monomial raises `ValueError`. Normal forms and
    arithmetic build their results with `_trusted` instead. The arithmetic
    (`zero`, truth value, `+`, `-`, negation, scalar `*`) is
    `poly.TermElement`'s, over the shape (d,) and the one term dict.
    """

    d: int
    terms: dict[Monomial, Rational] | None = None

    _MISMATCH = "elements over different generator counts"

    def __post_init__(self) -> None:
        d = self.d
        check_int("d", 1, d)
        self.terms = checked_terms(self.terms, lambda word: _check_word(word, d))

    @classmethod
    def _trusted(cls, d: int, terms: dict[Monomial, Rational]) -> "MetabelianElement":
        """Wrap `terms` without validation: basis monomials over x1..xd with
        nonzero coefficients, built from operands that were already checked."""
        res = object.__new__(cls)
        res.d = d
        res.terms = terms
        return res

    def _unpack(self) -> tuple:
        return (self.d,), (self.terms,)

    @classmethod
    def generator(cls, i: int, d: int) -> "MetabelianElement":
        return cls(d, {(i,): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        return format_terms(
            (format_monomial(w), c)
            for w, c in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        )

    def __repr__(self) -> str:
        return f"MetabelianElement(d={self.d}, {self!s})"


# ----------------------------------------------------------------- normal form

def normalize_word(word: Sequence[int], d: int) -> MetabelianElement:
    """Normal form of the left-normed word with the given generator indices."""
    check_int("d", 1, d)
    w = tuple(word) if isinstance(word, Iterable) else word
    _check_indices(w, d)
    if not w:
        raise ValueError("empty word")
    return MetabelianElement._trusted(d, _normalize(w))


def _normalize(w: Monomial) -> dict[Monomial, int]:
    """Normal form of a left-normed word, by the closed form of the module docstring."""
    if len(w) == 1:
        return {w: 1}
    head, second = w[0], w[1]
    if head == second:
        return {}
    sign = 1
    if head < second:
        head, second, sign = second, head, -1
    tail = sorted(w[2:])
    if not tail or second <= tail[0]:
        return {(head, second, *tail): sign}
    small, rest = tail[0], tail[1:]
    return {
        (head, small, *sorted((second, *rest))): sign,
        (second, small, *sorted((head, *rest))): -sign,
    }


def normalize_expr(e: LieExpr, d: int) -> MetabelianElement:
    """Normal form of an arbitrary expression over x-generators.

    The kernel is exactly the second derived ideal: any expression containing
    a bracket of two degree->=2 subtrees maps to 0.
    """
    out = MetabelianElement.zero(d)  # fresh, so its terms are summed into in place
    for word, coeff in left_normalize(e).items():
        indices = []
        for g in word:
            if g.kind != "x":
                raise ValueError(f"expected x-generators only, found {g}")
            indices.append(g.index)
        add_into(out.terms, normalize_word(indices, d).terms, coeff)
    return out


def bracket(p: MetabelianElement, q: MetabelianElement) -> MetabelianElement:
    """Lie bracket of two normal-form elements, re-normalized.

    The normal forms of the words w1 + w2 are summed into one term dict; a
    pair of terms that both lie in the derived subalgebra brackets to 0, and
    an integral coefficient is stored as an `int`, as the constructor and
    `wreath.magnus_embedding` store it. An
    operand that is not a `MetabelianElement` over the other's generators
    raises `ValueError`.

    No search of the package calls it: `growth.growth_bfs` searches the free
    metabelian algebra as its Magnus image in W, through `wreath_bracket`.
    It is the bracket of the public API, the tests' unpruned growth search
    (`tests/_oracles.py`) uses it as an oracle independent of the Magnus
    map, and the benchmark's tracer wraps it by name.
    """
    if type(p) is not MetabelianElement or type(q) is not MetabelianElement or p.d != q.d:
        raise ValueError(MetabelianElement._MISMATCH)
    out: dict[Monomial, Rational] = {}
    for w1, c1 in p.terms.items():
        for w2, c2 in q.terms.items():
            if len(w2) == 1:
                word, scale = w1 + w2, c1 * c2
            elif len(w1) == 1:
                word, scale = w2 + w1, -(c1 * c2)
            else:
                continue
            add_into(out, _normalize(word), scale)
    # Fraction-weighted words may sum to an integral Fraction on a shared monomial
    ints_in_place(out)
    return MetabelianElement._trusted(p.d, out)


# ------------------------------------------------------------ basis and growth

def basis_monomials(d: int, n: int) -> list[Monomial]:
    """Degree-n basis monomials, in deterministic order.

    Degree 1 lists the generators by index. For n >= 2 the tail (positions
    1..n-1, a nondecreasing word) runs in colexicographic order and, within a
    tail, the head runs over the indices strictly above the tail minimum in
    ascending order.
    """
    check_int("d and n", 1, d, n)
    if n == 1:
        return [(i,) for i in range(d)]
    out: list[Monomial] = []
    for tail in sorted(combinations_with_replacement(range(d), n - 1), key=lambda t: t[::-1]):
        for head in range(tail[0] + 1, d):
            out.append((head,) + tail)
    return out


def graded_dim(d: int, n: int) -> int:
    """Dimension of the degree-n component, by the head-index sum formula.

    For n >= 2 this is sum over j = 1..d-1 of (d-j) * C(n-2+d-j, d-j):
    grouping basis monomials by their minimum letter j (0-based j-1), there
    are d-j choices of head and C(n-2+d-j, d-j) tails. Degree 1 is d.
    """
    check_int("d and n", 1, d, n)
    if n == 1:
        return d
    return sum((d - j) * comb(n - 2 + d - j, d - j) for j in range(1, d))


def growth(d: int, n_max: int) -> list[int]:
    """Cumulative dimensions gamma(0..n_max); gamma[0] = 0."""
    check_int("d and n_max", 1, d, n_max)
    return list(accumulate((graded_dim(d, n) for n in range(1, n_max + 1)), initial=0))
