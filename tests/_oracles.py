"""Independent oracles used only by the tests.

These deliberately avoid the package's own algorithms: partition counts come
from the coin-change recurrence, basis monomials of the metabelian algebra
are found by filtering every word against the ordering predicate, and a
left-normed word is evaluated as a plain chain of brackets, not through an
expression tree.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Mapping, TypeVar

V = TypeVar("V")


def partition_counts(n_max: int) -> list[int]:
    counts = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for total in range(part, n_max + 1):
            counts[total] += counts[total - part]
    return counts


def basis_words_by_filter(d: int, n: int) -> set[tuple[int, ...]]:
    """All length-n words over 0..d-1 satisfying the basis ordering predicate."""
    if n == 1:
        return {(i,) for i in range(d)}
    out = set()
    for word in product(range(d), repeat=n):
        if word[0] > word[1] and all(word[i] <= word[i + 1] for i in range(1, n - 1)):
            out.add(word)
    return out


def evaluate_word(word, assignment: Mapping, bracket: Callable[[V, V], V]) -> V:
    """Value of the left-normed word [[..[w0,w1],..],wk]."""
    value = assignment[word[0]]
    for gen in word[1:]:
        value = bracket(value, assignment[gen])
    return value


def evaluate_combination(comb: Mapping, assignment: Mapping, bracket: Callable[[V, V], V], zero: V) -> V:
    """Sum of coeff * value(word); V must support + and scalar *."""
    total = zero
    for word, coeff in sorted(comb.items(), key=lambda kv: (len(kv[0]), kv[0])):
        total = total + evaluate_word(word, assignment, bracket) * coeff
    return total
