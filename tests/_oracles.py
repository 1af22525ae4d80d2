"""Independent oracles used only by the tests.

These deliberately avoid the package's own algorithms: partition counts come
from the coin-change recurrence, basis monomials of the metabelian algebra
are found by filtering every word against the ordering predicate, a
left-normed word is evaluated as a plain chain of brackets, not through an
expression tree, and gamma(n) comes from the filtration search without the
pruning of `growth.growth_bfs`.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Mapping, Sequence, TypeVar

from liegrowth import metabelian
from liegrowth.rowspace import RowSpace
from liegrowth.wreath import MODE_WPLUS, WreathElement, wreath_bracket

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


def unpruned_growth(mode: str, d: int, n_max: int, generator_order: Sequence[int] | None = None) -> list[int]:
    """gamma(0..n_max) by the filtration search with every generator at every
    level and the module-degree guard on every candidate (no closed-form check)."""
    if mode == "metabelian":
        gens: list = [metabelian.MetabelianElement.generator(i, d) for i in range(d)]
        brack: Callable = metabelian.bracket
        coords: Callable = lambda e: e.terms
    else:
        gens = [WreathElement.gen_a(k, d, d) for k in range(d)]
        gens += [WreathElement.gen_t(i, d, d) for i in range(d)]
        if mode == MODE_WPLUS:
            gens += [WreathElement.gen_u(i, d, d) for i in range(d)]
        brack = lambda p, q: wreath_bracket(p, q, mode)
        coords = lambda e: e.coords()
    if generator_order is not None:
        gens = [gens[i] for i in generator_order]
    space = RowSpace()
    gamma = [0]
    frontier = [g for g in gens if space.add(coords(g))]
    gamma.append(space.rank)
    for level in range(2, n_max + 1):
        fresh = []
        for e in frontier:
            for g in gens:
                cand = brack(e, g)
                if mode != "metabelian" and cand.module_degree() > min(2 * (level - 1), 2 * (n_max - 1)):
                    raise ArithmeticError(
                        f"module degree {cand.module_degree()} overflows the level-{level} cap"
                    )
                vec = coords(cand)
                if vec and space.add(vec):
                    fresh.append(cand)
        gamma.append(space.rank)
        frontier = fresh
    return gamma
