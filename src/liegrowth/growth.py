"""Exact growth functions by filtration search, plus closed-form counts.

gamma(n) is the dimension of the span of all bracket monomials of length at
most n in the chosen generating set. The search maintains the filtration
X^{n+1} = X^n + [X^n, X^1] with exact rational rank bookkeeping: left-normed
monomials of a given length span all monomials of that length, so bracketing
each newly independent element with the generators is enough.

Three generating sets are supported: the free metabelian algebra on x1..xd,
the plain wreath model on {a_i, t_i}, and the extended model on
{a_i, t_i, u_i} (m = n = d throughout, both from `wreath.standard_assignment`).
The free metabelian algebra is searched as its image in W under the Magnus
embedding x_i -> a_i + t_i (`wreath.magnus_generator_images`). The map is
linear and injective, so the search makes the same candidates and finds the
same ranks as in the algebra itself; and the result is checked against
`metabelian.growth` all the same, so it does not rest on the embedding. One
search runs on `WreathElement`s in every mode: only the generating set and
the closed form it is checked against depend on the mode.

The search prunes three kinds of work, all exactly, by one rule in every
mode. B is the abelian ideal of module elements; it holds every bracket.

1. The movers, the generators the frontier is bracketed with from level 2
   on, are those with a torus part: t_i and u_i in the wreath models, every
   a_i + t_i in the Magnus image. From level 3 on the frontier lies in B,
   where [B, a_k] = 0, and at level 2 [a_j, a_k] = 0 while [t_i, a_k] =
   -[a_k, t_i] is already a candidate.
2. From level 3 on, a frontier element e = [e', g_i] made with the i-th
   mover is bracketed only with the movers g_j, j >= i. Its e' lies in B,
   which also holds [g_i, g_j]. By Jacobi [[e', g_i], g_j] = [[e', g_j],
   g_i] + [e', [g_i, g_j]], and the last term is 0. Writing [e', g_j] as a
   combination of accepted elements, induction on the mover index, from
   the highest down, shows that every skipped bracket already lies in the
   span. This holds for any generator order.
3. The module-degree guard runs only on candidates that raise the rank, once
   per level: one max over every module key of the level's accepted
   candidates (`wreath.max_module_degree`) against the cap 2(level - 1). It
   exceeds the cap exactly when some accepted candidate does, and only then
   is the first such candidate, in the order of acceptance, found and named.
   A rejected candidate lies in the span of vectors that passed the guard,
   so its support lies in the union of theirs, and the cap never decreases
   with the level.

For the extended model two counting functions accompany the search. A module
monomial a_i * t^beta first appears at level 1 + sum_j ceil(beta_j / 2)
(u-letters contribute exponent pairs). Each coordinate contributes the
generating function (1+t)/(1-t), so the graded counts are the coefficients
of d * ((1+t)/(1-t))^d, for n > d a polynomial of degree d-1 in n:

    a_1 = 3d,  a_n = d * sum_{k=0}^{min(d, n-1)} C(d, k) * C(n-2-k+d, d-1),

exact, and used to extend growth sequences beyond the search range.
Counting towers [a_i, t_{j1}, ..., t_{js}] by letters instead gives, by the
hockey-stick identity,

    spanning_count(n) = 3d + d * sum_{s=1}^{n-1} C(s+d-1, d-1) = 2d + d * C(n+d-1, d),

which undercounts reachability: one u-letter buys two degrees, so the exact
gamma(n) exceeds this already at n = 2. The valid letter-count bound caps the
module degree at 2(n-1):

    growth_bound(n) = spanning_count(2n-1) = 2d + d * C(2n+d-2, d),

so both count the same towers up to the linear rescaling under which growth
types are compared.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate
from math import comb
from typing import Sequence

from . import metabelian
from .poly import check_int
from .rowspace import RowSpace
from .wreath import MODE_W, MODE_WPLUS, magnus_generator_images, max_module_degree, standard_assignment, wreath_bracket

MODE_METABELIAN = "metabelian"
GROWTH_MODES = (MODE_METABELIAN, MODE_W, MODE_WPLUS)


@dataclass
class GrowthReport:
    mode: str
    d: int
    gamma: list[int]  # gamma[0] == 0
    graded: list[int]  # graded[n] = gamma[n] - gamma[n-1]
    candidates: list[int]  # candidates[n] = brackets made at level n (0 for n <= 1)


def growth_bfs(mode: str, d: int, n_max: int, generator_order: Sequence[int] | None = None) -> GrowthReport:
    """Exact gamma(1..n_max) for the chosen mode, and the brackets made per level.

    generator_order optionally permutes the generating set before the search;
    the resulting dimensions are identical (the span does not depend on
    insertion order), which the tests exercise, while the candidates made
    depend on it. The metabelian generators are searched as their Magnus
    images a_i + t_i in W, so every mode runs the same search over
    `WreathElement`s. It prunes three kinds of work, and the module
    docstring says why none changes gamma: from level 2 on the frontier is
    bracketed only with the generators that have a torus part; from level 3
    on an element made with the i-th mover is bracketed only with the
    movers from the i-th on; and the module-degree guard (ArithmeticError)
    checks every rank-raising candidate the search makes, in one read of
    all the keys of a level, and names the first candidate that overflows.
    The rank test takes a bracket's module terms as its vector, since a
    bracket has a zero torus. The result is checked against the closed form
    of its mode (`wplus_gamma_closed`, `w_gamma_closed` or
    `metabelian.growth`, looked up when the search runs); a mismatch raises
    ArithmeticError.
    """
    if mode not in GROWTH_MODES:
        raise ValueError(f"unknown growth mode {mode!r}")
    check_int("d and n_max", 1, d, n_max)
    images = magnus_generator_images(d) if mode == MODE_METABELIAN else standard_assignment(d, d, mode)
    gens = list(images.values())
    if generator_order is not None:
        order = list(generator_order) if isinstance(generator_order, Iterable) else None
        if order is None or not all(type(i) is int for i in order) or sorted(order) != list(range(len(gens))):
            raise ValueError("generator_order must be a permutation")
        gens = [gens[i] for i in order]

    space = RowSpace()
    gamma = [0]
    candidates = [0, 0]
    # (element, start): the element is bracketed with movers[start:] only
    frontier = [(g, 0) for g in gens if space.add(g.coords())]
    gamma.append(space.rank)
    # [B, a_k] = 0 for the ideal B, and [a_j, a_k] = 0 (module docstring)
    movers = [g for g in gens if g.torus]
    for level in range(2, n_max + 1):
        candidates.append(sum(len(movers) - start for _, start in frontier))
        fresh = []
        for e, start in frontier:
            for j in range(start, len(movers)):
                cand = wreath_bracket(e, movers[j])
                # a bracket has a zero torus, so its terms are its coordinates
                vec = cand.terms
                if vec and space.add(vec):
                    # [[e', g_i], g_j] = [[e', g_j], g_i] in the abelian ideal
                    fresh.append((cand, j if level >= 3 else 0))
        # each letter raises the module degree by at most 2; one read of every
        # accepted key, and on overflow the first accepted candidate is named
        cap = 2 * (level - 1)
        if max_module_degree((cand for cand, _ in fresh), d) > cap:
            deg = next(deg for cand, _ in fresh if (deg := cand.module_degree()) > cap)
            raise ArithmeticError(f"module degree {deg} overflows the level-{level} cap")
        gamma.append(space.rank)
        frontier = fresh
    graded = [0] + [gamma[k] - gamma[k - 1] for k in range(1, n_max + 1)]
    closed_form = {MODE_METABELIAN: metabelian.growth, MODE_W: w_gamma_closed, MODE_WPLUS: wplus_gamma_closed}
    closed = closed_form[mode](d, n_max)
    if gamma != closed:
        n = next(n for n in range(n_max + 1) if gamma[n] != closed[n])
        raise ArithmeticError(
            "filtration search disagrees with the closed-form count"
            f" at n={n}: search {gamma[n]}, closed form {closed[n]}"
        )
    return GrowthReport(mode=mode, d=d, gamma=gamma, graded=graded, candidates=candidates)


# ---------------------------------------------------------- closed-form counts

def wplus_graded_dims(d: int, n_max: int) -> list[int]:
    """Exact graded dimensions a_n of the extended-model filtration.

    a_1 = 3d (the generators); for n >= 2, a_n = d * #{beta : sum_j
    ceil(beta_j/2) = n-1}, in the closed form of the module docstring.
    """
    check_int("d and n_max", 1, d, n_max)
    return [0, 3 * d] + [
        d * sum(comb(d, k) * comb(n - 2 - k + d, d - 1) for k in range(min(d, n - 1) + 1))
        for n in range(2, n_max + 1)
    ]


def wplus_gamma_closed(d: int, n_max: int) -> list[int]:
    return list(accumulate(wplus_graded_dims(d, n_max)))


def w_gamma_closed(d: int, n_max: int) -> list[int]:
    """Plain model: gamma(n) = d + d * C(n-1+d, d) (torus plus module monomials)."""
    check_int("d and n", 1, d, n_max)
    return [0] + [d + d * comb(n - 1 + d, d) for n in range(1, n_max + 1)]


def wplus_spanning_count(d: int, n: int) -> int:
    """Letter count of the module towers of torus length < n, plus generators."""
    check_int("d and n", 1, d, n)
    return 2 * d + d * comb(n + d - 1, d)


def wplus_growth_bound(d: int, n: int) -> int:
    """Valid exact upper bound for gamma(n): tower length capped at 2(n-1)."""
    check_int("d and n", 1, d, n)
    return wplus_spanning_count(d, 2 * n - 1)
