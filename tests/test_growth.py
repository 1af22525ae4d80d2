from __future__ import annotations

import math

import pytest

import _oracles
from _oracles import unpruned_growth
from conftest import seeded_rng
from liegrowth import growth as growthmod
from liegrowth import metabelian
from liegrowth.growth import (
    MODE_METABELIAN,
    growth_bfs,
    w_gamma_closed,
    wplus_gamma_closed,
    wplus_graded_dims,
    wplus_growth_bound,
    wplus_spanning_count,
)
from liegrowth.metabelian import growth as metabelian_growth
from liegrowth.rowspace import RowSpace
from liegrowth.wreath import MODE_W, MODE_WPLUS, WreathElement


def test_metabelian_search_matches_formula_growth():
    for d in (1, 2, 3, 4):
        rep = growth_bfs(MODE_METABELIAN, d, 7)
        assert rep.gamma == metabelian_growth(d, 7)


def test_w_search_matches_closed_form():
    for d in (1, 2, 3, 4):
        rep = growth_bfs(MODE_W, d, 6)
        assert rep.gamma == w_gamma_closed(d, 6)


def test_wplus_d1_growth_is_arithmetic():
    rep = growth_bfs(MODE_WPLUS, 1, 8)
    assert rep.gamma == [0] + [2 * n + 1 for n in range(1, 9)]
    assert rep.graded == [0, 3] + [2] * 7


def test_wplus_search_matches_derived_count():
    for d in (1, 2, 3):
        n_max = 8 if d < 3 else 6
        rep = growth_bfs(MODE_WPLUS, d, n_max)
        assert rep.gamma == wplus_gamma_closed(d, n_max)
        assert rep.graded == wplus_graded_dims(d, n_max)


def test_search_is_stable_under_generator_permutation():
    base = growth_bfs(MODE_WPLUS, 2, 5)
    permuted = growth_bfs(MODE_WPLUS, 2, 5, generator_order=[5, 3, 1, 4, 2, 0])
    assert base.gamma == permuted.gamma
    base_m = growth_bfs(MODE_METABELIAN, 3, 5)
    permuted_m = growth_bfs(MODE_METABELIAN, 3, 5, generator_order=[2, 0, 1])
    assert base_m.gamma == permuted_m.gamma


def _orders(mode, d):
    """None, the reverse order, (in W and Wplus) the torus letters before the
    a's, and five seeded random orders: the movers a frontier element is
    bracketed with depend on their order."""
    size = {MODE_METABELIAN: d, MODE_W: 2 * d, MODE_WPLUS: 3 * d}[mode]
    orders = [None, list(reversed(range(size)))]
    if mode != MODE_METABELIAN:
        orders.append(list(range(d, size)) + list(range(d)))
    rng = seeded_rng(d)
    orders += [rng.sample(range(size), size) for _ in range(5)]
    return orders


@pytest.mark.parametrize(
    "mode,d,n_max",
    [(mode, d, n) for mode, n in ((MODE_METABELIAN, 7), (MODE_W, 6), (MODE_WPLUS, 6)) for d in (1, 2, 3)]
    + [(MODE_METABELIAN, 4, 5), (MODE_W, 4, 5), (MODE_WPLUS, 4, 5)],
)
def test_pruned_search_matches_unpruned_oracle(mode, d, n_max):
    for order in _orders(mode, d):
        expected = unpruned_growth(mode, d, n_max, order)
        assert growth_bfs(mode, d, n_max, generator_order=order).gamma == expected, order


# the nine searches of one filtration-growth benchmark pass
# (perfbench/workloads.py), whose traced run reads growth.candidates 18,095
BENCHMARK_SEARCHES = [
    (MODE_WPLUS, 2, 18), (MODE_WPLUS, 3, 7), (MODE_WPLUS, 4, 7),
    (MODE_W, 2, 38), (MODE_W, 3, 12), (MODE_W, 4, 7),
    (MODE_METABELIAN, 2, 75), (MODE_METABELIAN, 3, 18), (MODE_METABELIAN, 4, 10),
]


def test_candidates_count_the_brackets_made(monkeypatch):
    made = 0

    def counting(real):
        def bracket(p, q):
            nonlocal made
            made += 1
            return real(p, q)

        return bracket

    monkeypatch.setattr(growthmod, "wreath_bracket", counting(growthmod.wreath_bracket))
    monkeypatch.setattr(metabelian, "bracket", counting(metabelian.bracket))
    total = 0
    for mode, d, n_max in BENCHMARK_SEARCHES:
        rep = growth_bfs(mode, d, n_max)
        assert len(rep.candidates) == n_max + 1 and rep.candidates[:2] == [0, 0]
        if (mode, d, n_max) == (MODE_WPLUS, 4, 7):
            assert sum(rep.candidates) == 5388
        total += sum(rep.candidates)
    assert made == total == 18095
    assert growth_bfs(MODE_WPLUS, 2, 1).candidates == [0, 0]


def test_rank_tests_of_a_benchmark_pass_are_pinned(monkeypatch):
    # the traced run reads rowspace.add.calls 17,995 and rowspace.add.grew
    # 17,689: the 54 generators and the 17,941 nonzero candidates, each
    # tested once, whether its vector is its coords() or its terms
    calls = grew = 0
    real = RowSpace.add

    def counting(space, vec):
        nonlocal calls, grew
        calls += 1
        grew += (result := real(space, vec))
        return result

    monkeypatch.setattr(RowSpace, "add", counting)
    for mode, d, n_max in BENCHMARK_SEARCHES:
        growth_bfs(mode, d, n_max)
    assert (calls, grew) == (17995, 17689)


def test_growth_sandwich():
    for d in (1, 2, 3):
        n_max = 8
        rep = growth_bfs(MODE_WPLUS, d, n_max)
        lower = metabelian_growth(d, n_max)
        for n in range(1, n_max + 1):
            assert lower[n] <= rep.gamma[n] <= wplus_growth_bound(d, n)


def test_bound_relationships():
    # the letter count is 3d generators plus d module letters per torus
    # monomial of degree 1..n-1, the capped bound is the letter count taken at
    # 2n-1, and the letter count alone undercounts reachability as soon as
    # u-letters matter
    for d in (1, 2, 3, 4):
        for n in range(1, 30):
            towers = sum(math.comb(s + d - 1, d - 1) for s in range(1, n))
            assert wplus_spanning_count(d, n) == 3 * d + d * towers
            assert wplus_growth_bound(d, n) == wplus_spanning_count(d, 2 * n - 1)
    assert wplus_spanning_count(2, 2) == 10
    rep = growth_bfs(MODE_WPLUS, 2, 2)
    assert rep.gamma[2] == 14 > wplus_spanning_count(2, 2)


def test_wplus_growth_bound_tight_for_d1():
    for n in range(1, 12):
        assert wplus_growth_bound(1, n) == 2 * n + 1


def test_wplus_graded_dims_count_exponent_vectors():
    # a_1 = 3d, and a_n = d * #{beta : sum_j ceil(beta_j/2) = n-1}, here past
    # the search's range
    for d in (1, 2, 3):
        counts = _oracles.ceil_weight_counts(d, 15)
        assert wplus_graded_dims(d, 16) == [0, 3 * d] + [d * c for c in counts[1:]]


def test_graded_extension_consistency():
    # the closed-form graded counts agree with the search on its whole range
    for d in (1, 2):
        rep = growth_bfs(MODE_WPLUS, d, 7)
        ext = wplus_graded_dims(d, 20)
        assert ext[: len(rep.graded)] == rep.graded


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        growth_bfs("nonsense", 2, 4)
    with pytest.raises(ValueError):
        growth_bfs(MODE_WPLUS, 0, 4)
    # not a permutation of 0..5, of 0..1 by value but not of ints, of mixed types; not a sequence
    for mode, order in (
        (MODE_WPLUS, [0, 1]),
        (MODE_METABELIAN, [1.0, 0]),
        (MODE_METABELIAN, [0, "1"]),
        (MODE_W, 5),
    ):
        with pytest.raises(ValueError, match=r"^generator_order must be a permutation$"):
            growth_bfs(mode, 2, 4, generator_order=order)
    for closed_form, args in (
        (wplus_growth_bound, (2, 0)),
        (w_gamma_closed, (0, 3)),
        (wplus_spanning_count, (0, 3)),
    ):
        with pytest.raises(ValueError, match=r"^d and n must be >= 1$"):
            closed_form(*args)


@pytest.mark.parametrize(
    "mode,target",
    ((MODE_W, "w_gamma_closed"), (MODE_WPLUS, "wplus_gamma_closed"), (MODE_METABELIAN, None)),
)
def test_search_is_cross_checked_against_its_closed_form(monkeypatch, mode, target):
    def wrong(d, n_max):
        return [0] + [1] * n_max

    if target is None:
        monkeypatch.setattr(metabelian, "growth", wrong)
    else:
        monkeypatch.setattr(growthmod, target, wrong)
    search = {MODE_W: 4, MODE_WPLUS: 6, MODE_METABELIAN: 2}[mode]  # gamma(1) at d = 2
    message = f"^filtration search disagrees with the closed-form count at n=1: search {search}, closed form 1$"
    with pytest.raises(ArithmeticError, match=message):
        growth_bfs(mode, 2, 4)



def test_module_degree_guard_fires(monkeypatch):
    # every nonzero bracket is pushed two u1-letters further than a search can reach
    real = growthmod.wreath_bracket

    def overshooting(p, q):
        out = real(p, q)
        if out:
            u1 = WreathElement.gen_u(0, p.m, p.n)
            out = real(real(out, u1), u1)
        return out

    monkeypatch.setattr(growthmod, "wreath_bracket", overshooting)
    with pytest.raises(ArithmeticError, match=r"^module degree 5 overflows the level-2 cap$"):
        growth_bfs(MODE_WPLUS, 2, 4)


@pytest.mark.parametrize("mode", (MODE_W, MODE_WPLUS))
def test_module_degree_guard_fires_past_level_2(monkeypatch, mode):
    # only brackets of an operand of module degree >= 1 overshoot, by three
    # t1-letters, so no level-2 candidate trips the guard: [[a1,t1],t1]
    # reaches degree 5 at level 3, whose cap is 4
    real = growthmod.wreath_bracket

    def overshooting(p, q):
        out = real(p, q)
        if out and p.module_degree() >= 1:
            t1 = WreathElement.gen_t(0, p.m, p.n)
            for _ in range(3):
                out = real(out, t1)
        return out

    monkeypatch.setattr(growthmod, "wreath_bracket", overshooting)
    monkeypatch.setattr(_oracles, "wreath_bracket", overshooting)
    message = r"^module degree 5 overflows the level-3 cap$"
    with pytest.raises(ArithmeticError, match=message):
        growth_bfs(mode, 2, 4)
    # the unpruned search, guarding every candidate, stops at the same place
    with pytest.raises(ArithmeticError, match=message):
        unpruned_growth(mode, 2, 4)


def test_metabelian_search_makes_no_metabelian_bracket(monkeypatch):
    # the free metabelian algebra is searched as its Magnus image in W
    def refused(p, q):
        raise AssertionError("metabelian.bracket called")

    monkeypatch.setattr(metabelian, "bracket", refused)
    for d, n_max in ((1, 4), (2, 9), (3, 6), (4, 5)):
        assert growth_bfs(MODE_METABELIAN, d, n_max).gamma == metabelian_growth(d, n_max)


def test_module_degree_guard_fires_in_metabelian_mode(monkeypatch):
    # the wrapper of test_module_degree_guard_fires_past_level_2: a level-2
    # bracket [a1+t1, a2+t2] has module degree 1, and its level-3 brackets,
    # three t1-letters further, degree 5; the unpruned oracle guards no
    # metabelian search, so only growth_bfs is run
    real = growthmod.wreath_bracket

    def overshooting(p, q):
        out = real(p, q)
        if out and p.module_degree() >= 1:
            t1 = WreathElement.gen_t(0, p.m, p.n)
            for _ in range(3):
                out = real(out, t1)
        return out

    monkeypatch.setattr(growthmod, "wreath_bracket", overshooting)
    with pytest.raises(ArithmeticError, match=r"^module degree 5 overflows the level-3 cap$"):
        growth_bfs(MODE_METABELIAN, 2, 4)


def test_module_degree_guard_names_the_first_overflowing_candidate(monkeypatch):
    # the first nonzero level-2 bracket, [a1,t1], is pushed two t1-letters
    # further (degree 3), every later one four (degree 5): both are accepted
    # at level 2, whose cap is 2, and the guard names the first, not the max
    real = growthmod.wreath_bracket
    first = True

    def overshooting(p, q):
        nonlocal first
        out = real(p, q)
        if out:
            t1 = WreathElement.gen_t(0, p.m, p.n)
            for _ in range(2 if first else 4):
                out = real(out, t1)
            first = False
        return out

    monkeypatch.setattr(growthmod, "wreath_bracket", overshooting)
    with pytest.raises(ArithmeticError, match=r"^module degree 3 overflows the level-2 cap$"):
        growth_bfs(MODE_W, 2, 4)


def test_module_degree_guard_reads_every_candidate_of_a_level(monkeypatch):
    # of the four nonzero level-2 brackets only the second, [a1,t2], is
    # pushed two t1-letters further (degree 3): it is neither the first nor
    # the last accepted candidate of its level, and the guard still names it
    real = growthmod.wreath_bracket
    nonzero = 0

    def overshooting(p, q):
        nonlocal nonzero
        out = real(p, q)
        if out:
            nonzero += 1
            if nonzero == 2:
                t1 = WreathElement.gen_t(0, p.m, p.n)
                out = real(real(out, t1), t1)
        return out

    monkeypatch.setattr(growthmod, "wreath_bracket", overshooting)
    with pytest.raises(ArithmeticError, match=r"^module degree 3 overflows the level-2 cap$"):
        growth_bfs(MODE_W, 2, 4)
    assert nonzero == 4


def test_module_degree_guard_reads_every_key_of_a_candidate(monkeypatch):
    # every level-2 bracket, +-[a1+t1, a2+t2] = +-(a1*t2 - a2*t1), gets the
    # term a1*t1^5 between its two keys, in key order and in insertion order:
    # its smallest (the pivot), first, largest and last keys have degree 1,
    # and only a1*t1^5 overflows the cap 2
    real = growthmod.wreath_bracket

    def overshooting(p, q):
        out = real(p, q)
        if out:
            low, high = sorted(out.decoded()[0].items())
            out = WreathElement(p.m, p.n, dict([low, ((0, (5, 0)), 1), high]))
            assert list(out.decoded()[0]) == [(0, (0, 1)), (0, (5, 0)), (1, (1, 0))]
        return out

    monkeypatch.setattr(growthmod, "wreath_bracket", overshooting)
    with pytest.raises(ArithmeticError, match=r"^module degree 5 overflows the level-2 cap$"):
        growth_bfs(MODE_METABELIAN, 2, 4)
