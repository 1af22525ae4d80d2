from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import basis_words_by_filter, graded_dim_closed, left_normed
from conftest import lie_exprs, seeded_rng, x_gens
from liegrowth.expr import Bracket, Generator, evaluate, parse_expr, random_expr
from liegrowth.metabelian import (
    MetabelianElement,
    basis_monomials,
    bracket,
    format_monomial,
    graded_dim,
    growth,
    is_basis_monomial,
    normalize_expr,
    normalize_word,
)
from liegrowth.wreath import magnus_embedding, magnus_generator_images, wreath_bracket


def elem(text: str, d: int) -> MetabelianElement:
    return normalize_expr(parse_expr(text), d)


# ------------------------------------------------------------------ normal form

def test_degree_two_antisymmetry():
    assert normalize_word((1, 0), 2).terms == {(1, 0): Fraction(1)}
    assert normalize_word((0, 1), 2).terms == {(1, 0): Fraction(-1)}
    assert normalize_word((0, 0), 2).is_zero()


def test_degree_three_rewrite():
    # [c,b,a] = [c,a,b] - [b,a,c] for a <= b <= c
    got = normalize_word((2, 1, 0), 3)
    assert got.terms == {(2, 0, 1): Fraction(1), (1, 0, 2): Fraction(-1)}


def test_degree_three_rewrite_from_swapped_prefix():
    # (x2,x3,x1) normalizes to [x2,x1,x3] - [x3,x1,x2]
    got = normalize_word((1, 2, 0), 3)
    assert got.terms == {(1, 0, 2): Fraction(1), (2, 0, 1): Fraction(-1)}


def test_tail_letters_commute():
    d = 3
    assert normalize_word((2, 0, 1, 2), d) == normalize_word((2, 0, 2, 1), d)
    assert elem("[x1,x2,x1,x3]", d) == elem("[x1,x2,x3,x1]", d)


def test_normal_form_is_fixed_on_basis_monomials():
    for d, n in ((2, 4), (3, 3), (3, 5)):
        for mono in basis_monomials(d, n):
            assert normalize_word(mono, d).terms == {mono: Fraction(1)}


def test_normalize_expr_kills_derived_squares():
    # bracket of two degree->=2 subtrees
    for text in ("[[x1,x2],[x1,x3]]", "[[x2,x1],[x3,x1,x2]]", "[[x1,x2,x2],[x3,x1]]"):
        assert elem(text, 3).is_zero()


def test_normalize_expr_rejects_non_x_leaves():
    with pytest.raises(ValueError):
        normalize_expr(parse_expr("[a1,t1]"), 2)


def test_index_out_of_range():
    with pytest.raises(ValueError):
        normalize_word((0, 3), 3)
    with pytest.raises(ValueError, match=r"^generator index out of range in 5$"):
        normalize_word(5, 2)  # not a sequence


def test_empty_word_and_bad_monomials_are_rejected():
    with pytest.raises(ValueError, match="empty word"):
        normalize_word([], 2)
    with pytest.raises(ValueError, match="not a basis monomial"):
        MetabelianElement(2, {(0, 1): 1})
    with pytest.raises(ValueError, match="not a basis monomial"):
        MetabelianElement(2, {(): 1})


def test_sum_across_generator_counts_is_rejected():
    with pytest.raises(ValueError, match="different generator counts"):
        MetabelianElement.generator(0, 2) + MetabelianElement.generator(0, 3)


def test_truth_value_is_nonzero():
    assert not MetabelianElement.zero(2)
    assert MetabelianElement.generator(1, 2)
    assert not normalize_word((1, 1, 0), 2)


def test_words_agree_with_their_magnus_images():
    # the image of the normal form of w under x_i -> a_i + t_i is the image
    # of the left-normed bracket w itself, evaluated letter by letter in W
    for d in (1, 2, 3):
        images = magnus_generator_images(d)
        for n in range(1, 7):
            for w in product(range(d), repeat=n):
                nf = normalize_word(w, d)
                assert len(nf.terms) <= 2 and all(is_basis_monomial(m) for m in nf.terms), w
                direct = evaluate(left_normed([Generator("x", i) for i in w]), images, wreath_bracket)
                assert magnus_embedding(nf) == direct, w


@settings(max_examples=150)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), lie_exprs(d=d, max_size=5))))
def test_normal_form_is_the_fold_through_the_bracket(case):
    # expanding into left-normed words and normalizing each equals bracketing
    # the generators' normal forms node by node
    d, e = case
    gens = {Generator("x", i): MetabelianElement.generator(i, d) for i in range(d)}
    assert normalize_expr(e, d) == evaluate(e, gens, bracket)


@settings(max_examples=80)
@given(lie_exprs(d=3, max_size=6))
def test_antisymmetry_of_normal_form(e):
    d = 3
    other = Bracket(e, e)
    assert normalize_expr(other, d).is_zero()


@settings(max_examples=60)
@given(lie_exprs(d=3, max_size=4), lie_exprs(d=3, max_size=4))
def test_bracket_antisymmetry(e1, e2):
    d = 3
    p, q = normalize_expr(e1, d), normalize_expr(e2, d)
    assert (bracket(p, q) + bracket(q, p)).is_zero()


@settings(max_examples=40)
@given(lie_exprs(d=3, max_size=3), lie_exprs(d=3, max_size=3), lie_exprs(d=3, max_size=3))
def test_bracket_jacobi(e1, e2, e3):
    d = 3
    p, q, r = (normalize_expr(e, d) for e in (e1, e2, e3))
    total = bracket(bracket(p, q), r) + bracket(bracket(q, r), p) + bracket(bracket(r, p), q)
    assert total.is_zero()


def test_bracket_stores_an_integral_sum_of_halves_as_an_int():
    # [x3,x2]/2 - [x2,x1]/2 bracketed with x1 + x3: the words [x2,x1,x3]
    # and [x3,x2,x1] both normalize onto [x2,x1,x3], where the halves sum to -1
    p = MetabelianElement(3, {(2, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)})
    q = MetabelianElement(3, {(0,): 1, (2,): 1})
    c = bracket(p, q).terms[(1, 0, 2)]
    assert c == -1 and type(c) is int


coefficients = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=4)).filter(bool)


@st.composite
def fraction_weighted(draw, d):
    """A normal form over x1..xd of basis monomials of degree <= 3, with int and `Fraction` coefficients."""
    monos = [mono for n in range(1, 4) for mono in basis_monomials(d, n)]
    return MetabelianElement(d, draw(st.dictionaries(st.sampled_from(monos), coefficients, max_size=6)))


@given(st.integers(1, 4).flatmap(lambda d: st.tuples(fraction_weighted(d), fraction_weighted(d))))
def test_bracket_stores_every_integral_coefficient_as_an_int(pair):
    for c in bracket(*pair).terms.values():
        assert c and (type(c) is int or c.denominator > 1)


def test_commuting_element_identities():
    """If [p,q] = 0 then [p,[q,r]] = [q,[p,r]] and [p,r,q] = [q,r,p]."""
    d = 3
    rng = seeded_rng(3)
    gens = x_gens(d)
    cases = 0
    while cases < 30:
        e1 = random_expr(rng, gens, rng.randint(1, 4))
        e2 = random_expr(rng, gens, rng.randint(1, 4))
        e3 = random_expr(rng, gens, rng.randint(1, 3))
        p, q, r = (normalize_expr(e, d) for e in (e1, e2, e3))
        if not bracket(p, q).is_zero():
            continue
        cases += 1
        assert bracket(p, bracket(q, r)) == bracket(q, bracket(p, r))
        assert bracket(bracket(p, r), q) == bracket(bracket(q, r), p)


# ------------------------------------------------------------- basis and dims

def test_basis_examples():
    mons = basis_monomials(2, 4)
    assert [format_monomial(m) for m in mons] == [
        "[x2,x1,x1,x1]",
        "[x2,x1,x1,x2]",
        "[x2,x1,x2,x2]",
    ]
    assert len(basis_monomials(3, 3)) == 8
    assert basis_monomials(1, 1) == [(0,)]
    assert basis_monomials(1, 2) == []


def test_basis_matches_filter_oracle():
    for d in (1, 2, 3):
        for n in range(1, 8):
            assert set(basis_monomials(d, n)) == basis_words_by_filter(d, n)


def test_basis_order_is_deterministic_and_valid():
    mons = basis_monomials(3, 4)
    assert mons == basis_monomials(3, 4)
    assert all(is_basis_monomial(m) for m in mons)
    tails = [m[1:] for m in mons]
    assert tails == sorted(tails, key=lambda t: t[::-1])


def test_dim_formulas_agree_with_enumeration():
    for d in range(1, 5):
        for n in range(1, 9):
            count = len(basis_monomials(d, n))
            assert count == graded_dim(d, n) == graded_dim_closed(d, n)


def test_dim_examples():
    assert graded_dim(3, 3) == 8
    assert graded_dim(2, 4) == 3
    assert graded_dim(1, 2) == 0
    assert graded_dim(2, 2) == 1


def test_growth_examples():
    assert growth(2, 4) == [0, 2, 3, 5, 8]
    assert growth(1, 6) == [0, 1, 1, 1, 1, 1, 1]


def test_growth_is_cumulative():
    g = growth(3, 8)
    assert all(g[n] - g[n - 1] == graded_dim(3, n) for n in range(1, 9))
