"""Exact coefficients: integral values stay `int`, others are `Fraction`.

The invariant of `poly`, `wreath`, `metabelian` and `rowspace`: every stored
coefficient is an `int` or a `Fraction` (never a `float`), and the public
constructors and scalar products store integral values as `int`. Integer
inputs therefore give integer results everywhere except where rank
elimination divides by a pivot, and those results must equal the ones the
same inputs give as `Fraction`s.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import torus_blocks
from conftest import add_augmented, augment, combine
from liegrowth import metabelian
from liegrowth.expr import Generator, left_normalize, random_expr
from liegrowth.growth import growth_bfs
from liegrowth.metabelian import MetabelianElement, basis_monomials, normalize_expr, normalize_word
from liegrowth.poly import MultiPoly, exact
from liegrowth.rowspace import RowSpace
from liegrowth.wreath import (
    MODE_W,
    MODE_WPLUS,
    MODES,
    WreathElement,
    certify_embedding,
    magnus_embedding,
    wreath_bracket,
)


def _is_exact(c) -> bool:
    return type(c) in (int, Fraction)


def _wreath_coeffs(e: WreathElement) -> list:
    tor_t, tor_u = torus_blocks(e)
    return list(e.terms.values()) + list(tor_t + tor_u)


# ---------------------------------------------------------------- constructors


def test_exact_keeps_integral_values_as_int():
    for value, expected in (
        (3, 3), (Fraction(6, 2), 3), (Fraction(-4, 1), -4), (True, 1), (2.0, 2), (0, 0),
    ):
        got = exact(value)
        assert type(got) is int and got == expected
    for value, expected in ((Fraction(1, 2), Fraction(1, 2)), (0.25, Fraction(1, 4)), ("-2/3", Fraction(-2, 3))):
        got = exact(value)
        assert type(got) is Fraction and got == expected


def test_public_constructors_store_int_or_fraction():
    p = MultiPoly(2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 2), (0, 0): 0.5, (2, 0): 0})
    assert p.terms == {(1, 0): 2, (0, 1): Fraction(1, 2), (0, 0): Fraction(1, 2)}
    assert type(p.terms[(1, 0)]) is int
    assert type(p.terms[(0, 1)]) is Fraction and type(p.terms[(0, 0)]) is Fraction
    for q in (MultiPoly(2, {(0, 0): Fraction(3)}), MultiPoly(2, {(0, 1): 1}), MultiPoly(2, {(1, 1): 2.0})):
        assert all(type(c) is int for c in q.terms.values())

    module = {(0, (1, 0)): Fraction(4, 2), (0, (0, 1)): Fraction(1, 2), (0, (0, 0)): 0.5, (0, (2, 0)): 0, (1, (1, 1)): 0.0}
    torus = {(-1, 0): Fraction(2), (-1, 1): 0.5, (-2, 0): 0, (-2, 1): Fraction(-3, 3)}
    e = WreathElement(2, 2, module, torus)
    terms, torus = e.decoded()
    assert terms == {(0, (1, 0)): 2, (0, (0, 1)): Fraction(1, 2), (0, (0, 0)): Fraction(1, 2)}
    assert [type(c) for c in terms.values()] == [int, Fraction, Fraction]
    assert torus == {(-1, 0): 2, (-1, 1): Fraction(1, 2), (-2, 1): -1}
    assert torus_blocks(e) == ((2, Fraction(1, 2)), (0, -1))
    assert [type(c) for block in torus_blocks(e) for c in block] == [int, Fraction, int, int]
    # the constructor copies its input
    module[(1, (0, 0))] = 1
    assert (1, (0, 0)) not in e.decoded()[0]
    for g in (WreathElement.gen_a(0, 2, 2), WreathElement.gen_t(1, 2, 2), WreathElement.gen_u(0, 2, 2)):
        assert all(type(c) is int for c in _wreath_coeffs(g))

    m = MetabelianElement(2, {(0,): Fraction(2, 2), (1, 0): Fraction(1, 3), (1,): 0})
    assert m.terms == {(0,): 1, (1, 0): Fraction(1, 3)}
    assert type(m.terms[(0,)]) is int
    assert type(MetabelianElement.generator(1, 2).terms[(1,)]) is int


@pytest.mark.parametrize("value", (float("inf"), float("-inf"), float("nan"), "1/0", "0/0"))
@pytest.mark.parametrize(
    "make",
    (
        lambda c: MultiPoly(1, {(0,): c}),
        lambda c: MetabelianElement(1, {(0,): c}),
        lambda c: WreathElement(1, 1, None, {(-1, 0): c}),
        lambda c: RowSpace().add({0: c}),
        lambda c: WreathElement.gen_a(0, 1, 1) * c,
    ),
    ids=("MultiPoly", "MetabelianElement", "WreathElement", "RowSpace.add", "WreathElement*"),
)
def test_non_finite_coefficients_raise_value_error(make, value):
    # not OverflowError or ZeroDivisionError: an ArithmeticError means a failed cross-check
    with pytest.raises(ValueError):
        make(value)


def test_scalar_products_store_integral_values_as_int():
    p = MultiPoly(2, {(1, 0): 3, (0, 1): Fraction(1, 2)})
    e = WreathElement(1, 2, {(0, exps): c for exps, c in p.terms.items()}, {(-1, 0): 1, (-1, 1): Fraction(2, 3)})
    m = MetabelianElement(2, {(0,): 3, (1, 0): Fraction(1, 2)})
    for scalar in (Fraction(2), 2, 2.0):
        assert (p * scalar).terms == {(1, 0): 6, (0, 1): 1}
        assert all(type(c) is int for c in (p * scalar).terms.values())
        assert (scalar * m).terms == {(0,): 6, (1, 0): 1}
        assert all(type(c) is int for c in (m * scalar).terms.values())
        assert torus_blocks(e * scalar)[0] == (2, Fraction(4, 3))
    for result in (p * Fraction(1, 3), p * 0.5):
        assert all(_is_exact(c) and c for c in result.terms.values())
    assert (p * 0).is_zero() and (m * Fraction(0)).is_zero() and (e * 0.0).is_zero()


def test_sums_and_products_store_integral_values_as_int():
    # halves that sum to a whole: `+` and `-` store the `int`, as `2 * a` does
    a = MetabelianElement(2, {(0,): Fraction(1, 2)})
    w = WreathElement(1, 1, {(0, (0,)): Fraction(1, 2)}, {(-1, 0): Fraction(-1, 2)})
    for total, twice in ((a + a, 2 * a), (a - -a, 2 * a), (w + w, 2 * w), (w - -w, 2 * w)):
        assert total == twice
        assert [type(c) for c in total.terms.values()] == [int]
    assert [type(c) for c in (w + w).torus.values()] == [int]
    product = MultiPoly(1, {(1,): Fraction(1, 2), (0,): Fraction(-1, 2)}) * MultiPoly(1, {(0,): 2})
    assert product.terms == {(1,): 1, (0,): -1}
    assert [type(c) for c in product.terms.values()] == [int, int]


_COEFFS = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=4))
_EXPS = [(i, j) for i in range(2) for j in range(2)]


def _term_dicts(keys):
    return st.dictionaries(st.sampled_from(keys), _COEFFS, max_size=4)


# Fraction-weighted elements of each type over a few keys, so that sums meet on shared keys
FRACTION_WEIGHTED = {
    "MultiPoly": _term_dicts(_EXPS).map(lambda terms: MultiPoly(2, terms)),
    "MetabelianElement": _term_dicts([mono for n in (1, 2, 3) for mono in basis_monomials(2, n)]).map(
        lambda terms: MetabelianElement(2, terms)
    ),
    "WreathElement": st.builds(
        lambda terms, torus: WreathElement(2, 2, terms, torus),
        _term_dicts([(k, exps) for k in range(2) for exps in _EXPS]),
        _term_dicts([(-power, i) for power in (1, 2) for i in range(2)]),
    ),
}


@pytest.mark.parametrize("kind", list(FRACTION_WEIGHTED))
@given(data=st.data())
def test_sums_and_differences_store_every_integral_coefficient_as_an_int(kind, data):
    x, y = data.draw(FRACTION_WEIGHTED[kind]), data.draw(FRACTION_WEIGHTED[kind])
    for result in (x + y, x - y):
        for part in result._unpack()[1]:
            for c in part.values():
                assert c and (type(c) is int or c.denominator > 1)


# ------------------------------------------------------- int in, int out


@pytest.mark.parametrize("mode", MODES)
def test_wreath_brackets_of_int_elements_are_int(mode):
    rng = random.Random(len(mode))
    d = 3
    for _ in range(100):
        els = []
        for _ in range(3):
            module = {
                (k, tuple(rng.randint(0, 2) for _ in range(d))): rng.randint(-4, 4) for k in range(d) for _ in range(2)
            }
            torus = {(-2, i): rng.randint(-2, 2) for i in range(d)} if mode == MODE_WPLUS else {}
            torus.update({(-1, i): rng.randint(-2, 2) for i in range(d)})
            els.append(WreathElement(d, d, module, torus))
        p, q, r = els
        for result in (wreath_bracket(p, q), wreath_bracket(wreath_bracket(p, q), r), p - q, -p + q):
            assert all(type(c) is int for c in _wreath_coeffs(result))
            assert all(c for c in result.terms.values())
        assert all(type(c) is int for c in result.coords().values())


def test_normal_forms_and_expansions_of_int_inputs_are_int():
    rng = random.Random(5)
    for d in (2, 3, 4):
        gens = [Generator("x", i) for i in range(d)]
        for _ in range(40):
            e = random_expr(rng, gens, rng.randint(1, 6))
            assert all(type(c) is int and c for c in left_normalize(e).values())
            nf = normalize_expr(e, d)
            assert all(type(c) is int and c for c in nf.terms.values())
            assert all(type(c) is int for c in _wreath_coeffs(magnus_embedding(nf)))
        for n in (1, 2, 3, 4):
            for word in basis_monomials(d, n):
                assert all(type(c) is int for c in normalize_word(word[::-1], d).terms.values())


def test_metabelian_brackets_of_int_elements_are_int():
    rng = random.Random(9)
    for d in (2, 3):
        words = [w for n in (1, 2, 3) for w in basis_monomials(d, n)]
        for _ in range(60):
            p = MetabelianElement(d, {w: rng.randint(-3, 3) for w in rng.sample(words, 3)})
            q = MetabelianElement(d, {w: rng.randint(-3, 3) for w in rng.sample(words, 3)})
            for result in (metabelian.bracket(p, q), p + q, p - q, -p):
                assert all(type(c) is int and c for c in result.terms.values())


def test_search_and_certificates_hold_no_float():
    for mode in ("metabelian", MODE_W, MODE_WPLUS):
        rep = growth_bfs(mode, 2, 5)
        assert all(type(g) is int for g in rep.gamma + rep.graded)
    rep = certify_embedding(2, 4, trials=10)
    assert rep.passed and all(type(v) is int for row in rep.ranks for v in row)


# ------------------------------------------------------------------ rowspace


def _random_int_vectors(rng: random.Random, count: int, keys: int) -> list[dict]:
    """Sparse int vectors whose entries include non-unit and negative pivots."""
    coeffs = [c for c in range(-6, 7) if c]
    out = []
    for _ in range(count):
        support = rng.sample(range(keys), rng.randint(1, min(4, keys)))
        out.append({k: rng.choice(coeffs) for k in support})
    return out


def _assert_exact_vector(vec: dict) -> None:
    assert all(_is_exact(c) and c for c in vec.values())


@pytest.mark.parametrize("seed", range(6))
def test_rowspace_int_inputs_match_fraction_inputs(seed):
    rng = random.Random(seed)
    keys = rng.choice((4, 6, 8))
    vectors = _random_int_vectors(rng, 3 * keys, keys)
    # dependent vectors: integer combinations of earlier ones
    for _ in range(keys):
        a, b = rng.sample(vectors, 2)
        combo = combine({0: rng.randint(-3, 3), 1: rng.randint(-3, 3)}, [a, b])
        if combo:
            vectors.insert(rng.randint(0, len(vectors)), combo)
    as_int, as_frac, plain = RowSpace(), RowSpace(), RowSpace()
    inserted: list[dict] = []
    probes = [augment(vec, len(vectors)) for vec in _random_int_vectors(rng, 10, keys)]
    for idx, vec in enumerate(vectors):
        frac = {k: Fraction(c) for k, c in vec.items()}
        grew_i, combo_i = add_augmented(as_int, vec, idx)
        grew_f, combo_f = add_augmented(as_frac, frac, idx)
        inserted.append(vec)
        assert grew_i == grew_f == plain.add(vec)
        assert combo_i == combo_f
        assert as_int.rank == as_frac.rank == idx + 1
        if not grew_i:
            _assert_exact_vector(combo_i)
            assert combine(combo_i, inserted) == vec
        for probe in probes:
            res_i = as_int.reduce(probe)
            assert res_i == as_frac.reduce({k: Fraction(c) for k, c in probe.items()})
            _assert_exact_vector(res_i)
    for vec in inserted:
        assert not plain.reduce(vec)


def test_rowspace_non_unit_and_negative_pivots():
    rs, augmented = RowSpace(), RowSpace()
    inserted = [{0: 2, 1: 3}, {1: -3, 2: 5}, {2: -1, 3: 4}]  # pivots 2, -3, -1
    for idx, vec in enumerate(inserted):
        assert rs.add(vec)
        assert add_augmented(augmented, vec, idx) == (True, {})
    assert rs.rank == 3
    assert rs.reduce({0: 1}) == {3: -10}
    assert rs.reduce({1: 1, 3: 1}) == {3: Fraction(23, 3)}
    # the row of pivot -1 keeps integer entries
    assert rs.reduce({2: 1}) == {3: 4} and type(rs.reduce({2: 1})[3]) is int
    # the second witness names the dependent target before it; a reduction
    # over independent rows alone gives {0: 1/2, 1: -1/2, 2: 5}
    for target, expected in (
        ({0: 4, 1: 3, 2: 5}, {0: 2, 1: 1}),
        ({0: 1, 1: 3, 2: Fraction(-15, 2), 3: 20}, {1: Fraction(-3, 4), 2: 5, 3: Fraction(1, 4)}),
        ({2: 3, 3: -12}, {2: -3}),
    ):
        grew, combo = add_augmented(augmented, target, len(inserted))
        inserted.append(target)
        assert not grew
        assert combo == expected
        _assert_exact_vector(combo)
        assert combine(combo, inserted) == target
