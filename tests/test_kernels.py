"""The bracket kernels against references built from public operations.

`wreath_bracket`, `metabelian.bracket` and the polynomial operators build
their results with trusted internal constructors. These tests compare them,
on seeded random elements, with the same formulas written out through the
public (validating) API, and check that every result survives a rebuild
through the public constructors unchanged.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from _oracles import action_poly, from_polys, module_polys, torus_blocks
from liegrowth import metabelian
from liegrowth.metabelian import MetabelianElement, basis_monomials, normalize_word
from liegrowth.poly import MultiPoly
from liegrowth.wreath import (
    MODE_WPLUS,
    MODES,
    WreathElement,
    magnus_embedding,
    wreath_bracket,
)

SHAPES = ((1, 1), (2, 2), (3, 2), (2, 4))


def _coeff(rng: random.Random) -> Fraction:
    # mostly non-integer rationals, some integers, never zero
    num = rng.choice([c for c in range(-7, 8) if c])
    return Fraction(num, rng.choice((1, 2, 3, 5)))


def _random_poly(rng: random.Random, n: int) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(0, 4)):
        terms[tuple(rng.randint(0, 3) for _ in range(n))] = _coeff(rng)
    return MultiPoly(n, terms)


def _random_block(rng: random.Random, n: int) -> list[Fraction]:
    return [_coeff(rng) if rng.random() < 0.5 else Fraction(0) for _ in range(n)]


def _random_element(rng: random.Random, m: int, n: int, mode: str) -> WreathElement:
    """A random element; about a third each have a zero module or torus part."""
    kind = rng.choice(("both", "module only", "torus only"))
    if kind == "torus only":
        module = None
    else:
        module = [_random_poly(rng, n) for _ in range(m)]
    if kind == "module only":
        return from_polys(m, n, module)
    tor_u = _random_block(rng, n) if mode == MODE_WPLUS else None
    return from_polys(m, n, module, _random_block(rng, n), tor_u)


def _exact_nonzero(c) -> bool:
    """The coefficient invariant: nonzero, and an `int` or a `Fraction`."""
    return type(c) in (int, Fraction) and c != 0


def _rebuilt(e: WreathElement) -> WreathElement:
    """A copy of e made through the public, validating constructors."""
    return from_polys(
        e.m,
        e.n,
        [MultiPoly(p.nvars, dict(p.terms)) for p in module_polys(e)],
        *torus_blocks(e),
    )


def _assert_well_formed(e: WreathElement) -> None:
    assert e == _rebuilt(e)
    assert isinstance(module_polys(e), tuple) and len(module_polys(e)) == e.m
    for p in module_polys(e):
        assert p.nvars == e.n
        assert all(_exact_nonzero(c) for c in p.terms.values())
    # torus coefficients may be zero, but are still exact
    assert all(type(c) in (int, Fraction) for block in torus_blocks(e) for c in block)


def _reference_bracket(p: WreathElement, q: WreathElement) -> WreathElement:
    act_p, act_q = action_poly(p), action_poly(q)
    module = [bp * act_q - bq * act_p for bp, bq in zip(module_polys(p), module_polys(q))]
    return from_polys(p.m, p.n, module)


def _variable(n: int, i: int, power: int = 1) -> MultiPoly:
    """The monomial t_{i+1}^power."""
    return MultiPoly(n, {tuple(power if j == i else 0 for j in range(n)): 1})


def _reference_action(e: WreathElement) -> MultiPoly:
    out = MultiPoly.zero(e.n)
    tor_t, tor_u = torus_blocks(e)
    for i, c in enumerate(tor_t):
        out = out + _variable(e.n, i) * c
    for i, c in enumerate(tor_u):
        out = out + _variable(e.n, i, 2) * c
    return out


# ------------------------------------------------------------------ wreath


# the mode picks the operands: elements of W (no u-letter) or of Wplus
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("m,n", SHAPES)
def test_wreath_bracket_matches_public_formula(mode, m, n):
    rng = random.Random(1000 * m + 10 * n + len(mode))
    for _ in range(150):
        p = _random_element(rng, m, n, mode)
        q = _random_element(rng, m, n, mode)
        result = wreath_bracket(p, q)
        assert result == _reference_bracket(p, q)
        _assert_well_formed(result)
        assert not result.torus
        # the operands are left as they were
        assert p == _rebuilt(p) and q == _rebuilt(q)


def test_wreath_bracket_of_brackets():
    # after the first level the operands are brackets: zero torus parts
    rng = random.Random(7)
    for mode in MODES:
        for _ in range(60):
            els = [_random_element(rng, 2, 3, mode) for _ in range(3)]
            pq = wreath_bracket(els[0], els[1])
            for other in (els[2], pq):
                for x, y in ((pq, other), (other, pq)):
                    result = wreath_bracket(x, y)
                    assert result == _reference_bracket(x, y)
                    _assert_well_formed(result)


@pytest.mark.parametrize("mode", MODES)
def test_wreath_bracket_with_unit_and_non_unit_torus_coefficients(mode):
    # each torus coefficient, times the sign of its side, is 1, -1 or not a unit
    m, n = 2, 2
    rng = random.Random(11)
    coeffs = (1, -1, 3, Fraction(-2, 3))
    for c, c2 in product(coeffs, repeat=2):
        module = [_random_poly(rng, n) for _ in range(m)]
        other = [_random_poly(rng, n) for _ in range(m)]
        u_block = [c2, 0] if mode == MODE_WPLUS else None
        p = from_polys(m, n, module, [c, 0], u_block)
        q = from_polys(m, n, other, [0, c2], u_block)
        for x, y in ((p, q), (q, p)):
            result = wreath_bracket(x, y)
            assert result == _reference_bracket(x, y)
            _assert_well_formed(result)


def test_action_poly_matches_public_formula():
    rng = random.Random(3)
    for m, n in SHAPES:
        for mode in MODES:
            for _ in range(40):
                e = _random_element(rng, m, n, mode)
                act = action_poly(e)
                assert act == _reference_action(e)
                assert act == MultiPoly(n, dict(act.terms))


def test_element_arithmetic_is_well_formed():
    rng = random.Random(11)
    for mode in MODES:
        for _ in range(80):
            p = _random_element(rng, 2, 3, mode)
            q = _random_element(rng, 2, 3, mode)
            c = _coeff(rng)
            for result in (p + q, p - q, -p, p * c, c * p, p * 0, p - p):
                _assert_well_formed(result)
            assert p - q == p + (-q)
            assert (p - p).is_zero() and (p * 0).is_zero()
            assert p * c == from_polys(
                2, 3, [x * c for x in module_polys(p)], *([x * c for x in block] for block in torus_blocks(p))
            )


def test_bracket_checks_are_kept():
    # elements of different models do not bracket, even when both are zero
    a1 = WreathElement.gen_a(0, 2, 2)
    with pytest.raises(ValueError):
        wreath_bracket(a1, WreathElement.gen_a(0, 2, 3))
    with pytest.raises(ValueError):
        wreath_bracket(WreathElement.zero(2, 2), WreathElement.zero(3, 2))


def test_public_wreath_constructor_still_validates():
    # module keys (k, exps) need 0 <= k < m and n exponents, each >= 0
    for key in ((2, (0, 0)), (-1, (0, 0)), (0, (0, 0, 0)), (0, (0,)), (0, (1, -1)), (0, 0), 5, "ab", (0, (0, 0), 1)):
        with pytest.raises(ValueError, match="malformed key"):
            WreathElement(2, 2, {key: 1})
    # torus keys are (-1, i) or (-2, i) with 0 <= i < n
    for key in ((-3, 0), (1, 0), (0, 0), (-1, 2), (-2, -1), (-1,), (-1, (0,)), 7):
        with pytest.raises(ValueError, match="malformed key"):
            WreathElement(2, 2, None, {key: 1})
    # a module key is not a torus key, nor the other way round
    with pytest.raises(ValueError, match="malformed key"):
        WreathElement(2, 2, {(-1, 0): 1})
    with pytest.raises(ValueError, match="malformed key"):
        WreathElement(2, 2, None, {(0, (0, 0)): 1})


# -------------------------------------------------------------------- poly


def test_poly_operators_match_term_by_term_reference():
    rng = random.Random(5)
    for n in (1, 2, 3):
        for _ in range(100):
            f, g = _random_poly(rng, n), _random_poly(rng, n)
            prod: dict = {}
            for e1, c1 in f.terms.items():
                for e2, c2 in g.terms.items():
                    key = tuple(x + y for x, y in zip(e1, e2))
                    prod[key] = prod.get(key, 0) + c1 * c2
            diff = dict(f.terms)
            for e, c in g.terms.items():
                diff[e] = diff.get(e, 0) - c
            assert f * g == MultiPoly(n, prod)
            assert f - g == MultiPoly(n, diff)
            assert f - g == f + (-g)
            for result in (f * g, f - g, f + g, -f, f * _coeff(rng)):
                assert result == MultiPoly(n, dict(result.terms))
                assert all(_exact_nonzero(c) for c in result.terms.values())


def test_poly_zero_factor_and_arity_checks():
    f = MultiPoly(2, {(1, 0): Fraction(1, 2)})
    zero = MultiPoly.zero(2)
    for result in (f * zero, zero * f, f * 0):
        assert result.is_zero() and result.nvars == 2
    for op in (lambda x, y: x * y, lambda x, y: x - y, lambda x, y: x + y):
        with pytest.raises(ValueError):
            op(zero, MultiPoly.zero(3))
        with pytest.raises(ValueError):
            op(f, MultiPoly.zero(3))


# -------------------------------------------------------------- metabelian


def _random_metabelian(rng: random.Random, d: int) -> MetabelianElement:
    """Zero, generators only, derived terms only, or a mix."""
    kind = rng.choice(("zero", "generators", "derived", "mixed"))
    words = []
    if kind in ("generators", "mixed"):
        words += basis_monomials(d, 1)
    if kind in ("derived", "mixed") and d >= 2:
        for n in range(2, 5):
            words += basis_monomials(d, n)
    chosen = rng.sample(words, min(len(words), rng.randint(1, 4)))
    return MetabelianElement(d, {w: _coeff(rng) for w in chosen})


def _reference_metabelian_bracket(p: MetabelianElement, q: MetabelianElement) -> MetabelianElement:
    out = MetabelianElement.zero(p.d)
    for w1, c1 in p.terms.items():
        for w2, c2 in q.terms.items():
            if len(w2) == 1:
                out = out + normalize_word(w1 + w2, p.d) * c1 * c2
            elif len(w1) == 1:
                # [x, w2] = -[w2, x]
                out = out - normalize_word(w2 + w1, p.d) * c1 * c2
    return out


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_metabelian_bracket_matches_word_sum(d):
    rng = random.Random(d)
    for _ in range(120):
        p, q = _random_metabelian(rng, d), _random_metabelian(rng, d)
        result = metabelian.bracket(p, q)
        assert result == _reference_metabelian_bracket(p, q)
        assert result == MetabelianElement(d, dict(result.terms))
        assert all(_exact_nonzero(c) for c in result.terms.values())


def test_metabelian_bracket_is_a_wreath_bracket_under_the_embedding():
    rng = random.Random(17)
    for d in (2, 3):
        for _ in range(40):
            p, q = _random_metabelian(rng, d), _random_metabelian(rng, d)
            lhs = magnus_embedding(metabelian.bracket(p, q))
            rhs = wreath_bracket(magnus_embedding(p), magnus_embedding(q))
            assert lhs == rhs


def test_metabelian_bracket_rejects_mixed_d():
    with pytest.raises(ValueError):
        metabelian.bracket(MetabelianElement.generator(0, 2), MetabelianElement.generator(0, 3))
