from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _oracles import (
    action_poly,
    magnus_embedding_by_sums,
    magnus_generator_images_by_constructor,
    random_element_by_constructor,
    wreath_text,
)
from conftest import seeded_rng, x_gens
from liegrowth import wreath
from liegrowth.expr import Generator, evaluate, parse_expr, random_expr
from liegrowth.metabelian import MetabelianElement, basis_monomials, graded_dim, normalize_expr, normalize_word
from liegrowth.poly import MultiPoly
from liegrowth.rowspace import RowSpace
from liegrowth.wreath import (
    MODE_W,
    MODE_WPLUS,
    WreathElement,
    certify_embedding,
    decode_key,
    magnus_embedding,
    magnus_generator_images,
    max_module_degree,
    model_laws_report,
    standard_assignment,
    wreath_bracket,
)


def a(k, m=2, n=2):
    return WreathElement.gen_a(k, m, n)


def t(i, m=2, n=2):
    return WreathElement.gen_t(i, m, n)


def u(i, m=2, n=2):
    return WreathElement.gen_u(i, m, n)


# -------------------------------------------------------------------- bracket

def test_bracket_of_embedded_generators():
    p = a(0) + t(0)
    q = a(1) + t(1)
    got = wreath_bracket(p, q)
    want = WreathElement(2, 2, {(0, (0, 1)): Fraction(1), (1, (1, 0)): Fraction(-1)})
    assert got == want


def test_u_acts_as_square():
    got = wreath_bracket(a(0), u(0))
    want = WreathElement(2, 2, {(0, (2, 0)): 1})
    assert got == want
    # and equals [a1,t1,t1]
    twice = wreath_bracket(wreath_bracket(a(0), t(0)), t(0))
    assert got == twice


def test_torus_is_abelian_and_commutators_land_in_module():
    assert wreath_bracket(t(0), t(1)).is_zero()
    assert wreath_bracket(u(0), u(1)).is_zero()
    rng = seeded_rng(1)
    from liegrowth.wreath import _random_element

    for _ in range(20):
        p = _random_element(rng, 2, MODE_WPLUS)
        q = _random_element(rng, 2, MODE_WPLUS)
        pq = wreath_bracket(p, q)
        assert not pq.torus


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        wreath_bracket(a(0, 2, 2), WreathElement.gen_a(0, 3, 3))
    for other in (WreathElement.gen_a(0, 3, 2), WreathElement.gen_t(0, 2, 3)):
        with pytest.raises(ValueError, match="different models"):
            a(0) + other
        with pytest.raises(ValueError, match="different models"):
            a(0) - other


def test_action_poly():
    e = t(0) * 2 + u(1) * Fraction(1, 3)
    assert action_poly(e) == MultiPoly(2, {(1, 0): Fraction(2), (0, 2): Fraction(1, 3)})


def test_general_rectangular_model():
    # m = 1 module vector over n = 3 torus variables
    ak = WreathElement.gen_a(0, 1, 3)
    t3 = WreathElement.gen_t(2, 1, 3)
    got = wreath_bracket(ak, t3)
    assert got == WreathElement(1, 3, {(0, (0, 0, 1)): 1})


def test_standard_assignment_blocks():
    asg = standard_assignment(2, 2, MODE_W)
    assert Generator("u", 0) not in asg
    asg_plus = standard_assignment(2, 2, MODE_WPLUS)
    assert asg_plus[Generator("u", 1)] == u(1)
    # a, t, u in that order: the growth search takes its generators from here
    assert list(asg_plus) == [Generator(kind, i) for kind in "atu" for i in range(2)]


def test_unknown_mode_is_rejected_before_any_bracket(monkeypatch):
    def no_bracket(p, q):
        raise AssertionError("bracket made before the mode was checked")

    monkeypatch.setattr(wreath, "wreath_bracket", no_bracket)
    for check in (lambda: standard_assignment(2, 2, "V"), lambda: model_laws_report(2, "V")):
        with pytest.raises(ValueError, match=r"^unknown mode 'V'$"):
            check()


def test_negative_sizes_are_rejected_before_any_bracket(monkeypatch):
    def no_bracket(p, q):
        raise AssertionError("bracket made before the sizes were checked")

    monkeypatch.setattr(wreath, "wreath_bracket", no_bracket)
    for check, message in (
        (lambda: model_laws_report(2, trials=-1), "trials"),
        (lambda: model_laws_report(2, span_degree=-1, trials=0), "span_degree"),
        (lambda: certify_embedding(2, 2, trials=-5), "trials"),
    ):
        with pytest.raises(ValueError, match=rf"^{message} must be >= 0$"):
            check()


# ----------------------------------------------------------------- key layout

TOP = 2**32 - 1  # the largest exponent the constructor accepts


def _exponents(n):
    return st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, TOP))] * n)


def _packed(m, n, key):
    """The packed key of one module monomial (k, exps)."""
    (packed,) = WreathElement(m, n, {key: 1}).terms
    return packed


def _torus_keys(n):
    """The keys of t1..tn, then of u1..un."""
    return [next(iter(gen(i, 1, n).torus)) for gen in (WreathElement.gen_t, WreathElement.gen_u) for i in range(n)]


@given(st.data())
def test_packed_keys_keep_the_order_of_the_basis(data):
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 4))
    keys = data.draw(st.lists(st.tuples(st.integers(0, m - 1), _exponents(n)), min_size=2, max_size=8))
    packed = [_packed(m, n, key) for key in keys]
    for (x, px), (y, py) in combinations(zip(keys, packed), 2):
        assert (x < y) == (px < py) and (x == y) == (px == py)
    assert [decode_key(key, n) for key in packed] == keys
    # every torus key before every module key, each decoding to (-power, i)
    torus = _torus_keys(n)
    assert max(torus) < min(packed)
    assert [decode_key(key, n) for key in torus] == [(-p, i) for p in (1, 2) for i in range(n)]


coefficients = st.one_of(st.integers(-5, 5), st.fractions(-3, 3, max_denominator=4)).filter(bool)


@st.composite
def basis_layouts(draw):
    """(m, n, terms, torus) with the two dicts in the layout of the basis and no zero."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    terms = draw(st.dictionaries(st.tuples(st.integers(0, m - 1), _exponents(n)), coefficients, max_size=6))
    letters = st.tuples(st.sampled_from((-1, -2)), st.integers(0, n - 1))
    return m, n, terms, draw(st.dictionaries(letters, coefficients, max_size=4))


@given(basis_layouts())
def test_decoded_gives_back_the_constructor_input(layout):
    m, n, terms, torus = layout
    e = WreathElement(m, n, terms, torus)
    assert e.decoded() == (terms, torus)
    assert WreathElement(m, n, *e.decoded()) == e
    assert str(e) == wreath_text(terms, torus)
    assert e.module_degree() == max((sum(exps) for _, exps in terms), default=-1)


@given(st.data())
def test_max_module_degree_is_the_max_of_the_module_degrees(data):
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 4))
    # an element with no module term (torus only, or zero) has degree -1
    modules = st.dictionaries(st.tuples(st.integers(0, m - 1), _exponents(n)), coefficients, max_size=4)
    layouts = data.draw(st.lists(st.tuples(modules, st.sampled_from(({}, {(-1, 0): 1}))), max_size=5))
    elements = [WreathElement(m, n, terms, torus) for terms, torus in layouts]
    degrees = [max((sum(exps) for _, exps in terms), default=-1) for terms, _ in layouts]
    assert [e.module_degree() for e in elements] == degrees
    assert max_module_degree(elements, n) == max(degrees, default=-1)


def test_extra_keys_of_the_certificate_sort_after_every_module_key(monkeypatch):
    rows = []

    class Recording(RowSpace):
        def add_with_witness(self, vec):
            rows.append(list(vec))
            return super().add_with_witness(vec)

    monkeypatch.setattr(wreath, "RowSpace", Recording)
    for d in (1, 2, 3):
        rows.clear()
        assert certify_embedding(d, 4, trials=0).passed
        extras = [row[-1] for row in rows]
        # per degree, the i-th image's extra key decodes to (d, (0, .., 0, i))
        assert [decode_key(key, d) for key in extras] == [
            (d, (0,) * (d - 1) + (i,)) for n in range(1, 5) for i in range(graded_dim(d, n))
        ]
        module = [key for row in rows for key in row[:-1]]
        # the largest key the constructor takes, and one a bracket raised past it
        largest = WreathElement(d, d, {(d - 1, (TOP,) * d): 1})
        (raised,) = wreath_bracket(largest, u(d - 1, d, d)).terms
        assert max(module + _torus_keys(d) + [*largest.terms, raised]) < min(extras)


def test_exponents_are_bounded_and_a_bracket_passes_the_bound():
    e = WreathElement(2, 2, {(0, (TOP, 5)): 1})
    assert e.decoded() == ({(0, (TOP, 5)): 1}, {})
    for bad in (TOP + 1, -1):
        with pytest.raises(ValueError, match="malformed key"):
            WreathElement(2, 2, {(0, (bad, 5)): 1})
    # a bracket raises an exponent past 2^32 and leaves k and the other exponent alone
    raised = wreath_bracket(e, u(0))
    assert raised.decoded() == ({(0, (TOP + 2, 5)): 1}, {})
    assert raised.module_degree() == TOP + 7
    f = WreathElement(2, 2, {(1, (5, TOP)): 1})
    assert wreath_bracket(f, u(1)).decoded() == ({(1, (5, TOP + 2)): 1}, {})


# ------------------------------------------------------------------ embedding

@pytest.mark.parametrize("bad", [0, -1, True, 2.0, "2"])
def test_magnus_images_reject_a_d_that_is_not_a_positive_int(bad):
    with pytest.raises(ValueError, match=r"^d must be"):
        magnus_generator_images(bad)


@pytest.mark.parametrize("d", range(1, 7))
def test_magnus_images_match_the_constructor_build(d):
    got = magnus_generator_images(d)
    want = magnus_generator_images_by_constructor(d)
    assert list(got) == list(want) == x_gens(d)
    for gen, image in got.items():
        assert list(image.terms.items()) == list(want[gen].terms.items())
        assert list(image.torus.items()) == list(want[gen].torus.items())


@st.composite
def normal_forms(draw):
    """A normal form over d <= 4 of basis monomials of degree <= 5, with int and `Fraction` coefficients."""
    d = draw(st.integers(1, 4))
    monos = [mono for n in range(1, 6) for mono in basis_monomials(d, n)]
    return MetabelianElement(d, draw(st.dictionaries(st.sampled_from(monos), coefficients, max_size=8)))


# two words whose images share the term a1*t2*t3, where halves cancel (-1/2) or sum to 1 (1/2)
@example(MetabelianElement(3, {(1, 0, 2): Fraction(1, 2), (2, 0, 1): Fraction(-1, 2)}))
@example(MetabelianElement(3, {(1, 0, 2): Fraction(1, 2), (2, 0, 1): Fraction(1, 2)}))
@given(normal_forms())
def test_magnus_embedding_sums_in_place_as_the_operators_sum(elem):
    got = magnus_embedding(elem)
    assert got == magnus_embedding_by_sums(elem)
    for part in (got.terms, got.torus):
        assert all(c and (type(c) is int or c.denominator > 1) for c in part.values())


def test_magnus_image_of_degree_two():
    got = magnus_embedding(normalize_word((1, 0), 2))
    want = WreathElement(2, 2, {(0, (0, 1)): Fraction(-1), (1, (1, 0)): Fraction(1)})
    assert got == want


def test_magnus_images_have_zero_torus_beyond_degree_one():
    for d in (1, 2, 3):
        for n in (2, 3, 4):
            for mono in basis_monomials(d, n):
                from liegrowth.metabelian import MetabelianElement

                img = magnus_embedding(MetabelianElement(d, {mono: Fraction(1)}))
                assert not img.torus
                assert img.module_degree() == n - 1


def test_certify_embedding_small():
    for d in (1, 2, 3):
        rep = certify_embedding(d, 6)
        assert rep.passed, rep.failures
        assert all(rank == expected == graded_dim(d, n) for n, rank, expected in rep.ranks)


def test_zero_image_is_reported_as_zero(monkeypatch):
    # x2 -> 2 * image(x1) kills every basis monomial of degree >= 2
    real = wreath.magnus_generator_images

    def collapsed(d):
        images = real(d)
        images[Generator("x", 1)] = images[Generator("x", 0)] * 2
        return images

    monkeypatch.setattr(wreath, "magnus_generator_images", collapsed)
    rep = certify_embedding(2, 4, trials=2)
    assert rep.failures == [
        "degree 1: image of x2 depends on 2*x1",
        "degree 1: rank 1 != expected 2",
        "degree 2: image of [x2,x1] is 0",
        "degree 2: rank 0 != expected 1",
        "degree 3: image of [x2,x1,x1] is 0",
        "degree 3: image of [x2,x1,x2] is 0",
        "degree 3: rank 0 != expected 2",
        "degree 4: image of [x2,x1,x1,x1] is 0",
        "degree 4: image of [x2,x1,x1,x2] is 0",
        "degree 4: image of [x2,x1,x2,x2] is 0",
        "degree 4: rank 0 != expected 3",
    ]


def _collapsed_images(monkeypatch, images_of):
    """certify_embedding with x_i -> images_of(real images)[i] in degree 1."""
    real = wreath.magnus_generator_images

    def collapsed(d):
        images = real(d)
        x = [images[Generator("x", i)] for i in range(d)]
        return {Generator("x", i): image for i, image in enumerate(images_of(x))}

    monkeypatch.setattr(wreath, "magnus_generator_images", collapsed)


def test_dependent_image_names_its_combination(monkeypatch):
    _collapsed_images(monkeypatch, lambda x: [x[0], x[1], x[0] + x[1] * 2])
    rep = certify_embedding(3, 1, trials=0)
    assert rep.failures == [
        "degree 1: image of x3 depends on 1*x1 + 2*x2",
        "degree 1: rank 2 != expected 3",
    ]


def test_witness_may_name_an_earlier_dependent_image(monkeypatch):
    # x2 -> 2*x1 and x3 -> 3*x1: the residual of x3 reduces through the
    # relation row of x2, so x3's witness is 3/2*x2, not 3*x1; both are true
    _collapsed_images(monkeypatch, lambda x: [x[0], x[0] * 2, x[0] * 3])
    rep = certify_embedding(3, 1, trials=0)
    assert rep.failures == [
        "degree 1: image of x2 depends on 2*x1",
        "degree 1: image of x3 depends on 3/2*x2",
        "degree 1: rank 1 != expected 3",
    ]
    images = wreath.magnus_generator_images(3)
    x1, x2, x3 = (images[Generator("x", i)] for i in range(3))
    assert x2 == x1 * 2 and x3 == x2 * Fraction(3, 2)


def test_homomorphism_witnesses_are_in_the_text_format(monkeypatch):
    # every image 0: each random expression whose direct value is nonzero fails
    monkeypatch.setattr(wreath, "magnus_embedding", lambda elem: WreathElement.zero(elem.d, elem.d))
    rep = certify_embedding(3, 1, seed=1, trials=6)
    assert rep.checked == 1 + 6  # one degree and six trials
    assert rep.failures == [
        "homomorphism property failed on [x2,x1]",
        "homomorphism property failed on x2",
        "homomorphism property failed on [x3,[x2,x3],x1]",
        "homomorphism property failed on [x2,[x1,[x3,[x2,x3]]]]",
        "homomorphism property failed on [x3,x1]",
    ]


def test_model_law_failures_are_pinned(monkeypatch):
    # [p, q] -> 2p breaks every law the report checks, and keeps the torus
    # part, so each kind of failure string appears once with its witnesses;
    # seed 1 is the first whose p has a module term, for the abelian check
    monkeypatch.setattr(wreath, "wreath_bracket", lambda p, q: p * 2)
    rep = model_laws_report(2, seed=1, trials=1, span_degree=1)
    p = "3*a1*t1^3*t2^3 - t1 + 2*u1"
    q = "-2*a1*t1*t2^3 - t1 + 2*t2 + 2*u1"
    r = "-3*a1*t1^3*t2^3 + 3*a2*t1*t2^2 - t1 + t2 + 2*u1 - u2"
    assert rep.checked == 12
    assert rep.failures == [
        f"antisymmetry failed: p={p}, q={q}",
        f"Jacobi failed: p={p}, q={q}, r={r}",
        f"commutator left the module: [{p}, {q}] = 6*a1*t1^3*t2^3 - 2*t1 + 4*u1",
        "module part not abelian: 3*a1*t1^3*t2^3, -2*a1*t1*t2^3",
        "tower a1,(0,) is not the expected monomial",
        "tower a1,(1,) is not the expected monomial",
        "tower a2,(0,) is not the expected monomial",
        "tower a2,(1,) is not the expected monomial",
        "towers of torus length 1 span rank 2, expected 4",
    ]


@pytest.mark.parametrize("mode", [MODE_W, MODE_WPLUS])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_random_model_elements_match_the_constructor_draw(d, mode):
    # the packed draw makes the same rng calls, in the same order, as the
    # constructor draw, and gives the same element dicts, key order included
    for seed in range(6):
        rng, ref_rng = seeded_rng(seed), seeded_rng(seed)
        for _ in range(8):
            got = wreath._random_element(rng, d, mode)
            want = random_element_by_constructor(ref_rng, d, mode)
            assert list(got.terms.items()) == list(want.terms.items())
            assert list(got.torus.items()) == list(want.torus.items())
            assert rng.getstate() == ref_rng.getstate()


def test_random_model_elements_cover_every_value_of_their_ranges():
    # over many draws each exponent 0..3 occurs, each nonzero module (-3..4)
    # and torus (-1..2) coefficient occurs, and no zero is stored
    rng = seeded_rng(0)
    exps, module, torus = set(), set(), set()
    for _ in range(400):
        e = wreath._random_element(rng, 2, MODE_WPLUS)
        terms, letters = e.decoded()
        exps.update(x for _, key_exps in terms for x in key_exps)
        module.update(terms.values())
        torus.update(letters.values())
    assert exps == set(range(4))
    assert module == set(range(-3, 5)) - {0}
    assert torus == {-1, 1, 2}


def _faulty_bracket(fault):
    """`wreath_bracket` with one kernel fault (None for none), built from the kernel's own `_add_product`."""

    # `_add_product` shifts a key by -letter, so negated letters shift it by +letter
    act = (lambda torus: {-letter: c for letter, c in torus.items()}) if fault == "shift +letter" else dict

    def bracket(p, q):
        out = {}
        tp, tq = act(p.torus), act(q.torus)
        if tq and p.terms:
            wreath._add_product(out, p.terms, tq, 1)
        if tp and q.terms and fault != "drop second product":
            wreath._add_product(out, q.terms, tp, 1 if fault == "same sign" else -1)
        return WreathElement._trusted(p.m, p.n, out, dict(p.torus) if fault == "keep p's torus" else {})

    return bracket


@pytest.mark.parametrize("mode", [MODE_W, MODE_WPLUS])
@pytest.mark.parametrize(
    "fault, kinds",
    [
        (None, ()),  # the control: the same construction without a fault passes
        ("drop second product", ("antisymmetry failed", "Jacobi failed")),
        ("same sign", ("antisymmetry failed", "Jacobi failed")),
        ("keep p's torus", ("commutator left the module",)),
        ("shift +letter", ("tower ",)),
    ],
)
def test_model_laws_catch_each_kernel_fault(monkeypatch, fault, kinds, mode):
    # at the default seed and trials the draw must reach each fault
    monkeypatch.setattr(wreath, "wreath_bracket", _faulty_bracket(fault))
    rep = model_laws_report(2, mode)
    assert rep.passed == (not kinds)
    for kind in kinds:
        assert any(f.startswith(kind) for f in rep.failures), (fault, kind)


def test_embedding_images_are_built_from_prefixes(monkeypatch):
    # the certificate ranks each monomial's image as the bracket of its
    # prefix's image with one generator; it must be the monomial's embedding,
    # once the extra key of the i-th image of a degree, (d, (0, .., i)) when
    # decoded, is stripped
    ranked = []

    class Recording(RowSpace):
        def add_with_witness(self, vec):
            ranked.append([(k, c) for k, c in vec.items() if decode_key(k, d)[0] != d])
            return super().add_with_witness(vec)

    monkeypatch.setattr(wreath, "RowSpace", Recording)
    d, n_max = 3, 5
    assert certify_embedding(d, n_max, trials=0).passed
    assert ranked == [
        list(magnus_embedding(MetabelianElement(d, {mono: 1})).coords().items())
        for n in range(1, n_max + 1)
        for mono in basis_monomials(d, n)
    ]


def test_embedding_commutes_with_normal_form():
    d = 3
    rng = seeded_rng(11)
    images = magnus_generator_images(d)
    for _ in range(100):
        e = random_expr(rng, x_gens(d), rng.randint(1, 6))
        assert magnus_embedding(normalize_expr(e, d)) == evaluate(e, images, wreath_bracket)


def test_permutation_of_tail_letters_in_model():
    # [a1,t1,t2] = [a1,t2,t1] in the model
    asg = standard_assignment(2, 2, MODE_WPLUS)
    lhs = evaluate(parse_expr("[a1,t1,t2]"), asg, wreath_bracket)
    rhs = evaluate(parse_expr("[a1,t2,t1]"), asg, wreath_bracket)
    assert lhs == rhs and not lhs.is_zero()


# ----------------------------------------------------------------- model laws

def test_model_laws_both_modes():
    for mode in (MODE_W, MODE_WPLUS):
        rep = model_laws_report(2, mode, seed=0, trials=25)
        assert rep.passed, rep.failures
    rep = model_laws_report(3, MODE_WPLUS, seed=1, trials=15, span_degree=3)
    assert rep.passed, rep.failures


def test_model_laws_make_each_commutator_once(monkeypatch):
    # per trial: [p,q] and [q,p]; [[p,q],r], [q,r], [[q,r],p], [r,p], [[r,p],q]; [b1,b2]
    calls = []

    def counting(p, q):
        calls.append(1)
        return wreath_bracket(p, q)

    monkeypatch.setattr(wreath, "wreath_bracket", counting)
    assert model_laws_report(2, trials=3, span_degree=0).passed
    assert len(calls) == 3 * 8


def test_report_check_counts_every_check_and_formats_only_failures():
    # a check takes its witness text, or None when it passed; the call sites
    # format the text only for a failure (test_passing_suites_format_nothing)
    report = wreath.RelationReport("towers", MODE_WPLUS, 2, 2, {})
    report.check(None)
    report.check("first")
    report.check(None)
    report.check("second")
    assert report.checked == 4
    assert report.failures == ["first", "second"]
    assert not report.passed


def _law_draws(d, trials, mode=MODE_WPLUS, seed=0):
    """The (p, q, r) that model_laws_report draws, trial by trial."""
    rng = wreath._seeded(seed)
    return [[wreath._random_element(rng, d, mode) for _ in range(3)] for _ in range(trials)]


def _t1_count(*elems):
    """How many of the elements have a nonzero t1 coefficient."""
    return sum((-1, 0) in e.decoded()[1] for e in elems)


def test_model_laws_report_a_bracket_that_breaks_antisymmetry(monkeypatch):
    # [p, q] + a1 whenever both operands carry torus letters: [p,q] + [q,p] = 2*a1.
    # The laws are summed in place into bracket results, and the sum must still show it
    def not_antisymmetric(p, q):
        out = wreath_bracket(p, q)
        return out + WreathElement.gen_a(0, p.m, p.n) if p.torus and q.torus else out

    monkeypatch.setattr(wreath, "wreath_bracket", not_antisymmetric)
    rep = model_laws_report(2, trials=5)
    assert rep.checked == 4 * 5 + sum(2 * (s + 1) + 1 for s in range(5))
    assert len([f for f in rep.failures if f.startswith("antisymmetry failed")]) == 5


def test_model_laws_report_a_bracket_that_breaks_only_jacobi(monkeypatch):
    # doubling [p, q] when both p and q have a t1 term keeps the bracket
    # antisymmetric and its values in the module, and breaks Jacobi wherever
    # exactly two of p, q and r have a t1 term
    def doubled_on_t1(p, q):
        out = wreath_bracket(p, q)
        return out * 2 if _t1_count(p, q) == 2 else out

    monkeypatch.setattr(wreath, "wreath_bracket", doubled_on_t1)
    rep = model_laws_report(2, trials=50)
    jacobi = [f for f in rep.failures if f.startswith("Jacobi failed")]
    assert jacobi and len(jacobi) == len(rep.failures)
    assert len(jacobi) <= sum(_t1_count(*prq) == 2 for prq in _law_draws(2, 50))


def test_model_laws_sum_the_torus_parts_too(monkeypatch):
    # adding t1 when the left operand has more module terms than the right
    # makes [p,q] + [q,p] = t1 or -t1, a torus part only; whichever of the two
    # carries it, the sum in place must keep it
    def t1_added(p, q):
        out = wreath_bracket(p, q)
        return out + WreathElement.gen_t(0, p.m, p.n) if len(p.terms) > len(q.terms) else out

    monkeypatch.setattr(wreath, "wreath_bracket", t1_added)
    rep = model_laws_report(2, trials=50)
    anti = [f for f in rep.failures if f.startswith("antisymmetry failed")]
    assert len(anti) == sum(len(p.terms) != len(q.terms) for p, q, _ in _law_draws(2, 50)) > 0


def test_model_laws_report_a_tower_with_a_torus_part(monkeypatch):
    # a tower equal to its monomial in the module but with a torus letter added
    # is not that monomial
    def torus_kept(p, q):
        out = wreath_bracket(p, q)
        return out + q if not q.terms and not p.torus else out

    monkeypatch.setattr(wreath, "wreath_bracket", torus_kept)
    rep = model_laws_report(2, MODE_W, trials=0, span_degree=1)
    assert rep.failures == [
        "tower a1,(0,) is not the expected monomial",
        "tower a1,(1,) is not the expected monomial",
        "tower a2,(0,) is not the expected monomial",
        "tower a2,(1,) is not the expected monomial",
    ]
