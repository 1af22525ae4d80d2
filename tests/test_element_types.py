"""Value semantics of the three term-dict element types, and their one construction path.

`MultiPoly`, `MetabelianElement` and `WreathElement` are slotted dataclasses
that validate through `poly.checked_terms` and share the arithmetic of
`poly.TermElement`. These tests pin what that design promises: no hash, no
instance `__dict__`, equality by shape and terms, results of arithmetic that
the public constructor rebuilds unchanged, one mismatch error per type, and
no type that defines the shared arithmetic again. An operand of the wrong
type, given to a bracket kernel or to an entry point that takes elements,
raises `ValueError`, never `AttributeError` or `TypeError`; so does an
argument of the wrong type given to `check_presentation`, to `evaluate` as
its memo, or as the seed of a random check.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from liegrowth import metabelian
from liegrowth.expr import Bracket, Generator, evaluate
from liegrowth.metabelian import MetabelianElement
from liegrowth.poly import MultiPoly, TermElement, checked_terms, scaled
from liegrowth.presentations import Presentation, check_presentation, tower_commutation_report
from liegrowth.wreath import (
    MODE_W,
    WreathElement,
    certify_embedding,
    magnus_embedding,
    model_laws_report,
    standard_assignment,
    wreath_bracket,
)

# (element, an element of the same shape, one of another shape, rebuild through the public constructor)
CASES = {
    "MultiPoly": (
        MultiPoly(2, {(1, 0): 2, (0, 3): Fraction(1, 2)}),
        MultiPoly(2, {(1, 0): -2, (2, 2): 5}),
        MultiPoly(3),
        lambda x: MultiPoly(x.nvars, x.terms),
    ),
    "MetabelianElement": (
        MetabelianElement(3, {(0,): 1, (2, 1): Fraction(-3, 4), (1, 0, 0): 5}),
        MetabelianElement(3, {(0,): -1, (2, 0, 1): 7}),
        MetabelianElement(2),
        lambda x: MetabelianElement(x.d, x.terms),
    ),
    "WreathElement": (
        WreathElement(2, 2, {(0, (1, 0)): 3, (1, (0, 2)): Fraction(2, 3)}, {(-1, 0): 1, (-2, 1): -2}),
        WreathElement(2, 2, {(0, (1, 0)): -3}, {(-1, 0): -1, (-1, 1): 4}),
        WreathElement(2, 3),
        lambda x: WreathElement(x.m, x.n, *x.decoded()),
    ),
}


# the text of the ValueError that `+` and `-` raise for an operand of another type or shape
MISMATCH = {
    "MultiPoly": "polynomials over different variable sets",
    "MetabelianElement": "elements over different generator counts",
    "WreathElement": "elements from different models",
}


@pytest.fixture(params=list(CASES))
def case(request):
    return CASES[request.param]


def test_elements_are_unhashable_and_have_no_instance_dict(case):
    x = case[0]
    with pytest.raises(TypeError):
        hash(x)
    assert not hasattr(x, "__dict__")


def test_equality_is_by_type_shape_and_terms(case):
    x, y, other_shape, rebuild = case
    assert (x == object()) is False
    assert x != object()
    assert x == rebuild(x) and x != y
    zero = x * 0  # equal terms, {}, in another shape
    assert not zero.terms and not other_shape.terms
    assert zero != other_shape and other_shape != zero


def test_arithmetic_results_rebuild_unchanged(case):
    x, y, _, rebuild = case
    results = [x + y, x - y, -x, x + x * -1, x * 3, x * Fraction(1, 2), x * Fraction(4, 2), x * 0, 0 * x]
    for r in results:
        assert rebuild(r) == r
        assert type(r) is type(x)
    assert (x * 0).is_zero() and (x + x * -1).is_zero()


@pytest.mark.parametrize(
    "make",
    [
        lambda terms: MultiPoly(1, terms),
        lambda terms: MetabelianElement(2, terms),
        lambda terms: WreathElement(2, 2, terms),
        lambda terms: WreathElement(2, 2, None, terms),
    ],
    ids=["MultiPoly", "MetabelianElement", "WreathElement.terms", "WreathElement.torus"],
)
def test_terms_must_be_a_mapping(make):
    for bad in ([1], [((1, 0), 1)], ((0, 1),), 5, "x1"):
        with pytest.raises(ValueError) as exc:
            make(bad)
        assert str(exc.value) == f"terms must be a mapping, not {type(bad).__name__}"
    for empty in (None, {}, [], ()):
        assert make(empty).is_zero()


def test_checked_terms_stores_the_checked_key_and_exact_nonzero_coefficients():
    out = checked_terms({(1, 2): 0.5, (3,): Fraction(4, 2), (5,): 0}, lambda key: key + (0,))
    assert out == {(1, 2, 0): Fraction(1, 2), (3, 0): 2}
    assert type(out[3, 0]) is int

    def reject(key):
        raise ValueError(f"bad key {key!r}")

    with pytest.raises(ValueError, match="bad key 1"):
        checked_terms({1: 0}, reject)  # the key is checked even where the coefficient is 0


def test_scaled_by_zero_is_empty():
    assert scaled({"a": 2, "b": Fraction(1, 3)}, 0) == {}
    assert scaled({}, 0) == {}
    assert scaled({"a": Fraction(1, 3)}, 3) == {"a": 1}


@pytest.mark.parametrize("right", list(CASES))
@pytest.mark.parametrize("left", list(CASES))
def test_sum_and_difference_across_types_and_shapes_raise_the_left_mismatch(left, right):
    x = CASES[left][0]
    operands = [CASES[right][0], 1] if left != right else [CASES[right][2], 1]
    for other in operands:
        for op in (x.__add__, x.__sub__):
            with pytest.raises(ValueError) as exc:
                op(other)
            assert str(exc.value) == MISMATCH[left]


def test_shared_arithmetic_is_defined_once():
    shared = {"zero", "__bool__", "_check", "_plus", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__"}
    for cls in (MetabelianElement, WreathElement):
        assert issubclass(cls, TermElement)
        assert not shared & set(vars(cls)), cls.__name__
    # MultiPoly keeps __add__ and __mul__ in its own dict for the benchmark's tracer
    assert issubclass(MultiPoly, TermElement)
    assert vars(MultiPoly)["__add__"] is TermElement.__add__
    assert shared & set(vars(MultiPoly)) == {"__add__", "__mul__"}


W11 = WreathElement(1, 1)
M2 = MetabelianElement(2)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: wreath_bracket(W11, M2), MISMATCH["WreathElement"]),
        (lambda: wreath_bracket(M2, W11), MISMATCH["WreathElement"]),
        (lambda: wreath_bracket(W11, 1), MISMATCH["WreathElement"]),
        (lambda: metabelian.bracket(M2, W11), MISMATCH["MetabelianElement"]),
        (lambda: metabelian.bracket(W11, M2), MISMATCH["MetabelianElement"]),
        (lambda: metabelian.bracket(M2, 3), MISMATCH["MetabelianElement"]),
        (lambda: magnus_embedding(5), "magnus_embedding takes a MetabelianElement, not int"),
        (lambda: tower_commutation_report(1, 2, 3, 4, 1), "a, b, t and u must be elements of one model"),
        (lambda: tower_commutation_report(W11, W11, W11, M2, 1), "a, b, t and u must be elements of one model"),
        (lambda: evaluate(Generator("x", 0), None, wreath_bracket), "assignment must be a mapping, not NoneType"),
        (lambda: check_presentation(5), "check_presentation takes a Presentation, not int"),
        (
            lambda: check_presentation(Presentation((1, 2), {}, MODE_W, 1, 1)),
            "a presentation's relators must be a tuple or list of Relators",
        ),
        (lambda: check_presentation(Presentation((), None, MODE_W, 1, 1)), "a presentation's bounds must be a dict, not NoneType"),
        (
            lambda: evaluate(Bracket(Generator("a", 0), Generator("t", 0)), standard_assignment(1, 1, MODE_W), wreath_bracket, []),
            "memo must be a dict, not list",
        ),
        (lambda: model_laws_report(2, seed=[1]), "seed must be an int, not list"),
        (lambda: certify_embedding(2, 3, seed=[1]), "seed must be an int, not list"),
    ],
    ids=[
        "wreath_bracket-metabelian",
        "wreath_bracket-metabelian-left",
        "wreath_bracket-int",
        "metabelian.bracket-wreath",
        "metabelian.bracket-wreath-left",
        "metabelian.bracket-int",
        "magnus_embedding-int",
        "tower_commutation_report-ints",
        "tower_commutation_report-metabelian-u",
        "evaluate-None-assignment",
        "check_presentation-int",
        "check_presentation-int-relators",
        "check_presentation-None-bounds",
        "evaluate-list-memo",
        "model_laws_report-list-seed",
        "certify_embedding-list-seed",
    ],
)
def test_an_operand_of_the_wrong_type_raises_value_error(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
