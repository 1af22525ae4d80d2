from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import add_augmented, augment, combine
from liegrowth.metabelian import MetabelianElement
from liegrowth.poly import MultiPoly
from liegrowth.rowspace import RowSpace
from liegrowth.wreath import WreathElement

F = Fraction


def test_poly_arithmetic_and_normalization():
    p = MultiPoly(2, {(1, 0): Fraction(2), (0, 1): Fraction(1)})
    q = MultiPoly(2, {(1, 0): Fraction(-2)})
    assert (p + q).terms == {(0, 1): Fraction(1)}
    assert (p - p).is_zero()
    assert MultiPoly(2, {(0, 0): 0}).is_zero()


def test_poly_multiplication():
    t1 = MultiPoly(2, {(1, 0): 1})
    t2 = MultiPoly(2, {(0, 1): 1})
    prod = (t1 + t2) * (t1 - t2)
    assert prod == MultiPoly(2, {(2, 0): 1, (0, 2): -1})
    assert t1 * 0 == MultiPoly.zero(2)
    assert (t1 * Fraction(1, 2)).terms == {(1, 0): Fraction(1, 2)}


def test_poly_rejects_bad_exponents():
    with pytest.raises(ValueError):
        MultiPoly(2, {(1,): 1})
    with pytest.raises(ValueError):
        MultiPoly(2, {(-1, 0): 1})
    # a key that is not a tuple has no arity either
    for key in (5, None):
        with pytest.raises(ValueError, match="wrong arity"):
            MultiPoly(1, {key: 1})


def test_poly_truth_value_is_nonzero():
    assert not MultiPoly(2)
    assert not MultiPoly(2, {(1, 0): 0})
    assert MultiPoly(2, {(1, 0): Fraction(1, 2)})


def test_poly_str_is_deterministic():
    p = MultiPoly(2, {(1, 0): Fraction(-1), (0, 2): Fraction(1, 3)})
    assert str(p) == "1/3*t2^2 - t1"


@pytest.mark.parametrize(
    "elem, text, rep",
    [
        (MultiPoly(2), "0", "MultiPoly(2, 0)"),
        (MultiPoly(0, {(): 5}), "5", "MultiPoly(0, 5)"),
        (MultiPoly(1, {(0,): 1}), "1", "MultiPoly(1, 1)"),
        (MultiPoly(1, {(0,): F(-7, 2)}), "-7/2", "MultiPoly(1, -7/2)"),
        (
            MultiPoly(2, {(0, 0): -3, (1, 0): 1, (0, 2): F(-1, 3), (2, 1): 4}),
            "-3 - 1/3*t2^2 + t1 + 4*t1^2*t2",
            "MultiPoly(2, -3 - 1/3*t2^2 + t1 + 4*t1^2*t2)",
        ),
        (
            MultiPoly(3, {(1, 1, 1): -1, (0, 0, 0): F(5, 2), (0, 3, 0): F(-4, 1)}),
            "5/2 - 4*t2^3 - t1*t2*t3",
            "MultiPoly(3, 5/2 - 4*t2^3 - t1*t2*t3)",
        ),
        # a product of Fractions stores its integral coefficients as ints (test_exact pins their types)
        (
            MultiPoly(1, {(1,): F(1, 2), (0,): F(-1, 2)}) * MultiPoly(1, {(0,): 2}),
            "-1 + t1",
            "MultiPoly(1, -1 + t1)",
        ),
        (WreathElement(2, 2), "0", "WreathElement(m=2, n=2, 0)"),
        (
            WreathElement(
                2,
                2,
                {(0, (0, 0)): 1, (0, (1, 2)): F(-2, 3), (1, (0, 1)): -1},
                {(-1, 1): 3, (-2, 0): F(1, 2), (-2, 1): -1},
            ),
            "a1 - 2/3*a1*t1*t2^2 - a2*t2 + 3*t2 + 1/2*u1 - u2",
            "WreathElement(m=2, n=2, a1 - 2/3*a1*t1*t2^2 - a2*t2 + 3*t2 + 1/2*u1 - u2)",
        ),
        (
            WreathElement(1, 1, {(0, (0,)): -1}, {(-1, 0): -2}),
            "-a1 - 2*t1",
            "WreathElement(m=1, n=1, -a1 - 2*t1)",
        ),
        (
            WreathElement(1, 2, None, {(-1, 1): F(-3, 4), (-2, 0): 5}),
            "-3/4*t2 + 5*u1",
            "WreathElement(m=1, n=2, -3/4*t2 + 5*u1)",
        ),
        (
            WreathElement(2, 1, {(1, (2,)): F(7, 3), (1, (0,)): -5}),
            "-5*a2 + 7/3*a2*t1^2",
            "WreathElement(m=2, n=1, -5*a2 + 7/3*a2*t1^2)",
        ),
        (MetabelianElement(2), "0", "MetabelianElement(d=2, 0)"),
        (
            MetabelianElement(
                3, {(0,): -1, (1, 0): 2, (2, 0, 1): F(1, 3), (2, 1, 1, 2): -1, (1,): 1}
            ),
            "-x1 + x2 + 2*[x2,x1] + 1/3*[x3,x1,x2] - [x3,x2,x2,x3]",
            "MetabelianElement(d=3, -x1 + x2 + 2*[x2,x1] + 1/3*[x3,x1,x2] - [x3,x2,x2,x3])",
        ),
        (
            MetabelianElement(2, {(1, 0, 0): F(-5, 2), (1, 0): F(-1, 1)}),
            "-[x2,x1] - 5/2*[x2,x1,x1]",
            "MetabelianElement(d=2, -[x2,x1] - 5/2*[x2,x1,x1])",
        ),
    ],
)
def test_str_and_repr_are_pinned(elem, text, rep):
    assert str(elem) == text
    assert repr(elem) == rep


def test_rowspace_rank_and_reduce():
    rs = RowSpace()
    assert rs.add({"a": Fraction(1), "b": Fraction(2)})
    assert rs.add({"b": Fraction(1)})
    assert not rs.add({"a": Fraction(2), "b": Fraction(7)})
    assert rs.rank == 2
    assert not rs.reduce({"a": Fraction(-1), "b": Fraction(5)})
    assert rs.reduce({"c": Fraction(1)})


def test_rowspace_exactness_no_float_noise():
    rs = RowSpace()
    rs.add({0: Fraction(1, 3), 1: Fraction(1, 7)})
    rs.add({1: Fraction(2, 11)})
    # dependent combination with awkward denominators must reduce to exactly zero
    dep = {0: Fraction(2, 3), 1: Fraction(9, 13)}
    residual = rs.reduce(dep)
    assert residual == {}


def test_rowspace_dependency_witness():
    rs = RowSpace()
    vecs = [{"x": Fraction(1), "y": Fraction(1)}, {"y": Fraction(2)}, {"x": Fraction(3), "y": Fraction(5)}]
    assert add_augmented(rs, vecs[0], 0) == add_augmented(rs, vecs[1], 1) == (True, {})
    grew, combo = add_augmented(rs, vecs[2], 2)
    assert not grew
    # the combination reproduces the vector
    assert combo == {0: Fraction(3), 1: Fraction(1)}
    assert combine(combo, vecs) == vecs[2]


def test_rowspace_mixed_tuple_keys():
    rs = RowSpace()
    assert rs.add({("m", 0, (1, 0)): Fraction(1)})
    assert rs.add({("t", 0): Fraction(1), ("m", 0, (1, 0)): Fraction(4)})
    assert rs.rank == 2


def test_rowspace_ignores_zero_entries():
    rs = RowSpace()
    assert not rs.add({"a": 0})
    assert rs.rank == 0
    assert rs.reduce({"a": 0}) == {}
    assert rs.add({"a": 0, "b": 1})
    assert rs.rank == 1
    assert rs.reduce({"a": 0, "b": 2, "c": 0}) == {}
    assert rs.reduce({"a": 0, "c": F(1, 2)}) == {"c": F(1, 2)}
    assert not rs.add({"a": 0, "b": -3})
    assert rs.add({"a": 2, "b": 0})
    assert rs.rank == 2
    # a float entry is taken exactly, as the public constructors take it
    floats = RowSpace()
    assert floats.add({"a": 0.5})
    assert not floats.add({"a": 2.0})
    assert floats.reduce({"a": 2.0, "b": 1.5, "c": 0.0}) == {"b": F(3, 2)}
    assert [type(c) for c in floats.reduce({"b": 2.0}).values()] == [int]


def test_rowspace_witness_ignores_zero_entries():
    rs = RowSpace()
    vecs = [{"x": 0, "y": 2}, {"x": 0}, {"x": 0, "y": 6, "z": 0}, {"x": 1, "y": 0}, {"x": -1, "y": 1}]
    witnesses = [add_augmented(rs, v, i) for i, v in enumerate(vecs)]
    # the zero vector has the empty witness; the last names the dependent
    # vector 2 where a reduction over independent rows alone gives {0: 1/2, 3: -1}
    assert witnesses == [(True, {}), (False, {}), (False, {0: 3}), (True, {}), (False, {2: F(1, 6), 3: -1})]
    nonzero = [{k: c for k, c in v.items() if c} for v in vecs]
    for (grew, combo), vec in zip(witnesses, nonzero):
        assert grew or combine(combo, nonzero) == vec


def test_rowspace_add_and_witness_share_one_space():
    # `add` stores the same row as `add_with_witness`, so a later witness may
    # name a vector inserted by `add`; zeros are dropped and floats taken
    # exactly on both paths
    rs = RowSpace()
    vecs = [{"x": 2, "y": 0}, {"x": 1.0}, {"y": 0.5, "z": 0.0}, {"x": 0, "z": 0}, {"x": 1, "z": 3}, {"x": 0.5}]
    assert rs.add(augment(vecs[0], 0))
    assert add_augmented(rs, vecs[1], 1) == (False, {0: F(1, 2)})
    assert add_augmented(rs, vecs[2], 2) == (True, {})
    assert rs.add(augment(vecs[3], 3))  # the zero vector still adds its extra key
    assert rs.add(augment(vecs[4], 4))
    assert add_augmented(rs, vecs[5], 5) == (False, {1: F(1, 2)})
    vecs.append({"x": 3, "y": 1, "z": 6})
    grew, combo = add_augmented(rs, vecs[6], 6)
    assert not grew
    assert combo == {2: 2, 4: 2, 5: 2}
    assert combine(combo, vecs) == vecs[6]
    assert rs.rank == 7
    for c in (*combo.values(), *(v for row in rs._rows.values() for v in row.values())):
        assert type(c) in (int, F) and c


def test_rowspace_add_matches_add_with_witness():
    vecs = [{"x": 2, "y": 0}, {"x": 1.0}, {"y": 0.5, "z": 0.0}, {"x": 0}, {"x": 1, "z": F(3, 2)}, {"z": 7}]
    plain, witnessed = RowSpace(), RowSpace()
    results = [witnessed.add_with_witness(v) for v in vecs]
    assert [plain.add(v) for v in vecs] == [grew for grew, _ in results] == [True, False, True, False, True, False]
    assert plain._rows == witnessed._rows
    assert plain.rank == 3
    # the residual is reduce(vec) before the insert; for a pivot of 1 it is the stored row
    assert [residual for _, residual in results] == [{"x": 2}, {}, {"y": F(1, 2)}, {}, {"z": F(3, 2)}, {}]
    assert witnessed.add_with_witness({"w": 1})[1] is witnessed._rows["w"]
