"""Every integer argument of the public API is an `int`, not a `bool`, at or above its bound.

Anything else raises `ValueError`, never a `TypeError` and never a result.
The table holds one row per integer parameter of the callables exported by
`liegrowth` (and of the public constructors of its element classes); each
row is fed a float, a str, a bool and the value just below the bound.
"""

from __future__ import annotations

import random

import pytest

from liegrowth import (
    MODE_W,
    MODE_WPLUS,
    Generator,
    MetabelianElement,
    Presentation,
    RowSpace,
    WreathElement,
    basis_monomials,
    certify_embedding,
    check_presentation,
    fit_stretched_exponent,
    graded_dim,
    growth_bfs,
    metabelian_growth,
    model_laws_report,
    normalize_expr,
    normalize_word,
    parse_expr,
    standard_assignment,
    tower_commutation_report,
    w_gamma_closed,
    wplus_gamma_closed,
    wplus_graded_dims,
    wplus_growth_bound,
    wplus_presentation,
    wplus_spanning_count,
    wreath_presentation,
)
from liegrowth.expr import random_expr
from liegrowth.poly import MultiPoly, check_int
from liegrowth.presentations import standard_tower_instances

_, A, B, T, U = standard_tower_instances(2)[0]
B_SEQ = [1] + [2**n for n in range(1, 9)]  # b_n = 2^n: every point up to 4 has its 2n

# (parameter, call with the value in that parameter, lower bound); the call
# with the bound itself must succeed, so a rejection is the parameter's
TABLE = [
    ("Generator.index", lambda v: Generator("x", v), 0),
    ("growth_bfs.d", lambda v: growth_bfs(MODE_WPLUS, v, 2), 1),
    ("growth_bfs.n_max", lambda v: growth_bfs(MODE_W, 2, v), 1),
    ("wplus_graded_dims.d", lambda v: wplus_graded_dims(v, 3), 1),
    ("wplus_graded_dims.n_max", lambda v: wplus_graded_dims(2, v), 1),
    ("wplus_gamma_closed.d", lambda v: wplus_gamma_closed(v, 3), 1),
    ("wplus_gamma_closed.n_max", lambda v: wplus_gamma_closed(2, v), 1),
    ("w_gamma_closed.d", lambda v: w_gamma_closed(v, 3), 1),
    ("w_gamma_closed.n_max", lambda v: w_gamma_closed(2, v), 1),
    ("wplus_spanning_count.d", lambda v: wplus_spanning_count(v, 3), 1),
    ("wplus_spanning_count.n", lambda v: wplus_spanning_count(2, v), 1),
    ("wplus_growth_bound.d", lambda v: wplus_growth_bound(v, 3), 1),
    ("wplus_growth_bound.n", lambda v: wplus_growth_bound(2, v), 1),
    ("MetabelianElement.d", lambda v: MetabelianElement(v), 1),
    ("MetabelianElement.word", lambda v: MetabelianElement(2, {(1, v): 1}), 0),
    ("MetabelianElement.generator.i", lambda v: MetabelianElement.generator(v, 2), 0),
    ("basis_monomials.d", lambda v: basis_monomials(v, 3), 1),
    ("basis_monomials.n", lambda v: basis_monomials(2, v), 1),
    ("graded_dim.d", lambda v: graded_dim(v, 3), 1),
    ("graded_dim.n", lambda v: graded_dim(2, v), 1),
    ("metabelian_growth.d", lambda v: metabelian_growth(v, 3), 1),
    ("metabelian_growth.n_max", lambda v: metabelian_growth(2, v), 1),
    ("normalize_word.d", lambda v: normalize_word((0,), v), 1),
    ("normalize_word.word", lambda v: normalize_word((1, v), 2), 0),
    ("normalize_expr.d", lambda v: normalize_expr(parse_expr("[x1,x1]"), v), 1),
    ("wreath_presentation.m", lambda v: wreath_presentation(v, 2, 1), 1),
    ("wreath_presentation.n", lambda v: wreath_presentation(2, v, 1), 1),
    ("wreath_presentation.pair_len_max", lambda v: wreath_presentation(2, 2, v), 0),
    ("wplus_presentation.m", lambda v: wplus_presentation(v, 2, 1), 1),
    ("wplus_presentation.n", lambda v: wplus_presentation(2, v, 1), 1),
    ("wplus_presentation.s_max", lambda v: wplus_presentation(2, 2, v), 0),
    ("Presentation.m", lambda v: check_presentation(Presentation((), {}, MODE_W, v, 2)), 1),
    ("Presentation.n", lambda v: check_presentation(Presentation((), {}, MODE_W, 2, v)), 1),
    ("tower_commutation_report.bound", lambda v: tower_commutation_report(A, B, T, U, v), 0),
    ("WreathElement.m", lambda v: WreathElement(v, 2), 1),
    ("WreathElement.n", lambda v: WreathElement(2, v), 1),
    ("WreathElement.gen_a.k", lambda v: WreathElement.gen_a(v, 2, 2), 0),
    ("WreathElement.gen_t.i", lambda v: WreathElement.gen_t(v, 2, 2), 0),
    ("WreathElement.gen_u.i", lambda v: WreathElement.gen_u(v, 2, 2), 0),
    ("standard_assignment.m", lambda v: standard_assignment(v, 2), 1),
    ("standard_assignment.n", lambda v: standard_assignment(2, v), 1),
    ("certify_embedding.d", lambda v: certify_embedding(v, 2, trials=0), 1),
    ("certify_embedding.n_max", lambda v: certify_embedding(2, v, trials=0), 1),
    ("certify_embedding.trials", lambda v: certify_embedding(2, 1, trials=v), 0),
    ("model_laws_report.d", lambda v: model_laws_report(v, trials=0, span_degree=0), 1),
    ("model_laws_report.trials", lambda v: model_laws_report(2, trials=v, span_degree=0), 0),
    ("model_laws_report.span_degree", lambda v: model_laws_report(2, trials=0, span_degree=v), 0),
    ("fit_stretched_exponent.points", lambda v: fit_stretched_exponent(B_SEQ, [2, v]), 1),
    ("random_expr.size", lambda v: random_expr(random.Random(0), [Generator("x", 0)], v), 1),
    ("MultiPoly.nvars", lambda v: MultiPoly(v), 0),
    ("MultiPoly.exponents", lambda v: MultiPoly(2, {(1, v): 1}), 0),
]

ROWS = pytest.mark.parametrize("call,low", [row[1:] for row in TABLE], ids=[row[0] for row in TABLE])
BAD = {"float": lambda low: 2.0, "str": lambda low: "2", "bool": lambda low: True, "below": lambda low: low - 1}


@ROWS
def test_integer_argument_at_its_bound_is_accepted(call, low):
    call(low)


@ROWS
@pytest.mark.parametrize("kind", BAD)
def test_integer_argument_is_checked(call, low, kind):
    with pytest.raises(ValueError):
        call(BAD[kind](low))


# the probe of the public API that found the gaps: each once raised a
# TypeError or returned nonsense
def _add_all(*vectors):
    space = RowSpace()
    for vec in vectors:
        space.add(vec)


PROBES = {
    'growth_bfs("W", 2.0, 3)': lambda: growth_bfs("W", 2.0, 3),
    'growth_bfs("W", 2, "3")': lambda: growth_bfs("W", 2, "3"),
    "wplus_graded_dims(2.5, 4)": lambda: wplus_graded_dims(2.5, 4),
    "basis_monomials(2.5, 3)": lambda: basis_monomials(2.5, 3),
    "wplus_presentation(2, 2, 1.5)": lambda: wplus_presentation(2, 2, 1.5),
    'wreath_presentation(2, 2, "a")': lambda: wreath_presentation(2, 2, "a"),
    "tower_commutation_report(..., 1.5)": lambda: tower_commutation_report(A, B, T, U, 1.5),
    "certify_embedding(2, 2, trials=1.5)": lambda: certify_embedding(2, 2, trials=1.5),
    'WreathElement("1", 1)': lambda: WreathElement("1", 1),
    "fit_stretched_exponent(b, [1.5])": lambda: fit_stretched_exponent(B_SEQ, [1.5]),
    'RowSpace().add({1: "x"})': lambda: RowSpace().add({1: "x"}),
    'RowSpace: add({1: 1}), then add({"a": 1, 1: 2})': lambda: _add_all({1: 1}, {"a": 1, 1: 2}),
    "WreathElement(1.5, 1)": lambda: WreathElement(1.5, 1),
    "standard_assignment(0, 0)": lambda: standard_assignment(0, 0),
    "normalize_word((1.0, 0), 2)": lambda: normalize_word((1.0, 0), 2),
    "MetabelianElement(2, {(1, 0.5): 1})": lambda: MetabelianElement(2, {(1, 0.5): 1}),
    'growth_bfs("W", True, 2)': lambda: growth_bfs("W", True, 2),
}


@pytest.mark.parametrize("probe", PROBES.values(), ids=PROBES.keys())
def test_probe_raises_value_error(probe):
    with pytest.raises(ValueError):
        probe()


def test_check_int_messages():
    # the range message is the one the size checks have always given
    with pytest.raises(ValueError, match=r"^d and n must be >= 1$"):
        check_int("d and n", 1, 2, 0)
    with pytest.raises(ValueError, match=r"^d and n must be int, not float$"):
        check_int("d and n", 1, 2.0, 3)
    with pytest.raises(ValueError, match=r"^trials must be int, not bool$"):
        check_int("trials", 0, False)
    check_int("trials", 0, 0, 10**30)


def test_rowspace_rejects_unreadable_input_and_keeps_its_rows():
    space = RowSpace()
    assert space.add({1: 1})
    for vec, message in (
        ({2: "x"}, "x"),
        ({2: [1]}, "is not a finite rational"),
        ({2: None}, "is not a finite rational"),
        ({2: ""}, "Invalid literal for Fraction"),
        ([1, 2], "terms must be a mapping, not list"),
        ({"a": 1, 1: 2}, r"^the keys of a vector must be mutually comparable$"),
    ):
        with pytest.raises(ValueError, match=message):
            space.add(vec)
    assert space.rank == 1
    # as for the element constructors, None and an empty non-dict are the zero vector
    assert not space.add(None) and not space.add([]) and space.rank == 1
    # a key set of one type never meets the other, so both types may live in one space
    assert space.add({"a": 1}) and space.rank == 2
    # a bool coefficient reads as the int it equals, and is stored as one
    assert space.reduce({1: True, 3: True}) == {3: 1}
    assert type(space.reduce({3: True})[3]) is int
