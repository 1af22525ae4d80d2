"""The shared term-dict kernel of `poly`: `add_into` and `format_terms`."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from liegrowth.poly import add_into, format_terms, monomial_text


def test_add_into_deletes_a_cancelling_key():
    out = {"a": 1, "b": 2}
    add_into(out, {"a": -1, "c": 3})
    assert out == {"b": 2, "c": 3}
    assert "a" not in out


def test_add_into_with_minus_one_and_a_fraction():
    out = {"a": 1}
    add_into(out, {"a": 1, "b": 2}, -1)
    assert out == {"b": -2}
    out = {"a": 1, "b": Fraction(1, 2)}
    add_into(out, {"a": 2, "b": 3, "c": 4}, Fraction(-1, 2))
    assert out == {"b": -1, "c": -2}


def test_add_into_leaves_its_input_alone():
    terms = {"a": 2, "b": -1}
    out = {}
    add_into(out, terms, 3)
    out["a"] = 0
    assert terms == {"a": 2, "b": -1}


@pytest.mark.parametrize("seed", range(4))
def test_add_into_matches_a_plain_sum_and_stores_no_zero(seed):
    rng = random.Random(seed)
    keys = range(6)
    out: dict = {}
    expected = dict.fromkeys(keys, 0)
    for _ in range(200):
        terms = {k: rng.choice((-2, -1, 1, 2, Fraction(1, 2))) for k in rng.sample(keys, 3)}
        c = rng.choice((1, -1, 2, Fraction(-1, 2), Fraction(2, 1)))
        add_into(out, terms, c)
        for k, v in terms.items():
            expected[k] += c * v
        assert all(out.values())
        assert out == {k: v for k, v in expected.items() if v}


@pytest.mark.parametrize(
    "pairs, text",
    [
        ([], "0"),
        ([("", 1)], "1"),
        ([("", -3), ("t1", 1), ("t2", -1)], "-3 + t1 - t2"),
        ([("m", Fraction(-1, 2)), ("", Fraction(2, 3)), ("n", 4)], "-1/2*m + 2/3 + 4*n"),
    ],
)
def test_format_terms(pairs, text):
    assert format_terms(pairs) == text


def test_monomial_text():
    assert monomial_text((0, 0)) == ""
    assert monomial_text((1, 2, 0, 3)) == "t1*t2^2*t4^3"
