from __future__ import annotations

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    evaluate_combination,
    format_expr_by_strings,
    leaf_count,
    left_normed,
    parse_expr_two_pass,
    reference_fold,
)
from conftest import lie_dags, lie_exprs, seeded_rng, x_gens
from liegrowth.expr import (
    Bracket,
    Generator,
    ParseError,
    UnboundGeneratorError,
    evaluate,
    format_expr,
    left_normalize,
    parse_expr,
    random_expr,
)
from liegrowth.metabelian import normalize_expr, normalize_word
from liegrowth.wreath import WreathElement, magnus_generator_images, wreath_bracket


def words_of(comb):
    return {tuple(str(g) for g in w): c for w, c in comb.items()}


def test_parse_atom_and_brackets():
    assert parse_expr("x1") == Generator("x", 0)
    e = parse_expr("[x1,[x2,x3]]")
    assert e == Bracket(Generator("x", 0), Bracket(Generator("x", 1), Generator("x", 2)))


def test_empty_word_and_unknown_family_are_rejected():
    with pytest.raises(ValueError, match="empty word"):
        left_normed([])
    with pytest.raises(ValueError, match="unknown generator family 'y'"):
        Generator("y", 0)


def test_flat_list_is_left_nested():
    assert parse_expr("[a1,t2,t2,u1]") == parse_expr("[[[a1,t2],t2],u1]")


def test_parse_rejects_malformed():
    table = [
        ("", "empty input"),
        ("[x1]", "a bracket needs at least two entries"),
        ("[x1,", "unexpected end of input"),
        ("x", "generator 'x' needs a 1-based index"),
        ("y1", "unexpected character 'y' at position 0"),
        ("x0", "index in 'x0' must be >= 1"),
        ("[x1,x2] x3", "trailing input at token 5"),
        ("x1]", "trailing input at token 1"),
        ("[x1 x2]", "expected ']'"),
        ("[[x1,x2]", "expected ']'"),
        ("]", "unexpected token ']'"),
        ("[,x1]", "unexpected token ','"),
        ("[x1,,x2]", "unexpected token ','"),
        ("[]", "unexpected token ']'"),
        # ASCII digits only: '²' and the Arabic-Indic one are no index
        ("x\u00b2", "generator 'x' needs a 1-based index"),
        ("x\u0661", "generator 'x' needs a 1-based index"),
        ("[x1,x2\u0661]", "unexpected character '\u0661' at position 6"),
        ("x" + "1" * 5000, "index of 'x' at token 0 is too long (5000 digits)"),
    ]
    for bad, message in table:
        with pytest.raises(ParseError) as exc:
            parse_expr(bad)
        assert str(exc.value) == message, bad
    for bad, kind in ((5, "int"), (None, "NoneType"), (b"x1", "bytes")):
        with pytest.raises(ParseError) as exc:
            parse_expr(bad)
        assert str(exc.value) == f"expected a str, not {kind}"


def test_parse_takes_unicode_spaces_and_rejects_zero_width():
    # str.isspace separates tokens, as ' ' does; a zero-width character is no space
    for text, printed in (
        ("[x1,\u00a0x2]", "[x1,x2]"),
        ("\x1c x1", "x1"),
        ("\u3000[x1,x2]", "[x1,x2]"),
        ("[x1,x2]\u2028", "[x1,x2]"),
    ):
        assert format_expr(parse_expr(text)) == printed
    for bad in ("\u200b", "\ufeff[x1,x2]"):
        with pytest.raises(ParseError) as exc:
            parse_expr(bad)
        assert str(exc.value) == f"unexpected character {bad[0]!r} at position 0"


def test_parse_reports_the_first_fault_reached():
    # each text has a fault of structure before a bad character; the structure fault is reported
    table = [
        ("[,y", "unexpected token ','"),
        ("x1]z", "trailing input at token 1"),
        ("x1 x2 x", "trailing input at token 1"),
        ("[x1 x2 y", "expected ']'"),
        ("]\u200b", "unexpected token ']'"),
        ("x0 y", "index in 'x0' must be >= 1"),
        ("[x1]\u00b2", "a bracket needs at least two entries"),
    ]
    for bad, message in table:
        with pytest.raises(ParseError) as exc:
            parse_expr(bad)
        assert str(exc.value) == message, bad


# brackets, commas, the four letters, ASCII and other digits, Unicode spaces and zero-width characters
_PARSE_ALPHABET = "[],xatu0123456789\u00b2\u0661 \x1c\u00a0\u3000\u200b\ufeff"
# the faults found in a character, which the two-pass oracle reports before any fault of structure
_CHARACTER_FAULTS = ("unexpected character", "generator")


@st.composite
def _parse_texts(draw):
    """Texts over `_PARSE_ALPHABET`: free strings, or printed trees with a few characters put in."""
    if draw(st.booleans()):
        return draw(st.text(_PARSE_ALPHABET, max_size=24))
    text = format_expr(draw(lie_exprs(d=3, max_size=6)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_PARSE_ALPHABET)) + text[at:]
    return text


def _parse_outcome(parse, text):
    try:
        return parse(text), None
    except ParseError as exc:
        return None, str(exc)


@settings(max_examples=400)
@given(_parse_texts())
def test_parse_agrees_with_two_pass_oracle(text):
    tree, fault = _parse_outcome(parse_expr, text)
    expected_tree, expected_fault = _parse_outcome(parse_expr_two_pass, text)
    assert (fault is None) == (expected_fault is None)
    if fault is None:
        assert tree == expected_tree and format_expr(tree) == format_expr(expected_tree)
    elif fault != expected_fault:
        # only the order of the faults differs: a fault of structure reached before a bad character
        assert expected_fault.startswith(_CHARACTER_FAULTS) and not fault.startswith(_CHARACTER_FAULTS)


def test_format_round_trip_examples():
    for text in ("x2", "[x1,x2]", "[x1,[x2,x3]]", "[a1,t2,t2,u1]", "[[x1,x2],[x3,x4]]"):
        e = parse_expr(text)
        assert parse_expr(format_expr(e)) == e


@given(lie_exprs(d=3, max_size=6))
def test_format_round_trip_random(e):
    assert parse_expr(format_expr(e)) == e


def test_left_normalize_jacobi_example():
    comb = left_normalize(parse_expr("[x1,[x2,x3]]"))
    assert words_of(comb) == {
        ("x1", "x2", "x3"): Fraction(1),
        ("x1", "x3", "x2"): Fraction(-1),
    }


def test_left_normalize_keeps_left_normed_words():
    word = tuple(Generator("x", i) for i in (1, 0, 2))
    comb = left_normalize(left_normed(word))
    assert comb == {word: Fraction(1)}


@given(lie_exprs(d=3, max_size=6))
def test_left_normalize_is_length_homogeneous(e):
    n = leaf_count(e)
    comb = left_normalize(e)
    assert all(len(w) == n for w in comb)


@given(lie_exprs(d=3, max_size=5))
def test_left_normalize_deterministic(e):
    assert left_normalize(e) == left_normalize(e)


@settings(max_examples=60)
@given(lie_exprs(d=3, max_size=6))
def test_left_normalize_sound_in_wreath_model(e):
    """Evaluating e directly equals evaluating its left-normed expansion."""
    d = 3
    images = magnus_generator_images(d)
    direct = evaluate(e, images, wreath_bracket)
    expanded = evaluate_combination(left_normalize(e), images, wreath_bracket, WreathElement.zero(d, d))
    assert direct == expanded


@given(st.one_of(lie_exprs(d=3, max_size=8), lie_dags(d=3, max_brackets=10)))
def test_fold_matches_a_recursive_reference_on_trees_and_shared_nodes(e):
    made, read = [], []

    def pair(left, right):  # neither commutative nor associative: the value keeps the whole shape
        made.append((left, right))
        return left, right

    class Reading(dict):
        def __getitem__(self, gen):
            read.append(gen)
            return super().__getitem__(gen)

    def shape(node):
        return reference_fold(node, str, lambda l, r: (l, r))

    assignment = Reading((g, str(g)) for g in x_gens(3))
    expected = shape(e)
    # without a memo every leaf is read, left to right
    assert evaluate(e, assignment, pair) == expected
    assert read == reference_fold(e, lambda g: [g], operator.add)
    # with a memo, leaves are read and brackets made in the reference's order
    made.clear()
    read.clear()
    memo = {}
    assert evaluate(e, assignment, pair, memo) == expected
    ref_made, ref_read = [], []
    reference_fold(e, lambda g: ref_read.append(g) or str(g), lambda l, r: ref_made.append((l, r)) or (l, r), {})
    assert made == ref_made and read == ref_read
    # and each distinct node, leaf or bracket, is read or bracketed once, its value kept under its id
    nodes, stack = {}, [e]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            if isinstance(node, Bracket):
                stack += (node.left, node.right)
    assert memo.keys() == nodes.keys()
    assert len(made) == sum(isinstance(node, Bracket) for node in nodes.values())
    assert sorted(map(id, read)) == sorted(key for key, node in nodes.items() if isinstance(node, Generator))
    assert all(memo[key][0] is node and memo[key][1] == shape(node) for key, node in nodes.items())


def test_evaluate_records_every_node_and_reads_a_known_leaf_from_the_memo():
    x1, x2, x3 = x_gens(3)
    inner = Bracket(x2, x3)
    e = Bracket(Bracket(x1, inner), x2)
    read = []

    class Reading(dict):
        def __getitem__(self, gen):
            read.append(gen)
            return super().__getitem__(gen)

    assignment = Reading({x1: "1", x2: "2", x3: "3"})
    memo = {id(x3): (x3, "known")}
    assert evaluate(e, assignment, lambda l, r: f"({l} {r})", memo) == "((1 (2 known)) 2)"
    # x3 came from the memo, and the shared leaf x2 was looked up once
    assert read == [x1, x2]
    assert {key: node for key, (node, _) in memo.items()} == {id(n): n for n in (x1, x2, x3, inner, e.left, e)}
    assert memo[id(x1)][1] == "1" and memo[id(inner)][1] == "(2 known)" and memo[id(e)][1] == "((1 (2 known)) 2)"
    # a second tree is read from the memo where it shares nodes: no lookup, one bracket
    made = []
    value = evaluate(Bracket(inner, x1), assignment, lambda l, r: made.append(1) or f"({l} {r})", memo)
    assert value == "((2 known) 1)" and read == [x1, x2] and made == [1]


@given(st.one_of(lie_exprs(d=3, max_size=12), lie_dags(d=3, max_brackets=12)))
def test_format_expr_matches_the_string_fold(e):
    assert format_expr(e) == format_expr_by_strings(e)


def test_evaluate_antisymmetric_bracket_kills_repeated_leaf():
    d = 2
    images = magnus_generator_images(d)
    val = evaluate(parse_expr("[x1,x1]"), images, wreath_bracket)
    assert val.is_zero()


def test_evaluate_unbound_generator():
    with pytest.raises(UnboundGeneratorError, match="unbound generator: x3"):
        evaluate(parse_expr("[x1,x3]"), magnus_generator_images(2), lambda p, q: p)


def test_random_expr_is_reproducible():
    gens = x_gens(3)
    e1 = random_expr(seeded_rng(7), gens, 6)
    e2 = random_expr(seeded_rng(7), gens, 6)
    assert e1 == e2 and leaf_count(e1) == 6


def test_random_expr_rejects_empty_gens():
    for size in (1, 3):
        with pytest.raises(ValueError, match="gens must not be empty"):
            random_expr(seeded_rng(0), [], size)


# Deep trees: no walk, comparison, hash or repr may reach the recursion limit.

DEEP = 5000


def _letters(count):
    return [f"x{i % 3 + 1}" for i in range(count)]


def _deep_trees():
    """(text, its printed form, leaf count) of a flat, a left- and a right-nested tree."""
    flat = "[" + ",".join(_letters(DEEP)) + "]"
    nested = _letters(DEEP + 1)  # DEEP levels of brackets
    left = "[" * DEEP + nested[0] + "".join(f",{g}]" for g in nested[1:])
    right = "".join(f"[{g}," for g in nested[:-1]) + nested[-1] + "]" * DEEP
    flat_nested = "[" + ",".join(nested) + "]"
    return ((flat, flat, DEEP), (left, flat_nested, DEEP + 1), (right, right, DEEP + 1))


def test_deep_trees_parse_format_and_fold():
    values = {Generator("x", i): 1000**i for i in range(3)}
    for text, printed, count in _deep_trees():
        e = parse_expr(text)
        assert format_expr(e) == printed
        assert format_expr(parse_expr(printed)) == printed
        assert leaf_count(e) == count
        letters = _letters(count)
        expected = sum(values[Generator("x", int(g[1:]) - 1)] for g in letters)
        assert evaluate(e, values, int.__add__) == expected


def test_deep_trees_compare_hash_and_print():
    for text, printed, _ in _deep_trees():
        e = parse_expr(text)
        assert e == parse_expr(text) and e == parse_expr(printed)
        other = parse_expr(text.replace("x1", "x2", 1))  # the first letter differs
        assert e != other and not e == other
        assert hash(e) == hash(parse_expr(text))
        assert repr(e) == f"parse_expr({printed!r})"


def test_trees_compare_by_structure():
    e = parse_expr("[x1,[x2,x3]]")
    assert e != parse_expr("[x1,x2,x3]") and e != Generator("x", 0) and e != "[x1,[x2,x3]]"
    assert {e: 1}[Bracket(Generator("x", 0), parse_expr("[x2,x3]"))] == 1
    assert repr(e) == "parse_expr('[x1,[x2,x3]]')"


def test_every_walk_rejects_a_leaf_that_is_not_a_generator():
    # `Bracket` takes any children; the walk of the tree rejects the leaf
    x1 = Generator("x", 0)
    walks = (
        format_expr,
        repr,
        hash,
        left_normalize,
        lambda e: normalize_expr(e, 2),
        lambda e: evaluate(e, {x1: 1}, int.__add__),
    )
    for bad, kind in ((Bracket(x1, 5), "int"), (left_normed([1, 2]), "int"), (Bracket(Bracket(x1, "x2"), x1), "str")):
        for walk in walks:
            with pytest.raises(ValueError) as exc:
                walk(bad)
            assert str(exc.value) == f"expression node must be a Generator or a Bracket, not {kind}"
    with pytest.raises(ValueError):
        format_expr(None)


def test_left_normalize_and_normal_form_of_a_long_flat_word():
    word = tuple(Generator("x", i % 3) for i in range(1200))
    e = left_normed(word)
    assert left_normalize(e) == {word: 1}
    assert normalize_expr(e, 3) == normalize_word([g.index for g in word], 3)
