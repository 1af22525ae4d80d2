"""The contract of the public API and of the CLI, over arbitrary arguments.

Every function and class that `liegrowth` exports is called with arguments
drawn from a pool of odd values: a call returns, or raises the documented
`ValueError` (which covers `ParseError` and `UnboundGeneratorError`) or
`ArithmeticError`, and nothing else escapes. The same holds for the element
operators and both brackets with operands of another type, and `cli.main`
exits 0, 1 or 2 on small random argvs. Every size in the pool is at most 3,
so no call is slow or asks for much memory.
"""

from __future__ import annotations

import copy
import inspect
import io
import math
import operator
import types
import typing
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liegrowth
from liegrowth import cli, metabelian
from liegrowth.expr import Bracket, Generator
from liegrowth.metabelian import MetabelianElement
from liegrowth.poly import MultiPoly
from liegrowth.presentations import wplus_presentation
from liegrowth.wreath import WreathElement, standard_assignment, wreath_bracket

A1, T1 = Generator("a", 0), Generator("t", 0)
ELEMENTS = [
    WreathElement(1, 1, {(0, (1,)): 2}, {(-1, 0): 1}),
    MetabelianElement(2, {(0,): 1, (1, 0): -1}),
    MultiPoly(2, {(1, 0): 3}),
]
POOL = [
    None, True, 0, 1, 2, 3, -1, -2, 0.5, math.nan, math.inf, -math.inf,
    "", "W", "Wplus", "metabelian", "[a1,t1]", b"a1",
    [], [1, 2, 3], [0, -1], {}, {"s_max": 1}, object(), Fraction(1, 2),
    *ELEMENTS, A1, Bracket(A1, T1),
    standard_assignment(1, 1), wplus_presentation(1, 1, 1), wreath_bracket,
]
VALUES = st.sampled_from(POOL).map(copy.deepcopy)
ALLOWED = (ValueError, ArithmeticError)

# functions and classes; the `LieExpr` alias is neither, and no exception class is called
EXPORTS = {
    name: obj
    for name, obj in vars(liegrowth).items()
    if not name.startswith("_")
    and isinstance(obj, (types.FunctionType, type))
    and not (isinstance(obj, type) and issubclass(obj, BaseException))
}


def test_the_exports_cover_the_api():
    assert {"check_presentation", "evaluate", "growth_bfs", "WreathElement", "RowSpace"} <= set(EXPORTS)
    assert "LieExpr" not in EXPORTS and "ParseError" not in EXPORTS


def _fits(value: object, hint: object) -> bool:
    """Whether `value` has the annotated type, read loosely.

    A generic is read by its origin, and a type variable fits anything.
    """
    if isinstance(hint, typing.TypeVar):
        return True
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    cls = typing.get_origin(hint) or hint
    return isinstance(cls, type) and isinstance(value, cls)


def _arguments(f) -> tuple[int, st.SearchStrategy]:
    """The count of f's required parameters, and a tuple of one pool value per parameter.

    Half the time a value fits the parameter's annotation, so that a call gets past its first checks.
    """
    params = inspect.signature(f).parameters.values()
    hints = typing.get_type_hints(f)
    parts = []
    for p in params:
        fitting = [v for v in POOL if _fits(v, hints.get(p.name))]
        parts.append(st.one_of(st.sampled_from(fitting).map(copy.deepcopy), VALUES) if fitting else VALUES)
    return sum(p.default is inspect.Parameter.empty for p in params), st.tuples(*parts, VALUES)


ARGUMENTS = {name: _arguments(f) for name, f in EXPORTS.items()}


# no deadline: a default can be large, and wreath_presentation(3, 3) builds 63,972 relators
@pytest.mark.parametrize("name", sorted(EXPORTS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_every_export_returns_or_raises_a_documented_error(name, data):
    f = EXPORTS[name]
    required, arguments = ARGUMENTS[name]
    # one more argument than f has parameters is a wrong count, which `bind` refuses as Python would
    drawn = data.draw(arguments)
    args = drawn[: data.draw(st.integers(required, len(drawn)))]
    try:
        inspect.signature(f).bind(*args)
    except TypeError:
        return
    try:
        f(*args)
    except ALLOWED:
        pass


def test_evaluate_refuses_a_bracket_that_cannot_be_called():
    # refused at the entry, before the fold calls it: an escape the test above can draw
    with pytest.raises(ValueError, match="^bracket must be callable, not NoneType$"):
        liegrowth.evaluate(Bracket(A1, T1), standard_assignment(1, 1), None)


OPERATORS = [
    operator.add,
    operator.sub,
    operator.mul,
    lambda x, y: y * x,  # the scalar product from the right
    wreath_bracket,
    lambda x, y: wreath_bracket(y, x),
    metabelian.bracket,
    lambda x, y: metabelian.bracket(y, x),
]


@settings(max_examples=150)
@given(st.sampled_from(ELEMENTS).map(copy.deepcopy), VALUES, st.sampled_from(OPERATORS))
def test_element_operators_and_brackets_take_a_foreign_operand(elem, other, op):
    try:
        op(elem, other)
    except ALLOWED:
        pass


# each subcommand's flags
FLAGS = {
    "dims": ["--d", "--out", "--format", "--max-n"],
    "growth": ["--d", "--out", "--format", "--max-n", "--mode"],
    "euler-fit": ["--d", "--out", "--mode", "--fit-n", "--input", "--target", "--tolerance", "--dump-coeffs"],
    "verify": ["--d", "--out", "--format", "--mode", "--bound-s", "--max-n", "--seed", "--trials"],
}
SUITES = tuple(cli.SUITES)
INTS = ["1", "2", "3", "0", "-1", "x"]  # hypothesis favours the first


def _values(flag: str, paths: list[str]) -> list[str]:
    """The values drawn for a flag: mostly of its type, and one that is not."""
    if flag in ("--out", "--input", "--dump-coeffs"):
        return paths
    return {
        "--format": ["csv", "json", "x"],
        "--mode": ["W", "Wplus", "metabelian"],
        "--target": ["0.5", "2.5", "nan", "inf", "x"],
        "--tolerance": ["0.5", "0", "-1", "nan", "x"],
    }.get(flag, INTS)


def _sized(command: str, suite: str, size: str) -> list[str]:
    """The flags that set each size the command reads and whose default is above 3."""
    if command == "euler-fit":
        return ["--fit-n", size]
    if command != "verify":
        return ["--max-n", size]
    reads = cli.SUITES[suite][1]
    flags = [flag for flag in ("bound_s", "max_n", "trials") if flag in reads]
    return [tok for flag in flags for tok in (f"--{flag.replace('_', '-')}", size)]


@st.composite
def argvs(draw, paths: list[str]) -> list[str]:
    """A subcommand, a few of its flags with a value each or a stray token, and its sizes last."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    suite = draw(st.sampled_from(SUITES))
    middle = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 4)):
            flag = draw(st.sampled_from(FLAGS[command]))
            middle += [flag, draw(st.sampled_from(_values(flag, paths)))]
        else:  # a stray token: a value alone, help, or a flag of another subcommand
            middle.append(draw(st.sampled_from(INTS + paths + ["-h", "--fit-n", "--bound-s", "--input"])))
    # the sizes come last, so that no argv runs a large default
    head = [command] + (["--suite", suite] if command == "verify" else [])
    return head + middle + _sized(command, suite, draw(st.sampled_from(INTS[:5])))


def test_cli_exits_0_1_or_2_on_random_argvs(tmp_path):
    (tmp_path / "good.csv").write_text("n,a_n\n" + "".join(f"{n},{n}\n" for n in range(1, 9)))
    (tmp_path / "bad.csv").write_bytes(b"\xff\xfe\x00")
    paths = [str(tmp_path / name) for name in ("good.csv", "bad.csv", "missing.csv", "out")]

    # no deadline: an argv may run a whole verify suite, or read and write files
    @settings(max_examples=120, deadline=None)
    @given(argvs(paths))
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue(), argv

    run()
