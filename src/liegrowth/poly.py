"""Exact term dicts, and the polynomial ring kept as the tests' reference.

Every sparse term dict in the package (wreath elements, metabelian normal
forms, left-normed combinations, `rowspace` vectors) maps keys to exact
rational coefficients: an `int` where the value is integral, a
`fractions.Fraction` where it is not. Most coefficients in this package are
integers, and `int` arithmetic runs in C while `Fraction` arithmetic runs in
Python and calls `gcd`. Invariant: no stored coefficient is zero, and each is
an `int` or a `Fraction`, never a `float`. Arithmetic on `int`s stays `int`,
and the constructors, `+`, `-` and scalar `*` store an integral value as an
`int`. Two hot kernels may leave an integral `Fraction`, which compares and
hashes equal to its `int`: `wreath.wreath_bracket`, where halves of
`Fraction`-weighted elements sum on one module term, and the residuals and
rows of `rowspace.RowSpace`. Neither pays a pass over its result for it, as
they run once per bracket and once per rank update of every search and check.

`check_int(names, low, *values)` checks every size, bound and count the
public API takes: an `int`, not a `bool`, at or above `low`, or `ValueError`.
The indices of `normalize_word`, `MetabelianElement` and `expr.Generator`
stay inline `type(i) is int` tests: they run once per leaf or letter of a
normal form, where a call would cost more than the test itself.

The helpers here keep that rule: `exact` converts one coefficient, `scaled`
multiplies a term dict by a scalar (by 0 it gives `{}`), `ints_in_place`
stores the integral values of a term dict as `int`s, `add_into` is the
one in-place sum, and it deletes a key whose sum is 0; `format_terms` is the
one place that writes a term dict as the signed string `c*m + m - ...`, and
`monomial_text` writes an exponent tuple as `t1*t2^2`. The only other
accumulate loop is `wreath._add_product(out, terms, torus, sign)`, which adds
into one module term dict the copies of another shifted by each torus
letter, each key shifted by one int subtraction (the packed keys of `wreath`).

`MultiPoly` is the ring k[t1..tn] itself, with exponent vectors as int tuples
of one slot per variable. No program path multiplies polynomials: the tests
use it as the reference for the wreath bracket, and the benchmark's tracer
wraps its `__mul__` and `__add__`.

`MultiPoly`, `metabelian.MetabelianElement` and `wreath.WreathElement` are
slotted dataclasses, unhashable and immutable by convention. Each public
constructor validates through `checked_terms(terms, check_key)`, where
`check_key` raises `ValueError` for a malformed key and returns the key to
store. Arithmetic builds its results with the type's trusted constructor
`_trusted`, which stores the dicts as given: coefficients as above, no zeros,
and the shape and every key from operands that were already checked.

The three share one arithmetic, the slotted base `TermElement`: `zero`, the
truth value, `+`, `-`, negation and scalar `*` from either side, over the
`(shape, term dicts)` pair that each type's `_unpack` returns. An operand of
another type or shape, a scalar included, raises `ValueError` with the left
operand's `_MISMATCH` text. `_trusted` and `is_zero` stay in each type, as
they run on hot paths: every bracket builds its result with `_trusted`, and
the relation checks ask `is_zero` of each tower pair and law
(`check_presentation` tests a relator's two dicts inline, without the call).
Written once over `_unpack`, either costs three to ten times as much a call.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import TypeVar

Exponents = tuple[int, ...]
Rational = int | Fraction
K = TypeVar("K")


def check_int(names: str, low: int, *values: object) -> None:
    """Raise `ValueError` unless every value is an `int` (not a `bool`) >= low; `names` names them."""
    for v in values:  # a plain loop: all() over a generator costs 3x as much
        if type(v) is not int:
            raise ValueError(f"{names} must be int, not {type(v).__name__}")
        if v < low:
            raise ValueError(f"{names} must be >= {low}")


def exact(value: Fraction | int | float | str) -> Rational:
    """`value` as an exact rational: an `int` if integral, else a `Fraction`.

    Anything `Fraction` accepts is accepted; a `float` is converted exactly.
    NaN, infinities, a zero denominator and anything `Fraction` cannot read
    raise `ValueError`.
    """
    if type(value) is int:
        return value
    try:
        c = Fraction(value)
    except (OverflowError, TypeError, ZeroDivisionError):  # bad input, not a failed cross-check
        raise ValueError(f"{value!r} is not a finite rational") from None
    return c.numerator if c.denominator == 1 else c


def checked_terms(terms: object, check_key: Callable[[object], K]) -> dict[K, Rational]:
    """{check_key(k): exact(c)} over `terms`, zeros dropped; `{}` for None or empty, `ValueError` for a non-mapping."""
    if not terms:
        return {}
    if not isinstance(terms, Mapping):
        raise ValueError(f"terms must be a mapping, not {type(terms).__name__}")
    out: dict[K, Rational] = {}
    for key, coeff in terms.items():
        key = check_key(key)
        c = exact(coeff)
        if c:
            out[key] = c
    return out


def scaled(terms: Mapping[K, Rational], c: Rational) -> dict[K, Rational]:
    """The products coeff * c of a term dict, integral ones stored as `int`; `{}` for c = 0."""
    if not c:
        return {}
    out = {k: v * c for k, v in terms.items()}
    ints_in_place(out)
    return out


def ints_in_place(terms: dict[K, Rational]) -> None:
    """Store each integral `Fraction` of a term dict as its `int`, in place."""
    for k, v in terms.items():
        if type(v) is not int and v.denominator == 1:
            terms[k] = v.numerator


def add_into(out: dict[K, Rational], terms: Mapping[K, Rational], c: Rational = 1) -> None:
    """out += c * terms, in place; `c` must be nonzero, and out keeps no zeros."""
    get = out.get
    for k, v in terms.items():
        v = v * c
        old = get(k)
        if old is None:
            out[k] = v
        else:
            acc = old + v
            if acc:
                out[k] = acc
            else:
                del out[k]


def monomial_text(exps: Exponents) -> str:
    """`t1*t2^2` for the exponents (1, 2); "" for the unit monomial."""
    return "*".join(f"t{i + 1}" if p == 1 else f"t{i + 1}^{p}" for i, p in enumerate(exps) if p)


def format_terms(pairs: Iterable[tuple[str, Rational]]) -> str:
    """The signed sum `c*m + m - m - ...` of (monomial text, coefficient) pairs.

    A monomial text of "" is the unit monomial and prints the bare coefficient;
    no pairs print "0".
    """
    out = []
    for text, c in pairs:
        if not text:
            piece = str(c)
        elif c == 1:
            piece = text
        elif c == -1:
            piece = f"-{text}"
        else:
            piece = f"{c}*{text}"
        if not out:
            out.append(piece)
        elif piece.startswith("-"):
            out.append(f" - {piece[1:]}")
        else:
            out.append(f" + {piece}")
    return "".join(out) if out else "0"


class TermElement:
    """The arithmetic of a term-dict element type (module docstring).

    A subclass defines `_unpack()` -> (shape, term dicts), `_MISMATCH`,
    `_trusted(*shape, *term dicts)` and `is_zero()`.
    """

    __slots__ = ()

    @classmethod
    def zero(cls, *shape: int):
        return cls(*shape)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def _check(self, other: object) -> tuple:
        """(shape, own term dicts, other's); `ValueError` unless `other` has this type and shape."""
        shape, parts = self._unpack()
        if type(other) is type(self):
            other_shape, others = other._unpack()
            if other_shape == shape:
                return shape, parts, others
        raise ValueError(self._MISMATCH)

    def _plus(self, other: object, c: Rational):
        """self + c * other, for c = 1 or -1."""
        shape, parts, others = self._check(other)
        sums = list(map(dict, parts))
        for out, theirs in zip(sums, others):
            add_into(out, theirs, c)
            ints_in_place(out)
        return self._trusted(*shape, *sums)

    def __add__(self, other: object):
        return self._plus(other, 1)

    def __sub__(self, other: object):
        return self._plus(other, -1)

    def __mul__(self, scalar: Rational):
        c = exact(scalar)
        shape, parts = self._unpack()
        return self._trusted(*shape, *(scaled(part, c) for part in parts))

    __rmul__ = __mul__

    def __neg__(self):
        return TermElement.__mul__(self, -1)


@dataclass(slots=True, repr=False)
class MultiPoly(TermElement):
    nvars: int
    terms: dict[Exponents, Rational] | None = None

    _MISMATCH = "polynomials over different variable sets"

    def __post_init__(self) -> None:
        nvars = self.nvars
        check_int("nvars", 0, nvars)

        def check_exps(exps: Exponents) -> Exponents:
            if not isinstance(exps, tuple) or len(exps) != nvars:
                raise ValueError(f"exponent vector {exps!r} has wrong arity (nvars={nvars})")
            check_int("exponents", 0, *exps)
            return tuple(exps)

        self.terms = checked_terms(self.terms, check_exps)

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[Exponents, Rational]) -> "MultiPoly":
        """Wrap `terms` without validation (see the module docstring)."""
        res = object.__new__(cls)
        res.nvars = nvars
        res.terms = terms
        return res

    def _unpack(self) -> tuple:
        return (self.nvars,), (self.terms,)

    def is_zero(self) -> bool:
        return not self.terms

    # in the class's own dict: the benchmark's tracer wraps both by name
    __add__ = TermElement.__add__

    def __mul__(self, other: "MultiPoly | Rational") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return TermElement.__mul__(self, other)
        self._check(other)
        out: dict[Exponents, Rational] = {}
        for e1, c1 in self.terms.items():
            add_into(
                out,
                {tuple(a + b for a, b in zip(e1, e2)): c2 for e2, c2 in other.terms.items()},
                c1,
            )
        ints_in_place(out)
        return MultiPoly._trusted(self.nvars, out)

    def __str__(self) -> str:
        return format_terms((monomial_text(e), c) for e, c in sorted(self.terms.items()))

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self!s})"

