"""Concrete wreath-product Lie models over a polynomial torus.

An element lives in the split extension B + T where B is the free
k[t1..tn]-module on module vectors a1..am and T is an abelian torus. In the
plain model ("W") the torus is spanned by t1..tn acting on B by
multiplication; the extended model ("Wplus") adjoins u1..un acting as t_i^2.
W is the subalgebra of Wplus spanned by the elements with no u-letter, so one
bracket, `wreath_bracket`, serves both: the model is fixed by the generating
set, and the mode is checked once, where that set is chosen
(`standard_assignment`, `model_laws_report`, `growth.growth_bfs`).
The bracket of p = (b_p, tau_p) and q = (b_q, tau_q) is

    [p, q] = b_p * act(tau_q) - b_q * act(tau_p)

with zero torus part: the torus is abelian and B is an abelian ideal, so
every commutator lands inside B. Each torus letter acts by a single monomial
(t_i by t_i, u_i by t_i^2), so the bracket is a sum of shifted copies of the
two module parts, accumulated into one term dict; a product with an empty
factor is never formed.

An element is two sparse term dicts, `terms` and `torus`, under packed int
keys. The module monomial a_{k+1} * t^exps has the key k * 2^(64n) +
e_1 * 2^(64(n-1)) + ... + e_n: k on top, then one 64-bit field per exponent,
so integer order is the order of the tuples (k, exps), the order of the
paper's basis. The letter acting by t_{i+1}^power (t_{i+1} by power 1, u_{i+1}
by 2) has the key -power * 2^(64(n-1-i)), minus the shift it applies to a
module key: it sorts before every module key, and the bracket shifts a term
with one subtraction. The merged dict is a `rowspace` vector as it stands,
and neither dict stores a zero. `decoded()` and `decode_key` give back the
layout of the basis, {(k, exps): c} and {(-power, i): c}, which the public
constructor `WreathElement(m, n, terms, torus)` takes, checks through
`poly.checked_terms` (`ValueError` for a malformed key) and packs. It rejects
an exponent of 2^32 or more. A bracket raises one exponent, and so the
exponent sum, by at most 2, so a field carries into the next, or the field
sum overflows, only after more than 2^62 nested brackets. `max_module_degree`
reads that sum off every module key of several elements in one generator,
and `module_degree` is it for one element. Coefficients follow `poly`.
Brackets, the arithmetic operators, the Magnus images a_i + t_i and the
model-law draw build their elements with `_trusted` from packed keys, and it
stores the dicts as given; every caller keeps the invariant of `poly`.

The Magnus-style embedding sends the i-th free metabelian generator to
a_i + t_i (with m = n = d). It is certified, not assumed: per-degree exact
rank computations check that embedded basis monomials stay independent, and
randomized checks confirm the homomorphism property.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations_with_replacement
from math import comb

from . import metabelian
from .expr import Generator, evaluate, format_expr, random_expr
from .metabelian import MetabelianElement
from .poly import Rational, TermElement, add_into, check_int, checked_terms, format_terms, ints_in_place, monomial_text
from .rowspace import RowSpace

MODE_W = "W"
MODE_WPLUS = "Wplus"
MODES = (MODE_W, MODE_WPLUS)

# a term dict: packed int key -> c (module docstring)
Terms = dict[int, Rational]

_BITS = 64  # bits per exponent field of a key
_FIELD = (1 << _BITS) - 1
_EXP_BOUND = 1 << 32  # the constructor's bound on an exponent


def _module_key(key: object, m: int, n: int) -> int:
    """The packed key of (k, exps), 0 <= k < m, n int exponents in [0, 2^32); else `ValueError`."""
    k, exps = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
    if type(k) is int and 0 <= k < m and isinstance(exps, tuple) and len(exps) == n:
        for e in exps:
            if type(e) is not int or not 0 <= e < _EXP_BOUND:
                break
            k = k << _BITS | e
        else:
            return k
    raise ValueError(f"malformed key {key!r}")


def _torus_key(key: object, n: int) -> int:
    """The packed key of (-1, i) for t_{i+1} or (-2, i) for u_{i+1}, 0 <= i < n; else `ValueError`."""
    neg_power, i = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
    if type(neg_power) is int and neg_power in (-1, -2) and type(i) is int and 0 <= i < n:
        return neg_power << _BITS * (n - 1 - i)
    raise ValueError(f"malformed key {key!r}")


def decode_key(key: int, n: int) -> tuple:
    """A packed key in the layout of the basis: (k, exps) for a module key, (-power, i) for a torus key."""
    if key < 0:
        j = (-key).bit_length() // _BITS  # -key is power << 64j, power 1 or 2
        return key >> _BITS * j, n - 1 - j
    return key >> _BITS * n, tuple(key >> s & _FIELD for s in range(_BITS * (n - 1), -1, -_BITS))


@cache
def _field_sum(n: int) -> tuple[int, int, int]:
    """(mul, mask, shift): (key * mul & mask) >> shift is the sum of the n exponent fields of a module key."""
    return sum(1 << _BITS * j for j in range(n)), _FIELD << _BITS * (n - 1), _BITS * (n - 1)


def max_module_degree(elements: Iterable[WreathElement], n: int) -> int:
    """Max total degree of a module term of `elements`, all with n torus variables; -1 if none has one.

    One generator reads every key, with no call per element: `growth.growth_bfs` guards a level at once.
    """
    mul, mask, shift = _field_sum(n)
    # the default stays -1 under the shift
    return max((key * mul & mask for e in elements for key in e.terms), default=-1) >> shift


@dataclass(slots=True, repr=False)
class WreathElement(TermElement):
    """Module terms plus torus letters, two term dicts with packed int keys.

    See the module docstring for the layout and the constructors. An element
    of W is one whose torus holds no u-letter ((-2, i) in the basis layout).
    The arithmetic (`zero`, truth value, `+`, `-`, negation, scalar `*`) is
    `poly.TermElement`'s, over the shape (m, n) and the two term dicts.
    """

    m: int
    n: int
    terms: Terms | None = None
    torus: Terms | None = None

    _MISMATCH = "elements from different models"

    def __post_init__(self) -> None:
        m, n = self.m, self.n
        check_int("m and n", 1, m, n)
        self.terms = checked_terms(self.terms, lambda key: _module_key(key, m, n))
        self.torus = checked_terms(self.torus, lambda key: _torus_key(key, n))

    @classmethod
    def _trusted(cls, m: int, n: int, terms: Terms, torus: Terms) -> "WreathElement":
        """Wrap already-checked term dicts without validation (see the module docstring)."""
        res = object.__new__(cls)
        res.m = m
        res.n = n
        res.terms = terms
        res.torus = torus
        return res

    def _unpack(self) -> tuple:
        return (self.m, self.n), (self.terms, self.torus)

    @classmethod
    def gen_a(cls, k: int, m: int, n: int) -> "WreathElement":
        return cls(m, n, {(k, (0,) * n): 1})

    @classmethod
    def gen_t(cls, i: int, m: int, n: int) -> "WreathElement":
        return cls(m, n, None, {(-1, i): 1})

    @classmethod
    def gen_u(cls, i: int, m: int, n: int) -> "WreathElement":
        return cls(m, n, None, {(-2, i): 1})

    def is_zero(self) -> bool:
        return not self.terms and not self.torus

    def module_degree(self) -> int:
        """Max total degree of a module term; -1 if the module part is 0."""
        return max_module_degree((self,), self.n)

    def decoded(self) -> tuple[dict, dict]:
        """`terms` and `torus` in the layout of the basis: {(k, exps): c} and {(-power, i): c}."""
        n = self.n
        return tuple({decode_key(key, n): c for key, c in part.items()} for part in (self.terms, self.torus))

    def coords(self) -> Terms:
        """The element as one sparse vector over mutually comparable keys.

        With a zero torus this is `terms` itself, not a copy: `RowSpace`
        copies a vector before it reduces it, so the result may go there as
        it is, but must not be mutated. Otherwise it is a merged copy.
        """
        if not self.torus:
            return self.terms
        return {**self.torus, **self.terms}

    def __str__(self) -> str:
        terms, torus = self.decoded()
        pairs = []
        for (k, exps), coeff in sorted(terms.items()):
            mono = monomial_text(exps)
            pairs.append((f"a{k + 1}*{mono}" if mono else f"a{k + 1}", coeff))
        # t-letters (key (-1, i)) before u-letters (key (-2, i)), each by index
        for (neg_power, i), coeff in sorted(torus.items(), key=lambda kv: (-kv[0][0], kv[0][1])):
            pairs.append((f"{'t' if neg_power == -1 else 'u'}{i + 1}", coeff))
        return format_terms(pairs)

    def __repr__(self) -> str:
        return f"WreathElement(m={self.m}, n={self.n}, {self!s})"


# --------------------------------------------------------------------- bracket


def _add_product(out: Terms, terms: Terms, torus: Terms, sign: int) -> None:
    """out += sign * terms * act(torus), for sign = 1 or -1, keeping no zeros; a letter's key is minus its shift."""
    get = out.get
    for letter, a in torus.items():
        a = a * sign
        for key, c in terms.items():
            key -= letter
            prod = c * a
            old = get(key)
            if old is None:
                out[key] = prod
            else:
                acc = old + prod
                if acc:
                    out[key] = acc
                else:
                    del out[key]


def wreath_bracket(p: WreathElement, q: WreathElement) -> WreathElement:
    """[p, q] = module(p) * act(q) - module(q) * act(p); torus part is zero. One bracket for W and Wplus.

    An operand that is not a `WreathElement` of the other's model raises `ValueError`.
    """
    if type(p) is not WreathElement or type(q) is not WreathElement or p.m != q.m or p.n != q.n:
        raise ValueError(WreathElement._MISMATCH)
    tp = p.torus
    tq = q.torus
    out: Terms = {}
    if tq and p.terms:
        _add_product(out, p.terms, tq, 1)
    if tp and q.terms:
        _add_product(out, q.terms, tp, -1)
    return WreathElement._trusted(p.m, p.n, out, {})


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")


def _seeded(seed: int) -> random.Random:
    """A generator seeded by `seed`; `ValueError` for a seed `random.Random` refuses."""
    try:
        return random.Random(seed)
    except TypeError:
        raise ValueError(f"seed must be an int, not {type(seed).__name__}") from None


def standard_assignment(m: int, n: int, mode: str = MODE_WPLUS) -> dict[Generator, WreathElement]:
    """Generator -> model element map: a_k, t_i, and (in Wplus) u_i, in that order."""
    _check_mode(mode)
    check_int("m and n", 1, m, n)
    out: dict[Generator, WreathElement] = {}
    for k in range(m):
        out[Generator("a", k)] = WreathElement.gen_a(k, m, n)
    for i in range(n):
        out[Generator("t", i)] = WreathElement.gen_t(i, m, n)
    if mode == MODE_WPLUS:
        for i in range(n):
            out[Generator("u", i)] = WreathElement.gen_u(i, m, n)
    return out


# ------------------------------------------------------------------- reports

@dataclass
class RelationReport:
    """The result of one verification suite; an empty failure list means it passed.

    `failures` are witness strings. `ranks` holds (degree, rank, expected)
    rows and is kept only by the embedding suite.
    """

    suite: str
    mode: str
    m: int
    n: int
    bounds: dict[str, int]
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    ranks: list[tuple[int, int, int]] | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, failure: str | None) -> None:
        """Count one check, and append its witness text unless it is None (passed).

        Callers write ``None if ok else f"..."``, so a passing check formats
        nothing. The embedding suite, the model laws and the tower hypotheses
        call it per check. The hot loops, the relators of `check_presentation`
        and the tower pairs of `tower_commutation_report`, append their
        failures and add to `checked` in bulk instead.
        """
        self.checked += 1
        if failure is not None:
            self.failures.append(failure)

    def to_dict(self) -> dict:
        """The JSON report; only the presentation suite writes m and n."""
        out = {"suite": self.suite, "mode": self.mode, "d": self.m if self.m == self.n else None}
        if self.suite == "presentation":
            out.update(m=self.m, n=self.n)
        out.update(bounds=self.bounds, checked=self.checked)
        if self.ranks is not None:
            out["ranks"] = [{"n": n, "rank": r, "expected": e} for n, r, e in self.ranks]
        out["failures"] = self.failures
        return out


# ------------------------------------------------------------------- embedding

def magnus_generator_images(d: int) -> dict[Generator, WreathElement]:
    """x_i -> a_i + t_i in the model with m = n = d; `ValueError` unless d is an int >= 1."""
    check_int("d", 1, d)
    # a_{i+1} has the key i << 64d, t_{i+1} the key -1 << 64(d-1-i) (module docstring)
    return {
        Generator("x", i): WreathElement._trusted(d, d, {i << _BITS * d: 1}, {-1 << _BITS * (d - 1 - i): 1})
        for i in range(d)
    }


def magnus_embedding(elem: MetabelianElement) -> WreathElement:
    """Image of a normal-form element under x_i -> a_i + t_i (in W, m = n = elem.d).

    Each word's image is summed in place into a fresh zero, and integral
    coefficients are stored as `int`s, as the public constructor stores them.
    """
    if type(elem) is not MetabelianElement:
        raise ValueError(f"magnus_embedding takes a MetabelianElement, not {type(elem).__name__}")
    d = elem.d
    x = list(magnus_generator_images(d).values())
    total = WreathElement.zero(d, d)
    for word, coeff in elem.terms.items():
        val = x[word[0]]
        for i in word[1:]:
            val = wreath_bracket(val, x[i])
        add_into(total.terms, val.terms, coeff)
        add_into(total.torus, val.torus, coeff)
    # halves of two words may sum to an integral Fraction on a shared module
    # term; the torus holds one letter per degree-1 word, each added once
    ints_in_place(total.terms)
    return total


def certify_embedding(d: int, n_max: int, seed: int = 0, trials: int = 25) -> RelationReport:
    """Certify injectivity degree by degree, plus the homomorphism property.

    For each degree n <= n_max the images of the degree-n basis monomials are
    flattened to sparse vectors and their exact rank must equal the graded
    dimension. The i-th image gets the extra key extra + i, above every key
    of W(d, d) (extra is the key of (d, (0, .., 0))), so `RowSpace` reduces
    the rows of `[A | I]`: an image adds to the rank exactly when its
    residual's pivot is a key of W(d, d), and
    otherwise the extra keys of the residual name its dependent combination
    (or the image is 0). A witness may name an earlier dependent image: with
    x2 -> 2*x1 and x3 -> 3*x1, x3 depends on 3/2*x2, not on 3*x1. Then
    `trials` random expressions check that normal form followed by embedding
    equals direct evaluation under x_i -> a_i + t_i. Each degree and each
    trial counts as one check. A seed that `random.Random` refuses raises
    `ValueError` before any bracket is made.
    """
    check_int("d and n_max", 1, d, n_max)
    check_int("trials", 0, trials)
    rng = _seeded(seed)
    report = RelationReport("embedding", MODE_W, d, d, {"max_n": n_max}, ranks=[])
    images = magnus_generator_images(d)
    x = list(images.values())
    image: dict[tuple[int, ...], WreathElement] = {}
    extra = d << _BITS * d
    for n in range(1, n_max + 1):
        monos = metabelian.basis_monomials(d, n)
        expected = metabelian.graded_dim(d, n)
        # a prefix of a basis monomial is a basis monomial, of the degree before
        image = {m: wreath_bracket(image[m[:-1]], x[m[-1]]) if n > 1 else x[m[0]] for m in monos}
        space = RowSpace()
        rank = 0
        for idx, mono in enumerate(monos):
            residual = space.add_with_witness({**image[mono].coords(), extra + idx: 1})[1]
            if min(residual) < extra:
                rank += 1
                continue
            image_of = f"degree {n}: image of {metabelian.format_monomial(mono)}"
            witness = {key - extra: -c for key, c in residual.items() if key != extra + idx}
            if witness:
                deps = " + ".join(
                    f"{c}*{metabelian.format_monomial(monos[i])}" for i, c in sorted(witness.items())
                )
                report.failures.append(f"{image_of} depends on {deps}")
            else:
                report.failures.append(f"{image_of} is 0")
        report.ranks.append((n, rank, expected))
        report.check(None if rank == expected else f"degree {n}: rank {rank} != expected {expected}")
    for _ in range(trials):
        e = random_expr(rng, list(images), rng.randint(1, 6))
        via_normal_form = magnus_embedding(metabelian.normalize_expr(e, d))
        direct = evaluate(e, images, wreath_bracket)
        report.check(None if via_normal_form == direct else f"homomorphism property failed on {format_expr(e)}")
    return report


# ------------------------------------------------------------------ model laws

def _random_element(rng: random.Random, d: int, mode: str) -> WreathElement:
    """A random element of the model with m = n = d: module terms under each a_k, and every torus letter of the mode.

    Each value is one `rng.getrandbits` field over a power-of-two range, with
    no rejection: the number of module terms under each a_k is the sum of two
    bits (0..2, mean 1), an exponent takes 2 bits (0..3), a module
    coefficient 3 bits (-3..4) and a torus coefficient 2 bits (-1..2). A
    repeated module key keeps its place and its last value, as in the
    constructor, and a zero drawn is dropped.
    """
    bits = rng.getrandbits
    terms: Terms = {}
    for k in range(d):
        for _ in range(bits(1) + bits(1)):
            key = k
            for _ in range(d):
                key = key << _BITS | bits(2)
            terms[key] = bits(3) - 3
    powers = (1, 2) if mode == MODE_WPLUS else (1,)
    torus = {-power << _BITS * (d - 1 - i): bits(2) - 1 for power in powers for i in range(d)}
    return WreathElement._trusted(d, d, *({key: c for key, c in part.items() if c} for part in (terms, torus)))


def _sum_into(total: WreathElement, *more: WreathElement) -> WreathElement:
    """total + sum(more), summed into total's own dicts: total must be a fresh bracket result."""
    for x in more:
        add_into(total.terms, x.terms)
        add_into(total.torus, x.torus)
    return total


def model_laws_report(
    d: int,
    mode: str = MODE_WPLUS,
    seed: int = 0,
    trials: int = 50,
    span_degree: int = 4,
) -> RelationReport:
    """Random checks of the Lie axioms and of the module spanning towers.

    Verifies antisymmetry and the Jacobi identity on random elements, that
    every commutator has zero torus part, that the module part is abelian,
    that the iterated bracket [a_l, t_{j1}, ..., t_{js}] equals the module
    monomial a_l * t_{j1} * ... * t_{js}, and that the towers of torus length
    s span the degree-s module slice (exact rank d * C(s+d-1, d-1)). An
    unknown mode, a d, trials or span_degree that `poly.check_int` rejects,
    or a seed that `random.Random` refuses raises ValueError before any
    bracket is made.
    """
    _check_mode(mode)
    check_int("d", 1, d)
    check_int("trials", 0, trials)
    check_int("span_degree", 0, span_degree)
    rng = _seeded(seed)
    report = RelationReport("model-laws", mode, d, d, {"trials": trials})
    check = report.check

    for _ in range(trials):
        p = _random_element(rng, d, mode)
        q = _random_element(rng, d, mode)
        r = _random_element(rng, d, mode)
        pq = wreath_bracket(p, q)
        anti = _sum_into(wreath_bracket(q, p), pq)
        check(None if anti.is_zero() else f"antisymmetry failed: p={p}, q={q}")
        jac = _sum_into(
            wreath_bracket(pq, r),
            wreath_bracket(wreath_bracket(q, r), p),
            wreath_bracket(wreath_bracket(r, p), q),
        )
        check(None if jac.is_zero() else f"Jacobi failed: p={p}, q={q}, r={r}")
        check(None if not pq.torus else f"commutator left the module: [{p}, {q}] = {pq}")
        b1 = WreathElement._trusted(d, d, p.terms, {})
        b2 = WreathElement._trusted(d, d, q.terms, {})
        check(None if wreath_bracket(b1, b2).is_zero() else f"module part not abelian: {b1}, {b2}")

    # towers [a_l, t_{j1}, ..., t_{js}] against explicit monomials, per degree
    t = [WreathElement.gen_t(j, d, d) for j in range(d)]
    towers = {(l, ()): WreathElement.gen_a(l, d, d) for l in range(d)}  # (l, js) -> tower
    for s in range(0, span_degree + 1):
        space = RowSpace()
        if s:  # each tower is its prefix, one torus letter shorter, bracketed with t_js[-1]
            towers = {
                (l, js): wreath_bracket(towers[l, js[:-1]], t[js[-1]])
                for l in range(d)
                for js in combinations_with_replacement(range(d), s)
            }
        for (l, js), val in towers.items():
            mono = {_module_key((l, tuple(js.count(j) for j in range(d))), d, d): 1}
            check(None if val.terms == mono and not val.torus else f"tower a{l + 1},{js} is not the expected monomial")
            space.add(val.coords())
        expected = d * comb(s + d - 1, d - 1)
        check(None if space.rank == expected else f"towers of torus length {s} span rank {space.rank}, expected {expected}")
    return report
