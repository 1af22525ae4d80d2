"""Independent oracles used only by the tests.

These deliberately avoid the package's own algorithms: partition counts come
from the coin-change recurrence, basis monomials of the metabelian algebra
are found by filtering every word against the ordering predicate and counted
by a closed form, the leaves of an expression are counted with an explicit
stack instead of `expr._fold`, and the fold itself by plain recursion
(`reference_fold`), a left-normed word is built as a tree one letter at a
time (`left_normed`), as the presentations once were, and evaluated as a
plain chain of brackets, not through an expression tree, gamma(n) comes from the
filtration search without the pruning of `growth.growth_bfs`, the Wplus
graded counts come from listing exponent vectors instead of their closed
form, and the enveloping series comes from multiplying truncated factors
instead of the divisor-sum recurrence. That recurrence, taken one n at a
time, is the reference for the midpoint split of `series.euler_transform`.

A wreath element is also viewed here the way the paper writes it: its module
part as m polynomials of `poly.MultiPoly` (`module_polys`), its torus part as
the polynomial by which it acts (`action_poly`) or as the coefficient blocks
of t1..tn and u1..un (`torus_blocks`), and `from_polys` builds an element from
that view. The polynomial ring is the reference the bracket
kernel is tested against. Each view reads the element through `decoded()`,
the layout of the basis; `wreath_text` writes that layout as the text format
of an element, term by term, as `str` did on the tuple-keyed dicts.
`random_element_by_constructor` draws the model-law elements in that layout
through the validated constructor, the reference for the packed draw, and
`magnus_generator_images_by_constructor` and `magnus_embedding_by_sums` build
the Magnus images and embedding as `wreath` once did, through the generator
constructors and one `+` per word: the references for the images built from
packed keys and the embedding summed in place.

`format_expr_by_strings` is the string fold that `expr.format_expr`
replaced. `parse_expr_two_pass` is the parser that `expr.parse_expr`
replaced: it turns the whole text into a token list first, then feeds that
list to the stack of open brackets, so a fault in a character is reported
before any fault of structure, wherever each stands.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import product
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from liegrowth import metabelian
from liegrowth.expr import KINDS, Bracket, Generator, LieExpr, ParseError
from liegrowth.poly import MultiPoly, Rational, format_terms, monomial_text
from liegrowth.rowspace import RowSpace
from liegrowth.series import _graded_range
from liegrowth.wreath import MODE_WPLUS, WreathElement, wreath_bracket

V = TypeVar("V")


def leaf_count(e) -> int:
    """Number of generator occurrences in an expression, by an explicit stack."""
    count = 0
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Bracket):
            stack += (node.left, node.right)
        else:
            count += 1
    return count


def reference_fold(e, leaf: Callable, bracket: Callable, memo: dict | None = None):
    """The fold `expr._fold` makes, by plain recursion, for the small trees of
    the tests: leaf(gen) at a leaf and bracket(left, right) at a bracket, the
    left factor first; a node found in `memo` (id -> (node, value)) is read,
    not folded again, and the value of each node folded, leaf or bracket, is
    recorded there."""
    if memo is not None and id(e) in memo:
        return memo[id(e)][1]
    if isinstance(e, Bracket):
        value = bracket(reference_fold(e.left, leaf, bracket, memo), reference_fold(e.right, leaf, bracket, memo))
    else:
        value = leaf(e)
    if memo is not None:
        memo[id(e)] = (e, value)
    return value


def format_expr_by_strings(e) -> str:
    """The text format as `expr.format_expr` wrote it before its pieces list:
    a fold over strings, each bracket a new string of its two factors, so its
    time is quadratic on a long chain."""
    return reference_fold(e, str, lambda l, r: (l[:-1] if l[0] == "[" else "[" + l) + "," + r + "]")


def partition_counts(n_max: int) -> list[int]:
    counts = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for total in range(part, n_max + 1):
            counts[total] += counts[total - part]
    return counts


def basis_words_by_filter(d: int, n: int) -> set[tuple[int, ...]]:
    """All length-n words over 0..d-1 satisfying the basis ordering predicate."""
    if n == 1:
        return {(i,) for i in range(d)}
    out = set()
    for word in product(range(d), repeat=n):
        if word[0] > word[1] and all(word[i] <= word[i + 1] for i in range(1, n - 1)):
            out.add(word)
    return out


def graded_dim_closed(d: int, n: int) -> int:
    """Dimension of the degree-n component: (n-1) * C(n+d-2, n) for n >= 2, d for n = 1."""
    if d < 1 or n < 1:
        raise ValueError("d and n must be >= 1")
    if n == 1:
        return d
    return (n - 1) * math.comb(n + d - 2, n)


def ceil_weight_counts(d: int, s_max: int) -> list[int]:
    """counts[s] = #{beta in N^d : sum_j ceil(beta_j/2) = s} for s <= s_max,
    by listing every beta with entries up to 2 * s_max."""
    counts = [0] * (s_max + 1)
    for beta in product(range(2 * s_max + 1), repeat=d):
        weight = sum((b + 1) // 2 for b in beta)
        if weight <= s_max:
            counts[weight] += 1
    return counts


def euler_product_direct(a: Sequence[int]) -> list[int]:
    """The coefficients of prod (1-t^n)^(-a_n), by multiplying truncated factors.

    Each factor (1-t^k)^(-a_k) expands to sum_j C(a_k-1+j, j) t^(kj). The
    input is checked as `series.euler_transform` checks it.
    """
    N = _graded_range(a)
    b = [1] + [0] * N
    for k in range(1, N + 1):
        a_k = a[k]
        if not a_k:
            continue
        factor = [math.comb(a_k - 1 + j, j) for j in range(N // k + 1)]
        out = [0] * (N + 1)
        for deg, coeff in enumerate(b):
            if coeff:
                for j, f in enumerate(factor):
                    pos = deg + k * j
                    if pos > N:
                        break
                    out[pos] += coeff * f
        b = out
    return b


def euler_transform_by_recurrence(a: Sequence[int]) -> list[int]:
    """The coefficients of prod (1-t^n)^(-a_n), one n at a time.

    n * b_n = sum_{k=1}^{n} c_k * b_{n-k}, c_k = sum_{delta | k} delta * a_delta.
    The reversed c pairs its last n entries with b_0..b_(n-1).
    """
    N = _graded_range(a)
    c = [0] * (N + 1)
    for delta in range(1, N + 1):
        for k in range(delta, N + 1, delta):
            c[k] += delta * a[delta]
    c_rev = c[:0:-1]
    b = [1]
    for n in range(1, N + 1):
        quotient, rest = divmod(sum(map(mul, c_rev[N - n:], b)), n)
        if rest:
            raise ArithmeticError(f"divisor-sum recurrence not integral at n = {n}")
        b.append(quotient)
    return b


def module_polys(e: WreathElement) -> tuple[MultiPoly, ...]:
    """The module part of e as m polynomials, a_{k+1}'s at index k.

    The coefficients are e's own, unchecked, so a test can read them.
    """
    parts: list[dict] = [{} for _ in range(e.m)]
    for (k, exps), c in e.decoded()[0].items():
        parts[k][exps] = c
    return tuple(MultiPoly._trusted(e.n, part) for part in parts)


def action_poly(e: WreathElement) -> MultiPoly:
    """The polynomial by which the torus part of e acts on the module."""
    terms = {}
    for (neg_power, i), c in e.decoded()[1].items():
        exps = [0] * e.n
        exps[i] = -neg_power
        terms[tuple(exps)] = c
    return MultiPoly._trusted(e.n, terms)


def wreath_text(terms: Mapping, torus: Mapping) -> str:
    """The text of an element from {(k, exps): c} and {(-power, i): c}: module
    terms in (k, exps) order, then the t-letters and the u-letters by index."""
    pairs = []
    for (k, exps), c in sorted(terms.items()):
        mono = monomial_text(exps)
        pairs.append((f"a{k + 1}*{mono}" if mono else f"a{k + 1}", c))
    for (neg_power, i), c in sorted(torus.items(), key=lambda kv: (-kv[0][0], kv[0][1])):
        pairs.append((f"{'t' if neg_power == -1 else 'u'}{i + 1}", c))
    return format_terms(pairs)


def torus_blocks(e: WreathElement) -> tuple[tuple[Rational, ...], tuple[Rational, ...]]:
    """The coefficients of t1..tn and of u1..un, zeros included."""
    torus = e.decoded()[1]
    return tuple(tuple(torus.get((-power, i), 0) for i in range(e.n)) for power in (1, 2))


def from_polys(
    m: int,
    n: int,
    module: Iterable[MultiPoly] | None = None,
    tor_t: Iterable[Rational] | None = None,
    tor_u: Iterable[Rational] | None = None,
) -> WreathElement:
    """The element with these module polynomials and t- and u-coefficients by index."""
    terms = {(k, exps): c for k, p in enumerate(module or ()) for exps, c in p.terms.items()}
    torus = {(-1, i): c for i, c in enumerate(tor_t or ())}
    torus.update({(-2, i): c for i, c in enumerate(tor_u or ())})
    return WreathElement(m, n, terms, torus)


def random_element_by_constructor(rng, d: int, mode: str) -> WreathElement:
    """The model-law draw of `wreath._random_element`, in the layout of the basis
    through the validated constructor: the same `rng` calls in the same order."""
    terms = {}
    for k in range(d):
        for _ in range(rng.getrandbits(1) + rng.getrandbits(1)):
            exps = tuple(rng.getrandbits(2) for _ in range(d))
            terms[k, exps] = rng.getrandbits(3) - 3
    powers = (1, 2) if mode == MODE_WPLUS else (1,)
    torus = {(-power, i): rng.getrandbits(2) - 1 for power in powers for i in range(d)}
    return WreathElement(d, d, terms, torus)


def magnus_generator_images_by_constructor(d: int) -> dict[Generator, WreathElement]:
    """x_i -> a_i + t_i, each image the sum of the generators `gen_a` and `gen_t` build."""
    return {Generator("x", i): WreathElement.gen_a(i, d, d) + WreathElement.gen_t(i, d, d) for i in range(d)}


def magnus_embedding_by_sums(elem: metabelian.MetabelianElement) -> WreathElement:
    """The Magnus image of a normal form, each word's image scaled and added with `+`."""
    d = elem.d
    x = list(magnus_generator_images_by_constructor(d).values())
    total = WreathElement.zero(d, d)
    for word, coeff in elem.terms.items():
        total = total + evaluate_word(word, x, wreath_bracket) * coeff
    return total


def left_normed(letters: Sequence) -> Bracket:
    """The left-nested bracket [[..[g0,g1],..],gk] of the letters, the tree a
    presentation's relator once was built as, one letter at a time."""
    if not letters:
        raise ValueError("empty word")
    return reduce(Bracket, letters)


def parse_expr_two_pass(text: str) -> LieExpr:
    """The text format read in two passes: the token list of the whole text, then the bracket stack."""
    # the entries read so far of each open bracket; open_lists[0] takes the whole input
    open_lists: list[list[LieExpr]] = [[]]
    want_entry = True
    for pos, tok in enumerate(_tokenize(text)):
        if want_entry:
            if tok == "[":
                open_lists.append([])
                continue
            if tok[0] not in KINDS:
                raise ParseError(f"unexpected token {tok!r}")
            try:
                index = int(tok[1:])
            except ValueError:  # past int's limit on the digits of a str
                raise ParseError(f"index of {tok[0]!r} at token {pos} is too long ({len(tok) - 1} digits)") from None
            if index < 1:
                raise ParseError(f"index in {tok!r} must be >= 1")
            open_lists[-1].append(Generator(tok[0], index - 1))
            want_entry = False
        elif len(open_lists) == 1:
            raise ParseError(f"trailing input at token {pos}")
        elif tok == ",":
            want_entry = True
        elif tok != "]":
            raise ParseError("expected ']'")
        else:
            items = open_lists.pop()
            if len(items) < 2:
                raise ParseError("a bracket needs at least two entries")
            open_lists[-1].append(reduce(Bracket, items))
    if want_entry:
        raise ParseError("unexpected end of input")
    if len(open_lists) > 1:
        raise ParseError("expected ']'")
    return open_lists[0][0]


def _tokenize(text: str) -> list[str]:
    if not isinstance(text, str):
        raise ParseError(f"expected a str, not {type(text).__name__}")
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "[],":
            tokens.append(ch)
            i += 1
        elif ch in KINDS:
            j = i + 1
            while j < len(text) and text[j] in "0123456789":  # str.isdigit also takes '²' and '١'
                j += 1
            if j == i + 1:
                raise ParseError(f"generator {ch!r} needs a 1-based index")
            tokens.append(text[i:j])
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} at position {i}")
    if not tokens:
        raise ParseError("empty input")
    return tokens


def evaluate_word(word, assignment: Mapping, bracket: Callable[[V, V], V]) -> V:
    """Value of the left-normed word [[..[w0,w1],..],wk]."""
    value = assignment[word[0]]
    for gen in word[1:]:
        value = bracket(value, assignment[gen])
    return value


def evaluate_combination(comb: Mapping, assignment: Mapping, bracket: Callable[[V, V], V], zero: V) -> V:
    """Sum of coeff * value(word); V must support + and scalar *."""
    total = zero
    for word, coeff in sorted(comb.items(), key=lambda kv: (len(kv[0]), kv[0])):
        total = total + evaluate_word(word, assignment, bracket) * coeff
    return total


def unpruned_growth(mode: str, d: int, n_max: int, generator_order: Sequence[int] | None = None) -> list[int]:
    """gamma(0..n_max) by the filtration search with every generator at every
    level and the module-degree guard on every candidate (no closed-form check)."""
    if mode == "metabelian":
        gens: list = [metabelian.MetabelianElement.generator(i, d) for i in range(d)]
        brack: Callable = metabelian.bracket
        coords: Callable = lambda e: e.terms
    else:
        gens = [WreathElement.gen_a(k, d, d) for k in range(d)]
        gens += [WreathElement.gen_t(i, d, d) for i in range(d)]
        if mode == MODE_WPLUS:
            gens += [WreathElement.gen_u(i, d, d) for i in range(d)]
        brack = wreath_bracket
        coords = lambda e: e.coords()
    if generator_order is not None:
        gens = [gens[i] for i in generator_order]
    space = RowSpace()
    gamma = [0]
    frontier = [g for g in gens if space.add(coords(g))]
    gamma.append(space.rank)
    for level in range(2, n_max + 1):
        fresh = []
        for e in frontier:
            for g in gens:
                cand = brack(e, g)
                if mode != "metabelian" and cand.module_degree() > min(2 * (level - 1), 2 * (n_max - 1)):
                    raise ArithmeticError(
                        f"module degree {cand.module_degree()} overflows the level-{level} cap"
                    )
                vec = coords(cand)
                if vec and space.add(vec):
                    fresh.append(cand)
        gamma.append(space.rank)
        frontier = fresh
    return gamma
