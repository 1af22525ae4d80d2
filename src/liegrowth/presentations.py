"""Relation suites for the wreath-product models, checked by evaluation.

Two relator families are provided. For the plain model the defining relations
say the torus is abelian and any two module towers commute:

    [t_i, t_j] = 0
    [[a_k, t_{i1}, ..., t_{ir}], [a_l, t_{j1}, ..., t_{js}]] = 0

with arbitrary (repeating) subscripts; instantiation is bounded by r + s. For
the extended model the finite presentation consists of

    [a_k, t_{j1}, ..., t_{js}, a_l] = 0   (1 <= j1 < j2 < ... < js <= n)
    [t_i, t_j] = [t_i, u_j] = [u_i, u_j] = 0
    [a_k, u_l] = [a_k, t_l, t_l]

A presentation has far more relators than towers (m^2 * sum n^(r+s) against
m * sum n^r in the plain model). Both presentations build each tower once,
from the tower one torus letter shorter, and relators share the tower objects.
So building a relator costs two slotted objects, a `Relator` and its root
`Bracket` (three for a square link, whose right-hand side is a bracket too),
and all but the square links are made by mapping `Bracket` and `Relator`
over the `product` of the towers and letters they pair.

Checking a relator costs one bracket per side: `check_presentation` takes a
side's children, leaves and towers alike, from one memo keyed by tree node,
the node memo of `expr`'s fold. A child not in the memo yet goes to
`evaluate`, whose fold records the value of every node it meets, leaf or
tower. Each shared leaf is thus looked up in the assignment, and each shared
tower walked and bracketed, once over the whole presentation. The common
relator, [x, y] = 0 with x and y already in the memo, is checked in the loop
itself: two memo reads and one bracket. Square links, bare sides and nodes
seen for the first time take the general path. A relator's label is formatted only if it fails, and the relators are
counted once, not one by one.

A presentation records its model: `wreath_presentation` builds one for W and
`wplus_presentation` one for Wplus, and `check_presentation` evaluates it
there, with the one wreath bracket both models share.

Checking never raises on a failed relation: failures come back as data
(witness strings) inside a report, and an empty failure list means the suite
passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, starmap

from .expr import Bracket, Generator, LieExpr, Memo, evaluate, format_expr
from .poly import check_int
from .wreath import MODE_W, MODE_WPLUS, RelationReport, WreathElement, standard_assignment, wreath_bracket


@dataclass(slots=True)
class Relator:
    """lhs = rhs as elements of the presented algebra; rhs None means 0.

    `label` names the relator in failure reports. It is the text format of
    the relation, ``format_expr(lhs)`` or ``"lhs = rhs"``, made when read: a
    presentation holds thousands of relators, and a label is wanted only for
    a relator that fails. Slotted, not frozen, like `Bracket`, and for the
    same reason; it is hashed by value, so it must never be mutated.
    """

    lhs: LieExpr
    rhs: LieExpr | None = None

    def __hash__(self) -> int:
        return hash((self.lhs, self.rhs))

    @property
    def label(self) -> str:
        text = format_expr(self.lhs)
        return text if self.rhs is None else f"{text} = {format_expr(self.rhs)}"


@dataclass
class Presentation:
    """Relators on a_1..a_m, t_1..t_n (and u_1..u_n in Wplus), checked in the model `mode`."""

    relators: tuple[Relator, ...]
    bounds: dict[str, int]
    mode: str
    m: int
    n: int


def _leaves(kind: str, count: int) -> list[Generator]:
    return [Generator(kind, i) for i in range(count)]


def wreath_presentation(m: int, n: int, pair_len_max: int = 6) -> Presentation:
    """Torus commutation plus commuting towers, with r + s <= pair_len_max."""
    check_int("m and n", 1, m, n)
    check_int("pair_len_max", 0, pair_len_max)
    a, t = _leaves("a", m), _leaves("t", n)
    relators = list(map(Relator, starmap(Bracket, product(t, t))))
    # towers[r][k]: every [a_k, t_i1, ..., t_ir], subscripts in lexicographic order
    towers = [[[ak] for ak in a]]
    for _ in range(pair_len_max):
        towers.append([[Bracket(tw, ti) for tw in tws for ti in t] for tws in towers[-1]])
    for total in range(pair_len_max + 1):
        for r in range(total + 1):
            for left_k in towers[r]:
                for right_l in towers[total - r]:
                    relators += map(Relator, starmap(Bracket, product(left_k, right_l)))
    return Presentation(tuple(relators), {"pair_len_max": pair_len_max}, MODE_W, m, n)


def wplus_presentation(m: int, n: int, s_max: int = 5) -> Presentation:
    """The finite presentation of the extended model.

    The separator family uses strictly increasing torus subscripts, so it is
    finite on its own; s_max only truncates it further when s_max < n.
    """
    check_int("m and n", 1, m, n)
    check_int("s_max", 0, s_max)
    a, t, u = _leaves("a", m), _leaves("t", n), _leaves("u", n)
    relators: list[Relator] = []
    # a_t[l][k] = [a_k, t_l]: the s = 1 towers, shared with the square links
    a_t = [[Bracket(ak, tl) for ak in a] for tl in t]
    # (js[-1], the tower [a_k, t_j1, ..., t_js] for each k) for j1 < ... < js,
    # in lexicographic order of js; the empty js has last subscript -1
    towers: list[tuple[int, list[LieExpr]]] = [(-1, a)]
    for s in range(min(s_max, n) + 1):
        if s == 1:
            towers = list(enumerate(a_t))
        elif s:
            towers = [(j, [Bracket(tw, t[j]) for tw in tws]) for j0, tws in towers for j in range(j0 + 1, n)]
        for _, tws in towers:
            relators += map(Relator, starmap(Bracket, product(tws, a)))
    for (ti, ui), (tj, uj) in product(zip(t, u), repeat=2):
        relators += map(Relator, starmap(Bracket, ((ti, tj), (ti, uj), (ui, uj))))
    for k, ak in enumerate(a):
        relators += (Relator(Bracket(ak, u[l]), Bracket(a_t[l][k], t[l])) for l in range(n))
    return Presentation(tuple(relators), {"s_max": s_max}, MODE_WPLUS, m, n)


def check_presentation(pres: Presentation) -> RelationReport:
    """Evaluate every relator in the presentation's model; nonzero values become witnesses.

    `ValueError` unless `pres` is a `Presentation` whose relators are a tuple
    or list of `Relator`s and whose bounds are a dict.
    """
    if type(pres) is not Presentation:
        raise ValueError(f"check_presentation takes a Presentation, not {type(pres).__name__}")
    # the types are tested once here, not per relator in the loop below
    if type(pres.relators) not in (tuple, list) or not set(map(type, pres.relators)) <= {Relator}:
        raise ValueError("a presentation's relators must be a tuple or list of Relators")
    if type(pres.bounds) is not dict:
        raise ValueError(f"a presentation's bounds must be a dict, not {type(pres.bounds).__name__}")
    assignment = standard_assignment(pres.m, pres.n, pres.mode)
    # relators share their leaf and tower nodes, so one memo over all of them
    # looks up each leaf, and walks and brackets each tower, once
    memo: Memo[WreathElement] = {}

    def child(node: LieExpr) -> WreathElement:
        # a leaf is looked up and a tower evaluated the first time it is seen,
        # by the fold, which records it; either is read from the memo after
        entry = memo.get(id(node))
        return evaluate(node, assignment, wreath_bracket, memo) if entry is None else entry[1]

    def side(node: LieExpr) -> WreathElement:
        # one bracket of the two children, unless the side is a tower already known
        if type(node) is Bracket and id(node) not in memo:
            return wreath_bracket(child(node.left), child(node.right))
        return child(node)

    report = RelationReport("presentation", pres.mode, pres.m, pres.n, dict(pres.bounds))
    get = memo.get
    for rel in pres.relators:
        lhs = rel.lhs
        # the common relator [x, y] = 0, x and y leaves or towers already in
        # the memo: one bracket, inline (a root that is itself a known tower
        # is bracketed again from its children, to the same value)
        if rel.rhs is None and type(lhs) is Bracket and (x := get(id(lhs.left))) and (y := get(id(lhs.right))):
            diff = wreath_bracket(x[1], y[1])
        else:
            diff = side(lhs) if rel.rhs is None else side(lhs) - side(rel.rhs)
        if diff.terms or diff.torus:  # diff.is_zero(), without the call
            report.failures.append(f"{rel.label} evaluated to {diff}")
    report.checked = len(pres.relators)
    return report


# ------------------------------------------------------------- bracket towers

_TOWER_HYPOTHESES = (
    ("[a,b]", lambda a, b, t, u: wreath_bracket(a, b)),
    ("[a,t,b]", lambda a, b, t, u: wreath_bracket(wreath_bracket(a, t), b)),
    ("[b,t,a]", lambda a, b, t, u: wreath_bracket(wreath_bracket(b, t), a)),
    ("[t,u]", lambda a, b, t, u: wreath_bracket(t, u)),
    ("[a,u]-[a,t,t]", lambda a, b, t, u: wreath_bracket(a, u) - wreath_bracket(wreath_bracket(a, t), t)),
    ("[b,u]-[b,t,t]", lambda a, b, t, u: wreath_bracket(b, u) - wreath_bracket(wreath_bracket(b, t), t)),
)


def tower_commutation_report(
    a: WreathElement,
    b: WreathElement,
    t: WreathElement,
    u: WreathElement,
    bound: int,
) -> RelationReport:
    """Check that all towers [[a,t^i],[b,t^j]] with i, j <= bound vanish in Wplus.

    Hypotheses are checked first; if any fails, the conclusion is not
    evaluated (the report carries the hypothesis witnesses instead). The
    hypotheses bracket with u, which only Wplus has. Unless a, b, t and u
    are `WreathElement`s of one model, `ValueError` is raised first.
    """
    check_int("bound", 0, bound)
    if not all(type(x) is WreathElement and x.m == a.m and x.n == a.n for x in (a, b, t, u)):
        raise ValueError("a, b, t and u must be elements of one model")
    report = RelationReport("towers", MODE_WPLUS, a.m, a.n, {"i_max": bound, "j_max": bound})
    for label, fn in _TOWER_HYPOTHESES:
        value = fn(a, b, t, u)
        report.check(None if value.is_zero() else f"hypothesis {label} evaluated to {value}")
    if report.failures:
        return report
    towers_a = [a]
    towers_b = [b]
    for _ in range(bound):
        towers_a.append(wreath_bracket(towers_a[-1], t))
        towers_b.append(wreath_bracket(towers_b[-1], t))
    for i, tower_a in enumerate(towers_a):
        for j, tower_b in enumerate(towers_b):
            value = wreath_bracket(tower_a, tower_b)
            if not value.is_zero():
                report.failures.append(f"[[a,t^{i}],[b,t^{j}]] evaluated to {value}")
    report.checked += (bound + 1) ** 2
    return report


def standard_tower_instances(d: int) -> list[tuple[str, WreathElement, WreathElement, WreathElement, WreathElement]]:
    """Base and one-step instantiations used by the verification suite.

    Base: a = a1, b = a2 (b = a1 when d = 1), t = t1, u = u1. Step: the same
    but with a and b replaced by [a1, t2] and [a2, t2] (needs d >= 2).
    """
    a1 = WreathElement.gen_a(0, d, d)
    t1 = WreathElement.gen_t(0, d, d)
    u1 = WreathElement.gen_u(0, d, d)
    if d == 1:
        return [("base", a1, a1, t1, u1)]
    a2 = WreathElement.gen_a(1, d, d)
    t2 = WreathElement.gen_t(1, d, d)
    return [("base", a1, a2, t1, u1), ("step", wreath_bracket(a1, t2), wreath_bracket(a2, t2), t1, u1)]
