from __future__ import annotations

import gc
import importlib.util
import json
from dataclasses import replace
from itertools import combinations, product
from pathlib import Path

import pytest

from _oracles import left_normed
from liegrowth import cli, presentations, wreath
from liegrowth.expr import Bracket, Generator, UnboundGeneratorError, format_expr, parse_expr
from liegrowth.presentations import (
    Relator,
    check_presentation,
    standard_tower_instances,
    tower_commutation_report,
    wplus_presentation,
    wreath_presentation,
)
from liegrowth.wreath import MODE_W, MODE_WPLUS, WreathElement, certify_embedding, model_laws_report


def test_wreath_presentation_all_relators_vanish():
    for d in (1, 2):
        pres = wreath_presentation(d, d, pair_len_max=5)
        rep = check_presentation(pres)
        assert (rep.mode, rep.m, rep.n) == (MODE_W, d, d)
        assert rep.passed, rep.failures[:3]
        assert rep.checked == len(pres.relators)


def test_wreath_relators_also_vanish_in_extended_model():
    pres = replace(wreath_presentation(2, 2, pair_len_max=4), mode=MODE_WPLUS)
    rep = check_presentation(pres)
    assert rep.passed, rep.failures[:3]


def test_wplus_presentation_all_relators_vanish():
    for d in (1, 2, 3):
        pres = wplus_presentation(d, d, s_max=5)
        rep = check_presentation(pres)
        assert (rep.mode, rep.m, rep.n) == (MODE_WPLUS, d, d)
        assert rep.passed, rep.failures[:3]


def test_wplus_separator_family_uses_strict_subscripts():
    pres = wplus_presentation(3, 3, s_max=5)
    labels = [r.label for r in pres.relators]
    assert "[a1,t1,t2,t3,a2]" in labels
    assert "[a1,t1,t1,a2]" not in labels
    # counts: separators 9 * (1 + 3 + 3 + 1), torus pairs 27, square links 9
    assert len(pres.relators) == 9 * 8 + 27 + 9


def test_presentation_failures_are_data_not_exceptions():
    # an artificial wrong relation: [a1,t1] = 0 is false in the model
    from liegrowth.presentations import Presentation, Relator

    bad = Presentation(
        relators=(Relator(parse_expr("[a1,t1]")),),
        bounds={},
        mode=MODE_W,
        m=2,
        n=2,
    )
    rep = check_presentation(bad)
    assert not rep.passed
    assert rep.failures == ["[a1,t1] evaluated to a1*t1"]


def test_tower_commutation_base_and_step():
    for d in (1, 2, 3):
        for name, a, b, t, u in standard_tower_instances(d):
            rep = tower_commutation_report(a, b, t, u, 6)
            assert rep.passed, (d, name, rep.failures[:2])


def test_tower_hypotheses_checked_before_conclusion():
    # a = t1 violates [a,u] = [a,t,t]; the report must carry hypothesis
    # witnesses and skip the tower conclusions
    d = 2
    a = WreathElement.gen_t(0, d, d)
    b = WreathElement.gen_a(1, d, d)
    t = WreathElement.gen_t(0, d, d)
    u = WreathElement.gen_u(0, d, d)
    rep = tower_commutation_report(a, b, t, u, 3)
    assert not rep.passed
    assert all("hypothesis" in f for f in rep.failures)
    assert rep.checked == 6  # only the hypothesis checks ran


def test_tower_report_counts():
    d = 2
    name, a, b, t, u = standard_tower_instances(d)[0]
    rep = tower_commutation_report(a, b, t, u, 10)
    assert rep.checked == 6 + 11 * 11
    assert rep.passed
    assert rep.bounds == {"i_max": 10, "j_max": 10}


def test_report_dict_schema():
    pres = wplus_presentation(2, 2, s_max=3)
    rep = check_presentation(pres)
    d = rep.to_dict()
    assert set(d) == {"suite", "mode", "d", "m", "n", "bounds", "checked", "failures"}
    assert d["failures"] == []


def test_relator_labels_are_formatted_only_when_read(monkeypatch):
    from liegrowth import presentations
    from liegrowth.expr import format_expr

    calls = []

    def counting(e):
        calls.append(e)
        return format_expr(e)

    monkeypatch.setattr(presentations, "format_expr", counting)
    wplus = wplus_presentation(2, 2, s_max=2)
    plain = wreath_presentation(2, 2, pair_len_max=2)
    assert check_presentation(wplus).passed
    assert check_presentation(plain).passed
    assert calls == []
    # read, a label is the text format of the relation, as when it was built eagerly
    for rel in wplus.relators + plain.relators:
        if rel.rhs is None:
            assert rel.label == format_expr(rel.lhs)
        else:
            assert rel.label == f"{format_expr(rel.lhs)} = {format_expr(rel.rhs)}"
    assert "[a1,u2] = [a1,t2,t2]" in [r.label for r in wplus.relators]
    assert "[a1,[a2,t1]]" in [r.label for r in plain.relators]


def test_failure_strings_of_built_relators(monkeypatch):
    from liegrowth import presentations

    pres = wplus_presentation(1, 2, s_max=0)
    real = presentations.wreath_bracket

    def torus_not_abelian(p, q):
        out = real(p, q)
        return out + WreathElement.gen_a(0, p.m, p.n) if not (p.terms or q.terms) else out

    monkeypatch.setattr(presentations, "wreath_bracket", torus_not_abelian)
    pairs = [("t", "t"), ("t", "u"), ("u", "u")]
    expected = [
        f"[{x}{i},{y}{j}] evaluated to a1" for i in (1, 2) for j in (1, 2) for x, y in pairs
    ]
    assert check_presentation(pres).failures == expected

    def u1_doubles(p, q):
        out = real(p, q)
        return out * 2 if (-2, 0) in q.decoded()[1] else out

    monkeypatch.setattr(presentations, "wreath_bracket", u1_doubles)
    assert check_presentation(pres).failures == [
        "[a1,u1] = [a1,t1,t1] evaluated to a1*t1^2"
    ]


def _left_normed_relators(m, n, bound, plus):
    """The relators as they were once made: each from its own left_normed towers."""
    a = [Generator("a", k) for k in range(m)]
    t = [Generator("t", i) for i in range(n)]
    u = [Generator("u", i) for i in range(n)]
    out = []
    if not plus:
        out += [Relator(Bracket(ti, tj)) for ti in t for tj in t]
        for total in range(bound + 1):
            for r in range(total + 1):
                for k, l in product(range(m), repeat=2):
                    for isub in product(t, repeat=r):
                        for jsub in product(t, repeat=total - r):
                            lhs = Bracket(left_normed([a[k], *isub]), left_normed([a[l], *jsub]))
                            out.append(Relator(lhs))
        return out
    for s in range(min(bound, n) + 1):
        for js in combinations(t, s):
            for k, l in product(range(m), repeat=2):
                out.append(Relator(left_normed([a[k], *js, a[l]])))
    for i, j in product(range(n), repeat=2):
        for x, y in ((t, t), (t, u), (u, u)):
            out.append(Relator(Bracket(x[i], y[j])))
    for k, l in product(range(m), range(n)):
        out.append(Relator(Bracket(a[k], u[l]), left_normed([a[k], t[l], t[l]])))
    return out


def test_shared_towers_match_left_normed_relators():
    for m, n in product((1, 2, 3), repeat=2):
        for bound in range(5):
            for build, plus in ((wreath_presentation, False), (wplus_presentation, True)):
                labels = [r.label for r in build(m, n, bound).relators]
                assert labels == [r.label for r in _left_normed_relators(m, n, bound, plus)], (m, n, bound)


@pytest.mark.parametrize(
    "mode, d, bound, brackets, towers",
    [
        # one bracket per relator, plus one per tower [a_k, t_i1, ..., t_ir]
        # with r >= 1: 520 + 2 * (2 + 4 + 8 + 16) and 4932 + 3 * (3 + 9 + 27 + 81);
        # the last figure counts those towers; the ids are the figures before it
        pytest.param(MODE_W, 2, 4, 580, 60, id="W-2-4-580"),
        pytest.param(MODE_W, 3, 4, 5292, 360, id="W-3-4-5292"),
        # the separator towers have strict subscripts, and the right-hand side
        # [a_k,t_l,t_l] of a square link reuses the tower node [a_k,t_l], so it
        # adds one bracket: 900 + 5 * (2^5 - 1) + 5 * 5 and 2448 + 6 * (2^6 - 1) + 6 * 6
        pytest.param(MODE_WPLUS, 5, 5, 1080, 155, id="Wplus-5-5-1080"),
        pytest.param(MODE_WPLUS, 6, 6, 2862, 378, id="Wplus-6-6-2862"),
    ],
)
def test_check_presentation_makes_each_bracket_once(monkeypatch, mode, d, bound, brackets, towers):
    real_bracket, real_evaluate = presentations.wreath_bracket, presentations.evaluate
    calls, evaluated = [], []

    def counting(p, q):
        calls.append((p, q))
        return real_bracket(p, q)

    def counting_evaluate(e, *args):
        evaluated.append(e)
        return real_evaluate(e, *args)

    monkeypatch.setattr(presentations, "wreath_bracket", counting)
    monkeypatch.setattr(presentations, "evaluate", counting_evaluate)
    build = wreath_presentation if mode == MODE_W else wplus_presentation
    pres = build(d, d, bound)
    rep = check_presentation(pres)
    assert rep.passed and rep.checked == len(pres.relators)
    assert len(calls) == brackets
    # presentations.evaluate is called once per distinct tower [a_k, t_i1, ..., t_ir]
    # with r >= 1, and once per leaf that a side meets as a child before any
    # tower holds it: the d leaves a_k and the d leaves t_i (W) or u_i (Wplus),
    # so 64, 366, 165 and 390 calls; never on a relator side
    sides = {id(side) for rel in pres.relators for side in (rel.lhs, rel.rhs)}
    assert len(evaluated) == towers + 2 * d
    leaves = [e for e in evaluated if type(e) is Generator]
    assert sorted(g.kind for g in leaves) == ["a"] * d + ["t" if mode == MODE_W else "u"] * d
    assert len(set(map(id, leaves))) == len(set(leaves)) == 2 * d
    trees = [e for e in evaluated if type(e) is not Generator]
    assert len(set(map(format_expr, trees))) == towers
    assert not any(id(e) in sides for e in evaluated)
    for e in trees:
        assert type(e) is Bracket
        word = [e]
        while type(word[0]) is Bracket:
            word[:1] = [word[0].left, word[0].right]
        assert [g.kind for g in word] == ["a"] + ["t"] * (len(word) - 1), format_expr(e)


def _pres(*relators):
    """The relators as a presentation of W with m = n = 2."""
    return presentations.Presentation(relators=relators, bounds={}, mode=MODE_W, m=2, n=2)


A1, A2, T1, U1 = (Generator(k, i) for k, i in (("a", 0), ("a", 1), ("t", 0), ("u", 0)))


@pytest.mark.parametrize(
    "relator",
    [
        Relator(Bracket(A1, U1)),  # a bracket child
        Relator(U1),  # a bare side
        Relator(Bracket(A1, T1), U1),  # a bare right-hand side
        Relator(Bracket(Bracket(Bracket(A1, U1), T1), A2)),  # inside a tower child
    ],
)
def test_check_presentation_rejects_a_generator_outside_the_model(relator):
    # u1 is a generator of Wplus, not of W
    with pytest.raises(UnboundGeneratorError, match="^unbound generator: u1$"):
        check_presentation(_pres(relator))


@pytest.mark.parametrize(
    "relator",
    [
        Relator(Bracket(A1, "a1")),  # a child
        Relator(Bracket(Bracket(A1, 3), A2)),  # inside a tower child
        Relator(("a", 0)),  # a root
        Relator(Bracket(A1, T1), "t1"),  # a right-hand side
    ],
)
def test_check_presentation_rejects_a_node_that_is_not_an_expression(relator):
    with pytest.raises(ValueError, match="^expression node must be a Generator or a Bracket, not ") as err:
        check_presentation(_pres(relator))
    assert err.type is ValueError


def test_check_presentation_takes_a_deep_side():
    # [a1, t1, ..., t1, a2] with 3,000 letters holds; [a1, t1, ..., t1] fails
    # and its label and value are written without recursion
    deep = left_normed([A1] + [T1] * 2998)
    rep = check_presentation(_pres(Relator(Bracket(deep, A2)), Relator(Bracket(deep, T1))))
    assert rep.checked == 2
    assert rep.failures == [f"{format_expr(Bracket(deep, T1))} evaluated to a1*t1^2999"]


def test_check_presentation_leaves_no_reference_cycle():
    # a cycle (such as a helper closure that refers to itself) would keep the
    # memo of every tower and relator value alive until the cycle collector runs
    pres = wreath_presentation(2, 2, 3)
    gc.collect()
    gc.disable()
    try:
        assert check_presentation(pres).passed
        assert gc.collect() == 0
    finally:
        gc.enable()


def _record_lookups(monkeypatch) -> list:
    """Make `check_presentation`'s assignment record each generator it is asked for, in order."""
    real_assignment = presentations.standard_assignment
    looked_up = []

    class CountingAssignment(dict):
        def __getitem__(self, gen):
            looked_up.append(gen)
            return super().__getitem__(gen)

    monkeypatch.setattr(presentations, "standard_assignment", lambda *a: CountingAssignment(real_assignment(*a)))
    return looked_up


def test_shared_bracket_node_is_walked_and_bracketed_once(monkeypatch):
    real = presentations.wreath_bracket
    calls = []

    def counting(p, q):
        calls.append((str(p), str(q)))
        return real(p, q)

    monkeypatch.setattr(presentations, "wreath_bracket", counting)
    looked_up = _record_lookups(monkeypatch)
    a1, a2, t1, t2 = (Generator(k, i) for k, i in (("a", 0), ("a", 1), ("t", 0), ("t", 1)))
    tower = Bracket(Bracket(a1, t1), t2)
    pres = presentations.Presentation(
        relators=(
            Relator(Bracket(tower, a2)),
            Relator(Bracket(a2, tower)),
            Relator(Bracket(tower, tower)),
            Relator(tower, Bracket(Bracket(a1, t2), t1)),
        ),
        bounds={},
        mode=MODE_W,
        m=2,
        n=2,
    )
    rep = check_presentation(pres)
    assert rep.passed and rep.checked == 4
    # [a1,t1] and [a1,t1,t2] once each, one bracket per relator root but the
    # fourth, whose left-hand side is the tower, and [a1,t2], [a1,t2,t1] for
    # its right-hand side
    assert calls.count(("a1", "t1")) == 1
    assert calls.count(("a1*t1", "t2")) == 1
    assert len(calls) == 2 + 3 + 2
    # the tower's leaves are read on its first walk, then a2; the memo holds
    # every leaf after its first lookup, so the right-hand side's tower
    # [a1,t2] and its root's leaf child t1 read none
    assert looked_up == [a1, t1, t2, a2]


@pytest.mark.parametrize(
    "build, m, n, bound, leaves", [(wreath_presentation, 2, 2, 3, 4), (wplus_presentation, 3, 3, 3, 9)]
)
def test_check_presentation_looks_up_each_leaf_once(monkeypatch, build, m, n, bound, leaves):
    looked_up = _record_lookups(monkeypatch)
    pres = build(m, n, bound)
    assert check_presentation(pres).passed
    # every leaf object of the presentation, once each
    objects, stack = {}, [side for rel in pres.relators for side in (rel.lhs, rel.rhs) if side is not None]
    while stack:
        node = stack.pop()
        if type(node) is Bracket:
            stack += (node.left, node.right)
        else:
            objects[id(node)] = node
    assert len(objects) == leaves
    assert sorted(map(id, looked_up)) == sorted(objects)


def test_deep_relators_are_checked_without_recursion():
    depth = 5000
    a1, t1 = Generator("a", 0), Generator("t", 0)
    left = right = a1
    for _ in range(depth):
        left, right = Bracket(left, t1), Bracket(t1, right)
    pres = presentations.Presentation(
        relators=(Relator(left), Relator(right)), bounds={}, mode=MODE_W, m=1, n=1
    )
    rep = check_presentation(pres)
    # [t,[t,..,[t,a]]] = (-1)^depth [a,t,..,t], and depth is even
    assert rep.failures == [
        "[a1" + ",t1" * depth + "] evaluated to a1*t1^5000",
        "[t1," * depth + "a1" + "]" * depth + " evaluated to a1*t1^5000",
    ]


def test_presentations_reject_negative_bounds():
    with pytest.raises(ValueError, match=r"^pair_len_max must be >= 0$"):
        wreath_presentation(2, 2, -1)
    with pytest.raises(ValueError, match=r"^s_max must be >= 0$"):
        wplus_presentation(2, 2, -3)
    _, a, b, t, u = standard_tower_instances(2)[0]
    with pytest.raises(ValueError, match=r"^bound must be >= 0$"):
        tower_commutation_report(a, b, t, u, -1)


def test_passing_suites_format_nothing(monkeypatch):
    # every check site writes `None if ok else f"..."`, so a passing suite
    # builds no witness text: each formatter it could reach raises here
    def refuse(*args):
        raise AssertionError("a passing check formatted its witness")

    monkeypatch.setattr(WreathElement, "__str__", refuse)
    monkeypatch.setattr(Relator, "label", property(refuse))
    monkeypatch.setattr(presentations, "format_expr", refuse)
    monkeypatch.setattr(wreath, "format_expr", refuse)
    reports = [
        check_presentation(wreath_presentation(2, 2, 3)),
        check_presentation(wplus_presentation(2, 2, 2)),
        *(tower_commutation_report(a, b, t, u, 3) for _, a, b, t, u in standard_tower_instances(2)),
        certify_embedding(2, 4, trials=5),
        model_laws_report(2, MODE_W, trials=5, span_degree=2),
        model_laws_report(2, MODE_WPLUS, trials=5, span_degree=2),
    ]
    assert all(rep.passed and rep.checked for rep in reports)


@pytest.mark.parametrize("where", [0, 7, -1])
def test_one_nonzero_relator_among_zero_ones_is_the_one_failure(where):
    # [a1,t1] on the presentation's own leaves: in the middle or at the end it
    # finds both in the memo and is checked inline, and it must still be
    # counted and reported with its label
    relators = list(wreath_presentation(2, 2, 2).relators)
    t1, a1 = relators[0].lhs.left, relators[4].lhs.left  # [t1,t1] and [a1,a1]
    relators.insert(where % (len(relators) + 1), Relator(Bracket(a1, t1)))
    rep = check_presentation(_pres(*relators))
    assert rep.checked == len(relators)
    assert rep.failures == ["[a1,t1] evaluated to a1*t1"]


def test_a_tower_pair_that_does_not_vanish_is_reported(monkeypatch):
    # a bracket that adds a1 to [[a,t^2],[b,t^3]] alone: the hypotheses hold,
    # and the one pair that fails is named among the 4 * 4 counted in bulk
    real = presentations.wreath_bracket

    def broken(p, q):
        out = real(p, q)
        if p.terms and q.terms and (p.module_degree(), q.module_degree()) == (2, 3):
            out = out + WreathElement.gen_a(0, p.m, p.n)
        return out

    monkeypatch.setattr(presentations, "wreath_bracket", broken)
    _, a, b, t, u = standard_tower_instances(2)[0]
    rep = tower_commutation_report(a, b, t, u, 3)
    assert rep.checked == 6 + 4 * 4
    assert rep.failures == ["[[a,t^2],[b,t^3]] evaluated to a1"]


def test_check_presentation_looks_up_the_bracket_when_called(monkeypatch):
    # the benchmark's tracer replaces presentations.wreath_bracket by name after
    # import; the inline common relator must call the replacement too, so that
    # the traced bracket counts repeat
    pres = wreath_presentation(2, 2, 4)
    real = presentations.wreath_bracket
    calls = []

    def counting(p, q):
        calls.append(1)
        return real(p, q)

    monkeypatch.setattr(presentations, "wreath_bracket", counting)
    assert check_presentation(pres).passed
    assert len(calls) == 580  # test_check_presentation_makes_each_bracket_once
    # a bracket that adds a1 to every value leaves no relator at 0
    monkeypatch.setattr(presentations, "wreath_bracket", lambda p, q: real(p, q) + WreathElement.gen_a(0, 2, 2))
    rep = check_presentation(pres)
    assert rep.checked == len(rep.failures) == len(pres.relators)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


@pytest.mark.parametrize(
    "suite, d, opts",
    [
        *(("presentation", d, {"mode": MODE_W, "bound_s": b}) for d in (1, 2, 3) for b in (0, 1, 3)),
        *(("presentation", d, {"mode": MODE_WPLUS, "bound_s": b}) for d in (1, 2, 4) for b in (0, 2, 5)),
        *(("towers", d, {"bound_s": b}) for d in (1, 2, 3) for b in (0, 4)),
        ("embedding", 2, {"max_n": 4}),
        ("embedding", 3, {"max_n": 3}),
        *(("model-laws", d, {"mode": mode, "trials": 3}) for d in (1, 2) for mode in (MODE_W, MODE_WPLUS)),
    ],
)
def test_each_suite_checks_as_many_as_the_benchmark_counts(tmp_path, suite, d, opts):
    # perfbench/checks.py works the counts out combinatorially, apart from the
    # program; bulk counting must give the same `checked`
    argv = ["verify", "--suite", suite, "--d", str(d), "--out", str(tmp_path / "out.json")]
    for key, value in opts.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    assert cli.main(argv) == 0
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["checked"] == _perfbench_checks().expected_checked({"suite": suite, "d": d, **opts})
