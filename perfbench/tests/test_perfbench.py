"""Tests of the benchmark itself: tiny runs pass, checkers reject corruption.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import hostspeed
import run
import workloads
from tracer import TARGETS, Tracer, _owner

@pytest.fixture(scope="module")
def program():
    return run.Program()


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def first_output(wl, program, predicate):
    """Run tiny jobs until one matches predicate(job, output); return both.

    Seeds after the first are tried in turn: most tiny normal-form inputs
    normalize to 0 or to one term, and the seed decides which do not.
    """
    for seed in (7, 1, 2, 3):
        jobs, _ = wl.build(seed=seed, tiny=True)
        for job in jobs:
            _, ok, result = wl.run(program, job)
            assert ok
            out = wl.collect(job, result)
            if predicate(job, out):
                assert wl.check(job, out) == []
                return job, out
    raise AssertionError("no tiny job matches")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_passes_its_checks(name):
    result = run.measure(name, seed=5, seconds=0, trace=False, tiny=True)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_times_are_scaled_by_the_kernel_samples_around_them():
    nominal = hostspeed.NOMINAL_S
    host = hostspeed.HostSpeed()
    # the host runs at nominal speed until t = 10, then twice as slow
    host.times = [0.0, 2.0, 4.0, 6.0, 8.0, 12.0, 14.0]
    host.samples = [nominal] * 5 + [2 * nominal] * 2
    assert host.at_nominal(1.5, 4.2) == pytest.approx(1.5)
    assert host.at_nominal(1.5, 12.2) == pytest.approx(0.75)
    # a span across the change takes the mean of the samples on either side
    assert host.at_nominal(3.0, 8.5) == pytest.approx(3.0 / 1.5)
    result = run.measure("normal-form", seed=5, seconds=0, trace=False, tiny=True)
    # one sample before and after each set-up, and around the pass
    assert result["kernel_samples"] >= 2 * run.SETUP_ROUNDS + 2


def test_normal_form_seed_only_relabels_letters_and_orders_jobs():
    def skeleton(tree):
        return None if isinstance(tree, int) else (skeleton(tree[0]), skeleton(tree[1]))

    def make_up(seed):
        jobs, _ = workloads.NormalForm("").build(seed)
        return sorted(repr((skeleton(j["tree"]), j["d"], j["vanishes"], j["largest"])) for j in jobs)

    assert make_up(1) == make_up(2)
    largest = [j["tree"] for seed in (1, 2) for j in workloads.NormalForm("").build(seed)[0] if j["largest"]]
    assert largest[0] == largest[1]


def test_traced_run_reports_every_layer_metric_and_unpatches():
    result = run.measure("relation-suites", seed=5, seconds=0, trace=True, tiny=True)
    assert result["correct"], result["problems"]
    spec = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["presentations.relators"]["value"] > 0
    # the checkers ran after the wrappers came out again
    assert not any(hasattr(_owner(owner).__dict__[attr], "__wrapped__") for owner, attr, _, _ in TARGETS)
    os.remove(os.path.join(run.ROOT, result["span_file"]))


def test_recursive_calls_count_once_and_self_time_excludes_children():
    tracer = Tracer()
    fns = {}

    def leaf():
        return 1

    def outer(depth):
        return fns["leaf"]() + (fns["outer"](depth - 1) if depth else 0)

    fns["leaf"] = tracer.wrap(leaf, "leaf", None)
    fns["outer"] = tracer.wrap(outer, "outer", None)
    assert fns["outer"](3) == 4
    assert tracer.calls["outer"] == 1 and tracer.calls["leaf"] == 4
    assert tracer.self_time["outer"] == pytest.approx(tracer.total["outer"] - tracer.total["leaf"])
    parents = list(tracer.span_parent)
    assert parents[0] == -1 and parents[1:] == [0, 0, 0, 0]


def test_exponent_fit_checker_rejects_wrong_coefficient(program, workdir):
    wl = workloads.ExponentFit(workdir)
    job, out = first_output(wl, program, lambda j, _: j["source"] == "metabelian")
    out["b_mod"][10] = (out["b_mod"][10] + 1) % checks.PRIME
    assert any("b_n differs" in p for p in wl.check(job, out))


def test_exponent_fit_checker_rejects_wrong_exponent(program, workdir):
    wl = workloads.ExponentFit(workdir)
    job, out = first_output(wl, program, lambda j, _: j["source"] == "Wplus")
    out["report"]["final"] += 0.2
    assert wl.check(job, out)


def test_growth_checker_rejects_wrong_gamma(program, workdir):
    wl = workloads.FiltrationGrowth(workdir)
    job, out = first_output(wl, program, lambda j, _: j["mode"] == "W")
    out[-1]["gamma"] += 1
    assert any("independent count" in p for p in wl.check(job, out))


def test_relation_checker_rejects_nonzero_relator(program, workdir):
    wl = workloads.RelationSuites(workdir)
    job, out = first_output(wl, program, lambda j, _: j["suite"] == "presentation")
    out["failures"].append("[a1,t1,a2] evaluated to a1*t1")
    assert any("failure reported" in p for p in wl.check(job, out))


def test_relation_checker_rejects_wrong_count_and_rank(program, workdir):
    wl = workloads.RelationSuites(workdir)
    job, out = first_output(wl, program, lambda j, _: j["suite"] == "embedding")
    out["ranks"][-1]["rank"] -= 1
    out["checked"] -= 1
    problems = wl.check(job, out)
    assert any("checked" in p for p in problems) and any("ranks" in p for p in problems)


def test_normal_form_checker_rejects_wrong_normal_form(program, workdir):
    wl = workloads.NormalForm(workdir)
    job, out = first_output(wl, program, lambda j, out: len(out) > 1)
    word = next(iter(out))
    out[word] += 1
    assert any("Magnus image" in p for p in wl.check(job, out))


def test_normal_form_checker_rejects_nonvanishing_and_non_basis(workdir):
    wl = workloads.NormalForm(workdir)
    jobs, _ = wl.build(seed=7, tiny=True)
    square = next(j for j in jobs if j["vanishes"])
    assert wl.check(square, {(1, 0): Fraction(1)})
    free = next(j for j in jobs if not j["vanishes"])
    assert any("basis" in p for p in wl.check(free, {(0, 1): Fraction(1)}))


def test_magnus_closed_form_matches_direct_evaluation():
    model = checks.WModel(3)
    word = (2, 0, 1, 1)
    tree = (((2, 0), 1), 1)
    assert model.combine({word: Fraction(1)}) == model.evaluate(tree)


def test_reference_counts_agree_with_each_other():
    for d in (1, 2, 3):
        assert checks.brute_wplus_gamma(d, 6) == checks.cumulative(checks.wplus_graded(d, 6))
    assert checks.brute_w_gamma(2, 5) == [0, 4, 8, 14, 22, 32]
    a = checks.wplus_graded(2, 40)
    direct = [1] + [0] * 40
    for k in range(1, 41):  # multiply by 1/(1-t^k), a_k times
        for _ in range(a[k]):
            for n in range(k, 41):
                direct[n] += direct[n - k]
    assert checks.euler_product_mod(a) == [v % checks.PRIME for v in direct]


def test_without_program_sources_exits_nonzero_without_result():
    bare = os.path.join(run.RESULTS, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "normal-form", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
