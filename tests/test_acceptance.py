"""Acceptance suite.

One test per criterion; each prints a single `criterion N: PASS (...)` line
when it succeeds (visible with `pytest -s` or in the -v test listing). The
tests of criteria 3, 4 and 7 stand for claims of the paper, as README's
Claims table says, and the next test checks that table. The last test caps
the time of the text format on long expression chains.
Tolerances and runtime caps are pinned here and nowhere else.
"""

from __future__ import annotations

import ast
import json
import math
import random
import re
import time
from dataclasses import replace
from functools import reduce
from pathlib import Path

from _oracles import euler_product_direct, graded_dim_closed, partition_counts
from liegrowth import metabelian
from liegrowth.cli import main
from liegrowth.expr import Bracket, Generator, evaluate, format_expr, random_expr
from liegrowth.growth import (
    MODE_WPLUS,
    growth_bfs,
    wplus_graded_dims,
    wplus_growth_bound,
)
from liegrowth.metabelian import MetabelianElement, normalize_expr
from liegrowth.presentations import (
    check_presentation,
    standard_tower_instances,
    tower_commutation_report,
    wplus_presentation,
    wreath_presentation,
)
from liegrowth.series import euler_transform, fit_stretched_exponent
from liegrowth.wreath import (
    certify_embedding,
    magnus_embedding,
    magnus_generator_images,
    wreath_bracket,
)

ROOT = Path(__file__).resolve().parent.parent


def _passed(num: int, label: str) -> None:
    print(f"criterion {num}: PASS ({label})", flush=True)


def test_criterion_1_basis_dimension_agreement():
    start = time.perf_counter()
    for d in range(1, 7):
        for n in range(1, 15):
            enumerated = len(metabelian.basis_monomials(d, n))
            by_sum = metabelian.graded_dim(d, n)
            by_closed = graded_dim_closed(d, n)
            assert enumerated == by_sum == by_closed, (d, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(1, f"enumeration = sum formula = closed form for d <= 6, n <= 14, {elapsed:.2f}s")


def test_criterion_2_normal_form_soundness():
    rng = random.Random(0)
    checked = 0
    for _ in range(1000):
        d = rng.randint(1, 3)
        gens = [Generator("x", i) for i in range(d)]
        e = random_expr(rng, gens, rng.randint(1, 6))
        images = magnus_generator_images(d)
        direct = evaluate(e, images, wreath_bracket)
        embedded = magnus_embedding(normalize_expr(e, d))
        assert direct == embedded, e
        checked += 1

    identity_checks = 0
    for d in (1, 2, 3):
        rng_id = random.Random(100 + d)
        gens = [Generator("x", i) for i in range(d)]
        zero = MetabelianElement.zero(d)
        for _ in range(100):
            p, q, r, s = (
                random_expr(rng_id, gens, rng_id.randint(1, 3)) for _ in range(4)
            )
            nf = lambda e: normalize_expr(e, d)
            assert nf(Bracket(p, p)) == zero
            assert nf(Bracket(p, q)) + nf(Bracket(q, p)) == zero
            jacobi = (
                nf(Bracket(Bracket(p, q), r))
                - nf(Bracket(Bracket(p, r), q))
                - nf(Bracket(p, Bracket(q, r)))
            )
            assert jacobi == zero
            assert nf(Bracket(Bracket(p, q), Bracket(r, s))) == zero
            identity_checks += 4
    _passed(2, f"{checked} embedding agreements, {identity_checks} identity zeroes")


def test_criterion_3_presentation_suites():
    """Claim: the relators of the Wplus presentation hold in Wplus.

    Stand-in: for d <= 3, the Wplus relators to s_max = 5 and the pair
    relators to length 6 vanish in Wplus, and the tower commutations hold for
    i, j <= 10 in the base and step instances. That they suffice is open.
    """
    start = time.perf_counter()
    relators = 0
    for d in (1, 2, 3):
        finite = check_presentation(wplus_presentation(d, d, s_max=5))
        assert finite.failures == [], finite.failures
        pairs = check_presentation(replace(wreath_presentation(d, d, pair_len_max=6), mode=MODE_WPLUS))
        assert pairs.failures == [], pairs.failures
        relators += finite.checked + pairs.checked
        for name, a, b, t, u in standard_tower_instances(d):
            towers = tower_commutation_report(a, b, t, u, 10)
            assert towers.passed, (d, name, towers.failures)
            relators += towers.checked
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(3, f"{relators} relators vanish for d <= 3, towers to i,j <= 10, {elapsed:.2f}s")


def test_criterion_4_embedding_certification():
    """Claim: the free metabelian algebra embeds in W (x_i -> a_i + t_i).

    Every degree follows from the closed form of the basis images and their
    private keys (`certify_embedding`'s docstring). Stand-in: for d <= 3 and
    each degree n <= 8, every image has its closed form, and the images with
    a private key number the graded dimension.
    """
    for d in (1, 2, 3):
        rep = certify_embedding(d, 8, seed=0)
        assert rep.passed, rep.failures
        assert [n for n, _, _ in rep.ranks] == list(range(1, 9))
        for n, rank, expected in rep.ranks:
            assert rank == expected == metabelian.graded_dim(d, n), (d, n)
    _passed(4, "embedded rank equals graded dimension for d <= 3, n <= 8")


def test_criterion_5_growth_sandwich():
    for d in (1, 2, 3):
        gamma_m = metabelian.growth(d, 8)
        rep = growth_bfs(MODE_WPLUS, d, 8)
        for n in range(1, 9):
            assert gamma_m[n] <= rep.gamma[n] <= wplus_growth_bound(d, n), (d, n)
    assert growth_bfs(MODE_WPLUS, 1, 8).gamma == [0] + [2 * n + 1 for n in range(1, 9)]
    _passed(5, "metabelian growth <= BFS growth <= letter bound, d <= 3, n <= 8")


def test_criterion_6_euler_transform_oracles():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 100)
        a = [0] + [rng.randint(0, 5) for _ in range(n)]
        assert euler_transform(a) == euler_product_direct(a)
    start = time.perf_counter()
    b = euler_transform([0] + [1] * 200)
    elapsed = time.perf_counter() - start
    assert b == partition_counts(200)
    assert elapsed < 5.0
    _passed(6, f"200 random product agreements, partitions to n = 200, {elapsed:.2f}s")


def test_criterion_7_exponent_reproduction():
    """Claim: U(Wplus) has growth of type e^(n^(d/(d+1))).

    Stand-in: the stretched-exponent fit of the exact b_n at n = 256..2048
    lands within 0.10 of d/(d+1) for d <= 3, and recovers the synthetic
    exponents 2/3 and 3/4 within 0.02. From d = 2 on, a window of 0.10 also
    holds the next type, (d+1)/(d+2), so this does not tell the types apart.
    """
    start = time.perf_counter()
    points = [256, 512, 1024, 2048]
    finals = []
    for d in (1, 2, 3):
        a = wplus_graded_dims(d, 4096)
        fit = fit_stretched_exponent(euler_transform(a), points)
        target = d / (d + 1)
        assert abs(fit.final - target) <= 0.10, (d, fit.final)
        assert fit.classification == "intermediate"
        finals.append(f"d={d}: {fit.final:.3f}")

    for alpha in (2 / 3, 3 / 4):
        b = [1, 2] + [
            1 << round(n ** alpha / math.log(2)) for n in range(2, 2049)
        ]
        fit = fit_stretched_exponent(b, [256, 512, 1024])
        assert abs(fit.final - alpha) <= 0.02, (alpha, fit.final)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _passed(7, f"{'; '.join(finals)} vs d/(d+1) within 0.10, synthetic within 0.02, {elapsed:.1f}s")


def test_criterion_8_deterministic_outputs(tmp_path):
    configs = [
        ["dims", "--d", "3", "--max-n", "10"],
        ["growth", "--d", "2", "--max-n", "6", "--format", "json"],
        ["euler-fit", "--d", "1", "--fit-n", "64", "--tolerance", "0.15"],
        ["verify", "--suite", "model-laws", "--d", "2", "--trials", "25", "--seed", "7"],
    ]
    for idx, argv in enumerate(configs):
        runs = []
        for attempt in range(2):
            out = tmp_path / f"c{idx}r{attempt}"
            code = main(argv + ["--out", str(out)])
            assert code == 0, argv
            runs.append(out.read_bytes())
        assert runs[0] == runs[1], argv
        if argv[0] in ("euler-fit", "verify"):
            json.loads(runs[0])
    _passed(8, "repeated runs byte-identical across all four subcommands")


def _section(text: str, heading: str) -> list[str]:
    """The lines of README's section `## heading`, up to the next `## ` heading."""
    lines = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0].splitlines()
    return [line.strip() for line in lines]


def test_claims_ledger_names_real_tests_and_cli_commands():
    readme = (ROOT / "README.md").read_text()
    # as CI's CLI-examples step reads them: each `liegrowth ...` line, less its comment
    commands = {re.sub(r" *#.*", "", line) for line in _section(readme, "CLI") if line.startswith("liegrowth ")}
    rows = [line.strip("|").split("|") for line in _section(readme, "Claims") if line.startswith("|")][2:]
    assert len(rows) >= 7
    for claim, test, command, reach in rows:
        tests, shown = re.findall(r"`([^`]+)`", test), re.findall(r"`([^`]+)`", command)
        if not tests:
            assert not shown and re.fullmatch(r" open: ROADMAP items? \d+((, \d+)* and \d+)? ", reach), claim
            continue
        assert len(tests) == len(shown) == 1, claim
        path, name = tests[0].split("::")
        defined = {node.name for node in ast.parse((ROOT / path).read_text()).body if isinstance(node, ast.FunctionDef)}
        assert name in defined, claim
        assert shown[0] in commands, claim


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def _right_nested(letters):
    tree = letters[-1]
    for g in reversed(letters[:-1]):
        tree = Bracket(g, tree)
    return tree


def test_long_chains_format_hash_and_compare_in_linear_time():
    # 160,000 letters: a fold that copies the text so far at each bracket
    # (tests/_oracles.format_expr_by_strings) takes about 5 s on the left-normed chain
    letters = [Generator("x", i % 3) for i in range(160_000)]
    for build, length in ((lambda: reduce(Bracket, letters), 480_001), (lambda: _right_nested(letters), 799_997)):
        e, f = build(), build()
        text, formatting = _timed(format_expr, e)
        assert len(text) == length
        _, hashing = _timed(hash, e)
        equal, comparing = _timed(e.__eq__, f)
        assert equal
        assert max(formatting, hashing, comparing) < 2.0, (length, formatting, hashing, comparing)
