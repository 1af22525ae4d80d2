"""The four workloads: seeded job lists, how a job runs, how its output is read.

A job is a dict. Jobs with "argv" run through ``liegrowth.cli.main`` in
process, writing their output files into the work directory; normal-form
jobs carry "text" and run ``parse_expr`` then ``normalize_expr``. Exactly one
job per list has "largest" set. Only the order of a job list, and the inputs
the seed draws, depend on the seed; the sizes do not, so figures from
different seeds compare.
"""

from __future__ import annotations

import json
import os
import random
import time
import traceback
from fractions import Fraction

import checks


class Workload:
    name = ""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self._refs: dict = {}

    def path(self, tag: str) -> str:
        return os.path.join(self.workdir, f"{self.name}-{tag}")

    def build(self, seed: int, tiny: bool = False) -> tuple[list[dict], dict]:
        """Return (job list, warm-up job); may write input files."""
        raise NotImplementedError

    def call(self, mods, job: dict):
        """Run one job through the program; returns (ok, in-memory result or None)."""
        try:
            return mods.cli.main(job["argv"]) == 0, None
        except SystemExit as exc:  # argparse and cli.main report errors by exiting
            return exc.code == 0, None

    def run(self, mods, job: dict):
        """Time one job; returns (seconds, ok, in-memory result or None)."""
        t0 = time.perf_counter()
        try:
            ok, result = self.call(mods, job)
        except Exception:  # a crashing job counts as failed; the run goes on
            traceback.print_exc()
            ok, result = False, None
        return time.perf_counter() - t0, ok, result

    def collect(self, job: dict, result):
        """Read a finished job's output; called outside the timed window."""
        with open(job["out"]) as fh:
            return json.load(fh)

    def check(self, job: dict, output) -> list[str]:
        raise NotImplementedError

    def ref(self, key, compute):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]


# ---------------------------------------------------------------- exponent-fit

class ExponentFit(Workload):
    """Enveloping-algebra coefficients and the fitted exponent d/(d+1)."""

    name = "exponent-fit"

    def _job(self, tag: str, source: str, d: int, fit_n: int, a=None, largest=False) -> dict:
        out, coeffs = self.path(f"{tag}.json"), self.path(f"{tag}.csv")
        argv = ["euler-fit", "--fit-n", str(fit_n), "--out", out, "--dump-coeffs", coeffs]
        if source == "input":
            src = self.path(f"{tag}.in.csv")
            with open(src, "w") as fh:
                fh.write("n,a_n\n" + "".join(f"{n},{a[n]}\n" for n in range(1, len(a))))
            argv += ["--input", src, "--target", repr(d / (d + 1))]
        else:
            argv += ["--mode", source, "--d", str(d)]
        return {"name": f"{source} d={d} fit-n={fit_n}", "argv": argv, "out": out, "coeffs": coeffs,
                "source": source, "d": d, "fit_n": fit_n, "a": a, "largest": largest}

    def build(self, seed, tiny=False):
        rng = random.Random(seed)
        scale = 8 if tiny else 1

        def noisy(d, fit_n):
            # Wplus graded dimensions plus seeded lower-order noise in 0..3:
            # the same growth type, different coefficients per seed
            base = checks.wplus_graded(d, 2 * fit_n)
            return [0] + [base[n] + rng.randint(0, 3) for n in range(1, 2 * fit_n + 1)]

        specs = [
            ("Wplus", 1, 1024, None), ("Wplus", 2, 1024, None),
            ("metabelian", 2, 512, None), ("metabelian", 3, 512, None),
            ("input", 2, 512, noisy(2, 512 // scale)), ("input", 3, 512, noisy(3, 512 // scale)),
        ]
        jobs = [self._job(f"j{i}", src, d, n // scale, a) for i, (src, d, n, a) in enumerate(specs)]
        jobs.append(self._job("largest", "Wplus", 3, 2048 // scale, largest=True))
        rng.shuffle(jobs)
        return jobs, self._job("warm", "Wplus", 2, 256 // scale)

    def collect(self, job, result):
        with open(job["out"]) as fh:
            report = json.load(fh)
        with open(job["coeffs"]) as fh:
            rows = [line.split(",") for line in fh.read().split()[1:]]
        b = [int(v) for _, v in rows]
        n = job["fit_n"]
        return {"report": report, "b_mod": [v % checks.PRIME for v in b], "b_fit": (b[n], b[2 * n])}

    def check(self, job, output):
        d, n = job["d"], 2 * job["fit_n"]

        def reference():
            if job["source"] == "input":
                a = job["a"]
            elif job["source"] == "Wplus":
                a = checks.wplus_graded(d, n)
            else:
                a = checks.metabelian_graded(d, n)
            return checks.euler_product_mod(a)

        ref = self.ref((job["source"], d, n, tuple(job["a"] or ())), reference)
        return checks.check_exponent_fit(job, output, ref)


# ----------------------------------------------------------- filtration-growth

# depths at which each search takes about a quarter of a second, and a
# largest job of about 1.5 s: short enough for about seven passes in a 30 s
# run, so that each job's median rests on several samples
GROWTH_CONFIGS = [
    ("Wplus", 2, 18), ("Wplus", 3, 7),
    ("W", 2, 38), ("W", 3, 12), ("W", 4, 7),
    ("metabelian", 2, 75), ("metabelian", 3, 18), ("metabelian", 4, 10),
]
GROWTH_LARGEST = ("Wplus", 4, 7)


class FiltrationGrowth(Workload):
    """Exact gamma(n) by filtration search in the three generating sets."""

    name = "filtration-growth"

    def _job(self, tag, mode, d, max_n, largest=False):
        out = self.path(f"{tag}.csv")
        argv = ["growth", "--mode", mode, "--d", str(d), "--max-n", str(max_n), "--out", out]
        return {"name": f"{mode} d={d} n={max_n}", "argv": argv, "out": out,
                "mode": mode, "d": d, "max_n": max_n, "largest": largest}

    def build(self, seed, tiny=False):
        rng = random.Random(seed)
        shrink = (lambda n: max(2, n // 3)) if tiny else (lambda n: n)
        jobs = [self._job(f"j{i}", m, d, shrink(n)) for i, (m, d, n) in enumerate(GROWTH_CONFIGS)]
        m, d, n = GROWTH_LARGEST
        jobs.append(self._job("largest", m, d, shrink(n), largest=True))
        rng.shuffle(jobs)
        return jobs, self._job("warm", "Wplus", 2, 8)

    def collect(self, job, result):
        with open(job["out"]) as fh:
            lines = fh.read().split()
        header = lines[0].split(",")
        return [dict(zip(header, map(int, line.split(",")))) for line in lines[1:]]

    def check(self, job, output):
        key = (job["mode"], job["d"], job["max_n"])
        ref = self.ref(key, lambda: checks.reference_gamma(*key))
        return checks.check_growth(job, output, ref)


# ------------------------------------------------------------- relation-suites

class RelationSuites(Workload):
    """verify suites: presentations of W and Wplus, towers, embedding, model laws."""

    name = "relation-suites"

    def _job(self, tag, suite, d, largest=False, **opts):
        out = self.path(f"{tag}.json")
        argv = ["verify", "--suite", suite, "--d", str(d), "--format", "json", "--out", out]
        for key, value in opts.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        job = {"name": f"{suite} d={d} " + " ".join(f"{k}={v}" for k, v in opts.items()),
               "argv": argv, "out": out, "suite": suite, "d": d, "largest": largest}
        job.update(opts)
        return job

    def build(self, seed, tiny=False):
        rng = random.Random(seed)
        seeds = [rng.randrange(1 << 30) for _ in range(5)]
        t = 1 if tiny else 0
        specs = [
            ("presentation", 2, {"mode": "W", "bound_s": 4 - t}),
            ("presentation", 5 - 2 * t, {"mode": "Wplus", "bound_s": 5 - 2 * t}),
            ("presentation", 6 - 3 * t, {"mode": "Wplus", "bound_s": 6 - 3 * t}),
            ("towers", 2, {"bound_s": 30 - 25 * t}),
            ("towers", 4, {"bound_s": 30 - 25 * t}),
            ("embedding", 3, {"max_n": 8 - 4 * t, "seed": seeds[0]}),
            ("embedding", 4, {"max_n": 7 - 4 * t, "seed": seeds[1]}),
            ("model-laws", 3, {"mode": "W", "trials": 50 - 40 * t, "seed": seeds[2]}),
            ("model-laws", 3, {"mode": "Wplus", "trials": 50 - 40 * t, "seed": seeds[3]}),
            ("model-laws", 4, {"mode": "W", "trials": 50 - 40 * t, "seed": seeds[4]}),
        ]
        jobs = [self._job(f"j{i}", s, d, **o) for i, (s, d, o) in enumerate(specs)]
        jobs.append(self._job("largest", "presentation", 3, largest=True, mode="W", bound_s=4 - 2 * t))
        rng.shuffle(jobs)
        return jobs, self._job("warm", "presentation", 2, mode="Wplus", bound_s=2)

    def check(self, job, output):
        return checks.check_relations(job, output)


# ----------------------------------------------------------------- normal-form

def tree_text(tree) -> str:
    """Text format with left spines written as flat lists."""
    if isinstance(tree, int):
        return f"x{tree + 1}"
    parts = []
    while isinstance(tree, tuple):
        parts.append(tree[1])
        tree = tree[0]
    parts.append(tree)
    return "[" + ",".join(tree_text(p) for p in reversed(parts)) + "]"


def random_shape(rng: random.Random, size: int):
    """A bracketing of `size` leaves; leaves are None until letters are drawn."""
    if size == 1:
        return None
    split = rng.randint(1, size - 1)
    return (random_shape(rng, split), random_shape(rng, size - split))


def right_normed_shape(size: int):
    return None if size == 1 else (None, right_normed_shape(size - 1))


def leaf_count(shape) -> int:
    return 1 if shape is None else leaf_count(shape[0]) + leaf_count(shape[1])


def jacobi_bound(shape) -> int:
    """Upper bound on the left-normed words the Jacobi expansion produces."""
    if shape is None:
        return 1
    left, right = shape
    return jacobi_bound(left) * jacobi_bound(right) * 2 ** (leaf_count(right) - 1)


def fill(shape, letters):
    """Replace the leaves of shape, left to right, by the given letters."""
    it = iter(letters)

    def go(s):
        return next(it) if s is None else (go(s[0]), go(s[1]))

    return go(shape)


# The expressions are fixed for every seed, so a pass does the same amount of
# bracket expansion whatever the seed; the seed only relabels the letters of
# the free and derived expressions and orders the jobs.
SHAPE_RNG_SEED = 1609_06901
FREE_SHAPES = 120  # random bracketings of 2..10 leaves
JACOBI_CAP = 96  # skips the few bracketings whose expansion dwarfs the rest


def expression_catalog(tiny: bool):
    """(free, squares, derived) as lists of (tree, d); the same for every seed.

    Free expressions and [[p, q], [r, s]] get d in 2..4 and letters drawn
    once. Squares are [e, e] over d = 4 and are never relabelled, since the
    cost of a normal form depends on the order of its letters; the first
    square is the largest job: e right-normed on 6 leaves (5 when tiny).
    """
    rng = random.Random(SHAPE_RNG_SEED)

    def letters(shape, d):
        return fill(shape, [rng.randrange(d) for _ in range(leaf_count(shape))])

    free = []
    while len(free) < (12 if tiny else FREE_SHAPES):
        shape = random_shape(rng, rng.randint(2, 10))
        if jacobi_bound(shape) <= JACOBI_CAP:
            d = rng.randint(2, 4)
            free.append((letters(shape, d), d))
    pattern = [0, 1, 2, 0, 1, 3][: 5 if tiny else 6]
    squares = [fill(right_normed_shape(len(pattern)), pattern)]
    for size in (4, 4, 5, 5, 5, 5):
        squares.append(letters(random_shape(rng, size), 4))
    derived = []
    for _ in range(8):
        d = rng.randint(2, 4)
        shape = tuple((random_shape(rng, rng.randint(1, 3)), random_shape(rng, rng.randint(1, 3)))
                      for _ in range(2))
        derived.append((letters(shape, d), d))
    return free, [((e, e), 4) for e in squares], derived


def relabel(tree, perm):
    return perm[tree] if isinstance(tree, int) else (relabel(tree[0], perm), relabel(tree[1], perm))


class NormalForm(Workload):
    """Seeded bracket expressions over d = 2..4 through parse_expr and normalize_expr.

    A fixed catalog; the seed relabels the letters of the free expressions
    and of [[p, q], [r, s]]. [e, e] and [[p, q], [r, s]] must normalize to 0.
    """

    name = "normal-form"

    def _job(self, tree, d, vanishes, largest=False):
        text = tree_text(tree)
        return {"name": text, "text": text, "tree": tree, "d": d,
                "vanishes": vanishes, "largest": largest}

    def build(self, seed, tiny=False):
        rng = random.Random(seed)
        free, squares, derived = expression_catalog(tiny)
        jobs = []
        for group, vanishes in ((free, False), (derived, True)):
            for tree, d in group:
                jobs.append(self._job(relabel(tree, rng.sample(range(d), d)), d, vanishes))
        for index, (tree, d) in enumerate(squares):
            jobs.append(self._job(tree, d, True, largest=index == 0))
        rng.shuffle(jobs)
        warm = self._job(fill(right_normed_shape(4), [0, 1, 2, 1]), 3, False)
        return jobs, warm

    def call(self, mods, job):
        return True, mods.metabelian.normalize_expr(mods.expr.parse_expr(job["text"]), job["d"])

    def collect(self, job, result):
        return {tuple(w): Fraction(c) for w, c in result.terms.items()}

    def check(self, job, output):
        return checks.check_normal_form(job, output)


WORKLOADS = {cls.name: cls for cls in (ExponentFit, FiltrationGrowth, RelationSuites, NormalForm)}
