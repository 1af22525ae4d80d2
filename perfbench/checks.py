"""Reference computations made apart from liegrowth, and the checks that use them.

Nothing here imports the package under test. Each check takes the program's
output for one job, as parsed by the workload, and returns a list of problems;
an empty list means the output is correct.

* exponent-fit: b_n mod a prime by truncated-product expansion of
  prod (1 - t^k)^(-a_k), with a_n from closed-form counts, plus the doubling
  estimate recomputed from the program's own big integers.
* filtration-growth: brute-force counts of module monomials for W and Wplus,
  (n-1) * C(n+d-2, n) for the free metabelian algebra, and the sandwich
  metabelian <= Wplus <= growth_bound.
* relation-suites: relator counts worked out combinatorially and embedding
  ranks against the closed-form graded dimension.
* normal-form: a small wreath model W written here, in which the Magnus image
  of a basis monomial has the closed form (a_i t_j - a_j t_i) t_w2 ... t_wk.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

PRIME = 2_147_483_647  # 2^31 - 1: residue products stay below 2^62


# ------------------------------------------------------------ graded counts

def ceil_weight_count(d: int, s: int) -> int:
    """#{beta in N^d : sum_j ceil(beta_j / 2) = s}.

    Choose the k nonzero coordinates, split s into k positive weights, and
    each positive weight w is reached by beta_j = 2w - 1 or 2w.
    """
    if s == 0:
        return 1
    return sum(math.comb(d, k) * 2**k * math.comb(s - 1, k - 1) for k in range(1, min(d, s) + 1))


def wplus_graded(d: int, n_max: int) -> list[int]:
    """a_1 = 3d; a_n = d * ceil_weight_count(d, n - 1) for n >= 2; a_0 = 0."""
    return [0, 3 * d] + [d * ceil_weight_count(d, n - 1) for n in range(2, n_max + 1)]


def metabelian_graded(d: int, n_max: int) -> list[int]:
    """a_1 = d; a_n = (n - 1) * C(n + d - 2, n) for n >= 2; a_0 = 0."""
    return [0, d] + [(n - 1) * math.comb(n + d - 2, n) for n in range(2, n_max + 1)]


def cumulative(a: list[int]) -> list[int]:
    out = [0]
    for v in a[1:]:
        out.append(out[-1] + v)
    return out


def growth_bound(d: int, n: int) -> int:
    """The paper's letter-count cap for Wplus: module degree at most 2(n - 1)."""
    return 3 * d + d * sum(math.comb(s + d - 1, d - 1) for s in range(1, 2 * (n - 1) + 1))


def brute_w_gamma(d: int, n_max: int) -> list[int]:
    """gamma(n) for W: d torus letters plus a_k t^beta with |beta| <= n - 1."""
    hist = [0] * n_max
    for beta in product(range(n_max), repeat=d):
        deg = sum(beta)
        if deg < n_max:
            hist[deg] += 1
    gamma, seen = [0], 0
    for n in range(1, n_max + 1):
        seen += hist[n - 1]
        gamma.append(d + d * seen)
    return gamma


def brute_wplus_gamma(d: int, n_max: int) -> list[int]:
    """gamma(n) for Wplus: 3d generators plus a_k t^beta, beta != 0, first
    reached at level 1 + sum_j ceil(beta_j / 2)."""
    hist = [0] * n_max
    for beta in product(range(2 * n_max - 1), repeat=d):
        weight = sum((b + 1) // 2 for b in beta)
        if 0 < weight < n_max:
            hist[weight] += 1
    gamma, seen = [0], 0
    for n in range(1, n_max + 1):
        seen += hist[n - 1]
        gamma.append(3 * d + d * seen)
    return gamma


# ----------------------------------------------------------- exponent fit

def euler_product_mod(a: list[int], p: int = PRIME) -> list[int]:
    """b_0..b_N mod p of prod_k (1 - t^k)^(-a_k), one truncated factor at a time.

    The factor expands to sum_j C(a_k - 1 + j, j) t^(kj); its coefficients are
    built incrementally with inverses of j mod p.
    """
    import numpy as np  # only checks need NumPy; the timed passes run without it

    N = len(a) - 1
    inv = [0, 1] + [0] * (N - 1)
    for j in range(2, N + 1):
        inv[j] = (p - (p // j) * inv[p % j] % p) % p
    b = np.zeros(N + 1, dtype=np.int64)
    b[0] = 1
    for k in range(1, N + 1):
        if a[k] == 0:
            continue
        m = (a[k] - 1) % p
        out = b.copy()
        f = 1
        for j in range(1, N // k + 1):
            f = f * ((m + j) % p) % p * inv[j] % p
            if f:
                shift = k * j
                out[shift:] = (out[shift:] + f * b[: N + 1 - shift]) % p
        b = out
    return b.tolist()


def alpha_hat(b_n: int, b_2n: int) -> float:
    return math.log2(math.log(b_2n) / math.log(b_n))


def check_exponent_fit(job: dict, out: dict, ref_mod: list[int]) -> list[str]:
    """out: {"report": euler-fit JSON, "b_mod": residues, "b_fit": (b_n, b_2n)}."""
    problems = []
    d, fit_n = job["d"], job["fit_n"]
    rep = out["report"]
    if len(out["b_mod"]) != 2 * fit_n + 1:
        return [f"{len(out['b_mod'])} coefficients, expected {2 * fit_n + 1}"]
    bad = [n for n, (mine, ref) in enumerate(zip(out["b_mod"], ref_mod)) if mine != ref]
    if bad:
        problems.append(f"b_n differs from the product expansion mod p at n = {bad[0]}")
    target = d / (d + 1)
    if abs(rep["final"] - target) > 0.10:
        problems.append(f"fitted exponent {rep['final']} is not within 0.10 of {target}")
    if rep["classification"] != "intermediate":
        problems.append(f"classified {rep['classification']!r}, expected 'intermediate'")
    mine = alpha_hat(*out["b_fit"])
    if abs(mine - rep["final"]) > 1e-9:
        problems.append(f"reported exponent {rep['final']} but the coefficients give {mine}")
    return problems


# ------------------------------------------------------- filtration growth

def reference_gamma(mode: str, d: int, n_max: int) -> list[int]:
    if mode == "W":
        return brute_w_gamma(d, n_max)
    if mode == "Wplus":
        return brute_wplus_gamma(d, n_max)
    return cumulative(metabelian_graded(d, n_max))


def check_growth(job: dict, rows: list[dict[str, int]], ref: list[int]) -> list[str]:
    mode, d, n_max = job["mode"], job["d"], job["max_n"]
    if [r["n"] for r in rows] != list(range(1, n_max + 1)):
        return ["rows do not run over n = 1..max_n"]
    problems = []
    met = cumulative(metabelian_graded(d, n_max))
    wplus = cumulative(wplus_graded(d, n_max))
    for r in rows:
        n, gamma = r["n"], r["gamma"]
        if gamma != ref[n]:
            problems.append(f"gamma({n}) = {gamma}, independent count gives {ref[n]}")
        if r["a_n"] != ref[n] - ref[n - 1]:
            problems.append(f"a_{n} = {r['a_n']} is not gamma({n}) - gamma({n - 1})")
        # the sandwich, with the program's gamma in place of its own mode's count
        sandwich = {"metabelian": met[n], "Wplus": wplus[n], mode: gamma}
        bound = growth_bound(d, n)
        if not sandwich["metabelian"] <= sandwich["Wplus"] <= bound:
            problems.append(f"sandwich fails at n = {n}: {sandwich['metabelian']}, {sandwich['Wplus']}, {bound}")
        if mode == "Wplus" and r["growth_bound"] != bound:
            problems.append(f"growth_bound({n}) = {r['growth_bound']}, expected {bound}")
        if problems:
            break
    return problems


# --------------------------------------------------------- relation suites

def expected_checked(job: dict) -> int:
    """Number of relators or checks a verify suite evaluates, by counting."""
    suite, d, b = job["suite"], job["d"], job.get("bound_s", 5)
    if suite == "presentation" and job["mode"] == "W":
        # [t_i, t_j] plus tower pairs with r + s <= b: (total + 1) splits of
        # each total, d^2 pairs of module letters, d^total torus subscripts
        return d * d + d * d * sum((total + 1) * d**total for total in range(b + 1))
    if suite == "presentation":
        separators = sum(math.comb(d, s) for s in range(min(b, d) + 1))
        return d * d * separators + 3 * d * d + d * d
    if suite == "towers":
        instances = 2 if d >= 2 else 1
        return instances * (6 + (b + 1) ** 2)
    if suite == "embedding":
        return job["max_n"] + 25  # one rank per degree plus the 25 default trials
    # model-laws: four laws per trial, then for s = 0..4 one check per tower
    # and one rank check
    return 4 * job["trials"] + sum(d * math.comb(s + d - 1, d - 1) + 1 for s in range(5))


def check_relations(job: dict, rep: dict) -> list[str]:
    problems = [f"failure reported: {f}" for f in rep["failures"][:3]]
    want = expected_checked(job)
    if rep["checked"] != want:
        problems.append(f"checked {rep['checked']}, expected {want}")
    if job["suite"] == "embedding":
        dims = metabelian_graded(job["d"], job["max_n"])
        ranks = [(r["n"], r["rank"]) for r in rep["ranks"]]
        want_ranks = [(n, dims[n]) for n in range(1, job["max_n"] + 1)]
        if ranks != want_ranks:
            problems.append(f"embedding ranks {ranks} differ from graded dimensions {want_ranks}")
    return problems


# ---------------------------------------------------------------- normal form

class WModel:
    """Elements of W over Q: module {(k, beta): c} and torus coefficients.

    [p, q] = mod(p) * act(q) - mod(q) * act(p) with act(e) = sum_i tor_i * t_i.
    """

    def __init__(self, d: int):
        self.d = d
        self.unit = [tuple(int(i == j) for j in range(d)) for i in range(d)]

    def gen(self, i: int) -> tuple[dict, tuple]:
        """The Magnus image a_i + t_i of x_i."""
        return {(i, (0,) * self.d): Fraction(1)}, self.unit[i]

    def _act(self, module: dict, torus: tuple, sign: int, out: dict) -> None:
        for i, c in enumerate(torus):
            if c:
                for (k, beta), v in module.items():
                    key = (k, beta[:i] + (beta[i] + 1,) + beta[i + 1:])
                    acc = out.get(key, 0) + sign * c * v
                    if acc:
                        out[key] = acc
                    else:
                        out.pop(key, None)

    def bracket(self, p: tuple, q: tuple) -> tuple[dict, tuple]:
        out: dict = {}
        self._act(p[0], q[1], 1, out)
        self._act(q[0], p[1], -1, out)
        return out, (0,) * self.d

    def evaluate(self, tree) -> tuple[dict, tuple]:
        """tree: int leaf (0-based x index) or a pair (left, right)."""
        if isinstance(tree, int):
            return self.gen(tree)
        return self.bracket(self.evaluate(tree[0]), self.evaluate(tree[1]))

    def monomial_image(self, word: tuple[int, ...]) -> tuple[dict, tuple]:
        if len(word) == 1:
            return self.gen(word[0])
        i, j = word[0], word[1]
        tail = [0] * self.d
        for w in word[2:]:
            tail[w] += 1
        ti = list(tail)
        ti[j] += 1
        tj = list(tail)
        tj[i] += 1
        module = {(i, tuple(ti)): Fraction(1)}
        key = (j, tuple(tj))
        module[key] = module.get(key, 0) - 1
        return {k: v for k, v in module.items() if v}, (0,) * self.d

    def combine(self, terms: dict[tuple[int, ...], Fraction]) -> tuple[dict, tuple]:
        module: dict = {}
        torus = [Fraction(0)] * self.d
        for word, c in terms.items():
            mod, tor = self.monomial_image(word)
            for key, v in mod.items():
                acc = module.get(key, 0) + c * v
                if acc:
                    module[key] = acc
                else:
                    module.pop(key, None)
            for i, v in enumerate(tor):
                torus[i] += c * v
        return module, tuple(torus)


def is_basis_word(word: tuple[int, ...], d: int) -> bool:
    if not word or any(not 0 <= i < d for i in word):
        return False
    if len(word) == 1:
        return True
    return word[0] > word[1] and all(word[i] <= word[i + 1] for i in range(1, len(word) - 1))


def check_normal_form(job: dict, terms: dict[tuple[int, ...], Fraction]) -> list[str]:
    d = job["d"]
    problems = [f"{w} is not a basis monomial" for w in terms if not is_basis_word(w, d)]
    if problems:
        return problems
    if job["vanishes"] and terms:
        return [f"{job['text']} must normalize to 0"]
    model = WModel(d)
    direct = model.evaluate(job["tree"])
    image = model.combine(terms)
    if (direct[0], tuple(Fraction(c) for c in direct[1])) != image:
        problems.append(f"Magnus image of the normal form of {job['text']} differs from direct evaluation")
    return problems
