"""Generating-series transforms and the stretched-exponent estimator.

Graded dimensions a_n of a Lie algebra determine the monomial counts b_n of
its universal envelope through the product identity

    sum_n b_n t^n = prod_{n>=1} (1 - t^n)^(-a_n),

the power-series shadow of the Poincare-Birkhoff-Witt basis. Coefficients
come from the divisor-sum recurrence

    n * b_n = sum_{k=1}^{n} c_k * b_{n-k},   c_k = sum_{delta | k} delta * a_delta,

whose division must always be exact (asserted); the tests check it against a
direct truncated product and against the recurrence taken one n at a time.
The sums are built by splitting [0, N] at its midpoint: once the left half is
solved, its share of every sum in the right half is one square Toeplitz
product, whose entries c_1..c_(2M-1) depend only on its size M; Karatsuba
splits it into three half-size products down to blocks of 32, where plain
dot products run, and then the right half is solved. Until n is solved, b's
slot n holds its partial sum, so no second list of length N is made. For
Wplus d = 3 at N = 4,096 this takes 1,972,404 small-by-big products where
the one-n-at-a-time recurrence takes 8,390,656, and the recursion depth
grows with log2(N). All coefficients are exact Python integers; with
a_n ~ n^(d-1) the b_n grow like exp(n^(d/(d+1))), which is what the
estimator measures:

    alpha_hat(n) = log2( ln b_{2n} / ln b_n )

converges to alpha when ln b_n ~ C * n^alpha, and the doubling ratio cancels
the constant C exactly.

Sequence indexing convention: position k of a list holds the value at n = k,
so a[0] is the (unused) degree-0 slot and must be 0, and b[0] = 1.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Sequence
from dataclasses import dataclass
from operator import add, mul, sub

from .poly import check_int


def _graded_range(a: Sequence[int]) -> int:
    """Check a graded sequence and return N, its last degree."""
    if not isinstance(a, Sequence) or not a or a[0] != 0:
        raise ValueError("graded sequence must have a[0] = 0")
    if not all(isinstance(v, int) for v in a):
        raise ValueError("graded dimensions must be integers")
    if any(v < 0 for v in a):
        raise ValueError("graded dimensions must be nonnegative")
    return len(a) - 1


# Blocks of at most this many coefficients use plain dot products.
_BASE = 32


def euler_transform(a: Sequence[int]) -> list[int]:
    """Coefficients b_0..b_N of prod (1-t^n)^(-a_n), N = len(a) - 1, by divisor sums."""
    N = _graded_range(a)
    c = [0] * (N + 2)  # c_(N+1) = 0 fills a square product's last entry, whose row is never written
    for delta in range(1, N + 1):
        a_delta = a[delta]
        if a_delta:
            weighted = delta * a_delta
            for k in range(delta, N + 1, delta):
                c[k] += weighted
    b = [1] + [0] * N  # slot n holds a partial sum of n * b_n until n is solved
    _solve(c, b, 0, N + 1)
    return b


def _solve(c: list[int], b: list[int], lo: int, hi: int) -> None:
    """Solve b_lo..b_(hi-1), given that slot n of b holds sum_(j < lo) c_(n-j) b_j for n in [lo, hi)."""
    if hi - lo <= _BASE:
        c_rev = c[hi - lo - 1:0:-1]  # c_(hi-lo-1), ..., c_1
        for n in range(max(lo, 1), hi):
            quotient, rest = divmod(b[n] + sum(map(mul, c_rev[hi - 1 - n:], b[lo:n])), n)
            if rest:
                raise ArithmeticError(f"divisor-sum recurrence not integral at n = {n}")
            b[n] = quotient
        return
    mid = (lo + hi + 1) // 2  # the left half is the longer, so its square covers the right
    _solve(c, b, lo, mid)
    # b_lo..b_(mid-1) reach each n in [mid, hi) through c_(n-j): a square
    # Toeplitz product whose entries are c_1..c_(2M-1) for every left half of size M
    _toeplitz_add(c[1:2 * (mid - lo)], b[lo:mid], b, mid, hi - mid)
    _solve(c, b, mid, hi)


def _toeplitz_add(t: list[int], v: list[int], out: list[int], off: int, rows: int) -> None:
    """Add rows 0..rows-1 of T v to out[off:], where T[i][k] = t[M-1+i-k] and M = len(v).

    With T = [[A, B], [C, A]] in half-size Toeplitz blocks, T v is
    (P + (B-A) v1, P + (C-A) v0) for P = A (v0 + v1): three half-size
    products (Karatsuba). An odd M is padded by one zero column and one
    unwritten row. P reaches both halves without a list of its own: the lower
    half first holds its difference from the upper half, and gets the upper
    half back once P is added there.
    """
    M = len(v)
    if M <= _BASE:
        t_rev = t[::-1]
        for i in range(rows):
            out[off + i] += sum(map(mul, t_rev[M - 1 - i:2 * M - 1 - i], v))
        return
    if M % 2:
        t = [0, *t, 0]
        v = [*v, 0]
        M += 1
    m = M // 2
    v0, v1 = v[:m], v[m:]
    t_a = t[m:3 * m - 1]
    lower = range(off + m, off + rows)
    for i in lower:
        out[i] -= out[i - m]
    _toeplitz_add(t_a, list(map(add, v0, v1)), out, off, min(rows, m))
    for i in lower:
        out[i] += out[i - m]
    _toeplitz_add(list(map(sub, t[:2 * m - 1], t_a)), v1, out, off, min(rows, m))
    if rows > m:
        _toeplitz_add(list(map(sub, t[2 * m:], t_a)), v0, out, off + m, rows - m)


# ------------------------------------------------------------------- estimator

@dataclass
class ExponentFit:
    method: str
    estimates: list[tuple[int, float]]  # (n, alpha_hat)
    final: float
    classification: str  # "intermediate", "polynomial-like", or "exponential-like"


def fit_stretched_exponent(b: Sequence[int], points: Sequence[int]) -> ExponentFit:
    """Estimate alpha from b via doubling ratios at the given points.

    Every point n needs 2n within range and b_n, b_2n ints >= 2; a b value
    read that is not an int >= 0 fails `poly.check_int`. The classification
    flags sequences that are not of intermediate growth: alpha_hat below 0.1
    reads as polynomial-like, above 0.98 as exponential-like.
    """
    if not isinstance(points, Collection) or not points:
        raise ValueError("need at least one evaluation point")
    check_int("points", 1, *points)
    estimates: list[tuple[int, float]] = []
    for n in sorted(points):
        if not isinstance(b, Sequence) or 2 * n >= len(b):
            raise ValueError(f"point {n} needs b up to index {2 * n}")
        check_int("b", 0, b[n], b[2 * n])
        if b[n] <= 1 or b[2 * n] <= 1:
            raise ValueError(f"b must exceed 1 at n = {n} and 2n for the log ratio")
        # math.log of an int reads its exponent and a full-width mantissa, so it
        # keeps ~1e-16 relative error on integers far past the float range
        alpha = math.log2(math.log(b[2 * n]) / math.log(b[n]))
        estimates.append((n, alpha))
    final = estimates[-1][1]
    if final < 0.1:
        classification = "polynomial-like"
    elif final > 0.98:
        classification = "exponential-like"
    else:
        classification = "intermediate"
    return ExponentFit(
        method="doubling-log-ratio",
        estimates=estimates,
        final=final,
        classification=classification,
    )
