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
product, whose entries c_1..c_(2M-1) depend only on its size M, and then the
right half is solved. A transposed Toom-3 split (the transposition principle
of the middle product, applied to Toom-Cook) pads M to a multiple of 3 and
makes the square product five third-size ones, down to blocks of 32, where
plain dot products run. Each split scales its result by 6, and the square
product is divided by 6^depth once, row by row; a nonzero remainder is
reported as a non-integral step at that row's n. Until n is solved, b's
slot n holds its partial sum, so no second list of length N is made. For
Wplus d = 3 at N = 4,096 this takes 1,278,544 small-by-big products, every
row of each square product computed, where the one-n-at-a-time recurrence
takes 8,390,656. The depth of the midpoint split grows with log2(N), and
that of the Toom-3 kernel with log3(M). All coefficients are exact Python
integers; with a_n ~ n^(d-1) the b_n grow like exp(n^(d/(d+1))), which is
what the estimator measures:

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

    `_toom3` returns T v times a scale, 6 for each level of its splits; the
    division by that scale is checked row by row.
    """
    product, scale = _toom3(t, v)
    for n, y in zip(range(off, off + rows), product):
        quotient, rest = divmod(y, scale)
        if rest:
            raise ArithmeticError(f"divisor-sum recurrence not integral at n = {n}")
        out[n] += quotient


def _toom3(t: list[int], v: list[int]) -> tuple[list[int], int]:
    """All M rows of T v times 6^depth, and 6^depth, for T[i][k] = t[M-1+i-k] and M = len(v).

    p zeros on both ends of t and on the end of v pad M to 3m, and the rows
    past M are dropped. In m-size blocks, row r of T is (T(d_(r+2)),
    T(d_(r+1)), T(d_r)) against v = (v0, v1, v2), with d_c = t[cm : cm+2m-1].
    Toom-3 at 0, 1, -1, 2 and infinity, transposed, makes these five
    third-size products q_p = T(w_p) e_p, each weight on the small side:

        w0 = 6d0 - 3d1 - 6d2 + 3d3,     e0 = v2
        w1 = 6d1 + 3d2 - 3d3,           e1 = v0 + v1 + v2
        w2 = 3d2 - 2d1 - d3,            e2 = v0 - v1 + v2
        w3 = d3 - d1,                   e3 = v2 + 2v1 + 4v0
        w4 = 12d1 - 6d2 - 12d3 + 6d4,   e4 = v0

    and 6y0 = q0 + q1 + q2 + q3, 6y1 = q1 - q2 + 2q3, 6y2 = q1 + q2 + 4q3 + q4.
    Each product is folded into y0, y1 and y2 before the next one starts.
    """
    M = len(v)
    if M <= _BASE:
        t_rev = t[::-1]
        return [sum(map(mul, t_rev[M - 1 - i:2 * M - 1 - i], v)) for i in range(M)], 1
    p = -M % 3
    if p:
        t = [*[0] * p, *t, *[0] * p]
        v = [*v, *[0] * p]
    m = (M + p) // 3
    d0, d1, d2, d3, d4 = (t[c * m:(c + 2) * m - 1] for c in range(5))
    v0, v1, v2 = v[:m], v[m:2 * m], v[2 * m:]
    w3 = list(map(sub, d3, d1))
    y0, scale = _toom3([6 * x0 + 3 * (w - 2 * x2) for x0, x2, w in zip(d0, d2, w3)], v2)
    y1, scale = _toom3([3 * (2 * x1 + x2 - x3) for x1, x2, x3 in zip(d1, d2, d3)], list(map(add, v0, map(add, v1, v2))))
    y0 = list(map(add, y0, y1))
    q, scale = _toom3([3 * (x2 - x1) - w for x1, x2, w in zip(d1, d2, w3)], list(map(add, v0, map(sub, v2, v1))))
    y0 = list(map(add, y0, q))  # one block at a time, so one new block is alive at once
    y2 = list(map(add, y1, q))
    y1 = list(map(sub, y1, q))
    q, scale = _toom3(w3, [u2 + 2 * (u1 + 2 * u0) for u0, u1, u2 in zip(v0, v1, v2)])
    y0 = list(map(add, y0, q))
    q = list(map(add, q, q))
    y1 = list(map(add, y1, q))
    y2 = list(map(add, y2, map(add, q, q)))
    q, scale = _toom3([6 * (x4 - x2 - 2 * w) for x2, x4, w in zip(d2, d4, w3)], v0)
    return [*y0, *y1, *map(add, y2, q[:m - p])], 6 * scale  # the rows past M are padding


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
