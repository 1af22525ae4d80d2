"""Generating-series transforms and the stretched-exponent estimator.

Graded dimensions a_n of a Lie algebra determine the monomial counts b_n of
its universal envelope through the product identity

    sum_n b_n t^n = prod_{n>=1} (1 - t^n)^(-a_n),

the power-series shadow of the Poincare-Birkhoff-Witt basis. Coefficients
come from the divisor-sum recurrence

    n * b_n = sum_{k=1}^{n} c_k * b_{n-k},   c_k = sum_{delta | k} delta * a_delta,

whose division must always be exact (asserted); the tests check it against a
direct truncated product. The recurrence reverses c once, so each sum
multiplies through `operator.mul` and reads b forward, in the order it was
built. All coefficients are exact Python integers; with a_n ~ n^(d-1)
the b_n grow like exp(n^(d/(d+1))), which is what the estimator measures:

    alpha_hat(n) = log2( ln b_{2n} / ln b_n )

converges to alpha when ln b_n ~ C * n^alpha, and the doubling ratio cancels
the constant C exactly.

Sequence indexing convention: position k of a list holds the value at n = k,
so a[0] is the (unused) degree-0 slot and must be 0, and b[0] = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .poly import check_int


def _graded_range(a: Sequence[int]) -> int:
    """Check a graded sequence and return N, its last degree."""
    if not a or a[0] != 0:
        raise ValueError("graded sequence must have a[0] = 0")
    if not all(isinstance(v, int) for v in a):
        raise ValueError("graded dimensions must be integers")
    if any(v < 0 for v in a):
        raise ValueError("graded dimensions must be nonnegative")
    return len(a) - 1


def euler_transform(a: Sequence[int]) -> list[int]:
    """Coefficients b_0..b_N of prod (1-t^n)^(-a_n), N = len(a) - 1, by divisor sums."""
    N = _graded_range(a)
    c = [0] * (N + 1)
    for delta in range(1, N + 1):
        a_delta = a[delta]
        if a_delta:
            weighted = delta * a_delta
            for k in range(delta, N + 1, delta):
                c[k] += weighted
    c_rev = c[:0:-1]  # c_N, ..., c_1: its last n entries pair with b_0..b_(n-1)
    b = [1]
    for n in range(1, N + 1):
        quotient, rest = divmod(sum(map(mul, c_rev[N - n:], b)), n)
        if rest:
            raise ArithmeticError(f"divisor-sum recurrence not integral at n = {n}")
        b.append(quotient)
    return b


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
    if not points:
        raise ValueError("need at least one evaluation point")
    check_int("points", 1, *points)
    estimates: list[tuple[int, float]] = []
    for n in sorted(points):
        if 2 * n >= len(b):
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
