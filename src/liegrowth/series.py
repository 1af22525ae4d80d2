"""Generating-series transforms and the stretched-exponent estimator.

Graded dimensions a_n of a Lie algebra determine the monomial counts b_n of
its universal envelope through the product identity

    sum_n b_n t^n = prod_{n>=1} (1 - t^n)^(-a_n),

the power-series shadow of the Poincare-Birkhoff-Witt basis. Coefficients are
computed two ways: a fast divisor-sum recurrence

    n * b_n = sum_{k=1}^{n} c_k * b_{n-k},   c_k = sum_{delta | k} delta * a_delta,

whose division must always be exact (asserted), and a direct truncated product
used as an independent cross-check oracle. The recurrence reverses c once, so
each sum multiplies through `operator.mul` and reads b forward, in the order
it was built. All coefficients are exact Python integers; with a_n ~ n^(d-1)
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


def gamma_to_graded(gamma: Sequence[int]) -> list[int]:
    """First differences of a cumulative growth function; gamma[0] must be 0."""
    if not gamma or gamma[0] != 0:
        raise ValueError("gamma must start at gamma[0] = 0")
    out = [0]
    for n in range(1, len(gamma)):
        step = gamma[n] - gamma[n - 1]
        if step < 0:
            raise ValueError(f"gamma decreases at n = {n}")
        out.append(step)
    return out


def _graded_range(a: Sequence[int], n_max: int | None) -> int:
    """Check a graded sequence and return N, the last degree to compute."""
    if not a or a[0] != 0:
        raise ValueError("graded sequence must have a[0] = 0")
    if not all(isinstance(v, int) for v in a):
        raise ValueError("graded dimensions must be integers")
    if any(v < 0 for v in a):
        raise ValueError("graded dimensions must be nonnegative")
    N = len(a) - 1 if n_max is None else n_max
    if N < 0:
        raise ValueError("n_max must be >= 0")
    if N >= len(a):
        raise ValueError("n_max exceeds the given graded range")
    return N


def euler_transform(a: Sequence[int], n_max: int | None = None) -> list[int]:
    """Coefficients b_0..b_N of prod (1-t^n)^(-a_n), by divisor sums."""
    N = _graded_range(a, n_max)
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


def euler_product_direct(a: Sequence[int], n_max: int | None = None) -> list[int]:
    """Same series by multiplying truncated factors; the cross-check oracle.

    Each factor (1-t^k)^(-a_k) expands to sum_j C(a_k-1+j, j) t^(kj). Meant
    for moderate N; the recurrence is the fast path.
    """
    N = _graded_range(a, n_max)
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


# ------------------------------------------------------------------- estimator

@dataclass
class ExponentFit:
    method: str
    estimates: list[tuple[int, float]]  # (n, alpha_hat)
    final: float
    n_range: tuple[int, int]
    classification: str  # "intermediate", "polynomial-like", or "exponential-like"


def ln_big(value: int) -> float:
    """Natural log of a positive big integer.

    math.log on CPython ints is computed from the exponent and a full-width
    mantissa, so the relative error is ~1e-16, well inside the 1e-12 the
    estimator needs; no manual bit-length splitting required.
    """
    if value <= 0:
        raise ValueError("ln_big needs a positive integer")
    return math.log(value)


def fit_stretched_exponent(b: Sequence[int], points: Sequence[int]) -> ExponentFit:
    """Estimate alpha from b via doubling ratios at the given points.

    Every point n needs b_n >= 2 and 2n within range. The classification
    flags sequences that are not of intermediate growth: alpha_hat below 0.1
    reads as polynomial-like, above 0.98 as exponential-like.
    """
    if not points:
        raise ValueError("need at least one evaluation point")
    estimates: list[tuple[int, float]] = []
    for n in sorted(points):
        if n < 1 or 2 * n >= len(b):
            raise ValueError(f"point {n} needs b up to index {2 * n}")
        if b[n] <= 1 or b[2 * n] <= 1:
            raise ValueError(f"b must exceed 1 at n = {n} and 2n for the log ratio")
        alpha = math.log2(ln_big(b[2 * n]) / ln_big(b[n]))
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
        n_range=(estimates[0][0], estimates[-1][0]),
        classification=classification,
    )
