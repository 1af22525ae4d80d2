from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import euler_product_direct, euler_transform_by_recurrence, partition_counts
from liegrowth import series
from liegrowth.growth import wplus_graded_dims
from liegrowth.series import euler_transform, fit_stretched_exponent


def test_euler_transform_frozen_examples():
    assert euler_transform([0, 1, 0, 0, 0, 0]) == [1, 1, 1, 1, 1, 1]
    assert euler_transform([0, 2, 0, 0, 0, 0]) == [1, 2, 3, 4, 5, 6]
    assert euler_transform([0, 1, 1, 0, 5][:4]) == [1, 1, 2, 2]


def test_euler_transform_all_ones_gives_partitions():
    b = euler_transform([0] + [1] * 200)
    oracle = partition_counts(200)
    assert b == oracle
    assert b[4] == 5 and b[10] == 42


# At the real base these sizes never reach a square product; bases 1..3 run
# every branch of the split: the square product, its Karatsuba halves, the
# odd-size padding and the rows left unwritten.
_bases = st.sampled_from((1, 2, 3, series._BASE))

# a value followed by a run of zeros, repeated: zero blocks of every length
# reach the square products and their halves
_runs_of_zeros = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2 ** 64), st.integers(min_value=0, max_value=20)),
    min_size=1,
    max_size=12,
).map(lambda runs: [x for value, zeros in runs for x in (value, *[0] * zeros)])


def _euler_transform_at_base(base, a):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "_BASE", base)
        return euler_transform(a)


@settings(max_examples=200, deadline=None)
@given(_bases, st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=60))
def test_euler_transform_matches_direct_product(base, values):
    a = [0] + values
    assert _euler_transform_at_base(base, a) == euler_product_direct(a)


@settings(max_examples=200, deadline=None)
@given(
    _bases,
    st.one_of(st.lists(st.integers(min_value=0, max_value=2 ** 64), min_size=1, max_size=30), _runs_of_zeros),
)
def test_euler_transform_matches_direct_product_on_multi_digit_values(base, values):
    # a_n up to 2^64 makes every c_k and b_n span several machine digits
    a = [0] + values
    b = _euler_transform_at_base(base, a)
    assert b == euler_product_direct(a)
    assert all(type(v) is int for v in b)


def test_euler_transform_matches_direct_product_on_wplus_d3():
    a = wplus_graded_dims(3, 400)
    b = euler_transform(a)
    assert b == euler_product_direct(a)
    assert all(type(v) is int for v in b)


def test_euler_transform_reports_a_non_integral_step(monkeypatch):
    # exact products of nonnegative integers always divide; an off-by-one
    # product makes n = 2 sum to 5. At bases 1 and 2 that sum comes through a
    # square product, so the per-n check also catches a wrong square product
    monkeypatch.setattr(series, "mul", lambda x, y: x * y + 1)
    for base in (1, 2, series._BASE):
        monkeypatch.setattr(series, "_BASE", base)
        with pytest.raises(ArithmeticError, match=r"^divisor-sum recurrence not integral at n = 2$"):
            series.euler_transform([0, 1, 0])


def test_split_matches_the_per_n_recurrence():
    # b_n depends only on a_1..a_n, so one recurrence run gives every prefix;
    # each N splits [0, N] at its own midpoints. a_n below 2^16 takes b_300
    # to about 2,400 bits, the size of the largest benchmark coefficients
    rng = random.Random(20)
    sequences = (
        wplus_graded_dims(3, 300),
        [0] + [rng.randrange(6) for _ in range(300)],
        [0] + [rng.randrange(2 ** 16) for _ in range(300)],
    )
    for a in sequences:
        expected = euler_transform_by_recurrence(a)
        for N in range(301):
            assert euler_transform(a[:N + 1]) == expected[:N + 1], N
    a = wplus_graded_dims(3, 1024)
    assert euler_transform(a) == euler_transform_by_recurrence(a)


def test_split_recursion_depth_is_logarithmic(monkeypatch):
    # base 1 recurses furthest; the depth follows the bit length of N, so no
    # input comes near the interpreter's recursion limit
    depth = deepest = 0

    def tracked(function):
        def wrapper(*args):
            nonlocal depth, deepest
            depth += 1
            deepest = max(deepest, depth)
            try:
                return function(*args)
            finally:
                depth -= 1
        return wrapper

    monkeypatch.setattr(series, "_BASE", 1)
    for name in ("_solve", "_toeplitz_add"):
        monkeypatch.setattr(series, name, tracked(getattr(series, name)))
    N = 1000
    assert euler_transform([0] + [1] * N) == partition_counts(N)
    assert deepest <= 2 * N.bit_length() + 1, deepest


def test_euler_transform_monotone_for_nonzero_a1():
    a = [0, 1, 3, 0, 2, 0, 0, 1, 0, 0, 5]
    b = euler_transform(a)
    assert all(b[n] <= b[n + 1] for n in range(len(b) - 1))


def test_euler_rejects_bad_input():
    with pytest.raises(ValueError):
        euler_transform([1, 1])
    with pytest.raises(ValueError):
        euler_transform([0, -1])
    for a in ([], 5):  # empty; not a sequence
        for transform in (euler_transform, euler_product_direct):
            with pytest.raises(ValueError, match=r"^graded sequence must have a\[0\] = 0$"):
                transform(a)
    for a in ([0, "1"], [0, 2.0, 1], [0, 1, Fraction(1, 2)], [0, 1, Fraction(2)], [0, 1, None]):
        for transform in (euler_transform, euler_product_direct):
            with pytest.raises(ValueError, match=r"^graded dimensions must be integers$"):
                transform(a)
    # bool is an int subclass and reads as 0 or 1
    assert euler_transform([0, True, False]) == euler_product_direct([0, True, False]) == [1, 1, 1]


def test_fit_exact_power_of_two_input():
    # b_n = 2**round(n^(2/3)/ln 2) gives ln b_n = n^(2/3) up to rounding
    N = 1024
    b = [1, 2] + [1 << round(n ** (2 / 3) / math.log(2)) for n in range(2, N + 1)]
    fit = fit_stretched_exponent(b, [64, 128, 256, 512])
    assert abs(fit.final - 2 / 3) < 0.02
    assert fit.classification == "intermediate"
    assert fit.method == "doubling-log-ratio"
    assert [n for n, _ in fit.estimates] == [64, 128, 256, 512]


def test_fit_polynomial_input_flags_not_intermediate():
    N = 1 << 21
    b = [max(n, 1) ** 3 for n in range(N + 1)]
    fit = fit_stretched_exponent(b, [1 << 20])
    assert fit.final < 0.1
    assert fit.classification == "polynomial-like"


def test_fit_exponential_input_flags_not_intermediate():
    b = [2 ** n for n in range(257)]
    fit = fit_stretched_exponent(b, [16, 64, 128])
    assert fit.final > 0.98
    assert fit.classification == "exponential-like"


def test_fit_tracks_exponent_of_consecutive_power_differences():
    # a_n = (n+1)^(d+1) - n^(d+1) grows like n^d, so alpha should approach
    # (d+1)/(d+2)
    for d in (1, 2):
        N = 2048
        a = [0] + [(n + 1) ** (d + 1) - n ** (d + 1) for n in range(1, N + 1)]
        b = euler_transform(a)
        fit = fit_stretched_exponent(b, [256, 512, 1024])
        target = (d + 1) / (d + 2)
        assert abs(fit.final - target) < 0.05, (d, fit.final, target)


def test_fit_rejects_b_values_that_are_not_int():
    b = [1, 1, 2, 3, 5, 8]
    for bad, message in (
        (["a"] * 10, "b must be int, not str"),
        (b[:2] + [2.0] + b[3:], "b must be int, not float"),
        (b[:4] + [True] + b[5:], "b must be int, not bool"),
        (b[:4] + [-5] + b[5:], "b must be >= 0"),
    ):
        with pytest.raises(ValueError) as exc:
            fit_stretched_exponent(bad, [2])
        assert str(exc.value) == message
    # only b_n and b_2n are read
    assert fit_stretched_exponent(b[:3] + ["c"] + b[4:], [2]) == fit_stretched_exponent(b, [2])


def test_fit_rejects_degenerate_points():
    b = [1, 1, 1, 2, 3, 4, 5, 6, 7]
    with pytest.raises(ValueError):
        fit_stretched_exponent(b, [1])  # b_1 = 1
    with pytest.raises(ValueError):
        fit_stretched_exponent(b, [8])  # 2n out of range
    with pytest.raises(ValueError):
        fit_stretched_exponent(b, [])
    with pytest.raises(ValueError, match=r"^point 2 needs b up to index 4$"):
        fit_stretched_exponent(5, [2])  # b not a sequence
    with pytest.raises(ValueError, match=r"^need at least one evaluation point$"):
        fit_stretched_exponent(b, 2)  # points not a collection
