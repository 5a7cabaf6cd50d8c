"""Exact-arithmetic layer: coefficients, floor indices, counts, gaps."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsum import (
    BinomialSequence,
    PowerSequence,
    asymptotic_ratio,
    binom,
    count_upto,
    floor_index,
    gap,
)
from binsum.binom import _binom_array


def pascal_rows(n_max: int) -> list[list[int]]:
    """Additive Pascal triangle, no multiplication: the independent oracle."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        rows.append(
            [1] + [prev[i - 1] + prev[i] for i in range(1, n)] + [1]
        )
    return rows


def test_binom_matches_pascal_triangle():
    rows = pascal_rows(60)
    for n in range(61):
        for k in range(n + 1):
            assert binom(n, k) == rows[n][k], (n, k)


def test_binom_hand_values():
    assert binom(5, 2) == 10
    assert binom(50, 3) == 19600
    assert binom(5, 0) == 1
    assert binom(5, 5) == 1
    assert binom(3, 5) == 0  # n < k


def test_binom_rejects_negatives():
    with pytest.raises(ValueError):
        binom(-1, 2)
    with pytest.raises(ValueError):
        binom(5, -1)


@given(st.integers(0, 300), st.integers(0, 300))
def test_binom_agrees_with_math_comb(n, k):
    assert binom(n, k) == math.comb(n, k)


def test_floor_index_hand_values():
    assert floor_index(2, 10) == 5  # C(5,2) = 10 exactly
    assert floor_index(1, 7) == 7
    assert floor_index(3, 1) == 3  # C(3,3) = 1 is the first element


def test_floor_index_is_tight():
    for k in range(1, 7):
        for bound in list(range(1, 200)) + [10**6, 10**9, 10**12]:
            n = floor_index(k, bound)
            assert binom(n, k) <= bound
            assert binom(n + 1, k) > bound


def bisect_floor(value_at, lo: int, bound: int) -> int:
    """Largest n >= lo with value_at(n) <= bound, for a nondecreasing
    value_at with value_at(lo) <= bound, by doubling and bisection on
    Python ints."""
    hi = lo + 1
    while value_at(hi) <= bound:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if value_at(mid) <= bound:
            lo = mid
        else:
            hi = mid
    return lo


def bracket_floor_index(k: int, bound: int) -> int:
    """Largest n with C(n, k) <= bound on math.comb: the reference
    floor_index's root estimate must match."""
    return bisect_floor(lambda n: math.comb(n, k), k, bound)


def test_floor_index_matches_bracket_reference():
    rng = random.Random(20260)
    for k in range(2, 11):
        indices = list(range(k, k + 150)) + [rng.randrange(k, 10**6) for _ in range(200)]
        bounds = [rng.randrange(1, 10 ** rng.randrange(1, 61)) for _ in range(200)]
        for n in indices + [bracket_floor_index(k, b) for b in bounds]:
            for bound in (math.comb(n, k) - 1, math.comb(n, k), math.comb(n, k) + 1):
                if bound >= 1:
                    assert floor_index(k, bound) == bracket_floor_index(k, bound), (k, bound)
        for bound in bounds:
            assert floor_index(k, bound) == bracket_floor_index(k, bound), (k, bound)


def test_floor_index_past_the_float_range():
    # k! * bound beyond 2**1000 takes an exact integer root, not a float;
    # order 100 near its first values starts furthest from the answer
    for k, bound in ((3, 10**400), (5, 2**2000 + 7), (30, 10**300), (100, 10**5)):
        n = floor_index(k, bound)
        assert math.comb(n, k) <= bound < math.comb(n + 1, k), (k, bound)


def test_floor_index_rejects_bad_inputs():
    with pytest.raises(ValueError):
        floor_index(0, 10)
    with pytest.raises(ValueError):
        floor_index(2, 0)


def brute_count(k: int, bound: int) -> int:
    n = k
    total = 0
    while binom(n, k) <= bound:
        total += 1
        n += 1
    return total


def test_count_upto_hand_values():
    assert count_upto(2, 10) == 4  # 1, 3, 6, 10
    assert count_upto(1, 7) == 7
    assert count_upto(3, 20) == 4  # 1, 4, 10, 20


def test_count_upto_matches_enumeration():
    for k in range(1, 6):
        for bound in range(1, 500):
            assert count_upto(k, bound) == brute_count(k, bound), (k, bound)


@given(st.integers(1, 6), st.integers(1, 10**15))
@settings(max_examples=200)
def test_floor_index_count_consistency(k, bound):
    n = floor_index(k, bound)
    assert n >= k
    assert binom(n, k) <= bound < binom(n + 1, k)
    assert count_upto(k, bound) == n - k + 1


def test_asymptotic_ratio_exact_for_order_one():
    # count_upto(1, X) = X and the leading term is exactly X, also past
    # the float range, where the ratio is taken from logarithms
    assert asymptotic_ratio(1, 1000) == 1.0
    assert asymptotic_ratio(1, 10**400) == 1.0


def test_asymptotic_ratio_approaches_one():
    assert 0.98 <= asymptotic_ratio(2, 10**6) <= 1.02
    assert 0.98 <= asymptotic_ratio(3, 10**9) <= 1.02
    for k in (2, 3):
        assert abs(asymptotic_ratio(k, 10**400) - 1.0) < 1e-12, k


def test_gap_hand_values():
    assert gap(3, 4) == 6  # C(5,3) - C(4,3) = 10 - 4
    assert gap(1, 5) == 1
    assert gap(2, 7) == 7  # consecutive triangulars differ by n


def test_gap_identity_small_grid():
    for k in range(2, 7):
        for n in range(k, 200):
            assert gap(k, n) == binom(n, k - 1)


def test_gap_rejects_index_below_order():
    with pytest.raises(ValueError):
        gap(3, 2)


def test_binomial_sequence_basics():
    seq = BinomialSequence(2)
    assert seq.first_index == 2
    assert seq.value(5) == 10
    assert seq.values_upto(10) == [1, 3, 6, 10]
    assert seq.values_upto(0) == []
    assert seq.index_of(6) == 4
    assert seq.index_of(7) is None
    assert seq.contains(3) and not seq.contains(2)


# bound stays small because k=1 materializes one value per integer
@given(st.integers(1, 5), st.integers(1, 10**5))
@settings(max_examples=100)
def test_sequence_values_are_strictly_increasing(k, bound):
    values = BinomialSequence(k).values_upto(bound)
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(v <= bound for v in values)


def _int64_top(k: int) -> int:
    """The largest n with n ** k below 2 ** 62, where values_upto's int64
    pass ends."""
    n = math.isqrt(2**62) if k == 2 else int(2 ** (62 / k))
    while n**k >= 2**62:
        n -= 1
    while (n + 1) ** k < 2**62:
        n += 1
    return n


@pytest.mark.parametrize("k", range(1, 13))
def test_binomial_values_upto_equals_binom_on_both_sides_of_int64(k):
    seq = BinomialSequence(k)
    top = _int64_top(k)
    # full lists wherever they stay small, up to where an int64 pass would
    # wrap; at k <= 3 the lists by the int64 limit are millions of values
    # long, so only the int64 pass (binom._binom_array) is checked there, on
    # its last indices
    near = (binom(top, k), binom(top + 1, k), binom(2 * top, k))
    for bound in (1, 999, 10**5) if k <= 3 else (1, 999, *near):
        want = [binom(n, k) for n in range(k, floor_index(k, bound) + 1)]
        assert seq.values_upto(bound) == want, bound
    n = np.arange(max(k, top - 200), top + 1, dtype=np.int64)
    assert _binom_array(n, k).tolist() == [binom(int(i), k) for i in n]


def test_power_sequence_basics():
    seq = PowerSequence(3)
    assert seq.first_index == 1
    assert seq.value(4) == 64
    assert seq.values_upto(100) == [1, 8, 27, 64]
    assert seq.floor_index(63) == 3
    assert seq.count_upto(64) == 4
    assert seq.index_of(27) == 3
    assert seq.index_of(28) is None
    # the exact integer root at n**k - 1, n**k and n**k + 1, past 2**64
    rng = random.Random(1729)
    for k in range(1, 11):
        power = PowerSequence(k)
        for n in [1, 2, 3, 10, 10**6 + 3, 10**29] + [rng.randrange(2, 10**29) for _ in range(20)]:
            for bound in (n**k - 1, n**k, n**k + 1):
                if bound >= 1:
                    want = bisect_floor(lambda m: m**k, 1, bound)
                    assert power.floor_index(bound) == want, (k, bound)


@given(st.integers(1, 5), st.integers(1, 10**12))
@settings(max_examples=100)
def test_power_floor_index_is_tight(k, bound):
    n = PowerSequence(k).floor_index(bound)
    assert n**k <= bound < (n + 1) ** k
