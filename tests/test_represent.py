"""Decomposition routes, minimal-summand tables, surveys, coverage."""
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsum import (
    CAP_MAX,
    EXCEEDS_CAP,
    BinomialSequence,
    Representation,
    ResourceBudgetError,
    SearchMode,
    binom,
    decompose_k2,
    decompose_k3,
    floor_index,
    greedy_chain,
    greedy_leading_term,
    min_rep_single,
    min_rep_table,
    minimal_representation,
    multiplicity_map,
    sumset_coverage_threshold,
    survey_min_rep,
    two_triangular,
)
from binsum import represent
from binsum.represent import _two_term_completion


def oracle_min_counts(k: int, n_max: int, distinct: bool = False) -> list:
    """Pure-Python minimal-summand DP, the reference for the numpy tables."""
    coins = BinomialSequence(k).values_upto(n_max)
    inf = float("inf")
    if not distinct:
        best = [inf] * (n_max + 1)
        best[0] = 0
        for target in range(1, n_max + 1):
            for v in coins:
                if v > target:
                    break
                if best[target - v] + 1 < best[target]:
                    best[target] = best[target - v] + 1
        return best
    # bounded-use DP: process coins one by one, targets descending
    best = [inf] * (n_max + 1)
    best[0] = 0
    for v in coins:
        for target in range(n_max, v - 1, -1):
            if best[target - v] + 1 < best[target]:
                best[target] = best[target - v] + 1
    return best


def bytewise_repeats_table(n: int, coins: list, cap: int) -> np.ndarray:
    """One byte per target, every coin of every layer: the reference for
    the packed repeats builder and its early layer exit."""
    counts = np.full(n + 1, EXCEEDS_CAP, dtype=np.uint8)
    counts[0] = 0
    reach = np.zeros(n + 1, dtype=bool)
    reach[0] = True
    for layer in range(1, cap + 1):
        new = reach.copy()
        for v in coins:
            np.logical_or(new[v:], reach[: n + 1 - v], out=new[v:])
        newly = new & ~reach
        if not newly.any():
            break
        counts[newly] = layer
        reach = new
    return counts


def bytewise_distinct_table(n: int, coins: list, cap: int) -> np.ndarray:
    """One byte per target and level, levels folded in descending order:
    the reference for the packed distinct builder."""
    levels = np.zeros((cap + 1, n + 1), dtype=bool)
    levels[0, 0] = True
    for seen, v in enumerate(coins):
        for t in range(min(cap, seen + 1), 0, -1):
            np.logical_or(levels[t, v:], levels[t - 1, : n + 1 - v], out=levels[t, v:])
    counts = np.full(n + 1, EXCEEDS_CAP, dtype=np.uint8)
    for t in range(cap, -1, -1):
        counts[levels[t]] = t
    return counts


def reference_search(target: int, k: int, max_terms: int, distinct: bool,
                     index_cap: int | None = None):
    """The depth-first search one candidate at a time, down to the last
    term: the reference for the vectorised two-term completion."""

    def dfs(remainder, budget, cap):
        if remainder == 0:
            return ()
        if budget == 0:
            return None
        n = min(cap, floor_index(k, remainder))
        while n >= k:
            v = binom(n, k)
            if v * budget < remainder:
                return None
            rest = dfs(remainder - v, budget - 1, n - 1 if distinct else n)
            if rest is not None:
                return (n, *rest)
            n -= 1
        return None

    if target == 0:
        return ()
    return dfs(target, max_terms, floor_index(k, target) if index_cap is None else index_cap)


def reference_minimal(target: int, k: int, h_max: int, distinct: bool):
    for budget in range(1, h_max + 1):
        found = reference_search(target, k, budget, distinct)
        if found is not None:
            return found
    return None


def legendre_pair_counts(r_max: int) -> np.ndarray:
    """Ordered pairs (x, y), x, y >= 0, with T_x + T_y = r for r <= r_max,
    where T_x = x (x + 1) / 2 = C(x + 1, 2): d_1(4r + 1) - d_3(4r + 1)
    (Legendre), from a divisor sieve with the character mod 4."""
    m_max = 4 * r_max + 1
    chi = np.zeros(m_max + 1, dtype=np.int64)
    for d in range(1, m_max + 1, 2):
        chi[d::d] += 1 if d % 4 == 1 else -1
    return chi[1::4]


def layer_uncovered(r_max: int) -> dict:
    """The full-layer reference for the coverage scan: the targets up to
    r_max that the order-2 distinct layer 2 of the layer walk misses, and
    those it misses once the doubles 2v are added (repeats), as bool arrays."""
    values = BinomialSequence(2).values_upto(r_max)
    *_, reach = represent._layer_walk(r_max + 1, values, 2, SearchMode.DISTINCT)
    distinct = ~represent._unpack(reach, r_max + 1)
    doubles = 2 * np.asarray(values)
    repeats = distinct.copy()
    repeats[doubles[doubles <= r_max]] = False
    return {"repeats": repeats, "distinct": distinct}


def primes_upto(n: int) -> np.ndarray:
    """The primes up to n, by the sieve of Eratosthenes."""
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def odd_power_of_a_prime_3_mod_4(n: int, primes: np.ndarray) -> bool:
    """Whether some prime q = 3 (mod 4) divides n to an odd power, by trial
    division over primes, which must hold every prime up to sqrt(n)."""
    for p in primes[n % primes == 0].tolist():
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if p % 4 == 3 and e % 2:
            return True
    return n % 4 == 3  # the cofactor is 1 or a prime


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees while fn runs, above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def record_estimates(monkeypatch) -> list:
    """The list that every later budget check in represent appends its
    working-set estimate to (a distinct table checks each pass)."""
    estimates = []
    check = represent._check_budget

    def recorded(required, budget, *args):
        estimates.append(required)
        check(required, budget, *args)

    monkeypatch.setattr(represent, "_check_budget", recorded)
    return estimates


def peak_and_estimate(monkeypatch, fn) -> tuple[int, int]:
    """Traced peak of fn, and the largest estimate it checked."""
    estimates = record_estimates(monkeypatch)
    return traced_peak(fn), max(estimates)


class TestRepresentation:
    def test_normalizes_and_validates(self):
        rep = Representation(16, 2, (3, 5, 3))
        assert rep.indices == (5, 3, 3)  # descending
        assert rep.values == (10, 3, 3)
        assert len(rep) == 3
        assert not rep.distinct

    def test_rejects_wrong_sum(self):
        with pytest.raises(ValueError):
            Representation(17, 2, (5, 3, 3))

    def test_distinct_flag(self):
        assert Representation(13, 2, (5, 3)).distinct
        assert not Representation(20, 2, (5, 5)).distinct


class TestGreedy:
    def test_leading_term_hand_values(self):
        assert greedy_leading_term(10, 2) == (5, 0)
        assert greedy_leading_term(11, 2) == (5, 1)
        assert greedy_leading_term(19, 3) == (5, 9)

    @given(st.integers(1, 10**9), st.integers(1, 5))
    @settings(max_examples=200)
    def test_leading_term_remainder_below_gap(self, target, k):
        n, remainder = greedy_leading_term(target, k)
        assert binom(n, k) + remainder == target
        assert 0 <= remainder < binom(n, k - 1)

    def test_chain_terminates(self):
        assert greedy_chain(10, 2) == [5]
        assert greedy_chain(11, 2) == [5, 2]
        chain = greedy_chain(10**6, 4)
        assert sum(binom(n, 4) for n in chain) == 10**6


class TestTwoTriangular:
    def test_hand_values(self):
        assert two_triangular(0) == ()
        assert two_triangular(10) == (5,)
        assert two_triangular(4) == (3, 2)  # 3 + 1
        assert two_triangular(5) is None  # 5 = T + T has no solution
        assert two_triangular(2) == (2, 2)  # 1 + 1, repeats only
        assert two_triangular(2, "distinct") is None

    def test_matches_enumeration(self):
        values = BinomialSequence(2).values_upto(400)
        for r in range(401):
            sums_r = {()} if r == 0 else set()
            for a in values:
                if a == r:
                    sums_r.add((a,))
                for b in values:
                    if a + b == r:
                        sums_r.add((a, b))
            got = two_triangular(r)
            assert (got is not None) == bool(sums_r), r
            if got is not None:
                assert sum(binom(n, 2) for n in got) == r

    def test_distinct_matches_enumeration(self):
        values = BinomialSequence(2).values_upto(400)
        for r in range(401):
            ok = r == 0 or r in values or any(
                a + b == r for a, b in itertools.combinations(values, 2)
            )
            got = two_triangular(r, SearchMode.DISTINCT)
            assert (got is not None) == ok, r

    def test_legendre_count_decides_existence(self):
        # positive pairs = Legendre's count minus the two T_0 pairs of a
        # triangular r; distinct mode also drops the pair (a, a) of r = 2 T(a)
        r_max = 10**5
        pairs = legendre_pair_counts(r_max)
        triangular = set(BinomialSequence(2).values_upto(r_max))
        doubled = {2 * t for t in triangular}
        for r in range(1, r_max + 1):
            tri = r in triangular
            positive = int(pairs[r]) - 2 * tri
            assert (two_triangular(r) is not None) == (tri or positive > 0), r
            distinct = tri or positive - (r in doubled) > 0
            assert (two_triangular(r, "distinct") is not None) == distinct, r

    def test_legendre_count_matches_multiplicity_map(self):
        s_max = binom(200, 2)
        pairs = legendre_pair_counts(s_max)
        triangular = set(BinomialSequence(2).values_upto(s_max))
        tally = multiplicity_map(2, 2, 200)
        for s in range(1, s_max + 1):
            assert tally.get(s, 0) == int(pairs[s]) - 2 * (s in triangular), s

    @pytest.mark.parametrize(
        "remainder", [1336164615, 2102933990, 4653837030, 2331445222, 1200000000]
    )
    def test_scan_longer_than_one_block(self, remainder):
        # the first witness lies more than two 4096-candidate blocks below
        # the top, then exactly 4096 below it (the first candidate of the
        # second block); 1.2e9 has no witness among about 14k candidates
        for distinct in (False, True):
            mode = "distinct" if distinct else "repeats"
            assert two_triangular(remainder, mode) == reference_search(
                remainder, 2, 2, distinct
            )


class TestDecompose:
    def test_k2_hand_values(self):
        assert decompose_k2(20).values == (10, 10)
        assert decompose_k2(5).values == (3, 1, 1)
        assert decompose_k2(6).values == (6,)
        assert decompose_k2(5, "distinct") is None

    def test_k2_always_three_terms_up_to_10000(self):
        for n in range(1, 10001):
            rep = decompose_k2(n)
            assert rep is not None and len(rep) <= 3, n

    def test_constructive_routes_are_the_bounded_search(self):
        # each constructive route answers with the first hit of the search
        # within 3 or 7 terms, whose first branch is the greedy peel
        rng = np.random.default_rng(16)
        targets = [*range(1, 3001), *rng.integers(3001, 10**12, size=100).tolist()]
        for n in targets:
            for distinct in (False, True):
                rep = decompose_k2(n, "distinct" if distinct else "repeats")
                assert (None if rep is None else rep.indices) == reference_search(
                    n, 2, 3, distinct
                ), (n, distinct)
            assert decompose_k3(n).indices == reference_search(n, 3, 7, False), n

    def test_k3_hand_values(self):
        assert decompose_k3(10).values == (10,)
        rep = decompose_k3(17)
        assert sum(rep.values) == 17 and len(rep) <= 7
        rep = decompose_k3(106)
        assert sum(rep.values) == 106 and len(rep) <= 7

    def test_k3_always_seven_terms_up_to_10000(self):
        for n in range(1, 10001):
            rep = decompose_k3(n)
            assert rep is not None and len(rep) <= 7, n

    @given(st.integers(1, 10**12))
    @settings(max_examples=100, deadline=None)
    def test_k2_large_targets(self, n):
        rep = decompose_k2(n)
        assert rep is not None and len(rep) <= 3
        assert sum(rep.values) == n

    @given(st.integers(1, 10**9))
    @settings(max_examples=50, deadline=None)
    def test_k3_large_targets(self, n):
        rep = decompose_k3(n)
        assert rep is not None and len(rep) <= 7
        assert sum(rep.values) == n


class TestMinimalRepresentation:
    def test_first_budget_found_is_minimal(self):
        rep = minimal_representation(17, 3)
        assert len(rep) == 5
        assert sum(rep.values) == 17

    def test_none_when_budget_too_small(self):
        assert minimal_representation(17, 3, h_max=4) is None
        assert min_rep_single(17, 3, h_max=4) is None

    def test_single_hand_values(self):
        assert min_rep_single(17, 3, 8) == 5
        assert min_rep_single(binom(1000, 3), 3, 5) == 1
        assert min_rep_single(5, 2, 3, "distinct") is None

    def test_large_target_order_two(self):
        n = 10**9 + 7
        assert min_rep_single(n, 2, 3) == 3
        # independent check that two terms are impossible: for every
        # triangular t <= n, n - t is not triangular
        values = BinomialSequence(2).values_upto(n)
        two = any(
            BinomialSequence(2).contains(n - t) for t in values if n - t >= 1
        )
        assert not two

    def test_agrees_with_table(self):
        for mode in ("repeats", "distinct"):
            table = min_rep_table(2, 300, cap=9, mode=mode)
            for n in range(1, 301):
                assert table.count(n) == min_rep_single(n, 2, 9, mode), (n, mode)


class TestSingleTargetSearch:
    """The vectorised two-term completion returns the witnesses of the
    search that walks one candidate at a time."""

    # decompose_k2 in both modes at 40 seeded targets in [10^3, 10^15] (22
    # need the bounded search), recorded before the completion was
    # vectorised
    GOLDEN_K2 = [
        (2435, (70, 5, 5), (68, 17, 7)),
        (4700, (95, 20, 10), (95, 20, 10)),
        (14361, (169, 16, 10), (169, 16, 10)),
        (21431, (207, 11, 11), (200, 53, 18)),
        (24375, (221, 11, 5), (221, 11, 5)),
        (169171, (582, 11, 10), (582, 11, 10)),
        (257457, (717, 37, 15), (717, 37, 15)),
        (446341, (945, 25, 2), (945, 25, 2)),
        (749807, (1223, 68, 24), (1223, 68, 24)),
        (1869479, (1934, 23, 6), (1934, 23, 6)),
        (664019324, (36437, 643, 86), (36437, 643, 86)),
        (1038242936, (45567, 416, 86), (45567, 416, 86)),
        (1066376841, (46182, 151, 10), (46182, 151, 10)),
        (2993114006, (77370, 419, 116), (77370, 419, 116)),
        (3468981415, (83293, 467, 324), (83293, 467, 324)),
        (3735665849, (86436, 458, 164), (86436, 458, 164)),
        (4746677580, (97428, 1014, 459), (97428, 1014, 459)),
        (6563821707, (114576, 297, 102), (114576, 297, 102)),
        (8112516176, (127377, 500, 101), (127377, 500, 101)),
        (11579210816, (152177, 851, 106), (152177, 851, 106)),
        (19178661557, (195850, 497, 224), (195850, 497, 224)),
        (32086852285, (253325, 516, 370), (253325, 516, 370)),
        (185217048080, (608633, 737, 184), (608633, 737, 184)),
        (357417503726, (845474, 2285, 2086), (845474, 2285, 2086)),
        (2351633970763, (2168701, 2193, 1130), (2168701, 2193, 1130)),
        (2672002293403, (2311708, 3266, 1536), (2311708, 3266, 1536)),
        (3730716571115, (2731562, 2057, 828), (2731562, 2057, 828)),
        (6665449331668, (3651150, 1820, 1638), (3651150, 1820, 1638)),
        (7167119736960, (3786057, 3942, 343), (3786057, 3942, 343)),
        (16213150386965, (5694410, 830, 730), (5694410, 830, 730)),
        (19111084210447, (6182405, 6432, 1287), (6182405, 6432, 1287)),
        (23028471934731, (6786526, 3912, 456), (6786526, 3912, 456)),
        (32244796972850, (8030540, 5411, 106), (8030540, 5411, 106)),
        (36785482496220, (8577352, 1912, 1608), (8577352, 1912, 1608)),
        (59067913891021, (10869028, 7738, 3020), (10869028, 7738, 3020)),
        (67206709365533, (11593676, 10313, 886), (11593676, 10313, 886)),
        (73570593094817, (12130175, 7259, 322), (12130175, 7259, 322)),
        (117962986095658, (15359882, 3349, 1134), (15359882, 3349, 1134)),
        (118145772667974, (15371777, 4160, 3908), (15371777, 4160, 3908)),
        (136256239683552, (16507952, 4052, 476), (16507952, 4052, 476)),
    ]

    # min-rep --k 3 at seeded targets up to 10^6, recorded the same way
    GOLDEN_MIN_REP_K3 = [
        (19, (5, 4, 4, 3)),
        (30, (6, 5)),
        (38, (7, 3, 3, 3)),
        (46, (7, 5, 3)),
        (97, (8, 6, 6, 3)),
        (101, (8, 7, 5)),
        (138, (10, 5, 4, 4)),
        (1053, (19, 9)),
        (1423, (19, 13, 9, 9)),
        (1988, (22, 14, 9)),
        (2332, (23, 16, 3)),
        (3651, (28, 14, 5, 3)),
        (7253, (36, 8, 8, 3)),
        (34851, (60, 15, 10, 8)),
        (55451, (63, 46, 16)),
        (134919, (77, 59, 57)),
        (220450, (107, 51, 20)),
        (545875, (149, 30, 22, 3)),
        (840382, (168, 57, 53, 42)),
        (864571, (173, 45, 25, 7)),
    ]

    def test_golden_decompose_k2(self):
        for target, repeats, distinct in self.GOLDEN_K2:
            assert decompose_k2(target).indices == repeats, target
            assert decompose_k2(target, "distinct").indices == distinct, target

    def test_k2_fallback_skips_the_failed_completion(self, monkeypatch):
        # every scan at a leading term n has its own remainder N - C(n, 2),
        # so a repeated remainder is a repeated scan
        remainders = []
        real = represent._two_term_completion
        monkeypatch.setattr(
            represent,
            "_two_term_completion",
            lambda r, *rest: remainders.append(r) or real(r, *rest),
        )
        fallbacks = 0
        for target, repeats, distinct in self.GOLDEN_K2:
            for mode, indices in (("repeats", repeats), ("distinct", distinct)):
                remainders.clear()
                assert decompose_k2(target, mode).indices == indices, target
                assert len(remainders) == len(set(remainders)), (target, mode)
                fallbacks += len(remainders) > 1
        assert fallbacks >= 20

    def test_golden_min_rep_k3(self):
        for target, indices in self.GOLDEN_MIN_REP_K3:
            assert minimal_representation(target, 3).indices == indices, target

    def test_minimal_representation_matches_reference(self):
        rng = np.random.default_rng(11)
        for k, hi, h_max in ((2, 10**6, 3), (3, 10**4, 5), (4, 3000, 6), (5, 2000, 6), (6, 1500, 5)):
            for target in rng.integers(1, hi, size=40).tolist():
                for distinct in (False, True):
                    mode = "distinct" if distinct else "repeats"
                    rep = minimal_representation(target, k, h_max, mode)
                    expected = reference_minimal(target, k, h_max, distinct)
                    assert (None if rep is None else rep.indices) == expected, (k, target, mode)

    def test_small_indices_near_the_order(self):
        # the rounded index estimate is least accurate for b close to k
        for k in range(2, 7):
            for a in range(k, k + 30):
                for b in range(k, a + 1):
                    target = binom(a, k) + binom(b, k)
                    for distinct in (False, True):
                        mode = "distinct" if distinct else "repeats"
                        rep = minimal_representation(target, k, 2, mode)
                        expected = reference_minimal(target, k, 2, distinct)
                        assert (None if rep is None else rep.indices) == expected

    def test_index_cap_matches_reference(self):
        # the bounded search caps the leading index of every two-terms-left node
        for k in (2, 3):
            for r in range(1, 300):
                for cap in range(1, 26):
                    for distinct in (False, True):
                        expected = reference_search(r, k, 2, distinct, index_cap=cap)
                        got = _two_term_completion(r, k, cap, distinct)
                        assert got == expected, (k, r, cap, distinct)

    @pytest.mark.parametrize(
        "target, distinct",
        [(1500000000000, False), (32928790723384, True), (33956732891060, True)],
    )
    def test_order_three_scan_longer_than_one_block(self, target, distinct):
        mode = "distinct" if distinct else "repeats"
        rep = minimal_representation(target, 3, 2, mode)
        assert (None if rep is None else rep.indices) == reference_minimal(target, 3, 2, distinct)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_int64_limit_edges(self, k):
        # the largest top with top ** k < 2 ** 62 takes the int64 scan, the
        # next one (and one whose products pass 2 ** 64) the Python-int
        # walk; C(b, k) below the gap C(top, k - 1) keeps top the first
        # candidate, so (top, b) is the witness
        limit = round(2 ** (62 / k))
        while limit**k >= 2**62:
            limit -= 1
        while (limit + 1) ** k < 2**62:
            limit += 1
        for top in (limit, limit + 1, 2 * limit):
            widest = floor_index(k, binom(top, k - 1) - 1)
            for b in (k, k + 1, widest // 2, widest):
                target = binom(top, k) + binom(b, k)
                assert minimal_representation(target, k, 2).indices == (top, b)
                if b < top:
                    rep = minimal_representation(target, k, 2, "distinct")
                    assert rep.indices == (top, b)

    def test_huge_targets_answer_in_little_memory(self):
        # no array sized by the target: both answers come from the top of
        # their candidate ranges
        big = binom(2**70, 2) + binom(2**34, 2) + binom(5, 2)
        for mode in ("repeats", "distinct"):
            peak = traced_peak(lambda: decompose_k2(big, mode))
            assert peak < 2**20
            assert decompose_k2(big, mode).indices == (2**70, 2**34, 5)
        assert traced_peak(lambda: decompose_k3(10**40)) < 2**20
        assert decompose_k3(10**40).indices == (
            39148676411689, 1429970567, 1610593, 10025, 263, 29, 25
        )


class TestMinRepTable:
    def test_hand_values_order_two(self):
        t = min_rep_table(2, 30)
        assert [t.count(n) for n in range(1, 7)] == [1, 2, 1, 2, 3, 1]
        assert t.count(0) == 0

    def test_hand_value_order_three(self):
        t = min_rep_table(3, 30)
        assert t.count(17) == 5

    def test_order_one_is_identity(self):
        t = min_rep_table(1, 100)
        assert all(t.count(n) == 1 for n in range(1, 101))

    def test_matches_python_oracle(self):
        for k in (2, 3):
            oracle = oracle_min_counts(k, 400)
            table = min_rep_table(k, 400)
            for n in range(401):
                want = None if oracle[n] == float("inf") else oracle[n]
                assert table.count(n) == want, (k, n)

    def test_distinct_matches_python_oracle(self):
        for k in (2, 3):
            oracle = oracle_min_counts(k, 400, distinct=True)
            table = min_rep_table(k, 400, cap=12, mode="distinct")
            for n in range(401):
                want = oracle[n]
                got = table.count(n)
                if want == float("inf") or want > 12:
                    assert got is None, (k, n)
                else:
                    assert got == want, (k, n)

    def test_distinct_never_below_repeats(self):
        rep = min_rep_table(2, 2000)
        dis = min_rep_table(2, 2000, cap=20, mode="distinct")
        for n in range(2001):
            r, d = rep.count(n), dis.count(n)
            assert d is None or d >= r, n

    def test_cap_marks_exceeding_cells(self):
        # with cap=1 only exact triangulars (and 0) are reachable
        t = min_rep_table(2, 20, cap=1)
        reachable = {0, 1, 3, 6, 10, 15}
        for n in range(21):
            if n in reachable:
                assert t.count(n) == (0 if n == 0 else 1)
            else:
                assert t.count(n) is None
        assert int(t.counts[2]) == EXCEEDS_CAP

    def test_range_check(self):
        t = min_rep_table(2, 10)
        with pytest.raises(ValueError):
            t.count(11)

    @pytest.mark.parametrize("range_end", [62, 63, 64, 65, 127, 128, 129])
    def test_word_boundaries_match_python_oracle(self, range_end):
        # targets and coins on both sides of the 64-bit word edges
        for k in (2, 3, 4):
            for mode in ("repeats", "distinct"):
                oracle = oracle_min_counts(k, range_end, distinct=mode == "distinct")
                table = min_rep_table(k, range_end, mode=mode)
                for n in range(range_end + 1):
                    want = None if oracle[n] == float("inf") else oracle[n]
                    assert table.count(n) == want, (k, mode, n)

    def test_coin_on_a_word_boundary(self):
        # C(128, 2) = 8128 = 64 * 127 starts a word
        assert binom(128, 2) == 64 * 127
        for mode in ("repeats", "distinct"):
            oracle = oracle_min_counts(2, 8200, distinct=mode == "distinct")
            counts = min_rep_table(2, 8200, cap=12, mode=mode).counts
            want = [EXCEEDS_CAP if c == float("inf") or c > 12 else c for c in oracle]
            assert counts.tolist() == want, mode

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_packed_builders_equal_bytewise_reference(self, k):
        n = 2 * 10**5
        coins = BinomialSequence(k).values_upto(n)
        for cap in (CAP_MAX, 2):
            got = min_rep_table(k, n, cap).counts
            assert np.array_equal(got, bytewise_repeats_table(n, coins, cap)), cap
        for cap in (8, 3, 2):
            got = min_rep_table(k, n, cap, "distinct").counts
            assert np.array_equal(got, bytewise_distinct_table(n, coins, cap)), cap
        # seeded small ranges: every byte phase of the layer-2 windows, and
        # the tiny ranges (k=2, n <= 4) where layer 2 already fills
        rng = random.Random(k)
        cases = [(n, cap) for n in range(5) for cap in range(1, 9)]
        cases += [(rng.randint(5, 5000), rng.randint(1, 8)) for _ in range(60)]
        for n, cap in cases:
            coins = BinomialSequence(k).values_upto(n)
            got = min_rep_table(k, n, cap).counts
            assert np.array_equal(got, bytewise_repeats_table(n, coins, cap)), (n, cap)
            got = min_rep_table(k, n, cap, "distinct").counts
            assert np.array_equal(got, bytewise_distinct_table(n, coins, cap)), (n, cap)

    def test_distinct_prefix_branches(self, monkeypatch):
        # a base of 512 cells runs the prefix recursion at a few thousand
        monkeypatch.setattr(represent, "_PREFIX_BASE", 512)
        passes = []
        table, layered = represent._distinct_table, represent._layered_counts

        def logged_table(counts, coins, cap):
            passes.append(("grid", counts.size, cap))
            table(counts, coins, cap)

        def logged_layers(counts, coins, depth, mode):
            passes.append(("window", counts.size, depth))
            return layered(counts, coins, depth, mode)

        monkeypatch.setattr(represent, "_distinct_table", logged_table)
        monkeypatch.setattr(represent, "_layered_counts", logged_layers)

        def check(k, n, cap=8):
            passes.clear()
            got = min_rep_table(k, n, cap, "distinct").counts
            want = bytewise_distinct_table(n, BinomialSequence(k).values_upto(n), cap)
            assert np.array_equal(got, want), (k, n, cap)
            return list(passes)

        # below the base: one pass at the cap
        assert check(2, 400) == [("grid", 401, 8)]
        # the prefix [0, 46] holds 33, which has no distinct representation
        # in its top half: depth cap, one full-depth pass
        assert check(2, 3000) == [("grid", 47, 8), ("grid", 3001, 8)]
        # the top half of [0, 78] needs at most 3 terms: window layers up to
        # 3 cover the whole range but miss 110 = 55 + 45 + 10, above this
        # prefix, so the fallback rebuilds [0, 110] at the cap
        assert check(2, 5000) == [("grid", 79, 8), ("window", 5001, 3), ("grid", 111, 8)]
        # two levels of recursion: [0, 9] holds 5 and 8, so [0, 625] is built
        # at the cap; its top half needs at most 3 terms, and the prefix
        # (20 needs 4; 23 and 33 none; 110 needs 3) is copied back
        assert check(2, 40000) == [("grid", 10, 8), ("grid", 626, 8), ("window", 40001, 3)]
        # depth 5 is past the windows: a 5-level grid
        assert check(3, 200000) == [("grid", 49, 8), ("grid", 3126, 8), ("grid", 200001, 5)]

        # one level too shallow leaves targets above the prefix uncovered:
        # the fallback is one full-depth pass over [0, u], u the last of them
        read = represent._prefix_depth
        monkeypatch.setattr(
            represent, "_prefix_depth", lambda top_half: read(top_half) - 1
        )
        log = check(2, 5000)
        assert log[:2] == [("grid", 79, 8), ("window", 5001, 2)] and len(log) == 3
        assert log[2][0] == "grid" and 79 < log[2][1] <= 5001 and log[2][2] == 8
        for k, n, kind in ((2, 40000, "window"), (3, 200000, "grid")):
            log = check(k, n)
            assert log[-2][:2] == (kind, n + 1) and log[-2][2] < 8
            assert log[-1][0] == "grid" and log[-1][2] == 8

        # from the floor up to the base: the prefix only where window layers
        # may finish the table, and only window layers after it
        monkeypatch.setattr(represent, "_prefix_depth", read)
        monkeypatch.setattr(represent, "_PREFIX_BASE", 2**16)
        floor = represent._PREFIX_FLOOR
        assert check(2, floor - 1) == [("grid", floor, 8)]
        assert check(2, floor) == [("grid", 67, 8), ("window", floor + 1, 3), ("grid", 111, 8)]
        # too few sums of up to three order-3 coins: one pass at the cap
        assert check(3, 20000) == [("grid", 20001, 8)]
        # a depth read past the windows falls through to the pass at the cap
        monkeypatch.setattr(represent, "_prefix_depth", lambda top_half: read(top_half) + 1)
        assert check(2, 5000) == [("grid", 79, 8), ("grid", 5001, 8)]

    def test_tetrahedral_five_term_targets_are_oeis_a000797(self):
        # Pollock's conjecture: 241 integers need five tetrahedral numbers,
        # the largest being 343867 (OEIS A000797)
        five = np.flatnonzero(min_rep_table(3, 10**6).counts == 5)
        assert five.size == 241
        assert five[-1] == 343867
        assert five[:5].tolist() == [17, 27, 33, 52, 73]

    def test_memory_budget_enforced(self):
        with pytest.raises(ResourceBudgetError) as info:
            min_rep_table(2, 10**6, memory_budget=1000)
        assert info.value.required > info.value.budget

    # distinct: k = 2 reads depth 3 from the prefix (window layers), k = 3
    # reads 5 (a 5-level grid), k = 4 reads the cap and builds the full
    # depth after the prefix
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("mode", ["repeats", "distinct"])
    def test_traced_peak_within_estimate(self, monkeypatch, k, mode):
        n = 2 * 10**5
        with pytest.raises(ResourceBudgetError):
            min_rep_table(k, n, mode=mode, memory_budget=0)
        peak, estimate = peak_and_estimate(monkeypatch, lambda: min_rep_table(k, n, mode=mode))
        assert peak <= estimate

    @pytest.mark.parametrize("k", [2, 3])
    def test_traced_peak_within_estimate_on_distinct_fallback(self, monkeypatch, k):
        # depth 1 leaves nearly every target above the prefix uncovered, so
        # the full-depth pass over [0, u] runs while the counts are held
        monkeypatch.setattr(represent, "_prefix_depth", lambda top_half: 1)
        n = 2 * 10**5
        with pytest.raises(ResourceBudgetError):
            min_rep_table(k, n, mode="distinct", memory_budget=0)
        peak, estimate = peak_and_estimate(
            monkeypatch, lambda: min_rep_table(k, n, mode="distinct")
        )
        assert peak <= estimate

    def test_traced_peak_within_estimate_below_the_base(self, monkeypatch):
        # order 2 takes the prefix and window route from the floor up
        n = 2 * 10**4
        assert represent._PREFIX_FLOOR <= n < represent._PREFIX_BASE
        peak, estimate = peak_and_estimate(
            monkeypatch, lambda: min_rep_table(2, n, mode="distinct")
        )
        assert peak <= estimate

    def test_distinct_estimate_is_tight_at_ten_million(self, monkeypatch):
        # the largest pass is the depth-3 window build over the whole range
        peak, estimate = peak_and_estimate(
            monkeypatch, lambda: min_rep_table(2, 10**7, mode="distinct")
        )
        assert estimate / 2 <= peak <= estimate

    def test_default_budget_admits_distinct_at_ten_to_the_eight(self):
        # a zero budget refuses the first charge: the counts and the coins,
        # held up front; each distinct pass is checked only as it comes
        with pytest.raises(ResourceBudgetError) as info:
            min_rep_table(2, 10**8, mode="distinct", memory_budget=0)
        assert 10**8 < info.value.required < represent.DEFAULT_MEMORY_BUDGET // 8

    def test_distinct_fallback_checked_before_it_allocates(self, monkeypatch):
        # a forced depth of 1 sends nearly the whole range to the fallback,
        # the last and largest pass; one byte less refuses only that pass
        monkeypatch.setattr(represent, "_prefix_depth", lambda top_half: 1)
        n = 2 * 10**5
        estimates = record_estimates(monkeypatch)
        min_rep_table(2, n, mode="distinct")
        fallback = estimates[-1]
        assert fallback == max(estimates) and fallback > max(estimates[:-1])
        with pytest.raises(ResourceBudgetError) as info:
            min_rep_table(2, n, mode="distinct", memory_budget=fallback - 1)
        assert info.value.required == fallback

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            min_rep_table(0, 10)
        with pytest.raises(ValueError):
            min_rep_table(2, 10, cap=0)
        with pytest.raises(ValueError):
            min_rep_table(2, 10, cap=255)


class TestDistinctWindows:
    """The shallow distinct pass from window layers, and the tables past the
    prefix base that use it."""

    @staticmethod
    def window_counts(k: int, n: int, depth: int) -> tuple:
        coins = BinomialSequence(k).values_upto(n)
        counts = np.empty(n + 1, dtype=np.uint8)
        return represent._layered_counts(counts, coins, depth, SearchMode.DISTINCT), coins

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_layer_two_is_the_pair_set(self, k):
        n = 5 * 10**4
        got, coins = self.window_counts(k, n, 2)
        assert np.array_equal(got, bytewise_distinct_table(n, coins, 2))

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_first_reached_at_layer_three_needs_three(self, k):
        n = 5 * 10**4
        got, coins = self.window_counts(k, n, 3)
        want = bytewise_distinct_table(n, coins, 3)
        reached = got != EXCEEDS_CAP
        assert np.array_equal(got[reached], want[reached])
        assert np.count_nonzero(got == 3) > 0

    def test_110_is_the_only_order_two_target_the_windows_miss(self):
        # 110 = 55 + 45 + 10, and 45 + 10 is not below 55
        n = 2 * 10**5
        got, coins = self.window_counts(2, n, 3)
        want = bytewise_distinct_table(n, coins, 3)
        assert np.flatnonzero(got != want).tolist() == [110]
        assert want[110] == 3 and got[110] == EXCEEDS_CAP

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_table_past_the_base_equals_bytewise_reference(self, k):
        n = random.Random(k).randint(2**16, 2**16 + 2**14)
        coins = BinomialSequence(k).values_upto(n)
        for cap in (3, 4, 8):
            got = min_rep_table(k, n, cap, "distinct").counts
            assert np.array_equal(got, bytewise_distinct_table(n, coins, cap)), (n, cap)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_table_below_the_base_equals_bytewise_reference(self, k):
        # at k = 2 the prefix and window layers, else one pass at the cap
        rng = random.Random(20 + k)
        for cap in (3, 8, CAP_MAX):
            for n in (rng.randrange(4096, 2**16) for _ in range(2)):
                coins = BinomialSequence(k).values_upto(n)
                got = min_rep_table(k, n, cap, "distinct").counts
                assert np.array_equal(got, bytewise_distinct_table(n, coins, cap)), (n, cap)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_table_at_the_full_cap_equals_bytewise_reference(self, monkeypatch, k):
        # a base of 512 puts the prefixes on both sides of 110 at k = 2
        monkeypatch.setattr(represent, "_PREFIX_BASE", 512)
        rng = random.Random(10 + k)
        for n in (rng.randint(4500, 7000), rng.randint(7000, 12000)):
            coins = BinomialSequence(k).values_upto(n)
            got = min_rep_table(k, n, CAP_MAX, "distinct").counts
            assert np.array_equal(got, bytewise_distinct_table(n, coins, CAP_MAX)), n


def table_survey(k: int, n_min: int, n_max: int, cap: int, witnesses: int, exceptions: int):
    """A survey's (max_terms, witnesses, exceptions, exception_count), read
    from a scan of the min_rep_table counts over [n_min, n_max]."""
    counts = min_rep_table(k, n_max, cap).counts[n_min:]
    reached = counts[counts != EXCEEDS_CAP]
    best = int(reached.max()) if reached.size else None
    hits = np.flatnonzero(counts == best)[:witnesses] + n_min if reached.size else []
    missing = np.flatnonzero(counts == EXCEEDS_CAP) + n_min
    return (best, tuple((int(n), best) for n in hits), tuple(missing[:exceptions].tolist()),
            missing.size)


class TestSurvey:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_repeats_survey_equals_table_scan(self, k):
        # the layer read of a repeats survey against the counts it skips:
        # range ends on both sides of a word end, n_min at 1 and past it
        rng = random.Random(2800 + k)
        for n_max in (63, 64, 65, 4095, 4096, 4097):
            for n_min in (1, rng.randint(2, n_max)):
                for cap in (1, 2, 3, 5, CAP_MAX):
                    for w, e in itertools.product((0, 1, 120), repeat=2):
                        s = survey_min_rep(k, n_min, n_max, cap=cap, max_witnesses=w,
                                           max_exceptions=e)
                        got = (s.max_terms, s.witnesses, s.exceptions, s.exception_count)
                        assert got == table_survey(k, n_min, n_max, cap, w, e), (
                            n_min, n_max, cap, w, e)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint64])
    def test_set_bits_listed_and_counted_across_windows(self, monkeypatch, dtype):
        # two-word windows, so hits run across many windows
        monkeypatch.setattr(represent, "_HIT_WINDOW", 2)
        rng = np.random.default_rng(2801)
        for density in (0.0, 0.01, 0.5, 1.0):
            bits = rng.random(64 * 13) < density
            words = np.packbits(bits, bitorder="little").view(dtype)
            where = (np.flatnonzero(bits) + 7).tolist()
            for limit in (0, 1, 5, 64, 10**9):
                assert represent._first_bits(words, limit, 7) == where[:limit], (density, limit)
            assert represent._bit_count(words) == len(where)

    @pytest.mark.parametrize("mode", ["repeats", "distinct"])
    def test_survey_without_numpy_bitwise_count(self, monkeypatch, mode):
        # NumPy before 2.0 has no bitwise_count; the floor is 1.24
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        for k in (1, 3):
            s = survey_min_rep(k, 20, 5000, mode, cap=2)
            assert s.exception_count == int(np.count_nonzero(
                min_rep_table(k, 5000, 2, mode).counts[20:] == EXCEEDS_CAP))

    @pytest.mark.parametrize("k", [2, 3])
    def test_repeats_survey_with_unbounded_limits(self, k):
        # every witness and every exception of a capped range
        for cap in (2, 3):
            s = survey_min_rep(k, 5, 20000, cap=cap, max_witnesses=10**9,
                               max_exceptions=10**9)
            got = (s.max_terms, s.witnesses, s.exceptions, s.exception_count)
            assert got == table_survey(k, 5, 20000, cap, 10**9, 10**9), cap

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_repeats_traced_peak_within_estimate(self, monkeypatch, k):
        n = 2 * 10**5
        # refused before the coins or any layer are listed
        refused = traced_peak(lambda: pytest.raises(ResourceBudgetError, survey_min_rep,
                                                    k, 1, n, memory_budget=0))
        assert refused < n // 8
        peak, estimate = peak_and_estimate(monkeypatch, lambda: survey_min_rep(k, 1, n))
        assert peak <= estimate

    def test_small_survey_order_two(self):
        s = survey_min_rep(2, 1, 1000)
        assert s.max_terms == 3
        assert s.witnesses[0] == (5, 3)
        assert s.exception_count == 0

    def test_small_survey_order_three(self):
        s = survey_min_rep(3, 1, 1000)
        assert s.max_terms == 5
        assert [n for n, _ in s.witnesses[:4]] == [17, 27, 33, 52]

    def test_witnesses_ascending_and_capped(self):
        s = survey_min_rep(2, 1, 10**5, max_witnesses=7)
        targets = [n for n, _ in s.witnesses]
        assert targets == sorted(targets)
        assert len(s.witnesses) == 7

    def test_distinct_exceptions(self):
        s = survey_min_rep(2, 1, 10**4, "distinct")
        assert s.exceptions == (2, 5, 8, 12, 23, 33)
        assert s.exception_count == 6
        assert s.max_terms == 4
        assert s.witnesses == ((20, 4),)

    def test_hit_lists_match_the_table(self):
        # hits spread over many scan windows
        table = min_rep_table(2, 30000, cap=2).counts
        s = survey_min_rep(2, 1, 30000, cap=2, max_witnesses=6000, max_exceptions=9000)
        missing = np.flatnonzero(table[1:] == EXCEEDS_CAP) + 1
        assert s.max_terms == 2
        assert [n for n, _ in s.witnesses] == (np.flatnonzero(table[1:] == 2) + 1)[:6000].tolist()
        assert list(s.exceptions) == missing[:9000].tolist()
        assert s.exception_count == missing.size

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            survey_min_rep(2, 10, 5)
        with pytest.raises(ValueError):
            survey_min_rep(2, 0, 5)


class TestCoverage:
    def test_hand_value_small(self):
        # sums of <= 2 triangulars reach {0,1,2,3,4,6,7,9,10,...}; 5 and 8
        # are missed, so the largest blocked R under 10 is 10 itself
        assert sumset_coverage_threshold(10) == (10, 10)
        assert sumset_coverage_threshold(10).distinct == 10

    def test_matches_enumeration(self):
        # every r_max up to 600: all byte phases of the window ends, and
        # several word ends
        values = BinomialSequence(2).values_upto(600)
        pairs = {
            "repeats": itertools.combinations_with_replacement(values, 2),
            "distinct": itertools.combinations(values, 2),
        }
        reach = {mode: {0, *values} | {a + b for a, b in p} for mode, p in pairs.items()}
        uncovered = dict.fromkeys(pairs, 0)  # the largest uncovered m <= r_max, 0 for none
        for r_max in range(1, 601):
            got = sumset_coverage_threshold(r_max)._asdict()
            for mode in pairs:
                if r_max not in reach[mode]:
                    uncovered[mode] = r_max
                assert got[mode] == min(2 * uncovered[mode], r_max), (r_max, mode)

    def test_memory_budget_enforced(self):
        with pytest.raises(ResourceBudgetError):
            sumset_coverage_threshold(10**6, memory_budget=100)

    @pytest.mark.parametrize("window", [1, 7, 64, represent._COVER_WINDOW])
    def test_window_scan_equals_the_full_layer(self, monkeypatch, window):
        # every r_max up to 5000 and seeded ones up to 3 * 10**6 (10**5 for
        # windows under 64), against the highest zero bit of the layer
        monkeypatch.setattr(represent, "_COVER_WINDOW", window)
        r_top = 3 * 10**6 if window >= 64 else 10**5
        rng = random.Random(3000 + window)
        r_values = [*range(1, 5001), *(rng.randint(5001, r_top) for _ in range(40)), r_top]
        last = {mode: np.maximum.accumulate(np.where(missing, np.arange(missing.size), 0))
                for mode, missing in layer_uncovered(r_top).items()}
        below = 0  # answers read from a window under the first
        for r_max in r_values:
            got = sumset_coverage_threshold(r_max)._asdict()
            for mode, tops in last.items():
                m = int(tops[r_max])
                assert got[mode] == min(2 * m, r_max), (r_max, mode, window)
                below += r_max - m >= window
        # uncovered targets lie at most 6 apart up to 3 * 10**6, so only
        # the one-target window reads answers under its first window
        assert below > 1000 if window == 1 else below == 0

    def test_repeats_answer_meets_legendre_far_up(self):
        # m is a sum of at most two triangular numbers exactly when no prime
        # q = 3 (mod 4) divides 4m + 1 to an odd power; the scan's m must
        # fail that and every target in (m, r_max] pass it
        rng = random.Random(3012)
        r_values = [int(10 ** rng.uniform(8, 12)) for _ in range(12)] + [10**12]
        primes = primes_upto(math.isqrt(4 * max(r_values) + 1))
        for r_max in r_values:
            m, _ = represent._highest_uncovered(r_max)
            assert 0 < m <= r_max
            assert odd_power_of_a_prime_3_mod_4(4 * m + 1, primes), r_max
            for covered in range(m + 1, r_max + 1):
                assert not odd_power_of_a_prime_3_mod_4(4 * covered + 1, primes), covered
            assert sumset_coverage_threshold(r_max).repeats == min(2 * m, r_max)

    def test_reaches_ten_to_the_twelve(self):
        assert sumset_coverage_threshold(10**12) == (10**12, 10**12)
        # the coins alone, 8 B each, are over the default budget at 10**20
        with pytest.raises(ResourceBudgetError) as info:
            sumset_coverage_threshold(10**20)
        assert info.value.required > 8 * math.isqrt(2 * 10**20) > represent.DEFAULT_MEMORY_BUDGET

    def test_traced_peak_within_estimate_far_up(self):
        # per-coin arrays dominate here, not the window
        r_max = 10**12
        with pytest.raises(ResourceBudgetError) as info:
            sumset_coverage_threshold(r_max, memory_budget=0)
        assert traced_peak(lambda: sumset_coverage_threshold(r_max)) <= info.value.required

    @pytest.mark.parametrize("mode", ["repeats", "distinct"])
    def test_traced_peak_within_estimate(self, mode):
        # one scan answers both modes; reading either answer stays within
        # the estimate that the budget check is given
        r_max = 2 * 10**5
        with pytest.raises(ResourceBudgetError) as info:
            sumset_coverage_threshold(r_max, memory_budget=0)
        peak = traced_peak(lambda: getattr(sumset_coverage_threshold(r_max), mode))
        assert peak <= info.value.required


@given(
    st.integers(1, 4),
    st.integers(1, 2000),
    st.sampled_from([SearchMode.REPEATS, SearchMode.DISTINCT]),
)
@settings(max_examples=150, deadline=None)
def test_search_results_always_validate(k, target, mode):
    rep = minimal_representation(target, k, 8, mode)
    if rep is None:
        return
    assert sum(rep.values) == target
    assert all(n >= k for n in rep.indices)
    if mode is SearchMode.DISTINCT:
        assert rep.distinct
