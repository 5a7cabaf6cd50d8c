"""Multiplicity tallies, energy reports, restricted sums, exponent fits."""
import itertools
import random
import sys
import time
import tracemalloc
from concurrent import futures
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsum import (
    BinomialSequence,
    EnergyReport,
    PowerSequence,
    ResourceBudgetError,
    RestrictedTupleSpec,
    binom,
    energy_report,
    fit_energy_exponent,
    index_bound_for,
    multiplicity_extremes,
    multiplicity_map,
    records_to_csv,
    records_to_json,
    restricted_distinct_sums,
    run_experiment,
)
from binsum import energy
from binsum.energy import (
    _P61,
    _aggregate,
    _certify,
    _combine,
    _fft_bytes,
    _fft_counts,
    _fold_counts,
    _poly_mod,
    _power_limbs,
    _smooth_length,
    _tally,
    _top,
)


def oracle_tally(values, h):
    """Literal ordered-tuple enumeration; the slow reference."""
    tally = {}
    for combo in itertools.product(values, repeat=h):
        s = sum(combo)
        tally[s] = tally.get(s, 0) + 1
    return tally


def sequence_values(k, m, sequence):
    seq = BinomialSequence(k) if sequence == "binomial" else PowerSequence(k)
    return [seq.value(n) for n in range(seq.first_index, m + 1)]


def fold_steps(values, h):
    """"sparse" or "dense" for each step _fold_counts folds, by its rule
    on the step's input, the i-fold tally, read from mitm."""
    start = energy._counted_factors(len(values), values[-1], h)
    steps = []
    for i in range(start, h):
        sums, _ = _tally(values, i, "mitm", 10**8, 0)
        sparse = len(sums) * energy._SPARSE_RATIO < i * values[-1] + 1
        steps.append("sparse" if sparse else "dense")
    return steps


class TestMultiplicityMap:
    def test_hand_tally_triangular_pairs(self):
        # values 1, 3, 6; ordered pairs
        assert multiplicity_map(2, 2, 4) == {
            2: 1, 4: 2, 6: 1, 7: 2, 9: 2, 12: 1,
        }

    def test_hand_tally_tetrahedral_pairs(self):
        # values 1, 4, 10
        assert multiplicity_map(3, 2, 5) == {
            2: 1, 5: 2, 8: 1, 11: 2, 14: 2, 20: 1,
        }

    def test_matches_oracle_small_grid(self):
        for k in (1, 2, 3):
            for h in (1, 2, 3):
                for m in (k, k + 2, k + 5):
                    values = BinomialSequence(k).values_upto(binom(m, k))
                    want = oracle_tally(values, h)
                    got = multiplicity_map(k, h, m)
                    assert got == want, (k, h, m)

    def test_strategies_agree(self):
        for k, h, m in [(2, 2, 12), (2, 3, 20), (3, 3, 12), (1, 4, 8)]:
            direct = multiplicity_map(k, h, m, strategy="direct")
            mitm = multiplicity_map(k, h, m, strategy="mitm")
            convolve = multiplicity_map(k, h, m, strategy="convolve")
            assert direct == mitm == convolve, (k, h, m)

    def test_threads_do_not_change_dense_results(self):
        single = multiplicity_map(2, 3, 40, strategy="convolve", threads=1)
        multi = multiplicity_map(2, 3, 40, strategy="convolve", threads=4)
        assert single == multi

    def test_power_sequence_tally(self):
        # squares 1, 4, 9; pairs
        assert multiplicity_map(2, 2, 3, sequence="power") == {
            2: 1, 5: 2, 8: 1, 10: 2, 13: 2, 18: 1,
        }

    def test_oversized_values_use_exact_python_ints(self):
        # C(116, 100) > 2**62, so these tallies take the object-dtype path
        values = BinomialSequence(100).values_upto(binom(120, 100))
        assert values[-1] > 2**62
        for h in (2, 3):
            want = oracle_tally(values, h)
            for strategy in ("auto", "direct", "mitm"):
                tally = multiplicity_map(100, h, 120, strategy=strategy)
                assert tally == want, (h, strategy)
                assert all(type(s) is int and type(c) is int for s, c in tally.items())
            r = energy_report(100, h, 120)
            assert r.total_tuples == len(values) ** h
            assert r.energy == sum(c * c for c in want.values())
            assert r.distinct_sums == len(want)
            assert r.max_multiplicity == max(want.values())
            ranked = sorted(want.items(), key=lambda item: (-item[1], item[0]))
            assert multiplicity_extremes(100, h, 120, 7) == ranked[:7]

    def test_tally_form_and_dtype(self):
        small = BinomialSequence(2).values_upto(binom(30, 2))
        big = BinomialSequence(100).values_upto(binom(120, 100))
        # convolve refuses sums past 2**62, so it does not run on big
        cases = ((small, np.int64, ("direct", "mitm", "convolve")),
                 (big, object, ("direct", "mitm")))
        for values, dtype, strategies in cases:
            for strategy in strategies:
                sums, counts = _tally(values, 3, strategy, 10**7, 10**7)
                assert sums.dtype == counts.dtype == dtype, strategy
                assert len(sums) == len(counts)
                assert all(a < b for a, b in zip(sums, sums[1:]))
                assert min(counts) > 0
                assert sum(counts.tolist()) == len(values) ** 3

    def test_budget_errors(self):
        values = sequence_values(2, 100, "binomial")
        with pytest.raises(ResourceBudgetError):
            _tally(values, 4, "direct", enumeration_budget=10)
        with pytest.raises(ResourceBudgetError):
            _tally(values, 3, "convolve", dense_budget=10)

    def test_refused_before_the_values_are_listed(self):
        # mitm's larger half needs (3 * 10**6)**2 tuples, and at h = 2 its
        # convolution as many pairs; the refusal reads only the count and
        # the largest value, never 3 * 10**6 binomials
        for refused in (
            lambda: energy_report(2, 3, 3 * 10**6),
            lambda: energy_report(2, 2, 3 * 10**6),
            lambda: multiplicity_map(2, 3, 3 * 10**6),
            lambda: multiplicity_map(2, 2, 3 * 10**6, strategy="convolve"),
        ):
            tracemalloc.start()
            try:
                started = time.perf_counter()
                with pytest.raises(ResourceBudgetError):
                    refused()
                elapsed = time.perf_counter() - started
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert elapsed < 0.5 and peak < 5 * 2**20, (elapsed, peak)

    def test_bad_strategy_rejected(self):
        with pytest.raises(ValueError):
            multiplicity_map(2, 2, 4, strategy="fft")


class TestEnergyReport:
    def test_hand_report(self):
        r = energy_report(2, 2, index_bound=4)
        assert r.extremes == []
        assert r.admissible_count == 3
        assert r.total_tuples == 9
        assert r.energy == 15
        assert r.distinct_sums == 6
        assert r.max_multiplicity == 2
        assert r.cs_lower_bound == 6  # ceil(81 / 15)

    def test_arity_one_energy_equals_count(self):
        r = energy_report(1, 1, index_bound=10)
        assert r.energy == 10 and r.distinct_sums == 10 and r.max_multiplicity == 1

    def test_frozen_regression_order2_triples(self):
        # all three strategies once produced these numbers; pinned to catch
        # any silent tally change
        values = sequence_values(2, 30, "binomial")
        for strategy in ("direct", "mitm", "convolve"):
            assert _aggregate(_tally(values, 3, strategy)) == (24389, 850409, 1031, 87)
        r = energy_report(2, 3, index_bound=30)
        assert (r.total_tuples, r.energy, r.distinct_sums) == (24389, 850409, 1031)
        assert r.max_multiplicity == 87
        assert r.cs_lower_bound == 700

    def test_moment_identity_on_grid(self):
        for k in (1, 2, 3):
            for h in (1, 2, 3, 4):
                for m in (k + 1, k + 4, k + 9):
                    r = energy_report(k, h, m)
                    count = BinomialSequence(k).count_upto(binom(m, k))
                    assert r.total_tuples == count**h

    @given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 8))
    @settings(max_examples=80, deadline=None)
    def test_defining_inequalities(self, k, h, extra):
        r = energy_report(k, h, index_bound=k + extra)
        assert r.energy >= r.total_tuples
        assert r.distinct_sums * r.max_multiplicity >= r.total_tuples
        assert r.distinct_sums >= r.cs_lower_bound
        assert r.cs_lower_bound * r.energy >= r.total_tuples**2

    def test_aggregate_leaves_int64_where_squares_could_wrap(self):
        # 2 * (2**31)**2 + 1 = 2**63 + 1 wraps an int64 dot product
        counts = np.array([2**31, 2**31, 1], dtype=np.int64)
        total, energy, distinct, max_mult = _aggregate((np.arange(3), counts))
        assert energy == sum(c * c for c in counts.tolist()) == 2**63 + 1
        assert (total, distinct, max_mult) == (2**32 + 1, 3, 2**31)

    def test_combine_refuses_int64_weights_that_could_wrap(self):
        # the cross weights total 2**64, beyond int64
        half = (np.array([0, 1]), np.array([2**31, 2**31]))
        with pytest.raises(AssertionError):
            _combine(half, half)

    def test_report_asserts_consistency(self):
        with pytest.raises(AssertionError):
            EnergyReport(
                order=2, arity=2, index_bound=4,
                sequence="binomial", admissible_count=3, total_tuples=9,
                energy=8,  # impossible: below total
                distinct_sums=6, max_multiplicity=2, cs_lower_bound=6,
            )


class TestIndexBoundFor:
    def test_value_convention(self):
        assert index_bound_for(2, 10) == 5
        assert index_bound_for(2, 10, "value") == 5

    def test_index_convention_is_literal(self):
        assert index_bound_for(2, 10, "index") == 10

    def test_rejects_unknown_convention(self):
        with pytest.raises(ValueError):
            index_bound_for(2, 10, "both")


class TestRestricted:
    def test_hand_example(self):
        spec = RestrictedTupleSpec(order=2, arity=2, budget=100, fraction=Fraction(1, 2))
        assert spec.per_term_cap == 25
        rr = restricted_distinct_sums(spec)
        assert rr.max_index == 7  # C(7,2) = 21 <= 25 < 28
        assert rr.admissible_count == 6  # 1, 3, 6, 10, 15, 21
        assert rr.report.total_tuples == 36
        assert rr.report.distinct_sums == 20
        assert rr.report.max_multiplicity == 4  # 16 = 1+15 = 6+10, ordered
        assert rr.trivial_bound == 6
        assert rr.trivial_bound_ok and rr.floor_ok

    def test_cap_arithmetic_is_exact(self):
        spec = RestrictedTupleSpec(order=2, arity=2, budget=100, fraction=Fraction(1, 3))
        assert spec.per_term_cap == 16  # floor(100 / 6)
        spec = RestrictedTupleSpec(order=2, arity=3, budget=10**9, fraction=Fraction(2, 3))
        assert spec.per_term_cap == (2 * 10**9) // 9

    def test_sums_never_exceed_budget(self):
        for x in (100, 1000, 33333):
            spec = RestrictedTupleSpec(order=2, arity=3, budget=x, fraction=Fraction(1, 2))
            rr = restricted_distinct_sums(spec)
            top_value = binom(rr.max_index, 2)
            assert 3 * top_value <= x // 2

    def test_unusable_cap_rejected(self):
        spec = RestrictedTupleSpec(order=3, arity=5, budget=8, fraction=Fraction(1, 2))
        with pytest.raises(ValueError):
            restricted_distinct_sums(spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RestrictedTupleSpec(order=2, arity=2, budget=100, fraction=Fraction(3, 2))
        with pytest.raises(ValueError):
            RestrictedTupleSpec(order=2, arity=0, budget=100, fraction=Fraction(1, 2))

    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(50, 5000),
        st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10)),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_hold_randomized(self, k, h, x, c):
        spec = RestrictedTupleSpec(order=k, arity=h, budget=x, fraction=c)
        if spec.per_term_cap < 1:
            return
        rr = restricted_distinct_sums(spec)
        r = rr.report
        assert r.max_multiplicity <= rr.admissible_count ** (h - 1)
        assert r.distinct_sums >= r.cs_lower_bound
        assert r.distinct_sums * r.max_multiplicity >= r.total_tuples


class TestExponentFit:
    def test_identity_sequence_slope_is_one(self):
        fit = fit_energy_exponent(1, 1, [10, 100, 1000])
        assert abs(fit.alpha_hat - 1.0) < 0.01
        assert fit.residual < 1e-9
        assert fit.comparison_exponent == 1.0

    def test_requires_three_increasing_bounds(self):
        with pytest.raises(ValueError):
            fit_energy_exponent(2, 2, [10, 100])
        with pytest.raises(ValueError):
            fit_energy_exponent(2, 2, [10, 100, 100])

    def test_pair_energy_reported_with_residual(self):
        fit = fit_energy_exponent(2, 2, [10**3, 10**4, 10**5])
        assert fit.order == 2 and fit.arity == 2
        assert len(fit.observations) == 3
        assert fit.residual >= 0.0
        assert fit.comparison_exponent == 1.0
        # no target assertion on alpha_hat: the claim under test is
        # asymptotic and desk-scale slopes routinely sit above it
        assert fit.hypothesis_plausible == (fit.alpha_hat < 1.0)


class TestExtremes:
    def test_hand_examples(self):
        assert multiplicity_extremes(2, 2, 4, 1) == [(4, 2)]
        assert multiplicity_extremes(1, 2, 10, 1) == [(11, 10)]

    def test_arity_one_all_multiplicities_one(self):
        extremes = multiplicity_extremes(2, 1, 10, 100)
        assert all(r == 1 for _, r in extremes)
        assert [s for s, _ in extremes] == sorted(s for s, _ in extremes)

    def test_ties_broken_by_smaller_sum(self):
        full = multiplicity_extremes(2, 2, 4, 6)
        assert full == [(4, 2), (7, 2), (9, 2), (2, 1), (6, 1), (12, 1)]

    def test_dense_and_dict_paths_agree(self):
        values = sequence_values(2, 25, "binomial")
        a = _top(_tally(values, 3, "convolve"), 10)
        b = _top(_tally(values, 3, "direct"), 10)
        assert a == b == multiplicity_extremes(2, 3, 25, 10)

    def test_top_cut_inside_a_tie(self):
        sums = np.array([1, 2, 3, 4, 5, 6])
        counts = np.array([3, 5, 3, 5, 3, 1])
        assert _top((sums, counts), 1) == [(2, 5)]
        assert _top((sums, counts), 3) == [(2, 5), (4, 5), (1, 3)]
        assert _top((sums.astype(object), counts.astype(object)), 4) == [
            (2, 5), (4, 5), (1, 3), (3, 3),
        ]
        full = sorted(
            multiplicity_map(2, 3, 25).items(), key=lambda item: (-item[1], item[0])
        )
        assert any(full[t - 1][1] == full[t][1] for t in range(1, 40))
        values = sequence_values(2, 25, "binomial")
        tallies = {s: _tally(values, 3, s) for s in ("direct", "mitm", "convolve")}
        for top in range(1, 40):
            assert multiplicity_extremes(2, 3, 25, top) == full[:top], top
            assert energy_report(2, 3, 25, top=top).extremes == full[:top], top
            for strategy, tally in tallies.items():
                assert _top(tally, top) == full[:top], (top, strategy)

    def test_energy_kind_tallies_once_for_its_extremes(self, monkeypatch):
        arities = []
        real = energy._run_kernel
        monkeypatch.setattr(
            energy, "_run_kernel",
            lambda values, h, *a, **kw: arities.append(h) or real(values, h, *a, **kw),
        )
        record, _ = run_experiment("energy", {"k": 2, "h": 3, "index_bound": 30, "top": 5})
        assert arities == [3]
        assert record.results["extremes"] == [list(p) for p in multiplicity_extremes(2, 3, 30, 5)]

    def test_power_sequence_cube_collisions(self):
        # first taxicab number: 1729 = 1 + 1728 = 729 + 1000
        extremes = multiplicity_extremes(3, 2, 12, 1, sequence="power")
        assert extremes == [(1729, 4)]


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 6))
@settings(max_examples=50, deadline=None)
def test_tally_strategies_agree_randomized(k, h, extra):
    m = k + extra
    direct = multiplicity_map(k, h, m, strategy="direct")
    mitm = multiplicity_map(k, h, m, strategy="mitm")
    convolve = multiplicity_map(k, h, m, strategy="convolve")
    assert direct == mitm == convolve


def admitted(k, h, m, sequence="binomial", strategy="auto",
             dense_budget=energy.DEFAULT_DENSE_BUDGET):
    """The kernel _admit picks for indices up to m of the sequence."""
    seq = BinomialSequence(k) if sequence == "binomial" else PowerSequence(k)
    return energy._admit(m - seq.first_index + 1, seq.value(m), h, strategy,
                         energy.DEFAULT_ENUMERATION_BUDGET, dense_budget)[0]


class TestAdmission:
    """_admit alone picks the kernel (direct, mitm, fft or fold) and the
    dtype, from the number of values and the largest one."""

    def test_benchmark_instances_keep_their_kernels(self):
        energies = {(2, 3, 800, "binomial"): "fft", (3, 3, 150, "binomial"): "fold",
                    (4, 2, 1200, "binomial"): "direct", (2, 3, 300, "power"): "fold"}
        for (k, h, m, sequence), kernel in energies.items():
            assert admitted(k, h, m, sequence) == kernel, (k, h, m, sequence)
        # the restricted-sums ladders at X = 10**4 * 2**i with c = 1/2
        ladders = {(3, 4): ["fold"] * 9, (2, 3): ["fold"] * 7 + ["fft"] * 2}
        for (k, h), kernels in ladders.items():
            rungs = []
            for i in range(9):
                spec = RestrictedTupleSpec(k, h, 10**4 * 2**i, Fraction(1, 2))
                rungs.append(admitted(k, h, BinomialSequence(k).floor_index(spec.per_term_cap)))
            assert rungs == kernels, (k, h)
        for bound in (10**3, 10**4, 10**5, 10**6):
            assert admitted(2, 2, BinomialSequence(2).floor_index(bound)) == "direct"
        for k, h, m in ((2, 4, 50), (3, 3, 150), (4, 2, 800)):
            for strategy in ("direct", "mitm"):
                assert admitted(k, h, m, strategy=strategy) == strategy

    def test_fft_only_while_every_count_fits_int32(self):
        # order 1, h = 3: a count reaches len**2, and 46340**2 < 2**31 <= 46341**2
        assert admitted(1, 3, 46340) == "fft"
        assert admitted(1, 3, 46341) == "fold"

    def test_fold_only_while_every_count_fits_int64(self):
        # values 1, 2: a count reaches 2**(h-1), and the fold answers up to
        # 2**62 with exact binomial counts
        assert admitted(1, 63, 2) == "fold"
        # the tally is int64 only while the tuple total 2**h is below 2**63
        for h, dtype in ((62, np.int64), (63, object)):
            assert energy._admit(2, 2, h, "convolve", 0, 10**6) == ("fold", dtype)
        assert multiplicity_map(1, 63, 2) == {63 + j: binom(63, j) for j in range(64)}
        for strategy in ("auto", "convolve"):
            with pytest.raises(ResourceBudgetError):
                admitted(1, 64, 2, strategy=strategy)
        # a 20-fold tally of 49 values: counts up to 49**19 would wrap int64
        with pytest.raises(ResourceBudgetError):
            multiplicity_map(2, 20, 50)

    def test_fold_charged_in_bytes(self):
        # 8 B per cell at int32, 16 B at int64, against 8 B per budget cell
        for k, h, m, per_cell in ((2, 3, 500, 1), (4, 7, 60, 2)):
            cells = h * binom(m, k) + 1
            assert admitted(k, h, m, strategy="convolve",
                            dense_budget=per_cell * cells) == "fold"
            with pytest.raises(ResourceBudgetError):
                admitted(k, h, m, strategy="convolve", dense_budget=per_cell * cells - 1)
        # 8659 values at h = 4: an int64 fold of 1.5 * 10**8 cells (2.4 GB);
        # auto falls back to mitm, whose larger half is over budget
        with pytest.raises(ResourceBudgetError) as info:
            admitted(2, 4, 8660)
        assert "mitm" in str(info.value)

    def test_fold_charged_in_cell_adds(self):
        # 5999 values at h = 4 count j = 2 factors and fold two steps of
        # 3 and 4 * C(6000, 2) + 1 cells: 7.6 * 10**11 adds, minutes of work
        top = binom(6000, 2)
        adds = 5999 * (3 * top + 1 + 4 * top + 1)
        assert energy._counted_factors(5999, top, 4) == 2
        with pytest.raises(ResourceBudgetError) as info:
            admitted(2, 4, 6000, strategy="convolve")
        assert "fold exceeds the work budget" in str(info.value)
        assert (info.value.required, info.value.budget) == (adds, energy._FOLD_WORK_BUDGET)
        # auto falls back to mitm, whose larger half is 5999**2 tuples
        with pytest.raises(ResourceBudgetError) as info:
            admitted(2, 4, 6000)
        assert "mitm's larger half" in str(info.value)
        # the baseline fold, 2.8 * 10**10 adds, stays admitted. The FFT is
        # not charged for adds: 5999 values at h = 3 (a fold of 3.2 * 10**11
        # adds) run as the FFT where its bytes fit, and are refused elsewhere
        assert admitted(2, 4, 2000) == "fold"
        assert admitted(2, 3, 6000, dense_budget=10**9) == "fft"
        with pytest.raises(ResourceBudgetError, match="work budget"):
            admitted(2, 3, 6000)

    def test_refusal_names_the_chosen_kernel(self):
        with pytest.raises(ResourceBudgetError) as info:
            energy_report(2, 2, 10**30)
        assert "mitm's larger half" in str(info.value)
        with pytest.raises(ResourceBudgetError) as info:
            multiplicity_map(2, 2, 10**30, strategy="direct")
        assert "direct enumeration" in str(info.value)

    def test_huge_charges_stay_exact_on_the_exception(self):
        # str() refuses ints past 4,300 digits; the message needs only sizes
        exc = ResourceBudgetError("too big", required=10**5000, budget=10**19)
        assert exc.required == 10**5000 and exc.budget == 10**19
        assert str(exc) == f"too big (required ≈ 2^16609.6, budget {10**19})"
        exc = ResourceBudgetError("small", required=10**20 - 1, budget=10**20)
        assert str(exc) == f"small (required {10**20 - 1}, budget ≈ 2^66.4)"

    def test_auto_refusal_names_every_kernel_tried(self):
        # 49 values at h = 20: convolve's counts could wrap int64, and
        # mitm's larger half is 49**10 tuples
        with pytest.raises(ResourceBudgetError) as info:
            admitted(2, 20, 50)
        message = str(info.value)
        assert "dense convolution counts can exceed int64" in message
        assert "mitm's larger half exceeds the tuple budget" in message
        assert info.value.required is None and info.value.budget is None
        # at h <= 2 auto tries direct first, and names it too
        with pytest.raises(ResourceBudgetError) as info:
            admitted(2, 2, 10**30)
        assert all(what in str(info.value) for what in
                   ("direct enumeration", "dense convolution", "mitm's larger half"))
        # a single kernel keeps its charge and its budget
        with pytest.raises(ResourceBudgetError) as info:
            admitted(2, 20, 50, strategy="mitm")
        assert info.value.required == 49**10
        assert info.value.budget == energy.DEFAULT_ENUMERATION_BUDGET

    def test_mitm_pair_charge_covers_its_cross_pairs(self):
        # the charge bounds the pairs _combine crosses, so a late pair
        # check could never refuse what _admit admitted
        checked = 0
        for sequence in ("binomial", "power"):
            for k in range(1, 5):
                seq = BinomialSequence(k) if sequence == "binomial" else PowerSequence(k)
                for h in range(2, 7):
                    for m in range(seq.first_index, 41):
                        count, top = m - seq.first_index + 1, seq.value(m)
                        try:
                            kernel, dtype = energy._admit(
                                count, top, h, "mitm", energy.DEFAULT_ENUMERATION_BUDGET,
                                energy.DEFAULT_DENSE_BUDGET)
                        except ResourceBudgetError:
                            continue
                        assert kernel == "mitm"
                        values = sequence_values(k, m, sequence)
                        left = energy._tally_direct(values, h // 2, dtype)[0]
                        right = energy._tally_direct(values, h - h // 2, dtype)[0]
                        charge = energy._mitm_pairs(count, top, h)
                        assert charge >= len(left) * len(right), (sequence, k, h, m)
                        checked += 1
        assert checked >= 1000

    @pytest.mark.parametrize("request_", [
        lambda: energy_report(3, 3, 4396),
        lambda: multiplicity_map(100, 2, 2100, strategy="mitm"),
    ], ids=["auto-k3-h3", "mitm-oversized"])
    def test_mitm_refused_before_its_halves(self, request_, monkeypatch):
        # (3, 3, 4396): 4394 * C(4395, 2) pairs past the pair budget.
        # (100, 2, 2100): 2001**2 pairs of oversized values, over the
        # Python-int budget though under the pair budget
        def no_half(*args):
            raise AssertionError("a half tally was built")

        monkeypatch.setattr(energy, "_tally_direct", no_half)
        elapsed = []
        for _ in range(3):
            started = time.perf_counter()
            with pytest.raises(ResourceBudgetError) as info:
                request_()
            elapsed.append(time.perf_counter() - started)
        assert "mitm's cross product" in str(info.value)
        assert min(elapsed) < 0.01, elapsed

    def test_mitm_refused_where_its_charge_passes_the_budget(self):
        # 114 values at h = 4: C(115, 2)**2 = 4.3 * 10**7 pairs are charged,
        # though the halves' true key counts cross fewer than 2 * 10**7
        with pytest.raises(ResourceBudgetError) as info:
            multiplicity_map(2, 4, 115, strategy="mitm")
        assert "mitm's cross product exceeds the pair budget" in str(info.value)
        # auto folds it; direct would enumerate 114**4 tuples, so mitm with
        # a raised budget is the second opinion
        assert admitted(2, 4, 115) == "fold"
        values = sequence_values(2, 115, "binomial")
        sums, counts = _tally(values, 4, "auto")
        mitm_sums, mitm_counts = _tally(values, 4, "mitm", enumeration_budget=10**8)
        assert np.array_equal(sums, mitm_sums) and np.array_equal(counts, mitm_counts)
        assert int(counts.sum()) == 114**4


class TestFftKernel:
    """convolve's float FFT only proposes counts: the exact certificate
    decides them, and the integer fold answers whenever it refuses."""

    def test_matches_fold_and_direct_on_a_seeded_grid(self):
        rng = random.Random(4105)
        cases = 0
        for k in (2, 3, 4):
            for h in (3, 4, 5):
                for sequence in ("binomial", "power"):
                    seq = BinomialSequence(k) if sequence == "binomial" else PowerSequence(k)
                    # at most 3 * 10**5 tuples (direct) and 2 * 10**6 cells
                    count = int((3 * 10**5) ** (1 / h))
                    top = min(seq.first_index + count - 1, seq.floor_index(2 * 10**6 // h))
                    for m in {top, rng.randrange(seq.first_index + 2, top)}:
                        values = sequence_values(k, m, sequence)
                        counts = _fft_counts(values, h)
                        assert counts is not None, (k, h, sequence, m)
                        assert np.array_equal(counts, _fold_counts(values, h, 1))
                        sums, direct = _tally(values, h, "direct", 10**6, 0)
                        assert np.array_equal(np.flatnonzero(counts), sums)
                        assert np.array_equal(counts[sums], direct)
                        cases += 1
        assert cases >= 30

    def test_routing(self, monkeypatch):
        proposed = []
        real = energy._fft_counts
        monkeypatch.setattr(
            energy, "_fft_counts", lambda v, h: proposed.append(h) or real(v, h)
        )

        def takes_fft(values, h, dense_budget=energy.DEFAULT_DENSE_BUDGET):
            proposed.clear()
            sums, counts = _tally(values, h, "convolve", 0, dense_budget)
            dense = _fold_counts(values, h, 1)
            assert np.array_equal(sums, np.flatnonzero(dense))
            assert np.array_equal(counts, dense[sums])
            return bool(proposed)

        # triangular values: the fold counts two of the three factors, so
        # it does len(values) shifted adds per cell
        length = energy._FFT_CROSSOVER
        at = sequence_values(2, length + 1, "binomial")
        assert len(at) == length and energy._counted_factors(length, at[-1], 3) == 2
        assert takes_fft(at, 3)
        assert not takes_fft(at[:-1], 3)  # below the crossover
        # order 1, h = 4: 1291**3 >= 2**31, so a count could pass int32
        wide = list(range(1, 1292))
        assert energy._counted_factors(len(wide), wide[-1], 4) == 1
        assert 3 * len(wide) >= energy._FFT_CROSSOVER and len(wide) ** 3 >= 2**31
        assert not takes_fft(wide, 4)
        # the byte estimate must fit 8 B per budget cell
        cells = 3 * at[-1] + 1
        estimate = _fft_bytes(len(at), at[-1], 3)
        assert not takes_fft(at, 3, dense_budget=cells)
        assert takes_fft(at, 3, dense_budget=estimate // 8)
        assert not takes_fft(at, 3, dense_budget=estimate // 8 - 1)

    def test_certificate_rejects_a_perturbation_that_keeps_the_total(self, monkeypatch):
        values = sequence_values(2, energy._FFT_CROSSOVER + 20, "binomial")
        exact = _fold_counts(values, 3, 1).astype(np.int64)
        i, j = np.flatnonzero(exact)[[100, 2000]]
        bad = exact.copy()
        bad[i] += 1
        bad[j] -= 1
        assert bad.sum() == exact.sum() and bad.min() >= 0
        rng = random.Random(2**61 - 1)
        for _ in range(5):
            x = rng.randrange(_P61)
            assert _certify(exact, values, 3, x)
            assert not _certify(bad, values, 3, x)
        # the public call: the proposal is perturbed the same way before
        # certification, the certificate refuses it and the fold answers
        verdicts = []

        def perturbed(counts, values, h, x):
            counts[i] += 1
            counts[j] -= 1
            verdicts.append(real(counts, values, h, x))
            return verdicts[-1]

        real = energy._certify
        monkeypatch.setattr(energy, "_certify", perturbed)
        sums, counts = _tally(values, 3, "convolve", 0, energy.DEFAULT_DENSE_BUDGET)
        assert verdicts == [False]
        assert np.array_equal(sums, np.flatnonzero(exact))
        assert np.array_equal(counts, exact[sums])

    def test_total_check_catches_what_the_modular_check_misses(self):
        # at x = -1, adding 1 at two adjacent sums leaves sum(c_s x**s) as is
        x = _P61 - 1
        values = sequence_values(2, 320, "binomial")
        exact = _fold_counts(values, 3, 1).astype(np.int64)
        s = int(np.flatnonzero(exact)[50])
        bad = exact.copy()
        bad[s : s + 2] += 1
        limbs = _power_limbs(x)
        assert _poly_mod(bad, x, limbs) == _poly_mod(exact, x, limbs)
        assert _certify(exact, values, 3, x)
        assert not _certify(bad, values, 3, x)

    def test_bounds_catch_what_the_modular_check_misses(self):
        # values 1, 2 with h = 2 tally [1, 2, 1] on sums 2..4; at x = 1 the
        # modular check compares totals only
        assert _certify(np.array([0, 0, 1, 2, 1]), [1, 2], 2, 1)
        assert not _certify(np.array([0, 0, 0, 3, 1]), [1, 2], 2, 1)  # 3 > 2**1
        assert not _certify(np.array([-1, 0, 2, 2, 1]), [1, 2], 2, 1)

    def test_modular_evaluation_matches_python_ints(self):
        rng = random.Random(1024)
        for length in (0, 1, 1023, 1024, 1025, 3000):
            for x in (rng.randrange(_P61), _P61 - 1, 2**21 - 1):
                coeffs = [rng.randrange(2**31 + 1) for _ in range(length)]
                coeffs[: length // 3] = [2**31] * (length // 3)  # the largest allowed
                want = sum(c * pow(x, j, _P61) for j, c in enumerate(coeffs)) % _P61
                got = _poly_mod(np.array(coeffs, dtype=np.int64), x, _power_limbs(x))
                assert got == want, (length, x)

    def test_smooth_length(self):
        def smooth(n):
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            return n == 1

        for cells in list(range(1, 2000)) + [958801, 1282051, 5997001]:
            length = _smooth_length(cells)
            assert length >= cells and smooth(length)
            assert not any(smooth(n) for n in range(cells, min(length, cells + 5000)))

    def test_peak_stays_under_the_byte_estimate(self):
        # The estimate also covers pocketfft's untracked working memory,
        # about 16 B per transform cell; the traced arrays get the rest.
        for m in (320, 700):
            values = sequence_values(2, m, "binomial")
            length = _smooth_length(3 * values[-1] + 1)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert _fft_counts(values, 3) is not None
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak + 16 * length <= _fft_bytes(len(values), values[-1], 3), m

    def test_exports_identical_across_threads_and_kernels(self, monkeypatch):
        requests = (
            ("energy", {"k": 2, "h": 3, "index_bound": 540, "top": 12}),
            ("energy", {"k": 2, "h": 4, "index_bound": 260, "sequence": "power"}),
            ("restricted-sums", {"k": 2, "h": 3, "x": 10**4 * 2**7}),
            ("exponent-fit", {"k": 2, "h": 3, "bounds": [10**4, 2 * 10**5, 4 * 10**5]}),
        )

        def exports():
            out = []
            for threads in (1, 2):
                for kind, params in requests:
                    record, _ = run_experiment(kind, params, threads=threads)
                    out.append(records_to_json([record]) + records_to_csv([record]))
            return out

        proposed = []
        real = energy._fft_counts
        monkeypatch.setattr(
            energy, "_fft_counts", lambda v, h: proposed.append(h) or real(v, h)
        )
        with_fft = exports()
        assert len(proposed) == 2 * 5  # two energies, the ladder, two fit bounds
        assert with_fft[: len(requests)] == with_fft[len(requests) :]
        monkeypatch.setattr(energy, "_FFT_CROSSOVER", 10**9)
        assert exports() == with_fft


class TestCountingTallies:
    """direct and _combine count int64 sums in a dense array when it holds
    no more bytes than their sort would; object arrays always sort."""

    @staticmethod
    def spy(monkeypatch, name):
        calls = []
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, **kw: calls.append(name) or real(*a, **kw))
        return calls

    def test_direct_at_the_threshold(self, monkeypatch):
        # 16 values at h = 1: 8 * span <= 9 * 16 counts spans up to 18
        counted = self.spy(monkeypatch, "bincount")
        for top, dense in ((16, True), (17, True), (18, False)):
            values = list(range(1, 16)) + [top]
            span = top + 1
            assert (8 * span <= 9 * len(values)) == dense
            for dtype in (np.int64, object):
                counted.clear()
                sums, counts = energy._tally_direct(values, 1, dtype)
                assert counted == (["bincount"] if dense and dtype is np.int64 else [])
                assert sums.dtype == counts.dtype == dtype
                assert sums.tolist() == values and counts.tolist() == [1] * 16
        # h = 2 reaches odd spans only: 17 counts, 19 sorts
        for top, dense in ((8, True), (9, False)):
            values = [1, 2, 3, top]
            counted.clear()
            sums, counts = energy._tally_direct(values, 2, np.int64)
            assert counted == (["bincount"] if dense else [])
            assert counts.dtype == np.int64
            assert dict(zip(sums.tolist(), counts.tolist())) == oracle_tally(values, 2)

    def test_combine_at_the_threshold(self, monkeypatch):
        # 3 x 3 pairs: spans up to 4 * 9 = 36 count, the rest sort
        sorted_ = self.spy(monkeypatch, "argsort")
        left = ([1, 2, 5], [2, 1, 3])
        for top, dense in ((29, True), (30, True), (31, False)):
            right = ([1, 3, top], [1, 4, 2])
            assert (left[0][-1] + right[0][-1] + 1 <= 36) == dense
            want = {}
            for a, x in zip(*left):
                for b, y in zip(*right):
                    want[a + b] = want.get(a + b, 0) + x * y
            for dtype in (np.int64, object):
                for first, second in ((left, right), (right, left)):
                    sorted_.clear()
                    sums, counts = _combine(
                        tuple(np.array(side, dtype=dtype) for side in first),
                        tuple(np.array(side, dtype=dtype) for side in second),
                    )
                    assert sorted_ == ([] if dense and dtype is np.int64 else ["argsort"])
                    assert sums.dtype == counts.dtype == dtype
                    assert sums.tolist() == sorted(want)
                    assert counts.tolist() == [want[s] for s in sorted(want)]


class RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers and every
    slice handed out, and runs the slices in the calling thread."""

    def __init__(self, log, max_workers):
        self.log = log
        log.append({"max_workers": max_workers, "slices": []})

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, outs, los, his):
        outs, los, his = list(outs), list(los), list(his)
        self.log[-1]["slices"].append((outs[0].size, los, his))
        return map(fn, outs, los, his)


class TestFoldThreads:
    """The fold splits each step's output range into disjoint slices, one
    per worker; every slice adds the clipped part of every shifted copy."""

    def record(self, monkeypatch, min_cells):
        log = []
        monkeypatch.setattr(
            futures, "ThreadPoolExecutor", lambda max_workers: RecordingPool(log, max_workers)
        )
        monkeypatch.setattr(energy, "_WORKER_CELLS", min_cells)
        return log

    def test_slices_match_direct(self, monkeypatch):
        log = self.record(monkeypatch, 1)
        rng = random.Random(77)
        inside = outside = uneven = few = 0
        for values in ([1, 2], [2, 3, 7], [1, 3, 6, 10, 15], [1, 4, 10, 20],
                       [rng.randrange(1, 40) for _ in range(7)]):
            values = sorted(set(values))
            for h in (2, 3, 4):
                assert "sparse" not in fold_steps(values, h), (values, h)
                sums, counts = _tally(values, h, "direct", 10**6, 0)
                for threads in (1, 2, 3):
                    log.clear()
                    dense = _fold_counts(values, h, threads)
                    assert dense.size == h * values[-1] + 1
                    assert np.array_equal(np.flatnonzero(dense), sums), (values, h, threads)
                    assert np.array_equal(dense[sums], counts), (values, h, threads)
                    if threads == 1:
                        assert log == []
                        continue
                    few += len(values) < threads and bool(log)
                    for entry in log:
                        assert entry["max_workers"] == threads
                        for size, los, his in entry["slices"]:
                            assert los[0] == 0 and his[-1] == size
                            assert los[1:] == his[:-1] and all(a < b for a, b in zip(los, his))
                            uneven += size % threads != 0
                            span = size - values[-1]  # the previous step's array
                            for cut in los[1:]:
                                inside += sum(v < cut < v + span for v in values)
                                outside += sum(not v < cut < v + span for v in values)
        assert min(inside, outside, uneven, few) > 0

    def test_real_threads_under_a_short_switch_interval(self, monkeypatch):
        # three workers on shared arrays, switching often: a lost or
        # doubled update at a slice boundary would change a count
        monkeypatch.setattr(energy, "_WORKER_CELLS", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for k, h, m in ((2, 3, 40), (3, 3, 30), (1, 4, 25)):
                values = sequence_values(k, m, "binomial")
                assert "sparse" not in fold_steps(values, h), (k, h, m)
                sums, counts = _tally(values, h, "direct", 10**6, 0)
                dense = _fold_counts(values, h, 3)
                assert np.array_equal(np.flatnonzero(dense), sums), (k, h, m)
                assert np.array_equal(dense[sums], counts), (k, h, m)
        finally:
            sys.setswitchinterval(interval)

    def test_workers_capped_by_slices_and_threads(self, monkeypatch):
        log = self.record(monkeypatch, 1000)
        values = sequence_values(2, 20, "binomial")  # top 190: 3-fold cells 571
        _fold_counts(values, 3, 64)
        assert log == []  # fewer than 2 * 1000 cells: serial, no pool
        values = sequence_values(2, 40, "binomial")  # top 780: 3-fold cells 2341
        assert fold_steps(values, 3) == ["dense"]
        want = _fold_counts(values, 3, 1)
        assert log == []
        for threads, workers in ((64, 2), (2, 2), (3, 2)):
            log.clear()
            assert np.array_equal(_fold_counts(values, 3, threads), want)
            assert [entry["max_workers"] for entry in log] == [workers]
        values = sequence_values(1, 30, "binomial")  # 4-fold cells 121
        assert fold_steps(values, 4) == ["dense"] * 3
        monkeypatch.setattr(energy, "_WORKER_CELLS", 40)
        log.clear()
        _fold_counts(values, 4, 64)
        assert [entry["max_workers"] for entry in log] == [3]

    def test_counted_start_skips_the_pool(self, monkeypatch):
        # every 2-fold sum fits the 2-fold array: nothing is left to fold
        log = self.record(monkeypatch, 1)
        values = sequence_values(4, 30, "binomial")
        assert energy._counted_factors(len(values), values[-1], 2) == 2
        sums, counts = _tally(values, 2, "direct", 10**6, 0)
        dense = _fold_counts(values, 2, 3)
        assert log == []
        assert np.array_equal(np.flatnonzero(dense), sums)
        assert np.array_equal(dense[sums], counts)

    def test_counted_factors(self):
        # len**j <= j * top + 1 decides how many factors are counted
        assert energy._counted_factors(3, 3, 4) == 1  # 9 > 2 * 3 + 1
        assert energy._counted_factors(3, 4, 4) == 2  # 9 <= 9, 27 > 13
        assert energy._counted_factors(3, 9, 4) == 3  # 27 <= 28, 81 > 37
        assert energy._counted_factors(3, 9, 2) == 2

    def test_peak_bytes_stay_in_the_cell_budget(self):
        # two workers: two count arrays, at most 8 B per cell of the result
        # at int32 and 16 B at int64, plus one chunk of counted sums
        cases = ((2, 3, 500, np.int32), (3, 3, 100, np.int32), (4, 7, 60, np.int64))
        for k, h, m, dtype in cases:
            values = sequence_values(k, m, "binomial")
            cells = h * values[-1] + 1
            assert cells >= 2 * energy._WORKER_CELLS
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert _fold_counts(values, h, 2).dtype == dtype
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            width = np.dtype(dtype).itemsize
            assert peak <= 2 * width * cells + energy._CALL_BYTES, (k, h, m)


class TestSparseFoldSteps:
    """A fold step scatters its input's nonzero cells while they are fewer
    than 1 / _SPARSE_RATIO of its cells, else it adds shifted copies; both
    give the direct tally, in either dtype and at any thread count."""

    def check(self, monkeypatch, values, h, want):
        scattered = []
        real = energy._nonzero
        monkeypatch.setattr(energy, "_nonzero", lambda a: scattered.append(a.size) or real(a))
        sums, counts = want
        steps = fold_steps(values, h)
        # every step sparse, every step dense, then the measured ratio
        for ratio, sparse in ((0, len(steps)), (2**40, 0),
                              (energy._SPARSE_RATIO, steps.count("sparse"))):
            monkeypatch.setattr(energy, "_SPARSE_RATIO", ratio)
            for threads in (1, 2):
                scattered.clear()
                dense = _fold_counts(values, h, threads)
                assert len(scattered) == sparse, (values[-1], h, ratio, threads)
                assert np.array_equal(np.flatnonzero(dense), sums), (values[-1], h, ratio, threads)
                assert np.array_equal(dense[sums], counts), (values[-1], h, ratio, threads)
        return steps, dense.dtype

    def test_steps_match_direct(self, monkeypatch):
        # every dense step splits over two workers at threads=2
        monkeypatch.setattr(energy, "_WORKER_CELLS", 1)
        rng = random.Random(2718)
        # (sequence, k, h, lowest m, highest m): seeded m, each case's
        # folded steps in the comment; direct enumerates at most 5 * 10**6
        grid = (("binomial", 3, 3, 50, 140),  # sparse
                ("binomial", 3, 3, 20, 30),  # dense
                ("binomial", 3, 4, 48, 51),  # sparse, dense
                ("binomial", 3, 5, 8, 20),  # dense x 3
                ("binomial", 4, 4, 40, 41),  # sparse
                ("binomial", 4, 5, 8, 20),  # dense x 2
                ("power", 3, 4, 10, 40),  # dense
                ("power", 3, 5, 8, 20),  # dense x 2
                ("power", 4, 5, 8, 20))  # sparse
        seen = set()
        for sequence, k, h, lo, hi in grid:
            values = sequence_values(k, rng.randint(lo, hi), sequence)
            want = _tally(values, h, "direct", 10**7, 0)
            steps, dtype = self.check(monkeypatch, values, h, want)
            assert dtype == np.int32
            seen.add(tuple(sorted(set(steps))))
        assert seen == {("sparse",), ("dense",), ("dense", "sparse")}

    def test_int64_steps_match_mitm(self, monkeypatch):
        # len**(h-1) >= 2**31 puts an int64 fold past direct's reach; mitm,
        # checked against direct elsewhere, is the reference
        monkeypatch.setattr(energy, "_WORKER_CELLS", 1)
        for sequence, k in (("binomial", 3), ("power", 4)):
            values = sequence_values(k, 5 if sequence == "binomial" else 3, sequence)
            assert len(values) == 3
            want = _tally(values, 21, "mitm", 10**8, 0)
            _, dtype = self.check(monkeypatch, values, 21, want)
            assert dtype == np.int64
