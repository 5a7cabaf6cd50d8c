"""Acceptance gate: the headline empirical claims, one test per criterion.

Each test prints one `[acceptance] PASS/FAIL <name>` line (visible with
pytest -s). Frozen constants marked "regression" were produced by this code
once and pinned; changing them means the computation changed, not the world.
"""
import itertools
import math
import random
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from binsum import (
    BinomialSequence,
    ResourceBudgetError,
    RestrictedTupleSpec,
    asymptotic_ratio,
    binom,
    fit_energy_exponent,
    gap,
    min_rep_single,
    records_to_csv,
    records_to_json,
    restricted_distinct_sums,
    run_experiment,
    sumset_coverage_threshold,
    survey_min_rep,
)
from binsum.energy import (
    DEFAULT_DENSE_BUDGET,
    _admit,
    _fft_counts,
    _fold_counts,
    _tally,
)


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] FAIL {name}", flush=True)
        raise
    print(f"[acceptance] PASS {name}", flush=True)


def test_criterion_01_max_summands_order_two():
    with criterion("01 every N in [1, 10^6] is a sum of <= 3 triangulars, max hit"):
        survey = survey_min_rep(2, 1, 10**6)
        assert survey.max_terms == 3
        assert survey.exception_count == 0
        assert survey.witnesses[0] == (5, 3)


def test_criterion_02_max_summands_order_three():
    with criterion("02 every N in [1, 10^6] is a sum of <= 5 tetrahedrals, max hit"):
        survey = survey_min_rep(3, 1, 10**6)
        assert survey.max_terms == 5
        assert survey.exception_count == 0
        witnesses = [n for n, _ in survey.witnesses]
        assert witnesses[0] == 17
        assert witnesses == sorted(witnesses) and len(witnesses) == 10
        # cross-check each emitted witness with the independent single search
        for n in witnesses:
            assert min_rep_single(n, 3, 5) == 5, n


def test_criterion_03_known_hard_point():
    with criterion("03 minimal count for 17 at order 3 is 5, vs exhaustion"):
        assert min_rep_single(17, 3, 8) == 5
        coins = [1, 4, 10]  # the only order-3 values <= 17
        feasible = {
            t: any(
                sum(combo) == 17
                for combo in itertools.combinations_with_replacement(coins, t)
            )
            for t in range(1, 9)
        }
        assert feasible[5]
        assert not any(feasible[t] for t in range(1, 5))


def test_criterion_04_counting_law_bands():
    with criterion("04 count/leading-order ratio within 2% at three scales"):
        for k, x in ((2, 10**6), (3, 10**9), (4, 10**10)):
            ratio = asymptotic_ratio(k, x)
            assert 0.98 <= ratio <= 1.02, (k, x, ratio)


def test_criterion_05_gap_identity_exhaustive():
    with criterion("05 consecutive-element gap equals lower-order coefficient"):
        for k in range(2, 7):
            for n in range(k, 1001):
                assert gap(k, n) == binom(n, k - 1), (k, n)


def _moment_instances(budget=10**7):
    """Grid of (k, h, M) with (M - k + 1)**h <= budget, small to near-limit."""
    instances = []
    for k in (1, 2, 3, 4):
        for h in (1, 2, 3, 4):
            top = int(budget ** (1 / h))
            while (top + 1) ** h <= budget:
                top += 1
            counts = sorted({1, 2, 5, 33, min(464, top), min(10**4, top)})
            for count in counts:
                if count**h <= budget:
                    instances.append((k, h, k + count - 1))
    return instances


def _half_sum_pair_count(values, h):
    """E_h as a (2h)-tuple count: pairs of h-tuples with equal sums.

    Enumerates all len(values)**h ordered h-sums as a flat array, then counts
    equal pairs by sorting; never consults the tally engine.
    """
    sums = np.asarray(values, dtype=np.int64)
    for _ in range(h - 1):
        sums = (sums[:, None] + np.asarray(values, dtype=np.int64)[None, :]).ravel()
    sums.sort()
    boundaries = np.flatnonzero(np.diff(sums)) + 1
    runs = np.diff(np.r_[0, boundaries, sums.size])
    return int(np.sum(runs.astype(np.int64) ** 2)), sums


def _square_sum(counts):
    """sum(c * c) over a count array, exact: an int64 dot product where no
    partial sum can reach 2**63, Python ints otherwise."""
    top = int(counts.max())
    if len(counts) * top * top < 2**63:
        return int(counts @ counts)
    return sum(c * c for c in counts.tolist())


def test_criterion_06_moment_identities(monkeypatch):
    with criterion("06 first/second moment identities and all-strategy equality"):
        checked = folded = transformed = 0
        for k, h, m in _moment_instances():
            values = BinomialSequence(k).values_upto(binom(m, k))
            count = len(values)
            assert count == m - k + 1
            sums, counts = _tally(values, h, "direct", 10**7, 0)
            tallies = {"mitm": _tally(values, h, "mitm", 10**7, 0)}
            dense = {}
            # convolve runs the fold wherever it is admitted, and the FFT
            # wherever that is admitted once its crossover is set aside
            with monkeypatch.context() as patch:
                patch.setattr("binsum.energy._FFT_CROSSOVER", 0)
                try:
                    kernel, _ = _admit(count, values[-1], h, "convolve", 0, DEFAULT_DENSE_BUDGET)
                except ResourceBudgetError:
                    kernel = None
            if kernel is not None:
                tallies["convolve"] = _tally(
                    values, h, "convolve", 0, DEFAULT_DENSE_BUDGET, threads=2
                )
                dense["fold"] = _fold_counts(values, h, 2)
                folded += 1
            if kernel == "fft":
                dense["fft"] = _fft_counts(values, h)
                transformed += 1
            for name, (other_sums, other_counts) in tallies.items():
                assert np.array_equal(other_sums, sums), (name, k, h, m)
                assert np.array_equal(other_counts, counts), (name, k, h, m)
            for name, cells in dense.items():
                assert cells is not None and len(cells) == h * values[-1] + 1, (name, k, h, m)
                assert np.array_equal(np.flatnonzero(cells), sums), (name, k, h, m)
                assert np.array_equal(cells[sums], counts), (name, k, h, m)
            assert int(counts.sum()) == count**h, (k, h, m)
            energy = _square_sum(counts)
            pair_count, all_sums = _half_sum_pair_count(values, h)
            assert energy == pair_count, (k, h, m)
            if all_sums.size <= 2000:
                # literal 2h-tuple enumeration, quadratic but airtight
                literal = int(np.sum(all_sums[:, None] == all_sums[None, :]))
                assert energy == literal, (k, h, m)
            checked += 1
        assert checked >= 80 and folded >= 75 and transformed >= 55, (checked, folded, transformed)


def test_criterion_07_inequality_suite_randomized():
    with criterion("07 Cauchy-Schwarz and trivial bounds over >= 50 random configs"):
        rng = random.Random(20260825)
        done = 0
        while done < 50:
            k = rng.randint(1, 3)
            h = rng.randint(1, 3)
            x = rng.randint(50, 20000)
            c = Fraction(rng.randint(1, 9), 10)
            spec = RestrictedTupleSpec(order=k, arity=h, budget=x, fraction=c)
            if spec.per_term_cap < 1:
                continue
            rr = restricted_distinct_sums(spec)
            r = rr.report
            total, energy = r.total_tuples, r.energy
            assert r.distinct_sums >= math.ceil(total**2 / energy)
            assert r.max_multiplicity <= rr.admissible_count ** (h - 1)
            assert r.distinct_sums * r.max_multiplicity >= total
            done += 1


def test_criterion_08_distinct_sums_growth_ladder():
    with criterion("08 distinct sums grow >= 0.8 * 2^(1/k) per doubling to 10^7"):
        for k in (2, 3):
            h = k + 1
            counts = []
            for i in range(11):  # 10^4 .. 1.024 * 10^7
                x = 10**4 * 2**i
                spec = RestrictedTupleSpec(
                    order=k, arity=h, budget=x, fraction=Fraction(1, 2)
                )
                counts.append(restricted_distinct_sums(spec).report.distinct_sums)
            floor = 2 ** (1 / k) * 0.8
            for i, (a, b) in enumerate(zip(counts, counts[1:])):
                assert b / a >= floor, (k, i, a, b)


def test_criterion_09_coverage_threshold_regression():
    with criterion("09 two-triangular interval coverage threshold at 10^7"):
        repeats, distinct = sumset_coverage_threshold(10**7)
        assert isinstance(repeats, int) and isinstance(distinct, int)
        # regression: both modes still miss integers just above R/2 at this
        # scale, so the threshold equals R_max itself
        assert repeats == 10**7
        assert distinct == 10**7


def test_criterion_10_exponent_fit_reported_not_asserted():
    with criterion("10 pair-energy exponent fit emitted with residual"):
        fit = fit_energy_exponent(2, 2, [10**3, 10**4, 10**5, 10**6])
        assert len(fit.observations) == 4
        assert math.isfinite(fit.alpha_hat)
        assert fit.residual >= 0.0
        assert fit.comparison_exponent == 1.0
        # deliberately no bound on alpha_hat: the target is asymptotic


def test_criterion_11_exports_are_deterministic():
    with criterion("11 byte-identical exports across thread counts"):
        runs = []
        for threads in (1, 4, 2, 8):
            record, _ = run_experiment("survey-H", {"k": 2, "n_max": 200000}, threads=threads)
            runs.append((records_to_json([record]), records_to_csv([record])))
        assert all(run == runs[0] for run in runs[1:])

        energies = []
        for threads in (1, 3, 8):
            record, _ = run_experiment(
                "energy",
                {"k": 2, "h": 3, "index_bound": 200},
                threads=threads,
            )
            energies.append(records_to_json([record]))
        assert all(text == energies[0] for text in energies[1:])
