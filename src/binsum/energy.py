"""Multiplicity statistics for h-fold sums from an increasing sequence.

For a fixed sequence and index bound, r(s) counts the ordered h-tuples of
indices whose values sum to s. Everything downstream (the second moment,
the number of distinct sums, the largest multiplicity and the
Cauchy-Schwarz floor it implies) is derived from that tally with exact
integer arithmetic.

A tally has one form: a pair (sums, counts) of equal-length numpy arrays,
sums strictly increasing and counts positive, with r(sums[i]) = counts[i].
Both arrays are int64 when len(values)**h < 2**63 and h * values[-1] <
2**62, so no count or sum can wrap; otherwise both are object arrays of
Python ints. Only multiplicity_map turns a tally into a dict.

Three interchangeable tally strategies produce identical (sums, counts):

  direct    enumerate every tuple (the oracle; cost len**h), then group
            equal sums: int64 sums are counted in a dense array when they
            fill their range (h * max + 1 cells at most 9/8 of len**h),
            anything else is sorted
  mitm      enumerate both halves of the tuple, then convolve the two
            tallies (cost len**ceil(h/2) plus the cross product of distinct
            half sums, charged up front as _mitm_pairs): int64 pairs are
            scattered into a dense array when the output range is at most
            four cells per pair, anything else is sorted
  convolve  a dense count array indexed by sum (wins when sums are
            dense). Large inputs take a float FFT whose proposed counts
            count only once an exact integer certificate accepts them;
            the rest, and any proposal the certificate rejects, count the
            j-fold sums for the largest j with len**j <= j * max + 1 and
            fold in the other h - j factors in integers: shifted adds (cost
            len * h * max a step, split over threads), or a scatter of the
            nonzero cells (len each) where under 1 / _SPARSE_RATIO are.

"auto" tries direct for h <= 2, then convolve, then mitm, and runs the
first whose charges fit its budgets; convolve fits when no count of the
fold can pass int64 (len**(h-1) < 2**63) and its two count arrays fit the
byte budget. _admit charges every kernel from the number of values and the
largest one alone, and decides the kernel (direct, mitm, fft or fold) and
the tally's dtype, so an over-budget request is refused, naming each kernel
tried, before its values are listed. Floats never decide a count.
"""
from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .binom import SEQUENCES, IncreasingSequence
from .errors import ResourceBudgetError, _charge_text

__all__ = [
    "EnergyReport",
    "RestrictedTupleSpec",
    "RestrictedReport",
    "ExponentFit",
    "index_bound_for",
    "multiplicity_map",
    "energy_report",
    "restricted_distinct_sums",
    "fit_energy_exponent",
    "multiplicity_extremes",
]

DEFAULT_ENUMERATION_BUDGET = 20_000_000
DEFAULT_DENSE_BUDGET = 150_000_000
_PYTHON_FALLBACK_BUDGET = 1_000_000

# The convolve strategy's FFT kernel takes over from the fold at this many
# shifted adds per cell, (h - j) * len(values) with j = _counted_factors.
# Measured on a 2-core host at order 2: a one-thread fold loses from about
# 400, a two-thread fold from about 500 to 600. At order 3, with millions
# of cells, a one-thread fold still wins at 400 and a two-thread one at 500.
_FFT_CROSSOVER = 500
# The fold is refused past this many cell adds (count adds per cell of
# every folded step). On a 2-core host, k=2 h=4 M=2000 (2.8 * 10**10 int64
# adds) took 8.2 s on two threads and 12.1 s on one, about 2.3 * 10**9
# adds a second, so the largest fold admitted takes under a minute there.
_FOLD_WORK_BUDGET = 10**11
# Each cell of the dense budget grants this many bytes. The fold holds two
# count arrays however many threads share it: 8 B per cell at int32, 16 B
# at int64, so an int64 fold gets half the cells. The FFT kernel may use as
# many bytes.
_BUDGET_CELL_BYTES = 8
# A fold thread takes a slice of at least this many output cells: below
# about 2 * 10**5 cells two threads were slower than one on a 2-core host,
# since each value's shifted add is too short to hide the lock handoff.
_WORKER_CELLS = 100_000
# A fold step scatters its input's nonzero cells, each shifted by every
# value, while nonzero * _SPARSE_RATIO < cells. On a 2-core host (one step,
# best of 9) that won by 1.1-1.5 times at 21 to 30 cells per nonzero one in
# 6 of 7 instances, lost by 1.3-1.6 times below 18, and took 12 against
# 63 ms for the shifted adds at k=3 h=3 M=150 (102 cells per nonzero one).
_SPARSE_RATIO = 24
# Bytes a call may hold besides its arrays: small objects, the limb table,
# one chunk of counted sums.
_CALL_BYTES = 64 * 1024
# The FFT certificate works modulo the Mersenne prime 2**61 - 1, on rows
# of 1024 counts and 21-bit limbs of the powers of x.
_P61 = 2**61 - 1
_CERT_ROW = 1024
_LIMB_BITS = 21

STRATEGIES = ("auto", "direct", "mitm", "convolve")
# how a bound X caps the indices: see index_bound_for
CONVENTIONS = ("value", "index")


def _resolve_sequence(
    k: int, sequence: IncreasingSequence | str | None
) -> IncreasingSequence:
    if isinstance(sequence, IncreasingSequence):
        if sequence.order != k:
            raise ValueError(
                f"sequence order {sequence.order} does not match k={k}"
            )
        return sequence
    name = "binomial" if sequence is None else sequence
    if name not in SEQUENCES:
        raise ValueError(f"unknown sequence {sequence!r}")
    return SEQUENCES[name](k)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


Tally = tuple[np.ndarray, np.ndarray]


def _nonzero(dense: np.ndarray) -> np.ndarray:
    """Nonzero cells' indices, from a bool mask: 3-7x faster than from ints."""
    return np.flatnonzero(dense != 0)


def _tally_direct(values: list[int], h: int, dtype: type) -> Tally:
    """Full h-fold enumeration. The oracle the other strategies must match."""
    tuples = len(values) ** h
    arr = np.asarray(values, dtype=dtype)
    sums = arr
    for _ in range(h - 1):
        sums = np.add.outer(sums, arr).ravel()
    # np.unique holds a sorted int64 copy of the sums and a bool mask, 9 B
    # per tuple; a dense count array of at most that many bytes is cheaper.
    if dtype is np.int64 and 8 * (h * values[-1] + 1) <= 9 * tuples:
        dense = np.bincount(sums)
        keys = _nonzero(dense)
        return keys, dense[keys]
    keys, counts = np.unique(sums, return_counts=True)
    return keys, counts.astype(dtype, copy=False)


def _combine(left: Tally, right: Tally) -> Tally:
    """Convolution of two tallies: every cross pair, counts multiplied."""
    (lk, lc), (rk, rc) = left, right
    pairs = len(lk) * len(rk)
    # The cross weights sum to len(values)**h, so int64 cells cannot wrap
    # exactly when that tuple total is below 2**63.
    assert lc.dtype == object or int(lc.sum()) * int(rc.sum()) < 2**63
    # The sort below holds the pair sums, their weights, the sort order and
    # a sorted copy, 32 B per pair; a dense int64 array of at most four
    # cells per pair holds no more and is cheaper. Each side's keys are
    # distinct, so every fancy-index add touches distinct cells.
    # The loop runs over the left keys; mitm's left half is the smaller
    # fold, and a j-fold sumset has no more elements than the (j+1)-fold.
    span = int(lk[-1]) + int(rk[-1]) + 1
    if lc.dtype != object and span <= 4 * pairs:
        dense = np.zeros(span, dtype=np.int64)
        for key, weight in zip(lk.tolist(), lc.tolist()):
            dense[key + rk] += weight * rc
        keys = _nonzero(dense)
        return keys, dense[keys]
    sums = np.add.outer(lk, rk).ravel()
    weights = np.multiply.outer(lc, rc).ravel()
    order = np.argsort(sums)
    sums = sums[order]
    weights = weights[order]
    starts = np.flatnonzero(np.r_[True, sums[1:] != sums[:-1]])
    return sums[starts], np.add.reduceat(weights, starts)


def _tally_mitm(values: list[int], h: int, dtype: type) -> Tally:
    """Meet in the middle: tallies for both halves of the tuple, convolved."""
    if h == 1:
        return _tally_direct(values, 1, dtype)
    left_h = h // 2
    right_h = h - left_h
    left = _tally_direct(values, left_h, dtype)
    right = left if right_h == left_h else _tally_direct(values, right_h, dtype)
    return _combine(left, right)


def _smooth_length(cells: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= cells, a length pocketfft handles fast."""
    best = 2 * cells
    odd = 1
    while odd < best:
        m = odd
        while m < best:
            length = m << ((cells - 1) // m).bit_length()
            best = min(best, length)
            m *= 3
        odd *= 5
    return best


def _fft_bytes(count: int, top: int, h: int) -> int:
    """Peak-byte estimate of _fft_counts: 40 B per transform cell.

    That is the float indicator, the spectrum, its power, the irfft output
    and the int64 counts at 8 B per cell each (the complex arrays have
    half as many cells). The kernel frees each array once it is used, so
    the same total also covers pocketfft's untracked working memory of
    about 16 B per cell. 64 KiB per call cover the limb table and small
    objects.
    """
    return 40 * _smooth_length(h * top + 1) + _CALL_BYTES


def _power_limbs(x: int) -> np.ndarray:
    """x**j mod 2**61 - 1 for j < 1024, as three 21-bit int64 limbs each."""
    powers = [1] * _CERT_ROW
    for j in range(1, _CERT_ROW):
        powers[j] = powers[j - 1] * x % _P61
    shifts = np.arange(3, dtype=np.int64) * _LIMB_BITS
    return (np.array(powers, dtype=np.int64)[:, None] >> shifts) & ((1 << _LIMB_BITS) - 1)


def _poly_mod(coeffs: np.ndarray, x: int, limbs: np.ndarray) -> int:
    """sum(coeffs[j] * x**j) mod 2**61 - 1, exactly, for int64 coeffs in
    [0, 2**31] and limbs = _power_limbs(x).

    The coefficients are cut into rows of 1024, so each int64 row-times-limb
    dot product stays below 2**31 * 2**21 * 2**10 = 2**62. The rows are
    recombined by Horner's rule in x**1024 on Python ints.
    """
    rows = len(coeffs) // _CERT_ROW
    tail = coeffs[rows * _CERT_ROW :]
    dots = np.vstack([
        coeffs[: rows * _CERT_ROW].reshape(rows, _CERT_ROW) @ limbs,
        tail @ limbs[: len(tail)],
    ])
    step = pow(x, _CERT_ROW, _P61)
    acc = 0
    for low, mid, high in reversed(dots.tolist()):
        acc = (acc * step + low + (mid << _LIMB_BITS) + (high << 2 * _LIMB_BITS)) % _P61
    return acc


def _certify(counts: np.ndarray, values: list[int], h: int, x: int) -> bool:
    """Whether counts are the exact h-fold tally, for a uniformly random x
    and len(values)**(h-1) < 2**31.

    No cell of the true tally exceeds len(values)**(h-1), the cells total
    len(values)**h, and as polynomials P(x)**h = sum(counts[s] * x**s) with
    P(x) = sum(x**v). A wrong vector within the bounds differs from the
    truth by a nonzero polynomial of degree below len(counts) modulo the
    prime 2**61 - 1, so it passes with probability at most len(counts) /
    2**61 (Schwartz-Zippel), below 2**-33 within the default dense budget.
    """
    n = len(values)
    if counts.min() < 0 or counts.max() > n ** (h - 1):
        return False
    if int(counts.sum()) != n**h:
        return False
    indicator = np.zeros(values[-1] + 1, dtype=np.int64)
    indicator[values] = 1
    limbs = _power_limbs(x)
    return pow(_poly_mod(indicator, x, limbs), h, _P61) == _poly_mod(counts, x, limbs)


def _fft_counts(values: list[int], h: int) -> np.ndarray | None:
    """The dense tally proposed by a float FFT, or None if uncertified.

    The 0/1 indicator of the values is transformed once, its spectrum
    raised to the h-th power by repeated multiplies, transformed back and
    rounded. Floats only propose the counts; _certify decides them.
    """
    from numpy import fft

    cells = h * values[-1] + 1
    length = _smooth_length(cells)
    indicator = np.zeros(length)
    indicator[values] = 1.0
    spectrum = fft.rfft(indicator)
    del indicator
    power = spectrum.copy()
    for _ in range(h - 1):
        power *= spectrum
    del spectrum
    proposal = fft.irfft(power, length)
    del power
    counts = np.empty(cells, dtype=np.int64)
    np.rint(proposal[:cells], out=counts, casting="unsafe")
    del proposal
    x = random.SystemRandom().randrange(_P61)
    return counts if _certify(counts, values, h, x) else None


def _counted_factors(count: int, top: int, h: int) -> int:
    """How many factors _fold_counts counts instead of folding: the largest
    j <= h whose count**j sums of values up to top fit the j-fold array's
    cells, where counting them costs about one pass over that array."""
    if count == 1:
        return h
    j = 1
    while j < h and count ** (j + 1) <= (j + 1) * top + 1:
        j += 1
    return j


def _fold_counts(values: list[int], h: int, threads: int) -> np.ndarray:
    """Dense tally by repeated convolution, in exact integers.

    Cell s after folding i factors counts the ordered i-tuples summing to s.
    The first _counted_factors = j factors are counted at once: the j-fold
    sums are scattered into the count array by np.add.at, in chunks of
    _CALL_BYTES (or one row of len(values) sums, if larger). Each further
    factor is one step: where under 1 / _SPARSE_RATIO of its input is
    nonzero, those cells' sums with every value are scattered the same way,
    weighted by their counts; else it is len(values) shifted adds.
    Counts are bounded by len(values)**(h-1) per cell, which picks int32 or
    int64; _admit refuses the fold where that bound reaches 2**63. No step
    holds more than two count arrays of the result's size, 8 B per cell at
    int32 and 16 B at int64, plus the (j-1)-fold sums and one chunk. A
    sparse step's nonzero keys and counts take under 16 / _SPARSE_RATIO B
    per input cell, and it frees the input before allocating the output.

    With threads, each dense step splits its output range into disjoint
    slices, one per worker, and each worker adds the part of every shifted
    copy that lands in its slice; no worker holds a copy of the array. A
    slice has at least _WORKER_CELLS cells of the result, so small folds
    stay serial and start no pool.
    """
    dtype = np.int32 if len(values) ** (h - 1) < 2**31 else np.int64
    top = values[-1]
    start = _counted_factors(len(values), top, h)
    arr = np.asarray(values, dtype=np.int64)
    heads = np.zeros(1, dtype=np.int64)
    for _ in range(start - 1):
        heads = np.add.outer(heads, arr).ravel()
    acc = np.zeros(start * top + 1, dtype=dtype)
    # a chunk of rows x len(values) sums, with their weights in a sparse step
    rows = max(1, _CALL_BYTES // (16 * len(values)))
    for r in range(0, len(heads), rows):
        np.add.at(acc, np.add.outer(heads[r : r + rows], arr).ravel(), dtype(1))
    del heads

    def fold(nxt: np.ndarray, lo: int, hi: int) -> None:
        span = acc.size
        for v in values:
            a, b = max(lo, v), min(hi, v + span)
            if a < b:
                nxt[a:b] += acc[a - v : b - v]

    workers = max(1, min(threads, (h * top + 1) // _WORKER_CELLS)) if start < h else 1
    pool = nullcontext()
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=workers)
    with pool as executor:
        run = executor.map if executor else map
        for step in range(start + 1, h + 1):
            if np.count_nonzero(acc) * _SPARSE_RATIO < acc.size:
                keys = _nonzero(acc)
                weights = acc[keys]
                del acc  # before the output is allocated
                acc = np.zeros(step * top + 1, dtype=dtype)
                for r in range(0, len(keys), rows):
                    np.add.at(acc, np.add.outer(keys[r : r + rows], arr).ravel(),
                              np.repeat(weights[r : r + rows], len(values)))
                del keys, weights
            else:
                nxt = np.zeros(step * top + 1, dtype=dtype)
                cuts = [nxt.size * w // workers for w in range(workers + 1)]
                list(run(fold, [nxt] * workers, cuts[:-1], cuts[1:]))
                acc = nxt
    return acc


def _mitm_pairs(count: int, top: int, h: int) -> int:
    """mitm's cross pairs, bounded by the distinct sums of each half of j
    positive values: one per multiset, one per integer in [j, j * top]. A
    binomial C(n, m) with m <= n / 2 is at least 2**m, so one that must pass
    the second bound is never built."""
    from math import comb, prod

    def distinct(j: int) -> int:
        n, cap = count + j - 1, j * (top - 1) + 1
        return cap if min(j, n - j) > cap.bit_length() else min(comb(n, j), cap)

    return prod(distinct(j) for j in (h // 2, h - h // 2))


def _power_over(base: int, power: int, limit: int) -> bool:
    """base**power > limit, from bit lengths where the power is surely longer
    than limit: no power is built past twice limit's length."""
    return power * (base.bit_length() - 1) >= limit.bit_length() or base**power > limit


def _admit(
    count: int, top: int, h: int, strategy: str, enumeration_budget: int, dense_budget: int
) -> tuple[str, type]:
    """The kernel (direct, mitm, fft or fold) that tallies h-fold sums of
    count values, the largest top, and the tally's dtype: int64 when no
    sum (at most h * top) and no count (at most count**h) can wrap, else
    object. Only count and top are read, so a request is refused before
    any list of values is built.

    One table charges what each kernel builds against the budget that caps
    it: direct's tuples; mitm's larger half and its cross pairs; convolve's
    two count arrays (8 B per cell at int32, 16 B at int64) and its largest
    count, count**(h-1), and where it runs as the fold, not the FFT, the
    fold's cell adds against _FOLD_WORK_BUDGET. Tuples and pairs of object
    values are charged the Python-int budget too. auto tries direct (h <=
    2), convolve, then mitm; another strategy tries itself. The first
    kernel that fits runs, else ResourceBudgetError names each kernel tried
    with its first charge over budget. Powers are weighed by bit length, and only the refusal of a lone
    kernel builds its charge, which it carries exact. convolve runs as the
    certified FFT once its shifted adds per cell reach _FFT_CROSSOVER, every
    count fits int32 and _fft_bytes fits the byte budget.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    dtype = object if _power_over(count, h, 2**63 - 1) or h * top >= 2**62 else np.int64
    int32 = not _power_over(count, h - 1, 2**31 - 1)  # convolve's largest count
    # int64 sums need h * top < 2**62, so no more cells than that
    byte_budget = _BUDGET_CELL_BYTES * min(dense_budget, 2**62)

    # rows (message, base, power, budget) that charge base**power; required
    # tuples or pairs, and the Python ints they add where combined
    def built(what: str, unit: str, base: int, power: int, combined: bool) -> list:
        rows = [(f"{what} exceeds the {unit} budget", base, power, enumeration_budget)]
        if combined and dtype is object:
            rows.append((f"{what} over oversized values exceeds the Python-int budget",
                         base, power, _PYTHON_FALLBACK_BUDGET))
        return rows

    half = h - h // 2
    table = {
        "direct": built("direct enumeration", "tuple", count, h, h > 1),
        "mitm": built("mitm's larger half", "tuple", count, half, half > 1)
        + built("mitm's cross product", "pair", _mitm_pairs(count, top, h), 1, h > 1),
        "convolve": [("dense convolution exceeds the byte budget",
                      (8 if int32 else 16) * (h * top + 1), 1, byte_budget),
                     ("dense convolution counts can exceed int64", count, h - 1, 2**63 - 1)],
    }
    # convolve runs as the certified FFT or else as the fold, whose cell adds
    # are charged: count per cell of every folded step s = j + 1 .. h. Both
    # are weighed only once its sizes pass, as j can take h steps to find
    fft = False
    if not any(_power_over(*row[1:]) for row in table["convolve"]):
        j = _counted_factors(count, top, h)
        fft = ((h - j) * count >= _FFT_CROSSOVER
               and int32 and _fft_bytes(count, top, h) <= byte_budget)
        if not fft:
            adds = count * (top * (h * (h + 1) - j * (j + 1)) // 2 + h - j)
            table["convolve"].append(
                ("dense convolution's fold exceeds the work budget", adds, 1, _FOLD_WORK_BUDGET))
    refused = []
    auto = ("direct", "convolve", "mitm") if h <= 2 else ("convolve", "mitm")
    for kernel in auto if strategy == "auto" else (strategy,):
        over = [row for row in table[kernel] if _power_over(*row[1:])]
        if not over:
            break
        refused.append(over[0])
    else:
        if len(refused) == 1:  # the one refusal carries its exact charge
            message, base, power, budget = refused[0]
            raise ResourceBudgetError(message, required=base**power, budget=budget)
        raise ResourceBudgetError(
            "no tally kernel fits: " + "; ".join(_charge_text(*row) for row in refused))
    if kernel != "convolve":
        return kernel, dtype
    return ("fft" if fft else "fold"), dtype


def _run_kernel(values: list[int], h: int, kernel: str, dtype: type, threads: int) -> Tally:
    """The tally by the kernel _admit picked, in the dtype it picked. An
    FFT proposal the certificate refuses is replaced by the fold. One
    value's one h-tuple is answered directly, in no time linear in h."""
    if len(values) == 1:
        return np.array([h * values[0]], dtype=dtype), np.ones(1, dtype=dtype)
    if kernel == "direct":
        return _tally_direct(values, h, dtype)
    if kernel == "mitm":
        return _tally_mitm(values, h, dtype)
    dense = _fft_counts(values, h) if kernel == "fft" else None
    if dense is None:
        dense = _fold_counts(values, h, threads)
    keys = _nonzero(dense)
    return keys.astype(dtype, copy=False), dense[keys].astype(dtype, copy=False)


def _tally(
    values: list[int],
    h: int,
    strategy: str = "auto",
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
    dense_budget: int = DEFAULT_DENSE_BUDGET,
    threads: int = 1,
) -> Tally:
    """Admit, then run; every strategy returns the same exact (sums,
    counts) pair, in the dtype _admit picks."""
    kernel, dtype = _admit(len(values), values[-1], h, strategy, enumeration_budget, dense_budget)
    return _run_kernel(values, h, kernel, dtype, threads)


def _sequence_tally(
    seq: IncreasingSequence, h: int, index_bound: int, strategy: str = "auto", threads: int = 1
) -> Tally:
    """The tally of h-fold sums of seq's values at indices up to
    index_bound. The strategy is admitted before the values are listed."""
    if h < 1:
        raise ValueError(f"arity must be h >= 1, got {h}")
    if index_bound < seq.first_index:
        raise ValueError(
            f"index_bound must be >= {seq.first_index}, got {index_bound}"
        )
    kernel, dtype = _admit(index_bound - seq.first_index + 1, seq.value(index_bound), h,
                           strategy, DEFAULT_ENUMERATION_BUDGET, DEFAULT_DENSE_BUDGET)
    values = seq.values_upto(seq.value(index_bound))
    return _run_kernel(values, h, kernel, dtype, threads)


def multiplicity_map(
    k: int,
    h: int,
    index_bound: int,
    *,
    sequence: IncreasingSequence | str | None = None,
    strategy: str = "auto",
    threads: int = 1,
) -> dict[int, int]:
    """Tally {sum s: r(s)} over ordered h-tuples of indices in
    [first_index, index_bound].

    All strategies return identical exact counts; see the module docstring
    for their cost profiles.
    """
    seq = _resolve_sequence(k, sequence)
    sums, counts = _sequence_tally(seq, h, index_bound, strategy, threads)
    return dict(zip(sums.tolist(), counts.tolist()))


def _aggregate(tally: Tally) -> tuple[int, int, int, int]:
    """(total, energy, distinct, max multiplicity) of a tally."""
    counts = tally[1]
    distinct = len(counts)
    max_mult = int(counts.max())
    # int64 reductions only where the worst case provably fits
    if counts.dtype != object and distinct * max_mult * max_mult < 2**62:
        return int(counts.sum()), int(counts @ counts), distinct, max_mult
    exact = counts.tolist()
    return sum(exact), sum(c * c for c in exact), distinct, max_mult


def _top(tally: Tally, top: int) -> list[tuple[int, int]]:
    """The top entries as (s, r(s)), r descending then s ascending.

    Only counts at or above the top-th largest are sorted; ties at that
    cut all survive the selection, and the sort decides among them.
    """
    sums, counts = tally
    cut = len(counts) - top
    if cut > 0:
        keep = np.flatnonzero(counts >= np.partition(counts, cut)[cut])
        sums, counts = sums[keep], counts[keep]
    order = np.lexsort((sums, -counts))[:top]
    return list(zip(sums[order].tolist(), counts[order].tolist()))


@dataclass(frozen=True)
class EnergyReport:
    """Aggregate multiplicity statistics for one (order, arity, bound) cell.

    total_tuples is the number of ordered h-tuples, energy the second moment
    sum of r(s)**2, and cs_lower_bound the Cauchy-Schwarz floor
    ceil(total**2 / energy) on the number of distinct sums. All fields are
    exact; the defining inequalities are checked at construction.
    extremes holds the top sums by multiplicity as (s, r(s)), r descending
    then s ascending, when energy_report was asked for them.
    """

    order: int
    arity: int
    index_bound: int
    sequence: str
    admissible_count: int
    total_tuples: int
    energy: int
    distinct_sums: int
    max_multiplicity: int
    cs_lower_bound: int
    extremes: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        assert self.total_tuples == self.admissible_count**self.arity
        assert self.energy >= self.total_tuples
        assert self.distinct_sums * self.max_multiplicity >= self.total_tuples
        assert self.distinct_sums >= self.cs_lower_bound


def energy_report(
    k: int,
    h: int,
    index_bound: int,
    *,
    top: int = 0,
    sequence: IncreasingSequence | str | None = None,
    threads: int = 1,
) -> EnergyReport:
    """Exact multiplicity aggregates for h-fold sums up to index_bound.

    With top > 0 the report also holds the top sums by multiplicity (see
    multiplicity_extremes), read from the same tally.
    """
    seq = _resolve_sequence(k, sequence)
    tally = _sequence_tally(seq, h, index_bound, threads=threads)
    total, energy, distinct, max_mult = _aggregate(tally)
    return EnergyReport(
        order=k,
        arity=h,
        index_bound=index_bound,
        sequence=seq.kind,
        admissible_count=index_bound - seq.first_index + 1,
        total_tuples=total,
        energy=energy,
        distinct_sums=distinct,
        max_multiplicity=max_mult,
        cs_lower_bound=_ceil_div(total * total, energy),
        extremes=_top(tally, top) if top > 0 else [],
    )


def index_bound_for(
    k: int,
    bound: int,
    convention: str = "value",
    *,
    sequence: IncreasingSequence | str | None = None,
) -> int:
    """Index cap for a bound X: under the "value" convention every admitted
    value is <= X; under the literal "index" convention the indices
    themselves run up to X."""
    if convention == "value":
        return _resolve_sequence(k, sequence).floor_index(bound)
    if convention == "index":
        return bound
    raise ValueError(f"convention must be in {CONVENTIONS}, got {convention!r}")


@dataclass(frozen=True)
class RestrictedTupleSpec:
    """Tuples whose every term is capped so the whole sum stays within budget.

    The per-term cap floor(c * X / h) is computed with exact rational
    arithmetic, so any h admissible values sum to at most c * X <= X.
    """

    order: int
    arity: int
    budget: int
    fraction: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "fraction", Fraction(self.fraction))
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1, got {self.arity}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if not (0 < self.fraction < 1):
            raise ValueError(f"fraction must be in (0, 1), got {self.fraction}")

    @property
    def per_term_cap(self) -> int:
        c = self.fraction
        return (c.numerator * self.budget) // (c.denominator * self.arity)


@dataclass(frozen=True)
class RestrictedReport:
    """EnergyReport plus the bounds specific to capped tuples.

    trivial_bound is admissible_count**(h-1): fixing all but one coordinate
    determines the last, so no sum can have a larger multiplicity.
    floor_lower_bound is ceil(total / max multiplicity), a second floor on
    the number of distinct sums. Both checks are asserted at construction.
    """

    spec: RestrictedTupleSpec
    report: EnergyReport
    per_term_cap: int
    max_index: int
    admissible_count: int
    trivial_bound: int
    floor_lower_bound: int

    def __post_init__(self) -> None:
        assert self.report.max_multiplicity <= self.trivial_bound
        assert self.report.distinct_sums >= self.floor_lower_bound

    @property
    def trivial_bound_ok(self) -> bool:
        return self.report.max_multiplicity <= self.trivial_bound

    @property
    def floor_ok(self) -> bool:
        return self.report.distinct_sums >= self.floor_lower_bound


def restricted_distinct_sums(
    spec: RestrictedTupleSpec,
    *,
    sequence: IncreasingSequence | str | None = None,
    threads: int = 1,
) -> RestrictedReport:
    """Multiplicity aggregates for tuples with per-term value cap
    floor(c * X / h)."""
    seq = _resolve_sequence(spec.order, sequence)
    cap = spec.per_term_cap
    if cap < 1:
        raise ValueError(
            f"per-term cap {cap} admits no values; raise the budget or fraction"
        )
    max_index = seq.floor_index(cap)
    assert spec.arity * seq.value(max_index) <= (
        spec.fraction.numerator * spec.budget // spec.fraction.denominator
    ) <= spec.budget
    report = energy_report(spec.order, spec.arity, max_index, sequence=seq, threads=threads)
    count = report.admissible_count
    return RestrictedReport(
        spec=spec,
        report=report,
        per_term_cap=cap,
        max_index=max_index,
        admissible_count=count,
        trivial_bound=count ** (spec.arity - 1),
        floor_lower_bound=_ceil_div(report.total_tuples, report.max_multiplicity),
    )


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of log(energy) against log(bound).

    hypothesis_plausible records whether the fitted exponent sits below the
    comparison exponent 2h/k - 1; residual is the L2 norm of the log-scale
    fit residuals.
    """

    order: int
    arity: int
    sequence: str
    observations: tuple[tuple[int, int], ...]
    alpha_hat: float
    intercept: float
    residual: float
    comparison_exponent: float
    hypothesis_plausible: bool


def fit_energy_exponent(
    k: int,
    h: int,
    bounds: list[int],
    *,
    sequence: IncreasingSequence | str | None = None,
    threads: int = 1,
) -> ExponentFit:
    """Fit energy growth across value bounds; the index bound for each X is
    floor_index(k, X).

    Needs at least three strictly increasing bounds.
    """
    if len(bounds) < 3:
        raise ValueError(f"need at least 3 bounds, got {len(bounds)}")
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ValueError("bounds must be strictly increasing")
    seq = _resolve_sequence(k, sequence)
    observations = []
    for bound in bounds:
        report = energy_report(k, h, seq.floor_index(bound), sequence=seq, threads=threads)
        observations.append((bound, report.energy))
    x = np.log([float(b) for b, _ in observations])
    y = np.log([float(e) for _, e in observations])
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.sum((slope * x + intercept - y) ** 2)))
    comparison = 2.0 * h / k - 1.0
    return ExponentFit(
        order=k,
        arity=h,
        sequence=seq.kind,
        observations=tuple(observations),
        alpha_hat=float(slope),
        intercept=float(intercept),
        residual=residual,
        comparison_exponent=comparison,
        hypothesis_plausible=bool(slope < comparison),
    )


def multiplicity_extremes(
    k: int,
    h: int,
    index_bound: int,
    top: int,
    *,
    sequence: IncreasingSequence | str | None = None,
    threads: int = 1,
) -> list[tuple[int, int]]:
    """The top sums by multiplicity: (s, r(s)) with r descending, ties by
    smaller s first. These are energy_report(..., top=top).extremes; a
    caller that wants the aggregates too should ask energy_report, which
    tallies once for both."""
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    return energy_report(
        k, h, index_bound, top=top, sequence=sequence, threads=threads
    ).extremes
