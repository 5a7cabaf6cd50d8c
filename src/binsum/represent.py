"""Decompositions of integers into sums of binomial coefficients C(n, k).

Two families of tools live here. Constructive decompositions peel the
largest usable element: order 2 completes the small remainder with a
two-term scan, and order 3 is the depth-limited search within seven terms,
whose first branch at every level is that peel. Exact oracles answer "how
few summands suffice": a dense dynamic program over a whole range, and the
same search for single targets. The two admission policies (repeats or
distinct elements) are a mode shared by every search entry point.

The single-target search and the order-2 completion share one routine for
their last two terms. At orders 2 to 5 it walks the candidate leading
terms in fixed-size blocks and tests every completion in a block with one
set of int64 numpy operations; at every other order, and wherever a
product could wrap int64, it walks one candidate at a time on Python ints.

The range oracles (min_rep_table and the surveys) hold every set of
reachable targets as packed little-endian uint64 words, bit j for target
j; only the per-target counts are uint8. Shifting a set by a
coin v becomes a byte offset of v // 8 applied to one of eight copies of
the set pre-shifted by 0..7 bits, so one OR covers eight targets per byte.
One kernel, _next_layer, does every such OR, and one walk, _layer_walk,
grows the layers. Coin v may shift only the layer's cells up to v, writing
the window [v, 2v]: the layer of sums of at most two coins needs no more,
since a pair's larger coin is one of its terms. Repeats layers grow layer 2
through these windows and later layers over the whole range, stopping,
exactly, once every target is reached. The repeats table reads a count off
each layer; a repeats survey reads only the layers' new bits in range, and
a distinct survey reads the table.

The coverage scan needs only the highest target that no sum of at most two
triangular numbers reaches, so it holds no layer: it walks down from the
range end one fixed-size window at a time, marking the pair sums that land
in the window from sorted int64 coins (_highest_uncovered).

Distinct windows ([v, 2v - 1]) add only sums of distinct coins to a layer
of such sums, and grow layer 1 into all sums of two, so a distinct table
to depth 3 is the same builder: counts 1 and 2 are exact, a first reach at
layer 3 is exactly 3, and the few three-term sums layer 3 misses read as
uncovered. Deeper
distinct counts come from a level grid (_distinct_table) that keeps one
packed level per term count and shifts them all by each coin, so its cost
grows with the number of levels. Only small targets need deep levels
(distinct triangular sums need 4 terms only at 20), so a range past a base
size first builds the exact table of its prefix [0, n // 64], recursively.
A whole-range pass then keeps only as many levels as the prefix's top half
needs, as window layers while that is at most 3, and the prefix's counts
are copied back below it. Should a target above the prefix still be
uncovered, one full-depth grid pass over [0, u], u the last such target,
replaces the counts up to u. Working-memory estimates count the bytes of
these arrays and their temporaries, and each distinct pass is checked
against the budget before it allocates.
"""
from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .binom import (_INT64_LIMIT, BinomialSequence, _binom_array, binom, count_upto,
                    floor_index, gap)
from .errors import ResourceBudgetError

__all__ = [
    "SearchMode",
    "Representation",
    "MinRepTable",
    "MinRepSurvey",
    "CoverageThresholds",
    "EXCEEDS_CAP",
    "CAP_MAX",
    "greedy_leading_term",
    "two_triangular",
    "greedy_chain",
    "decompose_k2",
    "decompose_k3",
    "minimal_representation",
    "min_rep_single",
    "min_rep_table",
    "survey_min_rep",
    "sumset_coverage_threshold",
]

# uint8 table cells: counts up to CAP_MAX are exact, EXCEEDS_CAP marks
# "no representation within the cap".
EXCEEDS_CAP = 255
CAP_MAX = 254

DEFAULT_MEMORY_BUDGET = 4 * 1024**3

# Working-memory estimates add Python objects per coin (the coin list and
# the layer-2 windows' byte offsets) and per call (array headers, views and
# other small objects) to the arrays.
_COIN_BYTES = 160
_CALL_BYTES = 16 * 1024

# Packed target sets: bit j (bit j % 64 of uint64 word j // 64) stands for
# target j. Byte views of the words assume a little-endian host.
_ALL = 2**64 - 1
_PHASE_SHIFTS = np.arange(8, dtype=np.uint64)[:, None]

# The two-term completion tests this many candidates per numpy pass, in
# int64 only while top ** k < _INT64_LIMIT: then every partial product and
# every remainder (at most 2 C(top, k)) is below 2 ** 63, and the float
# root estimates are off by far less than their 0.1 margin.
_SCAN_BLOCK = 4096


class SearchMode(enum.Enum):
    """Summand admission policy for representation searches."""

    REPEATS = "repeats"
    DISTINCT = "distinct"

    @classmethod
    def coerce(cls, value: "SearchMode | str") -> "SearchMode":
        if isinstance(value, cls):
            return value
        return cls(value)


DEFAULT_SURVEY_CAP = {SearchMode.REPEATS: CAP_MAX, SearchMode.DISTINCT: 8}


@dataclass(frozen=True)
class Representation:
    """A verified multiset of indices whose C(n, order) values sum to target.

    Indices are normalized to descending order. The sum is checked at
    construction, so an instance cannot exist in an inconsistent state.
    """

    target: int
    order: int
    indices: tuple[int, ...]
    distinct: bool = field(init=False)

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        idx = tuple(sorted(self.indices, reverse=True))
        object.__setattr__(self, "indices", idx)
        if any(n < self.order for n in idx):
            raise ValueError(f"all indices must be >= {self.order}, got {idx}")
        total = sum(binom(n, self.order) for n in idx)
        if total != self.target:
            raise ValueError(
                f"indices sum to {total}, expected target {self.target}"
            )
        object.__setattr__(self, "distinct", len(set(idx)) == len(idx))

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(binom(n, self.order) for n in self.indices)

    def __len__(self) -> int:
        return len(self.indices)


def greedy_leading_term(target: int, k: int) -> tuple[int, int]:
    """Largest index n1 with C(n1, k) <= target, and the leftover.

    The leftover is strictly below the gap to the next element, which is
    what makes greedy peeling useful: for k = 2 it is below n1 itself.
    """
    if target < 1:
        raise ValueError(f"target must be >= 1, got {target}")
    n1 = floor_index(k, target)
    remainder = target - binom(n1, k)
    assert 0 <= remainder < gap(k, n1)
    return n1, remainder


def two_triangular(
    remainder: int, mode: SearchMode | str = SearchMode.REPEATS
) -> tuple[int, ...] | None:
    """Indices of at most two triangular numbers summing to remainder.

    Zero terms cover 0 and one term covers an exact triangular number.
    Otherwise ordered pairs a >= b are scanned with a descending, so the
    witness with the largest leading value wins; the scan tests whole
    blocks of candidates a at once (see _two_term_completion). Distinct
    mode rejects a == b. Returns None when no such sum exists.
    """
    mode = SearchMode.coerce(mode)
    if remainder < 0:
        raise ValueError(f"remainder must be >= 0, got {remainder}")
    if remainder == 0:
        return ()
    # floor_index(2, r) <= r + 1, so this cap never binds
    return _two_term_completion(
        remainder, 2, remainder + 1, mode is SearchMode.DISTINCT
    )


def greedy_chain(target: int, k: int) -> list[int]:
    """Indices from repeatedly peeling the leading term until nothing is left.

    Always terminates (each step removes at least 1).
    """
    if target < 1:
        raise ValueError(f"target must be >= 1, got {target}")
    indices: list[int] = []
    remainder = target
    while remainder:
        n, remainder = greedy_leading_term(remainder, k)
        indices.append(n)
    return indices


def _two_term_completion(
    remainder: int, k: int, index_cap: int, distinct: bool
) -> tuple[int, ...] | None:
    """The first hit of the depth-first search at a node with two terms left.

    Candidates a run down from min(index_cap, floor_index(k, remainder))
    while 2 C(a, k) >= remainder. The first a for which rest = remainder -
    C(a, k) is 0 gives (a,); one for which rest = C(b, k) with b <= a (b < a
    in distinct mode) gives (a, b). None when no candidate completes.

    For orders 2 to 5, while every product fits int64, numpy tests a block
    of candidates at once. The only b worth testing is the rounded estimate
    (k! rest) ** (1 / k) + (k - 1) / 2: when rest = C(b, k) the estimate is
    the geometric mean of b, b - 1, ..., b - k + 1 plus (k - 1) / 2, which
    lies in [b - 0.4, b] by AM-GM (the gap is widest at b = k, and reaches
    0.51 at k = 6). Elsewhere the same walk runs one candidate at a time on
    Python ints.
    """
    top = min(index_cap, floor_index(k, remainder))
    if top < k:
        return None
    v = binom(top, k)
    if 2 * v < remainder:
        return None
    if v == remainder:
        return (top,)
    if not (2 <= k <= 5 and top**k < _INT64_LIMIT):
        for a in range(top, k - 1, -1):
            va = binom(a, k)
            if 2 * va < remainder:
                return None
            rest = remainder - va
            b = floor_index(k, rest)
            if (b < a if distinct else b <= a) and binom(b, k) == rest:
                return (a, b)
        return None
    scale, shift = float(math.factorial(k)), (k - 1) / 2
    # The live candidates (2 C(a, k) >= remainder) end near the estimate
    # below; the first block stops a little under it and later blocks are
    # full. A match on a live candidate has C(b, k) = rest <= C(a, k), so
    # b <= a. A match on a dead one would have C(b, k) > C(a, k) with b
    # clipped to at most hi, and the earlier candidate b would match a; so
    # the first match is always the hit.
    bottom = int((scale * remainder / 2) ** (1 / k) + shift) - 2
    hi, lo = top, max(k, min(top, bottom), top - _SCAN_BLOCK + 1)
    while True:
        a = np.arange(hi, lo - 1, -1, dtype=np.int64)
        rest = remainder - _binom_array(a, k)
        b = ((rest * scale) ** (1 / k) + (shift + 0.5)).astype(np.int64)
        np.minimum(b, hi, out=b)
        match = _binom_array(b, k) == rest
        if distinct:
            match &= b != a
        i = int(match.argmax())
        if match[i]:
            return (int(a[i]), int(b[i]))
        if lo == k or 2 * binom(lo, k) < remainder:
            return None
        hi, lo = lo - 1, max(k, lo - _SCAN_BLOCK)


def _bounded_search(
    target: int,
    k: int,
    max_terms: int,
    mode: SearchMode,
    index_cap: int | None = None,
) -> tuple[int, ...] | None:
    """A representation of target with at most max_terms summands, or None.

    Depth-first over descending indices. The next index never exceeds the
    previous one (strictly below it in distinct mode) and never exceeds the
    floor index of the remainder; a branch dies once even max copies of its
    largest usable value cannot reach the remainder. The last two levels
    are one vectorised scan, _two_term_completion. Each level tries the
    floor index first, so a greedy chain within max_terms is the first hit;
    index_cap, if given, caps the leading index.
    """
    distinct = mode is SearchMode.DISTINCT

    def dfs(remainder: int, budget: int, index_cap: int) -> tuple[int, ...] | None:
        if remainder == 0:
            return ()
        if budget == 2:
            return _two_term_completion(remainder, k, index_cap, distinct)
        n = min(index_cap, floor_index(k, remainder))
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
    if index_cap is None:
        index_cap = floor_index(k, target)
    return dfs(target, max_terms, index_cap)


def minimal_representation(
    target: int,
    k: int,
    h_max: int = 8,
    mode: SearchMode | str = SearchMode.REPEATS,
) -> Representation | None:
    """A representation of target with the fewest summands, up to h_max.

    Iterative deepening: term budgets are tried in increasing order, so the
    first hit is minimal. Returns None when even h_max terms do not suffice.
    """
    mode = SearchMode.coerce(mode)
    if target < 1:
        raise ValueError(f"target must be >= 1, got {target}")
    if h_max < 1:
        raise ValueError(f"h_max must be >= 1, got {h_max}")
    for budget in range(1, h_max + 1):
        found = _bounded_search(target, k, budget, mode)
        if found is not None:
            assert len(found) == budget
            return Representation(target, k, found)
    return None


def min_rep_single(
    target: int,
    k: int,
    h_max: int = 8,
    mode: SearchMode | str = SearchMode.REPEATS,
) -> int | None:
    """Minimal number of summands for a single target, or None above h_max.

    Agrees with min_rep_table wherever both apply; the table is the better
    tool for dense ranges, this one for isolated large targets.
    """
    rep = minimal_representation(target, k, h_max, mode)
    return None if rep is None else len(rep)


def decompose_k2(
    target: int, mode: SearchMode | str = SearchMode.REPEATS
) -> Representation | None:
    """At most three triangular summands for target, or None.

    Constructive route first: peel the largest triangular number, then
    complete the remainder with at most two more. That completion fails
    for about a quarter of targets up to 10^3 and for more as they grow,
    three fifths of those in [10^10, 10^14], since sums of two triangular
    numbers thin out. Each failure falls back to the bounded search over
    all sums of at most three terms.
    """
    mode = SearchMode.coerce(mode)
    if target < 1:
        raise ValueError(f"target must be >= 1, got {target}")
    n1, remainder = greedy_leading_term(target, 2)
    tail = two_triangular(remainder, mode)
    if tail is not None:
        indices = (n1, *tail)
        if mode is SearchMode.REPEATS or len(set(indices)) == len(indices):
            return Representation(target, 2, indices)
    # A failed completion was the search's first branch (leading term n1),
    # so the search starts below n1. A tail rejected only for reusing n1
    # was not, so the search keeps n1.
    cap = n1 if tail is not None else n1 - 1
    found = _bounded_search(target, 2, 3, mode, cap)
    return None if found is None else Representation(target, 2, found)


def decompose_k3(target: int) -> Representation | None:
    """At most seven order-3 summands for target, or None.

    The bounded search within seven terms; its first hit is the greedy
    chain whenever that chain fits. The chain alone can need more: 8 terms
    below 10^4, 11 among 2000 seeded targets in [10^12, 10^13]. A None
    would exhibit an integer with no seven-term representation at all.
    """
    if target < 1:
        raise ValueError(f"target must be >= 1, got {target}")
    found = _bounded_search(target, 3, 7, SearchMode.REPEATS)
    return None if found is None else Representation(target, 3, found)


@dataclass(frozen=True)
class MinRepTable:
    """Dense minimal-summand counts for every target in [0, range_end].

    counts is a uint8 array indexed by target; cells holding EXCEEDS_CAP
    mean "no representation within cap terms".
    """

    order: int
    range_end: int
    cap: int
    mode: SearchMode
    counts: np.ndarray

    def count(self, target: int) -> int | None:
        if not (0 <= target <= self.range_end):
            raise ValueError(f"target {target} outside [0, {self.range_end}]")
        c = int(self.counts[target])
        return None if c == EXCEEDS_CAP else c


def _full(words: np.ndarray) -> bool:
    """True when every bit of a packed set is on (padding included)."""
    return words[-1] == _ALL and int(words.min()) == _ALL


def _with_padding(words: np.ndarray, cells: int) -> np.ndarray:
    """Turn on the padding bits at and above cells, in place.

    Padding must read as reached: the fullness test and the "highest
    uncovered target" read would otherwise stop at bits past the range.
    Shifts only move bits upward, so set padding never reaches a target.
    """
    if cells % 64:
        words[-1] |= np.uint64(_ALL ^ ((1 << cells % 64) - 1))
    return words


def _set_bits(words: np.ndarray, targets: list[int]) -> np.ndarray:
    """Turn on the bits of the targets in a packed set, in place."""
    t = np.asarray(targets, dtype=np.int64)
    np.bitwise_or.at(words.view(np.uint8), t >> 3, np.left_shift(1, t & 7).astype(np.uint8))
    return words


def _unpack(words: np.ndarray, cells: int) -> np.ndarray:
    """The first cells bits of a packed set as a bool array."""
    return np.unpackbits(words.view(np.uint8), count=cells, bitorder="little").view(bool)


def _bit_phases(padded: np.ndarray) -> np.ndarray:
    """Eight copies of a packed set, copy p shifted up by p bits, as bytes.

    padded is the set after one zero word, which feeds the carry into word
    0. Copy v % 8 placed at byte v // 8 puts bit j of the set on bit j + v,
    so a shift by v bits becomes a byte offset. Carries go in row by row.
    """
    phases = padded[1:] << _PHASE_SHIFTS
    for p in range(1, 8):
        phases[p] |= padded[:-1] >> np.uint64(64 - p)
    return phases.view(np.uint8)


def _next_layer(padded: np.ndarray, coins: list[int], windows: SearchMode | None = None) -> None:
    """Grow a packed layer, held after one zero word, in place: OR in the
    layer shifted up by v for every coin v.

    Every coin reads the layer as it was before the call, so its eight bit
    phases are built once and each coin costs one byte-offset OR. With
    windows None the shifts cover the whole range, and fullness is tested
    after coins 1, 2, 4, 8, ...; a full set cannot grow, so skipping the
    remaining coins is exact. With windows set, coin v shifts only the
    layer's cells up to v (below v for DISTINCT), so it writes only [v, 2v]
    ([v, 2v - 1]), with the window's last byte masked. This holds for any
    layer; grown from {0} and the coins, the result is every sum of at most
    two coins, as a pair's larger coin v is one of its terms. Bits past the
    range are padding, so windows are cut only at the end of the words.
    """
    phases = _bit_phases(padded)
    words = padded[1:]
    out = words.view(np.uint8)
    size = out.size
    if windows is None:
        for done, v in enumerate(coins, 1):
            offset = v >> 3
            dest = out[offset:]
            np.bitwise_or(dest, phases[v & 7, : size - offset], out=dest)
            if done & (done - 1) == 0 and _full(words):
                return
        return
    # every OR reads the phases, never the layer, so the masked last bytes
    # of all windows can go in one pass after the whole bytes
    v = np.asarray(coins, dtype=np.int64)
    ends = np.minimum(2 * v - (windows is SearchMode.DISTINCT), 8 * size - 1)
    starts, stops, bits = v >> 3, ends >> 3, v & 7
    for start, stop, bit in zip(starts.tolist(), stops.tolist(), bits.tolist()):
        dest = out[start:stop]
        np.bitwise_or(dest, phases[bit, : stop - start], out=dest)
    masks = ((2 << (ends & 7)) - 1).astype(np.uint8)
    np.bitwise_or.at(out, stops, phases[bits, stops - starts] & masks)


def _layer_walk(cells: int, coins: list[int], depth: int, mode: SearchMode):
    """Layers 1..depth over [0, cells - 1]: one packed array with the
    padding bits on, yielded per layer and grown into the next in place
    when the walk resumes. Layer 1 is 0 and the coins.

    Repeats layers grow through pair windows into layer 2 and over the
    whole range after that, so layer t is every sum of at most t coins.
    Distinct layers grow through DISTINCT windows at every layer: coin v
    adds v to cells below v, each 0 or a sum of distinct coins below v, so
    layer t holds only sums of at most t distinct coins, and layer 2 all of
    them. Layer 3 misses a three-term sum only if in each such sum the two
    smaller terms add up to at least the largest (at k = 2 only 110 = 55 +
    45 + 10), and deeper layers miss more; _distinct_counts stops at
    _WINDOW_DEPTH.
    """
    padded = np.zeros(-(-cells // 64) + 1, dtype=np.uint64)
    reach = _set_bits(_with_padding(padded[1:], cells), [0, *coins])
    yield reach
    for layer in range(2, depth + 1):
        _next_layer(padded, coins, mode if mode is SearchMode.DISTINCT or layer == 2 else None)
        yield reach


def _layered_counts(
    counts: np.ndarray, coins: list[int], depth: int, mode: SearchMode
) -> np.ndarray:
    """Counts up to depth over [0, counts.size - 1] from the layer walk,
    written into the uint8 array counts; returns counts. Distinct surveys
    read these counts, repeats surveys the walk itself (_survey_layers).

    A cell's count is the first layer that reaches it, which is also the
    number of layers (from layer 0, which holds only 0) that miss it, so
    each layer below depth adds its complement to the counts; cells layer
    depth misses read EXCEEDS_CAP. The walk stops once a layer is full (the
    coin 1 = C(k, k) fills every repeats layer in time). Repeats counts are
    the exact DP values 1 + min(counts[N - v]). Distinct counts 1 and 2 are
    exact, a first reach at layer 3 is exactly 3, and the three-term sums
    layer 3 misses read EXCEEDS_CAP.
    """
    cells = counts.size
    counts.fill(1)
    counts[0] = 0
    for layer, reach in enumerate(_layer_walk(cells, coins, depth, mode), 1):
        if _full(reach):
            break
        if layer < depth:
            counts += _unpack(~reach, cells)
        else:
            counts[_unpack(~reach, cells)] = EXCEEDS_CAP
    return counts


def _distinct_table(counts: np.ndarray, coins: list[int], cap: int) -> None:
    """Each-coin-at-most-once minimal counts over [0, counts.size - 1],
    written into the uint8 array counts; coins are those up to the range end.

    Level t is the packed set of sums of exactly t distinct coins among
    those processed so far; level 0 is {0}. Levels 1..rows are interleaved
    word by word: grid[w, t - 1] is word w of level t, and grid[w, rows] is
    a spill slot. Moving every level up one (t -> t + 1) and every target up
    by a coin v = 64 q + r is then one flat offset of q * stride + 1 words
    plus an r-bit shift, so each coin costs one contiguous shifted OR over
    all levels. The shift reads a copy of the levels from before the coin,
    so no coin is used twice; level 0 adds v to level 1. The top level lands
    in the spill slot, which is cleared after every coin. Coins ascend, so
    before coin v the levels below the top hold sums below rows * v and only
    those words are shifted: a pass with fewer levels (a lower cap) is
    cheaper twice over, in rows per word and in words per coin. Counts above
    the cap read EXCEEDS_CAP, so the counts at most the cap are exact at any
    cap.
    """
    cells = counts.size
    words = -(-cells // 64)
    rows = min(cap, len(coins))
    stride = rows + 1
    # a spare word row past the last takes the shifted OR's overrun
    grid = np.zeros((words + 1, stride), dtype=np.uint64)
    flat = grid.ravel()
    shifted = np.empty(flat.size, dtype=np.uint64)
    carry = np.empty(flat.size, dtype=np.uint64)
    for seen, v in enumerate(coins):
        offset, bit = divmod(v, 64)
        # one spare word past the support takes the carry out of its top word
        span = min(words - offset, min(rows - 1, seen) * v // 64 + 2)
        size = span * stride
        src = flat[:size]
        out = shifted[:size]
        np.left_shift(src, bit, out=out)
        if bit:
            carried = carry[: size - stride]
            np.right_shift(src[:-stride], 64 - bit, out=carried)
            np.bitwise_or(out[stride:], carried, out=out[stride:])
        start = offset * stride + 1
        dest = flat[start : start + size]
        np.bitwise_or(dest, out, out=dest)
        grid[offset : offset + span, -1] = 0
        grid[offset, 0] |= np.uint64(1 << bit)
    # a cell's count is its first level t: the number of unions of levels
    # 0..s, s < t, that miss it
    counts.fill(0)
    union = np.zeros(words, dtype=np.uint64)
    union[0] = 1
    for t in range(rows):
        counts += _unpack(~union, cells)
        union |= grid[:words, t]
    counts[_unpack(~union, cells)] = EXCEEDS_CAP


# Distinct tables from _PREFIX_BASE cells up build a prefix table first, and
# from _PREFIX_FLOOR up those window layers may finish: there the prefix's
# top half first lies past 33, the last order-2 target with no distinct sum
# (at k = 2, 4,223 cells took 19% longer this way, 4,224 cells 18-59% less).
_PREFIX_FLOOR = 66 * 64
_PREFIX_BASE = 2**16
# The deepest whole-range distinct pass built from window layers.
_WINDOW_DEPTH = 3


def _prefix_depth(top_half: np.ndarray) -> int:
    """The levels a whole-range pass keeps, read from the top half of the
    prefix table: its largest count, EXCEEDS_CAP if a target there is
    uncovered."""
    return int(top_half.max())


def _last_uncovered(counts: np.ndarray) -> int:
    """Index of the last EXCEEDS_CAP cell of counts, or -1 if none."""
    missing = counts == EXCEEDS_CAP
    return counts.size - 1 - int(missing[::-1].argmax()) if missing.any() else -1


def _distinct_counts(
    counts: np.ndarray, coins: list[int], cap: int, held: int, budget: int
) -> np.ndarray:
    """Distinct counts at the cap over [0, counts.size - 1], with deep
    levels only on the prefix that still needs them; returns counts.

    Counts need not grow with the target: distinct triangular sums need 4
    terms only at 20, and none exists for six targets up to 33. From
    _PREFIX_BASE cells up the exact table of the prefix [0, m], m = n // 64,
    is built first (recursively, in place; at a 64th of the range its deep
    levels cost little), and its top half gives the depth r (_prefix_depth).
    One shallow pass then covers the whole range: window layers up to r
    while r <= _WINDOW_DEPTH (see _layered_counts), else _distinct_table at
    r < cap levels; at any other r one pass at the cap follows. Either is
    exact for every count it reports and leaves the rest uncovered; a target
    t <= m needs only coins up to t, so the prefix table is exact there and
    is copied back. A target above m still uncovered needs more than r
    terms, or is a three-term sum the windows miss: then one pass at the cap
    over [0, u], u the last such target, replaces the counts up to u. That
    pass must not recurse, as its depth read would leave u uncovered again.
    The worst case is therefore the prefix, the shallow pass, and one pass
    at the cap over [0, u]. Below the base the route runs from _PREFIX_FLOOR
    cells where 0 and the sums of up to _WINDOW_DEPTH coins, all that window
    layers reach, outnumber the targets above m (never at orders 3 and up),
    and any depth read past them falls through to one pass at the cap.

    Each pass is checked against the budget just before it allocates, on
    top of the held bytes (the counts and the coins) and the prefix copy.
    """
    n = counts.size - 1
    reach = sum(math.comb(len(coins), j) for j in range(_WINDOW_DEPTH + 1))
    if n >= _PREFIX_BASE or (n >= _PREFIX_FLOOR and reach > n - n // 64):
        m = n // 64
        _distinct_counts(
            counts[: m + 1], coins[: bisect.bisect_right(coins, m)], cap, held, budget
        )
        depth = _prefix_depth(counts[m // 2 + 1 : m + 1])
        if depth <= _WINDOW_DEPTH or (depth < cap and n >= _PREFIX_BASE):
            window = depth <= _WINDOW_DEPTH
            if window:
                shallow = _layers_bytes(n + 1)
            else:
                shallow = _grid_bytes(n + 1, min(depth, len(coins)))
            _check_budget(held + m + 1 + shallow, budget)
            prefix = counts[: m + 1].copy()
            if window:
                _layered_counts(counts, coins, depth, SearchMode.DISTINCT)
            else:
                _distinct_table(counts, coins, depth)
            u = _last_uncovered(counts[m + 1 :])
            if u < 0:
                counts[: m + 1] = prefix
                return counts
            # the fallback rebuilds [0, u], which holds the prefix
            del prefix
            n = m + 1 + u
            coins = coins[: bisect.bisect_right(coins, n)]
    _check_budget(held + _grid_bytes(n + 1, min(cap, len(coins))), budget)
    _distinct_table(counts[: n + 1], coins, cap)
    return counts


def _check_budget(required: int, budget: int, what: str = "min_rep_table working set") -> None:
    """Raise ResourceBudgetError when required bytes exceed the budget."""
    if required > budget:
        raise ResourceBudgetError(
            f"{what} exceeds the memory budget", required=required, budget=budget
        )


def _layers_bytes(cells: int) -> int:
    """Peak bytes of _layered_counts over cells targets, counts aside: the
    larger of growing the layer (_next_layer: the layer after a zero word,
    its eight bit phases and one carry row) and marking it (the layer, its
    complement and the unpacked cells)."""
    words = -(-cells // 64)
    return max(8 * (10 * words + 1), cells + 8 * (2 * words + 1))


def _grid_bytes(cells: int, rows: int) -> int:
    """Peak bytes of _distinct_table over cells targets with rows levels,
    counts aside: the level grid with its shifted and carry copies, then
    the union of levels, its complement and the unpacked cells."""
    words = -(-cells // 64)
    return 24 * (rows + 1) * (words + 1) + 16 * words + cells


def min_rep_table(
    k: int,
    range_end: int,
    cap: int = CAP_MAX,
    mode: SearchMode | str = SearchMode.REPEATS,
    *,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> MinRepTable:
    """Minimal summand counts for every target in [0, range_end].

    The default mode allows repeated elements (classic unbounded-coin DP);
    distinct mode bounds every element to a single use. Order 1 is the
    identity sequence, where every positive target is a single term.

    Distinct mode builds deep levels only where they are needed (see
    _distinct_counts): the prefix table [0, range_end // 64] at the cap, a
    shallow pass over the whole range at the depth the prefix's top half
    needs (window layers up to depth 3, as at k = 2), and a full-depth pass
    over [0, u] only if some target u above the prefix is still uncovered;
    below 2**16 cells, only k = 2 from 4,224 cells. The counts equal one
    full-depth pass.

    Estimated working memory above the budget raises ResourceBudgetError
    before it is allocated. The counts, the coins and, for a repeats table,
    its one pass are charged up front; each distinct pass, the innermost
    prefix included, is checked just before it allocates, so a distinct
    refusal can come after the counts are allocated, still within the
    budget.
    """
    mode = SearchMode.coerce(mode)
    if k < 1:
        raise ValueError(f"order must be >= 1, got k={k}")
    if range_end < 0:
        raise ValueError(f"range_end must be >= 0, got {range_end}")
    if not (1 <= cap <= CAP_MAX):
        raise ValueError(f"cap must be in [1, {CAP_MAX}], got {cap}")

    # the largest index whose coin fits the range
    top = floor_index(k, range_end) if range_end else k - 1
    held = range_end + 1 + (_COIN_BYTES * (top - k + 1) if k > 1 else 0) + _CALL_BYTES
    repeats = k > 1 and mode is SearchMode.REPEATS
    _check_budget(held + (_layers_bytes(range_end + 1) if repeats else 0), memory_budget)

    if k == 1:
        counts = np.ones(range_end + 1, dtype=np.uint8)
        counts[0] = 0
        return MinRepTable(k, range_end, cap, mode, counts)

    coins = BinomialSequence(k).values_upto(range_end)
    counts = np.empty(range_end + 1, dtype=np.uint8)
    if repeats:
        _layered_counts(counts, coins, cap, mode)
    else:
        _distinct_counts(counts, coins, cap, held, memory_budget)
    return MinRepTable(k, range_end, cap, mode, counts)


@dataclass(frozen=True)
class MinRepSurvey:
    """Worst case of the minimal summand count over a target range."""

    order: int
    mode: SearchMode
    n_min: int
    n_max: int
    cap: int
    max_terms: int | None
    witnesses: tuple[tuple[int, int], ...]
    exceptions: tuple[int, ...]
    exception_count: int


# surveys list set bits this many words at a time
_HIT_WINDOW = 4096


def _first_bits(words: np.ndarray, limit: int, offset: int) -> list[int]:
    """Positions (plus offset) of the first limit set bits, ascending, of a
    packed set in unsigned words of any width, a window at a time, each
    unpacking only as many of its nonzero words as hits are still wanted."""
    width = 8 * words.itemsize
    hits: list[int] = []
    for start in range(0, words.size, _HIT_WINDOW):
        if len(hits) >= limit:
            break
        w = np.flatnonzero(words[start : start + _HIT_WINDOW])[: limit - len(hits)] + start
        if w.size:
            at = np.flatnonzero(np.unpackbits(words[w].view(np.uint8), bitorder="little"))
            hits += (offset + width * w[at // width] + at % width)[: limit - len(hits)].tolist()
    return hits


def _bit_count(words: np.ndarray) -> int:
    """Set bits of a packed set, unpacked a window at a time (np.bitwise_count needs NumPy 2)."""
    b = words[words != 0].view(np.uint8)
    return sum(int(np.count_nonzero(np.unpackbits(b[i : i + 8 * _HIT_WINDOW])))
               for i in range(0, b.size, 8 * _HIT_WINDOW))


def _survey_layers(k: int, n_min: int, n_max: int, cap: int, max_witnesses: int,
                   memory_budget: int) -> tuple[int | None, list[int], np.ndarray, int]:
    """A repeats survey off the layer walk, with no per-target counts: the
    max terms, the witnesses, the packed targets still missing at the end
    and the target of their bit 0. Layer t adds to seen (the range bits
    reached so far) the targets that need exactly t terms. The walk stops
    once seen fills the range, or at the cap."""
    lo, hi = n_min >> 6, n_max >> 6
    held = _COIN_BYTES * count_upto(k, n_max) + _CALL_BYTES + 24 * (hi - lo + 1)
    _check_budget(held + _layers_bytes(n_max + 1), memory_budget, "survey working set")
    coins = BinomialSequence(k).values_upto(n_max)
    mask = np.full(hi - lo + 1, _ALL, dtype=np.uint64)
    mask[0] &= np.uint64(_ALL << (n_min & 63) & _ALL)
    mask[-1] &= np.uint64(_ALL >> (63 - (n_max & 63)))
    seen, fresh = np.zeros_like(mask), np.empty_like(mask)
    best, hits = None, []
    for layer, reach in enumerate(_layer_walk(n_max + 1, coins, cap, SearchMode.REPEATS), 1):
        np.bitwise_and(reach[lo : hi + 1], mask, out=fresh)
        np.bitwise_xor(fresh, seen, out=seen)
        if seen.any():
            best, hits = layer, _first_bits(seen, max_witnesses, 64 * lo)
        seen, fresh = fresh, seen
        if np.array_equal(seen, mask):
            break
    return best, hits, np.bitwise_xor(mask, seen, out=fresh), 64 * lo


def survey_min_rep(
    k: int,
    n_min: int,
    n_max: int,
    mode: SearchMode | str = SearchMode.REPEATS,
    *,
    cap: int | None = None,
    max_witnesses: int = 10,
    max_exceptions: int = 100,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> MinRepSurvey:
    """Largest minimal summand count over [n_min, n_max], with witnesses.

    Reports the largest count, the first targets that reach it (witnesses)
    and the first with no representation within the cap (exceptions, not
    failures), both in ascending target order and truncated to their
    configured limits. A repeats survey at k >= 2 reads them off the packed
    layers (_survey_layers) and holds no per-target counts; a distinct
    survey, and k = 1, scan the min_rep_table.
    """
    mode = SearchMode.coerce(mode)
    if not (1 <= n_min <= n_max):
        raise ValueError(f"need 1 <= n_min <= n_max, got [{n_min}, {n_max}]")
    if cap is None:
        cap = DEFAULT_SURVEY_CAP[mode]
    if k > 1 and mode is SearchMode.REPEATS:
        if not (1 <= cap <= CAP_MAX):
            raise ValueError(f"cap must be in [1, {CAP_MAX}], got {cap}")
        max_terms, hits, missing, offset = _survey_layers(
            k, n_min, n_max, cap, max_witnesses, memory_budget
        )
    else:
        counts = min_rep_table(k, n_max, cap, mode, memory_budget=memory_budget).counts[n_min:]
        best = int(counts.max())
        if best == EXCEEDS_CAP:
            # uint8 wraparound sends EXCEEDS_CAP to 0 and every count c to c + 1
            best = int((counts + 1).max()) - 1
        max_terms = None if best < 0 else best
        hits = [] if max_terms is None else _first_bits(
            np.packbits(counts == best, bitorder="little"), max_witnesses, n_min)
        missing, offset = np.packbits(counts == EXCEEDS_CAP, bitorder="little"), n_min
    return MinRepSurvey(
        order=k,
        mode=mode,
        n_min=n_min,
        n_max=n_max,
        cap=cap,
        max_terms=max_terms,
        witnesses=tuple((n, max_terms) for n in hits),
        exceptions=tuple(_first_bits(missing, max_exceptions, offset)),
        exception_count=_bit_count(missing),
    )


class CoverageThresholds(NamedTuple):
    """sumset_coverage_threshold's answer in each admission mode."""

    repeats: int
    distinct: int


# The coverage scan marks this many targets per window.
_COVER_WINDOW = 4096


def sumset_coverage_threshold(
    r_max: int, *, memory_budget: int = DEFAULT_MEMORY_BUDGET
) -> CoverageThresholds:
    """Largest R <= r_max whose interval [ceil(R/2), R] misses some sum of
    at most two triangular numbers, in repeats and in distinct mode.

    An uncovered integer m blocks every R in [m, 2m], so the answer is
    min(2 * m, r_max) for the largest uncovered m, and 0 when every interval
    is fully covered. Distinct mode requires the two indices to differ; a
    lone triangular number or 0 still counts as covered in both modes.

    Both answers come from one top-down scan over windows of _COVER_WINDOW
    targets (_highest_uncovered), which holds no set over the whole range.
    Sums of two triangular numbers have density zero, so the deciding m
    lies near r_max, nearly always in the first window. The budget is
    charged with the int64 coins up to r_max and one window's marks and
    pair arrays; r_max must be below 2**62, where the coins fit int64.
    """
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    # 8 B per coin, then per window 1 B per target, 32 B per larger coin v
    # (at most one per coin) and 24 B per pair sum. A pair u < v is an odd
    # point x < y (x = 2u + 1, y = 2v + 1) of an annulus in x**2 + y**2 whose
    # eighth has area pi (w - 1): under nv + 2w pairs for nv coins v.
    required = 64 * count_upto(2, r_max) + 49 * min(_COVER_WINDOW, r_max + 1) + _CALL_BYTES
    _check_budget(required, memory_budget, "coverage scan")
    if r_max >= _INT64_LIMIT:
        raise ValueError(f"r_max must be below 2**62, got {r_max}")
    repeats, distinct = _highest_uncovered(r_max)
    return CoverageThresholds(min(2 * repeats, r_max), min(2 * distinct, r_max))


def _highest_uncovered(r_max: int) -> tuple[int, int]:
    """The largest targets m <= r_max that are no sum of at most two
    triangular numbers, in repeats and in distinct mode; 0 where there is
    none, as 0 itself is covered.

    The windows [lo, hi] run down from hi = r_max. Each marks 0 (if lo is
    0), the coins in the window and every sum u + v in it of coins u < v: v
    lies in [ceil(lo / 2), hi], and its partners are the coins in [lo - v,
    min(v - 1, hi - v)]. The highest unmarked target is the distinct answer;
    marking the doubles 2v too gives the repeats answer. Repeats covers
    more, so its answer is never above the distinct one, and the scan stops
    at the first window that holds it.
    """
    coins = _binom_array(np.arange(2, floor_index(2, r_max) + 1, dtype=np.int64), 2)

    def top_unmarked(marks: np.ndarray) -> int:
        i = marks.size - 1 - int(marks[::-1].argmin())
        return 0 if marks[i] else lo + i

    repeats = distinct = 0
    hi = r_max
    while hi >= 0 and not repeats:
        lo = max(0, hi - _COVER_WINDOW + 1)
        marks = np.zeros(hi - lo + 1, dtype=bool)
        marks[0] = lo == 0
        a, c, d, b = np.searchsorted(coins, [(lo + 1) // 2, lo, hi // 2 + 1, hi + 1])
        marks[coins[c:b] - lo] = True
        # the partners of v are coins[first : first + n], all listed by one repeat
        v = coins[a:b]
        first = np.searchsorted(coins, lo - v)
        n = np.minimum(np.searchsorted(coins, hi - v, side="right"), np.arange(a, b))
        n -= first
        np.maximum(n, 0, out=n)
        first -= np.cumsum(n)
        first += n
        sums = coins[np.repeat(first, n) + np.arange(int(n.sum()))]
        sums += np.repeat(v, n)
        sums -= lo
        marks[sums] = True
        del first, n, sums
        distinct = distinct or top_unmarked(marks)
        marks[2 * coins[a:d] - lo] = True
        repeats = top_unmarked(marks)
        hi = lo - 1
    return repeats, distinct
