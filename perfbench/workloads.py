"""The benchmark's workloads: what one pass runs and how its answers are checked.

Every workload is a list of operations. An operation is one job (a batch
workload) or one request (``queries``); it is timed alone, and its answer is
checked after the clock stops. README.md says why each workload exists and
which layer it stresses.

Sizes are scaled so that one pass takes a few seconds on a 2-core machine
while the layer each workload stresses still does nearly all of the work.
Expected values for ``tables`` are facts from the paper's surveys; those for
``tally`` were computed without binsum, by float-FFT convolution rounded to
integers and certified by the ``count**h`` total (numpy enumeration where
the sums are too sparse for a transform), and binsum agreed with them when
they were pinned. ``queries`` answers are re-derived here with
``math.comb`` and numpy.
"""
from __future__ import annotations

import ast
import csv
import io
import json
import math
import random
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from binsum import energy, experiments
from binsum.cache import ResultCache
from binsum.records import fingerprint

class WrongAnswer(Exception):
    """An operation returned an answer the benchmark's check rejects."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


@dataclass
class Op:
    """One timed operation. check raises WrongAnswer on a rejected answer."""

    op_id: int
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    before: Callable[[], None] | None = None  # untimed client step


# --------------------------------------------------------------------------
# tables: the represent table builders


def _survey_check(max_terms, first_witness, exceptions, witnesses):
    def check(result):
        r = result[0].results
        expect(r["max_terms"] == max_terms, f"max_terms {r['max_terms']} != {max_terms}")
        expect(r["witnesses"][0] == [first_witness, max_terms],
               f"first witness {r['witnesses'][0]} != {[first_witness, max_terms]}")
        expect(len(r["witnesses"]) == witnesses, f"{len(r['witnesses'])} witnesses")
        expect(all(t == max_terms for _, t in r["witnesses"]), "witness with wrong count")
        expect(r["exceptions"] == list(exceptions), f"exceptions {r['exceptions']}")
        expect(r["exception_count"] == len(exceptions), "exception count")
    return check


def _coverage_check(r_max):
    def check(result):
        r = result[0].results
        expect(r["repeats_threshold"] == r_max, f"repeats threshold {r['repeats_threshold']}")
        expect(r["distinct_threshold"] == r_max, f"distinct threshold {r['distinct_threshold']}")
    return check


TABLE_RANGE = 3_000_000
DISTINCT_RANGE = 1_200_000


def tables_ops(seed: int, threads: int) -> list[Op]:
    """survey-H at k=2 and k=3 with repeats, at k=2 distinct, and the
    two-triangular coverage scan.

    Ranges and order are fixed: peak RSS moved by 13% when range ends moved
    by 0.3%, and by 20% between job orders, as glibc keeps some freed arrays
    on its heap. The seed sets how many witnesses each survey reports, which
    costs the same for every count.
    """
    w = random.Random(seed).randint(3, 10)

    def survey(k, mode, n_max):
        return _experiment("survey-H", {"k": k, "mode": mode, "n_max": n_max,
                                        "max_witnesses": w}, threads)

    return _ops([
        ("survey-H k=2 repeats", survey(2, "repeats", TABLE_RANGE), _survey_check(3, 5, (), w)),
        ("survey-H k=3 repeats", survey(3, "repeats", TABLE_RANGE), _survey_check(5, 17, (), w)),
        ("survey-H k=2 distinct", survey(2, "distinct", DISTINCT_RANGE),
         _survey_check(4, 20, (2, 5, 8, 12, 23, 33), 1)),
        ("coverage-threshold",
         _experiment("coverage-threshold", {"r_max": TABLE_RANGE}, threads),
         _coverage_check(TABLE_RANGE)),
    ])


def _experiment(kind: str, params: dict, threads: int) -> Callable[[], Any]:
    # looked up at call time, so a tracer's wrapper is the one called
    return lambda: experiments.run_experiment(kind, params, threads=threads)


def _ops(jobs) -> list[Op]:
    return [Op(op_id, label, run, check) for op_id, (label, run, check) in enumerate(jobs)]


# --------------------------------------------------------------------------
# tally: every tally strategy at a size where it dominates

# (k, h, M, sequence) -> (total_tuples, energy, distinct_sums, max_multiplicity)
ENERGY_PINS = {
    (2, 3, 800, "binomial"): (510082399, 515732713093, 892813, 3312),
    (3, 3, 150, "binomial"): (3241792, 35880922, 382046, 60),
    (4, 2, 1200, "binomial"): (1432809, 2865573, 716859, 4),
    (2, 3, 300, "power"): (27000000, 6841887024, 195140, 864),
}
# (k, h) -> distinct sums of the restricted ladder at X = 10**4 * 2**i, c = 1/2
LADDER_PINS = {
    (3, 4): (2550, 5239, 11749, 24131, 48940, 101075, 206375, 417502, 862303),
    (2, 3): (4077, 8347, 16846, 34536, 70772, 144158, 292033, 591062, 1196450),
}
# exponent fit k=2 h=2: value bound -> energy
FIT_PINS = {1000: 6248, 10000: 76712, 100000: 911026, 1000000: 10451485}
# multiplicity_map cross-checks (k, h, M) -> number of distinct sums
CROSS_PINS = {(2, 4, 50): 4377, (3, 3, 150): 382046, (4, 2, 800): 317896}

# (k, h, M, sequence, top): a nonzero top is replaced by the seeded count
ENERGY_JOBS = ((2, 3, 800, "binomial", 10), (3, 3, 150, "binomial", 0),
               (4, 2, 1200, "binomial", 0), (2, 3, 300, "power", 0))
LADDERS = ((3, 4, 9), (2, 3, 9))  # (k, h, steps)
FIT_BOUNDS = (10**3, 10**4, 10**5, 10**6)
CROSS_CHECKS = ((2, 4, 50), (3, 3, 150), (4, 2, 800))


def _energy_check(k, h, m, sequence, top):
    def check(result):
        r = result[0].results
        total, en, distinct, max_r = ENERGY_PINS[(k, h, m, sequence)]
        count = r["admissible_count"]
        expect(r["total_tuples"] == count**h, "total_tuples != count**h")
        expect(r["total_tuples"] == total, f"total_tuples {r['total_tuples']} != {total}")
        expect(r["energy"] == en, f"energy {r['energy']} != {en}")
        expect(r["distinct_sums"] == distinct, f"distinct {r['distinct_sums']} != {distinct}")
        expect(r["max_multiplicity"] == max_r, f"max_r {r['max_multiplicity']} != {max_r}")
        if top:
            ext = r["extremes"]
            expect(len(ext) == top, "wrong number of extremes")
            expect(ext[0][1] == max_r, "top extreme is not the largest multiplicity")
            expect(all(a[1] >= b[1] for a, b in zip(ext, ext[1:])), "extremes out of order")
    return check


def _ladder_run(k, h, steps, threads):
    def run():
        return [
            experiments.run_experiment(
                "restricted-sums", {"k": k, "h": h, "x": 10**4 * 2**i}, threads=threads
            )[0].results
            for i in range(steps)
        ]
    return run


def _ladder_check(k, h, steps):
    def check(results):
        pins = LADDER_PINS[(k, h)]
        floor = 0.8 * 2 ** (1 / k)
        for i, r in enumerate(results):
            expect(r["total_tuples"] == r["admissible_count"] ** h, "total_tuples != count**h")
            expect(r["distinct_sums"] == pins[i], f"step {i}: distinct {r['distinct_sums']}")
            if i:
                grown = r["distinct_sums"] / results[i - 1]["distinct_sums"]
                expect(grown >= floor, f"step {i} grew by {grown:.3f} < {floor:.3f}")
        expect(len(results) == steps, "ladder cut short")
    return check


def _fit_check(result):
    r = result[0].results
    expect([b for b, _ in r["observations"]] == list(FIT_BOUNDS), "fit bounds")
    for bound, en in r["observations"]:
        expect(en == FIT_PINS[bound], f"energy at {bound}: {en} != {FIT_PINS[bound]}")
    expect(math.isfinite(r["alpha_hat"]) and math.isfinite(r["residual"]), "fit not finite")


def _cross_run(k, h, m, threads):
    def run():
        return [
            energy.multiplicity_map(k, h, m, strategy=strategy, threads=threads)
            for strategy in ("direct", "mitm")
        ]
    return run


def _cross_check(k, h, m):
    def check(result):
        direct, mitm = result
        expect(direct == mitm, "direct and mitm tallies differ")
        expect(sum(direct.values()) == (m - k + 1) ** h, "tally total != count**h")
        expect(len(direct) == CROSS_PINS[(k, h, m)], f"distinct sums {len(direct)}")
    return check


def tally_ops(seed: int, threads: int) -> list[Op]:
    """Energy reports on the dense-convolve, dict-building direct and
    power-sequence paths, two restricted-sums ladders, an exponent fit and
    direct-versus-mitm cross-checks.

    The instances are fixed so that their answers can be pinned, and so is
    their order: freed dicts and arrays leave the heap in an order-dependent
    shape, which moved peak RSS by 40% between orders. The seed sets how
    many extremes the first energy job reports, which costs the same for
    every count.
    """
    top_count = random.Random(seed).randint(5, 15)
    jobs = []
    for k, h, m, sequence, top in ENERGY_JOBS:
        top = top and top_count
        params = {"k": k, "h": h, "index_bound": m, "sequence": sequence, "top": top}
        jobs.append((f"energy k={k} h={h} M={m} {sequence}",
                     _experiment("energy", params, threads),
                     _energy_check(k, h, m, sequence, top)))
    for k, h, steps in LADDERS:
        jobs.append((f"restricted-sums ladder k={k} h={h}",
                     _ladder_run(k, h, steps, threads), _ladder_check(k, h, steps)))
    jobs.append(("exponent-fit k=2 h=2",
                 _experiment("exponent-fit", {"k": 2, "h": 2, "bounds": list(FIT_BOUNDS)},
                             threads),
                 _fit_check))
    for k, h, m in CROSS_CHECKS:
        jobs.append((f"multiplicity_map direct vs mitm ({k},{h},{m})",
                     _cross_run(k, h, m, threads), _cross_check(k, h, m)))
    return _ops(jobs)


# --------------------------------------------------------------------------
# queries: one closed-loop client calling binsum.cli.main in-process

REQUESTS_PER_PASS = 1500
# Shares of the stream. The three decompose entries are fresh requests; the
# other fresh shares are cacheable kinds, and REPEAT_SHARE of all cacheable
# requests repeat an earlier one.
MIX = {"decompose-k2": 0.30, "decompose-k3": 0.12, "min-rep": 0.15, "table": 0.15,
       "energy": 0.13, "survey": 0.15}
REPEAT_SHARE = 0.3
CORRUPT_SHARE = 0.15  # of repeats
SPECIAL_SHARE = 0.05  # of distinct-mode k=2 decompositions
# N with no representation as at most three distinct triangular numbers
NO_DISTINCT_K2 = (2, 5, 8, 12, 20, 23, 33)
# survey-H (k, mode) over [1, max >= 1000]: (max terms, exception count)
SURVEY_FACTS = {(2, "repeats"): (3, 0), (3, "repeats"): (5, 0), (2, "distinct"): (4, 6)}
ENERGY_M_MAX = {(2, 2): 150, (2, 3): 150, (3, 2): 150, (3, 3): 90}

_INDICES_RE = re.compile(r"^indices \(n, descending\): (\[.*\])$", re.M)
_MIN_REP_RE = re.compile(r"^min-rep\(n=(\d+), k=3, repeats\): (\d+) terms, values (\[.*\])")
_TABLE_RE = re.compile(r"^asymptotic-ratio\(k=(\d+), X=(\d+)\): count=(\d+) ratio=\S+")
_ENERGY_RE = re.compile(
    r"^energy\(k=(\d+), h=(\d+), M=(\d+), binomial\): tuples=(\d+) energy=(\d+) "
    r"distinct=(\d+) max_r=(\d+) cs_floor=(\d+)")
_SURVEY_RE = re.compile(
    r"^survey-H\(k=(\d+), \[1, (\d+)\], (\w+)\): max terms = (\d+) "
    r"\((\d+) witnesses, (\d+) exceptions\)")


@dataclass
class Request:
    rid: int
    what: str                 # decompose, min-rep, table, energy, survey
    argv: list[str]
    info: dict
    records: list[tuple[str, dict]] = field(default_factory=list)  # cacheable records
    export: str | None = None
    repeat_of: int | None = None
    corrupt: bool = False
    expect_exit: int = 0
    cached: list[bool] = field(default_factory=list)  # expected per record


def _log_uniform(u: float, lo: int, hi: int) -> int:
    """The u-quantile (0 <= u < 1) of a log-uniform integer in [lo, hi]."""
    return max(lo, min(hi, round(lo * (hi / lo) ** u)))


def _strata(rng: random.Random, count: int) -> list[float]:
    """count points in [0, 1), one uniformly inside each of count equal
    strata, in seeded order. Every seed then draws nearly the same spread
    of sizes, so the work in a pass hardly depends on the seed."""
    points = [(j + rng.random()) / count for j in range(count)]
    rng.shuffle(points)
    return points


def _split(rng: random.Random, count: int, labels) -> list:
    """count labels in equal shares (up to rounding), in seeded order."""
    labels = list(labels)
    out = [labels[j % len(labels)] for j in range(count)]
    rng.shuffle(out)
    return out


def _decompose_k2(rng: random.Random, count: int) -> list[Request]:
    modes = _split(rng, count, ("repeats", "distinct"))
    distinct = [j for j, mode in enumerate(modes) if mode == "distinct"]
    specials = set(rng.sample(distinct, round(SPECIAL_SHARE * len(distinct))))
    out = []
    for j, (mode, u) in enumerate(zip(modes, _strata(rng, count))):
        n = NO_DISTINCT_K2[j % len(NO_DISTINCT_K2)] if j in specials else _log_uniform(u, 1, 10**14)
        out.append(Request(0, "decompose",
                           ["decompose", "--k", "2", "--n", str(n), "--mode", mode],
                           {"k": 2, "n": n, "mode": mode},
                           expect_exit=4 if mode == "distinct" and n in NO_DISTINCT_K2 else 0))
    return out


def _decompose_k3(rng: random.Random, count: int) -> list[Request]:
    out = []
    for u in _strata(rng, count):
        n = _log_uniform(u, 1, 10**12)
        out.append(Request(0, "decompose", ["decompose", "--k", "3", "--n", str(n)],
                           {"k": 3, "n": n, "mode": "repeats"}))
    return out


def _min_rep(rng: random.Random, count: int) -> list[Request]:
    out = []
    for u in _strata(rng, count):
        n = _log_uniform(u, 1, 10**6)
        out.append(Request(0, "min-rep", ["min-rep", "--k", "3", "--n", str(n)], {"n": n},
                           [("min-rep", {"k": 3, "n": n, "h_max": 8, "mode": "repeats"})]))
    return out


def _table(rng: random.Random, count: int) -> list[Request]:
    shapes = _split(rng, count, [(k, width) for k in (2, 3, 4) for width in (1, 2)])
    points = iter(_strata(rng, sum(width for _, width in shapes)))
    out = []
    for k, width in shapes:
        xs = [_log_uniform(next(points), 1, 10**30) for _ in range(width)]
        argv = ["table", "--k", str(k)]
        for x in xs:
            argv += ["--x", str(x)]
        out.append(Request(0, "table", argv, {"k": k, "xs": xs},
                           [("asymptotic-ratio", {"k": k, "x": x}) for x in xs]))
    return out


def _energy(rng: random.Random, count: int) -> list[Request]:
    out = []
    for (k, h), u in zip(_split(rng, count, sorted(ENERGY_M_MAX)), _strata(rng, count)):
        m = _log_uniform(u, k + 8, ENERGY_M_MAX[(k, h)])
        params = {"k": k, "h": h, "index_bound": m, "sequence": "binomial", "top": 10}
        out.append(Request(0, "energy",
                           ["energy", "--k", str(k), "--h", str(h), "--index-bound", str(m),
                            "--top", "10"],
                           {"k": k, "h": h, "m": m}, [("energy", params)]))
    return out


def _survey(rng: random.Random, count: int) -> list[Request]:
    out = []
    for (k, mode), u in zip(_split(rng, count, sorted(SURVEY_FACTS)), _strata(rng, count)):
        n_max = _log_uniform(u, 10**3, 10**5)
        out.append(Request(0, "survey",
                           ["survey", "--kind", "survey-H", "--k", str(k), "--max", str(n_max),
                            "--mode", mode],
                           {"k": k, "n_max": n_max, "mode": mode},
                           [("survey-H", {"k": k, "n_max": n_max, "mode": mode})]))
    return out


_MAKERS = {"decompose-k2": _decompose_k2, "decompose-k3": _decompose_k3,
           "min-rep": _min_rep, "table": _table, "energy": _energy, "survey": _survey}


def request_stream(seed: int, stream: int = 0, n: int = REQUESTS_PER_PASS) -> list[Request]:
    """Request sequence number ``stream`` of a seed; pass i runs stream i.

    Each kind gets its exact share of MIX, with sizes drawn by stratified
    sampling. REPEAT_SHARE of the cacheable requests repeat an earlier
    cacheable request, and CORRUPT_SHARE of those repeats first find their
    cache entry truncated. Every fifth fresh request exports with --out,
    alternating JSON and CSV; a repeat exports exactly as the request it
    repeats. A fresh request that happens to equal an earlier one is a
    repeat too, since the cache answers it.
    """
    rng = random.Random(f"{seed}/{stream}")
    counts = {kind: round(share * n) for kind, share in MIX.items()}
    counts["decompose-k2"] += n - sum(counts.values())
    cacheable = [kind for kind in MIX if not kind.startswith("decompose")]
    repeats = round(REPEAT_SHARE * sum(counts[kind] for kind in cacheable))
    # the repeats take their slots from the cacheable kinds, pro rata
    for kind in cacheable:
        counts[kind] -= round(repeats * MIX[kind] / sum(MIX[c] for c in cacheable))
    repeats = n - sum(counts.values())
    fresh = [req for kind, count in counts.items() for req in _MAKERS[kind](rng, count)]
    rng.shuffle(fresh)
    slots = [False] * len(fresh) + [True] * repeats  # True: a repeat goes here
    rng.shuffle(slots)
    corrupt = set(rng.sample(range(repeats), round(CORRUPT_SHARE * repeats)))

    stream: list[Request] = []
    first: dict[tuple[str, ...], Request] = {}  # cacheable argv -> its first request
    stored: set[str] = set()  # records the pass's cache holds by now
    fresh_iter = iter(fresh)
    exports = repeat_count = 0
    for is_repeat in slots:
        rid = len(stream)
        if is_repeat and first:
            orig = first[rng.choice(list(first))]
            req = Request(rid, orig.what, orig.argv, orig.info, orig.records, orig.export,
                          repeat_of=orig.rid, corrupt=repeat_count in corrupt,
                          expect_exit=orig.expect_exit)
            repeat_count += 1
        else:
            req = next(fresh_iter, None) if not is_repeat else None
            if req is None:  # a repeat slot before any cacheable request
                req = _decompose_k3(rng, 1)[0]
            req.rid = rid
            if req.records and tuple(req.argv) in first:
                orig = first[tuple(req.argv)]
                req.repeat_of, req.export = orig.rid, orig.export
            elif len(stream) % 5 == 4:
                req.export = ("json", "csv")[exports % 2]
                exports += 1
        stream.append(req)
        if req.records:
            first.setdefault(tuple(req.argv), req)
        for i, (kind, params) in enumerate(req.records):
            key = json.dumps([kind, params], sort_keys=True)
            req.cached.append(key in stored and not (req.corrupt and i == 0))
            stored.add(key)
    return stream


def _comb_count(k: int, x: int) -> int:
    """Number of n >= k with C(n, k) <= x, by bisection on math.comb."""
    lo, hi = k - 1, k
    while math.comb(hi, k) <= x:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.comb(mid, k) <= x:
            lo = mid
        else:
            hi = mid
    return lo - k + 1


def energy_oracle(k: int, h: int, m: int) -> tuple[int, int, int, int]:
    """(tuples, energy, distinct sums, max multiplicity), independent of binsum.

    A float FFT raises the indicator polynomial to the h-th power; the
    rounded counts are accepted only when every one sits within 0.25 of an
    integer and they total count**h exactly. Otherwise the tally is built by
    sparse numpy convolution.
    """
    vals = [math.comb(n, k) for n in range(k, m + 1)]
    size = h * vals[-1] + 1
    if size <= 1 << 22:
        indicator = np.zeros(size)
        indicator[vals] = 1.0
        n_fft = 1 << (size - 1).bit_length()
        exact = np.fft.irfft(np.fft.rfft(indicator, n_fft) ** h, n_fft)[:size]
        rounded = np.rint(exact)
        counts = rounded[rounded > 0].astype(np.int64)
        if np.abs(exact - rounded).max() < 0.25 and int(counts.sum()) == len(vals) ** h:
            return (int(counts.sum()), sum(int(c) * int(c) for c in counts), len(counts),
                    int(counts.max()))
    arr = np.array(vals, dtype=np.int64)
    sums, counts = arr, np.ones(len(arr), dtype=np.int64)
    for _ in range(h - 1):
        pair = (sums[:, None] + arr[None, :]).ravel()
        sums, inverse = np.unique(pair, return_inverse=True)
        counts = np.bincount(inverse, weights=np.repeat(counts, len(arr)).astype(np.float64))
        counts = np.rint(counts).astype(np.int64)
    return (int(counts.sum()), sum(int(c) * int(c) for c in counts), len(counts),
            int(counts.max()))


def _tetrahedral_index(v: int) -> int | None:
    n = round((6 * v) ** (1 / 3))
    for cand in (n - 1, n, n + 1, n + 2):
        if cand >= 3 and math.comb(cand, 3) == v:
            return cand
    return None


class QueryChecker:
    """Re-derives each answer independently.

    Energy answers are only recorded while the run measures and are compared
    with the oracle in finish(): the oracle's arrays would otherwise count in
    the worker's peak RSS.
    """

    def __init__(self) -> None:
        self._energy_claims: dict[tuple[int, int, int], list[tuple[int, ...]]] = {}

    def finish(self) -> list[str]:
        """Check the recorded energy answers; one failure per wrong answer."""
        failures = []
        for key, claims in self._energy_claims.items():
            truth = energy_oracle(*key)
            failures += [f"energy k,h,M={key}: {got} != {truth}" for got in claims if got != truth]
        return failures

    def summary_lines(self, out: str, cached: list[bool]) -> list[str]:
        lines = [ln for ln in out.splitlines() if not ln.startswith("wrote ")]
        expect(len(lines) == len(cached), f"expected {len(cached)} summary lines: {out!r}")
        for line, hit in zip(lines, cached):
            expect(line.endswith(" [cached]") == hit,
                   f"cache flag should be {hit}: {line!r}")
        return [ln.removesuffix(" [cached]") for ln in lines]

    def check(self, req: Request, code: int, out: str, err: str, cached: list[bool]) -> None:
        expect(code == req.expect_exit, f"exit {code}, expected {req.expect_exit}: {err[-200:]!r}")
        if code == 4:
            expect("no representation" in err and not out, "exit 4 without its message")
            return
        if req.what == "decompose":
            self._decompose(req, out)
            return
        lines = self.summary_lines(out, cached)
        getattr(self, "_" + req.what.replace("-", "_"))(req, lines)

    def _decompose(self, req: Request, out: str) -> None:
        k, n = req.info["k"], req.info["n"]
        match = _INDICES_RE.search(out)
        expect(match is not None, f"no indices line: {out!r}")
        indices = ast.literal_eval(match.group(1))
        expect(sum(math.comb(i, k) for i in indices) == n, f"indices {indices} do not sum to {n}")
        expect(all(i >= k for i in indices), "index below the order")
        expect(len(indices) <= (3 if k == 2 else 7), f"{len(indices)} terms")
        if req.info["mode"] == "distinct":
            expect(len(set(indices)) == len(indices), "repeated index in distinct mode")

    def _min_rep(self, req: Request, lines: list[str]) -> None:
        match = _MIN_REP_RE.match(lines[0])
        expect(match is not None, f"unparsed min-rep line {lines[0]!r}")
        values = ast.literal_eval(match.group(3))
        expect(int(match.group(1)) == req.info["n"], "min-rep answered another n")
        expect(int(match.group(2)) == len(values) <= 5, f"{match.group(2)} terms")
        expect(sum(values) == req.info["n"], "min-rep values do not sum to n")
        expect(all(_tetrahedral_index(v) is not None for v in values), "non-tetrahedral value")

    def _table(self, req: Request, lines: list[str]) -> None:
        k = req.info["k"]
        for line, x in zip(lines, req.info["xs"]):
            match = _TABLE_RE.match(line)
            expect(match is not None and int(match.group(2)) == x, f"unparsed table line {line!r}")
            expect(int(match.group(3)) == _comb_count(k, x), f"count wrong in {line!r}")

    def _energy(self, req: Request, lines: list[str]) -> None:
        match = _ENERGY_RE.match(lines[0])
        expect(match is not None, f"unparsed energy line {lines[0]!r}")
        key = (req.info["k"], req.info["h"], req.info["m"])
        expect(tuple(int(g) for g in match.group(1, 2, 3)) == key, "energy answered another M")
        got = tuple(int(g) for g in match.group(4, 5, 6, 7))
        self._energy_claims.setdefault(key, []).append(got)

    def _survey(self, req: Request, lines: list[str]) -> None:
        match = _SURVEY_RE.match(lines[0])
        expect(match is not None, f"unparsed survey line {lines[0]!r}")
        terms, exceptions = SURVEY_FACTS[(req.info["k"], req.info["mode"])]
        expect(int(match.group(4)) == terms, f"max terms in {lines[0]!r}")
        expect(int(match.group(6)) == exceptions, f"exceptions in {lines[0]!r}")


def _export_indices(path: Path, fmt: str) -> list[int]:
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        return [int(i) for i in json.loads(text)["indices"]]
    rows = list(csv.reader(io.StringIO(text)))
    return [int(i) for i in json.loads(dict(zip(rows[0], rows[1]))["indices"])]


class QueriesPass:
    """Builds the operations of one queries pass in its own directory."""

    def __init__(self, stream: list[Request], checker: QueryChecker, workdir: Path,
                 threads: int) -> None:
        self.stream = stream
        self.checker = checker
        self.dir = workdir
        self.cache_dir = workdir / "cache"
        self.threads = threads
        self.exports: dict[int, bytes] = {}  # request id -> first export's bytes

    def argv(self, req: Request) -> list[str]:
        argv = req.argv + ["--threads", str(self.threads), "--cache-dir", str(self.cache_dir)]
        if req.export:
            argv += ["--format", req.export, "--out", str(self.out_path(req))]
        return argv

    def out_path(self, req: Request) -> Path:
        return self.dir / "out" / f"{req.rid}.{req.export}"

    def corrupt(self, req: Request) -> None:
        """Truncate the cache entry of the request's first record."""
        kind, params = req.records[0]
        path = ResultCache(self.cache_dir).path_for(
            fingerprint(kind, experiments.normalize_parameters(kind, params))
        )
        expect(path.exists(), f"no cache entry to corrupt for request {req.rid}")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])

    def ops(self, cli_main: Callable[[], Callable]) -> list[Op]:
        ops = []
        for req in self.stream:
            argv = self.argv(req)

            def run(argv=argv):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli_main()(argv)
                return code, out.getvalue(), err.getvalue()

            before = (lambda req=req: self.corrupt(req)) if req.corrupt else None
            ops.append(Op(req.rid, " ".join(req.argv), run,
                          lambda result, req=req: self.check(req, result), before))
        return ops

    def check(self, req: Request, result) -> None:
        code, out, err = result
        self.checker.check(req, code, out, err, req.cached)
        if not req.export or code != 0:
            return
        path = self.out_path(req)
        expect(f"wrote {path}" in out, "export not reported")
        data = path.read_bytes()
        if req.what == "decompose":
            expect(_export_indices(path, req.export) == ast.literal_eval(
                _INDICES_RE.search(out).group(1)), "exported indices differ")
        origin = req.rid if req.repeat_of is None else req.repeat_of
        if self.exports.setdefault(origin, data) is not data:
            expect(data == self.exports[origin], "cached repeat exported different bytes")

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
