"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import io
import json
import math
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from summary import describe, percentile  # noqa: E402
from tracing import TRACE_POINTS, Tracer, duplicate_ratio, self_times  # noqa: E402
from worker import run_pass  # noqa: E402


def test_percentile_hand_values():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([4, 1, 3, 2], 25) == 1.75
    assert percentile([4, 1, 3, 2], 0) == 1
    assert percentile([4, 1, 3, 2], 100) == 4
    assert percentile([7.5], 99) == 7.5
    assert describe([3, 1, 2]) == {"median": 2, "q1": 1.5, "q3": 2.5, "n": 3}


def test_percentile_matches_numpy():
    rng = random.Random(5)
    for n in (2, 3, 10, 1001):
        xs = [rng.expovariate(1.0) for _ in range(n)]
        for q in (1, 25, 50, 75, 99):
            assert percentile(xs, q) == pytest.approx(float(np.percentile(xs, q)))


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2], 101)


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    # children [1, 5] and [3, 7] cover 6 of the parent's 10 seconds
    start, end, parent = [0.0, 1.0, 3.0], [10.0, 5.0, 7.0], [-1, 0, 0]
    assert self_times(start, end, parent) == pytest.approx([4.0, 4.0, 4.0])


def test_tracer_records_parents_and_ids():
    tracer = Tracer()
    tracer.op_id = 7
    outer = tracer.begin("outer", 0.0)
    inner = tracer.begin("inner", 1.0)
    tracer.finish(inner, 2.5)
    tracer.finish(outer, 4.0)
    assert list(tracer.parent) == [-1, 0]
    assert list(tracer.op) == [7, 7]
    assert tracer.self_times() == pytest.approx([2.5, 1.5])


def test_duplicate_tally_ratio():
    assert duplicate_ratio([]) == 0.0
    key = (2, 3, 800, "binomial")
    assert duplicate_ratio([(0, key), (0, key), (5, key)]) == 1.5


def test_traced_cli_request_spans_and_restore():
    import binsum.cli
    import binsum.represent

    originals = {name: binsum.represent.__dict__[name]
                 for name in ("binom", "floor_index", "min_rep_table")}
    tracer = Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            assert binsum.cli.main(["decompose", "--k", "2", "--n", "1000003"]) == 0
            assert binsum.cli.main(["table", "--k", "3", "--x", "1000"]) == 0
    finally:
        tracer.uninstall()
    for name, fn in originals.items():
        assert binsum.represent.__dict__[name] is fn
    names = [tracer.names[i] for i in tracer.name_id]
    assert names[0] == "cli.main"
    assert {"represent.decompose_k2", "represent.two_triangular", "binom.binom",
            "experiments.run_experiment", "binom.floor_index"} <= set(names)
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
    layers = tracer.layer_metrics(passes=1)
    assert layers["cli.main.calls"] == 2
    assert layers["experiments.run_experiment.calls"] == 1


def _op(run_fn, check):
    return workloads.Op(0, "op", run_fn, check)


def test_wrong_answer_counts_as_failed():
    check = workloads._survey_check(3, 5, (), 1)

    class Record:
        results = {"max_terms": 4, "witnesses": [[5, 4]], "exceptions": [],
                   "exception_count": 0}

    result = run_pass([_op(lambda: (Record, False), check)])
    assert len(result["failures"]) == 1 and "max_terms" in result["failures"][0]
    assert len(result["latencies"]) == 1


def test_raising_operation_counts_as_failed():
    def boom():
        raise ZeroDivisionError("x")

    result = run_pass([_op(boom, lambda r: None), _op(lambda: 1, lambda r: None)])
    assert len(result["failures"]) == 1 and "ZeroDivisionError" in result["failures"][0]


def test_query_checker_rejects_a_wrong_decomposition():
    req = workloads.Request(0, "decompose", [], {"k": 2, "n": 11, "mode": "repeats"})
    checker = workloads.QueryChecker()
    checker.check(req, 0, "11 = 10 + 1\nindices (n, descending): [5, 2]\n", "", [])
    with pytest.raises(workloads.WrongAnswer):
        checker.check(req, 0, "11 = 10 + 3\nindices (n, descending): [5, 3]\n", "", [])
    with pytest.raises(workloads.WrongAnswer):
        checker.check(req, 4, "", "error: no representation", [])


def test_wrong_energy_answer_fails_when_checks_finish():
    req = workloads.Request(0, "energy", [], {"k": 2, "h": 2, "m": 12})
    checker = workloads.QueryChecker()
    tuples, energy, distinct, max_r = workloads.energy_oracle(2, 2, 12)

    def answer(e):
        return (f"energy(k=2, h=2, M=12, binomial): tuples={tuples} energy={e} "
                f"distinct={distinct} max_r={max_r} cs_floor=1")

    checker.check(req, 0, answer(energy), "", [False])
    assert checker.finish() == []
    checker.check(req, 0, answer(energy + 1), "", [False])
    assert len(checker.finish()) == 1


def test_energy_oracle_matches_enumeration():
    for k, h, m in ((2, 2, 12), (3, 3, 9), (2, 3, 10)):
        vals = [math.comb(n, k) for n in range(k, m + 1)]
        tally: dict[int, int] = {}
        for combo in product(vals, repeat=h):
            tally[sum(combo)] = tally.get(sum(combo), 0) + 1
        expected = (sum(tally.values()), sum(c * c for c in tally.values()), len(tally),
                    max(tally.values()))
        assert workloads.energy_oracle(k, h, m) == expected


def test_comb_count():
    for k in (2, 3, 4):
        for x in (1, 2, 10, 999, 10**6):
            assert workloads._comb_count(k, x) == sum(
                1 for n in range(k, 2000) if math.comb(n, k) <= x)


def test_request_stream_is_seeded_and_mixed():
    a, b = workloads.request_stream(3), workloads.request_stream(3)
    assert [r.argv for r in a] == [r.argv for r in b]
    assert [r.argv for r in a] != [r.argv for r in workloads.request_stream(4)]
    assert len(a) == workloads.REQUESTS_PER_PASS
    assert {r.what for r in a} == {"decompose", "min-rep", "table", "energy", "survey"}
    assert any(r.corrupt for r in a) and any(r.expect_exit == 4 for r in a)
    assert {r.export for r in a} == {None, "json", "csv"}
    for r in a:
        if r.repeat_of is not None:
            assert a[r.repeat_of].repeat_of is None and a[r.repeat_of].argv == r.argv


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    layers = Tracer().layer_metrics(passes=1)
    layers.update(dict.fromkeys(("tracing_overhead_s", "cli.startup.import_s", "trace.spans")))
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert len(TRACE_POINTS) * 2 < len(layers)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
