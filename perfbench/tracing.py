"""Spans around calls into binsum's public functions, recorded from outside.

The benchmark installs a wrapper at every place a caller looks a traced
function up: a module attribute, a name another module imported with
``from ... import``, or a method on a class. binsum itself is not edited.
Calls a module makes to its own helpers through other names (for example
``floor_index`` calling ``binom`` inside ``binsum.binom``) stay inside the
caller's span.

Spans are kept in flat arrays while the run lasts and written out when it
ends: name, start, end, parent and the job or request id that caused them.
Only calls on the main thread are recorded; binsum's worker threads run
numpy kernels and call no traced function.
"""
from __future__ import annotations

import array
import functools
import gzip
import importlib
import logging
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter


def _sequence_kind(sequence) -> str:
    if sequence is None:
        return "binomial"
    return sequence if isinstance(sequence, str) else sequence.kind


def _tally_key(name: str, args, kwargs):
    """The (k, h, M, sequence) instance a tally call works on."""
    seq = _sequence_kind(kwargs.get("sequence"))
    if name == "energy.restricted_distinct_sums":
        spec = args[0]
        return ("restricted", spec.order, spec.arity, spec.budget, spec.fraction, seq)
    k, h, index_bound = args[:3]
    return (k, h, index_bound, seq)


def _count_tally(tracer, name, args, kwargs):
    experiment = tracer.innermost("experiments.run_experiment")
    if experiment >= 0:
        tracer.tally_events.append((experiment, _tally_key(name, args, kwargs)))


def _add(key, value_of):
    def hook(tracer, name, args, kwargs, result):
        tracer.counts[key] += value_of(args, result)
    return hook


def _lookup_outcome(tracer, name, args, kwargs, result):
    tracer.counts["cache.lookup.misses" if result is None else "cache.lookup.hits"] += 1


# span name -> (lookup sites, hook before the call, hook after it returns).
# A site is (module path, attribute) or (module path, "Class.method").
TRACE_POINTS = {
    "binom.binom": (
        [("binsum.represent", "binom")], None, None),
    "binom.floor_index": (
        [("binsum.represent", "floor_index"), ("binsum.experiments", "floor_index")],
        None, None),
    "represent.min_rep_table": (
        [("binsum.represent", "min_rep_table"), ("binsum", "min_rep_table")],
        None, _add("represent.min_rep_table.cells", lambda a, r: a[1] + 1)),
    "represent.survey_min_rep": (
        [("binsum.represent", "survey_min_rep"), ("binsum", "survey_min_rep")],
        None, None),
    "represent.sumset_coverage_threshold": (
        [("binsum.represent", "sumset_coverage_threshold"),
         ("binsum", "sumset_coverage_threshold")],
        None, _add("represent.sumset_coverage_threshold.cells", lambda a, r: a[0] + 1)),
    "represent.decompose_k2": (
        [("binsum.represent", "decompose_k2"), ("binsum.cli", "decompose_k2")],
        None, None),
    "represent.decompose_k3": (
        [("binsum.represent", "decompose_k3"), ("binsum.cli", "decompose_k3")],
        None, None),
    "represent.two_triangular": (
        [("binsum.represent", "two_triangular")], None, None),
    "represent.minimal_representation": (
        [("binsum.represent", "minimal_representation"),
         ("binsum.cli", "minimal_representation")],
        None, None),
    "energy.energy_report": (
        [("binsum.energy", "energy_report"), ("binsum", "energy_report")],
        _count_tally, _add("energy.energy_report.tuples", lambda a, r: r.total_tuples)),
    "energy.multiplicity_map": (
        [("binsum.energy", "multiplicity_map"), ("binsum", "multiplicity_map")],
        _count_tally, _add("energy.multiplicity_map.distinct_sums", lambda a, r: len(r))),
    "energy.multiplicity_extremes": (
        [("binsum.energy", "multiplicity_extremes"), ("binsum", "multiplicity_extremes")],
        _count_tally, None),
    "energy.restricted_distinct_sums": (
        [("binsum.energy", "restricted_distinct_sums"),
         ("binsum", "restricted_distinct_sums")],
        _count_tally, None),
    "energy.fit_energy_exponent": (
        [("binsum.energy", "fit_energy_exponent"), ("binsum", "fit_energy_exponent")],
        None, None),
    "records.records_to_json": (
        [("binsum.records", "records_to_json"), ("binsum.cache", "records_to_json"),
         ("binsum", "records_to_json")],
        None, _add("records.records_to_json.bytes", lambda a, r: len(r.encode()))),
    "records.records_to_csv": (
        [("binsum.records", "records_to_csv"), ("binsum", "records_to_csv")],
        None, _add("records.records_to_csv.bytes", lambda a, r: len(r.encode()))),
    "records.dump_records_json": (
        [("binsum.records", "dump_records_json"), ("binsum.cli", "dump_records_json"),
         ("binsum", "dump_records_json")],
        None, None),
    "records.dump_records_csv": (
        [("binsum.records", "dump_records_csv"), ("binsum.cli", "dump_records_csv"),
         ("binsum", "dump_records_csv")],
        None, None),
    "records.fingerprint": (
        [("binsum.records", "fingerprint"), ("binsum.experiments", "fingerprint")],
        None, None),
    "cache.lookup": (
        [("binsum.cache", "ResultCache.lookup")], None, _lookup_outcome),
    "cache.store": (
        [("binsum.cache", "ResultCache.store")], None, None),
    "experiments.run_experiment": (
        [("binsum.experiments", "run_experiment"), ("binsum.cli", "run_experiment"),
         ("binsum", "run_experiment")],
        None, None),
    "cli.main": (
        [("binsum.cli", "main")], None, None),
}

EXTRA_COUNTS = (
    "represent.min_rep_table.cells",
    "represent.sumset_coverage_threshold.cells",
    "energy.energy_report.tuples",
    "energy.multiplicity_map.distinct_sums",
    "records.records_to_json.bytes",
    "records.records_to_csv.bytes",
    "cache.lookup.hits",
    "cache.lookup.misses",
    "cache.lookup.corrupt",
)


class _WarningCounter(logging.Handler):
    """Counts the warnings binsum.cache logs for unreadable entries."""

    def __init__(self, tracer: "Tracer") -> None:
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        self.tracer.counts["cache.lookup.corrupt"] += 1


class Tracer:
    """In-memory span store plus the counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.op_id = -1
        self.counts: Counter = Counter()
        self.tally_events: list[tuple[int, tuple]] = []
        self._stack: list[int] = []
        self._main = threading.get_ident()
        self._installed: list[tuple[object, str, object]] = []
        self._handler = _WarningCounter(self)

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def innermost(self, name: str) -> int:
        """Index of the innermost open span with this name, or -1."""
        nid = self._id(name)
        for idx in reversed(self._stack):
            if self.name_id[idx] == nid:
                return idx
        return -1

    def begin(self, name: str, now: float) -> int:
        nid = self._id(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.start.append(now)
        self.end.append(now)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self._stack.append(idx)
        return idx

    def finish(self, idx: int, now: float) -> None:
        self.end[idx] = now
        self._stack.pop()

    def wrap(self, name: str, fn, on_call=None, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(tracer, name, args, kwargs)
            idx = tracer.begin(name, perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(idx, perf_counter())
            if on_return is not None:
                on_return(tracer, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Put a traced wrapper at every lookup site in TRACE_POINTS."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for name, (sites, on_call, on_return) in TRACE_POINTS.items():
            wrapped = {}
            for module_name, attr in sites:
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                if id(original) not in wrapped:
                    wrapped[id(original)] = self.wrap(name, original, on_call, on_return)
                self._installed.append((owner, attr, original))
                setattr(owner, attr, wrapped[id(original)])
        logging.getLogger("binsum.cache").addHandler(self._handler)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
        logging.getLogger("binsum.cache").removeHandler(self._handler)

    def self_times(self) -> list[float]:
        return self_times(self.start, self.end, self.parent)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer calls, self time and counts, each per traced pass."""
        calls: Counter = Counter()
        busy: Counter = Counter()
        for nid, own in zip(self.name_id, self.self_times()):
            calls[nid] += 1
            busy[nid] += own
        out: dict[str, float] = {}
        for name in TRACE_POINTS:
            nid = self._id(name)
            out[f"{name}.calls"] = calls[nid] / passes
            out[f"{name}.self_s"] = busy[nid] / passes
        for key in EXTRA_COUNTS:
            out[key] = self.counts[key] / passes
        lookups = self.counts["cache.lookup.hits"] + self.counts["cache.lookup.misses"]
        out["cache.hit_ratio"] = self.counts["cache.lookup.hits"] / lookups if lookups else 0.0
        out["energy.duplicate_tally_ratio"] = duplicate_ratio(self.tally_events)
        return out

    def dump(self, path: Path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tstart\tend\tparent\top\n")
            for i, (nid, t0, t1, parent, op) in enumerate(
                zip(self.name_id, self.start, self.end, self.parent, self.op)
            ):
                out.write(f"{i}\t{self.names[nid]}\t{t0!r}\t{t1!r}\t{parent}\t{op}\n")


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Spans are in start order, so one sweep per parent over its children
    measures the union of their intervals, clipped to the parent's own.
    """
    covered = [0.0] * len(start)
    reach = list(start)  # per parent: the covered prefix ends here
    for i, p in enumerate(parent):
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


def duplicate_ratio(events) -> float:
    """Tallies run divided by distinct tally instances, summed per experiment.

    events holds (experiment span index, instance) pairs; 0.0 when no tally
    ran inside an experiment.
    """
    if not events:
        return 0.0
    distinct = len(set(events))
    return len(events) / distinct
