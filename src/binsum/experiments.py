"""Experiment runners shared by the CLI and the scripts.

A kind is declared once, in ``records.CSV_FIELDS``: its parameter and
result names. ``KINDS`` holds, in the same order, its parameter defaults,
its cross-parameter check, its runner and its console summary. A runner
calls only public functions of ``binom``, ``represent`` and ``energy`` and
returns the objects they return, or a small dict where a result's name
differs; ``run_experiment`` reads each schema result from those sources.
So a kind computes exactly what the library exports, and each tallies or
scans once: ``energy`` takes its extremes from its ``energy_report``
tally, and ``coverage-threshold`` both modes from one
``sumset_coverage_threshold`` scan. Each parameter name has one conversion
and one rule in ``_RULES``, whichever kind takes it.

``normalize_parameters`` rejects names outside the schema, converts each
parameter or fills its default where it is absent or None (not where it is
0), names a missing required one, then runs the kind's check and the rule
of each name. It fixes the key set so fingerprints are stable. The CLI
reads a kind's parameters from the options of the same names and declares
no defaults of its own. Thread count and memory budget are execution knobs,
not experiment parameters: they never enter the fingerprint because they
never change the results. Only the kinds marked ``budgeted`` read a memory
budget; the others refuse one.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from . import energy as energy_mod
from . import represent
from .binom import SEQUENCES, asymptotic_ratio, count_upto, floor_index
from .cache import ResultCache
from .records import CSV_FIELDS, EXPERIMENT_KINDS, SurveyRecord, fingerprint
from .represent import SearchMode

__all__ = ["run_experiment", "summary_line", "EXPERIMENT_KINDS"]

_SEQUENCES = tuple(SEQUENCES)


@dataclass(frozen=True)
class ExecutionKnobs:
    """How to run, never what to compute; fingerprints ignore all of this."""

    threads: int
    memory_budget: int


class MissingParameterError(ValueError):
    """A required parameter is absent or None."""

    def __init__(self, kind: str, name: str) -> None:
        super().__init__(f"{kind} requires parameter {name!r}")
        self.kind = kind
        self.name = name


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


# parameter name -> (conversion, rule on the converted value or None, message
# when the rule fails); the same for every kind that takes the name
_RULES: dict[str, tuple[Callable[[Any], Any], Callable[[Any], bool] | None, str]] = {
    "k": (int, lambda v: v >= 1, "k must be >= 1"),
    "n": (int, lambda v: v >= 1, "n must be >= 1"),
    "h": (int, lambda v: v >= 1, "h must be >= 1"),
    "h_max": (int, lambda v: v >= 1, "h_max must be >= 1"),
    "n_min": (int, lambda v: v >= 1, "need 1 <= n_min <= n_max"),
    "n_max": (int, None, ""),
    "mode": (lambda v: SearchMode.coerce(v).value, None, ""),
    "cap": (int, lambda v: 1 <= v <= represent.CAP_MAX, "cap out of range"),
    "max_witnesses": (int, lambda v: v >= 1, "max_witnesses must be >= 1"),
    "index_bound": (int, None, ""),
    "x": (int, lambda v: v >= 1, "x must be >= 1"),
    "convention": (str, lambda v: v in energy_mod.CONVENTIONS,
                   f"convention must be in {energy_mod.CONVENTIONS}"),
    "sequence": (str, lambda v: v in _SEQUENCES, f"sequence must be one of {_SEQUENCES}"),
    "top": (int, lambda v: v >= 0, "top must be >= 0"),
    "c": (Fraction, lambda v: 0 < v < 1, "c must be a fraction in (0, 1)"),
    "r_max": (int, lambda v: v >= 1, "r_max must be >= 1"),
    "bounds": (lambda v: [int(b) for b in v], lambda v: len(v) >= 3, "need at least 3 bounds"),
}


def _run_min_rep(params: dict[str, Any], knobs: ExecutionKnobs) -> tuple:
    rep = represent.minimal_representation(
        params["n"], params["k"], params["h_max"], params["mode"]
    )
    return ({
        "terms": None if rep is None else len(rep),
        "exceeds_h_max": rep is None,
        "witness_indices": None if rep is None else rep.indices,
        "witness_values": None if rep is None else rep.values,
    },)


def _summarize_min_rep(p: dict, r: dict) -> str:
    head = f"min-rep(n={p['n']}, k={p['k']}, {p['mode']}): "
    if r["exceeds_h_max"]:
        return head + f"exceeds h_max={p['h_max']}"
    return head + f"{r['terms']} terms, values {r['witness_values']}"


def _check_survey(p: dict[str, Any]) -> None:
    if p["cap"] is None:
        p["cap"] = represent.DEFAULT_SURVEY_CAP[SearchMode(p["mode"])]
    _require(p["n_min"] <= p["n_max"], "need 1 <= n_min <= n_max")


def _run_survey(params: dict[str, Any], knobs: ExecutionKnobs) -> tuple:
    return (represent.survey_min_rep(
        params["k"], params["n_min"], params["n_max"], params["mode"], cap=params["cap"],
        max_witnesses=params["max_witnesses"], memory_budget=knobs.memory_budget),)


def _summarize_survey(p: dict, r: dict) -> str:
    return (
        f"survey-H(k={p['k']}, [{p['n_min']}, {p['n_max']}], {p['mode']}): "
        f"max terms = {r['max_terms']} "
        f"({len(r['witnesses'])} witnesses, {r['exception_count']} exceptions)"
    )


def _check_energy(p: dict[str, Any]) -> None:
    _require((p["index_bound"] is None) != (p["x"] is None),
             "exactly one of index_bound and x is required")
    if p["x"] is None:
        _require(p["convention"] is None, "convention only applies with x")
    elif p["convention"] is None:
        p["convention"] = "value"


def _run_energy(params: dict[str, Any], knobs: ExecutionKnobs) -> tuple:
    if params["index_bound"] is not None:
        bound = params["index_bound"]
    else:
        bound = energy_mod.index_bound_for(
            params["k"], params["x"], params["convention"], sequence=params["sequence"]
        )
    report = energy_mod.energy_report(
        params["k"],
        params["h"],
        bound,
        top=params["top"],
        sequence=params["sequence"],
        threads=knobs.threads,
    )
    # the report lists no extremes at top 0, and the record says None
    return (report,) if params["top"] else ({"extremes": None}, report)


def _summarize_energy(p: dict, r: dict) -> str:
    return (
        f"energy(k={p['k']}, h={p['h']}, M={r['index_bound']}, {p['sequence']}): "
        f"tuples={r['total_tuples']} energy={r['energy']} "
        f"distinct={r['distinct_sums']} max_r={r['max_multiplicity']} "
        f"cs_floor={r['cs_lower_bound']}"
    )


def _run_restricted(params: dict[str, Any], knobs: ExecutionKnobs) -> tuple:
    spec = energy_mod.RestrictedTupleSpec(
        order=params["k"], arity=params["h"], budget=params["x"], fraction=params["c"]
    )
    restricted = energy_mod.restricted_distinct_sums(
        spec, sequence=params["sequence"], threads=knobs.threads
    )
    return restricted, restricted.report


def _summarize_restricted(p: dict, r: dict) -> str:
    return (
        f"restricted-sums(k={p['k']}, h={p['h']}, X={p['x']}, c={p['c']}): "
        f"distinct={r['distinct_sums']} cs_floor={r['cs_lower_bound']} "
        f"max_r={r['max_multiplicity']} trivial_ok={r['trivial_bound_ok']}"
    )


def _check_coverage(p: dict[str, Any]) -> None:
    _require(p["k"] == 2, "coverage threshold is defined for k=2 only")


def _run_coverage(params: dict[str, Any], knobs: ExecutionKnobs) -> tuple:
    repeats, distinct = represent.sumset_coverage_threshold(
        params["r_max"], memory_budget=knobs.memory_budget
    )
    return ({"repeats_threshold": repeats, "distinct_threshold": distinct},)


def _summarize_coverage(p: dict, r: dict) -> str:
    return (
        f"coverage(k=2, R<={p['r_max']}): repeats={r['repeats_threshold']} "
        f"distinct={r['distinct_threshold']}"
    )


def _check_fit(p: dict[str, Any]) -> None:
    b = p["bounds"]
    _require(all(b2 > b1 for b1, b2 in zip(b, b[1:])), "bounds must be strictly increasing")


def _run_fit(params: dict[str, Any], knobs: ExecutionKnobs) -> tuple:
    return (energy_mod.fit_energy_exponent(params["k"], params["h"], params["bounds"],
                                           sequence=params["sequence"], threads=knobs.threads),)


def _summarize_fit(p: dict, r: dict) -> str:
    return (
        f"exponent-fit(k={p['k']}, h={p['h']}, {len(p['bounds'])} bounds, "
        f"{p['sequence']}): alpha_hat={r['alpha_hat']:.4f} "
        f"(comparison {r['comparison_exponent']:.4f}, "
        f"plausible={r['hypothesis_plausible']}) residual={r['residual']:.4g}"
    )


def _run_ratio(params: dict[str, Any], knobs: ExecutionKnobs) -> tuple:
    k, x = params["k"], params["x"]
    return ({
        "floor_index": floor_index(k, x),
        "count": count_upto(k, x),
        "ratio": asymptotic_ratio(k, x),
    },)


def _summarize_ratio(p: dict, r: dict) -> str:
    return f"asymptotic-ratio(k={p['k']}, X={p['x']}): count={r['count']} ratio={r['ratio']:.6f}"


class Kind(NamedTuple):
    """One experiment kind; its schema is in CSV_FIELDS. A parameter without
    a default is required; check sees the converted parameters and may fill
    a None default from the others. run returns the sources of the results
    (see _results). budgeted kinds run under the memory budget knob."""

    defaults: dict[str, Any]
    run: Callable[[dict[str, Any], ExecutionKnobs], tuple]
    summarize: Callable[[dict[str, Any], dict[str, Any]], str]
    check: Callable[[dict[str, Any]], None] | None = None
    budgeted: bool = False


KINDS: dict[str, Kind] = {
    "min-rep": Kind({"h_max": 8, "mode": "repeats"}, _run_min_rep, _summarize_min_rep),
    "survey-H": Kind({"n_min": 1, "mode": "repeats", "cap": None, "max_witnesses": 10},
                     _run_survey, _summarize_survey, _check_survey, budgeted=True),
    "energy": Kind({"index_bound": None, "x": None, "convention": None,
                    "sequence": "binomial", "top": 0},
                   _run_energy, _summarize_energy, _check_energy),
    "restricted-sums": Kind({"c": Fraction(1, 2), "sequence": "binomial"},
                            _run_restricted, _summarize_restricted),
    "coverage-threshold": Kind({"k": 2}, _run_coverage, _summarize_coverage,
                               _check_coverage, budgeted=True),
    "exponent-fit": Kind({"sequence": "binomial"}, _run_fit, _summarize_fit, _check_fit),
    "asymptotic-ratio": Kind({}, _run_ratio, _summarize_ratio),
}
assert tuple(KINDS) == EXPERIMENT_KINDS, "KINDS and CSV_FIELDS list different kinds"


def normalize_parameters(kind: str, params: dict[str, Any]) -> dict[str, Any]:
    """The kind's parameters in schema order, converted, defaulted and
    checked; a None value counts as absent, as the CLI passes absent options."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {EXPERIMENT_KINDS}, got {kind!r}")
    names = CSV_FIELDS[kind][0]
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise ValueError(f"{kind} takes no parameter {unknown}; it takes {list(names)}")
    spec = KINDS[kind]
    out = {}
    for name in names:
        value = params.get(name)
        if value is None:
            if name not in spec.defaults:
                raise MissingParameterError(kind, name)
            value = spec.defaults[name]
        try:  # Fraction("1/0") raises ZeroDivisionError, not ValueError
            out[name] = None if value is None else _RULES[name][0](value)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot read parameter {name!r} from {value!r}: {exc}") from exc
    if spec.check is not None:
        spec.check(out)
    for name, value in out.items():
        _, rule, message = _RULES[name]
        _require(value is None or rule is None or rule(value), message)
    return out


def _plain(value: Any) -> Any:
    """value with every tuple a list, as exports decode it."""
    return [_plain(v) for v in value] if isinstance(value, (tuple, list)) else value


def _results(kind: str, sources: tuple) -> dict[str, Any]:
    """The kind's results in schema order, each read from the first source
    that has it: a small dict's key or a library object's attribute."""
    names = CSV_FIELDS[kind][1]
    values: dict[str, Any] = {}
    for source in reversed(sources):
        values.update(source if isinstance(source, dict) else
                      {name: getattr(source, name) for name in names if hasattr(source, name)})
    return {name: _plain(values[name]) for name in names}


def run_experiment(
    kind: str,
    params: dict[str, Any],
    *,
    threads: int = 1,
    memory_budget: int | None = None,
    cache: ResultCache | None = None,
) -> tuple[SurveyRecord, bool]:
    """Run one experiment (or fetch it from the cache).

    Returns (record, cache_hit). The fingerprint covers kind and normalized
    parameters only, so equivalent requests share a cache entry no matter
    how they are threaded or budgeted. memory_budget None means
    represent.DEFAULT_MEMORY_BUDGET; a kind that is not budgeted refuses
    any other value.
    """
    normalized = normalize_parameters(kind, params)
    if memory_budget is not None and not KINDS[kind].budgeted:
        raise ValueError(f"{kind} takes no memory_budget")
    if cache is not None:
        hit = cache.lookup(fingerprint(kind, normalized))
        if hit is not None:
            return hit, True
    if memory_budget is None:
        memory_budget = represent.DEFAULT_MEMORY_BUDGET
    knobs = ExecutionKnobs(threads, memory_budget)
    started = time.perf_counter()
    results = _results(kind, KINDS[kind].run(normalized, knobs))
    record = SurveyRecord(
        kind=kind,
        parameters=normalized,
        results=results,
        duration_seconds=time.perf_counter() - started,
    )
    if cache is not None:
        cache.store(record)
    return record, False


def summary_line(record: SurveyRecord) -> str:
    """One human line per record for the console."""
    return KINDS[record.kind].summarize(record.parameters, record.results)
