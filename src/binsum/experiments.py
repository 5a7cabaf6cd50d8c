"""Experiment runners shared by the CLI and the scripts.

Each experiment kind has a normalizer (fills defaults, validates, and fixes
the parameter key set so fingerprints are stable) and a runner producing a
results dict with every schema field present, None where not applicable.
Thread count and chunk size are execution knobs, not experiment parameters:
they never enter the fingerprint because they never change the results.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from . import energy as energy_mod
from . import represent
from .binom import asymptotic_ratio, count_upto, floor_index
from .cache import ResultCache
from .records import EXPERIMENT_KINDS, SurveyRecord, fingerprint
from .represent import SearchMode

__all__ = ["run_experiment", "summary_line", "EXPERIMENT_KINDS"]

_SEQUENCES = ("binomial", "power")
_CONVENTIONS = ("value", "index")


@dataclass(frozen=True)
class ExecutionKnobs:
    """How to run, never what to compute; fingerprints ignore all of this."""

    threads: int = 1
    chunk_size: int | None = None
    memory_budget: int | None = None

    def budget_kwargs(self) -> dict[str, int]:
        return {} if self.memory_budget is None else {"memory_budget": self.memory_budget}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _as_mode(value: Any) -> str:
    return SearchMode.coerce(value).value


def _normalize_min_rep(params: dict[str, Any]) -> dict[str, Any]:
    out = {
        "k": int(params["k"]),
        "n": int(params["n"]),
        "h_max": int(params.get("h_max") or 8),
        "mode": _as_mode(params.get("mode") or "repeats"),
    }
    _require(out["k"] >= 1, "k must be >= 1")
    _require(out["n"] >= 1, "n must be >= 1")
    _require(out["h_max"] >= 1, "h_max must be >= 1")
    return out


def _run_min_rep(params: dict[str, Any], knobs: ExecutionKnobs) -> dict:
    rep = represent.minimal_representation(
        params["n"], params["k"], params["h_max"], params["mode"]
    )
    return {
        "terms": None if rep is None else len(rep),
        "exceeds_h_max": rep is None,
        "witness_indices": None if rep is None else list(rep.indices),
        "witness_values": None if rep is None else list(rep.values),
    }


def _normalize_survey(params: dict[str, Any]) -> dict[str, Any]:
    mode = _as_mode(params.get("mode") or "repeats")
    cap = params.get("cap")
    if cap is None:
        cap = represent.CAP_MAX if mode == "repeats" else 8
    out = {
        "k": int(params["k"]),
        "n_min": int(params.get("n_min") or 1),
        "n_max": int(params["n_max"]),
        "mode": mode,
        "cap": int(cap),
        "max_witnesses": int(params.get("max_witnesses") or 10),
    }
    _require(out["k"] >= 1, "k must be >= 1")
    _require(1 <= out["n_min"] <= out["n_max"], "need 1 <= n_min <= n_max")
    _require(1 <= out["cap"] <= represent.CAP_MAX, "cap out of range")
    _require(out["max_witnesses"] >= 1, "max_witnesses must be >= 1")
    return out


def _run_survey(params: dict[str, Any], knobs: ExecutionKnobs) -> dict:
    survey = represent.survey_min_rep(
        params["k"],
        params["n_min"],
        params["n_max"],
        params["mode"],
        cap=params["cap"],
        max_witnesses=params["max_witnesses"],
        chunk_size=knobs.chunk_size,
        **knobs.budget_kwargs(),
    )
    return {
        "max_terms": survey.max_terms,
        "witnesses": [list(w) for w in survey.witnesses],
        "exceptions": list(survey.exceptions),
        "exception_count": survey.exception_count,
    }


def _normalize_energy(params: dict[str, Any]) -> dict[str, Any]:
    index_bound = params.get("index_bound")
    x = params.get("x")
    _require(
        (index_bound is None) != (x is None),
        "exactly one of index_bound and x is required",
    )
    convention = params.get("convention")
    if x is not None:
        convention = convention or "value"
        _require(convention in _CONVENTIONS, f"convention must be in {_CONVENTIONS}")
    else:
        _require(convention is None, "convention only applies with x")
    sequence = params.get("sequence") or "binomial"
    _require(sequence in _SEQUENCES, f"sequence must be one of {_SEQUENCES}")
    out = {
        "k": int(params["k"]),
        "h": int(params["h"]),
        "index_bound": None if index_bound is None else int(index_bound),
        "x": None if x is None else int(x),
        "convention": convention,
        "sequence": sequence,
        "top": int(params.get("top") or 0),
    }
    _require(out["k"] >= 1, "k must be >= 1")
    _require(out["h"] >= 1, "h must be >= 1")
    _require(out["top"] >= 0, "top must be >= 0")
    return out


def _run_energy(params: dict[str, Any], knobs: ExecutionKnobs) -> dict:
    if params["index_bound"] is not None:
        bound = params["index_bound"]
        value_bound = None
    else:
        bound = energy_mod.index_bound_for(
            params["k"], params["x"], params["convention"], sequence=params["sequence"]
        )
        # only the value convention actually caps the values
        value_bound = params["x"] if params["convention"] == "value" else None
    report, extremes = energy_mod._report_and_extremes(
        params["k"],
        params["h"],
        bound,
        params["top"],
        sequence=params["sequence"],
        value_bound=value_bound,
        threads=knobs.threads,
    )
    return {
        "index_bound": report.index_bound,
        "admissible_count": report.admissible_count,
        "total_tuples": report.total_tuples,
        "energy": report.energy,
        "distinct_sums": report.distinct_sums,
        "max_multiplicity": report.max_multiplicity,
        "cs_lower_bound": report.cs_lower_bound,
        "extremes": [list(pair) for pair in extremes] if params["top"] > 0 else None,
    }


def _normalize_restricted(params: dict[str, Any]) -> dict[str, Any]:
    sequence = params.get("sequence") or "binomial"
    _require(sequence in _SEQUENCES, f"sequence must be one of {_SEQUENCES}")
    out = {
        "k": int(params["k"]),
        "h": int(params["h"]),
        "x": int(params["x"]),
        "c": Fraction(params.get("c") if params.get("c") is not None else Fraction(1, 2)),
        "sequence": sequence,
    }
    _require(out["k"] >= 1, "k must be >= 1")
    _require(out["h"] >= 1, "h must be >= 1")
    _require(out["x"] >= 1, "x must be >= 1")
    _require(0 < out["c"] < 1, "c must be a fraction in (0, 1)")
    return out


def _run_restricted(params: dict[str, Any], knobs: ExecutionKnobs) -> dict:
    spec = energy_mod.RestrictedTupleSpec(
        order=params["k"], arity=params["h"], budget=params["x"], fraction=params["c"]
    )
    restricted = energy_mod.restricted_distinct_sums(
        spec, sequence=params["sequence"], threads=knobs.threads
    )
    report = restricted.report
    return {
        "per_term_cap": restricted.per_term_cap,
        "max_index": restricted.max_index,
        "admissible_count": restricted.admissible_count,
        "total_tuples": report.total_tuples,
        "energy": report.energy,
        "distinct_sums": report.distinct_sums,
        "max_multiplicity": report.max_multiplicity,
        "cs_lower_bound": report.cs_lower_bound,
        "trivial_bound": restricted.trivial_bound,
        "trivial_bound_ok": restricted.trivial_bound_ok,
        "floor_lower_bound": restricted.floor_lower_bound,
        "floor_ok": restricted.floor_ok,
    }


def _normalize_coverage(params: dict[str, Any]) -> dict[str, Any]:
    out = {"k": int(params.get("k") or 2), "r_max": int(params["r_max"])}
    _require(out["k"] == 2, "coverage threshold is defined for k=2 only")
    _require(out["r_max"] >= 1, "r_max must be >= 1")
    return out


def _run_coverage(params: dict[str, Any], knobs: ExecutionKnobs) -> dict:
    return {
        "repeats_threshold": represent.sumset_coverage_threshold(
            params["r_max"], SearchMode.REPEATS, **knobs.budget_kwargs()
        ),
        "distinct_threshold": represent.sumset_coverage_threshold(
            params["r_max"], SearchMode.DISTINCT, **knobs.budget_kwargs()
        ),
    }


def _normalize_fit(params: dict[str, Any]) -> dict[str, Any]:
    bounds = [int(b) for b in params["bounds"]]
    sequence = params.get("sequence") or "binomial"
    _require(sequence in _SEQUENCES, f"sequence must be one of {_SEQUENCES}")
    out = {
        "k": int(params["k"]),
        "h": int(params["h"]),
        "bounds": bounds,
        "sequence": sequence,
    }
    _require(out["k"] >= 1, "k must be >= 1")
    _require(out["h"] >= 1, "h must be >= 1")
    _require(len(bounds) >= 3, "need at least 3 bounds")
    _require(
        all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:])),
        "bounds must be strictly increasing",
    )
    return out


def _run_fit(params: dict[str, Any], knobs: ExecutionKnobs) -> dict:
    fit = energy_mod.fit_energy_exponent(
        params["k"],
        params["h"],
        params["bounds"],
        sequence=params["sequence"],
        threads=knobs.threads,
    )
    return {
        "observations": [list(obs) for obs in fit.observations],
        "alpha_hat": fit.alpha_hat,
        "intercept": fit.intercept,
        "residual": fit.residual,
        "comparison_exponent": fit.comparison_exponent,
        "hypothesis_plausible": fit.hypothesis_plausible,
    }


def _normalize_ratio(params: dict[str, Any]) -> dict[str, Any]:
    out = {"k": int(params["k"]), "x": int(params["x"])}
    _require(out["k"] >= 1, "k must be >= 1")
    _require(out["x"] >= 1, "x must be >= 1")
    return out


def _run_ratio(params: dict[str, Any], knobs: ExecutionKnobs) -> dict:
    k, x = params["k"], params["x"]
    return {
        "floor_index": floor_index(k, x),
        "count": count_upto(k, x),
        "ratio": asymptotic_ratio(k, x),
    }


_NORMALIZERS = {
    "min-rep": _normalize_min_rep,
    "survey-H": _normalize_survey,
    "energy": _normalize_energy,
    "restricted-sums": _normalize_restricted,
    "coverage-threshold": _normalize_coverage,
    "exponent-fit": _normalize_fit,
    "asymptotic-ratio": _normalize_ratio,
}

_RUNNERS = {
    "min-rep": _run_min_rep,
    "survey-H": _run_survey,
    "energy": _run_energy,
    "restricted-sums": _run_restricted,
    "coverage-threshold": _run_coverage,
    "exponent-fit": _run_fit,
    "asymptotic-ratio": _run_ratio,
}


def normalize_parameters(kind: str, params: dict[str, Any]) -> dict[str, Any]:
    if kind not in _NORMALIZERS:
        raise ValueError(f"kind must be one of {EXPERIMENT_KINDS}, got {kind!r}")
    try:
        return _NORMALIZERS[kind](params)
    except KeyError as exc:
        raise ValueError(f"{kind} requires parameter {exc.args[0]!r}") from None


def run_experiment(
    kind: str,
    params: dict[str, Any],
    *,
    threads: int = 1,
    chunk_size: int | None = None,
    memory_budget: int | None = None,
    cache: ResultCache | None = None,
) -> tuple[SurveyRecord, bool]:
    """Run one experiment (or fetch it from the cache).

    Returns (record, cache_hit). The fingerprint covers kind and normalized
    parameters only, so equivalent requests share a cache entry no matter
    how they are chunked, threaded, or budgeted.
    """
    normalized = normalize_parameters(kind, params)
    if cache is not None:
        hit = cache.lookup(fingerprint(kind, normalized))
        if hit is not None:
            return hit, True
    knobs = ExecutionKnobs(threads, chunk_size, memory_budget)
    started = time.perf_counter()
    results = _RUNNERS[kind](normalized, knobs)
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
    p, r = record.parameters, record.results
    kind = record.kind
    if kind == "min-rep":
        if r["exceeds_h_max"]:
            return (
                f"min-rep(n={p['n']}, k={p['k']}, {p['mode']}): "
                f"exceeds h_max={p['h_max']}"
            )
        return (
            f"min-rep(n={p['n']}, k={p['k']}, {p['mode']}): {r['terms']} terms, "
            f"values {r['witness_values']}"
        )
    if kind == "survey-H":
        return (
            f"survey-H(k={p['k']}, [{p['n_min']}, {p['n_max']}], {p['mode']}): "
            f"max terms = {r['max_terms']} "
            f"({len(r['witnesses'])} witnesses, {r['exception_count']} exceptions)"
        )
    if kind == "energy":
        return (
            f"energy(k={p['k']}, h={p['h']}, M={r['index_bound']}, {p['sequence']}): "
            f"tuples={r['total_tuples']} energy={r['energy']} "
            f"distinct={r['distinct_sums']} max_r={r['max_multiplicity']} "
            f"cs_floor={r['cs_lower_bound']}"
        )
    if kind == "restricted-sums":
        return (
            f"restricted-sums(k={p['k']}, h={p['h']}, X={p['x']}, c={p['c']}): "
            f"distinct={r['distinct_sums']} cs_floor={r['cs_lower_bound']} "
            f"max_r={r['max_multiplicity']} trivial_ok={r['trivial_bound_ok']}"
        )
    if kind == "coverage-threshold":
        return (
            f"coverage(k=2, R<={p['r_max']}): repeats={r['repeats_threshold']} "
            f"distinct={r['distinct_threshold']}"
        )
    if kind == "exponent-fit":
        return (
            f"exponent-fit(k={p['k']}, h={p['h']}, {len(p['bounds'])} bounds, "
            f"{p['sequence']}): alpha_hat={r['alpha_hat']:.4f} "
            f"(comparison {r['comparison_exponent']:.4f}, "
            f"plausible={r['hypothesis_plausible']}) residual={r['residual']:.4g}"
        )
    if kind == "asymptotic-ratio":
        return (
            f"asymptotic-ratio(k={p['k']}, X={p['x']}): count={r['count']} "
            f"ratio={r['ratio']:.6f}"
        )
    raise ValueError(f"unknown kind {kind!r}")
