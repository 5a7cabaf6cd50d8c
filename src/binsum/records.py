"""Experiment records and their JSON/CSV serialization.

Every integer is serialized as a decimal string so consumers limited to
64-bit numbers never truncate a value; fractions ride along as "a/b".
Decoding reverses both rules, which is lossless because no genuine string
field in any record consists solely of digits.

Wall-clock duration is intentionally absent from the serialized forms:
exports must be byte-identical across reruns and thread counts, and a
timing field would break that. It stays on the in-memory record only, for
callers that time their runs.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable

from ._version import __version__

_INT_RE = re.compile(r"-?[0-9]+\Z")
_FRACTION_RE = re.compile(r"-?[0-9]+/[0-9]+\Z")
_FLOAT_RE = re.compile(r"-?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?\Z")


def encode_value(value: Any) -> Any:
    """JSON-safe form: ints to decimal strings, fractions to "a/b"."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if value is None:
        return None
    if isinstance(value, str):
        if _INT_RE.match(value) or _FRACTION_RE.match(value):
            raise ValueError(
                f"string {value!r} would decode as a number; use int/Fraction"
            )
        return value
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    raise TypeError(f"cannot encode {type(value).__name__} value {value!r}")


def decode_value(value: Any) -> Any:
    """Inverse of encode_value."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value
    if value is None:
        return None
    if isinstance(value, str):
        if _INT_RE.match(value):
            return int(value)
        if _FRACTION_RE.match(value):
            return Fraction(value)
        return value
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if isinstance(value, dict):
        return {k: decode_value(v) for k, v in value.items()}
    raise TypeError(f"cannot decode {type(value).__name__} value {value!r}")


@dataclass(frozen=True)
class SurveyRecord:
    """One experiment: what was asked, what came out, and which tool version.

    duration_seconds is excluded from equality and from every export.
    """

    kind: str
    parameters: dict[str, Any]
    results: dict[str, Any]
    tool_version: str = __version__
    duration_seconds: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(
                f"kind must be one of {EXPERIMENT_KINDS}, got {self.kind!r}"
            )

    @property
    def fingerprint(self) -> str:
        return fingerprint(self.kind, self.parameters)

    def to_payload(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "parameters": encode_value(self.parameters),
            "results": encode_value(self.results),
            "tool_version": self.tool_version,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "SurveyRecord":
        return cls(
            kind=payload["kind"],
            parameters=decode_value(payload["parameters"]),
            results=decode_value(payload["results"]),
            tool_version=payload["tool_version"],
        )


def canonical_parameters(kind: str, parameters: dict[str, Any]) -> str:
    """Stable textual form of an experiment request, for fingerprinting."""
    encoded = encode_value(dict(sorted(parameters.items())))
    return f"{kind}|{json.dumps(encoded, sort_keys=True, separators=(',', ':'))}"


def fingerprint(kind: str, parameters: dict[str, Any]) -> str:
    return hashlib.sha256(canonical_parameters(kind, parameters).encode()).hexdigest()


def _atomic_write_text(path: Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file and a failed run leaves nothing behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _json_text(encoded: Any) -> str:
    return json.dumps(encoded, indent=2, sort_keys=True) + "\n"


def records_to_json(records: list[SurveyRecord]) -> str:
    """One record as an object, several as an array."""
    return _json_text(
        records[0].to_payload()
        if len(records) == 1
        else [r.to_payload() for r in records]
    )


def records_from_json(text: str) -> list[SurveyRecord]:
    payload = json.loads(text)
    if isinstance(payload, dict):
        payload = [payload]
    return [SurveyRecord.from_payload(p) for p in payload]


def dump_records_json(records: list[SurveyRecord], path: Path) -> None:
    _atomic_write_text(Path(path), records_to_json(records))


def load_records_json(path: Path) -> list[SurveyRecord]:
    return records_from_json(Path(path).read_text(encoding="utf-8"))


# The one schema of every experiment kind: its parameter names, which are the
# only parameters it accepts, and its result names, both in their fixed CSV
# column order. Every row of a CSV file shares one kind; parameter and result
# columns are prefixed to keep the header self-describing.
CSV_FIELDS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "min-rep": (
        ("k", "n", "h_max", "mode"),
        ("terms", "exceeds_h_max", "witness_indices", "witness_values"),
    ),
    "survey-H": (
        ("k", "n_min", "n_max", "mode", "cap", "max_witnesses"),
        ("max_terms", "witnesses", "exceptions", "exception_count"),
    ),
    "energy": (
        ("k", "h", "index_bound", "x", "convention", "sequence", "top"),
        (
            "index_bound",
            "admissible_count",
            "total_tuples",
            "energy",
            "distinct_sums",
            "max_multiplicity",
            "cs_lower_bound",
            "extremes",
        ),
    ),
    "restricted-sums": (
        ("k", "h", "x", "c", "sequence"),
        (
            "per_term_cap",
            "max_index",
            "admissible_count",
            "total_tuples",
            "energy",
            "distinct_sums",
            "max_multiplicity",
            "cs_lower_bound",
            "trivial_bound",
            "trivial_bound_ok",
            "floor_lower_bound",
            "floor_ok",
        ),
    ),
    "coverage-threshold": (
        ("k", "r_max"),
        ("repeats_threshold", "distinct_threshold"),
    ),
    "exponent-fit": (
        ("k", "h", "bounds", "sequence"),
        (
            "observations",
            "alpha_hat",
            "intercept",
            "residual",
            "comparison_exponent",
            "hypothesis_plausible",
        ),
    ),
    "asymptotic-ratio": (
        ("k", "x"),
        ("floor_index", "count", "ratio"),
    ),
}

EXPERIMENT_KINDS = tuple(CSV_FIELDS)


def _cell(encoded: Any) -> str:
    if encoded is None:
        return ""
    if isinstance(encoded, bool):
        return "true" if encoded else "false"
    if isinstance(encoded, float):
        return repr(encoded)
    if isinstance(encoded, str):
        return encoded
    if isinstance(encoded, (list, dict)):
        return json.dumps(encoded, sort_keys=True, separators=(",", ":"))
    raise TypeError(f"cannot render CSV cell for {encoded!r}")


def _parse_cell(text: str) -> Any:
    if text == "":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    if _INT_RE.match(text):
        return int(text)
    if _FRACTION_RE.match(text):
        return Fraction(text)
    if text.startswith("[") or text.startswith("{"):
        return decode_value(json.loads(text))
    if _FLOAT_RE.match(text):
        return float(text)
    return text


def records_to_csv(records: list[SurveyRecord]) -> str:
    if not records:
        raise ValueError("no records to write")
    kinds = {r.kind for r in records}
    if len(kinds) > 1:
        raise ValueError(f"CSV files hold a single kind, got {sorted(kinds)}")
    kind = records[0].kind
    param_names, result_names = CSV_FIELDS[kind]
    for record in records:
        unknown = set(record.parameters) - set(param_names)
        unknown |= set(record.results) - set(result_names)
        if unknown:
            raise ValueError(f"{kind} record has fields outside the schema: {unknown}")
    header = (
        ["kind", "tool_version"]
        + [f"param:{name}" for name in param_names]
        + [f"result:{name}" for name in result_names]
    )
    return _csv_text(header, (
        [record.kind, record.tool_version]
        + [record.parameters.get(n) for n in param_names]
        + [record.results.get(n) for n in result_names]
        for record in records
    ))


def _csv_text(header: list[str], rows: Iterable[list[Any]]) -> str:
    """The header line, then one line per row of unencoded values."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows([_cell(encode_value(value)) for value in row] for row in rows)
    return buffer.getvalue()


def records_from_csv(text: str) -> list[SurveyRecord]:
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        raise ValueError("empty CSV")
    header = rows[0]
    records = []
    for row in rows[1:]:
        if not row:
            continue
        fields = dict(zip(header, row))
        kind = fields.pop("kind")
        version = fields.pop("tool_version")
        parameters = {}
        results = {}
        for column, cell in fields.items():
            prefix, _, name = column.partition(":")
            value = _parse_cell(cell)
            if prefix == "param":
                parameters[name] = value
            elif prefix == "result":
                results[name] = value
            else:
                raise ValueError(f"unrecognized CSV column {column!r}")
        records.append(
            SurveyRecord(
                kind=kind,
                parameters=parameters,
                results=results,
                tool_version=version,
            )
        )
    return records


def dump_records_csv(records: list[SurveyRecord], path: Path) -> None:
    _atomic_write_text(Path(path), records_to_csv(records))


def load_records_csv(path: Path) -> list[SurveyRecord]:
    return records_from_csv(Path(path).read_text(encoding="utf-8"))


def dump_payload(payload: dict[str, Any], path: Path, fmt: str) -> None:
    """Write one flat object that is not a record: a JSON object, or a CSV
    header of its keys and one row of its values."""
    if fmt == "csv":
        text = _csv_text(list(payload), [list(payload.values())])
    else:
        text = _json_text(encode_value(payload))
    _atomic_write_text(Path(path), text)
