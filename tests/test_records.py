"""Serialization: decimal-string integers, JSON/CSV round trips, fingerprints."""
import json
from fractions import Fraction

import pytest

from binsum import (
    SurveyRecord,
    records_from_csv,
    records_from_json,
    records_to_csv,
    records_to_json,
    run_experiment,
)
from binsum.records import (
    CSV_FIELDS,
    canonical_parameters,
    decode_value,
    encode_value,
    fingerprint,
)


def sample_records():
    """One freshly computed record per kind; small parameters throughout."""
    requests = [
        ("min-rep", {"k": 2, "n": 17}),
        ("survey-H", {"k": 2, "n_max": 200}),
        ("energy", {"k": 2, "h": 2, "index_bound": 6, "top": 2}),
        ("restricted-sums", {"k": 2, "h": 2, "x": 100, "c": Fraction(1, 2)}),
        ("coverage-threshold", {"r_max": 50}),
        ("exponent-fit", {"k": 1, "h": 1, "bounds": [10, 100, 1000]}),
        ("asymptotic-ratio", {"k": 2, "x": 10**6}),
    ]
    return [run_experiment(kind, params)[0] for kind, params in requests]


def test_results_are_the_schema_as_plain_lists():
    # exports sort or reorder keys, so only the in-memory record shows this
    def plain(value):
        assert not isinstance(value, tuple), value
        if isinstance(value, list):
            for item in value:
                plain(item)

    records = sample_records()
    assert [record.kind for record in records] == list(CSV_FIELDS)
    for record in records:
        assert tuple(record.results) == CSV_FIELDS[record.kind][1], record.kind
        plain(list(record.results.values()))


class TestValueCodec:
    def test_ints_become_decimal_strings(self):
        assert encode_value(2**130) == str(2**130)
        assert decode_value(str(2**130)) == 2**130

    def test_fractions_become_slash_strings(self):
        assert encode_value(Fraction(1, 3)) == "1/3"
        assert decode_value("1/3") == Fraction(1, 3)

    def test_bools_are_not_ints(self):
        assert encode_value(True) is True
        assert decode_value(False) is False

    def test_containers_recurse(self):
        assert encode_value([1, [2, None]]) == ["1", ["2", None]]
        assert decode_value({"a": "12"}) == {"a": 12}

    def test_digit_only_strings_rejected(self):
        # a genuine string "123" would decode as an int, so encoding refuses it
        with pytest.raises(ValueError):
            encode_value("123")
        with pytest.raises(ValueError):
            encode_value("1/2")
        assert encode_value("repeats") == "repeats"

    def test_round_trip_is_identity(self):
        nested = {
            "big": 10**40,
            "frac": Fraction(-7, 3),
            "list": [1, 2.5, None, True, "word"],
        }
        assert decode_value(encode_value(nested)) == nested


class TestFingerprint:
    def test_stable_across_key_order(self):
        a = fingerprint("energy", {"k": 2, "h": 3})
        b = fingerprint("energy", {"h": 3, "k": 2})
        assert a == b

    def test_distinguishes_kind_and_values(self):
        base = fingerprint("energy", {"k": 2, "h": 3})
        assert fingerprint("min-rep", {"k": 2, "h": 3}) != base
        assert fingerprint("energy", {"k": 2, "h": 4}) != base

    def test_canonical_form_is_compact_json(self):
        text = canonical_parameters("energy", {"k": 2, "h": 3})
        assert text == 'energy|{"h":"3","k":"2"}'


class TestSurveyRecord:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SurveyRecord(kind="mystery", parameters={}, results={})

    def test_duration_excluded_from_equality_and_payload(self):
        a = SurveyRecord("energy", {"k": 2}, {"energy": 15}, duration_seconds=1.0)
        b = SurveyRecord("energy", {"k": 2}, {"energy": 15}, duration_seconds=9.0)
        assert a == b
        assert "duration" not in json.dumps(a.to_payload())

    def test_payload_round_trip(self):
        record = SurveyRecord("energy", {"k": 2, "x": 10**20}, {"energy": 3**50})
        again = SurveyRecord.from_payload(record.to_payload())
        assert again == record
        assert again.results["energy"] == 3**50


class TestJsonRoundTrip:
    def test_single_record_is_an_object(self):
        records = sample_records()[:1]
        text = records_to_json(records)
        assert text.startswith("{")
        assert records_from_json(text) == records

    def test_many_records_are_an_array(self):
        records = sample_records()
        text = records_to_json(records)
        assert text.startswith("[")
        assert records_from_json(text) == records

    def test_all_integers_serialized_as_strings(self):
        record = run_experiment("energy", {"k": 2, "h": 2, "index_bound": 6})[0]
        payload = json.loads(records_to_json([record]))
        assert payload["results"]["energy"] == str(record.results["energy"])
        assert payload["parameters"]["k"] == "2"

    def test_deterministic_output(self):
        records = sample_records()
        assert records_to_json(records) == records_to_json(records)


class TestCsvRoundTrip:
    def test_every_kind_round_trips(self):
        for record in sample_records():
            text = records_to_csv([record])
            again = records_from_csv(text)
            assert again == [record], record.kind

    def test_none_cells_survive(self):
        # h_max 3 is too small for 17, so terms and witnesses are None
        record = run_experiment("min-rep", {"k": 3, "n": 17, "h_max": 3})[0]
        assert record.results["terms"] is None
        again = records_from_csv(records_to_csv([record]))[0]
        assert again.results["terms"] is None
        assert again.results["exceeds_h_max"] is True

    def test_header_layout(self):
        record = run_experiment("asymptotic-ratio", {"k": 2, "x": 100})[0]
        header = records_to_csv([record]).splitlines()[0]
        assert header == (
            "kind,tool_version,param:k,param:x,"
            "result:floor_index,result:count,result:ratio"
        )

    def test_mixed_kinds_rejected(self):
        records = sample_records()[:2]
        with pytest.raises(ValueError):
            records_to_csv(records)

    def test_csv_and_json_agree(self):
        for record in sample_records():
            via_csv = records_from_csv(records_to_csv([record]))[0]
            via_json = records_from_json(records_to_json([record]))[0]
            assert via_csv == via_json, record.kind

    def test_schema_covers_all_runner_outputs(self):
        for record in sample_records():
            param_names, result_names = CSV_FIELDS[record.kind]
            assert set(record.parameters) == set(param_names), record.kind
            assert set(record.results) == set(result_names), record.kind

    def test_unknown_parameter_names_are_rejected(self):
        # a misspelt h_max must not silently run with the default of 8
        with pytest.raises(ValueError, match="hmax"):
            run_experiment("min-rep", {"k": 3, "n": 17, "hmax": 3})
