"""Result cache: store/lookup, corruption handling, atomicity."""
import logging

from binsum import ResultCache, SurveyRecord, run_experiment
from binsum.records import fingerprint


def make_record():
    return SurveyRecord("energy", {"k": 2, "h": 2}, {"energy": 15})


def test_store_then_lookup(tmp_path):
    cache = ResultCache(tmp_path)
    record = make_record()
    path = cache.store(record)
    assert path.exists()
    assert cache.lookup(record.fingerprint) == record


def test_miss_returns_none(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.lookup("0" * 64) is None


def test_corrupt_entry_warns_and_misses(tmp_path, caplog):
    cache = ResultCache(tmp_path)
    record = make_record()
    path = cache.store(record)
    path.write_text("{ not json", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        assert cache.lookup(record.fingerprint) is None
    assert any("cache" in message.lower() for message in caplog.messages)


def test_mismatched_fingerprint_ignored(tmp_path):
    # an entry whose contents do not hash to its filename is treated as a miss
    cache = ResultCache(tmp_path)
    record = make_record()
    other = SurveyRecord("energy", {"k": 3, "h": 2}, {"energy": 15})
    cache.path_for(record.fingerprint).parent.mkdir(parents=True, exist_ok=True)
    cache.store(other)
    import shutil

    shutil.copy(cache.path_for(other.fingerprint), cache.path_for(record.fingerprint))
    assert cache.lookup(record.fingerprint) is None


def test_entries_lists_stored_fingerprints(tmp_path):
    cache = ResultCache(tmp_path)
    a = make_record()
    b = SurveyRecord("min-rep", {"k": 2, "n": 5}, {"terms": 3})
    cache.store(a)
    cache.store(b)
    entries = cache.entries()
    assert set(entries) == {a.fingerprint, b.fingerprint}
    assert all(path.exists() for path in entries.values())


def test_run_experiment_uses_cache(tmp_path):
    cache = ResultCache(tmp_path)
    params = {"k": 2, "h": 2, "index_bound": 6}
    first, hit_first = run_experiment("energy", params, cache=cache)
    second, hit_second = run_experiment("energy", params, cache=cache)
    assert not hit_first and hit_second
    assert first == second


def test_cache_key_ignores_threads_and_chunking(tmp_path):
    # execution knobs, threads and the memory budget, never reach the key
    cache = ResultCache(tmp_path)
    params = {"k": 2, "n_max": 500}
    first, _ = run_experiment("survey-H", params, threads=1, cache=cache)
    second, hit = run_experiment(
        "survey-H", params, threads=4, memory_budget=10**6, cache=cache
    )
    assert hit
    assert first == second
    assert len(cache.entries()) == 1


def test_no_temp_files_left_behind(tmp_path):
    cache = ResultCache(tmp_path)
    for n in range(5, 10):
        cache.store(SurveyRecord("min-rep", {"k": 2, "n": n}, {"terms": 1}))
    leftovers = [p for p in tmp_path.iterdir() if p.suffix != ".json"]
    assert leftovers == []


def test_cached_equals_uncached_for_every_kind(tmp_path):
    import random
    from fractions import Fraction

    rng = random.Random(7)
    cache = ResultCache(tmp_path)
    for _ in range(3):
        requests = [
            ("min-rep", {"k": rng.randint(1, 3), "n": rng.randint(1, 500)}),
            ("survey-H", {"k": rng.randint(2, 3), "n_max": rng.randint(50, 400)}),
            ("energy", {"k": 2, "h": rng.randint(1, 3),
                        "index_bound": rng.randint(2, 12)}),
            ("restricted-sums", {"k": 2, "h": 2, "x": rng.randint(100, 2000),
                                 "c": Fraction(1, rng.randint(2, 4))}),
            ("coverage-threshold", {"r_max": rng.randint(10, 300)}),
            ("exponent-fit", {"k": 1, "h": 1,
                              "bounds": sorted({rng.randint(10, 10**4) for _ in range(5)})[:4]}),
            ("asymptotic-ratio", {"k": rng.randint(1, 4), "x": rng.randint(1, 10**6)}),
        ]
        for kind, params in requests:
            if kind == "exponent-fit" and len(params["bounds"]) < 3:
                continue
            plain, _ = run_experiment(kind, params)
            primed, hit1 = run_experiment(kind, params, cache=cache)
            cached, hit2 = run_experiment(kind, params, cache=cache)
            assert plain == primed == cached, kind
            assert hit2


def test_equal_parameters_share_one_file(tmp_path):
    cache = ResultCache(tmp_path)
    record = make_record()
    fp = fingerprint(record.kind, record.parameters)
    cache.store(record)
    cache.store(record)
    assert cache.path_for(fp).name == f"{fp}.json"
    assert len(list(tmp_path.glob("*.json"))) == 1
