"""On-disk cache round trips and integrity checks."""

import time

import pytest

from apery.cachefile import CacheError, cache_load, cache_store
from apery.sequence import apery


def test_round_trip(tmp_path):
    path = tmp_path / "values.cache"
    values = {n: apery(n) for n in range(100)}
    cache_store(path, values)
    assert cache_load(path) == values


def test_sparse_round_trip(tmp_path):
    path = tmp_path / "values.cache"
    values = {n: apery(n) for n in (0, 1, 5, 17, 18, 19, 20, 90)}
    cache_store(path, values)
    assert cache_load(path) == values


def test_empty_file_is_empty_cache(tmp_path):
    path = tmp_path / "values.cache"
    path.write_text("")
    assert cache_load(path) == {}


def test_header_only_is_empty_cache(tmp_path):
    path = tmp_path / "values.cache"
    path.write_text("apery-cache\t1\tapery\n")
    assert cache_load(path) == {}


def test_tampered_digit_names_line(tmp_path):
    path = tmp_path / "values.cache"
    cache_store(path, {n: apery(n) for n in range(20)})
    text = path.read_text().replace("\n3\t1445\n", "\n3\t1446\n")
    path.write_text(text)
    with pytest.raises(CacheError) as err:
        cache_load(path)
    assert err.value.line == 5  # header + records for 0, 1, 2, then n=3


def test_tampered_isolated_record(tmp_path):
    path = tmp_path / "values.cache"
    cache_store(path, {0: 1, 1: 5, 50: apery(50) + 1})
    with pytest.raises(CacheError) as err:
        cache_load(path)
    assert err.value.line == 4


def test_version_mismatch_refused(tmp_path):
    path = tmp_path / "values.cache"
    path.write_text("apery-cache\t2\tapery\n0\t1\n")
    with pytest.raises(CacheError) as err:
        cache_load(path)
    assert "version" in str(err.value)


def test_foreign_file_refused(tmp_path):
    path = tmp_path / "values.cache"
    path.write_text("something else entirely\n")
    with pytest.raises(CacheError):
        cache_load(path)


def test_non_monotone_rejected(tmp_path):
    path = tmp_path / "values.cache"
    path.write_text("apery-cache\t1\tapery\n3\t1445\n2\t73\n")
    with pytest.raises(CacheError) as err:
        cache_load(path)
    assert err.value.line == 3


def test_malformed_record_rejected(tmp_path):
    path = tmp_path / "values.cache"
    path.write_text("apery-cache\t1\tapery\n2 73\n")
    with pytest.raises(CacheError) as err:
        cache_load(path)
    assert err.value.line == 2


def test_verify_can_be_skipped(tmp_path):
    path = tmp_path / "values.cache"
    cache_store(path, {0: 1, 1: 5, 2: 74})  # wrong A(2)
    with pytest.raises(CacheError):
        cache_load(path)
    assert cache_load(path, verify=False)[2] == 74


def test_store_rejects_negative_keys(tmp_path):
    path = tmp_path / "values.cache"
    with pytest.raises(ValueError):
        cache_store(path, {-1: 1})


def test_round_trip_beyond_interpreter_digit_cap(tmp_path):
    # A(3000) has ~4600 decimal digits, past the default int/str cap
    from apery.sequence import AperyCache, apery_via_recurrence

    path = tmp_path / "values.cache"
    big = apery_via_recurrence(3000, AperyCache())
    values = {0: 1, 1: 5, 3000: big}
    cache_store(path, values)
    assert cache_load(path) == values


@pytest.mark.parametrize(
    "values, line",
    [
        ({n: 3 * apery(n) for n in range(2, 50)}, 2),
        ({n: 2 * apery(n) for n in range(500, 510)}, 2),
        ({0: 1, 1: 5, 1000: apery(1000) + 1}, 4),
        ({700: apery(700) + 7, 701: apery(701)}, 2),
        ({n: apery(n) + (n == 500) * 10**5 for n in range(500, 510)}, 2),
        ({0: 1, 10**12: 7}, 3),
    ],
    ids=["run-times-3", "run-times-2", "isolated", "pair", "first-of-run", "huge-n"],
)
def test_tampered_record_names_line(tmp_path, values, line):
    path = tmp_path / "values.cache"
    cache_store(path, values)
    started = time.perf_counter()
    with pytest.raises(CacheError) as err:
        cache_load(path)
    assert err.value.line == line
    assert time.perf_counter() - started < 1.0
