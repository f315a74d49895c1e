"""On-disk cache round trips and integrity checks."""

import sys
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


def write_v1(path, values):
    """A format version 1 file: decimal records, as stores wrote them before v2."""
    records = "".join(f"{n}\t{values[n]}\n" for n in sorted(values))
    path.write_text(f"apery-cache\t1\tapery\n{records}")


def test_tampered_digit_names_line(tmp_path):
    path = tmp_path / "values.cache"
    write_v1(path, {n: apery(n) for n in range(20)})
    text = path.read_text().replace("\n3\t1445\n", "\n3\t1446\n")
    path.write_text(text)
    with pytest.raises(CacheError) as err:
        cache_load(path)
    assert err.value.line == 5  # header + records for 0, 1, 2, then n=3


def test_tampered_hex_digit_names_line(tmp_path):
    path = tmp_path / "values.cache"
    cache_store(path, {n: apery(n) for n in range(20)})
    text = path.read_text()
    assert "\n3\t5a5\n" in text  # A(3) = 1445 = 0x5a5
    path.write_text(text.replace("\n3\t5a5\n", "\n3\t5a6\n"))
    with pytest.raises(CacheError) as err:
        cache_load(path)
    assert err.value.line == 5
    assert cache_load(path, verify=False)[3] == 0x5A6


def test_v1_file_loads_same_values(tmp_path):
    path = tmp_path / "values.cache"
    values = {n: apery(n) for n in (*range(40), 77, 90)}
    write_v1(path, values)
    assert cache_load(path) == values


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="interpreter has no int/str cap"
)
def test_digit_cap_lifted_only_for_v1(tmp_path):
    # A(3000) has ~4600 decimal digits, past the default cap of 4300
    from apery.sequence import AperyCache, apery_fast

    values = {0: 1, 1: 5, 3000: apery_fast(3000, AperyCache())}
    v1, v2 = tmp_path / "v1.cache", tmp_path / "v2.cache"
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        write_v1(v1, values)
        sys.set_int_max_str_digits(4300)
        cache_store(v2, values)
        assert cache_load(v2) == values
        assert sys.get_int_max_str_digits() == 4300
        assert cache_load(v1) == values
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize(
    "field",
    ["0x49", "+49", "-49", "4_9", " 49", "49 ", "4 9", "4A", "4B9"],
)
def test_v2_refuses_other_spellings(tmp_path, field):
    # int(field, 16) reads each of these; the v2 grammar admits only format(v, "x")
    path = tmp_path / "values.cache"
    path.write_text(f"apery-cache\t2\tapery\n0\t1\n1\t5\n2\t{field}\n")
    with pytest.raises(CacheError, match="non-integer record") as err:
        cache_load(path, verify=False)
    assert err.value.line == 4


@pytest.mark.parametrize("n_field", ["+2", " 2", "2_0", "0x2"])
def test_v2_index_is_plain_decimal(tmp_path, n_field):
    path = tmp_path / "values.cache"
    path.write_text(f"apery-cache\t2\tapery\n0\t1\n{n_field}\t49\n")
    with pytest.raises(CacheError, match="non-integer record") as err:
        cache_load(path, verify=False)
    assert err.value.line == 3


def test_v1_header_over_hex_records_refused(tmp_path):
    path = tmp_path / "values.cache"
    cache_store(path, {n: apery(n) for n in range(6)})
    path.write_text(path.read_text().replace("\t2\t", "\t1\t", 1))
    with pytest.raises(CacheError, match="non-integer record") as err:
        cache_load(path, verify=False)
    assert err.value.line == 5  # n=3 is the first record with a letter, 5a5


def test_v2_header_over_decimal_records_fails_check(tmp_path):
    # decimal digits are hex digits too, so the record check catches these
    path = tmp_path / "values.cache"
    write_v1(path, {n: apery(n) for n in range(6)})
    path.write_text(path.read_text().replace("\t1\t", "\t2\t", 1))
    with pytest.raises(CacheError, match="wrong") as err:
        cache_load(path)
    assert err.value.line == 4  # A(0) = 1 and A(1) = 5 read the same in both bases


@pytest.mark.parametrize("version, record", [(1, b"1445"), (2, b"5a5")])
def test_non_ascii_byte_names_line(tmp_path, version, record):
    path = tmp_path / "values.cache"
    path.write_bytes(
        b"apery-cache\t%d\tapery\r\n0\t1\r\n1\t5\xff\r\n3\t%s\r\n" % (version, record)
    )
    with pytest.raises(CacheError, match="non-ASCII") as err:
        cache_load(path)
    assert err.value.line == 3


@pytest.mark.parametrize(
    "values",
    [{0: 1, -1: 1}, {0: 1, 1.0: 5}, {0: 1, 1: 1.5}, {0: 1, 1: -5}, {0: 1, 1: "5"}],
    ids=["negative-key", "float-key", "float-value", "negative-value", "str-value"],
)
def test_failed_store_leaves_path_untouched(tmp_path, values):
    path = tmp_path / "values.cache"
    cache_store(path, {0: 1, 1: 5})
    before = path.read_bytes()
    with pytest.raises(ValueError, match="integers >= 0"):
        cache_store(path, values)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["values.cache"]


def test_store_leaves_a_file_named_like_its_temporary_alone(tmp_path, monkeypatch):
    # a user's <path>.tmp is neither truncated nor renamed nor removed,
    # by a store that succeeds or by one that fails after opening its file
    path = tmp_path / "values.cache"
    notes = tmp_path / "values.cache.tmp"
    notes.write_bytes(b"my notes\n")
    cache_store(path, {0: 1, 1: 5})
    assert notes.read_bytes() == b"my notes\n"
    before = path.read_bytes()

    def no_replace(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr("apery.cachefile.os.replace", no_replace)
    with pytest.raises(OSError, match="replace refused"):
        cache_store(path, {0: 1, 1: 5, 2: 73})
    assert notes.read_bytes() == b"my notes\n"
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["values.cache", "values.cache.tmp"]


def test_tampered_isolated_record(tmp_path):
    path = tmp_path / "values.cache"
    cache_store(path, {0: 1, 1: 5, 50: apery(50) + 1})
    with pytest.raises(CacheError) as err:
        cache_load(path)
    assert err.value.line == 4


def test_version_mismatch_refused(tmp_path):
    path = tmp_path / "values.cache"
    path.write_text("apery-cache\t3\tapery\n0\t1\n")
    with pytest.raises(CacheError) as err:
        cache_load(path)
    assert "version" in str(err.value)
    assert "expected 1 or 2" in str(err.value)


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


@pytest.mark.parametrize(
    "records, line",
    [("-3\t1\n", 2), ("0\t1\n-3\t1\n", 3)],
    ids=["first-record", "after-zero"],
)
def test_negative_index_rejected(tmp_path, records, line):
    # named as negative, not as out of order, wherever it stands
    path = tmp_path / "values.cache"
    path.write_text("apery-cache\t1\tapery\n" + records)
    with pytest.raises(CacheError, match="negative index n=-3") as err:
        cache_load(path)
    assert err.value.line == line


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


@pytest.mark.parametrize(
    "values", [{True: 5}, {0: 1, 1: True}], ids=["bool-key", "bool-value"]
)
def test_store_rejects_bools_before_opening(tmp_path, monkeypatch, values):
    # bool is an int subclass: {True: 5} would be written as the record
    # "True\t5", which cache_load refuses, and a value True as 1
    def no_open(*args, **kwargs):
        raise AssertionError("cache_store opened a file")

    monkeypatch.setattr("apery.cachefile.open", no_open, raising=False)
    with pytest.raises(ValueError, match="integers >= 0"):
        cache_store(tmp_path / "values.cache", values)
    assert list(tmp_path.iterdir()) == []


def test_round_trip_beyond_interpreter_digit_cap(tmp_path):
    # A(3000) has ~4600 decimal digits, past the default int/str cap
    from apery.sequence import AperyCache, apery_fast

    path = tmp_path / "values.cache"
    big = apery_fast(3000, AperyCache())
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
