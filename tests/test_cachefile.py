"""On-disk cache round trips and integrity checks."""

import random
import sys
import threading
import time
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apery import cachefile, congruences
from apery.cachefile import CacheError, _wrong_mod_q, cache_load, cache_store
from apery.sequence import _recurrence_mod, apery, apery_fast


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
    # int(field, 16) reads each of these; the v2 grammar admits lowercase hex digits only
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


@pytest.mark.parametrize("byte", [b"\f", b"\x1d"], ids=["form-feed", "group-separator"])
def test_control_byte_names_its_own_line(tmp_path, byte):
    # str.splitlines breaks lines at these bytes too, which named line 3,
    # a blank record, of this 3-line file
    path = tmp_path / "values.cache"
    path.write_bytes(b"apery-cache\t2\tapery\n0\t1%s\n1\t5\n" % byte)
    with pytest.raises(CacheError, match="non-integer record") as err:
        cache_load(path)
    assert err.value.line == 2


def test_crlf_file_loads(tmp_path):
    path = tmp_path / "values.cache"
    path.write_bytes(b"apery-cache\t2\tapery\r\n0\t1\r\n1\t5\r\n2\t49\r\n")
    assert cache_load(path) == {0: 1, 1: 5, 2: 73}


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


# --- the byte conversions and the kept recurrence pass ---------------------


def edge_values():
    """0, 1, one and two nibbles, and 2^k - 1, 2^k, 2^k + 1 at odd and even
    nibble counts (k = 4j gives j + 1 nibbles, k = 4j - 1 gives j)."""
    values = [0, 1, 15, 16, 255, 256]
    for k in (3, 4, 7, 8, 11, 12, 63, 64, 67, 68, 4095, 4096, 4099, 4100):
        values += [2**k - 1, 2**k, 2**k + 1]
    return values


@pytest.mark.parametrize(
    "values",
    [dict(enumerate(edge_values())), {n: apery(n) for n in range(301)}],
    ids=["edges", "apery-0-300"],
)
def test_store_writes_format_x_text(tmp_path, values):
    path = tmp_path / "values.cache"
    cache_store(path, values)
    records = "".join(f"{n}\t{format(values[n], 'x')}\n" for n in sorted(values))
    assert path.read_bytes() == f"apery-cache\t2\tapery\n{records}".encode()
    assert cache_load(path, verify=False) == values


def test_odd_and_even_length_fields_load(tmp_path):
    fields = ["0", "1", "f", "10", "5a5", "80a1", "1ffff", "0001", "00", "0a"]
    path = tmp_path / "values.cache"
    records = "".join(f"{n}\t{field}\n" for n, field in enumerate(fields))
    path.write_text(f"apery-cache\t2\tapery\n{records}")
    assert cache_load(path, verify=False) == {n: int(f, 16) for n, f in enumerate(fields)}


@pytest.fixture
def fresh_prefix(monkeypatch):
    """A kept pass holding only n = 0 and 1."""
    kept = array("Q", [1, 1, 5, 1])
    monkeypatch.setattr(cachefile, "_kept", kept)
    return kept


def fresh_pass(top):
    return array("Q", [v for pair in _recurrence_mod(2**61 - 1, top) for v in pair])


def test_kept_prefix_is_the_one_pass(tmp_path, fresh_prefix):
    # each load extends the pass to its top, and a lower top leaves it be
    path = tmp_path / "values.cache"
    reached = 1
    for top in (3, 2, 40, 41, 1, 300, 150):
        cache_store(path, {n: apery(n) for n in (0, top)})
        assert cache_load(path) == {0: 1, top: apery(top)}
        reached = max(reached, top)
        assert cachefile._kept == fresh_pass(reached)


def test_extension_leaves_a_held_prefix_alone(tmp_path, fresh_prefix):
    # a reader holding the kept array while a load extends the pass sees it
    # unchanged: the extension publishes a new array
    held = cachefile._kept_upto(10)
    assert held == fresh_pass(10)
    path = tmp_path / "values.cache"
    cache_store(path, {n: apery(n) for n in (0, 500)})
    assert cache_load(path)[500] == apery(500)
    assert held == fresh_pass(10)
    assert cachefile._kept == fresh_pass(500)


def test_wrong_record_below_kept_top_still_fails(tmp_path):
    path = tmp_path / "values.cache"
    cache_store(path, {0: 1, 2000: apery(2000)})
    cache_load(path)
    assert len(cachefile._kept) >= 2 * 2001
    cache_store(path, {n: apery(n) + (n == 1500) for n in (0, 1, 1499, 1500, 1501)})
    with pytest.raises(CacheError, match="record for n=1500 is wrong") as err:
        cache_load(path)
    assert err.value.line == 5


def test_floor_failure_leaves_prefix_alone(tmp_path, fresh_prefix):
    # every record below the floor's victim is right, yet none extends the pass
    path = tmp_path / "values.cache"
    cache_store(path, {0: 1, 1: 5, 2: 73, 3000: 7})
    with pytest.raises(CacheError, match="record for n=3000 is wrong") as err:
        cache_load(path)
    assert err.value.line == 5
    assert cachefile._kept == array("Q", [1, 1, 5, 1])


def test_unverified_load_leaves_prefix_alone(tmp_path, fresh_prefix):
    path = tmp_path / "values.cache"
    cache_store(path, {n: apery(n) for n in (0, 1, 500)})
    assert cache_load(path, verify=False)[500] == apery(500)
    assert cachefile._kept == array("Q", [1, 1, 5, 1])


def test_interrupted_extension_keeps_prefix_whole(tmp_path, fresh_prefix, monkeypatch):
    real = cachefile._recurrence_mod

    def interrupted(*args):
        for i, pair in enumerate(real(*args)):
            if i == 50:
                raise KeyboardInterrupt
            yield pair

    path = tmp_path / "values.cache"
    cache_store(path, {n: apery(n) for n in (0, 1, 120)})
    monkeypatch.setattr(cachefile, "_recurrence_mod", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cache_load(path)
    assert cachefile._kept == array("Q", [1, 1, 5, 1])
    monkeypatch.setattr(cachefile, "_recurrence_mod", real)
    assert cache_load(path)[120] == apery(120)
    assert cachefile._kept == fresh_pass(120)


def test_loads_on_eight_threads(tmp_path, fresh_prefix):
    # each thread loads its own file to its own top, half of them with one
    # wrong record, all at once against one prefix that starts at n = 1
    jobs = []
    for i in range(8):
        top = 1500 + 700 * i  # long enough passes to overlap
        values = {n: apery_fast(n) for n in (0, 1, 60 + i, top)}
        if i % 2:
            values[60 + i] += 1
        path = tmp_path / f"values{i}.cache"
        cache_store(path, values)
        jobs.append((path, values))
    results = [None] * 8
    start = threading.Barrier(8)

    def load(i):
        start.wait()
        try:
            results[i] = cache_load(jobs[i][0])
        except Exception as exc:  # noqa: BLE001 - the test compares it
            results[i] = exc

    threads = [threading.Thread(target=load, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often, so that extensions overlap
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    for i, (path, values) in enumerate(jobs):
        if i % 2:
            assert isinstance(results[i], CacheError), results[i]
            assert results[i].line == 4
        else:
            assert results[i] == values
    assert cachefile._kept == fresh_pass(1500 + 700 * 7)


def test_extensions_take_turns(fresh_prefix, monkeypatch):
    # an extension to 100 stalls inside its pass while one to 1000 is asked
    # for: the second waits for the first to publish, then resumes from its
    # end, so the array is one pass to 1000, not the stalled one's 100
    real = cachefile._recurrence_mod
    stalled, finished = threading.Event(), threading.Event()

    def stalling(q, top, start=(0, 1, 0, 1)):
        if top == 100:
            stalled.set()
            finished.wait(0.2)
        yield from real(q, top, start)

    monkeypatch.setattr(cachefile, "_recurrence_mod", stalling)
    short = threading.Thread(target=cachefile._kept_upto, args=(100,))
    short.start()
    assert stalled.wait(30)
    try:
        assert cachefile._kept_upto(1000) == fresh_pass(1000)
    finally:
        finished.set()
        short.join()
    assert cachefile._kept == fresh_pass(1000)


@pytest.mark.parametrize("loads_first", [False, True], ids=["memo-first", "loads-first"])
def test_each_index_passed_once(tmp_path, fresh_prefix, monkeypatch, loads_first):
    # loads at tops 3, 40, 300 and 500 share one pass modulo q that resumes
    # where it stopped: each of n = 2..500 is stepped to once, n = 0 and 1
    # being the kept seed.  The sweeps' residue rows to 300, before or
    # after them, read no pass modulo q
    monkeypatch.setattr(congruences, "_tables", {})  # rows made afresh
    real = cachefile._recurrence_mod
    stepped = []

    def counted(q, top, start=(0, 1, 0, 1)):
        for i, pair in enumerate(real(q, top, start)):
            if i and q == cachefile._Q:
                stepped.append(start[0] + i)
            yield pair

    monkeypatch.setattr(cachefile, "_recurrence_mod", counted)
    path = tmp_path / "values.cache"

    def memo_check():
        held = len(stepped)
        assert congruences._rows(5, 300) == [apery_fast(k) % 125 for k in range(301)]
        assert len(stepped) == held

    def loads():
        for top in (3, 40, 300, 500):
            cache_store(path, {0: 1, top: apery_fast(top)})
            assert cache_load(path)[top] == apery_fast(top)

    for run in (loads, memo_check) if loads_first else (memo_check, loads):
        run()
    assert stepped == list(range(2, 501))
    assert cachefile._kept == fresh_pass(500)


def test_loads_and_memo_checks_on_eight_threads(tmp_path, fresh_prefix, monkeypatch):
    # four threads load files, half of them with one wrong record, against
    # one pass that starts at n = 1, while four read the sweeps' residue
    # rows from a fresh store, all at once; only the loads extend the pass
    monkeypatch.setattr(congruences, "_tables", {})
    files = []
    for i in range(4):
        top = 1500 + 700 * i
        values = {n: apery_fast(n) for n in (0, 1, 60 + i, top)}
        if i % 2:
            values[60 + i] += 1
        path = tmp_path / f"values{i}.cache"
        cache_store(path, values)
        files.append((path, values))
    reads = [(p, 1100 + 900 * i) for i, p in enumerate((3, 5, 7, 11))]
    results = [None] * 8
    start = threading.Barrier(8, timeout=30)

    def load(i):
        start.wait()
        try:
            results[i] = cache_load(files[i][0])
        except Exception as exc:  # noqa: BLE001 - the test compares it
            results[i] = exc

    def read(i):
        start.wait()
        results[i] = congruences._rows(*reads[i - 4])

    threads = [threading.Thread(target=load if i < 4 else read, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often, so that extensions overlap
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    for i, (path, values) in enumerate(files):
        if i % 2:
            assert isinstance(results[i], CacheError), results[i]
            assert results[i].line == 4
        else:
            assert results[i] == values
    for (p, top), got in zip(reads, results[4:]):
        m = 9 if p == 3 else p**3
        assert got == [apery_fast(k) % m for k in range(top + 1)], p
    assert cachefile._kept == fresh_pass(1500 + 700 * 3)


# --- the reduction modulo q ------------------------------------------------
# The check's kernel (_wrong_mod_q) reads a value mod q through hash().  It
# must take the remainder, refuse the remainder plus one, and take it times a
# den that is not 1

Q = 2**61 - 1


def _kernel_takes_the_remainder(value):
    r = value % Q
    return (
        not _wrong_mod_q(value, r, 1)
        and _wrong_mod_q(value, (r + 1) % Q, 1)
        and not _wrong_mod_q(value, 3 * r % Q, 3)
    )


def _random_bits(bits, seed):
    return random.Random(seed).getrandbits(bits)


WIDE_INTS = st.one_of(
    st.builds(_random_bits, st.integers(0, 200_000), st.integers(0, 2**32)),
    st.integers(0, 200_000).map(lambda bits: 2**bits - 1),  # all ones, the largest of each length
    st.builds(lambda bits, seed: Q * _random_bits(bits, seed),
              st.integers(0, 200_000 - 61), st.integers(0, 2**32)),
)


@given(WIDE_INTS)
@settings(max_examples=200, deadline=None)
def test_fold_is_the_remainder(value):
    assert _kernel_takes_the_remainder(value)


FOLD_EDGES = {
    "0": 0, "1": 1, "q-1": Q - 1, "q": Q, "q+1": Q + 1, "2^61": 2**61,
    "2^122-1": 2**122 - 1, "2^122": 2**122, "2q": 2 * Q, "7q": 7 * Q, "q^2": Q * Q,
    "(2^600+1)q": Q * (2**600 + 1), "3^50000q": Q * 3**50_000,
    "2^512-1": 2**512 - 1, "2^512": 2**512, "2^513-1": 2**513 - 1,
    "2^200000-1": 2**200_000 - 1, "2^200000-q": 2**200_000 - Q,
}


@pytest.mark.parametrize("value", FOLD_EDGES.values(), ids=FOLD_EDGES)
def test_fold_boundaries(value):
    assert _kernel_takes_the_remainder(value)
