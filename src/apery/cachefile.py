"""On-disk cache of exact Apery values.

Format: a tab-separated header line ``apery-cache <version> apery`` followed
by one record per line, with strictly increasing n.  An empty file is an
empty cache.

- Version 2, the one ``cache_store`` writes: ``n <tab> hex``, where n is
  decimal digits and hex is ``format(A(n), "x")``.  A load also reads
  leading zeros in either field (``01``, ``00``, ``0a``), but a sign, a
  ``0x`` prefix, an underscore, a space or an uppercase digit is a
  malformed record.  Base 16 converts in linear time and is exempt from
  the interpreter's int/str digit limit.  The hex goes through bytes both
  ways (_hex, _parse_record): int.to_bytes(...).hex() writes it with the
  one leading "0" nibble of an odd-length field dropped, and
  int.from_bytes(bytes.fromhex(...)) reads it with that nibble put back:
  the same text and values as format(v, "x") and int(h, 16), faster.
- Version 1: ``n <tab> A(n)`` in decimal, as ``int()`` reads it.  Still
  loaded; storing the loaded values writes version 2.

Loading validates the structure, then checks every record (_wrong_record).
A value of at most 4n - 2 bitlen(2n+1) bits is too short, since
A(n) >= C(2n,n)^2 >= 16^n/(2n+1)^2; refusing those first bounds the rest
of the check by the size of the values and keeps every n far below the
prime q = sys.hash_info.modulus, 2^61 - 1 on 64-bit builds.  The rest are
compared with A(n) mod q (_wrong_mod_q) against the process's one kept
pass of the recurrence modulo q (_kept_upto), which a load extends to its
largest index only after every record has passed the length bound.  The
bound also keeps that pass, 16 bytes per index, below about 16 bytes per
hex digit of the largest record loaded.  The check catches any
single-digit edit, truncation or rescaling by k != 1 (mod q); a value
changed by an exact multiple of q is the one change that passes.  The
exact memo makes no such check: it holds the values its walk made and
the prefix `cache fill` seeds it with from a file that passed this one
(AperyCache), and the congruence sweeps read no exact value but at p = 2.
"""

from __future__ import annotations

import os
import sys
import threading
from array import array
from itertools import chain, islice
from typing import Mapping

from .sequence import _recurrence_mod

__all__ = ["CacheError", "FORMAT_VERSION", "cache_load", "cache_store"]

FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, 2)
_SEQUENCE_ID = "apery"
_HEX_DIGITS = b"0123456789abcdef"


# The prime of the check, 2^61 - 1 on 64-bit builds: for an int v >= 0,
# hash(v) is v mod _Q, a third of the time of v % 343
_Q = sys.hash_info.modulus


def _wrong_mod_q(value: int, x: int, den: int) -> bool:
    """Whether value, offered as A(n), is not x/den modulo _Q, where (x, den)
    is n's pair from _recurrence_mod(_Q, ...).  A negative value is wrong
    outright, since A(n) > 0; for the rest, hash(value) is value mod _Q."""
    return value < 0 or (hash(value) * den - x) % _Q != 0


# The process's one pass modulo _Q: x(n) at 2n and den(n) at 2n + 1 for
# n = 0..K, from the seed's n = 0 and 1, so that x(K - 1) is always there
_kept = array("Q", [1, 1, 5, 1])
_kept_lock = threading.Lock()


def _kept_upto(top: int) -> array:
    """The kept pairs, holding every index up to top.

    A top past the last kept index K resumes the pass from
    (K, x(K), x(K-1), den(K)), read from the array, and publishes the old
    pairs and the new ones as a new array under the lock.  A published
    array is never written again, so its readers take no lock.
    """
    global _kept
    with _kept_lock:
        kept = _kept
        if top >= len(kept) // 2:
            start = (len(kept) // 2 - 1, kept[-2], kept[-4], kept[-1])
            pairs = islice(_recurrence_mod(_Q, top, start), 1, None)  # past K
            _kept = kept + array("Q", chain.from_iterable(pairs))
        return _kept


class CacheError(ValueError):
    """A cache file failed validation; line is 1-based when applicable."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def _is_count(x: object) -> bool:
    # bool is an int subclass, but True would be written as "True" or "1"
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def cache_store(path: str | os.PathLike, values: Mapping[int, int]) -> None:
    """Write the values atomically as format version 2, sorted by n.

    Raises ValueError, before any file is opened, for a key or value that
    is not an integer >= 0 (a bool is not one).  Path is left as it was,
    with no temporary file behind, whenever writing fails.
    """
    keys = sorted(values)
    for n in keys:
        if not _is_count(n):
            raise ValueError(f"cache keys must be integers >= 0, got {n!r}")
        if not _is_count(values[n]):
            raise ValueError(f"cache values must be integers >= 0, got {values[n]!r}")
    # a name no other call uses, beside path, opened exclusively before the
    # try: a name that exists after all is neither written nor removed
    tmp = f"{os.fspath(path)}.{os.getpid()}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="ascii")
    try:
        with fh:
            fh.write(f"apery-cache\t{FORMAT_VERSION}\t{_SEQUENCE_ID}\n")
            for n in keys:
                fh.write(f"{n}\t{_hex(values[n])}\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _hex(value: int) -> str:
    """format(value, "x") for value >= 0, through bytes.hex."""
    nibbles = (value.bit_length() + 3) // 4 or 1
    return value.to_bytes((nibbles + 1) // 2, "big").hex()[nibbles & 1 :]


def _parse_header(line: str) -> int:
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 3 or fields[0] != "apery-cache":
        raise CacheError("not an apery-cache file", line=1)
    try:
        version = int(fields[1])
    except ValueError:
        raise CacheError(f"bad version field {fields[1]!r}", line=1) from None
    if version not in _READABLE_VERSIONS:
        expected = " or ".join(map(str, _READABLE_VERSIONS))
        raise CacheError(
            f"format version {version} not supported (expected {expected})", line=1
        )
    if fields[2] != _SEQUENCE_ID:
        raise CacheError(f"unknown sequence id {fields[2]!r}", line=1)
    return version


def _is_lower_hex(field: str) -> bool:
    # translate drops every lowercase hex digit; any other byte is left over
    return field != "" and not field.encode().translate(None, _HEX_DIGITS)


def _parse_record(version: int, n_field: str, value_field: str) -> tuple[int, int] | None:
    """(n, value), or None when the fields are not that version's integers."""
    try:
        if version == 1:
            return int(n_field), int(value_field)
        # fromhex also reads uppercase digits and spaces: the grammar first
        if n_field.isdecimal() and _is_lower_hex(value_field):
            if len(value_field) % 2:
                value_field = "0" + value_field
            return int(n_field), int.from_bytes(bytes.fromhex(value_field), "big")
    except ValueError:  # not an integer, or an n past the int/str digit cap
        pass
    return None


def _wrong_record(values: Mapping[int, int]) -> int | None:
    """An n whose record fails the check the module docstring describes,
    or None when every record passes."""
    ns = sorted(values)
    for n in ns:
        if values[n].bit_length() <= 4 * n - 2 * (2 * n + 1).bit_length():
            return n
    kept = _kept_upto(ns[-1] if ns else 0)
    wrong = (n for n in ns if _wrong_mod_q(values[n], kept[2 * n], kept[2 * n + 1]))
    return next(wrong, None)


def cache_load(path: str | os.PathLike, verify: bool = True) -> dict[int, int]:
    """Read a cache file of either format version into an {n: A(n)} map.

    Raises CacheError, naming the offending line, for structural problems
    (bad header, a non-ASCII byte, malformed or non-increasing records) and,
    unless verify is false, for any record whose value is not A(n) modulo
    2^61 - 1.
    """
    # surrogateescape keeps a stray byte in place, so its line can be named
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        raw = fh.read()
    if raw == "":
        return {}
    # text mode has made every line end "\n"; str.splitlines would also
    # break at \v, \f and \x1c-\x1e inside a line, and misnumber the rest
    text = raw.split("\n")
    if text[-1] == "":  # after the last line's "\n"
        text.pop()
    if not raw.isascii():
        idx = next(i for i, line in enumerate(text, start=1) if not line.isascii())
        raise CacheError("non-ASCII byte", line=idx)
    version = _parse_header(text[0])
    values: dict[int, int] = {}
    previous = -1
    # version 1 records can be far longer than the interpreter's int/str digit
    # cap (0 is none, and Python < 3.10.7 has none): lift it while they are
    # parsed, then restore the caller's
    cap = 0
    if version == 1 and hasattr(sys, "set_int_max_str_digits"):
        cap = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        for idx, line in enumerate(text[1:], start=2):
            if line == "":
                raise CacheError("blank record", line=idx)
            n_field, tab, value_field = line.partition("\t")
            if not tab or "\t" in value_field:
                raise CacheError("expected 'n<TAB>value'", line=idx)
            record = _parse_record(version, n_field, value_field)
            if record is None:
                raise CacheError("non-integer record", line=idx)
            n, value = record
            if n < 0:
                raise CacheError(f"negative index n={n}", line=idx)
            if n <= previous:
                raise CacheError(f"n={n} is not strictly increasing", line=idx)
            previous = n
            values[n] = value
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)
    if verify:
        bad = _wrong_record(values)
        if bad is not None:  # record i, counted from 0, is on line i + 2
            raise CacheError(f"record for n={bad} is wrong", line=list(values).index(bad) + 2)
    return values
