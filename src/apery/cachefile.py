"""On-disk cache of exact Apery values.

Format: a tab-separated header line ``apery-cache <version> apery`` followed
by one record per line, ``n <tab> A(n)`` in decimal, with strictly
increasing n.  An empty file is an empty cache.

Loading validates the structure and checks every record against A(n)
modulo the prime q = 2^61 - 1, by one pass of the recurrence up to the
largest index in the file.  That catches any single-digit edit, truncation
or rescaling by k != 1 (mod q); a value changed by an exact multiple of q
is the one change that passes.
"""

from __future__ import annotations

import os
import sys
from typing import Mapping

from .sequence import _wrong_record

__all__ = ["CacheError", "FORMAT_VERSION", "cache_load", "cache_store"]

FORMAT_VERSION = 1
_SEQUENCE_ID = "apery"


class CacheError(ValueError):
    """A cache file failed validation; line is 1-based when applicable."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def _unlimited_decimals() -> None:
    # records can be far longer than the interpreter's int/str cap
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


def cache_store(path: str | os.PathLike, values: Mapping[int, int]) -> None:
    """Write the values atomically, sorted by n."""
    _unlimited_decimals()
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(f"apery-cache\t{FORMAT_VERSION}\t{_SEQUENCE_ID}\n")
        for n in sorted(values):
            if n < 0:
                raise ValueError(f"cache keys must be >= 0, got {n}")
            fh.write(f"{n}\t{values[n]}\n")
    os.replace(tmp, path)


def _parse_header(line: str) -> None:
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 3 or fields[0] != "apery-cache":
        raise CacheError("not an apery-cache file", line=1)
    try:
        version = int(fields[1])
    except ValueError:
        raise CacheError(f"bad version field {fields[1]!r}", line=1) from None
    if version != FORMAT_VERSION:
        raise CacheError(
            f"format version {version} not supported (expected {FORMAT_VERSION})",
            line=1,
        )
    if fields[2] != _SEQUENCE_ID:
        raise CacheError(f"unknown sequence id {fields[2]!r}", line=1)


def cache_load(path: str | os.PathLike, verify: bool = True) -> dict[int, int]:
    """Read a cache file back into an {n: A(n)} map.

    Raises CacheError, naming the offending line, for structural problems
    (bad header, malformed or non-increasing records) and, unless verify is
    false, for any record whose value is not A(n) modulo 2^61 - 1.
    """
    _unlimited_decimals()
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read()
    if raw == "":
        return {}
    text = raw.splitlines()
    _parse_header(text[0])
    values: dict[int, int] = {}
    lines: dict[int, int] = {}
    previous = -1
    for idx, line in enumerate(text[1:], start=2):
        if line == "":
            raise CacheError("blank record", line=idx)
        fields = line.split("\t")
        if len(fields) != 2:
            raise CacheError("expected 'n<TAB>value'", line=idx)
        try:
            n, value = int(fields[0]), int(fields[1])
        except ValueError:
            raise CacheError("non-integer record", line=idx) from None
        if n <= previous:
            raise CacheError(f"n={n} is not strictly increasing", line=idx)
        if n < 0:
            raise CacheError(f"negative index n={n}", line=idx)
        previous = n
        values[n] = value
        lines[n] = idx
    if verify:
        bad = _wrong_record(values)
        if bad is not None:
            raise CacheError(f"record for n={bad} is wrong", line=lines[bad])
    return values
