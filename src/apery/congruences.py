"""Finite-range verification of the base-p digit congruences satisfied by
the Apery numbers, and the digit sets that support them modulo p^2.

D(p) is the set of digits d with A(d) = A(p-1-d) mod p^2; those are exactly
the digits d for which A(d + p n) = A(d) A(n) mod p^2 holds for every
integer n.  Negative n are always in scope: reflection A(n) = A(-1-n) turns
them into non-negative evaluations.

Each digit law is a modulus plus a table of per-digit factors.  The
per-(d, n) laws share one sweep, _sweep, which builds, fills and returns
their report.  Its two sides A(d + p n) and A(n) are read from one prefix
of residue rows per prime, which this module keeps (_rows) and builds with
no exact value except at p = 2: each block of p indices starts from the
p-adic digit DP and runs the recurrence modulo p^3 (9 at p = 3) through
the rest of the block (_blocks).  The factors A(d), A'(d) come from the
digit tables (the recurrence and its derivative modulo p or p^2), except
that digitset-p2 reads its factors from the rows (see
verify_digit_set_lucas).  The sweep checks one column of cases per digit,
n ascending: its left sides are a stride-p slice of the rows, and its
right sides come from the column of A(n); _sweep says how.
verify_multi_digit takes A(n) from the p-adic digit DP, which uses neither
the recurrence nor a digit theorem, and its factors from the digit tables.
digit_set and scan_digit_sets read no exact value: each block of
consecutive primes shares one pass of the recurrence modulo the product of
their squares, and D(p) is tested on its definition, A(d) = A(p-1-d) mod p^2.
A scan with workers > 1 deals its blocks to helpers forked with os.fork,
which send their sets back through pipes (_split); the answer is the
serial one.
"""

from __future__ import annotations

import gc
import math
import os
import signal
import threading
from array import array
from dataclasses import dataclass, field
from itertools import chain, compress, count, cycle, islice, repeat
from operator import attrgetter, mod, mul, ne
from typing import Iterable, Iterator, NamedTuple, Sequence

from .arith import Residue, _require_prime, primes_upto
from .sequence import (
    _DP_START,
    AperyCache,
    _dp_step,
    _dp_value,
    _recurrence_mod,
    _reduced_pass,
    apery_fast,
    mod_p2_tables,
    mod_p_table,
)

__all__ = [
    "CongruenceReport",
    "Counterexample",
    "DigitSet",
    "digit_set",
    "scan_digit_sets",
    "verify_digit_set_lucas",
    "verify_gessel_mod_p2",
    "verify_lucas_mod_p",
    "verify_mod_p3_suite",
    "verify_multi_digit",
]


@dataclass(frozen=True)
class DigitSet:
    """A prime p with the sorted digits d such that A(d) = A(p-1-d) mod p^2."""

    p: int
    digits: tuple[int, ...]

    def __contains__(self, d: int) -> bool:
        return d in self.digits

    def __len__(self) -> int:
        return len(self.digits)

    def format_row(self) -> str:
        return f"{self.p}: " + " ".join(str(d) for d in self.digits)


class Counterexample(NamedTuple):
    """One failing case: digit d (None when not digit-indexed), argument n,
    prime p, and the two residues that should have agreed."""

    d: int | None
    n: int
    p: int
    lhs: Residue
    rhs: Residue

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "p": self.p,
            "lhs": {"value": str(self.lhs.value), "modulus": str(self.lhs.modulus)},
            "rhs": {"value": str(self.rhs.value), "modulus": str(self.rhs.modulus)},
        }


@dataclass
class CongruenceReport:
    """Outcome of one verification sweep.

    counterexamples are theorem violations; an empty list means the claim
    held on every checked case.  For the digit-set theorem the expected
    violations for digits outside D(p) are recorded separately as witnesses,
    and digits for which no witness turned up in the searched range land in
    unwitnessed (enlarging the range is the remedy; the existence proof
    guarantees one exists).
    """

    theorem: str
    parameters: dict
    checked: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)
    witnesses: list[Counterexample] = field(default_factory=list)
    unwitnessed: list[int] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    @property
    def conclusive(self) -> bool:
        return not self.unwitnessed

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "parameters": self.parameters,
            "checked": self.checked,
            "pass": self.passed,
            "conclusive": self.conclusive,
            "counterexamples": [c.to_dict() for c in self.counterexamples],
            "witnesses": [w.to_dict() for w in self.witnesses],
            "unwitnessed": list(self.unwitnessed),
            "notes": list(self.notes),
        }


def _halves(n_range: tuple[int, int]) -> tuple[range, range]:
    """The indices k = -1-n over the part n < 0 of the range lo..hi, and
    k = n over the part n >= 0.  Either may be empty, and no bound is
    negative, where a slice would wrap round."""
    lo, hi = n_range
    if lo > hi:
        raise ValueError(f"empty range {n_range}")
    return range(-1 - min(hi, -1), max(-lo, 0)), range(max(lo, 0), max(hi + 1, 0))


# primes per modular pass of _digit_sets: 6-8 measured fastest for scans to
# 5000; fewer primes repeat the pass, more make every product wider
_BLOCK = 8


def _digit_sets(primes: Sequence[int]) -> Iterator[DigitSet]:
    """D(p) for each of the ascending primes, with no exact value.

    Each block of _BLOCK consecutive primes shares one pass of the
    recurrence modulo Q, the product of their squares, up to the largest
    digit in the block (_recurrence_mod).  For d < p both den(d) and
    den(p-1-d) are units mod p, so A(d) = A(p-1-d) mod p^2 exactly when
    x(d) den(p-1-d) = x(p-1-d) den(d) mod p^2.  D(p) is symmetric under
    d -> p-1-d, so only d <= (p-1)/2 is tested.
    """
    for i in range(0, len(primes), _BLOCK):
        block = primes[i : i + _BLOCK]
        pairs = list(_recurrence_mod(math.prod(p * p for p in block), block[-1] - 1))
        for p in block:
            m = p * p
            mirror = pairs[p - 1 :: -1]  # mirror[d] is the pair at p-1-d
            low = [
                d
                for d, (x, u), (y, v) in zip(range((p + 1) // 2), pairs, mirror)
                if (x * v - y * u) % m == 0
            ]
            high = [p - 1 - d for d in reversed(low) if 2 * d != p - 1]
            yield DigitSet(p, tuple(low + high))


def digit_set(p: int) -> DigitSet:
    """D(p) from A(0), ..., A(p-1) modulo p^2, by the modular recurrence."""
    _require_prime(p)
    return next(_digit_sets([p]))


# the least p_max whose scan is split across helpers: below it a fork costs
# more than the share it takes off the caller
_SPLIT_FROM = 600


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _deal(blocks: list[list[int]], w: int) -> list[list[list[int]]]:
    """The blocks dealt into w shares, largest block first, each to the
    share with the least estimated cost so far: p_last^2 per block."""
    shares: list[list[list[int]]] = [[] for _ in range(w)]
    loads = [0] * w
    for block in sorted(blocks, key=lambda b: b[-1], reverse=True):
        i = loads.index(min(loads))
        shares[i].append(block)
        loads[i] += block[-1] ** 2
    return shares


def _run(share: list[list[int]]) -> list[DigitSet]:
    return [ds for block in share for ds in _digit_sets(block)]


def _pack(sets: list[DigitSet]) -> bytes:
    """(p, |D(p)|, digits...) for each set, as one array of 64-bit ints."""
    return array("q", chain.from_iterable((ds.p, len(ds), *ds.digits) for ds in sets)).tobytes()


def _unpack(data: bytes, share: list[list[int]]) -> list[DigitSet] | None:
    """The share's sets from a helper's bytes, or None when the bytes do not
    hold exactly one set for each prime of the share, in order."""
    words = array("q")
    if len(data) % words.itemsize:
        return None
    words.frombytes(data)
    sets, i = [], 0
    for p in chain.from_iterable(share):
        if i + 2 > len(words) or words[i] != p or i + 2 + words[i + 1] > len(words):
            return None
        sets.append(DigitSet(p, tuple(words[i + 2 : i + 2 + words[i + 1]])))
        i += 2 + words[i + 1]
    return sets if i == len(words) else None


def _fork(share: list[list[int]]) -> tuple[int | None, int | None]:
    """(pid, read end) of a helper that writes the share's sets to a pipe and
    exits, or (None, None) where no pipe or fork could be made."""
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return None, None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None, None
    if pid == 0:  # the helper: never returns into the caller's frames
        code = 1
        try:
            gc.disable()
            os.close(read_end)
            data = memoryview(_pack(_run(share)))
            while data:
                data = data[os.write(write_end, data) :]
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, read_end


def _read_to_eof(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _reap(pid: int | None, fd: int | None, kill: bool) -> int | None:
    """A helper's exit code, once it is killed if kill; None for no helper."""
    if pid is None:
        return None
    if kill:
        os.kill(pid, signal.SIGKILL)
    os.close(fd)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _split(blocks: list[list[int]], w: int) -> list[DigitSet]:
    """The blocks' sets, share 0 run here and each other share in a forked
    helper.  A share whose fork fails, whose helper exits non-zero or whose
    bytes come back short runs here too.  Every helper is reaped before the
    call returns; if share 0 raises, the helpers are killed first."""
    shares = _deal(blocks, w)
    helpers = []  # (share, pid, read end); pid None where the fork failed
    read = False
    try:
        for share in shares[1:]:
            helpers.append((share, *_fork(share)))
        sets = _run(shares[0])
        replies = [b"" if pid is None else _read_to_eof(fd) for _, pid, fd in helpers]
        read = True
    finally:
        codes = [_reap(pid, fd, kill=not read) for _, pid, fd in helpers]
    for (share, _, _), data, code in zip(helpers, replies, codes):
        got = _unpack(data, share) if code == 0 else None
        sets += got if got is not None else _run(share)
    return sorted(sets, key=attrgetter("p"))


def scan_digit_sets(
    p_max: int, min_size: int, workers: int | None = None, cache: AperyCache | None = None
) -> list[DigitSet]:
    """All primes p <= p_max whose digit set has at least min_size digits, by p.

    Runs one modular pass per block of primes (_digit_sets) and reads no
    exact value.  workers, which must be >= 1, defaults to the usable
    CPUs.  With workers > 1 the blocks are split across
    w = min(workers, usable CPUs, blocks) processes: this one and w - 1
    helpers forked for the call, each of which returns its sets through a
    pipe (_split).  The scan stays in this process below p_max = _SPLIT_FROM,
    where os.fork is missing, and while another thread is alive, where a
    fork could copy a lock that thread holds.  The answer is the same on
    every route.  cache is accepted and ignored.
    """
    if workers is None:
        workers = _usable_cpus()
    elif workers < 1:
        raise ValueError("workers must be >= 1")
    if p_max < 2 or min_size < 1:
        raise ValueError("need p_max >= 2 and min_size >= 1")
    primes = primes_upto(p_max)
    blocks = [primes[i : i + _BLOCK] for i in range(0, len(primes), _BLOCK)]
    w = min(workers, _usable_cpus(), len(blocks))
    if w < 2 or p_max < _SPLIT_FROM or not hasattr(os, "fork") or threading.active_count() > 1:
        sets = _run(blocks)
    else:
        sets = _split(blocks, w)
    return [ds for ds in sets if len(ds) >= min_size]


# p -> the rows A(0), ..., A(len - 1) mod _row_modulus(p), in whole blocks of
# p; each extension is published as a new array, never written again
_tables: dict[int, array] = {}
_tables_lock = threading.Lock()


def _row_modulus(p: int) -> int:
    """p^3, but 9 at p = 3, where the digit DP reads mod p^2 only, and 8 at
    p = 2, read from exact values."""
    return 8 if p == 2 else 9 if p == 3 else p**3


def _blocks(p: int, lo: int, hi: int) -> list[int]:
    """A(k) mod _row_modulus(p) for k = lo, ..., hi, lo a multiple of p.

    Block [jp, jp + p) starts from A(jp), the digit DP at jp: the state of
    j, then one step with digit 0 (_dp_value; A(0) = 1 takes no step).
    For jp < k < jp + p, k^3 is a unit mod p^3, and at k = jp + 1 the
    coefficient (jp)^3 = 0 mod p^3 drops A(jp - 1), so the recurrence
    modulo the rows' modulus gives the rest of the block from A(jp) alone
    (_reduced_pass).  p = 2 masks the exact memo's values with 7, v & 7
    being v % 8: the DP reads mod p^3 only from p = 5 on, and p3-suite at
    2 compares mod 8.
    """
    if p == 2:
        return [apery_fast(k) & 7 for k in range(lo, hi + 1)]
    m = _row_modulus(p)
    rows = []
    for jp in range(lo, hi + 1, p):
        rows += _reduced_pass(m, min(jp + p - 1, hi), jp, _dp_value(jp, p) % m)
    return rows


def _rows(p: int, top: int) -> list[int]:
    """A(k) mod _row_modulus(p) for k = 0, ..., top, as a fresh list.

    A table that reaches top is read with no lock.  A shorter one is
    extended under the lock, in whole blocks, to the end of top's block
    (_blocks), and published as a new array.  A prime p >= 2^21, whose cube
    overflows an entry, keeps no table: its blocks are built afresh on each
    call.
    """
    table = _tables.get(p)
    if table is None or len(table) <= top:
        if p**3 >= 2**63:  # past the largest array('q') entry
            return _blocks(p, 0, top)
        with _tables_lock:
            table = _tables.get(p, array("q"))
            if len(table) <= top:
                new = _blocks(p, len(table), top - top % p + p - 1)
                table = _tables[p] = table + array("q", new)
    return table[: top + 1].tolist()


def _sweep(
    theorem: str,
    p: int,
    m: int,
    n_range: tuple[int, int],
    factors: dict[int, tuple[int, int]] | None,
    expected_to_fail: frozenset[int] = frozenset(),
) -> CongruenceReport:
    """The report of theorem at p over the range, with parameters p, n_lo
    and n_hi: A(d + p n) = (a + p n s) A(n) mod m for every digit d: (a, s)
    in factors and every n in range, both sides read from the rows (_rows),
    whose modulus m divides.  factors=None stands for the rows' own
    factors (A(d) mod m, 0), d < p.

    Each digit's cases form one column, n ascending, and each digit adds
    the cases it ran to checked.  A failing case is a counterexample,
    except that the first failure of a digit in expected_to_fail is its
    witness and ends that digit's sweep at the witness's position + 1; the
    digits in expected_to_fail that never fail land in unwitnessed, and a
    note says to widen the range.  Counterexamples and witnesses are sorted
    by (n, d), the order of a loop over n and then the digits.

    A(n) = A(k) for the index k = n or -1-n, and A(d + p n) is A(pk + d)
    for n >= 0 and A(pk + p-1-d) for n < 0, since A(d + p n) =
    A((p-1-d) + p(-1-n)).  So one read of the rows A(0..pK + p - 1), with
    K the largest k, holds every case and the rows' own factors.  The
    rows are reduced mod m once, unless m is their own modulus.  The left
    column of digit d is a stride-p slice of them: at offset p-1-d over
    the n < 0 (_halves), read in reverse, then at offset d over the
    n >= 0.  The column of A(n) is the unit-stride slice the same way; it
    is the right column at the factor (1, 0), and every other right column
    is made from it, with p n A(n) made once per sweep for the factors
    with a slope.  Only a left column that differs from its right one is
    walked, to its mismatches.
    """
    neg, pos = _halves(n_range)
    lo, hi = n_range
    report = CongruenceReport(theorem, {"p": p, "n_lo": lo, "n_hi": hi})
    rows = _rows(p, p * max(hi, -1 - lo) + p - 1)
    if factors is None:
        factors = {d: (rows[d] % m, 0) for d in range(p)}
    if m != _row_modulus(p):
        rows[:] = map(mod, rows, repeat(m))
    heads = rows[neg.start : neg.stop][::-1] + rows[pos.start : pos.stop]
    scaled = None  # p n A(n) mod m, made at the first factor with a slope
    unwitnessed = []
    for d, (f, s) in sorted(factors.items()):
        mirror = p - 1 - d  # the digit read for n < 0
        lhs = rows[p * neg.start + mirror : p * neg.stop + mirror : p][::-1]
        lhs += rows[p * pos.start + d : p * pos.stop + d : p]
        if s:
            if scaled is None:
                scaled = list(map(mod, map(mul, range(p * lo, p * hi + 1, p), heads), repeat(m)))
            rhs = [(f * a + s * b) % m for a, b in zip(heads, scaled)]
        else:
            rhs = heads if f == 1 else [f * a % m for a in heads]
        misses = () if lhs == rhs else compress(count(), map(ne, lhs, rhs))
        for i in misses:
            found = Counterexample(d, lo + i, p, Residue(lhs[i], m), Residue(rhs[i], m))
            if d in expected_to_fail:
                report.witnesses.append(found)
                report.checked += i + 1
                break
            report.counterexamples.append(found)
        else:
            report.checked += hi - lo + 1
            if d in expected_to_fail:
                unwitnessed.append(d)
    for found in (report.counterexamples, report.witnesses):
        found.sort(key=attrgetter("n", "d"))
    report.unwitnessed = unwitnessed
    if unwitnessed:
        report.notes.append(
            "no violating n found in range for some digits outside D(p); "
            "widen the range (existence is guaranteed)"
        )
    return report


def verify_lucas_mod_p(p: int, n_range: tuple[int, int]) -> CongruenceReport:
    """Check A(d + p n) = A(d) A(n) mod p for every digit d and n in range,
    with A(d) mod p from the digit table."""
    _require_prime(p)
    factors = {d: (a, 0) for d, a in enumerate(mod_p_table(p))}
    return _sweep("lucas-p", p, p, n_range, factors)


def verify_gessel_mod_p2(p: int, n_range: tuple[int, int]) -> CongruenceReport:
    """Check A(d + p n) = (A(d) + p n A'(d)) A(n) mod p^2 over the range.

    A(d) and A'(d) mod p^2 come from the digit tables.  The recurrence
    behind them divides only by k^3 with k < p, so A'(d) is p-integral for
    every digit d.
    """
    _require_prime(p)
    factors = dict(enumerate(zip(*mod_p2_tables(p))))
    return _sweep("gessel-p2", p, p * p, n_range, factors)


def verify_mod_p3_suite(p: int, n_range: tuple[int, int]) -> CongruenceReport:
    """The strongest congruence available at each prime, over the range.

    p = 2:  A(n) = 5^n mod 8 for n >= 0 and A(n) = 5^(n+1) mod 8 for n <= -1.
    p = 3:  A(d + 3n) = A(d) A(n) mod 9 for every digit d, with A(d) mod 9
            from the mod p^2 digit tables.
    p >= 5: A(p n) = A(n) = A(p n + p - 1) mod p^3.
    """
    if p == 3:
        factors = {d: (a, 0) for d, a in enumerate(mod_p2_tables(3)[0])}
        return _sweep("p3-suite", 3, 9, n_range, factors)
    if p != 2:
        _require_prime(p)  # a prime other than 2 and 3 is >= 5
        return _sweep("p3-suite", p, p**3, n_range, {0: (1, 0), p - 1: (1, 0)})
    neg, pos = _halves(n_range)
    lo, hi = n_range
    report = CongruenceReport("p3-suite", {"p": 2, "n_lo": lo, "n_hi": hi})
    heads = _rows(2, max(hi, -1 - lo))
    report.checked = hi - lo + 1
    # A(n) mod 8 over each half, n ascending, against 5^e mod 8 from the
    # first n's exponent e = n + 1 (n < 0) or n (n >= 0); the powers
    # alternate 1, 5, as 5^2 = 1 mod 8
    for first, column, e in (
        (lo, heads[neg.start : neg.stop][::-1], lo + 1),
        (pos.start, heads[pos.start : pos.stop], pos.start),
    ):
        powers = list(islice(cycle((1, 5)), e % 2, e % 2 + len(column)))
        if column != powers:
            for i in compress(count(), map(ne, column, powers)):
                report.counterexamples.append(
                    Counterexample(None, first + i, 2, Residue(column[i], 8), Residue(powers[i], 8))
                )
    return report


def verify_digit_set_lucas(p: int, n_range: tuple[int, int]) -> CongruenceReport:
    """Membership check for the digit-set theorem modulo p^2.

    Digits in D(p) must satisfy A(d + p n) = A(d) A(n) mod p^2 on the whole
    range; digits outside D(p) must violate it for some n (the first such n
    is recorded as a witness).  Measured, not proven: for each prime below
    5000, every digit outside D(p) has a witness at n = -1 or n = 1.

    D(p) comes from the pass of the recurrence that decides it, so the
    factors must not: with factors from that pass, a wrong A(d) for a digit
    d outside D(p) fails at n = 0 and witnesses its own exclusion.  With
    the rows' own factors (factors=None, read by _sweep from the rows that
    give both sides) the same fault leaves d unwitnessed, so the report is
    inconclusive.
    """
    _require_prime(p)
    ds = digit_set(p)
    outside = frozenset(range(p)) - frozenset(ds.digits)
    report = _sweep("digitset-p2", p, p * p, n_range, None, outside)
    report.parameters["digits"] = list(ds.digits)
    return report


def verify_multi_digit(
    p: int,
    alphabet: Iterable[int],
    depth: int,
    law: str,
) -> CongruenceReport:
    """Digit-wise laws A(n) = prod f(d) mod m over every n < p^depth whose
    base-p digits d lie in the alphabet.

    law="product": f(d) = A(d), m = p^2; requires the alphabet to sit
        inside D(p) and is rejected otherwise.
    law="power": alphabet {0, c, p-1} for odd p, with c = (p-1)/2;
        f = {0: 1, c: A(c), p-1: 1}, m = p^2.
    law="unit": alphabet within {0, p-1} for p >= 5; f = 1, m = p^3.

    The left side A(n) mod m comes from the p-adic digit DP, one _dp_step
    per node of the digit tree, which uses neither the recurrence nor a
    digit theorem; the factors f(d) come from the digit tables, built by the
    recurrence modulo p^2, so the two sides take independent routes.
    """
    _require_prime(p)
    alphabet = sorted(set(alphabet))
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if not alphabet or any(d < 0 or d >= p for d in alphabet):
        raise ValueError(f"alphabet must be non-empty digits below {p}")

    if law == "product":
        ds = digit_set(p)
        outside = [d for d in alphabet if d not in ds]
        if outside:
            raise ValueError(
                f"digits {outside} are outside D({p}); the product law only "
                "holds on D(p)"
            )
        factor = mod_p2_tables(p)[0]
    elif law == "power":
        centre = (p - 1) // 2
        if p == 2 or alphabet != sorted({0, centre, p - 1}):
            raise ValueError(
                "power law needs odd p and alphabet {0, (p-1)/2, p-1}"
            )
        factor = {0: 1, centre: mod_p2_tables(p)[0][centre], p - 1: 1}
    elif law == "unit":
        if p < 5 or not set(alphabet) <= {0, p - 1}:
            raise ValueError("unit law needs p >= 5 and alphabet within {0, p-1}")
        factor = dict.fromkeys(alphabet, 1)
    else:
        raise ValueError(f"unknown law {law!r}")
    modulus = p**3 if law == "unit" else p * p

    report = CongruenceReport(
        f"multi-digit-{law}",
        {"p": p, "alphabet": list(alphabet), "depth": depth, "modulus": str(modulus)},
    )
    # depth first, smaller digit first, so the leaves (the n) come out
    # ascending; each node takes one DP step and one factor from its parent
    stack = [(0, 0, _DP_START, 1)]  # (digits read, n, DP state, right side)
    while stack:
        level, n, state, rhs = stack.pop()
        if level < depth:
            stack.extend((level + 1, n * p + d, _dp_step(state, n % (p * p), p, d),
                          rhs * factor[d] % modulus) for d in reversed(alphabet))
            continue
        report.checked += 1
        if (lhs := state[0] % modulus) != rhs:
            report.counterexamples.append(
                Counterexample(None, n, p, Residue(lhs, modulus), Residue(rhs, modulus))
            )
    return report
