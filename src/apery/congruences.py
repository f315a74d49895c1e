"""Finite-range verification of the base-p digit congruences satisfied by
the Apery numbers, and the digit sets that support them modulo p^2.

D(p) is the set of digits d with A(d) = A(p-1-d) mod p^2; those are exactly
the digits d for which A(d + p n) = A(d) A(n) mod p^2 holds for every
integer n.  Negative n are always in scope: reflection A(n) = A(-1-n) turns
them into non-negative evaluations.

Each digit law is a modulus plus a table of per-digit factors.  The
per-(d, n) laws share one sweep, _sweep, which builds, fills and returns
their report, with both sides A(d + p n) and A(n) reduced from exact
values and the factors A(d), A'(d) read from the digit tables (the
recurrence and its derivative modulo p or p^2), except that digitset-p2
keeps exact factors (see verify_digit_set_lucas).  The sweep checks one
column of cases per digit, n ascending: its left sides are a stride-p
slice of one prefix of residues mod p^3 that the memo holding the exact
values keeps per prime, built with one division per p indices where the
memo made the values and one per index where it was given them
(AperyCache.residues), and its right sides come from the column of A(n);
_sweep says how.
verify_multi_digit takes A(n) from the p-adic digit DP, which uses neither
the recurrence nor a digit theorem, and its factors from the digit tables.
digit_set and scan_digit_sets read no exact value: each block of
consecutive primes shares one pass of the recurrence modulo the product of
their squares, and D(p) is tested on its definition, A(d) = A(p-1-d) mod p^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress, count, cycle, islice, repeat
from operator import attrgetter, mod, mul, ne
from typing import Iterable, Iterator, NamedTuple, Sequence

from .arith import Residue, _require_prime, primes_upto
from .sequence import (
    _DP_START,
    AperyCache,
    _dp_step,
    _recurrence_mod,
    mod_p2_tables,
    mod_p_table,
    shared_cache,
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


def scan_digit_sets(
    p_max: int, min_size: int, workers: int = 1, cache: AperyCache | None = None
) -> list[DigitSet]:
    """All primes p <= p_max whose digit set has at least min_size digits, by p.

    Runs one modular pass per block of primes (_digit_sets) and reads no
    exact value.  workers and cache are accepted and ignored.
    """
    if p_max < 2 or min_size < 1:
        raise ValueError("need p_max >= 2 and min_size >= 1")
    return [ds for ds in _digit_sets(primes_upto(p_max)) if len(ds) >= min_size]


def _sweep(
    theorem: str,
    p: int,
    m: int,
    n_range: tuple[int, int],
    factors: dict[int, tuple[int, int]] | None,
    cache: AperyCache | None,
    expected_to_fail: frozenset[int] = frozenset(),
) -> CongruenceReport:
    """The report of theorem at p over the range, with parameters p, n_lo
    and n_hi: A(d + p n) = (a + p n s) A(n) mod m for every digit d: (a, s)
    in factors and every n in range, both sides reduced from exact values.
    factors=None stands for the exact factors (A(d) mod m, 0), d < p.

    Each digit's cases form one column, n ascending, and each digit adds
    the cases it ran to checked.  A failing case is a counterexample,
    except that the first failure of a digit in expected_to_fail is its
    witness and ends that digit's sweep at the witness's position + 1; the
    digits in expected_to_fail that never fail land in unwitnessed, and a
    note says to widen the range.  Counterexamples and witnesses are sorted
    by (n, d), the order of a loop over n and then the digits.

    A(n) = A(k) for the index k = n or -1-n, and A(d + p n) is A(pk + d)
    for n >= 0 and A(pk + p-1-d) for n < 0, since A(d + p n) =
    A((p-1-d) + p(-1-n)).  So one read of the memo's prefix A(0..pK + p - 1)
    mod p^3 (AperyCache.residues), with K the largest k, holds every case
    and the exact factors.  The memo builds it once per prime from its
    exact values: it reduces the value at each multiple of p and runs the
    recurrence mod p^3 through the rest of that block, except in a block
    that starts inside the prefix it was given, which it reduces value by
    value, so a wrong value is reported as itself.  The whole prefix is
    reduced mod m once.  The left column of digit d is a stride-p slice of
    it: at offset p-1-d over the n < 0 (_halves), read in reverse, then at
    offset d over the n >= 0.  The column of A(n) is the unit-stride slice
    the same way; it is the right column at the factor (1, 0), and every
    other right column is made from it, with p n A(n) made once per sweep
    for the factors with a slope.  Only a left column that differs from
    its right one is walked, to its mismatches.
    """
    neg, pos = _halves(n_range)
    lo, hi = n_range
    report = CongruenceReport(theorem, {"p": p, "n_lo": lo, "n_hi": hi})
    memo = cache if cache is not None else shared_cache()
    rows = memo.residues(p, p * max(hi, -1 - lo) + p - 1)
    if factors is None:
        factors = {d: (rows[d] % m, 0) for d in range(p)}
    if m != p**3:
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


def verify_lucas_mod_p(
    p: int, n_range: tuple[int, int], cache: AperyCache | None = None
) -> CongruenceReport:
    """Check A(d + p n) = A(d) A(n) mod p for every digit d and n in range,
    with A(d) mod p from the digit table."""
    _require_prime(p)
    factors = {d: (a, 0) for d, a in enumerate(mod_p_table(p))}
    return _sweep("lucas-p", p, p, n_range, factors, cache)


def verify_gessel_mod_p2(
    p: int, n_range: tuple[int, int], cache: AperyCache | None = None
) -> CongruenceReport:
    """Check A(d + p n) = (A(d) + p n A'(d)) A(n) mod p^2 over the range.

    A(d) and A'(d) mod p^2 come from the digit tables.  The recurrence
    behind them divides only by k^3 with k < p, so A'(d) is p-integral for
    every digit d.
    """
    _require_prime(p)
    factors = dict(enumerate(zip(*mod_p2_tables(p))))
    return _sweep("gessel-p2", p, p * p, n_range, factors, cache)


def verify_mod_p3_suite(
    p: int, n_range: tuple[int, int], cache: AperyCache | None = None
) -> CongruenceReport:
    """The strongest congruence available at each prime, over the range.

    p = 2:  A(n) = 5^n mod 8 for n >= 0 and A(n) = 5^(n+1) mod 8 for n <= -1.
    p = 3:  A(d + 3n) = A(d) A(n) mod 9 for every digit d, with A(d) mod 9
            from the mod p^2 digit tables.
    p >= 5: A(p n) = A(n) = A(p n + p - 1) mod p^3.
    """
    if p == 3:
        factors = {d: (a, 0) for d, a in enumerate(mod_p2_tables(3)[0])}
        return _sweep("p3-suite", 3, 9, n_range, factors, cache)
    if p != 2:
        _require_prime(p)  # a prime other than 2 and 3 is >= 5
        return _sweep("p3-suite", p, p**3, n_range, {0: (1, 0), p - 1: (1, 0)}, cache)
    neg, pos = _halves(n_range)
    lo, hi = n_range
    report = CongruenceReport("p3-suite", {"p": 2, "n_lo": lo, "n_hi": hi})
    memo = cache if cache is not None else shared_cache()
    heads = memo.residues(2, max(hi, -1 - lo))
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


def verify_digit_set_lucas(
    p: int, n_range: tuple[int, int], cache: AperyCache | None = None
) -> CongruenceReport:
    """Membership check for the digit-set theorem modulo p^2.

    Digits in D(p) must satisfy A(d + p n) = A(d) A(n) mod p^2 on the whole
    range; digits outside D(p) must violate it for some n (the first such n
    is recorded as a witness).  Measured, not proven: for each prime below
    5000, every digit outside D(p) has a witness at n = -1 or n = 1.

    D(p) comes from the modular recurrence, so the factors must not: with
    table factors, a wrong A(d) for a digit d outside D(p) fails at n = 0
    and witnesses its own exclusion.  With exact factors (factors=None,
    read by _sweep through the same reader as both sides) the same fault
    leaves d unwitnessed, so the report is inconclusive.
    """
    _require_prime(p)
    ds = digit_set(p)
    outside = frozenset(range(p)) - frozenset(ds.digits)
    report = _sweep("digitset-p2", p, p * p, n_range, None, cache, outside)
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
