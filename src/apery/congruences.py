"""Finite-range verification of the base-p digit congruences satisfied by
the Apery numbers, and the digit sets that support them modulo p^2.

D(p) is the set of digits d with A(d) = A(p-1-d) mod p^2; those are exactly
the digits d for which A(d + p n) = A(d) A(n) mod p^2 holds for every
integer n.  Negative n are always in scope: reflection A(n) = A(-1-n) turns
them into non-negative evaluations.

Each digit law is a modulus plus a table of per-digit factors.  The
per-(d, n) laws share one sweep, _sweep, with both sides A(d + p n) and
A(n) reduced from exact values and the factors A(d), A'(d) read from the
digit tables (the recurrence and its derivative modulo p or p^2), except
that digitset-p2 keeps exact factors (see verify_digit_set_lucas).
verify_multi_digit's mod p^2 laws evaluate A(n) through the digit tables;
its mod p^3 unit law takes A(n) mod p^3 from the p-adic evaluator (the
summands with at most one carry, over p-free factorials), which uses
neither the recurrence nor a digit theorem.  scan_digit_sets reduces one
shared exact prefix for every prime, which is cheaper than a modular pass
per prime.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .arith import Residue, _require_prime, primes_upto
from .sequence import (
    AperyCache,
    _apery_mod_pk,
    _digit_tables,
    apery_fast,
    apery_mod_p2,
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


def _span(n_range: tuple[int, int]) -> range:
    lo, hi = n_range
    if lo > hi:
        raise ValueError(f"empty range {n_range}")
    return range(lo, hi + 1)


def _digit_set_of(p: int, values: Sequence[int]) -> DigitSet:
    # values[d] is A(d) mod p^2 for d < p
    return DigitSet(p, tuple(d for d in range(p) if values[d] == values[p - 1 - d]))


def digit_set(p: int) -> DigitSet:
    """D(p) from A(0), ..., A(p-1) modulo p^2, by the modular recurrence."""
    return _digit_set_of(p, _digit_tables(p, p * p, derivs=False)[0])


def scan_digit_sets(
    p_max: int, min_size: int, workers: int = 1, cache: AperyCache | None = None
) -> list[DigitSet]:
    """All primes p <= p_max whose digit set has at least min_size digits, by p.

    Every prime reduces the same exact prefix A(0), ..., A(p - 1), built
    once.  workers is accepted and ignored: the scan runs serially, since a
    thread pool gave no speed-up on this pure-Python work.
    """
    if p_max < 2 or min_size < 1:
        raise ValueError("need p_max >= 2 and min_size >= 1")
    primes = primes_upto(p_max)
    prefix = [apery_fast(d, cache) for d in range(primes[-1])]
    sets = []
    for p in primes:
        m = p * p
        ds = _digit_set_of(p, [a % m for a in prefix[:p]])
        if len(ds) >= min_size:
            sets.append(ds)
    return sets


def _case(
    report: CongruenceReport, d: int | None, n: int, p: int, lhs: int, rhs: int, m: int
) -> Counterexample | None:
    """Count one checked case; the counterexample when lhs and rhs differ."""
    report.checked += 1
    if lhs == rhs:
        return None
    return Counterexample(d, n, p, Residue(lhs, m), Residue(rhs, m))


def _sweep(
    report: CongruenceReport,
    p: int,
    m: int,
    n_range: tuple[int, int],
    factors: dict[int, tuple[int, int]],
    cache: AperyCache | None,
    expected_to_fail: frozenset[int] = frozenset(),
) -> None:
    """Check A(d + p n) = (a + p n s) A(n) mod m for every digit d: (a, s) in
    factors and every n in range, both sides reduced from exact values.

    Cases run n by n, digits ascending, and each adds one to report.checked.
    A failing case is a counterexample, except that the first failure of a
    digit in expected_to_fail is its witness and ends that digit's sweep;
    the digits in expected_to_fail that never fail land in unwitnessed.
    """
    digits = sorted(factors.items())
    for n in _span(n_range):
        an = apery_fast(n, cache) % m
        for d, (a, s) in digits:
            lhs = apery_fast(d + p * n, cache) % m
            case = _case(report, d, n, p, lhs, (a + p * n * s) * an % m, m)
            if case is None:
                continue
            if d in expected_to_fail:
                report.witnesses.append(case)
                digits = [entry for entry in digits if entry[0] != d]
            else:
                report.counterexamples.append(case)
    report.unwitnessed = [d for d, _ in digits if d in expected_to_fail]


def verify_lucas_mod_p(
    p: int, n_range: tuple[int, int], cache: AperyCache | None = None
) -> CongruenceReport:
    """Check A(d + p n) = A(d) A(n) mod p for every digit d and n in range,
    with A(d) mod p from the digit table."""
    _require_prime(p)
    report = CongruenceReport(
        "lucas-p", {"p": p, "n_lo": n_range[0], "n_hi": n_range[1]}
    )
    factors = {d: (a, 0) for d, a in enumerate(mod_p_table(p))}
    _sweep(report, p, p, n_range, factors, cache)
    return report


def verify_gessel_mod_p2(
    p: int, n_range: tuple[int, int], cache: AperyCache | None = None
) -> CongruenceReport:
    """Check A(d + p n) = (A(d) + p n A'(d)) A(n) mod p^2 over the range.

    A(d) and A'(d) mod p^2 come from the digit tables.  The recurrence
    behind them divides only by k^3 with k < p, so A'(d) is p-integral for
    every digit d.
    """
    _require_prime(p)
    report = CongruenceReport(
        "gessel-p2", {"p": p, "n_lo": n_range[0], "n_hi": n_range[1]}
    )
    factors = dict(enumerate(zip(*mod_p2_tables(p))))
    _sweep(report, p, p * p, n_range, factors, cache)
    return report


def verify_mod_p3_suite(
    p: int, n_range: tuple[int, int], cache: AperyCache | None = None
) -> CongruenceReport:
    """The strongest congruence available at each prime, over the range.

    p = 2:  A(n) = 5^n mod 8 for n >= 0 and A(n) = 5^(n+1) mod 8 for n <= -1.
    p = 3:  A(d + 3n) = A(d) A(n) mod 9 for every digit d, with A(d) mod 9
            from the digit table.
    p >= 5: A(p n) = A(n) = A(p n + p - 1) mod p^3.
    """
    if p not in (2, 3):
        _require_prime(p)  # a prime other than 2 and 3 is >= 5
    report = CongruenceReport(
        "p3-suite", {"p": p, "n_lo": n_range[0], "n_hi": n_range[1]}
    )
    if p == 2:
        for n in _span(n_range):
            rhs = pow(5, n if n >= 0 else n + 1, 8)
            if case := _case(report, None, n, 2, apery_fast(n, cache) % 8, rhs, 8):
                report.counterexamples.append(case)
    elif p == 3:
        factors = {d: (a, 0) for d, a in enumerate(_digit_tables(3, 9, False)[0])}
        _sweep(report, 3, 9, n_range, factors, cache)
    else:
        _sweep(report, p, p**3, n_range, {0: (1, 0), p - 1: (1, 0)}, cache)
    return report


def verify_digit_set_lucas(
    p: int,
    n_range: tuple[int, int] | None = None,
    cache: AperyCache | None = None,
) -> CongruenceReport:
    """Membership check for the digit-set theorem modulo p^2.

    Digits in D(p) must satisfy A(d + p n) = A(d) A(n) mod p^2 on the whole
    range; digits outside D(p) must violate it for some n (the first such n
    is recorded as a witness).  The default range is -p..p, which in
    practice always contains a witness.
    """
    _require_prime(p)
    if n_range is None:
        n_range = (-p, p)
    m = p * p
    ds = digit_set(p)
    report = CongruenceReport(
        "digitset-p2",
        {"p": p, "n_lo": n_range[0], "n_hi": n_range[1], "digits": list(ds.digits)},
    )
    # D(p) comes from the digit table, so the factors must not: a wrong A(d)
    # there would drop d from D(p) and then witness its own exclusion.  With
    # exact factors the same fault leaves d unwitnessed, so the report is
    # inconclusive.
    factors = {d: (apery_fast(d, cache) % m, 0) for d in range(p)}
    outside = frozenset(range(p)) - frozenset(ds.digits)
    _sweep(report, p, m, n_range, factors, cache, outside)
    if report.unwitnessed:
        report.notes.append(
            "no violating n found in range for some digits outside D(p); "
            "widen the range (existence is guaranteed)"
        )
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

    The mod p^2 laws read A(d) from the digit tables (built by the
    recurrence modulo p^2) and evaluate A(n) through them.  The mod p^3 law
    takes A(n) mod p^3 from the p-adic evaluator: with digits 0 and p-1
    only a handful of summands have at most one carry.  The mod p^2 laws
    stay on the digit route because a middle digit (p-1)/2 leaves about
    ((p+1)/2)^depth carry-free summands.
    """
    _require_prime(p)
    alphabet = sorted(set(alphabet))
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if not alphabet or any(d < 0 or d >= p for d in alphabet):
        raise ValueError(f"alphabet must be non-empty digits below {p}")

    if law == "product":
        tables = mod_p2_tables(p)
        ds = _digit_set_of(p, tables[0])
        outside = [d for d in alphabet if d not in ds]
        if outside:
            raise ValueError(
                f"digits {outside} are outside D({p}); the product law only "
                "holds on D(p)"
            )
        modulus, factor = p * p, tables[0]
    elif law == "power":
        centre = (p - 1) // 2
        if p == 2 or alphabet != sorted({0, centre, p - 1}):
            raise ValueError(
                "power law needs odd p and alphabet {0, (p-1)/2, p-1}"
            )
        tables = mod_p2_tables(p)
        modulus, factor = p * p, {0: 1, centre: tables[0][centre], p - 1: 1}
    elif law == "unit":
        if p < 5 or not set(alphabet) <= {0, p - 1}:
            raise ValueError("unit law needs p >= 5 and alphabet within {0, p-1}")
        tables, modulus, factor = None, p**3, dict.fromkeys(alphabet, 1)
    else:
        raise ValueError(f"unknown law {law!r}")

    report = CongruenceReport(
        f"multi-digit-{law}",
        {"p": p, "alphabet": list(alphabet), "depth": depth, "modulus": str(modulus)},
    )
    # most significant digit first, so n runs once each and ascending
    for digits in itertools.product(alphabet, repeat=depth):
        n = 0
        for d in digits:
            n = n * p + d
        if tables is None:
            lhs = _apery_mod_pk(n, p, 3)
        else:
            lhs = apery_mod_p2(n, p, tables).value
        rhs = math.prod(factor[d] for d in digits) % modulus
        if case := _case(report, None, n, p, lhs, rhs, modulus):
            report.counterexamples.append(case)
    return report
