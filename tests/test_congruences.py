"""Digit sets and the congruence verification sweeps."""

import functools
import json
import random
import sys
from collections import Counter
from pathlib import Path

import jsonschema
import pytest

import apery.congruences
import apery.sequence
from apery.arith import Residue, primes_upto
from apery.congruences import (
    CongruenceReport,
    Counterexample,
    digit_set,
    scan_digit_sets,
    verify_digit_set_lucas,
    verify_gessel_mod_p2,
    verify_lucas_mod_p,
    verify_mod_p3_suite,
    verify_multi_digit,
)
from apery.sequence import AperyCache, apery_fast, apery_mod_p2, mod_p2_tables

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schema" / "report.schema.json").read_text()
)

# the known digit-set table: all primes up to 167 with at least 4 digits
DIGIT_SET_TABLE = {
    7: (0, 2, 3, 4, 6),
    23: (0, 7, 11, 15, 22),
    43: (0, 5, 18, 21, 24, 37, 42),
    59: (0, 6, 29, 52, 58),
    79: (0, 18, 39, 60, 78),
    103: (0, 17, 51, 85, 102),
    107: (0, 14, 21, 47, 53, 59, 85, 92, 106),
    127: (0, 17, 63, 109, 126),
    131: (0, 62, 65, 68, 130),
    139: (0, 68, 69, 70, 138),
    151: (0, 19, 75, 131, 150),
    167: (0, 35, 64, 83, 102, 131, 166),
}


class TestDigitSet:
    def test_known_sets(self):
        assert digit_set(7).digits == (0, 2, 3, 4, 6)
        assert digit_set(23).digits == (0, 7, 11, 15, 22)
        assert digit_set(5).digits == (0, 2, 4)
        assert digit_set(2).digits == (0, 1)
        assert digit_set(3).digits == (0, 1, 2)

    def test_symmetry_and_anchors(self):
        from apery.arith import primes_upto

        cache = AperyCache()
        for p in primes_upto(300):
            ds = digit_set(p)
            assert 0 in ds and p - 1 in ds
            assert all(p - 1 - d in ds for d in ds.digits)
            if p % 2:  # the central digit is always a member
                assert (p - 1) // 2 in ds

    def test_matches_exact_reduction(self):
        # digit_set and scan_digit_sets run the recurrence modulo the squares
        # of blocks of primes; this test reduces exact values.  Primes to 600
        # span many full blocks and a partial last one.
        from apery.arith import primes_upto

        exact = [apery_fast(d) for d in range(600)]
        primes = primes_upto(600)
        for p in primes:
            m = p * p
            digits = tuple(d for d in range(p) if exact[d] % m == exact[p - 1 - d] % m)
            assert digit_set(p).digits == digits
        assert scan_digit_sets(600, 1) == [digit_set(p) for p in primes]

    def test_format_row(self):
        assert digit_set(7).format_row() == "7: 0 2 3 4 6"

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            digit_set(8)


class TestScan:
    def test_reproduces_table(self):
        rows = scan_digit_sets(167, 4)
        assert {ds.p: ds.digits for ds in rows} == DIGIT_SET_TABLE

    def test_small_scan_empty(self):
        assert scan_digit_sets(6, 4) == []

    def test_min_size_nine(self):
        rows = scan_digit_sets(107, 9)
        assert [(ds.p, ds.digits) for ds in rows] == [
            (107, (0, 14, 21, 47, 53, 59, 85, 92, 106))
        ]

    @pytest.mark.parametrize("p_max", [2, 3, 13, 600])
    @pytest.mark.parametrize("min_size", [1, 4, 9])
    def test_min_size_filters_full_scan(self, p_max, min_size):
        full = scan_digit_sets(p_max, 1)
        assert scan_digit_sets(p_max, min_size) == [ds for ds in full if len(ds) >= min_size]

    def test_workers_do_not_change_result(self):
        assert scan_digit_sets(100, 3) == scan_digit_sets(100, 3, workers=4)

    def test_validation(self):
        with pytest.raises(ValueError):
            scan_digit_sets(1, 1)


class TestLucasModP:
    def test_small_primes(self):
        for p in (2, 3, 5, 7):
            report = verify_lucas_mod_p(p, (-15, 15))
            assert report.passed
            assert report.checked == p * 31
            assert report.to_dict()["pass"] is True

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            verify_lucas_mod_p(6, (0, 5))

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            verify_lucas_mod_p(5, (3, 2))


class TestGesselModP2:
    def test_small_primes(self):
        for p in (2, 3, 5, 7):
            report = verify_gessel_mod_p2(p, (-12, 12))
            assert report.passed

    def test_p3_derivatives_vanish_mod3(self):
        from apery.sequence import apery_deriv
        from oracles import rational_mod

        assert all(rational_mod(apery_deriv(d), 3).value == 0 for d in range(3))

    def test_wrong_table_slope_is_reported(self, monkeypatch):
        # A'(3) + 1 in the p = 7 table: the slope term p n A'(d) moves at
        # every n not divisible by 7, and n A(n) is a unit mod 7 for |n| <= 3
        real = apery.congruences.mod_p2_tables

        def wrong_slope(p):
            values, slopes = real(p)
            return values, [s + (d == 3) for d, s in enumerate(slopes)]

        monkeypatch.setattr(apery.congruences, "mod_p2_tables", wrong_slope)
        report = verify_gessel_mod_p2(7, (-3, 3))
        assert report.checked == 49
        assert [(c.d, c.n) for c in report.counterexamples] == [
            (3, n) for n in (-3, -2, -1, 1, 2, 3)
        ]


class TestP3Suite:
    def test_all_small_primes(self):
        for p in (2, 3, 5, 7, 11):
            report = verify_mod_p3_suite(p, (-10, 10))
            assert report.passed, p

    def test_rejects_bad_prime(self):
        with pytest.raises(ValueError):
            verify_mod_p3_suite(4, (0, 5))


class TestDigitSetLucas:
    def test_witnesses_for_excluded_digits(self):
        report = verify_digit_set_lucas(7, (-10, 10))
        assert report.passed and report.conclusive
        assert sorted({w.d for w in report.witnesses}) == [1, 5]

    def test_p5_default_range(self):
        report = verify_digit_set_lucas(5, (-10, 10))  # the CLI's default
        assert report.passed and report.conclusive
        assert sorted({w.d for w in report.witnesses}) == [1, 3]

    def test_p2_has_no_excluded_digits(self):
        report = verify_digit_set_lucas(2, (-10, 10))
        assert report.passed and report.conclusive
        assert report.witnesses == [] and report.unwitnessed == []

    def test_witness_soundness(self):
        # every recorded witness must reproduce from scratch, exactly
        report = verify_digit_set_lucas(11, (-11, 11))
        assert report.witnesses
        m = 11 * 11
        for w in report.witnesses:
            lhs = apery_fast(w.d + 11 * w.n) % m
            rhs = apery_fast(w.d) * apery_fast(w.n) % m
            assert (lhs, rhs) == (w.lhs.value, w.rhs.value)
            assert lhs != rhs

    def test_witness_at_minus_one_or_one(self):
        # the fact behind the CLI's default range -10..10: below 1000 every
        # digit outside D(p) fails at n = -1 or n = 1 (measured below 5000 too)
        for p in primes_upto(1000):
            report = verify_digit_set_lucas(p, (-1, 1))
            assert report.passed and report.conclusive, p

    def test_inconclusive_range_reported(self):
        # n = 0 can never witness a violation, so searching only {0} must
        # leave every excluded digit unwitnessed rather than "fail"
        report = verify_digit_set_lucas(5, (0, 0))
        assert report.passed
        assert not report.conclusive
        assert report.unwitnessed == [1, 3]
        assert report.notes

    def test_wrong_table_value_is_inconclusive(self, monkeypatch):
        # A(2) + 1 in the modular pass behind D(7) drops 2 and 4 from it; the
        # sweep's exact factors must then leave them unwitnessed, not
        # witnessed by the wrong value itself
        real = apery.congruences._recurrence_mod

        def wrong_value(q, top):
            for n, (x, den) in enumerate(real(q, top)):
                yield (x + den * (n == 2)) % q, den  # x/den is A(n) + 1 at n = 2

        monkeypatch.setattr(apery.congruences, "_recurrence_mod", wrong_value)
        report = verify_digit_set_lucas(7, (-10, 10))
        assert report.parameters["digits"] == [0, 3, 6]
        assert report.passed and not report.conclusive
        assert report.unwitnessed == [2, 4]


def _bump_digit_table(monkeypatch, p, d):
    """Make congruences.mod_p2_tables read A(d) + 1 in place of A(d) mod p^2."""
    real = apery.congruences.mod_p2_tables

    def bumped(q, cache=None):
        values, derivs = real(q)
        if q == p:
            values = [(a + (i == d)) % (q * q) for i, a in enumerate(values)]
        return values, derivs

    monkeypatch.setattr(apery.congruences, "mod_p2_tables", bumped)


class TestMultiDigit:
    # (p, alphabet, digit whose table entry is wrong) per law; the left side
    # must not read the table that gives the factors
    WRONG_TABLE = {"power": (7, {0, 3, 6}, 3), "product": (7, {0, 2, 6}, 2)}

    @pytest.mark.parametrize("law", sorted(WRONG_TABLE))
    def test_wrong_table_entry_fails(self, law, monkeypatch):
        p, alphabet, d = self.WRONG_TABLE[law]
        _bump_digit_table(monkeypatch, p, d)
        report = verify_multi_digit(p, alphabet, 3, law)
        assert not report.passed
        assert report.counterexamples[0].n == d

    def test_cli_corollary_fails_on_wrong_table(self, monkeypatch, capsys):
        from apery.cli import main

        _bump_digit_table(monkeypatch, 7, 3)
        assert main(["verify", "corollary", "--p", "7", "--depth", "2"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_power_law_base5(self):
        report = verify_multi_digit(5, {0, 2, 4}, 4, "power")
        assert report.passed
        assert report.checked == 3**4

    def test_unit_law(self):
        report = verify_multi_digit(7, {0, 6}, 3, "unit")
        assert report.passed
        assert report.parameters["modulus"] == str(343)

    def test_product_law_on_digit_subset(self):
        report = verify_multi_digit(7, {0, 2, 6}, 3, "product")
        assert report.passed

    def test_product_law_rejects_outside_digits(self):
        with pytest.raises(ValueError):
            verify_multi_digit(7, {0, 1}, 3, "product")

    def test_power_law_requires_exact_alphabet(self):
        with pytest.raises(ValueError):
            verify_multi_digit(7, {0, 6}, 3, "power")

    def test_unit_law_requires_p_at_least_5(self):
        with pytest.raises(ValueError):
            verify_multi_digit(3, {0, 2}, 3, "unit")

    def test_unknown_law(self):
        with pytest.raises(ValueError):
            verify_multi_digit(5, {0}, 2, "bogus")

    def test_unit_law_against_exact_values(self):
        report = verify_multi_digit(5, {0, 4}, 3, "unit")
        assert report.passed
        for digits in ((4,), (4, 0), (4, 4), (4, 0, 4)):
            n = 0
            for d in digits:
                n = n * 5 + d
            assert apery_fast(n) % 125 == 1

    def test_unit_law_reports_wrong_evaluator_value(self, monkeypatch):
        real = apery.congruences._dp_step

        # 300 is 606 in base 7, one of the eight n the law checks: the step
        # that reads its last digit 6 after the prefix 60 = 42
        def wrong_at_300(state, big, p, t):
            s0, *rest = real(state, big, p, t)
            return ((s0 + (big == 42 and t == 6)) % p**3, *rest)

        monkeypatch.setattr(apery.congruences, "_dp_step", wrong_at_300)
        report = verify_multi_digit(7, {0, 6}, 3, "unit")
        assert report.checked == 8
        assert [(c.d, c.n, c.lhs.value, c.rhs.value) for c in report.counterexamples] == [
            (None, 300, 2, 1)
        ]
        jsonschema.validate(report.to_dict(), SCHEMA)

    # at p = 2 and 3 only s0 mod p^2 of the DP state is meaningful
    def test_product_law_base2(self):
        report = verify_multi_digit(2, {0, 1}, 8, "product")
        assert report.passed
        assert report.checked == 2**8

    def test_power_law_base3(self):
        report = verify_multi_digit(3, {0, 1, 2}, 5, "power")
        assert report.passed
        assert report.checked == 3**5

    def test_power_law_base3_fails_on_wrong_table(self, monkeypatch):
        _bump_digit_table(monkeypatch, 3, 1)
        report = verify_multi_digit(3, {0, 1, 2}, 5, "power")
        assert not report.passed
        assert report.counterexamples[0].n == 1

    def test_one_dp_step_per_tree_node(self, monkeypatch):
        real = apery.congruences._dp_step
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        def forbidden(*args):
            raise AssertionError("the walk must not evaluate n from scratch")

        assert not hasattr(apery.congruences, "_apery_mod_pk")
        monkeypatch.setattr(apery.congruences, "_dp_step", counted)
        monkeypatch.setattr(apery.sequence, "_apery_mod_pk", forbidden)
        report = verify_multi_digit(7, {0, 3, 6}, 4, "power")
        assert report.passed and report.checked == 81
        assert len(calls) == 3 + 9 + 27 + 81


class TestFastPathConsistency:
    def test_report_lhs_recomputed_via_digit_route(self):
        # the sweeps reduce exact values; the digit route must agree on the
        # same grid (reflecting negative arguments first)
        cache = AperyCache()
        for p in (3, 5, 7):
            tables = mod_p2_tables(p)
            m = p * p
            for n in range(-12, 13):
                for d in range(p):
                    arg = d + p * n
                    exact = apery_fast(arg, cache) % m
                    digit = apery_mod_p2(arg if arg >= 0 else -1 - arg, p, tables).value
                    assert exact == digit


class TestSweepFailures:
    # A(17) + 1 in place of A(17) on a private memo (_corrupted_memo), and so
    # A(-18) + 1 by reflection: every case that reads index 17 or -18 must
    # fail, and nothing else may
    CASES = {
        "lucas-p": (
            lambda cache: verify_lucas_mod_p(5, (-4, 4), cache),
            45, [(2, -4, 1, 0), (2, 3, 1, 0)], [], [],
        ),
        "gessel-p2": (
            lambda cache: verify_gessel_mod_p2(5, (-4, 4), cache),
            45, [(2, -4, 11, 10), (2, 3, 11, 10)], [], [],
        ),
        "p3-suite-3": (
            lambda cache: verify_mod_p3_suite(3, (-6, 6), cache),
            39, [(0, -6, 6, 5), (2, 5, 6, 5)], [], [],
        ),
        "p3-suite-5": (
            lambda cache: verify_mod_p3_suite(5, (-18, 17), cache),
            72,
            [(0, -18, 110, 111), (4, -18, 110, 111), (0, 17, 110, 111), (4, 17, 110, 111)],
            [], [],
        ),
        "digitset-p2-5": (
            lambda cache: verify_digit_set_lucas(5, (-4, 4), cache),
            31, [(2, -4, 11, 10), (2, 3, 11, 10)], [(1, -3, 0, 15), (3, -3, 0, 10)], [],
        ),
        "digitset-p2-5-unwitnessed": (
            lambda cache: verify_digit_set_lucas(5, (3, 3), cache),
            5, [(2, 3, 11, 10)], [], [1, 3],
        ),
        "digitset-p2-7": (
            lambda cache: verify_digit_set_lucas(7, (-3, 2), cache),
            32, [(3, -3, 38, 37), (3, 2, 38, 37)], [(1, -3, 1, 22), (5, -3, 36, 15)], [],
        ),
    }

    # the p = 5 cases again, after a clean sweep has filled the shared memo's
    # table of 5 at every index they read (0..89): a table belongs to its
    # memo, so the residues of the shared memo's values must not answer for
    # the private memo's
    WARM = ["digitset-p2-5", "digitset-p2-5-unwitnessed", "gessel-p2", "lucas-p", "p3-suite-5"]

    @pytest.mark.parametrize(
        "name, warm",
        [(name, False) for name in sorted(CASES)] + [(name, True) for name in WARM],
        ids=[*sorted(CASES), *(f"{name}-warm" for name in WARM)],
    )
    def test_corrupted_value_is_reported(self, name, warm):
        if warm:
            assert verify_lucas_mod_p(5, (-18, 17)).passed
        run, checked, counterexamples, witnesses, unwitnessed = self.CASES[name]
        report = run(_corrupted_memo(17, 89))

        def cases(found):
            return [(c.d, c.n, c.lhs.value, c.rhs.value) for c in found]

        assert report.checked == checked
        assert cases(report.counterexamples) == counterexamples
        assert cases(report.witnesses) == witnesses
        assert report.unwitnessed == unwitnessed
        assert not report.passed
        jsonschema.validate(report.to_dict(), SCHEMA)

    @pytest.mark.parametrize(
        "verify", [verify_lucas_mod_p, verify_gessel_mod_p2], ids=["lucas-p", "gessel-p2"]
    )
    def test_value_off_by_q_is_reported(self, verify):
        # A(17) + q, q = 2^61 - 1, is reported as itself: the one case that
        # reads index 17 over n = 0..7 at p = 5 is (d, n) = (2, 3)
        q = sys.hash_info.modulus
        report = verify(5, (0, 7), AperyCache(apery_fast(k) + q * (k == 17) for k in range(41)))
        assert [(c.d, c.n) for c in report.counterexamples] == [(2, 3)]
        assert report.checked == 40 and not report.passed

    @pytest.mark.parametrize(
        "verify, table, p, d",
        [
            (verify_lucas_mod_p, "mod_p_table", 7, 2),
            (verify_mod_p3_suite, "mod_p2_tables", 3, 1),
        ],
        ids=["lucas-p", "p3-suite-3"],
    )
    def test_wrong_table_value_is_reported(self, monkeypatch, verify, table, p, d):
        # A(d) + 1 in the digit table: the case (d, 0) compares A(d) with
        # A(d) + 1.  No A(e) with e < p is divisible by p at p = 3 and 7, so
        # A(n) is a unit mod p and every case of digit d fails
        real = getattr(apery.congruences, table)

        def bump(values):
            return [a + (e == d) for e, a in enumerate(values)]

        def wrong_value(p):
            if table == "mod_p_table":
                return bump(real(p))
            values, slopes = real(p)
            return bump(values), slopes

        monkeypatch.setattr(apery.congruences, table, wrong_value)
        report = verify(p, (-3, 3))
        assert report.checked == 7 * p
        assert [(c.d, c.n) for c in report.counterexamples] == [(d, n) for n in range(-3, 4)]
        at_zero = report.counterexamples[3]
        assert at_zero.rhs.value == (at_zero.lhs.value + 1) % at_zero.lhs.modulus


def _corrupted_memo(bad, top):
    # a private memo of the exact prefix A(0), ..., A(top), built with the
    # public constructor, with A(bad) off by one; A(0) and A(1) are the
    # memo's own
    assert 2 <= bad <= top
    return AperyCache(apery_fast(k) + (k == bad) for k in range(top + 1))


def _reference_sweep(
    theorem, p, m, n_range, factors, cache, expected_to_fail=frozenset(), reads=None
):
    # the per-case loop: every case reduces A(n) and A(d + p n) afresh, with
    # n < 0 left to apery_fast's reflection; reads, when given, tallies each
    # exact read under its non-negative index
    lo, hi = n_range
    report = CongruenceReport(theorem, {"p": p, "n_lo": lo, "n_hi": hi})

    def reduced(i):
        if reads is not None:
            reads[i if i >= 0 else -1 - i] += 1
        return apery_fast(i, cache) % m

    if factors is None:  # digitset-p2's exact factors, reduced before the sweep
        factors = {d: (reduced(d), 0) for d in range(p)}
    digits = sorted(factors.items())
    for n in range(lo, hi + 1):
        an = reduced(n)
        for d, (a, s) in digits:
            lhs, rhs = reduced(d + p * n), (a + p * n * s) * an % m
            report.checked += 1
            if lhs == rhs:
                continue
            case = Counterexample(d, n, p, Residue(lhs, m), Residue(rhs, m))
            if d in expected_to_fail:
                report.witnesses.append(case)
                digits = [entry for entry in digits if entry[0] != d]
            else:
                report.counterexamples.append(case)
    report.unwitnessed = [d for d, _ in digits if d in expected_to_fail]
    if report.unwitnessed:
        report.notes.append(
            "no violating n found in range for some digits outside D(p); "
            "widen the range (existence is guaranteed)"
        )
    return report


def _reference_p3_suite_at_2(n_range, cache, reads):
    # verify_mod_p3_suite's p = 2 loop, case by case
    lo, hi = n_range
    report = CongruenceReport("p3-suite", {"p": 2, "n_lo": lo, "n_hi": hi})
    for n in range(lo, hi + 1):
        if reads is not None:
            reads[n if n >= 0 else -1 - n] += 1
        lhs, rhs = apery_fast(n, cache) % 8, pow(5, n if n >= 0 else n + 1, 8)
        report.checked += 1
        if lhs != rhs:
            report.counterexamples.append(
                Counterexample(None, n, 2, Residue(lhs, 8), Residue(rhs, 8))
            )
    return report


def _reference_report(verify, p, n_range, monkeypatch, cache=None, reads=None):
    if verify is verify_mod_p3_suite and p == 2:
        return _reference_p3_suite_at_2(n_range, cache, reads)
    with monkeypatch.context() as patched:
        patched.setattr(apery.congruences, "_sweep", functools.partial(_reference_sweep, reads=reads))
        return verify(p, n_range, cache)


def _counted_memo(top, reductions):
    # a private memo of the exact prefix A(0), ..., A(top) whose values tally
    # each reduction under their index in reductions; the equal A(0) and
    # A(1) leave the memo's own ints in place
    class Counted(int):
        def __mod__(self, m):
            reductions[self.k] += 1
            return int(self) % m

    values = [Counted(apery_fast(k)) for k in range(top + 1)]
    for k, value in enumerate(values):
        value.k = k
    return AperyCache(values)


def _row_indices(p, n_range, exact_factors=False):
    # the indices a sweep at p may read: k = n or -1-n for A(n), its row
    # p k, ..., p k + p - 1, and the digits d < p for exact factors
    heads = {n if n >= 0 else -1 - n for n in range(n_range[0], n_range[1] + 1)}
    rows = {p * k + d for k in heads for d in range(p)}
    return heads | rows | (set(range(p)) if exact_factors else set())


class TestReadOnce:
    CASES = {
        "lucas-p-5": (verify_lucas_mod_p, 5),
        "gessel-p2-7": (verify_gessel_mod_p2, 7),
        "p3-suite-2": (verify_mod_p3_suite, 2),
        "p3-suite-3": (verify_mod_p3_suite, 3),
        "p3-suite-5": (verify_mod_p3_suite, 5),
        "digitset-p2-5": (verify_digit_set_lucas, 5),
    }

    def test_one_reduction_per_prime_and_index(self):
        # four theorem ids at p = 5 over overlapping ranges on one memo whose
        # values count their reductions: each held value is reduced at most
        # once, however many sweeps and moduli (5, 25, 125) read it, and only
        # up to the last row any sweep reads.  On a fresh memo, the offset
        # range n = 7..9 reduces the prefix up to its last row, A(0..49),
        # and no value twice.  A(0) and A(1) are the memo's own ints, so
        # only k >= 2 is counted
        reductions = Counter()
        cache = _counted_memo(59, reductions)
        sweeps = [
            (verify_lucas_mod_p, (-6, 5), False),
            (verify_gessel_mod_p2, (-3, 8), False),
            (verify_mod_p3_suite, (-8, 3), False),
            (verify_digit_set_lucas, (-5, 5), True),
        ]
        assert all(verify(5, n_range, cache).passed for verify, n_range, _ in sweeps)
        read = [_row_indices(5, n_range, exact) for _, n_range, exact in sweeps]
        assert sum(map(len, read)) > len(set().union(*read))  # indices in common
        assert max(reductions.values()) == 1
        assert set(reductions) <= set(range(max(map(max, read)) + 1))

        reductions.clear()
        assert verify_gessel_mod_p2(5, (7, 9), _counted_memo(59, reductions)).passed
        assert max(reductions.values()) == 1 and set(reductions) <= set(range(50))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_warm_sweep_asks_the_memo_once(self, name, monkeypatch):
        # a warm sweep over a range through zero reads its rows, A(n) and
        # any exact factors with one AperyCache.residues call, which makes
        # no exact step and reduces no value
        verify, p = self.CASES[name]
        reductions = Counter()
        cache = _counted_memo(p * 41 - 1, reductions)
        assert verify(p, (-40, 30), cache).passed
        reductions.clear()
        calls = Counter()

        def counted(label, real):
            def call(*args):
                calls[label] += 1
                return real(*args)

            return call

        monkeypatch.setattr(AperyCache, "residues", counted("residues", AperyCache.residues))
        monkeypatch.setattr(AperyCache, "put", counted("put", AperyCache.put))
        monkeypatch.setattr(
            apery.sequence, "_recurrence_step", counted("step", apery.sequence._recurrence_step)
        )
        assert verify(p, (-40, 30), cache).passed
        assert calls == {"residues": 1} and not reductions


class TestPrefixMemo:
    # a memo that holds the prefix A(0..top/2), short of top, the last
    # index the sweep reads: the walk makes every value past it, so each
    # report is the one from a fresh memo
    CASES = {
        "lucas-p": (verify_lucas_mod_p, 5, (0, 19), 99),
        "gessel-p2": (verify_gessel_mod_p2, 5, (0, 19), 99),
        "p3-suite-5": (verify_mod_p3_suite, 5, (0, 19), 99),
        "digitset-p2": (verify_digit_set_lucas, 5, (0, 19), 99),
        "p3-suite-2": (verify_mod_p3_suite, 2, (0, 40), 40),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_report_as_on_a_fresh_memo(self, name):
        verify, p, n_range, top = self.CASES[name]
        got = verify(p, n_range, AperyCache(map(apery.sequence.apery, range(top // 2))))
        assert got.to_dict() == verify(p, n_range, AperyCache()).to_dict()
        assert got.passed


class TestSameReport:
    # the four sweep families against the per-case loop, on seeded random
    # primes <= 31 and ranges of both signs, clean and with one exact value
    # corrupted at a random index that the range reads
    FAMILIES = {
        "lucas-p": verify_lucas_mod_p,
        "gessel-p2": verify_gessel_mod_p2,
        "p3-suite": verify_mod_p3_suite,
        "digitset-p2": verify_digit_set_lucas,
    }

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_reference(self, family, seed, monkeypatch):
        verify = self.FAMILIES[family]
        rng = random.Random(f"{family}-{seed}")
        for _ in range(3):
            p = rng.choice(primes_upto(31))
            lo = rng.randint(-40, 25)
            n_range = (lo, lo + rng.randint(0, 20))
            reads = Counter()
            want = _reference_report(verify, p, n_range, monkeypatch, reads=reads).to_dict()
            assert want["pass"] and verify(p, n_range).to_dict() == want

            # A(bad) off by one on a private memo, at an index the range reads
            bad = rng.choice(sorted(k for k in reads if k >= 2))
            cache = _corrupted_memo(bad, max(reads))
            got = verify(p, n_range, cache).to_dict()
            assert got == _reference_report(verify, p, n_range, monkeypatch, cache).to_dict()

    @pytest.mark.parametrize("name", sorted(TestReadOnce.CASES))
    def test_cold_and_warm_tables(self, name, monkeypatch):
        # on a fresh memo the first sweep reduces every value it reads, the
        # repeat of its range reads only stored residues, and the wider range
        # reads some of each
        verify, p = TestReadOnce.CASES[name]
        cache = AperyCache()
        for n_range in ((-6, 5), (-6, 5), (-11, 8)):
            got = verify(p, n_range, cache).to_dict()
            assert got == _reference_report(verify, p, n_range, monkeypatch).to_dict()

    def _clean_and_corrupted(self, verify, p, n_range, monkeypatch, bads=None):
        # the report on the shared memo, then on a private memo with A(bad)
        # off by one for each bad (by default each index >= 2 the range
        # reads), each against the per-case loop
        reads = Counter()
        want = _reference_report(verify, p, n_range, monkeypatch, reads=reads).to_dict()
        assert want["pass"] and verify(p, n_range).to_dict() == want
        for bad in sorted(k for k in reads if k >= 2) if bads is None else bads:
            cache = _corrupted_memo(bad, max(reads))
            got = verify(p, n_range, cache).to_dict()
            assert got == _reference_report(verify, p, n_range, monkeypatch, cache).to_dict()

    @pytest.mark.parametrize("p", [47, 61, 83, 101])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_session_pool_primes(self, family, p, monkeypatch):
        # the larger primes of the benchmark's session pool, over a range
        # through zero, clean and with one of five indices in the rows of
        # k = 0 and 1 wrong
        bads = (2, p - 1, p, p + 1, 2 * p - 2)
        self._clean_and_corrupted(self.FAMILIES[family], p, (-2, 1), monkeypatch, bads)

    @pytest.mark.parametrize(
        "n_range",
        [(-9, -2), (-5, -1), (0, 6), (3, 8), (-1, -1), (0, 0)],
        ids=["below-zero", "up-to-minus-one", "from-zero", "above-zero", "minus-one", "zero"],
    )
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_half_spans(self, family, n_range, monkeypatch):
        # a range on one side of zero leaves the other half empty; no slice
        # of an empty half may wrap round to the end of the prefix
        for p in (2, 3, 5, 7):
            self._clean_and_corrupted(self.FAMILIES[family], p, n_range, monkeypatch)

    @pytest.mark.parametrize("family", ["gessel-p2", "lucas-p"])
    def test_two_wrong_values_listed_by_n_then_digit(self, family, monkeypatch):
        # A(16) = A(1 + 5*3) and A(8) = A(3 + 5*1) off by one: the cases
        # that read them are (d, n) = (3, -4), (1, -2), (3, 1), (1, 3), by
        # reflection for n < 0, listed by n; by digit they would be
        # (1, -2), (1, 3), (3, -4), (3, 1)
        verify = self.FAMILIES[family]
        cache = AperyCache(apery_fast(k) + (k in (8, 16)) for k in range(25))
        got = verify(5, (-4, 4), cache)
        assert [(c.d, c.n) for c in got.counterexamples] == [(3, -4), (1, -2), (3, 1), (1, 3)]
        want = _reference_report(verify, 5, (-4, 4), monkeypatch, cache)
        assert got.to_dict() == want.to_dict()

    def test_witnesses_on_both_sides_of_zero(self, monkeypatch):
        # D(11) = {0, 5, 10}, and each other digit fails first at n = -1 on
        # the true values.  With A(9) made A(1), digits 1 and 9 hold at
        # n = -1 (A(9) against A(1) A(0)) and at n = 0 (the exact factors
        # read the same A(9)), so their witnesses come at n = 1, after the
        # n = -1 witnesses of the digits between them
        values = [apery_fast(k) for k in range(33)]
        values[9] = values[1]
        cache = AperyCache(values)
        got = verify_digit_set_lucas(11, (-1, 2), cache)
        assert got.parameters["digits"] == [0, 5, 10]
        assert [(w.d, w.n) for w in got.witnesses] == [
            (2, -1), (3, -1), (4, -1), (6, -1), (7, -1), (8, -1), (1, 1), (9, 1),
        ]
        assert got.checked == 3 * 4 + 6 * 1 + 2 * 3
        want = _reference_report(verify_digit_set_lucas, 11, (-1, 2), monkeypatch, cache)
        assert got.to_dict() == want.to_dict()
