"""Digit sets and the congruence verification sweeps."""

import json
from pathlib import Path

import jsonschema
import pytest

import apery.congruences
from apery.congruences import (
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
        # digit_set runs the modular recurrence; scan_digit_sets and this
        # test reduce exact values
        from apery.arith import primes_upto

        exact = [apery_fast(d) for d in range(113)]
        primes = primes_upto(113)
        for p in primes:
            m = p * p
            digits = tuple(d for d in range(p) if exact[d] % m == exact[p - 1 - d] % m)
            assert digit_set(p).digits == digits
        assert scan_digit_sets(113, 1) == [digit_set(p) for p in primes]

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
        from apery.arith import rational_mod
        from apery.sequence import apery_deriv

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
        report = verify_digit_set_lucas(5)
        assert report.passed and report.conclusive
        assert sorted({w.d for w in report.witnesses}) == [1, 3]

    def test_p2_has_no_excluded_digits(self):
        report = verify_digit_set_lucas(2, (-10, 10))
        assert report.passed and report.conclusive
        assert report.witnesses == [] and report.unwitnessed == []

    def test_witness_soundness(self):
        # every recorded witness must reproduce from scratch, exactly
        report = verify_digit_set_lucas(11)
        assert report.witnesses
        m = 11 * 11
        for w in report.witnesses:
            lhs = apery_fast(w.d + 11 * w.n) % m
            rhs = apery_fast(w.d) * apery_fast(w.n) % m
            assert (lhs, rhs) == (w.lhs.value, w.rhs.value)
            assert lhs != rhs

    def test_inconclusive_range_reported(self):
        # n = 0 can never witness a violation, so searching only {0} must
        # leave every excluded digit unwitnessed rather than "fail"
        report = verify_digit_set_lucas(5, (0, 0))
        assert report.passed
        assert not report.conclusive
        assert report.unwitnessed == [1, 3]
        assert report.notes

    def test_wrong_table_value_is_inconclusive(self, monkeypatch):
        # A(2) + 1 in the p = 7 table drops 2 and 4 from D(7); the sweep's
        # exact factors must then leave them unwitnessed, not witnessed by
        # the wrong value itself
        real = apery.congruences._digit_tables

        def wrong_value(p, m, derivs, top=None):
            values, slopes = real(p, m, derivs, top)
            return [a + (d == 2) for d, a in enumerate(values)], slopes

        monkeypatch.setattr(apery.congruences, "_digit_tables", wrong_value)
        report = verify_digit_set_lucas(7, (-10, 10))
        assert report.parameters["digits"] == [0, 3, 6]
        assert report.passed and not report.conclusive
        assert report.unwitnessed == [2, 4]


class TestMultiDigit:
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
        real = apery.congruences._apery_mod_pk

        # 300 is 606 in base 7, one of the eight n the law checks
        def wrong_at_300(n, p, e):
            return (real(n, p, e) + (n == 300)) % p**e

        monkeypatch.setattr(apery.congruences, "_apery_mod_pk", wrong_at_300)
        report = verify_multi_digit(7, {0, 6}, 3, "unit")
        assert report.checked == 8
        assert [(c.d, c.n, c.lhs.value, c.rhs.value) for c in report.counterexamples] == [
            (None, 300, 2, 1)
        ]
        jsonschema.validate(report.to_dict(), SCHEMA)


class TestFastPathConsistency:
    def test_report_lhs_recomputed_via_digit_route(self):
        # the sweeps reduce exact values; the digit route must agree on the
        # same grid (reflecting negative arguments first)
        cache = AperyCache()
        for p in (3, 5, 7):
            tables = mod_p2_tables(p, cache)
            m = p * p
            for n in range(-12, 13):
                for d in range(p):
                    arg = d + p * n
                    exact = apery_fast(arg, cache) % m
                    digit = apery_mod_p2(arg if arg >= 0 else -1 - arg, p, tables).value
                    assert exact == digit


class TestSweepFailures:
    # A(17) + 1 in place of A(17), and so A(-18) + 1 by reflection: every
    # case that reads index 17 or -18 must fail, and nothing else may
    CASES = {
        "lucas-p": (
            lambda: verify_lucas_mod_p(5, (-4, 4)),
            45, [(2, -4, 1, 0), (2, 3, 1, 0)], [], [],
        ),
        "gessel-p2": (
            lambda: verify_gessel_mod_p2(5, (-4, 4)),
            45, [(2, -4, 11, 10), (2, 3, 11, 10)], [], [],
        ),
        "p3-suite-3": (
            lambda: verify_mod_p3_suite(3, (-6, 6)),
            39, [(0, -6, 6, 5), (2, 5, 6, 5)], [], [],
        ),
        "p3-suite-5": (
            lambda: verify_mod_p3_suite(5, (-18, 17)),
            72,
            [(0, -18, 110, 111), (4, -18, 110, 111), (0, 17, 110, 111), (4, 17, 110, 111)],
            [], [],
        ),
        "digitset-p2-5": (
            lambda: verify_digit_set_lucas(5, (-4, 4)),
            31, [(2, -4, 11, 10), (2, 3, 11, 10)], [(1, -3, 0, 15), (3, -3, 0, 10)], [],
        ),
        "digitset-p2-5-unwitnessed": (
            lambda: verify_digit_set_lucas(5, (3, 3)),
            5, [(2, 3, 11, 10)], [], [1, 3],
        ),
        "digitset-p2-7": (
            lambda: verify_digit_set_lucas(7, (-3, 2)),
            32, [(3, -3, 38, 37), (3, 2, 38, 37)], [(1, -3, 1, 22), (5, -3, 36, 15)], [],
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_corrupted_value_is_reported(self, name, monkeypatch):
        def corrupted(n, cache=None):
            return apery_fast(n, cache) + (n in (17, -18))

        monkeypatch.setattr(apery.congruences, "apery_fast", corrupted)
        run, checked, counterexamples, witnesses, unwitnessed = self.CASES[name]
        report = run()

        def cases(found):
            return [(c.d, c.n, c.lhs.value, c.rhs.value) for c in found]

        assert report.checked == checked
        assert cases(report.counterexamples) == counterexamples
        assert cases(report.witnesses) == witnesses
        assert report.unwitnessed == unwitnessed
        assert not report.passed
        jsonschema.validate(report.to_dict(), SCHEMA)
