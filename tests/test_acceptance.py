"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them)."""

import time
from fractions import Fraction

from apery.arith import jacobsthal_holds, primes_upto, wolstenholme_residue
from apery.congruences import (
    scan_digit_sets,
    verify_digit_set_lucas,
    verify_gessel_mod_p2,
    verify_lucas_mod_p,
    verify_mod_p3_suite,
    verify_multi_digit,
)
from apery.function import apery_eval, functional_equation_residual
from apery.mzv import reduced_form_residual, taylor_identity_holds
from apery.sequence import (
    apery,
    apery_deriv,
    apery_mod_p2,
    apery_mod_sweep,
    apery_via_recurrence,
    mod_p2_tables,
    shared_cache,
)

APERY_HEAD = [1, 5, 73, 1445, 33001, 819005, 21460825, 584307365]
DERIV_HEAD = [
    Fraction(0),
    Fraction(12),
    Fraction(210),
    Fraction(4438),
    Fraction(104825),
    Fraction(13276637, 5),
    Fraction(70543291),
    Fraction(67890874657, 35),
]

DIGIT_SET_TABLE_TEXT = """\
7: 0 2 3 4 6
23: 0 7 11 15 22
43: 0 5 18 21 24 37 42
59: 0 6 29 52 58
79: 0 18 39 60 78
103: 0 17 51 85 102
107: 0 14 21 47 53 59 85 92 106
127: 0 17 63 109 126
131: 0 62 65 68 130
139: 0 68 69 70 138
151: 0 19 75 131 150
167: 0 35 64 83 102 131 166"""


def report(name, ok, t0, budget, detail=""):
    elapsed = time.time() - t0
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} "
          f"[{elapsed:.1f}s / {budget:.0f}s]{detail}")
    assert ok, name
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def test_01_sequence_fidelity():
    t0 = time.time()
    ok = [apery(n) for n in range(8)] == APERY_HEAD
    ok = ok and [apery_deriv(n) for n in range(8)] == DERIV_HEAD
    report("1 sequence-fidelity", ok, t0, 1)


def test_02_dual_method_equivalence():
    t0 = time.time()
    cache = shared_cache()
    ok = all(apery(n) == apery_via_recurrence(n, cache) for n in range(2001))
    report("2 dual-method", ok, t0, 60)


def test_03_digit_set_table():
    t0 = time.time()
    rows = scan_digit_sets(167, 4, cache=shared_cache())
    got = "\n".join(ds.format_row() for ds in rows)
    report("3 digit-set-table", got == DIGIT_SET_TABLE_TEXT, t0, 60)


def test_04_taylor_identity_at_truncation():
    t0 = time.time()
    ok = all(
        taylor_identity_holds(m, N) for m in range(1, 13) for N in range(51)
    )
    report("4 taylor-identity", ok, t0, 120)


def test_05_reduced_forms():
    t0 = time.time()
    ok = True
    details = []
    for m in (4, 6, 8, 10):
        residual = reduced_form_residual(m, 10_000)
        details.append(f"m={m}:{residual:.2e}")
        ok = ok and residual < 1e-5
    recorded = reduced_form_residual(12, 10_000)
    details.append(f"m=12:{recorded:.2e} (recorded)")
    report("5 reduced-forms", ok, t0, 120, " " + " ".join(details))


def test_06_congruence_sweeps():
    t0 = time.time()
    cache = shared_cache()
    ok = True

    part = time.time()
    for p in primes_upto(31):
        r = verify_lucas_mod_p(p, (-50, 50), cache)
        ok = ok and r.passed
    print(f"  lucas-p p<=31 n in [-50,50]: {'PASS' if ok else 'FAIL'} "
          f"[{time.time()-part:.1f}s]")

    part = time.time()
    sub = True
    for p in primes_upto(31):
        r = verify_gessel_mod_p2(p, (-50, 50), cache)
        sub = sub and r.passed
    ok = ok and sub
    print(f"  gessel-p2 p<=31 n in [-50,50]: {'PASS' if sub else 'FAIL'} "
          f"[{time.time()-part:.1f}s]")

    part = time.time()
    sub = True
    for p in (2, 3, 5, 7, 11, 13):
        r = verify_mod_p3_suite(p, (-50, 50), cache)
        sub = sub and r.passed
    ok = ok and sub
    print(f"  p3-suite p in {{2,3,5,7,11,13}}: {'PASS' if sub else 'FAIL'} "
          f"[{time.time()-part:.1f}s]")

    part = time.time()
    sub = True
    for p in (5, 7, 23, 43):
        r = verify_digit_set_lucas(p, (-p, p), cache)
        sub = sub and r.passed and r.conclusive
    ok = ok and sub
    print(f"  digitset-p2 p in {{5,7,23,43}} |n|<=p: {'PASS' if sub else 'FAIL'} "
          f"[{time.time()-part:.1f}s]")

    part = time.time()
    sub = True
    for p in (5, 7, 11):
        r = verify_multi_digit(p, {0, (p - 1) // 2, p - 1}, 4, "power")
        sub = sub and r.passed
    ok = ok and sub
    print(f"  corollary p in {{5,7,11}} depth 4: {'PASS' if sub else 'FAIL'} "
          f"[{time.time()-part:.1f}s]")

    part = time.time()
    sub = True
    for p in (5, 7):
        r = verify_multi_digit(p, {0, p - 1}, 5, "unit")
        sub = sub and r.passed
    ok = ok and sub
    print(f"  lucas-p3 p in {{5,7}} depth 5: {'PASS' if sub else 'FAIL'} "
          f"[{time.time()-part:.1f}s]")

    report("6 congruence-sweeps", ok, t0, 600)


def test_07_base5_power_law():
    t0 = time.time()
    cache = shared_cache()
    tables = mod_p2_tables(5, cache)
    assert tables[0][2] == 23  # A(2) = 73 = 23 mod 25
    numbers = []
    ok = True
    for n in range(5**6):
        digits = []
        rest = n
        while rest:
            rest, d = divmod(rest, 5)
            digits.append(d)
        if any(d not in (0, 2, 4) for d in digits):
            continue
        numbers.append(n)
        e2 = sum(1 for d in digits if d == 2)
        ok = ok and apery_mod_p2(n, 5, tables).value == pow(23, e2, 25)
    ok = ok and len(numbers) == 3**6
    # exact spot check of the digit route on a deterministic subsample
    sample = numbers[::37]
    exact = apery_mod_sweep(sample, 25)
    ok = ok and all(apery_mod_p2(n, 5, tables).value == exact[n] for n in sample)
    report("7 base5-power-law", ok, t0, 60)


def test_08_analytic_checks():
    t0 = time.time()
    points = (0.5, 0.25, -0.5, 0.3 + 0.2j)
    ok = all(functional_equation_residual(z, 100_000) < 1e-3 for z in points)
    ok = ok and all(
        abs(apery_eval(z, 100_000).value - apery_eval(-1 - z, 100_000).value) < 1e-6
        for z in points
    )
    h = 1e-4
    for n in (1, 2, 3):
        fd = (
            apery_eval(n + h, 2000).value.real - apery_eval(n - h, 2000).value.real
        ) / (2 * h)
        ok = ok and abs(fd - float(apery_deriv(n))) < 1e-3
    report("8 analytic-checks", ok, t0, 120)


def test_09_classical_ingredients():
    t0 = time.time()
    ok = all(
        wolstenholme_residue(p).value == 0 for p in primes_upto(200) if p >= 5
    )
    ok = ok and all(
        jacobsthal_holds(a, b, p)
        for p in primes_upto(31)
        if p >= 5
        for a in range(9)
        for b in range(a + 1)
    )
    report("9 classical-ingredients", ok, t0, 60)


def test_10_mod_p2_digit_route_budget(capsys):
    # `apery 10**21 --mod 1009**2`; 216470 is the answer of the digit route
    # with tables from exact values and harmonic sums
    from apery.cli import main

    t0 = time.time()
    code = main(["apery", str(10**21), "--mod", str(1009**2)])
    out = capsys.readouterr().out
    with capsys.disabled():
        report("10 mod-p2-budget", code == 0 and out == "216470\n", t0, 5)


def test_11_mod_p3_unit_law_budget(capsys):
    # `verify lucas-p3 --p 7 --depth 6`: A(n) = 1 mod 343 for the 64 n below
    # 7^6 with digits 0 and 6, from the p-adic evaluator
    from apery.cli import main

    t0 = time.time()
    code = main(["verify", "lucas-p3", "--p", "7", "--depth", "6"])
    out = capsys.readouterr().out
    with capsys.disabled():
        report("11 mod-p3-unit-budget", code == 0 and "PASS" in out, t0, 5)


def test_12_gessel_large_prime_budget(capsys):
    # `verify gessel-p2 --p 2003 --n 0..1`: the factors A(d), A'(d) mod p^2
    # come from the digit tables, both sides from exact values
    from apery.cli import main

    t0 = time.time()
    code = main(["verify", "gessel-p2", "--p", "2003", "--n", "0..1"])
    out = capsys.readouterr().out
    with capsys.disabled():
        report(
            "12 gessel-large-prime-budget",
            code == 0 and out == "gessel-p2: PASS (4006 cases)\n",
            t0,
            5,
        )
