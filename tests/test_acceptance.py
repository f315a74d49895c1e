"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them)."""

import cmath
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

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
from apery.mzv import reduced_form_residuals, taylor_coeff_float, taylor_identity_holds
from apery.sequence import (
    apery,
    apery_deriv,
    apery_fast,
    apery_mod_p2,
    apery_mod_sweep,
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
          f"[{elapsed:.1f}s / {budget:g}s]{detail}")
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
    ok = all(apery(n) == apery_fast(n, cache) for n in range(2001))
    report("2 dual-method", ok, t0, 60)


def test_03_digit_set_table():
    t0 = time.time()
    rows = scan_digit_sets(167, 4)
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
        residual = reduced_form_residuals([m], 10_000)[0]
        details.append(f"m={m}:{residual:.2e}")
        ok = ok and residual < 1e-5
    recorded = reduced_form_residuals([12], 10_000)[0]
    details.append(f"m=12:{recorded:.2e} (recorded)")
    report("5 reduced-forms", ok, t0, 120, " " + " ".join(details))


def test_06_congruence_sweeps():
    t0 = time.time()
    ok = True

    part = time.time()
    for p in primes_upto(31):
        r = verify_lucas_mod_p(p, (-50, 50))
        ok = ok and r.passed
    print(f"  lucas-p p<=31 n in [-50,50]: {'PASS' if ok else 'FAIL'} "
          f"[{time.time()-part:.1f}s]")

    part = time.time()
    sub = True
    for p in primes_upto(31):
        r = verify_gessel_mod_p2(p, (-50, 50))
        sub = sub and r.passed
    ok = ok and sub
    print(f"  gessel-p2 p<=31 n in [-50,50]: {'PASS' if sub else 'FAIL'} "
          f"[{time.time()-part:.1f}s]")

    part = time.time()
    sub = True
    for p in (2, 3, 5, 7, 11, 13):
        r = verify_mod_p3_suite(p, (-50, 50))
        sub = sub and r.passed
    ok = ok and sub
    print(f"  p3-suite p in {{2,3,5,7,11,13}}: {'PASS' if sub else 'FAIL'} "
          f"[{time.time()-part:.1f}s]")

    part = time.time()
    sub = True
    for p in (5, 7, 23, 43):
        r = verify_digit_set_lucas(p, (-p, p))
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
    tables = mod_p2_tables(5)
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


def test_13_cache_round_trip_budget(tmp_path):
    # cache_store then cache_load of A(8000..8800), about 10.3 million
    # decimal digits; the values are built outside the timer
    from apery.cachefile import cache_load, cache_store
    from apery.sequence import AperyCache

    cache = AperyCache()
    apery_fast(8800, cache)
    values = {n: cache.get(n) for n in range(8000, 8801)}
    path = tmp_path / "values.cache"
    t0 = time.time()
    cache_store(path, values)
    ok = cache_load(path) == values
    report("13 cache-round-trip-budget", ok, t0, 1)


def test_14_digit_set_scan_budget():
    # `digits --scan 5000`: one modular pass per block of primes; D(4999)
    # and D(4993) are checked against exact A(0..p-1), built outside the timer
    from apery.sequence import AperyCache

    cache = AperyCache()
    exact = [apery_fast(d, cache) for d in range(4999)]
    want = {
        p: tuple(d for d in range(p) if (exact[d] - exact[p - 1 - d]) % (p * p) == 0)
        for p in (4999, 4993)
    }
    del exact, cache
    t0 = time.time()
    sets = {ds.p: ds.digits for ds in scan_digit_sets(5000, 1)}
    ok = len(sets) == len(primes_upto(5000)) and all(sets[p] == want[p] for p in want)
    report("14 digit-set-scan-budget", ok, t0, 2)


def test_15_symmetric_sweep_budget(monkeypatch):
    # `verify lucas-p --p 5 --n -1000..999`, `verify gessel-p2 --p 101
    # --n -49..49` and `verify p3-suite --p 2 --n -5000..4999`: n and -1-n
    # read the same row, and the rows of each prime are built once, from the
    # digit DP at each multiple of p (0.03-0.04 s here when cold).  The
    # shared memo that p = 2's rows mask is warmed to A(5000) outside the
    # timer, so the budget covers the rows, not the exact prefix, and every
    # table is built cold: the test has a store of its own
    import apery.congruences

    apery_fast(5000)
    monkeypatch.setattr(apery.congruences, "_tables", {})
    t0 = time.time()
    reports = [
        verify_lucas_mod_p(5, (-1000, 999)),
        verify_gessel_mod_p2(101, (-49, 49)),
        verify_mod_p3_suite(2, (-5000, 4999)),
    ]
    ok = all(r.passed for r in reports) and [r.checked for r in reports] == [10000, 9999, 10000]
    report("15 symmetric-sweep-budget", ok, t0, 0.2)


def test_16_padic_middle_digits_budget():
    # A(n) mod 7^3 from the p-adic digit DP at n = (7^25 - 1)/2, 25 base-7
    # digits that are all 3 (about 4^25 carry-free summands), and at
    # n = 10^21; each is checked mod 49 against the Gessel digit route
    from apery.sequence import _apery_mod_pk

    t0 = time.time()
    values = {n: _apery_mod_pk(n, 7, 3) for n in ((7**25 - 1) // 2, 10**21)}
    ok = all(r % 49 == apery_mod_p2(n, 7).value for n, r in values.items())
    report("16 padic-middle-digits-budget", ok, t0, 1)


def test_17_mzv_float_memory():
    # `taylor 8 --float --N 30000`: the weight passes hold the float(v^2)
    # table and two weight arrays of 2N doubles, written in place, with
    # T_0 = 1 and the fourth powers streamed (1.5 MiB traced here); the
    # suffix trie peaked at 1.9 MiB and a list tail per composition at
    # 3.9 MiB
    budget_mib = 2.5
    tracemalloc.start()
    try:
        t0 = time.time()
        value = taylor_coeff_float(8, 30000)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    # a_8 from a 30-digit Cauchy integral of A(z) on |z| = 1 (mpmath)
    ok = abs(value + 0.5047733465288571) < 1e-7 and peak < budget_mib
    report("17 mzv-float-memory", ok, t0, 5, f" peak {peak:.2f} MiB / {budget_mib} MiB")


def test_18_eval_many_terms():
    # `eval Z --terms 10000000` at five points and `verify functional-eq`
    # at two: the loop sums a few thousand terms and the asymptotic
    # expansion the rest, about 0.03 s in all here; summing every term took
    # 3-4 s per 10^7-term call.  Terms 4000 .. 10^7 - 1 must sum to the
    # leading tail sin(pi z)^2/pi^2 (1/4000 - 1/10^7) within 1 %.
    n = 10**7
    t0 = time.time()
    ok = True
    for z in (0.5, -0.5 + 0.3j, 0.3 + 0.2j, -2.35, 2.5 - 0.6j):
        got = apery_eval(z, n)
        rest = got.value - apery_eval(z, 4000).value
        model = abs(cmath.sin(cmath.pi * z)) ** 2 / math.pi**2 * (1 / 4000 - 1 / n)
        ok = ok and got.terms == n and abs(abs(rest) / model - 1) < 0.01
    ok = ok and all(functional_equation_residual(z, n) < 1e-7 for z in (0.25 + 0.25j, -0.5 + 0.3j))
    report("18 eval-many-terms", ok, t0, 0.5)


def test_19_residue_table_memory(monkeypatch):
    # the residue rows mod p^3 that the sweeps keep, for the 12 largest
    # primes below 100 at every index 0..10^4, each table filled by one read:
    # one array('q') per prime is 0.96 MiB traced here; a list per prime
    # took 4.6 MiB and a dict 10.2.  The timed fill, on a fresh store, runs
    # untraced, 0.16-0.3 s here: traced, the recurrence's small ints took
    # 4.7 s.  A second fill is traced, after the first made the digit DP's
    # cached sums, so the trace holds the tables alone.  The oracle is one exact pass to 10^4,
    # reduced per prime
    import apery.congruences

    budget_mib = 1.25
    top = 10**4
    primes = primes_upto(100)[-12:]
    monkeypatch.setattr(apery.congruences, "_tables", {})
    t0 = time.time()
    for p in primes:
        apery.congruences._rows(p, top)
    elapsed = time.time() - t0
    monkeypatch.setattr(apery.congruences, "_tables", {})
    tracemalloc.start()
    try:
        for p in primes:
            apery.congruences._rows(p, top)
        size = tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        tracemalloc.stop()
    picks = (0, 1, 57, top)
    exact = apery_mod_sweep(picks, math.prod(p**3 for p in primes))
    ok = size < budget_mib and all(
        [apery.congruences._rows(p, top)[k] for k in picks] == [exact[k] % p**3 for k in picks]
        for p in primes
    )
    detail = f" {size:.2f} MiB / {budget_mib} MiB"
    # the budget covers the untraced fill alone
    report("19 residue-table-memory", ok, time.time() - elapsed, 5, detail)


def test_20_padic_dp_leaves_no_prefix_states():
    # A(n) mod 101^2 from the p-adic digit DP at n = 10^20000 + 12345, about
    # 10^4 base-101 digits, checked against the Gessel digit route.  The DP
    # keeps one state at a time: 0.08 MiB stays traced, the digit sums of
    # p = 101, in 1.0 s traced on 2 vCPUs (0.1 s untraced).  A cache of one
    # state per prefix of n kept 28.55 MiB of big-int keys alive
    from apery.sequence import _apery_mod_pk

    budget_mib = 1
    n = 10**20000 + 12345
    expected = apery_mod_p2(n, 101).value
    tracemalloc.start()
    try:
        t0 = time.time()
        value = _apery_mod_pk(n, 101, 2)
        size = tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        tracemalloc.stop()
    ok = size < budget_mib and value == expected
    report("20 padic-dp-memory", ok, t0, 3, f" {size:.2f} MiB / {budget_mib} MiB")


def test_21_long_n_digit_split_budget():
    # A(n) mod 101 and mod 101^2 at n = 10^40000 + 12345, about 2 * 10^4
    # base-101 digits, by both digit routes and the p-adic digit DP, which
    # must agree.  Each splits n into its digits once, by divide and
    # conquer: 0.2 s for the three on 2 vCPUs.  Peeling one digit per
    # divmod of the whole remaining n took 2.2 s, most of it in the splits
    from apery.sequence import _apery_mod_pk, apery_mod_p

    n = 10**40000 + 12345
    t0 = time.time()
    residue_p = apery_mod_p(n, 101).value
    residue_p2 = apery_mod_p2(n, 101).value
    ok = residue_p2 == _apery_mod_pk(n, 101, 2) and residue_p == residue_p2 % 101
    report("21 long-n-digit-split-budget", ok, t0, 1)


def test_22_prime_cube_modulus_budget():
    # `apery 10**21 --mod 343` in a process of its own: apery_mod sends a
    # prime cube p^3 with 5 <= p <= |n| to the p-adic digit DP: 0.15 s with
    # interpreter start-up on 2 vCPUs.  The x/den pass it took before runs 10^21 steps and
    # never returned, so a timeout at the budget fails the test instead of
    # hanging it.  The answer is checked mod 49 against the Gessel digit route
    budget = 1
    n = 10**21
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.time()
    done = subprocess.run(
        [sys.executable, "-m", "apery", "apery", str(n), "--mod", "343"],
        env=env, capture_output=True, text=True, timeout=budget,
    )
    value = int(done.stdout) if done.returncode == 0 else None
    ok = value is not None and 0 <= value < 343 and value % 49 == apery_mod_p2(n, 7).value
    report("22 prime-cube-modulus-budget", ok, t0, budget)


def test_23_taylor_float_budget(capsys):
    # `taylor 40 --float --N 2000`, then `taylor 60 --float --N 100`: 19 and
    # 29 weight passes over 2N entries, 0.03 s and 0.005 s here; summing
    # the 10946 compositions of weight 40 one at a time took 14.0 s, and
    # weight 60 has 1346269 of them.  a_40 = -5.9255750089474531e-20 comes
    # from a fixed-point Hoelder convolution at 128-256 bits (Borwein,
    # Bradley, Broadhurst and Lisonek, Trans. AMS 353, 2001, section 7).
    # The error of 2 S(2N) - S(N) falls like 1/N^2: at m = 40 it was 2.5e-2,
    # 6.6e-3, 1.7e-3, 4.4e-4, 1.1e-4 and 2.8e-5 relative for N = 250 .. 8000
    # doubling, so N = 2000 is held to 1e-3.
    from apery.cli import main

    t0 = time.time()
    code = main(["taylor", "40", "--float", "--N", "2000"])
    a40 = float(capsys.readouterr().out)
    code_60 = main(["taylor", "60", "--float", "--N", "100"])
    a60 = float(capsys.readouterr().out)
    ok = code == code_60 == 0 and abs(a40 / -5.9255750089474531e-20 - 1) < 1e-3
    ok = ok and math.isfinite(a60) and a60 != 0
    with capsys.disabled():
        report("23 taylor-float-budget", ok, t0, 1)


def test_24_taylor_exact_budget(capsys):
    # `taylor 20 --exact --N 360`: one integer pass with every entry over
    # lcm(1..k)^j, 0.02 s here (0.04 s over the fixed lcm(1..360)^j); the
    # 2812 bytes printed are those of the fixed-scale pass
    from apery.cli import main

    t0 = time.time()
    code = main(["taylor", "20", "--exact", "--N", "360"])
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    ok = code == 0 and digest == "e2beece23054d3b51e766f091e03ac9b6a1aac210d66e32d2f966afb5d1af453"
    with capsys.disabled():
        report("24 taylor-exact-budget", ok, t0, 0.5)


def test_25_digitset_default_range_budget():
    # `verify digitset-p2 --p 211` without --n, in a process of its own.  The
    # default range is -10..10, as for the other sweeps: the exact memo holds
    # A(0..2320), 2.5 MiB traced at its peak in 0.1-0.3 s here.  The old
    # default -p..p read A(0..44731), 8.7 s and 699 MB, so the timeout at
    # the budget fails the test instead of filling memory
    budget, budget_mib = 2, 6
    code = (
        "import contextlib, io, tracemalloc\n"
        "from apery.cli import main\n"
        "out = io.StringIO()\n"
        "tracemalloc.start()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = main(['verify', 'digitset-p2', '--p', '211', '--format', 'json'])\n"
        "print(code, tracemalloc.get_traced_memory()[1], out.getvalue())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.pop("APERY_CACHE", None)
    t0 = time.time()
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=budget
    )
    exit_code, peak, payload = done.stdout.split(" ", 2)
    peak_mib = int(peak) / 2**20
    reported = json.loads(payload)
    ok = exit_code == "0" and reported["pass"] and reported["conclusive"]
    ok = ok and (reported["parameters"]["n_lo"], reported["parameters"]["n_hi"]) == (-10, 10)
    ok = ok and peak_mib < budget_mib
    report(
        "25 digitset-default-range-budget", ok, t0, budget,
        f" peak {peak_mib:.2f} MiB / {budget_mib} MiB",
    )


def test_26_mod_p_reads_only_the_digits_memory():
    # A(n) mod p at p = 999983 for n with base-p digits 99991, 777, 31415.
    # Without a table, apery_mod_p runs the x/den pass to the largest digit
    # and keeps its pairs at n's three digits: 0.002 MiB traced at the peak,
    # in 1.5 s traced on 2 vCPUs (0.07 s untraced).  A table of the 99992
    # residues up to the largest digit peaked at 3.82 MiB.  The oracle is
    # the Gessel digit route mod p^2
    from apery.sequence import apery_mod_p

    budget_mib = 0.25
    p = 999983
    n = 99991 + 777 * p + 31415 * p * p
    expected = apery_mod_p2(n, p).value % p
    tracemalloc.start()
    try:
        t0 = time.time()
        value = apery_mod_p(n, p).value
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    ok = peak < budget_mib and value == expected
    report("26 mod-p-digits-only-memory", ok, t0, 5, f" peak {peak:.3f} MiB / {budget_mib} MiB")


def test_27_composite_modulus_streams_memory():
    # `apery 10000 --mod 35` in a process of its own, so no earlier test's
    # memo answers it.  35 = 5 * 7 with 5, 7 <= n has no digit route and no
    # x/den pass, so apery_mod reduces the exact sweep, which holds two
    # values: 0.24 MiB traced at the peak of cli.main, argparse included,
    # and 0.42-0.50 s with interpreter start-up on 2 vCPUs.  Reducing the
    # memo's A(10000) instead peaked at 32.8 MiB in the same time.  The
    # oracle is the defining sum
    budget, budget_mib = 2, 1
    code = (
        "import contextlib, io, tracemalloc\n"
        "from apery.cli import main\n"
        "out = io.StringIO()\n"
        "tracemalloc.start()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = main(['apery', '10000', '--mod', '35'])\n"
        "print(code, tracemalloc.get_traced_memory()[1], out.getvalue())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    expected = apery(10000) % 35
    t0 = time.time()
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=budget
    )
    exit_code, peak, printed = done.stdout.split(" ", 2)
    peak_mib = int(peak) / 2**20
    ok = exit_code == "0" and printed == "15\n\n" and expected == 15
    ok = ok and peak_mib < budget_mib
    report(
        "27 composite-modulus-streams-memory", ok, t0, budget,
        f" peak {peak_mib:.2f} MiB / {budget_mib} MiB",
    )


def _capped_sweep(argv, cap_mib, budget):
    # one CLI command in a process of its own under an RLIMIT_AS cap; the
    # timeout at the budget fails the test instead of waiting
    import resource

    cap = cap_mib * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.time()
    done = subprocess.run(
        [sys.executable, "-m", "apery", *argv],
        env=env, capture_output=True, text=True, timeout=budget, preexec_fn=limit,
    )
    return done, t0


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
def test_28_large_prime_sweep_under_a_cap():
    # `verify lucas-p --p 1000003 --n 0..0`: one block of rows from A(0) = 1
    # by the recurrence mod p^3, no exact value.  3.7 s and 302 MB peak RSS
    # here (2 vCPU, Python 3.11.7), most of it the p digits' factors and
    # columns.  Walking the exact prefix to p - 1 instead ran out of memory
    # under this cap after 4.6 s
    cap_mib, budget = 600, 15
    argv = ["verify", "lucas-p", "--p", "1000003", "--n", "0..0"]
    done, t0 = _capped_sweep(argv, cap_mib, budget)
    ok = (done.returncode, done.stdout, done.stderr) == (0, "lucas-p: PASS (1000003 cases)\n", "")
    report("28 large-prime-sweep-under-a-cap", ok, t0, budget, f" cap {cap_mib} MiB")


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
def test_29_wide_sweep_under_a_cap():
    # `verify gessel-p2 --p 101 --n 0..1000`: the rows reach 101100, one DP
    # anchor per block of 101.  0.34-0.44 s and 26 MB peak RSS here (2 vCPU,
    # Python 3.11.7); the exact prefix to 101100 would hold about 3.3 GB,
    # and ran out of memory under this cap after 4.8 s
    cap_mib, budget = 200, 4
    argv = ["verify", "gessel-p2", "--p", "101", "--n", "0..1000"]
    done, t0 = _capped_sweep(argv, cap_mib, budget)
    ok = (done.returncode, done.stdout, done.stderr) == (0, "gessel-p2: PASS (101101 cases)\n", "")
    report("29 wide-sweep-under-a-cap", ok, t0, budget, f" cap {cap_mib} MiB")
