"""The integer sequence A(n), its derivative A'(n), and the fast mod paths."""

import functools
import itertools
import math
import random
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apery import sequence
from apery.arith import Residue
from apery.congruences import verify_lucas_mod_p
from apery.sequence import (
    AperyCache,
    _apery_mod_pk,
    apery,
    apery_deriv,
    apery_fast,
    apery_mod,
    apery_mod_p,
    apery_mod_p2,
    apery_mod_sweep,
    mod_p2_tables,
    mod_p_table,
)

# first values of A(n) and A'(n)
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


@functools.cache
def harmonic_deriv(n):
    # A'(n) from its defining sum on one integer denominator L = lcm(1..2n),
    # with H_j L as integers: the reference for the recurrence in apery_deriv
    L = math.lcm(*range(1, 2 * n + 1))
    HL = list(accumulate((L // i for i in range(1, 2 * n + 1)), initial=0))
    total = 0
    term = 1
    for k in range(n + 1):
        total += term * (HL[n + k] - HL[n - k])
        term = term * (n - k) ** 2 * (n + k + 1) ** 2 // (k + 1) ** 4
    return Fraction(2 * total, L)


def mark_of(k):
    # the pass's state at k from the defining sums: (k, S A(k-1), S A(k),
    # S A'(k-1), S A'(k), S) at the scale S = lcm(1..2j) of k's window of
    # 64, j = 64 floor(k / 64) + 64, with the seed's 0 for A(-1) and A'(-1)
    S = math.lcm(*range(1, 2 * (k - k % 64 + 64) + 1))
    a, s = (S * apery(k - 1), S * harmonic_deriv(k - 1)) if k else (0, 0)
    return (k, a, S * apery(k), s, S * harmonic_deriv(k), S)


def marks_of(top):
    # the marks of one pass from k = 0 to top: each multiple of 64
    return [mark_of(k) for k in range(0, top + 1, 64)]


@pytest.fixture
def fresh_marks(monkeypatch):
    """The exact derivative pass's marks holding only the seed at k = 0."""
    marks = [mark_of(0)]
    monkeypatch.setattr(sequence, "_marks", marks)
    return marks


def windows(k0, top):
    # the locked passes of an extension from the mark at k0 to the one at
    # top, one window of 64 steps each
    return [(k, k + 64, True) for k in range(k0, top, 64)]


class TestApery:
    def test_head_of_sequence(self):
        assert [apery(n) for n in range(8)] == APERY_HEAD

    def test_negative_arguments_reflect(self):
        assert apery(-4) == 1445
        assert apery(-1) == 1

    def test_reflection_identity(self):
        for n in range(-500, 500):
            assert apery(n) == apery(-1 - n)

    def test_recurrence_route(self):
        assert apery_fast(0) == 1
        assert apery_fast(2) == 73
        assert apery_fast(7) == 584307365

    def test_recurrence_agrees_with_sum(self):
        cache = AperyCache()
        for n in range(300):
            assert apery_fast(n, cache) == apery(n)

    def test_fast_route_on_z(self):
        cache = AperyCache()
        for n in range(-40, 40):
            assert apery_fast(n, cache) == apery(n)


class TestCache:
    def test_preload_and_get(self):
        # the constructor puts a prefix A(0), A(1), ...; the walk resumes past it
        cache = AperyCache([1, 5, 73])
        assert cache.get(2) == 73 and cache.get(3) is None
        assert apery_fast(4, cache) == 33001
        assert cache._values == APERY_HEAD[:5]

    def test_conflicting_value_rejected(self):
        with pytest.raises(ValueError, match="conflicting"):
            AperyCache([1, 6])  # disagrees with the seeded A(1)
        cache = AperyCache()
        apery_fast(2, cache)
        with pytest.raises(ValueError, match="conflicting"):
            cache.put(2, 74)
        cache.put(2, 73)  # an equal value is a no-op
        assert cache._values == APERY_HEAD[:3]

    def test_residues_are_prefixes(self):
        # prefixes of A(k) mod p^3 on a memo of A(0..19), against the
        # defining sum: the walk to 40 starts past the held prefix, a
        # shorter prefix is read from the table and a longer one extends it,
        # and 2097169 > 2^21, whose cube overflows an entry, keeps no table
        cache = AperyCache(apery(k) for k in range(20))
        for p, top in ((5, 40), (5, 9), (5, 49), (2097169, 8)):
            assert cache.residues(p, top) == [apery(k) % p**3 for k in range(top + 1)]
        assert cache._tables[5].tolist() == [apery(k) % 125 for k in range(50)]
        assert list(cache._tables) == [5]

    def test_residues_from_threads(self):
        # threads that extend one table at once, with the interpreter
        # switching threads often, leave every entry once: an extend outside
        # the lock would append part of the prefix twice
        cache = AperyCache()
        apery_fast(3000, cache)
        tops = [600, 3000, 1500, 2400, 3000, 900]
        start = threading.Barrier(len(tops), timeout=30)

        def read(top):
            start.wait()
            return cache.residues(5, top)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(tops)) as pool:
                got = list(pool.map(read, tops))
        finally:
            sys.setswitchinterval(interval)
        want = [apery_fast(k, cache) % 125 for k in range(max(tops) + 1)]
        assert got == [want[: top + 1] for top in tops]
        assert cache._tables[5].tolist() == want

    def test_walks_from_threads(self):
        # threads that walk one fresh memo at once, with the interpreter
        # switching threads often, leave the prefix A(0..max top) with each
        # value once: a step another thread has put is a no-op.  Each append
        # first yields to another thread, so a put that checks the length
        # outside the lock lets a second thread append at the same index
        class YieldingList(list):
            def append(self, value):
                time.sleep(0)
                super().append(value)

        cache = AperyCache()
        cache._values = YieldingList(cache._values)
        tops = [300, 1200, 700, 1200, 50, 1000]
        start = threading.Barrier(len(tops), timeout=30)

        def walk(top):
            start.wait()
            return apery_fast(top, cache)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(tops)) as pool:
                got = list(pool.map(walk, tops))
        finally:
            sys.setswitchinterval(interval)
        want = AperyCache()
        apery_fast(max(tops), want)
        assert cache._values == want._values
        assert got == [want._values[top] for top in tops]

    def test_put_rejects_negative_key(self):
        with pytest.raises(ValueError, match=r"cache keys must be in 0\.\.2, got -1"):
            AperyCache().put(-1, 1)

    def test_put_appends_only_at_the_end(self):
        # the memo is a prefix: a put past its end would leave a gap
        cache = AperyCache()
        with pytest.raises(ValueError, match=r"cache keys must be in 0\.\.2, got 3"):
            cache.put(3, 1445)
        cache.put(2, 73)
        assert cache._values == APERY_HEAD[:3]

    def test_memo_is_picked_without_its_length(self):
        # a passed memo is used as it is; no route asks for its size, which
        # "cache or shared" would
        class Sizeless(AperyCache):
            def __len__(self):
                raise AssertionError("len() of the memo was taken")

        cache = Sizeless()
        assert apery_fast(-13, cache) == apery(12)
        assert cache.get(12) == apery(12)
        assert verify_lucas_mod_p(5, (-4, 4), cache).passed


def _memo(top, off=None, by=1):
    # a private memo of A(0..top) with A(off) + by in place of A(off)
    return AperyCache(apery(k) + by * (k == off) for k in range(top + 1))


# the exact values the property below reads, and the prime of the cache
# file's check, a multiple of which no residue table may miss
EXACT = [apery(k) for k in range(90)]
Q = sys.hash_info.modulus


@st.composite
def given_prefixes(draw):
    # (p, the length of a given prefix, its wrong values {k: offset}, the
    # tops read in turn): up to three values off by +-1, +-q or +-p^3, and
    # tops inside, at and past the prefix's end, so that a table is
    # extended from any index, mid-block too.  The walk steps past the end
    # from the prefix's last two values, so it reads past only when those
    # are right
    p = draw(st.sampled_from([2, 3, 5, 7, 101]))
    length = draw(st.integers(0, 60))
    offsets = st.sampled_from([1, -1, Q, -Q, p**3, -(p**3)])
    wrong = {}
    if length > 2:
        wrong = draw(st.dictionaries(st.integers(2, length - 1), offsets, max_size=3))
    reach = length - 1 if any(k >= length - 2 for k in wrong) else length + 25
    tops = draw(st.lists(st.integers(0, reach), min_size=1, max_size=3))
    return p, length, wrong, tops


class TestBlockRoute:
    # AperyCache.residues reduces A(jp) mod p^3 at each multiple jp of p and
    # runs the recurrence mod p^3 through the rest of [jp, jp + p), unless
    # the block starts inside the prefix given to the memo, whose values it
    # reduces one by one; each case compares with the value it holds,
    # reduced mod p^3

    @staticmethod
    def reduced(cache, p, top):
        return [cache.get(k) % p**3 for k in range(top + 1)]

    @pytest.mark.parametrize("p", [5, 7])
    @pytest.mark.parametrize("where", ["anchor", "after-anchor"])
    def test_wrong_value_is_read_as_it_is(self, p, where):
        # A(jp) + 1 or A(jp + 1) + 1 in a prefix given up to bad + 2: the
        # block holds the wrong residue, and the blocks around it, given or
        # walked, the right ones
        top = 6 * p - 1
        bad = 3 * p + (where == "after-anchor")
        cache = _memo(bad + 2, bad)
        got = cache.residues(p, top)
        assert got == self.reduced(cache, p, top)
        assert got[bad] != apery(bad) % p**3
        assert got[:bad] + got[bad + 1 :] == [
            apery(k) % p**3 for k in range(top + 1) if k != bad
        ]

    @pytest.mark.parametrize("bad", [None, 9, 12])
    def test_extension_that_starts_mid_block(self, bad):
        # the memo is given A(0..15) and walks the rest.  The table of 7
        # stops at 10, inside the given block [7, 14), where a wrong value
        # before or after 10 is read as it is, then at 24, inside the made
        # block [21, 28), which runs again from its anchor, and is then
        # extended to 40
        cache = _memo(15, bad)
        for top in (10, 24, 40):
            assert cache.residues(7, top) == self.reduced(cache, 7, top)
        assert cache._tables[7].tolist() == self.reduced(cache, 7, 40)

    @pytest.mark.parametrize("bad", [None, 30])
    def test_prime_above_top(self, bad):
        # one block from A(0) = 1, every k <= top a unit mod 101: run from
        # its anchor on a memo that made its values, or value by value on
        # one given A(0..50) with a wrong A(30)
        cache = AperyCache() if bad is None else _memo(50, bad)
        assert cache.residues(101, 50) == self.reduced(cache, 101, 50)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("bad", [None, 17, 18])
    def test_two_and_three(self, p, bad):
        # mod 8 by a mask, and mod 27 in blocks of three, value by value
        # in the given A(0..30) and from the anchors in the walk past it
        cache = _memo(30, bad)
        assert cache.residues(p, 60) == self.reduced(cache, p, 60)

    @pytest.mark.parametrize("bad", [None, 7])
    def test_prime_whose_cube_overflows_an_entry(self, bad):
        # 2097169 > 2^21 keeps no table and runs the blocks on each call,
        # from the anchor A(0) on a memo that made its values
        cache = AperyCache() if bad is None else _memo(20, bad)
        for top in (20, 8, 20):
            assert cache.residues(2097169, top) == self.reduced(cache, 2097169, top)
        assert not cache._tables

    def test_value_off_by_q_is_read_as_it_is(self):
        # A(k) + q at p = 5, off a multiple of p and at one: the table
        # holds the value's residue either way
        for k in (17, 15):
            cache = _memo(30, k, Q)
            got = cache.residues(5, 30)
            assert got == self.reduced(cache, 5, 30)
            assert got[k] == (apery(k) + Q) % 125 != apery(k) % 125

    @given(given_prefixes())
    # the length-14 case: a wrong A(11) read to 24 at p = 5, where the
    # block [10, 15) holds given values and a made one
    @example((5, 14, {11: 1}, [24]))
    @settings(max_examples=150, deadline=None)
    def test_residues_are_the_held_values_reduced(self, case):
        p, length, wrong, tops = case
        cache = AperyCache(EXACT[k] + wrong.get(k, 0) for k in range(length))
        for top in tops:
            assert cache.residues(p, top) == self.reduced(cache, p, top), top

    def test_divided_at_anchors_unless_given(self, monkeypatch):
        # no value is hashed.  On a memo that made its own values, only the
        # values at multiples of each odd p are reduced; on a given prefix,
        # each value is reduced once per odd prime.  A(0) and A(1) are the
        # memo's own ints
        hashed, divided = Counter(), Counter()

        class Counted(int):
            def __hash__(self):
                hashed[int(self)] += 1
                return int.__hash__(self)

            def __mod__(self, m):
                divided[int(self), m] += 1
                return int(self) % m

        top, primes, odd = 77, (2, 3, 5, 7, 101), (3, 5, 7, 101)
        step = sequence._recurrence_step
        monkeypatch.setattr(sequence, "_recurrence_step", lambda *args: Counted(step(*args)))
        made = AperyCache()
        given = AperyCache(Counted(apery(k)) for k in range(top + 1))
        for cache in (made, given):
            for p in primes:
                assert cache.residues(p, top) == [apery(k) % p**3 for k in range(top + 1)]
            assert not hashed
            wanted = (
                (apery(k), p**3)
                for p in odd
                for k in range(2, top + 1)
                if cache is given or k % p == 0
            )
            assert divided == Counter(wanted)
            divided.clear()

    def test_corrupted_memo_from_threads(self):
        # threads read several primes at several tops from one memo with
        # three wrong values, with the interpreter switching threads often:
        # every answer is the memo's own values reduced
        bad = {37, 400, 1201}
        top = 1500
        cache = AperyCache(apery_fast(k) + (k in bad) for k in range(top + 1))
        jobs = [(5, 600), (7, top), (3, 900), (5, top), (101, 1300), (2, top), (7, 200)]
        start = threading.Barrier(len(jobs), timeout=30)

        def read(job):
            start.wait()
            return cache.residues(*job)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(jobs)) as pool:
                got = list(pool.map(read, jobs))
        finally:
            sys.setswitchinterval(interval)
        for (p, t), residues in zip(jobs, got):
            assert residues == self.reduced(cache, p, t), (p, t)


class TestDerivative:
    def test_head_of_sequence(self):
        assert [apery_deriv(n) for n in range(8)] == DERIV_HEAD

    def test_integer_at_zero_and_one(self):
        assert apery_deriv(0) == 0
        assert apery_deriv(1) == 12

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            apery_deriv(-2)

    def test_matches_fraction_harmonic_sum(self):
        # the defining sum with H_j as Fractions, term by term
        for n in range(61):
            H = [Fraction(0)]
            for i in range(1, 2 * n + 1):
                H.append(H[-1] + Fraction(1, i))
            total = Fraction(0)
            for k in range(n + 1):
                weight = (math.comb(n, k) * math.comb(n + k, k)) ** 2
                total += weight * (H[n + k] - H[n - k])
            assert apery_deriv(n) == 2 * total

    # lcm(1..2k) gains a 2 at k = 512 and 1024, the last step of the
    # windows at 448 and 960 and the mark of the ones at 512 and 1024
    NS = [*range(301), 450, 512, 513, 1000, 1024, 1025, 1801]

    def test_recurrence_matches_harmonic_sum(self, fresh_marks):
        # in ascending order from fresh marks, each n past the last window
        # extends them
        for n in self.NS:
            assert apery_deriv(n) == harmonic_deriv(n), n
        assert [mark[0] for mark in sequence._marks] == [*range(0, 1801, 64)]

    @pytest.mark.parametrize("order", ["descending", "scrambled"])
    def test_reads_below_the_top_match_harmonic_sum(self, fresh_marks, order):
        # after 1801 first, every n resumes from its mark, the windows'
        # edges 63, 64, 65, 127 and 128 among them
        if order == "descending":
            ns = sorted(self.NS, reverse=True)
        else:
            ns = [1801, *range(301), 63, 64, 65, 127, 128, 450, 512, 513, 1000, 1024, 1025]
        for n in ns:
            assert apery_deriv(n) == harmonic_deriv(n), n
        assert [mark[0] for mark in sequence._marks] == [*range(0, 1801, 64)]

    def test_marks_are_the_pass_state(self, fresh_marks):
        # the state at each multiple of 64 up to the top asked for, from
        # the defining sums, the windows' edges among them; a call that
        # finds its mark made publishes nothing
        for n, top in ((63, 0), (64, 64), (127, 64), (128, 128), (200, 200),
                       (300, 300), (320, 320), (330, 330), (5, 330)):
            before = sequence._marks
            apery_deriv(n)
            assert sequence._marks == marks_of(top), n
            if len(before) == len(sequence._marks):
                assert sequence._marks is before, n

    def test_each_index_stepped_once(self, fresh_marks, monkeypatch):
        # calls at 1800, 450, 1000, 1799 and 2000: the two that pass the
        # last mark step k = 1..1984 once between them, window by window,
        # under the lock, the second from the first one's last mark, 1792;
        # each read resumes from the mark at 64 floor(n / 64) and takes at
        # most 63 steps without the lock
        real = sequence._with_slopes
        passes = []

        def counted(top, divide, start=(0, 0, 1, 0, 0)):
            passes.append((start[0], top, sequence._marks_lock.locked()))
            yield from real(top, divide, start)

        monkeypatch.setattr(sequence, "_with_slopes", counted)
        for n in (1800, 450, 1000, 1799, 2000):
            assert apery_deriv(n) == harmonic_deriv(n), n
        assert passes == [
            *windows(0, 1792), (1792, 1800, False),
            (448, 450, False), (960, 1000, False), (1792, 1799, False),
            *windows(1792, 1984), (1984, 2000, False),
        ]

    def test_extensions_take_turns(self, fresh_marks, monkeypatch):
        # an extension for 100 stalls inside its window (0, 64] while one
        # for 1000 is asked for: the second waits for the first to publish,
        # then resumes from its last mark, 64, so the marks are one pass to
        # 960 and k = 1..64 is stepped once under the lock; each read takes
        # at most 63 steps without it
        real = sequence._with_slopes
        stalled, finished = threading.Event(), threading.Event()
        passes = []

        def stalling(top, divide, start=(0, 0, 1, 0, 0)):
            passes.append((start[0], top, sequence._marks_lock.locked()))
            if (start[0], top) == (0, 64):
                stalled.set()
                finished.wait(0.2)
            yield from real(top, divide, start)

        want = harmonic_deriv(1000)
        monkeypatch.setattr(sequence, "_with_slopes", stalling)
        short = threading.Thread(target=apery_deriv, args=(100,))
        short.start()
        assert stalled.wait(30)
        try:
            assert apery_deriv(1000) == want
        finally:
            finished.set()
            short.join()
        assert [p for p in passes if p[2]] == windows(0, 960)
        assert sorted(p for p in passes if not p[2]) == [(64, 100, False), (960, 1000, False)]
        assert [mark[0] for mark in sequence._marks] == [*range(0, 1000, 64)]

    def test_reads_and_extensions_on_eight_threads(self, fresh_marks):
        # eight threads at once, with the interpreter switching threads
        # often: every answer is the harmonic sum's, and the marks are those
        # of one pass to the largest n
        ns = [1500, 300, 1100, 64, 1500, 700, 1437, 5]
        want = [harmonic_deriv(n) for n in ns]
        start = threading.Barrier(len(ns), timeout=30)

        def read(n):
            start.wait()
            return apery_deriv(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(ns)) as pool:
                got = list(pool.map(read, ns))
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        threaded = sequence._marks
        sequence._marks = [mark_of(0)]  # the fixture puts the seed back
        apery_deriv(max(ns))
        assert threaded == sequence._marks

    def test_failed_extension_publishes_nothing(self, fresh_marks, monkeypatch):
        # with r1 off by one, an extension past 300 raises at an inexact
        # step and leaves the marks as they were
        apery_deriv(300)
        before = sequence._marks
        r1 = sequence._r1
        monkeypatch.setattr(sequence, "_r1", lambda m: r1(m) + 1)
        with pytest.raises(ArithmeticError):
            apery_deriv(500)
        assert sequence._marks is before
        assert before == marks_of(300)

    def test_extension_leaves_held_marks_alone(self, fresh_marks):
        # a reader holding the marks while an extension runs sees them
        # unchanged: the extension publishes a new list
        apery_deriv(200)
        held = sequence._marks
        assert held == marks_of(200)
        apery_deriv(1000)
        assert held == marks_of(200)
        assert [mark[0] for mark in sequence._marks] == [*range(0, 1000, 64)]


class TestExactDivision:
    def test_every_exact_route_refuses_an_inexact_step(self, monkeypatch, capsys):
        # with r1 off by one, some k^3 division leaves a remainder: the
        # derivative pass, the memo's walk, the rolling sweep and the CLI
        # must each refuse it rather than return a floor quotient
        from apery import sequence
        from apery.cli import main

        r1 = sequence._r1
        monkeypatch.setattr(sequence, "_r1", lambda m: r1(m) + 1)
        with pytest.raises(ArithmeticError):
            apery_deriv(5)
        with pytest.raises(ArithmeticError):
            apery_fast(5, AperyCache())
        with pytest.raises(ArithmeticError):
            apery_mod_sweep([5], 7)
        assert main(["aperyd", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not exact" in err


class TestFastModPaths:
    def test_examples(self):
        assert apery_mod_p(7, 5).value == 0
        assert apery_mod_p(4, 7).value == 33001 % 7  # = 3
        assert apery_mod_p(0, 11).value == 1
        assert apery_mod_p2(7, 5).value == 584307365 % 25  # = 15
        assert apery_mod_p2(2, 5).value == 23
        assert apery_mod_p2(0, 7).value == 1

    def test_modulus_carried(self):
        assert apery_mod_p(9, 7).modulus == 7
        assert apery_mod_p2(9, 7).modulus == 49

    def test_against_exact_small_primes(self):
        cache = AperyCache()
        for p in (2, 3, 5, 7):
            table = mod_p_table(p)
            tables = mod_p2_tables(p)
            for n in range(250):
                exact = apery_fast(n, cache)
                assert apery_mod_p(n, p, table).value == exact % p
                assert apery_mod_p2(n, p, tables).value == exact % (p * p)

    @given(st.integers(0, 3000), st.sampled_from([2, 3, 5, 7, 11, 13]))
    @settings(max_examples=40, deadline=None)
    def test_against_exact_random(self, n, p):
        exact = apery_fast(n)
        assert apery_mod_p(n, p).value == exact % p
        assert apery_mod_p2(n, p).value == exact % (p * p)

    def test_against_exact_full_sweep(self):
        # every prime p <= 31, every n <= 3000, both mod p and mod p^2
        from apery.arith import primes_upto
        from apery.sequence import shared_cache

        cache = shared_cache()
        exact = [apery_fast(n, cache) for n in range(3001)]
        for p in primes_upto(31):
            table = mod_p_table(p)
            tables = mod_p2_tables(p)
            m = p * p
            for n, value in enumerate(exact):
                assert apery_mod_p(n, p, table).value == value % p
                assert apery_mod_p2(n, p, tables).value == value % m

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            apery_mod_p(5, 6)
        with pytest.raises(ValueError):
            apery_mod_p2(5, 9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            apery_mod_p(-1, 5)

    def test_large_prime_without_tables(self):
        # the tables stop at the largest digit of n, so a prime near 10^6
        # costs no table of 10^6 entries; the oracle is the digit formula
        # with exact A(d) and A'(d)
        from oracles import rational_mod

        p = 1000003
        m = p * p
        exact = (
            [apery(d) % m for d in range(12)],
            [rational_mod(harmonic_deriv(d), m).value for d in range(12)],
        )
        for digits in ([3, 5, 11, 0, 0, 2], [], [7], [0, 11]):
            n = sum(d * p**i for i, d in enumerate(digits))
            want = math.prod(exact[0][d] for d in digits) % p
            assert apery_mod_p(n, p).value == want
            assert apery_mod_p2(n, p) == apery_mod_p2(n, p, exact)


class TestAperyMod:
    # moduli p^e that a digit route takes once p <= |n|, keyed to p: the
    # tables mod p and p^2, and the p-adic digit DP for p^3 at p >= 5
    ROUTED = {p**e: p for p in (2, 3, 5, 7, 11, 13) for e in (1, 2, 3) if e < 3 or p >= 5}
    # a prime above every |n| of the grid, a coprime composite above it, a
    # multiple of 3 above PRIMALITY_BOUND, and moduli with a factor <= |n|
    # that only the exact value answers there
    OTHERS = (401, 10007 * 10009, 3317044064679887385961983, 8, 27, 35, 1000)

    def test_route_grid(self):
        # against the defining sum; None exactly where no digit route takes
        # M and some k <= |n| shares a factor with M
        exact = [apery(k) for k in range(400)]
        moduli = [*self.ROUTED, *self.OTHERS]
        for n in range(-60, 400):
            k = n if n >= 0 else -1 - n
            factorial = math.factorial(k)
            for m in moduli:
                got = apery_mod(n, m)
                if self.ROUTED.get(m, k + 1) > k and math.gcd(m, factorial) > 1:
                    assert got is None, (n, m)
                else:
                    assert got == Residue(exact[k], m), (n, m)

    def test_no_pass_for_a_modulus_at_most_n(self, monkeypatch):
        # M <= |n| with no digit route answers None without the x/den pass,
        # since k = M shares a factor with M; a coprime M > |n| takes it
        assert apery_mod(50, 10007 * 10009) == Residue(apery(50), 10007 * 10009)

        def no_pass(*args):
            raise AssertionError("the x/den pass ran")

        monkeypatch.setattr("apery.sequence._recurrence_mod", no_pass)
        for n, m in ((100, 35), (-1001, 1000), (60, 8)):
            assert apery_mod(n, m) is None, (n, m)

    def test_modulus_below_two_rejected(self):
        for bad in (1, 0, -5):
            with pytest.raises(ValueError):
                apery_mod(5, bad)


class TestDigitTables:
    def test_kernel_matches_exact_reduction(self):
        # the recurrence and its derivative modulo p and p^2 against exact
        # values and the harmonic-sum A'(d), for every prime p <= 113
        from apery.arith import primes_upto
        from oracles import rational_mod

        exact = [apery(d) for d in range(113)]
        derivs = [harmonic_deriv(d) for d in range(113)]
        for p in primes_upto(113):
            m = p * p
            assert mod_p_table(p) == [a % p for a in exact[:p]]
            assert mod_p2_tables(p) == (
                [a % m for a in exact[:p]],
                [rational_mod(q, m).value for q in derivs[:p]],
            )

    def test_non_prime_rejected(self):
        for bad in (0, 1, 9, 561):
            with pytest.raises(ValueError):
                mod_p_table(bad)
            with pytest.raises(ValueError):
                mod_p2_tables(bad)


class TestModSweep:
    def test_matches_direct_reduction(self):
        targets = [0, 1, 2, 17, 40, 41]
        out = apery_mod_sweep(targets, 343)
        assert out == {n: apery(n) % 343 for n in targets}

    @pytest.mark.parametrize("modulus", [2, 343])
    @pytest.mark.parametrize("targets", [[0], [1], [0, 1], [1, 0], [41, 2, 0, 17, 1]])
    def test_first_indices_ascending(self, targets, modulus):
        out = apery_mod_sweep(targets, modulus)
        assert out == {n: apery(n) % modulus for n in targets}
        assert list(out) == sorted(targets)

    def test_empty(self):
        assert apery_mod_sweep([], 9) == {}

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            apery_mod_sweep([-1], 9)


class TestPadicEvaluator:
    def test_matches_exact_reduction(self):
        cache = AperyCache()
        cases = [(p, e) for p in (5, 7, 11, 13) for e in (1, 2, 3)]
        cases += [(p, e) for p in (2, 3) for e in (1, 2)]
        for n in range(-60, 401):
            exact = apery_fast(n, cache)
            for p, e in cases:
                assert _apery_mod_pk(n, p, e) == exact % p**e, (n, p, e)

    def test_matches_sweep_at_scattered_indices(self):
        targets = [1249, 3124, 4999, 7202, 9999, 12004, 16806, 17150, 20000]
        sweep = apery_mod_sweep(targets, 5**3 * 7**3)
        for n in targets:
            for p in (5, 7):
                assert _apery_mod_pk(n, p, 3) == sweep[n] % p**3, (n, p)
                assert _apery_mod_pk(-1 - n, p, 3) == sweep[n] % p**3, (n, p)

    def test_matches_gessel_digit_route(self):
        # every n < p^4 with digits in {0, (p-1)/2, p-1}: the carry-free
        # summands mod p^2 against the digit congruence A(d + pn) =
        # (A(d) + pnA'(d)) A(n)
        for p in (5, 7):
            tables = mod_p2_tables(p)
            alphabet = (0, (p - 1) // 2, p - 1)
            for digits in itertools.product(alphabet, repeat=4):
                n = sum(d * p**i for i, d in enumerate(digits))
                assert _apery_mod_pk(n, p, 2) == apery_mod_p2(n, p, tables).value, n

    def test_middle_digits_against_sweep(self):
        # every n < p^5 with digits in {0, (p-1)/2, p-1}: the middle digit
        # leaves ((p+1)/2)^5 carry-free summands at the top n
        cases = [
            (sum(d * p**i for i, d in enumerate(digits)), p)
            for p in (5, 7)
            for digits in itertools.product((0, (p - 1) // 2, p - 1), repeat=5)
        ]
        sweep = apery_mod_sweep((n for n, _ in cases), 5**3 * 7**3)
        for n, p in cases:
            assert _apery_mod_pk(n, p, 3) == sweep[n] % p**3, (n, p)

    def test_matches_digit_route_at_large_n(self):
        rng = random.Random(19)
        for p in (101, 1009):
            tables = mod_p2_tables(p)
            for _ in range(20):
                n = rng.randrange(10**30)
                assert _apery_mod_pk(n, p, 2) == apery_mod_p2(n, p, tables).value, (n, p)

    def test_thousands_of_digits(self):
        # A(n) = 5^n = 1 mod 4 (p3-suite at p = 2), and A(n) = 1 mod 5^3 when
        # every base-5 digit of n is 4 (the unit law)
        assert _apery_mod_pk(3**900, 2, 2) == 1
        assert _apery_mod_pk(5**1500 - 1, 5, 3) == 1

    def test_rejects_bad_arguments(self):
        for p, e in ((2, 3), (3, 3), (9, 2), (25, 1), (1, 1), (7, 0), (7, 4), (5, -1)):
            with pytest.raises(ValueError):
                _apery_mod_pk(10, p, e)
