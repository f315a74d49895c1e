"""Composition enumeration, coefficients, exact MZV partial sums, the
truncated expansion identity, and the numeric relation checks."""

import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apery import mzv
from apery.function import taylor_coeff_truncated
from apery.mzv import (
    REDUCED_FORMS,
    MzvTerm,
    admissible_compositions,
    composition_coefficient,
    even_zeta,
    is_admissible,
    mzv_float,
    mzv_partial,
    reduced_form_residual,
    reduced_form_residuals,
    stuffle_residual,
    stuffle_residuals,
    taylor_coeff_float,
    taylor_identity_holds,
    taylor_terms,
    zeta_all_twos,
)

# full expansions of the first coefficients, coefficient keyed by composition
EXPANSIONS = {
    2: {(2,): 1},
    3: {(3,): 2},
    4: {(4,): 1, (2, 2): -2},
    5: {(3, 2): -4},
    6: {(2, 4): 1, (4, 2): -2, (2, 2, 2): 4},
    7: {(3, 4): 2, (3, 2, 2): 8},
    8: {(4, 4): 1, (2, 2, 4): -2, (2, 4, 2): -2, (4, 2, 2): 4, (2, 2, 2, 2): -8},
    9: {(3, 2, 4): -4, (3, 4, 2): -4, (3, 2, 2, 2): -16},
    10: {
        (2, 4, 4): 1,
        (4, 2, 4): -2,
        (4, 4, 2): -2,
        (2, 2, 2, 4): 4,
        (2, 2, 4, 2): 4,
        (2, 4, 2, 2): 4,
        (4, 2, 2, 2): -8,
        (2, 2, 2, 2, 2): 16,
    },
}


def _reference_mzv_float(s, N, extrapolate=True):
    """The per-composition loop mzv_float replaced: list tails, every
    suffix rebuilt for every composition, a list of head terms."""
    top = 2 * N if extrapolate else N
    tail = [1.0] * (top + 1)
    for part in reversed(s[1:]):
        running = 0.0
        new = [0.0] * (top + 1)
        for v in range(top + 1):
            new[v] = running
            if v:
                running += tail[v] / v**part
        tail = new
    terms = [tail[n] / n ** s[0] for n in range(1, top + 1)]
    if extrapolate:
        return 2 * sum(terms) - sum(terms[:N])
    return sum(terms)


# sum() adds floats left to right before Python 3.12 and compensates from
# 3.12 on; only the former makes sum(rest, sum(head)) == sum(head + rest)
left_to_right_sum = pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="sum() compensates from Python 3.12 on"
)

STUFFLE_CASES = {"depth1": [(4, 4), (4, 6), (2, 2)], "depth2": [(4, 4, 2), (2, 2, 6), (2, 2, 4)]}
# the six (s, t) pairs of `verify stuffle`, in its order
STUFFLE_PAIRS = [((a,), (b,)) for a, b in STUFFLE_CASES["depth1"]] + [
    ((a, b), (c,)) for a, b, c in STUFFLE_CASES["depth2"]
]


def stuffle_compositions():
    out = set()
    for a, b in STUFFLE_CASES["depth1"]:
        out |= {(a,), (b,), (a, b), (b, a), (a + b,)}
    for a, b, c in STUFFLE_CASES["depth2"]:
        out |= {(a, b), (c,), (c, a, b), (a, c, b), (a, b, c), (a + c, b), (a, b + c)}
    return sorted(out)


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class TestCompositions:
    def test_small_cases(self):
        assert admissible_compositions(5) == [(3, 2)]
        assert admissible_compositions(4) == [(2, 2), (4,)]
        assert admissible_compositions(1) == []
        assert len(admissible_compositions(10)) == 8

    def test_lexicographic_order(self):
        for m in range(1, 16):
            comps = admissible_compositions(m)
            assert comps == sorted(comps)
            assert len(comps) == len(set(comps))

    def test_count_law(self):
        for m in range(1, 31):
            expected = fib(m // 2 + 1) if m % 2 == 0 else fib((m - 1) // 2)
            assert len(admissible_compositions(m)) == expected

    def test_structure(self):
        for m in range(1, 25):
            for s in admissible_compositions(m):
                assert sum(s) == m
                assert s[0] == 3 if m % 2 else s[0] in (2, 4)
                assert all(part in (2, 4) for part in s[1:])
                assert is_admissible(s)


class TestCoefficients:
    def test_examples(self):
        assert composition_coefficient((3, 2)) == -4
        assert composition_coefficient((2,)) == 1
        assert composition_coefficient((4, 2, 2, 2)) == -8

    def test_full_expansions(self):
        for m, want in EXPANSIONS.items():
            got = {s: c for s, c in taylor_terms(m)}
            assert got == want

    def test_signed_power_of_two(self):
        for m in range(1, 25):
            for _, c in taylor_terms(m):
                assert c != 0
                assert abs(c) & (abs(c) - 1) == 0  # power of two

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            composition_coefficient((2, 3))
        with pytest.raises(ValueError):
            composition_coefficient((3,) * 2)


class TestMzvPartial:
    def test_examples(self):
        assert mzv_partial((2,), 3) == Fraction(49, 36)
        assert mzv_partial((2, 2), 2) == Fraction(1, 4)
        assert mzv_partial((4, 2, 2), 0) == 0

    def test_monotone_in_truncation(self):
        last = Fraction(-1)
        for N in range(0, 40):
            value = mzv_partial((2, 2), N)
            assert value >= last
            last = value

    def test_depth_first_matches_nested_loops(self):
        # cubic brute force on a small case
        N = 12
        brute = Fraction(0)
        for n1 in range(1, N + 1):
            for n2 in range(1, n1):
                for n3 in range(1, n2):
                    brute += Fraction(1, n1**2 * n2**4 * n3**2)
        assert mzv_partial((2, 4, 2), N) == brute

    @given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 60))
    @settings(max_examples=30, deadline=None)
    def test_finite_stuffle_identity(self, a, b, N):
        lhs = (
            mzv_partial((a, b), N)
            + mzv_partial((b, a), N)
            + mzv_partial((a + b,), N)
        )
        assert lhs == mzv_partial((a,), N) * mzv_partial((b,), N)

    def test_finite_stuffle_identity_every_truncation(self):
        a, b = 2, 3
        for N in range(201):
            lhs = (
                mzv_partial((a, b), N)
                + mzv_partial((b, a), N)
                + mzv_partial((a + b,), N)
            )
            assert lhs == mzv_partial((a,), N) * mzv_partial((b,), N)

    def test_validation(self):
        with pytest.raises(ValueError):
            mzv_partial((), 5)
        with pytest.raises(ValueError):
            mzv_partial((2, 0), 5)


class TestMzvFloat:
    def test_zeta2(self):
        assert mzv_float((2,), 10_000) == pytest.approx(math.pi**2 / 6, abs=1e-7)

    def test_zeta4(self):
        assert mzv_float((4,), 10_000) == pytest.approx(math.pi**4 / 90, abs=1e-9)

    def test_zeta22(self):
        assert mzv_float((2, 2), 10_000) == pytest.approx(math.pi**4 / 120, abs=1e-7)

    def test_extrapolation_beats_raw_tail(self):
        target = math.pi**2 / 6
        for N in (100, 200, 400):
            raw = _reference_mzv_float((2,), N, extrapolate=False)
            extr = mzv_float((2,), N)
            assert abs(extr - target) < abs(raw - target)

    def test_divergent_rejected(self):
        with pytest.raises(ValueError):
            mzv_float((1, 2), 100)

    def test_empty_truncation_rejected(self):
        for N in (0, -3):
            with pytest.raises(ValueError, match=f"N must be >= 1, got {N}"):
                mzv_float((2,), N)

    @pytest.mark.parametrize("s", [(2,), (3,), (4, 2), (2, 4, 4), (3, 2, 2, 4)])
    def test_extrapolation_is_two_raw_sums(self, s):
        # S(N) is read off the pass to 2N; it must equal a pass to N exactly
        for N in (1, 7, 100, 1234):
            raw = (_reference_mzv_float(s, 2 * N, False),
                   _reference_mzv_float(s, N, False))
            assert mzv_float(s, N) == 2 * raw[0] - raw[1]


class TestTruncatedIdentity:
    def test_all_weights_small_truncations(self):
        for m in range(1, 13):
            for N in (0, 1, 2, 3, 7, 20):
                assert taylor_identity_holds(m, N)

    def test_spec_cases(self):
        assert taylor_identity_holds(2, 50)
        assert taylor_identity_holds(1, 17)
        assert taylor_identity_holds(9, 30)

    def test_negative_truncation_rejected(self):
        with pytest.raises(ValueError, match="N must be >= 0, got -1"):
            taylor_identity_holds(3, -1)

    def test_flipped_term_fails(self, monkeypatch):
        real = mzv.taylor_terms

        def flipped(m):
            terms = real(m)
            s, c = terms[1]
            return terms[:1] + [MzvTerm(s, -c)] + terms[2:]

        monkeypatch.setattr(mzv, "taylor_terms", flipped)
        assert not taylor_identity_holds(8, 20)

    def test_intermediate_truncation_checked(self, monkeypatch):
        # the numerator at N = 7 is off by one; N = 20 itself stays exact,
        # so a check of the last truncation alone would pass
        real = mzv._taylor_numerators

        def corrupted(m, upper, scale):
            for N, value in enumerate(real(m, upper, scale)):
                yield value + (N == 7)

        monkeypatch.setattr(mzv, "_taylor_numerators", corrupted)
        scale = math.lcm(*range(1, 21))
        *_, last = corrupted(8, 20, scale)
        assert Fraction(last, scale**8) == taylor_coeff_truncated(8, 20)
        assert not taylor_identity_holds(8, 20)

    def test_function_series_matches_fraction_mzv_partials(self):
        # the left side against mzv_partial, the Fraction route that the
        # one-pass check does not use
        for m in range(1, 13):
            terms = taylor_terms(m)
            for N in range(31):
                want = sum((c * mzv_partial(s, N) for s, c in terms), Fraction(0))
                assert taylor_coeff_truncated(m, N) == want


class TestClosedForms:
    def test_zeta_all_twos(self):
        assert zeta_all_twos(1) == (2, Fraction(1, 6))
        assert zeta_all_twos(2) == (4, Fraction(1, 120))
        assert zeta_all_twos(5) == (10, Fraction(1, 39916800))

    def test_even_zeta_constants(self):
        known = {
            1: Fraction(1, 6),
            2: Fraction(1, 90),
            3: Fraction(1, 945),
            4: Fraction(1, 9450),
            5: Fraction(1, 93555),
            6: Fraction(691, 638512875),
        }
        for k, mult in known.items():
            assert even_zeta(k) == (2 * k, mult)

    def test_even_zeta_matches_partial_sums(self):
        for k in (1, 2, 3):
            assert even_zeta(k).value == pytest.approx(
                mzv_float((2 * k,), 10_000), abs=1e-7
            )

    def test_all_twos_matches_partial_sums(self):
        for j in (1, 2, 3):
            assert zeta_all_twos(j).value == pytest.approx(
                mzv_float((2,) * j, 10_000), abs=1e-6
            )


# first part 2-4, later parts 1-4, depth at most 3
COMPOSITIONS = st.builds(
    lambda head, rest: (head, *rest), st.integers(2, 4), st.lists(st.integers(1, 4), max_size=2)
)


class TestStuffle:
    def test_depth1(self):
        for a, b in STUFFLE_CASES["depth1"]:
            assert stuffle_residual((a,), (b,), 10_000) < 1e-6

    def test_depth2(self):
        for a, b, c in STUFFLE_CASES["depth2"]:
            assert stuffle_residual((a, b), (c,), 10_000) < 1e-6

    @given(COMPOSITIONS, COMPOSITIONS)
    @settings(max_examples=25, deadline=None)
    def test_product_exact_at_every_truncation(self, s, t):
        product = mzv._stuffle(s, t)
        for N in range(21):
            rhs = sum(mzv_partial(u, N) for u in product)
            assert mzv_partial(s, N) * mzv_partial(t, N) == rhs

    @pytest.mark.parametrize("a, b, c", [(2, 1, 3), (4, 4, 2), (2, 3, 2)])
    def test_matches_hand_expansions(self, a, b, c):
        assert Counter(mzv._stuffle((a,), (b,))) == Counter([(a, b), (b, a), (a + b,)])
        hand = [(c, a, b), (a, c, b), (a, b, c), (a + c, b), (a, b + c)]
        assert Counter(mzv._stuffle((a, b), (c,))) == Counter(hand)

    def test_divergent_factor_rejected(self):
        with pytest.raises(ValueError):
            stuffle_residual((1, 2), (2,), 10)


class TestReducedForms:
    def test_residuals_converge(self):
        assert reduced_form_residual(4, 10_000) < 1e-6
        assert reduced_form_residual(10, 10_000) < 1e-5

    def test_weight12_residual_is_finite(self):
        # recorded, not asserted against a tolerance
        assert reduced_form_residual(12, 4_000) < 1.0

    def test_unknown_weight_rejected(self):
        with pytest.raises(ValueError):
            reduced_form_residual(14)

    def test_terms_are_even_weight_data(self):
        for m, terms in REDUCED_FORMS.items():
            assert m % 2 == 0
            for coeff, s in terms:
                assert isinstance(coeff, Fraction)
                assert sum(s) == m

    def test_float_expansion_matches_exact_truncation(self):
        # sanity for taylor_coeff_float: weight 3 is 2 zeta(3)
        zeta3 = mzv_float((3,), 10_000)
        assert taylor_coeff_float(3, 10_000) == pytest.approx(2 * zeta3, abs=1e-9)


@left_to_right_sum
class TestAgainstReferenceLoop:
    # the suffix trie forms the same quotients and adds them in the same
    # order as the per-composition loop, so every value is the same double
    @pytest.mark.parametrize("m", range(1, 13))
    def test_admissible_compositions(self, m):
        for s in admissible_compositions(m):
            for N in (1, 2, 7, 150):
                assert mzv_float(s, N) == _reference_mzv_float(s, N)

    def test_stuffle_and_reduced_form_compositions(self):
        deep = [s for form in REDUCED_FORMS.values() for _, s in form]
        for s in stuffle_compositions() + deep:
            for N in (1, 3, 400):
                assert mzv_float(s, N) == _reference_mzv_float(s, N)

    def test_several_compositions_in_one_call(self):
        # shared suffixes, a repeated composition and a lone head
        comps = admissible_compositions(10) + [(2, 2), (2, 2), (3,), (5, 1, 1)]
        values = mzv._mzv_floats(comps, 60)
        assert set(values) == set(comps)
        for s in comps:
            assert values[s] == _reference_mzv_float(s, 60)

    @pytest.mark.parametrize("m", range(0, 17))
    def test_taylor_coeff_float(self, m):
        for N in (1, 5, 300):
            want = 1.0 if m == 0 else float(
                sum(c * _reference_mzv_float(s, N) for s, c in taylor_terms(m))
            )
            assert taylor_coeff_float(m, N) == want

    def test_divisors_above_two_to_the_53(self):
        # v^4 for v > 9741 is rounded to a double; both loops divide by the
        # same rounded value
        want = float(sum(c * _reference_mzv_float(s, 6000) for s, c in taylor_terms(8)))
        assert taylor_coeff_float(8, 6000) == want

    @pytest.mark.parametrize("m", sorted(REDUCED_FORMS))
    def test_reduced_form_residual(self, m):
        for N in (1, 40, 500):
            assert reduced_form_residual(m, N) == _reference_reduced_form_residual(m, N)

    def test_reduced_form_residuals(self):
        ms = sorted(REDUCED_FORMS)
        for N in (1, 30, 2000):
            want = [_reference_reduced_form_residual(m, N) for m in ms]
            assert reduced_form_residuals(ms, N) == want

    def test_stuffle_residuals(self):
        for N in (1, 30, 2000):
            want = [_reference_stuffle_residual(s, t, N) for s, t in STUFFLE_PAIRS]
            assert stuffle_residuals(STUFFLE_PAIRS, N) == want
            assert [stuffle_residual(s, t, N) for s, t in STUFFLE_PAIRS] == want


def _reference_reduced_form_residual(m, N):
    taylor = float(sum(c * _reference_mzv_float(s, N) for s, c in taylor_terms(m)))
    short = 0.0
    for coeff, s in REDUCED_FORMS[m]:
        if len(s) == 1:
            short += float(coeff) * even_zeta(s[0] // 2).value
        else:
            short += float(coeff) * _reference_mzv_float(s, N)
    return abs(taylor - short)


def _reference_stuffle_residual(s, t, N):
    # the right side summed in the rule's order, written out by hand
    def z(*u):
        return _reference_mzv_float(u, N)

    if len(s) == 1:
        (a,), (b,) = s, t
        return abs(z(a) * z(b) - (z(a, b) + z(b, a) + z(a + b)))
    (a, b), (c,) = s, t
    rhs = z(a, b, c) + z(a, c, b) + z(a, b + c) + z(c, a, b) + z(a + c, b)
    return abs(z(a, b) * z(c) - rhs)


class TestOnePass:
    # sharing one _mzv_floats call among identities changes no value, on
    # every interpreter: each tail and divisor table is built the same way
    # whichever other compositions ride along
    @pytest.mark.parametrize("N", [1, 30, 2000])
    def test_stuffle_residuals_match_one_pair_at_a_time(self, N):
        single = [stuffle_residual(s, t, N) for s, t in STUFFLE_PAIRS]
        assert stuffle_residuals(STUFFLE_PAIRS, N) == single
        assert stuffle_residuals(STUFFLE_PAIRS[::-1], N) == single[::-1]

    @pytest.mark.parametrize("N", [1, 30, 2000])
    def test_reduced_form_residuals_match_one_weight_at_a_time(self, N):
        ms = sorted(REDUCED_FORMS)
        single = [reduced_form_residual(m, N) for m in ms]
        assert reduced_form_residuals(ms, N) == single
        assert reduced_form_residuals(ms[::-1], N) == single[::-1]

    @pytest.mark.parametrize(
        "call, alone",
        [
            (
                lambda: stuffle_residuals([((4,), (4,)), ((1, 2), (2,))], 10),
                lambda: stuffle_residual((1, 2), (2,), 10),
            ),
            (
                lambda: stuffle_residuals([((4,), (4,)), ((), (2,))], 10),
                lambda: stuffle_residual((), (2,), 10),
            ),
            (lambda: reduced_form_residuals([4, 14], 10), lambda: reduced_form_residual(14, 10)),
        ],
        ids=["divergent-pair", "empty-composition", "unknown-weight"],
    )
    def test_bad_identity_rejected_before_any_pass(self, monkeypatch, call, alone):
        with pytest.raises(ValueError) as want:
            alone()

        def no_table(*args):
            raise AssertionError("a divisor table or tail was built")

        monkeypatch.setattr(mzv, "array", no_table)
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == str(want.value)
