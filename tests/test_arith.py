"""Exact-arithmetic helpers: binomials, residues, and the classical congruence
ingredients, with the tests' own rational reduction."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apery.arith import (
    PRIMALITY_BOUND,
    Residue,
    _digits,
    _icbrt,
    binomial,
    is_prime,
    jacobsthal_holds,
    primes_upto,
    wolstenholme_residue,
)
from oracles import rational_mod


def factorial_binomial(n, k):
    # independent oracle for C(n, k)
    if k < 0 or k > n:
        return 0
    return math.factorial(n) // (math.factorial(k) * math.factorial(n - k))


class TestBinomial:
    def test_values(self):
        assert binomial(7, 0) == 1
        assert binomial(7, 8) == 0
        assert binomial(10, 3) == 120
        assert binomial(5, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_pascal_against_factorial_formula(self):
        for n in range(1, 61):
            for k in range(n + 1):
                assert binomial(n, k) == factorial_binomial(n, k)
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestResidue:
    def test_normalization(self):
        assert Residue(-1, 7).value == 6
        assert Residue(25, 8).value == 1

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            Residue(0, 1)

    def test_str_carries_modulus(self):
        assert str(Residue(23, 25)) == "23 (mod 25)"


class TestRationalMod:
    def test_values(self):
        assert rational_mod(Fraction(11, 6), 25).value == 6
        assert rational_mod(Fraction(0), 9).value == 0

    def test_denominator_sharing_factor(self):
        with pytest.raises(ValueError):
            rational_mod(Fraction(1, 5), 25)

    @given(st.integers(-10**9, 10**9), st.integers(2, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_agrees_with_integer_reduction(self, x, m):
        assert rational_mod(Fraction(x), m).value == x % m

    @given(st.integers(-10**6, 10**6), st.integers(1, 999), st.integers(2, 10**4))
    @settings(max_examples=50, deadline=None)
    def test_reduction_clears_denominator(self, num, den, m):
        q = Fraction(num, den)
        if math.gcd(q.denominator, m) != 1:
            return
        r = rational_mod(q, m)
        assert r.value * q.denominator % m == q.numerator % m


class TestWolstenholme:
    def test_small_prime(self):
        assert wolstenholme_residue(3).value == 2

    def test_zero_from_five_up(self):
        for p in [q for q in primes_upto(200) if q >= 5]:
            assert wolstenholme_residue(p).value == 0

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            wolstenholme_residue(9)


class TestJacobsthal:
    def test_examples(self):
        assert jacobsthal_holds(4, 2, 5)
        assert jacobsthal_holds(1, 0, 7)
        assert jacobsthal_holds(6, 3, 7)

    def test_small_sweep(self):
        for p in (5, 7, 11):
            for a in range(6):
                for b in range(a + 1):
                    assert jacobsthal_holds(a, b, p)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            jacobsthal_holds(2, 3, 5)
        with pytest.raises(ValueError):
            jacobsthal_holds(3, 1, 4)


def peeled_digits(n, p):
    # reference for _digits: one digit per divmod of the whole remaining n
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return digits


class TestDigits:
    @pytest.mark.parametrize("p", [2, 3, 7, 101, 1000003])
    def test_powers_and_their_neighbours(self, p):
        for e in (0, 1, 2, 3, 4, 5, 8, 16, 33, 64, 100):
            for n in (p**e - 1, p**e, p**e + 1, 2 * p**e, (p - 1) * p**e):
                assert _digits(n, p) == peeled_digits(n, p), (n, p)

    @given(
        st.integers(min_value=0, max_value=10**600),
        st.sampled_from([2, 3, 5, 7, 101, 10**9 + 7]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_peeling(self, n, p):
        assert _digits(n, p) == peeled_digits(n, p)


class TestCubeRoot:
    def test_cubes_and_their_neighbours(self):
        for r in [*range(1, 200), 10**7 + 19, 2**200 - 1, 1000003**5]:
            for n in (r**3 - 1, r**3, r**3 + 1):
                assert _icbrt(n) == (r - 1 if n < r**3 else r), n

    @given(st.integers(min_value=0, max_value=10**900))
    @settings(max_examples=200, deadline=None)
    def test_floor_root(self, n):
        r = _icbrt(n)
        assert r**3 <= n < (r + 1) ** 3


def test_primes_upto():
    assert primes_upto(1) == []
    assert primes_upto(31) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert all(is_prime(p) for p in primes_upto(500))
    assert not is_prime(1) and not is_prime(0)


class TestIsPrime:
    def test_agrees_with_sieve(self):
        primes = set(primes_upto(200000))
        assert all(is_prime(n) == (n in primes) for n in range(200001))

    def test_strong_pseudoprimes_rejected(self):
        # the last one passes every base below 41
        for n in (561, 3215031751, 3825123056546413051, 318665857834031151167461):
            assert not is_prime(n)

    def test_large_prime(self):
        assert is_prime(2**61 - 1)

    def test_bound(self):
        # one above the bound is the smallest strong pseudoprime to every base
        assert PRIMALITY_BOUND + 1 == 1287836182261 * 2575672364521
        with pytest.raises(ValueError):
            is_prime(PRIMALITY_BOUND + 1)
