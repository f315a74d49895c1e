"""Numeric evaluation of the interpolation A(z) and the exact truncated
Taylor coefficients."""

import math
from fractions import Fraction

import pytest

from apery.function import (
    ComplexApprox,
    apery_eval,
    functional_equation_residual,
    taylor_coeff_truncated,
)
from apery.sequence import apery, apery_deriv


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def summand_coefficients(upper):
    """Brute-force oracle: fully expand every summand polynomial (no degree
    cap) and accumulate; returns the coefficient list of the truncation."""
    total = [Fraction(1)]
    for k in range(1, upper + 1):
        poly = [Fraction(1)]
        for i in range(1, k):
            poly = poly_mul(
                poly, [Fraction(1), Fraction(0), Fraction(-2, i * i), Fraction(0), Fraction(1, i**4)]
            )
        poly = poly_mul(
            poly,
            [Fraction(0), Fraction(0), Fraction(1, k * k), Fraction(2, k**3), Fraction(1, k**4)],
        )
        if len(poly) > len(total):
            total += [Fraction(0)] * (len(poly) - len(total))
        for i, c in enumerate(poly):
            total[i] += c
    return total


class TestAperyEval:
    def test_terminates_at_integers(self):
        approx = apery_eval(1, 10)
        assert approx.value == 5
        assert approx.residual == 0
        assert approx.terms == 2

    def test_zero(self):
        approx = apery_eval(0, 50)
        assert approx.value == 1
        assert approx.residual == 0

    def test_matches_exact_values_at_integers(self):
        for n in range(16):
            got = apery_eval(n, n + 5).value.real
            assert got == pytest.approx(apery(n), rel=1e-12)

    def test_reflection_of_partial_sums(self):
        for z in (0.5, 0.25, -0.5, 0.3 + 0.2j):
            a = apery_eval(z, 5000).value
            b = apery_eval(-1 - z, 5000).value
            assert abs(a - b) < 1e-12

    def test_residual_estimate_tracks_tail(self):
        small = apery_eval(-0.5, 1000)
        large = apery_eval(-0.5, 100_000)
        assert large.residual < small.residual
        assert abs(large.value.real - small.value.real) < 1e-2

    def test_terms_validated(self):
        with pytest.raises(ValueError):
            apery_eval(1.0, 0)

    def test_value_type(self):
        approx = apery_eval(0.25 + 0.25j, 100)
        assert isinstance(approx, ComplexApprox)
        assert approx.value == complex(approx.real, approx.imag)


class TestFunctionalEquation:
    def test_integer_point_vanishes(self):
        assert functional_equation_residual(2, 50) < 1e-20

    def test_half_integer(self):
        assert functional_equation_residual(0.5, 100_000) < 1e-3

    def test_complex_point(self):
        assert functional_equation_residual(0.25 + 0.25j, 100_000) < 1e-3


class TestOverflow:
    # a value that overflows a double is an error, not an answer
    def test_eval_sum_overflows(self):
        with pytest.raises(OverflowError):
            apery_eval(600, 1000)

    def test_eval_tail_overflows(self):
        # after 53 terms the sum is still finite but the next term is not
        assert math.isfinite(apery_eval(600, 52).residual)
        with pytest.raises(OverflowError):
            apery_eval(600, 53)

    def test_residual_overflows_where_values_are_finite(self):
        # A(198), A(199) and A(200) are finite; z^3 A(z) at z = 200 is not
        for z in (198, 199, 200):
            assert apery_eval(z, 1000).value.real == pytest.approx(apery(z), rel=1e-9)
        with pytest.raises(OverflowError):
            functional_equation_residual(200, 1000)


class TestDerivativeConsistency:
    def test_centered_difference_converges_quadratically(self):
        for n in range(9):
            exact = float(apery_deriv(n))
            errs = []
            for h in (1e-3, 1e-4):
                fd = (
                    apery_eval(n + h, 2000).value.real
                    - apery_eval(n - h, 2000).value.real
                ) / (2 * h)
                errs.append(abs(fd - exact))
            # O(h^2): shrinking h tenfold should cut the error ~100x
            assert errs[1] < errs[0] / 50


class TestTaylorCoefficients:
    def test_constant_and_linear(self):
        for upper in (0, 1, 5, 40):
            assert taylor_coeff_truncated(0, upper) == 1
            assert taylor_coeff_truncated(1, upper) == 0

    def test_weight_two_partial(self):
        # partial sums of zeta(2): 1 + 1/4 + 1/9
        assert taylor_coeff_truncated(2, 3) == Fraction(49, 36)

    def test_weight_four_partial(self):
        # zeta_2(4) - 2 zeta_2(2,2) = 17/16 - 1/2
        assert taylor_coeff_truncated(4, 2) == Fraction(9, 16)

    def test_against_bruteforce_expansion(self):
        for upper in range(11):
            oracle = summand_coefficients(upper)
            for m in range(11):
                want = oracle[m] if m < len(oracle) else Fraction(0)
                assert taylor_coeff_truncated(m, upper) == want

    def test_monotone_in_truncation_for_positive_coefficients(self):
        # a_2 and a_3 have single positive terms, so truncations increase
        values = [taylor_coeff_truncated(3, N) for N in range(1, 30)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            taylor_coeff_truncated(-1, 5)
        with pytest.raises(ValueError):
            taylor_coeff_truncated(2, -1)
