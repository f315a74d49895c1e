"""Numeric evaluation of the interpolation A(z) and the exact truncated
Taylor coefficients."""

import cmath
import functools
import math
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from apery.function import (
    _BERNOULLI,
    _HEAD_MIN,
    ComplexApprox,
    _taylor_numerators,
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


def _reference_eval(z, terms):
    """The term-ratio loop apery_eval replaced: ((k - z)(k + 1 + z))^2 /
    (k + 1)^4 with an int index.  Returns (value, terms, residual)."""
    z = complex(z)
    total = 0j
    term = 1 + 0j
    summed = 0
    for k in range(terms):
        total += term
        summed = k + 1
        term = term * ((k - z) * (k + 1 + z) / (k + 1) ** 2) ** 2
        if term == 0:
            break
    return total, summed, abs(term)


def _loop_eval(z, terms):
    """apery_eval's single-ratio loop over every term, with no tail route:
    below 2M terms apery_eval must return exactly this.  Returns (value,
    terms, residual)."""
    z = complex(z)
    c = z * (z + 1)
    total = 0j
    term = 1 + 0j
    k = 0.0
    for summed in range(1, terms + 1):
        total += term
        kk = k + 1.0
        r = (k * kk - c) / (kk * kk)
        term *= r * r
        if term == 0:
            break
        k = kk
    return total, summed, abs(term)


@functools.cache
def _decimal_partial_sums(z, ns):
    """Independent oracle: {N: (partial sum of N terms, |t_N|)} for each N
    in ns, from the term recurrence t_(k+1) = t_k ((k(k+1) - c)/(k+1)^2)^2
    in 40-digit decimal arithmetic on (re, im) pairs, rounded to doubles."""
    out = {}
    with localcontext() as ctx:
        ctx.prec = 40
        zr, zi = Decimal(z.real), Decimal(z.imag)
        cr, ci = zr * zr - zi * zi + zr, 2 * zr * zi + zi
        ci2, two_ci = ci * ci, 2 * ci
        tr, ti = Decimal(1), Decimal(0)
        sr, si = Decimal(0), Decimal(0)
        k = 0
        for n in sorted(ns):
            for k in range(k, n):
                sr += tr
                si += ti
                a = k * (k + 1) - cr  # (k(k+1) - c)^2 = a^2 - ci^2 - 2 a ci i
                d = Decimal((k + 1) ** 4)
                ur, ui = (a * a - ci2) / d, -two_ci * a / d
                tr, ti = tr * ur - ti * ui, tr * ui + ti * ur
            k = n
            out[n] = (complex(float(sr), float(si)), abs(complex(float(tr), float(ti))))
    return out


def _head(z):
    """M, the number of terms apery_eval's loop sums before the tail route."""
    z = complex(z)
    return max(_HEAD_MIN, math.ceil(2 * abs(z * (z + 1))))


# 0.5+40j: |2c/M| is 1, the worst case of the rule for M, and the tail
# is as large as A(z), so the highest kept order of the expansion shows
TAIL_POINTS = [0.3 + 0.2j, 2.5 - 0.6j, -2.35, 7.5 + 3j, -0.5 + 0.3j, 0.5 + 40j]


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


class TestAgainstReferenceLoop:
    # the single-ratio loop sums the same terms, each rounded a little
    # differently, and from 2M terms on the tail expansion sums the rest:
    # values agree to rounding, term counts exactly, and a terminating
    # series reports the same count and a zero residual
    @pytest.mark.parametrize(
        "z",
        [0.3 + 0.2j, -2.35, 2.5 - 0.6j, 0.5, -0.5, 0.25 + 0.25j, -1.3, 1e-9,
         2.999999, 4.0000001 + 0.0001j, -3.0000001, 7.5 + 3j, 0.1j],
    )
    @pytest.mark.parametrize("terms", [1, 2, 50, 20_000])
    def test_non_terminating(self, z, terms):
        want, count, _ = _reference_eval(z, terms)
        got = apery_eval(z, terms)
        assert got.terms == count == terms
        assert abs(got.value - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize(
        "z", [0, 1, 2, 3, 7, 30, -1, -2, -4, -31, 3.0, 3 + 0j, 3 + 1e-300j, -4 + 1e-300j]
    )
    @pytest.mark.parametrize("terms", [1, 3, 4, 1000])
    def test_terminating(self, z, terms):
        want, count, residual = _reference_eval(z, terms)
        got = apery_eval(z, terms)
        assert (got.terms, got.residual) == (count, residual)
        assert abs(got.value - want) <= 1e-14 * abs(want)

    def test_three_plus_tiny_imaginary_part(self):
        # (k - z)(k + 1 + z) at k = 3 is about -7e-300j; its square
        # underflows to 0 in both loops, so both stop after 4 terms
        for z in (3, -4, 3 + 1e-300j):
            got = apery_eval(z, 1000)
            assert (got.terms, got.residual, got.real) == (4, 0.0, 1445.0)


class TestTailRoute:
    def test_bernoulli_table_matches_recursion(self):
        # sum_(i <= m) C(m+1, i) B_i = 0 for m >= 1
        b = [Fraction(1)]
        for m in range(1, len(_BERNOULLI)):
            b.append(-sum(math.comb(m + 1, i) * b[i] for i in range(m)) / (m + 1))
        assert _BERNOULLI == tuple(float(x) for x in b)

    @pytest.mark.parametrize("z", TAIL_POINTS)
    def test_against_decimal_oracle(self, z):
        m = _head(z)
        ns = (2 * m - 1, 2 * m, 2 * m + 1, 50_000)
        want = _decimal_partial_sums(complex(z), ns)
        for n in ns:
            got = apery_eval(z, n)
            value, residual = want[n]
            assert got.terms == n
            assert abs(got.value - value) <= 1e-14 * abs(value), n
            assert abs(got.residual - residual) <= 1e-12 * residual, n

    @pytest.mark.parametrize("z", TAIL_POINTS)
    def test_below_two_heads_is_the_loop(self, z):
        m = _head(z)
        for n in (1, 2, 50, m, 2 * m - 1):
            got = apery_eval(z, n)
            assert (got.value, got.terms, got.residual) == _loop_eval(z, n)

    def test_terminating_series_at_many_terms(self):
        for z in (3, -4, 3 + 1e-300j):
            got = apery_eval(z, 10**6)
            assert (got.terms, got.residual, got.real) == (4, 0.0, 1445.0)

    def test_terms_are_the_count_asked(self):
        for z in (0.5, -0.5 + 0.3j, 2.999999, 1e-9):
            got = apery_eval(z, 10**7)
            assert got.terms == 10**7 and 0 < got.residual < 1e-14

    @pytest.mark.parametrize("z", [math.nan, math.inf, complex(0, math.inf), 1e200])
    @pytest.mark.parametrize("terms", [10, 10**4])
    def test_non_finite_c_takes_the_loop(self, z, terms):
        # c = z(z + 1) is nan or inf here: no tail, and the loop's error
        with pytest.raises(OverflowError, match=f"overflows a double at .*, {terms} terms"):
            apery_eval(z, terms)

    def test_overflow_at_many_terms(self):
        # |c| = 3.6e5 makes M about 7.2e5, so 10^6 terms take the loop
        with pytest.raises(OverflowError):
            apery_eval(600.5, 10**6)

    def test_overflow_ends_the_loop(self):
        # the term is infinite after about 55 terms; summing on to 10^6 took
        # 0.3-0.4 s, and the error still names the count asked for
        t0 = time.perf_counter()
        with pytest.raises(OverflowError, match=r"overflows a double at z=\(600\.5\+0j\), 1000000 terms"):
            apery_eval(600.5, 10**6)
        assert time.perf_counter() - t0 < 0.05


class TestFunctionalEquation:
    def test_integer_point_vanishes(self):
        assert functional_equation_residual(2, 50) < 1e-20

    def test_half_integer(self):
        # not z = 0.5, where the equation holds for any A with A(z) = A(-1-z)
        for z in (-0.5, 1.5):
            assert functional_equation_residual(z, 100_000) < 1e-3

    def test_complex_point(self):
        assert functional_equation_residual(0.25 + 0.25j, 100_000) < 1e-3

    def test_large_terms_do_not_fail_on_rounding(self):
        # z^3 A(z) at z = 10 is near 1e16, where a double's spacing is 2;
        # the absolute residual was 1.0 there, the relative one is rounding
        assert functional_equation_residual(10, 1000) < 1e-12
        assert functional_equation_residual(10) < 1e-12

    def test_never_above_the_absolute_residual(self):
        # the denominator is max(1, sum of the terms' sizes); below size 1
        # (z = 0.3, 0.5, ...) the residual is the absolute one
        for z in (0.3, 0.5, 0.25 + 0.25j, -1.3, 2.5 - 0.6j):
            a0, a1, a2 = (_reference_eval(z - j, 20_000)[0] for j in range(3))
            z = complex(z)
            lhs = z**3 * a0 - (34 * z**3 - 51 * z**2 + 27 * z - 5) * a1 + (z - 1) ** 3 * a2
            rhs = 8 / math.pi**2 * (2 * z - 1) * cmath.sin(cmath.pi * z) ** 2
            assert functional_equation_residual(z, 20_000) <= abs(lhs - rhs) * (1 + 1e-9)

    def test_scale_rounds_once(self):
        # at z = 0.263 the terms' sizes added left to right miss their
        # correctly rounded sum by one unit, and so would the residual
        z, terms = complex(0.263), 2000
        weights = (z**3, -(34 * z**3 - 51 * z**2 + 27 * z - 5), (z - 1) ** 3)
        parts = [c * apery_eval(z - j, terms).value for j, c in enumerate(weights)]
        rhs = 8 / math.pi**2 * (2 * z - 1) * cmath.sin(cmath.pi * z) ** 2
        residual = abs(parts[0] + parts[1] + parts[2] - rhs)
        scale = max(1.0, math.fsum(map(abs, parts)))
        assert functional_equation_residual(z, terms) == residual / scale


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

    def test_residual_names_z_where_the_terms_add_past_a_double(self):
        # each term of the equation is finite at z = 199.4, but the sum of
        # their sizes is not
        with pytest.raises(OverflowError, match=r"functional equation overflows .* at z="):
            functional_equation_residual(199.4, 1000)

    def test_residual_names_z_where_z_cubed_overflows(self):
        # beyond |z| of about 5.6e102 the complex power z^3 itself raises
        for z in (1e308, -1e200, 1e200j):
            with pytest.raises(OverflowError, match=r"functional equation overflows .* at z="):
                functional_equation_residual(z, 1000)


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


def _reference_numerators(m, upper, scale):
    """The fixed-scale pass _taylor_numerators replaced: scale^m times the
    coefficient of z^m truncated at N = 0..upper, every entry over scale^j
    from k = 1 on; scale is a multiple of every k <= upper."""
    total = 1 if m == 0 else 0
    yield total
    if m < 2:
        for _ in range(upper):
            yield total
        return
    running = [1] + [0] * ((m - 2) // 2)
    top = len(running) - 1
    for k in range(1, upper + 1):
        q = scale // k
        q2 = q * q
        if m % 2:
            total += 2 * q2 * q * running[top]
        else:
            total += q2 * (running[top] + (q2 * running[top - 1] if top else 0))
        yield total
        for i in range(top, 0, -1):
            lower = 2 * running[i - 1] - (q2 * running[i - 2] if i >= 2 else 0)
            running[i] -= q2 * lower


class TestTaylorNumerators:
    # each yield lifted to the common scale lcm(1..upper)^m is the
    # fixed-scale numerator, integer for integer
    @staticmethod
    def lifted(m, upper):
        scale = math.lcm(*range(1, upper + 1))
        return [value * (scale // s) ** m for s, value in _taylor_numerators(m, upper)]

    @pytest.mark.parametrize("m", range(25))
    def test_equal_to_the_fixed_scale_pass(self, m):
        # one pass to 150 yields every truncation N <= 150
        for upper in (0, 1, 2, 3, 7, 150):
            scale = math.lcm(*range(1, upper + 1))
            assert self.lifted(m, upper) == list(_reference_numerators(m, upper, scale))

    def test_equal_at_weight_20_to_360(self):
        scale = math.lcm(*range(1, 361))
        assert self.lifted(20, 360) == list(_reference_numerators(20, 360, scale))

    def test_scale_is_the_truncation_lcm(self):
        scales = [s for s, _ in _taylor_numerators(6, 40)]
        assert scales == [math.lcm(*range(1, N + 1)) for N in range(41)]
