"""Numeric evaluation of the entire Apery function and exact truncated
Taylor coefficients of its expansion at the origin.

The interpolation is A(z) = sum_k ((-z)_k (z+1)_k / k!^2)^2 with Pochhammer
symbols (rising factorials).  Terms are updated incrementally, never through
gamma-function quotients, so the poles of gamma at non-positive integers are
never touched.  For non-negative integer z the factor (-z)_k vanishes once
k > z and the series terminates exactly.  Past a few thousand terms, the
rest of a long partial sum comes from the asymptotic expansion of the terms
(Stirling's series and Hurwitz zeta values, _tail), not from more terms.

The exact Taylor coefficients come from one integer pass over the
truncations (_taylor_numerators): the numerator of truncation k over
lcm(1..k)^m, with no Fraction arithmetic inside the loop.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

__all__ = [
    "ComplexApprox",
    "apery_eval",
    "functional_equation_residual",
    "taylor_coeff_truncated",
]


# B_0 .. B_8 (B_1 = -1/2; the other odd ones vanish): all the tail
# expansion below reads, kept literal so no call pays a Fraction recursion
_BERNOULLI = (1.0, -0.5, 1 / 6, 0.0, -1 / 30, 0.0, 1 / 42, 0.0, -1 / 30)
_HEAD_MIN = 2048  # fewest terms the loop sums before the tail route
_BLOCK = 64  # terms the loop sums between two finiteness tests
_PHI_ORDER = 7  # highest odd n with D_n k^-n kept in log t_k
_EXP_ORDER = 15  # highest j with e_j k^-j kept in exp(2 Phi(k))
_EM_TERMS = 2  # Euler-Maclaurin corrections in each Hurwitz zeta


@dataclass(frozen=True)
class ComplexApprox:
    """A numeric partial sum: value, number of terms summed, tail estimate.

    residual is the magnitude of the first omitted term; it is exactly zero
    when the series terminated before the requested term count.  The value
    is the partial sum of the first `terms` terms; see apery_eval for how it
    is summed and how close to that sum a double gets.
    """

    real: float
    imag: float
    terms: int
    residual: float

    @property
    def value(self) -> complex:
        return complex(self.real, self.imag)


def apery_eval(z: complex, terms: int = 100_000) -> ComplexApprox:
    """Partial sum of the interpolation series for A(z) with the given
    number of terms.

    The term ratio is ((k - z)(k + 1 + z))^2 / (k + 1)^4, and
    (k - z)(k + 1 + z) = k(k + 1) - z(z + 1), so with c = z(z + 1) computed
    once each step is one complex division by a real and two complex
    multiplications.  The index k is carried as a float: below 2^53 it is
    exact, and k(k + 1) and (k + 1)^2 round exactly as the int products
    would.  Term magnitudes decay like 1/k^2, giving an O(1/terms) tail away
    from the integers.

    The loop sums the first M = max(2048, ceil(2|c|)) terms.  When terms
    >= 2M and the series has not terminated, terms M .. terms-1 and the
    first omitted term come from the asymptotic expansion of the terms,
    anchored on the loop's own t_M (_tail); otherwise the loop sums every
    term, in order.  Against a 40-digit decimal sum of the same series the
    value agrees within 5e-15 relative at the points the tests check.
    Raises OverflowError when the sum or the first omitted term is not a
    finite double, as at large real z; the loop tests the term once per
    block of _BLOCK terms and stops at the first block past an overflow.
    """
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    z = complex(z)
    c = z * (z + 1)
    head = terms  # a non-finite c fails the test below and takes the loop
    if abs(c) < terms:
        head = max(_HEAD_MIN, math.ceil(2 * abs(c)))
        if terms < 2 * head:
            head = terms
    total = 0j
    term = 1 + 0j
    k = 0.0
    # blocks of _BLOCK terms, so an overflow ends the loop within a block
    # without a test on every term
    for start in range(0, head, _BLOCK):
        for summed in range(start + 1, min(start + _BLOCK, head) + 1):
            total += term
            kk = k + 1.0
            r = (k * kk - c) / (kk * kk)
            term *= r * r
            if term == 0:  # series terminated (integer z)
                break
            k = kk
        if term == 0 or not cmath.isfinite(term):
            break
    if not cmath.isfinite(term):
        raise OverflowError(f"A(z) overflows a double at z={z}, {terms} terms")
    if summed < terms and term != 0:  # head < terms: the tail route
        tail, term = _tail(z, head, terms, term)
        total += tail
        summed = terms
    residual = abs(term)
    if not (cmath.isfinite(total) and math.isfinite(residual)):
        raise OverflowError(f"A(z) overflows a double at z={z}, {summed} terms")
    return ComplexApprox(total.real, total.imag, summed, residual)


def _tail(z: complex, head: int, terms: int, t_head: complex) -> tuple[complex, complex]:
    """Sum of t_k for head <= k < terms, and t_terms, given t_head.

    Stirling's series for lnGamma(k + a) - lnGamma(k + 1) (DLMF 5.11) at
    a = -z and a = z + 1, with B_m(1 + x) = (-1)^m B_m(-x), gives

        log t_k = const - 2 log k + 2 Phi(k),  Phi(x) = sum D_n x^-n,
        D_n = 2 (B_(n+1)(-z) - B_(n+1)) / (n (n + 1)),

    over odd n only: at even n the two Bernoulli polynomials cancel and
    B_(n+1) = 0.  D_1 = c = z(z + 1).  So t_k = t_head (head/k)^2
    exp(2 Phi(k) - 2 Phi(head)), with no Gamma or sin(pi z) factor to
    normalise.  Writing exp(2 Phi(x)) = sum_j e_j x^-j, the tail is

        t_head head^2 exp(-2 Phi(head)) sum_j e_j (zeta(j+2, head) - zeta(j+2, terms)).

    head >= 2|c| keeps |2c/k| <= 1, so the dropped orders of exp(2c/k)
    fall like 1/j!: at the worst case, z = 0.5+40j where the tail is as
    large as A(z), order 15 leaves about 1e-15 and order 14 about 5e-14.
    The dropped 2 D_9 k^-9 is about 1e-17 there.
    """
    # the sums here add complex numbers, which sum() adds left to right on
    # 3.10-3.13 (only float sums compensate, from 3.12), so they print the
    # same digits on every supported Python
    x = -z
    two_d = [0j] * (_EXP_ORDER + 1)  # 2 D_n at index n
    for n in range(1, _PHI_ORDER + 1, 2):
        poly = sum(math.comb(n + 1, i) * _BERNOULLI[i] * x ** (n + 1 - i) for i in range(n + 1))
        two_d[n] = 4 * poly / (n * (n + 1))
    e = [1 + 0j]  # j e_j = sum_i i (2 D_i) e_(j-i), the series of exp
    for j in range(1, _EXP_ORDER + 1):
        e.append(sum(i * two_d[i] * e[j - i] for i in range(1, j + 1, 2)) / j)
    a, b = float(head), float(terms)

    def two_phi(v: float) -> complex:
        return sum(two_d[n] * v**-n for n in range(1, _PHI_ORDER + 1, 2))

    series = sum(
        e_j * (_hurwitz_zeta(j + 2, a) - _hurwitz_zeta(j + 2, b)) for j, e_j in enumerate(e)
    )
    anchor = t_head * a * a * cmath.exp(-two_phi(a))
    return anchor * series, anchor / (b * b) * cmath.exp(two_phi(b))


def _hurwitz_zeta(s: int, a: float) -> float:
    """zeta(s, a) = sum_(k >= 0) (k + a)^-s for s >= 2 and a >= 2048, by
    Euler-Maclaurin (DLMF 25.11): a^(1-s)/(s-1) + a^-s/2 plus
    B_2m/(2m)! (s)_(2m-1) a^(1-s-2m) for m = 1 .. _EM_TERMS.  The first
    correction dropped is below 2e-17 of the sum at s <= _EXP_ORDER + 2.
    """
    power = a**-s
    total = power * (a / (s - 1) + 0.5)
    rising = s * power / a  # (s)_(2m-1) a^(1-s-2m) at m = 1
    for m in range(1, _EM_TERMS + 1):
        total += _BERNOULLI[2 * m] / math.factorial(2 * m) * rising
        rising *= (s + 2 * m - 1) * (s + 2 * m) / (a * a)
    return total


def functional_equation_residual(z: complex, terms: int = 100_000) -> float:
    """Residual of the inhomogeneous three-term functional equation at z,
    relative to the size of its terms.

    |z^3 A(z) - p(z) A(z-1) + (z-1)^3 A(z-2) - (8/pi^2)(2z - 1) sin(pi z)^2|
    / max(1, |z^3 A(z)| + |p(z) A(z-1)| + |(z-1)^3 A(z-2)|)

    with p(z) = 34z^3 - 51z^2 + 27z - 5, evaluated with partial sums of the
    given length.  Where the terms are large (near 10^16 at z = 10) the
    difference loses its last units to rounding, so the denominator keeps
    the residual a measure of the equation, not of a double's spacing;
    where they are below 1 the residual is the absolute one.  Exactly zero
    at integer z up to series termination, since the sine factor vanishes
    there and the equation reduces to the integer recurrence.  Raises
    OverflowError when z^3, the residual or the terms' size is not a finite
    double: A(z) can be finite where z^3 A(z) is not.
    """
    z = complex(z)
    overflow = OverflowError(f"the functional equation overflows a double at z={z}")
    try:  # a complex power raises on overflow, beyond |z| of about 5.6e102
        weights = (z**3, -(34 * z**3 - 51 * z**2 + 27 * z - 5), (z - 1) ** 3)
    except OverflowError:
        raise overflow from None
    parts = [c * apery_eval(z - j, terms).value for j, c in enumerate(weights)]
    rhs = 8 / math.pi**2 * (2 * z - 1) * cmath.sin(cmath.pi * z) ** 2
    residual = abs(parts[0] + parts[1] + parts[2] - rhs)
    try:  # fsum raises where finite terms add up past the largest double
        scale = max(1.0, math.fsum(map(abs, parts)))
    except OverflowError:
        raise overflow from None
    if not (math.isfinite(residual) and math.isfinite(scale)):
        raise overflow
    return residual / scale


def _taylor_numerators(m: int, upper: int) -> Iterator[tuple[int, int]]:
    """Yield (s, s^m times the coefficient of z^m in the series truncated at
    k <= N), with s = lcm(1..N), for N = 0, 1, ..., upper, in one pass.

    The running product holds its z^j coefficient times s^j at the scale of
    the truncation it has reached.  s grows only at a prime power k = g^e,
    by the prime g; then entry i (the z^(2i) coefficient) is multiplied by
    g^(2i) and the total by g^m.  With q = s // k the factor
    1 - 2z^2/k^2 + z^4/k^4 contributes the integers q^2 and q^4, and no step
    divides.  Every entry is as large as its truncation needs, not as the
    last one's denominator lcm(1..upper)^m.
    """
    scale, total = 1, int(m == 0)  # the k = 0 summand
    yield scale, total
    # running[i] is the scaled z^(2i) coefficient; the product is even in z
    running = [1] + [0] * ((m - 2) // 2)
    top = len(running) - 1
    for k in range(1, upper + 1):
        g = k // math.gcd(k, scale % k)  # s_k / s_(k-1)
        if g > 1:
            scale *= g
            total *= g**m
            lift = g2 = g * g
            for i in range(1, top + 1):
                running[i] *= lift
                lift *= g2
        q = scale // k
        q2 = q * q
        if m >= 2:  # every k >= 1 summand starts at z^2
            if m % 2:  # 2 z^3/k^3 times z^(m-3)
                total += 2 * q2 * q * running[top]
            else:  # z^2/k^2 times z^(m-2), z^4/k^4 times z^(m-4)
                total += q2 * (running[top] + (q2 * running[top - 1] if top else 0))
        yield scale, total
        # times 1 - 2q^2 z^2 + q^4 z^4, top first so lower entries are old
        for i in range(top, 0, -1):
            lower = 2 * running[i - 1] - (q2 * running[i - 2] if i >= 2 else 0)
            running[i] -= q2 * lower


def taylor_coeff_truncated(m: int, N: int) -> Fraction:
    """Exact coefficient of z^m in the series truncated at k <= N.

    The k-th summand of the interpolation series expands as

        (1 - 2 z^2/1^2 + z^4/1^4) ... (1 - 2 z^2/(k-1)^2 + z^4/(k-1)^4)
        * (z^2/k^2 + 2 z^3/k^3 + z^4/k^4)

    for k >= 1 (and 1 for k = 0).  The running product is carried as
    integers over lcm(1..k)^m, capped at degree m, so the cost is
    O(N * m) integer multiplications and one gcd at the end.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    for scale, last in _taylor_numerators(m, N):
        pass
    return Fraction(last, scale**m)
