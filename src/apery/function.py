"""Numeric evaluation of the entire Apery function and exact truncated
Taylor coefficients of its expansion at the origin.

The interpolation is A(z) = sum_k ((-z)_k (z+1)_k / k!^2)^2 with Pochhammer
symbols (rising factorials).  Terms are updated incrementally, never through
gamma-function quotients, so the poles of gamma at non-positive integers are
never touched.  For non-negative integer z the factor (-z)_k vanishes once
k > z and the series terminates exactly.

The exact Taylor coefficients come from one integer pass over the
truncations (_taylor_numerators): numerators over lcm(1..upper)^m, with no
Fraction arithmetic inside the loop.
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


@dataclass(frozen=True)
class ComplexApprox:
    """A numeric partial sum: value, number of terms summed, tail estimate.

    residual is the magnitude of the first omitted term; it is exactly zero
    when the series terminated before the requested term count.  The value
    is the terms' float sum in order, so how each term ratio is rounded
    can move its last digit or two, but not terms or a zero residual.
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
    from the integers.  Raises OverflowError when the sum or the first
    omitted term is not a finite double, as at large real z.
    """
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
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
        if term == 0:  # series terminated (integer z)
            break
        k = kk
    residual = abs(term)
    if not (cmath.isfinite(total) and math.isfinite(residual)):
        raise OverflowError(f"A(z) overflows a double at z={z}, {summed} terms")
    return ComplexApprox(total.real, total.imag, summed, residual)


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
    OverflowError when the residual or the terms' size is not a finite
    double: A(z) can be finite where z^3 A(z) is not.
    """
    z = complex(z)
    parts = (
        z**3 * apery_eval(z, terms).value,
        -(34 * z**3 - 51 * z**2 + 27 * z - 5) * apery_eval(z - 1, terms).value,
        (z - 1) ** 3 * apery_eval(z - 2, terms).value,
    )
    rhs = 8 / math.pi**2 * (2 * z - 1) * cmath.sin(cmath.pi * z) ** 2
    residual = abs(parts[0] + parts[1] + parts[2] - rhs)
    scale = max(1.0, sum(map(abs, parts)))
    if not (math.isfinite(residual) and math.isfinite(scale)):
        raise OverflowError(f"the functional equation overflows a double at z={z}")
    return residual / scale


def _taylor_numerators(m: int, upper: int, scale: int) -> Iterator[int]:
    """Yield scale^m times the coefficient of z^m in the series truncated at
    k <= N, for N = 0, 1, ..., upper, in one pass.

    scale must be a multiple of every k <= upper; lcm(1..upper) is the
    smallest.  The running product holds its z^j coefficient times scale^j,
    so with q = scale // k the factor 1 - 2z^2/k^2 + z^4/k^4 contributes
    the integers q^2 and q^4 and no step divides.
    """
    total = 1 if m == 0 else 0  # the k = 0 summand
    yield total
    if m < 2:  # every k >= 1 summand starts at z^2
        for _ in range(upper):
            yield total
        return
    # running[i] is the scaled z^(2i) coefficient; the product is even in z
    running = [1] + [0] * ((m - 2) // 2)
    top = len(running) - 1
    for k in range(1, upper + 1):
        q = scale // k
        q2 = q * q
        if m % 2:  # 2 z^3/k^3 times z^(m-3)
            total += 2 * q2 * q * running[top]
        else:  # z^2/k^2 times z^(m-2), z^4/k^4 times z^(m-4)
            total += q2 * (running[top] + (q2 * running[top - 1] if top else 0))
        yield total
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
    integers over the common denominator lcm(1..N)^m, capped at degree
    m, so the cost is O(N * m) integer multiplications and one gcd at
    the end.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    scale = math.lcm(*range(1, N + 1))
    for last in _taylor_numerators(m, N, scale):
        pass
    return Fraction(last, scale**m)
