"""Reference answers that do not go through the route a request exercises.

Exact values come from the defining binomial sum
A(n) = sum_k C(n,k)^2 C(n+k,k)^2 reduced term by term modulo a prime or a
prime square.  Residues at huge n come from the Lucas (mod p) and
Gessel (mod p^2) digit formulas fed with digit tables that are themselves
direct sums.  Floats are compared with references stored in refs.json,
computed at high precision by make_refs.py.

Nothing here imports apery: the package's recurrence, memo and digit tables
are exactly what the benchmark checks.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from fractions import Fraction

# 2^61 - 1 is prime and exceeds 2n for every index the benchmark requests, so
# all factorials below 2n are units modulo it.
Q61 = (1 << 61) - 1

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


class Factorials:
    """n! and 1/n! modulo m for 0 <= n <= size, valid while those are units."""

    def __init__(self, size: int, m: int):
        self.m = m
        fact = [1] * (size + 1)
        for i in range(1, size + 1):
            fact[i] = fact[i - 1] * i % m
        inv = [1] * (size + 1)
        inv[size] = pow(fact[size], -1, m)
        for i in range(size, 0, -1):
            inv[i - 1] = inv[i] * i % m
        self.fact, self.inv = fact, inv

    def reciprocal(self, i: int) -> int:
        return self.fact[i - 1] * self.inv[i] % self.m


class PrimeDigits:
    """Digit tables A(d) and A'(d) modulo p and p^2 for d < p, by direct sums.

    For d, k < p with d + k >= p, C(d+k, k) has exactly one factor p, so the
    summand C(d,k)^2 C(d+k,k)^2 vanishes modulo p^2 and only k <= p-1-d
    contributes to A(d).  In A'(d) those summands meet the 1/p inside
    H_{d+k} - H_{d-k} and leave p * (summand / p^2), which is computed modulo
    p with Wilson's theorem: (d+k)!/p = -(d+k-p)! (mod p).
    """

    def __init__(self, p: int):
        self.p = p
        self.m2 = p * p
        self.f1 = Factorials(p - 1, p)
        self.f2 = Factorials(p - 1, self.m2)
        self._harmonic: list[int] | None = None
        self._a1: dict[int, int] = {}
        self._a2: dict[int, tuple[int, int]] = {}

    def a_mod_p(self, d: int) -> int:
        if d not in self._a1:
            p, f, inv = self.p, self.f1.fact, self.f1.inv
            total = 0
            for k in range(min(d, p - 1 - d) + 1):
                c = f[d + k] * inv[k] % p * inv[k] % p * inv[d - k] % p
                total += c * c
            self._a1[d] = total % p
        return self._a1[d]

    def a_mod_p2(self, d: int) -> tuple[int, int]:
        """(A(d) mod p^2, A'(d) mod p^2)."""
        if d in self._a2:
            return self._a2[d]
        p, m = self.p, self.m2
        if self._harmonic is None:
            self._harmonic = [0] * p
            for i in range(1, p):
                self._harmonic[i] = (self._harmonic[i - 1] + self.f2.reciprocal(i)) % m
        h, f, inv = self._harmonic, self.f2.fact, self.f2.inv
        value = deriv = 0
        for k in range(min(d, p - 1 - d) + 1):
            c = f[d + k] * inv[k] % m * inv[k] % m * inv[d - k] % m
            term = c * c % m
            value += term
            deriv += term * (h[d + k] - h[d - k])
        f1, inv1 = self.f1.fact, self.f1.inv
        carried = 0
        for k in range(max(p - d, 0), d + 1):
            # C(d,k) C(d+k,k) / p = -(d+k-p)! / (k!^2 (d-k)!)  (mod p)
            c = f1[d + k - p] * inv1[k] % p * inv1[k] % p * inv1[d - k] % p
            carried += c * c
        deriv += p * (carried % p)
        self._a2[d] = (value % m, 2 * deriv % m)
        return self._a2[d]


def apery_mod_p(n: int, digits: PrimeDigits) -> int:
    """A(n) mod p by the Lucas property A(d + p n) = A(d) A(n) (mod p)."""
    if n < 0:
        n = -1 - n
    p, result = digits.p, 1
    while n:
        n, d = divmod(n, p)
        result = result * digits.a_mod_p(d) % p
    return result


def apery_mod_p2(n: int, digits: PrimeDigits) -> int:
    """A(n) mod p^2 by A(d + p n) = (A(d) + p n A'(d)) A(n) (mod p^2)."""
    if n < 0:
        n = -1 - n
    p, m, result = digits.p, digits.m2, 1
    while n:
        n, d = divmod(n, p)
        value, deriv = digits.a_mod_p2(d)
        result = result * (value + p * n * deriv) % m
    return result


class DirectSums:
    """A(n) and A'(n) = 2 sum_k C(n,k)^2 C(n+k,k)^2 (H_{n+k} - H_{n-k})
    modulo a prime q > 2 n_max, by the defining sums, O(n) each."""

    def __init__(self, n_max: int, q: int = Q61):
        self.q = q
        self.f = Factorials(2 * n_max + 1, q)
        harmonic = [0] * (2 * n_max + 2)
        for i in range(1, 2 * n_max + 2):
            harmonic[i] = (harmonic[i - 1] + self.f.reciprocal(i)) % q
        self.harmonic = harmonic

    def _terms(self, n: int):
        f, inv, q = self.f.fact, self.f.inv, self.q
        for k in range(n + 1):
            c = f[n + k] * inv[k] % q * inv[k] % q * inv[n - k] % q
            yield k, c * c % q

    def apery(self, n: int) -> int:
        if n < 0:
            n = -1 - n
        return sum(t for _, t in self._terms(n)) % self.q

    def apery_deriv(self, n: int) -> int:
        h = self.harmonic
        return 2 * sum(t * (h[n + k] - h[n - k]) for k, t in self._terms(n)) % self.q

    def reduce(self, numerator: int, denominator: int) -> int:
        """An exact rational, reduced modulo q."""
        return numerator % self.q * pow(denominator, -1, self.q) % self.q


class TaylorPartialSums:
    """[z^m] of sum_{k<=K} t_k(z), exactly, for the summands
    t_k(z) = ((-z)_k (z+1)_k / k!^2)^2 of the interpolation series.

    (-z)_k (z+1)_k = prod_{j<k} (j(j+1) - z - z^2) is an integer polynomial,
    so t_k = Q_k(z)^2 / k!^4 with Q_k built by integer polynomial products.
    This shares no code or formula with the running product of
    (1 - 2z^2/j^2 + z^4/j^4) factors that the package uses.
    """

    def __init__(self, max_degree: int):
        self.cap = max_degree
        self.poly = [1] + [0] * max_degree  # Q_0
        self.k_fact4 = [1]  # k!^4
        # numerators of the partial sums over the common denominator k!^4
        self.numerators = [self._square()]

    def _square(self) -> list[int]:
        q = self.poly
        return [sum(q[i] * q[e - i] for i in range(e + 1)) for e in range(self.cap + 1)]

    def coefficient(self, m: int, upper: int) -> Fraction:
        if m > self.cap:
            raise ValueError(f"degree {m} beyond the table cap {self.cap}")
        while len(self.numerators) <= upper:
            j = len(self.numerators) - 1
            q, base = self.poly, j * (j + 1)
            # multiply Q_j by (j(j+1) - z - z^2) to get Q_{j+1}
            self.poly = [
                base * q[e] - (q[e - 1] if e >= 1 else 0) - (q[e - 2] if e >= 2 else 0)
                for e in range(self.cap + 1)
            ]
            k4 = (j + 1) ** 4
            self.k_fact4.append(self.k_fact4[-1] * k4)
            self.numerators.append(
                [a * k4 + b for a, b in zip(self.numerators[-1], self._square())]
            )
        return Fraction(self.numerators[upper][m], self.k_fact4[upper])


class References:
    """The stored references of refs.json (see make_refs.py)."""

    def __init__(self, path: str = REFS_PATH):
        with open(path, "r", encoding="ascii") as fh:
            data = json.load(fh)
        self.digit_sets = {int(p): tuple(ds) for p, ds in data["digit_sets"].items()}
        # CLI spelling of each evaluation point -> A(z)
        self.points = {text: complex(re, im) for text, re, im in data["points"]}
        self.taylor = {int(m): value for m, value in data["taylor"].items()}


def series_tail(z: complex, terms: int) -> float:
    """Leading size of the tail of the A(z) series after `terms` summands:
    the k-th summand behaves like sin(pi z)^2 / (pi k)^2."""
    return abs(cmath.sin(cmath.pi * z)) ** 2 / (math.pi**2 * terms)
