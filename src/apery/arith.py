"""Exact arithmetic helpers shared by the whole package.

Arbitrary-precision integers are plain Python ints and exact rationals are
``fractions.Fraction``; both round-trip through decimal strings, which is the
serialization the CLI uses.  This module adds residues and the two
classical congruence facts (Wolstenholme, Jacobsthal) that feed the mod p^3
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PRIMALITY_BOUND",
    "Residue",
    "binomial",
    "is_prime",
    "jacobsthal_holds",
    "primes_upto",
    "wolstenholme_residue",
]

# Miller-Rabin with the first thirteen prime bases is deterministic below
# 3317044064679887385961981, the smallest strong pseudoprime to all of them
# (1287836182261 * 2575672364521); the bound is the largest n below it.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981 - 1


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality check for n <= PRIMALITY_BOUND."""
    if n > PRIMALITY_BOUND:
        raise ValueError(f"is_prime supports n <= {PRIMALITY_BOUND}, got {n}")
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _digits(n: int, p: int) -> list[int]:
    """The base-p digits of n >= 0, least significant first ([] for 0).

    Divide and conquer: with P = p^(2^k) the largest power of that form
    <= n, n = hi P + lo.  lo < P gives exactly 2^k digits, leading zeros
    kept, by splitting it by p^(2^(k-1)) and so on down; hi < P gives the
    rest.  Each division cuts a number into halves, where peeling one digit
    per divmod of the whole remaining n is quadratic in the length of n.
    """
    if n < p:
        return [n] if n else []
    powers = [p]  # powers[k] = p^(2^k)
    while powers[-1] ** 2 <= n:
        powers.append(powers[-1] ** 2)

    def fill(n: int, k: int) -> list[int]:  # the 2^k digits of n < p^(2^k)
        if k == 0:
            return [n]
        hi, lo = divmod(n, powers[k - 1])
        return fill(lo, k - 1) + fill(hi, k - 1)

    hi, lo = divmod(n, powers[-1])
    return fill(lo, len(powers) - 1) + _digits(hi, p)


def _icbrt(n: int) -> int:
    """The integer cube root floor(n^(1/3)) of n >= 0, by Newton's method on
    integers from 2^ceil(bitlen/3), which is at least the root; no float
    enters, so it is exact at any size."""
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def primes_upto(limit: int) -> list[int]:
    """All primes p <= limit, ascending."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if flags[p]]


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0, with the convention C(n, k) = 0 outside 0 <= k <= n."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class Residue:
    """An integer normalized into [0, modulus), tagged with its modulus.

    It does no arithmetic: routes compute on ints and wrap the final value
    once, so a reported residue always carries its modulus.
    """

    value: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        object.__setattr__(self, "value", self.value % self.modulus)

    def __str__(self) -> str:
        return f"{self.value} (mod {self.modulus})"


def wolstenholme_residue(p: int) -> Residue:
    """Sum of d^-2 over 0 < d < p, modulo p.  Zero for every prime p >= 5."""
    _require_prime(p)
    total = sum(pow(d, -2, p) for d in range(1, p))
    return Residue(total, p)


def jacobsthal_holds(a: int, b: int, p: int) -> bool:
    """Whether C(p*a, p*b) = C(a, b) modulo p^3.

    True for every prime p >= 5 and a >= b >= 0 (Jacobsthal's congruence);
    this routine checks one instance by exact computation.
    """
    if a < b or b < 0:
        raise ValueError(f"need a >= b >= 0, got a={a}, b={b}")
    if p < 5 or not is_prime(p):
        raise ValueError(f"p must be a prime >= 5, got {p}")
    return (binomial(p * a, p * b) - binomial(a, b)) % p**3 == 0
