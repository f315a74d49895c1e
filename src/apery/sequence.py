"""The Apery numbers A(n) on all of Z and their derivative sequence A'(n).

A(n) = sum_k C(n,k)^2 C(n+k,k)^2 for n >= 0, extended to negative arguments
by the reflection A(n) = A(-1-n).  A'(n) is the harmonic-weighted variant
2 sum_k C(n,k)^2 C(n+k,k)^2 (H_{n+k} - H_{n-k}), an exact rational.

Besides the defining sums this module provides the three-term recurrence
(with a shared memo cache), O(log n) modular evaluation through the base-p
digit congruences, and a memory-flat recurrence sweep for reducing A(n) at
scattered large indices.  The digit tables A(d), A'(d) mod p and p^2 come
from the recurrence and its derivative run modulo p or p^2, with no exact
values; the exact routes stay as their oracles.  A p-adic evaluator gives
A(n) mod p^e, e <= 3, from the few summands with at most one carry and
p-free factorials, with no recurrence and no digit theorem.
"""

from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Iterator, Mapping

from .arith import Residue, _digits, _require_prime

__all__ = [
    "AperyCache",
    "apery",
    "apery_deriv",
    "apery_fast",
    "apery_mod_p",
    "apery_mod_p2",
    "apery_mod_sweep",
    "apery_via_recurrence",
    "mod_p2_tables",
    "mod_p_table",
    "shared_cache",
]


def apery(n: int) -> int:
    """A(n) by the defining binomial sum; negative n reflect to A(-1-n)."""
    if n < 0:
        n = -1 - n
    total = 0
    term = 1  # C(n,0)^2 C(n,0)^2
    for k in range(n + 1):
        total += term
        # C(n,k+1)^2 C(n+k+1,k+1)^2 from the k-th term; division is exact
        term = term * (n - k) ** 2 * (n + k + 1) ** 2 // (k + 1) ** 4
    return total


def _r1(m: int) -> int:
    return 34 * m**3 - 51 * m**2 + 27 * m - 5


def _recurrence_step(m: int, prev1: int, prev2: int) -> int:
    """A(m) from A(m-1), A(m-2) via m^3 A(m) = r1(m) A(m-1) - (m-1)^3 A(m-2)."""
    numerator = _r1(m) * prev1 - (m - 1) ** 3 * prev2
    value, remainder = divmod(numerator, m**3)
    if remainder:
        raise ArithmeticError(f"recurrence step not exact at m={m}")
    return value


def _recurrence_mod(q: int, top: int) -> Iterator[tuple[int, int]]:
    """Pairs (x, den) with A(n) = x/den (mod q), for n = 0, ..., top.

    One pass of the recurrence modulo q that carries A(n) as x/den, so no
    step needs an inverse: den is the product of k^3 over 1 <= k <= n and
    x = den A(n) mod q, so x/den is A(n) mod q whenever den is a unit mod q.
    Multiplying the recurrence at n by den(n-1) gives
        x(n) = r1(n) x(n-1) - (n-1)^6 x(n-2).
    """
    x1, x2, den = 1, 0, 1  # x(n-1), x(n-2)
    yield x1, den
    cube = 0  # (n-1)^3 when step n begins
    for n in range(1, top + 1):
        prev, cube = cube, n * n * n
        r1 = 34 * cube - 51 * n * n + 27 * n - 5  # _r1(n), inlined for speed
        x1, x2 = (r1 * x1 - prev * prev * x2) % q, x1
        den = den * cube % q
        yield x1, den


def _wrong_record(values: Mapping[int, int]) -> int | None:
    """An n whose value is not A(n), or None when every record checks out.

    A value of at most 4n - 2 bitlen(2n+1) bits is too short, since
    A(n) >= C(2n,n)^2 >= 16^n/(2n+1)^2.  Rejecting those first bounds the
    pass by the size of the values and keeps every n far below the prime
    q = 2^61 - 1.  The rest are compared with A(n) mod q from one pass of
    the recurrence (_recurrence_mod).  A value off from A(n) by a nonzero
    multiple of q passes.
    """
    for n in sorted(values):
        if values[n].bit_length() <= 4 * n - 2 * (2 * n + 1).bit_length():
            return n
    q = 2**61 - 1
    for n, (x, den) in enumerate(_recurrence_mod(q, max(values, default=0))):
        value = values.get(n)
        if value is not None and (value % q * den - x) % q:
            return n
    return None


class AperyCache:
    """Thread-safe memo of exact A(n) values for n >= 0.

    Values are immutable once inserted, so lock-free reads are safe; writers
    take a lock.  A contiguous high-water mark lets the recurrence restart
    from the longest verified prefix instead of from zero.
    """

    def __init__(self, values: Mapping[int, int] | None = None):
        self._values: dict[int, int] = {0: 1, 1: 5}
        self._lock = threading.Lock()
        self._contiguous = 1
        if values:
            self.preload(values)

    def get(self, n: int) -> int | None:
        return self._values.get(n)

    def put(self, n: int, value: int) -> None:
        with self._lock:
            existing = self._values.setdefault(n, value)
            if existing != value:
                raise ValueError(f"conflicting cache values at n={n}")
            self._advance()

    def preload(self, values: Mapping[int, int]) -> None:
        with self._lock:
            for n, value in values.items():
                if n < 0:
                    raise ValueError(f"cache keys must be >= 0, got {n}")
                existing = self._values.setdefault(n, value)
                if existing != value:
                    raise ValueError(f"conflicting cache values at n={n}")
            self._advance()

    def _advance(self) -> None:
        while self._contiguous + 1 in self._values:
            self._contiguous += 1

    def items(self) -> list[tuple[int, int]]:
        return sorted(self._values.items())

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, n: int) -> bool:
        return n in self._values


_SHARED_CACHE = AperyCache()


def shared_cache() -> AperyCache:
    """The process-wide default memo used when no cache is passed."""
    return _SHARED_CACHE


def apery_via_recurrence(n: int, cache: AperyCache | None = None) -> int:
    """A(n) for n >= 0 from the holonomic three-term recurrence.

    Must agree with apery(n) everywhere; the test suite checks the two
    routes against each other up to n = 2000.
    """
    if n < 0:
        raise ValueError(f"recurrence route requires n >= 0, got {n}")
    cache = cache or _SHARED_CACHE
    hit = cache.get(n)
    if hit is not None:
        return hit
    start = min(n, cache._contiguous)
    # n >= 2 here (the memo holds 0 and 1), so 1 <= start <= _contiguous
    prev2, prev1 = cache.get(start - 1), cache.get(start)
    for m in range(start + 1, n + 1):
        value = cache.get(m)
        if value is None:
            value = _recurrence_step(m, prev1, prev2)
            cache.put(m, value)
        prev2, prev1 = prev1, value
    return prev1


def apery_fast(n: int, cache: AperyCache | None = None) -> int:
    """A(n) for any integer n: reflection plus the cached recurrence."""
    if n < 0:
        n = -1 - n
    return apery_via_recurrence(n, cache)


def apery_deriv(n: int) -> Fraction:
    """A'(n) = 2 sum_k C(n,k)^2 C(n+k,k)^2 (H_{n+k} - H_{n-k}), exact.

    Defined for n >= 0 only.  Differentiating the reflection A(-1-z) = A(z)
    gives A'(n) = -A'(-1-n) for n <= -1, so a caller writes
    -apery_deriv(-1 - n) there.
    """
    if n < 0:
        raise ValueError(f"apery_deriv requires n >= 0, got {n}")
    # HL[j] = H_j * L on the common denominator L = lcm(1..2n)
    L = math.lcm(*range(1, 2 * n + 1))
    HL = list(accumulate((L // i for i in range(1, 2 * n + 1)), initial=0))
    total = 0
    term = 1
    for k in range(n + 1):
        total += term * (HL[n + k] - HL[n - k])
        term = term * (n - k) ** 2 * (n + k + 1) ** 2 // (k + 1) ** 4
    return Fraction(2 * total, L)


def _digit_tables(
    p: int, derivs: bool, top: int | None = None
) -> tuple[list[int], list[int]]:
    """A(d) mod p or, when derivs is set, A(d) and A'(d) mod p^2, for
    d = 0, ..., top and a prime p.

    top defaults to p - 1, the full table; a caller that knows the largest
    base-p digit it will look up can stop there.

    Runs the recurrence and its derivative together, starting from
    A(0) = 1, A'(0) = 0:
        k^3 A(k) = r1(k) A(k-1) - (k-1)^3 A(k-2),
        k^3 A'(k) = -3k^2 A(k) + r1'(k) A(k-1) + r1(k) A'(k-1)
                    - 3(k-1)^2 A(k-2) - (k-1)^3 A'(k-2).
    The second is the derivative of the functional equation at z = k, whose
    sin^2(pi z) term has zero derivative at integers.  At k = 1 the
    (k-1) factors drop A(-1), which gives A'(1) = 12.  For k < p, k^3 is a
    unit mod p^2, so every step divides exactly.  The derivative table is []
    when derivs is not set.
    """
    _require_prime(p)
    m = p * p if derivs else p
    values, slopes = [1], [0] if derivs else []
    a2, a1, s2, s1 = 0, 1, 0, 0  # A(k-2), A(k-1), A'(k-2), A'(k-1)
    for k in range(1, (p - 1 if top is None else top) + 1):
        inv = pow(k**3, -1, m)
        r, c = _r1(k), (k - 1) ** 3
        a = (r * a1 - c * a2) * inv % m
        values.append(a)
        if derivs:
            r_prime = 102 * k * k - 102 * k + 27
            s = (
                -3 * k * k * a + r_prime * a1 + r * s1
                - 3 * (k - 1) ** 2 * a2 - c * s2
            ) * inv % m
            slopes.append(s)
            s2, s1 = s1, s
        a2, a1 = a1, a
    return values, slopes


def mod_p_table(p: int) -> list[int]:
    """A(0), ..., A(p-1) reduced mod p, for a prime p, by the recurrence
    modulo p."""
    return _digit_tables(p, derivs=False)[0]


def mod_p2_tables(p: int, cache: AperyCache | None = None) -> tuple[list[int], list[int]]:
    """Digit tables (A(d) mod p^2, A'(d) mod p^2) for d = 0, ..., p-1.

    p must be prime.  Both tables come from one pass of the recurrence and
    its derivative modulo p^2; cache is accepted and unused.  Since d^3 is
    a unit mod p for every d < p, that recurrence also shows that A'(d) is
    p-integral there, so the derivative table is always well defined.
    """
    return _digit_tables(p, derivs=True)


def apery_mod_p(n: int, p: int, table: list[int] | None = None) -> Residue:
    """A(n) mod p for n >= 0 as the product of A(d) over base-p digits d.

    O(log_p n) multiplications once the digit table is built; pass a
    precomputed table when sweeping many n.  Without one, the table stops
    at the largest base-p digit of n.
    """
    if n < 0:
        raise ValueError(f"apery_mod_p requires n >= 0, got {n}")
    _require_prime(p)
    if table is None:
        table = _digit_tables(p, False, max(_digits(n, p), default=0))[0]
    result = 1
    while n > 0:
        n, d = divmod(n, p)
        result = result * table[d] % p
    return Residue(result, p)


def apery_mod_p2(
    n: int, p: int, tables: tuple[list[int], list[int]] | None = None
) -> Residue:
    """A(n) mod p^2 for n >= 0, digit by digit from the least significant.

    Each digit d with quotient q contributes the factor A(d) + p*q*A'(d);
    only q mod p matters there because of the explicit factor p.  Without
    tables, they stop at the largest base-p digit of n.
    """
    if n < 0:
        raise ValueError(f"apery_mod_p2 requires n >= 0, got {n}")
    _require_prime(p)
    if tables is None:
        tables = _digit_tables(p, True, max(_digits(n, p), default=0))
    values, derivs = tables
    m = p * p
    result = 1
    while n > 0:
        n, d = divmod(n, p)
        result = result * (values[d] + p * (n % p) * derivs[d]) % m
    return Residue(result, m)


def apery_mod_sweep(targets: Iterable[int], modulus: int) -> dict[int, int]:
    """A(n) mod modulus at the given n >= 0, via one exact recurrence pass.

    Keeps only a two-value window of exact A values, so memory stays flat no
    matter how large max(targets) is.  Intended for the occasional reduction
    at indices too large to be worth caching exactly.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    wanted = set(targets)
    if not wanted:
        return {}
    if min(wanted) < 0:
        raise ValueError("sweep targets must be >= 0")
    out: dict[int, int] = {}
    if 0 in wanted:
        out[0] = 1 % modulus
    if 1 in wanted:
        out[1] = 5 % modulus
    prev2, prev1 = 1, 5
    for m in range(2, max(wanted) + 1):
        prev2, prev1 = prev1, _recurrence_step(m, prev1, prev2)
        if m in wanted:
            out[m] = prev1 % modulus
    return out


@functools.lru_cache(maxsize=16)
def _unit_tables(p: int) -> tuple[tuple[int, ...], ...]:
    """s!, H_s and e2(s) = sum_{i<j<=s} 1/(ij) modulo p^3, for s < p."""
    m = p**3
    fact, harm, e2 = [1], [0], [0]
    for j in range(1, p):
        inv = pow(j, -1, m)
        e2.append((e2[-1] + harm[-1] * inv) % m)
        harm.append((harm[-1] + inv) % m)
        fact.append(fact[-1] * j % m)
    return tuple(fact), tuple(harm), tuple(e2)


def _unit_factorial(x: int, p: int) -> int:
    """The p-free part of x! modulo p^3, for a prime p >= 5, without the
    factors (p-1)! that its full blocks contribute.

    x! = p^v prod_{i>=0} F(floor(x / p^i)) with F(r) the product of the
    j <= r prime to p.  Writing r = qp + s, each of the q full blocks of F(r)
    is (p-1)! (1 + bp H_{p-1} + b^2 p^2 e2(p-1)) = (p-1)! mod p^3, because
    H_{p-1} = 0 mod p^2 and e2(p-1) = 0 mod p for p >= 5 (Wolstenholme), and
    the last block is s! (1 + qp H_s + q^2 p^2 e2(s)) mod p^3.  The blocks
    left out number sum_{i>=1} floor(x / p^i) = v_p(x!).
    """
    fact, harm, e2 = _unit_tables(p)
    m = p**3
    result = 1
    while x:
        x, s = divmod(x, p)
        q = x % (p * p)
        result = result * fact[s] * (1 + q * p * (harm[s] + q * p * e2[s])) % m
    return result


def _few_carry_indices(n: int, p: int, most: int) -> Iterator[tuple[int, int]]:
    """Pairs (k, c) for the 0 <= k <= n with c = carries(k, n-k) +
    carries(k, n) <= most, the base-p carry counts of Kummer's theorem.

    A digit DFS from the least significant position tracks the borrow of
    n - k and the carry of k + n; at each position the k-digits that give a
    chosen (borrow, carry) pair form an interval.
    """
    digits = _digits(n, p)
    # (position, k so far, borrow into it, carry into it, carries so far)
    stack = [(0, 0, 0, 0, 0)]
    while stack:
        i, k, borrow, carry, c = stack.pop()
        if i == len(digits):
            if not borrow:  # a borrow out of the top digit means k > n
                yield k, c
            continue
        a, place = digits[i], p**i
        for out_b in (0, 1):
            # n - k borrows here exactly when the k-digit exceeds a - borrow
            lo_b, hi_b = (0, a - borrow) if not out_b else (a - borrow + 1, p - 1)
            for out_c in (0, 1):
                if c + out_b + out_c > most:
                    continue
                # k + n carries here exactly when the k-digit is >= p - a - carry
                lo_c, hi_c = (0, p - 1 - a - carry) if not out_c else (p - a - carry, p - 1)
                for b in range(max(lo_b, lo_c), min(hi_b, hi_c) + 1):
                    stack.append((i + 1, k + b * place, out_b, out_c, c + out_b + out_c))


def _apery_mod_pk(n: int, p: int, e: int) -> int:
    """A(n) mod p^e for a prime p >= 5 and e in {1, 2, 3}, for any integer n.

    By Kummer's theorem the k-th summand C(n,k)^2 C(n+k,k)^2 is p^(2c) times
    a unit, c = carries(k, n-k) + carries(k, n), so only the k with 2c < e
    count; _few_carry_indices finds them.  The unit is the square of
    unit((n+k)!) / (unit(k!)^2 unit((n-k)!)), whose full-block factors
    (p-1)! cancel down to ((p-1)!)^c, since their exponents add up to
    v_p((n+k)! / (k!^2 (n-k)!)) = c.  No recurrence and no digit congruence
    is used, so this is an independent route to A(n) mod p^e.
    """
    if e not in (1, 2, 3):
        raise ValueError(f"e must be 1, 2 or 3, got {e}")
    _require_prime(p)
    if p < 5:
        raise ValueError(f"p must be a prime >= 5, got {p}")
    if n < 0:
        n = -1 - n
    m = p**3
    block = _unit_tables(p)[0][p - 1]  # (p-1)!
    total = 0
    for k, c in _few_carry_indices(n, p, (e - 1) // 2):
        num = _unit_factorial(n + k, p) * pow(block, c, m)
        den = _unit_factorial(k, p) ** 2 * _unit_factorial(n - k, p)
        total += p ** (2 * c) * (num * pow(den, -1, m)) ** 2
    return total % p**e
