"""The Apery numbers A(n) on all of Z and their derivative sequence A'(n).

A(n) = sum_k C(n,k)^2 C(n+k,k)^2 for n >= 0, extended to negative arguments
by the reflection A(n) = A(-1-n).  A'(n) is the harmonic-weighted variant
2 sum_k C(n,k)^2 C(n+k,k)^2 (H_{n+k} - H_{n-k}), an exact rational.

Besides the defining sums this module provides the three-term recurrence
(apery_fast, the one exact entry point, on a shared memo of the exact
prefix A(0..K)), O(log n) modular evaluation through the base-p digit
congruences, and a memory-flat exact recurrence sweep that reduces A(n)
where no modular route answers.
The digit table A(d) mod p comes from the inverse-free x/den pass of the
recurrence modulo p.  One pass of the recurrence and its derivative
(_with_slopes) gives both A'(n) exactly, resumed from the marks the
process keeps of it every 64 indices at one scale per window, and A(d),
A'(d) mod p^2, the latter with no exact values; the exact routes stay as
their oracles.  A p-adic digit DP gives A(n) mod p^e, e <= 3, from
Kummer's theorem and p-free factorials, with no recurrence and no digit
theorem, in time linear in the digits of n; it also anchors the congruence
sweeps' residue rows.
apery_mod is the one entry for A(n) mod any M: it picks among those routes,
and the exact sweep answers whatever modulus they do not.
"""

from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction
from itertools import accumulate, islice, pairwise
from typing import Callable, Iterable, Iterator, Sequence

from .arith import (
    PRIMALITY_BOUND,
    Residue,
    _digits,
    _icbrt,
    _require_prime,
    is_prime,
)

__all__ = [
    "AperyCache",
    "apery",
    "apery_deriv",
    "apery_fast",
    "apery_mod",
    "apery_mod_p",
    "apery_mod_p2",
    "apery_mod_sweep",
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


def _exact_div(x: int, k: int) -> int:
    """x / k^3, which must be exact."""
    value, remainder = divmod(x, k**3)
    if remainder:
        raise ArithmeticError(f"recurrence step not exact at k={k}")
    return value


def _recurrence_step(m: int, prev1: int, prev2: int) -> int:
    """A(m) from A(m-1), A(m-2) via m^3 A(m) = r1(m) A(m-1) - (m-1)^3 A(m-2)."""
    return _exact_div(_r1(m) * prev1 - (m - 1) ** 3 * prev2, m)


def _with_slopes(
    top: int,
    divide: Callable[[int, int], int],
    start: Sequence[int] = (0, 0, 1, 0, 0),
) -> Iterator[tuple[int, int]]:
    """(S A(k), S A'(k)) for k = k0, ..., top, where divide(x, k) is x / k^3
    in the caller's ring and S is the scale of start.

    Runs the recurrence and its derivative together:
        k^3 A(k) = r1(k) A(k-1) - (k-1)^3 A(k-2),
        k^3 A'(k) = -3k^2 A(k) + r1'(k) A(k-1) + r1(k) A'(k-1)
                    - 3(k-1)^2 A(k-2) - (k-1)^3 A'(k-2).
    The second is the derivative of the functional equation at z = k, whose
    sin^2(pi z) term has zero derivative at integers.  Both are linear, so
    the pass keeps whatever scale S it starts at: it starts from
    start = (k0, S A(k0-1), S A(k0), S A'(k0-1), S A'(k0)) and yields k0's
    pair first.  The default is the seed k0 = 0, S = 1, A(0) = 1,
    A'(0) = 0, with A(-1) and A'(-1) as 0: at k = 1 the (k-1) factors drop
    them, which gives A'(1) = 12.
    """
    k0, a2, a1, s2, s1 = start  # S times A(k-2), A(k-1), A'(k-2), A'(k-1)
    yield a1, s1
    for k in range(k0 + 1, top + 1):
        j = k - 1
        r, dr, c = _r1(k), 102 * k * j + 27, j * j * j  # r1(k), r1'(k), (k-1)^3
        a = divide(r * a1 - c * a2, k)
        s = divide(r * s1 - c * s2 + dr * a1 - 3 * (k * k * a + j * j * a2), k)
        yield a, s
        a2, a1, s2, s1 = a1, a, s1, s


def _recurrence_mod(
    q: int, top: int, start: tuple[int, int, int, int] = (0, 1, 0, 1)
) -> Iterator[tuple[int, int]]:
    """Pairs (x, den) with A(n) = x/den (mod q), for n = n0, ..., top.

    One pass of the recurrence modulo q that carries A(n) as x/den, so no
    step needs an inverse: den is the product of k^3 over the steps
    n0 < k <= n, times den(n0), and x = den A(n) mod q, so x/den is A(n)
    mod q whenever den is a unit mod q.  Multiplying the recurrence at n by
    den(n-1) gives
        x(n) = r1(n) x(n-1) - (n-1)^6 x(n-2).
    The pass starts from start = (n0, x(n0), x(n0-1), den(n0)) and yields
    n0's pair first.  The default is the seed n0 = 0, x(0) = den(0) = 1 and
    x(-1) = 0, which meets the coefficient 0^6 at n = 1; a pass that has
    reached n0 resumes from its state there, as the cache file's does.
    When q divides n0^6, as q = p^3 does at a multiple n0 of p, x(n0-1)
    meets 0 the same way, so (n0, A(n0) mod q, 0, 1) starts the pass from
    A(n0) alone.
    """
    n0, x1, x2, den = start  # x(n-1), x(n-2), den(n-1) at step n = n0 + 1
    cube = n0 * n0 * n0  # (n-1)^3 at that step
    yield x1, den
    for n in range(n0 + 1, top + 1):
        prev, cube = cube, n * n * n
        r1 = 34 * cube - 51 * n * n + 27 * n - 5  # _r1(n), inlined for speed
        x1, x2 = (r1 * x1 - prev * prev * x2) % q, x1
        den = den * cube % q
        yield x1, den


def _reduced_pass(m: int, top: int, n0: int = 0, anchor: int = 1) -> list[int]:
    """A(k) mod m for k = n0, ..., top, from anchor = A(n0) mod m.

    The pass of _recurrence_mod from (n0, anchor, 0, 1), so den(n0) = 1,
    with den divided out by one batch inversion: one pow inverts den(top),
    and 1/den(k-1) = k^3/den(k) gives the rest, down the list.  x(n0-1)
    must meet a zero coefficient (n0 = 0, or m divides n0^6), and k^3 must
    be a unit mod m for n0 < k <= top.
    """
    xs = []
    for x, den in _recurrence_mod(m, top, (n0, anchor, 0, 1)):
        xs.append(x)
    inv = pow(den, -1, m)
    for k in range(top, n0 - 1, -1):
        xs[k - n0] = xs[k - n0] * inv % m
        inv = inv * k * k * k % m
    return xs


class AperyCache:
    """Thread-safe memo of the exact prefix A(0), ..., A(len - 1).

    The values are a list from A(0) = 1, A(1) = 5.  put is the one write
    path, under a lock: it appends A(len), takes an equal value below len
    as a no-op, and refuses anything else, so the memo never has a gap.
    A value never changes once appended, so reads take no lock.
    AperyCache(prefix) puts A(0), A(1), ... of prefix in that order, as
    `cache fill` seeds it with a file's run.  The walk (_walk) resumes the
    recurrence from the end of the prefix, so every value past it
    satisfies the recurrence exactly (_exact_div raises otherwise).
    """

    def __init__(self, prefix: Iterable[int] = ()):
        self._values = [1, 5]
        self._lock = threading.Lock()
        for n, value in enumerate(prefix):
            self.put(n, value)

    def get(self, n: int) -> int | None:
        values = self._values
        return values[n] if 0 <= n < len(values) else None

    def put(self, n: int, value: int) -> None:
        """Append value as A(n) at n = len, the walk's write path.

        An equal value below len is a no-op; anything else raises.
        """
        with self._lock:
            values = self._values
            if n == len(values):
                values.append(value)
            elif not 0 <= n < len(values):
                raise ValueError(f"cache keys must be in 0..{len(values)}, got {n}")
            elif values[n] != value:
                raise ValueError(f"conflicting cache values at n={n}")

    def _walk(self, top: int) -> int:
        """A(top), after the recurrence has put every value from the end of
        the prefix to top."""
        values = self._values
        for m in range(len(values), top + 1):
            self.put(m, _recurrence_step(m, values[m - 1], values[m - 2]))
        return values[top]

    def __len__(self) -> int:
        return len(self._values)


_SHARED_CACHE = AperyCache()


def shared_cache() -> AperyCache:
    """The process-wide default memo used when no cache is passed."""
    return _SHARED_CACHE


def apery_fast(n: int, cache: AperyCache | None = None) -> int:
    """A(n) for any integer n: the reflection A(n) = A(-1-n), then the
    three-term recurrence from the end of the memo's prefix (the walk,
    AperyCache._walk).

    Every value the recurrence makes is put in the memo (the process-wide
    one when cache is None).  The test suite checks this route against
    apery(n) up to n = 2000.
    """
    if n < 0:
        n = -1 - n
    if cache is None:
        cache = _SHARED_CACHE
    hit = cache.get(n)
    return hit if hit is not None else cache._walk(n)


# The spacing of the marks, the kept states of the exact derivative pass
_MARK_SPACING = 64


def _lift(scale: int, k: int) -> int:
    """L(k + 64) / scale, for scale = L(k) and L(j) = lcm(1..2j): the lcm of
    2k+1, ..., 2k+128 among themselves first, then against the scale."""
    window = math.lcm(*range(2 * k + 1, 2 * k + 2 * _MARK_SPACING + 1))
    return window // math.gcd(scale, window)


# The marks: mark w is (k, S A(k-1), S A(k), S A'(k-1), S A'(k), S) at
# k = 64w and S = L(k + 64), the one scale of the window [k, k + 64); the
# seed at k = 0 is _with_slopes's default start at S = L(64)
_marks = [(0, 0, _lift(1, 0), 0, 0, _lift(1, 0))]
_marks_lock = threading.Lock()


def _marks_upto(top: int) -> list[tuple[int, ...]]:
    """The marks, up to the one at 64 floor(top / 64).

    Missing marks are made under the lock: the pass resumes from the last
    mark, runs each window's 64 steps at its scale, lifts the state to the
    next window's (_lift), and publishes the old and new marks as a new
    list.  A published list is never written again, so readers take no
    lock; a call that finds its mark, or a pass that raises, publishes
    nothing.
    """
    global _marks
    with _marks_lock:
        marks = _marks
        if top >= len(marks) * _MARK_SPACING:
            new = []
            k0, *state, scale = marks[-1]
            for k in range(k0 + _MARK_SPACING, top + 1, _MARK_SPACING):
                steps = _with_slopes(k, _exact_div, (k0, *state))
                (a2, s2), (a1, s1) = islice(steps, _MARK_SPACING - 1, None)  # k - 1, k
                f = _lift(scale, k)
                k0, state, scale = k, [a2 * f, a1 * f, s2 * f, s1 * f], scale * f
                new.append((k, *state, scale))
            _marks = marks + new
        return _marks


def apery_deriv(n: int) -> Fraction:
    """A'(n) = 2 sum_k C(n,k)^2 C(n+k,k)^2 (H_{n+k} - H_{n-k}), exact.

    Defined for n >= 0 only.  Differentiating the reflection A(-1-z) = A(z)
    gives A'(n) = -A'(-1-n) for n <= -1, so a caller writes
    -apery_deriv(-1 - n) there.

    The exact pass of _with_slopes at a scale S that L(k) = lcm(1..2k)
    divides: the denominator of A'(k) divides L(k), so every step divides
    exactly by k^3 (_exact_div).  n resumes from its mark, at 64 floor(n /
    64) and scale L(k + 64) (_marks), made first under the lock when it is
    missing (_marks_upto), in at most 63 steps with no lock, and stores
    nothing.  Memory policy: the marks up to n hold about 0.28 n^2 bits,
    0.11 MiB at n = 1800 and 3.3 MiB at 10^4, about a ninth of the exact
    memo A(0..n); they are kept for the life of the process.
    """
    if n < 0:
        raise ValueError(f"apery_deriv requires n >= 0, got {n}")
    marks = _marks
    if n >= len(marks) * _MARK_SPACING:
        marks = _marks_upto(n)
    *start, scale = marks[n // _MARK_SPACING]
    for _, slope in _with_slopes(n, _exact_div, start):
        pass
    return Fraction(slope, scale)


def _digit_tables(p: int, top: int | None = None) -> tuple[list[int], list[int]]:
    """A(d) and A'(d) mod p^2 for d = 0, ..., top and a prime p, which the
    caller has checked.

    top defaults to p - 1, the full table; a caller that knows the largest
    base-p digit it will look up can stop there.  The pass of _with_slopes
    modulo p^2: for k < p, k^3 is a unit mod p^2.  Its inverses come from
    one batch inversion: with P(k) = (1^3 ... k^3) mod p^2, 1/k^3 is
    P(k-1)/P(k), and 1/P(k-1) is k^3/P(k), so one pow and three products
    per k give them all.
    """
    m = p * p
    top = p - 1 if top is None else top
    cubes = (k * k * k for k in range(1, top + 1))
    inverses = list(accumulate(cubes, lambda a, b: a * b % m, initial=1))  # P(0..top)
    inv = pow(inverses[-1], -1, m)  # 1/P(k), from k = top down
    for k in range(top, 0, -1):  # P(k) becomes 1/k^3 while P(k-1) is still there
        inverses[k] = inv * inverses[k - 1] % m
        inv = inv * k**3 % m
    pairs = _with_slopes(top, lambda x, k: x * inverses[k] % m)
    values, slopes = map(list, zip(*pairs))
    return values, slopes


def mod_p_table(p: int) -> list[int]:
    """A(0), ..., A(p-1) reduced mod p, for a prime p, from one pass of the
    recurrence modulo p and one batch inversion (_reduced_pass)."""
    _require_prime(p)
    return _reduced_pass(p, p - 1)


def mod_p2_tables(p: int, cache: AperyCache | None = None) -> tuple[list[int], list[int]]:
    """Digit tables (A(d) mod p^2, A'(d) mod p^2) for d = 0, ..., p-1.

    p must be prime.  Both tables come from one pass of the recurrence and
    its derivative modulo p^2; cache is accepted and unused.  Since d^3 is
    a unit mod p for every d < p, that recurrence also shows that A'(d) is
    p-integral there, so the derivative table is always well defined.
    """
    _require_prime(p)
    return _digit_tables(p)


def apery_mod_p(n: int, p: int, table: list[int] | None = None) -> Residue:
    """A(n) mod p for n >= 0 as the product of A(d) over base-p digits d.

    n is split into its digits once (arith._digits, divide and conquer),
    then O(log_p n) multiplications; pass a precomputed table when sweeping
    many n.  Without one, each digit d is folded to min(d, p-1-d), since
    A(p-1-d) = A(d) mod p (README, design notes), and one x/den pass of the
    recurrence modulo p (_recurrence_mod) runs to the largest folded digit,
    below p/2, keeping its pairs at the folded digits only; the product of
    the x over the product of the den, units mod p since every d < p, takes
    one inverse.
    """
    if n < 0:
        raise ValueError(f"apery_mod_p requires n >= 0, got {n}")
    _require_prime(p)
    digits = _digits(n, p)
    if table is not None:
        result = 1
        for d in digits:
            result = result * table[d] % p
        return Residue(result, p)
    digits = [min(d, p - 1 - d) for d in digits]
    wanted = set(digits)
    pairs = {
        d: pair
        for d, pair in enumerate(_recurrence_mod(p, max(digits, default=0)))
        if d in wanted
    }
    x = den = 1
    for d in digits:
        x, den = x * pairs[d][0] % p, den * pairs[d][1] % p
    return Residue(x * pow(den, -1, p) % p, p)


def apery_mod_p2(
    n: int, p: int, tables: tuple[list[int], list[int]] | None = None
) -> Residue:
    """A(n) mod p^2 for n >= 0, digit by digit from the least significant.

    Each digit d with quotient q contributes the factor A(d) + p*q*A'(d);
    only q mod p matters there because of the explicit factor p, and q mod
    p is the next digit of n (0 after the last).  n is split into its
    digits once (arith._digits, divide and conquer).  Without tables, they
    stop at the largest base-p digit of n.
    """
    if n < 0:
        raise ValueError(f"apery_mod_p2 requires n >= 0, got {n}")
    _require_prime(p)
    digits = _digits(n, p)
    if tables is None:
        tables = _digit_tables(p, max(digits, default=0))
    values, derivs = tables
    m = p * p
    result = 1
    for d, q in pairwise(digits + [0]):
        result = result * (values[d] + p * q * derivs[d]) % m
    return Residue(result, m)


def apery_mod_sweep(targets: Iterable[int], modulus: int) -> dict[int, int]:
    """A(n) mod modulus at the given n >= 0, in ascending n.

    One exact recurrence pass from the seed (A(-1), A(0)) = (1, 1), two values
    at a time, so it keeps no memo and holds about 10 max(targets) bits:
    apery_mod's route for a modulus that neither a digit route nor the
    x/den pass answers.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    wanted = set(targets)
    if min(wanted, default=0) < 0:
        raise ValueError("sweep targets must be >= 0")
    pairs = accumulate(  # (A(m-1), A(m)) for m = 0, ..., max(wanted)
        range(1, max(wanted, default=0) + 1),
        lambda pair, m: (pair[1], _recurrence_step(m, pair[1], pair[0])),
        initial=(1, 1),  # A(-1) = A(0) by reflection; (m-1)^3 is 0 at m = 1
    )
    return {m: a % modulus for m, (_, a) in enumerate(pairs) if m in wanted}


@functools.lru_cache(maxsize=16)
def _unit_tables(p: int) -> tuple[tuple[int, ...], ...]:
    """s! and 1/s! modulo p^3, and H_s and H2_s = sum_{j<=s} 1/j^2 as sums
    of residues mod p^3 (unreduced), for s < p; p must be prime."""
    m = p**3
    fact = [1] * p
    for j in range(1, p):
        fact[j] = fact[j - 1] * j % m
    inv = [pow(fact[-1], -1, m)] * p  # 1/s!, from 1/(p-1)! downwards
    for j in range(p - 1, 0, -1):
        inv[j - 1] = inv[j] * j % m
    recip = [i * f % m for i, f in zip(inv[1:], fact)]  # 1/j = (j-1)!/j!
    harm = accumulate(recip, initial=0)
    harm2 = accumulate((r * r for r in recip), initial=0)
    return tuple(fact), tuple(inv), tuple(harm), tuple(harm2)


@functools.lru_cache(maxsize=4096)
def _digit_sums(p: int, t: int) -> tuple[int, ...]:
    """The fourteen sums over k-digits b that _dp_step reads at a digit t of
    n, modulo p^3, in its order; s0 mod p^2 and s1 mod p read the first four."""
    fact, inv, harm, harm2 = _unit_tables(p)
    m = p**3

    def w(a: int, b: int, c: int) -> int:  # (a! / (b!^2 c!))^2
        return (fact[a] * inv[b] * inv[b] * inv[c] % m) ** 2 % m

    rows = []
    for b in range(min(t, p - 1 - t) + 1):  # no carry at this digit
        a, c = t + b, t - b
        x = w(a, b, c)
        h1, h2 = harm[a] - harm[c], harm[a] - 2 * harm[b] + harm[c]
        g, g2 = harm2[c] - harm2[a], harm2[a] + harm2[c]
        rows.append([x, x * h1, x * h2, x * b, x * b * h1, x * b * h2, x * b * b,
                     x * (2 * h1 * h1 + g), x * (4 * h1 * h2 - 2 * g2),
                     x * (2 * h2 * h2 + g + 2 * harm2[b])])
    return (*(sum(column) % m for column in zip(*rows)),
            sum(w(t + b, b, t - b + p) for b in range(t + 1, p - t)),  # one borrow
            sum(w(t + b - p, b, t - b) for b in range(p - t, t + 1)),  # one carry
            sum(w(t + b, b, t - b - 1) for b in range(min(t, p - t))),  # borrow in
            sum(w(t + b + 1, b, t - b) for b in range(min(t + 1, p - 1 - t))))  # carry in


# the state after no digits, that of n = 0
_DP_START = (1, 0, 0, 0, 1)


def _dp_step(state: tuple[int, ...], big: int, p: int, t: int) -> tuple[int, ...]:
    """The _apery_mod_pk state after the digits of n = t + pN, from the state
    after the digits of N >= 0; big = N mod p^2.  A leading zero leaves
    _DP_START as it is."""
    (w, wh1, wh2, wb, wbh1, wbh2, wb2, c20, c11, c02,
     borrow, carry, borrow_in, carry_in) = _digit_sums(p, t)
    s0, s1, s2, sb, sc = state
    m = p * p
    carried = big * (big * c20 * s0 + c11 * s1) + c02 * s2 + borrow * sb + carry * sc
    return ((w * s0 + 2 * p * (big * wh1 * s0 + wh2 * s1) + m * carried) % (m * p),
            (wb * s0 + p * (w * s1 + 2 * big * wbh1 * s0 + 2 * wbh2 * s1)) % m,
            wb2 * s0 % p, borrow_in * s0 % p, carry_in * s0 % p)


def _apery_mod_pk(n: int, p: int, e: int) -> int:
    """A(n) mod p^e for any integer n, a prime p and e in {1, 2, 3}; e = 3
    needs p >= 5.

    A digit DP over the summands f(n, k) = C(n,k)^2 C(n+k,k)^2 that uses
    Kummer's theorem and p-free factorials only, no recurrence and no digit
    congruence.  Write n = t + pN and k = b + pK.  When the digit b carries
    in neither k + (n-k) nor k + n, f(n, k) = f(N, K) w (1 + 2p(N h1 + K h2)
    + p^2 (N^2 c20 + N K c11 + K^2 c02)) mod p^3, with w = (a!/(b!^2 c!))^2,
    a = t + b, c = t - b, h1 = H_a - H_c, h2 = H_a - 2H_b + H_c and c20,
    c11, c02 quadratic in those and H2; one carry there leaves p^2 times a
    unit mod p, and more leave 0.  So the state after the digits of N is
    s0 = sum_K f mod p^3, s1 = sum_K K f mod p^2, s2 = sum_K K^2 f mod p and
    two sums mod p for a borrow or a carry coming into N's lowest digit;
    _dp_step reads the digits of n from the most significant; A(n) = s0.
    For e <= 2 only s0 mod p^2 and s1 mod p are read, exact at every prime
    because f is a square.  README (design notes) has the method.
    """
    if e not in (1, 2, 3) or (e == 3 and p < 5):
        raise ValueError(f"need e in (1, 2, 3), and p >= 5 for e = 3; got p={p}, e={e}")
    _require_prime(p)
    return _dp_value(-1 - n if n < 0 else n, p) % p**e


def _dp_value(n: int, p: int) -> int:
    """s0 after the digits of n >= 0 (_apery_mod_pk, which checks p): A(n)
    mod p^3 for p >= 5, and mod p^2 at any prime."""
    state, big, m = _DP_START, 0, p * p
    for t in reversed(_digits(n, p)):
        state = _dp_step(state, big, p, t)
        big = (big * p + t) % m
    return state[0]


def apery_mod(n: int, modulus: int) -> Residue:
    """A(n) mod M for any integer n and M >= 2.

    n < 0 is reflected to k = -1-n first, else k = n.  With p a prime <=
    min(k, PRIMALITY_BOUND), the route for M is
    - p: the Lucas digit route apery_mod_p;
    - p^2: Gessel's digit route apery_mod_p2;
    - p^3 with p >= 5: the p-adic digit DP _apery_mod_pk (8 and 27 fall
      through: the DP reads mod p^3 only from p = 5 on);
    - any other M > k: one pass of the recurrence modulo M to k, carried
      as x/den (_recurrence_mod).  That is A(k) mod M when den, the product
      of j^3 over 1 <= j <= k, is a unit mod M;
    - any other M: the exact pass apery_mod_sweep, which holds two values
      and no memo.  It takes M <= k without the x/den pass, since j = M
      shares M, and any M > k whose den is no unit.
    The digit tables stop at the largest base-p digit of k, and the DP
    reads each base-p digit of k once.  With p > k a table would be the
    whole pass to k, which the pass makes without a primality test.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    k = -1 - n if n < 0 else n
    bound = min(k, PRIMALITY_BOUND)
    if modulus <= bound and is_prime(modulus):
        return apery_mod_p(k, modulus)
    root = math.isqrt(modulus)
    if root * root == modulus and root <= bound and is_prime(root):
        return apery_mod_p2(k, root)
    root = _icbrt(modulus)
    if root**3 == modulus and 5 <= root <= bound and is_prime(root):
        return Residue(_apery_mod_pk(k, root, 3), modulus)
    if modulus > k:
        for x, den in _recurrence_mod(modulus, k):
            pass
        if math.gcd(den, modulus) == 1:
            return Residue(x * pow(den, -1, modulus), modulus)
    return Residue(apery_mod_sweep([k], modulus)[k], modulus)
