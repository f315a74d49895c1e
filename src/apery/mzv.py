"""Multiple zeta values: exact partial sums, the composition expansion of
the Apery function's Taylor coefficients, the quasi-shuffle (stuffle)
product and the numeric identity checks built on it.

zeta(s1, ..., sj) = sum over n1 > n2 > ... > nj > 0 of 1/(n1^s1 ... nj^sj).
The m-th Taylor coefficient a_m of the Apery function is an integer
combination of these, summed over the compositions of m whose first part is
3 for odd m and 2 or 4 for even m, with every later part in {2, 4}.  The
coefficient attached to a composition s is the signed power of two

    (-1)^((m - s1)/2) * 2^(e(s) + chi(m)),

where e(s) counts the later parts equal to 2 and chi(m) is 1 for odd m.

"Partial sum to N" always truncates the outermost index, n1 <= N.  That
convention matches truncating the function series at k <= N term by term, so
the expansion holds exactly at every truncation; taylor_identity_holds
checks precisely that, exactly and for every truncation up to N in one
integer pass.  mzv_partial stays on Fraction, as the independent route the
tests compare that pass against.

The coefficient attached to s is also a product of letter weights, one per
part, and taylor_coeff_float sums the expansion by weight: (m - 2)//2
passes over one array('d') per weight (_weight_step), however many
compositions m has.  The other floating values (mzv_float and the identity
checks) come from _mzv_floats, which builds the divisor table of each
distinct part and the tail of each distinct suffix once per call, in an
array('d'); the deep compositions of the reduced forms need those tails.
The identity checks stuffle_residuals and reduced_form_residuals each make
one call for a whole list of identities, so a CLI command evaluates its
MZVs in one pass; a caller with one identity passes a one-element list.
Every stuffle product is expanded by _stuffle.  Every float sum that
reaches output goes through math.fsum, which rounds once, so the printed
digits are the same on every Python; sum() of floats compensates from 3.12
on and not before.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from operator import mul, sub, truediv
from typing import Iterable, Iterator, NamedTuple, Sequence

from .function import _taylor_numerators

__all__ = [
    "MzvTerm",
    "PiPower",
    "REDUCED_FORMS",
    "admissible_compositions",
    "composition_coefficient",
    "even_zeta",
    "is_admissible",
    "mzv_float",
    "mzv_partial",
    "reduced_form_residuals",
    "stuffle_residuals",
    "taylor_coeff_float",
    "taylor_identity_holds",
    "taylor_terms",
    "zeta_all_twos",
]

Composition = tuple[int, ...]

_CHUNK = 4096  # entries a weight pass writes at a time


class MzvTerm(NamedTuple):
    """One term of a Taylor-coefficient expansion: a composition and its
    integer coefficient (always a signed power of two)."""

    composition: Composition
    coefficient: int


class PiPower(NamedTuple):
    """An exact rational multiple of a power of pi."""

    power: int
    multiplier: Fraction

    @property
    def value(self) -> float:
        return float(self.multiplier) * math.pi**self.power


def _tails(remaining: int) -> list[Composition]:
    # compositions of `remaining` into parts 2 and 4
    if remaining == 0:
        return [()]
    out = []
    for part in (2, 4):
        if part <= remaining:
            out.extend((part,) + t for t in _tails(remaining - part))
    return out


def admissible_compositions(m: int) -> list[Composition]:
    """All compositions of m admitted by the Taylor expansion, in
    lexicographic order.

    First part: 3 if m is odd, 2 or 4 if m is even; later parts in {2, 4}.
    There are F(m/2 + 1) of them for even m and F((m-1)/2) for odd m, with
    F(1) = F(2) = 1.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    heads = (3,) if m % 2 else (2, 4)
    out = [
        (head,) + tail
        for head in heads
        if head <= m
        for tail in _tails(m - head)
    ]
    return sorted(out)


def is_admissible(s: Sequence[int]) -> bool:
    """Whether s is one of the compositions admitted by the expansion."""
    s = tuple(s)
    if not s:
        return False
    m = sum(s)
    head_ok = s[0] == 3 if m % 2 else s[0] in (2, 4)
    return head_ok and all(part in (2, 4) for part in s[1:])


def composition_coefficient(s: Sequence[int]) -> int:
    """The signed power of two attached to an admissible composition."""
    s = tuple(s)
    if not is_admissible(s):
        raise ValueError(f"{s} is not an admissible composition")
    m = sum(s)
    e = sum(1 for part in s[1:] if part == 2)
    chi = m % 2
    sign = -1 if ((m - s[0]) // 2) % 2 else 1
    return sign * 2 ** (e + chi)


def taylor_terms(m: int) -> list[MzvTerm]:
    """The full expansion of the m-th Taylor coefficient as MZV terms."""
    return [
        MzvTerm(s, composition_coefficient(s)) for s in admissible_compositions(m)
    ]


def _validate_composition(s: Sequence[int]) -> Composition:
    s = tuple(s)
    if not s or any(part < 1 for part in s):
        raise ValueError(f"composition parts must be positive, got {s}")
    return s


def mzv_partial(s: Sequence[int], N: int) -> Fraction:
    """Exact partial sum of zeta(s) over N >= n1 > n2 > ... > nj >= 1.

    Built innermost-first with running prefix sums, so the cost is
    O(N * depth) rational operations instead of O(N^depth).
    """
    s = _validate_composition(s)
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    # tail[v] = sum over v > n_{i+1} > ... > nj >= 1 of the suffix weights
    tail = [Fraction(1)] * (N + 1)
    for part in reversed(s[1:]):
        running = Fraction(0)
        new = [Fraction(0)] * (N + 1)
        for v in range(N + 1):
            new[v] = running
            if v:
                running += Fraction(1, v**part) * tail[v]
        tail = new
    return sum(
        (Fraction(1, n ** s[0]) * tail[n] for n in range(1, N + 1)), Fraction(0)
    )


def _divisors(part: int, top: int) -> Iterator[float]:
    # float(v**part) for v = 1..top: the exact power, rounded once
    return map(float, map(pow, range(1, top + 1), repeat(part)))


def _mzv_floats(
    compositions: Sequence[Sequence[int]], N: int, extrapolate: bool = True
) -> dict[Composition, float]:
    """mzv_float for several compositions at one truncation, keyed by
    composition; with extrapolate false, the partial sums S(N) themselves,
    from a pass to N.

    The suffixes s[1:] form a trie, walked innermost part first, so each
    distinct suffix's tail is built once per call however many compositions
    share it.  A tail holds, for v = 1..top, the sum over
    v > n_{i+1} > ... > nj >= 1 of the suffix weights, as in mzv_partial,
    in an array('d'); the walk keeps only the tails on its current path.
    The divisor float(v**part) is tabulated once per distinct part, so
    every quotient is the one the term-by-term loop forms.  The head terms
    stream into math.fsum, with no list of them: S(N) is the fsum of the
    first N terms, and S(2N) the fsum of S(N) and the next N terms.
    """
    comps = [_validate_composition(s) for s in compositions]
    for s in comps:
        if s[0] < 2:
            raise ValueError(f"first part must be >= 2 for convergence, got {s}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    top = 2 * N if extrapolate else N
    root: tuple[list, dict] = ([], {})  # (compositions with this suffix, children)
    for s in dict.fromkeys(comps):
        node = root
        for part in reversed(s[1:]):
            node = node[1].setdefault(part, ([], {}))
        node[0].append(s)
    powers: dict[int, array] = {}  # part -> float(v**part) for v = 1..top

    def power(part: int) -> array:
        if part not in powers:
            powers[part] = array("d", _divisors(part, top))
        return powers[part]

    values = {}
    # (node, parent's tail, part joining them); the empty suffix's tail is 1
    stack = [(root, repeat(1.0), 0)]
    while stack:
        (heads, children), tail, part = stack.pop()
        if part:
            steps = map(truediv, islice(tail, top - 1), power(part))
            tail = array("d", accumulate(steps, initial=0.0))
        for s in heads:
            terms = map(truediv, tail, power(s[0]))
            half = math.fsum(islice(terms, N))
            values[s] = 2 * math.fsum(chain((half,), terms)) - half if extrapolate else half
        stack.extend((child, tail, edge) for edge, child in children.items())
    return values


def mzv_float(s: Sequence[int], N: int) -> float:
    """Floating partial sum of zeta(s); needs s1 >= 2 to have a limit.

    The one-step Richardson value 2 S(2N) - S(N) is returned, cancelling
    the leading c/N tail that the slowest (s1 = 2) modes leave behind.
    Both sums come from one pass to 2N: S(N) is the math.fsum of its first
    N terms, and S(2N) the fsum of S(N) and the next N, so the value is the
    same double on every Python.  Several compositions at one truncation
    are cheaper together: see _mzv_floats, which this calls.
    """
    s = _validate_composition(s)
    return _mzv_floats([s], N)[s]


def taylor_identity_holds(m: int, N: int) -> bool:
    """Exact check that the truncated function series and the truncated
    composition expansion give the same coefficient of z^m, at every
    truncation 0, 1, ..., N.

    Both sides are cut at the same place (series index k <= N, outermost
    MZV index n1 <= N), so equality is exact for every m >= 1 and N >= 0.
    One pass gives every truncation: both sides are compared as integer
    numerators over lcm(1..N)^m, the left side's lifted from the
    lcm(1..k)^m of its own truncation k.  The right side is summed
    composition by composition, with no use of the running product that
    builds the left side.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    terms = taylor_terms(m)
    scale = math.lcm(*range(1, N + 1))
    # weights[part][v] = scale^part / v^part
    weights = {
        part: [0] + [(scale // v) ** part for v in range(1, N + 1)]
        for part in {part for s, _ in terms for part in s}
    }
    rhs = [0] * (N + 1)
    for s, coeff in terms:
        # tail[v] = scaled sum over v > n_{i+1} > ... > nj >= 1, as in
        # mzv_partial
        tail = [1] * (N + 1)
        for part in reversed(s[1:]):
            tail = list(accumulate(map(mul, weights[part][:N], tail), initial=0))
        partial = accumulate(map(mul, weights[s[0]], tail))  # n1 <= 0, 1, ..., N
        rhs = [r + coeff * x for r, x in zip(rhs, partial)]
    return [v * (scale // s) ** m for s, v in _taylor_numerators(m, N)] == rhs


def _weight_step(older: Iterable[float], old: Iterable[float], p2: array) -> array:
    """T_w from T_(w-4) (older) and T_(w-2) (old), over v = 1..len(p2)
    (entry v - 1 holds v):

        T_w[v] = sum over u < v of (T_(w-4)[u]/u^4 - 2 T_(w-2)[u]/u^2),

    each step rounded once after its two quotients, and the steps added
    left to right.  When older is an array, T_w is written over it, _CHUNK
    entries at a time, each entry after the step that reads it; so the pass
    holds two weight arrays, not three.
    """
    fourth = map(truediv, older, _fourth_powers(p2))
    steps = map(sub, fourth, map(mul, map(truediv, old, p2), repeat(2.0)))
    out = older if isinstance(older, array) else array("d", [0.0]) * len(p2)
    running = 0.0
    for lo in range(0, len(out), _CHUNK):
        chunk = array("d", accumulate(islice(steps, _CHUNK), initial=running))
        running = chunk.pop()  # T_w at the next entry
        out[lo : lo + _CHUNK] = chunk
    return out


def _fourth_powers(p2: array) -> Iterator[float]:
    # float(v**4) for v = 1..len(p2), from p2[v] = float(v**2): while
    # v <= isqrt(2^53) = 94906265, v^2 is exact, so the product is v^4
    # rounded once, with no table; beyond, the exact powers are streamed
    if len(p2) > 94_906_265:
        return _divisors(4, len(p2))
    return map(mul, p2, p2)


def taylor_coeff_float(m: int, N: int = 10_000) -> float:
    """Floating estimate of the m-th Taylor coefficient, summed by weight.

    The coefficient of a composition is a product of letter weights, since
    expanding the k-th summand (z^2/k^2 + 2z^3/k^3 + z^4/k^4) times the
    product over j < k of (1 - 2z^2/j^2 + z^4/j^4) picks one term of each
    factor: a later part 2 weighs -2 and a later 4 weighs 1; a first part 3
    weighs 2, and a first 2 or 4 weighs 1.  So with T_0 = 1 and T_w from
    _weight_step, the expansion truncated at n1 <= N is the sum over n <= N
    of 2 T_(m-3)[n]/n^3 for odd m, and of T_(m-2)[n]/n^2 + T_(m-4)[n]/n^4
    for even m: (m - 2)//2 weight passes over 2N entries, however many
    compositions m has.  T_0 is repeat(1.0), never an array.  The value is
    the Richardson 2 S(2N) - S(N), where S(N) is the math.fsum of the head
    quotients for n <= N and S(2N) the fsum of S(N) and the rest.  The
    divisors are float(v**part), as in mzv_float.

    a_0 = 1, the constant term, which no composition covers; a_1 = 0.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if m < 2:
        return 1.0 if m == 0 else 0.0
    top = 2 * N
    p2 = array("d", _divisors(2, top))
    older, old = repeat(0.0), repeat(1.0)  # T_-2 = 0 and T_0
    for _ in range((m - 2) // 2):
        older, old = old, _weight_step(older, old, p2)
    if m % 2:
        weight, heads = 2, [(old, _divisors(3, top))]
    else:  # at m = 2 the T_(m-4) head is T_-2 = 0
        weight, heads = 1, [(old, p2), (older, _fourth_powers(p2))]
    quotients = [map(truediv, t, p) for t, p in heads]
    half = math.fsum(chain.from_iterable(islice(q, N) for q in quotients))
    return weight * (2 * math.fsum(chain((half,), *quotients)) - half)


def _bernoulli(n: int) -> Fraction:
    # sum_{j<=m} C(m+1, j) B_j = 0 for m >= 1
    values = [Fraction(1)]
    for m in range(1, n + 1):
        acc = sum(math.comb(m + 1, j) * values[j] for j in range(m))
        values.append(Fraction(-acc, m + 1))
    return values[n]


def even_zeta(k: int) -> PiPower:
    """zeta(2k) as an exact multiple of pi^(2k), from Bernoulli numbers:
    zeta(2k) = (-1)^(k+1) B_{2k} (2 pi)^(2k) / (2 (2k)!)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    sign = -1 if k % 2 == 0 else 1
    mult = sign * _bernoulli(2 * k) * Fraction(2 ** (2 * k), 2 * math.factorial(2 * k))
    return PiPower(2 * k, mult)


def zeta_all_twos(j: int) -> PiPower:
    """zeta(2, ..., 2) with j twos, which is exactly pi^(2j) / (2j + 1)!."""
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    return PiPower(2 * j, Fraction(1, math.factorial(2 * j + 1)))


def _stuffle(s: Composition, t: Composition) -> list[Composition]:
    """The quasi-shuffle (stuffle) product s * t, as a list of compositions
    with multiplicity, written outermost index first:

        s * t = s1 (s' * t) + t1 (s * t') + (s1 + t1) (s' * t'),

    with () * t = t and s * () = s.  zeta(s) zeta(t) is the sum of zeta(u)
    over u in s * t, and the same holds for partial sums at every
    truncation (Hoffman, "Quasi-shuffle products", 2000).
    """
    if not s or not t:
        return [s + t]
    return (
        [s[:1] + u for u in _stuffle(s[1:], t)]
        + [t[:1] + u for u in _stuffle(s, t[1:])]
        + [(s[0] + t[0],) + u for u in _stuffle(s[1:], t[1:])]
    )


def stuffle_residuals(
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]], N: int = 10_000
) -> list[float]:
    """|S_N(s) S_N(t) - sum of S_N(u) over u in s * t| for each pair (s, t)
    in order, where S_N is the float partial sum to N and the right side is
    summed by math.fsum.  Needs s1, t1 >= 2.

    The product holds exactly at every truncation, so the residual is
    rounding alone.  Extrapolated values would not do: 2 S(2N) - S(N) does
    not multiply as the partial sums do.  Every factor and product term of
    every pair comes from one _mzv_floats call, so the divisor tables and
    shared tails are built once.
    """
    pairs = [(_validate_composition(s), _validate_composition(t)) for s, t in pairs]
    products = [_stuffle(s, t) for s, t in pairs]
    v = _mzv_floats(
        [u for (s, t), product in zip(pairs, products) for u in (s, t, *product)],
        N,
        False,
    )
    return [
        abs(v[s] * v[t] - math.fsum(v[u] for u in product))
        for (s, t), product in zip(pairs, products)
    ]


# Shorter known forms of the even-weight coefficients, stored as
# (rational coefficient, composition) pairs.  Depth-1 entries are evaluated
# through the even-zeta closed form, deeper ones through mzv_float.  The
# weight-10 zeta(10) coefficient is 7/80: rewriting the expansion with the
# stuffle identities and the all-twos closed forms gives exactly
# 7/7484400 pi^10 = (7/80) zeta(10), and the numeric residual agrees.  The
# weight-12 entry is recorded data whose residual is reported rather than
# asserted; see reduced_form_residuals.
REDUCED_FORMS: dict[int, list[tuple[Fraction, Composition]]] = {
    4: [(Fraction(-1, 2), (4,))],
    6: [(Fraction(3, 2), (6,)), (Fraction(-3), (4, 2))],
    8: [(Fraction(-13, 24), (8,)), (Fraction(6), (4, 2, 2))],
    10: [
        (Fraction(7, 80), (10,)),
        (Fraction(3), (2, 4, 4)),
        (Fraction(-12), (4, 2, 2, 2)),
    ],
    12: [
        (Fraction(-915, 22112), (12,)),
        (Fraction(6), (4, 2, 2, 4)),
        (Fraction(6), (4, 2, 4, 2)),
        (Fraction(6), (4, 4, 2, 2)),
        (Fraction(24), (4, 2, 2, 2, 2)),
    ],
}


def reduced_form_residuals(ms: Sequence[int], N: int = 10_000) -> list[float]:
    """|expansion value of a_m - stored short form of a_m| numerically, for
    each m in order.

    For m in {4, 6, 8, 10} this is a genuine consistency check.  For m = 12
    the stored short form is data under test: callers should report the
    residual rather than assert a bound on it.  Every expansion term and
    every deep short-form entry of every m comes from one _mzv_floats call;
    depth-1 entries come from the even-zeta closed form.
    """
    for m in ms:
        if m not in REDUCED_FORMS:
            raise ValueError(f"no reduced form stored for m={m}")
    terms = [taylor_terms(m) for m in ms]
    forms = [REDUCED_FORMS[m] for m in ms]
    values = _mzv_floats(
        [s for expansion in terms for s, _ in expansion]
        + [s for form in forms for _, s in form if len(s) > 1],
        N,
    )
    residuals = []
    for expansion, form in zip(terms, forms):
        short = 0.0
        for coeff, s in form:
            value = even_zeta(s[0] // 2).value if len(s) == 1 else values[s]
            short += float(coeff) * value
        residuals.append(abs(math.fsum(coeff * values[s] for s, coeff in expansion) - short))
    return residuals
