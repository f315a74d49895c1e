"""Regenerate bench/refs.json, the stored references the benchmark checks
answers against.  Needs numpy and mpmath; the benchmark itself needs neither.

    python3 bench/make_refs.py

- digit_sets: D(p) = {d : A(d) = A(p-1-d) mod p^2} for every prime p up to
  DIGIT_SET_BOUND, from the binomial sum reduced modulo p^2 (summands with
  d + k >= p vanish there, see oracle.PrimeDigits).
- points: A(z) at the evaluation points the analytic workload samples, as the
  hypergeometric value 4F3(-z, -z, z+1, z+1; 1, 1, 1; 1) at 30 digits.
- taylor: the Taylor coefficients a_m of A(z) at 0, by the trapezoid rule for
  the Cauchy integral on |z| = 1 (A is entire, so 64 nodes are exact to far
  below double precision).
"""

from __future__ import annotations

import json
import os

import mpmath
import numpy as np

DIGIT_SET_BOUND = 4500
TAYLOR_MAX = 20
TAYLOR_NODES = 64

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def primes_upto(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if flags[p]]


def digit_set(p: int) -> list[int]:
    m = p * p
    fact = [1] * p
    for i in range(1, p):
        fact[i] = fact[i - 1] * i % m
    inv = [pow(f, -1, m) for f in fact]
    fact, inv = np.array(fact, dtype=np.int64), np.array(inv, dtype=np.int64)
    values = []
    for d in range(p):
        k = np.arange(min(d, p - 1 - d) + 1)
        c = fact[d + k] * inv[k] % m * inv[k] % m * inv[d - k] % m
        values.append(int((c * c % m).sum()) % m)
    return [d for d in range(p) if values[d] == values[p - 1 - d]]


def evaluation_points() -> list[str]:
    """Reals on both sides of Re z = -1/2 (integers excluded) and complex
    points on both sides; those with a negative real part are the ones the
    CLI cannot parse as a positional value."""
    reals = [f"{k / 20:g}" for k in range(-64, 45) if k % 20]
    ys = (0.05, 0.1, 0.2, 0.3, 0.45, 0.6)
    xs = [k / 10 for k in range(1, 16)] + [-k / 10 for k in range(1, 16)]
    complexes = [f"{x:g}{s}{y:g}j" for x in xs for y in ys for s in "+-"]
    return reals + complexes


def apery_z(z: mpmath.mpc) -> mpmath.mpc:
    return mpmath.hyper([-z, -z, z + 1, z + 1], [1, 1, 1], 1)


def main() -> None:
    mpmath.mp.dps = 30
    digit_sets = {p: digit_set(p) for p in primes_upto(DIGIT_SET_BOUND)}
    points = []
    for text in evaluation_points():
        z = complex(text)
        value = mpmath.mpc(apery_z(mpmath.mpc(z.real, z.imag)))
        points.append([text, float(value.real), float(value.imag)])
    nodes = [mpmath.expj(2 * mpmath.pi * j / TAYLOR_NODES) for j in range(TAYLOR_NODES)]
    samples = [apery_z(w) for w in nodes]
    taylor = {}
    for m in range(TAYLOR_MAX + 1):
        a_m = mpmath.fsum(s * w ** (-m) for s, w in zip(samples, nodes)) / TAYLOR_NODES
        taylor[m] = float(mpmath.re(a_m))
    with open(OUT, "w", encoding="ascii") as fh:
        json.dump(
            {
                "digit_set_bound": DIGIT_SET_BOUND,
                "digit_sets": digit_sets,
                "points": points,
                "taylor": taylor,
            },
            fh,
            separators=(",", ":"),
        )
        fh.write("\n")


if __name__ == "__main__":
    main()
