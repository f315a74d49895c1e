"""The integer sequence, its derivative, and the reflection to negative n.

A(n) is the binomial sum; the recurrence route must agree with it, and
A(-1-n) = A(n) extends everything to all of Z.
"""

from apery import apery, apery_deriv, apery_fast

print("n, A(n) for n = 0..9:")
for n in range(10):
    print(f"  A({n}) = {apery(n)}")

print("\nnegative arguments reflect: A(-1-n) = A(n)")
for n in (-1, -2, -5, -10):
    print(f"  A({n}) = {apery(n)} = A({-1 - n})")

print("\nthe three-term recurrence (apery_fast, memoized) gives the same values:")
for n in (10, 50, 100):
    assert apery_fast(n) == apery(n)
    print(f"  A({n}) has {len(str(apery(n)))} digits, both routes agree")

print("\nA'(n) is rational from n = 5 on:")
for n in range(8):
    print(f"  A'({n}) = {apery_deriv(n)}")
