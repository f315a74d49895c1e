"""Verification sweeps over finite ranges, negative n included.

Each sweep checks a congruence family with exact arithmetic and reports
counterexample tuples if anything fails (nothing does).  For digits outside
D(p) the mod p^2 congruence must fail somewhere, and the sweep records the
first witnessing n for each.
"""

from apery import (
    verify_digit_set_lucas,
    verify_gessel_mod_p2,
    verify_lucas_mod_p,
    verify_mod_p3_suite,
    verify_multi_digit,
)

for p in (2, 5, 7):
    r = verify_lucas_mod_p(p, (-20, 20))
    print(f"A(d + {p}n) = A(d)A(n) mod {p}: "
          f"{'ok' if r.passed else 'FAILED'} on {r.checked} cases")

for p in (3, 5, 7):
    r = verify_gessel_mod_p2(p, (-20, 20))
    print(f"A(d + {p}n) = (A(d) + {p}n A'(d)) A(n) mod {p}^2: "
          f"{'ok' if r.passed else 'FAILED'} on {r.checked} cases")

for p in (2, 3, 5):
    r = verify_mod_p3_suite(p, (-20, 20))
    name = {2: "A(n) = 5^n mod 8", 3: "mod 9 digit law", 5: "mod 125 supercongruence"}[p]
    print(f"{name}: {'ok' if r.passed else 'FAILED'} on {r.checked} cases")

r = verify_digit_set_lucas(7, (-10, 10))
print(f"\ndigit-set theorem at p=7: membership ok on {r.checked} cases")
for w in r.witnesses:
    print(f"  digit {w.d} fails at n={w.n}: {w.lhs} != {w.rhs}")

r = verify_multi_digit(5, {0, 2, 4}, 6, "power")
print(f"\nbase-5 power law A(n) = 23^e2(n) mod 25: "
      f"{'ok' if r.passed else 'FAILED'} on {r.checked} numbers below 5^6")

r = verify_multi_digit(7, {0, 6}, 5, "unit")
print(f"A(n) = 1 mod 343 for digits in {{0, 6}}: "
      f"{'ok' if r.passed else 'FAILED'} on {r.checked} numbers below 7^5")
