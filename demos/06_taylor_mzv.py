"""Taylor coefficients of A(z) as combinations of multiple zeta values.

Every coefficient a_m is an integer combination of MZVs over a constrained
set of compositions, each with a signed power-of-two coefficient.  The
identity holds exactly at every truncation, which is checkable in rational
arithmetic; numerically the extrapolated partial sums match the known short
forms of the even coefficients.
"""

from apery import (
    mzv_float,
    reduced_form_residuals,
    taylor_coeff_float,
    taylor_coeff_truncated,
    taylor_identity_holds,
    taylor_terms,
)

print("expansions of the first coefficients:")
for m in range(2, 9):
    terms = " + ".join(
        f"{c}*zeta{s}".replace("+ -", "- ") for s, c in taylor_terms(m)
    )
    print(f"  a_{m} = {terms}")

print("\nthe truncated identity is exact, e.g. m = 8, truncation 25:")
lhs = taylor_coeff_truncated(8, 25)
print(f"  coefficient of z^8 in the truncated series = {lhs}")
print(f"  identity holds: {taylor_identity_holds(8, 25)}")

print("\nnumeric values (extrapolated partial sums, N = 10000):")
print(f"  a_2 = {taylor_coeff_float(2):.10f}  (pi^2/6 = {3.141592653589793**2 / 6:.10f})")
print(f"  a_3 = {taylor_coeff_float(3):.10f}  (2 zeta(3) = {2 * mzv_float((3,), 10_000):.10f})")

print("\nresiduals against the short even-weight forms:")
weights = (4, 6, 8, 10, 12)
# one pass over every MZV the five checks need
for m, residual in zip(weights, reduced_form_residuals(weights, 10_000)):
    note = "  (recorded, not asserted)" if m == 12 else ""
    print(f"  m = {m:2d}: {residual:.2e}{note}")
