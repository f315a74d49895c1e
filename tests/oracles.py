"""Reference routines that only the tests use."""

import math
from fractions import Fraction

from apery.arith import Residue


def rational_mod(q, m):
    """Reduce an exact rational modulo m as numerator * denominator^-1.

    The reduction only makes sense when the denominator is coprime to m;
    otherwise ValueError is raised.
    """
    q = Fraction(q)
    if math.gcd(q.denominator, m) != 1:
        raise ValueError(f"denominator {q.denominator} is not invertible modulo {m}")
    return Residue(q.numerator * pow(q.denominator, -1, m), m)
