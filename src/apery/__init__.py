"""Apery numbers on all of Z: exact values, the derivative sequence,
Lucas-type congruences modulo p, p^2 and p^3, digit sets D(p), numeric
evaluation of the entire interpolation A(z), and the multiple-zeta-value
expansion of its Taylor coefficients.

Each module's __all__ is the one list of its public names: the package
re-exports them all, and its own __all__ is their sorted union."""

from . import arith, cachefile, congruences, function, mzv, sequence
from .arith import *  # noqa: F401,F403
from .cachefile import *  # noqa: F401,F403
from .congruences import *  # noqa: F401,F403
from .function import *  # noqa: F401,F403
from .mzv import *  # noqa: F401,F403
from .sequence import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    {n for m in (arith, cachefile, congruences, function, mzv, sequence) for n in m.__all__}
)
