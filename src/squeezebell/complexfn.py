"""Principal branches of the multivalued complex maps.

Every multivalued map used by the correlator pipeline goes through this
module so the branch policy lives in exactly one place: principal branches
everywhere, with the negative real axis of the square root pinned to the
upper rim (+i sqrt|z|). Downstream algebra (band-series prefactors, the
wide-bin arctangent) is only valid on these branches.
"""

from __future__ import annotations

import cmath
import math

from .errors import BranchPoleError

__all__ = ["principal_sqrt", "principal_arctan"]


def principal_sqrt(z: complex) -> complex:
    """Principal square root with the negative real axis pinned upward.

    Returns the root with non-negative imaginary part for z on the branch
    cut, i.e. ``principal_sqrt(-4) == 2j`` even when z carries a negative
    zero imaginary part (where ``cmath.sqrt`` would drop to the lower rim).
    """
    z = complex(z)
    if z.imag == 0.0 and z.real < 0.0:
        return complex(0.0, math.sqrt(-z.real))
    return cmath.sqrt(z)


def principal_arctan(z: complex) -> complex:
    """Principal-branch complex arctangent, real part in [-pi/2, pi/2].

    The logarithmic branch poles at z = +/- i are rejected explicitly
    rather than left to produce infinities downstream.
    """
    z = complex(z)
    if z == 1j or z == -1j:
        raise BranchPoleError("arctan branch pole: z = +/- i")
    return cmath.atan(z)
