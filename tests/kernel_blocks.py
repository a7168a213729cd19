"""Closed-form blocks of the two-time reduction, restated for the tests.

The kernel computes Xi = 2 (S^-1 + M^-1)^-1 without forming S or M. The
tests rebuild the passive block P = (S + M) / 2 from the closed-form
inverses given in the ``squeezebell.kernel`` docstring, so that the
squared prefactor identity checks those formulas against the 12x12
system.
"""

import cmath
import math

import numpy as np

from squeezebell.state import TransitionSpec


def passive_block_determinant(spec: TransitionSpec) -> complex:
    """det P with P = (S + M) / 2, from the closed forms of S^-1 and M^-1."""
    ra, pa = spec.a.r, spec.a.varphi
    rb, pb = spec.b.r, spec.b.varphi
    eps = cmath.exp(1j * (spec.delta_theta + pa - pb))

    def u(r, phi):
        return complex(math.exp(r) * math.cos(phi), math.exp(-r) * math.sin(phi))

    def v(r, phi):
        return complex(math.exp(r) * math.sin(phi), -math.exp(-r) * math.cos(phi))

    s12 = eps * u(rb, pb) * u(ra, pa).conjugate()
    m12 = -eps * v(rb, pb) * v(ra, pa).conjugate()
    s_inv = -0.5 * np.array([[abs(u(rb, pb)) ** 2, s12], [s12, abs(u(ra, pa)) ** 2]])
    m_inv = -0.5 * np.array([[abs(v(rb, pb)) ** 2, m12], [m12, abs(v(ra, pa)) ** 2]])
    return complex(np.linalg.det(0.5 * (np.linalg.inv(s_inv) + np.linalg.inv(m_inv))))
