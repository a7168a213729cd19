"""Closed-form blocks of the two-time reduction, restated for the tests.

The kernel computes Xi = 2 (S^-1 + M^-1)^-1 without forming S or M, and
never forms the 12x12 system determinant f_M. The tests rebuild the
passive block P = (S + M) / 2 from the closed-form inverses given in the
``squeezebell.kernel`` docstring, so that the squared prefactor identity
checks those formulas against the 12x12 system, and restate the factored
f_M, which they check against the 12x12 system and the derivation's
expanded form.

The runtime reads det Xi, the band-series prefactor and the Schur
complements off Xi^-1. ``xi_determinant``, ``series_prefactor`` and
``convergence_conditions`` form the same quantities from Xi's entries in
floating point, as the band series once did, so the tests can hold the
closed forms to them.
"""

import cmath
import math

import numpy as np

from squeezebell.complexfn import principal_sqrt
from squeezebell.state import TransitionSpec

# (r_a, phi_a, r_b, phi_b, ell, dtheta) where a factor of f_M vanishes but
# the pair is not coincident: four roots of g_s or g_c, and the pair
# phi_a - phi_b = pi/2 at zero angle difference.
DETERMINANT_ROOTS = [
    (1.3, 0.4, 0.8, -0.3, 1.5, -0.6062350498615671),
    (1.3, 0.4, 0.8, -0.3, 1.5, -1.4521536158226311),
    (2.0, 0.7, 2.0, 0.1, 4.0, -0.586411865409511),
    (2.0, 0.7, 2.0, 0.1, 4.0, -0.4411842512235682),
    (1.0, math.pi / 2.0, 1.0, 0.0, 1.0, 0.0),
]


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


def kernel_determinant(spec: TransitionSpec) -> complex:
    """Two-time kernel determinant f_M = -4 e^{2i dtheta} g_s g_c.

    g_s = sum_k w_k s_k and g_c = sum_k w_k c_k are real, with weights
    (4, 2 sigma_a, 2 sigma_b, sigma_a sigma_b) for sigma = 1 - tanh r and
    angle coefficients s_k, c_k that are products of sines and cosines.
    """
    ra, pa = spec.a.r, spec.a.varphi
    rb, pb = spec.b.r, spec.b.varphi
    psi = spec.delta_theta + pa - pb
    qa, qb = math.exp(-2.0 * ra), math.exp(-2.0 * rb)
    sig_a, sig_b = 2.0 * qa / (1.0 + qa), 2.0 * qb / (1.0 + qb)
    weights = (4.0, 2.0 * sig_a, 2.0 * sig_b, sig_a * sig_b)
    sin_pa, cos_pa, sin_pb, cos_pb = math.sin(pa), math.cos(pa), math.sin(pb), math.cos(pb)
    sin_psi = math.sin(psi)
    shared = math.sin(psi + pa - pb)
    s = (sin_pa * sin_pb * sin_psi, sin_pb * math.cos(psi + pa), -sin_pa * math.cos(psi - pb), shared)
    c = (cos_pa * cos_pb * sin_psi, -cos_pb * math.sin(psi + pa), -cos_pa * math.sin(psi - pb), shared)
    g_s = sum(w * t for w, t in zip(weights, s))
    g_c = sum(w * t for w, t in zip(weights, c))
    return -4.0 * cmath.exp(2j * spec.delta_theta) * g_s * g_c


def convergence_conditions(xi) -> tuple[float, float, float, float]:
    """Re xi11, Re xi22 and the real parts of the two Schur complements.

    The band series converges when all four are negative.
    """
    x11, x22, x12 = xi.xi11, xi.xi22, xi.xi12
    return x11.real, x22.real, (x11 - x12 * x12 / x22).real, (x22 - x12 * x12 / x11).real


def xi_determinant(xi) -> complex:
    return xi.xi11 * xi.xi22 - xi.xi12 * xi.xi12


def series_prefactor(xi) -> complex:
    """Band-series prefactor sqrt(det Xi) / (sqrt(2 pi) sqrt(-xi22)), on principal branches."""
    return principal_sqrt(xi_determinant(xi)) / (
        math.sqrt(2.0 * math.pi) * principal_sqrt(-xi.xi22)
    )
