"""Reduced Gaussian kernel of the two-time correlator.

The two-time expectation value reduces to a four-variable Gaussian over
the two sign-binned quadratures and two passive ones. Integrating out the
passive pair leaves a 2x2 complex quadratic form Xi; every evaluator
downstream consumes only Xi or its inverse (``xi_inverse``).

With P and C the passive and cross 2x2 blocks of the four-variable form,
Xi = P - C P^-1 C = 2 (S^-1 + M^-1)^-1 for S = P + C and M = P - C. Both
inverses are elementary. Per side let u = e^r cos(phi) + i e^-r sin(phi),
v = e^r sin(phi) - i e^-r cos(phi), and let
eps = e^{i psi} with psi = dtheta + phi_a - phi_b. Then

    S^-1 = -1/2 [[|u_b|^2, eps u_b conj(u_a)], [eps u_b conj(u_a), |u_a|^2]],
    M^-1 = -1/2 [[|v_b|^2, -eps v_b conj(v_a)], [-eps v_b conj(v_a), |v_a|^2]],

so S^-1 + M^-1 = -[[cosh 2r_b, p], [p, cosh 2r_a]] with
p = eps (cos(phi_a + phi_b) sinh(r_a + r_b) + i sin(phi_a + phi_b) sinh(r_a - r_b)).

Precision: every factor above is a product of sines, cosines and
hyperbolic functions, each correct to the last bits. The one sum left is
the determinant

    det = 1 + (sin(phi_a + phi_b) sinh(r_a + r_b))^2
            + (cos(phi_a + phi_b) sinh(r_a - r_b))^2 + 2 Im(p)^2
            - 2i Re(p) Im(p),

whose real part is a sum of nonnegative terms, at least 1. Only p adds
two terms that can cancel, and that costs accuracy only near the
r -> infinity maximal-correlation locus zeta^2 = 4 (``large_squeeze_zeta``),
where Xi is ill-conditioned in its input angles anyway. So double
precision holds at every squeezing and there is no extended-precision
path.

Degeneracy: the 12x12 system determinant factors as
f_M = -4 e^{2i dtheta} g_s g_c with two real factors g_s and g_c, each a
sinusoid in dtheta, so f_M vanishes on a hypersurface of (r, phi, dtheta)
that holds every coincident pair (``is_coincident``). S and M carry those
factors (S ~ 1/g_c, M ~ 1/g_s) but they cancel out of Xi, whose
determinant above never vanishes, so no pair is refused. At a coincident
pair Xi^-1 = -(1/2) [[c, p], [p, c]] with c = cosh 2r, p = cos(2 phi) sinh 2r
is minus the covariance of the one snapshot's density. Only a form past
double precision (r_a + r_b ~ 355) raises ComplexOverflowError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .complexfn import principal_sqrt
from .errors import ComplexOverflowError
from .state import TransitionSpec

__all__ = [
    "XiMatrix",
    "XiInverse",
    "is_coincident",
    "xi_inverse",
    "xi_matrix",
    "large_squeeze_zeta",
    "xi_determinant",
    "series_prefactor",
]


@dataclass(frozen=True)
class XiMatrix:
    """Reduced 2x2 complex quadratic form.

    The band series integrates exp((xi11 Y1^2 + 2 xi12 Y1 Y2 + xi22 Y2^2)/2);
    it converges when Re xi11, Re xi22 and the real parts of the two Schur
    complements xi11 - xi12^2/xi22 and xi22 - xi12^2/xi11 are all negative
    (``evaluators.require_converged`` checks them).
    """

    xi11: complex
    xi22: complex
    xi12: complex


def is_coincident(spec: TransitionSpec) -> bool:
    """True when both snapshots are the same physical state at the same angle.

    Its form is that snapshot's density (module docstring). Identity is
    taken modulo the exact symmetries: varphi modulo pi (the density
    depends on varphi only through p = cos(2 varphi) sinh 2r), varphi
    irrelevant at r = 0, where sinh 2r = 0, and the angle difference modulo
    pi, since a half turn only reflects the quadrature (Q -> -Q), which
    negates p.
    """
    a, b = spec.a, spec.b
    if a.r != b.r:
        return False
    if math.remainder(spec.delta_theta, math.pi) != 0.0:
        return False
    if a.r == 0.0:
        return True
    return math.remainder(a.varphi - b.varphi, math.pi) == 0.0


@dataclass(frozen=True)
class XiInverse:
    """Xi^-1 = -(1/2) [[ch_b, p], [p, ch_a]], with ch_a = cosh 2r_a, ch_b = cosh 2r_b.

    ``gap`` = ch_a ch_b - |p|^2 = 1 + (sin(phi_a + phi_b) sinh(r_a + r_b))^2
    + (cos(phi_a + phi_b) sinh(r_a - r_b))^2, a sum of nonnegative terms, so
    every determinant built from it below carries no cancellation.
    """

    ch_a: float
    ch_b: float
    p: complex
    gap: float

    @property
    def det(self) -> complex:
        """det [[ch_b, p], [p, ch_a]] = gap + 2 (Im p)^2 - 2i Re p Im p; its real part is at least 1."""
        return complex(self.gap + 2.0 * self.p.imag**2, -2.0 * self.p.real * self.p.imag)


def xi_inverse(spec: TransitionSpec) -> XiInverse:
    """Xi^-1 in the closed form of the module docstring; no determinant is divided by.

    A form that leaves double precision raises ComplexOverflowError, so
    ch_a + ch_b + |Re p| and ``det`` are finite for every pair returned.
    """
    ra, pa = spec.a.r, spec.a.varphi
    rb, pb = spec.b.r, spec.b.varphi
    c, s = math.cos(pa + pb), math.sin(pa + pb)
    try:
        sh_sum, sh_diff = math.sinh(ra + rb), math.sinh(ra - rb)
        ch_a, ch_b = math.cosh(2.0 * ra), math.cosh(2.0 * rb)
        p = cmath.exp(1j * (spec.delta_theta + pa - pb)) * complex(c * sh_sum, s * sh_diff)
        gap = 1.0 + (s * sh_sum) ** 2 + (c * sh_diff) ** 2
        terms = ch_a + ch_b + abs(p.real) + gap + 2.0 * (p.imag**2 + abs(p.real * p.imag))
        finite = math.isfinite(terms)
    except OverflowError:
        finite = False
    if not finite:
        raise ComplexOverflowError(
            f"reduced quadratic form leaves double precision at r_a + r_b = {ra + rb:g}"
        )
    return XiInverse(ch_a, ch_b, p, gap)


def xi_matrix(spec: TransitionSpec) -> XiMatrix:
    """Reduce the 4x4 two-time quadratic form to the observable 2x2 block.

    Xi = 2 (S^-1 + M^-1)^-1, the inverse of ``xi_inverse``; xi11 belongs to
    the later-argument (b) side and xi22 to the earlier (a) side. A form
    that leaves double precision raises ComplexOverflowError.
    """
    inv = xi_inverse(spec)
    f = 2.0 / inv.det
    return XiMatrix(-f * inv.ch_a, -f * inv.ch_b, f * inv.p)


def _xi_extended(
    ra: float, pa: float, rb: float, pb: float, dth: float
) -> tuple[complex, complex, complex]:
    """Reference Xi: the original elimination chain in extended precision.

    Assembles the kernel determinant f_M and its four elimination
    numerators, divides through, and Schur-reduces the 4x4 form, as the
    derivation does. The chain cancels like e^{4r} at phi = 0, so it works
    at 40 + 2 max(r_a, r_b) digits, with every input converted to mpf
    before any angle sum is formed. No runtime path calls it; tests
    compare xi_matrix against it.
    """
    import mpmath as mp

    ra, pa, rb, pb, dth = (mp.mpf(x) for x in (ra, pa, rb, pb, dth))
    with mp.workdps(int(40 + 2 * max(ra, rb))):
        ta, tb = mp.tanh(ra), mp.tanh(rb)
        cc = mp.cosh(ra) * mp.cosh(rb)
        s = mp.sin

        def f(x):
            return 1 - mp.cos(2 * x) + 2j * mp.sin(2 * x)

        def numerators(pa_, ta_, pb_, tb_, dth_):
            e2 = mp.exp(2j * dth_)
            fm = 4 * e2 * (
                -s(dth_) ** 2
                + s(2 * pa_ + dth_) ** 2 * ta_**2
                + s(2 * pb_ - dth_) ** 2 * tb_**2
                - 2 * s(2 * pa_) * s(2 * pb_) * ta_ * tb_
                - s(2 * pa_ - 2 * pb_ + dth_) ** 2 * ta_**2 * tb_**2
            )
            d1 = e2 * (
                f(2 * pa_ + dth_) * ta_**2
                + f(2 * pb_ - dth_) * tb_**2
                - f(dth_)
                - 2 * (f(pa_ + pb_) - f(pb_ - pa_)) * ta_ * tb_
                - f(2 * pb_ - 2 * pa_ - dth_) * ta_**2 * tb_**2
            )
            d2 = 4j * e2 * (
                s(2 * pa_) * ta_
                - s(2 * pb_ - 2 * dth_) * tb_
                - s(4 * pa_ - 2 * pb_ + 2 * dth_) * ta_**2 * tb_
                + s(2 * pa_) * ta_ * tb_**2
            )
            d3 = -4j * e2 * (s(dth_) + s(2 * pa_ - 2 * pb_ + dth_) * ta_ * tb_) / cc
            d4 = 4j * e2 * (s(2 * pa_ + dth_) * ta_ - s(2 * pb_ - dth_) * tb_) / cc
            return fm, d1, d2, d3, d4

        fm, d1, d2, d3, d4 = numerators(pa, ta, pb, tb, dth)
        _, d1s, d2s, _, _ = numerators(pb, tb, pa, ta, -dth)
        D1, D2, D3, D4 = d1 / fm, d2 / fm, d3 / fm, d4 / fm
        Db1, Db2 = mp.conj(d1s) / fm, mp.conj(d2s) / fm

        def wf_a(r_, p_):
            w = mp.exp(-4j * p_) * mp.tanh(r_) ** 2
            return -(1 + w) / (1 - w)

        def wf_b(r_, p_):
            w = mp.exp(-4j * p_) * mp.tanh(r_) ** 2
            return 2 * mp.exp(-2j * p_) * mp.tanh(r_) / (1 - w)

        sD1 = mp.mpf(1) / 2 + wf_a(rb, pb) - D1
        sDb1 = mp.mpf(1) / 2 + mp.conj(wf_a(ra, pa)) - Db1
        sD2 = wf_b(rb, pb) - D2
        sDb2 = mp.conj(wf_b(ra, pa)) - Db2
        den = sD1 * sDb1 - D4**2
        x11 = sD1 - (sDb1 * sD2**2 + sD1 * D3**2 - 2 * sD2 * D3 * D4) / den
        x22 = sDb1 - (sD1 * sDb2**2 + sDb1 * D3**2 - 2 * sDb2 * D3 * D4) / den
        x12 = D4 - (sDb1 * sD2 * D3 + sD1 * sDb2 * D3 - sD2 * sDb2 * D4 - D3**2 * D4) / den
        return complex(x11), complex(x22), complex(x12)


def large_squeeze_zeta(phi_a: float, phi_b: float, dtheta: float) -> complex:
    """zeta = e^{i dtheta} (e^{2i phi_a} + e^{-2i phi_b}), |zeta| <= 2.

    The one angle combination that survives infinite squeezing.
    """
    return cmath.exp(1j * dtheta) * (cmath.exp(2j * phi_a) + cmath.exp(-2j * phi_b))


def xi_determinant(xi: XiMatrix) -> complex:
    return xi.xi11 * xi.xi22 - xi.xi12 * xi.xi12


def series_prefactor(xi: XiMatrix) -> complex:
    """Band-series prefactor sqrt(det Xi) / (sqrt(2 pi) sqrt(-xi22)).

    Principal branches are safe here: the convergence conditions put
    -xi22 and det Xi in the right half-plane composition the closed-form
    reduction assumes.
    """
    return principal_sqrt(xi_determinant(xi)) / (
        math.sqrt(2.0 * math.pi) * principal_sqrt(-xi.xi22)
    )
