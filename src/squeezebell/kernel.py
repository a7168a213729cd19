"""Reduced Gaussian kernel of the two-time correlator.

The two-time expectation value reduces to a four-variable Gaussian over
the two sign-binned quadratures and two passive ones. Integrating out the
passive pair leaves a 2x2 complex quadratic form Xi; every evaluator
downstream consumes only Xi and its convergence diagnostics.

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
r -> infinity singular locus chi = 0 of xi_matrix_large_squeeze, where
Xi is ill-conditioned in its input angles anyway. So double precision
holds at every squeezing and there is no extended-precision path.

Degeneracy: the 12x12 system determinant factors as
f_M = -4 e^{2i dtheta} g_s g_c with two real factors g_s and g_c. It
vanishes when the two snapshots coincide (up to periodicity) or sit at a
parity-degenerate angle difference, where the kernel collapses to a delta
sheet. That is reported as DegenerateKernelError; resolution (equal-time
path or angle nudge) is the evaluator layer's job, not this module's.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .complexfn import principal_sqrt
from .errors import ComplexOverflowError, DegenerateKernelError, SingularLocusError
from .state import TransitionSpec

__all__ = [
    "XiMatrix",
    "kernel_determinant",
    "xi_matrix",
    "xi_matrix_large_squeeze",
    "large_squeeze_zeta",
    "amplitude_constant",
    "xi_determinant",
    "series_prefactor",
    "DEGENERACY_THRESHOLD",
]

DEGENERACY_THRESHOLD = 1e-12


@dataclass(frozen=True)
class XiMatrix:
    """Reduced 2x2 complex quadratic form and its convergence diagnostics.

    The band series integrates exp((xi11 Y1^2 + 2 xi12 Y1 Y2 + xi22 Y2^2)/2);
    it converges when all four diagnostics (Re xi11, Re xi22 and the two
    Schur-complement real parts) are negative. ``strongly_converged``
    additionally demands Re(xi11) Re(xi22) > Re(xi12)^2, under which the
    band integrand decays without relying on phase cancellation.
    """

    xi11: complex
    xi22: complex
    xi12: complex
    converged: bool
    diagnostics: tuple[float, float, float, float]

    @property
    def strongly_converged(self) -> bool:
        return (
            self.xi11.real < 0.0
            and self.xi22.real < 0.0
            and self.xi11.real * self.xi22.real - self.xi12.real**2 > 0.0
        )


def _determinant_factors(
    spec: TransitionSpec,
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """Weights and angle coefficients of the two real factors of f_M.

    g_s = sum_k w_k s_k and g_c = sum_k w_k c_k, where the weights
    (4, 2 sigma_a, 2 sigma_b, sigma_a sigma_b) carry the squeezing through
    sigma = 1 - tanh r, and the coefficients, each at most 1 in size, carry
    the angles. Each term is a product correct to rounding, so the only
    error that can grow is cancellation between the terms of a sum.
    """
    ra, pa = spec.a.r, spec.a.varphi
    rb, pb = spec.b.r, spec.b.varphi
    psi = spec.delta_theta + pa - pb
    qa, qb = math.exp(-2.0 * ra), math.exp(-2.0 * rb)
    sig_a, sig_b = 2.0 * qa / (1.0 + qa), 2.0 * qb / (1.0 + qb)
    weights = (4.0, 2.0 * sig_a, 2.0 * sig_b, sig_a * sig_b)
    sin_pa, cos_pa, sin_pb, cos_pb = math.sin(pa), math.cos(pa), math.sin(pb), math.cos(pb)
    sin_psi = math.sin(psi)
    # The sigma_a sigma_b coefficient is the same in both factors.
    shared = math.sin(psi + pa - pb)
    s = (
        sin_pa * sin_pb * sin_psi,
        sin_pb * math.cos(psi + pa),
        -sin_pa * math.cos(psi - pb),
        shared,
    )
    c = (
        cos_pa * cos_pb * sin_psi,
        -cos_pb * math.sin(psi + pa),
        -cos_pa * math.sin(psi - pb),
        shared,
    )
    return weights, s, c


def kernel_determinant(spec: TransitionSpec) -> complex:
    """Two-time kernel determinant f_M = -4 e^{2i dtheta} g_s g_c.

    Zero is a valid return: the determinant vanishes at coincident
    measurement parameters, the locus that xi_matrix refuses.
    """
    weights, s, c = _determinant_factors(spec)
    g_s = sum(w * t for w, t in zip(weights, s))
    g_c = sum(w * t for w, t in zip(weights, c))
    return -4.0 * cmath.exp(2j * spec.delta_theta) * g_s * g_c


def _require_nondegenerate(spec: TransitionSpec) -> None:
    """Raise DegenerateKernelError when a factor of f_M vanishes.

    A factor vanishes when its terms cancel to DEGENERACY_THRESHOLD of
    their summed size (as at a coincident pair), or when all four of its angle
    coefficients lie within DEGENERACY_THRESHOLD of zero, so that f_M
    vanishes at these angles for every squeezing (a parity-degenerate
    pair). A factor that is small only through its weights, as g_s is at
    phi = 0 and deep squeezing, is not degenerate.
    """
    weights, s, c = _determinant_factors(spec)
    for coefficients in (s, c):
        terms = [w * t for w, t in zip(weights, coefficients)]
        cancels = abs(sum(terms)) <= DEGENERACY_THRESHOLD * sum(map(abs, terms))
        if cancels or max(map(abs, coefficients)) <= DEGENERACY_THRESHOLD:
            f_m = abs(kernel_determinant(spec))
            raise DegenerateKernelError(
                f"two-time kernel determinant vanishes (|f_M| = {f_m:.3e}); "
                "coincident or parity-degenerate transition",
                det_magnitude=f_m,
            )


def _safe_real(z: complex) -> float:
    return z.real if math.isfinite(z.real) else math.inf


def _form(xi11: complex, xi22: complex, xi12: complex) -> XiMatrix:
    diag = (
        _safe_real(xi11),
        _safe_real(xi22),
        _safe_real(xi11 - xi12 * xi12 / xi22) if xi22 != 0.0 else math.inf,
        _safe_real(xi22 - xi12 * xi12 / xi11) if xi11 != 0.0 else math.inf,
    )
    converged = all(v < 0.0 for v in diag)
    return XiMatrix(xi11=xi11, xi22=xi22, xi12=xi12, converged=converged, diagnostics=diag)


def xi_matrix(spec: TransitionSpec) -> XiMatrix:
    """Reduce the 4x4 two-time quadratic form to the observable 2x2 block.

    Xi = 2 (S^-1 + M^-1)^-1 in the closed form of the module docstring;
    xi11 belongs to the later-argument (b) side and xi22 to the earlier (a)
    side. The ``converged`` flag summarizes the four band-series
    convergence conditions, stored verbatim in ``diagnostics``.
    """
    _require_nondegenerate(spec)
    ra, pa = spec.a.r, spec.a.varphi
    rb, pb = spec.b.r, spec.b.varphi
    c, s = math.cos(pa + pb), math.sin(pa + pb)
    try:
        sh_sum, sh_diff = math.sinh(ra + rb), math.sinh(ra - rb)
        ch_a, ch_b = math.cosh(2.0 * ra), math.cosh(2.0 * rb)
        p = cmath.exp(1j * (spec.delta_theta + pa - pb)) * complex(c * sh_sum, s * sh_diff)
        det = complex(
            1.0 + (s * sh_sum) ** 2 + (c * sh_diff) ** 2 + 2.0 * p.imag**2,
            -2.0 * p.real * p.imag,
        )
    except OverflowError:
        det = complex(math.inf)
    if not (math.isfinite(det.real) and math.isfinite(det.imag)):
        raise ComplexOverflowError(
            f"reduced quadratic form leaves double precision at r_a + r_b = {ra + rb:g}"
        )
    f = 2.0 / det
    return _form(-f * ch_a, -f * ch_b, f * p)


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


def xi_matrix_large_squeeze(spec: TransitionSpec) -> XiMatrix:
    """Leading large-squeezing asymptote of the reduced quadratic form.

    With u = e^{-r} per side and chi = (4 - zeta^2) / 8:

        xi11 ~ -2 u_b^2 / chi,   xi22 ~ -2 u_a^2 / chi,
        xi12 ~ zeta u_a u_b / chi.

    Re(chi) >= 0 always; the form degenerates on the locus chi = 0.
    """
    ua = math.exp(-spec.a.r)
    ub = math.exp(-spec.b.r)
    zeta = large_squeeze_zeta(spec.a.varphi, spec.b.varphi, spec.delta_theta)
    chi = (4.0 - zeta * zeta) / 8.0
    if abs(chi) < 1e-14:
        raise SingularLocusError(
            "large-squeezing quadratic form singular: |4 - zeta^2| < 8e-14 "
            "(maximal-correlation locus)"
        )
    return _form(-2.0 * ub * ub / chi, -2.0 * ua * ua / chi, zeta * ua * ub / chi)


def amplitude_constant(xi: XiMatrix) -> complex:
    """Cell-sum prefactor sqrt(det Xi) / (4 pi^2) of the reduced expectation.

    Expects a converged form, under which det Xi stays clear of the
    negative real axis and the principal square root is the right branch
    (the two quadratic-form eigenvalues sit in the left half-plane, so the
    phase of their product never wraps).
    """
    return principal_sqrt(xi_determinant(xi)) / (4.0 * math.pi**2)


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
