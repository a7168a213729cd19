"""Forms the runtime no longer uses, kept as references for the tests.

- The tanh parametrization of the two-mode squeezed wavefunction,
  psi = N exp(A/2 (q1^2 + q2^2) + B q1 q2), and its Fock amplitudes. The
  runtime reads the same Gaussian from ``kernel.xi_inverse`` of the
  coincident pair; these coefficients cancel catastrophically at deep
  squeezing, so they are compared with it only where they are accurate.
- The quadrant Gaussian integral, whose signed composition is the
  wide-bin closed form ``evaluators.wide_bin_value``.
- That closed form again, in extended precision (``wide_bin_reference``).
- The equal-time cell sum with its u-sum made one v node at a time
  (``equal_time_cells_reference``), as it was before
  ``evaluators._equal_time_cells`` batched it over the v nodes.
"""

import cmath
import math

import numpy as np
import scipy.special as sp

from squeezebell.complexfn import principal_arctan, principal_sqrt
from squeezebell.errors import SqueezeBellError
from squeezebell.kernel import xi_inverse
from squeezebell.quadrature import adaptive_1d
from squeezebell.state import SqueezeParams, TransitionSpec

_QUADRANTS = ("PP", "MP", "PM", "MM")


class SingularCoefficientError(SqueezeBellError):
    """Wavefunction coefficient denominator vanishes (phase-degenerate state)."""


class QuadrantConditionError(SqueezeBellError):
    """Quadrant Gaussian integral preconditions violated.

    Carries the list of failed inequalities so error messages can name them.
    """

    def __init__(self, failed: list[str]):
        self.failed = list(failed)
        super().__init__(
            "quadrant Gaussian integral does not converge; failed conditions: "
            + "; ".join(self.failed)
        )


def _denominator(r: float, varphi: float) -> complex:
    t = math.tanh(r)
    return 1.0 - cmath.exp(-4j * varphi) * t * t


def coeff_A(r: float, varphi: float) -> complex:
    """Diagonal quadratic coefficient of the pair wavefunction exponent.

    A = -(1 + e^{-4i varphi} tanh^2 r) / (1 - e^{-4i varphi} tanh^2 r);
    Re(A) < 0 for finite r. The denominator vanishes only in the joint
    limit tanh r -> 1 with 4*varphi a multiple of 2*pi, where the state
    degenerates; that is reported instead of returning infinities.
    """
    den = _denominator(r, varphi)
    if abs(den) < 1e-300:
        raise SingularCoefficientError(
            f"wavefunction coefficient singular at r={r}, varphi={varphi}: "
            "|1 - e^(-4i varphi) tanh^2 r| < 1e-300"
        )
    t = math.tanh(r)
    return -(1.0 + cmath.exp(-4j * varphi) * t * t) / den


def coeff_B(r: float, varphi: float) -> complex:
    """Cross quadratic coefficient of the pair wavefunction exponent.

    B = 2 e^{-2i varphi} tanh r / (1 - e^{-4i varphi} tanh^2 r).
    """
    den = _denominator(r, varphi)
    if abs(den) < 1e-300:
        raise SingularCoefficientError(
            f"wavefunction coefficient singular at r={r}, varphi={varphi}: "
            "|1 - e^(-4i varphi) tanh^2 r| < 1e-300"
        )
    return 2.0 * cmath.exp(-2j * varphi) * math.tanh(r) / den


def normalization(params: SqueezeParams) -> complex:
    """Gaussian prefactor 1 / (cosh r * sqrt(pi) * sqrt(1 - e^{-4i varphi} tanh^2 r)).

    The square-root argument always has positive real part, so the
    principal branch is taken without further bookkeeping.
    """
    den = _denominator(params.r, params.varphi)
    if abs(den) < 1e-300:
        raise SingularCoefficientError(
            f"normalization singular at r={params.r}, varphi={params.varphi}"
        )
    return 1.0 / (math.cosh(params.r) * math.sqrt(math.pi) * cmath.sqrt(den))


def wavefunction(params: SqueezeParams, q1, q2) -> np.ndarray:
    """Position wavefunction of the pair, vectorized over quadrature grids.

    psi(q1, q2) = N * exp(A/2 * (q1^2 + q2^2) + B * q1 * q2). The rotation
    angle theta does not appear: the vacuum is rotation invariant, so at
    equal times the wavefunction depends on r and varphi only.
    """
    A = coeff_A(params.r, params.varphi)
    B = coeff_B(params.r, params.varphi)
    N = normalization(params)
    q1 = np.asarray(q1)
    q2 = np.asarray(q2)
    return N * np.exp(0.5 * A * (q1 * q1 + q2 * q2) + B * q1 * q2)


def fock_amplitude(params: SqueezeParams, n: int) -> complex:
    """Amplitude of the |n, n> component: e^{-2 i n varphi} tanh^n r / cosh r."""
    if n < 0:
        raise ValueError(f"Fock index must be >= 0, got {n}")
    return cmath.exp(-2j * n * params.varphi) * math.tanh(params.r) ** n / math.cosh(params.r)


def fock_truncation(r: float, tol: float = 1e-14) -> int:
    """Smallest N whose pair-number weight tanh(r)^{2N} drops below tol.

    Summing amplitudes up to (excluding) N keeps the discarded probability
    below tol / (1 - tanh^2 r); for r = 0 only the vacuum term survives.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be in (0, 1)")
    t = math.tanh(r)
    if t == 0.0:
        return 1
    n = math.log(tol) / (2.0 * math.log(t))
    return max(1, math.ceil(n))


def _convergence_failures(a: complex, b: complex, c: complex) -> list[str]:
    failed = []
    if not a.real > 0.0:
        failed.append("Re(a) > 0")
    if not c.real > 0.0:
        failed.append("Re(c) > 0")
    if failed:
        # Ratio conditions are meaningless once a diagonal one fails.
        return failed
    if not (a - b * b / c).real > 0.0:
        failed.append("Re(a - b^2/c) > 0")
    if not (c - b * b / a).real > 0.0:
        failed.append("Re(c - b^2/a) > 0")
    return failed


def quadrant_gaussian(a: complex, b: complex, c: complex, quadrant: str) -> complex:
    """Bivariate Gaussian integral over one quadrant of the plane.

    Computes the integral of exp(-(a x^2 + 2 b x y + c y^2)) over the
    quadrant named by two sign letters (x sign then y sign), e.g. "PP" is
    x > 0, y > 0 and "MP" is x < 0, y > 0. Closed form:

        PP = MM = [pi/2 - arctan(b / sqrt(ac - b^2))] / (2 sqrt(ac - b^2))
        MP = PM = [pi/2 + arctan(b / sqrt(ac - b^2))] / (2 sqrt(ac - b^2))

    valid when Re(a) > 0, Re(c) > 0, Re(a - b^2/c) > 0 and
    Re(c - b^2/a) > 0; violations raise QuadrantConditionError naming the
    failed inequalities. The four quadrants sum to the full-plane value
    pi / sqrt(ac - b^2).
    """
    if quadrant not in _QUADRANTS:
        raise ValueError(f"quadrant must be one of {_QUADRANTS}, got {quadrant!r}")
    a, b, c = complex(a), complex(b), complex(c)
    failed = _convergence_failures(a, b, c)
    if failed:
        raise QuadrantConditionError(failed)
    root = principal_sqrt(a * c - b * b)
    angle = principal_arctan(b / root)
    if quadrant in ("PP", "MM"):
        return (math.pi / 2.0 - angle) / (2.0 * root)
    return (math.pi / 2.0 + angle) / (2.0 * root)


def wide_bin_reference(ra: float, rb: float, sigma: float, psi: float, dps: int) -> float:
    """``evaluators.wide_bin_value`` of the pair's Xi^-1, formed in ``dps`` digits.

    E = (2/pi) Re arctan(p / sqrt(det)) with the ``kernel`` closed forms of
    p and det. sigma = phi_a + phi_b and psi = dtheta + phi_a - phi_b are
    passed as the kernel rounds them, since near the loci the correlator
    moves with them by far more than the rounding of the form.
    """
    import mpmath as mp

    with mp.workdps(dps):
        ra, rb, sigma, psi = (mp.mpf(x) for x in (ra, rb, sigma, psi))
        c, s = mp.cos(sigma), mp.sin(sigma)
        sh_sum, sh_diff = mp.sinh(ra + rb), mp.sinh(ra - rb)
        p = mp.expj(psi) * mp.mpc(c * sh_sum, s * sh_diff)
        gap = 1 + (s * sh_sum) ** 2 + (c * sh_diff) ** 2
        det = mp.mpc(gap + 2 * p.imag**2, -2 * p.real * p.imag)
        return float(2 / mp.pi * mp.re(mp.atan(p / mp.sqrt(det))))


def equal_time_cells_reference(params: SqueezeParams, ell: float) -> tuple[float, float]:
    """(value, error estimate) of ``evaluators._equal_time_cells``, one v at a time.

    The same rates, truncation, kinks and quadrature; at each v node the
    breakpoints are sorted and each segment's sign is read from the parity
    of its midpoint.
    """
    inv = xi_inverse(TransitionSpec(a=params, b=params))
    wide = inv.ch_a + abs(inv.p.real)
    lam_u, lam_v = 1.0 / wide, wide / inv.gap
    sign = -1.0 if inv.p.real < 0.0 else 1.0
    c = math.sqrt(2.0) * ell
    su, sv = math.sqrt(lam_u), math.sqrt(lam_v)
    u_max = 13.0 / su
    v_max = 13.0 / sv

    def signed_mass(v: float) -> float:
        k0 = math.floor((-u_max - abs(v)) / c)
        k1 = math.ceil((u_max + abs(v)) / c)
        lines = c * np.arange(k0, k1 + 1)
        bp = np.concatenate([lines - v, lines + v])
        bp = np.sort(bp[(bp > -u_max) & (bp < u_max)])
        edges = np.concatenate([[-u_max], bp, [u_max]])
        mids = 0.5 * (edges[:-1] + edges[1:])
        par = np.floor((mids + v) / c) + np.floor((mids - v) / c)
        sgn = np.where(np.mod(par, 2.0) == 0.0, 1.0, -1.0)
        er = sp.erf(su * edges)
        return float(np.sum(sgn * (er[1:] - er[:-1])))

    def integrand(v: np.ndarray) -> np.ndarray:
        density = (sv / math.sqrt(math.pi)) * np.exp(-lam_v * v * v)
        return density * np.array([signed_mass(float(t)) for t in v])

    kinks = np.arange(0.0, v_max, 0.5 * c)[1:]
    total, err = adaptive_1d(integrand, 0.0, v_max, rel_tol=1e-11, breakpoints=list(kinks))
    return float(sign * total.real), err
