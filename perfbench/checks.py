"""Output checks made apart from the program.

Each check returns a list of problems; an empty list means the output
passed. They compare against the paper's value, exact identities, known
limits or a quadrature the benchmark computes itself, never against a
stored copy of an earlier output. None of them imports the program.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import integrate, special

# Refined CHSH maximum at r = 5, phi = 0, ell = 100 reported in the paper.
PAPER_B_FINITE_BIN = 2.18
PAPER_B_TOL = 0.02
CIRELSON = 2.0 * math.sqrt(2.0)
CLASSICAL = 2.0
SLACK = 1e-6

# Independent quadratures against the program: the program's band series
# is held to 1e-6 of its own cell oracle by the acceptance suite, and its
# equal-time path integrates to a relative 1e-11.
ORACLE_TOL = 1e-6
EQUAL_TIME_TOL = 1e-8
# Odd parity in dtheta is exact; the swap identity holds to the band
# series' quadrature tolerance. Values travel through the CLI's 12
# significant digits.
IDENTITY_TOL = 1e-7
# The wide-bin correlator approaches its r -> infinity limit like
# e^{-2r}; measured below 0.04 e^{-2r} for r = 1..7 at random angles.
DEEP_GAP = 0.04
# From r = 14 on, 0.04 e^{-2r} is below what the CLI's 12 significant
# digits resolve, so the limit check also allows for that rounding.
PRINT_TOL = 1e-12


def check_finite_bin(values: np.ndarray, grid_best: float, refined: float) -> list[str]:
    """The paper's violation map: finite nodes under the Cirelson bound,
    a refinement that never loses to the grid, and B near 2.18."""
    problems = _check_nodes(values, grid_best, refined, CIRELSON)
    if abs(refined - PAPER_B_FINITE_BIN) > PAPER_B_TOL:
        problems.append(
            f"refined B = {refined:.6f} is not within {PAPER_B_TOL} of the paper's {PAPER_B_FINITE_BIN}"
        )
    return problems


def check_sign_limit(values: np.ndarray, grid_best: float, refined: float) -> list[str]:
    """Sign-operator limit: no node and no refined value exceeds 2."""
    return _check_nodes(values, grid_best, refined, CLASSICAL)


def _check_nodes(values: np.ndarray, grid_best: float, refined: float, ceiling: float) -> list[str]:
    problems = []
    if not np.all(np.isfinite(values)):
        problems.append(f"{int(np.sum(~np.isfinite(values)))} nodes are not finite")
    top = float(np.nanmax(values))
    if top > ceiling + SLACK:
        problems.append(f"node maximum {top:.9f} exceeds {ceiling:.9f}")
    if refined > ceiling + SLACK:
        problems.append(f"refined value {refined:.9f} exceeds {ceiling:.9f}")
    if top != grid_best:
        problems.append(f"reported best node {grid_best!r} is not the node maximum {top!r}")
    if refined < grid_best:
        problems.append(f"refined value {refined!r} is below the best node {grid_best!r}")
    return problems


def check_bounded(value: float) -> list[str]:
    if not (math.isfinite(value) and abs(value) <= 1.0 + SLACK):
        return [f"|E| = {abs(value)!r} is not at most 1"]
    return []


def large_squeeze_limit(phi_a: float, phi_b: float, dtheta: float) -> float:
    """Wide-bin correlator at infinite squeezing, from the paper's formula.

    E = (2/pi) Re arctan(zeta / sqrt(4 - zeta^2)),
    zeta = e^{i dtheta} (e^{2i phi_a} + e^{-2i phi_b}).
    """
    zeta = cmath.exp(1j * dtheta) * (cmath.exp(2j * phi_a) + cmath.exp(-2j * phi_b))
    return (2.0 / math.pi) * cmath.atan(zeta / cmath.sqrt(4.0 - zeta * zeta)).real


def check_near_limit(value: float, r: float, phi_a: float, phi_b: float, dtheta: float) -> list[str]:
    """A wide-bin value lies within DEEP_GAP e^{-2r} of its r -> inf limit,
    up to the rounding of a printed value."""
    limit = large_squeeze_limit(phi_a, phi_b, dtheta)
    bound = DEEP_GAP * math.exp(-2.0 * r) + PRINT_TOL
    if not abs(value - limit) <= bound:
        return [f"E = {value!r} is {value - limit:.3e} off the r -> inf limit {limit!r} (bound {bound:.3e})"]
    return []


def check_close(value: float, reference: float, tol: float, what: str) -> list[str]:
    if not abs(value - reference) <= tol:
        return [f"E = {value!r} differs from {what} {reference!r} by {value - reference:.3e} (tol {tol:g})"]
    return []


def equal_time_reference(r: float, phi: float, ell: float) -> float:
    """Checkerboard sum of bivariate-normal cell probabilities.

    For one two-mode squeezed snapshot, |psi(q1, q2)|^2 is a centred
    bivariate normal with exponent Re A (q1^2 + q2^2) + 2 Re B q1 q2, where
    A = -(1 + w)/(1 - w), B = 2 e^{-2i phi} tanh r / (1 - w) and
    w = e^{-4i phi} tanh^2 r. The correlator is the sum over cells
    [n ell, (n+1) ell) x [m ell, (m+1) ell) of (-1)^(n+m) times the cell
    probability. Here q1 is integrated band by band and q2 is summed in
    closed form from the conditional normal q2 | q1.
    """
    t = math.tanh(r)
    w = cmath.exp(-4j * phi) * t * t
    a_re = (-(1.0 + w) / (1.0 - w)).real
    b_re = (2.0 * cmath.exp(-2j * phi) * t / (1.0 - w)).real
    precision = -2.0 * np.array([[a_re, b_re], [b_re, a_re]])
    cov = np.linalg.inv(precision)
    sigma = math.sqrt(cov[0, 0])
    slope = cov[0, 1] / cov[0, 0]
    s_cond = math.sqrt(cov[1, 1] - cov[0, 1] ** 2 / cov[0, 0])
    reach = 12.0 * sigma

    def inner(x: float) -> float:
        # sum_m (-1)^m P(m ell <= q2 < (m+1) ell | q1 = x)
        mu = slope * x
        m0 = math.floor((mu - 12.0 * s_cond) / ell) - 1
        m1 = math.ceil((mu + 12.0 * s_cond) / ell) + 1
        m = np.arange(m0, m1 + 1)
        cdf = special.ndtr((m * ell - mu) / s_cond)
        cells = np.diff(cdf)
        signs = np.where(m[:-1] % 2 == 0, 1.0, -1.0)
        return float(np.sum(signs * cells))

    def density(x: float) -> float:
        return math.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))

    total = 0.0
    n_lo = math.floor(-reach / ell)
    n_hi = math.ceil(reach / ell)
    for n in range(n_lo, n_hi):
        lo, hi = n * ell, (n + 1) * ell
        # inner() steps where the conditional mean crosses a lattice line.
        kinks = []
        if slope != 0.0:
            k_lo, k_hi = sorted((slope * lo / ell, slope * hi / ell))
            kinks = [k * ell / slope for k in range(math.ceil(k_lo), math.floor(k_hi) + 1)]
            kinks = [x for x in kinks if lo < x < hi]
        val, _ = integrate.quad(
            lambda x: density(x) * inner(x), lo, hi,
            points=kinks or None, limit=400, epsabs=1e-13, epsrel=1e-11,
        )
        total += (1.0 if n % 2 == 0 else -1.0) * val
    return total
