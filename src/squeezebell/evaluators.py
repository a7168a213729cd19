"""Correlator evaluators: two exact series, closed-form limits, equal-time.

The two-time correlator of the sign-binned quadrature observable is, after
kernel reduction, the checkerboard expectation of a two-variable Gaussian
with the reduced quadratic form Xi. Every route reads the form as
``kernel.xi_inverse`` gives it, Xi^-1. Five evaluation routes are provided:

- ``numeric``: an exact series, picked a priori by its cost. The band
  series (erfc inner sum, adaptive outer quadrature) sums over bands of
  width ell and is cheap for bins about as wide as the state, e^r, or
  wider. Its Poisson (Jacobi theta) dual sums over the odd harmonics of
  the square wave (-1)^floor(q/ell) and is cheap for bins narrower than
  the state. Both are reference-quality.
- ``small-ell``: narrow-bin asymptote, the dual series cut to one term.
- ``large-ell``: closed-form wide-bin limit (only the four central cells
  survive; quadrant Gaussian closed forms).
- ``large-squeeze``: infinite-squeezing limit, a pure function of the
  angles.
- ``equal-time``: signed cell sum of the one snapshot's density for a
  coincident pair, whose decay rates are read from ``kernel.xi_inverse``
  of that pair.

``auto`` (``auto_method``) takes the equal-time path at a coincident pair,
the wide-bin form for bins over 100 times the squeezing scale e^r, and
``numeric`` everywhere else; ``numeric_series`` tells which series
``numeric`` runs, so a caller can tell the cheap keys from the quadratures
before running any.

Coincidence is decided once, by ``kernel.is_coincident`` on the folded
pair, and refuses nothing: Xi^-1 there is the snapshot's density (see
``kernel``). ``auto`` and ``numeric`` take the equal-time path, since the
band series does not resolve the coincident ridge at deep squeezing; the
other methods read the form as for any pair, and no angle is shifted.

All spec-taking evaluators first fold the angle difference into
[-pi/2, pi/2] using the exact parity identity E(dtheta + pi) = -E(dtheta)
(advancing one snapshot by half a period reflects its quadrature,
Q -> -Q, and the sign-binned observable is odd). The fold is an algebraic
identity, not an approximation, so it is applied silently; it keeps every
evaluation away from the ill-conditioned neighborhoods of dtheta = k pi
for k != 0 and turns dtheta = pi for an otherwise identical pair into a
clean equal-time delegation. A folded difference within _FOLD_SNAP of zero
is taken as exactly zero, so a leg that rounding left next to
coincidence takes the coincident route.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np
import scipy.special as _sp

from .complexfn import principal_arctan, principal_sqrt
from .errors import ComplexOverflowError, MaxBandsExceededError, NonConvergentXiError
from .kernel import (
    XiInverse,
    is_coincident,
    large_squeeze_zeta,
    xi_inverse,
    xi_matrix,  # noqa: F401  (perfbench/tracing.py wraps it here)
    xi_of_inverse,
)
from .quadrature import adaptive_1d, geometric_panels
from .state import SqueezeParams, TransitionSpec

__all__ = [
    "EvaluationSettings",
    "CorrelatorResult",
    "correlator_numeric",
    "correlator_small_ell",
    "correlator_large_ell",
    "correlator_large_ell_large_squeeze",
    "correlator_equal_time",
    "correlator_auto",
    "auto_method",
    "numeric_series",
    "band_series_value",
    "dual_series_value",
    "wide_bin_value",
]

# A folded angle difference at most this far from zero is rounding, not a
# lag: the difference of two angles of size up to a few pi (a linspace
# node, theta_a - theta_b) carries a few ulp(pi) of it.
_FOLD_SNAP = 8.0 * math.ulp(math.pi)

# The Poisson-dual series stops where the bound on its omitted terms falls
# to this absolute level: |E| <= 1, so the truncation stays under the
# rounding of the value itself.
_DUAL_TAIL_TOL = 1e-16
# Every omitted (k, l) term is at most (16/pi^2) e^{-a (k^2 + l^2)} / (k l).
_PAIR_BOUND = 16.0 / math.pi**2

# The a-priori rule by which ``correlator_numeric`` picks its series. The
# band series takes about _BANDS_PER_WIDTH bands per state width
# e^{max r} / ell, and never fewer than _MIN_BANDS (r = 0 ... 5,
# ell = 0.1 ... 1e4). One band, two adaptive Gauss-Kronrod integrals over
# blocks of erfcx, costs 0.3-3.7 ms and one (k, l) term of the dual series
# about 60 ns (one core of an x86-64 guest); _PAIRS_PER_BAND sits at the
# low end of that ratio, so the dual is taken only where it is clearly the
# cheaper series.
_BANDS_PER_WIDTH = 14.0
_MIN_BANDS = 6.0
_PAIRS_PER_BAND = 5000.0
# The dual sum runs over blocks of at most this many (k, l) terms, so its
# memory stays small at any truncation.
_DUAL_BLOCK = 1 << 15
# The equal-time u-sum runs over blocks of at most this many breakpoints
# (v nodes x lattice lines), so each of its temporaries stays at 0.5 MB
# when a row crosses thousands of lines.
_CELL_BLOCK = 1 << 16


@dataclass(frozen=True)
class EvaluationSettings:
    """Numerical knobs shared by every evaluator.

    ell: sign-bin width, > 0.
    trunc_rel_tol: relative tolerance for truncating the band series.
    quad_rel_tol: relative tolerance of each adaptive band integral.
    max_bands: hard cap on bands before the series is declared stuck.
    """

    ell: float
    trunc_rel_tol: float = 1e-10
    quad_rel_tol: float = 1e-9
    max_bands: int = 4096

    def __post_init__(self) -> None:
        if not (isinstance(self.ell, (int, float)) and math.isfinite(self.ell) and self.ell > 0):
            raise ValueError(f"ell must be finite and > 0, got {self.ell!r}")
        if not 0 < self.trunc_rel_tol < 1:
            raise ValueError("trunc_rel_tol must be in (0, 1)")
        if not 0 < self.quad_rel_tol < 1:
            raise ValueError("quad_rel_tol must be in (0, 1)")
        if self.max_bands < 2:
            raise ValueError("max_bands must be >= 2")


@dataclass(frozen=True)
class CorrelatorResult:
    """Correlator value plus an honest account of how it was obtained.

    ``series`` names the series that ran: "band" (``band_series_value``,
    with its bands and inner erfc terms) or "dual" (``dual_series_value``,
    with its odd terms per axis); closed forms and the equal-time path
    leave it empty. ``error_estimate`` is the quadrature error estimate of
    the band series and the equal-time path, and the bound on the omitted
    terms of the dual series. ``degenerate_path`` marks values of a
    coincident pair, which ``auto`` and ``numeric`` delegate to the
    equal-time path and ``large-ell`` flags as the wide-bin equal-time
    limit; ``notes`` carries the human-readable detail.
    """

    value: float
    method: str
    series: str = ""
    n_bands_used: int = 0
    series_terms_used: int = 0
    error_estimate: float = 0.0
    degenerate_path: bool = False
    notes: tuple[str, ...] = ()


def _parity_fold(dth: float) -> tuple[float, float]:
    """Fold dth = k pi + delta onto delta in [-pi/2, pi/2]; returns (delta, (-1)^k).

    The sign is exact by E(dtheta + pi) = -E(dtheta): at the kernel level
    a pi shift flips the phase e^{i dtheta} of the coupling and hence xi12,
    and the correlator is odd in xi12.
    """
    delta = math.remainder(dth, math.pi)
    if abs(delta) <= _FOLD_SNAP:
        delta = 0.0
    if delta == dth:
        return dth, 1.0
    k = round((dth - delta) / math.pi)
    return delta, (-1.0 if k % 2 else 1.0)


def _parity_reduce(spec: TransitionSpec) -> tuple[TransitionSpec, float]:
    """Parity-fold the spec's angle difference; returns the folded spec and its sign.

    The folded spec carries theta_a = delta, theta_b = 0 so its angle
    difference is exactly delta.
    """
    delta, sign = _parity_fold(spec.delta_theta)
    if delta == spec.delta_theta:
        return spec, sign
    return TransitionSpec(a=replace(spec.a, theta=delta), b=replace(spec.b, theta=0.0)), sign


def band_series_value(
    inv: XiInverse, settings: EvaluationSettings
) -> tuple[float, int, int, float]:
    """Resummed band series for the reduced quadratic form Xi, given as Xi^-1.

    Returns (value, n_bands_used, series_terms_used, quadrature_error).
    The inner lattice direction is resummed into an alternating erfc
    series, evaluated in scaled form (erfcx times an explicit exponent) so
    no intermediate factor overflows; the outer direction is integrated
    band by band with adaptive Gauss-Kronrod panels refined toward the
    origin, where all the integrand structure lives.

    Two quantities are read off Xi^-1 = -(1/2) [[ch_b, p], [p, ch_a]]
    rather than from Xi's entries, which are of size e^{2r} near the
    maximal-correlation locus and would cancel there: the erfc envelope's
    Schur complement xi11 - xi12^2/xi22 = -2 / ch_b, and the prefactor
    sqrt(det Xi) / (sqrt(2 pi) sqrt(-xi22)) = 1 / sqrt(pi ch_b), with
    det Xi = 4 / det and -xi22 = 2 ch_b / det. Every form ``xi_inverse``
    returns converges (``XiMatrix``), so nothing is checked up front.
    """
    ell = settings.ell
    xi = xi_of_inverse(inv)
    x11, x22, x12 = xi.xi11, xi.xi22, xi.xi12
    s = principal_sqrt(-0.5 * x22)
    ratio = x12 / x22
    schur = -2.0 / inv.ch_b
    pref = 1.0 / math.sqrt(math.pi * inv.ch_b)
    scale = 1.0 / math.sqrt(max(abs(x11), abs(x22), abs(x12), 1e-300))
    m_abs_tol = 1e-12
    max_m_terms = 1_000_000
    terms_used = 0

    block = 16
    # Alternating signs with weight 1 for m = 0 and 2 for m > 0; every
    # block starts at an even m.
    later_weights = np.where(np.arange(block) % 2 == 0, 2.0, -2.0)
    first_weights = np.where(np.arange(block) == 0, 1.0, later_weights)

    def bracket(y: np.ndarray, sign: float) -> np.ndarray:
        # erfc sum against the shared Gaussian envelope, term by term in m,
        # each term assembled as erfcx(z) * exp(combined exponent) so the
        # e^{z^2} growth of erfc never materializes. Where Re z < 0 the
        # term is env2 - erfcx(-z) * exp(exponent), by erfc(z) = 2 - erfc(-z).
        nonlocal terms_used
        Y = sign * y
        out = np.zeros(Y.shape, dtype=complex)
        env2 = 2.0 * np.exp(0.5 * schur * Y * Y)
        ex_y = 0.5 * x11 * (Y * Y)
        z_y = ratio * Y
        m0 = 0
        while True:
            ms = np.arange(m0, m0 + block, dtype=float)[:, None] * ell
            Z = s * (ms + z_y[None, :])
            EX = ex_y[None, :] + x12 * ms * Y[None, :] + 0.5 * x22 * ms * ms
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                pos = Z.real >= 0.0
                scaled = _sp.erfcx(np.where(pos, Z, -Z)) * np.exp(EX)
                term = np.where(pos, scaled, env2 - scaled)
                blk_max = float(np.max(np.abs(term)))
            # A non-finite term makes the block max inf or NaN; the full
            # check only runs then, since |term| of finite parts can overflow.
            if not math.isfinite(blk_max) and not np.all(np.isfinite(term)):
                raise ComplexOverflowError(
                    "scaled erfc series overflows double precision; "
                    "band series not evaluable at these parameters"
                )
            weights = first_weights if m0 == 0 else later_weights
            out += np.sum(term * weights[:, None], axis=0)
            terms_used = max(terms_used, m0 + block)
            if blk_max < m_abs_tol:
                break
            m0 += block
            if m0 > max_m_terms:
                raise NonConvergentXiError(
                    "inner erfc series did not settle within 1e6 terms"
                )
        return out

    total = 0.0 + 0.0j
    peak = 0.0
    quad_err = 0.0
    small_streak = 0
    k = 0
    while True:
        if 2 * (k + 1) > settings.max_bands:
            raise MaxBandsExceededError(
                f"band series used {2 * k} bands without settling "
                f"(max_bands = {settings.max_bands})"
            )
        lo, hi = k * ell, (k + 1) * ell
        panels = geometric_panels(lo, hi, scale)
        ip, ep = adaptive_1d(
            lambda y: bracket(y, +1.0), lo, hi,
            rel_tol=settings.quad_rel_tol, breakpoints=panels,
        )
        im, em = adaptive_1d(
            lambda y: bracket(y, -1.0), lo, hi,
            rel_tol=settings.quad_rel_tol, breakpoints=panels,
        )
        pair = (-1.0) ** k * (ip - im)
        total += pair
        quad_err += ep + em
        peak = max(peak, abs(pair))
        k += 1
        if k >= 2 and abs(pair) <= settings.trunc_rel_tol * max(abs(total), peak):
            small_streak += 1
            if small_streak >= 2:
                break
        else:
            small_streak = 0

    return pref * total.real, 2 * k, terms_used, pref * quad_err


def _dual_decay(inv: XiInverse, ell: float) -> float:
    """a = kappa lambda_min, kappa = pi^2 / (4 ell^2): each dual term is at most e^{-a (k^2 + l^2)} / (k l).

    lambda_min is the smaller eigenvalue of [[ch_b, |Re p|], [|Re p|, ch_a]],
    its determinant gap + (Im p)^2 over the larger eigenvalue, so it carries
    no cancellation.
    """
    half = math.pi / (2.0 * ell)
    lam_max = 0.5 * (inv.ch_a + inv.ch_b) + math.hypot(0.5 * (inv.ch_a - inv.ch_b), inv.p.real)
    return half * half * ((inv.gap + inv.p.imag * inv.p.imag) / lam_max)


def _axis_tail(a: float, m: int) -> float:
    """Bound on sum_{k odd >= m} e^{-a k^2} / k, from (m + 2j)^2 >= m^2 + 4 m j."""
    return math.exp(-a * m * m) / (m * -math.expm1(-4.0 * a * m))


def _dual_tail(a: float, n_odd: int, head: float) -> float:
    """Bound on the (k, l) terms outside the first n_odd odd k and l.

    With w_k = e^{-a k^2} / k, head the sum of w_k over the kept k and t
    the tail of the rest, the omitted pairs sum to at most
    (head + t)^2 - head^2.
    """
    t = _axis_tail(a, 2 * n_odd + 1)
    return _PAIR_BOUND * t * (2.0 * head + t)


def _dual_order(a: float, most: int) -> int | None:
    """Fewest odd terms per axis, at most ``most``, whose omitted terms are under _DUAL_TAIL_TOL.

    None when more than ``most`` are needed. Bisects on the bound with
    1 + log(1 + 1/a) / 4, at least the sum of all w_k, for the head.
    """
    if not a > 0.0:
        return None
    head = 1.0 + 0.25 * math.log1p(1.0 / a)
    if _dual_tail(a, most, head) > _DUAL_TAIL_TOL:
        return None
    lo, hi = -1, most
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _dual_tail(a, mid, head) <= _DUAL_TAIL_TOL:
            hi = mid
        else:
            lo = mid
    return hi


def dual_series_value(
    inv: XiInverse, ell: float, n_odd: int | None = None
) -> tuple[float, int, float]:
    """Poisson-dual (Jacobi theta transformed) series; returns (value, n_odd, tail bound).

    The observable (-1)^floor(q/ell) is the square wave
    (4/pi) sum_{k odd} sin(k pi q / ell) / k, and its Gaussian expectation
    under Xi^-1 = -(1/2) [[ch_b, p], [p, ch_a]] is, with kappa = pi^2/(4 ell^2),

        E = (8/pi^2) Re sum_{k,l odd >= 1} (1/(k l))
              [e^{-kappa (k^2 ch_b + l^2 ch_a - 2 k l p)} - e^{-kappa (k^2 ch_b + l^2 ch_a + 2 k l p)}].

    The real part of each exponent is read as
    ch_b (k -+ rho l)^2 + eta l^2 with rho = Re p / ch_b and
    eta = (ch_a ch_b - (Re p)^2) / ch_b, a sum of two nonnegative terms. It
    converges fast for bins narrower than the state width e^r, where the
    band series needs many bands. The first ``n_odd`` odd k and l are
    summed; by default the fewest whose omitted terms are bounded by
    _DUAL_TAIL_TOL, and the bound on the omitted terms is returned with
    the value. The cost grows as n_odd^2.
    """
    a = _dual_decay(inv, ell)
    if n_odd is None:
        n_odd = _dual_order(a, sys.maxsize)
        if n_odd is None:
            raise NonConvergentXiError(f"dual series does not converge at ell = {ell:g}")
    k = np.arange(1, 2 * n_odd, 2, dtype=float)
    bound = _dual_tail(a, n_odd, float(np.sum(np.exp(-a * k * k) / k)))
    # Every term is below e^{-2a}, which rounds to zero past this.
    if n_odd == 0 or 2.0 * a > 746.0:
        return 0.0, n_odd, bound
    half = math.pi / (2.0 * ell)
    kappa = half * half
    rho_l = (inv.p.real / inv.ch_b) * k
    eta_l = (kappa * (inv.gap + inv.p.imag * inv.p.imag) / inv.ch_b) * k * k
    scale = kappa * inv.ch_b
    turn = 2.0 * kappa * inv.p.imag
    rows = max(1, _DUAL_BLOCK // len(k))
    total = 0.0
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for start in range(0, len(k), rows):
            kk = k[start:start + rows, None]
            minus = kk - rho_l
            plus = kk + rho_l
            diff = np.exp(-(scale * minus * minus + eta_l)) - np.exp(-(scale * plus * plus + eta_l))
            kl = kk * k
            total += float(np.sum(diff * np.cos(turn * kl) / kl))
    value = (8.0 / math.pi**2) * total
    if not math.isfinite(value):
        raise ComplexOverflowError("dual series exponents leave double precision")
    return value, n_odd, bound


def _numeric_plan(spec: TransitionSpec, ell: float) -> tuple[XiInverse, int | None]:
    """The kernel form, and the dual truncation ``correlator_numeric`` takes, or None for the band series.

    The dual is taken when its n_odd^2 (k, l) terms are at most
    _PAIRS_PER_BAND times the band series' a-priori band count
    _MIN_BANDS + _BANDS_PER_WIDTH e^{max r} / ell.
    """
    inv = xi_inverse(spec)
    bands = _MIN_BANDS + _BANDS_PER_WIDTH * math.exp(max(spec.a.r, spec.b.r)) / ell
    most = math.isqrt(int(min(_PAIRS_PER_BAND * bands, 2.0**62)))
    return inv, _dual_order(_dual_decay(inv, ell), most)


def numeric_series(spec: TransitionSpec, ell: float) -> str:
    """The path ``correlator_numeric`` takes: "equal-time" (coincident pair), "dual" or "band"."""
    if is_coincident(spec):
        return "equal-time"
    return "band" if _numeric_plan(spec, ell)[1] is None else "dual"


def correlator_numeric(spec: TransitionSpec, settings: EvaluationSettings) -> CorrelatorResult:
    """Two-time correlator by an exact series: the Poisson-dual series or the band series.

    ``_numeric_plan`` picks the cheaper one a priori; ``series`` names it.
    A coincident pair takes the equal-time path, as in ``correlator_auto``.
    """
    spec, parity = _parity_reduce(spec)
    if is_coincident(spec):
        res = _coincident_equal_time(spec, settings.ell)
        return replace(res, value=parity * res.value)
    inv, n_odd = _numeric_plan(spec, settings.ell)
    if n_odd is not None:
        value, n_odd, bound = dual_series_value(inv, settings.ell, n_odd)
        return CorrelatorResult(
            value=parity * value,
            method="numeric",
            series="dual",
            series_terms_used=n_odd,
            error_estimate=bound,
        )
    value, n_bands, n_terms, qerr = band_series_value(inv, settings)
    return CorrelatorResult(
        value=parity * value,
        method="numeric",
        series="band",
        n_bands_used=n_bands,
        series_terms_used=n_terms,
        error_estimate=qerr,
    )


def wide_bin_value(inv: XiInverse) -> float:
    """Closed-form wide-bin (ell -> infinity) limit, E = (2/pi) Re arctan(p / sqrt(det)).

    Only the four cells around the origin survive; their quadrant Gaussian
    closed forms give (2/pi) Re arctan(xi12 / sqrt(det Xi)), the same value.
    Re det >= 1 picks the principal branches at every pair.
    """
    return (2.0 / math.pi) * principal_arctan(inv.p / principal_sqrt(inv.det)).real


def correlator_small_ell(spec: TransitionSpec, ell: float) -> CorrelatorResult:
    """Narrow-bin form: the dual series cut to its k = l = 1 term.

    Accurate when ell is well under the state width e^r; ``error_estimate``
    bounds the omitted terms, led by the first of them, (1, 3) and (3, 1).
    """
    if not (math.isfinite(ell) and ell > 0):
        raise ValueError(f"ell must be finite and > 0, got {ell!r}")
    spec, parity = _parity_reduce(spec)
    value, n_odd, bound = dual_series_value(xi_inverse(spec), ell, 1)
    return CorrelatorResult(
        value=parity * value,
        method="small-ell",
        series="dual",
        series_terms_used=n_odd,
        error_estimate=bound,
    )


def correlator_large_ell(spec: TransitionSpec) -> CorrelatorResult:
    """Wide-bin closed form ``wide_bin_value``; the bin width drops out entirely.

    At a coincident pair it is the equal-time limit, and is flagged so.
    """
    spec, parity = _parity_reduce(spec)
    coincident = is_coincident(spec)
    return CorrelatorResult(
        value=parity * wide_bin_value(xi_inverse(spec)),
        method="large-ell",
        degenerate_path=coincident,
        notes=("coincident pair: wide-bin equal-time limit",) if coincident else (),
    )


def correlator_large_ell_large_squeeze(
    phi_a: float, phi_b: float, dtheta: float
) -> CorrelatorResult:
    """Joint wide-bin + infinite-squeezing limit: a pure function of angles.

    E = (2/pi) Re arctan(zeta / sqrt(4 - zeta^2)) with
    zeta = e^{i dtheta} (e^{2i phi_a} + e^{-2i phi_b}); |zeta| <= 2. On the
    singular locus zeta^2 = 4 the correlation is maximal and the limiting
    value is exactly +1 (zeta = 2) or -1 (zeta = -2); that exact value is
    returned rather than dividing by zero.
    """
    zeta = large_squeeze_zeta(phi_a, phi_b, dtheta)
    if abs(4.0 - zeta * zeta) < 8e-14:
        value = 1.0 if zeta.real > 0.0 else -1.0
        return CorrelatorResult(
            value=value,
            method="large-squeeze",
            notes=("maximal-correlation locus: exact limiting value",),
        )
    value = (2.0 / math.pi) * principal_arctan(
        zeta / principal_sqrt(4.0 - zeta * zeta)
    ).real
    return CorrelatorResult(value=float(value), method="large-squeeze")


def _equal_time_cells(params: SqueezeParams, ell: float) -> tuple[float, float, int]:
    """Signed cell sum of |psi|^2 over the sign-bin checkerboard.

    |psi|^2, of covariance -Xi^-1 = (1/2) [[c, p], [p, c]] at the coincident
    pair, factorizes exactly in the rotated coordinates u = (q1+q2)/sqrt(2),
    v = (q1-q2)/sqrt(2); the wider axis has decay rate 1/(c + |p|), the
    narrower (c + |p|)/gap, both sums of nonnegative terms. The
    checkerboard sign (-1)^{floor(q1/ell)+floor(q2/ell)} is piecewise
    constant in u at fixed v, so the u-integral is an exact erf segment sum
    over the lattice-line crossings; only the v-direction is integrated
    numerically, across the narrower axis. The u-sum runs over all the v
    nodes of one quadrature pass at once, one row per node, in blocks of at
    most _CELL_BLOCK breakpoints. The reflection q2 -> -q2 swaps
    u and v and flips the checkerboard sign, so where u is the narrower
    axis the same sum runs on the swapped rates and is negated. This stays
    exact for arbitrarily squeezed states, where the density ridge is a
    diagonal sliver of width e^{-r} that a checkerboard-aligned quadrature
    cannot resolve affordably.
    """
    inv = xi_inverse(TransitionSpec(a=params, b=params))
    wide = inv.ch_a + abs(inv.p.real)
    lam_u, lam_v = 1.0 / wide, wide / inv.gap
    sign = -1.0 if inv.p.real < 0.0 else 1.0
    # Lattice lines q = n ell map to u = c n -/+ v with c = sqrt(2) ell.
    c = math.sqrt(2.0) * ell
    su, sv = math.sqrt(lam_u), math.sqrt(lam_v)
    u_max = 13.0 / su
    v_max = 13.0 / sv
    n_lines = int(2.0 * (u_max + v_max) / c) + 2
    if n_lines > 20_000_000:
        raise MaxBandsExceededError(
            f"equal-time segment count {n_lines} exceeds budget "
            "(bin width far below the anti-squeezed state width)"
        )
    # For 0 <= v < v_max the crossings u = c (m + q) - v and u = c m + v,
    # q = floor(2v/c), interleave in increasing order, and every crossing
    # of (-u_max, u_max) has m in this range.
    m = np.arange(math.floor((-u_max - v_max) / c), math.ceil(u_max / c) + 2, dtype=float)
    cm = c * m
    width = 2 * len(m) + 2
    # The sign (-1)^{floor((u+v)/c) + floor((u-v)/c)} is (-1)^q on the
    # segment below the first crossing and flips at each crossing.
    flips = np.where(np.arange(width - 1) % 2 == 0, 1.0, -1.0)
    rows = max(1, _CELL_BLOCK // width)

    def signed_mass(v: np.ndarray) -> np.ndarray:
        # Twice the signed mass of the normalized u-density at each v; a
        # crossing clipped to -/+u_max adds a zero-length segment.
        out = np.empty(len(v))
        for start in range(0, len(v), rows):
            vb = v[start : start + rows, None]
            q = np.floor(2.0 * vb / c)
            edges = np.empty((len(vb), width))
            edges[:, 0] = -u_max
            edges[:, 1:-1:2] = c * (m + q) - vb
            edges[:, 2:-1:2] = cm + vb
            edges[:, -1] = u_max
            np.clip(edges, -u_max, u_max, out=edges)
            er = _sp.erf(su * edges)
            parity = np.where(q[:, 0] % 2.0 == 0.0, 1.0, -1.0)
            out[start : start + rows] = parity * np.sum((er[:, 1:] - er[:, :-1]) * flips, axis=1)
        return out

    def integrand(v: np.ndarray) -> np.ndarray:
        # Even in v, so v >= 0 carries half of the normalized v-density.
        density = (sv / math.sqrt(math.pi)) * np.exp(-lam_v * v * v)
        return density * signed_mass(v)

    # Kinks where breakpoint families collide: v a multiple of c/2.
    kinks = np.arange(0.0, v_max, 0.5 * c)[1:]
    total, err = adaptive_1d(integrand, 0.0, v_max, rel_tol=1e-11, breakpoints=list(kinks))
    return float(sign * total.real), err, n_lines


def correlator_equal_time(params: SqueezeParams, ell: float) -> CorrelatorResult:
    """Equal-time correlator: E = <S^2> for one snapshot, by cell quadrature.

    The squared sign-binned observable gives the checkerboard-signed
    integral of |psi(q1, q2)|^2 over bins of width ell in both arguments.
    """
    if not (math.isfinite(ell) and ell > 0):
        raise ValueError(f"ell must be finite and > 0, got {ell!r}")
    value, err, n_used = _equal_time_cells(params, ell)
    return CorrelatorResult(
        value=value,
        method="equal-time",
        n_bands_used=n_used,
        error_estimate=err,
    )


def _coincident_equal_time(spec: TransitionSpec, ell: float) -> CorrelatorResult:
    """The equal-time path for a coincident (parity-folded) pair, flagged as such."""
    res = correlator_equal_time(spec.a, ell)
    note = "coincident pair: delegated to equal-time path"
    return replace(res, degenerate_path=True, notes=(*res.notes, note))


def _state_width(r: float) -> float:
    """e^r, or inf where it leaves double precision (r > ~709.8)."""
    try:
        return math.exp(r)
    except OverflowError:
        return math.inf


def auto_method(spec: TransitionSpec, ell: float) -> str:
    """The method ``correlator_auto`` runs for the parity-folded pair.

    Coincident pairs take the equal-time path, bins wider than
    100 max e^r the wide-bin closed form, and every other pair ``numeric``.
    Narrow bins take ``numeric`` too: wherever the bound on the terms
    ``small-ell`` omits is under _DUAL_TAIL_TOL, the dual series ``numeric``
    sums is that one term, and next to the maximal-correlation locus, where
    the bound is large, ``numeric`` sums as many terms as it needs. A scale past double precision counts
    as infinite, so the route's own evaluator names the refusal.
    """
    if is_coincident(spec):
        return "equal-time"
    if ell > 100.0 * _state_width(max(spec.a.r, spec.b.r)):
        return "large-ell"
    return "numeric"


def correlator_auto(spec: TransitionSpec, settings: EvaluationSettings) -> CorrelatorResult:
    """Dispatch on coincidence and bin-width regime, by ``auto_method``."""
    spec, parity = _parity_reduce(spec)
    method = auto_method(spec, settings.ell)
    if method == "equal-time":
        res = _coincident_equal_time(spec, settings.ell)
    elif method == "large-ell":
        res = correlator_large_ell(spec)
    else:
        res = correlator_numeric(spec, settings)
    if parity == 1.0:
        return res
    return replace(res, value=parity * res.value)
