"""Correlator evaluators: regimes, symmetries, and cross-route agreement."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy import integrate, special

from kernel_blocks import DETERMINANT_ROOTS
from reference_forms import coeff_A, coeff_B, fock_amplitude, normalization, wide_bin_reference
from squeezebell import cli
from squeezebell.bell import evaluate
from squeezebell.errors import ComplexOverflowError, MaxBandsExceededError
from squeezebell.evaluators import (
    EvaluationSettings,
    band_series_value,
    correlator_auto,
    correlator_equal_time,
    correlator_large_ell,
    correlator_large_ell_large_squeeze,
    correlator_numeric,
    correlator_small_ell,
    dual_series_value,
    numeric_series,
    wide_bin_value,
    _dual_decay,
    _dual_order,
    _parity_fold,
    auto_method,
)
from squeezebell.kernel import XiInverse, is_coincident, xi_inverse
from squeezebell.oracle import correlator_quadrature
from squeezebell.state import SqueezeParams, TransitionSpec

angle_draw = st.floats(min_value=-math.pi, max_value=math.pi)


def _spec(ra, pa, tha, rb, pb, thb=0.0):
    return TransitionSpec(a=SqueezeParams(ra, pa, tha), b=SqueezeParams(rb, pb, thb))


def _coincident(r, phi, th=0.0):
    return _spec(r, phi, th, r, phi)


def _fock_equal_time(r: float, phi: float, ell: float, n_max: int = 60) -> float:
    """Independent equal-time route: Fock expansion with Hermite functions.

    E = sum_{m,n} Re(c_m conj(c_n)) S_{mn}^2 where S_{mn} is the
    checkerboard-signed 1-D overlap of Hermite functions m and n, built
    from the three-term recursion and per-bin Gauss-Legendre panels.
    """
    q_lim = math.sqrt(2.0 * n_max + 1.0) + 8.0
    xg, wg = leggauss(120)
    qs, ws = [], []
    for k in range(math.floor(-q_lim / ell), math.ceil(q_lim / ell)):
        lo, hi = k * ell, (k + 1) * ell
        qs.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * xg)
        ws.append(0.5 * (hi - lo) * wg * (1.0 if k % 2 == 0 else -1.0))
    q = np.concatenate(qs)
    w = np.concatenate(ws)
    psi = np.empty((n_max + 1, q.size))
    psi[0] = math.pi**-0.25 * np.exp(-0.5 * q * q)
    psi[1] = math.sqrt(2.0) * q * psi[0]
    for n in range(1, n_max):
        psi[n + 1] = (
            math.sqrt(2.0 / (n + 1)) * q * psi[n]
            - math.sqrt(n / (n + 1.0)) * psi[n - 1]
        )
    S = psi @ (w[:, None] * psi.T)
    p = SqueezeParams(r, phi)
    c = np.array([fock_amplitude(p, n) for n in range(n_max + 1)])
    weights = np.real(c[:, None] * c[None, :].conjugate())
    return float(np.sum(weights * S * S))


class TestEqualTime:
    @pytest.mark.parametrize(
        "r, phi, ell",
        [(1.0, 0.3, 2.0), (1.0, 0.0, 1.0), (0.6, -0.4, 0.7)],
    )
    def test_against_fock_expansion(self, r, phi, ell):
        direct = correlator_equal_time(SqueezeParams(r, phi), ell).value
        fock = _fock_equal_time(r, phi, ell)
        assert abs(direct - fock) <= 1e-8

    @pytest.mark.parametrize("ell", [0.5, 2.0, 50.0])
    def test_vacuum_uncorrelated(self, ell):
        # The vacuum pair density factorizes evenly, so every bin sum cancels.
        res = correlator_equal_time(SqueezeParams(0.0, 0.0), ell)
        assert abs(res.value) <= 1e-12

    def test_wide_bin_arcsin_limit_moderate(self):
        p = SqueezeParams(1.0, 0.2)
        val = correlator_equal_time(p, 1000.0 * math.e).value
        assert abs(val - wide_bin_value(xi_inverse(_coincident(1.0, 0.2)))) <= 1e-12

    def test_wide_bin_arcsin_limit_deep_squeezing(self):
        p = SqueezeParams(5.0, 0.0)
        val = correlator_equal_time(p, 1000.0 * math.exp(5.0)).value
        limit = (2.0 / math.pi) * math.asin(math.tanh(10.0))
        assert val > 0.98
        assert abs(val - limit) <= 1e-7

    def test_metadata(self):
        res = correlator_equal_time(SqueezeParams(1.2, 0.1), 0.8)
        assert res.method == "equal-time"
        assert res.n_bands_used > 0
        assert 0.0 <= res.error_estimate < 1e-8

    def test_budget_refused_for_pathological_bin(self):
        # Anti-squeezed width e^r with a bin 9 orders smaller needs more
        # segment lines than the budget allows.
        with pytest.raises(MaxBandsExceededError):
            correlator_equal_time(SqueezeParams(5.0, 0.0), 1e-4)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_ell_rejected(self, bad):
        with pytest.raises(ValueError):
            correlator_equal_time(SqueezeParams(1.0), bad)


def _conditional_normal_equal_time(r: float, phi: float, ell: float) -> float:
    """Independent equal-time route from c = cosh 2r, p and det alone.

    |psi|^2 is a centred bivariate normal with Var q1 = Var q2 = c/2 and
    Cov = p/2, for p = cos(2 phi) sinh 2r and det = c^2 - p^2 =
    1 + (sin(2 phi) sinh 2r)^2. q1 is integrated band by band, and the
    checkerboard sum over q2 is closed-form from the conditional normal
    q2 | q1 = x, of mean (p/c) x and variance det / (2c).
    """
    c = math.cosh(2.0 * r)
    p = math.cos(2.0 * phi) * math.sinh(2.0 * r)
    det = 1.0 + (math.sin(2.0 * phi) * math.sinh(2.0 * r)) ** 2
    sigma = math.sqrt(0.5 * c)
    slope = p / c
    s_cond = math.sqrt(0.5 * det / c)

    def inner(x: float) -> float:
        mu = slope * x
        m = np.arange(math.floor((mu - 12.0 * s_cond) / ell) - 1, math.ceil((mu + 12.0 * s_cond) / ell) + 2)
        cells = np.diff(special.ndtr((m * ell - mu) / s_cond))
        return float(np.sum(np.where(m[:-1] % 2 == 0, 1.0, -1.0) * cells))

    def weighted(x: float) -> float:
        return math.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi)) * inner(x)

    # inner() steps, over a width s_cond / |slope| in x, where the
    # conditional mean crosses a lattice line; each step gets breakpoints
    # at a ladder of widths around it, also when it lies just past a band.
    width = s_cond / abs(slope) if slope != 0.0 else math.inf
    ladder = np.array([-16.0, -8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0, 16.0])
    total = 0.0
    reach = 12.0 * sigma
    for n in range(math.floor(-reach / ell), math.ceil(reach / ell)):
        lo, hi = n * ell, (n + 1) * ell
        points = []
        if math.isfinite(width):
            k_lo, k_hi = sorted((slope * (lo - 16.0 * width) / ell, slope * (hi + 16.0 * width) / ell))
            for k in range(math.ceil(k_lo), math.floor(k_hi) + 1):
                points.extend(x for x in k * ell / slope + width * ladder if lo < x < hi)
        val, _ = integrate.quad(
            weighted, lo, hi, points=sorted(points) or None, limit=400, epsabs=1e-15, epsrel=1e-13
        )
        total += (1.0 if n % 2 == 0 else -1.0) * val
    return total


class TestDeepSqueezeCoincident:
    """Coincident pairs read the kernel's closed form at every squeezing."""

    @pytest.mark.parametrize("method", ["auto", "equal-time", "large-ell"])
    @pytest.mark.parametrize("r", [6.0, 8.0, 9.0, 10.0, 15.0, 20.0])
    def test_wide_bin_limit(self, method, r):
        mode = SqueezeParams(r, 0.0)
        res = evaluate(TransitionSpec(a=mode, b=mode), method, EvaluationSettings(ell=1000.0 * math.exp(r)))
        assert abs(res.value - (2.0 / math.pi) * math.atan(math.sinh(2.0 * r))) <= 1e-12

    @pytest.mark.parametrize(
        "r, phi, ell", [(5.0, 0.0, 10.0), (5.0, 0.0, 100.0), (0.0, 0.0, 2.0), (1e-6, 0.0, 2.66)]
    )
    def test_against_conditional_normal(self, r, phi, ell):
        # At r = 0 and 1e-6, E is 0 or about 1e-6, and the absolute
        # tolerance of the cell quadrature decides when it stops.
        value = correlator_equal_time(SqueezeParams(r, phi), ell).value
        assert abs(value - _conditional_normal_equal_time(r, phi, ell)) <= 1e-12

    @pytest.mark.parametrize("r, phi, ell", [(5.0, 0.0, 100.0), (1.3, 0.4, 1.1), (2.2, -0.3, 3.0)])
    def test_quarter_turn_negates(self, r, phi, ell):
        # q2 -> -q2 maps the state at phi onto the state at phi + pi/2 and
        # flips the checkerboard sign.
        base = correlator_equal_time(SqueezeParams(r, phi), ell).value
        turned = correlator_equal_time(SqueezeParams(r, phi + math.pi / 2.0), ell).value
        assert abs(turned + base) <= 1e-13

    @pytest.mark.parametrize("phi", [0.0, 0.3])
    def test_beyond_double_range_refused(self, phi, capsys):
        mode = SqueezeParams(400.0, phi)
        spec = TransitionSpec(a=mode, b=mode)
        with pytest.raises(ComplexOverflowError, match="leaves double precision"):
            correlator_equal_time(mode, 1.0)
        with pytest.raises(ComplexOverflowError, match="leaves double precision"):
            correlator_large_ell(spec)
        for method in ("auto", "large-ell"):
            argv = ["correlator", "--ra", "400", f"--phia={phi}", "--ell", "1", "--method", method]
            assert cli.run(argv) == 2
            assert "ComplexOverflowError" in capsys.readouterr().err

    @given(st.floats(min_value=0.0, max_value=3.0), angle_draw)
    def test_rates_match_wavefunction_coefficients(self, r, phi):
        # Where the tanh form is accurate, the decay rates 1/(c + p) and
        # 1/(c - p) that the equal-time path reads from the coincident
        # pair's Xi^-1 are its exponent in the rotated coordinates, and
        # their product sets the normalization.
        a, b = coeff_A(r, phi).real, coeff_B(r, phi).real
        inv = xi_inverse(_coincident(r, phi))
        wide = inv.ch_a + abs(inv.p.real)
        lam_u, lam_v = 1.0 / wide, wide / inv.gap
        if inv.p.real < 0.0:
            lam_u, lam_v = lam_v, lam_u
        assert abs(lam_u + (a + b)) <= 1e-13 * (abs(a) + abs(b))
        assert abs(lam_v + (a - b)) <= 1e-13 * (abs(a) + abs(b))
        n2 = abs(normalization(SqueezeParams(r, phi))) ** 2
        assert math.sqrt(lam_u * lam_v) / math.pi == pytest.approx(n2, rel=1e-13)


class TestCoincidentForm:
    """A coincident pair's Xi^-1 is the snapshot's density, so the routes
    that read the form agree with the equal-time path there."""

    INPUTS = [(0.5, 0.3, 1.0), (1.0, 0.0, 2.0), (2.0, 0.2, 3.0), (3.0, 0.0, 5.0), (5.0, 0.0, 10.0)]

    @pytest.mark.parametrize("r, phi, ell", INPUTS)
    def test_dual_series_is_equal_time(self, r, phi, ell):
        value = dual_series_value(xi_inverse(_coincident(r, phi)), ell)[0]
        assert abs(value - correlator_equal_time(SqueezeParams(r, phi), ell).value) <= 1e-13

    @pytest.mark.parametrize("r, phi, ell", [*INPUTS[:3], (1.5, -0.4, 0.8)])
    def test_oracle_is_equal_time(self, r, phi, ell):
        value = correlator_quadrature(_coincident(r, phi), ell)
        assert abs(value - correlator_equal_time(SqueezeParams(r, phi), ell).value) <= 1e-12

    @pytest.mark.parametrize("r, phi, ell", INPUTS)
    def test_small_ell_within_its_bound(self, r, phi, ell):
        res = correlator_small_ell(_coincident(r, phi), ell)
        equal = correlator_equal_time(SqueezeParams(r, phi), ell).value
        assert abs(res.value - equal) <= res.error_estimate


class TestNumeric:
    def test_exchange_symmetry(self):
        spec = _spec(1.0, 0.3, 0.8, 0.7, -0.2)
        st_ = EvaluationSettings(ell=1.0)
        e_ab = correlator_numeric(spec, st_).value
        e_ba = correlator_numeric(spec.swapped(), st_).value
        assert abs(e_ab - e_ba) <= 1e-12 * max(1.0, abs(e_ab))

    def test_half_turn_parity(self):
        # The fold makes the two computations share a kernel up to the one
        # ulp lost in representing dth + pi, hence near-exact negation.
        st_ = EvaluationSettings(ell=0.9)
        base = correlator_numeric(_spec(1.1, 0.25, 0.6, 0.9, -0.3), st_).value
        flipped = correlator_numeric(
            _spec(1.1, 0.25, 0.6 + math.pi, 0.9, -0.3), st_
        ).value
        assert abs(flipped + base) <= 1e-12

    def test_depends_only_on_angle_difference(self):
        st_ = EvaluationSettings(ell=1.2)
        r0 = correlator_numeric(_spec(1.3, 0.2, 0.75, 0.8, -0.1, 0.25), st_)
        r1 = correlator_numeric(_spec(1.3, 0.2, 0.5, 0.8, -0.1, 0.0), st_)
        assert r0.value == r1.value

    def test_coincident_pair_takes_equal_time(self):
        # Bit for bit what ``auto`` returns, the equal-time path, and the
        # half-turn image negated.
        for r, phi, ell in [(1.0, 0.2, 1.0), (5.0, 0.0, 100.0), (0.0, 0.7, 2.0)]:
            st_ = EvaluationSettings(ell=ell)
            res = correlator_numeric(_coincident(r, phi), st_)
            assert res == correlator_auto(_coincident(r, phi), st_)
            assert (res.method, res.degenerate_path) == ("equal-time", True)
            flip = correlator_numeric(_coincident(r, phi, math.pi), st_)
            assert flip == replace(res, value=-res.value)
            assert numeric_series(_coincident(r, phi), ell) == "equal-time"

    def test_determinant_roots_evaluated_in_place(self):
        # Where a factor of the kernel determinant vanishes but the pair is
        # not coincident, the band series at the exact angle difference is
        # the midpoint of the direct cell quadrature at dtheta -+ 1e-6, with
        # no note: nothing is refused or shifted there.
        for ra, pa, rb, pb, ell, dth in DETERMINANT_ROOTS:
            res = correlator_numeric(_spec(ra, pa, dth, rb, pb), EvaluationSettings(ell=ell))
            assert res.notes == () and not res.degenerate_path
            lo, hi = (
                correlator_quadrature(_spec(ra, pa, dth + h, rb, pb), ell) for h in (-1e-6, 1e-6)
            )
            assert abs(res.value - 0.5 * (lo + hi)) <= 1e-11

    def test_band_cap_enforced(self):
        # A bin this narrow sends ``numeric`` to the dual series, so the
        # band cap is checked on the band series itself.
        spec = _spec(2.0, 0.3, 0.7, 2.0, -0.2)
        with pytest.raises(MaxBandsExceededError):
            band_series_value(xi_inverse(spec), EvaluationSettings(ell=0.05, max_bands=2))

    # (spec, ell) -> (repr of value, n_bands_used, series_terms_used, Xi^-1,
    # repr of the band series on it). The first value was recorded when Xi
    # came from the elimination chain. The band series on the closed-form
    # Xi^-1 differs from it by rounding, so it stays within 1e-13 with the
    # same bands and terms; ``numeric`` takes the dual series at every one
    # of these inputs, which must land within 1e-13 of the same values.
    # Xi^-1 holds (ch_a, ch_b, p, gap) of each spec, and the last repr is
    # the band series on that Xi^-1, recorded when the series began to read
    # its Schur complement and prefactor off Xi^-1; it must match to the bit.
    PINNED = [
        ((5.0, 0.0, 0.3, 5.0, 0.0), 100.0, ("-0.025664542870301968", 18, 32, (
            11013.232920103324, 11013.232920103324,
            10521.343228441845 + 3254.6328551418055j, 1.0), "-0.025664542870302")),
        ((5.0, 0.0, 1.0, 5.0, 0.0), 100.0, ("-0.009217729118904738", 18, 32, (
            11013.232920103324, 11013.232920103324,
            5950.475117265045 + 9267.315912995366j, 1.0), "-0.00921772911890469")),
        ((5.0, 0.0, -1.2, 5.0, 0.0), 100.0, ("0.0085904355074124", 18, 32, (
            11013.232920103324, 11013.232920103324,
            3990.7303340062026 - 10264.763502082758j, 1.0), "0.008590435507412371")),
        ((1.2, 0.1, 0.3, 0.9, 0.0), 2.0, ("-0.13534214463364191", 16, 32, (
            5.556947166965507, 3.1074731763172667,
            3.674030097209448 + 1.586361838026049j, 1.2530232272112907), "-0.13534214463364433")),
        ((1.5, -0.2, 0.5, 1.5, 0.2), 3.2, ("0.6716729685241167", 16, 32, (
            10.067661995777765, 10.067661995777765,
            9.967827280007153 + 1.0001186815439258j, 1.0), "0.6716729685241165")),
    ]

    @pytest.mark.parametrize("args, ell, pinned", PINNED)
    def test_band_series_bit_identical(self, args, ell, pinned):
        value, n_bands, n_terms, entries, exact = pinned
        settings = EvaluationSettings(ell=ell)
        got, got_bands, got_terms, _ = band_series_value(XiInverse(*entries), settings)
        assert (repr(got), got_bands, got_terms) == (exact, n_bands, n_terms)
        band, got_bands, got_terms, _ = band_series_value(xi_inverse(_spec(*args)), settings)
        assert abs(band - float(value)) <= 1e-13 * abs(float(value))
        assert (got_bands, got_terms) == (n_bands, n_terms)
        res = correlator_numeric(_spec(*args), settings)
        assert res.series == "dual"
        assert abs(res.value - float(value)) <= 1e-13 * abs(float(value))

    def test_overflowing_series_raised(self):
        # Every form ``xi_inverse`` returns keeps each scaled erfc term
        # bounded, but a bin this wide squares past double precision within
        # the first band, and the overflow guard names that.
        inv = xi_inverse(_spec(1.0, 0.3, 0.5, 0.7, -0.2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ComplexOverflowError, match="overflows double precision"):
                band_series_value(inv, EvaluationSettings(ell=1e200))

    def test_metadata(self):
        # A bin wider than the state takes the band series.
        res = correlator_numeric(_spec(1.0, 0.3, 0.8, 0.7, -0.2), EvaluationSettings(ell=200.0))
        assert (res.method, res.series) == ("numeric", "band")
        assert res.n_bands_used >= 2 and res.n_bands_used % 2 == 0
        assert res.series_terms_used >= 16
        assert res.error_estimate < 1e-6

    def test_dual_metadata(self):
        res = correlator_numeric(_spec(1.0, 0.3, 0.8, 0.7, -0.2), EvaluationSettings(ell=1.0))
        assert (res.method, res.series, res.n_bands_used) == ("numeric", "dual", 0)
        assert res.series_terms_used >= 1
        assert 0.0 <= res.error_estimate <= 1e-16


class TestMaximalCorrelationLocus:
    """r_a = r_b, phi_b = -phi_a, dtheta = phi_b - phi_a: zeta^2 = 4.

    There Xi^-1 is, field by field, the coincident phi = 0 form, and Xi's
    entries grow like e^{2r} while its Schur complements shrink like
    e^{-2r}. Formed from the entries, they cancelled: the band series gave
    1.01097309569 at r = 9 and refused r >= 10 as non-convergent.
    """

    @pytest.mark.parametrize("r", [8.0, 9.0, 10.0, 12.0, 15.0])
    def test_equal_time_value_at_bin_width_e_r(self, r):
        spec = _spec(r, 0.3, -0.6, r, -0.3)
        assert xi_inverse(spec) == xi_inverse(_coincident(r, 0.0))
        ell = math.exp(r)
        reference = correlator_equal_time(SqueezeParams(r, 0.0), ell).value
        settings = EvaluationSettings(ell=ell)
        for res in (correlator_auto(spec, settings), correlator_numeric(spec, settings)):
            assert (res.method, res.series) == ("numeric", "band")
            assert abs(res.value) <= 1.0
            assert abs(res.value - reference) <= 1e-7


class TestSmallEll:
    def test_vacuum_exactly_zero(self):
        # Vacuum has no coupling entry, so the two exponents coincide and
        # the narrow-bin value is an exact zero, not a small number.
        spec = _spec(0.0, 0.0, 0.7, 0.0, 0.0)
        assert correlator_small_ell(spec, 0.005).value == 0.0

    def test_vanishes_as_ell_to_zero(self):
        spec = _spec(1.2, 0.3, 0.6, 0.8, -0.2)
        assert correlator_small_ell(spec, 1e-3).value == 0.0

    def test_matches_numeric_near_correlation_locus(self):
        # Narrow bins suppress the correlator except exponentially close to
        # the maximal-correlation locus; compare the routes where E is O(1).
        spec = _spec(2.5, 2e-5, 0.0, 2.5, -2e-5)
        a = correlator_small_ell(spec, 0.12).value
        b = correlator_numeric(spec, EvaluationSettings(ell=0.12)).value
        assert abs(a) > 0.01
        assert abs(a - b) <= 1e-6

    def test_narrow_bin_closed_form_zero_coupling(self):
        inv = XiInverse(ch_a=1.0, ch_b=1.0, p=0j, gap=1.0)
        assert dual_series_value(inv, 0.5, 1)[0] == 0.0

    def test_is_the_one_term_dual(self):
        # The (1, 1) term alone, with the bound on all the others.
        spec = _spec(1.2, 0.3, 0.6, 0.8, -0.2)
        res = correlator_small_ell(spec, 2.5)
        assert (res.series, res.series_terms_used) == ("dual", 1)
        full = correlator_numeric(spec, EvaluationSettings(ell=2.5))
        assert full.series == "dual" and full.series_terms_used > 1
        assert 0.0 < abs(res.value - full.value) <= res.error_estimate

    def test_invalid_ell_rejected(self):
        with pytest.raises(ValueError):
            correlator_small_ell(_spec(1.0, 0.1, 0.4, 1.0, 0.0), -2.0)


class TestLargeEll:
    def test_matches_direct_quadrature(self):
        spec = _spec(1.0, 0.3, 0.4, 1.0, -0.2)
        a = correlator_large_ell(spec).value
        b = correlator_quadrature(spec, 100.0 * math.e)
        assert abs(a - b) <= 1e-8

    def test_wide_bin_closed_form(self):
        # p = -1/2 on the unit diagonal: det = 3/4 and
        # arctan(-1/2 / sqrt(3)/2) = -pi/6.
        inv = XiInverse(ch_a=1.0, ch_b=1.0, p=-0.5 + 0j, gap=0.75)
        assert wide_bin_value(inv) == pytest.approx(-1.0 / 3.0, abs=1e-14)
        inv0 = XiInverse(ch_a=1.0, ch_b=1.0, p=0j, gap=1.0)
        assert wide_bin_value(inv0) == 0.0

    def test_coincident_delegates_to_arcsin_limit(self):
        # The snapshot's quadrant masses give (2/pi) arcsin(p / c).
        res = correlator_large_ell(_coincident(1.4, 0.3))
        assert res.degenerate_path
        arcsin = (2.0 / math.pi) * math.asin(math.cos(0.6) * math.tanh(2.8))
        assert res.value == pytest.approx(arcsin, abs=1e-14)

    @pytest.mark.parametrize("seed, r_lo, r_hi", [(0, 4.0, 5.0), (1, 8.0, 10.0), (2, 15.0, 20.0)])
    def test_near_loci_matches_extended_precision(self, seed, r_lo, r_hi):
        # Within 1e-6 ... 1e-2 of dtheta = 0 and dtheta = +-(phi_a - phi_b),
        # against the same closed form in 60 digits on the angle sums the
        # kernel forms.
        rng = np.random.default_rng(seed)
        for _ in range(400):
            ra, rb = rng.uniform(r_lo, r_hi, size=2)
            pa, pb = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=2)
            locus = (0.0, pa - pb, pb - pa)[rng.integers(3)]
            dth = locus + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, -2.0)
            got = correlator_large_ell(_spec(ra, pa, dth, rb, pb)).value
            delta, sign = _parity_fold(dth)
            ref = sign * wide_bin_reference(ra, rb, pa + pb, delta + pa - pb, 60)
            assert abs(got - ref) <= 2e-15, (ra, pa, rb, pb, dth)

    def test_approaches_infinite_squeezing_form(self):
        spec = _spec(10.0, 0.3, 0.4, 10.0, -0.1)
        a = correlator_large_ell(spec).value
        b = correlator_large_ell_large_squeeze(0.3, -0.1, 0.4).value
        assert abs(a - b) <= 1e-7


class TestLargeSqueeze:
    def test_locus_values_exact(self):
        plus = correlator_large_ell_large_squeeze(0.0, 0.0, 0.0)
        assert plus.value == 1.0
        assert any("maximal-correlation locus" in n for n in plus.notes)
        minus = correlator_large_ell_large_squeeze(math.pi / 2.0, math.pi / 2.0, 0.0)
        assert minus.value == -1.0

    def test_orthogonal_phases_uncorrelated(self):
        res = correlator_large_ell_large_squeeze(math.pi / 4.0, math.pi / 4.0, 0.0)
        assert abs(res.value) <= 1e-15

    @given(
        st.floats(min_value=-0.45, max_value=0.45),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_affine_law_along_aligned_line(self, phi_a, dth):
        # With phi_b = phi_a + dtheta the closed form is exactly affine in
        # the phase sum s = 2 phi_a + dtheta for |s| < pi.
        s = 2.0 * phi_a + dth
        assume(abs(s) < math.pi - 1e-6 and abs(s) > 1e-7)
        val = correlator_large_ell_large_squeeze(phi_a, phi_a + dth, dth).value
        assert val == pytest.approx(1.0 - (2.0 / math.pi) * abs(s), abs=1e-9)

    def test_square_root_cusp_at_locus(self):
        # Along phi_b = -phi_a the deviation from maximal correlation obeys
        # 1 - E = (2 sqrt(2)/pi) sqrt(phi_a) to leading order.
        d1 = 1.0 - correlator_large_ell_large_squeeze(1e-4, -1e-4, 0.0).value
        d2 = 1.0 - correlator_large_ell_large_squeeze(4e-4, -4e-4, 0.0).value
        assert d2 / d1 == pytest.approx(2.0, rel=0.02)
        amp = d1 / math.sqrt(1e-4)
        assert amp == pytest.approx(2.0 * math.sqrt(2.0) / math.pi, rel=0.01)

    def test_quarter_turn_flips_sign(self):
        base = correlator_large_ell_large_squeeze(0.2, -0.3, 0.5).value
        flipped = correlator_large_ell_large_squeeze(
            0.2 + math.pi / 2.0, -0.3 + math.pi / 2.0, 0.5
        ).value
        assert abs(flipped + base) <= 1e-12

    @given(angle_draw, angle_draw, angle_draw)
    def test_bounded_by_one(self, phi_a, phi_b, dth):
        val = correlator_large_ell_large_squeeze(phi_a, phi_b, dth).value
        assert abs(val) <= 1.0 + 1e-12


def _route_before(spec, ell):
    """``auto_method``'s rule with e^r in floating point; it overflows
    past r ~ 709.8."""
    if is_coincident(spec):
        return "equal-time"
    if ell > 100.0 * math.exp(max(spec.a.r, spec.b.r)):
        return "large-ell"
    return "numeric"


class TestAutoDispatch:
    def test_route_unchanged_where_the_scale_is_finite(self):
        # Seeded draws across r in [0, 709], with bins around the wide-bin
        # threshold and exactly on it, narrow bins around 0.01 e^r, and a
        # share of coincident pairs.
        rng = np.random.default_rng(11)
        for _ in range(3000):
            top = (5.0, 20.0, 709.0)[rng.integers(3)]
            ra, rb = rng.uniform(0.0, top, size=2)
            pa, pb, dth = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=3)
            if rng.random() < 0.1:
                rb, pb, dth = ra, pa, 0.0
            r = (min(ra, rb), max(ra, rb))[rng.integers(2)]
            factor = (0.01, 100.0)[rng.integers(2)]
            ell = factor * math.exp(r)
            ell = (ell, math.nextafter(ell, 0.0), math.nextafter(ell, math.inf))[rng.integers(3)]
            ell *= 10.0 ** rng.uniform(-3.0, 3.0) if rng.random() < 0.5 else 1.0
            spec = _spec(ra, pa, dth, rb, pb)
            assert auto_method(spec, ell) == _route_before(spec, ell)

    @pytest.mark.parametrize(
        "ra, rb, ell, route",
        [(800.0, 800.0, 1.0, "numeric"), (800.0, 1.0, 1.0, "numeric"), (1.0, 800.0, 1e300, "numeric")],
    )
    def test_scale_past_double_range_routes_to_a_typed_refusal(self, ra, rb, ell, route):
        # e^r leaves double precision past r ~ 709.8. The route reads it as
        # an infinite scale, and the route's evaluator names the cause.
        spec = _spec(ra, 0.0, 0.5, rb, 0.0)
        with pytest.raises(OverflowError):
            _route_before(spec, ell)
        assert auto_method(spec, ell) == route
        with pytest.raises(ComplexOverflowError, match="leaves double precision"):
            correlator_auto(spec, EvaluationSettings(ell=ell))

    def test_regime_selection(self):
        spec = _spec(5.0, -0.2, 0.5, 5.0, 0.3)
        picks = {
            0.5: "numeric",
            100.0: "numeric",
            20000.0: "large-ell",
        }
        for ell, method in picks.items():
            assert correlator_auto(spec, EvaluationSettings(ell=ell)).method == method

    def test_narrow_bins_match_small_ell_where_its_bound_is_tight(self):
        # Wherever the bound on the terms ``small-ell`` omits is at most
        # 1e-16, ``auto``, which takes ``numeric`` there, returns the same
        # value within 2e-16.
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 300:
            ra, rb = rng.uniform(0.0, 20.0, size=2)
            pa, pb, dth = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=3)
            ell = math.exp(min(ra, rb)) * 10.0 ** rng.uniform(-4.0, -2.0)
            spec = _spec(ra, pa, dth, rb, pb)
            small = correlator_small_ell(spec, ell)
            if small.error_estimate > 1e-16:
                continue
            res = correlator_auto(spec, EvaluationSettings(ell=ell))
            assert (res.method, res.series) == ("numeric", "dual")
            assert abs(res.value - small.value) <= 2e-16
            checked += 1

    def test_narrow_bin_next_to_the_locus(self):
        # Next to the maximal-correlation locus the one-term asymptote is
        # 3e-3 off (0.555684953239, bound 0.19); ``auto`` sums the dual
        # series. The direct cell quadrature (``oracle``, 17 s) gives
        # 0.5586998003321, and 0.5586998003341 with its normalization
        # formed from Xi's entries, as it once was.
        spec = _spec(3.0, 0.3, -0.6, 3.0, -0.3)
        res = correlator_auto(spec, EvaluationSettings(ell=0.18))
        assert (res.method, res.series) == ("numeric", "dual")
        assert abs(res.value - 0.5586998003341) <= 1e-11

    def test_coincident_routes_to_equal_time(self):
        spec = _spec(1.1, 0.4, 0.0, 1.1, 0.4)
        res = correlator_auto(spec, EvaluationSettings(ell=1.3))
        assert res.method == "equal-time"
        assert res.degenerate_path
        assert any("coincident" in n for n in res.notes)

    def test_coincident_half_turn_negates(self):
        st_ = EvaluationSettings(ell=1.3)
        base = correlator_auto(_spec(1.1, 0.4, 0.0, 1.1, 0.4), st_)
        flip = correlator_auto(_spec(1.1, 0.4, math.pi, 1.1, 0.4), st_)
        assert flip.method == "equal-time"
        assert flip.value == -base.value

    def test_trace_rises_to_wide_bin_plateau(self):
        spec = _spec(5.0, -0.2, 0.5, 5.0, 0.3)
        values = [
            correlator_auto(spec, EvaluationSettings(ell=float(ell))).value
            for ell in np.geomspace(1.0, 1e5, 11)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        plateau = correlator_large_ell(spec).value
        assert values[-1] == pytest.approx(plateau, abs=1e-9)
        assert values[0] == pytest.approx(0.0, abs=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=4.0),
        angle_draw,
        st.floats(min_value=0.0, max_value=4.0),
        angle_draw,
        angle_draw,
        st.floats(min_value=math.log(0.05), max_value=math.log(50.0)),
    )
    def test_value_in_physical_range(self, ra, pa, rb, pb, dth, log_ell):
        spec = _spec(ra, pa, dth, rb, pb)
        res = correlator_auto(spec, EvaluationSettings(ell=math.exp(log_ell)))
        assert abs(res.value) <= 1.0 + 1e-9


def _dual_draws(seed: int, count: int):
    """Seeded keys where both series converge: the band series within its
    default band cap, the dual within 2000 odd terms per axis."""
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        ra, rb = rng.uniform(0.0, 5.0, size=2)
        pa, pb = rng.uniform(-math.pi / 2, math.pi / 2, size=2)
        dth = rng.uniform(-math.pi / 2, math.pi / 2)
        ell = math.exp(max(ra, rb)) * math.exp(rng.uniform(math.log(0.05), math.log(5.0)))
        spec = _spec(ra, pa, dth, rb, pb)
        inv = xi_inverse(spec)
        if _dual_order(_dual_decay(inv, ell), 2000) is None:
            continue
        try:
            band = band_series_value(xi_inverse(spec), EvaluationSettings(ell=ell))[0]
        except MaxBandsExceededError:
            continue
        draws.append((spec, inv, ell, band))
    return draws


@pytest.fixture(scope="module")
def dual_draws():
    return _dual_draws(8, 30)


class TestDualSeries:
    """The Poisson-dual series against the band series and its own bound.

    Its agreement with the oracle is held by acceptance criterion 7.
    """

    @pytest.mark.parametrize("index", range(30))
    def test_agrees_with_band_series(self, dual_draws, index):
        spec, inv, ell, band = dual_draws[index]
        value, n_odd, bound = dual_series_value(inv, ell)
        assert abs(value - band) <= 1e-12
        assert bound <= 1e-16 and n_odd <= 2000

    @pytest.mark.parametrize("index", range(30))
    def test_bound_covers_truncation(self, dual_draws, index):
        spec, inv, ell, band = dual_draws[index]
        full, _, full_bound = dual_series_value(inv, ell)
        for n_odd in (1, 2, 3, 5):
            value, _, bound = dual_series_value(inv, ell, n_odd)
            assert abs(value - full) <= bound + full_bound
            # Where the bound is well above the two series' agreement, it
            # also covers the distance to the band series.
            if bound >= 1e-11:
                assert abs(value - band) <= bound

    @pytest.mark.parametrize("dth", [0.5, -1.2, 1.0, 0.75])
    def test_half_turn_negates_to_the_bit(self, dth):
        # Each dth + pi folds back to exactly dth.
        spec = _spec(5.0, 0.0, dth, 5.0, 0.0)
        turned = _spec(5.0, 0.0, dth + math.pi, 5.0, 0.0)
        assert _parity_fold(dth + math.pi) == (dth, -1.0)
        st_ = EvaluationSettings(ell=100.0)
        base = correlator_numeric(spec, st_)
        assert base.series == "dual"
        assert correlator_numeric(turned, st_).value == -base.value
        # The sum is odd in p term by term.
        inv = xi_inverse(spec)
        flipped = XiInverse(inv.ch_a, inv.ch_b, -inv.p, inv.gap)
        assert dual_series_value(flipped, 100.0)[0] == -dual_series_value(inv, 100.0)[0]

    def test_deep_squeeze_narrow_bin_returns_at_once(self):
        # At r = 12 the band series needs about 2e4 bands of width 100; it
        # ran for minutes before refusing with MaxBandsExceededError. The
        # dual needs a handful of terms and equals the one-term form.
        for pa, pb in ((-0.2, 0.2), (0.2, -0.2)):
            spec = _spec(12.0, pa, 0.5, 12.0, pb)
            res = correlator_numeric(spec, EvaluationSettings(ell=100.0))
            assert (res.series, res.n_bands_used) == ("dual", 0)
            assert res.series_terms_used <= 5 and res.error_estimate <= 1e-16
            assert res.value == correlator_small_ell(spec, 100.0).value

    def test_mixed_pair_narrow_bin_within_its_bound(self, capsys):
        # auto used to send this to the band series, which refused after
        # 4096 bands. Every term of the dual underflows; the truth lies
        # within the reported bound of the returned zero, and so do the
        # truncations that keep the leading terms.
        ell = 0.0820849986238988
        spec = _spec(0.0, 0.0, 0.0, 4.0, 0.0)
        res = correlator_auto(spec, EvaluationSettings(ell=ell))
        assert (res.method, res.series, res.value) == ("numeric", "dual", 0.0)
        assert res.error_estimate <= 1e-16
        for n_odd in (1, 2, 3):
            assert abs(dual_series_value(xi_inverse(spec), ell, n_odd)[0]) <= res.error_estimate
        argv = ["correlator", "--ra", "0", "--phia", "0", "--rb", "4", "--phib", "0",
                "--dtheta", "0", "--ell", repr(ell)]
        assert cli.run(argv) == 0
        assert capsys.readouterr().out == "0\n"

    @pytest.mark.parametrize("r, phi", [(10.0, 3e-4), (12.0, 3e-5)])
    def test_deep_squeeze_near_locus_matches_extended_precision(self, r, phi):
        # Next to the maximal-correlation locus k^2 ch_b + l^2 ch_a - 2 k l Re p
        # cancels; the same truncated sum in 60 digits bounds what that costs.
        import mpmath as mp

        ell = 100.0 if r == 10.0 else 200.0
        spec = _spec(r, phi, 0.0, r, -phi)
        value, n_odd, _ = dual_series_value(xi_inverse(spec), ell)
        assert 10 <= n_odd <= 80
        with mp.workdps(60):
            ra, pa, pb, ell_ = (mp.mpf(x) for x in (r, phi, -phi, ell))
            p = mp.exp(1j * (pa - pb)) * mp.cos(pa + pb) * mp.sinh(2 * ra)
            ch, kappa = mp.cosh(2 * ra), mp.pi**2 / (4 * ell_**2)
            total = mp.mpf(0)
            for k in range(1, 2 * n_odd, 2):
                for l in range(1, 2 * n_odd, 2):
                    q = (k * k + l * l) * ch
                    total += (mp.exp(-kappa * (q - 2 * k * l * p)) - mp.exp(-kappa * (q + 2 * k * l * p))).real / (k * l)
            reference = float(8 / mp.pi**2 * total)
        assert abs(value - reference) <= 1e-13

    @pytest.mark.parametrize("ell, series", [(1.0, "dual"), (100.0, "dual"), (1e4, "band")])
    def test_numeric_takes_the_cheaper_series(self, ell, series):
        spec = _spec(5.0, -0.2, 0.5, 5.0, 0.2)
        assert numeric_series(spec, ell) == series
        assert correlator_numeric(spec, EvaluationSettings(ell=ell)).series == series
