"""Independent reference routes: 12x12 system, cell quadrature, theta series."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from kernel_blocks import kernel_determinant, xi_determinant
from reference_forms import quadrant_gaussian
import squeezebell.oracle as oracle_mod
from squeezebell.complexfn import principal_sqrt
from squeezebell.errors import BudgetExceededError, DivergentSeriesError
from squeezebell.evaluators import (
    EvaluationSettings,
    band_series_value,
    correlator_numeric,
    correlator_small_ell,
    wide_bin_value,
)
from squeezebell.kernel import xi_inverse, xi_matrix
from squeezebell.oracle import build_M, correlator_quadrature, theta_partial
from squeezebell.state import SqueezeParams, TransitionSpec


def _spec(ra, pa, tha, rb, pb, thb=0.0):
    return TransitionSpec(a=SqueezeParams(ra, pa, tha), b=SqueezeParams(rb, pb, thb))


class TestBigSystem:
    def test_matrix_symmetric(self):
        M = build_M(_spec(1.1, 0.3, 0.7, 0.8, -0.4, 0.2)).matrix
        assert M.shape == (12, 12)
        assert np.max(np.abs(M - M.T)) == 0.0

    def test_common_rotation_invariance(self):
        d0 = build_M(_spec(1.1, 0.3, 0.7, 0.8, -0.4, 0.2)).determinant()
        d1 = build_M(_spec(1.1, 0.3, 0.7 + 1.234, 0.8, -0.4, 0.2 + 1.234)).determinant()
        assert abs(d0 - d1) <= 1e-12 * abs(d0)

    @given(
        st.floats(min_value=0.0, max_value=4.0),
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.floats(min_value=0.0, max_value=4.0),
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    def test_determinant_matches_closed_form(self, ra, pa, rb, pb, dth):
        spec = _spec(ra, pa, dth, rb, pb)
        f_m = kernel_determinant(spec)
        det = build_M(spec).determinant()
        assert abs(det - f_m) <= 1e-10 * max(1.0, abs(f_m))


class TestCellQuadrature:
    def test_matches_band_series(self):
        spec = _spec(1.0, 0.3, 0.8, 0.7, -0.2)
        a = correlator_quadrature(spec, 1.0)
        b = correlator_numeric(spec, EvaluationSettings(ell=1.0)).value
        assert abs(a - b) <= 1e-8

    def test_physical_range(self):
        for ell in (0.7, 3.0):
            v = correlator_quadrature(_spec(0.8, 0.2, 0.5, 1.1, -0.3), ell)
            assert abs(v) <= 1.0 + 1e-9

    def test_window_floor_enforced(self):
        spec = _spec(1.0, 0.3, 0.8, 0.7, -0.2)
        with pytest.raises(ValueError):
            correlator_quadrature(spec, 1.0, n_max=1)

    def test_invalid_ell_rejected(self):
        with pytest.raises(ValueError):
            correlator_quadrature(_spec(1.0, 0.3, 0.8, 0.7, -0.2), 0.0)

    def test_cell_budget_refusal(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "CELL_BUDGET", 10)
        with pytest.raises(BudgetExceededError):
            correlator_quadrature(_spec(1.0, 0.3, 0.8, 0.7, -0.2), 1.0)


class TestWideBinQuadrantComposition:
    def test_signed_quadrant_sum_equals_closed_form(self):
        # The ell -> infinity limit is the checkerboard reduced to four
        # quadrants; composing quadrant Gaussians must reproduce the
        # arctan closed form, which reads Xi^-1, exactly.
        spec = _spec(1.0, 0.3, 0.4, 0.8, -0.2)
        xi = xi_matrix(spec)
        a, b, c = -0.5 * xi.xi11, -0.5 * xi.xi12, -0.5 * xi.xi22
        comp = (
            quadrant_gaussian(a, b, c, "PP")
            + quadrant_gaussian(a, b, c, "MM")
            - quadrant_gaussian(a, b, c, "MP")
            - quadrant_gaussian(a, b, c, "PM")
        )
        pref = principal_sqrt(xi_determinant(xi)) / (2.0 * math.pi)
        assert (pref * comp).real == pytest.approx(wide_bin_value(xi_inverse(spec)), abs=1e-14)


class TestThetaPartial:
    def test_degenerate_nome(self):
        assert theta_partial("theta4", 0.3, 0.0, 5) == 1.0
        assert theta_partial("theta2", 0.3, 0.0, 5) == 0.0

    def test_first_order_expansions(self):
        z = 0.7 - 0.2j
        q4 = 1e-4
        val4 = theta_partial("theta4", z, q4, 50)
        assert abs(val4 - (1.0 - 2.0 * q4 * cmath.cos(2.0 * z))) <= 1e-14
        q2 = 1e-8
        val2 = theta_partial("theta2", z, q2, 50)
        assert abs(val2 - 2.0 * q2**0.25 * cmath.cos(z)) <= 1e-12 * abs(val2)

    def test_truncated_sum_is_exact_partial(self):
        z, q = 0.4, 0.2 + 0.1j
        expected = 1.0 - (q * cmath.exp(2j * z) + q * cmath.exp(-2j * z))
        assert theta_partial("theta4", z, q, 1) == pytest.approx(expected, abs=1e-16)

    @pytest.mark.parametrize("kind,n", [("theta4", 4), ("theta2", 2)])
    def test_against_mpmath(self, kind, n):
        z, q = 0.4 + 0.15j, 0.3 + 0.1j
        mine = theta_partial(kind, z, q, 200)
        ref = complex(mp.jtheta(n, z, mp.mpc(q)))
        assert abs(mine - ref) <= 1e-13 * abs(ref)

    def test_large_imaginary_argument_finite(self):
        # Individual factors q^{n^2} and e^{2inz} under/overflow separately
        # here; the combined exponent must stay finite.
        val = theta_partial("theta4", 1.5j, 0.84, 2000)
        assert math.isfinite(abs(val))

    def test_divergent_nome_rejected(self):
        with pytest.raises(DivergentSeriesError):
            theta_partial("theta4", 0.1, 1.0, 10)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            theta_partial("theta4", 0.1, 0.5, 0)
        with pytest.raises(ValueError):
            theta_partial("theta3", 0.1, 0.5, 10)


def _theta_resummed(spec: TransitionSpec, ell: float, nx: int = 64) -> float:
    """Narrow-bin correlator via the theta-function resummation of the
    checkerboard sum, an independent route exercised only in tests.

    E = Re[sqrt(det Xi)/(2 pi) * I] with
    I = (2 i ell / (sqrt(pi) sqrt(c))) e^{-pi^2/(4 c ell^2)}
        * int_0^1 dx e^{-alpha x^2 ell^2} (J_+ - J_-),
    J_+- = e^{+-i pi b x / c} theta4(i alpha x ell^2 +- pi b/(2c), e^{-alpha ell^2}),
    where a = -xi11/2, b = -xi12/2, c = -xi22/2 and alpha = a - b^2/c.
    """
    xi = xi_matrix(spec)
    a = -0.5 * xi.xi11
    b = -0.5 * xi.xi12
    c = -0.5 * xi.xi22
    alpha = a - b * b / c
    q = cmath.exp(-alpha * ell * ell)
    im_z = abs((math.pi * b / (2.0 * c)).imag) + abs(alpha.imag) * ell * ell
    re_al2 = (alpha * ell * ell).real
    n_terms = (
        int((2 * im_z + math.sqrt(4 * im_z * im_z + 240.0 * re_al2)) / (2.0 * re_al2))
        + 50
    )
    xg, wg = leggauss(nx)
    xs = 0.5 * (xg + 1.0)
    ws = 0.5 * wg
    total = 0.0 + 0.0j
    for xv, wv in zip(xs, ws):
        z_plus = 1j * alpha * xv * ell * ell + math.pi * b / (2.0 * c)
        z_minus = 1j * alpha * xv * ell * ell - math.pi * b / (2.0 * c)
        j_plus = cmath.exp(1j * math.pi * b * xv / c) * theta_partial(
            "theta4", z_plus, q, n_terms
        )
        j_minus = cmath.exp(-1j * math.pi * b * xv / c) * theta_partial(
            "theta4", z_minus, q, n_terms
        )
        total += wv * cmath.exp(
            -alpha * xv * xv * ell * ell - math.pi**2 / (4.0 * c * ell * ell)
        ) * (j_plus - j_minus)
    amp = 2j * ell / (math.sqrt(math.pi) * principal_sqrt(c))
    return float(
        (principal_sqrt(xi_determinant(xi)) / (2.0 * math.pi) * amp * total).real
    )


class TestThetaResummation:
    def test_matches_band_series_moderate_squeezing(self):
        spec = _spec(1.2, 0.02, 0.0, 1.2, -0.02)
        resummed = _theta_resummed(spec, 0.5)
        settings = EvaluationSettings(ell=0.5)
        band = band_series_value(xi_inverse(spec), settings)[0]
        numeric = correlator_numeric(spec, settings).value
        assert abs(band) > 0.01
        assert abs(resummed - band) <= 1e-6
        assert abs(resummed - numeric) <= 1e-6

    def test_matches_narrow_bin_deep_squeezing(self):
        # Narrow bins at r = 5 keep E near zero except within an
        # exponentially thin sliver of the maximal-correlation locus; the
        # phases below put the point on that sliver so the comparison has
        # an O(1) value on both sides.
        spec = _spec(5.0, 1e-6, 0.0, 5.0, -1e-6)
        resummed = _theta_resummed(spec, 0.3)
        closed = correlator_small_ell(spec, 0.3).value
        assert abs(closed) > 0.1
        assert abs(resummed - closed) <= 1e-6
