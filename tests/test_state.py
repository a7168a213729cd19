"""Squeezed-pair state parameters, and the reference wavefunction and Fock data."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference_forms import (
    coeff_A,
    coeff_B,
    fock_amplitude,
    fock_truncation,
    normalization,
    wavefunction,
)
from squeezebell.quadrature import adaptive_cells_2d
from squeezebell.state import SqueezeParams, TransitionSpec

r_values = st.floats(min_value=0.0, max_value=8.0)
angles = st.floats(min_value=-10.0, max_value=10.0)


class TestParams:
    def test_defaults(self):
        p = SqueezeParams(1.0)
        assert p.varphi == 0.0 and p.theta == 0.0

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_invalid_r_rejected(self, bad):
        with pytest.raises(ValueError):
            SqueezeParams(bad)

    def test_invalid_angle_rejected(self):
        with pytest.raises(ValueError):
            SqueezeParams(1.0, varphi=math.nan)

    def test_transition_delta_theta_and_swap(self):
        s = TransitionSpec(
            a=SqueezeParams(1.0, 0.2, theta=0.9),
            b=SqueezeParams(2.0, -0.1, theta=0.4),
        )
        assert s.delta_theta == 0.5
        sw = s.swapped()
        assert sw.a == s.b and sw.b == s.a
        assert sw.delta_theta == -0.5


class TestCoefficients:
    @given(angles)
    def test_vacuum_limit(self, phi):
        assert coeff_A(0.0, phi) == -1.0
        assert coeff_B(0.0, phi) == 0.0

    def test_zero_phase_hyperbolic(self):
        # At varphi = 0: A = -cosh(2r), B = sinh(2r). The 1 - tanh^2 r
        # denominator cancels ~3 digits by r = 5, hence the relaxed rel tol.
        assert coeff_A(5.0, 0.0).real == pytest.approx(-math.cosh(10.0), rel=5e-12)
        assert abs(coeff_A(5.0, 0.0).imag) < 1e-9
        assert coeff_B(5.0, 0.0).real == pytest.approx(math.sinh(10.0), rel=5e-12)

    def test_quarter_pi_phase_structure(self):
        # e^{-4i varphi} = -1 there: A is real, B purely imaginary.
        A = coeff_A(1.7, math.pi / 4.0)
        B = coeff_B(1.7, math.pi / 4.0)
        t = math.tanh(1.7)
        assert A == pytest.approx(-(1.0 - t * t) / (1.0 + t * t), abs=1e-15)
        assert abs(B.real) < 1e-15
        assert B.imag == pytest.approx(-2.0 * t / (1.0 + t * t), abs=1e-15)

    @given(r_values, angles)
    def test_diagonal_coefficient_left_half_plane(self, r, phi):
        # Re(A) < 0 keeps the wavefunction normalizable for all finite r.
        assert coeff_A(r, phi).real < 0.0

    @given(st.floats(min_value=0.0, max_value=6.0), angles)
    def test_phase_conjugation(self, r, phi):
        assert coeff_A(r, -phi) == pytest.approx(coeff_A(r, phi).conjugate(), rel=1e-12)
        assert coeff_B(r, -phi) == pytest.approx(coeff_B(r, phi).conjugate(), rel=1e-12)


class TestWavefunction:
    def test_vacuum_product_form(self):
        p = SqueezeParams(0.0, 0.3)
        q = np.array([0.0, 0.7, -1.4])
        psi = wavefunction(p, q, q[::-1])
        expected = math.pi**-0.5 * np.exp(-0.5 * (q * q + q[::-1] * q[::-1]))
        np.testing.assert_allclose(psi, expected, atol=1e-15)

    def test_origin_value_is_normalization(self):
        p = SqueezeParams(2.0, 0.4)
        assert complex(wavefunction(p, 0.0, 0.0)) == pytest.approx(
            complex(normalization(p)), abs=1e-16
        )

    def test_normalized(self):
        p = SqueezeParams(1.3, 0.7)
        lim = 6.0 * math.exp(1.3)
        cells = np.array([[-lim, 0.0, -lim, 0.0], [0.0, lim, -lim, 0.0],
                          [-lim, 0.0, 0.0, lim], [0.0, lim, 0.0, lim]])

        def density(q1, q2):
            return np.abs(wavefunction(p, q1, q2)) ** 2

        total, _, _ = adaptive_cells_2d(density, cells, tol_rel=1e-11)
        assert total.real == pytest.approx(1.0, abs=1e-8)

    def test_rotation_angle_has_no_effect(self):
        # theta rotates the joint measurement frame, not the equal-time state.
        q1 = np.linspace(-2.0, 2.0, 7)
        q2 = q1[::-1].copy()
        a = wavefunction(SqueezeParams(1.1, 0.5, theta=0.0), q1, q2)
        b = wavefunction(SqueezeParams(1.1, 0.5, theta=2.7), q1, q2)
        np.testing.assert_array_equal(a, b)

    def test_argument_swap_exact(self):
        p = SqueezeParams(0.9, -0.6)
        q1 = np.linspace(-1.5, 1.5, 5)
        q2 = np.linspace(-0.5, 2.5, 5)
        np.testing.assert_array_equal(wavefunction(p, q1, q2), wavefunction(p, q2, q1))

    def test_phase_shift_by_pi_preserves_density(self):
        q1 = np.linspace(-2.0, 2.0, 9)
        q2 = np.linspace(-2.0, 2.0, 9)
        d0 = np.abs(wavefunction(SqueezeParams(1.4, 0.3), q1, q2)) ** 2
        d1 = np.abs(wavefunction(SqueezeParams(1.4, 0.3 + math.pi), q1, q2)) ** 2
        np.testing.assert_allclose(d0, d1, rtol=1e-13)


class TestFockData:
    @given(r_values, angles)
    def test_vacuum_amplitude(self, r, phi):
        c0 = fock_amplitude(SqueezeParams(r, phi), 0)
        assert c0 == pytest.approx(1.0 / math.cosh(r), abs=1e-15)

    def test_explicit_n3(self):
        p = SqueezeParams(0.8, 0.25)
        expected = cmath.exp(-6j * 0.25) * math.tanh(0.8) ** 3 / math.cosh(0.8)
        assert fock_amplitude(p, 3) == pytest.approx(expected, abs=1e-16)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            fock_amplitude(SqueezeParams(1.0), -1)

    @given(st.floats(min_value=0.0, max_value=4.0), angles)
    def test_total_weight(self, r, phi):
        # sum_{n<N} |c_n|^2 = 1 - tanh(r)^{2N} exactly.
        p = SqueezeParams(r, phi)
        N = 40
        total = sum(abs(fock_amplitude(p, n)) ** 2 for n in range(N))
        assert total == pytest.approx(1.0 - math.tanh(r) ** (2 * N), abs=1e-13)

    def test_truncation_bounds_discarded_mass(self):
        for r in (0.5, 1.0, 2.5, 4.0):
            N = fock_truncation(r, tol=1e-12)
            assert math.tanh(r) ** (2 * N) < 1e-12
            # One pair fewer would not satisfy the bound (tight cutoff).
            if N > 1:
                assert math.tanh(r) ** (2 * (N - 1)) >= 1e-12

    def test_truncation_vacuum(self):
        assert fock_truncation(0.0) == 1

    def test_truncation_tol_validated(self):
        with pytest.raises(ValueError):
            fock_truncation(1.0, tol=0.0)
        with pytest.raises(ValueError):
            fock_truncation(1.0, tol=2.0)
