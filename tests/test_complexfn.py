"""Branch policy of squeezebell.complexfn, and the complex error functions and
quadrant Gaussian integral restated for the tests."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
import scipy.special as _sp
from scipy import integrate

from reference_forms import QuadrantConditionError, quadrant_gaussian
from squeezebell.complexfn import principal_arctan, principal_sqrt
from squeezebell.errors import BranchPoleError, ComplexOverflowError

finite_floats = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


class TestPrincipalSqrt:
    def test_positive_real(self):
        assert principal_sqrt(4.0) == 2.0 + 0.0j

    def test_upper_half_plane(self):
        assert principal_sqrt(2j) == pytest.approx(1.0 + 1.0j, abs=1e-15)

    def test_lower_half_plane(self):
        assert principal_sqrt(3.0 - 4.0j) == pytest.approx(2.0 - 1.0j, abs=1e-15)

    def test_negative_axis_pinned_to_upper_rim(self):
        assert principal_sqrt(-4.0) == 2j
        # The -0.0 imaginary part must not flip the result to the lower rim.
        assert principal_sqrt(complex(-4.0, -0.0)) == 2j
        assert principal_sqrt(complex(-9.0, 0.0)) == 3j

    def test_zero(self):
        assert principal_sqrt(0.0) == 0.0

    @given(finite_floats, finite_floats)
    def test_square_roundtrip(self, x, y):
        z = complex(x, y)
        w = principal_sqrt(z)
        assert abs(w * w - z) <= 1e-13 * max(1.0, abs(z))
        assert w.imag >= 0.0 or w.real > 0.0  # principal half-plane


class TestPrincipalArctan:
    def test_zero(self):
        assert principal_arctan(0.0) == 0.0

    def test_unit(self):
        assert principal_arctan(1.0) == pytest.approx(math.pi / 4.0, abs=1e-15)

    @pytest.mark.parametrize("pole", [1j, -1j])
    def test_branch_poles_rejected(self, pole):
        with pytest.raises(BranchPoleError):
            principal_arctan(pole)

    @given(finite_floats, finite_floats)
    def test_real_part_in_principal_strip(self, x, y):
        z = complex(x, y)
        assume(z != 1j and z != -1j)
        w = principal_arctan(z)
        assert -math.pi / 2.0 - 1e-12 <= w.real <= math.pi / 2.0 + 1e-12

    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_tan_roundtrip(self, x, y):
        z = complex(x, y)
        assume(abs(z - 1j) > 1e-3 and abs(z + 1j) > 1e-3)
        w = principal_arctan(z)
        assume(abs(cmath.cos(w)) > 1e-8)
        assert abs(cmath.tan(w) - z) <= 1e-10 * max(1.0, abs(z) ** 2)


def erfc_complex(z: complex) -> complex:
    """Complementary error function for complex argument.

    Grows like exp(Im(z)^2 - Re(z)^2); arguments far up the imaginary axis
    overflow double precision and raise ComplexOverflowError instead of
    returning silent infinities.
    """
    w = complex(_sp.erfc(complex(z)))
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ComplexOverflowError(
            f"erfc({z!r}) overflows double precision; "
            "use the scaled form erfcx_complex"
        )
    return w


def erfcx_complex(z: complex) -> complex:
    """Scaled complement exp(z^2)*erfc(z); bounded for Re(z) >= 0."""
    w = complex(_sp.erfcx(complex(z)))
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ComplexOverflowError(f"erfcx({z!r}) overflows double precision")
    return w


def _erfc_line_quadrature(z: complex, n_nodes: int = 220) -> complex:
    """erfc(z) = 1 - (2/sqrt(pi)) * z * int_0^1 exp(-(z s)^2) ds, by Gauss-Legendre."""
    xg, wg = leggauss(n_nodes)
    s = 0.5 * (xg + 1.0)
    w = 0.5 * wg
    vals = np.exp(-(z * s) ** 2)
    return 1.0 - (2.0 / math.sqrt(math.pi)) * z * complex(np.sum(w * vals))


class TestErfcComplex:
    def test_at_zero(self):
        assert erfc_complex(0.0) == 1.0

    def test_real_anchor(self):
        # erfc(1) to 10 digits (Abramowitz & Stegun 7.1).
        assert erfc_complex(1.0).real == pytest.approx(0.1572992070502851, abs=1e-14)
        assert erfc_complex(1.0).imag == 0.0

    @pytest.mark.parametrize("x", [-5.5, -2.0, -0.3, 0.0, 1.2, 4.0])
    @pytest.mark.parametrize("y", [-4.8, -1.0, 0.0, 0.7, 3.0])
    def test_against_line_quadrature(self, x, y):
        z = complex(x, y)
        ref = _erfc_line_quadrature(z)
        assert abs(erfc_complex(z) - ref) <= 1e-11 * max(1.0, abs(ref))

    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_reflection_identity(self, x, y):
        z = complex(x, y)
        a, b = erfc_complex(z), erfc_complex(-z)
        assert abs(a + b - 2.0) <= 1e-12 * max(1.0, abs(a), abs(b))

    def test_overflow_raises(self):
        # |erfc(iy)| grows like exp(y^2); y = 40 is far past double range.
        with pytest.raises(ComplexOverflowError):
            erfc_complex(40j)


class TestErfcxComplex:
    def test_at_zero(self):
        assert erfcx_complex(0.0) == 1.0

    @pytest.mark.parametrize("z", [0.5, 2.0 + 1.0j, 0.1 - 0.8j, 5.0 + 0.3j])
    def test_matches_scaled_erfc(self, z):
        z = complex(z)
        ref = cmath.exp(z * z) * erfc_complex(z)
        assert abs(erfcx_complex(z) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_bounded_on_right_half_plane(self):
        # erfcx stays finite where erfc itself overflows, e.g. far up a ray
        # with positive real part.
        val = erfcx_complex(30.0 + 40j)
        assert abs(val) < 1.0


def _quadrant_by_dblquad(a: complex, b: complex, c: complex, quadrant: str) -> complex:
    sx = 1.0 if quadrant[0] == "P" else -1.0
    sy = 1.0 if quadrant[1] == "P" else -1.0

    def f(y, x, part):
        u, v = sx * x, sy * y
        w = cmath.exp(-(a * u * u + 2.0 * b * u * v + c * v * v))
        return w.real if part == "re" else w.imag

    lim = 9.0 / math.sqrt(min(a.real, c.real))
    re, _ = integrate.dblquad(f, 0.0, lim, 0.0, lim, args=("re",), epsabs=1e-12)
    im, _ = integrate.dblquad(f, 0.0, lim, 0.0, lim, args=("im",), epsabs=1e-12)
    return complex(re, im)


class TestQuadrantGaussian:
    def test_isotropic_quarter_plane(self):
        assert quadrant_gaussian(1.0, 0.0, 1.0, "PP") == pytest.approx(
            math.pi / 4.0, abs=1e-14
        )

    def test_coupled_closed_form(self):
        # a = c = 1, b = 1/2: arctan(b / sqrt(ac - b^2)) = pi/6, so
        # PP = (pi/2 - pi/6) / (2 sqrt(3)/2) = pi / (3 sqrt(3)).
        assert quadrant_gaussian(1.0, 0.5, 1.0, "PP") == pytest.approx(
            math.pi / (3.0 * math.sqrt(3.0)), abs=1e-14
        )

    @pytest.mark.parametrize("quadrant", ["PP", "MP"])
    def test_complex_coefficients_vs_quadrature(self, quadrant):
        a, b, c = 1.0 + 0.3j, 0.2 - 0.1j, 0.8 + 0.5j
        ref = _quadrant_by_dblquad(a, b, c, quadrant)
        assert abs(quadrant_gaussian(a, b, c, quadrant) - ref) <= 1e-9

    def test_point_symmetry_exact(self):
        a, b, c = 1.3 + 0.2j, 0.35 - 0.15j, 0.9 - 0.1j
        assert quadrant_gaussian(a, b, c, "PP") == quadrant_gaussian(a, b, c, "MM")
        assert quadrant_gaussian(a, b, c, "MP") == quadrant_gaussian(a, b, c, "PM")

    @given(
        st.floats(min_value=0.3, max_value=3.0),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=0.3, max_value=3.0),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-0.4, max_value=0.4),
        st.floats(min_value=-0.4, max_value=0.4),
    )
    def test_four_quadrants_sum_to_full_plane(self, ar, ai, cr, ci, br, bi):
        a, b, c = complex(ar, ai), complex(br, bi), complex(cr, ci)
        try:
            total = sum(quadrant_gaussian(a, b, c, q) for q in ("PP", "MP", "PM", "MM"))
        except QuadrantConditionError:
            assume(False)
        full = math.pi / principal_sqrt(a * c - b * b)
        assert abs(total - full) <= 1e-10 * abs(full)

    def test_condition_error_names_inequalities(self):
        with pytest.raises(QuadrantConditionError) as exc_info:
            quadrant_gaussian(-1.0, 0.0, 1.0, "PP")
        assert "Re(a) > 0" in str(exc_info.value)
        assert exc_info.value.failed == ["Re(a) > 0"]

    def test_schur_condition_reported(self):
        # Diagonals fine but the coupling too strong: the ratio conditions fail.
        with pytest.raises(QuadrantConditionError) as exc_info:
            quadrant_gaussian(1.0, 2.0, 1.0, "PP")
        assert any("b^2" in cond for cond in exc_info.value.failed)

    def test_unknown_quadrant_rejected(self):
        with pytest.raises(ValueError):
            quadrant_gaussian(1.0, 0.0, 1.0, "XX")
