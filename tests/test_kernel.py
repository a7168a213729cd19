"""Closed-form kernel determinant and the reduced quadratic form."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kernel_blocks import (
    DETERMINANT_ROOTS,
    convergence_conditions,
    kernel_determinant,
    passive_block_determinant,
    series_prefactor,
    xi_determinant,
)
from squeezebell.complexfn import principal_sqrt
from squeezebell.errors import ComplexOverflowError, SqueezeBellError
from squeezebell.evaluators import correlator_large_ell, correlator_large_ell_large_squeeze
from squeezebell.kernel import (
    XiMatrix,
    _xi_extended,
    large_squeeze_zeta,
    xi_inverse,
    xi_matrix,
)
from squeezebell.oracle import build_M
from squeezebell.state import SqueezeParams, TransitionSpec

r_draw = st.floats(min_value=0.0, max_value=8.0)
angle_draw = st.floats(min_value=-math.pi, max_value=math.pi)

GENERIC_POINTS = [
    (1.1, 0.3, 0.7, 0.8, -0.4, 0.2),
    (2.0, -0.15, 1.3, 1.5, 0.55, -0.6),
    (0.4, 1.0, 0.0, 0.9, 0.1, 2.0),
]


def _spec(ra, pa, tha, rb, pb, thb):
    return TransitionSpec(a=SqueezeParams(ra, pa, tha), b=SqueezeParams(rb, pb, thb))


class TestDeterminant:
    def test_vacuum_closed_form(self):
        # Both snapshots in vacuum: f_M = -4 e^{2i dth} sin^2(dth).
        spec = _spec(0.0, 0.0, 0.7, 0.0, 0.0, 0.0)
        expected = -4.0 * cmath.exp(1.4j) * math.sin(0.7) ** 2
        assert kernel_determinant(spec) == pytest.approx(expected, rel=1e-14)

    def test_coincident_pair_vanishes_exactly(self):
        spec = _spec(1.3, 0.4, 0.9, 1.3, 0.4, 0.9)
        assert kernel_determinant(spec) == 0.0

    @given(
        st.floats(min_value=0.0, max_value=5.0),
        angle_draw,
        st.floats(min_value=0.0, max_value=5.0),
        angle_draw,
        angle_draw,
    )
    def test_exchange_conjugation(self, ra, pa, rb, pb, dth):
        # Swapping the two snapshots (which negates the angle difference)
        # conjugates the determinant.
        spec = _spec(ra, pa, dth, rb, pb, 0.0)
        f_ab = kernel_determinant(spec)
        f_ba = kernel_determinant(spec.swapped())
        assert abs(f_ba - f_ab.conjugate()) <= 1e-13 * max(1.0, abs(f_ab))

    @pytest.mark.parametrize("point", GENERIC_POINTS)
    def test_matches_explicit_system_determinant(self, point):
        # The LU determinant of the assembled 12x12 system equals the
        # closed form with no extra normalization.
        spec = _spec(*point)
        f_m = kernel_determinant(spec)
        det_big = build_M(spec).determinant()
        assert abs(det_big - f_m) <= 1e-13 * abs(f_m)

    def test_extended_precision_recomputation(self):
        # The expanded determinant of the derivation cancels at high
        # squeezing; in 40-digit arithmetic it pins the factored form.
        ra, pa, rb, pb, dth = 5.0, -0.2, 0.2, 0.5, 0.9
        f_m = kernel_determinant(_spec(ra, pa, dth, rb, pb, 0.0))
        with mp.workdps(40):
            ta, tb = mp.tanh(ra), mp.tanh(rb)
            s = mp.sin
            ref = 4 * mp.exp(2j * mp.mpf(dth)) * (
                -s(dth) ** 2
                + s(2 * pa + dth) ** 2 * ta**2
                + s(2 * pb - dth) ** 2 * tb**2
                - 2 * s(2 * pa) * s(2 * pb) * ta * tb
                - s(2 * pa - 2 * pb + dth) ** 2 * ta**2 * tb**2
            )
            ref = complex(ref)
        assert abs(f_m - ref) <= 1e-12 * abs(ref)


class TestReducedForm:
    @given(
        st.floats(min_value=0.0, max_value=8.0),
        angle_draw,
        st.floats(min_value=0.0, max_value=8.0),
        angle_draw,
        angle_draw,
    )
    def test_convergence_conditions_hold_generically(self, ra, pa, rb, pb, dth):
        xi = xi_matrix(_spec(ra, pa, dth, rb, pb, 0.0))
        assert all(v < 0.0 and math.isfinite(v) for v in convergence_conditions(xi))

    def test_vacuum_right_angle_finite(self):
        xi = xi_matrix(_spec(0.0, 0.0, math.pi / 2.0, 0.0, 0.0, 0.0))
        assert all(v < 0.0 and math.isfinite(v) for v in convergence_conditions(xi))
        assert all(math.isfinite(abs(v)) for v in (xi.xi11, xi.xi22, xi.xi12))

    def test_closed_forms_match_float_references(self):
        # What the band series and the oracle read off Xi^-1, against the
        # same quantities formed from Xi's entries in floating point: the
        # Schur complements 1 / (Xi^-1)_11 = -2 / ch_b and -2 / ch_a, det Xi
        # = 4 / det, the prefactor sqrt(det Xi) / (sqrt(2 pi) sqrt(-xi22))
        # = 1 / sqrt(pi ch_b) and the oracle's sqrt(det Xi) / (2 pi)
        # = 1 / (pi sqrt(det)). At r <= 4 the references cancel little.
        rng = np.random.default_rng(13)
        for _ in range(2000):
            ra, rb = rng.uniform(0.0, 4.0, size=2)
            pa, pb, dth = rng.uniform(-math.pi, math.pi, size=3)
            inv = xi_inverse(_spec(ra, pa, dth, rb, pb, 0.0))
            xi = xi_matrix(_spec(ra, pa, dth, rb, pb, 0.0))
            x11, x22, x12 = xi.xi11, xi.xi22, xi.xi12
            pairs = (
                (x11 - x12 * x12 / x22, -2.0 / inv.ch_b),
                (x22 - x12 * x12 / x11, -2.0 / inv.ch_a),
                (xi_determinant(xi), 4.0 / inv.det),
                (series_prefactor(xi), 1.0 / math.sqrt(math.pi * inv.ch_b)),
                (principal_sqrt(xi_determinant(xi)) / (2.0 * math.pi), 1.0 / (math.pi * principal_sqrt(inv.det))),
            )
            for reference, closed in pairs:
                assert abs(reference - closed) <= 1e-13 * abs(closed)

    @pytest.mark.parametrize("dth", [0.3, 1.1, -2.0])
    def test_vacuum_values(self, dth):
        # In vacuum the two times decouple: Xi = -2 I at every angle difference.
        xi = xi_matrix(_spec(0.0, 0.0, dth, 0.0, 0.0, 0.0))
        assert (xi.xi11, xi.xi22, xi.xi12) == (-2.0, -2.0, 0.0)
        ref = _xi_extended(0.0, 0.0, 0.0, 0.0, dth)
        assert all(abs(u - v) <= 1e-15 for u, v in zip(ref, (-2.0, -2.0, 0.0)))

    @given(r_draw, angle_draw, r_draw, angle_draw, angle_draw)
    def test_angle_negation_conjugates(self, ra, pa, rb, pb, dth):
        xi = xi_matrix(_spec(ra, pa, dth, rb, pb, 0.0))
        neg = xi_matrix(_spec(ra, -pa, -dth, rb, -pb, 0.0))
        assert neg.xi11 == xi.xi11.conjugate()
        assert neg.xi22 == xi.xi22.conjugate()
        assert neg.xi12 == xi.xi12.conjugate()

    def test_angle_difference_periodicity(self):
        base = _spec(1.2, 0.3, 0.8, 0.7, -0.2, 0.0)
        shifted = _spec(1.2, 0.3, 0.8 + 2.0 * math.pi, 0.7, -0.2, 0.0)
        x0, x1 = xi_matrix(base), xi_matrix(shifted)
        for u, v in ((x0.xi11, x1.xi11), (x0.xi22, x1.xi22), (x0.xi12, x1.xi12)):
            assert abs(u - v) <= 1e-12 * max(1.0, abs(u))

    def test_half_period_flips_coupling_only(self):
        base = _spec(1.2, 0.3, 0.8, 0.7, -0.2, 0.0)
        shifted = _spec(1.2, 0.3, 0.8 + math.pi, 0.7, -0.2, 0.0)
        x0, x1 = xi_matrix(base), xi_matrix(shifted)
        assert abs(x1.xi11 - x0.xi11) <= 1e-12 * abs(x0.xi11)
        assert abs(x1.xi22 - x0.xi22) <= 1e-12 * abs(x0.xi22)
        assert abs(x1.xi12 + x0.xi12) <= 1e-12 * abs(x0.xi12)

    def test_float_chain_matches_extended_precision(self):
        ra, pa, rb, pb, dth = 1.4, 0.25, 0.9, -0.35, 0.7
        xi = xi_matrix(_spec(ra, pa, dth, rb, pb, 0.0))
        e11, e22, e12 = _xi_extended(ra, pa, rb, pb, dth)
        assert abs(xi.xi11 - e11) <= 1e-12 * abs(e11)
        assert abs(xi.xi22 - e22) <= 1e-12 * abs(e22)
        assert abs(xi.xi12 - e12) <= 1e-12 * abs(e12)

    def test_no_pair_refused(self):
        # Where f_M vanishes, Xi is finite and continuous: it matches the
        # midpoint of its neighbours. A coincident pair and its half-turn
        # image give minus the inverse covariance (1/2) [[c, +-p], [+-p, c]]
        # of the snapshot's density, c = cosh 2r and p = cos(2 phi) sinh 2r.
        # At the other roots (phi_a - phi_b = pi/2 at zero angle
        # difference, and roots of g_s or g_c) Xi also matches the
        # extended-precision chain, which divides by f_M and so keeps only
        # about 12 digits there.
        for r, phi, tha, thb, sign in (
            (0.9, 0.0, 0.0, 0.0, 1.0),
            (1.3, 0.4, 0.9, 0.9, 1.0),
            (1.3, 0.4, math.pi, 0.0, -1.0),
        ):
            spec = _spec(r, phi, tha, r, phi, thb)
            assert abs(kernel_determinant(spec)) <= 1e-14
            xi = xi_matrix(spec)
            c, p = math.cosh(2.0 * r), sign * math.cos(2.0 * phi) * math.sinh(2.0 * r)
            ref = (-2.0 * c / (c * c - p * p), -2.0 * c / (c * c - p * p), 2.0 * p / (c * c - p * p))
            assert _relative_error(xi, ref) <= 1e-13
            lo, hi = (xi_matrix(_spec(r, phi, tha + h, r, phi, thb)) for h in (-1e-8, 1e-8))
            for name in ("xi11", "xi22", "xi12"):
                mid = 0.5 * (getattr(lo, name) + getattr(hi, name))
                assert abs(getattr(xi, name) - mid) <= 1e-11
        for ra, pa, rb, pb, _, dth in DETERMINANT_ROOTS:
            assert abs(kernel_determinant(_spec(ra, pa, dth, rb, pb, 0.0))) <= 1e-14
            xi = xi_matrix(_spec(ra, pa, dth, rb, pb, 0.0))
            assert _relative_error(xi, _xi_extended(ra, pa, rb, pb, dth)) <= 1e-11
            lo, hi = (xi_matrix(_spec(ra, pa, dth + h, rb, pb, 0.0)) for h in (-1e-7, 1e-7))
            for name in ("xi11", "xi22", "xi12"):
                mid = 0.5 * (getattr(lo, name) + getattr(hi, name))
                assert abs(getattr(xi, name) - mid) <= 1e-11

    @pytest.mark.parametrize("point", GENERIC_POINTS)
    def test_squared_prefactor_identity(self, point):
        # det Xi * (passive-block determinant) * pi^4 cosh^4 r_a cosh^4 r_b
        # * (1 - e^{4i phi_a} tanh^2 r_a)(1 - e^{-4i phi_b} tanh^2 r_b)
        # * det(12x12 system) telescopes to 16 pi^4: every Gaussian layer
        # of the reduction must cancel for this to hold.
        spec = _spec(*point)
        xi = xi_matrix(spec)
        ra, rb = spec.a.r, spec.b.r
        ta, tb = math.tanh(ra), math.tanh(rb)
        lhs = (
            xi_determinant(xi)
            * passive_block_determinant(spec)
            * math.pi**4
            * math.cosh(ra) ** 4
            * math.cosh(rb) ** 4
            * (1.0 - cmath.exp(4j * spec.a.varphi) * ta * ta)
            * (1.0 - cmath.exp(-4j * spec.b.varphi) * tb * tb)
            * build_M(spec).determinant()
        )
        assert abs(lhs / (16.0 * math.pi**4) - 1.0) <= 1e-8



def _relative_error(xi, ref):
    got = (xi.xi11, xi.xi22, xi.xi12)
    return max(abs(u - v) for u, v in zip(got, ref)) / max(map(abs, ref))


class TestDeepSqueeze:
    """The double-precision closed form against the extended-precision
    reference chain, across the squeezing range the library accepts."""

    def test_random_draws_match_reference(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            ra, rb = rng.uniform(0.0, 20.0, size=2)
            pa, pb, dth = rng.uniform(-math.pi, math.pi, size=3)
            xi = xi_matrix(_spec(ra, pa, dth, rb, pb, 0.0))
            assert _relative_error(xi, _xi_extended(ra, pa, rb, pb, dth)) <= 1e-12

    def test_near_degeneracy_loci_match_reference(self):
        # Within 1e-3 of dtheta = 0 and dtheta = +-(phi_a - phi_b) (mod pi),
        # where a factor of f_M nearly vanishes.
        rng = np.random.default_rng(45)
        for _ in range(200):
            ra, rb = rng.uniform(4.0, 5.0, size=2)
            pa, pb = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=2)
            locus = (0.0, pa - pb, pb - pa)[rng.integers(3)] + math.pi * rng.integers(-1, 2)
            dth = locus + rng.uniform(-1e-3, 1e-3)
            xi = xi_matrix(_spec(ra, pa, dth, rb, pb, 0.0))
            assert _relative_error(xi, _xi_extended(ra, pa, rb, pb, dth)) <= 1e-10

    def test_wide_bin_converges_onto_infinite_squeezing(self):
        # phi = -+0.2, dtheta = 0.5: the gap to the r -> infinity value
        # shrinks with r down to rounding, never growing by more than one
        # unit in the last place; r = 10 ... 20 are the deep-squeeze inputs
        # the benchmark's single calls include.
        limit = correlator_large_ell_large_squeeze(-0.2, 0.2, 0.5).value
        assert limit == pytest.approx(0.7953440512161, abs=1e-13)
        rs = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0, 15.0, 18.0, 20.0)
        gaps = [
            abs(correlator_large_ell(_spec(r, -0.2, 0.5, r, 0.2, 0.0)).value - limit)
            for r in rs
        ]
        assert all(b <= a + math.ulp(limit) for a, b in zip(gaps, gaps[1:]))
        for r, gap in zip(rs, gaps):
            if r >= 10.0:
                assert gap <= 0.04 * math.exp(-2.0 * r) + 1e-15

    @pytest.mark.parametrize("r", [200.0, 800.0])
    def test_beyond_double_range_refused(self, r):
        # det(S^-1 + M^-1) grows like e^{2(r_a + r_b)} and leaves double
        # precision past r_a + r_b ~ 355; that is a typed refusal.
        with pytest.raises(ComplexOverflowError, match="leaves double precision"):
            xi_matrix(_spec(r, 0.3, 0.5, r, -0.1, 0.0))

    @pytest.mark.parametrize("r", [10.0, 12.0])
    def test_phi_zero_needs_no_nudge(self, r):
        # g_s = sigma_a sigma_b sin(dtheta) is small here only through the
        # squeezing, so the kernel is not degenerate.
        res = correlator_large_ell(_spec(r, 0.0, 0.5, r, 0.0, 0.0))
        assert res.notes == () and not res.degenerate_path
        limit = correlator_large_ell_large_squeeze(0.0, 0.0, 0.5).value
        assert abs(res.value - limit) <= 1e-8


class SingularLocusError(SqueezeBellError):
    """Infinite-squeezing closed form evaluated on its singular locus."""


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
    return XiMatrix(-2.0 * ub * ub / chi, -2.0 * ua * ua / chi, zeta * ua * ub / chi)


def amplitude_constant(xi: XiMatrix) -> complex:
    """Cell-sum prefactor sqrt(det Xi) / (4 pi^2) of the reduced expectation.

    Expects a converged form, under which det Xi stays clear of the
    negative real axis and the principal square root is the right branch
    (the two quadratic-form eigenvalues sit in the left half-plane, so the
    phase of their product never wraps).
    """
    return principal_sqrt(xi_determinant(xi)) / (4.0 * math.pi**2)


class TestLargeSqueezeAsymptote:
    def test_entries_at_unit_chi(self):
        # phi_a = pi/4, phi_b = -pi/4, dtheta = 0: zeta = 2i so chi = 1 and
        # the asymptotic entries are bare.
        spec = _spec(3.0, math.pi / 4.0, 0.0, 2.5, -math.pi / 4.0, 0.0)
        xi = xi_matrix_large_squeeze(spec)
        ua, ub = math.exp(-3.0), math.exp(-2.5)
        assert xi.xi11 == pytest.approx(-2.0 * ub * ub, rel=1e-13)
        assert xi.xi22 == pytest.approx(-2.0 * ua * ua, rel=1e-13)
        assert xi.xi12 == pytest.approx(2j * ua * ub, rel=1e-13)

    def test_schur_complement_collapses(self):
        # xi11 - xi12^2/xi22 = -4 u_b^2 identically for the asymptote.
        spec = _spec(4.0, 0.3, 0.4, 3.0, -0.1, 0.0)
        xi = xi_matrix_large_squeeze(spec)
        ub = math.exp(-3.0)
        schur = xi.xi11 - xi.xi12 * xi.xi12 / xi.xi22
        assert abs(schur.imag) <= 1e-15 * abs(schur)
        assert schur.real == pytest.approx(-4.0 * ub * ub, rel=1e-12)

    def test_approaches_full_form_moderate_squeezing(self):
        spec = _spec(8.0, 0.3, 0.4, 8.0, -0.1, 0.0)
        full = xi_matrix(spec)
        asym = xi_matrix_large_squeeze(spec)
        for u, v in (
            (full.xi11, asym.xi11),
            (full.xi22, asym.xi22),
            (full.xi12, asym.xi12),
        ):
            assert abs(u - v) <= 0.1 * abs(u)

    def test_approaches_full_form_deep_squeezing(self):
        spec = _spec(10.0, 0.3, 0.4, 10.0, -0.1, 0.0)
        full = xi_matrix(spec)
        asym = xi_matrix_large_squeeze(spec)
        for u, v in (
            (full.xi11, asym.xi11),
            (full.xi22, asym.xi22),
            (full.xi12, asym.xi12),
        ):
            assert abs(u - v) <= 1e-6 * abs(u)

    def test_singular_locus_rejected(self):
        spec = _spec(6.0, 0.0, 0.0, 6.0, 0.0, 0.0)
        with pytest.raises(SingularLocusError):
            xi_matrix_large_squeeze(spec)


class TestPrefactors:
    def _xi(self, xi11, xi22, xi12):
        return XiMatrix(xi11=xi11, xi22=xi22, xi12=xi12)

    def test_amplitude_isotropic(self):
        xi = self._xi(-1.0, -1.0, 0.0)
        assert amplitude_constant(xi) == pytest.approx(
            1.0 / (4.0 * math.pi**2), abs=1e-16
        )

    def test_amplitude_imaginary_coupling(self):
        xi = self._xi(-1.0, -1.0, 0.5j)
        assert amplitude_constant(xi) == pytest.approx(
            math.sqrt(5.0) / (8.0 * math.pi**2), abs=1e-16
        )

    def test_series_prefactor_isotropic(self):
        xi = self._xi(-1.0, -1.0, 0.0)
        assert series_prefactor(xi) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), abs=1e-16
        )
