"""Acceptance gate: ten end-to-end criteria, one pass line each.

Each test prints a single ``PASS criterion N: ...`` line with the measured
quantity; a failed assertion is the corresponding fail line. The four
241x241 scan fixtures are module-scoped because several criteria share
them. Run this file with ``pytest -s tests/test_acceptance.py`` to see
the per-criterion lines; the whole module takes a few minutes serially.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from kernel_blocks import convergence_conditions, passive_block_determinant, xi_determinant
from reference_forms import QuadrantConditionError, quadrant_gaussian
from squeezebell.bell import BellConfig, SweepGrid, find_max, sweep_map
from squeezebell.complexfn import principal_sqrt
from squeezebell.errors import MaxBandsExceededError, SqueezeBellError
from squeezebell.evaluators import (
    EvaluationSettings,
    _dual_decay,
    _dual_order,
    _parity_reduce,
    band_series_value,
    correlator_large_ell,
    correlator_large_ell_large_squeeze,
    correlator_numeric,
    correlator_small_ell,
    dual_series_value,
)
from squeezebell.kernel import xi_inverse, xi_matrix
from squeezebell.oracle import build_M, correlator_quadrature
from squeezebell.state import SqueezeParams, TransitionSpec

CIRELSON = 2.0 * math.sqrt(2.0)
GRID_N = 241

# Reference transition for the regime-consistency criterion: deep
# squeezing with opposite squeeze phases and a half-radian rotation lag.
REGIME_SPEC = TransitionSpec(
    a=SqueezeParams(5.0, -0.2, 0.5), b=SqueezeParams(5.0, 0.2, 0.0)
)


def _bell_grid(r: float, ell: float, method: str) -> SweepGrid:
    # All four settings share one squeezed mode pair at phi = 0; the scan
    # moves the two primed rotation differences across [-pi, pi].
    mode = SqueezeParams(r, 0.0, 0.0)
    cfg = BellConfig(
        a=mode, a_prime=mode, b=mode, b_prime=mode,
        settings=EvaluationSettings(ell=ell), method=method,
    )
    return SweepGrid(
        fixed=cfg,
        axis1=("dtheta_apbp", -math.pi, math.pi, GRID_N),
        axis2=("dtheta_apb", -math.pi, math.pi, GRID_N),
    )


def _scan_and_refine(r, ell, method):
    grid = _bell_grid(r, ell, method)
    swept = sweep_map(grid)
    refined = find_max(grid, swept)
    return swept, refined


@pytest.fixture(scope="module")
def scan_r5_ell100():
    return _scan_and_refine(5.0, 100.0, "auto")


@pytest.fixture(scope="module")
def scan_r5_ell80():
    return _scan_and_refine(5.0, 80.0, "auto")


@pytest.fixture(scope="module")
def scan_r15_ell32():
    return _scan_and_refine(1.5, 3.2, "auto")


@pytest.fixture(scope="module")
def scan_r5_sign_limit():
    return _scan_and_refine(5.0, 100.0, "large-ell")


def _wrap_dist(values: np.ndarray, center: float) -> np.ndarray:
    return np.abs(np.remainder(values - center + math.pi, 2.0 * math.pi) - math.pi)


def _island_distances(result) -> dict[tuple[float, float], float]:
    """Min torus distance from any B > 2 node to each probe center."""
    mask = result.values > 2.0
    assert np.any(mask), "no violating node anywhere on the map"
    xs, ys = np.meshgrid(result.x, result.y, indexing="ij")
    vx, vy = xs[mask], ys[mask]
    centers = [(0.0, 0.0), (math.pi, 0.0), (math.pi, math.pi), (0.0, math.pi)]
    return {
        (cx, cy): float(
            np.min(np.hypot(_wrap_dist(vx, cx), _wrap_dist(vy, cy)))
        )
        for cx, cy in centers
    }


def test_criterion_01_violation_map_at_ell_100(scan_r5_ell100):
    swept, refined = scan_r5_ell100
    assert int(np.count_nonzero(~np.isfinite(swept.values))) == 0
    assert refined.value == pytest.approx(2.18, abs=0.02)
    dists = _island_distances(swept)
    # Violation islands hug the three corners where three legs align; the
    # fourth corner (anti-aligned primed pair) must stay violation-free.
    assert dists[(0.0, 0.0)] <= 0.5
    assert dists[(math.pi, 0.0)] <= 0.5
    assert dists[(math.pi, math.pi)] <= 0.5
    assert dists[(0.0, math.pi)] >= 1.0
    print(
        f"\nPASS criterion 1: r=5 ell=100 map, refined max B = {refined.value:.6f} "
        f"(target 2.18 +/- 0.02), islands at three aligned corners"
    )


def test_criterion_02_violation_map_at_ell_80(scan_r5_ell80):
    swept, refined = scan_r5_ell80
    assert int(np.count_nonzero(~np.isfinite(swept.values))) == 0
    assert refined.value == pytest.approx(2.22, abs=0.02)
    print(
        f"\nPASS criterion 2: r=5 ell=80 map, refined max B = {refined.value:.6f} "
        f"(target 2.22 +/- 0.02)"
    )


def test_criterion_03_violation_map_moderate_squeeze(scan_r15_ell32):
    swept, refined = scan_r15_ell32
    assert int(np.count_nonzero(~np.isfinite(swept.values))) == 0
    assert refined.value == pytest.approx(2.00, abs=0.02)
    print(
        f"\nPASS criterion 3: r=1.5 ell=3.2 map, refined max B = {refined.value:.6f} "
        f"(target 2.00 +/- 0.02)"
    )


def test_criterion_04_sign_binning_limit_never_violates(scan_r5_sign_limit):
    swept, refined = scan_r5_sign_limit
    assert int(np.count_nonzero(~np.isfinite(swept.values))) == 0
    grid_max = swept.max_node()[0]
    assert grid_max <= 2.0 + 1e-6
    assert refined.value <= 2.0 + 1e-6
    print(
        f"\nPASS criterion 4: infinite-bin-width map max B = {refined.value:.9f} "
        f"<= 2 + 1e-6"
    )


def test_criterion_05_quantum_ceiling(
    scan_r5_ell100, scan_r5_ell80, scan_r15_ell32, scan_r5_sign_limit
):
    overall = -math.inf
    for swept, refined in (
        scan_r5_ell100, scan_r5_ell80, scan_r15_ell32, scan_r5_sign_limit
    ):
        assert float(np.nanmax(swept.values)) <= CIRELSON + 1e-6
        assert refined.value <= CIRELSON + 1e-6
        overall = max(overall, float(np.nanmax(swept.values)), refined.value)
    print(
        f"\nPASS criterion 5: every B on all four maps <= 2*sqrt(2) + 1e-6 "
        f"(largest seen {overall:.6f})"
    )


def test_criterion_06_regime_consistency_and_crossover():
    plateau = correlator_large_ell(REGIME_SPEC).value

    # Narrow-bin regime: the closed form must track the band series.
    worst_small = 0.0
    for ell in (0.5, 1.0):
        num = correlator_numeric(
            REGIME_SPEC, EvaluationSettings(ell=ell, max_bands=131072)
        ).value
        small = correlator_small_ell(REGIME_SPEC, ell).value
        worst_small = max(worst_small, abs(num - small))
    assert worst_small < 1e-3

    # Wide-bin regime: the band series must have reached the plateau.
    worst_large = 0.0
    for ell in (1e4, 1e5):
        num = correlator_numeric(REGIME_SPEC, EvaluationSettings(ell=ell)).value
        worst_large = max(worst_large, abs(num - plateau))
    assert worst_large < 1e-3

    # Between the regimes the two closed forms trade accuracy; locate the
    # handover ell where their errors against the band series are equal
    # and check it sits near e^r (log-bisection on the error gap).
    def error_gap(ell: float) -> float:
        num = correlator_numeric(
            REGIME_SPEC, EvaluationSettings(ell=ell, max_bands=131072)
        ).value
        small = correlator_small_ell(REGIME_SPEC, ell).value
        return abs(small - num) - abs(plateau - num)

    lo, hi = math.exp(3.0), math.exp(7.0)
    assert error_gap(lo) < 0.0 < error_gap(hi)
    for _ in range(25):
        mid = math.sqrt(lo * hi)
        if error_gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    crossover = math.sqrt(lo * hi)
    assert math.exp(5.0) / 2.0 <= crossover <= math.exp(5.0) * 2.0
    print(
        f"\nPASS criterion 6: |series - closed form| = {worst_small:.2e} (ell <= 1), "
        f"{worst_large:.2e} (ell >= 1e4) < 1e-3; crossover ell = {crossover:.1f} "
        f"~ e^5 = {math.exp(5.0):.1f}"
    )


def test_criterion_07_series_agrees_with_direct_quadrature():
    # ``numeric`` runs whichever series is cheaper; each series is also
    # held to the oracle on every draw where it converges (the band series
    # within its band cap, the dual within 2000 odd terms per axis).
    rng = np.random.default_rng(7)
    worst = {"numeric": 0.0, "band": 0.0, "dual": 0.0}
    counts = dict.fromkeys(worst, 0)
    accepted = 0
    attempts = 0
    while accepted < 20:
        attempts += 1
        assert attempts <= 200, "too many non-convergent draws"
        r = rng.uniform(0.5, 6.0)
        phi_a, phi_b, dth = rng.uniform(-math.pi, math.pi, size=3)
        ell = math.exp(rng.uniform(0.0, math.log(10.0) + r))
        spec = TransitionSpec(
            a=SqueezeParams(r, phi_a, dth), b=SqueezeParams(r, phi_b, 0.0)
        )
        settings = EvaluationSettings(ell=ell)
        try:
            direct = correlator_quadrature(spec, ell)
            series = correlator_numeric(spec, settings).value
        except SqueezeBellError:
            continue
        values = {"numeric": series}
        # The series take the parity-folded pair, as every evaluator does.
        folded, sign = _parity_reduce(spec)
        try:
            values["band"] = sign * band_series_value(xi_inverse(folded), settings)[0]
        except MaxBandsExceededError:
            pass
        inv = xi_inverse(folded)
        n_odd = _dual_order(_dual_decay(inv, ell), 2000)
        if n_odd is not None:
            values["dual"] = sign * dual_series_value(inv, ell, n_odd)[0]
        for name, value in values.items():
            worst[name] = max(worst[name], abs(value - direct))
            assert abs(value - direct) <= 1e-6, name
            counts[name] += 1
        accepted += 1
    assert counts["band"] >= 10 and counts["dual"] >= 10
    print(
        f"\nPASS criterion 7: numeric series vs direct cell quadrature, 20 draws "
        f"({attempts} attempted), worst |diff| = {worst['numeric']:.2e} <= 1e-6; "
        f"band series {worst['band']:.2e} on {counts['band']}, "
        f"dual series {worst['dual']:.2e} on {counts['dual']}"
    )


def test_criterion_08_squared_prefactor_identity():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        r_a, r_b = rng.uniform(0.0, 5.0, size=2)
        phi_a, phi_b, dth = rng.uniform(-math.pi, math.pi, size=3)
        spec = TransitionSpec(
            a=SqueezeParams(r_a, phi_a, dth), b=SqueezeParams(r_b, phi_b, 0.0)
        )
        xi = xi_matrix(spec)
        t_a, t_b = math.tanh(r_a), math.tanh(r_b)
        # Every Gaussian layer of the two-time reduction must cancel for
        # this product to telescope back to the bare normalization.
        lhs = (
            xi_determinant(xi)
            * passive_block_determinant(spec)
            * math.pi**4
            * math.cosh(r_a) ** 4
            * math.cosh(r_b) ** 4
            * (1.0 - cmath.exp(4j * phi_a) * t_a * t_a)
            * (1.0 - cmath.exp(-4j * phi_b) * t_b * t_b)
            * build_M(spec).determinant()
        )
        residual = abs(lhs / (16.0 * math.pi**4) - 1.0)
        worst = max(worst, residual)
        assert residual <= 1e-8
    print(
        f"\nPASS criterion 8: squared prefactor identity, 100 draws, worst "
        f"relative residual {worst:.2e} <= 1e-8"
    )


def test_criterion_09_deep_squeeze_closed_form_laws():
    # Affine law: with phi_b = phi_a + dtheta + n pi the wide-bin deep
    # squeeze correlator is exactly 1 - (2/pi)|2 phi_a + dtheta|.
    worst_affine = 0.0
    for phi_a, dth, n in [
        (0.3, -0.2, 0), (-0.35, 0.8, 1), (0.2, 0.45, -1), (-0.05, -0.6, 0)
    ]:
        s = 2.0 * phi_a + dth
        val = correlator_large_ell_large_squeeze(
            phi_a, phi_a + dth + n * math.pi, dth
        ).value
        worst_affine = max(worst_affine, abs(val - (1.0 - (2.0 / math.pi) * abs(s))))
    assert worst_affine <= 1e-9

    # Square-root cusp: along phi_b = -phi_a the deviation from maximal
    # correlation grows as phi_a^(1/2); fit the exponent on a decade span.
    phis = np.geomspace(1e-5, 1e-3, 7)
    devs = np.array(
        [1.0 - correlator_large_ell_large_squeeze(p, -p, 0.0).value for p in phis]
    )
    slope = float(np.polyfit(np.log(phis), np.log(devs), 1)[0])
    assert slope == pytest.approx(0.50, abs=0.02)

    # Translation property: a quarter-turn of both squeeze phases maps the
    # whole angle map onto its negative.
    worst_shift = 0.0
    for phi_a, phi_b, dth in [(0.2, -0.3, 0.5), (-0.8, 0.4, -1.1), (0.05, 1.2, 2.0)]:
        base = correlator_large_ell_large_squeeze(phi_a, phi_b, dth).value
        moved = correlator_large_ell_large_squeeze(
            phi_a + math.pi / 2.0, phi_b + math.pi / 2.0, dth
        ).value
        worst_shift = max(worst_shift, abs(moved + base))
    assert worst_shift <= 1e-12
    print(
        f"\nPASS criterion 9: affine law to {worst_affine:.1e} <= 1e-9, cusp "
        f"exponent {slope:.4f} = 0.50 +/- 0.02, quarter-turn antisymmetry to "
        f"{worst_shift:.1e} <= 1e-12"
    )


def test_criterion_10_property_suites():
    radius = st.floats(min_value=0.0, max_value=4.0)
    angle = st.floats(min_value=-math.pi, max_value=math.pi)

    @given(r_a=radius, r_b=radius, phi_a=angle, phi_b=angle, dth=angle)
    def convergence_conditions_hold(r_a, r_b, phi_a, phi_b, dth):
        spec = TransitionSpec(
            a=SqueezeParams(r_a, phi_a, dth), b=SqueezeParams(r_b, phi_b, 0.0)
        )
        xi = xi_matrix(spec)
        assert all(d < 0.0 and math.isfinite(d) for d in convergence_conditions(xi))

    @given(r_a=radius, r_b=radius, phi_a=angle, phi_b=angle, dth=angle,
           ell=st.floats(min_value=0.1, max_value=5.0))
    def exchange_symmetric(r_a, r_b, phi_a, phi_b, dth, ell):
        spec = TransitionSpec(
            a=SqueezeParams(r_a, phi_a, dth), b=SqueezeParams(r_b, phi_b, 0.0)
        )
        swapped = TransitionSpec(a=spec.b, b=spec.a)
        assert correlator_large_ell(spec).value == pytest.approx(
            correlator_large_ell(swapped).value, abs=1e-9
        )
        assert correlator_small_ell(spec, ell).value == pytest.approx(
            correlator_small_ell(swapped, ell).value, abs=1e-9
        )

    @given(r_a=radius, r_b=radius, phi_a=angle, phi_b=angle, dth=angle,
           shift=angle)
    def only_the_rotation_difference_matters(r_a, r_b, phi_a, phi_b, dth, shift):
        base = TransitionSpec(
            a=SqueezeParams(r_a, phi_a, dth), b=SqueezeParams(r_b, phi_b, 0.0)
        )
        moved = TransitionSpec(
            a=SqueezeParams(r_a, phi_a, dth + shift),
            b=SqueezeParams(r_b, phi_b, shift),
        )
        assert correlator_large_ell(base).value == pytest.approx(
            correlator_large_ell(moved).value, abs=1e-9
        )

    @given(r_a=radius, r_b=radius, phi_a=angle, phi_b=angle, dth=angle,
           ell=st.floats(min_value=0.1, max_value=5.0))
    def physical_range(r_a, r_b, phi_a, phi_b, dth, ell):
        spec = TransitionSpec(
            a=SqueezeParams(r_a, phi_a, dth), b=SqueezeParams(r_b, phi_b, 0.0)
        )
        assert abs(correlator_large_ell(spec).value) <= 1.0 + 1e-9
        assert abs(correlator_small_ell(spec, ell).value) <= 1.0 + 1e-9

    @given(
        ar=st.floats(min_value=0.3, max_value=3.0),
        ai=st.floats(min_value=-1.0, max_value=1.0),
        cr=st.floats(min_value=0.3, max_value=3.0),
        ci=st.floats(min_value=-1.0, max_value=1.0),
        br=st.floats(min_value=-0.4, max_value=0.4),
        bi=st.floats(min_value=-0.4, max_value=0.4),
    )
    def quadrants_sum_to_full_plane(ar, ai, cr, ci, br, bi):
        a, b, c = complex(ar, ai), complex(br, bi), complex(cr, ci)
        try:
            total = sum(quadrant_gaussian(a, b, c, q) for q in ("PP", "MP", "PM", "MM"))
        except QuadrantConditionError:
            assume(False)
        full = math.pi / principal_sqrt(a * c - b * b)
        assert abs(total - full) <= 1e-10 * abs(full)

    convergence_conditions_hold()
    exchange_symmetric()
    only_the_rotation_difference_matters()
    physical_range()
    quadrants_sum_to_full_plane()
    print(
        "\nPASS criterion 10: convergence conditions, exchange symmetry, "
        "rotation-difference dependence, range bound, quadrant sum (50 "
        "random draws each)"
    )
