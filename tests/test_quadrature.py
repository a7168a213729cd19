"""Gauss-Kronrod rule constants and adaptive drivers."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from squeezebell.errors import BudgetExceededError
from squeezebell.quadrature import (
    WG,
    WGK,
    XGK,
    adaptive_1d,
    adaptive_cells_2d,
    geometric_panels,
    gk_nodes,
    gk_segments,
)


class TestRuleConstants:
    def test_gauss_subset_matches_legendre(self):
        # The odd-index Kronrod abscissae must be the 7-point Gauss rule.
        xg, wg = leggauss(7)
        np.testing.assert_allclose(XGK[1::2], xg, atol=1e-14)
        np.testing.assert_allclose(WG, wg, atol=1e-14)

    def test_kronrod_weights_sum_to_length(self):
        assert np.sum(WGK) == pytest.approx(2.0, abs=1e-14)
        assert np.sum(WG) == pytest.approx(2.0, abs=1e-14)

    def test_nodes_symmetric(self):
        np.testing.assert_allclose(XGK, -XGK[::-1], atol=0)
        np.testing.assert_allclose(WGK, WGK[::-1], atol=0)

    @pytest.mark.parametrize("degree", range(0, 23))
    def test_kronrod_polynomial_exactness(self, degree):
        # A 15-point Kronrod extension of Gauss-7 integrates monomials
        # exactly through degree 22 on [-1, 1].
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        approx = float(np.sum(WGK * XGK**degree))
        assert approx == pytest.approx(exact, abs=1e-14)

    @pytest.mark.parametrize("degree", range(0, 14))
    def test_gauss_polynomial_exactness(self, degree):
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        approx = float(np.sum(WG * XGK[1::2] ** degree))
        assert approx == pytest.approx(exact, abs=1e-14)


class TestSegmentBatch:
    def test_nodes_shape_and_range(self):
        a = np.array([0.0, 2.0])
        b = np.array([1.0, 5.0])
        nodes = gk_nodes(a, b)
        assert nodes.shape == (2, 15)
        assert np.all(nodes[0] >= 0.0) and np.all(nodes[0] <= 1.0)
        assert np.all(np.diff(nodes, axis=1) > 0)

    def test_cubic_exact_with_zero_error(self):
        a = np.array([-1.0])
        b = np.array([2.0])
        nodes = gk_nodes(a, b)
        vals = nodes**3
        integral, err = gk_segments(a, b, vals)
        assert integral[0] == pytest.approx((2.0**4 - 1.0) / 4.0, abs=1e-13)
        assert err[0] < 1e-13


class TestGeometricPanels:
    def test_contains_endpoints_and_is_sorted(self):
        edges = geometric_panels(-3.0, 7.0, 0.1)
        assert edges[0] == -3.0 and edges[-1] == 7.0
        assert edges == sorted(edges)

    def test_refines_toward_origin(self):
        edges = np.array(geometric_panels(-8.0, 8.0, 0.05))
        inner = np.diff(edges[(edges >= -0.2) & (edges <= 0.2)])
        outer = np.diff(edges[edges >= 4.0])
        assert inner.max() < outer.min()

    def test_interval_away_from_origin(self):
        edges = geometric_panels(10.0, 30.0, 0.5)
        assert edges[0] == 10.0 and edges[-1] == 30.0

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            geometric_panels(1.0, 1.0, 0.1)


class TestAdaptive1D:
    def test_gaussian_integral(self):
        val, err = adaptive_1d(lambda x: np.exp(-x * x), -8.0, 8.0, rel_tol=1e-12)
        assert val.real == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert abs(val.imag) < 1e-14
        assert err <= 1e-10

    def test_complex_oscillatory(self):
        # int_0^1 exp(10 i x) dx = (exp(10 i) - 1) / (10 i).
        val, _ = adaptive_1d(lambda x: np.exp(10j * x), 0.0, 1.0, rel_tol=1e-12)
        exact = (np.exp(10j) - 1.0) / 10j
        assert abs(val - exact) < 1e-12

    def test_narrow_spike_found_via_breakpoints(self):
        # A spike of width 1e-3 at x = 2 inside a wide interval; the seeded
        # breakpoints let the first pass see it.
        s = 1e-3

        def spike(x):
            return np.exp(-(((x - 2.0) / s) ** 2))

        val, _ = adaptive_1d(
            spike, -50.0, 50.0, rel_tol=1e-10, breakpoints=[1.99, 2.0, 2.01]
        )
        assert val.real == pytest.approx(s * math.sqrt(math.pi), rel=1e-9)

    def test_error_estimate_is_honest(self):
        val, err = adaptive_1d(lambda x: 1.0 / (1.0 + x * x), -1.0, 1.0, rel_tol=1e-11)
        assert abs(val.real - math.pi / 2.0) <= max(err, 1e-13)


class TestAdaptiveCells2D:
    def test_gaussian_plane(self):
        cells = np.array([[-6.0, 0.0, -6.0, 0.0], [0.0, 6.0, -6.0, 0.0],
                          [-6.0, 0.0, 0.0, 6.0], [0.0, 6.0, 0.0, 6.0]])
        val, err, n_done = adaptive_cells_2d(
            lambda x, y: np.exp(-x * x - y * y), cells, tol_rel=1e-12
        )
        assert val.real == pytest.approx(math.pi, rel=1e-11)
        assert n_done >= 4

    def test_complex_integrand(self):
        cells = np.array([[0.0, 1.0, 0.0, 1.0]])
        val, _, _ = adaptive_cells_2d(lambda x, y: np.exp(1j * (x + y)), cells)
        exact = ((np.exp(1j) - 1.0) / 1j) ** 2
        assert abs(val - exact) < 1e-12

    def test_batch_size_changes_only_the_summation_order(self):
        # 100 cells, refined to 217: the same cells are accepted whether
        # they run in one batch or in batches of 7.
        edges = np.linspace(-3.0, 3.0, 11)
        x0, y0 = np.meshgrid(edges[:-1], edges[:-1], indexing="ij")
        cells = np.stack([x0.ravel(), x0.ravel() + 0.6, y0.ravel(), y0.ravel() + 0.6], axis=1)
        f = lambda x, y: np.exp(-8.0 * (x - 0.1) ** 2 - 6.0 * x * y - 8.0 * y * y)
        one = adaptive_cells_2d(f, cells, tol_abs=1e-15, tol_rel=1e-13, batch=len(cells))
        many = adaptive_cells_2d(f, cells, tol_abs=1e-15, tol_rel=1e-13, batch=7)
        assert many[2] == one[2] == 217
        assert many[0] == pytest.approx(one[0], rel=1e-14)
        assert many[1] == pytest.approx(one[1], rel=1e-5)

    def test_bad_cells_shape_rejected(self):
        with pytest.raises(ValueError):
            adaptive_cells_2d(lambda x, y: x + y, np.zeros((3, 3)))

    def test_evaluation_budget_enforced(self):
        cells = np.array([[-6.0, 6.0, -6.0, 6.0]])
        with pytest.raises(BudgetExceededError):
            adaptive_cells_2d(
                lambda x, y: np.exp(-x * x - y * y),
                cells,
                tol_abs=1e-300,
                tol_rel=1e-300,
                max_evaluations=500,
            )
