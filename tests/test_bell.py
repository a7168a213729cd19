"""CHSH assembly, parameter sweeps, and maximum refinement."""

import hashlib
import math
import multiprocessing
import re
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from reference_forms import wide_bin_reference
from squeezebell import bell
from squeezebell.bell import (
    AXIS_SELECTORS,
    CIRELSON_BOUND,
    BellConfig,
    SweepGrid,
    _resolve_workers,
    bell_operator,
    evaluate_key,
    find_max,
    leg_key,
    sweep_map,
)
from squeezebell.errors import SqueezeBellError
from squeezebell.evaluators import (
    EvaluationSettings,
    band_series_value,
    correlator_auto,
    correlator_numeric,
    numeric_series,
)
from squeezebell.kernel import xi_matrix
from squeezebell.state import SqueezeParams, TransitionSpec

SETTINGS = EvaluationSettings(ell=2.0)


def _theta_config(r, th_a, th_ap, th_b, th_bp, *, phi=0.0, method="auto", ell=2.0):
    return BellConfig(
        a=SqueezeParams(r, phi, th_a),
        a_prime=SqueezeParams(r, phi, th_ap),
        b=SqueezeParams(r, phi, th_b),
        b_prime=SqueezeParams(r, phi, th_bp),
        settings=EvaluationSettings(ell=ell),
        method=method,
    )


class TestBellConfig:
    def test_valid_construction(self):
        cfg = _theta_config(1.0, 0.4, 0.8, 0.0, 1.2)
        assert cfg.method == "auto"

    def test_closure_guard_trips_on_catastrophic_angles(self):
        # Absolute angles always telescope exactly in real arithmetic; only
        # magnitudes large enough to shred the differences in float can
        # violate closure, and those must be refused.
        with pytest.raises(ValueError, match="closure"):
            BellConfig(
                a=SqueezeParams(1.0, 0.0, 1e9 + 0.3),
                a_prime=SqueezeParams(1.0, 0.0, 0.7),
                b=SqueezeParams(1.0, 0.0, 1e-9),
                b_prime=SqueezeParams(1.0, 0.0, 3e8 + 0.1),
                settings=SETTINGS,
            )


class TestBellOperator:
    def test_degenerate_settings_give_twice_correlator(self):
        a = SqueezeParams(1.0, 0.0, 0.4)
        b = SqueezeParams(1.0, 0.0, 0.0)
        cfg = BellConfig(a=a, a_prime=a, b=b, b_prime=b, settings=SETTINGS)
        value = bell_operator(cfg)
        e = correlator_auto(TransitionSpec(a=a, b=b), SETTINGS).value
        assert value == pytest.approx(2.0 * e, rel=1e-14)

    def test_global_rotation_invariance(self):
        base = _theta_config(1.2, 0.0, math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0)
        shift = 0.7
        moved = _theta_config(
            1.2, shift, math.pi / 2.0 + shift, math.pi / 4.0 + shift, -math.pi / 4.0 + shift
        )
        assert bell_operator(moved) == pytest.approx(bell_operator(base), abs=1e-12)

    @pytest.mark.parametrize(
        "thetas",
        [
            (0.0, math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0),
            (0.3, 1.1, -0.4, 0.9),
            (0.0, 0.8, 0.4, 1.6),
        ],
    )
    def test_quantum_bound_respected(self, thetas):
        cfg = _theta_config(1.5, *thetas, ell=3.0)
        assert abs(bell_operator(cfg)) <= CIRELSON_BOUND + 1e-9

    def test_equals_sweep_node(self):
        cfg = _theta_config(1.5, 0.0, 0.8, 0.4, 1.6, ell=3.0)
        grid = SweepGrid(
            fixed=cfg,
            axis1=("dtheta_apb", -2.0, 0.4, 3),
            axis2=("dtheta_abp", -1.6, 1.0, 3),
        )
        sweep = sweep_map(grid, workers=1)
        # Node (2, 0) sets theta_a' - theta_b = 0.4 and theta_a - theta_b' = -1.6,
        # which are the config's own settings.
        assert bell_operator(cfg) == sweep.values[2, 0]

    def test_failed_leg_is_reported(self):
        # Forced equal-time evaluates the coincident (a, b) leg but refuses
        # the other three; the failure must surface, not silently NaN.
        cfg = _theta_config(1.0, 0.0, 0.8, 0.0, 1.2, method="equal-time")
        with pytest.raises(SqueezeBellError, match="correlator leg failed"):
            bell_operator(cfg)


class TestEvaluateKey:
    def test_error_becomes_flagged_nan(self):
        # r_a + r_b = 400 takes the reduced form past double precision.
        key = (200.0, 0.2, 200.0, 0.2, 0.5, 1.0)
        value, method, flag = evaluate_key(key, "numeric", SETTINGS)
        assert math.isnan(value)
        assert method == "numeric"
        assert flag.startswith("ComplexOverflowError: ")

    def test_success_has_empty_or_note_flag(self):
        key = (1.0, 0.2, 0.8, -0.1, 0.5, 1.0)
        value, method, flag = evaluate_key(key, "auto", SETTINGS)
        assert math.isfinite(value)
        assert method in ("numeric", "small-ell", "large-ell", "equal-time")

    @pytest.mark.parametrize("method", ["large-squeeze", "oracle"])
    def test_half_turn_negates_every_method(self, method):
        # 0.5 + pi folds back to exactly 0.5, so the fold makes the two
        # evaluations one and the identity hold to the last bit.
        key = (1.2, 0.1, 0.9, -0.15, 0.5, 2.0)
        value, _, _ = evaluate_key(key, method, SETTINGS)
        flipped, _, _ = evaluate_key(key[:4] + (0.5 + math.pi, 2.0), method, SETTINGS)
        assert math.isfinite(value)
        assert flipped == -value


class TestMethodRegistry:
    def test_readme_lists_the_registry(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `([a-z-]+)` \|", readme, flags=re.MULTILINE)
        assert rows == list(bell.METHODS)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            evaluate_key((1.0, 0.2, 0.8, -0.1, 0.5, 1.0), "bogus", SETTINGS)


class TestSweepGrid:
    def test_selector_vocabulary(self):
        expected = {
            "r", "phi", "ell", "dtheta",
            "dtheta_ab", "dtheta_apb", "dtheta_abp", "dtheta_apbp",
        }
        for side in ("a", "ap", "b", "bp"):
            expected |= {f"r_{side}", f"phi_{side}", f"theta_{side}"}
        assert set(AXIS_SELECTORS) == expected

    def test_unknown_selector_rejected(self):
        cfg = _theta_config(1.0, 0.4, 0.8, 0.0, 1.2)
        with pytest.raises(ValueError, match="unknown axis selector"):
            SweepGrid(fixed=cfg, axis1=("bogus", 0.0, 1.0, 3), axis2=("ell", 1.0, 2.0, 3))

    def test_degenerate_axis_rejected(self):
        cfg = _theta_config(1.0, 0.4, 0.8, 0.0, 1.2)
        with pytest.raises(ValueError):
            SweepGrid(fixed=cfg, axis1=("dtheta", 0.0, 1.0, 1), axis2=("ell", 1.0, 2.0, 3))
        with pytest.raises(ValueError):
            SweepGrid(fixed=cfg, axis1=("ell", 0.0, 1.0, 3), axis2=("ell", 1.0, 2.0, 3))
        with pytest.raises(ValueError):
            SweepGrid(
                fixed=cfg,
                axis1=("dtheta", 0.0, 1.0, 3),
                axis2=("ell", 1.0, 2.0, 3),
                quantity="banana",
            )


class TestSweepMap:
    def _correlator_grid(self):
        cfg = _theta_config(1.0, 0.4, 0.8, 0.0, 1.2)
        return SweepGrid(
            fixed=cfg,
            axis1=("dtheta", 0.2, 1.0, 3),
            axis2=("ell", 1.0, 3.0, 3),
            quantity="correlator",
        )

    def test_matches_pointwise_evaluation(self):
        grid = self._correlator_grid()
        sweep = sweep_map(grid, workers=1)
        for i, dv in enumerate(sweep.x):
            for j, ev in enumerate(sweep.y):
                spec = TransitionSpec(
                    a=SqueezeParams(1.0, 0.0, float(dv)),
                    b=SqueezeParams(1.0, 0.0, 0.0),
                )
                direct = correlator_auto(spec, EvaluationSettings(ell=float(ev))).value
                assert sweep.values[i, j] == direct

    def test_deterministic_across_runs_and_workers(self):
        grid = self._correlator_grid()
        one = sweep_map(grid, workers=1)
        again = sweep_map(grid, workers=1)
        par = sweep_map(grid, workers=2)
        assert np.array_equal(one.values, again.values)
        assert np.array_equal(one.values, par.values)
        assert np.array_equal(one.methods, par.methods)

    def test_failed_nodes_are_flagged_nan(self):
        # Forced equal-time: only the dtheta = 0 nodes are coincident.
        cfg = _theta_config(1.0, 0.0, 0.8, 0.0, 1.2, method="equal-time")
        grid = SweepGrid(
            fixed=cfg,
            axis1=("dtheta", 0.0, 1.0, 3),
            axis2=("ell", 1.0, 2.0, 2),
            quantity="correlator",
        )
        sweep = sweep_map(grid, workers=1)
        assert np.isfinite(sweep.values[0]).all()
        assert np.isnan(sweep.values[1:]).all()
        refusal = "SqueezeBellError: equal-time method requires a coincident transition pair"
        assert all(f == refusal for f in sweep.flags[1:].ravel())

    def test_max_node_ignores_nan(self):
        cfg = _theta_config(1.0, 0.0, 0.8, 0.0, 1.2, method="equal-time")
        grid = SweepGrid(
            fixed=cfg,
            axis1=("dtheta", 0.0, 1.0, 3),
            axis2=("ell", 1.0, 2.0, 2),
            quantity="correlator",
        )
        sweep = sweep_map(grid, workers=1)
        assert np.isnan(sweep.values).any()
        value, i, j = sweep.max_node()
        assert math.isfinite(value)
        assert value == np.nanmax(sweep.values)


class TestFindMax:
    def test_constant_field_cannot_improve(self):
        vac = SqueezeParams(0.0, 0.0, 0.0)
        grid = SweepGrid(
            fixed=BellConfig(
                a=vac, a_prime=vac, b=vac, b_prime=vac,
                settings=SETTINGS, method="large-ell",
            ),
            axis1=("theta_a", 0.0, 1.0, 3),
            axis2=("theta_b", 0.0, 1.0, 3),
            quantity="correlator",
        )
        res = find_max(grid, workers=1)
        assert res.value == res.grid_value == 0.0

    def test_refinement_never_loses_to_grid(self):
        cfg = _theta_config(3.0, 0.0, math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0,
                            method="large-squeeze")
        grid = SweepGrid(
            fixed=cfg,
            axis1=("phi_a", -0.3, 0.3, 3),
            axis2=("phi_b", -0.3, 0.3, 3),
            quantity="bell",
        )
        sweep = sweep_map(grid, workers=1)
        res = find_max(grid, sweep=sweep, workers=1)
        assert res.value >= res.grid_value
        assert res.grid_value == sweep.max_node()[0]
        assert res.n_evaluations > 0

    @staticmethod
    def _large_ell_grid(axis1):
        cfg = _theta_config(1.0, 0.0, 0.5, 0.0, -0.5, method="large-ell", ell=1.0)
        return SweepGrid(fixed=cfg, axis1=axis1, axis2=("dtheta_apb", -1.0, 1.0, 5))

    @pytest.mark.parametrize("axis1", [("r", 0.0, 1.0, 5), ("ell", 0.01, 2.0, 5)])
    def test_stays_inside_scanned_box(self, axis1):
        # Unbounded, the first refined to r = 9.16 and the second stepped
        # to ell < 0 and raised.
        res = find_max(self._large_ell_grid(axis1), workers=1)
        assert axis1[1] <= res.x <= axis1[2]
        assert -1.0 <= res.y <= 1.0
        assert res.value >= res.grid_value

    def test_evaluates_each_new_key_once(self, monkeypatch):
        grid = self._large_ell_grid(("r", 0.0, 1.0, 5))
        sweep = sweep_map(grid, workers=1)
        seen = []
        original = bell.evaluate_key

        def recording(key, method, settings):
            seen.append(key)
            return original(key, method, settings)

        monkeypatch.setattr(bell, "evaluate_key", recording)
        res = find_max(grid, sweep, workers=1)
        assert seen
        assert not set(seen) & set(sweep.table)
        assert len(seen) == len(set(seen)) == res.n_evaluations

    def test_independent_of_worker_count(self):
        grid = self._large_ell_grid(("ell", 0.01, 2.0, 5))
        sweep = sweep_map(grid, workers=1)
        assert find_max(grid, sweep, workers=1) == find_max(grid, sweep, workers=2)


class TestRoundingNextToCoincidence:
    """A leg that rounding leaves next to coincidence is the coincident leg."""

    ONE_ULP = [
        (math.pi, math.nextafter(math.pi, 0.0), 1.0),  # difference ulp(pi)
        (math.nextafter(math.pi, 4.0), 0.0, -1.0),  # a half turn plus ulp(pi)
        (2.0, math.nextafter(2.0, 0.0), 1.0),
    ]

    @pytest.mark.parametrize("th_a, th_b, sign", ONE_ULP)
    def test_coincident_key_and_bits(self, th_a, th_b, sign):
        pa, pb = SqueezeParams(1.0, 0.3, th_a), SqueezeParams(1.0, 0.3, th_b)
        key, got_sign = leg_key(pa, pb, 2.0)
        assert key == (1.0, 0.3, 1.0, 0.3, 0.0, 2.0) and got_sign == sign
        exact = TransitionSpec(a=SqueezeParams(1.0, 0.3, 0.0), b=SqueezeParams(1.0, 0.3, 0.0))
        for method in ("auto", "large-ell"):
            assert evaluate_key(key, method, SETTINGS) == evaluate_key(
                (1.0, 0.3, 1.0, 0.3, 0.0, 2.0), method, SETTINGS
            )
        res = correlator_auto(TransitionSpec(a=pa, b=pb), SETTINGS)
        assert res.method == "equal-time"
        assert res.value == sign * correlator_auto(exact, SETTINGS).value
        assert correlator_numeric(TransitionSpec(a=pa, b=pb), SETTINGS) == res


def _layout_grid(n, method):
    # The benchmark's CHSH layouts: r = 5, phi = 0, ell = 100 on all four
    # settings, both primed differences across [-pi, pi].
    mode = SqueezeParams(5.0, 0.0, 0.0)
    return SweepGrid(
        fixed=BellConfig(
            a=mode, a_prime=mode, b=mode, b_prime=mode,
            settings=EvaluationSettings(ell=100.0), method=method,
        ),
        axis1=("dtheta_apbp", -math.pi, math.pi, n),
        axis2=("dtheta_apb", -math.pi, math.pi, n),
    )


def _rounding_nodes(grid, sweep):
    """Nodes with a leg whose raw angle difference is a few ulp off k pi, not k pi."""
    mask = np.zeros(sweep.values.shape, dtype=bool)
    for i, xv in enumerate(sweep.x):
        for j, yv in enumerate(sweep.y):
            c = bell._node_config(grid, float(xv), float(yv))
            pairs = ((c.a, c.b), (c.a, c.b_prime), (c.a_prime, c.b), (c.a_prime, c.b_prime))
            mask[i, j] = any(
                0.0 < abs(math.remainder(p.theta - q.theta, math.pi)) <= 1e-14 for p, q in pairs
            )
    return mask


@pytest.fixture(scope="class")
def two_worker_sweep():
    """Sweeps a benchmark layout with two workers, once per layout."""
    done = {}

    def sweep(n, method):
        if (n, method) not in done:
            done[n, method] = sweep_map(_layout_grid(n, method), workers=2)
        return done[n, method]

    return sweep


class TestBenchmarkLayouts:
    """The 61x61 ``auto`` and 241x241 ``large-ell`` CHSH maps.

    Every non-coincident ``auto`` key of the 61x61 map takes the Poisson-dual
    series. Its digest, grid maximum, refined value and refinement count
    were recorded when that series replaced the band series there, and each
    of its entries must stay within 1e-13 of the band series on the same key.
    The 241x241 map's were recorded when ``large-ell`` began reading Xi^-1
    instead of Xi (entries moved by at most 4.4e-16, and an ulp-level tie
    moved the grid maximum from node (240, 8)); each of its entries must
    stay within 1e-15 of the same closed form in 50 digits.

    linspace leaves legs at some nodes 4.4e-16 from coincidence. Those legs
    share the coincident key; every other node keeps its value, which the
    sums below pin (recorded before such legs were keyed as coincident).

    The coincident leg E(a, b) is at every node. Its value moved when the
    equal-time path began reading the kernel's closed form instead of the
    tanh-parametrized wavefunction; every other key is bit-identical to
    before, which the digest pins. The map before that change is rebuilt
    from the same memo with the coincident value it had then, and each
    node's change must be the signed sum of its coincident legs' changes.
    """

    CASES = [
        # n, method, unique keys, rounding nodes, digest of the non-coincident
        # memo entries, coincident value before and now, sum over the other
        # nodes before and now, grid maximum and its node, refined maximum,
        # refinement evaluations
        (61, "auto", 161, 27, "ea5b0a64ae7d88358933f3d287e867178b4a8897c7dd8a3a74d16218a5581004",
         (0.999892480581494, 0.9998924738306026), (3703.6017480738537, 3703.601723068552),
         (2.0878084089513615, 1, 2), 2.180295694284695, 97),
        (241, "large-ell", 702, 125, "c4670f2e9cad8867a37b8706b8641dd20311e82cc4b12956c7f68a36149bbf12",
         (0.9999421950146574, 0.999942195014138), (58008.6466171903, 58008.64661716017),
         (1.9998843900282763, 240, 10), 1.9998843900282766, 72),
    ]

    @pytest.mark.parametrize(
        "n, method, keys, rounding, digest, coincident, other_sums, grid_max, refined, evals",
        CASES,
        ids=["61-auto", "241-large-ell"],
    )
    def test_map_and_refinement(
        self, two_worker_sweep, n, method, keys, rounding, digest, coincident, other_sums,
        grid_max, refined, evals,
    ):
        grid = _layout_grid(n, method)
        sweep = two_worker_sweep(n, method)
        assert len(sweep.table) == keys
        assert all(k[4] == 0.0 or abs(k[4]) > 1e-14 for k in sweep.table)
        mask = _rounding_nodes(grid, sweep)
        assert int(mask.sum()) == rounding

        others = sorted(item for item in sweep.table.items() if item[0][4] != 0.0)
        assert hashlib.sha256(repr(others).encode()).hexdigest() == digest
        if method == "auto":
            for k, (value, _, _) in others:
                band = band_series_value(xi_matrix(bell._key_spec(k)), EvaluationSettings(ell=k[5]))[0]
                assert abs(value - band) <= 1e-13, k
        else:
            for (ra, pa, rb, pb, dth, _), (value, _, _) in sweep.table.items():
                ref = wide_bin_reference(ra, rb, pa + pb, dth + pa - pb, 50)
                assert abs(value - ref) <= 1e-15, (ra, pa, rb, pb, dth)
        (key,) = [k for k in sweep.table if k[4] == 0.0]
        before, now = coincident
        assert sweep.table[key][0] == now
        table_before = {**sweep.table, key: (before, *sweep.table[key][1:])}

        legs, slots, signs = bell._gather(
            bell._node_keys(grid, float(xv), float(yv)) for xv in sweep.x for yv in sweep.y
        )

        def assemble(table):
            values = [table[k][0] for k in legs]
            return bell._node_values(values, slots, signs).reshape(sweep.values.shape)

        assert np.array_equal(assemble(sweep.table), sweep.values)
        map_before = assemble(table_before)
        on_key = np.array([k == key for k in legs])[slots]
        legs_moved = ((on_key * signs) @ np.array(bell._CHSH_SIGNS)).reshape(sweep.values.shape)
        assert np.max(np.abs(sweep.values - map_before - legs_moved * (now - before))) <= 1e-15
        for values, pinned in zip((map_before, sweep.values), other_sums):
            assert float(np.sum(values[~mask])) == pytest.approx(pinned, abs=1e-9)

        assert sweep.max_node() == grid_max
        best = find_max(grid, sweep, workers=2)
        assert (best.value, best.n_evaluations) == (refined, evals)

    @pytest.mark.parametrize("n, method", [(61, "auto"), (241, "large-ell")], ids=["61-auto", "241-large-ell"])
    def test_independent_of_worker_count(self, two_worker_sweep, n, method):
        grid = _layout_grid(n, method)
        par = two_worker_sweep(n, method)
        one = sweep_map(grid, workers=1)
        assert np.array_equal(one.values, par.values)
        assert np.array_equal(one.methods, par.methods)
        assert np.array_equal(one.flags, par.flags)
        assert one.table == par.table
        assert find_max(grid, one, workers=1) == find_max(grid, par, workers=2)


def _failing_task(args):
    raise RuntimeError("task failed")


class TestPoolLifetime:
    """Each sweep and each refinement starts at most one process pool, and ends it."""

    @pytest.fixture
    def constructed(self, monkeypatch):
        starts = []

        class Counting(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(bell, "ProcessPoolExecutor", Counting)
        return starts

    @staticmethod
    def _grid():
        # Bins far wider than the state: every leg takes the band series,
        # the one route that goes to the pool here.
        cfg = _theta_config(1.0, 0.3, 0.5, 0.0, -0.5, method="numeric")
        return SweepGrid(fixed=cfg, axis1=("ell", 200.0, 400.0, 3), axis2=("dtheta_apb", 0.2, 1.2, 3))

    def test_one_pool_for_all_refinement_steps(self, constructed):
        grid = self._grid()
        sweep = sweep_map(grid, workers=2)
        assert all(numeric_series(bell._key_spec(k), k[5]) == "band" for k in sweep.table)
        assert constructed == [2]
        res = find_max(grid, sweep, workers=2)
        assert res.n_evaluations >= 2
        assert constructed == [2, 2]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("method, ell", [("large-ell", 1.0), ("numeric", 2.0)])
    def test_cheap_keys_start_no_pool(self, constructed, method, ell):
        # Closed forms, and bins narrow enough for the dual series, run in
        # this process whatever the worker count.
        cfg = _theta_config(1.0, 0.3, 0.5, 0.0, -0.5, method=method)
        grid = SweepGrid(fixed=cfg, axis1=("ell", ell, 2.0 * ell, 3), axis2=("dtheta_apb", 0.2, 1.2, 3))
        sweep = sweep_map(grid, workers=2)
        res = find_max(grid, sweep, workers=2)
        assert res.n_evaluations >= 2
        assert constructed == []
        serial = sweep_map(grid, workers=1)
        assert np.array_equal(serial.values, sweep.values)

    def test_serial_run_starts_no_pool(self, constructed):
        grid = self._grid()
        find_max(grid, sweep_map(grid, workers=1), workers=1)
        assert constructed == []

    def test_pool_ends_when_a_batch_fails(self, monkeypatch):
        monkeypatch.setattr(bell, "_evaluate_key_task", _failing_task)
        with pytest.raises(RuntimeError, match="task failed"):
            sweep_map(self._grid(), workers=2)
        assert multiprocessing.active_children() == []


class TestWorkerResolution:
    def test_explicit_wins(self):
        assert _resolve_workers(2) == 2
        assert _resolve_workers(0) == 1

    def test_environment_default(self, monkeypatch):
        monkeypatch.setenv("SQUEEZEBELL_WORKERS", "3")
        assert _resolve_workers(None) == 3

    def test_fallback_cpu_count(self, monkeypatch):
        monkeypatch.delenv("SQUEEZEBELL_WORKERS", raising=False)
        assert _resolve_workers(None) >= 1
