"""Tests of the benchmark itself: inputs, the tail rule and the checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import stats  # noqa: E402


def _rounds(seed: int, n: int = 3) -> list[list[inputs.Call]]:
    stream = inputs.PointStream(seed)
    return [stream.next_round() for _ in range(n)]


def test_same_seed_gives_same_inputs():
    assert _rounds(5) == _rounds(5)
    for name in inputs.CHSH_GRID:
        assert inputs.chsh_layout(name, 5) == inputs.chsh_layout(name, 5)


def test_other_seed_gives_other_inputs():
    a, b = _rounds(5), _rounds(6)
    seeded = lambda rounds: [c for r in rounds for c in r if c.kind != "fault"]  # noqa: E731
    assert not set(seeded(a)) & set(seeded(b))
    for name in inputs.CHSH_GRID:  # the paper's layouts, fixed on purpose
        assert inputs.chsh_layout(name, 5) == inputs.chsh_layout(name, 6)


def test_every_round_has_the_same_make_up():
    counts = dict(inputs.ROUND_MIX)
    for seed in range(20):
        for rnd in _rounds(seed, 2):
            kinds = [c.kind for c in rnd]
            assert len(rnd) == sum(counts.values()) + len(inputs.FAULT_CALLS)
            assert rnd[-len(inputs.FAULT_CALLS):] == list(inputs.FAULT_CALLS)
            for kind, n in counts.items():
                assert kinds.count(kind) == n


def test_seeded_keys_are_unique_within_a_run():
    calls = [c for r in _rounds(3, 20) for c in r if c.kind != "fault"]
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("n", [40, 41, 57, 100, 999, 1000])
def test_tail_keeps_ten_samples_beyond(n):
    values = list(np.random.default_rng(n).exponential(size=n))
    pct, value, beyond = stats.tail_percentile(values)
    assert beyond >= stats.TAIL_BEYOND
    assert sum(v > value for v in values) >= stats.TAIL_BEYOND
    assert sum(v >= value for v in values) == stats.TAIL_BEYOND + 1
    assert pct == pytest.approx(100.0 * (n - stats.TAIL_BEYOND) / n)


def test_tail_needs_forty_samples():
    assert stats.tail_percentile([1.0] * 39) is None


def test_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 2.5, 3.0, 10.0]
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


def test_finite_bin_check_rejects_shifted_b():
    values = np.full((3, 3), 1.5)
    values[1, 1] = 2.09
    assert checks.check_finite_bin(values, 2.09, 2.1803) == []
    assert checks.check_finite_bin(values, 2.09, 2.1803 + 0.05)
    assert checks.check_finite_bin(values, 2.09, 2.08)  # refinement lost to the grid
    values[0, 0] = math.nan
    assert checks.check_finite_bin(values, 2.09, 2.1803)


def test_sign_limit_check_rejects_violation():
    values = np.full((3, 3), 1.9)
    assert checks.check_sign_limit(values, 1.9, 1.95) == []
    values[2, 2] = 2.01
    assert checks.check_sign_limit(values, 2.01, 2.01)


def test_limit_check_rejects_sign_flip():
    pa, pb, dth = 0.3, -0.7, 1.1
    limit = checks.large_squeeze_limit(pa, pb, dth)
    assert abs(limit) > 0.05
    assert checks.check_near_limit(limit, 5.0, pa, pb, dth) == []
    assert checks.check_near_limit(-limit, 5.0, pa, pb, dth)


def test_limit_check_allows_for_printed_digits():
    # At r = 18 the e^{-2r} bound is far below the CLI's 12 significant
    # digits: the limit itself, as printed, must still pass.
    call = inputs.FAULT_CALLS[3]
    limit = checks.large_squeeze_limit(call.phia, call.phib, call.dtheta)
    assert call.ra == 18.0
    assert checks.check_near_limit(float(f"{limit:.12g}"), call.ra, call.phia, call.phib, call.dtheta) == []
    assert checks.check_near_limit(limit + 1e-9, call.ra, call.phia, call.phib, call.dtheta)


def test_bounded_check():
    assert checks.check_bounded(0.99) == []
    assert checks.check_bounded(1.01)
    assert checks.check_bounded(math.nan)


# The remaining tests run the program from src/.


def test_equal_time_reference_rejects_sign_flip():
    from squeezebell.evaluators import correlator_equal_time
    from squeezebell.state import SqueezeParams

    r, phi, ell = 1.1, 0.4, 3.0
    value = correlator_equal_time(SqueezeParams(r, phi), ell).value
    ref = checks.equal_time_reference(r, phi, ell)
    assert checks.check_close(value, ref, checks.EQUAL_TIME_TOL, "ref") == []
    assert checks.check_close(-value, ref, checks.EQUAL_TIME_TOL, "ref")


def test_identity_and_oracle_checks_reject_wrong_values():
    import workloads

    call = inputs.Call("moderate", "auto", 1.2, 0.1, 0.9, -0.15, 0.3, 2.0)
    code, out, _ = workloads.call_cli(call.argv())
    assert code == 0
    value = float(out)
    assert workloads._identity_checks(call, value) == []
    assert workloads._oracle_check(call, value) == []
    assert workloads._identity_checks(call, -value)
    assert workloads._oracle_check(call, value + 1e-4)


def test_fault_calls_fail_and_seeded_round_passes():
    import workloads

    wl = workloads.make("points", 11)
    rnd = wl.run_round()
    failed, unexpected, problems = wl.check(rnd)
    assert unexpected == 0, problems
    assert failed == len(inputs.FAULT_CALLS)


def test_traced_metrics_match_benchmark_json():
    import json

    import run
    import tracing

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = list(tracing.layer_metrics(tracing.Tracer(), 1))
    names += ["trace.round_s", "trace.overhead_s"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, run._layer_unit(n)) for n in names]
