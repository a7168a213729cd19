"""The benchmark's tracer finds every program name it wraps, on the call path.

``perfbench/tracing.py`` times the program's layers by replacing module
attributes (``bell.evaluate_key``, ``kernel._xi_extended`` and so on). A
refactor that drops or renames one breaks the traced benchmark run; this
test installs the tracer, drives each wrapped layer once and undoes it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from squeezebell import bell, cli, evaluators, kernel, oracle
from squeezebell.evaluators import EvaluationSettings
from squeezebell.state import SqueezeParams

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (bell, cli, evaluators, kernel, oracle)


@pytest.fixture
def tracing():
    # Registered under a name of its own so that pool workers can find the
    # wrapped task function by reference.
    name = "perfbench_tracing"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def _drive(capsys):
    # Bins far wider than the state put every leg on the band series, the
    # route that goes to the pool, so the pool's task layer is reached.
    def mode(theta):
        return SqueezeParams(1.0, 0.0, theta)

    grid = bell.SweepGrid(
        fixed=bell.BellConfig(
            a=mode(0.3), a_prime=mode(0.5), b=mode(0.0), b_prime=mode(-0.5),
            settings=EvaluationSettings(ell=1.0), method="numeric",
        ),
        axis1=("ell", 200.0, 400.0, 3),
        axis2=("dtheta_apb", 0.2, 1.2, 3),
    )
    bell.find_max(grid, bell.sweep_map(grid, workers=2), workers=2)
    flags = ["--ra", "1.2", "--phia", "0.1", "--rb", "0.9", "--dtheta", "0.3", "--ell", "2"]
    for method in ("numeric", "oracle", "large-squeeze", "small-ell"):
        assert cli.run(["correlator", *flags, "--method", method]) == 0
    assert cli.run(["correlator", "--ra", "1", "--ell", "1", "--method", "equal-time"]) == 0
    assert cli.run(["correlator", "--ra", "5", "--dtheta", "1", "--ell", "100", "--method", "large-ell"]) == 0
    capsys.readouterr()


def test_install_drive_and_undo(tracing, capsys):
    before = {m: dict(vars(m)) for m in MODULES}
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        _drive(capsys)
    finally:
        undo()
    for module, names in before.items():
        assert all(getattr(module, k) is v for k, v in names.items()), module.__name__
    for layer in (
        "cli.run", "bell.sweep_map", "bell.find_max", "bell.node_keys", "bell.pool",
        "bell.pool.task", "bell.evaluate_key", "bell.evaluate_pair",
        "evaluators.numeric", "evaluators.equal_time", "evaluators.closed_form",
        "kernel.xi", "quadrature.adaptive_1d", "oracle",
    ):
        assert tracer.calls[layer] > 0, layer
    assert tracer.counts["bell.refine.probes"] > 0
    assert tracer.counts["bell.unique_keys"] > 0
