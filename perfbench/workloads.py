"""The three workloads: what one round does, its warm-up and its checks.

Calls go through module attributes (``bell.sweep_map``, ``cli.run``) so
that the traced run can wrap them from outside the program.
"""

from __future__ import annotations

import contextlib
import io
import math
import resource
import time
from dataclasses import dataclass, field

import checks
import inputs
import stats
from squeezebell import bell, cli, evaluators, state

WORKLOADS = ("chsh_finite_bin", "chsh_sign_limit", "points")


def cpu_seconds() -> float:
    """User and system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    attempted: int
    stages: dict[str, float] = field(default_factory=dict)
    call_s: list[float] = field(default_factory=list)
    pending: list = field(default_factory=list)
    tracer: object = None


class ChshWorkload:
    """One round sweeps the CHSH map with a pool and refines its maximum."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.layout = inputs.chsh_layout(name, seed)
        lay = self.layout
        side = state.SqueezeParams(r=lay.r, varphi=0.0, theta=0.0)
        fixed = bell.BellConfig(
            a=side, a_prime=side, b=side, b_prime=side,
            settings=evaluators.EvaluationSettings(ell=lay.ell),
            method=lay.method,
        )
        self.grid = bell.SweepGrid(
            fixed=fixed,
            axis1=("dtheta_apbp", -math.pi, math.pi, lay.n),
            axis2=("dtheta_apb", -math.pi, math.pi, lay.n),
        )

    def warm_up(self) -> None:
        # One leg per evaluator the sweep uses: a coincident leg and a
        # generic r = 5, phi = 0 leg, which takes the extended-precision Xi.
        settings = self.grid.fixed.settings
        lay = self.layout
        for dtheta in (0.0, 1.0):
            bell.evaluate_key((lay.r, 0.0, lay.r, 0.0, dtheta, lay.ell), lay.method, settings)

    def run_round(self) -> Round:
        c0, t0 = cpu_seconds(), time.perf_counter()
        sweep = bell.sweep_map(self.grid, workers=self.layout.workers)
        t1 = time.perf_counter()
        best = bell.find_max(self.grid, sweep, workers=self.layout.workers)
        t2 = time.perf_counter()
        c1 = cpu_seconds()
        grid_best = sweep.max_node()[0]
        return Round(
            wall_s=t2 - t0,
            cpu_s=c1 - c0,
            attempted=2,
            stages={"map_s": t1 - t0, "refine_s": t2 - t1},
            pending=[(sweep.values, grid_best, best.value)],
        )

    @property
    def workers(self) -> int:
        return self.layout.workers

    def check(self, rnd: Round) -> tuple[int, int, list[str]]:
        """(failed operations, of which unexpected, problems) of one round."""
        check = checks.check_finite_bin if self.name == "chsh_finite_bin" else checks.check_sign_limit
        problems = check(*rnd.pending[0])
        failed = rnd.attempted if problems else 0
        return failed, failed, problems

    def reference_metrics(self, rounds: list[Round]) -> dict[str, dict]:
        return {
            name: {"value": stats.median([r.stages[name] for r in rounds]), "unit": "s"}
            for name in ("map_s", "refine_s")
        }

    def describe(self, rounds: list[Round]) -> dict[str, float]:
        _, grid_best, refined = rounds[-1].pending[0]
        return {"grid_best": grid_best, "refined": refined}


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


# Per round: how many calls get the costlier checks. The round order is a
# seeded permutation, so taking the first ones in order is a seeded subset.
ORACLE_CHECKS = 3
IDENTITY_CHECKS = 2


class PointsWorkload:
    """One round is a seeded mix of single correlator calls through the CLI,
    made one after another in this process."""

    workers = 1

    def __init__(self, name: str, seed: int):
        self.name = name
        self.stream = inputs.PointStream(seed)

    def warm_up(self) -> None:
        for kind in ("moderate", "coincident", "numeric", "small-ell", "large-ell", "large-squeeze", "oracle"):
            call = inputs.warm_up_call(kind)
            call_cli(call.argv())

    def run_round(self) -> Round:
        calls = self.stream.next_round()
        outcomes = []
        times = []
        c0, t0 = cpu_seconds(), time.perf_counter()
        for call in calls:
            s = time.perf_counter()
            outcome = call_cli(call.argv())
            times.append(time.perf_counter() - s)
            outcomes.append(outcome)
        t1 = time.perf_counter()
        c1 = cpu_seconds()
        return Round(
            wall_s=t1 - t0,
            cpu_s=c1 - c0,
            attempted=len(calls),
            call_s=times,
            pending=list(zip(calls, outcomes)),
        )

    def check(self, rnd: Round) -> tuple[int, int, list[str]]:
        failed = unexpected = 0
        problems: list[str] = []
        oracle_left, identity_left = ORACLE_CHECKS, IDENTITY_CHECKS
        for call, (code, out, err) in rnd.pending:
            found = []
            if code != 0:
                found.append(f"exit {code}: {err.strip()}")
            else:
                value = float(out)
                found += checks.check_bounded(value)
                found += _kind_checks(call, value)
                if call.kind in ("moderate", "numeric") and oracle_left > 0:
                    oracle_left -= 1
                    found += _oracle_check(call, value)
                if call.kind != "fault" and identity_left > 0:
                    identity_left -= 1
                    found += _identity_checks(call, value)
            if found:
                failed += 1
                unexpected += call.kind != "fault"
                label = "fault call" if call.kind == "fault" else "UNEXPECTED"
                problems.append(f"{label} {call}: " + "; ".join(found))
        return failed, unexpected, problems

    def reference_metrics(self, rounds: list[Round]) -> dict[str, dict]:
        times = [t for r in rounds for t in r.call_s]
        out = {"call_p50_ms": {"value": 1e3 * stats.median(times), "unit": "ms"}}
        tail = stats.tail_percentile(times)
        if tail is not None:
            pct, value, beyond = tail
            out["call_tail_ms"] = {
                "value": 1e3 * value, "unit": "ms",
                "note": f"p{pct:.2f} of {len(times)} calls, {beyond} beyond",
            }
        return out

    def describe(self, rounds: list[Round]) -> dict[str, float]:
        return {"fault_calls": [c.argv() for c in inputs.FAULT_CALLS]}


def _kind_checks(call: inputs.Call, value: float) -> list[str]:
    if call.kind in ("deep", "large-ell", "fault"):
        return checks.check_near_limit(value, min(call.ra, call.rb), call.phia, call.phib, call.dtheta)
    if call.kind == "large-squeeze":
        limit = checks.large_squeeze_limit(call.phia, call.phib, call.dtheta)
        return checks.check_close(value, limit, checks.IDENTITY_TOL, "the r -> inf formula")
    if call.kind == "coincident":
        ref = checks.equal_time_reference(call.ra, call.phia, call.ell)
        return checks.check_close(value, ref, checks.EQUAL_TIME_TOL, "the bivariate-normal cell sum")
    return []


def _oracle_check(call: inputs.Call, value: float) -> list[str]:
    from squeezebell.errors import BudgetExceededError
    from squeezebell.oracle import correlator_quadrature

    spec = state.TransitionSpec(
        a=state.SqueezeParams(call.ra, call.phia, call.dtheta),
        b=state.SqueezeParams(call.rb, call.phib, 0.0),
    )
    try:
        ref = correlator_quadrature(spec, call.ell)
    except BudgetExceededError:
        return []
    return checks.check_close(value, ref, checks.ORACLE_TOL, "the cell oracle")


def _identity_checks(call: inputs.Call, value: float) -> list[str]:
    """E(dtheta + pi) = -E(dtheta) and E(a, b) = E(b, a) at -dtheta."""
    found = []
    shifted = inputs.Call(call.kind, call.method, call.ra, call.phia, call.rb, call.phib,
                          call.dtheta + math.pi, call.ell)
    swapped = inputs.Call(call.kind, call.method, call.rb, call.phib, call.ra, call.phia,
                          -call.dtheta, call.ell)
    for other, sign, what in ((shifted, -1.0, "-E(dtheta + pi)"), (swapped, 1.0, "E(b, a, -dtheta)")):
        code, out, err = call_cli(other.argv())
        if code != 0:
            found.append(f"{what}: exit {code}: {err.strip()}")
        else:
            found += checks.check_close(value, sign * float(out), checks.IDENTITY_TOL, what)
    return found


def make(name: str, seed: int):
    if name == "points":
        return PointsWorkload(name, seed)
    return ChshWorkload(name, seed)
