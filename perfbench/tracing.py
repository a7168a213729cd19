"""Spans and counters timed from outside the program.

``install`` replaces module attributes of the program with timing
wrappers. Modules import functions by name, so each function is replaced
wherever it is looked up (``xi_matrix`` in ``kernel``, ``evaluators`` and
``oracle``; the ``correlator_*`` names bound in ``bell``). Pool workers
are forked while the wrappers are in place; each task sends its own
counters back attached to its result, and the parent adds them up.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict

from squeezebell import bell, cli, evaluators, kernel, oracle

_CLOSED_FORMS = ("correlator_small_ell", "correlator_large_ell", "correlator_large_ell_large_squeeze")


class Tracer:
    """Calls and seconds per layer, counts, and the spans of this process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.cli_self_s: list[float] = []
        self.refine_keys: set = set()
        self.phase = ""
        self.pool_end = 0.0
        # (name, parent span index or -1, start, end), main process only
        self.spans: list[tuple[str, int, float, float]] = []
        self._stack: list[list] = []  # [span index, child seconds]

    def timed(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            in_main = os.getpid() == self.pid
            frame = [-1, 0.0]
            if in_main:
                frame[0] = len(self.spans)
                parent = self._stack[-1][0] if self._stack else -1
                self.spans.append((name, parent, 0.0, 0.0))
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                if in_main:
                    self.spans[frame[0]] = (name, self.spans[frame[0]][1], start, end)
            self.calls[name] += 1
            self.seconds[name] += end - start
            if after is not None:
                after(self, args, result, end - start, frame[1])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def snapshot(self) -> dict[str, float]:
        flat = {f"n:{k}": float(v) for k, v in self.calls.items()}
        flat.update({f"s:{k}": v for k, v in self.seconds.items()})
        flat.update({f"c:{k}": v for k, v in self.counts.items()})
        return flat

    def merge(self, delta: dict[str, float]) -> None:
        for key, value in delta.items():
            kind, name = key.split(":", 1)
            if kind == "n":
                self.calls[name] += int(value)
            elif kind == "s":
                self.seconds[name] += value
            else:
                self.counts[name] += value


class _Traced(tuple):
    """A task result that carries the worker's counters for that task."""


_TRACER: Tracer | None = None
_ORIGINAL_TASK = bell._evaluate_key_task


def _traced_task(args):
    if _TRACER is None:  # a worker started without the parent's memory
        install(Tracer())
    before = _TRACER.snapshot()
    result = _TRACER.timed("bell.pool.task", _ORIGINAL_TASK)(args)
    after = _TRACER.snapshot()
    out = _Traced(result)
    out.stats = {k: v - before.get(k, 0.0) for k, v in after.items() if v != before.get(k, 0.0)}
    return out


# --- hooks run after a wrapped call ------------------------------------


def _after_cli(tr: Tracer, args, result, dt, child):
    tr.cli_self_s.append(dt - child)


def _after_node_keys(tr: Tracer, args, keys, dt, child):
    if tr.phase == "sweep":
        tr.counts["bell.nodes"] += 1
        tr.counts["bell.leg_slots"] += len(keys)
        tr.seconds["bell.key_build"] += dt
    elif tr.phase == "refine":
        tr.counts["bell.refine.probes"] += 1


def _after_evaluate_key(tr: Tracer, args, result, dt, child):
    if tr.phase == "refine" and os.getpid() == tr.pid:
        tr.counts["bell.refine.leg_calls"] += 1
        tr.refine_keys.add(args[0])


def _after_unique(tr: Tracer, args, table, dt, child):
    tr.counts["bell.unique_keys"] += len(args[0])
    for value in table.values():
        stats = getattr(value, "stats", None)
        if stats:
            tr.merge(stats)
    tr.pool_end = time.perf_counter()


def _after_sweep(tr: Tracer, args, result, dt, child):
    tr.seconds["bell.assemble"] += time.perf_counter() - tr.pool_end


def _after_pair(tr: Tracer, args, result, dt, child):
    if result.degenerate_path:
        tr.counts["evaluators.degenerate_path"] += 1


def _after_numeric(tr: Tracer, args, result, dt, child):
    tr.counts["evaluators.numeric.bands"] += result.n_bands_used
    tr.counts["evaluators.numeric.series_terms"] += result.series_terms_used


def _counting_adaptive(tr: Tracer, fn):
    def adaptive_1d(f, *args, **kwargs):
        def integrand(y):
            tr.calls["quadrature.integrand"] += 1
            tr.counts["quadrature.integrand.points"] += len(y)
            return f(y)

        return fn(integrand, *args, **kwargs)

    return tr.timed("quadrature.adaptive_1d", adaptive_1d)


def _phase(tr: Tracer, name: str, label: str, fn, after=None):
    inner = tr.timed(name, fn, after)

    def wrapper(*args, **kwargs):
        outer, tr.phase = tr.phase, label
        try:
            return inner(*args, **kwargs)
        finally:
            tr.phase = outer

    return wrapper


def install(tr: Tracer):
    """Wrap the program's layer entry points; returns a function that undoes it."""
    global _TRACER
    _TRACER = tr
    saved = []

    def put(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    xi = tr.timed("kernel.xi", kernel.xi_matrix)
    for module in (kernel, evaluators, oracle):
        put(module, "xi_matrix", xi)
    put(kernel, "_xi_extended", tr.timed("kernel.xi_extended", kernel._xi_extended))
    numeric = tr.timed("evaluators.numeric", evaluators.correlator_numeric, _after_numeric)
    equal_time = tr.timed("evaluators.equal_time", evaluators.correlator_equal_time)
    closed = {name: tr.timed("evaluators.closed_form", getattr(evaluators, name)) for name in _CLOSED_FORMS}
    for module in (evaluators, bell):
        put(module, "correlator_numeric", numeric)
        put(module, "correlator_equal_time", equal_time)
        for name, wrapper in closed.items():
            put(module, name, wrapper)
    put(evaluators, "adaptive_1d", _counting_adaptive(tr, evaluators.adaptive_1d))
    put(oracle, "correlator_quadrature", tr.timed("oracle", oracle.correlator_quadrature))

    put(bell, "_evaluate_pair", tr.timed("bell.evaluate_pair", bell._evaluate_pair, _after_pair))
    key = tr.timed("bell.evaluate_key", bell.evaluate_key, _after_evaluate_key)
    for module in (bell, cli):
        put(module, "evaluate_key", key)
    put(bell, "_node_keys", tr.timed("bell.node_keys", bell._node_keys, _after_node_keys))
    put(bell, "_evaluate_unique", tr.timed("bell.pool", bell._evaluate_unique, _after_unique))
    put(bell, "_evaluate_key_task", _traced_task)
    sweep = _phase(tr, "bell.sweep_map", "sweep", bell.sweep_map, _after_sweep)
    refine = _phase(tr, "bell.find_max", "refine", bell.find_max)
    for module in (bell, cli):
        put(module, "sweep_map", sweep)
        put(module, "find_max", refine)
    put(cli, "run", tr.timed("cli.run", cli.run, _after_cli))

    def undo():
        global _TRACER
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)
        _TRACER = None

    return undo


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def layer_metrics(tr: Tracer, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    Times are seconds spent in the layer during the round. Layers that run
    in pool workers are summed over the workers. A layer that did no work
    reads 0, and so does a ratio whose base is zero.
    """
    n, s, c = tr.calls, tr.seconds, tr.counts
    pool_s = s["bell.pool"]
    busy_s = s["bell.pool.task"]
    self_ms = 1e3 * statistics.median(tr.cli_self_s) if tr.cli_self_s else 0.0
    return {
        "cli.calls": n["cli.run"],
        "cli.self_ms": self_ms,
        "bell.nodes": c["bell.nodes"],
        "bell.leg_slots": c["bell.leg_slots"],
        "bell.unique_keys": c["bell.unique_keys"],
        "bell.dedup_ratio": _ratio(c["bell.unique_keys"], c["bell.leg_slots"]),
        "bell.key_build_s": s["bell.key_build"],
        "bell.assemble_s": s["bell.assemble"],
        "bell.pool.wall_s": pool_s,
        "bell.pool.busy_s": busy_s,
        "bell.pool.efficiency": _ratio(busy_s, pool_s * workers),
        "bell.refine.probes": c["bell.refine.probes"],
        "bell.refine.leg_calls": c["bell.refine.leg_calls"],
        "bell.refine.unique_legs": len(tr.refine_keys),
        "bell.refine.repeat_ratio": _ratio(len(tr.refine_keys), c["bell.refine.leg_calls"]),
        "evaluators.numeric.calls": n["evaluators.numeric"],
        "evaluators.numeric.s": s["evaluators.numeric"],
        "evaluators.numeric.bands": c["evaluators.numeric.bands"],
        "evaluators.numeric.series_terms": c["evaluators.numeric.series_terms"],
        "evaluators.equal_time.calls": n["evaluators.equal_time"],
        "evaluators.equal_time.s": s["evaluators.equal_time"],
        "evaluators.closed_form.calls": n["evaluators.closed_form"],
        "evaluators.closed_form.s": s["evaluators.closed_form"],
        "evaluators.degenerate_path": c["evaluators.degenerate_path"],
        "kernel.xi.calls": n["kernel.xi"],
        "kernel.xi.s": s["kernel.xi"],
        "kernel.xi_extended.calls": n["kernel.xi_extended"],
        "kernel.xi_extended.s": s["kernel.xi_extended"],
        "quadrature.adaptive_1d.calls": n["quadrature.adaptive_1d"],
        "quadrature.adaptive_1d.s": s["quadrature.adaptive_1d"],
        "quadrature.integrand.calls": n["quadrature.integrand"],
        "quadrature.integrand.points": c["quadrature.integrand.points"],
        "quadrature.points_per_call": _ratio(c["quadrature.integrand.points"], n["quadrature.integrand"]),
        "oracle.calls": n["oracle"],
        "oracle.s": s["oracle"],
    }
