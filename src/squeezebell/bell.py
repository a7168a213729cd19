"""Temporal CHSH combinations and parameter sweeps.

``bell_operator`` combines four two-time correlators,

    B = E(a, b) + E(a, b') + E(a', b) - E(a', b'),

whose legs share states. Sweeps, refinement, ``bell_operator`` and the CLI
share one engine. ``evaluate`` gives one pair's signed ``CorrelatorResult``
(the CLI's correlator); for the rest each leg becomes a parity-folded key
and a sign, keys a memo lacks are evaluated once each through
``evaluate``, and nodes are summed from the memo in index order, so output
is deterministic and independent of the worker count. Refinement starts
from the sweep's memo.

Keys whose route is a closed form or the Poisson-dual series take
microseconds each and always run in the calling process. Only quadrature
keys, those of the band series, the equal-time path and ``oracle``, go to
a worker pool, so a sweep made only of cheap keys never starts a process.
Each ``sweep_map`` and each ``find_max`` call owns one ``WorkerPool``. Its
process pool starts on the first batch with two or more quadrature keys
and is shut down before the call returns; every later batch of the call,
each refinement step included, reuses it. Quadrature keys run serially
when the pool has one worker or a batch has fewer than two of them.

Per-node failures (a form past double precision, forced ``equal-time``
on a pair that is not coincident, a band series that does not settle)
become NaN entries with a flag string; they never abort a sweep.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import oracle
from .errors import SqueezeBellError
from .evaluators import (
    CorrelatorResult,
    EvaluationSettings,
    _parity_fold,
    _parity_reduce,
    auto_method,
    correlator_auto,
    correlator_equal_time,
    correlator_large_ell,
    correlator_large_ell_large_squeeze,
    correlator_numeric,
    correlator_small_ell,
    numeric_series,
)
from .kernel import is_coincident
from .state import SqueezeParams, TransitionSpec

__all__ = [
    "BellConfig",
    "SweepGrid",
    "SweepResult",
    "MaxResult",
    "bell_operator",
    "sweep_map",
    "find_max",
    "leg_key",
    "evaluate",
    "evaluate_keys",
    "WorkerPool",
    "METHODS",
    "AXIS_SELECTORS",
    "CIRELSON_BOUND",
]

CIRELSON_BOUND = 2.0 * math.sqrt(2.0)

# A correlator key (r_a, phi_a, r_b, phi_b, dtheta, ell); a memo maps keys to (value, method, flag).
_Key = tuple[float, float, float, float, float, float]
_Memo = dict[_Key, tuple[float, str, str]]
_CHSH_SIGNS = (1.0, 1.0, 1.0, -1.0)

# Refinement stops when both steps have halved below this fraction of
# their start, or after this many steps.
_STEP_TOL = 1e-4
_MAX_ITER = 200

_SIDES = ("a", "a_prime", "b", "b_prime")
_SIDE_KEYS = {"a": "a", "ap": "a_prime", "b": "b", "bp": "b_prime"}

# selector -> (rank, handler); ranks order the application so derived
# angle-difference selectors see the absolute angles they depend on.
AXIS_SELECTORS: dict[str, int] = {}
for _short in _SIDE_KEYS:
    AXIS_SELECTORS[f"r_{_short}"] = 0
    AXIS_SELECTORS[f"phi_{_short}"] = 0
    AXIS_SELECTORS[f"theta_{_short}"] = 0
AXIS_SELECTORS["r"] = 0
AXIS_SELECTORS["phi"] = 0
AXIS_SELECTORS["ell"] = 0
AXIS_SELECTORS["dtheta"] = 1
AXIS_SELECTORS["dtheta_ab"] = 1
AXIS_SELECTORS["dtheta_apb"] = 1
AXIS_SELECTORS["dtheta_abp"] = 2
AXIS_SELECTORS["dtheta_apbp"] = 2


@dataclass(frozen=True)
class BellConfig:
    """Four measurement settings plus evaluation policy for one CHSH value."""

    a: SqueezeParams
    a_prime: SqueezeParams
    b: SqueezeParams
    b_prime: SqueezeParams
    settings: EvaluationSettings
    method: str = "auto"

    def __post_init__(self) -> None:
        # The alternating sum of the four leg angle differences telescopes
        # to zero for any four absolute angles; a finite residual means a
        # config was assembled from inconsistent differences.
        residual = (
            (self.a.theta - self.b.theta)
            - (self.a.theta - self.b_prime.theta)
            + (self.a_prime.theta - self.b_prime.theta)
            - (self.a_prime.theta - self.b.theta)
        )
        if abs(residual) > 1e-12:
            raise ValueError(
                f"angle differences violate the four-time closure identity "
                f"(residual {residual:.3e})"
            )


@dataclass(frozen=True)
class SweepGrid:
    """A rectangular scan: two axis selectors applied over a fixed config.

    Each axis is (selector, lo, hi, n) with n uniformly spaced values,
    endpoints included. ``quantity`` is "bell" (CHSH over the four
    settings) or "correlator" (E over the (a, b) pair only).
    """

    fixed: BellConfig
    axis1: tuple[str, float, float, int]
    axis2: tuple[str, float, float, int]
    quantity: str = "bell"

    def __post_init__(self) -> None:
        if self.quantity not in ("bell", "correlator"):
            raise ValueError(f"quantity must be 'bell' or 'correlator', got {self.quantity!r}")
        for axis in (self.axis1, self.axis2):
            sel, lo, hi, n = axis
            if sel not in AXIS_SELECTORS:
                raise ValueError(
                    f"unknown axis selector {sel!r}; valid: {sorted(AXIS_SELECTORS)}"
                )
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise ValueError(f"axis range must be finite with hi > lo, got {axis}")
            if n < 2:
                raise ValueError(f"axis needs >= 2 points, got {axis}")
        if self.axis1[0] == self.axis2[0]:
            raise ValueError("axis selectors must reference distinct parameters")

    def axis_values(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.axis1[1], self.axis1[2], self.axis1[3]),
            np.linspace(self.axis2[1], self.axis2[2], self.axis2[3]),
        )


@dataclass(frozen=True)
class SweepResult:
    """Dense sweep output; failed nodes are NaN with a non-empty flag.

    ``table`` is the memo of every key the sweep evaluated.
    """

    grid: SweepGrid
    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    methods: np.ndarray
    flags: np.ndarray
    table: _Memo

    def max_node(self) -> tuple[float, int, int]:
        finite = np.where(np.isfinite(self.values), self.values, -np.inf)
        flat = int(np.argmax(finite))
        i, j = np.unravel_index(flat, self.values.shape)
        return float(self.values[i, j]), int(i), int(j)


@dataclass(frozen=True)
class MaxResult:
    """Refined maximum: always >= the best grid node it started from.

    ``n_evaluations`` counts the keys refinement evaluated beyond the sweep's.
    """

    value: float
    x: float
    y: float
    grid_value: float
    grid_index: tuple[int, int]
    n_evaluations: int


def _apply_selector(state: dict, selector: str, value: float) -> None:
    if selector == "ell":
        state["ell"] = value
        return
    if selector in ("r", "phi"):
        field = "r" if selector == "r" else "varphi"
        for side in _SIDES:
            state[side] = replace(state[side], **{field: value})
        return
    if selector == "dtheta" or selector == "dtheta_ab":
        state["a"] = replace(state["a"], theta=state["b"].theta + value)
        return
    if selector == "dtheta_apb":
        state["a_prime"] = replace(state["a_prime"], theta=state["b"].theta + value)
        return
    if selector == "dtheta_abp":
        state["b_prime"] = replace(state["b_prime"], theta=state["a"].theta - value)
        return
    if selector == "dtheta_apbp":
        state["b_prime"] = replace(state["b_prime"], theta=state["a_prime"].theta - value)
        return
    stem, _, short = selector.partition("_")
    side = _SIDE_KEYS[short]
    field = {"r": "r", "phi": "varphi", "theta": "theta"}[stem]
    state[side] = replace(state[side], **{field: value})


def _node_config(grid: SweepGrid, xv: float, yv: float) -> BellConfig:
    state = {side: getattr(grid.fixed, side) for side in _SIDES}
    state["ell"] = grid.fixed.settings.ell
    pairs = sorted(
        [(grid.axis1[0], xv), (grid.axis2[0], yv)],
        key=lambda p: AXIS_SELECTORS[p[0]],
    )
    for sel, val in pairs:
        _apply_selector(state, sel, val)
    settings = replace(grid.fixed.settings, ell=state.pop("ell"))
    return replace(grid.fixed, settings=settings, **state)


def leg_key(pa: SqueezeParams, pb: SqueezeParams, ell: float) -> tuple[_Key, float]:
    """Key of E(pa, pb) at bin width ell, and the sign with E(pa, pb) = sign * E(key).

    The angle difference is folded onto [-pi/2, pi/2] by the evaluators'
    own parity fold, so a leg and its half-turn images share one key.
    """
    dth, sign = _parity_fold(pa.theta - pb.theta)
    return (pa.r, pa.varphi, pb.r, pb.varphi, dth, ell), sign


def _legs(cfg: BellConfig, quantity: str) -> list[tuple[_Key, float]]:
    """Keys and parity signs of E(a, b), E(a, b'), E(a', b), E(a', b'), or of E(a, b) alone."""
    pairs = [(cfg.a, cfg.b), (cfg.a, cfg.b_prime), (cfg.a_prime, cfg.b), (cfg.a_prime, cfg.b_prime)]
    return [leg_key(pa, pb, cfg.settings.ell) for pa, pb in pairs[: 1 if quantity == "correlator" else 4]]


def _node_keys(grid: SweepGrid, xv: float, yv: float) -> list[tuple[_Key, float]]:
    return _legs(_node_config(grid, xv, yv), grid.quantity)


def _equal_time(spec: TransitionSpec, settings: EvaluationSettings) -> CorrelatorResult:
    if not is_coincident(spec):
        raise SqueezeBellError("equal-time method requires a coincident transition pair")
    return correlator_equal_time(spec.a, settings.ell)


# The method registry. Adapters look evaluators up by name at call time, so
# a replaced module attribute (a profiler's wrapper, a test double) runs.
METHODS: dict[str, Callable[[TransitionSpec, EvaluationSettings], CorrelatorResult]] = {
    "auto": lambda spec, st: correlator_auto(spec, st),
    "numeric": lambda spec, st: correlator_numeric(spec, st),
    "small-ell": lambda spec, st: correlator_small_ell(spec, st.ell),
    "large-ell": lambda spec, st: correlator_large_ell(spec),
    "large-squeeze": lambda spec, st: correlator_large_ell_large_squeeze(
        spec.a.varphi, spec.b.varphi, spec.delta_theta
    ),
    "equal-time": _equal_time,
    "oracle": lambda spec, st: CorrelatorResult(
        value=oracle.correlator_quadrature(spec, st.ell), method="oracle"
    ),
}


def _evaluate_pair(
    spec: TransitionSpec, settings: EvaluationSettings, method: str
) -> CorrelatorResult:
    try:
        adapter = METHODS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}") from None
    return adapter(spec, settings)


def evaluate(spec: TransitionSpec, method: str, settings: EvaluationSettings) -> CorrelatorResult:
    """E for the pair by ``method``, with the evaluator's full account; errors raise.

    The angle difference is parity-folded first, so every method obeys
    E(dtheta + pi) = -E(dtheta); the returned value carries the fold's sign.
    """
    spec, sign = _parity_reduce(spec)
    res = _evaluate_pair(spec, settings, method)
    return res if sign == 1.0 else replace(res, value=sign * res.value)


def _key_spec(key: _Key) -> TransitionSpec:
    ra, pa, rb, pb, dth, _ = key
    return TransitionSpec(a=SqueezeParams(ra, pa, dth), b=SqueezeParams(rb, pb))


def evaluate_key(key: _Key, method: str, settings: EvaluationSettings) -> tuple[float, str, str]:
    """Evaluate one correlator key by ``evaluate``; errors become (nan, method, flag)."""
    try:
        res = evaluate(_key_spec(key), method, replace(settings, ell=key[5]))
    except SqueezeBellError as exc:
        return math.nan, method, f"{type(exc).__name__}: {exc}"
    return res.value, res.method, "; ".join(res.notes)


def _evaluate_key_task(args: tuple[_Key, str, EvaluationSettings]) -> tuple[float, str, str]:
    return evaluate_key(*args)


def _resolve_workers(workers: int | None) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("SQUEEZEBELL_WORKERS", "").strip()
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


class WorkerPool:
    """The worker pool of one sweep or refinement, used as a context manager.

    The process pool starts on the first batch sent to it and is shut down,
    its workers joined, when the ``with`` block ends, so no worker outlives
    the call that owns the pool. A pool of one worker never starts a process.
    """

    def __init__(self, workers: int | None) -> None:
        self.workers = _resolve_workers(workers)
        self._executor: ProcessPoolExecutor | None = None

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def map_keys(
        self, tasks: list[tuple[_Key, str, EvaluationSettings]]
    ) -> Iterator[tuple[float, str, str]]:
        """Submit ``_evaluate_key_task`` over ``tasks`` to the pool, started here if not yet running.

        Returns the results in task order as the pool delivers them.
        """
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        chunk = max(1, len(tasks) // (self.workers * 8))
        return self._executor.map(_evaluate_key_task, tasks, chunksize=chunk)


def _is_quadrature(key: _Key, method: str) -> bool:
    """True when the key's route is the band series, the equal-time path or ``oracle``.

    The route is read with the rules the evaluators themselves apply
    (``auto_method``, ``numeric_series``). A key those refuse is refused
    again at once when evaluated, so it is not a quadrature.
    """
    spec = _key_spec(key)
    try:
        if method == "auto":
            method = auto_method(spec, key[5])
        if method == "numeric":
            return numeric_series(spec, key[5]) != "dual"
    except SqueezeBellError:
        return False
    return method in ("equal-time", "oracle")


def _evaluate_unique(
    keys: list[_Key],
    method: str,
    settings: EvaluationSettings,
    pool: WorkerPool,
) -> _Memo:
    """Evaluate each key once: quadrature keys on the pool, every other key here.

    The pool runs only with more than one worker and two or more
    quadrature keys; this process evaluates its own keys while the pool
    works on the rest.
    """
    pooled = [k for k in keys if _is_quadrature(k, method)] if pool.workers > 1 else []
    if len(pooled) < 2:
        return {k: evaluate_key(k, method, settings) for k in keys}
    running = pool.map_keys([(k, method, settings) for k in pooled])
    sent = set(pooled)
    table = {k: evaluate_key(k, method, settings) for k in keys if k not in sent}
    table.update(zip(pooled, running))
    return {k: table[k] for k in keys}


def evaluate_keys(
    keys: list[_Key],
    memo: _Memo,
    method: str,
    settings: EvaluationSettings,
    pool: WorkerPool,
) -> list[tuple[float, str, str]]:
    """Evaluate each key ``memo`` lacks once, add it there; returns the keys' entries."""
    misses = [k for k in dict.fromkeys(keys) if k not in memo]
    if misses:
        memo.update(_evaluate_unique(misses, method, settings, pool))
    return [memo[k] for k in keys]


def _gather(nodes: Iterable[list[tuple[_Key, float]]]) -> tuple[list[_Key], np.ndarray, np.ndarray]:
    """Unique keys in first-seen order, and per node and leg the key's index and sign.

    Each key is kept once and legs refer to it by index, in (node, leg)
    arrays, which keeps large sweeps small in memory.
    """
    index: dict[_Key, int] = {}
    slots, signs = [], []
    for legs in nodes:
        slots.append([index.setdefault(key, len(index)) for key, _ in legs])
        signs.append([sign for _, sign in legs])
    return list(index), np.array(slots), np.array(signs)


def _node_values(values: list[float], slots: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Node sums of the signed legs, added in leg order; NaN where a leg failed."""
    legs = signs * np.array(values)[slots]
    total = np.zeros(len(legs))
    for chsh, column in zip(_CHSH_SIGNS, legs.T):
        total += chsh * column
    total[np.isnan(legs).any(axis=1)] = math.nan
    return total


def bell_operator(config: BellConfig) -> float:
    """CHSH combination B = E(a,b) + E(a,b') + E(a',b) - E(a',b')."""
    keys, slots, signs = _gather([_legs(config, "bell")])
    entries = evaluate_keys(keys, {}, config.method, config.settings, WorkerPool(1))
    for value, _, flag in entries:
        if math.isnan(value):
            raise SqueezeBellError(f"correlator leg failed: {flag}")
    return float(_node_values([e[0] for e in entries], slots, signs)[0])


def sweep_map(grid: SweepGrid, workers: int | None = None) -> SweepResult:
    """Evaluate the grid; unique correlators once each, nodes in index order."""
    xs, ys = grid.axis_values()
    keys, slots, signs = _gather(_node_keys(grid, float(xv), float(yv)) for xv in xs for yv in ys)
    memo: _Memo = {}
    with WorkerPool(workers) as pool:
        entries = evaluate_keys(keys, memo, grid.fixed.method, grid.fixed.settings, pool)
    values, leg_methods, leg_flags = zip(*entries)
    shape = (len(xs), len(ys))
    methods = np.full(shape, "", dtype=object)
    flags = np.full(shape, "", dtype=object)
    for n, row in enumerate(slots.tolist()):
        node_methods = [leg_methods[u] for u in row]
        methods.flat[n] = node_methods[0] if len(set(node_methods)) == 1 else "|".join(node_methods)
        flags.flat[n] = "; ".join(dict.fromkeys(leg_flags[u] for u in row if leg_flags[u]))
    return SweepResult(
        grid=grid, x=xs, y=ys, values=_node_values(values, slots, signs).reshape(shape),
        methods=methods, flags=flags, table=memo,
    )


def find_max(grid: SweepGrid, sweep: SweepResult | None = None, *, workers: int | None = None) -> MaxResult:
    """Refine the best grid node by coordinate descent with halving steps.

    Probes the four axis neighbours of the current point; moves to the best
    improving probe, halving the steps whenever no probe improves. The
    refined value can only beat the grid value since moves must improve.
    A probe outside the scanned box scores -inf unevaluated. Each step's
    legs go through the sweep's memo and one worker pool shared by all steps.
    """
    if sweep is None:
        sweep = sweep_map(grid, workers=workers)
    grid_value, i0, j0 = sweep.max_node()
    if not math.isfinite(grid_value):
        raise SqueezeBellError("no finite node in sweep; cannot refine a maximum")
    memo = dict(sweep.table)
    (lo1, hi1), (lo2, hi2) = grid.axis1[1:3], grid.axis2[1:3]
    sx0 = float(sweep.x[1] - sweep.x[0]) / 2.0
    sy0 = float(sweep.y[1] - sweep.y[0]) / 2.0
    sx, sy = sx0, sy0
    best, bx, by = grid_value, float(sweep.x[i0]), float(sweep.y[j0])
    with WorkerPool(workers) as pool:
        for _ in range(_MAX_ITER):
            if sx <= _STEP_TOL * sx0 and sy <= _STEP_TOL * sy0:
                break
            probes = [(bx + sx, by), (bx - sx, by), (bx, by + sy), (bx, by - sy)]
            inside = [(px, py) for px, py in probes if lo1 <= px <= hi1 and lo2 <= py <= hi2]
            keys, slots, signs = _gather(_node_keys(grid, px, py) for px, py in inside)
            entries = evaluate_keys(keys, memo, grid.fixed.method, grid.fixed.settings, pool)
            values = _node_values([e[0] for e in entries], slots, signs)
            scores = dict(zip(inside, np.where(np.isnan(values), -math.inf, values).tolist()))
            top = max(((scores.get(p, -math.inf), *p) for p in probes), key=lambda t: t[0])
            if top[0] > best:
                best, bx, by = top
            else:
                sx *= 0.5
                sy *= 0.5
    return MaxResult(
        value=best,
        x=bx,
        y=by,
        grid_value=grid_value,
        grid_index=(i0, j0),
        n_evaluations=len(memo) - len(sweep.table),
    )
