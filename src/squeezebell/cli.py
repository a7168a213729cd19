"""Command-line front end: point evaluations, 2D maps, Bell scans.

Commands:

- ``correlator``: one two-time correlator E for an (a, b) pair.
- ``bell``: one CHSH combination B for four measurement settings.
- ``map``: E over a 2D parameter grid (CSV/JSON).
- ``bell-scan``: B over a 2D parameter grid with maximum refinement.

Results go to stdout (or ``--out``); diagnostics go to stderr. Exit codes:
0 success, 1 usage error, 2 numerical-domain error (the message names the
offending parameter or condition).

Configuration is a flat ``key = value`` file with ``#`` comment lines;
command-line flags override file values. ``--dump-config PATH`` writes the
fully resolved configuration before running, and re-running from that file
alone reproduces the output byte for byte. Angles are radians unless
``--deg`` is given.

The argument parser is built once per process and reused by every ``run``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import Sequence

from .bell import (
    AXIS_SELECTORS,
    METHODS,
    BellConfig,
    SweepGrid,
    SweepResult,
    bell_operator,
    evaluate,
    evaluate_key,  # noqa: F401  (re-exported; perfbench/tracing.py wraps it here)
    find_max,
    sweep_map,
)
from .errors import SqueezeBellError
from .evaluators import CorrelatorResult, EvaluationSettings
from .state import SqueezeParams, TransitionSpec

__all__ = ["main", "run"]

_SIDES = ("a", "ap", "b", "bp")
FLOAT_KEYS = frozenset(
    [f"r_{s}" for s in _SIDES]
    + [f"phi_{s}" for s in _SIDES]
    + [f"theta_{s}" for s in _SIDES]
    + ["dtheta", "ell", "trunc_tol", "quad_tol"]
)
ANGLE_KEYS = frozenset(
    [f"phi_{s}" for s in _SIDES] + [f"theta_{s}" for s in _SIDES] + ["dtheta"]
)
INT_KEYS = frozenset(["workers", "max_bands"])
STR_KEYS = frozenset(["method", "format", "out", "axis1", "axis2"])
ALL_KEYS = FLOAT_KEYS | INT_KEYS | STR_KEYS

# Axis selectors whose values are angles (converted by --deg).
_ANGLE_SELECTORS = frozenset(
    s for s in AXIS_SELECTORS if s.startswith(("phi", "theta", "dtheta"))
)
# Selectors that influence the (a, b) pair, the only one a map evaluates.
_MAP_SELECTORS = frozenset(
    ["r", "phi", "ell", "dtheta", "dtheta_ab"]
    + [f"{stem}_{s}" for stem in ("r", "phi", "theta") for s in ("a", "b")]
)

DEFAULTS: dict[str, object] = {
    "r_a": 1.0,
    "phi_a": 0.0,
    "dtheta": 0.0,
    "ell": 1.0,
    "method": "auto",
    "format": "csv",
    "trunc_tol": 1e-10,
    "quad_tol": 1e-9,
    "max_bands": 4096,
}


class UsageError(Exception):
    """Bad invocation: unknown key, malformed value, missing requirement."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Take "-1.5e-05" after an option as its value, as argparse already
        # does for "-1.5"; no option of this parser looks like a number.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("state parameters")
    g.add_argument("--ra", dest="r_a", type=float, help="squeezing amplitude at time a")
    g.add_argument("--rap", dest="r_ap", type=float, help="squeezing amplitude at time a' (default: --ra)")
    g.add_argument("--rb", dest="r_b", type=float, help="squeezing amplitude at time b (default: --ra)")
    g.add_argument("--rbp", dest="r_bp", type=float, help="squeezing amplitude at time b' (default: --rb)")
    g.add_argument("--phia", dest="phi_a", type=float, help="squeezing angle at time a")
    g.add_argument("--phiap", dest="phi_ap", type=float, help="squeezing angle at time a' (default: --phia)")
    g.add_argument("--phib", dest="phi_b", type=float, help="squeezing angle at time b (default: --phia)")
    g.add_argument("--phibp", dest="phi_bp", type=float, help="squeezing angle at time b' (default: --phib)")
    g.add_argument("--thetaa", dest="theta_a", type=float, help="rotation angle at time a (bell commands)")
    g.add_argument("--thetaap", dest="theta_ap", type=float, help="rotation angle at time a' (bell commands)")
    g.add_argument("--thetab", dest="theta_b", type=float, help="rotation angle at time b (bell commands)")
    g.add_argument("--thetabp", dest="theta_bp", type=float, help="rotation angle at time b' (bell commands)")
    g.add_argument("--dtheta", dest="dtheta", type=float, help="rotation-angle difference theta_a - theta_b (correlator/map)")
    e = common.add_argument_group("evaluation")
    e.add_argument("--ell", dest="ell", type=float, help="sign-bin width (> 0)")
    e.add_argument("--method", dest="method", choices=tuple(METHODS), help="evaluator (default auto)")
    e.add_argument("--trunc-tol", dest="trunc_tol", type=float, help="band-series truncation tolerance")
    e.add_argument("--quad-tol", dest="quad_tol", type=float, help="per-band quadrature tolerance")
    e.add_argument("--max-bands", dest="max_bands", type=int, help="band cap for the band series of --method numeric")
    o = common.add_argument_group("input/output")
    o.add_argument("--out", dest="out", help="write the result payload to this path instead of stdout")
    o.add_argument("--format", dest="format", choices=("csv", "json"), help="payload format (default csv)")
    o.add_argument("--workers", dest="workers", type=int, help="worker processes (default: SQUEEZEBELL_WORKERS or CPU count)")
    o.add_argument("--config", dest="config", help="flat key = value config file; flags override it")
    o.add_argument("--dump-config", dest="dump_config", metavar="PATH", help="write the resolved configuration to PATH, then run")
    o.add_argument("--deg", action="store_true", help="angles on the command line are degrees")

    axes = argparse.ArgumentParser(add_help=False)
    axes.add_argument("--axis1", dest="axis1", help="first sweep axis as name:lo:hi:n")
    axes.add_argument("--axis2", dest="axis2", help="second sweep axis as name:lo:hi:n")

    parser = _Parser(prog="squeezebell", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    sub.add_parser("correlator", parents=[common], help="one two-time correlator E(a, b)")
    sub.add_parser("bell", parents=[common], help="one CHSH combination B")
    sub.add_parser("map", parents=[common, axes], help="correlator E over a 2D grid")
    sub.add_parser("bell-scan", parents=[common, axes], help="CHSH B over a 2D grid, with refinement")
    return parser


def _parse_config_file(path: str) -> dict[str, object]:
    table: dict[str, object] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        value = value.strip()
        if key not in ALL_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown configuration key {key!r}")
        try:
            if key in FLOAT_KEYS:
                table[key] = float(value)
            elif key in INT_KEYS:
                table[key] = int(value)
            else:
                table[key] = value
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return table


def _axis_spec(text: str, deg: bool) -> tuple[str, float, float, int]:
    parts = text.split(":")
    if len(parts) != 4:
        raise UsageError(f"axis must be name:lo:hi:n, got {text!r}")
    name = parts[0]
    if name not in AXIS_SELECTORS:
        raise UsageError(f"unknown axis selector {name!r}; valid: {', '.join(sorted(AXIS_SELECTORS))}")
    try:
        lo, hi = float(parts[1]), float(parts[2])
        n = int(parts[3])
    except ValueError as exc:
        raise UsageError(f"bad axis bounds in {text!r}") from exc
    if deg and name in _ANGLE_SELECTORS:
        lo, hi = math.radians(lo), math.radians(hi)
    return name, lo, hi, n


def _resolve(args: argparse.Namespace) -> dict[str, object]:
    """Merge defaults, config file, and flags into one flat table."""
    table: dict[str, object] = dict(DEFAULTS)
    if args.config:
        table.update(_parse_config_file(args.config))
    for key in sorted(ALL_KEYS):
        value = getattr(args, key, None)
        if value is None:
            continue
        if args.deg and key in ANGLE_KEYS:
            value = math.radians(value)
        if args.deg and key in ("axis1", "axis2"):
            # Canonicalize to radians now so the dumped config re-runs
            # identically without remembering the --deg switch.
            name, lo, hi, n = _axis_spec(str(value), deg=True)
            value = f"{name}:{lo!r}:{hi!r}:{n}"
        table[key] = value
    # Side fallbacks: primed times inherit the unprimed ones, b inherits a.
    table.setdefault("r_b", table["r_a"])
    table.setdefault("phi_b", table["phi_a"])
    table.setdefault("r_ap", table["r_a"])
    table.setdefault("r_bp", table["r_b"])
    table.setdefault("phi_ap", table["phi_a"])
    table.setdefault("phi_bp", table["phi_b"])
    if not (isinstance(table["ell"], float) and table["ell"] > 0):
        raise UsageError(f"ell must be > 0, got {table['ell']!r}")
    return table


def _dump_config(table: dict[str, object], path: str) -> None:
    lines = ["# squeezebell resolved configuration"]
    for key in sorted(table):
        value = table[key]
        text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{key} = {text}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _settings(table: dict[str, object]) -> EvaluationSettings:
    try:
        return EvaluationSettings(
            ell=float(table["ell"]),
            trunc_rel_tol=float(table["trunc_tol"]),
            quad_rel_tol=float(table["quad_tol"]),
            max_bands=int(table["max_bands"]),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _pair_spec(table: dict[str, object]) -> TransitionSpec:
    return TransitionSpec(
        a=SqueezeParams(r=float(table["r_a"]), varphi=float(table["phi_a"]), theta=float(table["dtheta"])),
        b=SqueezeParams(r=float(table["r_b"]), varphi=float(table["phi_b"]), theta=0.0),
    )


def _require_thetas(table: dict[str, object]) -> None:
    missing = [k for k in ("theta_a", "theta_ap", "theta_b", "theta_bp") if k not in table]
    if missing:
        raise UsageError(
            "bell commands need all four rotation angles; missing: "
            + ", ".join(f"--{k.replace('theta_', 'theta')}" for k in missing)
        )


def _bell_config(table: dict[str, object], method: str, settings: EvaluationSettings) -> BellConfig:
    def side(s: str, theta_key: str) -> SqueezeParams:
        return SqueezeParams(
            r=float(table[f"r_{s}"]),
            varphi=float(table[f"phi_{s}"]),
            theta=float(table[theta_key]),
        )

    return BellConfig(
        a=side("a", "theta_a"),
        a_prime=side("ap", "theta_ap"),
        b=side("b", "theta_b"),
        b_prime=side("bp", "theta_bp"),
        settings=settings,
        method=method,
    )


def _emit(payload: str, table: dict[str, object]) -> None:
    out = table.get("out")
    if out:
        with open(str(out), "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _result_payload(res: CorrelatorResult, fmt: str) -> str:
    if fmt == "json":
        doc = {
            "value": float(f"{res.value:.12g}"),
            "method": res.method,
            "series": res.series,
            "n_bands_used": res.n_bands_used,
            "series_terms_used": res.series_terms_used,
            "error_estimate": res.error_estimate,
            "degenerate_path": res.degenerate_path,
            "notes": list(res.notes),
        }
        return json.dumps(doc, indent=2) + "\n"
    return f"{res.value:.12g}\n"


def _scan_payload(sweep: SweepResult, fmt: str) -> str:
    xs, ys = sweep.x, sweep.y
    if fmt == "json":
        doc = {
            "axis1": sweep.grid.axis1[0],
            "axis2": sweep.grid.axis2[0],
            "x": [float(f"{v:.12g}") for v in xs],
            "y": [float(f"{v:.12g}") for v in ys],
            "values": [[float(f"{v:.12g}") for v in row] for row in sweep.values],
            "methods": [list(row) for row in sweep.methods],
            "flags": [list(row) for row in sweep.flags],
        }
        return json.dumps(doc, indent=2) + "\n"
    lines = ["# axis1,axis2,value,method,flags"]
    for i, xv in enumerate(xs):
        for j, yv in enumerate(ys):
            value = sweep.values[i, j]
            vtext = "nan" if math.isnan(value) else f"{value:.12g}"
            method = str(sweep.methods[i, j]).replace(",", "|")
            flags = str(sweep.flags[i, j]).replace(",", ";")
            lines.append(f"{xv:.12g},{yv:.12g},{vtext},{method},{flags}")
    return "\n".join(lines) + "\n"


def _run_correlator(table: dict[str, object]) -> None:
    try:
        res = evaluate(_pair_spec(table), str(table["method"]), _settings(table))
    except SqueezeBellError as exc:
        raise SqueezeBellError(f"{type(exc).__name__}: {exc}") from exc
    if math.isnan(res.value):
        raise SqueezeBellError("correlator evaluation failed")
    _emit(_result_payload(res, str(table["format"])), table)
    print("; ".join([f"method = {res.method}", *res.notes]), file=sys.stderr)


def _run_bell(table: dict[str, object]) -> None:
    _require_thetas(table)
    settings = _settings(table)
    cfg = _bell_config(table, str(table["method"]), settings)
    value = bell_operator(cfg)
    fmt = str(table["format"])
    if fmt == "json":
        payload = json.dumps({"bell": float(f"{value:.12g}")}, indent=2) + "\n"
    else:
        payload = f"{value:.12g}\n"
    _emit(payload, table)


def _run_scan(table: dict[str, object], quantity: str) -> None:
    for axis in ("axis1", "axis2"):
        if axis not in table:
            raise UsageError(f"--{axis} is required for map/bell-scan commands")
    axis1 = _axis_spec(str(table["axis1"]), deg=False)
    axis2 = _axis_spec(str(table["axis2"]), deg=False)
    if quantity == "correlator":
        for name, *_ in (axis1, axis2):
            if name not in _MAP_SELECTORS:
                raise UsageError(
                    f"axis selector {name!r} does not affect the (a, b) pair; "
                    f"valid for map: {', '.join(sorted(_MAP_SELECTORS))}"
                )
        table.setdefault("theta_a", float(table["dtheta"]))
        table.setdefault("theta_b", 0.0)
        table.setdefault("theta_ap", float(table["theta_a"]))
        table.setdefault("theta_bp", float(table["theta_b"]))
    else:
        _require_thetas(table)
    settings = _settings(table)
    cfg = _bell_config(table, str(table["method"]), settings)
    try:
        grid = SweepGrid(fixed=cfg, axis1=axis1, axis2=axis2, quantity=quantity)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    workers = int(table["workers"]) if "workers" in table else None
    sweep = sweep_map(grid, workers=workers)
    _emit(_scan_payload(sweep, str(table["format"])), table)

    best, i, j = sweep.max_node()
    n_nan = int(sum(1 for row in sweep.values for v in row if math.isnan(v)))
    label = "B" if quantity == "bell" else "E"
    print(
        f"grid {len(sweep.x)}x{len(sweep.y)}, {n_nan} unevaluable nodes; "
        f"max {label} = {best:.12g} at ({sweep.x[i]:.12g}, {sweep.y[j]:.12g})",
        file=sys.stderr,
    )
    if quantity == "bell" and math.isfinite(best):
        refined = find_max(grid, sweep, workers=workers)
        print(
            f"refined max {label} = {refined.value:.12g} at "
            f"({refined.x:.12g}, {refined.y:.12g}) "
            f"after {refined.n_evaluations} more correlator evaluations",
            file=sys.stderr,
        )


def run(argv: Sequence[str]) -> int:
    """Parse and execute one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        table = _resolve(args)
        if args.command in ("bell", "bell-scan"):
            if getattr(args, "dtheta", None) is not None:
                raise UsageError("--dtheta applies to correlator/map; bell commands take the four --theta flags")
        if args.dump_config:
            _dump_config(table, args.dump_config)
        if args.command == "correlator":
            _run_correlator(table)
        elif args.command == "bell":
            _run_bell(table)
        elif args.command == "map":
            _run_scan(table, "correlator")
        else:
            _run_scan(table, "bell")
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SqueezeBellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
