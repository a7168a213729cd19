"""Benchmark of CHSH scans and single correlator calls.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chsh_finite_bin --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the same checkout. The run sets
up, then repeats whole rounds of the workload for about ``--seconds``,
checks every output, prints a report and, as its last line, one JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``). A traced run alternates untraced and traced
rounds, so that it can report the overhead of its own tracing.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "squeezebell" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src / 'squeezebell'}; run from a checkout")
    sys.path.insert(0, str(src))


def _setup_probe(workload: str, seed: int) -> None:
    """Set up as a measured run does, then report readiness and exit."""
    import workloads

    wl = workloads.make(workload, seed)
    wl.warm_up()
    print("ready", flush=True)


def _measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to the end of set-up, in fresh processes."""
    samples = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload, "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            sys.exit(f"perfbench: set-up probe failed (exit {code})")
        samples.append(elapsed)
    return samples


def _run_rounds(wl, seconds: float, trace: bool):
    """Whole rounds until the next one would end after ``seconds``."""
    if trace:
        import tracing  # imported before any round is timed
    untraced, traced = [], []
    rss_before_mb = _peak_rss_mb()
    start = time.perf_counter()
    while True:
        if trace and len(untraced) > len(traced):
            tracer = tracing.Tracer()
            undo = tracing.install(tracer)
            try:
                rnd = wl.run_round()
            finally:
                undo()
            rnd.tracer = tracer
            traced.append(rnd)
        else:
            untraced.append(wl.run_round())
        last = (traced if trace and len(traced) == len(untraced) else untraced)[-1]
        done = len(untraced) >= 1 and (not trace or len(traced) >= 1)
        if done and time.perf_counter() - start + last.wall_s > seconds:
            break
    peak_rss_mb = _peak_rss_mb()
    return untraced, traced, peak_rss_mb, peak_rss_mb - rss_before_mb


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    if args.setup_probe:
        _setup_probe(args.setup_probe, args.seed)
        return 0

    import stats
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    setup = _measure_setup(args.workload, args.seed)
    wl = workloads.make(args.workload, args.seed)
    wl.warm_up()
    untraced, traced, peak_rss_mb, rss_growth_mb = _run_rounds(wl, args.seconds, bool(args.trace))
    rounds = untraced + traced

    attempted = failed = unexpected = 0
    problems: list[str] = []
    for rnd in rounds:
        n_failed, n_unexpected, found = wl.check(rnd)
        attempted += rnd.attempted
        failed += n_failed
        unexpected += n_unexpected
        problems += found
    # Only the fixed fault calls of the points workload may fail.
    correct = unexpected == 0

    report: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(untraced),
        "traced_rounds": len(traced),
        "setup_samples_s": setup,
        "round_wall_s": [r.wall_s for r in untraced],
        "round_cpu_s": [r.cpu_s for r in untraced],
        "problems": [p for p in problems if not p.startswith("fault call")]
        + [p for p in problems if p.startswith("fault call")][:10],
    }
    end_to_end = {
        "setup_s": _metric(stats.median(setup), "s"),
        "wall_s": _metric(stats.median([r.wall_s for r in untraced]), "s"),
        "cpu_s": _metric(stats.median([r.cpu_s for r in untraced]), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    reference = wl.reference_metrics(untraced)
    # How far the timed phase raised the memory peak left by set-up.
    reference["peak_rss_growth_mb"] = _metric(rss_growth_mb, "MB")
    report["end_to_end"] = end_to_end
    report["reference"] = reference
    report.update(wl.describe(untraced))

    lines = [f"workload {args.workload}  seed {args.seed}  rounds {len(untraced)}"
             + (f" untraced, {len(traced)} traced" if traced else "")]
    if args.trace:
        import tracing

        traced_s = stats.median([r.wall_s for r in traced])
        untraced_s = stats.median([r.wall_s for r in untraced])
        per_round = [tracing.layer_metrics(r.tracer, wl.workers) for r in traced]
        layers = {k: sum(m[k] for m in per_round) / len(per_round) for k in per_round[0]}
        layers["trace.round_s"] = traced_s
        layers["trace.overhead_s"] = traced_s - untraced_s
        metrics = {k: _metric(v, _layer_unit(k)) for k, v in layers.items()}
        report["per_layer"] = metrics
        _write_spans(args, traced[-1].tracer)
        for name, m in metrics.items():
            lines.append(f"  {name:34s} {m['value']:.6g} {m['unit']}")
        lines.append(f"  tracing overhead {100.0 * (traced_s - untraced_s) / untraced_s:.2f} % of an untraced round")
    else:
        metrics = end_to_end
        for name, m in {**end_to_end, **reference}.items():
            lines.append(f"  {name:16s} {m['value']:.6g} {m['unit']}" + (f"  ({m['note']})" if "note" in m else ""))
    lines.append(f"  attempted {attempted}  failed {failed}  correct {str(correct).lower()}")
    print("\n".join(lines))
    for p in report["problems"]:
        print(f"  problem: {p}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", ".efficiency", "points_per_call")):
        return "ratio"
    return "count"


def _write_spans(args, tracer) -> None:
    """Spans of the last traced round: name, parent index, start, end (s)."""
    t0 = min((s[2] for s in tracer.spans), default=0.0)
    spans = [[n, p, round(a - t0, 7), round(b - t0, 7)] for n, p, a, b in tracer.spans]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"fields": ["name", "parent", "start_s", "end_s"], "spans": spans}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
