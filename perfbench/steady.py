"""Steadiness of the end-to-end metrics across runs and seeds.

    python3 perfbench/steady.py --runs 10

Runs every workload ``--runs`` times, one run of each workload per pass
and the order of the workloads reversed on every other pass, each run
with its own seed. For every end-to-end metric it prints the median, the
quartiles and their distance as a share of the median (the spread), next
to the metric's bound in BENCHMARK.json, and the share of failed
operations per workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    args = parser.parse_args()

    results: dict[str, list[dict]] = {w: [] for w in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for w in order:
            res = run_once(w, args.seed_base + i, spec["run_seconds"])
            results[w].append(res)
            shown = "  ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"pass {i + 1:2d} {w:16s} {shown}  failed {res['failed']}/{res['attempted']}"
                  f"  correct {str(res['correct']).lower()}", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print()
    print(f"{'workload':16s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}")
    worst = (0.0, "")
    for w, runs in results.items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = stats.quartiles(values)
            s = stats.spread(values)
            worst = max(worst, (s / bound, f"{name} on {w}"))
            print(f"{w:16s} {name:12s} {q2:10.4g} {q1:10.4g} {q3:10.4g} {s:7.3f} {bound:6.2f}")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{w:16s} failed share {', '.join(f'{s:.6f}' for s in shares)}")
    print(f"\nlargest spread as a share of its bound: {worst[0]:.2f} ({worst[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
