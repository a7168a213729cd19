#!/usr/bin/env python3
"""Scan a temporal CHSH combination for violations of the classical bound.

The four measurement settings are rotation angles of one deeply squeezed
mode pair (r = 5, phi = 0) probed with a finite sign-bin width
(ell = 100 < e^r). The map scans the two primed rotation differences;
B > 2 regions mark genuinely quantum temporal correlations. The 61x61
grid here is a fast preview of the 241x241 acceptance-grade map; the
maximum refinement pushes it to the same optimum either way.

CLI equivalent:
    squeezebell bell-scan --ra 5 --phia 0 --ell 100 \
        --thetaa 0 --thetaap 0 --thetab 0 --thetabp 0 \
        --axis1 dtheta_apbp:-3.14159:3.14159:61 \
        --axis2 dtheta_apb:-3.14159:3.14159:61

Run:
    python3 demos/bell_violation_scan.py
"""

import math

import numpy as np

from squeezebell.bell import BellConfig, SweepGrid, find_max, sweep_map
from squeezebell.evaluators import EvaluationSettings
from squeezebell.state import SqueezeParams

R = 5.0
ELL = 100.0
N = 61


def main() -> None:
    mode = SqueezeParams(r=R, varphi=0.0, theta=0.0)
    grid = SweepGrid(
        fixed=BellConfig(
            a=mode, a_prime=mode, b=mode, b_prime=mode,
            settings=EvaluationSettings(ell=ELL), method="auto",
        ),
        axis1=("dtheta_apbp", -math.pi, math.pi, N),
        axis2=("dtheta_apb", -math.pi, math.pi, N),
    )
    swept = sweep_map(grid)
    best, i, j = swept.max_node()
    print(f"grid max   B = {best:.6f} at "
          f"(dtheta_a'b' = {swept.x[i]:+.4f}, dtheta_a'b = {swept.y[j]:+.4f})")

    refined = find_max(grid, swept)
    print(f"refined    B = {refined.value:.6f} at "
          f"({refined.x:+.4f}, {refined.y:+.4f}) "
          f"[{refined.n_evaluations} more correlator evaluations]")
    print(f"classical bound 2 exceeded by {refined.value - 2.0:+.4f}; "
          f"quantum ceiling 2*sqrt(2) = {2 * math.sqrt(2):.4f}")

    mask = swept.values > 2.0
    print(f"violating nodes: {int(mask.sum())} of {N * N}")
    for cx, cy, label in [
        (0.0, 0.0, "(0, 0)"), (math.pi, 0.0, "(pi, 0)"), (math.pi, math.pi, "(pi, pi)")
    ]:
        xs, ys = np.meshgrid(swept.x, swept.y, indexing="ij")
        dx = np.abs(np.remainder(xs[mask] - cx + math.pi, 2 * math.pi) - math.pi)
        dy = np.abs(np.remainder(ys[mask] - cy + math.pi, 2 * math.pi) - math.pi)
        print(f"  island near {label:8}: closest violating node "
              f"{np.hypot(dx, dy).min():.3f} away")
    _maybe_plot(swept)


def _maybe_plot(swept) -> None:
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping the PNG")
        return
    fig, ax = plt.subplots(figsize=(5.6, 4.5))
    mesh = ax.pcolormesh(swept.x, swept.y, swept.values.T, cmap="viridis")
    fig.colorbar(mesh, ax=ax, label="B")
    ax.contour(swept.x, swept.y, swept.values.T, levels=[2.0], colors="r", linewidths=1.0)
    ax.set_xlabel("theta_a' - theta_b'")
    ax.set_ylabel("theta_a' - theta_b")
    ax.set_title(f"temporal CHSH map, r = {R}, ell = {ELL:g} (red: B = 2)")
    fig.tight_layout()
    fig.savefig("bell_violation_scan.png", dpi=150)
    print("wrote bell_violation_scan.png")


if __name__ == "__main__":
    main()
