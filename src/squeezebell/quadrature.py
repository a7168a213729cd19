"""Adaptive Gauss-Kronrod quadrature shared by the evaluators and the oracle.

A single nested 15-point Kronrod / 7-point Gauss rule drives everything:
the embedded Gauss subset reuses the Kronrod evaluations, so each segment
(or 2-D cell) costs one batch of integrand calls and yields both an
estimate and an error indicator. Integrands are expected to be numpy
vectorized; segments are processed in batches to keep the special-function
calls amortized.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetExceededError

# QUADPACK DQK15 abscissae/weights on [-1, 1]. Odd-index abscissae form the
# embedded 7-point Gauss rule. Validated in the test suite against
# numpy.polynomial.legendre.leggauss and polynomial exactness.
_XGK_HALF = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK_HALF = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG_HALF = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

XGK = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])  # 15 ascending nodes
WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_G_IDX = np.arange(1, 15, 2)  # Gauss-7 subset of the Kronrod grid
WG = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])


def gk_segments(a: np.ndarray, b: np.ndarray, fvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod estimates and error indicators for a batch of segments.

    ``fvals`` has shape (n_segments, 15) sampled on ``gk_nodes(a, b)``.
    Returns (integrals, errors) where the error is |K15 - G7| per segment.
    """
    half = 0.5 * (b - a)
    ik = half * (fvals @ WGK)
    ig = half * (fvals[:, _G_IDX] @ WG)
    return ik, np.abs(ik - ig)


def gk_nodes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronrod-15 abscissae for each [a_i, b_i], shape (n_segments, 15)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid[:, None] + half[:, None] * XGK[None, :]


def geometric_panels(a: float, b: float, scale: float, max_panels: int = 64) -> list[float]:
    """Panel edges on [a, b] refined geometrically toward the origin.

    Integrands here have all their structure within a few multiples of
    ``scale`` around Y = 0; a blind rule on a wide band would miss a spike
    much narrower than the band. Edges double in spacing away from zero so
    the panel containing the structure is always O(scale) wide.
    """
    if not b > a:
        raise ValueError("empty panel interval")
    edges = [a, b]
    if scale <= 0 or not np.isfinite(scale):
        return edges
    # Distance from the interval to the origin along the axis.
    lo = min(abs(a), abs(b)) if a * b > 0 else 0.0
    d = max(lo, scale)
    while d < max(abs(a), abs(b)) and len(edges) < max_panels:
        if a < -d:
            edges.append(-d)
        if b > d:
            edges.append(d)
        d *= 2.0
    return sorted(set(edges))


def adaptive_1d(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-14,
    breakpoints: Sequence[float] | None = None,
    max_segments: int = 4096,
    batch: int = 32,
) -> tuple[complex, float]:
    """Globally adaptive integral of a vectorized integrand on [a, b].

    Worst-error-first bisection over an initial partition (optionally seeded
    with ``breakpoints``). Stops when the summed error indicator drops below
    max(abs_tol, rel_tol * |integral|) or the segment cap is reached; the
    achieved error estimate is always returned rather than raised, so the
    caller can record honest accuracy.
    """
    edges = [a, b]
    if breakpoints:
        edges.extend(x for x in breakpoints if a < x < b)
    edges = sorted(set(edges))
    lo = np.array(edges[:-1])
    hi = np.array(edges[1:])
    vals = f(gk_nodes(lo, hi).ravel()).reshape(len(lo), 15)
    ik, err = gk_segments(lo, hi, vals)

    # Max-heap on error via negated keys; counter breaks ties deterministically.
    heap: list[tuple[float, int, float, float, complex]] = []
    serial = 0
    for i in range(len(lo)):
        heap.append((-err[i], serial, lo[i], hi[i], complex(ik[i])))
        serial += 1
    heapq.heapify(heap)
    total = complex(np.sum(ik))
    total_err = float(np.sum(err))
    n_segments = len(lo)

    while total_err > max(abs_tol, rel_tol * abs(total)) and n_segments < max_segments:
        todo = []
        while heap and len(todo) < batch:
            todo.append(heapq.heappop(heap))
        if not todo:
            break
        sub_lo, sub_hi = [], []
        for neg_err, _, s_lo, s_hi, s_val in todo:
            mid = 0.5 * (s_lo + s_hi)
            sub_lo.extend([s_lo, mid])
            sub_hi.extend([mid, s_hi])
            total -= s_val
            total_err += neg_err  # neg_err = -err
        sub_lo = np.array(sub_lo)
        sub_hi = np.array(sub_hi)
        vals = f(gk_nodes(sub_lo, sub_hi).ravel()).reshape(len(sub_lo), 15)
        ik, err = gk_segments(sub_lo, sub_hi, vals)
        for i in range(len(sub_lo)):
            heapq.heappush(heap, (-err[i], serial, sub_lo[i], sub_hi[i], complex(ik[i])))
            serial += 1
        total += complex(np.sum(ik))
        total_err += float(np.sum(err))
        n_segments += len(sub_lo) - len(todo)

    return total, total_err


def adaptive_cells_2d(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    cells: np.ndarray,
    *,
    tol_abs: float = 1e-10,
    tol_rel: float = 1e-10,
    max_depth: int = 14,
    max_evaluations: int = 60_000_000,
    batch: int = 256,
) -> tuple[complex, float, int]:
    """Sum of 2-D integrals over rectangular cells with quadtree refinement.

    ``cells`` is (n, 4) rows of (x0, x1, y0, y1); each cell is integrated
    with the tensor Kronrod-15 rule and split into quadrants while its
    |K15 - G7| indicator exceeds max(tol_abs, tol_rel * |estimate|), up to
    ``max_depth`` splits. Returns (total, error_estimate, cells_evaluated);
    exceeding ``max_evaluations`` tensor evaluations raises
    BudgetExceededError since runaway refinement means the rule cannot see
    the integrand's structure. Cells are integrated ``batch`` at a time:
    each batch's temporaries hold batch x 225 nodes, about 1 MB per complex
    array at 256, so one call adds little to its process's peak memory.
    """
    cells = np.asarray(cells, dtype=float)
    if cells.ndim != 2 or cells.shape[1] != 4:
        raise ValueError("cells must have shape (n, 4)")
    pending = [(cells, 0)]
    total = 0.0 + 0.0j
    total_err = 0.0
    n_done = 0
    n_evals = 0
    while pending:
        block, depth = pending.pop()
        for start in range(0, len(block), batch):
            sub = block[start : start + batch]
            x0, x1, y0, y1 = sub[:, 0], sub[:, 1], sub[:, 2], sub[:, 3]
            hx = 0.5 * (x1 - x0)
            hy = 0.5 * (y1 - y0)
            X = (0.5 * (x0 + x1))[:, None, None] + hx[:, None, None] * XGK[None, :, None]
            Y = (0.5 * (y0 + y1))[:, None, None] + hy[:, None, None] * XGK[None, None, :]
            F = f(X, Y)
            n_evals += F.size
            if n_evals > max_evaluations:
                raise BudgetExceededError(
                    f"2-D cell quadrature exceeded {max_evaluations} integrand "
                    "evaluations"
                )
            area = (hx * hy)[:, None, None]
            ik = np.sum(F * (WGK[None, :, None] * WGK[None, None, :]) * area, axis=(1, 2))
            fg = F[:, _G_IDX][:, :, _G_IDX]
            ig = np.sum(fg * (WG[None, :, None] * WG[None, None, :]) * area, axis=(1, 2))
            err = np.abs(ik - ig)
            ok = err <= np.maximum(tol_abs, tol_rel * np.abs(ik))
            if depth >= max_depth:
                ok = np.ones_like(ok, dtype=bool)
            total += complex(np.sum(ik[ok]))
            total_err += float(np.sum(err[ok]))
            n_done += int(np.count_nonzero(ok))
            if not np.all(ok):
                bad = sub[~ok]
                xm = 0.5 * (bad[:, 0] + bad[:, 1])
                ym = 0.5 * (bad[:, 2] + bad[:, 3])
                children = np.concatenate(
                    [
                        np.stack([bad[:, 0], xm, bad[:, 2], ym], axis=1),
                        np.stack([xm, bad[:, 1], bad[:, 2], ym], axis=1),
                        np.stack([bad[:, 0], xm, ym, bad[:, 3]], axis=1),
                        np.stack([xm, bad[:, 1], ym, bad[:, 3]], axis=1),
                    ]
                )
                pending.append((children, depth + 1))
    return total, total_err, n_done
