"""Independent cross-checks: direct quadrature, the 12x12 system, theta sums.

Nothing here is meant to be fast. The production band series (evaluators)
resums one lattice direction into an erfc series; this module instead
integrates the reduced two-time Gaussian cell by cell over the full
checkerboard, so the two paths share only the quadratic form Xi and can be
compared end to end. ``build_M`` exposes the underlying 12x12 linear
system whose determinant must reproduce the closed-form kernel
determinant, and ``theta_partial`` provides bare partial theta sums for
validating the narrow-bin resummation route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexfn import principal_sqrt
from .errors import BudgetExceededError, DivergentSeriesError
from .evaluators import require_converged
from .kernel import xi_determinant, xi_matrix
from .quadrature import adaptive_cells_2d
from .state import TransitionSpec

__all__ = [
    "BigKernelMatrix",
    "build_M",
    "correlator_quadrature",
    "theta_partial",
    "CELL_BUDGET",
]

CELL_BUDGET = 10_000_000


@dataclass(frozen=True, eq=False)
class BigKernelMatrix:
    """The symmetric 12x12 complex system of the two-time Gaussian reduction.

    Row/column order packs real and imaginary parts of the six eliminated
    mode variables, three per side. ``determinant`` evaluates by LU with
    partial pivoting (numpy), deliberately independent of the closed-form
    kernel expression it is tested against.
    """

    matrix: np.ndarray
    spec: TransitionSpec

    def determinant(self) -> complex:
        return complex(np.linalg.det(self.matrix))


def build_M(spec: TransitionSpec) -> BigKernelMatrix:
    """Assemble the 12x12 system for a transition pair, entry by entry."""
    ra, pa, tha = spec.a.r, spec.a.varphi, spec.a.theta
    rb, pb, thb = spec.b.r, spec.b.varphi, spec.b.theta
    i = 1j
    Ca = np.exp(1j * tha) / (2.0 * math.cosh(ra))
    Cbs = np.conj(np.exp(1j * thb) / (2.0 * math.cosh(rb)))
    Ta = 0.5 * np.exp(2j * pa) * math.tanh(ra)
    Tb = 0.5 * np.exp(2j * pb) * math.tanh(rb)
    Tas = np.conj(Ta)
    P = np.exp(2j * tha) * Ta + np.conj(np.exp(2j * thb) * Tb)
    Q = i * np.exp(2j * tha) * Ta - i * np.conj(np.exp(2j * thb) * Tb)
    m = np.array(
        [
            [1, 0, P, Q, -Cbs, -i * Cbs, 0, 0, -Ca, i * Ca, 0, 0],
            [0, 1, Q, -P, i * Cbs, -Cbs, 0, 0, -i * Ca, -Ca, 0, 0],
            [P, Q, 1, 0, 0, 0, -Cbs, -i * Cbs, 0, 0, -Ca, i * Ca],
            [Q, -P, 0, 1, 0, 0, i * Cbs, -Cbs, 0, 0, -i * Ca, -Ca],
            [-Cbs, i * Cbs, 0, 0, 1.5, -0.5j, -Tb, -i * Tb, 0, 0, 0, 0],
            [-i * Cbs, -Cbs, 0, 0, -0.5j, 0.5, -i * Tb, Tb, 0, 0, 0, 0],
            [0, 0, -Cbs, i * Cbs, -Tb, -i * Tb, 1.5, -0.5j, 0, 0, 0, 0],
            [0, 0, -i * Cbs, -Cbs, -i * Tb, Tb, -0.5j, 0.5, 0, 0, 0, 0],
            [-Ca, -i * Ca, 0, 0, 0, 0, 0, 0, 1.5, 0.5j, -Tas, i * Tas],
            [i * Ca, -Ca, 0, 0, 0, 0, 0, 0, 0.5j, 0.5, i * Tas, Tas],
            [0, 0, -Ca, -i * Ca, 0, 0, 0, 0, -Tas, i * Tas, 1.5, 0.5j],
            [0, 0, i * Ca, -Ca, 0, 0, 0, 0, i * Tas, Tas, 0.5j, 0.5],
        ],
        dtype=complex,
    )
    return BigKernelMatrix(matrix=m, spec=spec)


def _interval_dist(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.where(lo > 0.0, lo, np.where(hi < 0.0, -hi, 0.0))


def correlator_quadrature(
    spec: TransitionSpec,
    ell: float,
    n_max: int | None = None,
) -> float:
    """Two-time correlator by direct checkerboard cell quadrature.

    Every lattice cell [n ell, (n+1) ell] x [m ell, (m+1) ell] inside the
    window n, m in [-n_max, n_max) is integrated with the tensor
    Gauss-Kronrod rule at fixed tolerance and summed with its (-1)^{n+m}
    sign. n_max defaults to ceil(12 max(e^r) / ell), enough to push the
    discarded Gaussian tail below double precision; smaller values are
    rejected. Cells provably below 1e-18 by the Gaussian decay bound are
    skipped; if more than CELL_BUDGET cells survive, the point is refused
    rather than silently subsampled.
    """
    if not (math.isfinite(ell) and ell > 0):
        raise ValueError(f"ell must be finite and > 0, got {ell!r}")
    xi = xi_matrix(spec)
    require_converged(xi)
    floor_n = math.ceil(12.0 * max(math.exp(spec.a.r), math.exp(spec.b.r)) / ell)
    if n_max is None:
        n_max = floor_n
    elif n_max < floor_n:
        raise ValueError(f"n_max must be >= {floor_n} to cover the Gaussian support")

    re_xi = np.array(
        [[xi.xi11.real, xi.xi12.real], [xi.xi12.real, xi.xi22.real]]
    )
    lam_max = float(np.max(np.linalg.eigvalsh(re_xi)))

    idx = np.arange(-n_max, n_max)
    nn, mm = np.meshgrid(idx, idx, indexing="ij")
    nn = nn.ravel()
    mm = mm.ravel()
    x0, y0 = nn * ell, mm * ell
    x1, y1 = x0 + ell, y0 + ell
    if lam_max < 0.0:
        dx = _interval_dist(x0, x1)
        dy = _interval_dist(y0, y1)
        keep = 0.5 * (-lam_max) * (dx * dx + dy * dy) < 41.0
    else:
        keep = np.ones(nn.shape, dtype=bool)
    n_cells = int(np.count_nonzero(keep))
    if n_cells > CELL_BUDGET:
        raise BudgetExceededError(
            f"direct quadrature needs {n_cells} cells, over the "
            f"{CELL_BUDGET} budget; use the band-series evaluator"
        )
    nn, mm = nn[keep], mm[keep]
    cells = np.stack([x0[keep], x1[keep], y0[keep], y1[keep]], axis=1)

    x11, x22, x12 = xi.xi11, xi.xi22, xi.xi12

    def integrand(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return np.exp(0.5 * (x11 * X * X + x22 * Y * Y) + x12 * X * Y)

    total = 0.0 + 0.0j
    even = (nn + mm) % 2 == 0
    for mask, sign in ((even, 1.0), (~even, -1.0)):
        if not np.any(mask):
            continue
        val, _, _ = adaptive_cells_2d(
            integrand, cells[mask], tol_abs=1e-10, tol_rel=1e-10,
            max_evaluations=CELL_BUDGET * 300,
        )
        total += sign * val
    pref = principal_sqrt(xi_determinant(xi)) / (2.0 * math.pi)
    return float((pref * total).real)


def theta_partial(kind: str, z: complex, q: complex, n_terms: int) -> complex:
    """Partial sum of a Jacobi theta series with explicit term count.

    kind "theta4": sum over |n| <= n_terms of (-1)^n q^{n^2} e^{2inz}.
    kind "theta2": q^{1/4} sum over -n_terms <= n < n_terms of
    q^{n(n+1)} e^{i(2n+1)z}. Requires |q| < 1; these bare sums exist to
    validate resummation identities, so no acceleration is applied.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    q = complex(q)
    z = complex(z)
    if not abs(q) < 1.0:
        raise DivergentSeriesError(f"theta series requires |q| < 1, got |q| = {abs(q):.6g}")
    if q == 0.0:
        return 1.0 + 0.0j if kind == "theta4" else 0.0 + 0.0j
    # Terms assembled as a single exp so the q^{n^2} decay and the e^{2inz}
    # growth cancel inside the exponent instead of meeting as 0 * inf.
    log_q = np.log(q)
    if kind == "theta4":
        ns = np.arange(-n_terms, n_terms + 1)
        signs = np.where(ns % 2 == 0, 1.0, -1.0)
        with np.errstate(under="ignore"):
            terms = signs * np.exp(ns * ns * log_q + 2j * ns * z)
        return complex(np.sum(terms))
    if kind == "theta2":
        ns = np.arange(-n_terms, n_terms)
        with np.errstate(under="ignore"):
            terms = np.exp(ns * (ns + 1) * log_q + 1j * (2 * ns + 1) * z)
        return complex(q**0.25 * np.sum(terms))
    raise ValueError(f"kind must be 'theta2' or 'theta4', got {kind!r}")
