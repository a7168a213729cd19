"""Seeded inputs for the benchmark workloads.

Everything here is plain data made from ``--seed`` with numpy's PCG64
generator; nothing imports the program, so the inputs are the same on
every commit the benchmark is run against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PI = math.pi

# The CHSH layout of the paper's headline figure: four settings share
# r = 5, phi = 0; the rotation angles start at zero and the two axes set
# a' - b and a' - b' over a full period.
CHSH_R = 5.0
CHSH_ELL = 100.0
CHSH_WORKERS = 2
CHSH_GRID = {"chsh_finite_bin": (61, "auto"), "chsh_sign_limit": (241, "large-ell")}


@dataclass(frozen=True)
class ChshLayout:
    r: float
    ell: float
    method: str
    n: int
    workers: int


def chsh_layout(workload: str, seed: int) -> ChshLayout:
    """The CHSH layouts are the paper's and do not depend on the seed.

    The map has mirror-image islands whose best nodes tie to the last
    digits. Moving r or ell by 1e-9 of itself moves the best node from one
    island to another and the refinement's probes from 75 to 106, so a
    seeded perturbation would change the work from seed to seed.
    """
    n, method = CHSH_GRID[workload]
    return ChshLayout(CHSH_R, CHSH_ELL, method, n, CHSH_WORKERS)


@dataclass(frozen=True)
class Call:
    """One ``squeezebell correlator`` invocation of the points workload."""

    kind: str
    method: str
    ra: float
    phia: float
    rb: float
    phib: float
    dtheta: float
    ell: float

    def argv(self) -> list[str]:
        # Values go as --flag=value: the CLI's parser takes a separate
        # argument such as "-1.7e-05" for an option, not a number.
        values = (("ra", self.ra), ("phia", self.phia), ("rb", self.rb), ("phib", self.phib),
                  ("dtheta", self.dtheta), ("ell", self.ell))
        return ["correlator"] + [f"--{k}={v!r}" for k, v in values] + ["--method", self.method]


# Calls per round by kind. About half are moderate `auto`, a fifth deep
# `auto`, a tenth coincident, and the rest force each remaining method in
# its own regime.
ROUND_MIX = (
    ("moderate", 10),
    ("deep", 4),
    ("coincident", 2),
    ("numeric", 1),
    ("small-ell", 1),
    ("large-ell", 1),
    ("large-squeeze", 1),
    ("oracle", 1),
)

# Deep squeezing in the wide-bin regime: the float Schur chain of the Xi
# reduction loses about e^{2r} eps of relative accuracy, so at these fixed
# inputs the wide-bin value leaves its r -> infinity limit by far more than
# the e^{-2r} bound (r = 10, 12, 15, 18) or the call is refused with a
# false non-convergence error (r = 20). They are the same in every round
# and every seed. They sit 0.1 rad from the locus below, but the same
# formulas carried through in 80-digit arithmetic put the true value
# within 1e-16 of the limit at every one of these r, so a correct
# program passes their check.
FAULT_RS = (10.0, 12.0, 15.0, 18.0, 20.0)
FAULT_CALLS = tuple(
    Call("fault", "auto", r, -0.2, r, 0.2, 0.5, math.exp(2.0 * r)) for r in FAULT_RS
)

# Seeded wide-bin draws stay at r in [4, 5]. Below r = 4 the approach to
# the r -> infinity limit is slower than the e^{-2r} bound near its
# singular locus; from r = 5.5 the fault above already shows at a few
# random angles in a thousand. Either would fail on some seeds only.
DEEP_R_MIN, DEEP_R_MAX = 4.0, 5.0
MODERATE_R = (0.3, 3.0)


def _angles(rng: np.random.Generator) -> tuple[float, float, float]:
    pa, pb = rng.uniform(-PI / 2, PI / 2, size=2)
    return float(pa), float(pb), float(rng.uniform(-PI, PI))


# Near the loci dtheta = 0 and dtheta = +-(phi_a - phi_b) (mod pi) the
# program's wide-bin value at r = 4..5 is up to 0.6 e^{-2r} off its
# r -> infinity limit, while the same formulas in 80-digit arithmetic stay
# within 0.007 e^{-2r}: the fault above, reached at smaller r. It fails
# on some seeds only, so wide-bin draws keep this far from the loci.
LOCUS_MARGIN = 0.2


def _wide_bin_angles(rng: np.random.Generator) -> tuple[float, float, float]:
    while True:
        pa, pb, dth = _angles(rng)
        gaps = (dth, dth + pa - pb, dth - pa + pb)
        if min(abs(math.remainder(g, PI)) for g in gaps) >= LOCUS_MARGIN:
            return pa, pb, dth


def _lerp(u: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * float(u)


def _log_lerp(u: float, lo: float, hi: float) -> float:
    return math.exp(_lerp(u, math.log(lo), math.log(hi)))


def _draw(kind: str, u: np.ndarray, rng: np.random.Generator) -> Call:
    """One call of the given kind; ``u`` holds three uniforms in [0, 1)
    for the parameters that set its cost: r (or r_a), r_b and ell."""
    if kind == "coincident":
        r = _lerp(u[0], *MODERATE_R)
        phi = float(rng.uniform(-PI / 2, PI / 2))
        return Call(kind, "auto", r, phi, r, phi, 0.0, math.exp(r) * _log_lerp(u[2], 0.7, 3.0))
    if kind in ("deep", "large-ell"):
        # Equal r on both sides: with unequal r the approach to the limit
        # is slower than e^{-2 min r}.
        r = _lerp(u[0], DEEP_R_MIN, DEEP_R_MAX)
        pa, pb, dth = _wide_bin_angles(rng)
        ell = math.exp(r) * _log_lerp(u[2], 2e2, 1e4)
        return Call(kind, "auto" if kind == "deep" else kind, r, pa, r, pb, dth, ell)
    ra, rb = _lerp(u[0], *MODERATE_R), _lerp(u[1], *MODERATE_R)
    pa, pb, dth = _angles(rng)
    if kind == "small-ell":
        ell = math.exp(min(ra, rb)) * _log_lerp(u[2], 1e-3, 5e-3)
    elif kind == "large-squeeze":
        ell = math.exp(max(ra, rb)) * _log_lerp(u[2], 2e2, 1e4)
    elif kind == "oracle":
        # At most 24 x 24 cells: the cell window grows like (e^{max r} / ell)^2
        # and with it the memory of the call.
        ell = math.exp(max(ra, rb)) * _log_lerp(u[2], 1.0, 2.0)
    else:  # moderate auto and forced numeric: ell near the state width
        ell = math.exp(0.5 * (ra + rb)) * _log_lerp(u[2], 0.5, 2.0)
    method = "auto" if kind == "moderate" else kind
    return Call(kind, method, ra, pa, rb, pb, dth, ell)


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points in [0, 1)^3 with one point in each n-th of every axis.

    Stratifying the cost-setting parameters keeps the work of a round
    close to the same from round to round and from seed to seed.
    """
    ranks = np.argsort(rng.random((3, n)), axis=1).T
    return (ranks + rng.random((n, 3))) / n


class PointStream:
    """Rounds of correlator calls; round k depends only on (seed, k).

    Each round holds the seeded mix above, in a seeded order, followed by
    the fixed fault calls.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.rounds_made = 0

    def next_round(self) -> list[Call]:
        rng = np.random.default_rng([self.seed, 2, self.rounds_made])
        self.rounds_made += 1
        calls = [_draw(kind, u, rng) for kind, count in ROUND_MIX for u in _strata(rng, count)]
        order = rng.permutation(len(calls))
        return [calls[i] for i in order] + list(FAULT_CALLS)


# The oracle's memory grows with how many cells its refinement splits at
# once, up to one batch of 2048 cells. This call fills a whole batch, so
# the process's memory peak is set in set-up by a fixed call and not by
# whichever seeded oracle call happens to refine deepest.
ORACLE_WARM_UP = Call("oracle", "oracle", 2.1723212074713842, -0.36902919905620957,
                      1.682525259693476, 0.360725128313073, -2.50384273439937,
                      9.320768604979671)


def warm_up_call(kind: str) -> Call:
    """A fixed call of the given kind, the same for every seed."""
    if kind == "oracle":
        return ORACLE_WARM_UP
    return _draw(kind, np.full(3, 0.5), np.random.default_rng([0, 3]))
