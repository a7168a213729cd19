"""Two-mode squeezed state parameters.

The state is parametrized by a squeezing magnitude r >= 0 and two angles:
``varphi`` (the squeezing phase, which sets the quadrature orientation) and
``theta`` (the rotation angle of the mode pair, which only enters two-time
quantities through differences). Angles are kept exactly as given; no range
reduction is applied anywhere, so caller-supplied values round-trip
bit-identically into every formula. How the squeezed Gaussian depends on
these parameters is the business of ``kernel`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["SqueezeParams", "TransitionSpec"]


@dataclass(frozen=True)
class SqueezeParams:
    """Parameters of one two-mode squeezed state snapshot.

    r: squeezing magnitude, >= 0 and finite.
    varphi: squeezing phase in radians, finite, not range-reduced.
    theta: mode rotation angle in radians, finite, not range-reduced.
    """

    r: float
    varphi: float = 0.0
    theta: float = 0.0

    def __post_init__(self) -> None:
        for name in ("r", "varphi", "theta"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ValueError(f"{name} must be a finite real number, got {v!r}")
        if self.r < 0.0:
            raise ValueError(f"r must be >= 0, got {self.r}")


@dataclass(frozen=True)
class TransitionSpec:
    """An ordered pair of state snapshots for a two-time correlator.

    ``a`` is the earlier-argument side and ``b`` the later-argument side of
    E(a, b); only the rotation difference a.theta - b.theta enters the
    correlator, but both absolute angles are stored untouched.
    """

    a: SqueezeParams
    b: SqueezeParams

    @property
    def delta_theta(self) -> float:
        return self.a.theta - self.b.theta

    def swapped(self) -> "TransitionSpec":
        return TransitionSpec(a=self.b, b=self.a)
