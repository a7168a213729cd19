"""Exception hierarchy for squeezebell.

Every numerical-domain failure raises a subclass of :class:`SqueezeBellError`
whose message names the violated condition, so callers (and the CLI) can
report *why* a point is not evaluable instead of a bare traceback. The
reduced form is finite at every pair, coincident ones included, until it
leaves double precision (ComplexOverflowError, r_a + r_b ~ 355).
"""

from __future__ import annotations


class SqueezeBellError(Exception):
    """Base class for all squeezebell domain errors."""


class BranchPoleError(SqueezeBellError):
    """Argument sits on a branch pole of an inverse trigonometric map."""


class ComplexOverflowError(SqueezeBellError):
    """A quadratic form or a scaled special function left the double-precision range."""


class NonConvergentXiError(SqueezeBellError):
    """A series does not settle: the band series' inner erfc sum, or the dual series.

    Every form the kernel returns meets the band integral's convergence
    conditions, so this never reports the form itself.
    """


class MaxBandsExceededError(SqueezeBellError):
    """Band series did not settle within the configured band limit."""


class BudgetExceededError(SqueezeBellError):
    """Brute-force cell count exceeds the quadrature budget."""


class DivergentSeriesError(SqueezeBellError):
    """Series argument outside its convergence domain (e.g. theta |q| >= 1)."""
