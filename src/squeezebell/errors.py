"""Exception hierarchy for squeezebell.

Every numerical-domain failure raises a subclass of :class:`SqueezeBellError`
whose message names the violated condition, so callers (and the CLI) can
report *why* a point is not evaluable instead of a bare traceback.
"""

from __future__ import annotations


class SqueezeBellError(Exception):
    """Base class for all squeezebell domain errors."""


class BranchPoleError(SqueezeBellError):
    """Argument sits on a branch pole of an inverse trigonometric map."""


class ComplexOverflowError(SqueezeBellError):
    """A scaled special-function evaluation left the double-precision range."""


class QuadrantConditionError(SqueezeBellError):
    """Quadrant Gaussian integral preconditions violated.

    Carries the list of failed inequalities so error messages can name them.
    """

    def __init__(self, failed: list[str]):
        self.failed = list(failed)
        super().__init__(
            "quadrant Gaussian integral does not converge; failed conditions: "
            + "; ".join(self.failed)
        )


class SingularCoefficientError(SqueezeBellError):
    """Wavefunction coefficient denominator vanishes (phase-degenerate state)."""


class SingularLocusError(SqueezeBellError):
    """Infinite-squeezing closed form evaluated on its singular locus."""


class DegenerateKernelError(SqueezeBellError):
    """Two-time kernel collapses: the two snapshots are a coincident pair."""


class NonConvergentXiError(SqueezeBellError):
    """Reduced quadratic form violates the band-integral convergence conditions."""


class MaxBandsExceededError(SqueezeBellError):
    """Band series did not settle within the configured band limit."""


class BudgetExceededError(SqueezeBellError):
    """Brute-force cell count exceeds the quadrature budget."""


class DivergentSeriesError(SqueezeBellError):
    """Series argument outside its convergence domain (e.g. theta |q| >= 1)."""
