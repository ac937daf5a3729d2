"""Exception types shared across the package."""

from __future__ import annotations


class CliftonPohlError(Exception):
    """Base class for all library errors.

    ``location`` is where the failure sits in the relevant complex plane
    (a pole, a zero of the log chart, a stalled quadrature panel), when
    one is known.
    """

    def __init__(self, message: str = "", location: complex | None = None):
        super().__init__(message)
        self.location = location


class PoleError(CliftonPohlError):
    """A function was evaluated at (or too close to) a pole."""


class SingularPathError(CliftonPohlError):
    """The default integration path runs through a branch point."""


class OutOfDomainError(CliftonPohlError):
    """Point lies on the excluded cone u^2 + v^2 = 0 (or is non-finite)."""


class NullVelocityComponentError(CliftonPohlError):
    """First integrals need both velocity components nonzero."""


class DegenerateGermError(CliftonPohlError):
    """A germ's u^2 + v^2, its A = xy/(u^2 + v^2) or its discriminant is out
    of the double range."""


class ChartDegeneracyError(CliftonPohlError):
    """Evaluation would cross u = 0 or v = 0 where the log chart breaks, or
    the chain's anchor, at t0 and one step along, is within rounding of
    u = 0 or v = 0 or off its curve (as near beta = +-alpha)."""


class DegenerateCoefficientsError(CliftonPohlError):
    """The quartic coefficients degenerate (2A - A^2 B^2 = 0)."""


class ConvergenceError(CliftonPohlError):
    """An iterative kernel failed to converge."""
