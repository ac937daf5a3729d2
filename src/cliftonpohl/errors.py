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
    """A germ could not be moved off a coordinate axis, or its u^2 + v^2
    is not a finite nonzero double."""


class BothComponentsZeroError(CliftonPohlError):
    """Null solver got a germ whose velocity components both vanish."""


class ClassificationMismatchError(CliftonPohlError):
    """A family solver received a germ of a different class."""


class ChartDegeneracyError(CliftonPohlError):
    """Evaluation would cross u = 0 or v = 0 where the log chart breaks."""


class DegenerateCoefficientsError(CliftonPohlError):
    """The quartic coefficients degenerate (2A - A^2 B^2 = 0)."""


class ConvergenceError(CliftonPohlError):
    """An iterative kernel failed to converge."""
