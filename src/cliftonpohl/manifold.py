"""The Clifton-Pohl geometry over complex coordinates.

The surface is C^2 minus the cone u^2 + v^2 = 0 (the two lines spanned
by (1, i) and (1, -i)), carrying the metric du dv / (u^2 + v^2) with the
symmetric-product convention du dv = (du x dv + dv x du)/2, so that
g(X, X) = X_u X_v / (u^2 + v^2) and a velocity is null exactly when one
component vanishes.

Geodesics satisfy

    u'' = 2 u u'^2 / (u^2 + v^2),    v'' = 2 v v'^2 / (u^2 + v^2)

and carry the two first integrals

    A = u' v' / (u^2 + v^2),         B = u/u' + v/v'.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass

from .errors import (
    DegenerateGermError,
    NullVelocityComponentError,
    OutOfDomainError,
)
from .special import require_finite
from .taylor import State, taylor_step

#: Relative tolerance of the cone-membership test.  The excluded set is a
#: cone, so the test must be homogeneous in the coordinates.
DOMAIN_EPS = 1e-14

#: Relative tolerance for the proportionality test alpha*y = beta*x.
PROPORTIONAL_EPS = 1e-12

#: Step used to move an on-axis germ into generic position.
AXIS_STEP = 1e-3


def _off_axis(state: State) -> State:
    """The state ``AXIS_STEP`` later along its geodesic (order-8 Taylor step)."""
    return taylor_step(state, AXIS_STEP, order=8)


def in_domain(u: complex, v: complex) -> bool:
    """True iff (u, v) avoids the cone u^2 + v^2 = 0.

    Equivalently, (u, v) is not on either line (1, i)C or (1, -i)C,
    since u^2 + v^2 = (u + iv)(u - iv).  The test is homogeneous, so it
    runs on (u, v) scaled by its largest component, which cannot overflow.
    """
    u, v = complex(u), complex(v)
    scale = max(abs(u.real), abs(u.imag), abs(v.real), abs(v.imag))
    if scale == 0.0:
        return False
    u, v = u / scale, v / scale
    return abs(u * u + v * v) > DOMAIN_EPS * (abs(u) ** 2 + abs(v) ** 2)


@dataclass(frozen=True)
class Point:
    """A point of the surface; construction enforces domain membership."""

    u: complex
    v: complex

    def __post_init__(self):
        require_finite(self.u, self.v)
        if not in_domain(self.u, self.v):
            raise OutOfDomainError(f"({self.u!r}, {self.v!r}) lies on u^2+v^2 = 0")

    @property
    def cone_value(self) -> complex:
        return self.u * self.u + self.v * self.v


@dataclass(frozen=True)
class GeodesicGerm:
    """Initial data of a geodesic: point, velocity, and base time."""

    point: Point
    velocity: tuple[complex, complex]
    t0: complex = 0j

    def __post_init__(self):
        x, y = self.velocity
        require_finite(x, y, self.t0)
        if x == 0 and y == 0:
            raise ValueError("germ velocity must be nonzero")
        # the series kernel and the first integrals divide by it unscaled
        f = self.alpha * self.alpha + self.beta * self.beta
        if not (cmath.isfinite(f) and f != 0):
            raise DegenerateGermError(f"u^2 + v^2 = {f!r} at the germ's point is out of range")

    @property
    def alpha(self) -> complex:
        return self.point.u

    @property
    def beta(self) -> complex:
        return self.point.v

    @property
    def x(self) -> complex:
        return self.velocity[0]

    @property
    def y(self) -> complex:
        return self.velocity[1]

    def state(self) -> tuple[complex, complex, complex, complex]:
        return (self.alpha, self.beta, self.x, self.y)


def germ(
    alpha: complex, beta: complex, x: complex, y: complex, t0: complex = 0j
) -> GeodesicGerm:
    """Convenience constructor from bare coordinates."""
    return GeodesicGerm(Point(complex(alpha), complex(beta)), (complex(x), complex(y)), complex(t0))


class GeodesicClass(enum.Enum):
    NULL_U_CONST = "NullUConst"
    NULL_V_CONST = "NullVConst"
    EXPONENTIAL = "Exponential"
    GENERIC = "Generic"


@dataclass(frozen=True)
class FirstIntegrals:
    """The conserved pair (A, B)."""

    A: complex
    B: complex


@dataclass(frozen=True)
class Classification:
    tag: GeodesicClass
    integrals: FirstIntegrals | None = None
    #: A B^2 cosh(log(alpha/beta)); equals 2 exactly on the exponential family.
    discriminant: complex | None = None


def metric_eval(
    p: Point, X: tuple[complex, complex], Y: tuple[complex, complex]
) -> complex:
    """g(X, Y) = (X_u Y_v + X_v Y_u) / (2 (u^2 + v^2)) at p."""
    require_finite(*X, *Y)
    if not in_domain(p.u, p.v):
        raise OutOfDomainError("metric evaluated outside the domain")
    return (X[0] * Y[1] + X[1] * Y[0]) / (2.0 * p.cone_value)


def geodesic_rhs(
    state: tuple[complex, complex, complex, complex],
) -> tuple[complex, complex, complex, complex]:
    """(u', v', u'', v'') for the geodesic flow at the given state."""
    u, v, du, dv = state
    f = u * u + v * v
    if not in_domain(u, v):
        raise OutOfDomainError("geodesic right-hand side outside the domain")
    return (du, dv, 2.0 * u * du * du / f, 2.0 * v * dv * dv / f)


def first_integrals(g: GeodesicGerm) -> FirstIntegrals:
    """A = xy/(alpha^2+beta^2), B = alpha/x + beta/y."""
    a, b, x, y = g.state()
    if x == 0 or y == 0:
        raise NullVelocityComponentError("B is undefined when x*y = 0")
    return FirstIntegrals(A=x * y / (a * a + b * b), B=a / x + b / y)


def _discriminant(a: complex, b: complex, x: complex, y: complex) -> complex:
    # A B^2 cosh(log(a/b)) with cosh(log z) written branch-free as
    # (a^2 + b^2)/(2 a b); simplifies to (a y + b x)^2 / (2 a b x y)
    return (a * y + b * x) ** 2 / (2.0 * a * b * x * y)


def classify(g: GeodesicGerm) -> Classification:
    """Sort a germ into null / exponential / generic families.

    A germ sitting on a coordinate axis with both velocity components
    nonzero is first advanced by one exact Taylor mini-step, reaching a
    generic position along the same geodesic (the discriminant needs
    alpha*beta != 0).
    """
    a, b, x, y = g.state()
    if x == 0:
        return Classification(GeodesicClass.NULL_U_CONST)
    if y == 0:
        return Classification(GeodesicClass.NULL_V_CONST)

    fi = first_integrals(g)
    if a == 0 or b == 0:
        a, b, x, y = _off_axis((a, b, x, y))
        if abs(a) < 1e-30 or abs(b) < 1e-30:
            raise DegenerateGermError("germ could not be moved off the axis")

    if abs(a * y - b * x) <= PROPORTIONAL_EPS * (abs(a * y) + abs(b * x)):
        return Classification(GeodesicClass.EXPONENTIAL, fi, _discriminant(a, b, x, y))
    return Classification(GeodesicClass.GENERIC, fi, _discriminant(a, b, x, y))


def dilate(g: GeodesicGerm, k: int) -> GeodesicGerm:
    """Apply the isometry (u, v) -> 2^k (u, v) to a germ.

    Powers of two are exact in binary floating point, so classification
    data is preserved bit-for-bit across the orbit.
    """
    s = 2.0**k
    return GeodesicGerm(
        Point(s * g.alpha, s * g.beta), (s * g.x, s * g.y), g.t0
    )
