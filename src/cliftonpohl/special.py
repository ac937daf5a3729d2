"""Complex special functions with an explicit principal-branch policy.

Everything here is single-valued: log-type functions use the principal
branch, and any multi-branch behaviour the geodesic machinery needs is
produced by *continuation along paths* elsewhere, never by re-evaluating
principal values mid-path.

Branch conventions
------------------
* ``artanh_principal`` cuts along (-inf, -1] and [1, inf).
* Square roots are ``cmath.sqrt`` (cut along the negative real axis).
* Jacobi functions are evaluated by a descending Landen recursion whose
  parameters come from the arithmetic-geometric mean; this is uniformly
  valid for complex parameter m without case analysis, and it preserves
  the algebraic identities sn^2+cn^2 = 1, dn^2+m*sn^2 = 1 to rounding.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ConvergenceError, PoleError, SingularPathError

#: Magnitudes above this are treated as "at a pole".
POLE_THRESHOLD = 1e12

#: Landen recursion stops once |m_n| drops below this.
LANDEN_TOL = 1e-16


def require_finite(*values: complex) -> None:
    """Reject NaN/Inf before they enter a public operation."""
    for z in values:
        z = complex(z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"non-finite complex value {z!r}")


@dataclass(frozen=True)
class EllipticTriple:
    """Values sn, cn, dn of the Jacobi elliptic functions at one point."""

    sn: complex
    cn: complex
    dn: complex

    def identity_defects(self, m: complex) -> tuple[float, float]:
        """Residuals of sn^2+cn^2-1 and dn^2+m*sn^2-1."""
        return (
            abs(self.sn * self.sn + self.cn * self.cn - 1.0),
            abs(self.dn * self.dn + m * self.sn * self.sn - 1.0),
        )


def artanh_principal(z: complex) -> complex:
    """Principal inverse hyperbolic tangent, (1/2) log((1+z)/(1-z)).

    Raises PoleError at the logarithmic singularities z = +1, -1.
    """
    z = complex(z)
    require_finite(z)
    if abs(z - 1.0) < 1e-15 or abs(z + 1.0) < 1e-15:
        raise PoleError("artanh pole at z = +/-1", location=z)
    return 0.5 * cmath.log((1.0 + z) / (1.0 - z))


def _jacobi_raw(z: complex, m: complex) -> tuple[complex, complex, complex]:
    """Jacobi (sn, cn, dn) with no pole guard; used by the solution chain.

    Descending Landen: with k' = sqrt(1-m) and k1 = (1-k')/(1+k'), the
    parameter m1 = k1^2 shrinks quadratically, the argument scales by
    1/(1+k1), and the values lift through

        sn(z,m) = (1+k1) s / (1 + k1 s^2)
        cn(z,m) = c d / (1 + k1 s^2)
        dn(z,m) = (1 - k1 s^2) / (1 + k1 s^2)

    where (s, c, d) are the functions at (z1, m1).  The lift preserves
    both Jacobi identities exactly, so rounding is the only defect.
    """
    if abs(m - 1.0) < 1e-15:
        s = cmath.tanh(z)
        c = 1.0 / cmath.cosh(z)
        return s, c, c

    scale = []
    depth = 0
    while abs(m) >= LANDEN_TOL:
        kp = cmath.sqrt(1.0 - m)
        k1 = (1.0 - kp) / (1.0 + kp)
        scale.append(k1)
        m = k1 * k1
        depth += 1
        if depth > 64:
            raise ConvergenceError(f"Landen recursion stalled at m = {m!r}")

    z1 = z
    for k1 in scale:
        z1 /= 1.0 + k1

    s, c = cmath.sin(z1), cmath.cos(z1)
    corr = 0.25 * m * (z1 - s * c)
    s, c, d = s - corr * c, c + corr * s, 1.0 - 0.5 * m * s * s

    for k1 in reversed(scale):
        ssq = s * s
        den = 1.0 + k1 * ssq
        s, c, d = (1.0 + k1) * s / den, c * d / den, (1.0 - k1 * ssq) / den
    return s, c, d


def jacobi_elliptic(z: complex, m: complex) -> EllipticTriple:
    """Jacobi sn, cn, dn of argument z with parameter m (both complex).

    Analytic in both arguments away from the lattice poles; proximity to
    a pole is detected by a magnitude threshold and raised as PoleError.
    """
    z, m = complex(z), complex(m)
    require_finite(z, m)
    s, c, d = _jacobi_raw(z, m)
    if max(abs(s), abs(c), abs(d)) > POLE_THRESHOLD:
        raise PoleError("jacobi values exceed pole threshold", location=z)
    return EllipticTriple(s, c, d)


def carlson_rf(x: complex, y: complex, z: complex) -> complex:
    """Carlson symmetric integral R_F with principal square roots.

    Standard duplication iteration followed by the degree-7 series; valid
    for complex arguments off the negative real axis.
    """
    x, y, z = complex(x), complex(y), complex(z)
    A = (x + y + z) / 3.0
    Q = max(abs(A - x), abs(A - y), abs(A - z)) / (3.0 * 1e-16) ** (1.0 / 8.0)
    n = 0
    while Q > abs(A):
        sx, sy, sz = cmath.sqrt(x), cmath.sqrt(y), cmath.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x, y, z = (x + lam) / 4.0, (y + lam) / 4.0, (z + lam) / 4.0
        A = (x + y + z) / 3.0
        Q /= 4.0
        n += 1
        if n > 100:
            raise ConvergenceError("Carlson R_F duplication failed to converge")
    if A == 0:
        raise ConvergenceError("Carlson R_F degenerates (all arguments 0)")
    # deviations relative to the converged mean; equals Carlson's
    # (A0 - x0)/(A_n 4^n) because A - x quarters at every duplication
    ex = (1.0 - x / A)
    ey = (1.0 - y / A)
    ez = (1.0 - z / A)
    e2 = ex * ey + ey * ez + ez * ex
    e3 = ex * ey * ez
    series = (
        1.0
        - e2 / 10.0
        + e3 / 14.0
        + e2 * e2 / 24.0
        - 3.0 * e2 * e3 / 44.0
        - 5.0 * e2**3 / 208.0
        + 3.0 * e3**2 / 104.0
        + e2**2 * e3 / 16.0
    )
    return series / cmath.sqrt(A)


def dist_to_segment(p: complex, a: complex, b: complex) -> float:
    """Distance from p to the closed segment [a, b] of the complex plane."""
    ab = b - a
    L2 = abs(ab) ** 2
    if L2 == 0.0:
        return abs(p - a)
    s = ((p - a) * ab.conjugate()).real / L2
    s = min(1.0, max(0.0, s))
    return abs(p - (a + s * ab))


def elliptic_F(z: complex, m: complex) -> complex:
    """Incomplete elliptic integral of the first kind (sn form).

    F(z, m) = int_0^z dt / sqrt((1-t^2)(1-m t^2)) along the straight
    segment, computed through Carlson's R_F:  F = z * R_F(1-z^2, 1-m z^2, 1).
    Inverse of sn near the origin: sn(F(z, m), m) = z.

    Raises SingularPathError when the default segment [0, z] passes
    through a branch point of the integrand (t = +/-1, +/-1/sqrt(m)).
    """
    z, m = complex(z), complex(m)
    require_finite(z, m)
    if z == 0:
        return 0.0 + 0.0j
    branch_points = [1.0 + 0j, -1.0 + 0j]
    if m != 0:
        r = 1.0 / cmath.sqrt(m)
        branch_points += [r, -r]
    near = 1e-12 * (1.0 + abs(z))
    if any(dist_to_segment(w, 0j, z) < near for w in branch_points):
        raise SingularPathError(
            f"integration path 0 -> {z!r} passes through a branch point"
        )
    return z * carlson_rf(1.0 - z * z, 1.0 - m * z * z, 1.0 + 0j)
