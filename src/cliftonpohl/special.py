"""Complex special functions with an explicit principal-branch policy.

Everything here is single-valued: log-type functions use the principal
branch, and any multi-branch behaviour the geodesic machinery needs is
produced by *continuation along paths* elsewhere, never by re-evaluating
principal values mid-path.

Branch conventions
------------------
* Square roots are ``cmath.sqrt`` (cut along the negative real axis).
* Jacobi functions are evaluated by a descending Landen recursion, which
  takes one step at least for every m other than 0 and 1 (else a small m
  loses the pole at iK'); so it is valid for complex m without case
  analysis, and it preserves sn^2+cn^2 = 1, dn^2+m*sn^2 = 1 to rounding.
  The argument is first reduced modulo the periods 2K and 2iK', whose
  values come from ``carlson_rf`` on the same principal branch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConvergenceError, PoleError, SingularPathError

#: A dimensionless bound: a ratio (|sn|, a tangent's sec^2) above it is "at a pole".
POLE_THRESHOLD = 1e12

#: Landen recursion stops once |m_n| drops below this, after one step at
#: least.  The bottom step drops an O(m_n^2) term, which stays below
#: rounding on a reduced argument.
LANDEN_TOL = 1e-8


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


@lru_cache(maxsize=64)
def _landen_ladder(m: complex):
    """What the Jacobi functions at parameter m need, computed once per m.

    A sampler evaluates at one fixed m, so this is cached (DLMF 22.7,
    19.25.1).  Returns the descending Landen moduli k1, the final m, the
    argument's total scale 1/prod(1 + k1), and the period lattice
    (2K, 2iK', W1, W2), where z = Im(z W1) 2K + Im(z W2) 2iK' writes z in
    the periods.  At m = 0, K' is infinite and the lattice is all zeros,
    so nothing is reduced.  At m = 1 it is (): sn = tanh, cn = dn = sech,
    and where cosh overflows, sech is 0 to double precision.
    """
    if m == 1:
        return ()
    lattice = (0j, 0j, 0j, 0j)
    if m != 0:
        P, Q = 2.0 * carlson_rf(0.0, 1.0 - m, 1.0), 2j * carlson_rf(0.0, m, 1.0)
        det = P.real * Q.imag - P.imag * Q.real
        lattice = (P, Q, -Q.conjugate() / det, P.conjugate() / det)
    scale, shrink = [], 1.0
    while m != 0 and (abs(m) >= LANDEN_TOL or not scale):
        kp = cmath.sqrt(1.0 - m)
        k1 = m / ((1.0 + kp) * (1.0 + kp))
        scale.append(k1)
        shrink /= 1.0 + k1
        m = k1 * k1
        if len(scale) > 64:
            raise ConvergenceError(f"Landen recursion stalled at m = {m!r}")
    return tuple(scale), m, shrink, lattice


def _jacobi_raw(z: complex, m: complex, ladder=None) -> tuple[complex, complex, complex]:
    """Jacobi (sn, cn, dn) with no pole guard; used by the solution chain.

    A caller at one m for many z looks up ``ladder = _landen_ladder(m)`` once.

    z is first reduced by the nearest lattice point p*2K + q*2iK'; by the
    half-period translations (DLMF 22.4(iii)) an odd p negates sn and cn,
    an odd q negates cn and dn.

    Descending Landen: with k' = sqrt(1-m) and k1 = (1-k')/(1+k'), computed
    as m/(1+k')^2, the parameter m1 = k1^2 shrinks quadratically, the
    argument scales by 1/(1+k1), and the values lift through

        sn(z,m) = (1+k1) s / (1 + k1 s^2)
        cn(z,m) = c d / (1 + k1 s^2)
        dn(z,m) = (1 - k1 s^2) / (1 + k1 s^2)

    where (s, c, d) are the functions at (z1, m1).  The lift preserves
    both Jacobi identities exactly, so rounding is the only defect.
    """
    if ladder is None:
        ladder = _landen_ladder(m)
    if not ladder:
        s = cmath.tanh(z)
        try:
            c = 1.0 / cmath.cosh(z)
        except OverflowError:
            c = 0j
        return s, c, c

    scale, m, shrink, (P, Q, W1, W2) = ladder
    p, q = round((z * W1).imag), round((z * W2).imag)
    if p or q:
        z -= p * P + q * Q

    z1 = z * shrink

    s, c = cmath.sin(z1), cmath.cos(z1)
    corr = 0.25 * m * (z1 - s * c)
    s, c, d = s - corr * c, c + corr * s, 1.0 - 0.5 * m * s * s

    for k1 in reversed(scale):
        ssq = s * s
        den = 1.0 + k1 * ssq
        s, c, d = (1.0 + k1) * s / den, c * d / den, (1.0 - k1 * ssq) / den
    if p % 2:
        s, c = -s, -c
    if q % 2:
        c, d = -c, -d
    return s, c, d


def jacobi_elliptic(z: complex, m: complex) -> EllipticTriple:
    """Jacobi sn, cn, dn of argument z with parameter m (both complex).

    Analytic in both arguments away from the lattice poles; proximity to
    a pole is detected by a magnitude threshold (which the NaN of the
    kernel's 0 * inf fails), or by the kernel's division by zero or
    overflow, and raised as PoleError.
    """
    z, m = complex(z), complex(m)
    require_finite(z, m)
    try:
        s, c, d = _jacobi_raw(z, m)
    except ZeroDivisionError:
        raise PoleError("jacobi argument on a lattice pole", location=z) from None
    except OverflowError:
        raise PoleError("jacobi values overflow", location=z) from None
    if not all(abs(w) <= POLE_THRESHOLD for w in (s, c, d)):
        raise PoleError("jacobi values exceed pole threshold", location=z)
    return EllipticTriple(s, c, d)


def carlson_rf(x: complex, y: complex, z: complex) -> complex:
    """Carlson symmetric integral R_F with principal square roots.

    Standard duplication iteration followed by the degree-7 series; valid
    for finite complex arguments off the negative real axis (NaN or
    infinity raises ValueError).
    """
    x, y, z = complex(x), complex(y), complex(z)
    require_finite(x, y, z)
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


def elliptic_F(z: complex, m: complex) -> complex:
    """Incomplete elliptic integral of the first kind (sn form).

    F(z, m) = int_0^z dt / sqrt((1-t^2)(1-m t^2)) along the straight
    segment, computed through Carlson's R_F:  F = z * R_F(1-z^2, 1-m z^2, 1).
    Inverse of sn near the origin: sn(F(z, m), m) = z.

    Raises SingularPathError when the segment [0, z] passes through a branch
    point +/-w of the integrand (w = 1, 1/sqrt(m)), that is, where w/z is real
    and in [-1, 1].  F is continuous up to the segment from either side (the
    two limits differ), so a z off it, however close, is taken.
    """
    z, m = complex(z), complex(m)
    require_finite(z, m)
    if z == 0:
        return 0.0 + 0.0j
    branch_points = (1.0, 1.0 / cmath.sqrt(m)) if m != 0 else (1.0,)
    if any((w / z).imag == 0.0 and abs(w / z) <= 1.0 for w in branch_points):
        raise SingularPathError(
            f"integration path 0 -> {z!r} passes through a branch point"
        )
    return z * carlson_rf(1.0 - z * z, 1.0 - m * z * z, 1.0 + 0j)
