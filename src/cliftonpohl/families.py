"""Closed-form geodesic families as evaluatable samplers.

``solve`` classifies a germ once and gives it one of four samplers:

* ``NullRational``   one coordinate is identically 0, the other is
                     t -> 1/(C - B t);
* ``NullTan``        one coordinate is a nonzero constant k, the other
                     is t -> k tan(a t + b);
* ``Exponential``    t -> (alpha e^{b(t-t0)}, beta e^{b(t-t0)}) on the
                     lines beta = +-alpha, the only place it is a geodesic;
* ``GenericElliptic`` the log / inverse-tanh / elliptic chain, for every
                     other germ; it refuses by a typed error one it cannot
                     represent (near beta = +-alpha, or where A B^2 = 2).

The generic chain, concretely: in log coordinates omega = log u,
eta = log v, the first integrals become

    omega' eta' = 2 A cosh(phi),   1/omega' + 1/eta' = B,
    phi = omega - eta,

so omega' and eta' are the two roots of a quadratic in cosh(phi), and
psi = tanh(phi/2) satisfies

    psi' = P sqrt((1 + psi^2)(1 - R psi^2)),
    P = sqrt(A^2 B^2 - 2A),  R = (A^2 B^2 + 2A)/(2A - A^2 B^2).

Substituting psi = i w maps the quartic to Legendre form with elliptic
parameter m = -R, so w is a Jacobi sn in Theta = Theta0 + D (t - t0)
with D^2 = -P^2.  Rather than inverting sn for Theta0 (whose defining
integral may cross a branch cut), the sampler stores the curve point
(Y, Y') = (w, dw/dTheta) at t0 and propagates it with the sn addition
law as a complete pair of forms (DLMF 22.8): where one is 0/0 the other
is not, and both need only the product cn*dn, never cn and dn alone.
The final integration back to (u, v) uses

    omega' = A B cosh(phi) + phi'/2,   eta' = A B cosh(phi) - phi'/2,

whose square-root branch is pinned automatically by the germ through
phi'(t0) = x/alpha - y/beta.  Their integral is taken a 16-node panel at a
time, with the sampler's constants and the Landen ladder looked up once.
A germ whose anchor fails its checks at t0 is anchored one Taylor step along.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    ChartDegeneracyError,
    ConvergenceError,
    DegenerateCoefficientsError,
    OutOfDomainError,
    PoleError,
)
from .manifold import (
    PROPORTIONAL_EPS,
    FirstIntegrals,
    GeodesicClass,
    GeodesicGerm,
    Point,
    classify,
)
from .special import POLE_THRESHOLD, _jacobi_raw, _landen_ladder, require_finite
from .taylor import ORDER, State, _jet

QUAD_TOL = 1e-12

#: Most 16-point panels (``_gl_pair`` calls) one quadrature may spend.
#: Regular targets at |t| <= 3 need at most about 100; near a chain root,
#: cancellation in 1 + Y^2 puts a noise floor above ``QUAD_TOL`` and
#: bisection would otherwise grind through tens of thousands.
MAX_PANELS = 2048


# ---------------------------------------------------------------------------
# Gauss-Legendre quadrature on complex segments


@lru_cache(maxsize=None)
def _gl_rule(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of n-point Gauss-Legendre on [-1, 1] via Newton."""
    nodes, weights = [], []
    for i in range(n):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(60):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            dx = p1 / dp
            x -= dx
            if abs(dx) < 1e-15:
                break
        p0, p1 = 1.0, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return tuple(nodes), tuple(weights)


def _gl_pair(f, a: complex, b: complex) -> tuple[complex, complex]:
    """Integrate over [a, b] by the 16-point rule a C -> C^2 function f, which
    takes the panel's nodes and yields their values in order."""
    nodes, weights = _gl_rule(16)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    s1 = 0j
    s2 = 0j
    for w, (f1, f2) in zip(weights, f([mid + half * x for x in nodes])):
        s1 += w * f1
        s2 += w * f2
    return half * s1, half * s2


def adaptive_segment_integral(f, a: complex, b: complex) -> tuple[complex, complex]:
    """Adaptive bisection of a 16-point Gauss-Legendre pair rule.

    A panel is bisected until its two halves agree with it to ``QUAD_TOL``;
    each half then serves as the whole of its own bisection, so no panel
    is evaluated twice.  Work is bounded: at most ``MAX_PANELS`` calls of
    the 16-point rule, else ``ConvergenceError`` at the panel that stalled.
    """
    panels = 1

    def bisect(a: complex, b: complex, whole) -> tuple[complex, complex]:
        nonlocal panels
        mid = 0.5 * (a + b)
        if panels + 2 > MAX_PANELS:
            raise ConvergenceError(
                f"quadrature exceeded {MAX_PANELS} panels", location=mid
            )
        panels += 2
        left = _gl_pair(f, a, mid)
        right = _gl_pair(f, mid, b)
        fine = (left[0] + right[0], left[1] + right[1])
        err = max(abs(fine[0] - whole[0]), abs(fine[1] - whole[1]))
        if err <= QUAD_TOL * (1.0 + abs(fine[0]) + abs(fine[1])):
            return fine
        l = bisect(a, mid, left)
        r = bisect(mid, b, right)
        return l[0] + r[0], l[1] + r[1]

    return bisect(a, b, _gl_pair(f, a, b))


# ---------------------------------------------------------------------------
# Coefficients of the psi equation


@dataclass(frozen=True)
class PsiCoefficients:
    """Prefactor and quartic ratio of the separated psi equation."""

    prefactor: complex
    ratio: complex


def psi_coefficients(fi: FirstIntegrals) -> PsiCoefficients:
    """P = sqrt(A^2 B^2 - 2A) (principal), R = (A^2 B^2 + 2A)/(2A - A^2 B^2)."""
    A, B = fi.A, fi.B
    s = A * A * B * B
    den = 2.0 * A - s
    if abs(den) <= 1e-14 * (abs(s) + 2.0 * abs(A)):
        raise DegenerateCoefficientsError(
            "2A - A^2 B^2 = 0: the quartic degenerates (A B^2 = 2)"
        )
    return PsiCoefficients(prefactor=cmath.sqrt(s - 2.0 * A), ratio=(s + 2.0 * A) / den)


# ---------------------------------------------------------------------------
# Samplers


class _NullSampler:
    """Coordinate ``moving`` follows ``_moving_value``; the other is the constant k."""

    def __init__(self, moving: str, k: complex):
        self.moving = moving
        self.k = k

    def position_velocity(self, t: complex):
        w, dw = self._moving_value(t)
        if self.moving == "u":
            return (w, self.k), (dw, 0j)
        return (self.k, w), (0j, dw)


#: (2/POLE_THRESHOLD)^(1/3), the null rational sampler's refusal ratio.
_CUBE_ROOT = (2.0 / POLE_THRESHOLD) ** (1.0 / 3.0)


class NullRationalSampler(_NullSampler):
    """Null geodesic with zero constant coordinate: m(t) = 1/(C - B t), refused
    within (2/``POLE_THRESHOLD``)^(1/3) of the germ's own distance |t0 - C/B|."""

    family = "NullRational"

    def __init__(self, moving: str, B: complex, C: complex, t0: complex):
        super().__init__(moving, 0j)
        self.B = B
        self.C = C
        self.t0 = t0

    @property
    def pole(self) -> complex:
        return self.C / self.B

    def _moving_value(self, t: complex) -> tuple[complex, complex]:
        d = self.C - self.B * t
        # |d|^3 POLE_THRESHOLD < 2 |d0|^3, with no cube to overflow
        if abs(d) < _CUBE_ROOT * abs(self.C - self.B * self.t0):
            raise PoleError("sampler evaluated at its pole", location=self.pole)
        w = 1.0 / d
        return w, self.B * w * w

    def poles_within(self, center: complex, radius: float) -> list[complex]:
        p = self.pole
        return [p] if abs(p - center) <= radius else []


class NullTanSampler(_NullSampler):
    """Null geodesic with constant coordinate k != 0: m(t) = k tan(a t + b),
    refused where sec^2(a t + b) exceeds ``POLE_THRESHOLD``."""

    family = "NullTan"

    def __init__(self, moving: str, k: complex, a: complex, b: complex):
        super().__init__(moving, k)
        self.a = a
        self.b = b

    def _moving_value(self, t: complex) -> tuple[complex, complex]:
        th = self.a * t + self.b
        # tan stays finite off the real line, where sin and cos overflow
        tan = cmath.tan(th)
        try:
            c = cmath.cos(th)
        except OverflowError:  # |Im th| > 710: sec^2 = 4 e^(-2 |Im th|) is below the doubles
            return self.k * tan, 0j
        m = abs(c)
        if m * m * POLE_THRESHOLD < 1.0:  # a product, not a power: it may reach inf
            raise PoleError(
                "sampler evaluated at a tangent pole", location=self.nearest_pole(t)
            )
        # 1 + tan^2 would cancel off the real line; 1/c does not overflow
        sec = 1.0 / c
        return self.k * tan, self.k * self.a * (sec * sec)

    def nearest_pole(self, t: complex) -> complex:
        th = self.a * t + self.b
        n = round((th.real - math.pi / 2.0) / math.pi)
        return (math.pi / 2.0 + n * math.pi - self.b) / self.a

    def poles_within(self, center: complex, radius: float) -> list[complex]:
        # (pi/2 + n pi - b)/a is in the disc only if |n pi - w| <= radius |a|:
        # n is in an interval, widened by one at each end against rounding
        w = self.a * center + self.b - math.pi / 2.0
        reach = radius * abs(self.a)
        lo = math.floor((w.real - reach) / math.pi) - 1
        hi = math.ceil((w.real + reach) / math.pi) + 1
        hits = {(math.pi / 2.0 + n * math.pi - self.b) / self.a for n in range(lo, hi + 1)}
        inside = [p for p in hits if abs(p - center) <= radius]
        return sorted(inside, key=lambda p: (p.real, p.imag))


class ExponentialSampler:
    """(alpha e^{b(t-t0)}, beta e^{b(t-t0)}); entire, no obstructions.  Where
    e^{b(t-t0)} is past the double range it raises OutOfDomainError."""

    family = "Exponential"

    def __init__(self, alpha: complex, beta: complex, b: complex, t0: complex):
        self.alpha = alpha
        self.beta = beta
        self.b = b
        self.t0 = t0

    def position_velocity(self, t: complex):
        try:
            e = cmath.exp(self.b * (t - self.t0))
        except OverflowError:
            raise OutOfDomainError("u and v are beyond the double range here") from None
        u, v = self.alpha * e, self.beta * e
        return (u, v), (self.b * u, self.b * v)

    def poles_within(self, center: complex, radius: float) -> list[complex]:
        return []


def _at_chain_root(YY: complex) -> bool:
    """Whether Y is a root of 1 + Y^2 relative to max(1, |Y^2|), given YY = Y^2."""
    return abs(1.0 + YY) * POLE_THRESHOLD < max(1.0, abs(YY))


class GenericEllipticSampler:
    """The full log / artanh / elliptic chain for a generic germ."""

    family = "GenericElliptic"

    def __init__(
        self,
        A: complex,
        B: complex,
        m: complex,
        D: complex,
        Y0: complex,
        Yp0: complex,
        omega0: complex,
        eta0: complex,
        t0: complex,
    ):
        self.A, self.B, self.m, self.D = A, B, m, D
        self.Y0, self.Yp0 = Y0, Yp0
        self.omega0, self.eta0 = omega0, eta0
        self.t0 = t0

    def _curve(self, points):
        """The curve point (Y, dY/dTheta) at each of ``points``, in order, by
        the addition law; constants and the Landen ladder are looked up once.
        Of its two forms (DLMF 22.8), with denominators Q = 1 - m s1^2 s2^2 and
        R = s1 p2 - s2 p1 (p = cn dn), the one with the larger is taken: each
        is 0/0 only where the other is not.  Both vanish only at a pole of Y,
        where u = -v, a regular point the chain cannot represent; so is a
        curve point past the double range (an overflow, or a NaN)."""
        m, D, t0, s1, p1 = self.m, self.D, self.t0, self.Y0, self.Yp0
        s1sq, c1sq, d1sq = s1 * s1, 1.0 - s1 * s1, 1.0 - m * s1 * s1
        ladder = _landen_ladder(m)
        for t in points:
            try:
                s2, c2, d2 = _jacobi_raw(D * (t - t0), m, ladder)
                p2, s2sq = c2 * d2, s2 * s2
                s1s2 = s1sq * s2sq
                Q, R = 1.0 - m * s1s2, s1 * p2 - s2 * p1
                if abs(R) > abs(Q):
                    Y, den = (s1sq - s2sq) / R, R * R
                    Yp = p1 * p2 * (s1sq + s2sq) - s1 * s2 * (c1sq * d2 * d2 + d1sq * c2 * c2)
                else:
                    Y, den = (s1 * p2 + s2 * p1) / Q, Q * Q
                    Yp = p1 * p2 * (1.0 + m * s1s2) - s1 * s2 * (m * c1sq * c2 * c2 + d1sq * d2 * d2)
                Yp /= den
            except (OverflowError, ZeroDivisionError):
                Y = Yp = cmath.nan
            if not (cmath.isfinite(Y) and cmath.isfinite(Yp)):
                raise PoleError("the curve point has a pole here, where u = -v", location=t)
            yield Y, Yp

    def curve_point(self, t: complex) -> tuple[complex, complex]:
        return next(self._curve((t,)))

    def _rates(self, points, curve):
        """cosh(phi) and phi' at each of ``points``, in order, from the
        curve points (Y, dY/dTheta) that ``curve`` yields for them.

        A root of 1 + Y^2 (psi = +/-1) is refused by what it is.  There
        omega' and eta' have residues AB/(Y D Y') + i/(2Y) and
        AB/(Y D Y') - i/(2Y), which differ by i/Y = +/-1.  A residue -1
        is a pole of u or v (``PoleError``); residues +1 and 0 are a zero
        of u or v, where the log chart breaks (``ChartDegeneracyError``).
        At B = 0 the roots are double, with residues +1 and -1; the
        formula gives +1/2 and -1/2 there, the same signs, so they count
        as poles.  The smaller residue is thus -1, -1/2 or 0, and is
        compared with -1/4: at a zero it is 0 up to rounding, either sign.
        """
        AB, D, D2j = self.A * self.B, self.D, 2j * self.D
        for t, (Y, Yp) in zip(points, curve):
            YY = Y * Y
            if _at_chain_root(YY):
                r, h = AB / (Y * D * Yp), 0.5j / Y
                if min((r + h).real, (r - h).real) < -0.25:
                    raise PoleError("chain root: pole of u or v", location=t)
                raise ChartDegeneracyError("chain root: zero of u or v", location=t)
            one = 1.0 + YY
            yield (1.0 - YY) / one, D2j * Yp / one

    def _chain(self, t: complex) -> tuple[complex, complex, complex, complex]:
        """cosh(phi), phi', omega', eta' at t (see ``_rates``)."""
        ch, phid = next(self._rates((t,), self._curve((t,))))
        ab = self.A * self.B * ch
        return ch, phid, ab + 0.5 * phid, ab - 0.5 * phid

    def log_rates(self, t: complex) -> tuple[complex, complex]:
        """(omega', eta') = (u'/u, v'/v)."""
        _, _, od, ed = self._chain(t)
        return od, ed

    def _omega_eta(self, t: complex) -> tuple[complex, complex]:
        ic, iphi = adaptive_segment_integral(lambda p: self._rates(p, self._curve(p)), self.t0, t)
        ab = self.A * self.B * ic
        return self.omega0 + ab + 0.5 * iphi, self.eta0 + ab - 0.5 * iphi

    def position_velocity(self, t: complex):
        """(u, v), (u', v') at t: (omega', eta') from the chain at t, then
        (omega, eta) integrated from t0 along the segment.

        The chain is evaluated at t first, so a chain root is refused
        before any quadrature (0 panels); any other call spends at most
        ``MAX_PANELS`` panels.  A u or v past the double range is a PoleError.
        """
        _, _, od, ed = self._chain(t)
        om, et = self._omega_eta(t)
        try:
            u, v = cmath.exp(om), cmath.exp(et)
        except OverflowError:
            raise PoleError("u or v is beyond the double range here", location=t) from None
        return (u, v), (od * u, ed * v)

    def poles_within(self, center: complex, radius: float) -> list[complex]:
        # not known in closed form cheaply; probing handles the generic family
        raise NotImplementedError


GeodesicSampler = (
    NullRationalSampler | NullTanSampler | ExponentialSampler | GenericEllipticSampler
)


# ---------------------------------------------------------------------------
# Solver


def _generic_from_state(
    state: State, t0: complex, fi: FirstIntegrals
) -> GenericEllipticSampler:
    """The chain through ``state`` at t0, whose first integrals are ``fi``, anchored
    where its curve point (Y, dY/dTheta) passes two checks: Y is no root of
    1 + Y^2 (as in ``_rates``), and the point is on the curve to 1e-8 (a NaN or
    an ArithmeticError fails the check it meets).  Failing at t0 (as near an axis
    or beta = -alpha), it is anchored one Taylor step along, the longest whose
    tail stays at 2^-52 relative to 1 + |constant term|, which keeps A and B."""
    co = psi_coefficients(fi)
    m, D = -co.ratio, 1j * co.prefactor
    for step in (False, True):
        if step:
            jet = _jet(ORDER)
            U, V, dU, dV = jet.series(state)
            h = jet.length(U, V, dU, dV, 2.0**-52)
            state, t0 = jet.advance(U, V, dU, dV, h), t0 + h
        a, b, x, y = state
        why = "chain anchor at a zero of u or v"
        try:
            psi0 = (a - b) / (a + b)  # tanh(log(a/b)/2), branch-free
            Y0 = -1j * psi0
            if not _at_chain_root(Y0 * Y0):
                why = "inconsistent elliptic curve point for this germ"
                Yp0 = 0.5 * (x / a - y / b) * (1.0 - psi0 * psi0) / (1j * D)
                defect = abs(Yp0 * Yp0 - (1.0 - Y0 * Y0) * (1.0 - m * Y0 * Y0))
                if defect <= 1e-8 * (1.0 + abs(Yp0) ** 2):
                    break
        except ArithmeticError:
            pass
    else:
        raise ChartDegeneracyError(why)
    return GenericEllipticSampler(fi.A, fi.B, m, D, Y0, Yp0, cmath.log(a), cmath.log(b), t0)


def solve(g: GeodesicGerm) -> GeodesicSampler:
    """The closed form through a germ, classified once: its null sampler, the
    exponential form on beta = +-alpha (a geodesic only there), else the
    elliptic chain, which refuses by a typed error a germ it cannot represent."""
    a, b, x, y = g.state()
    c = classify(g)
    if c.tag in (GeodesicClass.NULL_U_CONST, GeodesicClass.NULL_V_CONST):
        if x == 0:
            moving, k, w0, dw0 = "v", a, b, y
        else:
            moving, k, w0, dw0 = "u", b, a, x
        if k == 0:
            B = dw0 / (w0 * w0)
            return NullRationalSampler(moving, B, 1.0 / w0 + B * g.t0, g.t0)
        aa = k * dw0 / (k * k + w0 * w0)  # nonzero: the germ is in the domain
        return NullTanSampler(moving, k, aa, cmath.atan(w0 / k) - aa * g.t0)
    if c.tag is GeodesicClass.EXPONENTIAL:
        a2, b2 = a * a, b * b
        if abs(a2 - b2) <= PROPORTIONAL_EPS * (abs(a2) + abs(b2)):
            return ExponentialSampler(a, b, x / a, g.t0)
    return _generic_from_state(g.state(), g.t0, c.integrals)


def sample(sampler: GeodesicSampler, t: complex) -> tuple[Point, tuple[complex, complex]]:
    """Evaluate a sampler: position as a domain-checked Point, velocity exact.

    A non-finite t raises ValueError before any work.  Closed-form
    families cost O(1).  The generic chain refuses a root of 1 + Y^2 at
    t with no quadrature, and otherwise spends at most ``MAX_PANELS``
    16-point panels integrating from t0 to t.
    """
    require_finite(t)
    (u, v), (du, dv) = sampler.position_velocity(complex(t))
    return Point(u, v), (du, dv)
