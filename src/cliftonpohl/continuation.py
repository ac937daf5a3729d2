"""Analytic continuation of geodesic germs along paths in complex time.

Continuation integrates the second-order system in (u, v), or in the
probe also in (1/u, 1/v), never in the log chart, so its degeneracies at
u = 0 or v = 0 are invisible here; what stops a path is a singular point
of the solution on it (u and v are meromorphic in t, so a pole) or the
geodesic running into the excluded cone u^2 + v^2 = 0.

The integrator takes fixed-order Taylor steps along the real arclength
of each polyline segment, or of a circle in ``loop_monodromy``, in one
step loop.  Each step builds the series of (u, v) and of (u', v')
once, with the order-``ORDER`` kernel that ``taylor.geodesic_series``
runs (three Cauchy products per order, from the energy integral
u'v'/(u^2 + v^2)), and takes the longest step whose
truncated tail, judged by the last two terms of u, v, u' and v' (Jorba &
Zou 2005, Exp. Math. 14:99), stays below ``TAIL_FACTOR * tol`` relative
to 1 + |component|.  ``tol`` thus bounds the local error of every step
at 1e-4 tol; on the paths of length up to 5 that the tests and
perfbench check against a 30-digit reference, the endpoint error stays
below ``tol`` itself.  The series build, the step length, the Horner
update of the state and the estimate below are straight-line code that
``taylor`` generates and compiles as one module per order, the jet
(``taylor._jet``), which each segment binds once; so a step runs no
loop outside the series build, and a null state (u' or v' zero) builds
only the moving coordinate's series, at a sixth of the products.
The same coefficients give the nearest singularity by the ratio test
(Chang & Corliss 1980), and every stop of a path is read off its step's
own series.  A straight segment halts where that estimate has settled
(relative spread at most ``SETTLED_SPREAD``) on a point of its rest
(``_integrate_segment``'s settle rule, or a probe ray's scan in its
place); failing that, a path is obstructed where its step collapses,
that is, no longer moves t (the step rule shrinks the step toward a
singular point until it falls below the resolution of t), at the start
of a step whose new state is not finite, or on the cone.  No stop reads
the size of the state or the length of a step, so a path passes beside
a pole however closely or faintly.  Every stop of a segment carries one
estimate, (offset, spread), and nothing re-expands its state: a
collapse reads it off the series it could not step with, and a halt
carries the estimate it halted on.  ``continue_path`` reports the
singular time t + offset with radius max(|offset| spread, 1e-12); on
the shot halts of the tests and perfbench, |offset| spread stays below
3.4e-13 and the floor sets the radius.  An obstruction is reported as
*data* (a trace status with an estimated singular time), never as an
exception.

The completeness probe shoots straight rays and reads every step's own
nearest-singularity estimate; there is no second estimator on the ray.
A step runs that estimate only where the last raw coefficient ratio of
u or v (one division per list) puts a singular point within
``SCAN_REACH`` tube widths of it, about one step in six on the
benchmark's probe germs, and a fan builds the series of its germ's
state once, for the first step of every ray.
When a step's estimate lands inside the ray's capture tube, and not
within its own uncertainty of a point the ray already has, the ray
halts.  An estimate whose relative spread is at most ``SETTLED_SPREAD``
has converged to rounding and settles where it is; any other is
polished by Newton in the chart (1/u, 1/v), an isometry of
2 du dv / (u^2 + v^2) in which the same integrator runs and a simple
pole of u or v is a regular zero.  A collapse is located from its own
estimate the same way.  A pole ahead of the halt is crossed by one
segment in that chart along the ray, to the halt's mirror point past
the pole's projection; a collapse, by one tube width.  A crossing that
stops past the pole has met a zero of u or v (it halts where its
settle rule finds one ahead), regular in (u, v), and the ray resumes
there; one that stops short of the pole leaves the ray Blocked.  A ray
thus crosses each pole it records at most once.  A state with u or v
exactly 0 (v = 0 on a null geodesic whose u has one pole) has no image
there, and its ray ends at the pole.  A candidate that does not settle
is suppressed unreported: cone touches u^2 + v^2 = 0, where high-order
coefficients are rounding noise, and estimates that average two poles.

The geodesic system is autonomous with real coefficients, so for a germ
whose state (u, v, u', v') is real, Schwarz reflection gives
y(t0 + conj(t - t0)) = conj(y(t)): its obstruction set, and the outcome
of every probe ray, is mirror-symmetric about the line Im t = Im t0.
The probe of a real germ therefore traces only the rays with angles in
[0, pi] and mirrors them onto the rest of the fan.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

from .manifold import GeodesicGerm
from .special import require_finite
from .taylor import ORDER, _jet
# not called here: perfbench's tracer wraps continuation.nearest_singularity
# by name; ROADMAP items 1 and 9 retire the import with that wrapper
from .taylor import nearest_singularity  # noqa: F401

State = tuple[complex, complex, complex, complex]

#: Truncated tail allowed per step, as a fraction of tol * (1 + |y|).
#: At 1e-3 or 1e-2 the endpoint error of paths grazing the cone
#: u^2 + v^2 = 0 exceeds tol.
TAIL_FACTOR = 1e-4

#: Cluster width for probe obstruction estimates, relative to the radius.
CLUSTER_TOL = 2e-5

#: A probe walk settles at once on an estimate whose relative spread is
#: at most this: its ratios have converged to rounding, so walking closer
#: cannot sharpen the location.  Settling below a spread of 0.05 instead
#: misplaces tan-family and dense-lattice poles by up to 2e-3.
SETTLED_SPREAD = 1e-12

#: A probe ray halts on estimates within its capture tube, of width
#: TUBE_WIDTH * |t - t0| * sin(pi/n) + TUBE_FLOOR * radius about t, and
#: crosses a collapse by that width.  The first term is 0.8 of the gap to
#: the neighbouring rays, so neighbouring tubes overlap; the floor lets a
#: ray that collapses at t0, next to a pole, cross forward.
TUBE_WIDTH = 1.6
TUBE_FLOOR = 5e-3

#: An estimate at offset off is uncertain by |off| * max(spread, SPREAD_FLOOR):
#: a candidate that close to a point the ray has is not walked to again.
SPREAD_FLOOR = 5e-3

#: A probe ray's scan runs the estimate only where the last raw
#: coefficient ratio of u or v puts a singular point within this many
#: tube widths of t.  On 62 germs at 64 rays, every scan halt lay within
#: 1.11 widths of its raw ratio; at a reach of 1.0 the reports of two
#: dense-lattice germs (the 17th and 25th draws of
#: ``acceptance.random_generic_germ(Random(77))``) change.
SCAN_REACH = 2.0

_TOL_RANGE = (1e-14, 1e-3)


@dataclass(frozen=True)
class PathPolyline:
    """Finite waypoint sequence in the complex t-plane."""

    waypoints: tuple[complex, ...]

    def __post_init__(self):
        pts = tuple(complex(w) for w in self.waypoints)
        object.__setattr__(self, "waypoints", pts)
        require_finite(*pts)
        if len(pts) < 2:
            raise ValueError("a path needs at least two waypoints")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise ValueError("consecutive waypoints must be distinct")


@dataclass(frozen=True)
class TraceSample:
    t: complex
    u: complex
    v: complex
    du: complex
    dv: complex


@dataclass(frozen=True)
class Obstruction:
    t_star: complex
    radius: float


@dataclass
class ContinuationTrace:
    germ: GeodesicGerm
    waypoints: tuple[complex, ...]
    tol: float
    samples: list[TraceSample] = field(default_factory=list)
    status: str = "Completed"
    obstruction: Obstruction | None = None

    @property
    def endpoint(self) -> TraceSample:
        return self.samples[-1]

    @property
    def completed(self) -> bool:
        return self.status == "Completed"

    @cached_property
    def sample_reprs(self) -> list[tuple[str, ...]]:
        """Each sample's ten floats, t, u, v, u', v' as re, im, by ``float.__repr__``.

        Formatted on first use, once the trace is complete, so that every
        artifact written from the trace reads the same strings.
        """
        r = float.__repr__
        return [
            (r(s.t.real), r(s.t.imag), r(s.u.real), r(s.u.imag), r(s.v.real), r(s.v.imag),
             r(s.du.real), r(s.du.imag), r(s.dv.real), r(s.dv.imag))
            for s in self.samples
        ]


@dataclass(frozen=True)
class RayResult:
    angle: float
    status: str  # Completed | Obstructed | Blocked
    obstructions: tuple[complex, ...]


@dataclass(frozen=True)
class ObstructionReport:
    germ: GeodesicGerm
    probe_radius: float
    rays: int
    obstructions: tuple[complex, ...]
    min_separation: float
    per_ray: tuple[RayResult, ...]


@dataclass(frozen=True)
class LoopResult:
    status: str  # Completed | Obstructed
    base_state: State | None
    end_state: State | None
    branch_changed: bool
    mismatch: float


class _Expanded(tuple):
    """A state (u, v, u', v') with its order-``ORDER`` series, ``series``,
    which the first step of each segment from it reads.  It travels in
    the place of the state, so ``_integrate_segment`` keeps its signature
    and any wrapper of it passes the series on."""


def _expanded(y: State) -> State:
    """y carrying its series, or y itself where the series cannot be built."""
    try:
        series = _jet(ORDER).series(y)
    except (ZeroDivisionError, OverflowError):  # each segment from y stops as it would
        return y
    seeded = _Expanded(y)
    seeded.series = series
    return seeded


class _Segment:
    """Outcome of integrating along a segment or an arc."""

    __slots__ = ("status", "t", "y", "est")

    def __init__(self, status, t, y, est=None):
        self.status = status  # "done" | "halted" | "obstructed"
        self.t = t
        self.y = y
        # (offset from t, spread) of the singularity a stop stopped on
        self.est = est


def _march(y: State, t: complex, place, tol: float, collect, on_step) -> _Segment:
    """Order-``ORDER`` Taylor steps from t along a segment or arc.

    Step rule and stops as in the module docstring.
    ``place(s, t, h)`` gives the position s + h along the curve, its
    point, that point - t, and whether it ends the curve; a step whose
    point is t itself, short of the end, is a collapse.
    ``collect(t, y)`` records accepted steps; ``on_step(t, U, V, x)``
    may return an estimate (offset from t, spread) to halt on cleanly at
    the current accepted state, where U and V are the step's series about
    t - x, or None to go on.  A collapse carries the estimate read off
    the series it could not step with; one that has none, or stops on
    the cone before a series is built, carries (0, 0): it stopped on t.
    The first step of a y made by ``_expanded`` takes the series it carries.
    """
    jet = _jet(ORDER)
    series, step_length, advance, estimate = jet.series, jet.length, jet.advance, jet.estimate
    built = getattr(y, "series", None)
    tail = TAIL_FACTOR * tol
    s = 0.0
    while True:
        try:
            U, V, dU, dV = built or series(y)
            built = None
            h = step_length(U, V, dU, dV, tail)
        except (ZeroDivisionError, OverflowError):  # on the cone; |coefficient| > 1e308
            return _Segment("obstructed", t, y, (0j, 0.0))
        s_new, t_new, x, last = place(s, t, h)
        y_new = advance(U, V, dU, dV, x)
        # a collapse (the step no longer moves t), or a NaN or an infinity
        if (t_new == t and not last) or not all(map(cmath.isfinite, y_new)):
            return _Segment("obstructed", t, y, estimate(U, V) or (0j, 0.0))
        y, s, t = y_new, s_new, t_new
        if collect is not None:
            collect(t, y)
        if last:
            return _Segment("done", t, y)
        if on_step is not None and (est := on_step(t, U, V, x)) is not None:
            return _Segment("halted", t, y, est)


def _integrate_segment(
    y: State, t_from: complex, t_to: complex, tol: float, collect=None, on_step=None
) -> _Segment:
    """``_march`` along the straight segment t_from -> t_to.

    With no ``on_step``, it halts after a step whose estimate has settled
    (spread at most ``SETTLED_SPREAD``) on a point ahead: projection in
    (0, |t_to - t|], lateral offset at most |offset| ``SETTLED_SPREAD``.
    The estimate runs only where the last raw coefficient ratio of u or v
    (one division) already puts a singular point there, within
    ``SPREAD_FLOOR`` of its distance.
    """
    L = abs(t_to - t_from)
    e = (t_to - t_from) / L
    estimate = _jet(ORDER).estimate

    def place(s, t, h):
        if h >= L - s:
            return L, t_to, (L - s) * e, True
        s += h
        return s, t_from + s * e, h * e, False

    def settled(t, U, V, x):
        # w: a singular point's offset from t, turned onto the segment
        rest = abs(t_to - t)
        for c in (U, V):
            if c[-1]:
                w = (c[-2] / c[-1] - x) / e
                near = SPREAD_FLOOR * w.real  # NaN and inf fail below
                if abs(w.imag) <= near and w.real - near <= rest:
                    break
        else:
            return None
        est = estimate(U, V)
        if est is None or not est[1] <= SETTLED_SPREAD:
            return None
        off, spread = est[0] - x, est[1]
        w = off / e
        if 0.0 < w.real <= rest and abs(w.imag) <= abs(off) * SETTLED_SPREAD:
            return off, spread
        return None

    return _march(y, t_from, place, tol, collect, on_step or settled)


def _check_tol(tol: float) -> None:
    if not (_TOL_RANGE[0] <= tol <= _TOL_RANGE[1]):
        raise ValueError(f"tol must lie in [{_TOL_RANGE[0]}, {_TOL_RANGE[1]}]")


def _check_radius(radius: float) -> None:
    if not (0.0 < radius < math.inf):  # also catches NaN
        raise ValueError("radius must be finite and positive")


def continue_path(
    g: GeodesicGerm, path: PathPolyline, tol: float = 1e-10
) -> ContinuationTrace:
    """Continue a germ along a polyline; obstruction is a status, not an error.

    Each segment stops where ``_integrate_segment`` stops it: a halt on
    a settled estimate of a point ahead, a collapse, or a non-finite
    state.  The trace reports that stop's estimate.
    """
    _check_tol(tol)
    if abs(path.waypoints[0] - g.t0) > 1e-12 * (1.0 + abs(g.t0)):
        raise ValueError("path must start at the germ's base time")
    trace = ContinuationTrace(g, path.waypoints, tol)
    y = g.state()
    trace.samples.append(TraceSample(g.t0, *y))

    def collect(t, w):
        trace.samples.append(TraceSample(t, *w))

    for a, b in zip(path.waypoints, path.waypoints[1:]):
        res = _integrate_segment(y, a, b, tol, collect=collect)
        if res.status != "done":
            off, spread = res.est
            trace.status = "Obstructed"
            trace.obstruction = Obstruction(res.t + off, max(abs(off) * spread, 1e-12))
            break
        y = res.y
    return trace


# ---------------------------------------------------------------------------
# Completeness probe


def _invert(y: State) -> State:
    """The state in the chart (1/u, 1/v); the map is its own inverse."""
    u, v, du, dv = y
    return 1 / u, 1 / v, -du / (u * u), -dv / (v * v)


def _walk_localize(
    t: complex, y: State, tol: float, est: tuple[complex, float]
) -> tuple[complex, float] | None:
    """(location, radius) of the singularity an estimate made at t points at, else None.

    ``est`` is (offset from t, spread), read off the series of the step
    that stopped at t.  Newton on the inverted state integrates to
    t + off, steps by the smaller of -w/w' and -z/z', and stops below
    1e-8 (1 + |t|), past which its next step is below the resolution of t,
    within 8 steps; a step longer than the first offset finds no pole.
    """
    off, spread = est
    if spread <= SETTLED_SPREAD:
        return _located(t, est)
    if y[0] == 0 or y[1] == 0:  # v == 0 maps to z = infinity
        return None
    reach = abs(off)
    inv = _invert(y)
    for _ in range(8):
        res = _integrate_segment(inv, t, t + off, tol)
        if res.status != "done":
            return None
        t, inv = res.t, res.y
        w, z, dw, dz = inv
        # a null coordinate (dw or dz == 0) has no root to step to
        off = min((-w / dw if dw else math.inf, -z / dz if dz else math.inf), key=abs)
        if not abs(off) <= reach:
            return None
        if abs(off) < 1e-8 * (1.0 + abs(t)):
            return _located(t, (off, 0.0))
    return None


def _located(t: complex, est: tuple[complex, float]) -> tuple[complex, float]:
    """(singular time, uncertainty radius) of an estimate made at t."""
    off, spread = est
    return t + off, abs(off) * max(spread, SPREAD_FLOOR)


def _probe_ray(
    g: GeodesicGerm,
    angle: float,
    radius: float,
    n_rays: int,
    tol: float,
    start: State | None = None,
) -> RayResult:
    """One ray of the fan; ``start`` is g's state, possibly ``_expanded``."""
    t0 = g.t0
    e = cmath.exp(1j * angle)
    ray_end = t0 + radius * e
    y: State = g.state() if start is None else start
    t_cur = t0
    found: list[tuple[complex, float]] = []
    # scan candidates that did not settle: suppressed, never reported
    unsettled: list[tuple[complex, float]] = []
    sin_gap = math.sin(math.pi / n_rays)
    status = "Completed"

    def width(t: complex) -> float:
        return TUBE_WIDTH * abs(t - t0) * sin_gap + TUBE_FLOOR * radius

    def suppressed(cand: complex, rc: float) -> bool:
        return any(abs(cand - p) < max(r, rc) for pts in (found, unsettled) for p, r in pts)

    estimate = _jet(ORDER).estimate

    def scan(t: complex, U, V, x: complex) -> tuple[complex, float] | None:
        tube = width(t)
        near = SCAN_REACH * tube
        # the last raw ratio of u or v, as an offset from t, must come
        # near the tube before the estimate runs; NaN and inf fail
        for c in (U, V):
            if c[-1] and abs(c[-2] / c[-1] - x) <= near:
                break
        else:
            return None
        est = estimate(U, V)
        if est is None:
            return None
        est = (est[0] - x, est[1])
        if abs(est[0]) >= tube or suppressed(*_located(t, est)):
            return None
        return est

    while t_cur != ray_end:
        res = _integrate_segment(y, t_cur, ray_end, tol, on_step=scan)
        if res.status == "done":
            break

        t_cur, y = res.t, res.y
        halted = res.status == "halted"
        loc = _walk_localize(t_cur, y, tol, res.est)
        if halted and loc is None:  # not settled: no obstruction, no second halt here
            unsettled.append(_located(t_cur, res.est))
            continue
        t_star, rad = loc or _located(t_cur, res.est)  # a collapse the walk cannot locate
        found.append((t_star, rad))

        # along the ray in the chart (1/u, 1/v): past a halt's pole to the
        # halt's mirror point, past a collapse by one tube width
        reach = 2.0 * ((t_star - t_cur) / e).real if halted else width(t_cur)
        t_to = t_cur + reach * e if reach < abs(ray_end - t_cur) else ray_end
        if reach <= 0 or t_to == t_cur:
            continue  # the pole is not ahead: resume straight
        if y[0] == 0 or y[1] == 0:  # u or v vanishes identically: a single pole
            break
        seg = _integrate_segment(_invert(y), t_cur, t_to, tol)
        # a crossing that stops past its start and its pole has met a zero
        # of u or v, regular in (u, v): the ray resumes there
        if seg.status != "done" and (seg.t == t_cur or ((seg.t - t_star) / e).real <= 0):
            status = "Blocked"
            break
        t_cur, y = seg.t, _invert(seg.y)

    kept = tuple(p for p, _ in found if abs(p - t0) <= radius)
    ray_status = status if status == "Blocked" else ("Obstructed" if kept else "Completed")
    return RayResult(angle, ray_status, kept)


def _cluster(points: list[complex], tol: float) -> list[complex]:
    clusters: list[list[complex]] = []
    for p in sorted(points, key=lambda z: (z.real, z.imag)):
        for c in clusters:
            if abs(p - c[0]) <= tol:
                c.append(p)
                break
        else:
            clusters.append([p])
    return [sum(c) / len(c) for c in clusters]


def completeness_probe(
    g: GeodesicGerm, radius: float, n_rays: int = 64, tol: float = 1e-9
) -> ObstructionReport:
    """Empirical discreteness check: ray fan with obstruction localization.

    A real germ traces rays 0 .. n_rays // 2 only; ray k above that is
    the Schwarz reflection of ray n_rays - k about Im t = Im t0 (same
    status, every point mirrored).  A non-real germ traces every ray.
    The report is a deterministic function of the inputs.
    """
    _check_tol(tol)
    _check_radius(radius)
    if isinstance(n_rays, bool) or not isinstance(n_rays, int) or n_rays < 4:
        raise ValueError("n_rays must be an integer of at least 4")
    start = _expanded(g.state())  # every ray's first step reads this one series
    real = all(z.imag == 0.0 for z in start)
    axis = 2.0 * g.t0.imag
    per_ray: list[RayResult] = []
    allpts: list[complex] = []
    for k in range(n_rays):
        angle = 2.0 * math.pi * k / n_rays
        if real and 2 * k > n_rays:
            src = per_ray[n_rays - k]
            pts = tuple(complex(p.real, axis - p.imag) for p in src.obstructions)
            r = RayResult(angle, src.status, pts)
        else:
            r = _probe_ray(g, angle, radius, n_rays, tol, start)
        per_ray.append(r)
        allpts.extend(r.obstructions)
    centers = _cluster(allpts, CLUSTER_TOL * radius)
    min_sep = min(
        (abs(a - b) for i, a in enumerate(centers) for b in centers[i + 1 :]), default=0.0
    )
    return ObstructionReport(
        g, radius, n_rays, tuple(centers), min_sep, tuple(per_ray)
    )


# ---------------------------------------------------------------------------
# Loop monodromy


def loop_monodromy(
    g: GeodesicGerm,
    center: complex,
    loop_radius: float,
    tol: float = 1e-10,
) -> LoopResult:
    """Continue once around a circle and compare the state with the basepoint.

    One leg runs straight from t0 to the basepoint center + loop_radius,
    then one turn counterclockwise along the circle itself.  A step of
    length h moves to the point of the circle at chord h, at most half a
    turn on, so every point of the arc it covers lies in the disc where
    its series holds: no singularity can hide between a chord and the
    arc.  The last step lands on the basepoint.
    """
    _check_tol(tol)
    _check_radius(loop_radius)
    require_finite(center)
    base = center + loop_radius
    leg = _integrate_segment(g.state(), g.t0, base, tol) if base != g.t0 else None
    if leg is not None and leg.status != "done":
        return LoopResult("Obstructed", None, None, False, math.inf)
    y0: State = leg.y if leg is not None else g.state()
    total = 2.0 * math.pi

    def place(a, t, h):
        a += 2.0 * math.asin(min(h / (2.0 * loop_radius), 1.0))  # a NaN h stays NaN
        if a >= total:
            return total, base, base - t, True
        t_new = center + loop_radius * cmath.exp(1j * a)
        return a, t_new, t_new - t, False

    arc = _march(y0, base, place, tol, None, None)
    if arc.status != "done":
        return LoopResult("Obstructed", y0, None, False, math.inf)
    y = arc.y
    mismatch = max(abs(y[q] - y0[q]) / (1.0 + abs(y0[q])) for q in range(4))
    return LoopResult("Completed", y0, y, mismatch > 10.0 * tol, mismatch)
