"""Analytic continuation of geodesic germs along paths in complex time.

Continuation integrates the second-order system in (u, v) and in the
charts (k/u, k/v), never in the log chart, so its degeneracies at u = 0
or v = 0 are invisible here.  Each (k/u, k/v) is an isometry of
2 du dv / (u^2 + v^2), so the same integrator runs in it, and a simple
pole of u or v (u and v are meromorphic in t) is a regular zero there.

The integrator takes fixed-order Taylor steps along the real arclength
of a polyline segment, or of a circle in ``loop_monodromy``.  Each step
builds the order-``ORDER`` series of (u, v, u', v') once, with the jet
``taylor._jet``, and takes the longest step whose tail, judged by the
last two terms of each list (Jorba & Zou 2005), stays below
``TAIL_FACTOR * tol`` relative to 1 + |component|: ``tol`` bounds the
local error of every step at 1e-4 tol, and on the paths that the tests
and perfbench check against a 30-digit reference, the endpoint error.

Shots (``continue_path``) and loops step in the chart their own state
picks (``_flips``): (k/u, k/v) where the coordinate nearest its own zero
or pole is large, |c^2/(u^2 + v^2)| > 1/2, so that the point is a pole,
and (u, v) elsewhere.  k = 2^(e_u + e_v), from the exponents of |u| and
|v| where a march first enters (k/u, k/v), gives that chart the sizes of
(v, u), so both judge the tail in like units: a power-of-two dilation
commutes with the march where every component stays well above 1 in
size.  Traces and loop states stay in (u, v).  A
collapse (a step that no longer moves t, as the step rule shrinks it
toward a singular point, whose new state is not finite, or that starts
on the cone u^2 + v^2 = 0) sends the next step to the other chart; a
path is obstructed where both charts collapse at one t, or where a step
lands exactly on a pole.  A state with u or v exactly 0 (u = 1/(C - B t)
on a null geodesic whose other coordinate is 0) has no image in
(k/u, k/v): it halts after a step whose ratio-test estimate of the
nearest singularity (Chang & Corliss 1980) has settled (relative spread
at most ``SETTLED_SPREAD``) on a point of its rest.  No stop reads the
size of the state or of a step, so a path passes beside a pole however
closely.  Every stop carries one estimate (offset, spread) read off its
own step's series; ``continue_path`` reports t + offset, with radius
max(|offset| spread, 1e-12), as data, never as an exception.

A completeness probe ray owns its chart, (u, v) or (1/u, 1/v), picked
by ``_flips`` after every step; a swap ends a segment at no series
build, and a fan builds its germ's series once.  In (u, v) a ray runs
each step's estimate where the last raw coefficient ratio of u or v
puts a singular point within ``SCAN_REACH`` tube widths, and halts where
it lands in its capture tube, not within its own uncertainty of a point
the ray has.  An estimate of spread at most ``SETTLED_SPREAD`` settles
where it is; any other is polished by Newton on 1/u and 1/v
(``_walk_localize``).  In (1/u, 1/v) a ray reads the zeros of 1/u and
1/v in its tube off each step's series by Halley's method, walks to
each, and steps on; where the series does not reach a zero, the next
step runs in (u, v), whose scan sees the pole.  A collapse in (u, v) is
located; a ray is Blocked only where the other chart collapses at the
same point too, and one whose u or v is 0 ends at its pole.  Unsettled
candidates (cone touches, estimates averaging two poles) go unreported.

The system is autonomous with real coefficients, so for a germ whose
state is real, y(t0 + conj(t - t0)) = conj(y(t)) (Schwarz reflection):
its probe traces only the rays with angles in [0, pi] and mirrors them
about Im t = Im t0 onto the rest of the fan.
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

#: A probe walk, or a segment whose state has no image in (k/u, k/v),
#: settles at once on an estimate whose relative spread is at most this:
#: its ratios have converged to rounding.  Settling below a spread of 0.05
#: instead misplaces tan-family and dense-lattice poles by up to 2e-3.
SETTLED_SPREAD = 1e-12

#: A probe ray halts on estimates, and reads zeros, within its capture
#: tube, of width TUBE_WIDTH * |t - t0| * sin(pi/n) + TUBE_FLOOR * radius
#: about t.  The first term is 0.8 of the gap to the neighbouring rays, so
#: neighbouring tubes overlap; the floor gives the tube a width at t0.  No
#: ray tells apart points closer than the floor: the probe clusters at
#: that width.
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


def _scale(y: State) -> float:
    """k = 2^(e_u + e_v), the exponents of |u| and |v| (kept within the
    doubles): (k/u, k/v) has the magnitudes of (v, u)."""
    e = math.frexp(abs(y[0]))[1] + math.frexp(abs(y[1]))[1]
    return math.ldexp(1.0, min(max(e, -1021), 1023))


def _invert(y: State, k: float | None = None) -> State:
    """The state in (k/u, k/v), or the probe's (1/u, 1/v) without k; the map
    is its own inverse.  With k, w' = -w (u'/u), so no u^2 underflows."""
    u, v, du, dv = y
    if k is None:
        return 1 / u, 1 / v, -du / (u * u), -dv / (v * v)
    return k / u, k / v, -(k / u) * (du / u), -(k / v) * (dv / v)


def _flips(y: State, inverted: bool) -> bool:
    """Whether the next step from y, a state in (k/u, k/v) if ``inverted``
    and in (u, v) if not, runs in the other chart.

    Of the two coordinates, c is the one with the larger |c'/c| (the
    nearest to its own zero or pole).  The step runs in (k/u, k/v) where
    |c^2/(u^2 + v^2)|, read in (u, v), exceeds 1/2: along a geodesic
    c c''/c'^2 = 2 c^2/(u^2 + v^2), the inversion maps that value x to
    2 - x, and 1/2 is where the charts agree.  Only products and moduli
    are compared, so the choice is the same for every k and under
    (u, v) -> 2^j (u, v) or t -> 2^j t.  A state with u or v exactly 0
    has no image in (k/u, k/v) and stays in (u, v)."""
    a, b, da, db = y
    if not (a and b):
        return False
    c, o = (a, b) if abs(da * b) >= abs(db * a) else (b, a)
    # in (k/u, k/v), u^2/(u^2 + v^2) = (k/v)^2/((k/u)^2 + (k/v)^2)
    s = o if inverted else c
    return (2.0 * abs(s * s) > abs(c * c + o * o)) != inverted


class _Expanded(tuple):
    """A state with its order-``ORDER`` series, ``series``, for the first
    step of each segment from it; it travels in the place of the state,
    so any wrapper of ``_integrate_segment`` passes the series on."""


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


def _march(y: State, t: complex, place, tol: float, collect, on_step, atlas: bool) -> _Segment:
    """Order-``ORDER`` Taylor steps from t along a segment or arc.

    Step rule, charts and stops as in the module docstring.
    ``place(s, t, h)`` gives the position s + h along the curve, its
    point, that point - t, and whether it ends the curve.
    ``collect(t, y)`` records accepted steps; ``on_step(t, U, V, x)``
    may return an estimate (offset from t, spread) to halt on at the
    accepted state, U and V being the step's series about t - x.  A
    collapse carries the estimate of the series it could not step with,
    or (0, 0); a step that lands on a pole, (its offset, 0).  Without
    ``atlas`` every step runs in y's own chart, the first with the series
    an ``_expanded`` y carries.  With it, each runs in the chart its state
    picks, all handed out is in (u, v), and ``on_step`` reads only states
    with no image in (k/u, k/v).
    """
    jet = _jet(ORDER)
    series, step_length, advance, estimate = jet.series, jet.length, jet.advance, jet.estimate
    built = not atlas and getattr(y, "series", None)
    inverted, swap, w = False, atlas and _flips(y, False), y  # w: y in its chart
    tail = TAIL_FACTOR * tol
    s = 0.0
    collapsed = k = None
    while True:
        try:  # an image that leaves the doubles collapses like a step
            if swap:
                inverted, k = not inverted, k or _scale(y)
                w = _invert(y, k) if inverted else y
            U, V, dU, dV = built or series(w)
            built = None
            h = step_length(U, V, dU, dV, tail)
        except (ZeroDivisionError, OverflowError):  # on the cone; |coefficient| > 1e308
            est = (0j, 0.0)
        else:
            s_new, t_new, x, last = place(s, t, h)
            w_new = y_new = advance(U, V, dU, dV, x)
            # a collapse (the step no longer moves t), or a NaN or an infinity
            est = None
            if (t_new == t and not last) or not all(map(cmath.isfinite, w_new)):
                est = estimate(U, V) or (0j, 0.0)
            elif inverted:  # a step that lands exactly on a pole has no image
                y_new = w_new[0] and w_new[1] and _invert(w_new, k)
                if not (y_new and all(map(cmath.isfinite, y_new))):
                    return _Segment("obstructed", t, y, (x, 0.0))
        if est is not None:
            if not (atlas and y[0] and y[1]) or t == collapsed:
                return _Segment("obstructed", t, y, est)
            collapsed, swap = t, True
            continue
        w, y, s, t = w_new, y_new, s_new, t_new
        if collect is not None:
            collect(t, y)
        if last:
            return _Segment("done", t, y)
        halt = on_step is not None and not (atlas and y[0] and y[1]) and on_step(t, U, V, x)
        if halt:
            return _Segment("halted", t, y, halt)
        swap = atlas and _flips(w, inverted)


def _integrate_segment(
    y: State, t_from: complex, t_to: complex, tol: float, collect=None, on_step=None
) -> _Segment:
    """``_march`` along the straight segment t_from -> t_to: in y's own
    chart given an ``on_step`` (a probe ray owns its chart), else in the
    chart each state picks, where a state with no image in (k/u, k/v)
    halts after a step whose estimate has settled (spread at most
    ``SETTLED_SPREAD``) on a point ahead: projection in (0, |t_to - t|],
    lateral offset at most |offset| ``SETTLED_SPREAD``.  The estimate runs
    only where the last raw coefficient ratio of u or v already puts a
    singular point there, within ``SPREAD_FLOOR`` of its distance."""
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

    return _march(y, t_from, place, tol, collect, on_step or settled, on_step is None)


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

    Each segment steps in the chart its state picks and stops where
    ``_integrate_segment`` stops it; the trace reports that stop's estimate.
    """
    _check_tol(tol)
    if path.waypoints[0] != g.t0:
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


def _walk_localize(
    t: complex, y: State, tol: float, est: tuple[complex, float]
) -> tuple[complex, float] | None:
    """(location, radius) of the singularity an estimate made at t points at, else None.

    ``est`` is (offset from t, spread), read off the series of the step
    that stopped at t.  Newton on (w, z) = (1/u, 1/v) integrates to
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


#: A probe ray's segment halts on this where its next step swaps charts.
_SWAP = (0j, 0.0)


def _series_zero(C: list[complex], s: complex, x: complex) -> tuple[complex, float] | None:
    """A zero of the polynomial sum C[k] s^k, as (s, spread), else None.

    C is the series of a step of offset x from its start, and s an offset
    from that start.  Halley's method runs from s and stops after a step
    below 1e-8 |x|, within 8 steps.  Within the step, |s| <= |x|, the
    polynomial holds to the step's tail, and the zero has spread 0.  Past
    it, the zero is uncertain by the omitted tail over the slope, the tail
    summed as a geometric series at the largest ratio of the last six
    coefficients (those the estimate reads); where that series diverges,
    the step's series does not reach the zero.
    """
    for _ in range(8):
        p, dp, d2 = C[-1], 0j, 0j
        for c in C[-2::-1]:
            d2 = d2 * s + dp
            dp = dp * s + p
            p = p * s + c
        den = dp * dp - 0.5 * p * d2
        if not den:
            return None
        d = p * dp / den
        s -= d
        if abs(d) < 1e-8 * abs(x):
            break
    else:
        return None
    if abs(s) <= abs(x):
        return s, 0.0
    last = [abs(c) for c in C[-6:]]
    if not (all(last[:-1]) and dp):
        return None
    rho = abs(s) * max(b / a for a, b in zip(last, last[1:]))
    if not rho < 1.0:
        return None
    try:
        return s, last[-1] * abs(s) ** (len(C) - 1) * rho / (1.0 - rho) / abs(dp * s)
    except OverflowError:
        return None


def _probe_ray(
    g: GeodesicGerm,
    angle: float,
    radius: float,
    n_rays: int,
    tol: float,
    start: State | None = None,
) -> RayResult:
    """One ray of the fan; ``start`` is g's state in the chart ``_flips``
    picks for it, possibly ``_expanded``."""
    t0 = g.t0
    ray_end = t0 + radius * cmath.exp(1j * angle)
    inverted = _flips(g.state(), False)
    if start is None:
        start = _invert(g.state()) if inverted else g.state()
    y: State = start
    t_cur = t0
    found: list[tuple[complex, float]] = []
    # scan estimates and series zeros whose walks did not settle:
    # suppressed, never reported.  Kept apart, since a pole whose scan
    # estimate did not settle is read as a zero once the ray is near it
    unsettled: list[tuple[complex, float]] = []
    unreached: list[tuple[complex, float]] = []
    sin_gap = math.sin(math.pi / n_rays)
    status = "Completed"
    # (t, y) at the start and at the end of the latest step
    path = [(t0, y)]
    # set where the series of w and z does not reach a zero in the tube:
    # the next step, in (u, v), scans before it may swap back
    look = [False]

    def keep(t: complex, w: State) -> None:
        path[:] = path[-1], (t, w)

    def width(t: complex) -> float:
        return TUBE_WIDTH * abs(t - t0) * sin_gap + TUBE_FLOOR * radius

    def suppressed(cand: complex, rc: float, missed: list[tuple[complex, float]]) -> bool:
        return any(abs(cand - p) < max(r, rc) for pts in (found, missed) for p, r in pts)

    estimate = _jet(ORDER).estimate

    def scan(t: complex, U, V, x: complex) -> tuple[complex, float] | None:
        # in (u, v): swap charts where the state picks (1/u, 1/v) for the
        # next step; else halt on an estimate in the tube
        tube = width(t)
        near = SCAN_REACH * tube
        swap = _SWAP if _flips(path[-1][1], False) else None
        if swap and not look[0]:
            return swap
        look[0] = False
        # the last raw ratio of u or v, as an offset from t, must come
        # near the tube before the estimate runs; NaN and inf fail
        for c in (U, V):
            if c[-1] and abs(c[-2] / c[-1] - x) <= near:
                break
        else:
            return swap
        est = estimate(U, V)
        if est is None:
            return swap
        est = (est[0] - x, est[1])
        if abs(est[0]) >= tube or suppressed(*_located(t, est), unsettled):
            return swap
        return est

    def off_step(s: complex, x: complex) -> float:
        # distance of t - x + s from the step's segment [t - x, t]
        q = s / x
        return abs(x) * (abs(q.imag) if 0.0 <= q.real <= 1.0 else abs(q - (q.real > 1.0)))

    def zeros(t: complex, W, Z, x: complex) -> tuple[complex, float] | None:
        # in (1/u, 1/v) a pole of u or v is a zero of w = 1/u or z = 1/v:
        # each zero in the tube is read off the step's own series and
        # located by the walk, and the ray steps on through it
        (t_s, y_s), (_, y) = path
        if _flips(y, True):
            return _SWAP
        swap = None
        tube = width(t)
        for C, c, o, dc in ((W, y[0], y[1], y[2]), (Z, y[1], y[0], y[3])):
            oo = o * o
            if not (dc and oo):  # a constant coordinate has no zero
                continue
            # Halley's first step from t, exact where c is a Moebius map
            # of t: along a geodesic c c''/c'^2 = 2 c^2/(c^2 + o^2)
            s = x - c / dc * (c * c + oo) / oo
            if not off_step(s, x) < tube:  # NaN fails
                continue
            est = _series_zero(C, s, x)
            if est is None:  # the series does not reach it
                swap = look[0] = _SWAP
                continue
            cand, rc = _located(t_s, est)
            if not off_step(est[0], x) < tube or suppressed(cand, rc, unreached):
                continue
            loc = _walk_localize(t_s, _invert(y_s), tol, est)
            if loc is None:
                unreached.append((cand, rc))
            else:
                found.append(loc)
        return swap

    collapsed = None  # where the latest collapse stopped
    while t_cur != ray_end:
        path[:] = [(t_cur, y)]
        res = _integrate_segment(y, t_cur, ray_end, tol, keep, zeros if inverted else scan)
        if res.status == "done":
            break
        if res.status == "halted" and res.est is not _SWAP:  # the scan's halt
            t_cur, y = res.t, res.y
            loc = _walk_localize(t_cur, y, tol, res.est)
            if loc is None:  # not settled: no obstruction, no second halt here
                unsettled.append(_located(t_cur, res.est))
            else:
                found.append(loc)
            continue
        if res.status == "obstructed":
            # a collapse: one in (u, v) is located, as the walk finds it
            # or where it stopped, so a pole the scan missed is reported.
            # The next step runs in the other chart, unless the state has
            # no image there (u or v is 0: its ray ends at the pole) or
            # the other chart has just collapsed here too.  That step
            # starts on the pole, and a zero it reads within the walk's
            # stop, 1e-8 (1 + |t|), of the located point is that point
            if not inverted:
                p, r = _walk_localize(res.t, res.y, tol, res.est) or _located(res.t, res.est)
                found.append((p, max(r, 1e-8 * (1.0 + abs(p)))))
            if not (res.y[0] and res.y[1]):
                break
            if res.t == collapsed:
                status = "Blocked"
                break
            collapsed = res.t
        t_cur, y, inverted = res.t, _invert(res.y), not inverted

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
    y0 = g.state()
    # every ray's first step reads this one series, in the chart y0 picks
    start = _expanded(_invert(y0) if _flips(y0, False) else y0)
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
    centers = _cluster(allpts, TUBE_FLOOR * radius)
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
    arc.  Leg and arc step in the chart each state picks, so they pass
    poles; the last step lands on the basepoint.  The branch has changed
    where the state comes back more than tol off, relative to 1 + |y|.
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

    arc = _march(y0, base, place, tol, None, None, True)
    if arc.status != "done":
        return LoopResult("Obstructed", y0, None, False, math.inf)
    y = arc.y
    mismatch = max(abs(y[q] - y0[q]) / (1.0 + abs(y0[q])) for q in range(4))
    return LoopResult("Completed", y0, y, mismatch > tol, mismatch)
