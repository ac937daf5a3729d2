"""Analytic continuation of geodesic germs along paths in complex time.

Continuation integrates the second-order system in (u, v), or in the
probe also in (1/u, 1/v), never in the log chart, so its degeneracies at
u = 0 or v = 0 are invisible here; what stops a path is a genuine
blow-up of the state, a branch point of the solution, or the geodesic
running into the excluded cone u^2 + v^2 = 0.

The integrator takes fixed-order Taylor steps along the real arclength
of each polyline segment.  Each step builds the series of (u, v) and
of (u', v') once, with the order-``ORDER`` kernel that
``taylor.geodesic_series`` runs, and takes the longest step whose
truncated tail, judged by the last two terms of u, v, u' and v' (Jorba &
Zou 2005, Exp. Math. 14:99), stays below ``TAIL_FACTOR * tol`` relative
to 1 + |component|.  ``tol`` thus bounds the local error of every step
at 1e-4 tol; on the paths of length up to 5 that the tests and
perfbench check against a 30-digit reference, the endpoint error stays
below ``tol`` itself.  The step length, the Horner update of the state
and the estimate below are straight-line code that ``taylor`` generates
(``_stepper``, ``_estimator``), so a step runs no loop outside the
series build, and a null state (u' or v' zero) builds only half the
series.
The same coefficients give the nearest singularity by the ratio test
(Chang & Corliss 1980): a path is obstructed where its step collapses
below the floor or its state blows up, and the singular time is read
off the last series.  An obstruction is reported as *data* (a trace
status with an estimated singular time), never as an exception.

The completeness probe shoots straight rays and reads every step's own
nearest-singularity estimate; there is no second estimator on the ray.
When a step's estimate lands inside the ray's capture tube, and not
within its own uncertainty of a point the ray already has, the ray
halts.  An estimate whose relative spread is at most ``SETTLED_SPREAD``
has converged to rounding and settles where it is; any other is
polished by Newton in the chart (1/u, 1/v), an isometry of
2 du dv / (u^2 + v^2) in which the same integrator runs and a simple
pole of u or v is a regular zero.  A pole ahead of the halt is crossed
by one segment in that chart along the ray, to the halt's mirror point
past the pole's projection; a collapse, by one tube width.  A ray thus
crosses each pole it records at most once.  A state with u or v
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

from .manifold import GeodesicGerm
from .special import require_finite
from .taylor import ORDER, _estimator, _kernel, _stepper, nearest_singularity, series_estimate

State = tuple[complex, complex, complex, complex]

#: State magnitudes above this count as a blow-up.
BLOWUP = 1e12

#: Step-size floor, relative to the segment length.
STEP_FLOOR = 1e-12

#: Truncated tail allowed per step, as a fraction of tol * (1 + |y|).
#: At 1e-3 or 1e-2 the endpoint error of paths grazing the cone
#: u^2 + v^2 = 0 exceeds tol.
TAIL_FACTOR = 1e-4

#: Cluster width for probe obstruction estimates.
CLUSTER_TOL = 1e-4

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


class _Segment:
    """Outcome of integrating one straight segment."""

    __slots__ = ("status", "t", "y", "t_star", "radius")

    def __init__(self, status, t, y, t_star=None, radius=0.0):
        self.status = status  # "done" | "halted" | "obstructed"
        self.t = t
        self.y = y
        self.t_star = t_star
        self.radius = radius


def _integrate_segment(
    y: State,
    t_from: complex,
    t_to: complex,
    tol: float,
    collect=None,
    on_step=None,
) -> _Segment:
    """Order-``ORDER`` Taylor steps along the straight segment t_from -> t_to.

    Step rule and obstructions as in the module docstring.
    ``collect(t, y)`` records accepted steps; ``on_step(t, U, V, x)`` may
    return True to halt cleanly at the current accepted state, where U
    and V are the step's series about t - x.
    """
    series = _kernel(ORDER)
    length, advance = _stepper(ORDER)
    tail = TAIL_FACTOR * tol
    L = abs(t_to - t_from)
    e = (t_to - t_from) / L
    s = 0.0
    t_cur = t_from
    while True:
        try:
            U, V, dU, dV = series(y)
            h = length(U, V, dU, dV, tail)
        except (ZeroDivisionError, OverflowError):  # on the cone; |coefficient| > 1e308
            return _Segment("obstructed", t_cur, y, t_cur, 1e-12)
        last = h >= L - s
        if not (last or h >= STEP_FLOOR * L):  # also catches NaN
            return _obstructed(t_cur, y, U, V)
        if last:
            h = L - s
        x = h * e
        u, v, du, dv = y_new = advance(U, V, dU, dV, x)
        # a NaN component fails its comparison, wherever it sits
        if not (abs(u) <= BLOWUP and abs(v) <= BLOWUP and abs(du) <= BLOWUP and abs(dv) <= BLOWUP):
            return _obstructed(t_cur, y, U, V)
        y = y_new
        s = L if last else s + h
        t_cur = t_to if last else t_from + s * e
        if collect is not None:
            collect(t_cur, y)
        if last:
            return _Segment("done", t_to, y)
        if on_step is not None and on_step(t_cur, U, V, x):
            return _Segment("halted", t_cur, y)


def _obstructed(t: complex, y: State, U: list[complex], V: list[complex]) -> _Segment:
    """Obstruction seen from (t, y), located by the ratio test on its series."""
    est = series_estimate(U, V)
    if est is None:
        return _Segment("obstructed", t, y, t, 1e-12)
    off, spread = est
    return _Segment("obstructed", t, y, t + off, max(3.0 * abs(off) * spread, 1e-12))


def _check_tol(tol: float) -> None:
    if not (_TOL_RANGE[0] <= tol <= _TOL_RANGE[1]):
        raise ValueError(f"tol must lie in [{_TOL_RANGE[0]}, {_TOL_RANGE[1]}]")


def _check_count(n: int, least: int, what: str) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or n < least:
        raise ValueError(f"{what} must be an integer of at least {least}")


def _check_radius(radius: float) -> None:
    if not (0.0 < radius < math.inf):  # also catches NaN
        raise ValueError("radius must be finite and positive")


def continue_path(
    g: GeodesicGerm, path: PathPolyline, tol: float = 1e-10
) -> ContinuationTrace:
    """Continue a germ along a polyline; obstruction is a status, not an error."""
    _check_tol(tol)
    if abs(path.waypoints[0] - g.t0) > 1e-12 * (1.0 + abs(g.t0)):
        raise ValueError("path must start at the germ's base time")
    trace = ContinuationTrace(g, path.waypoints, tol)
    y = g.state()
    trace.samples.append(TraceSample(g.t0, *y))
    res = _follow(y, path.waypoints, tol, lambda t, w: trace.samples.append(TraceSample(t, *w)))
    if res.status == "obstructed":
        trace.status = "Obstructed"
        trace.obstruction = Obstruction(res.t_star, res.radius)
    return trace


def _follow(y: State, waypoints, tol: float, collect=None) -> _Segment:
    """Integrate along a polyline: the first segment that does not finish, else the last."""
    for a, b in zip(waypoints, waypoints[1:]):
        seg = _integrate_segment(y, a, b, tol, collect=collect)
        if seg.status != "done":
            return seg
        y = seg.y
    return seg


# ---------------------------------------------------------------------------
# Completeness probe


def _invert(y: State) -> State:
    """The state in the chart (1/u, 1/v); the map is its own inverse."""
    u, v, du, dv = y
    return 1 / u, 1 / v, -du / (u * u), -dv / (v * v)


def _walk_localize(
    t: complex, y: State, tol: float, est: tuple[complex, float] | None = None
) -> tuple[complex, float] | None:
    """(location, radius) of the singularity an estimate points at, else None.

    ``est`` (offset from t, spread) defaults to the state's own series.
    Newton on the inverted state integrates to t + off, steps by the
    smaller of -w/w' and -z/z', and stops below 1e-13 (1 + |t|) within 8
    steps; a step longer than the first offset finds no pole of u or v.
    """
    if est is None:
        est = nearest_singularity(y)
        if est is None:
            return None
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
        if abs(off) < 1e-13 * (1.0 + abs(t)):
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
) -> RayResult:
    t0 = g.t0
    e = cmath.exp(1j * angle)
    ray_end = t0 + radius * e
    y: State = g.state()
    t_cur = t0
    found: list[tuple[complex, float]] = []
    # scan candidates that did not settle: suppressed, never reported
    unsettled: list[tuple[complex, float]] = []
    hit: tuple[complex, float] | None = None  # the estimate the scan halted on
    sin_gap = math.sin(math.pi / n_rays)
    status = "Completed"

    def width(t: complex) -> float:
        return TUBE_WIDTH * abs(t - t0) * sin_gap + TUBE_FLOOR * radius

    def suppressed(cand: complex, rc: float) -> bool:
        return any(abs(cand - p) < max(r, rc) for pts in (found, unsettled) for p, r in pts)

    estimate = _estimator(ORDER)

    def scan(t: complex, U, V, x: complex) -> bool:
        nonlocal hit
        est = estimate(U, V)
        if est is None:
            return False
        est = (est[0] - x, est[1])
        if abs(est[0]) >= width(t) or suppressed(*_located(t, est)):
            return False
        hit = est
        return True

    while t_cur != ray_end:
        res = _integrate_segment(y, t_cur, ray_end, tol, on_step=scan)
        if res.status == "done":
            break

        t_cur, y = res.t, res.y
        halted = res.status == "halted"
        loc = _walk_localize(t_cur, y, tol, hit if halted else None)
        if halted and loc is None:  # not settled: no obstruction, no second halt here
            unsettled.append(_located(t_cur, hit))
            continue
        t_star, rad = loc or (res.t_star, res.radius)  # a collapse the walk cannot locate
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
        if seg.status != "done":
            status = "Blocked"
            break
        t_cur, y = t_to, _invert(seg.y)

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
    _check_count(n_rays, 4, "n_rays")
    real = all(z.imag == 0.0 for z in g.state())
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
            r = _probe_ray(g, angle, radius, n_rays, tol)
        per_ray.append(r)
        allpts.extend(r.obstructions)
    centers = _cluster(allpts, CLUSTER_TOL)
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
    turns: int = 1,
    tol: float = 1e-10,
) -> LoopResult:
    """Continue around a circle and compare the state with the basepoint.

    The circle is approximated by a polyline (32-gon, doubled until the
    endpoint is tol-stable); homotopic refinements cannot change the
    endpoint, so doubling only guards against a chord grazing an
    obstruction.
    """
    _check_tol(tol)
    _check_radius(loop_radius)
    _check_count(turns, 1, "turns")
    require_finite(center)
    base = center + loop_radius
    leg = _integrate_segment(g.state(), g.t0, base, tol) if base != g.t0 else None
    if leg is not None and leg.status != "done":
        return LoopResult("Obstructed", None, None, False, math.inf)
    y0: State = leg.y if leg is not None else g.state()

    prev_end: State | None = None
    for ngon in (32, 64, 128, 256):
        pts = [
            center + loop_radius * cmath.exp(2j * math.pi * k / ngon)
            for k in range(ngon * turns + 1)
        ]
        seg = _follow(y0, pts, tol)
        if seg.status != "done":
            return LoopResult("Obstructed", y0, None, False, math.inf)
        y = seg.y
        if prev_end is not None:
            drift = max(
                abs(y[q] - prev_end[q]) / (1.0 + abs(y[q])) for q in range(4)
            )
            if drift <= tol:
                break
        prev_end = y

    mismatch = max(abs(y[q] - y0[q]) / (1.0 + abs(y0[q])) for q in range(4))
    return LoopResult("Completed", y0, y, mismatch > 10.0 * tol, mismatch)
