"""Analytic continuation of geodesic germs along paths in complex time.

Continuation always integrates the second-order system in the original
(u, v) coordinates, so the log-chart degeneracies at u = 0 or v = 0 are
invisible here; what stops a path is a genuine blow-up of the state, a
branch point of the solution, or the geodesic running into the excluded
cone u^2 + v^2 = 0.

The integrator takes fixed-order Taylor steps along the real arclength
of each polyline segment.  Each step builds the series of (u, v) once
with ``taylor.geodesic_series`` and takes the longest step whose
truncated tail, judged by the last two terms of u, v, u' and v' (Jorba &
Zou 2005, Exp. Math. 14:99), stays below ``TAIL_FACTOR * tol`` relative
to 1 + |component|.  ``tol`` thus bounds the local error of every step
at 1e-4 tol; on the paths of length up to 5 that the tests and
perfbench check against a 30-digit reference, the endpoint error stays
below ``tol`` itself.
The same coefficients give the nearest singularity by the ratio test
(Chang & Corliss 1980): a path is obstructed where its step collapses
below the floor or its state blows up, and the singular time is read
off the last series.  An obstruction is reported as *data* (a trace
status with an estimated singular time), never as an exception.

The completeness probe shoots straight rays and reads every step's own
nearest-singularity estimate; there is no second estimator on the ray.
When a step's estimate lands inside the ray's capture tube, and not
within its own uncertainty of a point the ray already has, the ray
halts and the obstruction is localized by walking toward it from that
estimate (re-expanding as the radius of convergence shrinks), recorded,
and -- when it blocks the ray -- flanked by a small semicircular detour
so the ray can report obstructions hiding behind the first one.

A location is reported only when the walk settles.  An estimate whose
relative spread is at most ``SETTLED_SPREAD`` has converged to rounding
and settles where it is; the scan's own estimate usually has, so such a
halt costs no integration and no re-expansion.  Any other estimate is
walked toward until one converges, one lies closer than 2e-3 with
spread below 0.05, or a hop collapses into the point.  If the estimates
fade or 30 hops pass first, the ray suppresses the scan's candidate
unreported and resumes straight.  Such halts come from regular points
where the path touches the cone u^2 + v^2 = 0, where high-order
coefficients are rounding noise.

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
from .special import dist_to_segment, require_finite
from .taylor import ORDER, _horner, geodesic_series, nearest_singularity, series_estimate

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


def _tail_step(coeffs: list[complex], tol: float) -> float:
    """Largest h whose last two series terms stay below the tail target."""
    eps = TAIL_FACTOR * tol * (1.0 + abs(coeffs[0]))
    h = math.inf
    for k in (len(coeffs) - 2, len(coeffs) - 1):
        a = abs(coeffs[k])
        if a > 0.0:
            h = min(h, (eps / a) ** (1.0 / k))
    return h


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
    ``collect(t, y)`` records accepted steps; ``on_step(t, est)`` may
    return True to halt cleanly at the current accepted state, where
    ``est`` is (offset from t, spread) of the nearest singularity read
    off the step's coefficients, or None.
    """
    L = abs(t_to - t_from)
    e = (t_to - t_from) / L
    s = 0.0
    t_cur = t_from
    while True:
        try:
            U, V = geodesic_series(y, ORDER)
            dU = [k * U[k] for k in range(1, ORDER + 1)]
            dV = [k * V[k] for k in range(1, ORDER + 1)]
            h = min(_tail_step(c, tol) for c in (U, V, dU, dV))
        except (ZeroDivisionError, OverflowError):  # on the cone; |coefficient| > 1e308
            return _Segment("obstructed", t_cur, y, t_cur, 1e-12)
        last = h >= L - s
        if not (last or h >= STEP_FLOOR * L):  # also catches NaN
            return _obstructed(t_cur, y, U, V)
        if last:
            h = L - s
        x = h * e
        y_new = (_horner(U, x), _horner(V, x), _horner(dU, x), _horner(dV, x))
        if not max(abs(c) for c in y_new) <= BLOWUP:  # also catches NaN
            return _obstructed(t_cur, y, U, V)
        y = y_new
        s = L if last else s + h
        t_cur = t_to if last else t_from + s * e
        if collect is not None:
            collect(t_cur, y)
        if last:
            return _Segment("done", t_to, y)
        if on_step is not None:
            est = series_estimate(U, V)
            if est is not None:
                est = (est[0] - x, est[1])
            if on_step(t_cur, est):
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


def _walk_localize(
    t: complex, y: State, tol: float, est: tuple[complex, float] | None = None
) -> tuple[complex, float] | None:
    """Walk toward the nearest singularity, re-expanding as it gets close.

    ``est`` is a first estimate (offset from t, spread) already in hand,
    such as the one a probe ray halted on; if its spread is at most
    ``SETTLED_SPREAD`` the walk settles on it without integrating.  The
    hop constants apply only to estimates that have not converged.
    Returns (location, radius) once the walk settles, else None.
    """
    cur_t, cur_y = t, y
    for _ in range(30):
        if est is None:
            est = nearest_singularity(cur_y)
            if est is None:
                return None
        off, spread = est
        if spread <= SETTLED_SPREAD or (abs(off) < 2e-3 and spread < 0.05):
            return _located(cur_t, est)
        hop = 0.6 if spread < 0.1 else 0.3
        target = cur_t + hop * off
        res = _integrate_segment(cur_y, cur_t, target, tol)
        if res.status != "done":
            # ran into it: the collapse estimate is sharper than the walk
            return res.t_star, res.radius
        cur_t, cur_y, est = target, res.y, None
    return None


def _located(t: complex, est: tuple[complex, float]) -> tuple[complex, float]:
    """(singular time, uncertainty radius) of an estimate made at t."""
    off, spread = est
    return t + off, abs(off) * max(spread, 5e-3) + 1e-9


def _detour_waypoints(t_star: complex, rho: float, e: complex, sign: int) -> list[complex]:
    """Semicircle of radius rho around t_star, entering and leaving on the ray."""
    thetas = (math.pi, 3 * math.pi / 4, math.pi / 2, math.pi / 4, 0.0)
    return [t_star + rho * e * cmath.exp(sign * 1j * th) for th in thetas]


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
    # scan candidates whose walk did not settle: suppressed, never reported
    unsettled: list[tuple[complex, float]] = []
    hit: tuple[complex, float] | None = None  # the estimate the scan halted on
    rho_detour = max(5e-3, min(0.03, 0.008 * radius))
    sin_gap = math.sin(math.pi / n_rays)
    detours = 0
    status = "Completed"

    def width(t: complex) -> float:
        return 1.6 * abs(t - t0) * sin_gap + 0.005 * radius

    def suppressed(cand: complex, rc: float) -> bool:
        return any(
            abs(cand - p) < max(5e-4, 3.0 * r, rc) for pts in (found, unsettled) for p, r in pts
        )

    def scan(t: complex, est) -> bool:
        nonlocal hit
        if est is None or abs(est[0]) >= width(t) or suppressed(*_located(t, est)):
            return False
        hit = est
        return True

    def record(p: complex, r: float) -> None:
        for i, (q, rq) in enumerate(found):
            if abs(p - q) < max(CLUSTER_TOL, 2.0 * max(r, rq)):
                if r < rq:
                    found[i] = (p, r)
                return
        found.append((p, r))

    while abs(t_cur - ray_end) >= 1e-12 * (1.0 + radius):
        res = _integrate_segment(y, t_cur, ray_end, tol, on_step=scan)
        if res.status == "done":
            break

        t_cur, y = res.t, res.y
        halted = res.status == "halted"
        loc = _walk_localize(t_cur, y, tol, hit if halted else None)
        if halted and loc is None:  # not settled: no obstruction, no second halt here
            unsettled.append(_located(t_cur, hit))
            continue
        if not halted and (loc is None or loc[1] >= max(res.radius, 1e-9)):
            loc = res.t_star, res.radius  # the collapse estimate is sharper
        t_star, rad = loc
        record(t_star, rad)
        if halted and dist_to_segment(t_star, t_cur, ray_end) >= rho_detour:
            continue  # off-path: resume straight, suppression skips it

        # flank the blocking singularity and resume behind it
        if detours >= 24:
            status = "Blocked"
            break
        detours += 1
        for sign, shrink in ((1, 1.0), (1, 0.5), (-1, 1.0), (-1, 0.5)):
            rho = rho_detour * shrink
            entry = t_star - rho * e
            wps = [t_cur, entry] if abs(entry - t_cur) > 1e-12 else [t_cur]
            seg = _follow(y, wps + _detour_waypoints(t_star, rho, e, sign)[1:], tol)
            if seg.status == "done":
                t_cur, y = seg.t, seg.y
                break
        else:
            status = "Blocked"
            break
        if abs(t_cur - t0) >= radius:
            break

    kept = tuple(
        p for p, _ in found if abs(p - t0) <= radius + 10.0 * CLUSTER_TOL
    )
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
