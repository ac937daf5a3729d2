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

The completeness probe shoots straight rays and, along each ray, keeps
estimating the nearest solution singularity from local Taylor
coefficients.  Whatever lands inside the ray's capture tube is
localized by walking toward it (re-expanding as the radius of
convergence shrinks), recorded, and -- when it blocks the ray --
flanked by a small semicircular detour so the ray can report
obstructions hiding behind the first one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .manifold import GeodesicGerm
from .special import dist_to_segment
from .taylor import geodesic_series, nearest_singularity, series_estimate

State = tuple[complex, complex, complex, complex]

#: State magnitudes above this count as a blow-up.
BLOWUP = 1e12

#: Step-size floor, relative to the segment length.
STEP_FLOOR = 1e-12

#: Taylor order of every integration step.  Probe time is flat from 20
#: to 24 and grows at lower orders, whose steps are shorter.
ORDER = 20

#: Truncated tail allowed per step, as a fraction of tol * (1 + |y|).
#: At 1e-3 or 1e-2 the endpoint error of paths grazing the cone
#: u^2 + v^2 = 0 exceeds tol.
TAIL_FACTOR = 1e-4

#: Cluster width for probe obstruction estimates.
CLUSTER_TOL = 1e-4

_TOL_RANGE = (1e-14, 1e-3)


@dataclass(frozen=True)
class PathPolyline:
    """Finite waypoint sequence in the complex t-plane."""

    waypoints: tuple[complex, ...]

    def __post_init__(self):
        pts = tuple(complex(w) for w in self.waypoints)
        object.__setattr__(self, "waypoints", pts)
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


def _horner(coeffs: list[complex], x: complex) -> complex:
    acc = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * x + coeffs[k]
    return acc


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
    ``collect(t, y)`` records accepted steps; ``on_step(t, y, est)`` may
    return True to halt cleanly at the current accepted state, where
    ``est`` is (singular time, spread) read off the step's coefficients,
    or None.
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
        t_prev, y = t_cur, y_new
        s = L if last else s + h
        t_cur = t_to if last else t_from + s * e
        if collect is not None:
            collect(t_cur, y)
        if last:
            return _Segment("done", t_to, y)
        if on_step is not None:
            est = series_estimate(U, V, 0.6)
            if est is not None:
                est = (t_prev + est[0], est[1])
            if on_step(t_cur, y, est):
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


def continue_path(
    g: GeodesicGerm, path: PathPolyline, tol: float = 1e-10
) -> ContinuationTrace:
    """Continue a germ along a polyline; obstruction is a status, not an error."""
    _check_tol(tol)
    if abs(path.waypoints[0] - g.t0) > 1e-12 * (1.0 + abs(g.t0)):
        raise ValueError("path must start at the germ's base time")
    trace = ContinuationTrace(g, path.waypoints, tol)
    y: State = g.state()
    trace.samples.append(TraceSample(g.t0, *y))
    for a, b in zip(path.waypoints, path.waypoints[1:]):
        res = _integrate_segment(
            y, a, b, tol, collect=lambda t, w: trace.samples.append(TraceSample(t, *w))
        )
        if res.status == "obstructed":
            trace.status = "Obstructed"
            trace.obstruction = Obstruction(res.t_star, res.radius)
            return trace
        y = res.y
    trace.status = "Completed"
    return trace


# ---------------------------------------------------------------------------
# Completeness probe


def _walk_localize(
    t: complex, y: State, tol: float
) -> tuple[complex, float] | None:
    """Walk toward the nearest singularity, re-expanding as it gets close."""
    cur_t, cur_y = t, y
    best: tuple[complex, float] | None = None
    for _ in range(30):
        est = nearest_singularity(cur_y)
        if est is None:
            return best
        off, spread = est
        cand = (cur_t + off, abs(off) * max(spread, 5e-3) + 1e-9)
        if best is None or cand[1] < best[1]:
            best = cand
        if abs(off) < 2e-3 and spread < 0.05:
            return cand
        hop = 0.6 if spread < 0.1 else 0.3
        target = cur_t + hop * off
        res = _integrate_segment(cur_y, cur_t, target, tol)
        if res.status != "done":
            # ran into it: the collapse estimate is sharper than the walk
            return res.t_star, res.radius
        cur_t, cur_y = target, res.y
    return best


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
    ghost: list[complex] = []  # unlocalizable candidates, suppressed only
    rho_detour = max(5e-3, min(0.03, 0.008 * radius))
    sin_gap = math.sin(math.pi / n_rays)
    detours = 0
    status = "Completed"

    def width(t: complex) -> float:
        return 1.6 * abs(t - t0) * sin_gap + 0.005 * radius

    def suppressed(cand: complex) -> bool:
        if any(abs(cand - p) < max(5e-4, 3.0 * r) for p, r in found):
            return True
        return any(abs(cand - p) < 5e-3 for p in ghost)

    last_candidate: list[complex | None] = [None]

    def scan(t: complex, w: State, est) -> bool:
        # the step's own estimate first, full order only on a near hit
        wd = width(t)
        if est is None or abs(est[0] - t) >= 1.8 * wd or suppressed(est[0]):
            return False
        est = nearest_singularity(w)
        if est is None or abs(est[0]) >= wd:
            return False
        cand = t + est[0]
        if suppressed(cand):
            return False
        last_candidate[0] = cand
        return True

    def record(p: complex, r: float) -> None:
        for i, (q, rq) in enumerate(found):
            if abs(p - q) < max(CLUSTER_TOL, 2.0 * max(r, rq)):
                if r < rq:
                    found[i] = (p, r)
                return
        found.append((p, r))

    while True:
        if abs(t_cur - ray_end) < 1e-12 * (1.0 + radius):
            break
        res = _integrate_segment(y, t_cur, ray_end, tol, on_step=scan)
        if res.status == "done":
            break

        if res.status == "halted":
            loc = _walk_localize(res.t, res.y, tol)
            t_cur, y = res.t, res.y
            if loc is None:
                # unlocalizable candidate: suppress it so the ray advances
                if last_candidate[0] is not None:
                    ghost.append(last_candidate[0])
                continue
            t_star, rad = loc
            record(t_star, rad)
            if dist_to_segment(t_star, t_cur, ray_end) >= rho_detour:
                continue  # off-path: resume straight, suppression skips it
        else:  # obstructed
            t_star, rad = res.t_star, res.radius
            loc = _walk_localize(res.t, res.y, tol)
            if loc is not None and loc[1] < max(rad, 1e-9):
                t_star, rad = loc
            record(t_star, rad)
            t_cur, y = res.t, res.y

        # flank the blocking singularity and resume behind it
        if detours >= 24:
            status = "Blocked"
            break
        detours += 1
        done = False
        for sign in (1, -1):
            for shrink in (1.0, 0.5):
                rho = rho_detour * shrink
                entry = t_star - rho * e
                wps = [t_cur, entry] if abs(entry - t_cur) > 1e-12 else [t_cur]
                wps += _detour_waypoints(t_star, rho, e, sign)[1:]
                yy, tt, ok = y, t_cur, True
                for a, b in zip(wps, wps[1:]):
                    if abs(b - a) < 1e-15:
                        continue
                    seg = _integrate_segment(yy, a, b, tol)
                    if seg.status != "done":
                        ok = False
                        break
                    yy, tt = seg.y, b
                if ok:
                    t_cur, y = tt, yy
                    done = True
                    break
            if done:
                break
        if not done:
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

    Rays are independent; the report is a deterministic function of the
    inputs regardless of evaluation order.
    """
    _check_tol(tol)
    if radius <= 0 or n_rays < 4:
        raise ValueError("radius must be positive and n_rays >= 4")
    per_ray = []
    allpts: list[complex] = []
    for k in range(n_rays):
        r = _probe_ray(g, 2.0 * math.pi * k / n_rays, radius, n_rays, tol)
        per_ray.append(r)
        allpts.extend(r.obstructions)
    centers = _cluster(allpts, CLUSTER_TOL)
    if len(centers) >= 2:
        min_sep = min(
            abs(a - b) for i, a in enumerate(centers) for b in centers[i + 1 :]
        )
    else:
        min_sep = 0.0
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
    base = center + loop_radius
    leg = _integrate_segment(g.state(), g.t0, base, tol) if base != g.t0 else None
    if leg is not None and leg.status != "done":
        return LoopResult("Obstructed", None, None, False, math.inf)
    y0: State = leg.y if leg is not None else g.state()

    prev_end: State | None = None
    for ngon in (32, 64, 128, 256):
        y = y0
        ok = True
        pts = [
            center + loop_radius * cmath.exp(2j * math.pi * k / ngon)
            for k in range(ngon * turns + 1)
        ]
        for a, b in zip(pts, pts[1:]):
            seg = _integrate_segment(y, a, b, tol)
            if seg.status != "done":
                ok = False
                break
            y = seg.y
        if not ok:
            return LoopResult("Obstructed", y0, None, False, math.inf)
        if prev_end is not None:
            drift = max(
                abs(y[q] - prev_end[q]) / (1.0 + abs(y[q])) for q in range(4)
            )
            if drift <= tol:
                break
        prev_end = y

    mismatch = max(abs(y[q] - y0[q]) / (1.0 + abs(y0[q])) for q in range(4))
    return LoopResult("Completed", y0, y, mismatch > 10.0 * tol, mismatch)
