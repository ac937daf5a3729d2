"""Path continuation, obstruction detection, probes, monodromy."""

import cmath
import math
import random
from types import SimpleNamespace

import pytest

from cliftonpohl import continuation
from cliftonpohl.acceptance import _DISCRETENESS_GERMS, random_generic_germ
from cliftonpohl.continuation import (
    CLUSTER_TOL,
    SETTLED_SPREAD,
    PathPolyline,
    _cluster,
    _integrate_segment,
    _invert,
    _probe_ray,
    _walk_localize,
    completeness_probe,
    continue_path,
    loop_monodromy,
)
from cliftonpohl.families import NullRationalSampler, NullTanSampler, sample, solve
from cliftonpohl.manifold import dilate, first_integrals, germ
from cliftonpohl.taylor import ORDER, _jet, taylor_step


def taylor_reference(state, t_target, steps=200, order=12):
    """Independent fixed-step series integrator (oracle for endpoints)."""
    h = t_target / steps
    y = state
    for _ in range(steps):
        y = taylor_step(y, h, order)
    return y


class TestPathValidation:
    def test_needs_two_waypoints(self):
        with pytest.raises(ValueError):
            PathPolyline((0,))

    def test_rejects_repeated_waypoints(self):
        with pytest.raises(ValueError):
            PathPolyline((0, 0, 1))

    def test_path_must_start_at_t0(self):
        with pytest.raises(ValueError):
            continue_path(germ(1, 0, 1, 0), PathPolyline((0.5, 2)))

    def test_tol_range(self):
        with pytest.raises(ValueError):
            continue_path(germ(1, 0, 1, 0), PathPolyline((0, 1)), tol=1e-2)

    def test_rejects_non_finite_waypoints(self):
        # a NaN waypoint once came back as an obstruction at t* = 1
        for bad in (complex(0, math.nan), complex(math.inf, 0)):
            with pytest.raises(ValueError):
                PathPolyline((0, bad))


class TestRationalScenarios:
    def test_short_of_pole(self):
        tr = continue_path(germ(1, 0, 1, 0), PathPolyline((0, 0.9)), 1e-10)
        assert tr.completed
        assert abs(tr.endpoint.u - 10) < 1e-7
        assert abs(tr.endpoint.t - 0.9) == 0  # lands exactly on the waypoint

    def test_halt_at_pole(self):
        tr = continue_path(germ(1, 0, 1, 0), PathPolyline((0, 2)), 1e-10)
        assert tr.status == "Obstructed"
        assert abs(tr.obstruction.t_star - 1) < 1e-3

    def test_flank_the_pole(self):
        tr = continue_path(germ(1, 0, 1, 0), PathPolyline((0, 0.5 + 0.5j, 2)), 1e-10)
        assert tr.completed
        assert abs(tr.endpoint.u - (-1)) < 1e-6
        assert abs(tr.endpoint.du - 1) < 1e-6  # d/dt 1/(1-t) at t=2

    def test_samples_ordered_along_path(self):
        tr = continue_path(germ(1, 0, 1, 0), PathPolyline((0, 0.5 + 0.5j, 2)), 1e-8)
        arc = 0.0
        prev = tr.samples[0].t
        for s in tr.samples[1:]:
            step = abs(s.t - prev)
            assert step > 0
            arc += step
            prev = s.t
        assert arc >= abs(0.5 + 0.5j) + abs(2 - (0.5 + 0.5j)) - 1e-9


class TestHomotopyAndReality:
    def test_homotopic_paths_agree(self):
        g = germ(1, 0, 1, 0)
        tol = 1e-10
        a = continue_path(g, PathPolyline((0, 0.5 + 0.5j, 2)), tol)
        b = continue_path(g, PathPolyline((0, 0.2 + 0.4j, 1.2 + 0.6j, 2)), tol)
        assert a.completed and b.completed
        for qa, qb in (
            (a.endpoint.u, b.endpoint.u),
            (a.endpoint.v, b.endpoint.v),
            (a.endpoint.du, b.endpoint.du),
            (a.endpoint.dv, b.endpoint.dv),
        ):
            assert abs(qa - qb) < 100 * tol * (1 + abs(qa))

    def test_real_slice_stays_real(self):
        tr = continue_path(germ(1, 2, 1, 1), PathPolyline((0, 0.4)), 1e-10)
        assert tr.completed
        for s in tr.samples:
            for c in (s.u, s.v, s.du, s.dv):
                assert abs(c.imag) < 1e-10


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "g",
        [germ(1, 0, 1, 0), germ(0, 1, 1, 0), germ(1, 1, 2, 2), germ(1, 2, 1, 1)],
        ids=["rational", "tan", "exponential", "generic"],
    )
    def test_continuation_matches_closed_form(self, g, seed):
        s = solve(g)
        r = random.Random(seed + 11)
        checked = 0
        while checked < 20:
            t = g.t0 + cmath.rect(r.uniform(0.1, 1.0), r.uniform(0, 2 * math.pi))
            try:
                pt, vel = sample(s, t)
            except Exception:
                continue
            tr = continue_path(g, PathPolyline((g.t0, t)), 1e-10)
            if not tr.completed:
                continue
            checked += 1
            e = tr.endpoint
            assert abs(e.u - pt.u) < 1e-6
            assert abs(e.v - pt.v) < 1e-6
            assert abs(e.du - vel[0]) < 1e-6
            assert abs(e.dv - vel[1]) < 1e-6

    def test_against_series_stepper(self):
        # independent scheme: fixed-step Taylor series integration
        g = germ(1, 2, 1, 1)
        ref = taylor_reference(g.state(), 0.5 + 0.3j)
        tr = continue_path(g, PathPolyline((0, 0.5 + 0.3j)), 1e-11)
        assert tr.completed
        assert abs(tr.endpoint.u - ref[0]) < 1e-8
        assert abs(tr.endpoint.v - ref[1]) < 1e-8

    def test_offdiagonal_proportional_germ(self):
        # proportional data away from the diagonal: the run completes,
        # and the endpoint follows the true flow, not the exponential
        # closed form (which solves the equation only when beta = +-alpha)
        g = germ(1, 2, 1, 2)
        tr = continue_path(g, PathPolyline((0, 1)), 1e-10)
        assert tr.completed
        ref = taylor_reference(g.state(), 1.0, steps=400)
        assert abs(tr.endpoint.u - ref[0]) < 1e-7 * (1 + abs(ref[0]))
        assert abs(tr.endpoint.v - ref[1]) < 1e-7 * (1 + abs(ref[1]))
        assert abs(tr.endpoint.u - cmath.e) > 0.5
        # the first integrals are still conserved along the true flow
        fi = first_integrals(g)
        e = tr.endpoint
        f = e.u * e.u + e.v * e.v
        assert abs(e.du * e.dv / f - fi.A) < 1e-9
        assert abs(e.u / e.du + e.v / e.dv - fi.B) < 1e-9


def odefun_state(state, waypoints):
    """30-digit ``mpmath.odefun`` state at the end of a polyline."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        y = [mp.mpc(c) for c in state]
        for a, b in zip(waypoints, waypoints[1:]):
            e = mp.mpc(b) - mp.mpc(a)
            length = abs(e)
            e /= length

            def rhs(s, w, e=e):
                u, v, p, q = w
                f = u * u + v * v
                return [e * p, e * q, e * 2 * u * p * p / f, e * 2 * v * q * q / f]

            y = mp.odefun(rhs, 0, y, tol=mp.mpf(10) ** -20, degree=20)(length)
        return [complex(c) for c in y]


# a proportional germ whose straight path of length 5 passes within
# 2e-3 (relative) of the cone u^2 + v^2 = 0 near t = 1.19 - 2.47i
_NEAR_CONE = germ(
    -0.5460548940458464 + 0.5863883922776303j,
    0.06282643978443297 - 0.4710494331352545j,
    0.9639032193252449 - 0.7649935525961125j,
    -0.20361719975877168 + 0.7008619979318623j,
)


class TestDeliveredAccuracy:
    @pytest.mark.parametrize(
        "g, end",
        [
            (germ(1, 0, 1, 0), 0.6 + 0.5j),
            (germ(0, 1, 1, 0), 1 + 1j),
            (_NEAR_CONE, 0.6 * (2.1643899551329846 - 4.507262597422014j)),
            (germ(1, 2, 1, 1), 1.5 + 1j),
        ],
        ids=["rational", "tan", "proportional", "generic"],
    )
    def test_endpoint_within_tol(self, g, end):
        tol = 1e-10
        tr = continue_path(g, PathPolyline((0, end)), tol)
        assert tr.completed
        ref = odefun_state(g.state(), (0, end))
        e = tr.endpoint
        for got, want in zip((e.u, e.v, e.du, e.dv), ref):
            assert abs(got - want) <= tol * (1 + abs(want))


class TestTaylorStepper:
    def test_grazing_singularity_is_stepped_through(self):
        # a singularity passes about 5e-3 off this path near
        # -1.156 - 0.090i; continuation must go past it, not stop there
        g = germ(
            -0.02874328442545476 - 1.1585569309617647j,
            -0.31767368439829674 - 0.5165174740368349j,
            0.38593730130246673 + 1.09250417460064j,
            0.4618810990620963 + 0.3927052178707551j,
        )
        tr = continue_path(g, PathPolyline((0, -4.983027093884124 - 0.41163209497892583j)), 1e-10)
        assert tr.status == "Completed"

    def test_dilated_germ_completes(self):
        # (u, v) -> 2^40 (u, v) is an isometry: the shot completes, and
        # its endpoint is the unscaled one times 2^40
        path = PathPolyline((0, 2 + 1j, 3 - 1j))
        g = germ(1.3, -0.7, 0.9, 1.1)
        tr, big = continue_path(g, path), continue_path(dilate(g, 40), path)
        assert tr.completed and big.completed
        a, b = tr.endpoint, big.endpoint
        for x, y in ((a.u, b.u), (a.v, b.v), (a.du, b.du), (a.dv, b.dv)):
            assert abs(2.0**40 * x - y) <= 1e-9 * abs(y)

    def test_subnormal_velocity_completes(self):
        # v' = 1e-310 is not null, and no series coefficient divides by it
        tr = continue_path(germ(1, 2, 1, 1e-310), PathPolyline((0, 1)))
        assert tr.completed and all(cmath.isfinite(z) for z in vars(tr.endpoint).values())

    def test_step_budget(self):
        # tripwire: order-20 steps cross this length-5 ray in about 40
        steps = []
        g = germ(1.3, -0.7, 0.9, 1.1)
        res = _integrate_segment(
            g.state(), 0j, 5 * cmath.exp(0.3j), 1e-10, collect=lambda t, y: steps.append(t)
        )
        assert res.status == "done"
        assert len(steps) <= 150

    @pytest.mark.parametrize("bad", [0, 1, 2, 3])
    def test_nan_in_any_component_is_a_blowup(self, monkeypatch, bad):
        # a step whose new state has a NaN component, the first or any
        # later one, is obstructed where it starts
        jet = _jet(ORDER)
        real = jet.advance

        def advance(*args):
            y = list(real(*args))
            y[bad] = complex(math.nan, 0.0)
            return tuple(y)

        monkeypatch.setattr(jet, "advance", advance)
        g = germ(1.3, -0.7, 0.9, 1.1)
        res = _integrate_segment(g.state(), 0j, 1.0, 1e-10)
        assert res.status == "obstructed" and res.t == 0 and res.y == g.state()


class TestConservation:
    def test_drift_along_trace(self):
        g = germ(1, 2, 1, 1)
        fi = first_integrals(g)
        tr = continue_path(g, PathPolyline((0, 2.5 * cmath.exp(0.4j))), 1e-10)
        fmax = max(abs(s.u * s.u + s.v * s.v) for s in tr.samples)
        bound = 1e-8 * (1 + abs(fi.A)) * (1 + fmax)
        for s in tr.samples:
            f = s.u * s.u + s.v * s.v
            assert abs(s.du * s.dv - fi.A * f) < bound
            assert abs(s.u / s.du + s.v / s.dv - fi.B) < 1e-8 * (1 + abs(fi.B))


# every pole within |t| <= 4 of a generic germ and of u = tan t, from
# their 64-ray probes
_POLES_WITHIN_4 = [
    ((1.3, -0.7, 0.9, 1.1), p)
    for p in (
        -1.312833565652398 + 0j,
        -1.3128335656523737 - 2.6649658728713868j,
        -1.3128335656523737 + 2.6649658728713868j,
        1.5400968387118306 - 2.6649658728713854j,
        1.5400968387118306 + 2.6649658728713854j,
        1.5400968387118643 + 0j,
    )
] + [((0, 1, 1, 0), complex(-math.pi / 2)), ((0, 1, 1, 0), complex(math.pi / 2))]


class TestObstructionLocalization:
    def test_rational_pole(self):
        tr = continue_path(germ(1, 0, 1, 0), PathPolyline((0, 2)), 1e-10)
        assert abs(tr.obstruction.t_star - 1) < 1e-4

    def test_tan_pole(self):
        tr = continue_path(germ(0, 1, 1, 0), PathPolyline((0, 3)), 1e-10)
        assert abs(tr.obstruction.t_star - math.pi / 2) < 1e-4

    def test_oblique_approach(self):
        # approach the tangent pole at pi/2 from above along a slanted leg
        tr = continue_path(
            germ(0, 1, 1, 0), PathPolyline((0, 1.2j, math.pi / 2)), 1e-10
        )
        assert tr.status == "Obstructed"
        assert abs(tr.obstruction.t_star - math.pi / 2) < 1e-3

    def test_radius_contains_the_pole(self):
        # a shoot's radius holds the closed-form pole: u = tan t straight
        # and oblique, the README halt, and NullRational u = 1/(C - B t)
        # with pole C/B.  Each stops where its estimate settles; the misses
        # reach 1.0e-13 while |off| * spread stays below 1e-12, so the
        # 1e-12 floor is what holds them
        cases = [
            (germ(0, 1, 1, 0), (0, 3), math.pi / 2),
            (germ(0, 1, 1, 0), (0, 1.2j, math.pi - 1.2j), math.pi / 2),
            (germ(1, 0, 1, 0), (0, 2), 1.0),
            *null_rational_halts(),
        ]
        for g, path, pole in cases:
            tr = continue_path(g, PathPolyline(path), 1e-10)
            assert tr.status == "Obstructed"
            assert abs(tr.obstruction.t_star - pole) <= tr.obstruction.radius, (g, path)

    def test_null_rational_halts_on_its_first_estimate(self, monkeypatch):
        # the coefficients of 1/(C - B t) are geometric, so the first
        # step's estimate has settled on the pole ahead: one build, where
        # stepping on until the step collapses takes about 90
        builds = count_builds(monkeypatch)
        for g, path, pole in null_rational_halts():
            builds.clear()
            tr = continue_path(g, PathPolyline(path), 1e-10)
            assert tr.status == "Obstructed" and len(builds) <= 2, (g, len(builds))
            assert abs(tr.obstruction.t_star - pole) <= tr.obstruction.radius

    @pytest.mark.parametrize("scale", [1e100, 1e150])
    def test_huge_germ_halts_at_its_pole(self, scale):
        # u is close to scale/(1 - t).  Stepping on to the collapse, the
        # order-20 products overflow first and the pole came out 9.1e-6
        # (1e100) and 0.47 (1e150) away
        tr = continue_path(germ(scale, 1, scale, 1), PathPolyline((0, 2)))
        assert tr.status == "Obstructed"
        assert abs(tr.obstruction.t_star - 1) <= tr.obstruction.radius

    def test_settled_spread_is_pinned(self, monkeypatch):
        # the tan halt stops on its 8th build with |off| * spread below the
        # 1e-12 floor.  At SETTLED_SPREAD = 1e-14 it steps on to the 10th;
        # at 1e-10 it stops on the 7th, with a radius of 1.0e-11
        builds = count_builds(monkeypatch)
        tr = continue_path(germ(0, 1, 1, 0), PathPolyline((0, 3)))
        assert tr.status == "Obstructed" and len(builds) <= 8
        assert tr.obstruction.radius == 1e-12
        assert abs(tr.obstruction.t_star - math.pi / 2) <= 1e-12

    @pytest.mark.parametrize("eps", [10.0**-k for k in range(2, 10)])
    def test_shot_beside_a_pole_completes(self, eps):
        # u = 1/(1 - t) along a stretch eps above its pole: the estimate
        # settles on the pole, which is off the path, so the shot steps
        # on.  The stretch from 1e-4 before the pole was a workaround for
        # a bound on |u'| that stopped straight shots passing within 1e-6;
        # test_straight_shot_beside_a_pole_completes checks those
        path = PathPolyline((0, 1 - 1e-4 + eps * 1j, 1 + 1e-4 + eps * 1j, 2))
        tr = continue_path(germ(1, 0, 1, 0), path)
        assert tr.status == "Completed"
        assert abs(tr.endpoint.u - 1 / (1 - 2)) <= 1e-9

    @pytest.mark.parametrize("eps", [1e-7, 1e-8, 1e-9, 1e-10])
    def test_straight_shot_beside_a_pole_completes(self, eps):
        # the straight line to 2 + 2 eps i passes eps beside the pole t = 1
        # of u = 1/(1 - t), where |u'| reaches 1/eps^2: no stop may read
        # a magnitude as an obstruction
        end = 2 + 2 * eps * 1j
        tr = continue_path(germ(1, 0, 1, 0), PathPolyline((0, end)))
        assert tr.status == "Completed"
        want = 1 / (1 - end)
        assert abs(tr.endpoint.u - want) <= 1e-9 * (1 + abs(want))

    def test_sped_up_shot_beside_its_pole_completes(self):
        # u = 1/(1 - 2^34 t) along a line that passes 1e-3 of its own time
        # 2^-34 beside the pole: no settle rule may read 1e-12 as a width
        k = 34
        end = 2.0 ** (1 - k) + 0.002j * 2.0**-k
        tr = continue_path(germ(1, 0, 2.0**k, 0), PathPolyline((0, end)))
        assert tr.status == "Completed"
        want = 1 / (1 - 2.0**k * tr.endpoint.t)
        assert abs(tr.endpoint.u - want) <= 1e-12 * (1 + abs(want))

    @pytest.mark.parametrize(
        "state, pole", _POLES_WITHIN_4, ids=[f"{s[0]}-{p:.2f}" for s, p in _POLES_WITHIN_4]
    )
    @pytest.mark.parametrize("eps", [1e-7, 1e-9])
    def test_shots_beside_each_pole_complete(self, state, pole, eps):
        # a straight shot to twice the pole, eps off its line, passes eps
        # beside it; it must end where a shot along the same side that
        # passes 0.05 away ends
        g, side = germ(*state), 1j * pole / abs(pole)
        end = 2 * pole + 2 * eps * side
        tr = continue_path(g, PathPolyline((0, end)))
        ref = continue_path(g, PathPolyline((0, pole + 0.05 * side, end)), 1e-12)
        assert tr.status == "Completed" and ref.status == "Completed"
        for got, want in zip(vars(tr.endpoint).values(), vars(ref.endpoint).values()):
            assert abs(got - want) <= 1e-9 * (1 + abs(want))

    @pytest.mark.parametrize("gap", [1e-2, 1e-3])
    def test_shot_ending_short_of_a_pole_completes(self, gap):
        # the pole of u = 1/(1 - t) lies gap past the shot's end, on its
        # line: not on the rest of the segment, so no step halts on it
        end = 1 - gap
        tr = continue_path(germ(1, 0, 1, 0), PathPolyline((0, end)))
        assert tr.status == "Completed"
        want = 1 / (1 - end)
        assert abs(tr.endpoint.u - want) <= 1e-9 * abs(want)

    @pytest.mark.parametrize("scale, eps", [(1e-6, 5e-9), (1e-8, 5e-10), (1e-12, 5e-12)])
    def test_shot_beside_a_faint_pole_completes(self, scale, eps):
        # u = scale/(1 - t) along a line that passes eps beside its pole:
        # the shortest step is about 0.14 eps, and every step still moves
        # t, so none is taken for a collapse.  A floor on the step of 1e-12
        # times the path's length (2e-12) stopped the third shot at
        # 1.0006, Obstructed; one of 1e-9 times it stopped all three
        end = 2 + 2 * eps * 1j
        tr = continue_path(germ(scale, 0, scale, 0), PathPolyline((0, end)))
        assert tr.status == "Completed"
        want = scale / (1 - end)
        assert abs(tr.endpoint.u - want) <= 1e-10 * (1 + abs(want))


def null_rational_halts():
    """(germ, path, pole) of shots through the pole C/B of NullRational
    u = 1/(C - B t), to twice the pole."""
    r = random.Random(13)
    cases = []
    for _ in range(8):
        a, x = (complex(r.uniform(-2, 2), r.uniform(-2, 2)) for _ in range(2))
        s = solve(germ(a, 0, x, 0))
        assert isinstance(s, NullRationalSampler)
        cases.append((germ(a, 0, x, 0), (0, 2 * s.pole), s.pole))
    return cases


def count_builds(monkeypatch):
    """A list that gains one entry, the state, per series build of the integrator."""
    builds = []
    jet = _jet(ORDER)
    series = jet.series

    def build(y):
        builds.append(y)
        return series(y)

    monkeypatch.setattr(jet, "series", build)
    return builds


def shifted_estimate(U, V, x):
    """The estimate the scan reads off a step's series, as an offset from
    the step's end x."""
    est = _jet(ORDER).estimate(U, V)
    return None if est is None else (est[0] - x, est[1])


@pytest.fixture(scope="module")
def scan_halt_walks():
    """Every walk of a 64-ray probe of the criterion-8 germs that starts
    from a scan halt: ((t, y, est) per walk, series built inside it)."""
    halts, builds, walking, stop = [], [], [False], [None]
    real_segment, real_walk = continuation._integrate_segment, continuation._walk_localize
    jet = _jet(ORDER)

    def segment(*args, **kwargs):
        res = real_segment(*args, **kwargs)
        if not walking[0]:
            stop[0] = res.status
        return res

    def walk(t, y, tol, est):
        if stop[0] != "halted":  # a collapse, not a scan halt
            return real_walk(t, y, tol, est)
        halts.append((t, y, est))
        builds.append(0)
        walking[0] = True
        try:
            return real_walk(t, y, tol, est)
        finally:
            walking[0] = False

    def counted(f):
        def g(*args):
            if walking[0]:
                builds[-1] += 1
            return f(*args)

        return g

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuation, "_integrate_segment", segment)
        mp.setattr(continuation, "_walk_localize", walk)
        # every segment builds its series with the jet it binds
        mp.setattr(jet, "series", counted(jet.series))
        for g in _DISCRETENESS_GERMS:
            completeness_probe(g, 5.0, 64, 1e-9)
    return halts, builds


# the 25th draw of random_generic_germ(Random(77)), with 334 obstructions
# within radius 5
DENSE = germ(
    1.2984061974479288 + 0.31908008739427784j,
    0.4734218027454179 - 1.2556348209772725j,
    1.2732188825588533 - 0.5351614835126342j,
    0.5264944699592413 - 1.0334189171705328j,
)


# the 17th draw of random_generic_germ(Random(77)), another dense lattice
DRAW_77_16 = germ(
    0.4556825325580108 + 1.2410439255787442j,
    -1.2541655580692568 + 0.6084463882286584j,
    0.46143019063905183 - 0.5280359900705798j,
    0.9079454917082416 - 1.1259305554050676j,
)


@pytest.fixture
def ray_log(monkeypatch):
    """What probe rays do: the locations their walks settle on, and
    (start, end) of each segment in the chart (1/u, 1/v), the segments
    that run without a scan outside the walk."""
    log = SimpleNamespace(settled=[], crossings=[])
    walking = [False]
    real_segment, real_walk = continuation._integrate_segment, continuation._walk_localize

    def segment(y, t_from, t_to, tol, collect=None, on_step=None):
        if on_step is None and not walking[0]:
            log.crossings.append((t_from, t_to))
        return real_segment(y, t_from, t_to, tol, collect=collect, on_step=on_step)

    def walk(*args):
        walking[0] = True
        try:
            loc = real_walk(*args)
        finally:
            walking[0] = False
        if loc is not None:
            log.settled.append(loc[0])
        return loc

    monkeypatch.setattr(continuation, "_integrate_segment", segment)
    monkeypatch.setattr(continuation, "_walk_localize", walk)
    return log


class TestProbe:
    def test_rational_single_pole(self):
        rep = completeness_probe(germ(1, 0, 1, 0), 3.0, 16, 1e-9)
        assert len(rep.obstructions) == 1
        assert abs(rep.obstructions[0] - 1) < 1e-4
        assert rep.min_separation == 0.0  # fewer than two obstructions

    def test_tan_poles_behind_poles(self):
        # +-3pi/2 hide behind +-pi/2 on the same rays; the probe must
        # flank the first pole and keep going
        rep = completeness_probe(germ(0, 1, 1, 0), 5.0, 16, 1e-9)
        expected = [math.pi / 2, 3 * math.pi / 2, -math.pi / 2, -3 * math.pi / 2]
        assert len(rep.obstructions) == 4
        for p in rep.obstructions:
            assert min(abs(p - q) for q in expected) < 1e-4
        assert abs(rep.min_separation - math.pi) < 1e-3

    def test_entire_family_clean(self):
        rep = completeness_probe(germ(1, 1, 1, 1), 6.0, 16, 1e-9)
        assert rep.obstructions == ()
        assert all(r.status == "Completed" for r in rep.per_ray)

    def test_validation(self):
        with pytest.raises(ValueError):
            completeness_probe(germ(1, 0, 1, 0), -1.0, 16)
        for n_rays in (3, 64.0, True):
            with pytest.raises(ValueError):
                completeness_probe(germ(1, 0, 1, 0), 1.0, n_rays)

    def test_rejects_non_finite_radius(self):
        for radius in (math.nan, math.inf):
            with pytest.raises(ValueError):
                completeness_probe(germ(1, 0, 1, 0), radius, 16)

    def test_walk_locates_wherever_scan_can_halt(self):
        # the scan halts a ray at a step's end state only on the estimate
        # read off that step's series, and the walk starts from that
        # state with that estimate; from every such pair on these rays
        # the walk settles on a location, so halts that are suppressed
        # unreported stay rare
        seen = 0
        for g in _DISCRETENESS_GERMS:
            for k in range(4):
                end = g.t0 + 5.0 * cmath.exp(2j * math.pi * (k + 0.5) / 4)
                states, ests = [], []
                _integrate_segment(
                    g.state(),
                    g.t0,
                    end,
                    1e-9,
                    collect=lambda t, w: states.append((t, w)),
                    on_step=lambda t, U, V, x: ests.append(shifted_estimate(U, V, x)),
                )
                for (t, y), est in zip(states, ests):
                    if est is not None:
                        seen += 1
                        assert _walk_localize(t, y, 1e-9, est) is not None, (g, t)
        assert seen >= 400

    def test_sped_up_probe_reports_the_scaled_poles(self):
        # velocity times 2^17, radius 5 2^-17: the 10 points of the unscaled
        # probe times 2^-17; with an absolute cluster width the report
        # averaged them into one point
        k = 17
        base = completeness_probe(germ(1.3, -0.7, 0.9, 1.1), 5.0, 64)
        rep = completeness_probe(germ(1.3, -0.7, 0.9 * 2.0**k, 1.1 * 2.0**k), 5.0 * 2.0**-k, 64)
        assert len(rep.obstructions) == len(base.obstructions) == 10
        assert all(r.status != "Blocked" for r in rep.per_ray)
        for p in rep.obstructions:
            assert min(abs(p - q * 2.0**-k) for q in base.obstructions) <= 1e-12 * 2.0**-k

    def test_dense_lattice_halts_settle_once(self, ray_log):
        # on rays 30 and 31 of the dense germ the halt states see two
        # comparable poles, so nearest_singularity of the halt state alone
        # fades, and the walk settles only from the estimate the scan
        # halted on
        pole = -4.858544879751536 + 0.6741201380620324j  # 1 + Y^2 = 0, residue -1
        rays = [(DENSE, k) for k in (0, 30, 31)]
        rays += [(g, k) for g in _DISCRETENESS_GERMS for k in range(33)]
        for g, k in rays:
            ray_log.settled.clear()
            ray = _probe_ray(g, 2.0 * math.pi * k / 64, 5.0, 64, 1e-9)
            settled = ray_log.settled
            if g is DENSE and k:
                assert min(abs(p - pole) for p in ray.obstructions) < 1e-6
            # a candidate within its own uncertainty of a point the ray
            # already found is suppressed, not walked to a second time
            assert all(
                abs(p - q) >= CLUSTER_TOL * 5.0 for i, p in enumerate(settled) for q in settled[:i]
            ), (g, k)

    def test_only_the_walk_calls_nearest_singularity(self, monkeypatch):
        # the scan halts on the estimate each step reads off its own
        # series, a collapse carries the estimate of the series it could
        # not step with, and Newton polishes either on the inverted state;
        # no probe re-expands a state.  The 8- and 16-ray fans each
        # collapse once
        calls = []
        real_estimate = continuation.nearest_singularity

        def estimate(y):
            calls.append(y)
            return real_estimate(y)

        monkeypatch.setattr(continuation, "nearest_singularity", estimate)
        for n_rays in (8, 16, 64):
            rep = completeness_probe(germ(1.3, -0.7, 0.9, 1.1), 5.0, n_rays, 1e-9)
            assert len(rep.obstructions) == 10, n_rays
        assert calls == []

    def test_scan_gate_changes_no_report(self, monkeypatch):
        # the scan runs the estimate only where the last raw coefficient
        # ratio of u or v lies within SCAN_REACH tube widths of t; with no
        # gate at all the reports are the same.  At a reach of 1.0 both
        # reports change
        germs = (DENSE, DRAW_77_16)
        gated = [completeness_probe(g, 5.0, 64, 1e-9) for g in germs]
        monkeypatch.setattr(continuation, "SCAN_REACH", math.inf)
        assert [completeness_probe(g, 5.0, 64, 1e-9) for g in germs] == gated

    def test_fan_shares_its_t0_series_and_gates_estimates(self, monkeypatch):
        # a real germ's fan builds the series of its state once, for the
        # first step of all its rays, and the scan runs the estimate on
        # few of its steps (17% on the benchmark's six probe germs)
        builds = count_builds(monkeypatch)
        steps, estimates = [0], [0]
        real_segment, jet = continuation._integrate_segment, _jet(ORDER)
        estimate = jet.estimate

        def segment(y, t_from, t_to, tol, collect=None, on_step=None):
            def scan(*args):
                steps[0] += 1
                return on_step(*args)

            return real_segment(y, t_from, t_to, tol, collect, on_step and scan)

        def counted(U, V):
            estimates[0] += 1
            return estimate(U, V)

        monkeypatch.setattr(continuation, "_integrate_segment", segment)
        monkeypatch.setattr(jet, "estimate", counted)
        for g in _DISCRETENESS_GERMS:
            builds.clear()
            completeness_probe(g, 5.0, 64, 1e-9)
            assert builds.count(g.state()) == 1, g
        assert estimates[0] <= steps[0] / 4, (estimates[0], steps[0])

    def test_expanded_state_carries_its_own_series(self):
        # the fan's shared series is the one each ray would build, and a
        # state whose series cannot be built travels without one, so each
        # ray's first step raises and stops as it would
        y = germ(1.3, -0.7, 0.9, 1.1).state()
        seeded = continuation._expanded(y)
        assert seeded == y and repr(seeded.series) == repr(_jet(ORDER).series(y))
        cone = (1.0, 1j, 0.5, 0.3)
        assert continuation._expanded(cone) is cone

    def test_converged_halt_settles_without_series(self, scan_halt_walks):
        # a halt on an estimate whose ratios have converged to rounding
        # settles on that estimate: no integration, no re-estimate
        halts, builds = scan_halt_walks
        settled = [b for (_, _, est), b in zip(halts, builds) if est[1] <= SETTLED_SPREAD]
        assert len(settled) >= 30
        assert settled == [0] * len(settled)

    def test_converged_settle_agrees_with_walk(self, scan_halt_walks, monkeypatch):
        # polishing a converged estimate by Newton on the inverted state,
        # as the walk does for every other estimate, finds the same
        # location
        halts, _ = scan_halt_walks
        converged = [h for h in halts if h[2][1] <= SETTLED_SPREAD]
        settled = [_walk_localize(t, y, 1e-9, est) for t, y, est in converged]
        monkeypatch.setattr(continuation, "SETTLED_SPREAD", -math.inf)
        for (t, y, est), (p, _) in zip(converged, settled):
            walked = _walk_localize(t, y, 1e-9, est)
            assert abs(walked[0] - p) < 1e-12, (t, est, walked[0], p)

    def test_mirrored_rays_match_direct_rays(self):
        # a real germ's rays above n/2 are mirrored, not traced; tracing
        # them directly must give the same outcome.  Points agree within
        # 1e-14 except on ray 9 of (1.3, -0.7, 0.9, 1.1): near |t| = 3.42
        # it grazes the cone u^2 + v^2 = 0, where high-order coefficients
        # are rounding noise, so the direct ray and its mirror step
        # differently, halt 0.012 apart, and settle 1.4e-11 apart, each
        # within 2e-11 of the pole (a root of 1 + Y^2)
        n = 16
        for g in _DISCRETENESS_GERMS:
            rep = completeness_probe(g, 5.0, n, 1e-9)
            for k in range(n // 2 + 1, n):
                direct = _probe_ray(g, 2.0 * math.pi * k / n, 5.0, n, 1e-9)
                mirrored = rep.per_ray[k]
                assert mirrored.angle == direct.angle
                assert mirrored.status == direct.status, (g, k)
                assert len(mirrored.obstructions) == len(direct.obstructions), (g, k)
                for p, q in zip(mirrored.obstructions, direct.obstructions):
                    assert abs(p - q) < 1e-10, (g, k, p, q)

    @pytest.mark.parametrize(
        "state, n, calls",
        [
            ((1.3, -0.7, 0.9, 1.1), 16, 9),
            ((1.3, -0.7, 0.9, 1.1), 15, 8),
            ((1.3, -0.7, 0.9, 1.1 + 0.2j), 16, 16),
        ],
        ids=["real-even", "real-odd", "non-real"],
    )
    def test_real_germ_traces_half_the_fan(self, monkeypatch, state, n, calls):
        angles = []
        real_ray = continuation._probe_ray

        def ray(g, angle, *args):
            angles.append(angle)
            return real_ray(g, angle, *args)

        monkeypatch.setattr(continuation, "_probe_ray", ray)
        rep = completeness_probe(germ(*state), 1.0, n, 1e-9)
        assert len(angles) == calls
        assert [r.angle for r in rep.per_ray] == [2.0 * math.pi * k / n for k in range(n)]

    def test_mirror_axis_passes_through_t0(self):
        # the reflection is about Im t = Im t0, not the real axis
        n, shift = 16, 0.5j
        a = completeness_probe(germ(1.3, -0.7, 0.9, 1.1), 5.0, n, 1e-9)
        b = completeness_probe(germ(1.3, -0.7, 0.9, 1.1, t0=shift), 5.0, n, 1e-9)
        assert len(a.obstructions) == len(b.obstructions) > 0
        assert any(abs(p.imag) > 1.0 for p in a.obstructions)
        for p in a.obstructions:
            assert min(abs(p + shift - q) for q in b.obstructions) < 1e-9
        for ra, rb in zip(a.per_ray, b.per_ray):
            assert ra.status == rb.status
            assert len(ra.obstructions) == len(rb.obstructions)
            for p, q in zip(ra.obstructions, rb.obstructions):
                assert abs(p + shift - q) < 1e-9

    def test_deterministic_report(self):
        a = completeness_probe(germ(0, 1, 1, 0), 2.0, 8, 1e-9)
        b = completeness_probe(germ(0, 1, 1, 0), 2.0, 8, 1e-9)
        assert a.obstructions == b.obstructions
        assert a.min_separation == b.min_separation
        assert a.per_ray == b.per_ray


class TestInvertedChart:
    def test_invert_is_an_involution(self):
        r = random.Random(5)
        for _ in range(100):
            y = tuple(complex(r.uniform(-3, 3), r.uniform(-3, 3)) for _ in range(4))
            for got, want in zip(_invert(_invert(y)), y):
                assert abs(got - want) <= 4e-15 * abs(want)

    def test_segment_through_a_pole(self):
        # u = tan t has a pole at pi/2; w = 1/u = cot t is regular there,
        # so one straight segment in the chart (1/u, 1/v) steps through it
        g = germ(0, 1, 1, 0)
        start = _integrate_segment(g.state(), 0j, 1.0, 1e-10)
        res = _integrate_segment(_invert(start.y), 1.0, 2.0, 1e-10)
        assert res.status == "done"
        s = solve(g)
        assert isinstance(s, NullTanSampler)
        pt, vel = sample(s, 2.0)
        for got, want in zip(_invert(res.y), (pt.u, pt.v, *vel)):
            assert abs(got - want) < 1e-9

    @pytest.mark.parametrize("n", [16, 64])
    def test_single_pole_ends_the_ray(self, n):
        # u = 1/(1 - t) with v = 0 has its one pole at t = 1, but z = 1/v
        # is infinite: the ray along the real axis ends there as
        # Obstructed instead of failing to cross
        rep = completeness_probe(germ(1, 0, 1, 0), 3.0, n, 1e-9)
        assert all(r.status != "Blocked" for r in rep.per_ray)
        assert rep.per_ray[0].status == "Obstructed"
        assert len(rep.obstructions) == 1 and abs(rep.obstructions[0] - 1) < 1e-12

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 16])
    def test_crossing_that_stops_past_its_pole_resumes(self, n, monkeypatch):
        # ray pi of this germ crosses the pole at -4.16576 in the chart
        # (1/u, 1/v) from about -3.1 and halts past it, near -4.45, on its
        # settled estimate of -4.97864, where 1/v has a pole: a zero of v,
        # regular in (u, v).  The ray resumes there and completes in at
        # most 9 segments, instead of ending Blocked
        calls, halts = [], []
        real_segment = continuation._integrate_segment

        def segment(y, t_from, t_to, tol, collect=None, on_step=None):
            res = real_segment(y, t_from, t_to, tol, collect, on_step)
            calls.append(res.status)
            assert len(calls) <= 9
            if on_step is None and res.status == "halted":
                halts.append((res.t, res.t + res.est[0]))
            return res

        monkeypatch.setattr(continuation, "_integrate_segment", segment)
        ray = _probe_ray(germ(1.3, -0.7, 0.9, 1.1), 2.0 * math.pi * (n // 2) / n, 5.0, n, 1e-9)
        assert len(halts) == 1
        (t, zero), = halts
        assert t.real < -4.1657639700167
        assert abs(zero - -4.9786426233) < 1e-9
        assert ray.status == "Obstructed" and len(ray.obstructions) == 2
        for p, pole in zip(ray.obstructions, (-1.3128335656524, -4.1657639700167)):
            assert abs(p - pole) < 1e-9

    @pytest.mark.parametrize("pole, stop", [(-0.1, 0.0), (0.1, 0.05)], ids=["start", "pole"])
    def test_a_crossing_that_stops_short_is_blocked(self, monkeypatch, pole, stop):
        # a faked ray collapses 1 past each start on a pole at offset
        # pole, and its crossing stops at offset stop: at its own start
        # (resumed there, the ray would collapse at the same point
        # forever), or short of the pole it crosses
        calls = []

        def segment(y, t_from, t_to, tol, collect=None, on_step=None):
            calls.append(t_to)
            assert len(calls) < 50
            t = t_from + (1.0 if on_step else stop)
            return continuation._Segment("obstructed", t, y, (pole, 0.0))

        monkeypatch.setattr(continuation, "_integrate_segment", segment)
        ray = _probe_ray(germ(1.3, -0.7, 0.9, 1.1), 0.0, 5.0, 64, 1e-9)
        assert ray.status == "Blocked" and len(calls) == 2

    @pytest.mark.parametrize("t, off", [(1.0, 0.7), (1.0, 0.45), (1.0, 0.6 + 0.2j), (1 + 2.5j, 0.6 - 2.4j)])
    def test_newton_lands_on_the_pole(self, t, off):
        # from a rough estimate Newton converges on the pole pi/2 of
        # u = tan t, and stops before its step drops below the resolution
        # of t (a zero-length segment)
        y = _integrate_segment(germ(0, 1, 1, 0).state(), 0j, t, 1e-10).y
        p, _ = _walk_localize(t, y, 1e-10, (off, 0.1))
        assert abs(p - math.pi / 2) < 1e-13

    def test_newton_puts_a_scan_halt_on_its_chain_root(self, monkeypatch):
        # ray 17 of draw 5 (counting from 0) of
        # random_generic_germ(Random(77)) halts on an estimate of spread
        # above SETTLED_SPREAD, 2e-9 off its pole; Newton in the chart
        # (1/u, 1/v) puts it 6.4e-15 from the root of 1 + Y^2 that the
        # closed form gives.  Newton converges quadratically and its first
        # step lands within 1e-8 here, so its stop, 1e-8 (1 + |t|), is
        # not what this pins: stops up to 1e-4 give the same point
        r = random.Random(77)
        g = [random_generic_germ(r) for _ in range(6)][5]
        walks, real_walk = [], continuation._walk_localize

        def walk(t, y, tol, est):
            loc = real_walk(t, y, tol, est)
            walks.append((t, est, loc))
            return loc

        monkeypatch.setattr(continuation, "_walk_localize", walk)
        _probe_ray(g, 2 * math.pi * 17 / 64, 5.0, 64, 1e-9)
        (t, (off, spread), (p, _)), = walks
        s = solve(g)
        root = p
        for _ in range(8):
            Y, Yp = s.curve_point(root)
            root -= (1 + Y * Y) / (2 * Y * Yp * s.D)
        assert spread > SETTLED_SPREAD and abs(t + off - root) > 1e-9
        assert abs(p - root) < 1e-12

    def test_a_walk_stops_once_its_newton_step_is_below_1e_8(self, monkeypatch):
        # a tripwire on the walk of the halt above: its first Newton step
        # is below 1e-8 (1 + |t|), so it integrates one segment; a stop at
        # 1e-13 (1 + |t|) would integrate a second that moves no point.
        # test_crossing_that_stops_past_its_pole_resumes[4] pins the stop
        # from below
        r = random.Random(77)
        g = [random_generic_germ(r) for _ in range(6)][5]
        segments, walking = [], [False]
        real_segment, real_walk = continuation._integrate_segment, continuation._walk_localize

        def segment(*args, **kwargs):
            if walking[0]:
                segments.append(args[1:3])
            return real_segment(*args, **kwargs)

        def walk(*args):
            walking[0] = True
            try:
                return real_walk(*args)
            finally:
                walking[0] = False

        monkeypatch.setattr(continuation, "_integrate_segment", segment)
        monkeypatch.setattr(continuation, "_walk_localize", walk)
        _probe_ray(g, 2 * math.pi * 17 / 64, 5.0, 64, 1e-9)
        assert len(segments) == 1

    def test_collapse_is_located_and_crossed(self, monkeypatch):
        # with no scan, each segment of the ray halts on its own settle
        # rule, 0.36 and 0.40 before the poles; the walk locates each pole
        # from the estimate the halt carries, and the ray crosses it.
        # With the settle rule blinded too, the ray collapses at each pole
        # and locates the second 1.29e-12 from 3 pi/2
        real_segment = continuation._integrate_segment

        def blind(y, t_from, t_to, tol, collect=None, on_step=None):
            return real_segment(y, t_from, t_to, tol, collect=collect)

        monkeypatch.setattr(continuation, "_integrate_segment", blind)
        ray = _probe_ray(germ(0, 1, 1, 0), 0.0, 5.0, 16, 1e-9)
        assert ray.status == "Obstructed" and len(ray.obstructions) == 2
        for p, pole in zip(ray.obstructions, (math.pi / 2, 3 * math.pi / 2)):
            assert abs(p - pole) < 1e-12

    def test_a_collapse_takes_its_measured_steps(self, monkeypatch):
        # with both stop rules blinded, the ray of
        # test_collapse_is_located_and_crossed steps into each pole until a
        # new state is not finite (the first) or a step no longer moves t
        # (the second).  Each collapse
        # may take no more steps than it was measured to: a tripwire for a
        # stall whose steps shrink without ever leaving t where it is
        real_segment, collapses = continuation._integrate_segment, []

        def blind(y, t_from, t_to, tol, collect=None, on_step=None):
            if on_step is None:  # a crossing
                return real_segment(y, t_from, t_to, tol, collect=collect)
            steps = []
            res = real_segment(
                y, t_from, t_to, tol, collect=lambda t, w: steps.append(t), on_step=lambda *a: None
            )
            collapses.append((res.status, len(steps)))
            return res

        monkeypatch.setattr(continuation, "_integrate_segment", blind)
        ray = _probe_ray(germ(0, 1, 1, 0), 0.0, 5.0, 16, 1e-9)
        assert ray.status == "Obstructed" and len(ray.obstructions) == 2
        for p, pole in zip(ray.obstructions, (math.pi / 2, 3 * math.pi / 2)):
            assert abs(p - pole) < 2e-12
        assert [status for status, _ in collapses] == ["obstructed", "obstructed"]
        assert all(n <= bound for (_, n), bound in zip(collapses, (194, 196)))

    def test_crossing_runs_along_the_ray_to_the_mirror_point(self, ray_log):
        # a halt crosses its pole in the chart (1/u, 1/v) by one segment
        # along the ray's own line, to the mirror point of the halt past
        # the pole's projection, or to the ray's end
        ray = _probe_ray(germ(0, 1, 1, 0), 0.0, 5.0, 64, 1e-9)
        poles = (math.pi / 2, 3 * math.pi / 2)
        assert ray.status == "Obstructed" and len(ray.obstructions) == 2
        for p, pole in zip(ray.obstructions, poles):
            assert abs(p - pole) < 1e-12
        assert len(ray_log.crossings) == 2
        for (start, end), pole in zip(ray_log.crossings, poles):
            assert start.imag == end.imag == 0.0
            assert start.real < pole < end.real
            assert end == 5.0 or abs(end - (2.0 * pole - start)) < 1e-12

    def test_a_ray_crosses_at_most_once_per_point(self, ray_log, monkeypatch):
        # the work bound of a ray: each crossing passes the pole it has
        # just located, so no ray crosses more often than it locates
        # points (some beyond its radius, so not reported)
        counts, forward = [], []
        real_ray = continuation._probe_ray

        def ray(g, angle, radius, *args):
            ray_log.settled.clear()
            ray_log.crossings.clear()
            r = real_ray(g, angle, radius, *args)
            points = _cluster(ray_log.settled, CLUSTER_TOL * radius)
            counts.append((len(ray_log.crossings), len(points)))
            forward.extend(abs(b - g.t0) > abs(a - g.t0) for a, b in ray_log.crossings)
            return r

        monkeypatch.setattr(continuation, "_probe_ray", ray)
        for g in (*_DISCRETENESS_GERMS, DENSE):
            completeness_probe(g, 5.0, 64, 1e-9)
        assert all(c <= n for c, n in counts)
        assert all(forward)  # a pole behind the halt is not crossed
        assert max(c for c, _ in counts) <= 11  # the measured maximum

    def test_a_pole_abeam_of_the_halt_is_not_crossed(self, monkeypatch):
        # a pole whose projection onto the ray rounds to the halt point is
        # not ahead: the ray resumes straight instead of integrating a
        # segment of zero length.  u = tan(t / e) has its poles on the ray
        # along e, where the scan halts
        angle = 2.0 * math.pi / 64
        e = cmath.exp(1j * angle)
        abeam = lambda t, y, tol, est=None: (t + 0.1j * e, 0.0)
        monkeypatch.setattr(continuation, "_walk_localize", abeam)
        ray = _probe_ray(germ(0, 1, e.conjugate(), 0), angle, 5.0, 64, 1e-9)
        assert ray.status == "Obstructed"

    def test_a_collapse_at_the_start_crosses_forward(self, monkeypatch):
        # u is about 1/(t0 + 1e-6 - t) near t0 = 1e10, a pole closer to the
        # start than the resolution of t there (1.9e-6): the ray's first
        # step (1.6e-7) does not move t, so the ray collapses at t0 itself.
        # Only the tube's floor gives its crossing a length; without it the
        # ray would collapse at t0 forever.  The scan is blinded, as in
        # test_collapse_is_located_and_crossed, so that the crossing is the
        # ray's only detour
        t0 = 1e10
        calls = []
        real_segment = continuation._integrate_segment

        def blind(y, t_from, t_to, tol, collect=None, on_step=None):
            calls.append(t_from)
            assert len(calls) < 50
            return real_segment(y, t_from, t_to, tol, collect=collect)

        monkeypatch.setattr(continuation, "_integrate_segment", blind)
        ray = _probe_ray(germ(1e6, 1, 1e12, 0.5, t0), 0.0, 5.0, 64, 1e-9)
        assert ray.status == "Obstructed" and ray.obstructions == (t0 + 1e-6,)
        # the ray, its crossing from t0, the rest of the ray
        assert calls[:2] == [t0, t0] and len(calls) == 3

    def test_newton_refuses_a_step_beyond_its_estimate(self, monkeypatch):
        # on ray 20 of this germ (draw 6, counting from 0, of
        # random_generic_germ(Random(77))) the scan halts at
        # -1.58 + 3.82i on an estimate of spread 0.31 that is no pole;
        # Newton's first step from it is far longer than the estimate's
        # offset, and followed, it integrates 317 steps to a point 60 away
        g = germ(
            1.3929589336183097 - 0.2294291459868425j,
            1.226722478422997 - 0.4341141782921781j,
            0.19972425279927994 + 1.0177502033778525j,
            -0.07191650597731106 - 0.9640680020236458j,
        )
        walking, steps = [False], [0]
        real_segment, real_walk = continuation._integrate_segment, continuation._walk_localize

        def segment(y, t_from, t_to, tol, collect=None, on_step=None):
            def counted(t, w):
                steps[0] += walking[0]
                if collect is not None:
                    collect(t, w)

            return real_segment(y, t_from, t_to, tol, collect=counted, on_step=on_step)

        def walk(*args):
            walking[0] = True
            try:
                return real_walk(*args)
            finally:
                walking[0] = False

        monkeypatch.setattr(continuation, "_integrate_segment", segment)
        monkeypatch.setattr(continuation, "_walk_localize", walk)
        ray = _probe_ray(g, 2.0 * math.pi * 20 / 64, 5.0, 64, 1e-9)
        assert ray.status == "Completed" and ray.obstructions == ()
        assert 0 < steps[0] <= 10

    def test_newton_stops_after_eight_iterations(self, monkeypatch):
        # a Newton step that never shrinks is given up after 8 segments
        calls = []

        def segment(y, t_from, t_to, tol, collect=None, on_step=None):
            calls.append(t_to)
            assert len(calls) < 50
            return continuation._Segment("done", t_to, (1e-3, 1.0, -1.0, 1.0))

        monkeypatch.setattr(continuation, "_integrate_segment", segment)
        assert _walk_localize(0j, (1.0, 1.0, 1.0, 1.0), 1e-9, (0.1, 0.2)) is None
        assert len(calls) == 8

    def test_newton_needs_both_coordinates_nonzero(self):
        # v = 0 has no image in the chart (1/u, 1/v): an estimate that
        # has not settled stays unlocated instead of dividing by zero
        y = _integrate_segment(germ(1, 0, 1, 0).state(), 0j, 0.9, 1e-10).y
        assert y[1] == 0
        assert _walk_localize(0.9, y, 1e-9, (0.1, 0.2)) is None


# points where a geodesic touches the cone u^2 + v^2 = 0: F has a double
# zero and u', v' vanish there, so the solution is regular, but its
# high-order series coefficients near them are rounding noise
_CONE_TOUCHES = [
    ((1, 2, 1, 1), 4.2711 - 1.7824j),
    ((1.5, 0.6, -0.8, 1.3), 0.40079 + 1.35374j),
]


class TestConeTouch:
    @pytest.mark.parametrize("state, touch", _CONE_TOUCHES, ids=["1-2-1-1", "1.5-0.6-0.8-1.3"])
    def test_cone_touch_is_regular(self, state, touch):
        g = germ(*state)
        tr = continue_path(g, PathPolyline((0, touch, 1.2 * touch)), 1e-10)
        assert tr.completed
        at = next(s for s in tr.samples if s.t == touch)
        assert abs(at.u**2 + at.v**2) < 1e-4 * (abs(at.u) ** 2 + abs(at.v) ** 2)
        # near the touch the scan can halt, but the walk must not settle
        # there, so the probe reports nothing close to it; wide fans halt
        # farther out, where Newton refuses the estimate
        for n_rays in (8, 16, 64):
            rep = completeness_probe(g, 5.0, n_rays, 1e-9)
            assert all(abs(p - touch) >= 0.5 for p in rep.obstructions), n_rays
            assert all(r.status != "Blocked" for r in rep.per_ray), n_rays

    def test_segment_that_starts_on_the_cone_stops_at_its_start(self):
        # u^2 + v^2 = 0 at t = 0: no series can be built, so the segment
        # stops there, obstructed, on its own state and the estimate (0, 0),
        # and _expanded hands the bare state on
        y = (1, 1j, 1, 1)
        res = _integrate_segment(y, 0, 1, 1e-10)
        assert (res.status, res.t, res.y, res.est) == ("obstructed", 0, y, (0j, 0.0))
        assert type(res.est[0]) is complex and type(res.est[1]) is float
        assert continuation._expanded(y) is y


class TestLoopMonodromy:
    def test_meromorphic_loop_is_trivial(self):
        # circle around the pole t = 1 of a single-valued solution
        res = loop_monodromy(germ(1, 0, 1, 0), 0.8 + 0.3j, 0.5, 1e-10)
        assert res.status == "Completed"
        assert not res.branch_changed
        assert res.mismatch < 1e-8

    def test_entire_loop_is_trivial(self):
        res = loop_monodromy(germ(1, 1, 1, 1), 1 + 0.5j, 1.0, 1e-10)
        assert res.status == "Completed"
        assert not res.branch_changed

    def test_obstructed_pre_leg(self):
        # basepoint straight ahead through the pole at t = 1
        res = loop_monodromy(germ(1, 0, 1, 0), 1.0, 0.5, 1e-10)
        assert res.status == "Obstructed"

    def test_rejects_bad_radius_and_center(self):
        g = germ(1, 0, 1, 0)
        for center, radius in ((2.0, math.nan), (2.0, math.inf), (2.0, 0.0),
                               (complex(math.nan, 0), 0.5)):
            with pytest.raises(ValueError):
                loop_monodromy(g, center, radius)

    def test_generic_two_turns_consistency(self):
        # loop around the nearest obstruction of the generic exemplar,
        # then once more from where the first turn ended: the second turn
        # starts on that state, and two turns end where the first began
        g = germ(1, 2, 1, 1)
        center = 3.2516195 + 0.05j
        tol = 1e-10
        one = loop_monodromy(g, center, 0.4, tol)
        assert one.status == "Completed"
        # branch_changed is recorded, not assumed: for this germ the local
        # exponents come out integral and the loop is actually trivial
        assert isinstance(one.branch_changed, bool)
        base = center + 0.4
        g2 = germ(*one.end_state, t0=base)
        again = loop_monodromy(g2, center, 0.4, tol)
        assert again.status == "Completed" and again.base_state == one.end_state
        for a, b in zip(again.end_state, one.base_state):
            assert abs(a - b) < 10 * tol * (1 + abs(b))

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-5, -1e-3])
    def test_loop_grazing_a_pole(self, eps):
        # u = 1/(1 - t) around a circle that passes eps * r inside its
        # pole (outside for eps < 0): the arc steps along the circle, so
        # no chord can cut the pole off or pass on its far side
        center = 1 + 0.5 * (1 - eps) * 1j
        res = loop_monodromy(germ(1, 0, 1, 0), center, 0.5)
        assert res.status == "Completed" and not res.branch_changed
        want = 1 / (1 - (center + 0.5))
        assert abs(res.end_state[0] - want) <= 1e-9 * abs(want)

    def test_loop_through_a_pole_is_obstructed(self):
        res = loop_monodromy(germ(1, 0, 1, 0), 1 + 0.5j, 0.5)
        assert res.status == "Obstructed"
        assert res.base_state is not None and res.end_state is None

    @pytest.mark.parametrize("radius", [0.4, 0.2])
    def test_loop_matches_the_closed_form(self, radius):
        g = germ(1, 2, 1, 1)
        center = 3.2516195 + 0.05j
        res = loop_monodromy(g, center, radius)
        assert res.status == "Completed"
        p, (du, dv) = sample(solve(g), center + radius)
        for a, b in zip(res.end_state, (p.u, p.v, du, dv)):
            assert abs(a - b) <= 1e-9 * abs(b)

    def test_loop_series_builds(self, monkeypatch):
        # one pass along the circle takes 100 builds, leg included; the
        # bound fails a loop that traces polygons (a 32-gon and a 64-gon
        # cost 183)
        builds = count_builds(monkeypatch)
        res = loop_monodromy(germ(1, 2, 1, 1), 3.2516195 + 0.05j, 0.4)
        assert res.status == "Completed"
        assert len(builds) <= 120
