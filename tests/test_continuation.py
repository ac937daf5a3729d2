"""Path continuation, obstruction detection, probes, monodromy."""

import cmath
import gc
import math
import random
from types import SimpleNamespace

import pytest

from cliftonpohl import continuation
from cliftonpohl.acceptance import _DISCRETENESS_GERMS, random_generic_germ
from cliftonpohl.continuation import (
    SETTLED_SPREAD,
    TUBE_FLOOR,
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
from cliftonpohl.taylor import ORDER, _jet


def taylor_reference(state, t_target, steps=200, order=12):
    """Independent fixed-step series integrator (oracle for endpoints)."""
    h = t_target / steps
    y = state
    jet = _jet(order)
    for _ in range(steps):
        y = jet.advance(*jet.series(y), h)
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

    def test_path_must_start_exactly_at_t0(self):
        # 5e-13 is 0.55 units of the own time of u = 1/(1 - 2^40 t): a
        # path that far off t0 was taken as starting there, and completed
        # with u(end) = 0.953 where u = 2
        with pytest.raises(ValueError):
            continue_path(germ(1, 0, 2.0**40, 0), PathPolyline((5e-13, 2.0**-41)))

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


    @pytest.mark.xfail(strict=True, reason="tol does not bound the endpoint below about 1e-11 "
                       "on a path that grazes the cone (ROADMAP items 8 and 11)")
    def test_endpoint_within_tol_beside_the_cone(self):
        # draw 0 of random_generic_germ(Random(8)): the closed form agrees
        # with a 30-digit mpmath.odefun to 1.4e-14 at the end, and is the
        # reference.  Relative to 1 + |value|, the endpoint is off by 2.0e-12,
        # 4.6e-13, 1.0e-11, 8.9e-11 and 5.3e-10 at tol 1e-10 ... 1e-14: at
        # 1e-14 a step lands 1.7e-6 (relative) from u^2 + v^2 = 0, where
        # |u'| = |v'| = 6.7e-3, and the error grows 40-fold in six steps
        g = random_generic_germ(random.Random(8))
        end, tol = 1.3171 - 3.0702j, 1e-12
        pt, (du, dv) = sample(solve(g), end)
        e = continue_path(g, PathPolyline((g.t0, end)), tol).endpoint
        for got, want in zip((e.u, e.v, e.du, e.dv), (pt.u, pt.v, du, dv)):
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

    @pytest.mark.xfail(strict=True, reason="the tail rule reads 1 + |component|, so a state "
                       "of size 2^-100 is integrated to absolute accuracy (ROADMAP item 9)")
    def test_small_dilated_germ_completes(self):
        # (u, v) -> 2^-100 (u, v) is an isometry too, but this shot
        # completes 2.4e5 off (relative) the unscaled endpoint times
        # 2^-100, with no sign of it; 8.7e-3 off at 2^-40
        path = PathPolyline((0, 2 + 1j, 3 - 1j))
        g = germ(1.3, -0.7, 0.9, 1.1)
        tr, small = continue_path(g, path), continue_path(dilate(g, -100), path)
        assert tr.completed and small.completed
        a, b = tr.endpoint, small.endpoint
        for x, y in ((a.u, b.u), (a.v, b.v), (a.du, b.du), (a.dv, b.dv)):
            assert abs(2.0**-100 * x - y) <= 1e-9 * abs(y)

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

    def test_tan_shot_passes_its_pole(self):
        # u = tan t has a pole at pi/2 on this shot; 1/u = cot t is regular
        # there, so the shot steps through it in (k/u, k/v) and ends on
        # the closed form (8.5e-15 off).  It halted at the pole before
        # shots changed charts
        tr = continue_path(germ(0, 1, 1, 0), PathPolyline((0, 3)), 1e-10)
        assert tr.status == "Completed"
        e, want = tr.endpoint, cmath.tan(3)
        assert abs(e.u - want) <= 1e-12 * (1 + abs(want))
        assert abs(e.du - (1 + want * want)) <= 1e-12 * (1 + abs(want) ** 2)

    def test_oblique_approach_passes_the_pole(self):
        # approach the tangent pole at pi/2 from above along a slanted leg,
        # end a segment on it (to rounding: u is 1.6e16 there) and go on
        # to 3: the next segment starts from that state, and the shot ends
        # on tan 3 (4.7e-15 off).  It halted at the pole before
        tr = continue_path(germ(0, 1, 1, 0), PathPolyline((0, 1.2j, math.pi / 2, 3)), 1e-10)
        assert tr.status == "Completed"
        assert any(s.t == math.pi / 2 for s in tr.samples)
        want = cmath.tan(3)
        assert abs(tr.endpoint.u - want) <= 1e-12 * (1 + abs(want))

    def test_radius_contains_the_pole(self):
        # a shoot's radius holds the closed-form pole where u or v is 0
        # all along, so that the state has no image in (k/u, k/v): the
        # README halt and NullRational u = 1/(C - B t) with pole C/B.
        # Each stops where its estimate settles; the misses reach 1.0e-13
        # while |off| * spread stays below 1e-12, so the 1e-12 floor is
        # what holds them
        cases = [(germ(1, 0, 1, 0), (0, 2), 1.0), *null_rational_halts()]
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
    def test_huge_germ_passes_its_pole(self, scale):
        # u is scale/(1 - t) to rounding (v = 1 + t adds terms of relative
        # size 1/scale^2).  The shot runs in (k/u, k/v) with k = 2^(e_u +
        # e_v), whose coordinates have the sizes of (v, u), and passes the
        # pole at 1 (0 and 1.8e-16 off at 2).  With k = 1 the chart's tail
        # would be judged in absolute units; it halted at the pole before
        tr = continue_path(germ(scale, 1, scale, 1), PathPolyline((0, 2)))
        assert tr.status == "Completed"
        assert abs(tr.endpoint.u + scale) <= 1e-14 * scale
        assert abs(tr.endpoint.du - scale) <= 1e-14 * scale

    def test_settled_spread_is_pinned(self, monkeypatch):
        # u = 1/(1 - 0.7 t) with v = 0 all along, which has no image in
        # (k/u, k/v): its first estimate has settled on the pole ahead (its
        # ratios are powers of 0.7, exact to rounding), so it stops on its
        # first build, and the floor sets the radius.  A shot 1e-11 beside
        # the pole completes.  At SETTLED_SPREAD = 1e-10 that shot halts;
        # at 0 the halt steps on
        g, pole = germ(1, 0, 0.7, 0), 1 / 0.7
        builds = count_builds(monkeypatch)
        tr = continue_path(g, PathPolyline((0, 2 * pole)))
        assert tr.status == "Obstructed" and len(builds) == 1
        assert tr.obstruction.radius == 1e-12 and abs(tr.obstruction.t_star - pole) <= 1e-12
        beside = continue_path(g, PathPolyline((0, 2 * pole + 2e-11j)))
        assert beside.status == "Completed"

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


@pytest.fixture(scope="module")
def scan_halt_walks():
    """Every walk of a 64-ray probe of the criterion-8 germs, from a pole
    read off the series of a step in (1/u, 1/v), by its polynomial or by
    the ratio test, or from a collapse that ends a ray: ((t, y, est) per
    walk, series built inside it)."""
    halts, builds, walking = [], [], [False]
    real_walk = continuation._walk_localize
    jet = _jet(ORDER)

    def walk(t, y, tol, est):
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
    """What probe rays do: the locations their walks settle on."""
    log = SimpleNamespace(settled=[])
    real_walk = continuation._walk_localize

    def walk(*args):
        loc = real_walk(*args)
        if loc is not None:
            log.settled.append(loc[0])
        return loc

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

    def test_dense_tangent_germ_reports_every_pole(self):
        # k tan(a t + b) with |a| = 11.2: its 36 poles within 5 lie 0.28
        # apart at least, and the probe clusters at TUBE_FLOOR * radius,
        # 0.025, so it reports each of them.  Off the pole line the state
        # drifts onto another null solution (ROADMAP item 8): 239 points
        # in all and 19 Blocked rays (229 and 18 while each chart swap
        # ended a segment; 251 and 16 while a scan in (u, v) estimated
        # poles; 286 and 20 with every step in (u, v) but the crossings;
        # 365 points at a cluster width of 1e-4).  A null state reads a
        # pole past its step off the step's polynomial: by the ratio test,
        # as other states do, the probe reports 320 points.  The count
        # pins this germ's rounding: a one-ulp raise of any one of its
        # six nonzero real or imaginary parts gives 235 to 298 points
        # (236 to 298 while each swap ended a segment), and the bound
        # stays
        g = germ(
            0.06739555708342478 - 1.0719587266288828j,
            -1.1343426328497264 - 0.03959481498269791j,
            -1.4009448062848855 + 0.5218579541416204j,
            0,
        )
        poles = solve(g).poles_within(g.t0, 5.0)
        rep = completeness_probe(g, 5.0, 64, 1e-9)
        assert len(poles) == 36
        assert all(min(abs(p - q) for q in rep.obstructions) < 1e-9 for p in poles)
        assert len(rep.obstructions) <= 252

    def test_wide_fan_reports_a_rim_pole_as_the_narrow_one_does(self):
        # draw 20 of random_generic_germ(Random(77)) has 5 poles within 5,
        # one of them at |t - t0| = 4.96.  Both fans report all 5, each
        # within 5.6e-12 of the closed-form set, with no Blocked ray.
        # While a scan in (u, v) estimated poles, the 128-ray fan missed
        # the rim pole: no ray read it in (1/u, 1/v), and no scan halted
        # on it.  At 128 rays it is read on the last step of a ray, from
        # |t - t0| = 4.55 to the rim: while a ray did not read its last
        # step, the 128-ray fan missed it on 4 of the 8 germs one ulp off
        # in one real or imaginary part, which the wide fan checks too
        r = random.Random(77)
        g = [random_generic_germ(r) for _ in range(21)][20]
        rim = -4.6068403381414 + 1.8308043325948j
        parts = (g.alpha, g.beta, *g.velocity)
        nudged = []
        for i, c in enumerate(parts):
            up = math.nextafter(c.real, math.inf), math.nextafter(c.imag, math.inf)
            for z in (complex(up[0], c.imag), complex(c.real, up[1])):
                nudged.append(germ(*parts[:i], z, *parts[i + 1 :]))
        for h, n_rays in [(g, 64), (g, 128)] + [(h, 128) for h in nudged]:
            rep = completeness_probe(h, 5.0, n_rays, 1e-9)
            assert len(rep.obstructions) == 5, (h, n_rays)
            assert min(abs(p - rim) for p in rep.obstructions) < 1e-9, (h, n_rays)
            assert all(ray.status != "Blocked" for ray in rep.per_ray)

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
        # a ray reads a pole past its step by the ratio test on the series
        # of u or v about the step's start, the reciprocal of the step's
        # series in (1/u, 1/v), and walks there from that start.  Along
        # these segments, held in (1/u, 1/v) with the chart choice blinded,
        # from every step's start and either estimate the walk settles on
        # a location, so candidates that are suppressed unreported stay rare
        estimate = _jet(ORDER).estimate
        walks = []
        for g in _DISCRETENESS_GERMS:
            for k in range(4):
                end = g.t0 + 5.0 * cmath.exp(2j * math.pi * (k + 0.5) / 4)
                starts, ests = [(g.t0, _invert(g.state()))], []
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(continuation, "_flips", lambda y, inverted: False)
                    _integrate_segment(
                        _invert(g.state()),
                        g.t0,
                        end,
                        1e-9,
                        collect=lambda t, w: starts.append((t, w)),
                        on_step=lambda t, w, W, Z, x: ests.append(
                            [estimate(R, R) for R in map(continuation._reciprocal, (W, Z))]
                        ),
                    )
                walks += [(g, t, w, est) for (t, w), pair in zip(starts, ests) for est in pair if est]
        for g, t, w, est in walks:
            assert _walk_localize(t, _invert(w), 1e-9, est) is not None, (g, t)
        assert len(walks) >= 900

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
        # on rays 30 and 31 of the dense germ the ratio test on the series
        # of u or v about a step's start reads this pole 0.29 and 0.31
        # away, at spreads 0.06 and 0.04 (2.7e-3 off), and the walk
        # settles on it
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
                abs(p - q) >= TUBE_FLOOR * 5.0 for i, p in enumerate(settled) for q in settled[:i]
            ), (g, k)

    def test_only_the_walk_calls_nearest_singularity(self, monkeypatch):
        # a pole is read off the series of its step in (1/u, 1/v), by its
        # polynomial or by the ratio test on its reciprocal, and Newton
        # polishes it on the inverted state; no probe re-expands a state
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

    def test_fan_shares_its_t0_series_and_gates_estimates(self, monkeypatch):
        # a real germ's fan builds the series of its state once, for the
        # first step of all its rays, and the ratio test runs on few of
        # its steps: only in (1/u, 1/v), where Halley's first step puts a
        # zero of w or z in the tube past the step (124 of the 3599 steps
        # that do not swap charts on the benchmark's six probe germs, 3.4%;
        # 17% when a scan estimated on every step in (u, v)).  The disc at t0 lends whether the step
        # is quiet or not: u = tan t, whose null states are never quiet,
        # builds it once too
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
        for g in (*_DISCRETENESS_GERMS, germ(0, 1, 1, 0)):
            builds.clear()
            completeness_probe(g, 5.0, 64, 1e-9)
            assert builds.count(g.state()) == 1, g
        assert estimates[0] <= steps[0] / 4, (estimates[0], steps[0])

    def test_converged_halt_settles_without_series(self, scan_halt_walks):
        # an estimate whose ratios have converged to rounding (46 of the
        # 51 walks here, 10 of them zeros within their step) settles where
        # it is: no integration, no re-estimate
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
        # them directly, each after its neighbour as the fan would, must
        # give the same outcome.  The fan traces ray j after ray j - 1, so
        # its mirror traces ray k after ray k + 1: from ray 0 (the fan's
        # own, bit for bit) down to n/2 + 1.  Points agree within 1.3e-13
        # except on ray 9 of (1.3, -0.7, 0.9, 1.1): near |t| = 3.42 it
        # grazes the cone u^2 + v^2 = 0, where high-order coefficients are
        # rounding noise, so the direct ray and its mirror step
        # differently and settle 4.6e-12 apart.  Traced in the other order,
        # after ray k - 1, 3 direct rays report a point of a neighbour's
        # tube that their mirrors, stepping from other discs, do not
        n = 16
        for g in _DISCRETENESS_GERMS:
            rep = completeness_probe(g, 5.0, n, 1e-9)
            discs = [[], []]
            assert _probe_ray(g, 0.0, 5.0, n, 1e-9, discs) == rep.per_ray[0]
            for k in range(n - 1, n // 2, -1):
                direct = _probe_ray(g, 2.0 * math.pi * k / n, 5.0, n, 1e-9, discs)
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


# the benchmark's six probe germs: the five of criterion 8 and u = tan t
_PROBE_PASS = (*_DISCRETENESS_GERMS, germ(0, 1, 1, 0))


class TestChartChoice:
    """A probe ray steps in the chart its own state picks."""

    def test_without_the_chart_choice_a_pass_builds_more(self, monkeypatch):
        # with the chart choice blinded, a ray swaps charts only where the
        # step rule collapses: it steps toward each pole in (u, v) until it
        # collapses there, and reads it in (1/u, 1/v) after that.  The
        # benchmark's probe pass builds 10035 series (10027 while each
        # collapse ended a segment, 10037 while a scan in (u, v) halted on
        # estimates, 10500 before rays stepped from their neighbour's
        # discs), against 3073
        monkeypatch.setattr(continuation, "_flips", lambda y, inverted: False)
        builds = count_builds(monkeypatch)
        for g in _PROBE_PASS:
            completeness_probe(g, 5.0, 64, 1e-9)
        assert len(builds) > 4000, len(builds)

    def test_dense_lattice_reports_every_pole(self):
        # the dense germ's 334 poles within 5 lie about 0.5 apart, and
        # next to zeros of u or v: a ray in (1/u, 1/v) reads a pole past
        # its step by the ratio test on the series of u or v, the
        # reciprocal of the step's series.  Read off the step's polynomial
        # instead, as a null state's is, the fan misses the 3 rim poles
        # -0.6369 + 4.6966i, -0.2263 + 4.8098i and 0.1844 + 4.9231i
        assert len(completeness_probe(DENSE, 5.0, 64, 1e-9).obstructions) == 334

    @pytest.mark.parametrize("k", [-40, -17, 17, 40])
    def test_choice_is_unchanged_by_dilation_and_time_scaling(self, monkeypatch, k):
        # (u, v) -> 2^k (u, v) scales a state in (u, v) by 2^k and one in
        # (1/u, 1/v) by 2^-k; t -> 2^k t scales its velocity by 2^-k.  The
        # choice compares products and moduli only, so it does not change,
        # bit for bit, at any state the rays of these germs meet
        seen, real_flips = [], continuation._flips

        def flips(y, inverted):
            seen.append((y, inverted))
            return real_flips(y, inverted)

        monkeypatch.setattr(continuation, "_flips", flips)
        for g in (germ(1.3, -0.7, 0.9, 1.1), germ(0, 1, 1, 0)):
            completeness_probe(g, 5.0, 16, 1e-9)
        choices = {real_flips(y, inverted) for y, inverted in seen}
        assert len(seen) > 400 and choices == {False, True}
        for y, inverted in seen:
            a, b, da, db = y
            c = 2.0 ** (-k if inverted else k)
            dilated = (c * a, c * b, c * da, c * db)
            sped = (a, b, 2.0**-k * da, 2.0**-k * db)
            want = real_flips(y, inverted)
            assert real_flips(dilated, inverted) == want, (y, inverted)
            assert real_flips(sped, inverted) == want, (y, inverted)


class TestSharedDiscs:
    """A probe ray steps, on quiet steps, from the series discs of the ray
    traced before it."""

    def test_a_probe_pass_builds_at_most_3200_series(self, monkeypatch, bench_inputs):
        # the benchmark's six probe germs at its settings build 3073
        # series: 3092 while a scan in (u, v) estimated poles, 3754 when
        # only the t0 series was shared, 4994 with every
        # step in (u, v) and a crossing segment in (1/u, 1/v) past each
        # pole.  u = tan t (597) shares only its t0 disc: its states are
        # null, and no step from a null state is quiet
        builds = count_builds(monkeypatch)
        for state in bench_inputs.PROBE_GERMS:
            completeness_probe(
                germ(*state), bench_inputs.PROBE_RADIUS, bench_inputs.PROBE_RAYS, bench_inputs.PROBE_TOL
            )
        assert len(builds) <= 3200, len(builds)

    @pytest.mark.parametrize("over", [2.0**-52, 2.0**-40])
    def test_a_chord_too_short_to_move_t_is_refused(self, over):
        # at t = 1000 a lent disc of radius 0.1 (1 + 2^-52) about t - 0.1
        # leaves the ray 3.5e-17 ahead of t, below the resolution of t, so
        # it is refused: the step builds its own series and goes on.  Lent,
        # the chord would not move t, and the march would read it as a
        # collapse and stop there.  At 0.1 (1 + 2^-40) the chord, 9e-14,
        # moves t, and the step is lent
        g = germ(1.3, -0.7, 0.9, 1.1, t0=1000.0)
        y, jet = g.state(), _jet(ORDER)
        series = jet.series(y)
        c = g.t0 - 0.1
        disc = (0.0, c, y, series, abs(g.t0 - c) * (1.0 + over))
        discs = continuation._Discs(([disc], []), c, 1.0, lambda t: 0.0, False)
        start = continuation._Expanded(y)
        start.discs = discs
        steps, lent = [], []
        res = _integrate_segment(
            start, g.t0, g.t0 + 1.0, 1e-9, collect=lambda t, w: steps.append(t),
            on_step=lambda t, w, U, V, x: lent.append(discs.step is disc),
        )
        assert res.status == "done" and steps[0] != g.t0
        assert lent[0] == (over > 2.0**-52) and not any(lent[1:])

    def test_a_fan_leaves_no_cyclic_garbage(self):
        # each ray's discs are freed by reference counting once the next
        # ray has stepped from them.  While a disc held the state that
        # carried it, every ray's discs formed a cycle that only the
        # collector freed, and the benchmark probe's peak RSS rose 24%
        gc.collect()
        gc.disable()
        try:
            completeness_probe(germ(1.3, -0.7, 0.9, 1.1), 5.0, 16, 1e-9)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestInvertedChart:
    def test_reciprocal_is_the_series_of_one_over_f(self):
        # 1/(1 - t)^2 from (1 - t)^2; and f(0) = 0 has no reciprocal series
        C = [1 + 0j, -2 + 0j, 1 + 0j] + [0j] * (ORDER - 2)
        assert continuation._reciprocal(C) == [complex(k + 1) for k in range(ORDER + 1)]
        assert continuation._reciprocal([0j, 1 + 0j, 0j]) is None

    @pytest.mark.parametrize("k", [None, 1.0, 2.0**-30, 2.0**40])
    def test_invert_is_an_involution(self, k):
        r = random.Random(5)
        for _ in range(100):
            y = tuple(complex(r.uniform(-3, 3), r.uniform(-3, 3)) for _ in range(4))
            for got, want in zip(_invert(_invert(y, k), k), y):
                assert abs(got - want) <= 4e-15 * abs(want)

    def test_segment_through_a_pole(self):
        # u = tan t has a pole at pi/2; w = 1/u = cot t is regular there.
        # The inversion is an isometry, so (1/u, 1/v) is a state like any
        # other: a segment from it, in the charts it picks, ends on the
        # inverted closed form
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
        # is infinite: the ray along the real axis ends where it
        # collapses, at the pole, as Obstructed and not Blocked
        rep = completeness_probe(germ(1, 0, 1, 0), 3.0, n, 1e-9)
        assert all(r.status != "Blocked" for r in rep.per_ray)
        assert rep.per_ray[0].status == "Obstructed"
        assert len(rep.obstructions) == 1 and abs(rep.obstructions[0] - 1) < 1e-12

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 16])
    def test_ray_passes_its_poles_without_a_crossing(self, n, ray_log, monkeypatch):
        # ray pi of this germ passes the poles at -1.31283 and -4.16576,
        # and the zero of v at -4.97864, regular in (u, v), stepping in the
        # chart each state picks: it locates both poles within 1e-9, once
        # each, in at most 3 segments, walks included, and 47 series
        # builds.  Its one march swaps into (1/u, 1/v) and back at no
        # build; while each swap ended a segment the ray took 6 to 7, and
        # with every step in (u, v) and a crossing past each pole 6 to 8
        # segments and 44 to 49 builds
        calls, charts, depth = [], [], [0]
        builds = count_builds(monkeypatch)
        real_segment, real_flips = continuation._integrate_segment, continuation._flips

        def segment(*args, **kwargs):
            calls.append(args[1])
            assert len(calls) <= 3
            depth[0] += 1
            try:
                return real_segment(*args, **kwargs)
            finally:
                depth[0] -= 1

        def flips(y, inverted):
            if depth[0] == 1:  # the chart of each step of the ray's own march
                charts.append(inverted)
            return real_flips(y, inverted)

        monkeypatch.setattr(continuation, "_integrate_segment", segment)
        monkeypatch.setattr(continuation, "_flips", flips)
        ray = _probe_ray(germ(1.3, -0.7, 0.9, 1.1), 2.0 * math.pi * (n // 2) / n, 5.0, n, 1e-9)
        assert ray.status == "Obstructed" and len(ray.obstructions) == 2
        for p, pole in zip(ray.obstructions, (-1.3128335656524, -4.1657639700167)):
            assert abs(p - pole) < 1e-9
        assert len(ray_log.settled) == 2
        assert len(builds) <= 47
        # both charts step: the ray swaps into (1/u, 1/v) and back
        assert True in charts and charts[-1] is False

    @pytest.mark.parametrize("chart", ["neither", "u-v"])
    def test_blocked_only_where_neither_chart_steps(self, monkeypatch, chart):
        # a faked series build fails at t0: the march collapses there, and
        # its next step runs in the other chart from the same point.  Where
        # that build fails too, the ray is Blocked and reports t0, where
        # both charts stopped; where it steps, the ray goes on to the rim
        # and reports the points of the ray that never failed
        g = germ(1.3, -0.7, 0.9, 1.1)
        assert not continuation._flips(g.state(), False)  # it starts in (u, v)
        failing = [g.state(), _invert(g.state())][: 2 if chart == "neither" else 1]
        jet = _jet(ORDER)
        series = jet.series

        def build(y):
            if y in failing:
                raise ZeroDivisionError
            return series(y)

        free = _probe_ray(g, 0.0, 5.0, 64, 1e-9)
        monkeypatch.setattr(jet, "series", build)
        ray = _probe_ray(g, 0.0, 5.0, 64, 1e-9)
        if chart == "neither":
            assert ray.status == "Blocked" and ray.obstructions == (g.t0,)
        else:
            assert ray.status == free.status != "Blocked"
            assert len(ray.obstructions) == len(free.obstructions) > 0
            for p, q in zip(ray.obstructions, free.obstructions):
                assert abs(p - q) < 1e-9

    @pytest.mark.parametrize("t, off", [(1.0, 0.7), (1.0, 0.45), (1.0, 0.6 + 0.2j), (1 + 2.5j, 0.6 - 2.4j)])
    def test_newton_lands_on_the_pole(self, t, off):
        # from a rough estimate Newton converges on the pole pi/2 of
        # u = tan t, and stops before its step drops below the resolution
        # of t (a zero-length segment)
        y = _integrate_segment(germ(0, 1, 1, 0).state(), 0j, t, 1e-10).y
        p, _ = _walk_localize(t, y, 1e-10, (off, 0.1))
        assert abs(p - math.pi / 2) < 1e-13

    def test_newton_puts_a_scan_halt_on_its_chain_root(self, monkeypatch):
        # ray 3 of the dense lattice DRAW_77_16 walks six times, from poles
        # read off the series of steps in (1/u, 1/v) past the step, by the
        # ratio test: their spreads, up to 0.038, are above SETTLED_SPREAD,
        # and five of them lie from 3.9e-9 to 2.4e-3 off their poles (the
        # sixth 9.8e-12).  The walk's Newton in that chart puts each within
        # 3e-13 of the root of 1 + Y^2 that the closed form gives
        walks, real_walk = [], continuation._walk_localize

        def walk(t, y, tol, est):
            loc = real_walk(t, y, tol, est)
            walks.append((t, est, loc))
            return loc

        monkeypatch.setattr(continuation, "_walk_localize", walk)
        _probe_ray(DRAW_77_16, 2 * math.pi * 3 / 64, 5.0, 64, 1e-9)
        s = solve(DRAW_77_16)
        starts = []
        for t, (off, spread), (p, _) in walks:
            root = p
            for _ in range(8):
                Y, Yp = s.curve_point(root)
                root -= (1 + Y * Y) / (2 * Y * Yp * s.D)
            assert spread > SETTLED_SPREAD and abs(p - root) < 1e-12
            starts.append(abs(t + off - root))
        assert len(walks) == 6 and sum(d > 1e-9 for d in starts) == 5 and max(starts) > 1e-3

    def test_a_walk_stops_once_its_newton_step_is_below_1e_8(self, monkeypatch):
        # a tripwire on the walks of the ray above: each integrates to its
        # estimate and on by Newton steps until one is below 1e-8
        # (1 + |t|), taking 1, 1, 2, 3, 2 and 3 segments.  A stop at 1e-13
        # (1 + |t|) would integrate 2, 2, 2, 3, 3 and 3, segments that move
        # no point by more than the walk's resolution
        segments, walking = [], [False]
        real_segment, real_walk = continuation._integrate_segment, continuation._walk_localize

        def segment(*args, **kwargs):
            if walking[0]:
                segments[-1] += 1
            return real_segment(*args, **kwargs)

        def walk(*args):
            walking[0] = True
            segments.append(0)
            try:
                return real_walk(*args)
            finally:
                walking[0] = False

        monkeypatch.setattr(continuation, "_integrate_segment", segment)
        monkeypatch.setattr(continuation, "_walk_localize", walk)
        _probe_ray(DRAW_77_16, 2 * math.pi * 3 / 64, 5.0, 64, 1e-9)
        assert segments == [1, 1, 2, 3, 2, 3]


    def test_a_collapse_is_located_and_passed_in_the_other_chart(self, ray_log, monkeypatch):
        # with the chart choice blinded in (u, v), so that no state there
        # swaps charts, and the ratio test blinded, the ray of u = tan t
        # steps into each pole until a new state is not finite or a step
        # no longer moves t.  Each collapse sends the next step to
        # (1/u, 1/v), which passes the pole, reads it as a zero of w within
        # the step and locates it, pi/2 within 1e-12 and 3 pi/2 1.7e-12
        # off, the accuracy of its state after the first collapse, and
        # swaps back.  The ray may take no more steps than it was measured
        # to, 398 (394 while each swap ended a segment): a tripwire for a
        # stall whose steps shrink without ever leaving t
        real_segment, real_flips, steps = continuation._integrate_segment, continuation._flips, []

        def segment(y, t_from, t_to, tol, collect=None, on_step=None):
            if on_step is None:  # the walk's
                return real_segment(y, t_from, t_to, tol)
            return real_segment(y, t_from, t_to, tol, lambda t, w: steps.append(t), on_step)

        monkeypatch.setattr(continuation, "_integrate_segment", segment)
        monkeypatch.setattr(continuation, "_flips", lambda y, inverted: inverted and real_flips(y, True))
        monkeypatch.setattr(_jet(ORDER), "estimate", lambda U, V: None)
        ray = _probe_ray(germ(0, 1, 1, 0), 0.0, 5.0, 16, 1e-9)
        assert ray.status == "Obstructed" and len(ray.obstructions) == 2
        for p, pole, bound in zip(ray.obstructions, (math.pi / 2, 3 * math.pi / 2), (1e-12, 2e-12)):
            assert abs(p - pole) < bound
        assert len(ray_log.settled) == 2
        assert steps[-1] == 5.0 and len(steps) <= 398

    def test_a_collapse_is_passed_in_the_other_chart(self, monkeypatch):
        # with the chart choice blinded, so that no state swaps charts but
        # on a collapse, the ray of u = tan t steps into each singular
        # point of its chart until a new state is not finite or a step no
        # longer moves t: the pole pi/2 in (u, v), the zero pi of u in
        # (1/u, 1/v), the pole 3 pi/2 in (u, v).  Each collapse sends the
        # next step to the other chart, where the point is regular, and
        # the ray reads pi/2 and 3 pi/2, not pi, as zeros of w = cot t
        # within 1e-11.  The ray may take no more steps than it was
        # measured to, 584 (582 while each collapse ended a segment): a
        # tripwire for a stall whose steps shrink without ever leaving t
        real_segment, steps = continuation._integrate_segment, []

        def segment(y, t_from, t_to, tol, collect=None, on_step=None):
            if on_step is None:  # the walk's
                return real_segment(y, t_from, t_to, tol)
            return real_segment(y, t_from, t_to, tol, lambda t, w: steps.append(t), on_step)

        monkeypatch.setattr(continuation, "_integrate_segment", segment)
        monkeypatch.setattr(continuation, "_flips", lambda y, inverted: False)
        ray = _probe_ray(germ(0, 1, 1, 0), 0.0, 5.0, 16, 1e-9)
        assert ray.status == "Obstructed" and len(ray.obstructions) == 2
        for p, pole in zip(ray.obstructions, (math.pi / 2, 3 * math.pi / 2)):
            assert abs(p - pole) < 1e-11
        assert steps[-1] == 5.0 and len(steps) <= 584

    def test_a_ray_passes_each_pole_as_a_zero(self, ray_log):
        # the ray of u = tan t swaps into (1/u, 1/v) before each pole,
        # where it is a zero of w = cot t read off a step's series, and
        # back after it: each pole is located once, within 1e-12
        ray = _probe_ray(germ(0, 1, 1, 0), 0.0, 5.0, 64, 1e-9)
        poles = (math.pi / 2, 3 * math.pi / 2)
        assert ray.status == "Obstructed" and len(ray.obstructions) == 2
        for p, pole in zip(ray.obstructions, poles):
            assert abs(p - pole) < 1e-12
        assert len(ray_log.settled) == 2

    def test_a_ray_localizes_each_point_once(self, ray_log, monkeypatch):
        # the work bound of a ray: a candidate within its own uncertainty
        # of a point the ray has is not walked to again, so no ray
        # locates a point twice, on every ray of these germs, the dense
        # lattice included
        counts = []
        real_ray = continuation._probe_ray

        def ray(g, angle, radius, *args):
            ray_log.settled.clear()
            r = real_ray(g, angle, radius, *args)
            points = _cluster(ray_log.settled, TUBE_FLOOR * radius)
            counts.append((len(ray_log.settled), len(points)))
            return r

        monkeypatch.setattr(continuation, "_probe_ray", ray)
        for g in (*_DISCRETENESS_GERMS, DENSE):
            completeness_probe(g, 5.0, 64, 1e-9)
        assert all(walked == points for walked, points in counts)
        assert max(points for _, points in counts) <= 12  # the measured maximum

    def test_a_pole_next_to_the_start_is_a_regular_zero(self, monkeypatch):
        # u is about 1/(t0 + 1e-6 - t) near t0 = 1e10, a pole closer to the
        # start than the resolution of t there (1.9e-6).  The start state
        # picks (1/u, 1/v), where the pole is a zero of w = 1/u: the ray's
        # first step passes it, reads it off its series and locates it at
        # t0 + 1e-6 exactly, with no walk, in the ray's one march.  In
        # (u, v) its first step would not move t
        t0 = 1e10
        calls, steps = [], []
        real_segment = continuation._integrate_segment

        def segment(y, t_from, t_to, tol, collect=None, on_step=None):
            calls.append(t_from)
            assert len(calls) < 50
            return real_segment(y, t_from, t_to, tol, lambda t, w: steps.append(t), on_step)

        monkeypatch.setattr(continuation, "_integrate_segment", segment)
        g = germ(1e6, 1, 1e12, 0.5, t0)
        assert continuation._flips(g.state(), False)
        ray = _probe_ray(g, 0.0, 5.0, 64, 1e-9)
        assert ray.status == "Obstructed" and ray.obstructions == (t0 + 1e-6,)
        assert calls == [t0] and steps[0].real > t0 + 1e-6

    def test_newton_refuses_a_step_beyond_its_estimate(self):
        # an estimate 0.2 ahead of t = 1 on u = tan t that is no pole: the
        # walk integrates to 1.2, where Newton's step to the pole pi/2 is
        # 0.37, longer than the estimate's offset, so it finds nothing.
        # Followed, such steps integrated 317 steps to a point 60 away on a
        # random germ's ray
        y = _integrate_segment(germ(0, 1, 1, 0).state(), 0j, 1.0, 1e-10).y
        assert _walk_localize(1.0, y, 1e-9, (0.2, 0.3)) is None
        assert _walk_localize(1.0, y, 1e-9, (0.4, 0.3))[0] == pytest.approx(math.pi / 2, abs=1e-13)

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
        # near the touch a ray in (1/u, 1/v) can read a candidate (one,
        # 0.010 from it, on the 64-ray fan of the second germ), but the
        # walk must not settle there, so the probe reports nothing close
        # to it
        for n_rays in (8, 16, 64):
            rep = completeness_probe(g, 5.0, n_rays, 1e-9)
            assert all(abs(p - touch) >= 0.5 for p in rep.obstructions), n_rays
            assert all(r.status != "Blocked" for r in rep.per_ray), n_rays

    def test_segment_that_starts_on_the_cone_stops_at_its_start(self):
        # u^2 + v^2 = 0 at t = 0: no series can be built, so the segment
        # stops there, obstructed, on its own state and the estimate (0, 0)
        y = (1, 1j, 1, 1)
        res = _integrate_segment(y, 0, 1, 1e-10)
        assert (res.status, res.t, res.y, res.est) == ("obstructed", 0, y, (0j, 0.0))
        assert type(res.est[0]) is complex and type(res.est[1]) is float


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


class TestCompleteness:
    """Shots and loops step in the chart their own state picks, so they
    pass every pole as a regular zero of 1/u or 1/v: the paper's
    completeness of the complexified geodesics, against the closed form."""

    @pytest.fixture(scope="class")
    def roots(self, bench_oracle):
        # (germ, roots of 1 + Y^2 within 4.5 of t0 tagged "pole" or
        # "zero") on the criterion-8 germs and 6 random ones
        r = random.Random(31)
        germs = [*_DISCRETENESS_GERMS, *(random_generic_germ(r) for _ in range(6))]
        return [(g, bench_oracle.chain_roots(solve(g), g.t0, 4.5)) for g in germs]

    @staticmethod
    def within_3(g, roots):
        # each root within 3 of t0, with its gap: the distance to the
        # nearest other root or to t0
        points = [p for p, _ in roots] + [g.t0]
        for p, kind in roots:
            if abs(p - g.t0) <= 3.0:
                yield p, kind, min(abs(p - q) for q in points if q != p)

    def test_straight_shots_through_every_pole_complete(self, roots):
        # the straight shot t0 -> 2p - t0 through each of the 39 poles
        # within 3 ends where both detours 0.4 gap to either side end, at
        # tol 1e-12 (worst 2.4e-12).  Each halted at its pole before
        shots = 0
        for g, rts in roots:
            for p, kind, gap in self.within_3(g, rts):
                if kind != "pole":
                    continue
                shots += 1
                side, end = 1j * (p - g.t0) / abs(p - g.t0), 2 * p - g.t0
                tr = continue_path(g, PathPolyline((g.t0, end)))
                assert tr.completed, (g, p)
                for sign in (1, -1):
                    detour = PathPolyline((g.t0, p + sign * 0.4 * gap * side, end))
                    ref = continue_path(g, detour, 1e-12)
                    assert ref.completed
                    for got, want in zip(vars(tr.endpoint).values(), vars(ref.endpoint).values()):
                        assert abs(got - want) <= 1e-9 * (1 + abs(want)), (g, p)
        assert shots == 39

    def test_loops_around_every_root_complete(self, roots):
        # one loop of radius 0.4 gap about each of the 81 roots within 3,
        # poles and zeros of u or v alike: u and v are meromorphic, so
        # every loop completes with the branch unchanged.  Where the leg
        # or the arc came near a pole, 7 loops were Obstructed before
        loops = 0
        for g, rts in roots:
            for p, _, gap in self.within_3(g, rts):
                loops += 1
                res = loop_monodromy(g, p, 0.4 * gap)
                assert res.status == "Completed" and not res.branch_changed, (g, p)
        assert loops == 81

    def test_shot_through_a_pole_against_mpmath(self):
        # the criterion-8 germ through its real pole p to 2p: u(2p) within
        # 1e-12 of a 30-digit mpmath.odefun reference, -1.15918096286847533
        p = 1.6644953954706387
        tr = continue_path(germ(0.8, 1.7, 1.2, -0.6), PathPolyline((0, 2 * p)))
        assert tr.completed
        assert abs(tr.endpoint.u - -1.15918096286847533) <= 1e-12

    def test_huge_germ_passes_a_pole_off_its_line(self):
        # u is 1e150/(1 - t) to rounding; this shot passes 1e-3 beside the
        # pole at 1.  It was Obstructed at 0.534, where the step in (u, v)
        # collapsed; in (k/u, k/v) it ends on the closed form (5.5e-16 off)
        tr = continue_path(germ(1e150, 1, 1e150, 1), PathPolyline((0, 2 + 0.002j)))
        assert tr.completed
        want = 1e150 / (1 - tr.endpoint.t)
        assert abs(tr.endpoint.u - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("swapped", [False, True])
    def test_a_tiny_coordinate_passes_the_other_pole(self, swapped):
        # u = 1e-170 stays put and v = 1/(1 - 2t): k = 2^(e_u + e_v) is
        # about 1e-170, and u^2 underflows to 0, but (k/u, k/v) is formed
        # without it, so the shot steps in that chart through v's pole
        # at 1/2, to v(2) = -1/3 (u and v swapped alike)
        for end in (0.4, 2.0):
            state = (1e-170, 1, 0, 2)
            g = germ(*(state[1::-1] + state[:1:-1] if swapped else state))
            tr = continue_path(g, PathPolyline((0, end)))
            e = tr.endpoint
            got = (e.v, e.u, e.dv, e.du) if swapped else (e.u, e.v, e.du, e.dv)
            want = (1e-170, 1 / (1 - 2 * end), 0, 2 / (1 - 2 * end) ** 2)
            assert tr.completed
            for x, y in zip(got, want):
                assert abs(x - y) <= 1e-12 * abs(y)

    def test_a_shot_passes_a_collapse_in_the_other_chart(self, monkeypatch):
        # with the chart choice blinded, the shot of u = tan t runs in
        # (u, v) until its step collapses into the pole pi/2; the next
        # step runs in (k/u, k/v), where the pole is a regular zero, and
        # the shot ends on tan 3
        monkeypatch.setattr(continuation, "_flips", lambda y, inverted: False)
        tr = continue_path(germ(0, 1, 1, 0), PathPolyline((0, 3)))
        assert tr.completed
        assert abs(tr.endpoint.u - cmath.tan(3)) <= 1e-9 * (1 + abs(cmath.tan(3)))

    def test_a_step_that_lands_on_a_pole_is_obstructed_there(self, monkeypatch):
        # a step in (k/u, k/v) whose new state has w = k/u = 0 exactly
        # lands on a pole of u, where the state has no image in (u, v): the
        # shot is Obstructed at that point, with no ZeroDivisionError
        jet, steps = _jet(ORDER), []
        real = jet.advance

        def advance(U, V, dU, dV, x):
            steps.append(x)
            y = real(U, V, dU, dV, x)
            return (0j, *y[1:]) if len(steps) == 3 else y

        monkeypatch.setattr(jet, "advance", advance)
        monkeypatch.setattr(continuation, "_flips", lambda y, inverted: not inverted)
        tr = continue_path(germ(1.3, -0.7, 0.9, 1.1), PathPolyline((0, 1)))
        assert tr.status == "Obstructed" and len(tr.samples) == 3
        assert tr.obstruction.t_star == tr.samples[-1].t + steps[-1]

    def test_a_shoot_pass_builds_at_most_1700_series(self, monkeypatch, bench_inputs):
        # one pass of the benchmark's shoot workload at its tol: the 60
        # shots build 1619 series (2125 when each crept toward every pole
        # in (u, v)), the 9 loops 303 (600), the 8 halts 8 and the 8
        # detours 217, as before.  Where a march changes chart only at a
        # collapse, not by _flips before each step, they build 2054 and 360
        pool, ref = bench_inputs.draw_pool(), bench_inputs.load_reference()
        builds, counts = count_builds(monkeypatch), {}

        def run(kind, call, *args):
            before = len(builds)
            res = call(*args)
            counts[kind] = counts.get(kind, 0) + len(builds) - before
            return res

        tol, C = bench_inputs.SHOT_TOL, bench_inputs.as_complex
        for state, path in pool["shots"]:
            assert run("shot", continue_path, germ(*state), PathPolyline(path), tol).completed
        for state, _, halt, detour in pool["halts"]:
            g = germ(*state)
            assert run("halt", continue_path, g, PathPolyline(halt), tol).status == "Obstructed"
            assert run("detour", continue_path, g, PathPolyline(detour), tol).completed
        for rec in ref["loops"]:
            g = germ(*map(C, rec["germ"]))
            assert run("loop", loop_monodromy, g, C(rec["center"]), rec["radius"]).status == "Completed"
        assert counts["shot"] <= 1700 and counts["loop"] <= 320, counts
        assert counts["halt"] == 8 and counts["detour"] == 217, counts
