"""Path continuation, obstruction detection, probes, monodromy."""

import cmath
import math
import random

import pytest

from cliftonpohl.continuation import (
    PathPolyline,
    _integrate_segment,
    completeness_probe,
    continue_path,
    loop_monodromy,
)
from cliftonpohl.families import sample, solve
from cliftonpohl.manifold import first_integrals, germ
from cliftonpohl.taylor import taylor_step


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

    def test_step_budget(self):
        # tripwire: order-20 steps cross this length-5 ray in about 40
        steps = []
        g = germ(1.3, -0.7, 0.9, 1.1)
        res = _integrate_segment(
            g.state(), 0j, 5 * cmath.exp(0.3j), 1e-10, collect=lambda t, y: steps.append(t)
        )
        assert res.status == "done"
        assert len(steps) <= 150


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
        with pytest.raises(ValueError):
            completeness_probe(germ(1, 0, 1, 0), 1.0, 3)

    def test_deterministic_report(self):
        a = completeness_probe(germ(0, 1, 1, 0), 2.0, 8, 1e-9)
        b = completeness_probe(germ(0, 1, 1, 0), 2.0, 8, 1e-9)
        assert a.obstructions == b.obstructions
        assert a.min_separation == b.min_separation
        assert a.per_ray == b.per_ray


class TestLoopMonodromy:
    def test_meromorphic_loop_is_trivial(self):
        # circle around the pole t = 1 of a single-valued solution
        res = loop_monodromy(germ(1, 0, 1, 0), 0.8 + 0.3j, 0.5, 1, 1e-10)
        assert res.status == "Completed"
        assert not res.branch_changed
        assert res.mismatch < 1e-8

    def test_entire_loop_is_trivial(self):
        res = loop_monodromy(germ(1, 1, 1, 1), 1 + 0.5j, 1.0, 1, 1e-10)
        assert res.status == "Completed"
        assert not res.branch_changed

    def test_obstructed_pre_leg(self):
        # basepoint straight ahead through the pole at t = 1
        res = loop_monodromy(germ(1, 0, 1, 0), 1.0, 0.5, 1, 1e-10)
        assert res.status == "Obstructed"

    def test_generic_two_turns_consistency(self):
        # loop around the nearest obstruction of the generic exemplar;
        # one turn continued once more must equal two turns
        g = germ(1, 2, 1, 1)
        center = 3.2516195 + 0.05j
        tol = 1e-10
        one = loop_monodromy(g, center, 0.4, 1, tol)
        two = loop_monodromy(g, center, 0.4, 2, tol)
        assert one.status == "Completed" and two.status == "Completed"
        # branch_changed is recorded, not assumed: for this germ the local
        # exponents come out integral and the loop is actually trivial
        assert isinstance(one.branch_changed, bool)
        base = center + 0.4
        g2 = germ(*one.end_state, t0=base)
        again = loop_monodromy(g2, center, 0.4, 1, tol)
        assert again.status == "Completed"
        for a, b in zip(again.end_state, two.end_state):
            assert abs(a - b) < 10 * tol * (1 + abs(b))
