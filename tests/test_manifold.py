"""Domain, metric, geodesic field, first integrals, classification."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliftonpohl.continuation import completeness_probe
from cliftonpohl.errors import DegenerateGermError, NullVelocityComponentError, OutOfDomainError
from cliftonpohl.manifold import (
    GeodesicClass,
    Point,
    classify,
    dilate,
    first_integrals,
    geodesic_rhs,
    germ,
    in_domain,
    metric_eval,
)

nonzero = st.builds(
    cmath.rect, st.floats(0.1, 2.0), st.floats(0.0, 2.0 * math.pi)
)


class TestDomain:
    def test_real_slice_point(self):
        assert in_domain(1, 0)

    def test_excluded_lines(self):
        assert not in_domain(1, 1j)
        assert not in_domain(2, -2j)

    def test_point_constructor_rejects(self):
        with pytest.raises(OutOfDomainError):
            Point(1, 1j)

    @given(nonzero)
    @settings(max_examples=60, deadline=None)
    def test_lines_are_excluded(self, z):
        assert not in_domain(z, 1j * z)
        assert not in_domain(z, -1j * z)

    def test_line_factorization_sweep(self, seed):
        # u^2 + v^2 = (u + iv)(u - iv): points of either line must fail
        r = random.Random(seed)
        for _ in range(1000):
            z = cmath.rect(r.uniform(1e-3, 1e3), r.uniform(0, 2 * math.pi))
            assert not in_domain(z, 1j * z)
        for _ in range(1000):
            z = cmath.rect(r.uniform(1e-3, 1e3), r.uniform(0, 2 * math.pi))
            assert not in_domain(z, -1j * z)


class TestMetric:
    def test_null_coordinate_direction(self):
        assert metric_eval(Point(1, 0), (1, 0), (1, 0)) == 0

    def test_cross_term(self):
        assert abs(metric_eval(Point(1, 0), (1, 0), (0, 1)) - 0.5) < 1e-15

    def test_diagonal(self):
        assert abs(metric_eval(Point(1, 1), (1, 1), (1, 1)) - 0.5) < 1e-15

    @given(nonzero, nonzero, nonzero, nonzero, nonzero, nonzero)
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, u, v, xu, xv, yu, yv):
        if not in_domain(u, v):
            return
        p = Point(u, v)
        a = metric_eval(p, (xu, xv), (yu, yv))
        b = metric_eval(p, (yu, yv), (xu, xv))
        assert abs(a - b) < 1e-15 * (1 + abs(a))


class TestGeodesicField:
    @pytest.mark.parametrize(
        "state,expect",
        [
            ((1, 1, 1, 1), (1, 1, 1, 1)),
            ((1, 0, 1, 0), (1, 0, 2, 0)),
            ((0, 1, 1, 1), (1, 1, 0, 2)),
        ],
    )
    def test_direct_substitution(self, state, expect):
        got = geodesic_rhs(state)
        assert all(abs(g - e) < 1e-15 for g, e in zip(got, expect))

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomainError):
            geodesic_rhs((1, 1j, 1, 1))


class TestFirstIntegrals:
    def test_printed_formulas(self):
        fi = first_integrals(germ(1, 2, 1, 1))
        assert abs(fi.A - 0.2) < 1e-15
        assert abs(fi.B - 3) < 1e-15
        fi = first_integrals(germ(1, 1, 1, 1))
        assert abs(fi.A - 0.5) < 1e-15
        assert abs(fi.B - 2) < 1e-15

    def test_dilation_cancels(self):
        g = germ(1, 2, 1, 1)
        d = dilate(g, 3)
        f0, f1 = first_integrals(g), first_integrals(d)
        assert f0.A == f1.A and f0.B == f1.B

    def test_null_velocity_rejected(self):
        with pytest.raises(NullVelocityComponentError):
            first_integrals(germ(1, 0, 1, 0))


class TestClassify:
    def test_null_v_const(self):
        assert classify(germ(1, 0, 1, 0)).tag is GeodesicClass.NULL_V_CONST

    def test_null_u_const(self):
        assert classify(germ(0, 1, 0, 1)).tag is GeodesicClass.NULL_U_CONST

    def test_exponential(self):
        c = classify(germ(1, 2, 1, 2))
        assert c.tag is GeodesicClass.EXPONENTIAL
        assert abs(c.discriminant - 2) < 1e-14

    def test_generic(self):
        c = classify(germ(1, 2, 1, 1))
        assert c.tag is GeodesicClass.GENERIC
        assert abs(c.discriminant - 2.25) < 1e-14

    def test_axis_germ_gets_ministep(self):
        # on-axis germ with x*y != 0: classified after an exact Taylor
        # advance, consistently with nearby germs of the same geodesic
        c = classify(germ(0, 1, 1, 1))
        assert c.tag is GeodesicClass.GENERIC

    def test_boundary_separation(self, seed):
        r = random.Random(seed)
        for _ in range(100):
            a, b, x = (
                cmath.rect(r.uniform(0.4, 1.6), r.uniform(0, 2 * math.pi))
                for _ in range(3)
            )
            if not in_domain(a, b):
                continue
            g = germ(a, b, x, b * x / a)
            c = classify(g)
            assert c.tag is GeodesicClass.EXPONENTIAL
            assert abs(c.discriminant - 2) < 1e-12
        hits = 0
        while hits < 100:
            a, b, x, y = (
                cmath.rect(r.uniform(0.4, 1.6), r.uniform(0, 2 * math.pi))
                for _ in range(4)
            )
            if not in_domain(a, b):
                continue
            c = classify(germ(a, b, x, y))
            if c.tag is not GeodesicClass.GENERIC:
                continue
            if abs(c.discriminant - 2) <= 1e-6:
                continue  # reject draws hugging the boundary
            hits += 1
            assert abs(c.discriminant - 2) > 1e-6


class TestDilate:
    def test_action(self):
        d = dilate(germ(1, 0, 1, 0), 1)
        assert (d.alpha, d.beta, d.x, d.y) == (2, 0, 2, 0)
        d = dilate(germ(1, 2, 1, 1), -1)
        assert (d.alpha, d.beta, d.x, d.y) == (0.5, 1, 0.5, 0.5)

    @pytest.mark.parametrize(
        "state", [(1e200, 1, 1, 1), (1e-300, 1e-300 + 1e-300j, 1, 1)], ids=["huge", "tiny"]
    )
    def test_germ_out_of_double_range_is_refused(self, state):
        # u^2 + v^2 overflows to inf or underflows to 0, though the point is
        # off the cone: classify and the probe would divide by it
        with pytest.raises(DegenerateGermError):
            classify(germ(*state))
        with pytest.raises(DegenerateGermError):
            completeness_probe(germ(*state), 3.0, 8)
        with pytest.raises(DegenerateGermError):
            dilate(germ(1, 2, 1, 1), 600 if state[0] > 1 else -600)

    def test_tag_invariance_across_orbit(self):
        for g in (germ(1, 0, 1, 0), germ(1, 2, 1, 2), germ(1, 2, 1, 1)):
            tag = classify(g).tag
            for k in range(-10, 11):
                assert classify(dilate(g, k)).tag is tag
