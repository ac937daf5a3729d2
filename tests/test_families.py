"""Closed-form samplers: germ matching, residuals, the psi chain."""

import cmath
import functools
import math
import random

import pytest

from cliftonpohl import families
from cliftonpohl.acceptance import equation_residual as eq1_residual
from cliftonpohl.acceptance import rand_complex, random_generic_germ, random_proportional_germ
from cliftonpohl.continuation import PathPolyline, continue_path
from cliftonpohl.errors import (
    ChartDegeneracyError,
    CliftonPohlError,
    ConvergenceError,
    DegenerateCoefficientsError,
    OutOfDomainError,
    PoleError,
)
from cliftonpohl.families import (
    MAX_PANELS,
    ExponentialSampler,
    GenericEllipticSampler,
    NullTanSampler,
    psi_coefficients,
    sample,
    solve,
)
from cliftonpohl.manifold import FirstIntegrals, dilate, first_integrals, germ
from cliftonpohl.special import POLE_THRESHOLD, _jacobi_raw, _landen_ladder, elliptic_F
from cliftonpohl.taylor import _jet


def loop_tangent_poles(s, center, radius):
    """The poles of k tan(a t + b) within ``radius`` of ``center`` by an open
    loop over n = 0, +-1, +-2, ..., stopped past a bound on n; kept as the
    reference of ``NullTanSampler.poles_within``."""
    out = []
    n = 0
    while True:
        hits = [(math.pi / 2.0 + sg * n * math.pi - s.b) / s.a for sg in ((1,) if n == 0 else (1, -1))]
        keep = [p for p in hits if abs(p - center) <= radius]
        if not keep and n > 2 + abs(s.a) * (radius + abs(center - s.b / s.a)):
            break
        out.extend(keep)
        n += 1
    return sorted(set(out), key=lambda p: (p.real, p.imag))


def mpmath_states(state, times):
    """(u, v, u', v') of the germ ``state`` at t0 = 0 at each of the real
    ``times``, by a 30-digit ``mpmath.odefun``."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        def rhs(t, w):
            u, v, p, q = w
            f = u * u + v * v
            return [p, q, 2 * u * p * p / f, 2 * v * q * q / f]

        f = mp.odefun(rhs, 0, list(state))
        return [[complex(c) for c in f(mp.mpf(t))] for t in times]


def law_zero_over_zero_points(s, reach):
    """The times within ``reach`` of the chain's anchor where the first form
    of the addition law, (s1 p2 + s2 p1)/(1 - m s1^2 s2^2), is 0/0.

    Its denominator vanishes where sn(v)^2 = 1/(m s1^2), v = D (t - t0): at
    +-v0 plus the periods 2K and 2iK', with v0 found by Newton from
    ``elliptic_F``.  Of those, the 0/0 points are where the numerator
    vanishes too; at the others Y has a pole."""
    m, D, s1, p1 = s.m, s.D, s.Y0, s.Yp0
    P, Q, W1, W2 = _landen_ladder(m)[3]
    z = 1 / cmath.sqrt(m * s1 * s1)
    v0 = elliptic_F(z, m)
    for _ in range(50):
        sn, cn, dn = _jacobi_raw(v0, m)
        v0 -= (sn - z) / (cn * dn)
    assert abs(_jacobi_raw(v0, m)[0] - z) <= 1e-12 * abs(z)
    n = math.ceil(reach * abs(D) * max(abs(W1), abs(W2))) + 2
    out = []
    for v in (v0, -v0):
        for p in range(-n, n + 1):
            for q in range(-n, n + 1):
                w = v + p * P + q * Q
                if abs(w / D) > reach:
                    continue
                s2, c2, d2 = _jacobi_raw(w, m)
                numerator, size = s1 * c2 * d2 + s2 * p1, abs(s1 * c2 * d2) + abs(s2 * p1)
                if abs(numerator) <= 1e-6 * size:
                    out.append(s.t0 + w / D)
    return out


@functools.lru_cache(maxsize=None)
def zero_over_zero_targets(seed, oracle):
    """(germ, sampler, target, through) at every 0/0 point of the law's
    first form within 3.5 of the anchor, on the criterion-8 germ and 15
    random germs, and 1e-10 ... 1e-6 from each.  ``through`` says whether
    the straight path from t0 passes a pole of u or v: one of the benchmark
    oracle's poles lies within its MATCH_TOL of the segment.  (The paths
    that do pass within 1e-41; the next comes 3.1e-4 away at seed 0.)"""
    r = random.Random(5 + seed)
    germs = [germ(1.3, -0.7, 0.9, 1.1)] + [random_generic_germ(r) for _ in range(15)]
    out = []
    for g in germs:
        s = solve(g)
        poles = oracle.obstruction_set(g, 3.6)
        for p in law_zero_over_zero_points(s, 3.5):
            for d in (0.0, 1e-10, 1e-8, 1e-6):
                t = p + d
                L = t - g.t0
                q = [(c - g.t0) / L for c in poles]
                through = any(0 < z.real < 1 and abs(z.imag * L) <= oracle.MATCH_TOL for z in q)
                out.append((g, s, t, through))
    return out


def germ_match_defect(s, g):
    (u, v), (du, dv) = s.position_velocity(g.t0)
    return max(
        abs(u - g.alpha), abs(v - g.beta), abs(du - g.x), abs(dv - g.y)
    )


class TestNull:
    def test_incomplete_real_geodesic(self):
        s = solve(germ(1, 0, 1, 0))
        assert s.family == "NullRational"
        pt, vel = sample(s, 0.5)
        assert abs(pt.u - 2) < 1e-14 and pt.v == 0
        assert abs(s.pole - 1) < 1e-14

    def test_tan_family(self):
        s = solve(germ(0, 1, 1, 0))
        assert s.family == "NullTan"
        pt, _ = sample(s, 0.9)
        assert abs(pt.u - cmath.tan(0.9)) < 1e-13
        assert pt.v == 1

    def test_nonunit_constant_coordinate(self):
        # v = 2: the moving coordinate is 2 tan(a t + b), not tan(2t + b)
        g = germ(0.5, 2, 1.3, 0)
        s = solve(g)
        assert germ_match_defect(s, g) < 1e-10
        assert eq1_residual(s, 0.4 + 0.1j) < 1e-12

    def test_moving_v(self):
        g = germ(2, 0.5, 0, -0.7)
        s = solve(g)
        assert germ_match_defect(s, g) < 1e-10
        assert eq1_residual(s, -0.3 + 0.2j) < 1e-12

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            solve(germ(1, 0, 0, 0))

    def test_pole_errors_carry_location(self):
        s = solve(germ(0, 1, 1, 0))
        with pytest.raises(PoleError) as err:
            sample(s, math.pi / 2)
        assert abs(err.value.location - math.pi / 2) < 1e-9

    def test_tangent_pole_is_refused_above_pole_threshold(self):
        # u = tan t: |u'| = 1/cos^2 t is 2.5e11 at pi/2 - 2e-6, below
        # special.POLE_THRESHOLD (1e12), and 4e12 at pi/2 - 5e-7, above it
        s = solve(germ(0, 1, 1, 0))
        _, (du, _) = sample(s, math.pi / 2 - 2e-6)
        assert abs(du - 2.5e11) < 1e-3 * 2.5e11
        with pytest.raises(PoleError):
            sample(s, math.pi / 2 - 5e-7)

    def test_tangent_poles_within_a_disk(self):
        # u = tan t: the poles pi/2 + n pi, exactly as the closed form gives them
        s = solve(germ(0, 1, 1, 0))
        assert s.poles_within(0, 5) == [-3 * math.pi / 2, -math.pi / 2, math.pi / 2, 3 * math.pi / 2]

    def test_tangent_poles_of_a_complex_germ_off_t0(self):
        # k tan(a t + b) with complex a, about a center far off t0: the
        # poles (pi/2 + n pi - b)/a within the radius (n = 5 ... 9),
        # enumerated over every n that can reach the disk
        s = solve(germ(0.3 + 0.2j, 1.1 - 0.4j, 0.9 + 0.7j, 0, t0=0.5 - 0.2j))
        assert s.family == "NullTan" and s.a.imag != 0
        center, radius = 13 - 20j, 7.0
        want = [(math.pi / 2 + n * math.pi - s.b) / s.a for n in range(-200, 201)]
        want = sorted((p for p in want if abs(p - center) <= radius), key=lambda p: (p.real, p.imag))
        assert len(want) >= 4 and s.poles_within(center, radius) == want

    def test_tangent_poles_equal_the_open_loops_on_a_seeded_sweep(self):
        # the closed-form range of n gives, list for list, what the open
        # loop over n = 0, +-1, +-2, ... with its stop rule gave
        r = random.Random(26)
        for _ in range(2000):
            a = rand_complex(r, 0.05, 12.0)
            s = NullTanSampler("u", rand_complex(r), a, rand_complex(r, 0.0, 20.0))
            center = rand_complex(r, 0.0, 30.0)
            radius = r.uniform(0.01, 8.0)
            assert s.poles_within(center, radius) == loop_tangent_poles(s, center, radius)

    @pytest.mark.parametrize(
        "state, t0, pole",
        [((1, 0, 1, 0), 0, 1), ((1, 0, 2.0**20, 0), 0, 2.0**-20), ((0, 0.5, 0, 2), 0.3, 0.55)],
        ids=["unit", "sped-up", "off-t0"],
    )
    def test_rational_pole_is_refused_relative_to_the_germs_distance(self, state, t0, pole):
        # 1/(C - B t) is refused within (2/POLE_THRESHOLD)^(1/3) = 1.26e-4
        # of the germ's own distance |t0 - pole|, and not outside it
        s = solve(germ(*state, t0=t0))
        near = (2.0 / POLE_THRESHOLD) ** (1.0 / 3.0) * abs(t0 - pole)
        for side in (1, -1, 1j):
            sample(s, pole + 1.01 * near * side)
            with pytest.raises(PoleError) as err:
                sample(s, pole + 0.99 * near * side)
            assert abs(err.value.location - pole) <= 1e-15 * abs(pole)
        with pytest.raises(PoleError):
            sample(s, s.pole)

    def test_rational_and_exponential_poles_within_a_disk(self):
        # u = 1/(1 - t): one pole, at t = 1; an exponential germ has none
        s = solve(germ(1, 0, 1, 0))
        assert s.poles_within(0, 3) == [1] and s.poles_within(0, 0.5) == []
        assert solve(germ(1, 1, 0.5, 0.5)).poles_within(0, 10) == []


class TestHugeTargets:
    """Elementary samplers far out: the value where it is finite, else a
    typed refusal, and never an intermediate overflow."""

    @pytest.mark.parametrize("t", [400j, 800j])
    def test_tangent_far_off_the_real_line(self, t):
        # u = tan t tends to i off the real line, where sin and cos
        # overflow; (i, 1) rounds onto the cone, which sample refuses
        s = solve(germ(0, 1, 1, 0))
        (u, v), (du, dv) = s.position_velocity(t)
        assert (u, v, du, dv) == (1j, 1, 0, 0)
        with pytest.raises(OutOfDomainError):
            sample(s, t)

    @pytest.mark.parametrize("y", [10.0, 15.0, 30.0, 300.0])
    def test_tangent_velocity_off_the_real_line(self, y):
        # u' = sec^2 t = 1/cosh^2 y at t = iy, to rounding: 1 + tan^2 t
        # cancels there, 1.1e-8 off at y = 10 and 1.7e-4 at y = 15
        s = solve(germ(0, 1, 1, 0))
        (u, _), (du, _) = s.position_velocity(1j * y)
        assert abs(u - 1j * math.tanh(y)) <= 1e-15
        assert abs(du - 1.0 / math.cosh(y) ** 2) <= 1e-14 * abs(du)

    def test_rational_far_along_the_real_line(self):
        # u = 1/(1 - t) at t = 1e300 is -1e-300; the refusal test cubed
        # |1 - t| and overflowed
        pt, (du, dv) = sample(solve(germ(1, 0, 1, 0)), 1e300)
        assert abs(pt.u - 1 / (1 - 1e300)) <= 1e-15 * abs(pt.u)
        assert (pt.v, du, dv) == (0, 0, 0)

    def test_exponential_past_the_double_range(self):
        # u = v = e^t at t = 800 is past the double range
        s = solve(germ(1, 1, 1, 1))
        assert isinstance(s, ExponentialSampler)
        with pytest.raises(OutOfDomainError):
            sample(s, 800)
        assert sample(s, 700)[0].u == pytest.approx(math.exp(700), rel=1e-13)


# germs of the four samplers, each sped up by 2^k below
SCALED_GERMS = [(1, 0, 1, 0), (0, 1, 1, 0), (1, 2, 1, 1), (1.3, -0.7, 0.9, 1.1)]
SCALED_TARGETS = [0.3, 0.2 + 0.2j, -0.25j, 0.5 - 0.1j, 1.2 + 0.4j, -0.6 + 0.9j]


class TestTimeScale:
    """t -> lambda t maps geodesics to geodesics and (u, v) -> c (u, v) is an
    isometry: no refusal may read a unit of time or of u."""

    @pytest.mark.parametrize("k", [-20, 20, 40, 45])
    @pytest.mark.parametrize("state", SCALED_GERMS, ids=["rational", "tan", "generic", "spread"])
    def test_sped_up_germ_samples_as_the_unscaled_one(self, state, k):
        # velocity times 2^k, sampled at t 2^-k: the unscaled sample with
        # its velocity times 2^k; bit for bit where every constant of the
        # sampler scales by a power of 2
        a, b, x, y = state
        s, fast = solve(germ(*state)), solve(germ(a, b, x * 2.0**k, y * 2.0**k))
        rel = 0.0 if state != SCALED_GERMS[-1] else 1e-14
        for t in SCALED_TARGETS:
            pt, (du, dv) = sample(s, t)
            want = (pt.u, pt.v, du * 2.0**k, dv * 2.0**k)
            pt, (du, dv) = sample(fast, t * 2.0**-k)
            for got, w in zip((pt.u, pt.v, du, dv), want):
                assert abs(got - w) <= rel * abs(w)

    def test_dilated_tangent_germ_samples_scale(self):
        # (u, v) -> 2^40 (u, v): u = 2^40 tan t, which the sampler refused
        # everywhere when its rule read |k a| as a rate
        s, big = solve(germ(0, 1, 1, 0)), solve(dilate(germ(0, 1, 1, 0), 40))
        for t in SCALED_TARGETS:
            (pt, vel), (bpt, bvel) = sample(s, t), sample(big, t)
            assert (bpt.u, bpt.v, *bvel) == tuple(2.0**40 * c for c in (pt.u, pt.v, *vel))


class TestExponential:
    def test_diagonal(self):
        s = solve(germ(1, 1, -1, -1))
        pt, _ = sample(s, 1.0)
        assert abs(pt.u - math.exp(-1)) < 1e-14

    def test_entire_evaluation(self):
        s = ExponentialSampler(1, 2, 1, 0)
        pt, vel = sample(s, 1 + 1j)
        assert abs(pt.u - cmath.exp(1 + 1j)) < 1e-13
        assert abs(pt.v - 2 * cmath.exp(1 + 1j)) < 1e-13

    def test_first_integrals_constant_along_sampler(self):
        g = germ(1, 2, 1, 2)
        fi = first_integrals(g)
        s = ExponentialSampler(g.alpha, g.beta, g.x / g.alpha, g.t0)
        for t in (0.3, 1 - 0.5j, -2 + 1j):
            (u, v), (du, dv) = s.position_velocity(t)
            assert abs(du * dv / (u * u + v * v) - fi.A) < 1e-12
            assert abs(u / du + v / dv - fi.B) < 1e-12

    def test_diagonal_and_offdiagonal_germs_solve_equation(self):
        # (a e^{bt}, +-a e^{bt}) are geodesics; off the diagonal that form
        # keeps the first integrals and the germ but not the equation, so
        # solve gives a proportional germ there the elliptic chain
        assert eq1_residual(solve(germ(1, 1, 2, 2)), 0.4) < 1e-13
        assert eq1_residual(solve(germ(1, -1, 2, -2)), 0.4) < 1e-13
        assert eq1_residual(ExponentialSampler(1, 2, 1, 0), 0.4) > 1e-2
        s = solve(germ(1, 2, 1, 2))
        assert isinstance(s, GenericEllipticSampler)
        assert eq1_residual(s, 0.4) < 1e-8


def route_error(g, t, tol=1e-12):
    """``sample(solve(g), t)`` against ``continue_path`` at ``tol``: the
    largest difference in (u, v, u', v'), relative to the largest component
    of the numeric state.  A typed refusal of ``solve`` or ``sample`` propagates."""
    pt, (du, dv) = sample(solve(g), t)
    trace = continue_path(g, PathPolyline((g.t0, t)), tol)
    assert trace.completed
    e = trace.endpoint
    ref = (e.u, e.v, e.du, e.dv)
    return max(abs(p - q) for p, q in zip(ref, (pt.u, pt.v, du, dv))) / max(map(abs, ref))


class TestProportional:
    """Proportional germs: the exponential form on beta = +-alpha, the
    elliptic chain elsewhere; each agrees with the numeric route or is refused."""

    def test_agrees_with_continuation_or_is_refused(self):
        # the exponential form, given to all of these, missed by up to 5.07
        r = random.Random(11)
        refused = 0
        for _ in range(120):
            g = random_proportional_germ(r)
            t = g.t0 + rand_complex(r, 0.0, 1.0)
            try:
                assert route_error(g, t) < 1e-9
            except CliftonPohlError:
                refused += 1
        assert refused <= 2

    @pytest.mark.parametrize("sign", [1, -1], ids=["beta=alpha", "beta=-alpha"])
    def test_near_the_diagonal_no_wrong_value(self, sign):
        # beta = sign (1 + eps) alpha: the chain refuses from about 1e-12 to
        # 1e-4 off either diagonal, where its curve point degenerates at t0
        # and one step along
        for k in range(1, 17):
            for d in (1, 1j):
                for a, x in ((1, 0.8), (0.6 + 0.9j, -0.7 + 0.4j)):
                    q = sign * (1 + d * 10.0**-k)
                    g = germ(a, q * a, x, q * x)
                    for t in (0.7, -0.4 + 0.6j):
                        try:
                            assert route_error(g, t) < 1e-9
                        except CliftonPohlError:
                            pass

    def test_diagonal_is_decided_by_proportional_eps(self):
        # |alpha^2 - beta^2| against manifold.PROPORTIONAL_EPS (1e-12) times
        # |alpha^2| + |beta^2|: about 1e-13 of it is on the diagonal, 1e-10 off
        assert isinstance(solve(germ(1, 1 + 1e-13, 1, 1 + 1e-13)), ExponentialSampler)
        try:
            s = solve(germ(1, 1 + 1e-10, 1, 1 + 1e-10))
        except CliftonPohlError:
            s = None
        assert not isinstance(s, ExponentialSampler)


class TestPsiCoefficients:
    def test_printed_example(self):
        co = psi_coefficients(FirstIntegrals(0.2, 3))
        assert abs(co.prefactor - 0.2j) < 1e-14
        assert abs(co.ratio - 19) < 1e-12

    def test_degenerate_boundary(self):
        with pytest.raises(DegenerateCoefficientsError):
            psi_coefficients(FirstIntegrals(0.5, 2))

    def test_degenerate_band_is_about_1e_14(self):
        # y solves a^2 y^2 + (2ab - c F) x y + b^2 x^2 = 0, c = 2 (1 + eps),
        # F = a^2 + b^2, so that A B^2 = c: the germ with A B^2/2 - 1 about
        # 1e-13 is outside psi_coefficients' band and is solved (8.7e-12
        # off), the one at about 1.3e-15 is inside it; a band of 1e-12 would
        # refuse the first, one of 1e-16 would solve the second
        def band_germ(eps, a=1, b=2, x=0.5):
            c, F = 2 * (1 + eps), a * a + b * b
            p, q = (2 * a * b - c * F) * x, b * b * x * x
            return germ(a, b, x, (-p + cmath.sqrt(p * p - 4 * a * a * q)) / (2 * a * a))

        def gap(g):
            fi = first_integrals(g)
            return abs(fi.A * fi.B * fi.B / 2 - 1)

        near, inside = band_germ(1e-13), band_germ(1.3e-15)
        assert 0.9e-13 < gap(near) < 1.1e-13 and 1e-15 < gap(inside) < 2e-15
        assert route_error(near, 0.2 + 0.2j) <= 1e-10
        with pytest.raises(DegenerateCoefficientsError):
            solve(inside)

    def test_simple_values(self):
        co = psi_coefficients(FirstIntegrals(1, 2))
        assert abs(co.prefactor - math.sqrt(2)) < 1e-14
        assert abs(co.ratio + 3) < 1e-14

    def test_prefactor_squared_identity(self):
        for A, B in ((0.2 + 0.1j, 3 - 1j), (1.5, 0.3 + 0.4j)):
            co = psi_coefficients(FirstIntegrals(A, B))
            assert abs(co.prefactor**2 - (A * A * B * B - 2 * A)) < 1e-14


class TestGenericChain:
    def test_germ_matching(self):
        g = germ(1, 2, 1, 1)
        s = solve(g)
        assert germ_match_defect(s, g) < 1e-10

    def test_residual_on_disk(self, seed):
        g = germ(1, 2, 1, 1)
        s = solve(g)
        r = random.Random(seed)
        for _ in range(20):
            t = cmath.rect(r.uniform(0, 0.5), r.uniform(0, 2 * math.pi))
            assert eq1_residual(s, t) < 1e-8

    def test_psi_equation_residual(self, seed):
        g = germ(1, 2, 1, 1)
        s = solve(g)
        co = psi_coefficients(first_integrals(g))
        P, R = co.prefactor, co.ratio
        r = random.Random(seed + 3)
        for _ in range(30):
            t = cmath.rect(r.uniform(0, 1.0), r.uniform(0, 2 * math.pi))
            Y, Yp = s.curve_point(t)
            psi, psid = 1j * Y, 1j * s.D * Yp
            rhs = P * cmath.sqrt((1 + psi * psi) * (1 - R * psi * psi))
            assert min(abs(psid - rhs), abs(psid + rhs)) < 1e-8

    def test_initial_branch_consistency(self):
        g = germ(1, 2, 1, 1)
        s = solve(g)
        fi = first_integrals(g)
        od, ed = s.log_rates(g.t0)
        assert abs(od - 1.0) < 1e-12  # x / alpha
        assert abs(ed - 0.5) < 1e-12  # y / beta
        assert abs(1 / od + 1 / ed - fi.B) < 1e-10
        for t in (0.2, 0.4 - 0.3j):
            od, ed = s.log_rates(t)
            assert abs(1 / od + 1 / ed - fi.B) < 1e-10

    def test_log_branch_shift_is_invisible(self):
        g = germ(1, 2, 1, 1)
        s = solve(g)
        shifted = GenericEllipticSampler(
            s.A, s.B, s.m, s.D, s.Y0, s.Yp0,
            s.omega0 + 2j * math.pi, s.eta0 - 2j * math.pi, s.t0,
        )
        for t in (0.3, 0.5 - 0.4j):
            (u1, v1), _ = s.position_velocity(t)
            (u2, v2), _ = shifted.position_velocity(t)
            assert abs(u1 - u2) < 1e-12 * (1 + abs(u1))
            assert abs(v1 - v2) < 1e-12 * (1 + abs(v1))

    def test_on_axis_germ_is_anchored_off_the_axis(self):
        g = germ(0, 1, 1, 1)
        s = solve(g)  # the chain is anchored one Taylor step along the geodesic
        (u, v), (du, dv) = s.position_velocity(g.t0 + 1e-3)
        jet = _jet(8)
        ref = jet.advance(*jet.series(g.state()), 1e-3)
        assert abs(u - ref[0]) < 1e-9 and abs(v - ref[1]) < 1e-9

    @pytest.mark.parametrize(
        "state",
        [(0, 1, 1, 1), (1, 0, 0.5, 2), (0, 1.3 - 0.2j, 0.7, 1.1j), (1, -1, 1, 2), (2j, -2j, 1, 0.3)],
    )
    def test_reanchored_germ_agrees_with_continuation(self, state):
        # an on-axis or beta = -alpha germ is anchored one step along its
        # geodesic, the longest whose tail stays at rounding (0.08 to 0.35
        # here): the chain then agrees with continue_path to rounding.
        # Anchored 1e-3 along by an order-8 step, the three on-axis germs
        # were up to 3.3e-13, 6.6e-13 and 5.3e-13 off
        g = germ(*state)
        s = solve(g)
        for t in (0.3, 0.2 + 0.2j, 0.1 - 0.25j, 0.4j):
            pt, (du, dv) = sample(s, t)
            want = continue_path(g, PathPolyline((g.t0, t)), 1e-12).endpoint
            for got, ref in zip((pt.u, pt.v, du, dv), (want.u, want.v, want.du, want.dv)):
                assert abs(got - ref) <= 1e-14 * (1 + abs(ref))

    def test_on_axis_germ_against_mpmath(self):
        # a 30-digit reference of (0, 1, 1, 1) at t = 0.3: 3.0e-16 off
        # (3.3e-13 anchored 1e-3 along by an order-8 step)
        (ref,) = mpmath_states((0, 1, 1, 1), [0.3])
        pt, (du, dv) = sample(solve(germ(0, 1, 1, 1)), 0.3)
        for got, want in zip((pt.u, pt.v, du, dv), ref):
            assert abs(got - want) <= 1e-15 * (1 + abs(want))

    def test_law_at_its_zero_over_zero_point_against_mpmath(self):
        # the criterion-8 germ has a 0/0 of the law's first form on the
        # real axis, the mirror about the anchor of a pole of Y: the law's
        # second form is exact there (4.8e-16 measured).  The first form
        # alone divided by zero at it, and was 7.9e3, 0.33 and 6.1e-5 off
        # in velocity 1e-10, 1e-8 and 1e-6 away
        state, p = (1.3, -0.7, 0.9, 1.1), 0.29280769009232127
        s = solve(germ(*state))
        times = [p + d for d in (0.0, 1e-10, -1e-10, 1e-8, 1e-6, -1e-6, 1e-4)]
        for t, ref in zip(times, mpmath_states(state, times)):
            pt, (du, dv) = sample(s, t)
            for got, want in zip((pt.u, pt.v, du, dv), ref):
                assert abs(got - want) <= 1e-12 * (1 + abs(want)), t

    def test_anti_diagonal_germ_at_twice_its_anchor_step(self):
        # beta = -alpha is anchored one step h along, which puts the law's
        # first-form 0/0 at 2h; the first form alone was 1.2e15 off there
        state = (1, -1, 1, 0.5)
        s = solve(germ(*state))
        h = s.t0.real
        times = [2 * h, 2 * h + 1e-9, 2 * h - 1e-6]
        for t, ref in zip(times, mpmath_states(state, times)):
            pt, (du, dv) = sample(s, t)
            for got, want in zip((pt.u, pt.v, du, dv), ref):
                assert abs(got - want) <= 1e-12 * (1 + abs(want)), t

    def test_zero_over_zero_points_on_a_seeded_sweep(self, seed, bench_oracle):
        # every target of ``zero_over_zero_targets`` whose straight path
        # passes no pole, against continue_path at tol 1e-13: 632, 612 and
        # 684 targets at seeds 0-2, worst 6.2e-12.  The first form alone
        # had 628 of them off by more than 1e-9 at seed 0, and refused 4.
        # Shots pass poles since they change charts; the targets behind one
        # are test_zero_over_zero_points_behind_a_pole's
        checked = 0
        for g, s, t, through in zero_over_zero_targets(seed, bench_oracle):
            if through:
                continue
            trace = continue_path(g, PathPolyline((g.t0, t)), 1e-13)
            assert trace.completed
            checked += 1
            e = trace.endpoint
            pt, (du, dv) = sample(s, t)
            for got, want in zip((pt.u, pt.v, du, dv), (e.u, e.v, e.du, e.dv)):
                assert abs(got - want) <= 1e-9 * (1 + abs(want)), (g, t)
        assert checked >= 400

    @pytest.mark.xfail(strict=True, raises=ConvergenceError, reason="ROADMAP item 4: the "
                       "quadrature does not converge behind a pole, after 2048 panels")
    def test_zero_over_zero_points_behind_a_pole(self, seed, bench_oracle):
        # the targets of the sweep above whose straight path passes a pole
        # (8 at each of seeds 0-2, all on the criterion-8 germ's real
        # axis): continue_path passes it, and sample must agree
        targets = zero_over_zero_targets(seed, bench_oracle)
        behind = [(g, s, t) for g, s, t, through in targets if through]
        assert behind
        for g, s, t in behind:
            trace = continue_path(g, PathPolyline((g.t0, t)), 1e-13)
            assert trace.completed
            e = trace.endpoint
            pt, (du, dv) = sample(s, t)
            for got, want in zip((pt.u, pt.v, du, dv), (e.u, e.v, e.du, e.dv)):
                assert abs(got - want) <= 1e-9 * (1 + abs(want)), (g, t)

    def test_reanchored_germs_are_solved_on_a_seeded_sweep(self):
        # germs on either axis and on beta = -alpha, at the scale of the
        # acceptance draws: none is refused, and each agrees with
        # continue_path (worst 2.8e-15; 3.7e-13 anchored 1e-3 along)
        r = random.Random(2024)
        for k in range(30):
            a, x, y = (rand_complex(r) for _ in range(3))
            g = germ(*((0, a, x, y), (a, 0, x, y), (a, -a, x, y))[k % 3])
            s = solve(g)
            t = cmath.rect(r.uniform(0.05, 0.6), r.uniform(0, 2 * math.pi))
            pt, (du, dv) = sample(s, t)
            want = continue_path(g, PathPolyline((g.t0, t)), 1e-12).endpoint
            for got, ref in zip((pt.u, pt.v, du, dv), (want.u, want.v, want.du, want.dv)):
                assert abs(got - ref) <= 1e-14 * (1 + abs(ref)), (g, t)

    def test_germ_within_rounding_of_the_axis_is_refused(self):
        # u' = 1e-40 leaves u below rounding after the anchor step: the
        # anchor Y0 = i is a root of 1 + Y^2, a zero of u.  The chain
        # refuses the germ by the root test it applies at every t; anchored
        # there, every sample would raise PoleError, though u is regular
        with pytest.raises(ChartDegeneracyError, match="zero of u or v"):
            solve(germ(0, 1, 1e-40, 1))

    def test_anti_diagonal_start_reanchors(self):
        g = germ(1, -1, 1, 0.5)  # beta = -alpha: psi0 would be infinite
        s = solve(g)
        assert germ_match_defect(s, g) < 1e-9
        assert eq1_residual(s, 0.2 + 0.1j) < 1e-8

    @pytest.mark.parametrize("rho", [1e-10, 1e-12])
    def test_near_axis_germ_is_anchored_one_step_along(self, rho):
        # |alpha| = rho |beta|, or the same with u and v swapped: at t0 the
        # curve point fails its defect check, so the chain is anchored one
        # step along, as on the axis itself
        r = random.Random(round(-math.log10(rho)))
        worst = 0.0
        for k in range(10):
            b, x, y = (rand_complex(r) for _ in range(3))
            a = rho * b * cmath.exp(1j * r.uniform(0, 2 * math.pi))
            g = germ(*((a, b, x, y) if k % 2 else (b, a, y, x)))
            for t in (0.3, 0.2 + 0.2j, 0.1 - 0.25j, 0.4j):
                worst = max(worst, route_error(g, t, 1e-13))
        assert worst <= 1e-13

    @pytest.mark.parametrize("eps", [1e-12, 1e-14])
    def test_anti_diagonal_band_germ_is_anchored_at_t0(self, eps):
        # beta = -alpha (1 + eps w), |w| = 1: the anchor at t0 passes both
        # checks, so the chain is anchored there and not one step along
        r = random.Random(round(-math.log10(eps)))
        worst = 0.0
        for _ in range(10):
            a, x, y = (rand_complex(r) for _ in range(3))
            w = cmath.exp(1j * r.uniform(0, 2 * math.pi))
            g = germ(a, -a * (1 + eps * w), x, y)
            assert solve(g).t0 == g.t0
            for t in (0.3, 0.2 + 0.2j, 0.1 - 0.25j, 0.4j):
                worst = max(worst, route_error(g, t))
        assert worst <= 3e-14

    def test_proportional_germ_off_the_anti_diagonal_is_anchored_one_step_along(self):
        # beta = -(1 + 1e-2 w) alpha, y = beta x / alpha: the curve point at
        # t0 is off the curve, the one a step along is not
        r = random.Random(2)
        for _ in range(10):
            a, x = rand_complex(r), rand_complex(r)
            q = -(1 + 1e-2 * cmath.exp(1j * r.uniform(0, 2 * math.pi)))
            g = germ(a, q * a, x, q * x)
            t = cmath.rect(r.uniform(0.05, 0.5), r.uniform(0, 2 * math.pi))
            assert route_error(g, t) <= 1e-11

    def test_germ_at_the_edge_of_the_double_range_is_solved(self):
        # alpha = 1e-300: the curve point at t0 has lost every digit, the
        # one a step along has not
        g = germ(1e-300, 1, 0.8, 1.3 + 0.1j)
        assert route_error(g, 0.3 + 0.2j) <= 1e-13

    def test_anchor_sweep_raises_nothing_untyped(self):
        # axis, near-axis, beta ~ -alpha, proportional and generic germs,
        # and beta = -alpha within 1e-100 and 1e-170: where the anchor's
        # arithmetic overflows, its check fails and the step decides.  The
        # count of solved germs keeps the sweep from passing by refusals
        r = random.Random(24)
        states = [(1 + 1e-100j, -1, 0.8, 1.3 + 0.1j), (1 + 1e-170j, -1, 0.8, 1.3 + 0.1j)]
        for k in range(60):
            a, b, x, y = (rand_complex(r) for _ in range(4))
            w = 10.0 ** -r.uniform(0, 300)
            states += [(0, b, x, y), (w * b, b, x, y), (a, -a * (1 + w), x, y),
                       (a, -(1 + w) * a, x, -(1 + w) * x), (a, b, x, y)]
        solved = 0
        for state in states:
            try:
                s = solve(germ(*state))
                solved += 1
                for t in (0.3, -0.2 + 0.25j):
                    sample(s, t)
            except CliftonPohlError:
                pass
        assert solved >= len(states) // 2

    def test_degenerate_quartic_locus_is_not_the_class_boundary(self):
        # A B^2 = 2 with cosh(phi0) != 1: classified Generic, yet the
        # quartic degenerates; the solver refuses rather than mislabel
        import math as _m

        g = germ(1, 2, 1, 3 + _m.sqrt(5))
        fi = first_integrals(g)
        assert abs(fi.A * fi.B * fi.B - 2) < 1e-12
        from cliftonpohl.manifold import GeodesicClass, classify

        assert classify(g).tag is GeodesicClass.GENERIC
        with pytest.raises(DegenerateCoefficientsError):
            solve(g)

    def test_pole_of_the_curve_point_is_refused_by_type(self):
        # both forms of the law divide by exactly 0 only at a pole of Y;
        # at m = 1 the kernel is tanh and sech, and tanh(40) = 1 in
        # doubles, so Y0 = 1 and Yp0 = sech(40)^2 put both there at t = 40
        c = 1 / cmath.cosh(40)
        s = GenericEllipticSampler(1, 1, 1, 1, 1, c * c, 0, 0, 0)
        with pytest.raises(PoleError, match="u = -v") as err:
            s.curve_point(40)
        assert err.value.location == 40

    @pytest.mark.parametrize("t", [400j, 800j], ids=["nan", "overflow"])
    def test_curve_point_past_the_double_range_is_refused_by_type(self, t):
        # at m = 0 the kernel is sin and cos of the unreduced argument: from
        # |Im| = 356 its bottom Landen step is 0 * inf, a NaN, and from 711
        # sin overflows
        s = GenericEllipticSampler(1, 1, 0, 1, 0.5, 0.75**0.5, 0, 0, 0)
        with pytest.raises(PoleError, match="u = -v") as err:
            s.curve_point(t)
        assert err.value.location == t

    @pytest.mark.parametrize(
        "state, t, message",
        [
            # m = 1.12 and |D (t - t0)| = 3.6e20: the argument's reduction
            # modulo the periods (K' = 1.5) loses every digit and leaves
            # |Im| = 7.8e3, where the kernel's sin overflows
            (
                (5.996713081056244e-13 + 4.6539743986041795e-12j,
                 -1.544578197380434e-08 - 9.064129472789797e-09j,
                 138312553.2135468 - 440331762.4137913j,
                 5473268.387642926 - 12340981.524745034j),
                12371.188006947275 + 7132.231736364815j,
                "u = -v",
            ),
            # m = 1: the kernel's cosh overflows, and sech is 0 to double
            # precision, so the curve point is finite; the chain integrates
            # to a u past the double range
            (
                (-1.2024410591308345e-12 + 1.9440967168669307e-12j,
                 31.791548788654506 - 134.4778054165273j,
                 199268244.80026224 + 747998146.5238942j,
                 6.67858549243524e-11 + 6.262622496669678e-11j),
                -333436607591.631 - 432307931078.6474j,
                "beyond the double range",
            ),
        ],
        ids=["sin-overflow", "cosh-overflow"],
    )
    def test_recorded_fuzz_overflow_is_refused_by_type(self, state, t, message):
        # two of the 41 untyped OverflowErrors that a seeded fuzz of sample
        # (Random(1), 300 germs and 3 targets each, every component and
        # target of modulus 1e-12 ... 1e12) met in the Jacobi kernel
        s = solve(germ(*state))
        with pytest.raises(PoleError, match=message) as err:
            sample(s, t)
        assert err.value.location == t

    def test_recorded_fuzz_curve_point_at_m1_past_cosh_overflow(self):
        # m = 1 and |D (t - t0)| = 1.3e7: sech underflows, and the curve
        # point is the addition law's (s1^2 - s2^2)/(s1 p2 - s2 p1) at
        # s2 = sn = +-1, p2 = cn dn = 0
        s = solve(germ(0.47966210221593486 - 0.15316634570573576j,
                       -7.811648823536634e-06 - 8.716495104484194e-06j,
                       -1.3328410358876135e-11 + 6.12518755627506e-12j,
                       3642553525.625677 + 17536452263.74872j))
        assert s.m == 1
        t = -0.00020337319762642872 - 0.00029582257821540015j
        Y, Yp = s.curve_point(t)
        s2 = _jacobi_raw(s.D * (t - s.t0), 1)[0]
        assert abs(s2) == 1 and cmath.isfinite(Yp)
        assert abs(Y - (s.Y0 * s.Y0 - 1) / (-s2 * s.Yp0)) <= 1e-15 * abs(Y)

    def test_obstruction_is_pole_of_artanh_argument(self):
        # the chain's own singular set: psi = +-1; refine the root of
        # 1 + Y^2 by Newton, then evaluation at it must raise
        s = solve(germ(1, 2, 1, 1))
        t = 3.2516195 + 0j
        for _ in range(8):
            Y, Yp = s.curve_point(t)
            t -= (1 + Y * Y) / (2 * Y * Yp * s.D)
        Y, _ = s.curve_point(t)
        assert abs(abs(1j * Y) - 1) < 1e-12
        with pytest.raises(PoleError):
            s.position_velocity(t)


class TestFamilyResiduals:
    @pytest.mark.parametrize(
        "g",
        [
            germ(1, 0, 1, 0),
            germ(0, 1, 1, 0),
            germ(1, 1, 2, 2),
            germ(1, 2, 1, 1),
        ],
        ids=["rational", "tan", "exponential", "generic"],
    )
    def test_hundred_points(self, g, seed):
        s = solve(g)
        r = random.Random(seed + 7)
        count = 0
        while count < 100:
            t = g.t0 + cmath.rect(r.uniform(0.05, 1.0), r.uniform(0, 2 * math.pi))
            try:
                res = eq1_residual(s, t)
            except PoleError:
                continue
            count += 1
            assert res < 1e-8

    @pytest.mark.parametrize(
        "g",
        [germ(1, 0, 1, 0), germ(0, 1, 1, 0), germ(1, 1, 2, 2), germ(1, 2, 1, 1)],
        ids=["rational", "tan", "exponential", "generic"],
    )
    def test_first_integrals_constant_along_samplers(self, g, seed):
        s = solve(g)
        r = random.Random(seed + 8)
        nonnull = g.x != 0 and g.y != 0
        fi = first_integrals(g) if nonnull else None
        count = 0
        while count < 25:
            t = g.t0 + cmath.rect(r.uniform(0.05, 1.0), r.uniform(0, 2 * math.pi))
            try:
                (u, v), (du, dv) = s.position_velocity(t)
            except PoleError:
                continue
            count += 1
            if nonnull:
                A_t = du * dv / (u * u + v * v)
                B_t = u / du + v / dv
                assert abs(A_t - fi.A) < 1e-9 * (1 + abs(fi.A))
                assert abs(B_t - fi.B) < 1e-9 * (1 + abs(fi.B))
            else:
                assert abs(du * dv) < 1e-12


# germ 0 of the benchmark's input pool (perfbench/inputs.py); it has a pole and a
# zero of (u, v) among its chain roots near t0 = 0
POOL_GERM = (
    0.5489339746819318 - 0.04362951729725319j,
    0.8002960731860939 + 1.111461147886121j,
    0.35184573791857693 - 0.2674275062483081j,
    0.5434065966447698 - 0.9587860542405724j,
)


def chain_root(s, t):
    """Newton on 1 + Y^2 = 0 from t."""
    for _ in range(8):
        Y, Yp = s.curve_point(t)
        t -= (1 + Y * Y) / (2 * Y * Yp * s.D)
    return t


def contour_residues(s, p, rho=0.05, n=64):
    """Residues of (omega', eta') at p: trapezoid rule on |t - p| = rho."""
    ru = rv = 0j
    for k in range(n):
        w = rho * cmath.exp(2j * math.pi * k / n)
        od, ed = s.log_rates(p + w)
        ru += od * w
        rv += ed * w
    return ru / n, rv / n


def reference_quadrature(f, a, b):
    """Bisection that evaluates every panel afresh, with no budget."""
    whole = families._gl_pair(f, a, b)
    mid = 0.5 * (a + b)
    left = families._gl_pair(f, a, mid)
    right = families._gl_pair(f, mid, b)
    fine = (left[0] + right[0], left[1] + right[1])
    err = max(abs(fine[0] - whole[0]), abs(fine[1] - whole[1]))
    if err <= families.QUAD_TOL * (1.0 + abs(fine[0]) + abs(fine[1])):
        return fine
    l = reference_quadrature(f, a, mid)
    r = reference_quadrature(f, mid, b)
    return l[0] + r[0], l[1] + r[1]


def pointwise_panel(s, a, b):
    """``families._gl_pair`` over the sampler's integrand in loop form: the
    scalar chain at each node in turn; kept as the panel loop's reference."""
    nodes, weights = families._gl_rule(16)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    s1 = s2 = 0j
    for x, w in zip(nodes, weights):
        f1, f2, _, _ = s._chain(mid + half * x)
        s1 += w * f1
        s2 += w * f2
    return half * s1, half * s2


def scalar_curve_point(s, t):
    """The addition law's pair at one point, the form with the larger
    denominator, in the association order whose bits the sampler keeps
    (1 - m (s1 s1)(s2 s2), not 1 - m s1 s1 s2 s2)."""
    m, s1, p1 = s.m, s.Y0, s.Yp0
    s2, c2, d2 = _jacobi_raw(s.D * (t - s.t0), m)
    p2 = c2 * d2
    s1s2 = (s1 * s1) * (s2 * s2)
    Q = 1.0 - m * s1s2
    R = s1 * p2 - s2 * p1
    c1sq = 1.0 - s1 * s1
    d1sq = 1.0 - m * s1 * s1
    if abs(R) > abs(Q):
        Y = (s1 * s1 - s2 * s2) / R
        Yp = (p1 * p2 * (s1 * s1 + s2 * s2) - s1 * s2 * (c1sq * d2 * d2 + d1sq * c2 * c2)) / (R * R)
    else:
        Y = (s1 * p2 + s2 * p1) / Q
        Yp = (p1 * p2 * (1.0 + m * s1s2) - s1 * s2 * (m * c1sq * c2 * c2 + d1sq * d2 * d2)) / (Q * Q)
    return Y, Yp


def outcome(s, t):
    """position_velocity at t, or the type and location of its refusal."""
    try:
        return s.position_velocity(t)
    except CliftonPohlError as e:
        return type(e), e.location


def pointwise_outcomes(s, targets, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(families, "_gl_pair", lambda f, a, b: pointwise_panel(s, a, b))
        return [outcome(s, t) for t in targets]


@pytest.fixture
def panels(monkeypatch):
    """Every 16-point Gauss-Legendre panel the quadrature evaluates."""
    calls = []
    real = families._gl_pair

    def counted(f, a, b):
        calls.append((a, b))
        return real(f, a, b)

    monkeypatch.setattr(families, "_gl_pair", counted)
    return calls


SPREAD_GERM = germ(1.3, -0.7, 0.9, 1.1)
SPREAD_TARGETS = [2.5 * cmath.exp(1j * (0.3 + 0.8 * k)) for k in range(8)]


class TestBoundedWork:
    @pytest.mark.parametrize(
        "state, start, error, residues",
        [
            ((1, 2, 1, 1), 3.25162, PoleError, (0, -1)),
            ((1, 2, 1, 1), -1.21315, ChartDegeneracyError, (1, 0)),
            (POOL_GERM, -0.37618 + 1.20099j, PoleError, (0, -1)),
            (POOL_GERM, -1.00137 - 0.53648j, ChartDegeneracyError, (1, 0)),
            # B = 0: a double root, at which u has a zero and v a pole
            ((1, 2, 1, -2), -1.0926342554893351, PoleError, (1, -1)),
        ],
        ids=["pole", "zero", "pool-pole", "pool-zero", "B=0"],
    )
    def test_chain_root_is_refused_by_kind(self, state, start, error, residues, panels):
        # residue -1 of omega' or eta' is a pole of u or v, +1 a zero
        s = solve(germ(*state))
        p = chain_root(s, start)
        with pytest.raises(error) as err:
            s.position_velocity(p)
        assert err.value.location == p
        assert panels == []  # refused before any quadrature
        ru, rv = contour_residues(s, p)
        assert abs(ru - residues[0]) < 1e-6 and abs(rv - residues[1]) < 1e-6

    @pytest.mark.parametrize(
        "state, start",
        [((1, 2, 1, 1), -1.21315), (POOL_GERM, -1.00137 - 0.53648j)],
        ids=["zero", "pool-zero"],
    )
    def test_zero_is_never_refused_as_a_pole(self, state, start):
        # at a zero one residue is exactly 0, so rounding gives it either
        # sign; each of 16 points within 1e-14 of the root is a zero
        s = solve(germ(*state))
        p = chain_root(s, start)
        for k in range(16):
            with pytest.raises(ChartDegeneracyError):
                s.position_velocity(p + 1e-14 * cmath.exp(2j * math.pi * k / 16))

    @pytest.mark.parametrize("start", [3.25162, -1.21315], ids=["pole", "zero"])
    def test_near_root_targets_spend_bounded_work(self, start, panels):
        # 1 + Y^2 cancels near a root, so from about 1e-7 away the rule
        # never meets QUAD_TOL; the panel budget ends the bisection
        s = solve(germ(1, 2, 1, 1))
        p = chain_root(s, start)
        for k in range(2, 12):
            for d in (1, 1j, cmath.exp(2.5j)):
                panels.clear()
                try:
                    s.position_velocity(p + d * 10.0**-k)
                except CliftonPohlError:
                    pass
                assert len(panels) <= MAX_PANELS

    def test_panel_budget_on_regular_targets(self, panels):
        # each half-panel is the whole of the next bisection: 68 panels
        # here, 90 when every bisection re-evaluates its whole
        s = solve(SPREAD_GERM)
        got = [s.position_velocity(t) for t in SPREAD_TARGETS]
        assert len(panels) <= 70
        for t, ((u, v), (du, dv)) in zip(SPREAD_TARGETS, got):
            e = continue_path(SPREAD_GERM, PathPolyline((SPREAD_GERM.t0, t))).endpoint
            assert max(abs(e.u - u), abs(e.v - v), abs(e.du - du), abs(e.dv - dv)) < 1e-9

    @pytest.mark.parametrize(
        "state", [(1, 0, 1, 0), (0, 1, 1, 0), (1, 1, 1, 1), (1, 2, 1, 1)],
        ids=["rational", "tan", "exponential", "generic"],
    )
    @pytest.mark.parametrize("t", [math.nan, math.inf, complex(0, -math.inf)])
    def test_non_finite_time_is_refused(self, state, t, panels):
        # the generic chain used to bisect about 96 panels, then raise a
        # PoleError located at NaN
        with pytest.raises(ValueError):
            sample(solve(germ(*state)), t)
        assert panels == []

    def test_half_panel_reuse_changes_no_result(self, monkeypatch):
        s = solve(SPREAD_GERM)
        got = [s.position_velocity(t) for t in SPREAD_TARGETS]
        monkeypatch.setattr(families, "adaptive_segment_integral", reference_quadrature)
        assert got == [s.position_velocity(t) for t in SPREAD_TARGETS]


class TestPanelLoop:
    """The quadrature evaluates the chain a panel at a time; it gives, bit
    for bit, what the scalar chain gives node by node."""

    def test_matches_pointwise_chain(self, seed, monkeypatch):
        r = random.Random(seed)
        for _ in range(6):
            s = solve(random_generic_germ(r))
            targets = [s.t0 + rand_complex(r, 0.05, 3.0) for _ in range(15)]
            assert [outcome(s, t) for t in targets] == pointwise_outcomes(s, targets, monkeypatch)
            assert all(s.curve_point(t) == scalar_curve_point(s, t) for t in targets)

    @pytest.mark.parametrize("k", [0, 3, 7])
    @pytest.mark.parametrize(
        "state, start, error",
        [
            ((1, 2, 1, 1), 3.25162, PoleError),
            ((1, 2, 1, 1), -1.21315, ChartDegeneracyError),
            (POOL_GERM, -0.37618 + 1.20099j, PoleError),
            (POOL_GERM, -1.00137 - 0.53648j, ChartDegeneracyError),
        ],
        ids=["pole", "zero", "pool-pole", "pool-zero"],
    )
    def test_node_on_a_chain_root(self, state, start, error, k, monkeypatch):
        # the first panel, [t0, t], puts its node k on the root
        s = solve(germ(*state))
        p = chain_root(s, start)
        t = s.t0 + 2 * (p - s.t0) / (1 + families._gl_rule(16)[0][k])
        got = outcome(s, t)
        assert got == pointwise_outcomes(s, [t], monkeypatch)[0]
        assert got[0] is error and abs(got[1] - p) < 1e-12
