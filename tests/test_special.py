"""Special-function kernel: branch policy, identities, oracles."""

import cmath
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliftonpohl.acceptance import rand_complex
from cliftonpohl.errors import PoleError, SingularPathError
from cliftonpohl.families import solve
from cliftonpohl.manifold import germ
from cliftonpohl.special import (
    EllipticTriple,
    elliptic_F,
    jacobi_elliptic,
    _jacobi_raw,
    _landen_ladder,
)


def quad_F(z: complex, m: complex, n: int = 4000) -> complex:
    """Independent oracle: composite Simpson along the straight segment."""
    def f(t: complex) -> complex:
        return 1.0 / cmath.sqrt((1 - t * t) * (1 - m * t * t))

    h = z / n
    acc = f(0) + f(z)
    for i in range(1, n):
        acc += f(i * h) * (4 if i % 2 else 2)
    return acc * h / 3.0


class TestJacobi:
    def test_origin(self):
        t = jacobi_elliptic(0, 0.3 + 0.1j)
        assert t == EllipticTriple(0j, 1 + 0j, 1 + 0j)

    def test_trigonometric_degeneration(self):
        for z in (0.4, 1.1 - 0.6j, -0.3 + 0.8j):
            t = jacobi_elliptic(z, 0)
            assert abs(t.sn - cmath.sin(z)) < 1e-12
            assert abs(t.cn - cmath.cos(z)) < 1e-12
            assert abs(t.dn - 1) < 1e-12

    def test_hyperbolic_degeneration(self):
        for z in (0.4, 0.9 + 0.2j, -1.2 - 0.4j):
            t = jacobi_elliptic(z, 1)
            sech = 1.0 / cmath.cosh(z)
            assert abs(t.sn - cmath.tanh(z)) < 1e-12
            assert abs(t.cn - sech) < 1e-12
            assert abs(t.dn - sech) < 1e-12

    def test_identity_grid(self, seed):
        r = random.Random(seed)
        checked = 0
        while checked < 500:
            z = cmath.rect(r.uniform(0, 2), r.uniform(0, 2 * math.pi))
            m = cmath.rect(r.uniform(0, 2), r.uniform(0, 2 * math.pi))
            s, c, d = _jacobi_raw(z, m)
            if max(abs(s), abs(c), abs(d)) > 5:
                continue
            checked += 1
            d1, d2 = EllipticTriple(s, c, d).identity_defects(m)
            assert d1 < 1e-10 and d2 < 1e-10

    def test_pole_detection(self):
        # sn(z, m) has its nearest pole at z = i K(1-m); evaluating there
        # must trip the magnitude threshold
        from cliftonpohl.special import carlson_rf

        kprime = carlson_rf(0, 1 - 0.5, 1).real  # K(1-m) for m = 1/2
        with pytest.raises(PoleError):
            jacobi_elliptic(1j * kprime, 0.5)

    @pytest.mark.parametrize("y", [60, 354, 356, 500, 709, 711, 1000])
    def test_overflow_at_m0_is_a_pole(self, y):
        # cos(0.3 + iy) exceeds the threshold above y = 28.3.  From y = 356
        # the bottom Landen step's 0.25 m (z1 - s c) is 0 * inf, a NaN the
        # threshold test must not pass; from y = 711 sin overflows
        with pytest.raises(PoleError) as err:
            jacobi_elliptic(0.3 + y * 1j, 0)
        assert err.value.location == 0.3 + y * 1j

    @pytest.mark.parametrize("z", [711, -711, 711 + 0.3j, -800 - 2j, 1e300])
    def test_hyperbolic_limit_past_the_double_range(self, z):
        # at m = 1, sech(z) = 1/cosh(z) is below the double range where cosh
        # overflows: the triple is (+-1, 0, 0) to double precision
        sign = 1 if z.real > 0 else -1
        assert _jacobi_raw(z, 1) == (sign, 0, 0)
        assert jacobi_elliptic(z, 1) == EllipticTriple(sign, 0j, 0j)

    def test_reciprocal_parameter_on_cut(self):
        # m > 1 sits on the classical branch cut; the Landen chain must
        # still match sn(u, m) = sn(u sqrt(m), 1/m)/sqrt(m)
        u, m = 0.4, 2.0
        s, _, _ = _jacobi_raw(u, m)
        s2, _, _ = _jacobi_raw(u * math.sqrt(m), 1 / m)
        assert abs(s - s2 / math.sqrt(m)) < 1e-12

    @given(
        st.builds(cmath.rect, st.floats(0.0, 1.5), st.floats(0.0, 2 * math.pi)),
        st.builds(cmath.rect, st.floats(0.0, 1.5), st.floats(0.0, 2 * math.pi)),
    )
    @settings(max_examples=60, deadline=None)
    def test_identities_hypothesis(self, z, m):
        s, c, d = _jacobi_raw(z, m)
        if max(abs(s), abs(c), abs(d)) > 10:
            return
        assert abs(s * s + c * c - 1) < 1e-9
        assert abs(d * d + m * s * s - 1) < 1e-9

    def test_against_mpmath(self):
        # 30-digit reference at complex m; 1.32+0.61i is the m of a generic
        # benchmark germ, m = 1 takes the tanh branch, and every m is
        # evaluated twice so the second call reads the cached Landen ladder
        mpmath = pytest.importorskip("mpmath")
        ms = (0.3, -0.8 + 0.2j, 0.5 + 0.5j, 1.32 + 0.61j, 2.5 - 0.3j, 1.0)
        zs = (0.1 + 0.05j, 0.7 - 0.3j, -0.4 + 0.9j, 1.2 + 0.2j, -0.9 - 0.6j, 0.05j)
        hits = _landen_ladder.cache_info().hits
        for m in ms:
            for z in zs:
                with mpmath.workdps(30):
                    ref = [complex(mpmath.ellipfun(k, z, m=m)) for k in ("sn", "cn", "dn")]
                got = _jacobi_raw(z, m)
                assert _jacobi_raw(z, m) == got
                for g, r in zip(got, ref):
                    assert abs(g - r) <= 1e-13 * abs(r)
        assert _landen_ladder.cache_info().hits >= hits + 5 * len(zs)

    @pytest.mark.parametrize("eps", [2.0**-52, 1e-15, 1e-14, 1e-13])
    def test_parameter_next_to_1_needs_no_band(self, eps):
        # only m == 1 takes the tanh branch; at m = 1 + eps e^(i phi) the
        # Landen ladder stays at rounding against a 30-digit reference
        # (1.6e-15 at most)
        mpmath = pytest.importorskip("mpmath")
        zs = (0.1 + 0.05j, 0.7 - 0.3j, -0.4 + 0.9j, 1.2 + 0.2j, -0.9 - 0.6j)
        for k in range(5):
            m = 1 + eps * cmath.exp(2j * math.pi * k / 5)
            assert m != 1 and _landen_ladder(m) != ()
            for z in zs:
                with mpmath.workdps(30):
                    ref = [complex(mpmath.ellipfun(q, z, m=m)) for q in ("sn", "cn", "dn")]
                for g, r in zip(_jacobi_raw(z, m), ref):
                    assert abs(g - r) <= 1e-14 * abs(r), (m, z)

    @pytest.mark.parametrize("m", [5e-9, -2.5e-9, 1e-9 + 1e-9j, 1e-3])
    def test_small_parameter_against_mpmath(self, m):
        # arguments over the cell |Re z| <= 2K, |Im z| <= 0.49 2K', up to
        # next to the pole at iK': at most 1.8e-15 relative to 1 + |value|.
        # With no Landen step below LANDEN_TOL the kernel had no pole at
        # iK' (0.27 off at m = 5e-9), and k1 = (1 - k')/(1 + k') cancelled
        # (2.4e-13 off at m = 1e-3)
        mpmath = pytest.importorskip("mpmath")
        from cliftonpohl.special import carlson_rf

        K, Kp = carlson_rf(0, 1 - m, 1), carlson_rf(0, m, 1)
        r = random.Random(9)
        for _ in range(40):
            z = r.uniform(-1, 1) * 2 * K + r.uniform(-0.49, 0.49) * 2j * Kp
            with mpmath.workdps(30):
                ref = [complex(mpmath.ellipfun(k, z, m=m)) for k in ("sn", "cn", "dn")]
            for g, v in zip(_jacobi_raw(z, m), ref):
                assert abs(g - v) <= 1e-14 * (1 + abs(v)), (z, m)

    def test_landen_stop_keeps_the_kernel_at_rounding(self):
        # at points drawn as criterion 7 draws them, against a 30-digit
        # reference: 2.4e-15 at most with the ladder stopped below
        # LANDEN_TOL = 1e-8; stopped below 1e-6, five of these 100 points
        # are off by 1.7e-14 to 1.3e-13
        mpmath = pytest.importorskip("mpmath")
        r = random.Random(7)
        checked = 0
        while checked < 100:
            z, m = rand_complex(r, 0.0, 2.0), rand_complex(r, 0.0, 2.0)
            got = _jacobi_raw(z, m)
            if max(map(abs, got)) > 5.0:
                continue  # too near a lattice pole, as criterion 7 skips it
            checked += 1
            with mpmath.workdps(30):
                ref = [complex(mpmath.ellipfun(k, z, m=m)) for k in ("sn", "cn", "dn")]
            for g, v in zip(got, ref):
                assert abs(g - v) <= 1e-14 * (1 + abs(v)), (z, m)

    def test_landen_ladder_length_over_the_sample_pool(self, monkeypatch):
        # the work of every generic sample: the Landen steps of its m,
        # summed over the 25 germs of the benchmark's sample pool.  83 at
        # LANDEN_TOL = 1e-8; 101 at 1e-12, where one more step buys nothing
        # that the test above can see
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        from inputs import draw_pool

        ms = [solve(germ(*state)).m for state in draw_pool()["germs"]]
        assert sum(len(_landen_ladder(m)[0]) for m in ms) <= 83

    @pytest.mark.parametrize("m", [0, 1, 1.32 + 0.61j, -0.8 + 0.2j], ids=["0", "1", "bench", "complex"])
    def test_ladder_passed_in_changes_no_bit(self, m, seed):
        # a caller at one m looks the ladder up once and passes it in; at
        # m = 1 the ladder is (), which selects sn = tanh, cn = dn = sech
        r = random.Random(seed)
        ladder = _landen_ladder(m)
        assert (ladder == ()) is (m == 1)
        for _ in range(200):
            z = cmath.rect(r.uniform(0, 30), r.uniform(0, 2 * math.pi))
            got = _jacobi_raw(z, m, ladder)
            assert got == _jacobi_raw(z, m)
            if m == 1:
                assert got == (cmath.tanh(z), 1 / cmath.cosh(z), 1 / cmath.cosh(z))

    def test_far_arguments_against_mpmath(self, seed):
        # |z| up to 30 spans dozens of periods; without the reduction
        # modulo 2K and 2iK' the Landen recursion is off by order 1 here.
        # Real m < 0 (a real germ's m, its imaginary part a signed zero)
        # puts K' on the cut of R_F.  The reduced argument inherits the
        # rounding of K and K' (up to 6e-16 relative) times |z|, so the
        # bound allows that much through each function's derivative: at
        # m = -16.6, |z| = 29.6 it is 1.3e-13 relative to 1 + |dn|
        mpmath = pytest.importorskip("mpmath")
        r = random.Random(seed)
        draws = {
            "complex": lambda: cmath.rect(r.uniform(0.1, 3.0), r.uniform(0, 2 * math.pi)),
            "real m < 0": lambda: complex(-r.uniform(0.3, 20.0), r.choice((-0.0, 0.0))),
            "m > 1": lambda: complex(r.uniform(1.05, 5.0), 0.0),
        }
        for kind, draw in draws.items():
            checked = 0
            while checked < 30:
                z, m = cmath.rect(r.uniform(0, 30), r.uniform(0, 2 * math.pi)), draw()
                with mpmath.workdps(30):
                    ref = [complex(mpmath.ellipfun(k, z, m=m)) for k in ("sn", "cn", "dn")]
                if max(map(abs, ref)) > 5:
                    continue
                checked += 1
                sn, cn, dn = ref
                slopes = (cn * dn, sn * dn, m * sn * cn)
                for g, v, dv in zip(_jacobi_raw(z, m), ref, slopes):
                    bound = 1e-13 * (1 + abs(v)) + 1e-15 * abs(z) * abs(dv)
                    assert abs(g - v) <= bound, (kind, z, m)


class TestEllipticF:
    def test_zero(self):
        assert elliptic_F(0, 0.7) == 0

    def test_arcsin_degeneration(self):
        for z in (0.3, 0.5 + 0.2j, -0.6j):
            assert abs(elliptic_F(z, 0) - cmath.asin(z)) < 1e-12

    def test_against_quadrature_oracle(self):
        got = elliptic_F(0.3, 0.5)
        assert abs(got - 0.3070549304957526) < 1e-12  # frozen from quad_F
        assert abs(got - quad_F(0.3, 0.5)) < 1e-12

    def test_complex_against_quadrature(self, seed):
        r = random.Random(seed + 1)
        for _ in range(25):
            z = cmath.rect(r.uniform(0.1, 0.7), r.uniform(0, 2 * math.pi))
            m = cmath.rect(r.uniform(0.0, 0.9), r.uniform(0, 2 * math.pi))
            assert abs(elliptic_F(z, m) - quad_F(z, m)) < 1e-10

    def test_roundtrip(self, seed):
        r = random.Random(seed + 2)
        for _ in range(100):
            z = cmath.rect(r.uniform(0.0, 0.7), r.uniform(0, 2 * math.pi))
            m = cmath.rect(r.uniform(0.0, 0.9), r.uniform(0, 2 * math.pi))
            s, _, _ = _jacobi_raw(elliptic_F(z, m), m)
            assert abs(s - z) < 1e-9

    def test_carlson_rf_rejects_non_finite(self):
        from cliftonpohl.special import carlson_rf

        for bad in (math.nan, math.inf, complex(1, -math.inf)):
            for args in ((bad, 1, 1), (1, bad, 1), (1, 1, bad)):
                with pytest.raises(ValueError):
                    carlson_rf(*args)

    def test_singular_path(self):
        with pytest.raises(SingularPathError):
            elliptic_F(1.5, 0.25)  # branch point t = 1 on the segment
        with pytest.raises(SingularPathError):
            elliptic_F(2.5, 0.25)  # also t = 1/sqrt(m) = 2
        with pytest.raises(SingularPathError):
            elliptic_F(1.0, 0.25)  # the segment ends on t = 1

    @pytest.mark.parametrize("z", [1.5 + 1e-13j, 1.5 - 1e-13j, 2.5 + 1e-15j])
    def test_segment_beside_a_branch_point_is_taken(self, z):
        # F is continuous up to the cut from either side, so only a
        # segment through a branch point is refused, however close another
        # passes: here sn(F) = z to 4.6e-16
        s, _, _ = _jacobi_raw(elliptic_F(z, 0.25), 0.25)
        assert abs(s - z) <= 1e-14
