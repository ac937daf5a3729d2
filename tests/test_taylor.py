"""Series expansion of geodesics and the nearest-singularity estimator."""

import math
import random
import statistics

import pytest

from cliftonpohl import continuation
from cliftonpohl.manifold import germ
from cliftonpohl.taylor import _ratio_estimate, geodesic_series, nearest_singularity, taylor_step


def reference_series(state, order):
    """The nine-product recurrence u'' = 2 u (u')^2 / F, kept as an oracle.

    Each order extends F = u^2 + v^2, G = 1/F, p = (u')^2 and q = u p
    (and the v analogues) by one Cauchy product apiece, then forms
    u'' = 2 q G.  Runs on complex floats or on mpmath numbers.
    """
    U = [0 * state[0]] * (order + 1)
    V = list(U)
    U[0], V[0], U[1], V[1] = state
    F = [U[0] * U[0] + V[0] * V[0]]
    G = [1 / F[0]]
    dU, dV = [U[1]], [V[1]]
    p_u, p_v = [U[1] * U[1]], [V[1] * V[1]]
    q_u, q_v = [U[0] * p_u[0]], [V[0] * p_v[0]]

    def cauchy(a, b, k, start=0):
        return sum((a[j] * b[k - j] for j in range(start, k + 1)), 0 * F[0])

    for k in range(order - 1):
        if k >= 1:
            F.append(cauchy(U, U, k) + cauchy(V, V, k))
            G.append(-G[0] * cauchy(F, G, k, 1))
            p_u.append(cauchy(dU, dU, k))
            p_v.append(cauchy(dV, dV, k))
            q_u.append(cauchy(U, p_u, k))
            q_v.append(cauchy(V, p_v, k))
        U[k + 2] = 2 * cauchy(q_u, G, k) / ((k + 2) * (k + 1))
        V[k + 2] = 2 * cauchy(q_v, G, k) / ((k + 2) * (k + 1))
        dU.append((k + 2) * U[k + 2])
        dV.append((k + 2) * V[k + 2])
    return U, V


def scaled_error(got, ref):
    """Error of the series on the disk of half the reference's ratio-test
    radius, relative to the series' size there.

    Coefficient k is weighted by rho^k, so the error of a coefficient
    counts by what it adds to a step of length rho.
    """
    n = len(ref[0]) - 1
    mags = [max(abs(ref[0][k]), abs(ref[1][k])) for k in range(n + 1)]
    rho = 0.5 * min((mags[k] ** (-1 / k) for k in range(1, n + 1) if mags[k] > 0), default=1.0)
    size = max(m * rho**k for k, m in enumerate(mags))
    err = max(
        abs(complex(g) - complex(r)) * rho**k
        for c in (0, 1)
        for k, (g, r) in enumerate(zip(got[c], ref[c]))
    )
    return err / size


def _gauss(r):
    return complex(r.gauss(0, 1), r.gauss(0, 1))


def test_rational_series():
    # u = 1/(1-t): every Taylor coefficient equals 1
    U, V = geodesic_series((1, 0, 1, 0), 10)
    assert all(abs(c - 1) < 1e-12 for c in U)
    assert all(abs(c) == 0 for c in V)


def test_tan_series():
    U, _ = geodesic_series((0, 1, 1, 0), 7)
    expected = [0, 1, 0, 1 / 3, 0, 2 / 15, 0, 17 / 315]
    assert all(abs(u - e) < 1e-12 for u, e in zip(U, expected))


def test_mini_step_matches_closed_form():
    # order-4 truncation: position error ~h^5, velocity error ~5 h^4
    st = taylor_step((1, 0, 1, 0), 1e-3, order=4)
    assert abs(st[0] - 1 / (1 - 1e-3)) < 5e-15
    assert abs(st[2] - 1 / (1 - 1e-3) ** 2) < 1e-11


def test_singularity_of_rational():
    off, spread = nearest_singularity((1 / 0.7, 0, 1 / 0.49, 0))
    assert abs(off - 0.7) < 1e-10
    assert spread < 1e-10


def test_singularity_of_tan():
    s = (math.tan(1.2), 1.0, 1 / math.cos(1.2) ** 2, 0.0)
    off, _ = nearest_singularity(s)
    assert abs(off - (math.pi / 2 - 1.2)) < 1e-10


def test_tan_from_far_needs_tolerance():
    # two comparably distant poles contaminate the ratios; estimate is
    # coarse but directionally right
    s = (math.tan(0.2), 1.0, 1 / math.cos(0.2) ** 2, 0.0)
    off, spread = nearest_singularity(s)
    assert abs(off - (math.pi / 2 - 0.2)) < 5e-2
    assert spread < 0.35


def test_entire_solution_reports_nothing_close():
    est = nearest_singularity((1, 1, 1, 1))
    assert est is None or abs(est[0]) > 5


def ten_ratio_estimate(coeffs):
    """``_ratio_estimate`` as it was with ten ratios, kept as an oracle."""
    n = len(coeffs) - 1
    ratios = []
    for k in range(max(2, n - 10), n):
        a, b = coeffs[k], coeffs[k + 1]
        if abs(a) < 1e-280 or abs(b) < 1e-280:
            return None
        ratios.append((k, b / a))
    if len(ratios) < 5:
        return None
    accel = [r1 + k1 * (r1 - r0) for (_, r0), (k1, r1) in zip(ratios, ratios[1:])]
    raw = [r for _, r in ratios]
    best = None
    for seq in (accel, raw):
        tail = seq[-4:]
        mean = sum(tail, 0j) / len(tail)
        if abs(mean) < 1e-12:
            continue
        spread = max(abs(a - mean) for a in tail) / abs(mean)
        if best is None or spread < best[1]:
            best = (1.0 / mean, spread)
    return best


def test_ratio_estimate_reads_the_last_five_ratios(monkeypatch):
    # both tails read only the last five ratios; on every coefficient
    # list the steps of three probes read, the estimate is bit-identical
    # to the one over ten ratios
    lists = []
    real = continuation.series_estimate

    def collect(U, V):
        lists.extend((U, V))
        return real(U, V)

    monkeypatch.setattr(continuation, "series_estimate", collect)
    for state in ((1.3, -0.7, 0.9, 1.1), (1.5, 0.6, -0.8, 1.3), (0, 1, 1, 0)):
        continuation.completeness_probe(germ(*state), 5.0, 16, 1e-9)
    got = [_ratio_estimate(c) for c in lists]
    assert len(lists) > 1000 and sum(e is not None for e in got) > len(lists) // 2
    assert got == [ten_ratio_estimate(c) for c in lists]


class TestAgainstReference:
    def test_agrees_away_from_the_cone(self):
        r = random.Random(5)
        states = 0
        while states < 100:
            s = tuple(_gauss(r) for _ in range(4))
            if abs(s[0] ** 2 + s[1] ** 2) < 0.1 * (abs(s[0]) ** 2 + abs(s[1]) ** 2):
                continue
            states += 1
            for order in (2, 3, 8, 20, 26):
                got = geodesic_series(s, order)
                assert len(got[0]) == len(got[1]) == order + 1
                assert scaled_error(got, reference_series(s, order)) <= 1e-12, (s, order)

    @pytest.mark.parametrize("order", [20, 26])
    def test_near_cone_no_less_accurate(self, order):
        # v = i u (1 + eps): u^2 + v^2 cancels to about -2 eps u^2
        mp = pytest.importorskip("mpmath")
        r = random.Random(11)
        new, old = [], []
        for _ in range(30):
            u, du, dv = _gauss(r), _gauss(r), _gauss(r)
            s = (u, 1j * u * (1 + 10 ** r.uniform(-6, -1)), du, dv)
            with mp.workdps(50):
                exact = reference_series(tuple(mp.mpc(z) for z in s), order)
            new.append(scaled_error(geodesic_series(s, order), exact))
            old.append(scaled_error(reference_series(s, order), exact))
        assert statistics.median(new) <= statistics.median(old)
