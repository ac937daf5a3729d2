"""Series expansion of geodesics and the nearest-singularity estimator."""

import cmath
import math
import random
import statistics
from types import SimpleNamespace

import pytest

from cliftonpohl import continuation, taylor
from cliftonpohl.acceptance import random_generic_germ
from cliftonpohl.continuation import TAIL_FACTOR
from cliftonpohl.manifold import germ
from cliftonpohl.taylor import (
    MAX_SPREAD,
    ORDER,
    _jet,
    geodesic_series,
    nearest_singularity,
)


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


def loop_series(state, order, null=None):
    """The energy-integral recurrence as a loop over orders, kept as the
    reference the generated kernel must match bit for bit: U, V and their
    derivative series dU, dV.  ``null`` picks the recurrence as the
    kernel does: by default a state with v' == 0 runs the null one, which
    leaves v out, and one with u' == 0 runs it with u and v swapped;
    ``null=False`` runs the generic one on any state."""
    if null is None:
        null = state[3] == 0 or state[2] == 0
        if null and state[3] != 0:
            V, U, dV, dU = loop_series((state[1], state[0], state[3], state[2]), order, True)
            return U, V, dU, dV
    n = order
    U = [complex(state[0]), complex(state[2])] + [0j] * (n - 1)
    V = [complex(state[1]), complex(state[3])] + [0j] * (n - 1)
    dU = [U[1]] + [0j] * (n - 1)
    dV = [V[1]] + [0j] * (n - 1)
    if n < 2:
        return U[: n + 1], V[: n + 1], dU[:n], dV[:n]

    f0 = U[0] * U[0] + V[0] * V[0]
    if f0 == 0:
        raise ZeroDivisionError("series base point lies on u^2 + v^2 = 0")
    g0 = 1.0 / f0

    # p = u'/u'(0) and q = v'/v'(0), whose derivatives P and Q satisfy
    # P q = g0 (u^2)' and Q p = g0 (v^2)'; pass k fills P[k], p[k + 1],
    # dU[k + 1] and U[k + 2] (and the same for v).  The null recurrence
    # has q = 1 and fills only the u lists
    P, Q = [0j] * n, [0j] * n
    p, q = [0j] * n, [0j] * n
    coords = ((U, P, p, dU, q),) if null else ((U, P, p, dU, q), (V, Q, q, dV, p))
    for k in range(n - 1):
        m = k + 1
        G = m * g0
        for C, D, d, dC, other in coords:
            # order m of C^2, a symmetric self-product: twice the half-sum
            # s, plus the middle square at even m; each sum starts from
            # its first term, as the kernel's expressions do
            s = C[0] * C[m]
            for j in range(1, (m + 1) // 2):
                s += C[j] * C[m - j]
            a = s + s
            if not m & 1:
                a += C[m >> 1] * C[m >> 1]
            D[k] = a * G
            if k and not null:
                conv = D[0] * other[k]
                for i in range(1, k):
                    conv += D[i] * other[k - i]
                D[k] -= conv
            d[m] = D[k] * (1.0 / m)
            dC[m] = C[1] * d[m]
            C[m + 1] = dC[m] * (1.0 / (m + 1))
    return U, V, dU, dV


def loop_tail_step(coeffs, tol):
    """Largest h whose last two series terms stay below the tail target:
    the stepper's step rule as a loop, kept as the reference the
    generated step length must match bit for bit."""
    eps = TAIL_FACTOR * tol * (1.0 + abs(coeffs[0]))
    h = math.inf
    for k in (len(coeffs) - 2, len(coeffs) - 1):
        a = abs(coeffs[k])
        if a > 0.0:
            h = min(h, (eps / a) ** (1.0 / k))
    return h


def loop_horner(coeffs, x):
    """The series summed at x as a loop, the reference of the generated update."""
    acc = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * x + coeffs[k]
    return acc


def _ratio_estimate(coeffs):
    """Nearest-singularity offset from one coefficient sequence, as a
    loop: the reference of the generated estimate.

    Consecutive-coefficient ratios converge to 1/(t* - t0) with an O(1/n)
    bias from the local exponent; Richardson extrapolation removes it.
    Returns (offset, relative spread) or None when there is no usable
    signal (entire solution, constant coordinate, underflow).
    """
    n = len(coeffs) - 1
    ratios = []
    # both tails below read only the last five ratios
    for k in range(max(2, n - 5), n):
        a, b = coeffs[k], coeffs[k + 1]
        if abs(a) < 1e-280 or abs(b) < 1e-280:
            return None
        ratios.append((k, b / a))
    if len(ratios) < 5:
        return None
    accel = [r1 + k1 * (r1 - r0) for (_, r0), (k1, r1) in zip(ratios, ratios[1:])]
    raw = [r for _, r in ratios]
    # a comparably-distant second singularity makes the accelerated
    # sequence oscillate; keep whichever tail is steadier
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


def loop_estimate(U, V):
    """The jet's ``estimate`` as a loop: the steadier of the two sequences'
    estimates with spread at most ``MAX_SPREAD``."""
    ests = [e for e in map(_ratio_estimate, (U, V)) if e is not None and e[1] <= MAX_SPREAD]
    return min(ests, key=lambda e: e[1], default=None)


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
    jet = _jet(4)
    st = jet.advance(*jet.series((1, 0, 1, 0)), 1e-3)
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
    # list the steps of three probes build, the estimate is bit-identical
    # to the one over ten ratios
    lists = []
    jet = _jet(ORDER)
    real = jet.series

    def collect(y):
        out = real(y)
        lists.extend(out[:2])
        return out

    monkeypatch.setattr(jet, "series", collect)
    for state in ((1.3, -0.7, 0.9, 1.1), (1.5, 0.6, -0.8, 1.3), (0, 1, 1, 0)):
        continuation.completeness_probe(germ(*state), 5.0, 16, 1e-9)
    got = [_ratio_estimate(c) for c in lists]
    assert len(lists) > 1000 and sum(e is not None for e in got) > len(lists) // 2
    assert got == [ten_ratio_estimate(c) for c in lists]


def test_max_spread_keeps_noisy_estimates_from_halting(monkeypatch):
    # the estimate refuses a ratio sequence whose relative spread exceeds
    # MAX_SPREAD.  At 64 rays the rays of draws 13, 15 and 17 (counting
    # from 0) of random_generic_germ(Random(77)) walk 101 times, 7 of them
    # from estimates whose walks find nothing.  A jet compiled with no cap
    # walks from 6 more such estimates (13), every one a walk that finds
    # nothing, and finds the same points.  (Over draws 0-27 the walks that
    # find nothing are 137 at 0.35, 147 at 0.5 and 323 with no cap, and
    # with no cap draws 16 and 24 lose 2 points each: ROADMAP item 12)
    r = random.Random(77)
    draws = [random_generic_germ(r) for _ in range(18)]
    germs = [draws[i] for i in (13, 15, 17)]
    real_walk = continuation._walk_localize

    def probe(jet):
        missed = [0]

        def walk(*args):
            loc = real_walk(*args)
            missed[0] += loc is None
            return loc

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(continuation, "_walk_localize", walk)
            mp.setattr(continuation, "_jet", lambda order: jet)
            reports = [continuation.completeness_probe(g, 5.0, 64, 1e-9) for g in germs]
        return missed[0], reports

    missed, reports = probe(_jet(ORDER))
    monkeypatch.setattr(taylor, "MAX_SPREAD", math.inf)
    loose_missed, loose = probe(_jet.__wrapped__(ORDER))
    assert missed <= 7 and loose_missed > missed, (missed, loose_missed)
    for rep, other in zip(reports, loose):
        assert len(rep.obstructions) == len(other.obstructions)
        for p in rep.obstructions:
            assert min(abs(p - q) for q in other.obstructions) < 1e-9


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

    def test_agrees_on_null_states(self):
        # NullTan k tan(a t + b) with |a| up to 12 and NullRational
        # 1/(C - B t), each with v' = 0 and with u and v swapped (u' = 0)
        r = random.Random(13)
        for i in range(60):
            if i % 2:
                k, b = _gauss(r), complex(r.uniform(-1.5, 1.5), r.uniform(-1, 1))
                a = cmath.rect(r.uniform(0.5, 12), r.uniform(0, 2 * math.pi))
                s = (k * cmath.tan(b), k, k * a / cmath.cos(b) ** 2, 0j)
            else:
                B, C = _gauss(r), cmath.rect(r.uniform(0.3, 3), r.uniform(0, 2 * math.pi))
                s = (1 / C, 0j, B / C**2, 0j)
            for state in (s, (s[1], s[0], s[3], s[2])):
                for order in (2, 3, 8, 20, 26):
                    ref = reference_series(state, order)
                    assert scaled_error(geodesic_series(state, order), ref) <= 1e-12, (state, order)

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


def _identity_states():
    """Seeded states: generic ones with |u| from 1e-3 to 1e12, near-cone
    ones with |u^2 + v^2| down to 1e-6 (|u|^2 + |v|^2), real ones (whose
    products carry signed zeros), states built of signed zeros and a few
    exact values, and a few that overflow."""
    r = random.Random(23)
    states = []
    for i in range(300):
        scale = 10 ** r.uniform(-3, 12)
        u, v = scale * _gauss(r), scale * _gauss(r)
        if i % 3 == 1:
            v = 1j * u * (1 + 10 ** r.uniform(-6, -1))
            states.append((u, v, _gauss(r), _gauss(r)))
        elif i % 3 == 2:
            states.append(tuple(r.gauss(0, 1) * w for w in (scale, scale, 1.0, 1.0)))
        else:
            states.append((u, v, _gauss(r), _gauss(r)))
    # parts drawn from a few exact values, signed zeros among them
    parts = (0.0, -0.0, 0.5, -1.0, -2.0)
    for _ in range(100):
        states.append(tuple(complex(r.choice(parts), r.choice(parts)) for _ in range(4)))
    # velocities whose coefficients overflow to inf and nan
    for e in (100, 150, 200, 250, 300):
        states.append((_gauss(r), _gauss(r), 10.0**e * _gauss(r), 10.0**e * _gauss(r)))
    return states


def _null_states():
    """States with v' = 0 or u' = 0, each zero part +0.0 or -0.0: from
    every fourth identity state (generic, near-cone, real, signed-zero
    and overflowing ones) and from velocities that overflow."""
    r = random.Random(29)
    zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
    states = []
    for i, s in enumerate(_identity_states()[::4]):
        z = zeros[i % 4]
        states.append((s[0], s[1], s[2], z) if i % 2 else (s[0], s[1], z, s[3]))
    for e in (100, 150, 200, 250, 300):
        big = 10.0**e * _gauss(r)
        states.append((_gauss(r), _gauss(r), big, r.choice(zeros)))
        states.append((_gauss(r), _gauss(r), r.choice(zeros), big))
    return states


def _step_outcome(step, estimate, U, V, dU, dV, tol, x, form=repr):
    """What the stepper makes of a series: the step length, whether the
    state at x is not finite (and the state if it is), and the estimate,
    each by ``form``; an exception counts by its type."""
    try:
        h = step.length(U, V, dU, dV, tol=tol)
    except ArithmeticError as e:
        h = type(e).__name__
    y = step.advance(U, V, dU, dV, x)
    not_finite = not all(map(cmath.isfinite, y))
    return form(h), not_finite, None if not_finite else form(y), form(estimate(U, V))


#: The loop forms of the step length and update.
LOOP_STEP = SimpleNamespace(
    length=lambda U, V, dU, dV, tol: min(loop_tail_step(c, tol) for c in (U, V, dU, dV)),
    advance=lambda U, V, dU, dV, x: tuple(loop_horner(c, x) for c in (U, V, dU, dV)),
)


@pytest.mark.parametrize("order", [2, 3, 8, 20, 26])
def test_kernel_matches_loop_bit_for_bit(order, monkeypatch):
    # repr equality counts signed zeros, inf and nan, which == would not.
    # The generated series, step length, update and estimate must match
    # their loop forms on every state.  A null state's series must equal
    # the generic recurrence's in value wherever that is finite (the sign
    # of a zero may differ); where it is not, the generic V (or U) can be
    # NaN where the null one is 0, and the step outcome must still be the
    # same
    states = _identity_states()
    cone = [s for s in states[1::3] if abs(s[0] ** 2 + s[1] ** 2) < 1e-5 * abs(s[0]) ** 2]
    assert cone and max(abs(s[0]) for s in states) > 1e11
    nulls = _null_states()
    assert all(s[2] == 0 or s[3] == 0 for s in nulls)
    # which recurrence the jet's series runs, True for the null one
    jet, runs, tol = _jet(order), [], 1e-9
    for name, null in (("generic", False), ("null", True)):
        real = getattr(jet, name)
        monkeypatch.setattr(jet, name, lambda s, real=real, null=null: runs.append(null) or real(s))
    # the stepper passes the tail target TAIL_FACTOR * tol
    step = SimpleNamespace(
        length=lambda *lists, tol: jet.length(*lists, TAIL_FACTOR * tol), advance=jet.advance
    )
    r = random.Random(order)
    overflowed = estimates = null_finite = null_overflowed = 0
    for s in states + nulls:
        if s[0] ** 2 + s[1] ** 2 == 0:
            continue
        runs.clear()
        U, V, dU, dV = jet.series(s)
        ref = loop_series(s, order)
        x = cmath.rect(10 ** r.uniform(-4, 0), r.uniform(0, 2 * math.pi))
        null = s[2] == 0 or s[3] == 0
        assert runs == [null], (s, order)
        generic = loop_series(s, order, null=False)
        finite = all(cmath.isfinite(c) for c in generic[0] + generic[1])
        null_finite += null and finite
        null_overflowed += null and not finite
        assert repr((U, V, dU, dV)) == repr(ref), (s, order)
        assert repr((U, V)) == repr(geodesic_series(s, order))
        assert repr(step.advance(U, V, dU, dV, x)) == repr(LOOP_STEP.advance(*ref, x))
        outcome = _step_outcome(step, jet.estimate, U, V, dU, dV, tol, x)
        assert outcome == _step_outcome(LOOP_STEP, loop_estimate, *ref, tol, x)
        if null:
            assert not finite or (U, V, dU, dV) == generic, (s, order)
            same = lambda z: z  # noqa: E731
            outcome = _step_outcome(step, jet.estimate, U, V, dU, dV, tol, x, form=same)
            assert outcome == _step_outcome(LOOP_STEP, loop_estimate, *generic, tol, x, form=same)
        overflowed += not finite
        estimates += jet.estimate(U, V) is not None
    assert overflowed >= 3 and null_finite >= 50 and null_overflowed >= 3
    assert estimates >= (100 if order >= 8 else 0)


@pytest.mark.parametrize("order", [2, 3, 8, 20, 26])
def test_kernel_is_symmetric_in_u_and_v(order):
    # the u and v recurrences mirror each other bit for bit, so swapping
    # u and v in the state swaps U with V and dU with dV, signed zeros,
    # inf and nan included.  A state at rest (u' = v' = 0), which no germ
    # has and no geodesic reaches, runs the v' = 0 variant either way
    # round, whose u lists then hold zeros of either sign
    for s in _identity_states() + _null_states():
        if s[0] ** 2 + s[1] ** 2 == 0 or s[2] == s[3] == 0:
            continue
        U, V, dU, dV = _jet(order).series(s)
        swapped = _jet(order).series((s[1], s[0], s[3], s[2]))
        assert repr(swapped) == repr((V, U, dV, dU)), (s, order)


def test_kernel_refuses_the_cone():
    for order in (2, 20):
        with pytest.raises(ZeroDivisionError):
            _jet(order).series((1.0, 1j, 0.5, 0.3))
        with pytest.raises(ZeroDivisionError):
            loop_series((1.0, 1j, 0.5, 0.3), order)
