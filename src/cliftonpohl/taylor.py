"""Local power-series expansion of geodesics.

The geodesic right-hand side is rational in the state, so Taylor
coefficients of a solution follow from Cauchy-product recurrences order
by order.  Three consumers:

* the continuation stepper, which steps with these coefficients and
  reads its own nearest-singularity estimate off them;
* an exact polynomial mini-step used to move an on-axis germ into
  generic position before classification;
* a nearest-singularity estimator (complex ratio test with Richardson
  acceleration) used by the completeness probe to localize obstructions
  that sit near, but not on, an integration ray.
"""

from __future__ import annotations

State = tuple[complex, complex, complex, complex]

#: Series order of ``nearest_singularity``.
ESTIMATE_ORDER = 26


def geodesic_series(state: State, order: int) -> tuple[list[complex], list[complex]]:
    """Taylor coefficients of (u(t), v(t)) about the state's base time.

    ``state`` is (u, v, u', v'); returns coefficient lists of length
    order+1.  Requires u^2 + v^2 != 0 at the base point.
    """
    u0, v0, du0, dv0 = state
    n = order
    U = [0j] * (n + 1)
    V = [0j] * (n + 1)
    U[0], V[0] = complex(u0), complex(v0)
    if n >= 1:
        U[1], V[1] = complex(du0), complex(dv0)
    if n < 2:
        return U, V

    f0 = U[0] * U[0] + V[0] * V[0]
    if f0 == 0:
        raise ZeroDivisionError("series base point lies on u^2 + v^2 = 0")

    # running product coefficients, each extended by one order per pass:
    # F = u^2+v^2, G = 1/F, dU/dV = derivative series,
    # p = (u')^2, q = u p (and the v analogues)
    F = [f0]
    G = [1.0 / f0]
    dU = [U[1]]
    dV = [V[1]]
    p_u = [U[1] * U[1]]
    p_v = [V[1] * V[1]]
    q_u = [U[0] * p_u[0]]
    q_v = [V[0] * p_v[0]]

    for k in range(n - 1):
        if k >= 1:
            fk = 0j
            for j in range(k + 1):
                fk += U[j] * U[k - j] + V[j] * V[k - j]
            F.append(fk)
            gk = 0j
            for j in range(1, k + 1):
                gk += F[j] * G[k - j]
            G.append(-G[0] * gk)
            pu = pv = 0j
            for j in range(k + 1):
                pu += dU[j] * dU[k - j]
                pv += dV[j] * dV[k - j]
            p_u.append(pu)
            p_v.append(pv)
            qu = qv = 0j
            for j in range(k + 1):
                qu += U[j] * p_u[k - j]
                qv += V[j] * p_v[k - j]
            q_u.append(qu)
            q_v.append(qv)
        wu = wv = 0j
        for j in range(k + 1):
            wu += q_u[j] * G[k - j]
            wv += q_v[j] * G[k - j]
        U[k + 2] = 2.0 * wu / ((k + 2) * (k + 1))
        V[k + 2] = 2.0 * wv / ((k + 2) * (k + 1))
        dU.append((k + 2) * U[k + 2])
        dV.append((k + 2) * V[k + 2])
    return U, V


def taylor_step(state: State, h: complex, order: int = 4) -> State:
    """Advance a geodesic state by h with a single series evaluation."""
    U, V = geodesic_series(state, order)
    u = sum(U[k] * h**k for k in range(order + 1))
    v = sum(V[k] * h**k for k in range(order + 1))
    du = sum(k * U[k] * h ** (k - 1) for k in range(1, order + 1))
    dv = sum(k * V[k] * h ** (k - 1) for k in range(1, order + 1))
    return u, v, du, dv


def _ratio_estimate(coeffs: list[complex]) -> tuple[complex, float] | None:
    """Nearest-singularity offset from one coefficient sequence.

    Consecutive-coefficient ratios converge to 1/(t* - t0) with an O(1/n)
    bias from the local exponent; Richardson extrapolation removes it.
    Returns (offset, relative spread) or None when there is no usable
    signal (entire solution, constant coordinate, underflow).
    """
    n = len(coeffs) - 1
    ratios: list[tuple[int, complex]] = []
    for k in range(max(2, n - 10), n):
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
    best: tuple[complex, float] | None = None
    for seq in (accel, raw):
        tail = seq[-4:]
        mean = sum(tail, 0j) / len(tail)
        if abs(mean) < 1e-12:
            continue
        spread = max(abs(a - mean) for a in tail) / abs(mean)
        if best is None or spread < best[1]:
            best = (1.0 / mean, spread)
    return best


def series_estimate(
    U: list[complex], V: list[complex], max_spread: float = 0.35
) -> tuple[complex, float] | None:
    """Nearest-singularity offset read off the coefficients of (u, v).

    ``max_spread`` rejects unstable ratio sequences (several comparable
    singularities, or an entire solution).
    """
    ests = []
    for coeffs in (U, V):
        est = _ratio_estimate(coeffs)
        if est is not None and est[1] <= max_spread:
            ests.append(est)
    if not ests:
        return None
    # trust the steadier sequence; a component that is regular at the
    # other's singularity produces noisy ratios that must not win on a
    # spuriously small offset alone
    ests.sort(key=lambda e: e[1])
    best = ests[0]
    for other in ests[1:]:
        if abs(other[0]) < 0.6 * abs(best[0]):
            best = other
    return best


def nearest_singularity(state: State) -> tuple[complex, float] | None:
    """Estimated offset of the closest solution singularity, or None.

    The offset is measured from the state's base time; the series goes
    to ``ESTIMATE_ORDER``.
    """
    try:
        U, V = geodesic_series(state, ESTIMATE_ORDER)
    except (ZeroDivisionError, OverflowError):
        return None
    return series_estimate(U, V)
