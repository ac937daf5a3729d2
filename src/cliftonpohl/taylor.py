"""Local power-series expansion of geodesics.

The geodesic equation u'' = 2 u (u')^2 / F with F = u^2 + v^2 (and the
same for v) is used as u'' = u' (u^2)' / F.  Each Taylor order then
costs five Cauchy products: u^2 and v^2 as symmetric self-products
(half the terms each), (u^2)'/F and (v^2)'/F by series division, and
the two products with u' and v'; about 940 complex multiply-adds for an
order-20 series, against nine products per order when F, 1/F, (u')^2
and u (u')^2 are formed apiece.  It also loses fewer digits near the
cone F = 0.  The stepper and every singularity estimate share one
order, ``ORDER``.  Two consumers:

* the continuation stepper, which steps with these coefficients and
  reads its nearest-singularity estimate off them (complex ratio test
  with Richardson acceleration, ``series_estimate``); the completeness
  probe's scan halts on that estimate, and its walk re-expands with
  ``nearest_singularity`` only where that estimate has not converged;
* an exact polynomial mini-step used to move an on-axis germ into
  generic position before classification or solving.
"""

from __future__ import annotations

State = tuple[complex, complex, complex, complex]

#: Taylor order of every integration step and singularity estimate.
#: Probe time is flat from 20 to 24 and grows at lower orders, whose
#: steps are shorter.
ORDER = 20


def geodesic_series(state: State, order: int) -> tuple[list[complex], list[complex]]:
    """Taylor coefficients of (u(t), v(t)) about the state's base time.

    ``state`` is (u, v, u', v'); returns coefficient lists of length
    order+1.  Requires u^2 + v^2 != 0 at the base point.
    """
    n = order
    U = [complex(state[0]), complex(state[2])] + [0j] * (n - 1)
    V = [complex(state[1]), complex(state[3])] + [0j] * (n - 1)
    if n < 2:
        return U[: n + 1], V[: n + 1]

    f0 = U[0] * U[0] + V[0] * V[0]
    if f0 == 0:
        raise ZeroDivisionError("series base point lies on u^2 + v^2 = 0")
    g0 = 1.0 / f0

    # F = u^2 + v^2, dU/dV = derivative series, cu = (u^2)'/F and
    # cv = (v^2)'/F; pass k fills F[k + 1], cu[k], U[k + 2], dU[k + 1]
    F = [f0] + [0j] * n
    dU = [U[1]] + [0j] * (n - 1)
    dV = [V[1]] + [0j] * (n - 1)
    cu = [0j] * n
    cv = [0j] * n
    for k in range(n - 1):
        m = k + 1
        # order m of u^2 and v^2, each a symmetric self-product
        a = b = 0j
        for j in range((m + 1) // 2):
            a += U[j] * U[m - j]
            b += V[j] * V[m - j]
        a += a
        b += b
        if not m & 1:
            a += U[m >> 1] * U[m >> 1]
            b += V[m >> 1] * V[m >> 1]
        F[m] = a + b
        # order k of cu = (u^2)'/F by division, and of u'' = u' cu all
        # but its cu[k] term, in one pass (and the same for v)
        su = m * a
        sv = m * b
        wu = wv = 0j
        for i in range(1, m):
            x = cu[k - i]
            y = cv[k - i]
            su -= F[i] * x
            sv -= F[i] * y
            wu += dU[i] * x
            wv += dV[i] * y
        cu[k] = x = su * g0
        cv[k] = y = sv * g0
        d = 1.0 / ((k + 2) * m)
        U[k + 2] = (wu + dU[0] * x) * d
        V[k + 2] = (wv + dV[0] * y) * d
        dU[m] = (k + 2) * U[k + 2]
        dV[m] = (k + 2) * V[k + 2]
    return U, V


def _horner(coeffs: list[complex], x: complex) -> complex:
    acc = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * x + coeffs[k]
    return acc


def taylor_step(state: State, h: complex, order: int) -> State:
    """Advance a geodesic state by h with a single series evaluation."""
    U, V = geodesic_series(state, order)
    dU = [k * U[k] for k in range(1, order + 1)]
    dV = [k * V[k] for k in range(1, order + 1)]
    return _horner(U, h), _horner(V, h), _horner(dU, h), _horner(dV, h)


def _ratio_estimate(coeffs: list[complex]) -> tuple[complex, float] | None:
    """Nearest-singularity offset from one coefficient sequence.

    Consecutive-coefficient ratios converge to 1/(t* - t0) with an O(1/n)
    bias from the local exponent; Richardson extrapolation removes it.
    Returns (offset, relative spread) or None when there is no usable
    signal (entire solution, constant coordinate, underflow).
    """
    n = len(coeffs) - 1
    ratios: list[tuple[int, complex]] = []
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


def series_estimate(U: list[complex], V: list[complex]) -> tuple[complex, float] | None:
    """Nearest-singularity offset read off the coefficients of (u, v).

    A relative spread above 0.35 rejects an unstable ratio sequence
    (several comparable singularities, or an entire solution).
    """
    ests = [e for e in map(_ratio_estimate, (U, V)) if e is not None and e[1] <= 0.35]
    # trust the steadier sequence; a component that is regular at the
    # other's singularity produces noisy ratios that must not win on a
    # spuriously small offset alone
    return min(ests, key=lambda e: e[1], default=None)


def nearest_singularity(state: State) -> tuple[complex, float] | None:
    """Estimated offset of the closest solution singularity, or None.

    The offset is measured from the state's base time; the series goes
    to ``ORDER``.
    """
    try:
        U, V = geodesic_series(state, ORDER)
    except (ZeroDivisionError, OverflowError):
        return None
    return series_estimate(U, V)
