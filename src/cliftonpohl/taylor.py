"""Local power-series expansion of geodesics.

The geodesic equation u'' = 2 u (u')^2 / F with F = u^2 + v^2 (and the
same for v) is used as u'' = u' (u^2)' / F.  Each Taylor order then
costs five Cauchy products: u^2 and v^2 as symmetric self-products
(half the terms each), (u^2)'/F and (v^2)'/F by series division, and
the two products with u' and v', against nine products per order when
F, 1/F, (u')^2 and u (u')^2 are formed apiece.  It also loses fewer
digits near the cone F = 0.

The recurrence runs as straight-line code generated once per order
(``_kernel``), as Jorba & Zou (2005, Exp. Math. 14:99) generate jet code
for a Taylor integrator: every coefficient is a local variable, every
index and constant (the order m, 1/((k + 2) m)) is fixed when the code
is generated, and no list is indexed until the coefficient lists are
returned.  Each sum is written out in the order the loop form of the
recurrence accumulates it, starting from 0j, with the same int and float
constants, so every coefficient is bit-identical to the loop's (inf,
nan and signed zeros included); the tests keep the loop as a reference.
The kernel also returns the derivative series, which the stepper
evaluates as u' and v'.

The stepper and every singularity estimate share one order, ``ORDER``.
Two consumers:

* the continuation stepper, which steps with these coefficients and
  reads its nearest-singularity estimate off them (complex ratio test
  with Richardson acceleration, ``series_estimate``); the completeness
  probe's scan halts on that estimate, and its walk re-expands with
  ``nearest_singularity`` only where that estimate has not converged;
* an exact polynomial mini-step used to move an on-axis germ into
  generic position before classification or solving.
"""

from __future__ import annotations

import math
from functools import lru_cache

State = tuple[complex, complex, complex, complex]

#: Taylor order of every integration step and singularity estimate.
#: Probing the benchmark's six probe germs at 64 rays with the generated
#: kernel takes 1.00-1.15 s at order 16, 0.82-0.87 s at 20, 0.77-0.82 s
#: at 24, 0.83-0.86 s at 26 and 0.87-0.89 s at 28 (medians of five, two
#: rounds, 2-vCPU VM), and finds the same obstructions at each order:
#: lower orders take shorter steps, higher ones cost more per step.
ORDER = 20

#: Relative spread above which a ratio sequence gives no estimate.
MAX_SPREAD = 0.35


def geodesic_series(state: State, order: int) -> tuple[list[complex], list[complex]]:
    """Taylor coefficients of (u(t), v(t)) about the state's base time.

    ``state`` is (u, v, u', v'); returns coefficient lists of length
    order+1.  Requires u^2 + v^2 != 0 at the base point.
    """
    U, V, _, _ = _kernel(order)(state)
    return U, V


@lru_cache(maxsize=None)
def _kernel(order: int):
    """The series recurrence for one order as compiled straight-line code.

    The function returned maps a state (u, v, u', v') to the coefficient
    lists U and V of length order+1 and their derivative series dU and
    dV of length order, dU[k - 1] = k U[k].  Pass k of the recurrence
    fills F[k + 1] = (u^2 + v^2)[k + 1], cu[k] = ((u^2)'/F)[k] by series
    division, U[k + 2] from u'' = u' cu, and dU[k + 1] (the same for v).
    """
    n = order
    body = [
        "u0 = complex(state[0])",
        "v0 = complex(state[1])",
        "u1 = complex(state[2])",
        "v1 = complex(state[3])",
    ]
    if n >= 2:
        body += [
            "f0 = u0 * u0 + v0 * v0",
            "if f0 == 0:",
            "    raise ZeroDivisionError('series base point lies on u^2 + v^2 = 0')",
            "g0 = 1.0 / f0",
        ]
    # the self-products and the u'' sums start from 0j, as the loop's
    # accumulators do: 0j + z differs from z where z has a -0.0 part
    for k in range(n - 1):
        m = k + 1
        for c, s in (("u", "a"), ("v", "b")):
            # order m of u^2, a symmetric self-product
            body.append(
                f"{s} = 0j" + "".join(f" + {c}{j} * {c}{m - j}" for j in range((m + 1) // 2))
            )
            body.append(f"{s} += {s}")
            if not m & 1:
                body.append(f"{s} += {c}{m >> 1} * {c}{m >> 1}")
        body.append(f"F{m} = a + b")
        for c, s, cc in (("u", "a", "cu"), ("v", "b", "cv")):
            # cu[k] = (m a - sum F[i] cu[k - i]) / F[0], then
            # U[k + 2] = (sum dU[i] cu[k - i] + u' cu[k]) / ((k + 2) m)
            body.append(
                f"{cc}{k} = ({m} * {s}"
                + "".join(f" - F{i} * {cc}{k - i}" for i in range(1, m))
                + ") * g0"
            )
            body.append(
                f"{c}{k + 2} = (0j"
                + "".join(f" + d{c}{i} * {cc}{k - i}" for i in range(1, m))
                + f" + {c}1 * {cc}{k}) * {1.0 / ((k + 2) * m)!r}"
            )
            body.append(f"d{c}{m} = {k + 2} * {c}{k + 2}")
    lists = [f"[{', '.join(f'{c}{k}' for k in range(n + 1))}]" for c in "uv"]
    for c in "uv":
        # dU[0] is returned as 1 * u', like every k U[k]; the product
        # differs from u' in the sign of a zero part
        derivs = ([f"1 * {c}1"] if n else []) + [f"d{c}{m}" for m in range(1, n)]
        lists.append(f"[{', '.join(derivs)}]")
    body.append("return " + ", ".join(lists))
    src = "def kernel(state):\n" + "".join(f"    {line}\n" for line in body)
    scope: dict = {}
    exec(compile(src, f"<taylor kernel order {n}>", "exec"), scope)
    return scope["kernel"]


def _horner(coeffs: list[complex], x: complex) -> complex:
    acc = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * x + coeffs[k]
    return acc


def taylor_step(state: State, h: complex, order: int) -> State:
    """Advance a geodesic state by h with a single series evaluation."""
    U, V, dU, dV = _kernel(order)(state)
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

    A relative spread above ``MAX_SPREAD`` rejects an unstable ratio
    sequence (several comparable singularities, or an entire solution).
    """
    ests = [e for e in map(_ratio_estimate, (U, V)) if e is not None and e[1] <= MAX_SPREAD]
    # trust the steadier sequence; a component that is regular at the
    # other's singularity produces noisy ratios that must not win on a
    # spuriously small offset alone
    return min(ests, key=lambda e: e[1], default=None)


def estimate_floor(U: list[complex], V: list[complex]) -> float:
    """A lower bound on |offset| of any estimate ``series_estimate(U, V)`` returns.

    Every ratio a in the tail of an accepted sequence lies within
    ``MAX_SPREAD`` |mean| of its mean, so the offset 1/mean is at least
    (1 - MAX_SPREAD) / |a|.  This takes a as the last ratio of each
    sequence the estimate may come from (raw and accelerated, of U and
    of V), with a margin for rounding.  Costs three coefficients and two
    divisions per component.
    """
    n = len(U) - 1
    top = 0.0
    for c in (U, V):
        c0, c1, c2 = c[n - 2], c[n - 1], c[n]
        if abs(c0) < 1e-280 or abs(c1) < 1e-280 or abs(c2) < 1e-280:
            continue  # _ratio_estimate gives this component no estimate
        r0, r1 = c1 / c0, c2 / c1
        # a NaN ratio is dropped by max; its sequence's spread is NaN too
        top = max(top, abs(r1), abs(r1 + (n - 1) * (r1 - r0)))
    return (1.0 - MAX_SPREAD) * (1.0 - 1e-9) / top if top else math.inf


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
