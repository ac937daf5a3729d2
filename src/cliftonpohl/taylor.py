"""Local power-series expansion of geodesics.

The geodesic equation u'' = 2 u (u')^2 / F with F = u^2 + v^2 (and the
same for v) keeps the energy u'v'/F constant, so it can be written as
u'' v' = (u'v'/F)(0) (u^2)'.  In p = u'/u'(0) and q = v'/v'(0) that is
p' q = (u^2)'/F(0), and each Taylor order costs three Cauchy products:
u^2 and v^2 as symmetric self-products (half the terms each) and p' q
and q' p, against five when (u^2)'/F is formed by series division and
nine when F, 1/F, (u')^2 and u (u')^2 are formed apiece.  No order
m >= 1 of F is formed, so nothing cancels near the cone F = 0, and
nothing is divided by a velocity component.

Everything a Taylor step computes runs as straight-line code generated
once per order, as Jorba & Zou (2005, Exp. Math. 14:99) generate jet
code for a Taylor integrator, and compiled as one module per order, the
jet (``_jet``): the recurrence (``series``), and the step length
(``length``), Horner update (``advance``) and ratio-test estimate
(``estimate``) that read its coefficients.  Every coefficient is a
local variable, every index and constant (the order m, 1/m, 1/k) is
fixed when the code is generated, and no loop or generator runs.  Each
sum, min and max is written out in the order the loop form of the same
calculation evaluates it, with the same int and float constants, so
every result is bit-identical to the loop's (inf, nan and signed zeros
included); the tests keep the loop forms as references.  Each order of
the recurrence forms one product G = m g0, shared by u and v, and every
sum starts from its first term rather than from 0j.
The recurrence also returns the derivative series, which the update
evaluates as u' and v'.

A geodesic is null exactly when one velocity component vanishes, and
then stays null: for v' = 0 every coefficient of v past the first two is
zero, and the u recurrence is the Riccati equation u' = c (u^2 + v^2)
with c = u'(0)/F(0).  The jet's ``series`` runs a null recurrence
without the v recurrence on such a state (and on u' = 0 by swapping u
and v, under which the recurrence is symmetric bit for bit), at a sixth
of the products of a build; it equals the generic recurrence in value,
not in the sign of every zero.

The stepper and every singularity estimate share one order, ``ORDER``.
Two consumers of the order-``ORDER`` jet:

* the continuation stepper, which steps with these coefficients and
  reads its nearest-singularity estimate off them (complex ratio test
  with Richardson acceleration, Chang & Corliss 1980): the completeness
  probe reads poles in (1/u, 1/v) only, a zero of 1/u or 1/v within a
  step off that step's coefficients by Halley's method, and one past it
  by that estimate on the reciprocal series, that of u or v; it
  builds the series of the germ's own state once per fan, from which
  every ray steps first, and on quiet steps from the series of the ray
  traced before; a collapse carries the estimate of the series it could
  not step with, and Newton in the chart (1/u, 1/v) polishes an
  estimate where it has not converged; no stop re-expands its state,
  and ``nearest_singularity`` serves callers that hold a state but no
  series;
* ``families``, which anchors the chain one step along, the longest at
  a tail of 2^-52, where its anchor at t0 fails (near an axis or beta = -alpha).
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import ModuleType

State = tuple[complex, complex, complex, complex]

#: Taylor order of every integration step and singularity estimate.
#: Probing the benchmark's six probe germs at 64 rays finds the same
#: obstructions at orders 16, 20, 24 and 28, with 5444, 3073, 2062 and
#: 1567 series builds; a build's three products per order grow with the
#: square of the order, so orders 20 to 28 cost about the same.  The
#: worst point lies 2.0e-13, 3.0e-13, 4.2e-13 and 7.8e-13 from the
#: closed-form set: above 20 the probe loses accuracy.
ORDER = 20

#: Relative spread above which a ratio sequence gives no estimate.
MAX_SPREAD = 0.35


def geodesic_series(state: State, order: int) -> tuple[list[complex], list[complex]]:
    """Taylor coefficients of (u(t), v(t)) about the state's base time.

    ``state`` is (u, v, u', v'); returns coefficient lists of length
    order+1.  Requires u^2 + v^2 != 0 at the base point.
    """
    U, V, _, _ = _jet(order).series(state)
    return U, V


def _def(signature: str, body: list[str]) -> str:
    """Source of a function from its signature and body lines."""
    return f"def {signature}:\n" + "".join(f"    {line}\n" for line in body)


@lru_cache(maxsize=None)
def _jet(order: int) -> ModuleType:
    """All generated code of one order, compiled as one module.

    * ``series(state)`` maps a state (u, v, u', v') to the coefficient
      lists U and V of length order+1 and their derivative series dU and
      dV of length order, U[k] = dU[k - 1]/k.  It runs ``generic``, or
      ``null`` on a state with v' == 0 and on one with u' == 0 with u and
      v swapped; either equals the generic lists in value wherever those
      are finite, though a zero may differ in sign.
    * ``length(U, V, dU, dV, tail)`` is the longest step whose last two
      terms of each list stay below tail (1 + |its constant term|) each.
    * ``advance(U, V, dU, dV, x)`` sums the four series at x by Horner's
      rule, giving (u, v, u', v').
    * ``estimate(U, V)`` is the nearest singularity's (offset, relative
      spread) from the base time, or None where no ratio sequence is
      steady (see ``_estimate_source``).
    """
    pick = _def("series(state)", [
        "if state[3] == 0:",
        "    return null(state)",
        "if state[2] == 0:",
        "    V, U, dV, dU = null((state[1], state[0], state[3], state[2]))",
        "    return U, V, dU, dV",
        "return generic(state)",
    ])
    jet = ModuleType(f"taylor jet order {order}")
    jet.inf = math.inf
    # one source at a time, so that no two syntax trees are held at once
    for src in (
        _series_source(order, False), _series_source(order, True), pick,
        _length_source(order), _advance_source(order), _estimate_source(order),
    ):
        exec(compile(src, f"<taylor jet order {order}>", "exec"), vars(jet))
    return jet


def _series_source(n: int, null: bool) -> str:
    """Source of the order-n recurrence.

    The energy u'v'/F is constant along a geodesic, so with
    p = u'/u'(0), q = v'/v'(0) and g0 = 1/F(0) the geodesic equation reads
    p' q = g0 (u^2)' and q' p = g0 (v^2)'.  Pass k fills order k of
    P = p', P[k] = (u^2)[m] G - sum_{i<k} P[i] q[k - i] with m = k + 1 and
    G = m g0 (one product per order, shared by u and v), then
    p[m] = P[k]/m, dU[m] = u' p[m] and U[m + 1] = dU[m]/(m + 1) (the
    same for v), so no order m >= 1 of F is formed and nothing is divided
    by a velocity.  Every sum starts from its first term, not from 0j.
    The null variant drops the v recurrence and has q = 1 (with v' == 0
    the sum holds only zeros), and V and dV are returned as
    [v, v', 0j, ...] and [v', 0j, ...].  Wherever the generic
    recurrence's output on such a state is finite, it equals the null
    variant's in value, but a zero may carry the other sign.
    """
    coords = ("u",) if null else ("u", "v")
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
    for k in range(n - 1):
        m = k + 1
        body.append(f"G = {m} * g0")
        for c in coords:
            o = "v" if c == "u" else "u"
            # order m of u^2, a symmetric self-product: twice the half-sum
            # s, plus the middle square at even m
            body.append("s = " + " + ".join(f"{c}{j} * {c}{m - j}" for j in range((m + 1) // 2)))
            square = "s + s" + ("" if m & 1 else f" + {c}{m >> 1} * {c}{m >> 1}")
            conv = " + ".join(f"P{c}{i} * p{o}{k - i}" for i in range(k))
            body += [
                f"P{c}{k} = ({square}) * G" + (f" - ({conv})" if conv and not null else ""),
                f"p{c}{m} = P{c}{k} * {1.0 / m!r}",
                f"d{c}{m} = {c}1 * p{c}{m}",
                f"{c}{m + 1} = d{c}{m} * {1.0 / (m + 1)!r}",
            ]
    series = {c: [f"{c}{k}" for k in range(n + 1)] for c in "uv"}
    derivs = {c: [f"{c}1", *(f"d{c}{m}" for m in range(1, n))][:n] for c in "uv"}
    if null:
        series["v"] = (["v0", "v1"] + ["0j"] * (n - 1))[: n + 1]
        derivs["v"] = derivs["v"][:1] + ["0j"] * (n - 1)
    lists = [series["u"], series["v"], derivs["u"], derivs["v"]]
    body.append("return " + ", ".join(f"[{', '.join(x)}]" for x in lists))
    return _def(f"{'null' if null else 'generic'}(state)", body)


def _length_source(n: int) -> str:
    """Largest h with |c[k]| h^k <= tail (1 + |c[0]|) for the last two k of each list.

    A zero or NaN coefficient bounds nothing; h is replaced only by a
    strictly smaller bound, as ``min`` does.
    """
    body = ["h = inf"]
    for c, size in (("U", n + 1), ("V", n + 1), ("dU", n), ("dV", n)):
        body.append(f"e = tail * (1.0 + abs({c}[0]))")
        for k in (size - 2, size - 1):
            body += [
                f"a = abs({c}[{k}])",
                "if a > 0.0:",
                f"    x = (e / a) ** (1.0 / {k})",
                "    if x < h:",
                "        h = x",
            ]
    body.append("return h")
    return _def("length(U, V, dU, dV, tail)", body)


def _advance_source(n: int) -> str:
    """Horner sums of U, V, dU and dV at x, each from its last coefficient down."""
    body, sums = [], []
    for c, size in (("U", n + 1), ("V", n + 1), ("dU", n), ("dV", n)):
        names = [f"{c.lower()}{k}" for k in range(size)]
        body.append(f"{', '.join(names)}, = {c}")
        expr = names[-1]
        for name in reversed(names[:-1]):
            expr = f"({expr}) * x + {name}" if " " in expr else f"{expr} * x + {name}"
        sums.append(expr)
    body.append(f"return {', '.join(sums)}")
    return _def("advance(U, V, dU, dV, x)", body)


def _estimate_source(n: int) -> str:
    """Ratio-test estimate from the last six coefficients of U and of V.

    Consecutive-coefficient ratios converge to 1/(t* - t0) with an O(1/n)
    bias from the local exponent; Richardson extrapolation removes it.
    Each list gives its five last ratios r0..r4 and their accelerated
    values r[j] + k (r[j] - r[j - 1]).  A comparably-distant second
    singularity makes the accelerated sequence oscillate, so of the last
    four of each sequence, the one whose relative spread about its mean
    is smaller gives 1/mean.  A list with a coefficient below 1e-280
    (entire solution, constant coordinate, underflow), a mean below
    1e-12 or a spread above ``MAX_SPREAD`` gives nothing; of U and V the
    steadier estimate wins, since a component that is regular at the
    other's singularity produces noisy ratios that must not win on a
    spuriously small offset alone.
    """
    if n < 7:  # fewer than five ratios
        return _def("estimate(U, V)", ["return None"])
    body = []
    for c, out in (("U", "eu"), ("V", "ev")):
        body += [f"{out} = None", f"c0, c1, c2, c3, c4, c5 = {c}[{n - 5}:]"]
        body.append(f"if not ({' or '.join(f'abs(c{j}) < 1e-280' for j in range(6))}):")
        block = [f"r{j} = c{j + 1} / c{j}" for j in range(5)]
        block += [f"a{j} = r{j + 1} + {n - 4 + j} * (r{j + 1} - r{j})" for j in range(4)]
        for seq, first in (("a", 0), ("r", 1)):
            tail = [f"{seq}{j}" for j in range(first, first + 4)]
            block += [f"m = (0j + {' + '.join(tail)}) / 4", "am = abs(m)", "if not am < 1e-12:"]
            spread = [f"s = abs({tail[0]} - m)"]
            for t in tail[1:]:
                spread += [f"d = abs({t} - m)", "if d > s:", "    s = d"]
            spread.append("s = s / am")
            if seq == "a":
                spread.append(f"{out} = (1.0 / m, s)")
            else:
                spread += [f"if {out} is None or s < {out}[1]:", f"    {out} = (1.0 / m, s)"]
            block += [f"    {line}" for line in spread]
        body += [f"    {line}" for line in block]
    body += [
        f"if eu is not None and not eu[1] <= {MAX_SPREAD!r}:",
        "    eu = None",
        f"if ev is None or not ev[1] <= {MAX_SPREAD!r}:",
        "    return eu",
        "if eu is None or ev[1] < eu[1]:",
        "    return ev",
        "return eu",
    ]
    return _def("estimate(U, V)", body)


def nearest_singularity(state: State) -> tuple[complex, float] | None:
    """Estimated offset of the closest solution singularity, or None.

    The offset is measured from the state's base time; the series goes
    to ``ORDER``.
    """
    try:
        U, V = geodesic_series(state, ORDER)
    except (ZeroDivisionError, OverflowError):
        return None
    return _jet(ORDER).estimate(U, V)
