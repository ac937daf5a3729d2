"""Acceptance battery: one function per criterion, one printed line each.

Both ``cph verify`` and tests/test_acceptance.py run these.  Randomized
draws are seeded from the CPH_SEED environment variable (default 0) so
reports are reproducible.
"""

from __future__ import annotations

import cmath
import math
import os
import random
import time
from dataclasses import dataclass

from .continuation import PathPolyline, completeness_probe, continue_path
from .errors import CliftonPohlError
from .families import sample, solve
from .manifold import (
    GeodesicClass,
    GeodesicGerm,
    classify,
    dilate,
    first_integrals,
    geodesic_rhs,
    germ,
    in_domain,
)
from .special import _jacobi_raw, elliptic_F, jacobi_elliptic


def _seed() -> int:
    return int(os.environ.get("CPH_SEED", "0"))


def rng(offset: int = 0) -> random.Random:
    return random.Random(_seed() + 1000003 * offset)


def rand_complex(r: random.Random, lo: float = 0.4, hi: float = 1.6) -> complex:
    return cmath.rect(r.uniform(lo, hi), r.uniform(0.0, 2.0 * math.pi))


def random_generic_germ(r: random.Random) -> GeodesicGerm:
    while True:
        a, b, x, y = (rand_complex(r) for _ in range(4))
        if not in_domain(a, b):
            continue
        if abs(a * y - b * x) < 1e-6 * (abs(a * y) + abs(b * x)):
            continue
        if abs(a + b) < 1e-3 * (abs(a) + abs(b)):
            continue
        fi = first_integrals(germ(a, b, x, y))
        s = fi.A * fi.A * fi.B * fi.B
        if abs(2.0 * fi.A - s) < 1e-3 * (abs(s) + 2.0 * abs(fi.A)):
            continue
        g = germ(a, b, x, y)
        if classify(g).tag is GeodesicClass.GENERIC:
            return g


def random_proportional_germ(r: random.Random) -> GeodesicGerm:
    while True:
        a, b, x = (rand_complex(r) for _ in range(3))
        if not in_domain(a, b):
            continue
        y = b * x / a
        return germ(a, b, x, y)


def random_null_germ(r: random.Random, u_const: bool) -> GeodesicGerm:
    rational = r.random() < 0.5
    while True:
        w0, dw0 = rand_complex(r), rand_complex(r)
        k = 0j if rational else rand_complex(r)
        if not rational and not in_domain(k, w0):
            continue
        if rational and abs(w0) < 0.2:
            continue
        if u_const:
            return germ(k, w0, 0, dw0)
        return germ(w0, k, dw0, 0)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def _result(number, name, passed, detail, t0, budget=None) -> CriterionResult:
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed > budget:
        passed = False
        detail += f"; exceeded {budget:.0f}s budget"
    return CriterionResult(number, name, passed, detail, elapsed)


# ---------------------------------------------------------------------------


def criterion_1() -> CriterionResult:
    """Real incompleteness at t = 1 and the complex detour around it."""
    t0 = time.perf_counter()
    g = germ(1, 0, 1, 0)
    halt = continue_path(g, PathPolyline((0, 2)), 1e-10)
    ok1 = halt.status == "Obstructed" and abs(halt.obstruction.t_star - 1.0) < 1e-3
    det = continue_path(g, PathPolyline((0, 0.5 + 0.5j, 2)), 1e-10)
    ok2 = det.completed and abs(det.endpoint.u - (-1.0)) < 1e-6
    detail = (
        f"halt t*={halt.obstruction.t_star:.6f}, "
        f"detour u(2)={det.endpoint.u:.9f}"
    )
    return _result(1, "incompleteness and complex bypass", ok1 and ok2, detail, t0, 1.0)


_FAMILY_EXEMPLARS = {
    "NullRational": germ(1, 0, 1, 0),
    "NullTan": germ(0, 1, 1, 0),
    "Exponential": germ(1, 1, 2, 2),
    "GenericElliptic": germ(1, 2, 1, 1),
}


def criterion_2() -> CriterionResult:
    """Geodesic-equation residual of every family sampler."""
    t0 = time.perf_counter()
    r = rng(2)
    worst = 0.0
    ok = True
    for family, g in _FAMILY_EXEMPLARS.items():
        s = solve(g)
        assert s.family == family
        count = 0
        while count < 100:
            t = g.t0 + rand_complex(r, 0.05, 1.0)
            try:
                (u, v), (du, dv) = s.position_velocity(t)
                ddu, ddv = s.acceleration(t)
            except CliftonPohlError:
                continue
            if max(abs(u), abs(v), abs(du), abs(dv)) > 1e6:
                continue
            _, _, ru, rv = geodesic_rhs((u, v, du, dv))
            res = max(abs(ddu - ru) / (1 + abs(ddu)), abs(ddv - rv) / (1 + abs(ddv)))
            worst = max(worst, res)
            ok = ok and res < 1e-8
            count += 1
    return _result(2, "closed-form residuals", ok, f"worst residual {worst:.2e}", t0, 5.0)


def criterion_3() -> CriterionResult:
    """First-integral drift along traces for 20 random germs per class."""
    t0 = time.perf_counter()
    r = rng(3)
    # A is the energy integral the series kernel is built on; B is not
    worst_a = worst_b = 0.0
    ok = True
    makers = [
        lambda: random_null_germ(r, True),
        lambda: random_null_germ(r, False),
        lambda: random_proportional_germ(r),
        lambda: random_generic_germ(r),
    ]
    for make in makers:
        for _ in range(20):
            g = make()
            target = g.t0 + 5.0 * cmath.exp(1j * r.uniform(0, 2 * math.pi))
            trace = continue_path(g, PathPolyline((g.t0, target)), 1e-10)
            nonnull = g.x != 0 and g.y != 0
            if nonnull:
                fi = first_integrals(g)
            for s in trace.samples:
                f = s.u * s.u + s.v * s.v
                if nonnull:
                    dA = abs(s.du * s.dv / f - fi.A) / (1.0 + abs(fi.A))
                    dB = abs(s.u / s.du + s.v / s.dv - fi.B) / (1.0 + abs(fi.B))
                    worst_b = max(worst_b, dB)
                    ok = ok and dB < 1e-8
                else:
                    dA = abs(s.du * s.dv) / (1.0 + abs(f))
                worst_a = max(worst_a, dA)
                ok = ok and dA < 1e-8
    detail = f"worst drift A {worst_a:.2e}, B {worst_b:.2e}"
    return _result(3, "first-integral conservation", ok, detail, t0, 30.0)


def criterion_4() -> CriterionResult:
    """Numeric continuation against the generic elliptic chain."""
    t0 = time.perf_counter()
    r = rng(4)
    g = germ(1, 2, 1, 1)
    s = solve(g)
    checked = 0
    worst = 0.0
    ok = True
    attempts = 0
    while checked < 20 and attempts < 400:
        attempts += 1
        t = rand_complex(r, 0.1, 1.0)
        try:
            pt, vel = sample(s, t)
        except CliftonPohlError:
            continue
        trace = continue_path(g, PathPolyline((0, t)), 1e-10)
        if not trace.completed:
            continue
        e = trace.endpoint
        d = max(
            abs(e.u - pt.u), abs(e.v - pt.v), abs(e.du - vel[0]), abs(e.dv - vel[1])
        )
        worst = max(worst, d)
        ok = ok and d < 1e-6
        checked += 1
    ok = ok and checked == 20
    return _result(
        4, "generic oracle agreement", ok, f"{checked} targets, worst {worst:.2e}", t0, 5.0
    )


def criterion_5() -> CriterionResult:
    """Pole localization for the two null families."""
    t0 = time.perf_counter()
    tan_rep = completeness_probe(germ(0, 1, 1, 0), 5.0, 64, 1e-9)
    expected = [math.pi / 2, 3 * math.pi / 2, -math.pi / 2, -3 * math.pi / 2]
    ok = len(tan_rep.obstructions) == 4
    worst = 0.0
    for p in tan_rep.obstructions:
        d = min(abs(p - q) for q in expected)
        worst = max(worst, d)
        ok = ok and d < 1e-4
    rat_rep = completeness_probe(germ(1, 0, 1, 0), 3.0, 64, 1e-9)
    ok = ok and len(rat_rep.obstructions) == 1
    if rat_rep.obstructions:
        d = abs(rat_rep.obstructions[0] - 1.0)
        worst = max(worst, d)
        ok = ok and d < 1e-4
    detail = (
        f"tan: {len(tan_rep.obstructions)} poles, rational: "
        f"{len(rat_rep.obstructions)}, worst offset {worst:.2e}"
    )
    return _result(5, "pole localization", ok, detail, t0)


def criterion_6() -> CriterionResult:
    """Exponential boundary identity and an obstruction-free probe."""
    t0 = time.perf_counter()
    r = rng(6)
    worst = 0.0
    ok = True
    for _ in range(100):
        g = random_proportional_germ(r)
        c = classify(g)
        d = abs(c.discriminant - 2.0)
        worst = max(worst, d)
        ok = ok and d < 1e-12 and c.tag is GeodesicClass.EXPONENTIAL
    rep = completeness_probe(germ(1, 1, 1, 1), 10.0, 64, 1e-9)
    ok = ok and len(rep.obstructions) == 0
    detail = f"worst |disc-2| {worst:.2e}, probe found {len(rep.obstructions)}"
    return _result(6, "exponential boundary identity", ok, detail, t0)


def criterion_7() -> CriterionResult:
    """Jacobi identities, degenerations, and the sn o F round trip."""
    t0 = time.perf_counter()
    r = rng(7)
    ok = True
    worst_id = 0.0
    pts = 0
    while pts < 500:
        z = rand_complex(r, 0.0, 2.0)
        m = rand_complex(r, 0.0, 2.0)
        s, c, d = _jacobi_raw(z, m)
        if max(abs(s), abs(c), abs(d)) > 5.0:
            continue  # too near a lattice pole for an absolute bound
        pts += 1
        tri = jacobi_elliptic(z, m)
        d1, d2 = tri.identity_defects(m)
        worst_id = max(worst_id, d1, d2)
        ok = ok and d1 < 1e-10 and d2 < 1e-10
        t0m = jacobi_elliptic(z, 0)
        dd = max(
            abs(t0m.sn - cmath.sin(z)), abs(t0m.cn - cmath.cos(z)), abs(t0m.dn - 1.0)
        )
        t1m = jacobi_elliptic(z, 1)
        sech = 1.0 / cmath.cosh(z)
        dd = max(
            dd,
            abs(t1m.sn - cmath.tanh(z)),
            abs(t1m.cn - sech),
            abs(t1m.dn - sech),
        )
        worst_id = max(worst_id, dd)
        ok = ok and dd < 1e-10
    worst_rt = 0.0
    for _ in range(100):
        z = rand_complex(r, 0.0, 0.7)
        m = rand_complex(r, 0.0, 0.9)
        F = elliptic_F(z, m)
        s, _, _ = _jacobi_raw(F, m)
        worst_rt = max(worst_rt, abs(s - z))
        ok = ok and abs(s - z) < 1e-9
    detail = f"worst identity {worst_id:.2e}, worst round trip {worst_rt:.2e}"
    return _result(7, "elliptic kernel", ok, detail, t0)


_DISCRETENESS_GERMS = [
    germ(1, 2, 1, 1),
    germ(1.3, -0.7, 0.9, 1.1),
    germ(0.8, 1.7, 1.2, -0.6),
    germ(1.5, 0.6, -0.8, 1.3),
    germ(0.9, -1.4, 1.1, 0.7),
]


def criterion_8() -> CriterionResult:
    """Discreteness evidence: stable, separated obstruction sets."""
    t0 = time.perf_counter()
    ok = True
    details = []
    for g in _DISCRETENESS_GERMS:
        rep64 = completeness_probe(g, 5.0, 64, 1e-9)
        rep128 = completeness_probe(g, 5.0, 128, 1e-9)
        n64, n128 = len(rep64.obstructions), len(rep128.obstructions)
        good = n64 == n128 and n64 > 0
        if rep64.obstructions and n64 >= 2:
            good = good and rep64.min_separation > 0.05
        stable = True
        for p in rep128.obstructions:
            d = min((abs(p - q) for q in rep64.obstructions), default=math.inf)
            stable = stable and d <= 1e-4
        for p in rep64.obstructions:
            d = min((abs(p - q) for q in rep128.obstructions), default=math.inf)
            stable = stable and d <= 1e-4
        ok = ok and good and stable
        details.append(f"{n64}/{n128}")
    return _result(
        8, "discreteness evidence", ok, "counts 64/128 rays: " + ", ".join(details), t0
    )


def criterion_9() -> CriterionResult:
    """Classification and first integrals are dilation invariants."""
    t0 = time.perf_counter()
    r = rng(9)
    germs = [
        germ(1, 0, 1, 0),
        germ(0, 1, 1, 0),
        germ(1, 2, 1, 2),
        germ(1, 2, 1, 1),
    ]
    germs += [random_generic_germ(r) for _ in range(4)]
    germs += [random_proportional_germ(r) for _ in range(4)]
    ok = True
    worst = 0.0
    for g in germs:
        base = classify(g)
        for k in range(-10, 11):
            d = dilate(g, k)
            c = classify(d)
            ok = ok and c.tag is base.tag
            if base.integrals is not None:
                fi0, fi1 = base.integrals, c.integrals
                dd = max(
                    abs(fi1.A - fi0.A) / (1.0 + abs(fi0.A)),
                    abs(fi1.B - fi0.B) / (1.0 + abs(fi0.B)),
                )
                worst = max(worst, dd)
                ok = ok and dd < 1e-12
    return _result(9, "isometry invariance", ok, f"worst drift {worst:.2e}", t0)


_CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
}


def run(numbers: list[int] | None = None) -> list[CriterionResult]:
    unknown = set(numbers or ()) - _CRITERIA.keys()
    if unknown:
        raise ValueError(f"unknown criteria {sorted(unknown)}; known: {sorted(_CRITERIA)}")
    results = []
    for n in numbers or sorted(_CRITERIA):
        res = _CRITERIA[n]()
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        print(
            f"criterion {res.number} ({res.name}): {status} - "
            f"{res.detail} [{res.elapsed:.2f}s]",
            flush=True,
        )
    return results
