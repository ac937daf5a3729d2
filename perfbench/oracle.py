"""Ground-truth oracles the benchmark checks the program's outputs against.

* Obstruction sets come from the closed-form route: for a generic germ
  the singular times are the roots of 1 + Y^2 on the elliptic chain,
  found by Newton's method on ``GenericEllipticSampler.curve_point``
  from a grid of start points and tagged by the residue of
  ``log_rates``.  A residue of -1 in omega' = u'/u or eta' = v'/v is a
  pole of u or v (an obstruction); +1 is a zero of u or v, which the
  geodesic passes through (removable).  Null germs use ``poles_within``.
* Values along paths come from a 30-digit ``mpmath.odefun`` reference,
  cached in ``reference.json`` by ``reference.py``.

Both routes are independent of ``continuation``, the module the probe
and the shots exercise.
"""

from __future__ import annotations

import cmath
import math

from cliftonpohl import PoleError, families

#: Newton start-point spacing; well below the distance between roots.
GRID_STEP = 0.25

#: Two Newton limits closer than this are the same root.
ROOT_MERGE = 1e-7

#: A reported obstruction must lie this close to a tagged pole.
MATCH_TOL = 1e-6

#: Tagged poles closer than this to the probe circle may be reported or not.
EDGE_BAND = 1e-2

#: A returned value further than this from the reference (mixed
#: absolute/relative, per component) is a wrong value.
VALUE_TOL = 1e-6


class OracleError(RuntimeError):
    """The oracle could not produce a trustworthy answer."""


def _newton_root(sampler, t: complex, target: complex, t0: complex, reach: float):
    for _ in range(50):
        try:
            Y, Yp = sampler.curve_point(t)
        except PoleError:
            return None
        slope = sampler.D * Yp
        if slope == 0:
            return None
        step = (Y - target) / slope
        t -= step
        if not (math.isfinite(t.real) and math.isfinite(t.imag)) or abs(t - t0) > reach:
            return None
        if abs(step) < 1e-14 * (1.0 + abs(t)):
            return t
    return None


def _residues(sampler, p: complex, rho: float) -> tuple[complex, complex]:
    """Residues of (omega', eta') at p by the trapezoid rule on |t - p| = rho."""
    n = 64
    ru = rv = 0j
    for k in range(n):
        w = rho * cmath.exp(2j * math.pi * k / n)
        od, ed = sampler.log_rates(p + w)
        ru += od * w
        rv += ed * w
    return ru / n, rv / n


def chain_roots(sampler, t0: complex, radius: float) -> list[tuple[complex, str]]:
    """Roots of 1 + Y^2 within ``radius`` of t0, each tagged "pole" or "zero"."""
    reach = radius + 0.5
    roots: list[complex] = []
    n = int(reach / GRID_STEP) + 1
    for i in range(-n, n + 1):
        for j in range(-n, n + 1):
            start = t0 + complex(i, j) * GRID_STEP
            if abs(start - t0) > reach:
                continue
            for target in (1j, -1j):
                t = _newton_root(sampler, start, target, t0, 2.0 * reach)
                if t is not None and abs(t - t0) <= radius and all(
                    abs(t - q) > ROOT_MERGE for q in roots
                ):
                    roots.append(t)
    tagged = []
    for p in sorted(roots, key=lambda z: (z.real, z.imag)):
        gap = min((abs(p - q) for q in roots if q is not p), default=1.0)
        ru, rv = _residues(sampler, p, min(0.1, 0.3 * gap))
        res = []
        for r in (ru, rv):
            k = round(r.real)
            if abs(r - k) > 1e-6 or k not in (-1, 0, 1):
                raise OracleError(f"residue {r} at root {p} is not -1, 0 or +1")
            res.append(k)
        if sorted(res) not in ([-1, 0], [0, 1]):
            raise OracleError(f"unexpected residue pair {res} at root {p}")
        tagged.append((p, "pole" if -1 in res else "zero"))
    return tagged


def obstruction_set(g, radius: float) -> list[complex]:
    """True obstructions of germ g within ``radius`` of its base time."""
    sampler = families.solve(g)
    if isinstance(sampler, families.GenericEllipticSampler):
        return [p for p, kind in chain_roots(sampler, g.t0, radius) if kind == "pole"]
    return sampler.poles_within(g.t0, radius)


def check_obstructions(
    reported: list[complex], poles: list[complex], t0: complex, radius: float
) -> tuple[float, str | None]:
    """Worst location error of a probe report, and why it is wrong (or None).

    ``poles`` must cover the disk of radius ``radius + EDGE_BAND``.
    """
    worst = 0.0
    for q in reported:
        d = min((abs(q - p) for p in poles), default=math.inf)
        if d > MATCH_TOL:
            return d, f"reported {q} is {d:.3g} from every true obstruction"
        worst = max(worst, d)
    for p in poles:
        if abs(p - t0) <= radius - EDGE_BAND and not any(
            abs(q - p) <= MATCH_TOL for q in reported
        ):
            return math.inf, f"missed the obstruction at {p}"
    return worst, None


def state_error(got, ref) -> float:
    """Largest per-component error, relative to 1 + |reference|."""
    return max(abs(complex(a) - b) / (1.0 + abs(b)) for a, b in zip(got, ref))
