"""Build reference.json: 30-digit values for every shoot and sample input.

Usage (from the repository root; about 30 minutes on 2 cores):

    python3 perfbench/reference.py [--workers 2]

Each value is the geodesic state (u, v, u', v') at the end of a path,
integrated with ``mpmath.odefun`` (a Taylor method) at 30 digits of
working precision along the same straight segments the program uses.
The null-rational halt/detour pairs use their closed form 1/(C - B t),
and loop and chain-root inputs are located here with the oracle, so
the benchmark only reads them.  Run it again whenever ``inputs.py``
draws a different pool; the benchmark refuses a stale file.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mpmath as mp  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
from cliftonpohl import families, germ  # noqa: E402

DPS = 30
ODE_TOL = 1e-20
ODE_DEGREE = 30

#: Loop legs and chain-root paths keep at least this far from other roots.
CLEARANCE = 0.05


def odefun_state(state, waypoints) -> list[list[str]]:
    """State after following the polyline from the germ state, at DPS digits."""
    with mp.workdps(DPS):
        y = [mp.mpc(c) for c in state]
        for a, b in zip(waypoints, waypoints[1:]):
            e = mp.mpc(b) - mp.mpc(a)
            length = abs(e)
            e /= length

            def rhs(s, w, e=e):
                u, v, p, q = w
                f = u * u + v * v
                return [e * p, e * q, e * 2 * u * p * p / f, e * 2 * v * q * q / f]

            sol = mp.odefun(rhs, 0, y, tol=mp.mpf(ODE_TOL), degree=ODE_DEGREE)
            y = sol(length)
        return [[mp.nstr(c.real, DPS), mp.nstr(c.imag, DPS)] for c in y]


def rational_state(state, t) -> list[list[str]]:
    """Closed form of a null-rational geodesic at t (base time 0)."""
    with mp.workdps(DPS):
        a, b, x, y = (mp.mpc(c) for c in state)
        t = mp.mpc(t)
        moving_u = b == 0
        w0, dw0 = (a, x) if moving_u else (b, y)
        B = dw0 / (w0 * w0)
        C = 1 / w0
        w, dw = 1 / (C - B * t), B / (C - B * t) ** 2
        out = (w, 0, dw, 0) if moving_u else (0, w, 0, dw)
        return [[mp.nstr(mp.mpc(c).real, DPS), mp.nstr(mp.mpc(c).imag, DPS)] for c in out]


def _seg_dist(p: complex, a: complex, b: complex) -> float:
    ab = b - a
    s = min(1.0, max(0.0, ((p - a) * ab.conjugate()).real / abs(ab) ** 2))
    return abs(p - (a + s * ab))


def _clears(roots, a: complex, b: complex, skip=None) -> bool:
    return all(_seg_dist(q, a, b) >= CLEARANCE for q, _ in roots if q != skip)


def find_loops() -> list[dict]:
    """Loops around criterion-8 obstructions whose straight base leg clears every root."""
    loops = []
    for state in inputs.LOOP_GERMS:
        g = germ(*state)
        roots = oracle.chain_roots(families.solve(g), g.t0, inputs.LOOP_REACH + 1.0)
        for p, kind in roots:
            if kind != "pole" or abs(p - g.t0) > inputs.LOOP_REACH:
                continue
            gap = min(abs(p - q) for q, _ in roots if q != p)
            rho = min(0.5, 0.4 * gap)
            base = p + rho
            if _clears(roots, g.t0, base, skip=p) and _seg_dist(p, g.t0, base) >= 0.3 * rho:
                loops.append({"germ": state, "center": p, "radius": rho, "base": base})
    return loops[: inputs.MAX_LOOPS]


def find_chain_roots(germs) -> list[dict]:
    """One pole and one zero of the chain, each reachable on a clear straight path."""
    picked = {}
    for i, state in enumerate(germs):
        g = germ(*state)
        roots = oracle.chain_roots(families.solve(g), g.t0, inputs.SAMPLE_RADIUS)
        for p, kind in roots:
            if kind not in picked and _clears(roots, g.t0, p, skip=p):
                picked[kind] = {"germ": i, "t": p, "kind": kind}
        if len(picked) == 2:
            return [picked["pole"], picked["zero"]]
    raise oracle.OracleError("no reachable chain pole and zero in the sample germs")


def _task(job):
    kind, state, waypoints = job
    if kind == "ode":
        return odefun_state(state, waypoints)
    return rational_state(state, waypoints[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args()
    pool = inputs.draw_pool()
    loops = find_loops()
    roots = find_chain_roots(pool["germs"])

    jobs = [("ode", s, path) for s, path in pool["shots"]]
    jobs += [("rational", s, detour) for s, _, _, detour in pool["halts"]]
    jobs += [("ode", lp["germ"], (0j, lp["base"])) for lp in loops]
    jobs += [("ode", pool["germs"][i], (0j, t)) for i, t in pool["targets"]]
    zero = roots[1]
    jobs.append(("ode", pool["germs"][zero["germ"]], (0j, zero["t"])))

    start = time.perf_counter()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(max(1, args.workers)) as workers:
        values = []
        for k, v in enumerate(workers.imap(_task, jobs, chunksize=4)):
            values.append(v)
            if (k + 1) % 50 == 0:
                el = time.perf_counter() - start
                print(f"{k + 1}/{len(jobs)} references, {el:.0f} s", file=sys.stderr)
    it = iter(values)

    P = inputs.as_pair
    out = {
        "pool_seed": inputs.POOL_SEED,
        "input_hash": inputs.pool_hash(pool),
        "dps": DPS,
        "ode_tol": ODE_TOL,
        "shots": [
            {"germ": [P(c) for c in s], "path": [P(w) for w in path], "end": next(it)}
            for s, path in pool["shots"]
        ],
        "halts": [
            {
                "germ": [P(c) for c in s],
                "pole": P(pole),
                "halt": [P(w) for w in halt],
                "detour": [P(w) for w in detour],
                "end": next(it),
            }
            for s, pole, halt, detour in pool["halts"]
        ],
        "loops": [
            {
                "germ": [P(complex(c)) for c in lp["germ"]],
                "center": P(lp["center"]),
                "radius": lp["radius"],
                "base": next(it),
            }
            for lp in loops
        ],
        "germs": [[P(c) for c in s] for s in pool["germs"]],
        "targets": [[i, P(t), next(it)] for i, t in pool["targets"]],
        "chain_roots": [
            {"germ": r["germ"], "t": P(r["t"]), "kind": r["kind"], "value": None}
            for r in roots
        ],
    }
    out["chain_roots"][1]["value"] = next(it)
    inputs.CACHE.write_text(json.dumps(out, indent=0) + "\n")
    print(f"wrote {inputs.CACHE} ({len(jobs)} references)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
