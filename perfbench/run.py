"""cliftonpohl benchmark: one workload, one process, one caller.

    python3 perfbench/run.py --workload probe|shoot|sample --seed N \\
        --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
Each workload is a closed loop with a single caller: the next op starts
when the previous one has finished.  A run issues whole passes over the
workload's inputs, each pass in an order drawn from ``--seed``, as many
as end nearest to ``--seconds``, so every run measures the same mix of
inputs.  Every op is checked against a ground-truth oracle (see
``oracle.py``); an op fails when it returns a wrong value, refuses at a
regular point, raises an untyped exception, or overruns its deadline,
and refusing with a typed ``CliftonPohlError`` at a true singularity
counts as success.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
in which every op runs once untraced and once with every cross-module
call wrapped in a span, and prints the per-layer metrics of the traced
ops (plus the tracing overhead); its spans are written under
``perfbench/.out``.
The last line of standard output is one JSON object; the lines before
it are a readable report.  When an oracle cannot run (for example a
stale ``reference.json``) the benchmark prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

#: Set-up is measured this many times, in fresh processes, per run.
SETUP_REPEATS = 5


class Deadline(BaseException):
    """An op overran its deadline (BaseException, so the program cannot swallow it)."""


@dataclass
class Op:
    kind: str
    call: object  # () -> result, raises on refusal
    check: object  # (result | BaseException) -> (status, error | None, reason)


# ---------------------------------------------------------------------------
# workloads


class Probe:
    """``cph probe`` of the criterion-8 germs and a null-tangent germ."""

    name = "probe"
    deadline = 30.0

    def __init__(self):
        self.germs = [(s, inputs.germ_json(s)) for s in inputs.PROBE_GERMS]
        self.out = OUT / self.name
        self.out.mkdir(parents=True, exist_ok=True)

    def load_oracle(self) -> None:
        radius = inputs.PROBE_RADIUS + oracle.EDGE_BAND
        self.poles = [oracle.obstruction_set(germ(*s), radius) for s, _ in self.germs]

    def _call(self, germ_text: str):
        path = self.out / "report.json"

        def call():
            rc = cli.main([
                "probe", "--germ", germ_text,
                "--radius", repr(inputs.PROBE_RADIUS), "--rays", str(inputs.PROBE_RAYS),
                "--tol", repr(inputs.PROBE_TOL), "--out", str(path),
            ])
            return rc, path

        return call

    def warm_up(self) -> None:
        self._call(self.germs[-1][1])()

    def ops(self) -> list[Op]:
        out = []
        for (state, text), poles in zip(self.germs, self.poles):
            def check(res, poles=poles):
                if isinstance(res, BaseException):
                    return refused(res, expected=False)
                rc, path = res
                if rc != 0:
                    return "fail", None, f"exit code {rc}"
                rep = json.loads(path.read_text())
                found = [inputs.as_complex(p) for p in rep["obstructions"]]
                err, why = oracle.check_obstructions(found, poles, 0j, inputs.PROBE_RADIUS)
                return ("wrong", None, why) if why else ("ok", err, "")

            out.append(Op("probe", self._call(text), check))
        return out


class Shoot:
    """Shots, halt/detour pairs and loop monodromy along paths."""

    name = "shoot"
    deadline = 5.0

    def __init__(self):
        self.pool = inputs.draw_pool()
        self.out = OUT / self.name
        self.out.mkdir(parents=True, exist_ok=True)

    def load_oracle(self) -> None:
        self.ref = inputs.load_reference()

    def _shoot(self, state, path):
        germ_text = inputs.germ_json(state)
        path_text = json.dumps([inputs.as_pair(w) for w in path])
        out = self.out / "shot.json"

        def call():
            rc = cli.main([
                "shoot", "--germ", germ_text, "--path", path_text,
                "--tol", repr(inputs.SHOT_TOL), "--out", str(out), "--csv",
            ])
            return rc, out

        return call

    def warm_up(self) -> None:
        self._shoot(*self.pool["shots"][0])()

    def ops(self) -> list[Op]:
        C, V = inputs.as_complex, values
        ops = []
        for (state, path), rec in zip(self.pool["shots"], self.ref["shots"]):
            ops.append(Op("shot", self._shoot(state, path), endpoint_check(V(rec["end"]))))
        for (state, pole, halt, detour), rec in zip(self.pool["halts"], self.ref["halts"]):
            ops.append(Op("halt", self._shoot(state, halt), halt_check(pole)))
            ops.append(Op("detour", self._shoot(state, detour), endpoint_check(V(rec["end"]))))
        for rec in self.ref["loops"]:
            g = germ(*map(C, rec["germ"]))
            center, radius = C(rec["center"]), rec["radius"]

            def call(g=g, center=center, radius=radius):
                return continuation.loop_monodromy(g, center, radius)

            ops.append(Op("loop", call, loop_check(V(rec["base"]))))
        return ops


class Sample:
    """Closed-form ``sample`` at targets around generic germs, and at chain roots."""

    name = "sample"
    deadline = 2.0

    def __init__(self):
        self.pool = inputs.draw_pool()
        self.samplers = [families.solve(germ(*s)) for s in self.pool["germs"]]

    def load_oracle(self) -> None:
        self.ref = inputs.load_reference()

    def _call(self, i: int, t: complex):
        sampler = self.samplers[i]

        def call():
            point, (du, dv) = families.sample(sampler, t)
            return point.u, point.v, du, dv

        return call

    def warm_up(self) -> None:
        self._call(*self.pool["targets"][0])()

    def ops(self) -> list[Op]:
        ops = []
        for (i, t), rec in zip(self.pool["targets"], self.ref["targets"]):
            ops.append(Op("target", self._call(i, t), state_check(values(rec[2]))))
        for rec in self.ref["chain_roots"]:
            call = self._call(rec["germ"], inputs.as_complex(rec["t"]))
            if rec["kind"] == "pole":
                ops.append(Op("chain_pole", call, singular_check))
            else:
                ops.append(Op("chain_zero", call, state_check(values(rec["value"]))))
        return ops


WORKLOADS = {w.name: w for w in (Probe, Shoot, Sample)}


# ---------------------------------------------------------------------------
# checks: (status, error against the oracle or None, reason)


def values(rec) -> tuple[complex, ...]:
    return tuple(inputs.as_complex(c) for c in rec)


def refused(exc: BaseException, expected: bool):
    if isinstance(exc, Deadline):
        return "fail", None, "deadline"
    if isinstance(exc, CliftonPohlError):
        return ("ok", None, "") if expected else ("fail", None, f"refused: {exc!r}")
    return "fail", None, f"untyped {exc!r}"


def singular_check(res):
    if isinstance(res, BaseException):
        return refused(res, expected=True)
    return "wrong", None, f"returned {res} at a true singularity"


def value_check(got, ref):
    err = oracle.state_error(got, ref)
    if not err <= oracle.VALUE_TOL:
        return "wrong", err, f"error {err:.3g} against the reference"
    return "ok", err, ""


def _cli_trace(res):
    """(exit code, written trace record) of a shoot op."""
    rc, path = res
    return rc, json.loads(path.read_text())


def state_check(ref):
    def check(res):
        if isinstance(res, BaseException):
            return refused(res, expected=False)
        return value_check(res, ref)

    return check


def endpoint_check(ref):
    def check(res):
        if isinstance(res, BaseException):
            return refused(res, expected=False)
        rc, rec = _cli_trace(res)
        if rc == 3:
            return "fail", None, f"obstructed at {rec['obstruction']['t_star']} on a regular path"
        if rc != 0:
            return "fail", None, f"exit code {rc}"
        end = rec["endpoint"]
        return value_check([inputs.as_complex(end[k]) for k in ("u", "v", "du", "dv")], ref)

    return check


def halt_check(pole: complex):
    def check(res):
        if isinstance(res, BaseException):
            return refused(res, expected=False)
        rc, rec = _cli_trace(res)
        if rc != 3:
            return "wrong", None, f"exit code {rc} on a path through the pole {pole}"
        miss = abs(inputs.as_complex(rec["obstruction"]["t_star"]) - pole)
        if miss > 1e-3 * max(1.0, abs(pole)):
            return "wrong", None, f"halted {miss:.3g} away from the pole {pole}"
        return "ok", None, ""

    return check


def loop_check(ref):
    def check(res):
        if isinstance(res, BaseException):
            return refused(res, expected=False)
        if res.status != "Completed":
            return "fail", None, f"loop {res.status}"
        if res.branch_changed:
            return "wrong", None, "branch change around a pole"
        base = value_check(res.base_state, ref)
        end = value_check(res.end_state, ref)
        return max(base, end, key=lambda c: c[1])

    return check


# ---------------------------------------------------------------------------
# running


class Clock:
    """Per-op deadline raised from SIGALRM while an op is armed."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise Deadline()

    def run(self, call, seconds: float):
        """(result or exception, elapsed seconds)."""
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)
        t = perf_counter()
        try:
            res = call()
            dt = perf_counter() - t
            self.armed = False
        except BaseException as e:  # noqa: BLE001 - classified by the op's check
            dt = perf_counter() - t
            self.armed = False
            if isinstance(e, KeyboardInterrupt):
                raise
            res = e
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return res, dt


@dataclass
class Record:
    kind: str
    seconds: float
    status: str
    error: float | None
    reason: str


def run_pass(ops: list[Op], clock: Clock, deadline: float, tracer=None) -> list[Record]:
    records = []
    for op in ops:
        token = tracer.begin_op(op.kind) if tracer else None
        res, dt = clock.run(op.call, deadline)
        if tracer:
            tracer.end_op(token, keep=not isinstance(res, Deadline))
        status, err, why = op.check(res)
        records.append(Record(op.kind, dt, status, err, why))
    return records


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with at least ten ops beyond it.

    A pass of fewer than 20 ops has no such percentile above the median;
    its maximum is reported instead (percentile 100).
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(passes: list[list[Record]], setup: list[float]) -> tuple[dict, list[str]]:
    recs = [r for p in passes for r in p]
    lat = [r.seconds for r in recs]
    tails = [tail([r.seconds for r in p]) for p in passes]
    errs = [r.error for r in recs if r.status == "ok" and r.error is not None]
    worst = max(errs, default=0.0)
    failed = sum(r.status != "ok" for r in recs)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(recs) / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * statistics.median(t for t, _ in tails), "ms"),
        "accuracy_digits": (-math.log10(max(worst, 1e-17)), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"{len(recs)} ops in {len(passes)} passes of {len(passes[0])}, "
        f"{sum(lat):.2f} s timed; fail_frac {failed / len(recs):.6g} ({failed}/{len(recs)})",
        f"op_tail_ms is p{tails[0][1]:.4g} of each pass ({len(passes[0])} ops), median over passes",
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}",
    ]
    return metrics, notes


def per_layer(tracer, traced: list[Record], untraced: list[Record]) -> dict:
    s = tracer.summary()
    c = tracer.counts

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def self_ms(name):
        return 1e3 * s.get(name, {}).get("self_s", 0.0)

    def p50_ms(name):
        return 1e3 * statistics.median(s[name]["durations"]) if name in s else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    rate = [len(p) / sum(r.seconds for r in p) for p in (untraced, traced)]
    ns, gs, jr = "taylor.nearest_singularity", "taylor.geodesic_series", "special.jacobi_raw"
    return {
        "cli.dumps.self_ms": (self_ms("cli.dumps"), "ms"),
        "cli.dumps.bytes": (c.get("dump_bytes", 0), "bytes"),
        "cli.csv.self_ms": (self_ms("cli.csv"), "ms"),
        "continuation.segment.calls": (calls("continuation.segment"), "count"),
        "continuation.segment.self_ms": (self_ms("continuation.segment"), "ms"),
        "continuation.steps.accepted": (c.get("steps", 0), "count"),
        "continuation.probe_ray.ms_p50": (p50_ms("continuation.probe_ray"), "ms"),
        "continuation.walk.calls": (calls("continuation.walk"), "count"),
        "continuation.walk.self_ms": (self_ms("continuation.walk"), "ms"),
        "continuation.probe.halts": (c.get("halts", 0), "count"),
        "continuation.probe.useful_ratio": (
            ratio(c.get("ray_obstructions", 0), c.get("halts", 0)), "ratio"),
        "continuation.probe.blocked_rays": (c.get("blocked_rays", 0), "count"),
        "continuation.loop.ms_p50": (p50_ms("continuation.loop"), "ms"),
        "continuation.loop.chords": (s.get("continuation.segment", {}).get("in_loop", 0), "count"),
        f"{ns}.calls": (calls(ns), "count"),
        f"{ns}.self_ms": (self_ms(ns), "ms"),
        f"{ns}.hit_ratio": (ratio(c.get("estimate_hits", 0), c.get("estimates", 0)), "ratio"),
        f"{gs}.calls": (calls(gs), "count"),
        f"{gs}.us_per_call": (ratio(1e3 * self_ms(gs), calls(gs)), "us"),
        "families.solve.ms": (1e3 * sum(s.get("families.solve", {}).get("durations", [])), "ms"),
        "families.sample.calls": (calls("families.sample"), "count"),
        "families.quadrature.calls": (calls("families.quadrature"), "count"),
        "families.gl_pair.calls": (calls("families.gl_pair"), "count"),
        "families.gl_pair.self_ms": (self_ms("families.gl_pair"), "ms"),
        "families.chain.calls": (calls("families.chain"), "count"),
        f"{jr}.calls": (calls(jr), "count"),
        f"{jr}.self_ms": (self_ms(jr), "ms"),
        f"{jr}.us_per_call": (ratio(1e3 * self_ms(jr), calls(jr)), "us"),
        "trace.overhead_frac": (1.0 - rate[1] / rate[0], "ratio"),
    }


def measure_setup(args) -> list[float]:
    """Seconds from process start to the first timed op, in fresh processes."""
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        out.append(float(proc.stdout.split()[-1]) - t0)
    return out


def report(name: str, result: dict, notes: list[str], correct: bool, records) -> None:
    for note in notes:
        print(f"{name}: {note}")
    for key, (value, unit) in result.items():
        print(f"{name}: {key} = {value:.6g} {unit}")
    bad = [r for r in records if r.status != "ok"]
    for r in bad[:20]:
        print(f"{name}: {r.status} {r.kind}: {r.reason}")
    if len(bad) > 20:
        print(f"{name}: ... and {len(bad) - 20} more failed ops")
    failed = len(bad)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cliftonpohl benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workload_cls = WORKLOADS[args.workload]

    if args.setup_only:
        workload_cls().warm_up()
        print(perf_counter())
        return 0

    try:
        setup = [] if args.trace else measure_setup(args)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        token = tracer.begin_op("setup")
    try:
        workload = workload_cls()
    finally:
        if tracer:
            tracer.end_op(token, keep=True)
            tracer.remove()
    try:
        workload.load_oracle()
    except (inputs.StaleCache, oracle.OracleError) as e:
        print(f"error: oracle unavailable: {e}", file=sys.stderr)
        return 2
    workload.warm_up()

    rng = random.Random(args.seed)
    clock = Clock()

    def next_pass():
        ops = workload.ops()
        rng.shuffle(ops)
        return ops

    if tracer:
        # each op untraced, then traced, so drift in machine speed cancels
        # out of the overhead
        untraced, traced = [], []
        for op in next_pass():
            untraced += run_pass([op], clock, workload.deadline)
            tracer.install()
            try:
                traced += run_pass([op], clock, workload.deadline, tracer)
            finally:
                tracer.remove()
        tracer.write(OUT / f"trace-{args.workload}")
        records = untraced + traced
        result = per_layer(tracer, traced, untraced)
        notes = [f"{len(traced)} ops traced, {len(tracer.start)} spans"]
    else:
        # whole passes, as many as end nearest to --seconds
        passes = []
        start = perf_counter()
        while True:
            begun = perf_counter()
            passes.append(run_pass(next_pass(), clock, workload.deadline))
            now = perf_counter()
            if now - start + 0.5 * (now - begun) >= args.seconds:
                break
        records = [r for p in passes for r in p]
        result, notes = end_to_end(passes, setup)
    correct = not any(r.status == "wrong" for r in records)
    report(args.workload, result, notes, correct, records)
    return 0


sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))
try:
    from cliftonpohl import CliftonPohlError, cli, continuation, families, germ  # noqa: E402
    import inputs  # noqa: E402
    import oracle  # noqa: E402
    from spans import Tracer  # noqa: E402
except ImportError as e:
    if __name__ == "__main__":
        print(f"error: cannot import the program from {ROOT / 'src'}: {e}", file=sys.stderr)
        raise SystemExit(2)
    raise

if __name__ == "__main__":
    raise SystemExit(main())
