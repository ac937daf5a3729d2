"""Spans around the calls that cross between the cliftonpohl modules.

The tracer replaces module attributes with timing wrappers and puts the
originals back on ``remove``; the program itself is not changed.  Each
span is (name, start, end, parent) and spans are kept in flat arrays,
appended in call order, so a span's parent always precedes it and the
spans of one op form one contiguous run of indices.  Self time is a
span's duration minus the durations of its direct children.

Work that happens inside a wrapped call is counted where it can be seen
from outside: accepted integrator steps through the ``collect`` hook of
``_integrate_segment``, scan halts from its returned status, estimator
hits from ``nearest_singularity``'s result, and serialized bytes from
``cli.dumps``.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter

from cliftonpohl import cli, continuation, families, taylor


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.kind = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        # (first span index, op label, kept) per op
        self.ops: list[tuple[int, str, bool]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, after=None):
        nid = self._name_id(name)
        kind, parent, start, end, stack = self.kind, self.parent, self.start, self.end, self.stack

        def traced(*args, **kwargs):
            i = len(start)
            kind.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return traced

    def begin_op(self, label: str) -> tuple[int, dict]:
        """Open the op's root span; returns what ``end_op`` needs."""
        nid = self._name_id("op")
        i = len(self.start)
        self.kind.append(nid)
        self.parent.append(-1)
        self.end.append(0.0)
        self.start.append(perf_counter())
        self.stack[:] = [-1, i]
        self.ops.append((i, label, True))
        return i, dict(self.counts)

    def end_op(self, token: tuple[int, dict], keep: bool) -> None:
        """Close the op; an op whose work depends on timing (a deadline) is dropped."""
        i, counts_before = token
        now = perf_counter()
        # a deadline can interrupt a wrapper between its appends
        n = len(self.kind)
        for arr, fill in ((self.parent, -1), (self.end, 0.0), (self.start, now)):
            arr.extend([fill] * (n - len(arr)))
        for j in range(i, n):
            if self.end[j] == 0.0:  # interrupted before its wrapper could close it
                self.end[j] = now
        self.stack[:] = [-1]
        if not keep:
            self.counts = counts_before
            first, label, _ = self.ops[-1]
            self.ops[-1] = (first, label, False)

    # -- installing

    def install(self) -> None:
        seg = continuation._integrate_segment

        def segment(y, t_from, t_to, tol, collect=None, on_step=None):
            def counted(t, w):
                self.counts["steps"] = self.counts.get("steps", 0) + 1
                if collect is not None:
                    collect(t, w)

            res = seg(y, t_from, t_to, tol, collect=counted, on_step=on_step)
            if res.status == "halted":
                self.count("halts")
            return res

        def ray_done(r):
            self.count("ray_obstructions", len(r.obstructions))
            self.count("blocked_rays", r.status == "Blocked")

        def estimate_done(est):
            self.count("estimates")
            self.count("estimate_hits", est is not None)

        table = [
            (cli, "main", "cli.main", None),
            (cli, "dumps", "cli.dumps", lambda s: self.count("dump_bytes", len(s))),
            (cli, "_write_csv", "cli.csv", None),
            (cli, "continue_path", "continuation.continue_path", None),
            (cli, "completeness_probe", "continuation.probe", None),
            (continuation, "_integrate_segment", "continuation.segment", None, segment),
            (continuation, "_walk_localize", "continuation.walk", None),
            (continuation, "_probe_ray", "continuation.probe_ray", ray_done),
            (continuation, "loop_monodromy", "continuation.loop", None),
            (continuation, "nearest_singularity", "taylor.nearest_singularity", estimate_done),
            (taylor, "geodesic_series", "taylor.geodesic_series", None),
            (families, "solve", "families.solve", None),
            (families, "sample", "families.sample", None),
            (families, "adaptive_segment_integral", "families.quadrature", None),
            (families, "_gl_pair", "families.gl_pair", None),
            (families.GenericEllipticSampler, "_chain", "families.chain", None),
            (families, "_jacobi_raw", "special.jacobi_raw", None),
        ]
        for obj, attr, name, after, *inner in table:
            orig = getattr(obj, attr)
            self._saved.append((obj, attr, orig))
            setattr(obj, attr, self.wrap(name, inner[0] if inner else orig, after))

    def remove(self) -> None:
        while self._saved:
            obj, attr, orig = self._saved.pop()
            setattr(obj, attr, orig)

    # -- reading

    def kept_spans(self):
        """Indices of the spans that belong to kept ops."""
        bounds = [first for first, _, _ in self.ops] + [len(self.start)]
        for (first, _, keep), stop in zip(self.ops, bounds[1:]):
            if keep:
                yield from range(first, stop)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self seconds, durations; over kept ops."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        loop_id = self.names.index("continuation.loop") if "continuation.loop" in self.names else -1
        in_loop = bytearray(n)
        out: dict[str, dict] = {}
        for i in self.kept_spans():
            p = self.parent[i]
            in_loop[i] = self.kind[i] == loop_id or (p >= 0 and in_loop[p])
            rec = out.setdefault(
                self.names[self.kind[i]], {"calls": 0, "self_s": 0.0, "durations": [], "in_loop": 0}
            )
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["self_s"] += dur - child[i]
            rec["durations"].append(dur)
            rec["in_loop"] += in_loop[i]
        return out

    def write(self, directory: Path) -> None:
        """Spans as flat binary arrays plus a JSON index of names and ops."""
        directory.mkdir(parents=True, exist_ok=True)
        op_id = array("q", [-1]) * len(self.start)
        bounds = [first for first, _, _ in self.ops] + [len(self.start)]
        for k, (first, stop) in enumerate(zip(bounds, bounds[1:])):
            op_id[first:stop] = array("q", [k]) * (stop - first)
        for name, arr in (
            ("name", self.kind),
            ("parent", self.parent),
            ("op", op_id),
            ("start", self.start),
            ("end", self.end),
        ):
            with open(directory / f"{name}.{arr.typecode}", "wb") as f:
                arr.tofile(f)
        index = {
            "names": self.names,
            "ops": [{"first": f, "label": lab, "kept": keep} for f, lab, keep in self.ops],
            "spans": len(self.start),
            "format": "one file per field, native-endian array typecode as the suffix",
        }
        (directory / "index.json").write_text(json.dumps(index) + "\n")
