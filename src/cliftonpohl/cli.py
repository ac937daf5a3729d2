"""Command-line surface: shoot, classify, probe, verify.

Outputs are deterministic: fixed field order, and each float in its shortest
form that reads back as the same double (signed zeros kept), so identical
inputs give byte-identical files.  Complex numbers are always [re, im].

Exit codes: 0 success/Completed, 2 malformed input or unwritable output,
3 Obstructed shoot, 4 out-of-domain germ.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path

from . import __version__
from .continuation import (
    ContinuationTrace,
    ObstructionReport,
    PathPolyline,
    TraceSample,
    completeness_probe,
    continue_path,
)
from .errors import CliftonPohlError, OutOfDomainError
from .manifold import GeodesicGerm, classify, germ as make_germ

DEFAULT_TOL = 1e-10


# ---------------------------------------------------------------------------
# deterministic JSON


def _pair(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"unserializable {type(obj)}")


def dumps(obj) -> str:
    """Compact JSON with complex numbers as [re, im]; NaN and infinity raise ValueError."""
    return json.dumps(obj, default=_pair, separators=(",", ":"), allow_nan=False)


# ---------------------------------------------------------------------------
# input parsing


class InputError(Exception):
    pass


def _load_spec(arg: str):
    text = arg.strip()
    if not (text.startswith("{") or text.startswith("[")):
        p = Path(text[1:] if text.startswith("@") else text)
        try:
            text = p.read_text()
        except OSError as e:
            raise InputError(f"cannot read {p}: {e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"bad JSON: {e}") from None


def _as_complex(v, what: str) -> complex:
    if (
        not isinstance(v, list)
        or len(v) != 2
        or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in v)
    ):
        raise InputError(f"{what} must be a two-element [re, im] array")
    return complex(float(v[0]), float(v[1]))


def parse_germ(arg: str) -> GeodesicGerm:
    rec = _load_spec(arg)
    if not isinstance(rec, dict):
        raise InputError("germ must be a JSON object")
    missing = {"alpha", "beta", "x", "y"} - rec.keys()
    if missing:
        raise InputError(f"germ record missing fields: {sorted(missing)}")
    vals = {k: _as_complex(rec[k], f"germ.{k}") for k in ("alpha", "beta", "x", "y")}
    t0 = _as_complex(rec["t0"], "germ.t0") if "t0" in rec else 0j
    try:
        return make_germ(vals["alpha"], vals["beta"], vals["x"], vals["y"], t0)
    except ValueError as e:
        raise InputError(str(e)) from None


def parse_path(arg: str) -> PathPolyline:
    rec = _load_spec(arg)
    if not isinstance(rec, list) or len(rec) < 2:
        raise InputError("path must be a JSON array of at least two waypoints")
    pts = tuple(_as_complex(w, "waypoint") for w in rec)
    try:
        return PathPolyline(pts)
    except ValueError as e:
        raise InputError(str(e)) from None


def _germ_record(g: GeodesicGerm) -> dict:
    return {
        "alpha": g.alpha,
        "beta": g.beta,
        "x": g.x,
        "y": g.y,
        "t0": g.t0,
    }


def _manifest(command: str, g: GeodesicGerm, parameters: dict, tolerances: dict) -> dict:
    return {
        "command": command,
        "germ": _germ_record(g),
        "parameters": parameters,
        "tool_version": __version__,
        "tolerances": tolerances,
    }


def _sample_record(s: TraceSample) -> dict:
    # [re, im] lists made here, not by the encoder's hook for each number
    t, u, v, du, dv = s.t, s.u, s.v, s.du, s.dv
    return {"t": [t.real, t.imag], "u": [u.real, u.imag], "v": [v.real, v.imag],
            "du": [du.real, du.imag], "dv": [dv.real, dv.imag]}


def _trace_json(trace: ContinuationTrace, manifest: dict) -> dict:
    return {
        "manifest": manifest,
        "status": trace.status,
        "samples": [_sample_record(s) for s in trace.samples],
        "endpoint": _sample_record(trace.endpoint) if trace.completed else None,
        "obstruction": (
            {"t_star": trace.obstruction.t_star, "radius": trace.obstruction.radius}
            if trace.obstruction is not None
            else None
        ),
    }


def _report_json(rep: ObstructionReport, manifest: dict) -> dict:
    return {
        "manifest": manifest,
        "radius": rep.probe_radius,
        "rays": rep.rays,
        "obstructions": list(rep.obstructions),
        "min_separation": rep.min_separation,
        "per_ray": [
            {
                "angle": r.angle,
                "status": r.status,
                "obstructions": list(r.obstructions),
            }
            for r in rep.per_ray
        ],
    }


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text + "\n")
        return
    try:
        Path(out).write_text(text + "\n")
    except OSError as e:
        raise InputError(f"cannot write {out}: {e}") from None


def _write_csv(trace: ContinuationTrace, out: str) -> None:
    lines = ["t_re,t_im,u_re,u_im,v_re,v_im,du_re,du_im,dv_re,dv_im"]
    lines += [
        "%r,%r,%r,%r,%r,%r,%r,%r,%r,%r"
        % (s.t.real, s.t.imag, s.u.real, s.u.imag, s.v.real, s.v.imag,
           s.du.real, s.du.imag, s.dv.real, s.dv.imag)
        for s in trace.samples
    ]
    _write_output("\n".join(lines), out)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_shoot(args) -> int:
    if args.csv and args.out is None:
        raise InputError("--csv requires --out")
    if args.csv and Path(args.out).suffix == ".csv":  # the CSV would overwrite the trace
        raise InputError("--csv writes the CSV next to --out, so --out must not end in .csv")
    g = parse_germ(args.germ)
    path = parse_path(args.path)
    trace = continue_path(g, path, args.tol)
    manifest = _manifest(
        "shoot",
        g,
        {"path": list(path.waypoints)},
        {"tol": args.tol},
    )
    _write_output(dumps(_trace_json(trace, manifest)), args.out)
    if args.csv:
        try:
            _write_csv(trace, str(Path(args.out).with_suffix(".csv")))
        except InputError:
            Path(args.out).unlink()  # exit code 2 leaves no output behind
            raise
    return 0 if trace.completed else 3


def _cmd_classify(args) -> int:
    g = parse_germ(args.germ)
    c = classify(g)
    manifest = _manifest("classify", g, {}, {})
    rec = {
        "manifest": manifest,
        "tag": c.tag.value,
        "A": c.integrals.A if c.integrals else None,
        "B": c.integrals.B if c.integrals else None,
        "discriminant": c.discriminant,
    }
    _write_output(dumps(rec), args.out)
    return 0


def _cmd_probe(args) -> int:
    g = parse_germ(args.germ)
    rep = completeness_probe(g, args.radius, args.rays, args.tol)
    manifest = _manifest(
        "probe",
        g,
        {"radius": args.radius, "rays": args.rays},
        {"tol": args.tol},
    )
    _write_output(dumps(_report_json(rep, manifest)), args.out)
    return 0


def _cmd_verify(args) -> int:
    from . import acceptance

    wanted = None
    if args.criteria:
        try:
            wanted = sorted({int(s) for s in args.criteria.split(",")})
        except ValueError:
            raise InputError("--criteria wants a comma-separated list of integers")
    results = acceptance.run(wanted)
    return 0 if all(r.passed for r in results) else 1


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The ``cph`` argument parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="cph",
        description="Clifton-Pohl geodesics over complex time: "
        "shoot along paths, classify germs, probe completeness.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shoot", help="continue a germ along a path, write the trace")
    p.add_argument("--germ", required=True, help="germ JSON or file")
    p.add_argument("--path", required=True, help="path JSON or file")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--csv", action="store_true", help="also write samples CSV")
    p.set_defaults(func=_cmd_shoot)

    p = sub.add_parser("classify", help="print a germ's family and first integrals")
    p.add_argument("--germ", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("probe", help="ray fan completeness probe")
    p.add_argument("--germ", required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--rays", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--criteria", default=None, help="comma-separated subset, e.g. 1,5")
    p.set_defaults(func=_cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        out = getattr(args, "out", None)  # refused before any work, not after
        if out is not None and not Path(out).parent.is_dir():
            raise InputError(f"output directory {Path(out).parent} does not exist")
        return args.func(args)
    except OutOfDomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (InputError, ValueError, ArithmeticError, CliftonPohlError) as e:
        # ArithmeticError: an input whose arithmetic leaves the float range
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
