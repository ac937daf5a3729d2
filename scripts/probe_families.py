"""Completeness probes for one exemplar germ of each solution family.

Runs ``cph probe`` once per family, writing one JSON report per family
under out/ (created if missing), and prints a summary table read back
from the reports.

Run:  python scripts/probe_families.py [--radius 5] [--rays 64]
"""

import argparse
import json
import sys
from pathlib import Path

from cliftonpohl import cli

FAMILIES = {
    "null_rational": (1, 0, 1, 0),
    "null_tan": (0, 1, 1, 0),
    "exponential": (1, 1, 1, 1),
    "generic": (1, 2, 1, 1),
}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--radius", type=float, default=5.0)
    ap.add_argument("--rays", type=int, default=64)
    ap.add_argument("--tol", type=float, default=1e-9)
    ap.add_argument("--outdir", default="out")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, state in FAMILIES.items():
        spec = {k: [z, 0] for k, z in zip(("alpha", "beta", "x", "y"), state)}
        path = outdir / f"probe_{name}.json"
        rc = cli.main([
            "probe", "--germ", json.dumps(spec),
            "--radius", repr(args.radius), "--rays", str(args.rays),
            "--tol", repr(args.tol), "--out", str(path),
        ])
        if rc != 0:
            sys.exit(rc)
        rep = json.loads(path.read_text())
        found = [complex(*p) for p in rep["obstructions"]]
        obs = ", ".join(f"{z:.4f}" for z in found) or "none"
        print(
            f"{name:14s} obstructions={len(found):2d} "
            f"min_sep={rep['min_separation']:.4f}  [{obs}]  -> {path}"
        )


if __name__ == "__main__":
    main()
