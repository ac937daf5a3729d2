"""Smoke tests: the scripts under scripts/ run against the package in src/."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_demo_incompleteness():
    res = run_script("demo_incompleteness.py")
    assert res.returncode == 0, res.stderr
    assert "Obstructed" in res.stdout and "Completed" in res.stdout


def test_probe_families_reports(tmp_path):
    res = run_script(
        "probe_families.py", "--radius", "2", "--rays", "8", "--outdir", str(tmp_path)
    )
    assert res.returncode == 0, res.stderr
    reports = sorted(tmp_path.glob("probe_*.json"))
    assert len(reports) == 4
    for path in reports:
        rep = json.loads(path.read_text())
        assert list(rep) == [
            "manifest", "radius", "rays", "obstructions", "min_separation", "per_ray"
        ]
        man = rep["manifest"]
        assert list(man) == [
            "command", "germ", "parameters", "tool_version", "tolerances"
        ]
        assert man["command"] == "probe"
        assert man["parameters"] == {"radius": 2, "rays": 8}
        assert rep["radius"] == 2 and rep["rays"] == 8
        assert len(rep["per_ray"]) == 8
        for ray in rep["per_ray"]:
            assert list(ray) == ["angle", "status", "obstructions"]
            assert ray["status"] in ("Completed", "Obstructed", "Blocked")
        for z in rep["obstructions"]:
            assert len(z) == 2 and all(isinstance(c, (int, float)) for c in z)
