"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from run import Clock, Deadline, inputs, oracle, run_pass  # noqa: E402


def pick(ops, *kinds):
    """The first op of each kind, in the order given."""
    return [next(op for op in ops if op.kind == k) for k in kinds]


@pytest.fixture(scope="module")
def shoot():
    w = run.Shoot()
    w.load_oracle()
    return w


@pytest.fixture(scope="module")
def sample():
    w = run.Sample()
    w.load_oracle()
    return w


def test_probe_op_matches_oracle():
    w = run.Probe()
    w.load_oracle()
    null_tan = w.ops()[-1]
    (rec,) = run_pass([null_tan], Clock(), w.deadline)
    assert rec.status == "ok", rec.reason
    assert rec.error < oracle.MATCH_TOL


def test_shoot_ops_match_oracle(shoot):
    ops = pick(shoot.ops(), "shot", "halt", "detour", "loop")
    recs = run_pass(ops, Clock(), shoot.deadline)
    assert [r.status for r in recs] == ["ok"] * 4, [r.reason for r in recs]
    assert max(r.error for r in recs if r.error is not None) < 1e-9


def test_sample_ops_match_oracle(sample):
    recs = run_pass(sample.ops()[:5], Clock(), sample.deadline)
    assert [r.status for r in recs] == ["ok"] * 5, [r.reason for r in recs]
    assert max(r.error for r in recs) < 1e-9


def test_oracle_flags_perturbed_obstruction():
    g = run.germ(*inputs.PROBE_GERMS[1])
    poles = oracle.obstruction_set(g, inputs.PROBE_RADIUS + oracle.EDGE_BAND)
    inside = [p for p in poles if abs(p) <= inputs.PROBE_RADIUS]
    assert oracle.check_obstructions(inside, poles, 0j, inputs.PROBE_RADIUS)[1] is None
    moved = [inside[0] + 1e-4] + inside[1:]
    assert "from every true obstruction" in oracle.check_obstructions(
        moved, poles, 0j, inputs.PROBE_RADIUS
    )[1]
    assert "missed" in oracle.check_obstructions(inside[1:], poles, 0j, inputs.PROBE_RADIUS)[1]


def test_oracle_flags_perturbed_endpoint(sample):
    op = sample.ops()[0]
    good = op.call()
    assert op.check(good)[0] == "ok"
    bad = (good[0] * (1 + 1e-5),) + good[1:]
    assert op.check(bad)[0] == "wrong"


def test_deadline_fires_on_chain_root(sample):
    (pole,) = pick(sample.ops(), "chain_pole")
    res, dt = Clock().run(pole.call, 0.3)
    assert isinstance(res, Deadline)
    assert 0.3 <= dt < 1.0
    assert pole.check(res) == ("fail", None, "deadline")


def test_stale_cache_is_refused(monkeypatch):
    monkeypatch.setattr(inputs, "POOL_SEED", inputs.POOL_SEED + 1)
    with pytest.raises(inputs.StaleCache):
        inputs.load_reference()


def _traced_pass(sample, shoot):
    ops = pick(shoot.ops(), "shot", "detour", "loop") + sample.ops()[:5]
    ops += pick(sample.ops(), "chain_pole")
    tracer = run.Tracer()
    tracer.install()
    try:
        recs = run_pass(ops, Clock(), 1.0, tracer)
    finally:
        tracer.remove()
    layers = run.per_layer(tracer, recs, recs)
    counts = {
        k: v for k, (v, unit) in layers.items() if unit in ("count", "bytes") or k.endswith("ratio")
    }
    metrics, _ = run.end_to_end([recs], [1.0])
    failed = sum(r.status != "ok" for r in recs) / len(recs)
    return failed, metrics["accuracy_digits"][0], counts


def test_two_runs_agree(sample, shoot):
    first = _traced_pass(sample, shoot)
    second = _traced_pass(sample, shoot)
    assert first[0] == second[0] > 0  # the chain pole overruns its deadline
    assert first[1] == second[1]
    counts = first[2]
    assert counts == second[2]
    assert counts["continuation.steps.accepted"] > 0
    assert counts["continuation.loop.chords"] > 0
    assert counts["special.jacobi_raw.calls"] > 0


def test_without_the_program_it_fails_without_a_result():
    bench = Path(__file__).resolve().parent
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(bench, bare / bench.name, ignore=shutil.ignore_patterns(".out", "__pycache__"))
        shutil.copy(bench.parent / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{bench.name}/run.py", "--workload", "sample", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
