"""The benchmark's tracer (perfbench/spans.py) still fits the package.

The tracer patches module attributes by name and calls
``_integrate_segment`` with its keyword hooks, so a rename or a changed
signature in src/ would otherwise surface only in ``perfbench/run.py
--trace 1``.
"""

from pathlib import Path

from cliftonpohl import cli, continuation, families, taylor
from cliftonpohl.manifold import germ

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PATCHED = (cli, continuation, families, taylor, families.GenericEllipticSampler)


def test_tracer_installs_counts_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    before = [dict(vars(obj)) for obj in PATCHED]
    tracer = spans.Tracer()
    tracer.install()
    try:
        changed = sum(
            vars(obj)[k] is not v for obj, d in zip(PATCHED, before) for k, v in d.items()
        )
        token = tracer.begin_op("probe and loop")
        rep = continuation.completeness_probe(germ(1.3, -0.7, 0.9, 1.1), 5.0, 8, 1e-9)
        loop = continuation.loop_monodromy(germ(1, 0, 1, 0), 1 + 0.3j, 0.5)
        tracer.end_op(token, keep=True)
    finally:
        tracer.remove()
    assert changed > 0
    assert rep.obstructions and loop.status == "Completed"
    for key in ("steps", "halts", "estimates", "estimate_hits", "ray_obstructions"):
        assert tracer.counts.get(key, 0) > 0, key
    assert set(tracer.summary()) >= {
        "continuation.segment",
        "continuation.walk",
        "continuation.probe_ray",
        "continuation.loop",
        "taylor.nearest_singularity",
    }
    for obj, d in zip(PATCHED, before):
        assert all(vars(obj)[k] is v for k, v in d.items()), obj
