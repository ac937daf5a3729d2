"""Workload inputs and the cached 30-digit reference that checks them.

Every input is drawn once from ``POOL_SEED`` with the package's own
acceptance generators, so the pool covers the same germ classes the
acceptance battery does.  A run's ``--seed`` only orders the pool: each
pass of a run issues every input of its workload exactly once, in an
order drawn from the seed.  The reference costs about a second per
input, far more than a run may spend, so it is computed once by
``reference.py`` and stored in ``reference.json`` together with the
pool seed and a hash of the inputs; a cache whose hash does not match
the pool drawn here is refused.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
from pathlib import Path

from cliftonpohl.acceptance import (
    random_generic_germ,
    random_null_germ,
    random_proportional_germ,
)

POOL_SEED = 2004
CACHE = Path(__file__).resolve().parent / "reference.json"

# probe: the five germs of acceptance criterion 8, and the null-tangent
# germ of criterion 5, at the criterion-8 settings
PROBE_GERMS = (
    (1, 2, 1, 1),
    (1.3, -0.7, 0.9, 1.1),
    (0.8, 1.7, 1.2, -0.6),
    (1.5, 0.6, -0.8, 1.3),
    (0.9, -1.4, 1.1, 0.7),
    (0, 1, 1, 0),
)
PROBE_RADIUS = 5.0
PROBE_RAYS = 64
PROBE_TOL = 1e-9

# shoot: straight shots from every germ class, halt/detour pairs
# through and around a known pole, and loops around known obstructions
SHOTS_PER_CLASS = 15
SHOT_LENGTH = 5.0
SHOT_TOL = 1e-10
HALT_PAIRS = 8
LOOP_GERMS = PROBE_GERMS[:5]
LOOP_REACH = 3.5
MAX_LOOPS = 12

# sample: closed-form evaluation at targets uniform in a disk
SAMPLE_GERMS = 25
TARGETS_PER_GERM = 40
SAMPLE_RADIUS = 3.0


def as_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def as_complex(p) -> complex:
    return complex(float(p[0]), float(p[1]))


def germ_json(state) -> str:
    return json.dumps(dict(zip(("alpha", "beta", "x", "y"), map(as_pair, state))))


def _rational_null(r: random.Random):
    """A null germ with a pole, (state, pole): the moving coordinate is 1/(C - B t)."""
    while True:
        u_const = r.random() < 0.5
        g = random_null_germ(r, u_const)
        a, b, x, y = g.state()
        k, w0, dw0 = (a, b, y) if u_const else (b, a, x)
        if k == 0:
            return g.state(), w0 / dw0


def draw_pool() -> dict:
    """Every input drawn from POOL_SEED; deterministic."""
    r = random.Random(POOL_SEED)
    makers = (
        lambda: random_null_germ(r, True),
        lambda: random_null_germ(r, False),
        lambda: random_proportional_germ(r),
        lambda: random_generic_germ(r),
    )
    shots = []
    for make in makers:
        for _ in range(SHOTS_PER_CLASS):
            state = make().state()
            end = SHOT_LENGTH * cmath.exp(1j * r.uniform(0.0, 2.0 * math.pi))
            shots.append((state, (0j, end)))
    halts = []
    for _ in range(HALT_PAIRS):
        state, pole = _rational_null(r)
        halts.append((state, pole, (0j, 2.0 * pole), (0j, pole * (1.0 + 0.5j), 2.0 * pole)))
    germs, targets = [], []
    for i in range(SAMPLE_GERMS):
        germs.append(random_generic_germ(r).state())
        for _ in range(TARGETS_PER_GERM):
            rad = SAMPLE_RADIUS * math.sqrt(r.random())
            targets.append((i, cmath.rect(rad, r.uniform(0.0, 2.0 * math.pi))))
    return {"shots": shots, "halts": halts, "germs": germs, "targets": targets}


def pool_hash(pool: dict) -> str:
    return hashlib.sha256(repr(pool).encode()).hexdigest()


class StaleCache(RuntimeError):
    """reference.json is missing or was not built from this pool."""


def load_reference() -> dict:
    """The cached reference, after checking it matches the pool drawn now."""
    try:
        ref = json.loads(CACHE.read_text())
    except (OSError, ValueError) as e:
        raise StaleCache(f"cannot read {CACHE.name}: {e}") from None
    want = pool_hash(draw_pool())
    if ref.get("pool_seed") != POOL_SEED or ref.get("input_hash") != want:
        raise StaleCache(
            f"{CACHE.name} was built for seed {ref.get('pool_seed')} / hash "
            f"{str(ref.get('input_hash'))[:12]}, the pool is seed {POOL_SEED} / "
            f"hash {want[:12]}; rebuild it with perfbench/reference.py"
        )
    return ref
