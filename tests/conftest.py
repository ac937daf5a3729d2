import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

os.environ.setdefault("CPH_SEED", "0")


@pytest.fixture
def seed() -> int:
    return int(os.environ["CPH_SEED"])


def _perfbench_module(name):
    """A module of ``perfbench/``, loaded from its file."""
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def bench_oracle():
    """``perfbench/oracle.py``, the benchmark's closed-form ground truth
    (obstruction sets from the elliptic chain)."""
    return _perfbench_module("oracle")


@pytest.fixture(scope="session")
def bench_inputs():
    """``perfbench/inputs.py``, the benchmark's input pool and its cached
    30-digit reference."""
    return _perfbench_module("inputs")
