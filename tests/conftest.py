import importlib.util
import sys
from pathlib import Path

import pytest

from targetcost.ode import shoot

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def shot_p2():
    return shoot(2.0)


@pytest.fixture(scope="session")
def curve_p2(shot_p2):
    return shot_p2.curve


@pytest.fixture(scope="session")
def shots_all():
    return {p: shoot(p) for p in (1.5, 2.0, 3.0)}


@pytest.fixture(scope="module")
def run():
    """perfbench/run.py loaded by path, with perfbench/ on sys.path for its
    `tracer` import; registered in sys.modules before it executes, because
    its dataclasses look their module up there."""
    name = "perfbench_run"
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(name, BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(name, None)
        sys.modules.pop("tracer", None)
        sys.path.remove(str(BENCH))
