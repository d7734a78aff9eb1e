import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# One profile for every property test: the same examples on every run, none
# remembered between runs, and no per-example time limit.
settings.register_profile("iongradim", derandomize=True, database=None, max_examples=200,
                          deadline=None)
settings.load_profile("iongradim")

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def fresh_python():
    """Run code in a new interpreter with the package importable.

    A call that never returns fails the test after `timeout` seconds
    (subprocess.TimeoutExpired) instead of stalling the suite.
    """
    def run(code: str, *args: str, timeout: float = 20.0) -> subprocess.CompletedProcess:
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
        return subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=timeout)
    return run


@pytest.fixture
def uncached_chain():
    """Empty the crystal's per-ion-count chain cache before and after the test.

    A test that patches the solver then sees a fresh solve, and a patched
    solve never leaves its chain behind for the tests after it.
    """
    from iongradim import crystal
    crystal._unit_chain.cache_clear()
    yield
    crystal._unit_chain.cache_clear()
