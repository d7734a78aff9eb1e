import os
import subprocess
import sys
from pathlib import Path

import pytest

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
