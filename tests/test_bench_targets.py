"""Every function the benchmark's traced pass wraps must exist where it is wrapped.

bench/tracing.py replaces package functions at the (module, attribute) sites
listed in its _TARGETS table. A refactor that renames a function or changes
how a module imports it would otherwise only fail under a traced benchmark
run; this test catches it in the ordinary suite.
"""

import importlib.util
from pathlib import Path

import iongradim
import iongradim.cli  # noqa: F401  (binds every submodule the targets name)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    targets = _load_tracing()._TARGETS
    sites = [site for _, _, _, target_sites in targets for site in target_sites]
    assert sites
    missing = [f"{module}.{attr}" for module, attr in sites
               if not callable(getattr(getattr(iongradim, module, None), attr, None))]
    assert missing == []
