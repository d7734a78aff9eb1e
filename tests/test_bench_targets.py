"""The benchmark's fixed points checked in the ordinary suite.

bench/tracing.py replaces package functions at the (module, attribute) sites
listed in its _TARGETS table. A refactor that renames a function or changes
how a module imports it would otherwise only fail under a traced benchmark
run; this test catches it in the ordinary suite. Likewise the seed-0 output
digests stored in bench/digests.json, which a bench run checks, are checked
here through bench/run.py's own pass. Nothing under bench/ is changed.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import iongradim
import iongradim.cli  # noqa: F401  (binds every submodule the targets name)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # where dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    targets = _load("tracing")._TARGETS
    sites = [site for _, _, _, target_sites in targets for site in target_sites]
    assert sites
    missing = [f"{module}.{attr}" for module, attr in sites
               if not callable(getattr(getattr(iongradim, module, None), attr, None))]
    assert missing == []


@pytest.mark.parametrize("workload", ["sweep", "shots"])
def test_seed_0_outputs_match_the_stored_bench_digests(tmp_path, monkeypatch, workload):
    # every case through cli.main by run.py's run_pass, which checks each run's
    # exit code and file names and digests the emitted bytes in run order
    monkeypatch.syspath_prepend(str(BENCH))   # run.py imports tracing and workloads
    bench = _load("run")
    cases = bench.workloads.WORKLOADS[workload](bench.DEFAULT_SEED)
    configs = [tmp_path / "configs" / f"{i:04d}.cfg" for i in range(len(cases))]
    configs[0].parent.mkdir()
    for path, case in zip(configs, cases):
        path.write_text(case.text, encoding="utf-8")
    outs = [tmp_path / "out" / f"{i:04d}" for i in range(len(cases))]
    result = bench.run_pass(iongradim.cli.main, cases, configs, outs)
    assert result.failures == []
    assert result.digest == json.loads((BENCH / "digests.json").read_text())[workload]
