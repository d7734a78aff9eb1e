"""iongradim benchmark: CLI workloads, end-to-end run metrics and a traced per-layer pass.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 0 --seconds 45 --trace 0

Each workload (see workloads.py) is generated from --seed into config files
before any timing. The process is one closed-loop client with no threads:
every run goes through `iongradim.cli.main(argv)` with stdout and stderr
captured, and the next run starts when the previous one returns. After one
warm-up run of each kind, the list is run in round(--seconds /
workloads.PASS_SECONDS[workload]) whole passes: about --seconds of run time
today, and the same number of passes on every commit.

End-to-end metrics (--trace 0), over each case's time across the passes:
its fastest run in sweep, its median run in shots (workloads.CASE_TIME says
why):

  setup_s       median wall time of fresh interpreters importing iongradim.cli,
                spawned between runs and spread over the measurement
  runs_per_s    cases in the list / summed cli.main time
  run_p50_ms    median cli.main latency
  run_tail_ms   highest percentile with 10 cases beyond it (p98 sweep, p75 shots)
  peak_rss_mb   ru_maxrss of this process
  success_rate  1 - error_rate: runs whose exit code, files and output check
                passed / runs attempted (a config written to be malformed
                passes when it is rejected with exit code 1)

Beside them, without bounds, the record holds runs_per_s over all runs
(runs / summed cli.main time), and runs_per_s, run_p50_ms and run_tail_ms
over both each case's fastest and each case's median run.

Every run checks its exit code and output file names, and a sha256 over the
emitted bytes in run order is taken per pass. All passes must agree, and at
the default seed the digest must equal the one stored in digests.json
(regenerate that entry only when a workload's inputs change on purpose).

--trace 1 alternates untraced and traced passes (tracing.py), then runs a
tracemalloc pass over the cases holding the largest simulate_shots and emit
calls, and reports the per-layer metrics per pass.

Human-readable lines (every metric with unit and sample count, the
environment, any failure by name) go to stdout, and a full record to
.bench_out/result-<workload>-seed<seed>-trace<t>.json. The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

DEFAULT_SEED = 0
SETUP_SPAWNS = 9
TRACE_ROUNDS = 2
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Pass:
    """Outcome of running a case list once."""

    latencies: list[float] = field(default_factory=list)   # s per cli.main call
    digest: str = ""
    failures: list[str] = field(default_factory=list)
    files: int = 0
    bytes: int = 0
    config_errors: int = 0


def _call(main, config: Path, out_dir: Path) -> tuple[object, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    argv = ["--config", str(config), "--out", str(out_dir)]
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:   # a crash is a failed run, not a failed benchmark
            code = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


def run_pass(main, cases, configs, outs, tracer=None, between=None) -> Pass:
    """Run every case once, in list order; check each run and digest the outputs.

    `between` is called after each run, outside its timing.
    """
    result = Pass()
    digest = hashlib.sha256()
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case = i
        code, elapsed, printed, err = _call(main, configs[i], outs[i])
        result.latencies.append(elapsed)
        problem = None
        paths = [Path(line) for line in printed.splitlines() if line]
        names = tuple(p.name for p in paths)
        if code != case.exit_code:
            problem = f"exit {code}, expected {case.exit_code}: {err.strip()[:200]}"
        elif names != case.files:
            problem = f"wrote {names}, expected {case.files}"
        elif case.exit_code == 1 and not err.startswith("config error"):
            problem = f"rejected without a config error message: {err.strip()[:200]}"
        else:
            digest.update(f"{i} exit {code}\n".encode())
            for path in paths:
                if not path.is_file():
                    problem = f"{path.name} missing"
                    break
                data = path.read_bytes()
                digest.update(f"{i} {path.name} {len(data)}\n".encode())
                digest.update(data)
                result.files += 1
                result.bytes += len(data)
        if code == 1:
            result.config_errors += 1
        if problem is not None:
            result.failures.append(f"case {i} ({case.kind}): {problem}")
        if between is not None:
            between()
    result.digest = digest.hexdigest()
    return result


class SetupTimer:
    """Times fresh interpreters that import iongradim.cli, spread evenly over the runs.

    The host alternates between fast and contended phases lasting seconds;
    spreading the spawns samples several phases instead of one. One untimed
    spawn first fills the bytecode cache.
    """

    def __init__(self, spawns: int, runs: int):
        self.cmd = [sys.executable, "-c", "import iongradim.cli"]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.spawns, self.every = spawns, max(1, runs // spawns)
        self.runs = 0
        self.times: list[float] = []
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True, timeout=120)

    def _spawn(self) -> None:
        start = time.perf_counter()
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True, timeout=120)
        self.times.append(time.perf_counter() - start)

    def between_runs(self) -> None:
        self.runs += 1
        if self.runs % self.every == 0 and len(self.times) < self.spawns:
            self._spawn()

    def finish(self) -> list[float]:
        while len(self.times) < self.spawns:
            self._spawn()
        return self.times


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 of the values beyond it, and its value."""
    pct = 100.0 * (1.0 - 10.0 / len(times))
    return pct, sorted(times)[max(1, math.ceil(pct / 100.0 * len(times))) - 1]


def environment(workload: str, seed: int) -> dict:
    """Versions, CPU and cache sizes (read-only from /proc and /sys), git commit and seed."""
    import numpy
    env = {"workload": workload, "seed": seed, "python": platform.python_version(),
           "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
           "cpu_model": platform.processor() or None, "caches": {}, "git_commit": None}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if level in ("2", "3") and kind in ("Unified", "Data"):
                env["caches"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    try:
        env["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return env


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


CASE_TIME = {"min": min, "median": statistics.median}


def run_figures(case_times: list[float]) -> dict:
    """runs_per_s, run_p50_ms and run_tail_ms over one time per case."""
    return {"runs_per_s": len(case_times) / sum(case_times),
            "run_p50_ms": 1e3 * statistics.median(case_times),
            "run_tail_ms": 1e3 * tail(case_times)[1]}


def end_to_end(main, cases, configs, outs, n_passes: int,
               case_time: str) -> tuple[dict, list[Pass], dict]:
    """`n_passes` whole passes; time metrics over each case's `case_time` run."""
    runs = len(cases) * n_passes
    setup = SetupTimer(SETUP_SPAWNS, runs)
    passes = [run_pass(main, cases, configs, outs, between=setup.between_runs)
              for _ in range(n_passes)]
    setup_times = setup.finish()
    figures = {name: run_figures([fn([p.latencies[i] for p in passes])
                                  for i in range(len(cases))])
               for name, fn in CASE_TIME.items()}
    failed = sum(len(p.failures) for p in passes)
    units = {"runs_per_s": "1/s", "run_p50_ms": "ms", "run_tail_ms": "ms"}
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s", len(setup_times)),
        **{name: _metric(value, units[name], runs)
           for name, value in figures[case_time].items()},
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                               "MB", 1),
        "success_rate": _metric(1.0 - failed / runs, "ratio", runs),
    }
    pass_walls = [sum(p.latencies) for p in passes]
    details = {"passes": n_passes, "case_time": case_time, "pass_walls_s": pass_walls,
               "runs_per_s_all_runs": runs / sum(pass_walls),
               "figures_by_case_time": figures,
               "tail_percentile": tail(passes[0].latencies)[0],
               "cases_beyond_tail": 10, "error_rate": failed / runs,
               "setup_spawns_s": setup_times, "latencies_s": [p.latencies for p in passes]}
    return metrics, passes, details


def per_layer(pkg, main, cases, configs, outs) -> tuple[dict, list[Pass], dict]:
    """Alternate untraced and traced passes, then one tracemalloc pass; per-pass layer figures.

    Times and counts are totals over the traced passes divided by their
    number; trace_overhead compares each case's fastest traced and untraced run.
    """
    tracer = tracing.Tracer()
    traced_main = tracer.wrap(main, "cli.main", "cli")
    untraced, traced_passes = [], []
    for _ in range(TRACE_ROUNDS):
        untraced.append(run_pass(main, cases, configs, outs))
        with tracing.traced(tracer, pkg):
            traced_passes.append(run_pass(traced_main, cases, configs, outs, tracer))
    memory_cases = sorted({i for _, i in tracer.largest.values()})
    with tracing.alloc_peaks(tracer, pkg) as peaks:
        memory_pass = run_pass(main, [cases[i] for i in memory_cases],
                               [configs[i] for i in memory_cases],
                               [outs[i] for i in memory_cases])

    def best_total(passes):
        return sum(min(p.latencies[i] for p in passes) for i in range(len(cases)))

    def per_pass(value):
        share = value / TRACE_ROUNDS
        return int(share) if isinstance(value, int) and share.is_integer() else share

    counts, first = tracer.counts, traced_passes[0]
    shots = counts["estimation.shots"]
    m = {
        "cli.main.self_s": (per_pass(tracer.self_s("cli.main")), "s"),
        "cli.parse_config.calls": (per_pass(tracer.calls("cli.parse_config")), "count"),
        "cli.parse_config.self_s": (per_pass(tracer.self_s("cli.parse_config")), "s"),
        "cli.config_errors": (first.config_errors, "count"),
        "cli.execute.self_s": (per_pass(tracer.self_s("cli.execute")), "s"),
        "cli.emit.calls": (per_pass(tracer.calls("cli.emit")), "count"),
        "cli.emit.self_s": (per_pass(tracer.self_s("cli.emit")), "s"),
        "cli.emit.files": (first.files, "count"),
        "cli.emit.bytes": (first.bytes, "B"),
        "cli.emit.cells": (per_pass(counts["cli.emit.cells"]), "count"),
        "cli.emit.peak_alloc_mb": (peaks["cli.emit"], "MB"),
    }
    for layer in ("scenarios", "crystal", "magnetostatics", "protocol", "rng"):
        calls, self_ns = tracer.by_layer.get(layer, (0, 0))
        m[f"{layer}.calls"] = (per_pass(calls), "count")
        m[f"{layer}.self_s"] = (per_pass(self_ns / 1e9), "s")
    m.update({
        "crystal.newton_iters": (per_pass(counts["crystal.newton_iters"]), "count"),
        "crystal.max_residual": (tracer.max_residual, "1"),
        "magnetostatics.points": (per_pass(counts["magnetostatics.points"]), "count"),
        "estimation.simulate_shots.calls":
            (per_pass(tracer.calls("estimation.simulate_shots")), "count"),
        "estimation.shots": (per_pass(shots), "count"),
        "estimation.outcome_map_s": (per_pass(tracer.self_s("estimation.simulate_shots")), "s"),
        "estimation.simulate_shots.peak_alloc_mb": (peaks["estimation.simulate_shots"], "MB"),
        "estimation.required_shots.calls":
            (per_pass(tracer.calls("estimation.required_shots")), "count"),
        "estimation.required_shots.self_s":
            (per_pass(tracer.self_s("estimation.required_shots")), "s"),
        "rng.draws": (per_pass(counts["rng.draws"]), "count"),
        "rng.draws_per_shot": (counts["rng.draws_in_simulate_shots"] / shots if shots else 0,
                               "draws/shot"),
        "trace_overhead": (best_total(traced_passes) / best_total(untraced) - 1.0, "ratio"),
    })
    runs = len(cases) * TRACE_ROUNDS
    metrics = {name: _metric(value, unit, runs) for name, (value, unit) in m.items()}
    wall_traced = sum(sum(p.latencies) for p in traced_passes)
    self_total = sum(self_ns for _, self_ns in tracer.by_name.values()) / 1e9
    details = {"wall_untraced_s": sum(sum(p.latencies) for p in untraced),
               "wall_traced_s": wall_traced,
               "self_total_s": self_total, "memory_cases": memory_cases,
               "largest_calls": tracer.largest,
               "unwrapped": sorted(set(tracer.unwrapped)),
               "spans_kept": tracer.spans}
    problems = [f"wrap target {name} not found: its layer metrics would read 0"
                for name in details["unwrapped"]]
    if self_total > wall_traced:
        problems.append(f"span self times {self_total:.6f} s exceed traced wall "
                        f"{wall_traced:.6f} s")
    details["problems"] = problems
    return metrics, untraced + traced_passes + [memory_pass], details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "iongradim" / "cli.py").is_file():
        print(f"error: no iongradim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("IONGRADIM_LOG", None)
    import iongradim
    import iongradim.cli
    if not Path(iongradim.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported iongradim from {iongradim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    main_fn = iongradim.cli.main

    out_root = ROOT / ".bench_out"
    work_dir = out_root / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    cases = workloads.WORKLOADS[args.workload](args.seed)
    configs, outs = [], []
    for i, case in enumerate(cases):
        path = work_dir / "configs" / f"{i:04d}.cfg"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(case.text, encoding="utf-8")
        configs.append(path)
        outs.append(work_dir / "out" / f"{i:04d}")

    smallest = {}
    for i, case in enumerate(cases):
        if case.kind not in smallest or case.size < cases[smallest[case.kind]].size:
            smallest[case.kind] = i
    warm = sorted(smallest.values())
    warm_up = run_pass(main_fn, [cases[i] for i in warm], [configs[i] for i in warm],
                       [outs[i] for i in warm])

    if args.trace:
        metrics, passes, details = per_layer(iongradim, main_fn, cases, configs, outs)
    else:
        n_passes = max(1, round(args.seconds / workloads.PASS_SECONDS[args.workload]))
        metrics, passes, details = end_to_end(main_fn, cases, configs, outs, n_passes,
                                              workloads.CASE_TIME[args.workload])

    env = environment(args.workload, args.seed)
    problems = list(details.pop("problems", []))
    problems += [f"warm-up {f}" for f in warm_up.failures]
    for p in passes:
        problems += p.failures
    full_passes = passes[:-1] if args.trace else passes
    digests = {p.digest for p in full_passes}
    if len(digests) != 1:
        problems.append(f"output digest differs between passes: {sorted(digests)}")
    digest = full_passes[0].digest
    stored = json.loads((BENCH_DIR / "digests.json").read_text())
    if args.seed == DEFAULT_SEED and stored.get(args.workload) != digest:
        problems.append(f"digest mismatch for workload '{args.workload}' at seed "
                        f"{args.seed}: stored {stored.get(args.workload)}, got {digest}")
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cases {len(cases)}  runs {attempted}  failed {failed}")
    print("environment " + json.dumps(env))
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']:<10s} samples={m['samples']}")
    for key in ("passes", "case_time", "tail_percentile", "cases_beyond_tail", "error_rate",
                "runs_per_s_all_runs", "figures_by_case_time", "pass_walls_s", "setup_spawns_s",
                "wall_untraced_s", "wall_traced_s", "self_total_s", "unwrapped"):
        if key in details:
            print(f"  {key}: {details[key]}")
    print(f"  digest {digest}" + ("  (checked against digests.json)"
                                  if args.seed == DEFAULT_SEED else ""))
    for problem in problems:
        print(f"FAIL {problem}")

    record = {"environment": env, "digest": digest, "problems": problems,
              "metrics": metrics, "details": details}
    result_path = out_root / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
