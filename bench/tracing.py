"""Spans and counters for the benchmark's traced pass, recorded from outside the package.

The traced pass replaces the public functions of each layer with timing
wrappers and restores them afterwards. Modules bind their imports with
`from .x import y`, so a wrapper replaces the name where it is looked up
(`cli.simulate_shots`, `scenarios.equilibrium_positions`, `rng.uniform`
inside `rng.gaussian`, ...). Vec3 arithmetic is deliberately not wrapped:
its cost stays in the caller's self time.

Spans are strictly nested (one thread), so self time is folded in on exit:
a span's self time is its duration minus the durations of its direct
children. Layer `calls` count entries into a layer from outside it, so
`differential_field -> dipole_field` is one magnetostatics call.
"""

from __future__ import annotations

import functools
import logging
import re
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager

_MB = 1024.0 * 1024.0
KEEP_SPANS = 5000     # raw spans kept for the result record; all are counted


class Tracer:
    """In-memory span recorder with per-name and per-layer self-time totals."""

    def __init__(self):
        self.stack: list[list] = []     # open spans: [id, name, layer, start_ns, child_ns]
        self.by_name = defaultdict(lambda: [0, 0])    # name -> [calls, self_ns]
        self.by_layer = defaultdict(lambda: [0, 0])   # layer -> [entries, self_ns]
        self.counts: Counter = Counter()
        self.open: Counter = Counter()  # span name -> number of open spans
        self.largest: dict[str, tuple[float, int]] = {}   # name -> (size, case index)
        self.max_residual = 0.0         # largest converged solver residual logged
        self.unwrapped: list[str] = []  # "<module>.<attribute>" names not found: a failure
        self.case = -1
        self.spans: list[tuple] = []    # (id, parent id, name, start_ns, end_ns), first few
        self._next_id = 0

    def wrap(self, fn, name: str, layer: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(self, args, result)
                return result
            finally:
                self._exit()
        return traced

    def note_size(self, name: str, size: float) -> None:
        if size > self.largest.get(name, (-1.0, -1))[0]:
            self.largest[name] = (size, self.case)

    def _enter(self, name: str, layer: str) -> None:
        self._next_id += 1
        self.open[name] += 1
        self.stack.append([self._next_id, name, layer, time.perf_counter_ns(), 0])

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        span_id, name, layer, start, child = self.stack.pop()
        self.open[name] -= 1
        duration = end - start
        self_ns = duration - child
        parent = self.stack[-1] if self.stack else None
        stats = self.by_name[name]
        stats[0] += 1
        stats[1] += self_ns
        layer_stats = self.by_layer[layer]
        if parent is None or parent[2] != layer:
            layer_stats[0] += 1
        layer_stats[1] += self_ns
        if parent is not None:
            parent[4] += duration
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((span_id, parent[0] if parent else 0, name, start, end))

    def self_s(self, name: str) -> float:
        return self.by_name[name][1] / 1e9 if name in self.by_name else 0.0

    def calls(self, name: str) -> int:
        return self.by_name[name][0] if name in self.by_name else 0


# ---------------------------------------------------------------------------
# counters, evaluated inside the span of the call they describe

def _count_emit(tracer, args, result):
    bundle = args[0]
    cells = sum(len(t.rows) * len(t.columns) for t in bundle.tables)
    tracer.counts["cli.emit.cells"] += cells
    tracer.note_size("cli.emit", cells)


def _count_point(tracer, args, result):
    tracer.counts["magnetostatics.points"] += 1


def _count_shots(tracer, args, result):
    shots = args[0].shots
    tracer.counts["estimation.shots"] += shots
    tracer.note_size("estimation.simulate_shots", shots)


def _count_draws(tracer, args, result):
    draws = result.size
    tracer.counts["rng.draws"] += draws
    if tracer.open["estimation.simulate_shots"]:
        tracer.counts["rng.draws_in_simulate_shots"] += draws


# (span name, layer, counter, [(module, attribute), ...]) for every wrapped function;
# each attribute is replaced in the module that looks the name up.
_TARGETS = [
    ("cli.parse_config", "cli", None, [("cli", "parse_config")]),
    ("cli.execute", "cli", None, [("cli", "execute")]),
    ("cli.emit", "cli", _count_emit, [("cli", "emit")]),
    ("scenarios.run_scenario", "scenarios", None, [("cli", "run_scenario")]),
    ("crystal.equilibrium_positions", "crystal", None,
     [("cli", "equilibrium_positions"), ("scenarios", "equilibrium_positions")]),
    ("magnetostatics.dipole_field", "magnetostatics", _count_point,
     [("cli", "dipole_field"), ("magnetostatics", "dipole_field")]),
    ("magnetostatics.axial_bz", "magnetostatics", _count_point,
     [("cli", "axial_bz"), ("scenarios", "axial_bz")]),
    ("magnetostatics.differential_field", "magnetostatics", None,
     [("scenarios", "differential_field"), ("magnetostatics", "differential_field")]),
    ("magnetostatics.compensation_gradient", "magnetostatics", None,
     [("cli", "compensation_gradient"), ("scenarios", "compensation_gradient")]),
    ("magnetostatics.total_differential_field", "magnetostatics", None,
     [("scenarios", "total_differential_field")]),
    ("protocol.phase_rate", "protocol", None,
     [("cli", "phase_rate"), ("scenarios", "phase_rate"), ("estimation", "phase_rate")]),
    ("protocol.prepare_probe", "protocol", None,
     [("cli", "prepare_probe"), ("scenarios", "prepare_probe")]),
    ("protocol.outcome_parities", "protocol", None, [("estimation", "outcome_parities")]),
    ("estimation.simulate_shots", "estimation", _count_shots,
     [("cli", "simulate_shots"), ("estimation", "simulate_shots")]),
    ("estimation.parity_estimate", "estimation", None,
     [("cli", "parity_estimate"), ("estimation", "parity_estimate")]),
    ("estimation.spin_discrimination_snr", "estimation", None,
     [("scenarios", "spin_discrimination_snr")]),
    ("estimation.required_shots", "estimation", None, [("scenarios", "required_shots")]),
    ("rng.splitmix64", "rng", _count_draws, [("rng", "splitmix64")]),
    ("rng.uniform", "rng", None, [("rng", "uniform")]),
    ("rng.gaussian", "rng", None, [("rng", "gaussian")]),
    ("rng.derive_seed", "rng", None, [("rng", "derive_seed")]),
]


def _resolve(pkg, sites, missing):
    """(module, attribute) pairs that exist in the package; the others go to `missing`."""
    found = []
    for module_name, attr in sites:
        module = getattr(pkg, module_name, None)
        if module is None or not hasattr(module, attr):
            missing.append(f"{module_name}.{attr}")
        else:
            found.append((module, attr))
    return found


@contextmanager
def _patched(replacements):
    """Apply (module, attribute, new value) replacements; restore them on exit."""
    saved = []
    try:
        for module, attr, value in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


class _SolverLog(logging.Handler):
    """Turns the solver's DEBUG "converged" record into iteration and residual counters."""

    _CONVERGED = re.compile(r"converged: residual (\S+) after (\d+) iterations")

    def __init__(self, tracer: Tracer):
        super().__init__(logging.DEBUG)
        self.tracer = tracer

    def emit(self, record):
        match = self._CONVERGED.search(record.getMessage())
        if match:
            self.tracer.counts["crystal.newton_iters"] += int(match.group(2))
            self.tracer.max_residual = max(self.tracer.max_residual, float(match.group(1)))


@contextmanager
def traced(tracer: Tracer, pkg):
    """Install span wrappers and the solver-log handler for the duration of the block.

    Names the package no longer defines are listed in tracer.unwrapped, which
    the caller must report as a failure: their metrics would read 0.
    """
    replacements = []
    for name, layer, count, sites in _TARGETS:
        for module, attr in _resolve(pkg, sites, tracer.unwrapped):
            replacements.append((module, attr, tracer.wrap(getattr(module, attr),
                                                            name, layer, count)))
    solver_log = logging.getLogger("iongradim.crystal")
    handler = _SolverLog(tracer)
    level, propagate = solver_log.level, solver_log.propagate
    solver_log.setLevel(logging.DEBUG)
    solver_log.propagate = False
    solver_log.addHandler(handler)
    try:
        with _patched(replacements):
            yield
    finally:
        solver_log.removeHandler(handler)
        solver_log.setLevel(level)
        solver_log.propagate = propagate


@contextmanager
def alloc_peaks(tracer: Tracer, pkg):
    """Record the tracemalloc peak (MB above the entry level) of simulate_shots and emit calls.

    The calls are wrapped at the sites _TARGETS names for them; names not
    found go to tracer.unwrapped.

    Yields a dict name -> largest peak seen; numpy reports its buffers to
    tracemalloc, so array temporaries are included.
    """
    peaks = {"estimation.simulate_shots": 0.0, "cli.emit": 0.0}

    def watch(fn, name):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            peaks[name] = max(peaks[name], (tracemalloc.get_traced_memory()[1] - base) / _MB)
            return result
        return measured

    replacements = [(module, attr, watch(getattr(module, attr), name))
                    for name, _, _, sites in _TARGETS if name in peaks
                    for module, attr in _resolve(pkg, sites, tracer.unwrapped)]
    tracemalloc.start()
    try:
        with _patched(replacements):
            yield peaks
    finally:
        tracemalloc.stop()
