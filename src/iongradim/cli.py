"""Command-line entry point: strict config files in, deterministic tables out.

Config files are UTF-8 text, one `key = value` assignment per line (a line
ends at \\n, \\r\\n or \\r only), with `#` starting a comment. Keys are
lowercase identifiers; values are integers, floats, bare strings, or on/off
booleans. Unknown keys, duplicate keys, and out-of-range values are hard
errors (a silently ignored typo in a physics config produces wrong
science), each named with its key and line, and every problem of a file is
reported at once. A key that fills a library field (`shots` among them)
takes that field's range, the errors.Bound its dataclass declares, so the
file is held to the same range the library checks. All quantities are base
SI with the unit in the key name; frequencies are given in Hz and converted
to rad/s internally.

Outputs come in one of two formats, chosen by `output_format`. `csv` writes
CSV tables (one file per table, scientific notation with 16 significant
digits, `#` provenance header line) plus a provenance file carrying the
seed, the config hash, and the normalized config echo from which the hash
can be recomputed. `text` writes a single `report.txt` with the same header
line, each table under its `[name]` line with the same numbers, and the
config echo. On one machine, identical config and seed produce
byte-identical files; across machines an output that solves a crystal can
differ in its last digits with the BLAS kernel (see README). Exit codes: 0
success, 1 config or usage error, 2 runtime or solver error.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import math
import os
import re
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from itertools import chain, islice

import numpy as np

from . import __version__, _format
from .constants import Vec3, constants
from .crystal import TrapConfig, equilibrium_positions, spacing
from .errors import (Bound, ConfigurationError, FieldSingularityError, InfeasibleError,
                     SolverError)
from .estimation import (ExperimentPlan, NoiseModel, expected_parity, parity_estimate,
                         simulate_shots)
# dipole_field is unused here, but bench/tracing.py wraps it at this site
from .magnetostatics import (DipoleSource, axial_bz, axial_field_table,  # noqa: F401
                             compensation_gradient, dipole_field)
from .protocol import (BELL, PAIR_WEIGHTS, ZeemanConfig, parity_trajectory, phase_rate,
                       pi_time, prepare_probe)
from .scenarios import SCENARIO_KINDS, ScenarioConfig, run_scenario

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_INT_RE = re.compile(r"^[+-]?[0-9]+$")

DEFAULT_ION_MASS_KG = 40.0 * constants().atomic_mass_unit   # Ca-40


class ConfigFileError(ConfigurationError):
    """Config file failed to parse or validate; message lists each problem."""


@dataclass(frozen=True)
class FieldSpec:
    kind: str = "float"             # int | float | bool | str
    required: bool = False
    default: object = None
    bound: Bound | None = None      # the range of a number, where it has one
    choices: tuple[str, ...] | None = None
    to: str | None = None           # the ScenarioConfig field a scenario key fills


def _of(cls, name: str, **kw) -> FieldSpec:
    """The spec of a key that fills the library field cls.<name>: that field's
    bound, its default if it has one, and kind int for an integer bound."""
    [f] = [f for f in fields(cls) if f.name == name]
    bound = f.metadata.get("bound")
    return FieldSpec(**{"kind": "int" if bound and bound.integer else "float",
                        "default": None if f.default is MISSING else f.default,
                        "bound": bound, **kw})


def _fills(to: str, **kw) -> FieldSpec:
    """The spec of a scenario key that fills ScenarioConfig.<to>."""
    return _of(ScenarioConfig, to, to=to, **kw)


_COMMON_FIELDS = {
    "seed": _of(ExperimentPlan, "rng_seed"),
    "output_format": FieldSpec("str", default="csv", choices=("csv", "text")),
}
_G_FACTOR = _of(ZeemanConfig, "g_factor", default=constants().ca40_g_factor)
_CONTRAST = _of(NoiseModel, "contrast")   # also the probe's: both hold protocol.CONTRAST
_FIELD_NOISE = {"gradient_rms_t_per_m": _of(NoiseModel, "gradient_rms"),
                "common_mode_rms_t": _of(NoiseModel, "common_mode_rms")}
_SAMPLES = FieldSpec("int", default=101, bound=Bound(2, 100000, integer=True))   # table rows

_SCENARIO_FIELDS = {
    "scenario": FieldSpec("str", required=True, choices=SCENARIO_KINDS),
    "axial_frequency_hz": _of(TrapConfig, "axial_frequency", default=10e6),
    "ion_mass_kg": _of(TrapConfig, "ion_mass", default=DEFAULT_ION_MASS_KG),
    "shots": _of(ExperimentPlan, "shots", default=10),
    "interaction_time_s": _of(ExperimentPlan, "interaction_time", default=5.0),
    "bias_phase_rad": _of(ExperimentPlan, "bias_phase", default=math.pi / 2),
    "g_factor": _G_FACTOR,
    "preparation_fidelity": _fills("preparation_fidelity"),
    "readout_contrast": _CONTRAST,
    **_FIELD_NOISE,
    "target_snr": _fills("target_snr"),
    "overhead_s_per_shot": _fills("overhead_per_shot"),
    "paper_values": _fills("paper_values", kind="bool"),
    "source_moment_j_per_t": _fills("source_moment"),
    "moment_before_j_per_t": _fills("moment_before"),
    "moment_after_j_per_t": _fills("moment_after"),
    "well_separation_m": _fills("well_separation"),
    "probe_spacing_m": _fills("probe_spacing"),
    "atom_moment_j_per_t": _fills("atom_moment"),
    "delta_n": _fills("delta_n"),
    "n_ions": _fills("n_ions"),
}

COMMAND_SCHEMAS: dict[str, dict[str, FieldSpec]] = {
    "crystal": {
        **_COMMON_FIELDS,
        **{key: replace(_SCENARIO_FIELDS[key], required=True, default=None)
           for key in ("n_ions", "axial_frequency_hz", "ion_mass_kg")},
        "ion_charge_c": _of(TrapConfig, "ion_charge"),
    },
    "field": {
        **_COMMON_FIELDS,
        "source_moment_j_per_t": FieldSpec(required=True),
        "source_z_m": FieldSpec(default=0.0),
        "z_start_m": FieldSpec(required=True),
        "z_stop_m": FieldSpec(required=True),
        "n_points": _SAMPLES,
        "pair_z1_m": FieldSpec(),
        "pair_z2_m": FieldSpec(),
    },
    "protocol": {
        **_COMMON_FIELDS,
        "delta_b_t": FieldSpec(required=True),
        "g_factor": _G_FACTOR,
        "contrast": _CONTRAST,
        "duration_s": FieldSpec(required=True, bound=Bound(0)),
        "n_steps": _SAMPLES,
    },
    "montecarlo": {
        **_COMMON_FIELDS,
        **{key: replace(_SCENARIO_FIELDS[key], required=True, default=None)
           for key in ("shots", "interaction_time_s")},
        "delta_b_t": FieldSpec(required=True),
        "bias_phase_rad": _of(ExperimentPlan, "bias_phase"),
        "g_factor": _G_FACTOR,
        "contrast": _CONTRAST,
        **_FIELD_NOISE,
        "probe_spacing_m": FieldSpec(default=1.03e-6, bound=Bound(0, exclusive_minimum=True)),
    },
    "scenario": {**_COMMON_FIELDS, **_SCENARIO_FIELDS},
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    parameters: dict
    seed: int
    output_format: str


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...] | np.ndarray   # tuples, or a 2-D float64 array


@dataclass(frozen=True)
class ResultBundle:
    header: str                     # "# iongradim ..." line opening every output file
    config_echo: str
    tables: tuple[Table, ...]
    annotations: tuple[str, ...] = field(default_factory=tuple)


# Per command, built once from its schema: the keys it requires, and the
# default of each other key (None where it has none).
_REQUIRED = {command: tuple(key for key, spec in schema.items() if spec.required)
             for command, schema in COMMAND_SCHEMAS.items()}
_DEFAULTS = {command: {key: spec.default for key, spec in schema.items() if not spec.required}
             for command, schema in COMMAND_SCHEMAS.items()}


def _bad_value(key: str, line_no: int, problem: str) -> ConfigFileError:
    return ConfigFileError(f"line {line_no}: {key}: {problem}")


def _parse_value(raw: str, spec: FieldSpec, key: str, line_no: int) -> object:
    if spec.kind == "int":
        if not _INT_RE.match(raw):
            raise _bad_value(key, line_no, f"expected an integer, got {raw!r}")
        try:
            value = int(raw)
        except ValueError:   # more digits than Python converts from a string
            raise _bad_value(key, line_no, f"an integer of {len(raw.lstrip('+-'))} digits "
                                           "is too long to convert") from None
    elif spec.kind == "float":
        try:
            value = float(raw)
        except ValueError:
            raise _bad_value(key, line_no, f"expected a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise _bad_value(key, line_no, f"value must be finite, got {raw!r}")
    elif spec.kind == "bool":
        lowered = raw.lower()
        if lowered in ("on", "true"):
            return True
        if lowered in ("off", "false"):
            return False
        raise _bad_value(key, line_no, f"expected on/off, got {raw!r}")
    else:
        value = raw
    if spec.choices is not None and value not in spec.choices:
        raise _bad_value(key, line_no,
                         f"must be one of {', '.join(spec.choices)}; got {raw!r}")
    broken = spec.bound and spec.bound.broken(value)
    if broken:
        raise _bad_value(key, line_no, f"must be {broken}, got {raw}")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text; raises ConfigFileError listing every problem."""
    assignments: dict[str, tuple[str, int]] = {}
    errors: list[str] = []
    # only \n, \r\n and \r end a line; str.splitlines would also break a
    # comment or value at \v, \f, \x1c-\x1e, \x85, U+2028 and U+2029
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw_line in enumerate(lines, start=1):
        line = raw_line.partition("#")[0].strip()
        if not line:
            continue
        key, equals, value = line.partition("=")
        if not equals:
            errors.append(f"line {line_no}: expected 'key = value', got {raw_line.strip()!r}")
            continue
        key, value = key.strip(), value.strip()
        if not _KEY_RE.match(key):
            errors.append(f"line {line_no}: invalid key {key!r}")
            continue
        if not value:
            errors.append(f"line {line_no}: empty value for key {key!r}")
            continue
        if key in assignments:
            first_line = assignments[key][1]
            errors.append(f"line {line_no}: duplicate key {key!r} "
                          f"(first set on line {first_line})")
            continue
        assignments[key] = (value, line_no)
    if errors:
        raise ConfigFileError("\n".join(errors))

    if "command" not in assignments:
        raise ConfigFileError("missing required key 'command'")
    command, command_line = assignments.pop("command")
    if command not in COMMAND_SCHEMAS:
        raise ConfigFileError(
            f"line {command_line}: unknown command {command!r}; "
            f"expected one of {', '.join(sorted(COMMAND_SCHEMAS))}")
    schema = COMMAND_SCHEMAS[command]

    parameters = dict(_DEFAULTS[command])
    for key, (raw, line_no) in assignments.items():
        spec = schema.get(key)
        if spec is None:
            errors.append(f"line {line_no}: unknown key {key!r} for command {command!r}")
            continue
        try:
            parameters[key] = _parse_value(raw, spec, key, line_no)
        except ConfigFileError as exc:
            errors.append(str(exc))
    errors += [f"missing required key {key!r} for command {command!r}"
               for key in _REQUIRED[command] if key not in assignments]
    if errors:
        raise ConfigFileError("\n".join(errors))

    seed = parameters.pop("seed")
    output_format = parameters.pop("output_format")
    return RunConfig(command=command, parameters=parameters,
                     seed=seed, output_format=output_format)


def _format_config_value(value: object) -> str:
    """A float's repr, which parses back to the same float; a str as it is;
    format_number's text of a bool or an int."""
    if isinstance(value, float):
        return repr(value)
    return value if isinstance(value, str) else format_number(value)


def normalized_config(run: RunConfig) -> str:
    """Canonical config echo: parses back to an identical RunConfig."""
    lines = [f"command = {run.command}",
             f"seed = {run.seed}",
             f"output_format = {run.output_format}"]
    for key in sorted(run.parameters):
        value = run.parameters[key]
        if value is None:
            continue
        lines.append(f"{key} = {_format_config_value(value)}")
    return "\n".join(lines) + "\n"


def config_hash(echo: str) -> str:
    return hashlib.sha256(echo.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# command execution

_TRAJECTORY_COLUMNS = ("time_s", "phase_rad", "parity")


def _trap(params: dict, **charge) -> TrapConfig:
    """The trap of axial_frequency_hz, converted from Hz to rad/s, and ion_mass_kg."""
    return TrapConfig(axial_frequency=2.0 * math.pi * params["axial_frequency_hz"],
                      ion_mass=params["ion_mass_kg"], **charge)


def _execute_crystal(params: dict, seed: int) -> tuple[tuple[Table, ...], tuple[str, ...]]:
    trap = _trap(params, ion_charge=params["ion_charge_c"])
    geometry = equilibrium_positions(params["n_ions"], trap)
    n = geometry.n_ions
    positions = Table("positions", ("ion_index", "z_m"), tuple(enumerate(geometry.positions)))
    spacings = Table("spacings", ("i", "j", "distance_m"),
                     tuple((i, i + 1, spacing(geometry, i, i + 1)) for i in range(n - 1)))
    d12 = spacing(geometry, 0, 1) if n >= 2 else math.nan
    summary = Table("summary", ("n_ions", "length_scale_m", "d12_m"),
                    ((n, geometry.length_scale, d12),))
    return (positions, spacings, summary), ()


def _execute_field(params: dict, seed: int) -> tuple[tuple[Table, ...], tuple[str, ...]]:
    z1, z2 = params["pair_z1_m"], params["pair_z2_m"]
    if (z1 is None) != (z2 is None):   # before the table, which can run to 1e5 points
        raise ConfigurationError("pair_z1_m and pair_z2_m must be given together")
    source = DipoleSource(Vec3(0.0, 0.0, params["source_z_m"]),
                          Vec3(0.0, 0.0, params["source_moment_j_per_t"]))
    start, stop = params["z_start_m"], params["z_stop_m"]
    if not math.isfinite(stop - start):
        raise ConfigurationError(f"the span from z_start_m = {start!r} to z_stop_m = "
                                 f"{stop!r} overflows a float")
    # only the last product i * step can overflow, and linspace sets that point to stop
    with np.errstate(over="ignore"):
        zs = np.linspace(start, stop, params["n_points"])
    tables = [Table("axial_field", ("z_m", "Bz_T"),
                    np.column_stack((zs, axial_field_table(source, zs))))]
    if z1 is not None:
        p1, p2 = Vec3(0.0, 0.0, z1), Vec3(0.0, 0.0, z2)
        delta = axial_bz(source, z2) - axial_bz(source, z1)
        grad = compensation_gradient(source, p1, p2)
        tables.append(Table("pair_differential",
                            ("z1_m", "z2_m", "delta_b_t", "compensation_gradient_t_per_m"),
                            ((z1, z2, delta, grad),)))
    return tuple(tables), ()


def _bell_pair(spacing: float, fidelity: float):
    """The protocol and montecarlo commands' decoherence-free Bell pair, at z = 0 and spacing."""
    return prepare_probe(BELL, (Vec3(0.0, 0.0, 0.0), Vec3(0.0, 0.0, spacing)), fidelity,
                         branch_weights=PAIR_WEIGHTS)


def _shot_inputs(params: dict, seed: int, contrast_key: str):
    """The Zeeman coupling, noise model and plan of a command that draws shots;
    the readout contrast is read from contrast_key."""
    return (ZeemanConfig(g_factor=params["g_factor"]),
            NoiseModel(common_mode_rms=params["common_mode_rms_t"],
                       gradient_rms=params["gradient_rms_t_per_m"],
                       contrast=params[contrast_key]),
            ExperimentPlan(shots=params["shots"], interaction_time=params["interaction_time_s"],
                           bias_phase=params["bias_phase_rad"], rng_seed=seed))


def _execute_protocol(params: dict, seed: int) -> tuple[tuple[Table, ...], tuple[str, ...]]:
    zeeman = ZeemanConfig(g_factor=params["g_factor"])
    probe = _bell_pair(1e-6, params["contrast"])
    rate = phase_rate(probe, zeeman, (0.0, params["delta_b_t"]))
    rows = parity_trajectory(rate, probe.contrast, params["duration_s"], params["n_steps"])
    t_pi = pi_time(rate)
    tables = (Table("parity_trajectory", _TRAJECTORY_COLUMNS, rows),
              Table("summary", ("phase_rate_rad_per_s", "t_pi_s"), ((rate, t_pi),)))
    return tables, (f"time to a pi phase rotation: {t_pi:.4f} s",)


def _execute_montecarlo(params: dict, seed: int) -> tuple[tuple[Table, ...], tuple[str, ...]]:
    probe = _bell_pair(params["probe_spacing_m"], 1.0)
    zeeman, noise, plan = _shot_inputs(params, seed, "contrast")
    fields = (0.0, params["delta_b_t"])
    outcomes = simulate_shots(plan, probe, zeeman, fields, noise)
    true_parity = expected_parity(plan, probe, zeeman, fields, noise)
    result = parity_estimate(outcomes.parity_sum, outcomes.shots)
    estimate = Table("estimate",
                     ("parity_estimate", "std_error", "snr", "true_parity", "shots"),
                     ((result.parity_estimate, result.std_error, result.snr,
                       true_parity, result.shots_used),))
    counts = outcomes.pattern_counts
    drawn = np.flatnonzero(counts)
    counts_table = Table("outcome_counts", ("outcome_index", "count"),
                         tuple(zip(drawn.tolist(), counts[drawn].tolist())))
    return (estimate, counts_table), ()


def _execute_scenario(params: dict, seed: int) -> tuple[tuple[Table, ...], tuple[str, ...]]:
    config = ScenarioConfig(
        params["scenario"], _trap(params), *_shot_inputs(params, seed, "readout_contrast"),
        **{spec.to: params[key] for key, spec in _SCENARIO_FIELDS.items() if spec.to})
    report = run_scenario(config)
    tables = [
        Table("geometry", ("quantity", "value"), tuple(report.geometry.items())),
        Table("field_table", ("ion_index", "z_m", "Bz_T"), report.field_table),
        Table("estimation", ("quantity", "value"), tuple(report.estimation.items())),
    ]
    for label, rows in report.trajectories:
        tables.append(Table(f"parity_trajectory_{label}", _TRAJECTORY_COLUMNS, rows))
    return tuple(tables), report.annotations


# Every executor takes (params, seed); only montecarlo and scenario runs draw shots.
_EXECUTORS = {
    "crystal": _execute_crystal,
    "field": _execute_field,
    "protocol": _execute_protocol,
    "montecarlo": _execute_montecarlo,
    "scenario": _execute_scenario,
}


def execute(run: RunConfig) -> ResultBundle:
    """Dispatch the parsed config and bundle the outputs with provenance."""
    if run.command not in _EXECUTORS:
        raise ConfigurationError(f"unknown command {run.command!r}")
    echo = normalized_config(run)
    log.info("executing command %r (seed %d)", run.command, run.seed)
    tables, annotations = _EXECUTORS[run.command](run.parameters, run.seed)
    header = (f"# iongradim {__version__} command={run.command} seed={run.seed} "
              f"config_sha256={config_hash(echo)}")
    return ResultBundle(header=header, config_echo=echo, tables=tables, annotations=annotations)


# ---------------------------------------------------------------------------
# output formatting

# The '%' spec of a number cell of exactly this type, the one statement of the
# cell formats: a float's writes f"{x:.15e}" for every float64, and an int's
# writes str(n). A cell of any other type, bool among them, goes into
# _row_lines' template as its _csv_cell text under '%s'.
_SPECS = {**dict.fromkeys((float, np.float64), "%.15e"),
          **dict.fromkeys((int, np.int64), "%d")}


def format_number(value) -> str:
    """A number in 16 significant digits, off by at most half a unit in the 16th.

    Parsed back, it is within a relative 6e-16 of the value but not always
    the same float: some doubles need 17 digits (0.1 + 0.2 reads back as 0.3).
    """
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, (int, np.integer)):
        return _SPECS[int] % int(value)
    return _SPECS[float] % float(value)


def _csv_cell(value) -> str:
    if isinstance(value, str):
        if "," in value or '"' in value or "\n" in value:
            return '"' + value.replace('"', '""') + '"'
        return value
    return format_number(value)


def _row_lines(rows, sep: str, lead: str) -> list[str]:
    """The rows' lines, each lead + sep.join(map(_csv_cell, row)), "\\n"-joined
    into one string by one '%' call; no string for no rows. An array's rows
    are taken as lists of Python floats.

    The template holds each cell's spec (_SPECS) after the lead or a
    separator: the first row's specs, repeated, when every row has them. A
    cell's text is an argument, never part of the template, so a '%' in a
    string cell is written as it is.
    """
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    if not rows:
        return []
    cells = list(chain.from_iterable(rows))
    specs = list(map(_SPECS.get, map(type, cells)))
    if None in specs:
        for i in [i for i, spec in enumerate(specs) if spec is None]:
            specs[i], cells[i] = "%s", _csv_cell(cells[i])
    width = len(rows[0])
    if specs[:width] * len(rows) == specs and len(set(map(len, rows))) == 1:
        template = "\n".join([lead + sep.join(specs[:width])] * len(rows))
    else:
        spec = iter(specs)
        template = "\n".join([lead + sep.join(islice(spec, len(row))) for row in rows])
    return [template % tuple(cells)]


# ---------------------------------------------------------------------------
# all-float tables: the float cell text for a whole array at once (_format.e15_words)

# Each bundle pays about 35 us of numpy calls in the array kernel, and a cell
# then a fraction of its '%' cost: on one 2- or 3-column table (2-vCPU Xeon)
# the kernel overtakes _row_lines at about 50 cells and is 1.3-1.4x faster at
# 72 and 1.6-1.7x at 96. A seed-0 sweep pass has 24 array tables (2,108
# cells) from 48 to 127 cells, too few for a lower bound to gain a
# measurable share of the pass.
_KERNEL_MIN_CELLS = 128


def _word(text: str) -> np.uint32:
    """text (at most 4 ASCII characters) as one native uint32 word, NUL-padded."""
    return np.frombuffer(text.encode("ascii").ljust(4, b"\0"), np.uint32)[0]


# (sep, lead) of each output format -> the words that come before a kernel
# cell: the table's first cell, the first cell of each later line, any other
_CELL_WORDS = {(sep, lead): (_word(lead), _word("\n" + lead), _word(sep))
               for sep, lead in ((",", ""), ("  ", "  "))}


def _table_lines(tables, sep: str, lead: str) -> list[list[str]]:
    """For each table, its rows' lines, each lead + sep.join(map(_csv_cell, row)),
    "\\n"-joined into one string; no string for a table without rows. (sep,
    lead) is an output format's, a key of _CELL_WORDS.

    Array tables of at least _KERNEL_MIN_CELLS cells are formatted by one
    _format.e15_words call for the whole bundle, which writes each cell's 6
    words of text into a buffer of 7 words per cell, after a word holding
    what comes before the cell (the line's lead, a newline and the lead, or
    the separator); NULs pad. A cell the kernel did not prove is written
    there as its _SPECS text, which its 24 bytes fit (the longest has 23
    characters). A table's NULs are stripped and its text decoded as one
    string. Every other table, and every table where
    _format.LONG_DOUBLE_OK is false, goes through _row_lines, and only those do.
    """
    out = [None] * len(tables)
    picked = [(i, t.rows.size, t.rows.shape[1]) for i, t in enumerate(tables)
              if isinstance(t.rows, np.ndarray) and t.rows.size >= _KERNEL_MIN_CELLS]
    if picked and _format.LONG_DOUBLE_OK:
        first, line_start, between = _CELL_WORDS[sep, lead]
        values = (tables[picked[0][0]].rows.ravel() if len(picked) == 1 else
                  np.concatenate([tables[i].rows.ravel() for i, _, _ in picked]))
        cells = np.empty((values.size, 7), np.uint32)
        cells[:, 0] = between
        _, fallback = _format.e15_words(values, cells[:, 1:])
        redo = fallback.nonzero()[0]
        if redo.size:
            texts = np.array(list(map(_SPECS[float].__mod__, values[redo].tolist())), "S24")
            cells[redo, 1:] = texts.view(np.uint32).reshape(-1, 6)
        start = 0
        for i, size, width in picked:
            table = cells[start:start + size]
            start += size
            table[::width, 0] = line_start
            table[0, 0] = first
            out[i] = [table.tobytes().translate(None, b"\0").decode("ascii")]
    return [_row_lines(t.rows, sep, lead) if lines is None else lines
            for t, lines in zip(tables, out)]


def _preamble(bundle: ResultBundle) -> list[str]:
    """Header line and annotation block that open report.txt and provenance.txt."""
    lines = [bundle.header, ""]
    if bundle.annotations:
        lines.append("annotations:")
        lines.extend(f"  - {note}" for note in bundle.annotations)
        lines.append("")
    return lines


def _write(path: str, lines: list[str]) -> None:
    """Write the lines, each ending in "\\n", to path as UTF-8.

    The file is written over in place and then, if it was longer, cut to
    the new length, so it holds the same bytes as after `Path.write_text`.
    It is not opened with O_TRUNC: on ext4, truncating an existing file to
    zero before the write costs several times the write itself, and a rerun
    rewrites every file. A new file, or one rewritten at its old size,
    already has the new length and is not truncated at all.
    """
    data = "\n".join([*lines, ""]).encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if os.fstat(fd).st_size != len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def emit(bundle: ResultBundle, output_format: str, out_dir: str | os.PathLike) -> list[str]:
    """Write the bundle; returns the written paths, each out_dir joined with
    its file name (os.path.join). Byte-stable for fixed inputs.

    A file that already exists is overwritten in place and left holding
    exactly the new bytes. No write is atomic: an interrupted one can leave
    new bytes followed by the file's old ones.
    """
    directory = os.path.join(out_dir, "")   # ends in a separator; "" for the working directory
    # one stat: makedirs on an existing directory raises and catches
    if directory and not os.path.isdir(directory):
        os.makedirs(directory, exist_ok=True)
    if output_format == "csv":
        files = [(f"{table.name}.csv", [bundle.header, ",".join(table.columns), *rows])
                 for table, rows in zip(bundle.tables, _table_lines(bundle.tables, ",", ""))]
        files.append(("provenance.txt", [
            *_preamble(bundle), "config echo (sha256 of this block is the config hash):",
            bundle.config_echo.rstrip("\n")]))
    elif output_format == "text":
        lines = _preamble(bundle)
        for table, rows in zip(bundle.tables, _table_lines(bundle.tables, "  ", "  ")):
            lines += [f"[{table.name}]", "  " + "  ".join(table.columns), *rows, ""]
        lines.append("config echo:")
        lines.extend("  " + line for line in bundle.config_echo.splitlines())
        files = [("report.txt", lines)]
    else:
        raise ConfigurationError(f"unknown output format {output_format!r}")
    written = []
    for name, lines in files:
        path = directory + name
        _write(path, lines)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iongradim",
        description="Entangled-ion magnetic gradient sensing simulator.")
    parser.add_argument("--config", required=True, help="path to the run config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed (64-bit unsigned)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=_COMMON_FIELDS["output_format"].choices,
                        help="override the config output format")
    parser.add_argument("--paper-values", choices=("on", "off"), default=None,
                        help="scenario runs: use published reference values "
                             "instead of computed fields")
    return parser


_PARSER = _build_parser()   # argparse keeps no state between parse_args calls


class _StderrHandler(logging.StreamHandler):
    """A StreamHandler that writes each record to whatever sys.stderr is then,
    so a caller that redirects stderr per main call gets each call's lines."""

    def __init__(self):
        logging.Handler.__init__(self)   # StreamHandler's would fix the stream now

    @property
    def stream(self):
        return sys.stderr


def _configure_logging() -> None:
    if logging.root.handlers:   # a caller's handler, or the one an earlier call added
        return
    level_name = os.environ.get("IONGRADIM_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s",
                        handlers=[_StderrHandler()])


def _read_config(path: str) -> str:
    """The config file's text, decoded as UTF-8 without a leading byte-order
    mark (parse_config takes \\n, \\r\\n and \\r line ends). Read to its end,
    so a pipe is read whole too; a failed read raises an OSError that names
    the path, as open's does."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    except OSError as exc:
        exc.filename = path
        raise
    finally:
        os.close(fd)
    return b"".join(chunks).decode("utf-8-sig")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:   # argparse has printed the help or the usage error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        text = _read_config(args.config)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        run = parse_config(text)
        if args.seed is not None:
            if _COMMON_FIELDS["seed"].bound.broken(args.seed):
                raise ConfigurationError("--seed must fit in 64 bits")
            run = replace(run, seed=args.seed)
        if args.format is not None:
            run = replace(run, output_format=args.format)
        if args.paper_values is not None:
            if run.command == "scenario":
                run = replace(run, parameters={**run.parameters,
                                               "paper_values": args.paper_values == "on"})
            else:
                log.warning("--paper-values only applies to scenario runs; ignored")
        bundle = execute(run)
    except (ConfigurationError, FieldSingularityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, InfeasibleError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        written = emit(bundle, run.output_format, args.out)
    except OSError as exc:
        print(f"runtime error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print("\n".join(written))
    return EXIT_OK


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
