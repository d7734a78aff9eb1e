"""Command-line entry point: strict config files in, deterministic tables out.

Config files are UTF-8 text, one `key = value` assignment per line, with
`#` starting a comment. Keys are lowercase identifiers; values are integers,
floats, bare strings, or on/off booleans. Unknown keys, duplicate keys, and
out-of-range values are hard errors (a silently ignored typo in a physics
config produces wrong science). All quantities are base SI with the unit in
the key name; frequencies are given in Hz and converted to rad/s internally.

Outputs are CSV tables (one file per table, scientific notation with 16
significant digits, `#` provenance header line) plus a provenance file
carrying the seed, the config hash, and the normalized config echo from
which the hash can be recomputed. Identical config and seed produce
byte-identical files. Exit codes: 0 success, 1 config or usage error, 2
runtime or solver error.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import math
import os
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, _format
from .constants import Vec3, constants
from .crystal import MAX_IONS, TrapConfig, equilibrium_positions, spacing
from .errors import (ConfigurationError, FieldSingularityError, InfeasibleError,
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
    kind: str                       # int | float | bool | str
    required: bool = False
    default: object = None
    minimum: float | None = None
    maximum: float | None = None
    exclusive_minimum: bool = False
    choices: tuple[str, ...] | None = None


def _f(kind="float", **kw) -> FieldSpec:
    return FieldSpec(kind=kind, **kw)


_COMMON_FIELDS = {
    "seed": _f("int", default=0, minimum=0, maximum=2 ** 64 - 1),
    "output_format": _f("str", default="csv", choices=("csv", "text")),
}

_SCENARIO_FIELDS = {
    "scenario": _f("str", required=True, choices=SCENARIO_KINDS),
    "axial_frequency_hz": _f(default=10e6, minimum=0, exclusive_minimum=True),
    "ion_mass_kg": _f(default=DEFAULT_ION_MASS_KG, minimum=0, exclusive_minimum=True),
    "shots": _f("int", default=10, minimum=1),
    "interaction_time_s": _f(default=5.0, minimum=0),
    "bias_phase_rad": _f(default=math.pi / 2),
    "g_factor": _f(default=constants().ca40_g_factor, minimum=0, exclusive_minimum=True),
    "preparation_fidelity": _f(default=0.99, minimum=0, maximum=1),
    "readout_contrast": _f(default=1.0, minimum=0, maximum=1),
    "gradient_rms_t_per_m": _f(default=0.0, minimum=0),
    "common_mode_rms_t": _f(default=0.0, minimum=0),
    "target_snr": _f(default=2.0, minimum=0, exclusive_minimum=True),
    "overhead_s_per_shot": _f(default=1.0, minimum=0),
    "paper_values": _f("bool", default=False),
    "source_moment_j_per_t": _f(default=None, minimum=0),
    "moment_before_j_per_t": _f(default=None, minimum=0),
    "moment_after_j_per_t": _f(default=None, minimum=0),
    "well_separation_m": _f(default=4.4e-6, minimum=0, exclusive_minimum=True),
    "probe_spacing_m": _f(default=3.5e-6, minimum=0, exclusive_minimum=True),
    "atom_moment_j_per_t": _f(default=None, minimum=0, exclusive_minimum=True),
    "delta_n": _f("int", default=1, minimum=0),
    "n_ions": _f("int", default=None, minimum=1, maximum=MAX_IONS),
}

COMMAND_SCHEMAS: dict[str, dict[str, FieldSpec]] = {
    "crystal": {
        **_COMMON_FIELDS,
        "n_ions": _f("int", required=True, minimum=1, maximum=MAX_IONS),
        "axial_frequency_hz": _f(required=True, minimum=0, exclusive_minimum=True),
        "ion_mass_kg": _f(required=True, minimum=0, exclusive_minimum=True),
        "ion_charge_c": _f(default=constants().elementary_charge,
                           minimum=0, exclusive_minimum=True),
    },
    "field": {
        **_COMMON_FIELDS,
        "source_moment_j_per_t": _f(required=True),
        "source_z_m": _f(default=0.0),
        "z_start_m": _f(required=True),
        "z_stop_m": _f(required=True),
        "n_points": _f("int", default=101, minimum=2, maximum=100000),
        "pair_z1_m": _f(default=None),
        "pair_z2_m": _f(default=None),
    },
    "protocol": {
        **_COMMON_FIELDS,
        "delta_b_t": _f(required=True),
        "g_factor": _f(default=constants().ca40_g_factor, minimum=0, exclusive_minimum=True),
        "contrast": _f(default=1.0, minimum=0, maximum=1),
        "duration_s": _f(required=True, minimum=0),
        "n_steps": _f("int", default=101, minimum=2, maximum=100000),
    },
    "montecarlo": {
        **_COMMON_FIELDS,
        "shots": _f("int", required=True, minimum=1),
        "interaction_time_s": _f(required=True, minimum=0),
        "delta_b_t": _f(required=True),
        "bias_phase_rad": _f(default=0.0),
        "g_factor": _f(default=constants().ca40_g_factor, minimum=0, exclusive_minimum=True),
        "contrast": _f(default=1.0, minimum=0, maximum=1),
        "gradient_rms_t_per_m": _f(default=0.0, minimum=0),
        "common_mode_rms_t": _f(default=0.0, minimum=0),
        "probe_spacing_m": _f(default=1.03e-6, minimum=0, exclusive_minimum=True),
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


def _parse_value(raw: str, spec: FieldSpec, key: str, line_no: int) -> object:
    where = f"line {line_no}: {key}"
    if spec.kind == "int":
        if not _INT_RE.match(raw):
            raise ConfigFileError(f"{where}: expected an integer, got {raw!r}")
        try:
            value = int(raw)
        except ValueError:   # more digits than Python converts from a string
            raise ConfigFileError(f"{where}: an integer of {len(raw.lstrip('+-'))} digits "
                                  "is too long to convert") from None
    elif spec.kind == "float":
        try:
            value = float(raw)
        except ValueError:
            raise ConfigFileError(f"{where}: expected a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigFileError(f"{where}: value must be finite, got {raw!r}")
    elif spec.kind == "bool":
        lowered = raw.lower()
        if lowered in ("on", "true"):
            return True
        if lowered in ("off", "false"):
            return False
        raise ConfigFileError(f"{where}: expected on/off, got {raw!r}")
    else:
        value = raw
    if spec.choices is not None and value not in spec.choices:
        raise ConfigFileError(
            f"{where}: must be one of {', '.join(spec.choices)}; got {raw!r}")
    if spec.minimum is not None and isinstance(value, (int, float)):
        if spec.exclusive_minimum and value <= spec.minimum:
            raise ConfigFileError(f"{where}: must be > {spec.minimum}, got {raw}")
        if not spec.exclusive_minimum and value < spec.minimum:
            raise ConfigFileError(f"{where}: must be >= {spec.minimum}, got {raw}")
    if spec.maximum is not None and isinstance(value, (int, float)) and value > spec.maximum:
        raise ConfigFileError(f"{where}: must be <= {spec.maximum}, got {raw}")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text; raises ConfigFileError listing every problem."""
    assignments: dict[str, tuple[str, int]] = {}
    errors: list[str] = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {line_no}: expected 'key = value', got {raw_line.strip()!r}")
            continue
        key, _, value = line.partition("=")
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

    parameters: dict = {}
    for key, (raw, line_no) in assignments.items():
        if key not in schema:
            errors.append(f"line {line_no}: unknown key {key!r} for command {command!r}")
            continue
        try:
            parameters[key] = _parse_value(raw, schema[key], key, line_no)
        except ConfigFileError as exc:
            errors.append(str(exc))
    for key, spec in schema.items():
        if key in parameters or key in assignments:   # set, though perhaps to a bad value
            continue
        if spec.required:
            errors.append(f"missing required key {key!r} for command {command!r}")
        else:
            parameters[key] = spec.default
    if errors:
        raise ConfigFileError("\n".join(errors))

    seed = parameters.pop("seed")
    output_format = parameters.pop("output_format")
    return RunConfig(command=command, parameters=parameters,
                     seed=seed, output_format=output_format)


def _format_config_value(value: object) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


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

def _execute_crystal(params: dict, seed: int) -> tuple[tuple[Table, ...], tuple[str, ...]]:
    trap = TrapConfig(axial_frequency=2.0 * math.pi * params["axial_frequency_hz"],
                      ion_mass=params["ion_mass_kg"],
                      ion_charge=params["ion_charge_c"])
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
    tables = (Table("parity_trajectory", ("time_s", "phase_rad", "parity"), rows),
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
    count_rows = tuple((int(v), int(counts[v])) for v in np.flatnonzero(counts))
    counts_table = Table("outcome_counts", ("outcome_index", "count"), count_rows)
    return (estimate, counts_table), ()


# Scenario key -> ScenarioConfig field, for every key that is not read by the
# trap builder of _execute_scenario or by _shot_inputs.
_SCENARIO_CONFIG_FIELDS = {
    "paper_values": "paper_values", "preparation_fidelity": "preparation_fidelity",
    "target_snr": "target_snr", "overhead_s_per_shot": "overhead_per_shot",
    "source_moment_j_per_t": "source_moment", "moment_before_j_per_t": "moment_before",
    "moment_after_j_per_t": "moment_after", "well_separation_m": "well_separation",
    "probe_spacing_m": "probe_spacing", "atom_moment_j_per_t": "atom_moment",
    "delta_n": "delta_n", "n_ions": "n_ions",
}


def _execute_scenario(params: dict, seed: int) -> tuple[tuple[Table, ...], tuple[str, ...]]:
    trap = TrapConfig(axial_frequency=2.0 * math.pi * params["axial_frequency_hz"],
                      ion_mass=params["ion_mass_kg"])
    config = ScenarioConfig(
        params["scenario"], trap, *_shot_inputs(params, seed, "readout_contrast"),
        **{name: params[key] for key, name in _SCENARIO_CONFIG_FIELDS.items()})
    report = run_scenario(config)
    tables = [
        Table("geometry", ("quantity", "value"), tuple(report.geometry.items())),
        Table("field_table", ("ion_index", "z_m", "Bz_T"), report.field_table),
        Table("estimation", ("quantity", "value"), tuple(report.estimation.items())),
    ]
    for label, rows in report.trajectories:
        tables.append(Table(f"parity_trajectory_{label}", ("time_s", "phase_rad", "parity"),
                            rows))
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

def format_number(value) -> str:
    """A number in 16 significant digits, off by at most half a unit in the 16th.

    Parsed back, it is within a relative 6e-16 of the value but not always
    the same float: some doubles need 17 digits (0.1 + 0.2 reads back as 0.3).
    """
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.15e}"


def _csv_cell(value) -> str:
    if isinstance(value, str):
        if any(ch in value for ch in (",", '"', "\n")):
            return '"' + value.replace('"', '""') + '"'
        return value
    return format_number(value)


def _row_lines(rows, sep: str):
    """Each row as sep.join(map(_csv_cell, row)); an array's rows are taken
    as lists of Python floats."""
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    return (sep.join(map(_csv_cell, row)) for row in rows)


# ---------------------------------------------------------------------------
# all-float tables: '{:.15e}' for a whole array at once (_format.e15_words)

# Each bundle pays about 50 us of numpy calls in the array kernel, and a cell
# then a fraction of its _csv_cell cost: on one 2- or 3-column table the kernel
# overtakes _row_lines at about 48 cells and is 1.4-2.2x faster from 72 to 120.
_KERNEL_MIN_CELLS = 128
_NEWLINE = _format.ascii_words([[ord("\n"), 0, 0, 0]])[0]


def _lead_word(text: str) -> np.uint32:
    """The word that ORs text (at most 2 ASCII characters) into a cell's lead bytes."""
    return _format.ascii_words([[*text.encode("ascii").ljust(2, b"\0"), 0, 0]])[0]


def _table_lines(tables, sep: str, lead: str) -> list:
    """For each table, strings that "\\n".join to its rows' lines, each line
    lead + sep.join(map(_csv_cell, row)); sep and lead hold at most 2 characters.

    Array tables of at least _KERNEL_MIN_CELLS cells are formatted by one
    _format.e15_words call for the whole bundle. Each cell fills 24 bytes,
    its two lead bytes holding its separator or the line's lead, and each
    row one more word holding its newline; NULs pad. A table's NULs are
    stripped and its text decoded as one string, which is split into lines
    only to write again, by _row_lines, each row that holds a cell the
    kernel did not prove. Every other table goes through _row_lines.
    """
    out = [_row_lines(t.rows, sep) if not lead
           else (lead + line for line in _row_lines(t.rows, sep)) for t in tables]
    if not _format.LONG_DOUBLE_OK:
        return out
    picked = [(i, *t.rows.shape) for i, t in enumerate(tables)
              if isinstance(t.rows, np.ndarray) and t.rows.size >= _KERNEL_MIN_CELLS]
    if not picked:
        return out
    words, fallback = _format.e15_words(
        np.concatenate([tables[i].rows.ravel() for i, _, _ in picked]))
    cell = 0
    for i, n, width in picked:
        cells = slice(cell, cell + n * width)
        cell += n * width
        region = np.empty((n, 6 * width + 1), np.uint32)
        region[:, :-1] = words[cells].reshape(n, 6 * width)
        region[:, -1] = _NEWLINE
        region[-1, -1] = 0
        region[:, 0] |= _lead_word(lead)
        region[:, 6:-1:6] |= _lead_word(sep)
        text = region.tobytes().translate(None, b"\0").decode("ascii")
        redo = np.flatnonzero(fallback[cells].reshape(n, width).any(axis=1)).tolist()
        if not redo:
            out[i] = [text]
            continue
        lines = text.split("\n")
        for r, line in zip(redo, _row_lines(tables[i].rows[redo], sep)):
            lines[r] = lead + line
        out[i] = lines
    return out


def _preamble(bundle: ResultBundle) -> list[str]:
    """Header line and annotation block that open report.txt and provenance.txt."""
    lines = [bundle.header, ""]
    if bundle.annotations:
        lines.append("annotations:")
        lines.extend(f"  - {note}" for note in bundle.annotations)
        lines.append("")
    return lines


def _write(path: Path, lines: list[str]) -> None:
    """Write the lines, each ending in "\\n", to path as UTF-8.

    The file is written over in place and then, if it was longer, cut to
    the new length, so it holds the same bytes as after `Path.write_text`.
    It is not opened with O_TRUNC: on ext4, truncating an existing file to
    zero before the write costs several times the write itself, and a rerun
    rewrites every file. A new file, or one rewritten at its old size,
    already has the new length and is not truncated at all.
    """
    data = ("\n".join(lines) + "\n").encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if os.fstat(fd).st_size != len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def emit(bundle: ResultBundle, output_format: str, out_dir: str | Path) -> list[Path]:
    """Write the bundle; returns the written paths. Byte-stable for fixed inputs.

    A file that already exists is overwritten in place and left holding
    exactly the new bytes. No write is atomic: an interrupted one can leave
    new bytes followed by the file's old ones.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if output_format == "csv":
        for table, rows in zip(bundle.tables, _table_lines(bundle.tables, ",", "")):
            path = out / f"{table.name}.csv"
            lines = [bundle.header, ",".join(table.columns)]
            lines.extend(rows)
            _write(path, lines)
            written.append(path)
        written.append(_write_provenance(bundle, out))
    elif output_format == "text":
        lines = _preamble(bundle)
        for table, rows in zip(bundle.tables, _table_lines(bundle.tables, "  ", "  ")):
            lines.append(f"[{table.name}]")
            lines.append("  " + "  ".join(table.columns))
            lines.extend(rows)
            lines.append("")
        lines.append("config echo:")
        lines.extend("  " + line for line in bundle.config_echo.splitlines())
        path = out / "report.txt"
        _write(path, lines)
        written.append(path)
    else:
        raise ConfigurationError(f"unknown output format {output_format!r}")
    return written


def _write_provenance(bundle: ResultBundle, out: Path) -> Path:
    lines = _preamble(bundle)
    lines.append("config echo (sha256 of this block is the config hash):")
    lines.append(bundle.config_echo.rstrip("\n"))
    path = out / "provenance.txt"
    _write(path, lines)
    return path


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
    parser.add_argument("--format", choices=("csv", "text"), default=None,
                        help="override the config output format")
    parser.add_argument("--paper-values", choices=("on", "off"), default=None,
                        help="scenario runs: use published reference values "
                             "instead of computed fields")
    return parser


_PARSER = _build_parser()   # argparse keeps no state between parse_args calls


def _configure_logging() -> None:
    level_name = os.environ.get("IONGRADIM_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:   # argparse has printed the help or the usage error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        run = parse_config(text)
        if args.seed is not None:
            if not (0 <= args.seed < 2 ** 64):
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
    for path in written:
        print(path)
    return EXIT_OK


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
