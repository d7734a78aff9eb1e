import contextlib
import dataclasses
import errno
import functools
import io
import json
import math
import os
import random
import shutil
import stat
import tempfile
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from iongradim import _format, cli, crystal, estimation
from iongradim.cli import (ConfigFileError, ResultBundle, RunConfig, Table, _csv_cell,
                           _preamble, config_hash, emit, execute, format_number, main,
                           normalized_config, parse_config)
from iongradim.constants import constants
from iongradim.errors import Bound, ConfigurationError
from iongradim.protocol import ZeemanConfig, accumulated_phase, phase_rate
from test_scenarios import _bound_edges

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

CRYSTAL_CFG = """\
# three-ion chain, Ca-40 at 10 MHz
command = crystal
n_ions = 3
axial_frequency_hz = 10e6
ion_mass_kg = 6.6421562664e-26
"""

SCENARIO_CFG = """\
command = scenario
scenario = three_ion_spin
g_factor = 2.002
paper_values = on
seed = 42
"""


# ---------------------------------------------------------------------------
# parsing

def test_parse_minimal_crystal_config():
    run = parse_config(CRYSTAL_CFG)
    assert run.command == "crystal"
    assert run.parameters["n_ions"] == 3
    assert run.parameters["axial_frequency_hz"] == 10e6
    assert run.seed == 0
    assert run.output_format == "csv"


def test_negative_frequency_names_the_field():
    bad = CRYSTAL_CFG.replace("10e6", "-10e6")
    with pytest.raises(ConfigFileError, match="axial_frequency_hz"):
        parse_config(bad)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigFileError, match="duplicate key"):
        parse_config(CRYSTAL_CFG + "n_ions = 4\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigFileError, match="unknown key"):
        parse_config(CRYSTAL_CFG + "n_irons = 4\n")


def test_syntax_error_carries_line_number():
    with pytest.raises(ConfigFileError, match="line 2"):
        parse_config("command = crystal\nwhat is this\nn_ions = 3\n")


@pytest.mark.parametrize("separator", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                       "\u2029"])
def test_only_line_feeds_and_returns_end_a_config_line(separator):
    # str.splitlines also breaks at each of these; after a `#` the rest of the
    # line stays a comment, and a line's number is the one an editor shows
    cfg = (CRYSTAL_CFG.replace("10 MHz", f"10 MHz, old setting:{separator}seed = 9")
           .replace("10e6", f"10e6  # was 4e6{separator}seed = 9"))
    run = parse_config(cfg)
    assert run.seed == 0 and run.parameters["axial_frequency_hz"] == 10e6
    with pytest.raises(ConfigFileError, match="^line 6: expected 'key = value'"):
        parse_config(cfg + "what is this\n")


def test_missing_required_key():
    with pytest.raises(ConfigFileError, match="n_ions"):
        parse_config("command = crystal\naxial_frequency_hz = 10e6\n"
                     "ion_mass_kg = 6.64e-26\n")


def test_missing_command():
    with pytest.raises(ConfigFileError, match="command"):
        parse_config("n_ions = 3\n")


def test_unknown_command():
    with pytest.raises(ConfigFileError, match="unknown command"):
        parse_config("command = warp\n")
    with pytest.raises(ConfigurationError, match="unknown command"):
        execute(RunConfig("warp", {}, 0, "csv"))


def test_int_field_rejects_float():
    with pytest.raises(ConfigFileError, match="integer"):
        parse_config(CRYSTAL_CFG.replace("n_ions = 3", "n_ions = 3.5"))


def test_multiple_errors_reported_together():
    bad = ("command = crystal\nn_ions = 99\naxial_frequency_hz = -1\n"
           "ion_mass_kg = 6.64e-26\nbogus = 1\n")
    with pytest.raises(ConfigFileError) as exc:
        parse_config(bad)
    message = str(exc.value)
    assert "n_ions" in message and "axial_frequency_hz" in message and "bogus" in message


_BOUNDED_KEYS = [(command, key) for command, schema in sorted(cli.COMMAND_SCHEMAS.items())
                 for key, spec in schema.items() if spec.bound is not None]


@pytest.mark.parametrize("command, key", _BOUNDED_KEYS, ids=map("/".join, _BOUNDED_KEYS))
def test_each_key_holds_its_bound_at_its_edges(command, key):
    # the finite edges of the library's own edge test, read as config text
    spec = cli.COMMAND_SCHEMAS[command][key]
    bound = spec.bound
    for value, accepted in _bound_edges(bound):
        if (spec.kind == "int") != isinstance(value, int) or not -math.inf < value < math.inf:
            continue   # the file's own checks refuse these first
        text = repr(value)
        if accepted:
            assert cli._parse_value(text, spec, key, 7) == value, text
            continue
        if bound.maximum is not None and value > bound.maximum:
            rule = f"<= {bound.maximum}"
        else:
            rule = f"{'>' if bound.exclusive_minimum else '>='} {bound.minimum}"
        with pytest.raises(ConfigFileError) as raised:
            cli._parse_value(text, spec, key, 7)
        assert str(raised.value) == f"line 7: {key}: must be {rule}, got {text}"


def _spec_values(spec):
    """Values of one schema key within its FieldSpec bound and choices."""
    if spec.choices is not None:
        return st.sampled_from(spec.choices)
    if spec.kind == "bool":
        return st.booleans()
    bound = spec.bound or Bound()
    if spec.kind == "int":   # no int key has an exclusive minimum
        return st.integers(min_value=bound.minimum, max_value=bound.maximum)
    assert spec.kind == "float", spec
    return st.floats(min_value=bound.minimum, max_value=bound.maximum,
                     exclude_min=bound.exclusive_minimum, allow_nan=False, allow_infinity=False)


def _config_text(value):
    if isinstance(value, bool):
        return "on" if value else "off"
    return value if isinstance(value, str) else repr(value)


def _config_file(command, values):
    return f"command = {command}\n" + "".join(
        f"{key} = {_config_text(value)}\n" for key, value in values.items())


def _config_values(command):
    values = st.fixed_dictionaries({key: _spec_values(spec)
                                    for key, spec in cli.COMMAND_SCHEMAS[command].items()})
    if command == "crystal":
        return values.filter(_trap_frequency_fits)
    return values.map(_accepted_scenario) if command == "scenario" else values


def _accepted_scenario(values):
    """The drawn scenario values, moved to where ScenarioConfig accepts them."""
    spacing, separation = sorted((values["probe_spacing_m"], values["well_separation_m"]))
    assume(spacing < separation and _trap_frequency_fits(values))
    return {**values, "probe_spacing_m": spacing, "well_separation_m": separation,
            "n_ions": 5 if values["scenario"] == "ghz_chain" else values["n_ions"]}


def _trap_frequency_fits(values):
    """Whether the trap frequency in rad/s fits a float, as TrapConfig requires."""
    return 2.0 * math.pi * values["axial_frequency_hz"] < math.inf


# Where cli._execute_scenario puts each key it reads for the kind, cli._trap and
# cli._shot_inputs; every other key names its field in its FieldSpec's `to`.
_BUILT_SCENARIO_KEYS = {
    "seed": "plan.rng_seed", "scenario": "kind", "axial_frequency_hz": "trap.axial_frequency",
    "ion_mass_kg": "trap.ion_mass", "g_factor": "zeeman.g_factor",
    "readout_contrast": "noise.contrast", "gradient_rms_t_per_m": "noise.gradient_rms",
    "common_mode_rms_t": "noise.common_mode_rms", "shots": "plan.shots",
    "interaction_time_s": "plan.interaction_time", "bias_phase_rad": "plan.bias_phase",
}


class _Captured(Exception):
    pass


def _call_args(run, name):
    """The arguments with which executing run calls cli.<name>, which is not run."""
    def capture(*args):
        raise _Captured(*args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, name, capture)
        with pytest.raises(_Captured) as caught:
            execute(run)
    return caught.value.args


def _field_bound(owner, name):
    """The Bound that owner's dataclass declares for its field name; None if none."""
    [f] = [f for f in dataclasses.fields(owner) if f.name == name]
    return f.metadata.get("bound")


def _assert_spec_holds_the_field_bound(schema, key, owner, name):
    # the schema reads the library's bound object rather than restating it
    assert schema[key].bound is _field_bound(owner, name), key


def _assert_scenario_keys_reach_their_fields(run, values):
    [config] = _call_args(run, "run_scenario")
    mapped = {key: spec.to for key, spec in cli._SCENARIO_FIELDS.items() if spec.to}
    assert not set(_BUILT_SCENARIO_KEYS) & set(mapped)
    paths = {**_BUILT_SCENARIO_KEYS, **mapped}
    assert set(paths) == {*cli._SCENARIO_FIELDS, "seed"}
    for key, path in paths.items():
        expected = 2.0 * math.pi * values[key] if key == "axial_frequency_hz" else values[key]
        *parents, name = path.split(".")
        owner = functools.reduce(getattr, parents, config)
        assert getattr(owner, name) == expected, key
        _assert_spec_holds_the_field_bound(cli.COMMAND_SCHEMAS["scenario"], key, owner, name)


@given(st.sampled_from(sorted(cli.COMMAND_SCHEMAS)).flatmap(
    lambda command: st.tuples(st.just(command), _config_values(command))))
def test_round_trip_normalization(drawn):
    # every schema key set, each within its bounds and choices; a scenario
    # config that ScenarioConfig accepts, whose every key reaches its field
    command, values = drawn
    run = parse_config(_config_file(command, values))
    assert {**run.parameters, "seed": run.seed, "output_format": run.output_format} == values
    echo = normalized_config(run)
    again = parse_config(echo)
    assert again == run
    assert normalized_config(again) == echo
    assert config_hash(echo) == config_hash(normalized_config(again))
    if command == "scenario":
        _assert_scenario_keys_reach_their_fields(run, values)
    if command == "montecarlo":
        _assert_montecarlo_keys_reach_their_fields(run, values)
    if command == "crystal":
        _assert_crystal_keys_reach_their_fields(run, values)


def _assert_montecarlo_keys_reach_their_fields(run, values):
    plan, probe, zeeman, fields, noise = _call_args(run, "simulate_shots")
    # (object, field) each key fills; the last two fill no library field
    reached = {"seed": (plan, "rng_seed"), "shots": (plan, "shots"),
               "interaction_time_s": (plan, "interaction_time"),
               "bias_phase_rad": (plan, "bias_phase"), "g_factor": (zeeman, "g_factor"),
               "contrast": (noise, "contrast"), "gradient_rms_t_per_m": (noise, "gradient_rms"),
               "common_mode_rms_t": (noise, "common_mode_rms")}
    assert set(reached) == set(values) - {"output_format", "probe_spacing_m", "delta_b_t"}
    for key, (owner, name) in reached.items():
        assert getattr(owner, name) == values[key], key
        _assert_spec_holds_the_field_bound(cli.COMMAND_SCHEMAS["montecarlo"], key, owner, name)
    assert (probe.ion_positions[1].z, fields[1]) == (values["probe_spacing_m"],
                                                     values["delta_b_t"])
    # the readout contrast is not the pair's: it is prepared with fidelity 1
    assert (probe.ion_positions[0].z, fields[0], probe.contrast) == (0.0, 0.0, 1.0)


def _assert_crystal_keys_reach_their_fields(run, values):
    n_ions, trap = _call_args(run, "equilibrium_positions")
    schema = cli.COMMAND_SCHEMAS["crystal"]
    reached = {"axial_frequency_hz": "axial_frequency", "ion_mass_kg": "ion_mass",
               "ion_charge_c": "ion_charge"}
    assert set(reached) == set(values) - {"output_format", "seed", "n_ions"}
    for key, name in reached.items():
        expected = 2.0 * math.pi * values[key] if key == "axial_frequency_hz" else values[key]
        assert getattr(trap, name) == expected, key
        _assert_spec_holds_the_field_bound(schema, key, trap, name)
    # equilibrium_positions checks n_ions against the one bound the schema reads
    assert n_ions == values["n_ions"] and schema["n_ions"].bound is crystal.N_IONS


# ---------------------------------------------------------------------------
# execution

def test_crystal_execution_reports_d12():
    bundle = execute(parse_config(CRYSTAL_CFG))
    summary = next(t for t in bundle.tables if t.name == "summary")
    d12 = summary.rows[0][summary.columns.index("d12_m")]
    assert d12 == pytest.approx(1.03e-6, rel=0.01)


def test_scenario_execution_annotates_pi_time():
    bundle = execute(parse_config(SCENARIO_CFG))
    assert any("26" in note and "pi" in note for note in bundle.annotations)
    names = {t.name for t in bundle.tables}
    assert {"geometry", "field_table", "estimation"} <= names


def test_field_table_schema():
    bundle = execute(parse_config(SCENARIO_CFG))
    table = next(t for t in bundle.tables if t.name == "field_table")
    assert table.columns == ("ion_index", "z_m", "Bz_T")
    for row in table.rows:   # the scenario's field rows are the table rows
        ion_index, z_m, bz_t = row
        assert (ion_index, z_m, bz_t) == (row.ion_index, row.z_m, row.bz_t)


def test_trajectory_schema():
    bundle = execute(parse_config(SCENARIO_CFG))
    trajectory = next(t for t in bundle.tables if t.name.startswith("parity_trajectory"))
    assert trajectory.columns == ("time_s", "phase_rad", "parity")
    rows = trajectory.rows   # the parity_trajectory array is the table
    assert rows.dtype == np.float64 and rows.shape == (101, len(trajectory.columns))


def test_field_command_pair_requires_both():
    cfg = ("command = field\nsource_moment_j_per_t = 9.285e-24\n"
           "z_start_m = 1e-6\nz_stop_m = 5e-6\npair_z1_m = 1e-6\n")
    with pytest.raises(ConfigurationError):
        execute(parse_config(cfg))


def test_field_pair_is_checked_before_the_table(monkeypatch):
    def no_table(source, zs):
        raise AssertionError("the field table was evaluated")
    monkeypatch.setattr(cli, "axial_field_table", no_table)
    cfg = ("command = field\nsource_moment_j_per_t = 9.285e-24\nz_start_m = 1e-6\n"
           "z_stop_m = 5e-6\nn_points = 100000\npair_z2_m = 2e-6\n")
    with pytest.raises(ConfigurationError, match="must be given together"):
        execute(parse_config(cfg))


def test_montecarlo_deterministic_bundle():
    cfg = ("command = montecarlo\nshots = 200\ninteraction_time_s = 5\n"
           "delta_b_t = 6.8e-13\nbias_phase_rad = 1.5707963267948966\nseed = 9\n")
    a, b = execute(parse_config(cfg)), execute(parse_config(cfg))
    assert a == b


# ---------------------------------------------------------------------------
# emission

def test_csv_numbers_reparse_to_12_significant_digits(tmp_path):
    bundle = execute(parse_config(CRYSTAL_CFG))
    paths = emit(bundle, "csv", tmp_path)
    assert paths == [os.path.join(tmp_path, name) for name in
                     ("positions.csv", "spacings.csv", "summary.csv", "provenance.txt")]
    lines = Path(paths[0]).read_text().splitlines()
    assert lines[0].startswith("#") and "seed=0" in lines[0] and "config_sha256=" in lines[0]
    assert lines[1] == "ion_index,z_m"
    geometry = execute(parse_config(CRYSTAL_CFG)).tables[0]
    for line, row in zip(lines[2:], geometry.rows):
        cells = line.split(",")
        reparsed = float(cells[1])
        exact = row[1]
        assert reparsed == pytest.approx(exact, rel=1e-12, abs=0.0) or exact == reparsed == 0.0


def test_emitted_files_byte_identical_between_runs(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["--config", str(_write_cfg(tmp_path, SCENARIO_CFG)), "--out", str(out_a)])
    code_b = main(["--config", str(_write_cfg(tmp_path, SCENARIO_CFG)), "--out", str(out_b)])
    assert code_a == code_b == 0
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_printed_numbers_reparse_within_half_a_unit_in_the_16th_digit():
    bits = np.random.default_rng(11).integers(0, 2 ** 63, size=100_000, dtype=np.int64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values) & (values != 0)].tolist()
    worst = max(abs(float(format_number(v)) - v) / v for v in values)
    assert worst <= 6e-16
    # 16 digits are not always enough to give back the same float
    assert float(format_number(0.1 + 0.2)) != 0.1 + 0.2


def _reference_emit(bundle, output_format):
    """File name -> bytes of each table file, every cell formatted by _csv_cell."""
    def row_text(row, sep):
        return sep.join(_csv_cell(cell) for cell in row)
    if output_format == "csv":
        return {f"{t.name}.csv": "\n".join([bundle.header, ",".join(t.columns)]
                                           + [row_text(r, ",") for r in t.rows]).encode() + b"\n"
                for t in bundle.tables}
    lines = _preamble(bundle)
    for t in bundle.tables:
        lines += [f"[{t.name}]", "  " + "  ".join(t.columns)]
        lines += ["  " + row_text(r, "  ") for r in t.rows]
        lines.append("")
    lines.append("config echo:")
    lines.extend("  " + line for line in bundle.config_echo.splitlines())
    return {"report.txt": ("\n".join(lines) + "\n").encode()}


_SPECIAL_FLOATS = (math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1.7976931348623157e308)
_CELL_MAKERS = (
    lambda r: r.uniform(-1e3, 1e3) * 10.0 ** r.randint(-300, 300),
    lambda r: np.float64(r.choice(_SPECIAL_FLOATS)),
    lambda r: r.choice(_SPECIAL_FLOATS),
    lambda r: np.float64(r.gauss(0.0, 1.0)),
    lambda r: r.randint(-2 ** 70, 2 ** 70),
    lambda r: np.int64(r.randint(-2 ** 63, 2 ** 63 - 1)),
    lambda r: r.random() < 0.5,
    lambda r: r.choice(("plain", "a,b", 'say "hi"', "two\nlines", "", "x,\"y\"\nz",
                        "5%", "%s", "%%d")),
    lambda r: np.float32(r.random()),
    lambda r: np.int32(r.randint(-100, 100)),
)


# An exact tie at 16 significant digits: 1234567890123456.5 has 17.
_TIE = 1234567890123456.5


def _float_tables(r):
    """Tables of the array kernel's size: float64 arrays it formats, and tuple
    tables it must leave, all-float ones among them."""
    n = cli._KERNEL_MIN_CELLS // 2 + 7
    def plain(i, j):
        value = r.uniform(-1e3, 1e3) * 10.0 ** r.randint(-90, 90)
        return np.float64(value) if (i + j) % 2 else value
    def table(name, odd=None, width=3):
        rows = [[plain(i, j) for j in range(width)] for i in range(n)]
        if odd is not None:
            cell, row, column = odd
            rows[row][column] = cell
        return Table(name, tuple("abcde"[:width]), tuple(map(tuple, rows)))
    kernel = [table("float_mix")]
    for column in range(3):
        kernel.append(table(f"tie_{column}", (_TIE, n // 2, column)))
        kernel.append(table(f"special_{column}", ((math.nan, -math.inf, 1e-300)[column],
                                                  column * (n - 1) // 2, column)))
    kernel.append(table("two_columns", width=2))
    kernel = [Table(t.name, t.columns, np.array(t.rows, np.float64)) for t in kernel]
    left = [table("float_tuples"), table("one_int", (7, n - 1, 2)),
            table("one_bool", (True, 0, 0)), table("one_str", ("x,y", n // 3, 1))]
    ragged = table("ragged").rows
    left.append(Table("ragged", ("a", "b", "c"), ragged[:5] + (ragged[5][:2],) + ragged[6:]))
    return kernel, left


# _KERNEL_MIN_CELLS as it is, at 1 (every array table goes to the kernel) and
# above every table (none does): each table is checked on both routes.
@pytest.mark.parametrize("min_cells", [None, 1, 10 ** 6])
def test_emit_matches_per_cell_formatting(tmp_path, monkeypatch, min_cells):
    r = random.Random(8)
    # runs of same-typed rows broken by rows of other types
    trajectory = tuple((float(t), 0.3 * t, 0.97 * math.cos(0.3 * t)) for t in range(40))
    mixed = []
    for _ in range(300):
        if r.random() < 0.5 and mixed:
            mixed.append(tuple(type(c)(_CELL_MAKERS[0](r)) if type(c) in (float, np.float64)
                               else c for c in mixed[-1]))
        else:
            mixed.append(tuple(r.choice(_CELL_MAKERS)(r) for _ in range(4)))
    changing_column = tuple((i, (1.5, np.float64(-0.0), 7, np.int64(-7), True, "s,t")[i % 6])
                            for i in range(30))
    # small arrays, below the constant as it is, and the array kernel's size:
    # arrays of at least _KERNEL_MIN_CELLS cells go through the kernel, in one
    # call for the bundle; tuple tables never do
    small_arrays = [Table("trajectory_array", ("time_s", "phase_rad", "parity"),
                          np.array(trajectory)),
                    Table("one_row_array", ("a", "b"), np.array([[-0.0, math.nan]])),
                    Table("empty_array", ("a", "b", "c"), np.empty((0, 3)))]
    kernel_tables, other_tables = _float_tables(r)
    bundle = ResultBundle(
        header="# iongradim test seed=8", config_echo="command = crystal\nseed = 8\n",
        tables=(Table("trajectory", ("time_s", "phase_rad", "parity"), trajectory),
                Table("mixed", ("a", "b", "c", "d"), tuple(mixed)),
                Table("changing_column", ("i", "value"), changing_column),
                Table("empty", ("x",), ()),
                # as many cells as 3 rows of the first row's 2, all of one type
                Table("ragged_even", ("a", "b"), ((0.5, 1.5), (2.5,), (3.5, 4.5, 5.5))),
                *small_arrays, *kernel_tables, *other_tables),
        annotations=("a note",))
    if min_cells is not None:   # after _float_tables, which sizes its tables by the constant
        monkeypatch.setattr(cli, "_KERNEL_MIN_CELLS", min_cells)
    kernel_cells = sum(t.rows.size for t in bundle.tables
                       if isinstance(t.rows, np.ndarray) and t.rows.size >= cli._KERNEL_MIN_CELLS)
    real_kernel = _format.e15_words
    for route in ("kernel", "fallback"):
        calls = []
        monkeypatch.setattr(_format, "LONG_DOUBLE_OK", route == "kernel")
        monkeypatch.setattr(_format, "e15_words", lambda values, out=None: (
            calls.append(values.size) or real_kernel(values, out)))
        for output_format in ("csv", "text"):
            out = tmp_path / route / output_format
            written = {os.path.basename(p): Path(p).read_bytes()
                       for p in emit(bundle, output_format, out)}
            expected = _reference_emit(bundle, output_format)
            assert {name: written[name] for name in expected} == expected, route
        assert calls == ([kernel_cells] * 2 if route == "kernel" and kernel_cells else []), route


# Cells the kernel does not prove: the two longest '{:.15e}' texts (23
# characters), nan, +-inf and an exact tie; and -0.0, which it writes itself.
_UNPROVEN = (-1e-300, -1.7976931348623157e308, math.nan, math.inf, -math.inf, _TIE)


@pytest.mark.parametrize("spread", [False, True])
def test_unproven_cells_are_written_in_their_own_slots(spread):
    r = np.random.default_rng(24)
    cells = list(_UNPROVEN) + [-0.0]
    width = 3 if spread else len(cells)
    rows = r.uniform(-1e3, 1e3, (cli._KERNEL_MIN_CELLS // width + 2, width))
    for k, value in enumerate(cells):   # all in row 1, or one to a row from row 1 down
        rows[(1 + k, k % width) if spread else (1, k)] = value
    _, fallback = _format.e15_words(rows.ravel())
    assert fallback.sum() >= len(_UNPROVEN)
    for sep, lead in ((",", ""), ("  ", "  ")):
        [lines] = cli._table_lines((Table("t", tuple("abcdefg"[:width]), rows),), sep, lead)
        assert len(lines) == 1   # the whole table, in one piece
        assert lines[0] == "\n".join(lead + sep.join(map("{:.15e}".format, row))
                                  for row in rows.tolist())


# ---------------------------------------------------------------------------
# the array kernel for all-float tables: '{:.15e}' byte for byte

def _kernel_texts(values):
    """The kernel's text of each value, or None where it falls back."""
    words, fallback = _format.e15_words(np.asarray(values, np.float64))
    cells = words.view(np.uint8).reshape(-1, 24)
    return [None if skip else bytes(cell).replace(b"\0", b"").decode("ascii")
            for cell, skip in zip(cells, fallback.tolist())]


def _assert_formats_like_str_format(values):
    values = [float(v) for v in values]
    for value, text in zip(values, _kernel_texts(values)):
        assert text is None or text == "{:.15e}".format(value), value
    # the table route, with both separators: cells padded to a kernel-sized array
    rows_needed = cli._KERNEL_MIN_CELLS // 3 + 1
    cells = (values * (3 * rows_needed // len(values) + 1))[:3 * rows_needed]
    rows = np.array(cells, np.float64).reshape(rows_needed, 3)
    for sep, lead in ((",", ""), ("  ", "  ")):
        [lines] = cli._table_lines((Table("t", ("a", "b", "c"), rows),), sep, lead)
        expected = [lead + sep.join(map("{:.15e}".format, row)) for row in rows.tolist()]
        assert "\n".join(lines) == "\n".join(expected)


def _ties():
    """Doubles exactly halfway between two 16-digit decimals: odd o / 2^n with
    o * 5^n of 17 digits (the last one a 5), for every n where one exists."""
    r = random.Random(3)
    ties = []
    for n in range(1, 25):
        lo, hi = -(-10 ** 16 // 5 ** n), min(10 ** 17 // 5 ** n, 2 ** 53)
        for _ in range(8 if lo < hi else 0):
            odd = r.randrange(lo, hi) | 1
            if odd < hi:
                ties.append(odd / 2 ** n)
    return ties


def _edge_grid():
    grid = []
    for k in range(-323, 309):
        power = float(f"1e{k}")
        grid += [power, np.nextafter(power, 0.0), np.nextafter(power, math.inf),
                 float(f"9.9999999999999996e{k - 1}"), float(f"9.99999999999999949e{k - 1}"),
                 float(f"9.99999999999999e{k - 1}")]   # log10 rounds up to k
    for k in range(-99, 100):   # the cells whose exponent log10 can misjudge
        power = float(f"1e{k}")
        below = above = power
        for _ in range(16):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            grid += [below, above]
    grid += _ties() + [9999999999999999.0, 999999999999999.94, 5e-324, 2.225073858507201e-308,
                       2.2250738585072014e-308, 1.7976931348623157e308, 0.0, math.nan,
                       math.inf, 1e100, 9.999999999999999e99, 1e-100, 1.234e-300, 4.5e250]
    return [sign * float(v) for v in grid for sign in (1.0, -1.0)]


def test_kernel_matches_str_format_on_an_edge_grid():
    grid = _edge_grid()
    _assert_formats_like_str_format(grid)
    texts = _kernel_texts(grid)
    ties = _ties()
    assert all(text is None for text in _kernel_texts(ties))      # every exact tie falls back
    for tie in ties:
        digits = Fraction(tie) * 10 ** (15 - math.floor(math.log10(tie)))
        assert digits.denominator == 2
    assert _kernel_texts([0.0, -0.0]) == ["0.000000000000000e+00", "-0.000000000000000e+00"]
    # log10 gives 15, and the digits at 15 fall below 10^15: the cell falls back
    assert _kernel_texts([999999999999999.0]) == [None]
    # every cell the grid proves has a 2-digit exponent; most in-range cells are proven
    assert all(text is None or len(text.split("e")[1]) == 3 for text in texts)
    in_range = np.random.default_rng(5).uniform(-99.0, 99.0, 20_000)
    values = np.where(in_range > 0, 1.0, -1.0) * 10.0 ** np.abs(in_range)
    assert sum(text is None for text in _kernel_texts(values)) < 0.02 * values.size


_ANY_BITS = st.integers(0, 2 ** 64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))


_INT64_ENDS = (np.int64(-2 ** 63), np.int64(-2 ** 63 + 1), np.int64(2 ** 63 - 1))


@given(value=_ANY_BITS, n=st.integers(-2 ** 70, 2 ** 70))
def test_percent_specs_write_format_numbers_text(value, n):
    # the spec _row_lines puts in its template for each cell type it names, and
    # format_number formats through, against the text of the pinned formats
    ints = [n, *_INT64_ENDS]
    if -2 ** 63 <= n < 2 ** 63:
        ints.append(np.int64(n))
    for cell in (value, np.float64(value)):
        assert cli._SPECS[type(cell)] % cell == "{:.15e}".format(float(cell)), cell
    for cell in ints:
        assert cli._SPECS[type(cell)] % cell == str(int(cell)), cell


@given(st.lists(st.one_of(_ANY_BITS, st.floats(), st.floats(1e-99, 1e100),
                          st.floats(-1e100, -1e-99)), min_size=1, max_size=64))
def test_kernel_matches_str_format_on_any_doubles(values):
    _assert_formats_like_str_format(values)


def test_kernel_powers_are_correctly_rounded():
    exponents = range(15 + _format.K_OFFSET, 15 - _format.K_OFFSET - 1, -1)
    assert len(_format.POWERS) == len(exponents)
    for power, e in zip(_format.POWERS, exponents):
        exact = Fraction(10) ** e
        error = abs(Fraction(*power.as_integer_ratio()) - exact)
        assert error <= Fraction(*np.spacing(power).as_integer_ratio()) / 2, e
    # [1e-99, 1e100) holds exactly the doubles with a 2-digit decimal exponent
    assert Fraction(_format.SMALLEST) >= Fraction(1, 10 ** 99)
    assert Fraction(np.nextafter(_format.PAST_LARGEST, 0.0)) < 10 ** 100 <= _format.PAST_LARGEST


def test_kernel_lookup_tables_stay_small():
    tables = (_format.POWERS, _format.SIGN_LEAD, _format.DOT3, _format.FOUR, _format.EXPONENT)
    assert sum(t.nbytes for t in tables) <= 100_000


def _write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_main_prints_each_written_path(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, CRYSTAL_CFG)
    out = str(tmp_path / "out")
    assert main(["--config", str(cfg), "--out", out]) == 0
    assert capsys.readouterr().out.splitlines() == [
        os.path.join(out, name)
        for name in ("positions.csv", "spacings.csv", "summary.csv", "provenance.txt")]


def test_config_with_a_byte_order_mark_runs_as_without(tmp_path, capsys):
    # some editors save UTF-8 with a leading U+FEFF; the mark is no part of the
    # config, so the paths, the bytes and the config hash are those without it
    out = tmp_path / "out"
    runs = []
    for mark in (b"", "\ufeff".encode("utf-8")):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(mark + CRYSTAL_CFG.encode("utf-8"))
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        runs.append((printed, {path: Path(path).read_bytes() for path in printed}))
        shutil.rmtree(out)
    assert runs[0] == runs[1]
    # only a leading mark is stripped: a second one is part of the first key
    cfg.write_text("\ufeff\ufeffcommand = crystal\n", encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[0] == (
        "config error: line 1: invalid key '\\ufeffcommand'")


def test_double_well_trap_keys_move_no_table(tmp_path):
    # a double_well run reads no trap: axial_frequency_hz and ion_mass_kg are
    # validated and echoed, so they enter the config hash, and move no table
    base = "command = scenario\nscenario = double_well\nseed = 3\ndelta_n = 2\nshots = 50\n"
    files = {}
    for name, trap in (("default", ""),
                       ("other", "axial_frequency_hz = 3.5e5\nion_mass_kg = 1.2e-25\n")):
        out = tmp_path / name
        cfg = _write_cfg(tmp_path, base + trap, f"{name}.cfg")
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        files[name] = {p.name: p.read_text(encoding="utf-8").splitlines()
                       for p in out.iterdir()}
    default, other = files["default"], files["other"]
    assert sorted(default) == sorted(other) and len(default) == 5
    for name, lines in default.items():
        if name == "provenance.txt":
            assert "axial_frequency_hz = 350000.0" in other[name]
            assert lines != other[name]
        else:   # the header line carries the config hash; every table line is the same
            assert lines[0] != other[name][0] and lines[1:] == other[name][1:]


def test_provenance_hash_recomputable(tmp_path):
    out = tmp_path / "out"
    assert main(["--config", str(_write_cfg(tmp_path, CRYSTAL_CFG)),
                 "--out", str(out)]) == 0
    provenance = (out / "provenance.txt").read_text()
    header, _, rest = provenance.partition("config echo (sha256 of this block is the config hash):\n")
    echo = rest
    stated = header.split("config_sha256=")[1].split()[0]
    assert config_hash(echo) == stated


def test_text_format(tmp_path):
    out = tmp_path / "out"
    code = main(["--config", str(_write_cfg(tmp_path, CRYSTAL_CFG)),
                 "--out", str(out), "--format", "text"])
    assert code == 0
    report = (out / "report.txt").read_text()
    assert "[summary]" in report and "config echo:" in report


def test_exit_codes(tmp_path):
    assert main(["--config", str(tmp_path / "missing.cfg")]) == 1
    bad = _write_cfg(tmp_path, "command = crystal\nn_ions = 0\n"
                               "axial_frequency_hz = 1e6\nion_mass_kg = 1e-26\n",
                     name="bad.cfg")
    assert main(["--config", str(bad), "--out", str(tmp_path / "x")]) == 1


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(("# café\n" + CRYSTAL_CFG).encode("latin-1"))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: cannot read config: 'utf-8' codec can't decode byte 0xe9 in position 5: "
        "invalid continuation byte"]
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


def test_config_that_is_a_directory_is_named_in_the_read_error(tmp_path, capsys):
    # opening a directory succeeds and reading it fails; the line names the path all the same
    assert main(["--config", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: cannot read config: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
        f"{str(tmp_path)!r}"]
    assert captured.out == "" and not (tmp_path / "out").exists()


# Finite config values whose fields, phase rate, accumulated phase or trap
# length overflow a float.
OVERFLOWING_CONFIGS = {
    "protocol_delta_b": "command = protocol\ndelta_b_t = 1e300\nduration_s = 1.0\n",
    "montecarlo_delta_b": ("command = montecarlo\nshots = 100\ninteraction_time_s = 0.01\n"
                           "delta_b_t = 1e300\n"),
    "montecarlo_gradient_noise": ("command = montecarlo\nshots = 100\n"
                                  "interaction_time_s = 0.01\ndelta_b_t = 1e-12\n"
                                  "gradient_rms_t_per_m = 1e300\n"),
    "ghz_chain_moment": ("command = scenario\nscenario = ghz_chain\n"
                         "source_moment_j_per_t = 1e290\n"),
    "three_ion_spin_moment": ("command = scenario\nscenario = three_ion_spin\n"
                              "source_moment_j_per_t = 1e300\n"),
    "double_well_moment_1e290": ("command = scenario\nscenario = double_well\n"
                                 "atom_moment_j_per_t = 1e290\n"),
    "double_well_moment_1e300": ("command = scenario\nscenario = double_well\n"
                                 "atom_moment_j_per_t = 1e300\n"),
    "molecular_moments": ("command = scenario\nscenario = molecular_state_change\n"
                          "moment_before_j_per_t = 1e290\nmoment_after_j_per_t = 2e290\n"),
    "crystal_low_frequency": ("command = crystal\nn_ions = 3\naxial_frequency_hz = 1e-200\n"
                              "ion_mass_kg = 6.6421562664e-26\n"),
    "crystal_high_frequency": ("command = crystal\nn_ions = 3\naxial_frequency_hz = 1e300\n"
                               "ion_mass_kg = 6.6421562664e-26\n"),
    # every end of the span fits a float, but not the span
    "field_span": ("command = field\nsource_moment_j_per_t = 9.285e-24\nz_start_m = -1e308\n"
                   "z_stop_m = 1e308\nn_points = 5\n"),
    "field_moment": ("command = field\nsource_moment_j_per_t = 1e300\nz_start_m = 1e-6\n"
                     "z_stop_m = 2e-6\npair_z1_m = 1e-6\npair_z2_m = 2e-6\n"),
    # every field fits a float, but the slope across the 1 um pair does not
    "field_compensation_gradient": ("command = field\nsource_moment_j_per_t = 1e295\n"
                                    "z_start_m = 1e-6\nz_stop_m = 2e-6\n"
                                    "pair_z1_m = 1e-6\npair_z2_m = 2e-6\n"),
    # finite phase rates that overflow over a long interaction time
    "protocol_long_duration": "command = protocol\ndelta_b_t = 1e290\nduration_s = 1e30\n",
    "montecarlo_long_time": ("command = montecarlo\nshots = 100\ninteraction_time_s = 1e30\n"
                             "delta_b_t = 1e290\n"),
    "double_well_long_time": ("command = scenario\nscenario = double_well\n"
                              "atom_moment_j_per_t = 1e270\ninteraction_time_s = 1e30\n"),
    "double_well_balanced_scan": ("command = scenario\nscenario = double_well\ndelta_n = 0\n"
                                  "atom_moment_j_per_t = 1e270\ninteraction_time_s = 1e30\n"),
    "molecular_long_time": ("command = scenario\nscenario = molecular_state_change\n"
                            "moment_before_j_per_t = 1e270\nmoment_after_j_per_t = 2e270\n"
                            "interaction_time_s = 1e30\n"),
    "ghz_chain_long_time": ("command = scenario\nscenario = ghz_chain\n"
                            "source_moment_j_per_t = 1e270\ninteraction_time_s = 1e30\n"),
    # a finite phase that overflows once the bias phase is added
    "montecarlo_bias_phase": ("command = montecarlo\nshots = 1000\ninteraction_time_s = 1.0\n"
                              "delta_b_t = 1e297\nbias_phase_rad = 1.7e308\n"),
    "montecarlo_noisy_bias_phase": ("command = montecarlo\nshots = 1000\n"
                                    "interaction_time_s = 1.0\ndelta_b_t = 1e297\n"
                                    "bias_phase_rad = 1.7e308\ngradient_rms_t_per_m = 1e-3\n"),
}


@pytest.mark.parametrize("text", OVERFLOWING_CONFIGS.values(), ids=OVERFLOWING_CONFIGS.keys())
def test_overflowing_config_is_a_config_error(tmp_path, capsys, text):
    out = tmp_path / "out"
    assert main(["--config", str(_write_cfg(tmp_path, text)), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    assert "overflow" in err[0]
    assert not out.exists()


def test_noise_free_shots_overflow_as_the_accumulated_phase(tmp_path, capsys):
    # a noise-free Monte Carlo takes its phase from protocol.accumulated_phase,
    # so an overflowing rate x time is that function's error, naming both
    probe, zeeman = cli._bell_pair(1.03e-6, 1.0), ZeemanConfig(g_factor=constants().ca40_g_factor)
    fields, t = (0.0, 1e290), 1e30
    with pytest.raises(ConfigurationError) as expected:
        accumulated_phase(phase_rate(probe, zeeman, fields), t)
    with pytest.raises(ConfigurationError) as raised:
        estimation.simulate_shots(estimation.ExperimentPlan(shots=100, interaction_time=t),
                                  probe, zeeman, fields, estimation.NoiseModel())
    assert str(raised.value) == str(expected.value)
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, OVERFLOWING_CONFIGS["montecarlo_long_time"])
    assert main(["--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: {expected.value}"]
    assert not out.exists()


def test_overflow_error_names_its_keys(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, OVERFLOWING_CONFIGS["field_span"])
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert all(key in line for key in ("z_start_m", "z_stop_m")), line


@pytest.mark.parametrize("scenario, extra", [("double_well", ""),
                                             ("double_well", "paper_values = on\n"),
                                             ("three_ion_spin", "")])
def test_imbalance_past_the_float_range_is_refused_at_its_line(tmp_path, capsys,
                                                               scenario, extra):
    # the runner scales the atom moment or the published single-atom field by
    # delta_n, so every kind holds it to the float range when the file is read
    text = f"command = scenario\nscenario = {scenario}\ndelta_n = {10 ** 400}\n{extra}"
    out = tmp_path / "out"
    assert main(["--config", str(_write_cfg(tmp_path, text)), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: line 3: delta_n: must be <= 1.7976931348623157e+308, got {10 ** 400}"]
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "command = scenario\nscenario = double_well\ndelta_n = " + "1" * 5000 + "\n",
    "command = montecarlo\ninteraction_time_s = 1\ndelta_b_t = 1e-12\n"
    "shots = " + "1" * 5000 + "\n",
], ids=["delta_n", "shots"])
def test_too_long_integer_is_a_config_error(tmp_path, capsys, text):
    # Python refuses to convert an integer string of more than 4,300 digits
    out = tmp_path / "out"
    assert main(["--config", str(_write_cfg(tmp_path, text)), "--out", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    key = text.splitlines()[-1].split(" = ")[0]
    assert line.startswith(f"config error: line {text.count(chr(10))}: {key}: "), line
    assert "5000 digits" in line
    assert not out.exists()


# Runs that np.linspace overflows on inside numpy: only at its last point,
# which it then sets to the stop value.
LINSPACE_OVERFLOW_CONFIGS = {
    "protocol_duration": ("protocol", {"delta_b_t": 1e-30, "duration_s": 1.7976931348623157e308,
                                       "n_steps": 1442}),
    "field_stop": ("field", {"source_moment_j_per_t": 9.285e-24, "z_start_m": 1e-6,
                             "z_stop_m": 1.7976931348623157e308, "n_points": 15952}),
    "field_stop_from_the_source": ("field", {"source_moment_j_per_t": 9.285e-24,
                                             "z_start_m": 0.0,
                                             "z_stop_m": 1.7976931348623157e308,
                                             "n_points": 15952}),
}


@pytest.mark.parametrize("name", LINSPACE_OVERFLOW_CONFIGS)
def test_linspace_overflow_writes_nothing_to_stderr(tmp_path, fresh_python, name):
    # the run whose table starts at the source fails there, and says only that
    err = ("config error: field requested 0.000e+00 m from the source (guard 1e-09 m)\n"
           if name == "field_stop_from_the_source" else "")
    cfg = _write_cfg(tmp_path, _config_file(*LINSPACE_OVERFLOW_CONFIGS[name]))
    out = tmp_path / "out"
    result = fresh_python(CLI_MAIN, "--config", str(cfg), "--out", str(out))
    assert (result.returncode, result.stderr) == ((1, err) if err else (0, ""))
    tables = sorted(out.glob("*.csv"))
    assert bool(tables) == (not err)
    for path in tables:   # as decimals: the largest float's 16 digits parse to inf
        rows = path.read_text().splitlines()[2:]
        assert rows and all(Decimal(cell).is_finite() for row in rows
                            for cell in row.split(",")), path.name


def test_pair_within_a_nanometre_of_the_source_has_the_one_guard_message(tmp_path, capsys):
    # every table point is clear of the source; only the pair's z1 trips the guard
    cfg = _write_cfg(tmp_path, _config_file("field", {
        "source_moment_j_per_t": 9.285e-24, "z_start_m": 1e-6, "z_stop_m": 3e-6,
        "n_points": 3, "pair_z1_m": 5e-10, "pair_z2_m": 2e-6}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: field requested 5.000e-10 m from the source (guard 1e-09 m)"]
    assert not out.exists()


# Shot counts in the CLI property stop here: a legal huge count runs in time
# linear in it, by design.
_CLI_SHOT_CAP = 10_000

# The scenario keys that only some kinds read. A scenario draw sets those of
# its own kind and may set any key that every kind reads.
_KIND_KEYS = {
    "three_ion_spin": ("source_moment_j_per_t",),
    "molecular_state_change": ("moment_before_j_per_t", "moment_after_j_per_t"),
    "double_well": ("well_separation_m", "probe_spacing_m", "atom_moment_j_per_t", "delta_n"),
    "ghz_chain": ("source_moment_j_per_t",),
}
_KIND_ONLY_KEYS = {"scenario", "n_ions", *(key for keys in _KIND_KEYS.values() for key in keys)}


def _scenario_values(spec):
    """A scenario key's values: anywhere within its FieldSpec, or for a float
    key also within a factor of 10 of its default (of the electron moment, for
    a moment without one), so that most draws run a scenario to its end."""
    values = _spec_values(spec)
    typical = abs(constants().electron_magnetic_moment) if spec.default is None \
        else spec.default
    if spec.kind != "float" or typical == 0:
        return values
    high = typical * 10 if spec.bound.maximum is None else min(typical * 10, spec.bound.maximum)
    return st.one_of(values, st.floats(typical / 10, high))


def _cli_values(command, kind=None):
    """A config of the command, each key within its FieldSpec bounds and choices:
    every required key and any of the others; for a scenario, every key of its
    kind and any of the keys every kind reads."""
    schema = cli.COMMAND_SCHEMAS[command]
    if kind is None:
        required = [key for key, spec in schema.items() if spec.required]
        optional = [key for key, spec in schema.items() if not spec.required]
        values = _spec_values
    else:
        required = _KIND_KEYS[kind]
        optional = [key for key in schema if key not in _KIND_ONLY_KEYS]
        values = _scenario_values
    drawn = st.fixed_dictionaries({key: values(schema[key]) for key in required},
                                  optional={key: values(schema[key]) for key in optional})

    def fit(values):
        if kind is not None:
            values = {"scenario": kind, **values}
        if "shots" in values:
            values = {**values, "shots": min(values["shots"], _CLI_SHOT_CAP)}
        if kind == "double_well":   # the probe pair fits inside the wells
            spacing, separation = sorted((values["probe_spacing_m"], values["well_separation_m"]))
            values = {**values, "probe_spacing_m": spacing, "well_separation_m": separation}
        return values
    return drawn.map(fit)


# Each command, and the scenario command once per kind
_CLI_TARGETS = [(command, None) for command in sorted(cli.COMMAND_SCHEMAS) if command != "scenario"]
_CLI_TARGETS += [("scenario", kind) for kind in sorted(_KIND_KEYS)]


def _run_main(data):
    """(exit code, stderr lines, {file name: bytes}) of one main call on the
    config bytes, into a fresh directory; a warning counts as a line of stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp, "run.cfg"), Path(tmp, "out")
        cfg.write_bytes(data)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(["--config", str(cfg), "--out", str(out)])
        files = {path.name: path.read_bytes() for path in sorted(out.glob("*"))}
    return code, err.getvalue().splitlines() + [str(w.message) for w in caught], files


_LINE_ENDS = ("\n", "\r\n", "\r")


@example(drawn=LINSPACE_OVERFLOW_CONFIGS["protocol_duration"], ending="\n", latin1=False)
@example(drawn=LINSPACE_OVERFLOW_CONFIGS["field_stop"], ending="\r\n", latin1=False)
@example(drawn=LINSPACE_OVERFLOW_CONFIGS["field_stop_from_the_source"], ending="\r",
         latin1=False)
@given(drawn=st.sampled_from(_CLI_TARGETS).flatmap(
    lambda target: st.tuples(st.just(target[0]), _cli_values(*target))),
    ending=st.sampled_from(_LINE_ENDS), latin1=st.booleans())
def test_every_drawn_config_ends_cleanly(drawn, ending, latin1):
    # each config with LF, CRLF or CR line ends, and some with a Latin-1
    # comment, which is not UTF-8
    data = _config_file(*drawn).replace("\n", ending).encode("ascii")
    if latin1:
        data = f"# café{ending}".encode("latin-1") + data
    code, err, files = _run_main(data)
    assert code in (0, 1, 2), (code, err)
    if latin1:
        assert code == 1 and len(err) == 1, (code, err)
        assert err[0].startswith("error: cannot read config: ") and files == {}, err
    elif code == 0:
        assert err == [] and files
    else:
        assert len(err) == 1 and err[0].startswith(("config error: ", "runtime error: ")), err
        assert files == {}
    assert _run_main(data) == (code, err, files)


def test_unallocatable_shot_count_is_a_config_error(tmp_path, capsys):
    # past 2^61 shots the 64-bit RNG counters wrap: rejected before any shot
    # runs, with its key and line, and beside the file's other problems
    shots = 2 ** 62
    cfg = _write_cfg(tmp_path, f"command = montecarlo\nshots = {shots}\n"
                               "interaction_time_s = -1\ndelta_b_t = 1e-12\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: line 2: shots: must be <= {2 ** 61}, got {shots}",
        "line 3: interaction_time_s: must be >= 0, got -1"]
    assert not out.exists()


def test_far_pair_field_is_finite(tmp_path, capsys):
    # the cube of 1e200 m overflows a float; the field there is finite (0)
    cfg = _write_cfg(tmp_path, "command = field\nsource_moment_j_per_t = 9.285e-24\n"
                               "z_start_m = 1e-6\nz_stop_m = 1e120\nn_points = 2\n"
                               "pair_z1_m = 1e-6\npair_z2_m = 1e200\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    for name in ("axial_field.csv", "pair_differential.csv"):
        rows = (out / name).read_text().splitlines()[2:]
        cells = [float(cell) for row in rows for cell in row.split(",")]
        assert rows and all(map(math.isfinite, cells)), rows


def test_montecarlo_memory_is_one_block(tmp_path):
    # the command reads the tally only: no per-shot array spans the run
    cfg = _write_cfg(tmp_path, "command = montecarlo\nshots = 1000000\n"
                               "interaction_time_s = 0.01\ndelta_b_t = 1e-12\n"
                               "gradient_rms_t_per_m = 5e-4\n")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20, peak


@pytest.mark.parametrize("args, code", [
    (["--config", "{cfg}", "--help"], 0),
    (["--config", "{cfg}", "--format", "xml"], 1),
    (["--config", "{cfg}", "--seed", "abc"], 1),
    ([], 1),   # no --config
])
def test_usage_exit_codes(tmp_path, capsys, args, code):
    cfg = _write_cfg(tmp_path, CRYSTAL_CFG)
    out = tmp_path / "out"
    argv = [arg.format(cfg=cfg) for arg in args] + ["--out", str(out)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert "usage:" in captured.out + captured.err
    assert not out.exists()


@pytest.mark.parametrize("text", ["1_0", "\u0663", " 5", "5\n", "0x10", "1" * 5000])
def test_seed_flag_takes_the_config_integer_syntax(tmp_path, capsys, text):
    if text.strip() == text:   # a config value has no outer whitespace
        with pytest.raises(ConfigFileError, match="expected an integer|too long"):
            parse_config(CRYSTAL_CFG + f"seed = {text}\n")
    out = tmp_path / "out"
    assert main(["--config", str(_write_cfg(tmp_path, CRYSTAL_CFG)), "--out", str(out),
                 "--seed", text]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"iongradim: error: argument --seed: invalid int value: {text!r}"
    assert not out.exists()


def _parse_outcome(parse, argv):
    """What parse(argv) returns, or its exit code; with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


_ODD_OPTIONS = ["--conf", "--config=x", "-h", "--help", "--", "-", "-5", ""]
_VALUES = ["", "run.cfg", "out dir", "csv", "text", "xml", "on", "off", "7", "+7", "007",
           "-5", "1_0", "\u0663", "abc", str(2 ** 64), "-", "--", "--out", "a=b"]


@st.composite
def _argvs(draw):
    """Argvs of whole and broken `--option value` pairs, with and without --config."""
    table = cli._READER[0]
    options = st.sampled_from(sorted(table) + _ODD_OPTIONS)
    fitting = st.sampled_from(sorted(table)).flatmap(lambda option: st.tuples(
        st.just(option), st.sampled_from(table[option].choices or ["7", "run.cfg", "out dir"])))
    any_pair = st.tuples(options, st.sampled_from(_VALUES))
    head = draw(st.sampled_from([[], ["--config", "run.cfg"]]))
    pairs = draw(st.one_of(st.lists(fitting, max_size=5),
                           st.lists(st.one_of(fitting, any_pair), max_size=5)))
    tail = draw(st.one_of(st.just([]), st.lists(st.one_of(options, st.sampled_from(_VALUES)),
                                                 max_size=1)))
    return head + [token for pair in pairs for token in pair] + tail


@given(_argvs())
@example(["--config", "a", "--config", "b", "--seed", "1", "--seed", "+2"])
def test_read_args_equals_argparse(argv):
    # the same Namespace, or the same exit code with the same help or usage text
    assert _parse_outcome(cli._read_args, argv) == _parse_outcome(cli._PARSER.parse_args, argv)


@pytest.mark.parametrize("flags", [
    [], ["--seed", "7"], ["--format", "text"], ["--paper-values", "on"],
    ["--seed", "7", "--format", "csv", "--paper-values", "off"],
])
def test_plain_argv_never_reaches_argparse(tmp_path, capsys, monkeypatch, flags):
    # the benchmark's argv shape: --config P --out D, with or without the overrides
    argv = ["--config", str(_write_cfg(tmp_path, CRYSTAL_CFG)), "--out", str(tmp_path / "out"),
            *flags]
    expected = cli._PARSER.parse_args(argv)

    def refuse(argv=None):
        raise AssertionError(f"argparse parsed {argv}")

    monkeypatch.setattr(cli._PARSER, "parse_args", refuse)
    assert cli._read_args(argv) == expected
    assert main(argv) == 0
    assert capsys.readouterr().out


def test_read_args_leaves_flags_append_and_count_to_argparse(monkeypatch):
    parser = cli._build_parser()
    parser.add_argument("--dry-run", action="store_true")
    parser.add_argument("--tag", action="append")
    parser.add_argument("--pair", nargs=2)
    parser.add_argument("-v", action="count")
    monkeypatch.setattr(cli, "_PARSER", parser)
    monkeypatch.setattr(cli, "_READER", cli._reader_table(parser))
    assert set(cli._READER[0]) == {"--config", "--seed", "--out", "--format", "--paper-values"}
    real, parsed = parser.parse_args, []
    monkeypatch.setattr(parser, "parse_args", lambda argv: parsed.append(argv) or real(argv))
    plain = ["--config", "run.cfg", "--seed", "3"]
    assert cli._read_args(plain) == real(plain)   # dry_run False, tag, pair and v None
    assert parsed == []
    for extra in (["--dry-run"], ["--dry-run", "x"], ["--tag", "a"], ["--pair", "a", "b"],
                  ["-v"], ["-v", "-v"]):
        argv = plain + extra
        assert _parse_outcome(cli._read_args, argv) == _parse_outcome(real, argv)
        assert parsed[-1] == argv


def test_solver_failure_exits_2_with_one_line(tmp_path, capsys, monkeypatch, uncached_chain):
    monkeypatch.setattr(crystal, "_NEWTON_CAP", 1)
    out = tmp_path / "out"
    assert main(["--config", str(CONFIG_DIR / "crystal_three_ion.cfg"), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(
        "runtime error: equilibrium solve for 3 ions did not converge (residual "), err
    assert not out.exists()


def test_stalled_newton_exits_2_with_one_line(tmp_path, capsys, monkeypatch, uncached_chain):
    # after the first evaluation no trial lowers the residual
    calls = []
    real = crystal._net_forces

    def forces(u):
        calls.append(u)
        return real(u) if len(calls) == 1 else np.full(len(u), 10.0)

    monkeypatch.setattr(crystal, "_net_forces", forces)
    out = tmp_path / "out"
    assert main(["--config", str(CONFIG_DIR / "crystal_three_ion.cfg"), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["runtime error: no Newton step lowers the residual for 3 ions "
                   "(residual 7.367e-01)"], err
    assert len(calls) == 61
    assert not out.exists()


def test_seed_flag_past_64_bits_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--config", str(_write_cfg(tmp_path, CRYSTAL_CFG)), "--out", str(out),
                 "--seed", str(2 ** 64)]) == 1
    assert capsys.readouterr().err.splitlines() == ["config error: --seed must fit in 64 bits"]
    assert not out.exists()


def test_paper_values_flag_on_a_crystal_run_is_ignored_with_a_warning(tmp_path, fresh_python):
    cfg = str(CONFIG_DIR / "crystal_three_ion.cfg")
    assert main(["--config", cfg, "--out", str(tmp_path / "plain")]) == 0
    # in a fresh interpreter, so that the warning reaches stderr through main's own logging setup
    result = fresh_python("import sys; from iongradim.cli import main; sys.exit(main(sys.argv[1:]))",
                          "--config", cfg, "--out", str(tmp_path / "flag"), "--paper-values", "on")
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines() == [
        "WARNING iongradim.cli: --paper-values only applies to scenario runs; ignored"]
    plain = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert plain == sorted(p.name for p in (tmp_path / "flag").iterdir())
    for name in plain:
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


# Runs main once per JSON argument list, after a logging setup of its own if
# asked, and prints the exit codes, then the root logger's handlers, level and
# format.
_MAIN_AND_LOG_STATE = """\
import json, logging, sys
from iongradim.cli import main
if sys.argv[1] == "configured":
    logging.basicConfig(level=logging.ERROR, format="%(message)s")
print([main(argv) for argv in json.loads(sys.argv[2])])
root = logging.root
print([type(h).__name__ for h in root.handlers], logging.getLevelName(root.level),
      root.handlers[0].formatter._fmt)
"""


@pytest.mark.parametrize("level, shown", [
    ("debug", ["WARNING iongradim.cli: --paper-values only applies to scenario runs; ignored",
               "INFO iongradim.cli: executing command 'crystal' (seed 0)",
               "DEBUG iongradim.crystal: equilibrium n=3 converged: residual "]),
    ("loud", ["WARNING iongradim.cli: --paper-values only applies to scenario runs; ignored"]),
])
def test_iongradim_log_sets_the_level_in_a_fresh_interpreter(tmp_path, fresh_python,
                                                             monkeypatch, level, shown):
    # an unknown level name ("loud") falls back to WARNING
    monkeypatch.setenv("IONGRADIM_LOG", level)
    run = ["--config", str(CONFIG_DIR / "crystal_three_ion.cfg"), "--out", str(tmp_path),
           "--paper-values", "on"]
    result = fresh_python(_MAIN_AND_LOG_STATE, "fresh", json.dumps([run]))
    assert result.returncode == 0, result.stderr
    err = result.stderr.splitlines()
    assert len(err) == len(shown) and all(map(str.startswith, err, shown)), err
    assert result.stdout.splitlines()[-2:] == [   # after the written paths
        "[0]", f"['_StderrHandler'] {'DEBUG' if level == 'debug' else 'WARNING'} "
               "%(levelname)s %(name)s: %(message)s"]


def test_main_leaves_a_configured_root_logger_as_it_is(tmp_path, fresh_python, monkeypatch):
    monkeypatch.setenv("IONGRADIM_LOG", "debug")
    cfg = str(CONFIG_DIR / "crystal_three_ion.cfg")
    runs = [["--config", cfg, "--out", str(tmp_path / "out")]] * 2
    result = fresh_python(_MAIN_AND_LOG_STATE, "configured", json.dumps(runs))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-2:] == ["[0, 0]", "['StreamHandler'] ERROR %(message)s"]
    assert result.stderr == ""


_TWO_CAPTURES = """\
import contextlib, io, json, sys
from iongradim.cli import main
captures = [io.StringIO(), io.StringIO()]
for capture, flags in zip(captures, ([], ["--paper-values", "on"])):
    with contextlib.redirect_stderr(capture), contextlib.redirect_stdout(io.StringIO()):
        assert main(["--config", sys.argv[1], "--out", sys.argv[2], *flags]) == 0
print(json.dumps([capture.getvalue() for capture in captures]))
"""


def test_each_call_logs_to_the_stderr_it_runs_under(tmp_path, fresh_python, monkeypatch):
    # an in-process caller that redirects stderr per call, as bench/run.py
    # does, gets each call's log lines in that call's capture
    monkeypatch.delenv("IONGRADIM_LOG", raising=False)
    result = fresh_python(_TWO_CAPTURES, str(CONFIG_DIR / "crystal_three_ion.cfg"),
                          str(tmp_path / "out"))
    assert result.returncode == 0 and result.stderr == "", result.stderr
    assert json.loads(result.stdout) == [
        "", "WARNING iongradim.cli: --paper-values only applies to scenario runs; ignored\n"]


def test_seed_flag_overrides_config(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    cfg = _write_cfg(tmp_path, SCENARIO_CFG)
    assert main(["--config", str(cfg), "--out", str(out1), "--seed", "7"]) == 0
    assert main(["--config", str(cfg), "--out", str(out2), "--seed", "8"]) == 0
    est1 = (out1 / "estimation.csv").read_text()
    est2 = (out2 / "estimation.csv").read_text()
    assert "seed=7" in est1 and "seed=8" in est2
    assert est1 != est2


def test_paper_values_flag_overrides(tmp_path):
    out = tmp_path / "pv"
    cfg = _write_cfg(tmp_path, SCENARIO_CFG.replace("paper_values = on",
                                                    "paper_values = off"))
    assert main(["--config", str(cfg), "--out", str(out), "--paper-values", "on"]) == 0
    provenance = (out / "provenance.txt").read_text()
    assert "paper_values = on" in provenance
    assert "mode=paper-values" in provenance


def test_paper_values_flag_leaves_the_parsed_config_as_it_is(tmp_path, monkeypatch):
    # the flag makes a new RunConfig, as --seed and --format do, instead of
    # writing into the parameters of the frozen one that parse_config returned
    parsed = []
    parse = cli.parse_config
    monkeypatch.setattr(cli, "parse_config", lambda text: parsed.append(parse(text)) or parsed[-1])
    cfg = _write_cfg(tmp_path, SCENARIO_CFG)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "pv"), "--paper-values", "off"]) == 0
    assert parsed[0].parameters["paper_values"] is True


# ---------------------------------------------------------------------------
# writing the output files

needs_proc_fd = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                   reason="lists open file descriptors through /proc")


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_outputs_are_never_opened_with_o_trunc(tmp_path, monkeypatch, fmt):
    opened = []
    real_open = os.open

    def recording_open(path, flags, *args, **kwargs):
        if flags & (os.O_WRONLY | os.O_RDWR):   # not the config, which is read
            opened.append((os.path.basename(path), flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(cli.os, "open", recording_open)
    cfg = _write_cfg(tmp_path, SCENARIO_CFG)
    out = tmp_path / "out"
    for _ in range(2):   # the pass that creates the files, then a rerun over them
        opened.clear()
        assert main(["--config", str(cfg), "--out", str(out), "--format", fmt]) == 0
        assert sorted(name for name, _ in opened) == sorted(p.name for p in out.iterdir())
        assert not any(flags & os.O_TRUNC for _, flags in opened), opened


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_files_are_truncated_only_when_a_rewrite_is_shorter(tmp_path, monkeypatch, fmt):
    truncated = []
    real_ftruncate = os.ftruncate

    def recording_ftruncate(fd, length):
        truncated.append(length)
        return real_ftruncate(fd, length)

    monkeypatch.setattr(cli.os, "ftruncate", recording_ftruncate)
    cfg = _write_cfg(tmp_path, SCENARIO_CFG)
    out = tmp_path / "out"
    argv = ["--config", str(cfg), "--out", str(out), "--format", fmt]
    assert main(argv) == 0          # creates every file
    assert truncated == []
    expected = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(argv) == 0          # rewrites every file with the same bytes
    assert truncated == []
    for path in out.iterdir():      # every file longer than its new bytes
        path.write_bytes(b"\xff" * 200_000)
    assert main(argv) == 0
    assert sorted(truncated) == sorted(len(data) for data in expected.values())
    assert {p.name: p.read_bytes() for p in out.iterdir()} == expected


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002, 0o000])
def test_new_outputs_get_the_mode_of_write_text(tmp_path, umask):
    cfg = _write_cfg(tmp_path, CRYSTAL_CFG)
    reference, out = tmp_path / "reference.txt", tmp_path / "out"
    old_umask = os.umask(umask)
    try:
        reference.write_text("x\n", encoding="utf-8", newline="\n")
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
    finally:
        os.umask(old_umask)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    assert set(modes.values()) == {stat.S_IMODE(reference.stat().st_mode)}, modes


@needs_proc_fd
@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_main_leaves_no_open_file_descriptor(tmp_path, fmt):
    cfg = _write_cfg(tmp_path, SCENARIO_CFG)
    out = tmp_path / "out"
    for _ in range(2):
        before = _open_fds()
        assert main(["--config", str(cfg), "--out", str(out), "--format", fmt]) == 0
        assert _open_fds() == before


def test_short_os_writes_still_write_every_byte(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path, SCENARIO_CFG)
    expected = {}
    for fmt in ("csv", "text"):
        assert main(["--config", str(cfg), "--out", str(tmp_path / fmt), "--format", fmt]) == 0
        expected.update((f"{fmt}/{p.name}", p.read_bytes()) for p in (tmp_path / fmt).iterdir())
    real_write = os.write
    monkeypatch.setattr(cli.os, "write", lambda fd, data: real_write(fd, data[:7]))
    for fmt in ("csv", "text"):
        out = tmp_path / f"short-{fmt}"
        assert main(["--config", str(cfg), "--out", str(out), "--format", fmt]) == 0
        for p in out.iterdir():
            assert p.read_bytes() == expected[f"{fmt}/{p.name}"], p.name


def _disk_full(fd, data):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@needs_proc_fd
@pytest.mark.parametrize("case", ["report_is_a_directory", "provenance_is_a_directory",
                                  "out_is_a_file", "disk_full"])
def test_write_failure_is_a_runtime_error(tmp_path, capsys, monkeypatch, case):
    cfg = _write_cfg(tmp_path, CRYSTAL_CFG)
    out = tmp_path / "out"
    fmt = "text" if case == "report_is_a_directory" else "csv"
    if case == "report_is_a_directory":
        (out / "report.txt").mkdir(parents=True)
    elif case == "provenance_is_a_directory":   # written last, after the tables
        (out / "provenance.txt").mkdir(parents=True)
    elif case == "out_is_a_file":
        out.write_text("not a directory\n", encoding="utf-8")
    else:
        monkeypatch.setattr(cli.os, "write", _disk_full)
    before = _open_fds()
    code = main(["--config", str(cfg), "--out", str(out), "--format", fmt])
    assert _open_fds() == before
    assert code == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error: cannot write output: "), err
    assert "Traceback" not in captured.err and captured.out == ""


# ---------------------------------------------------------------------------
# extreme molecular moments: each run must end within seconds, in a fresh
# interpreter, with exit 0 and a shot count (inf when no count that fits a
# float suffices). A search that steps by one shot takes several seconds on
# the first case and divides by zero on the second.

# Runs `iongradim.cli.main` on the command-line arguments after the code.
CLI_MAIN = "import sys; from iongradim.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("before, after, finite", [
    ("9.274e-24", "9.2740000001e-24", True),
    ("0.0", "1e-300", False),
])
def test_molecular_extreme_moments_exit_cleanly(tmp_path, fresh_python, before, after, finite):
    config = tmp_path / "m.cfg"
    config.write_text("command = scenario\nscenario = molecular_state_change\n"
                      f"moment_before_j_per_t = {before}\nmoment_after_j_per_t = {after}\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    result = fresh_python(CLI_MAIN, "--config", str(config), "--out", str(out), timeout=5.0)
    assert result.returncode == 0, result.stderr
    rows = [line.split(",") for line in (out / "estimation.csv").read_text().splitlines()
            if not line.startswith("#")]
    values = {name: float(value) for name, value in rows[1:]}
    assert values["parity_swing"] > 0
    assert math.isfinite(values["shots_required"]) == finite
    if finite:
        assert values["shots_required"] > 2 ** 53
