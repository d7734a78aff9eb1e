import math

import pytest

from iongradim.cli import (ConfigFileError, RunConfig, config_hash, emit, execute, main,
                           normalized_config, parse_config)
from iongradim.errors import ConfigurationError

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


def test_round_trip_normalization():
    run = parse_config(SCENARIO_CFG)
    echo = normalized_config(run)
    again = parse_config(echo)
    assert again == run
    assert normalized_config(again) == echo
    assert config_hash(echo) == config_hash(normalized_config(again))


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
    for record in trajectory.rows:   # parity records are the table rows
        assert tuple(record) == (record.time, record.phase, record.parity)


def test_field_command_pair_requires_both():
    cfg = ("command = field\nsource_moment_j_per_t = 9.285e-24\n"
           "z_start_m = 1e-6\nz_stop_m = 5e-6\npair_z1_m = 1e-6\n")
    with pytest.raises(ConfigurationError):
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
    positions = next(p for p in paths if p.name == "positions.csv")
    lines = positions.read_text().splitlines()
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


def _write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


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


# Finite config values whose fields, phase rate or trap length overflow a float.
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
}


@pytest.mark.parametrize("text", OVERFLOWING_CONFIGS.values(), ids=OVERFLOWING_CONFIGS.keys())
def test_overflowing_config_is_a_config_error(tmp_path, capsys, text):
    out = tmp_path / "out"
    assert main(["--config", str(_write_cfg(tmp_path, text)), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    assert "overflow" in err[0]
    assert not out.exists()


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
