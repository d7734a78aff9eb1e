"""README's figures about this code's output, checked at the precision README prints them."""
import contextlib
import dataclasses
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest

from iongradim import cli, estimation, scenarios
from iongradim.constants import Vec3, constants
from iongradim.estimation import ExperimentPlan, NoiseModel, dephasing_contrast, simulate_shots
from iongradim.protocol import BELL, GHZ, ZeemanConfig, prepare_probe

README = Path(__file__).resolve().parents[1] / "README.md"


def _fenced(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.S | re.M)


def _prose():
    """README with every run of whitespace as one space, so figures may wrap across lines."""
    return " ".join(README.read_text(encoding="utf-8").split())


def test_montecarlo_example_figures(tmp_path):
    [config] = [block for block in _fenced("ini") if "command = montecarlo" in block]
    (tmp_path / "example.cfg").write_text(config, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["--config", str(tmp_path / "example.cfg"), "--out", str(out)]) == 0
    header, values = (out / "estimate.csv").read_text(encoding="utf-8").splitlines()[1:]
    row = dict(zip(header.split(","), map(float, values.split(","))))
    params = cli.parse_config(config).parameters
    factor = dephasing_contrast(params["gradient_rms_t_per_m"],
                                cli._bell_pair(params["probe_spacing_m"], 1.0),
                                ZeemanConfig(g_factor=params["g_factor"]),
                                params["interaction_time_s"])
    true, estimate, error = row["true_parity"], row["parity_estimate"], row["std_error"]
    assert (f"reports a `true_parity` of {true:.3f}, while its estimate is "
            f"{estimate:.3f} ± {error:.3f}, in line with {true:.3f} times the dephasing "
            f"factor {factor:.3f} ({true * factor:.3f})") in _prose()


def test_library_example_figure():
    [example] = _fenced("python")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(example, "README.md", "exec"), {})
    t_pi = float(printed.getvalue().splitlines()[0])
    [quoted] = re.findall(r'print\(report\.estimation\["t_pi_s"\]\)\s+# ~(\S+) s', example)
    assert quoted == f"{t_pi:.2f}"


def _library_report(paper_values):
    [example] = _fenced("python")
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(example, "README.md", "exec"), namespace)
    config = dataclasses.replace(namespace["config"], paper_values=paper_values)
    return scenarios.run_scenario(config)


def _swings(report, t=5.0):
    """contrast |sin(rate t)| of the single (free) and flipped (spin-down) fringes."""
    trajectories = dict(report.trajectories)

    def swing(label):
        rows = trajectories[label]
        contrast, rate = rows[0, 2], rows[-1, 1] / rows[-1, 0]   # parity(0) = contrast
        return contrast, contrast * abs(math.sin(rate * t))
    contrast, single = swing("free_evolution")
    return contrast, single, swing("compensated_spin_down")[1]


def test_reference_values_table():
    report = _library_report(paper_values=False)
    (_, _, b_far), (_, _, b_near) = report.field_table
    d12, delta = report.geometry["d12_m"], report.delta_b
    near, far = scenarios.REFERENCE_NEAR_FIELD_T, scenarios.REFERENCE_FAR_FIELD_T
    published_delta = scenarios.REFERENCE_DELTA_B_T
    mu = constants().electron_magnetic_moment
    contrast, single, flip = _swings(report)
    _, paper_single, paper_flip = _swings(_library_report(paper_values=True))
    assert f"{b_far / far:.1f}" == f"{b_near / near:.1f}"   # "same ratio"
    assert b_near / b_far == 8.0 and f"{near / far:.0f}" == "8"
    assert f"{near - far:.1e}" == f"{published_delta:.1e}"
    assert f"{9284.764e-26 / abs(mu):.0f}" == "10"
    double_well = cli.execute(cli.parse_config("command = scenario\nscenario = double_well\n"))
    assert any("published estimate: +-30%" in note for note in double_well.annotations)
    prose = _prose()
    for row in (
            f"are {contrast:.2f} |sin(phase)| at t = 5 s,",
            f"| field at the near probe ion ({d12 * 1e6:.2f} um) | {near:.1e} T | "
            f"{b_near:.2e} T | ratio ~{b_near / near:.1f};",
            f"| field at the far probe ion ({2 * d12 * 1e6:.2f} um) | {far:.1e} T | "
            f"{b_far:.2e} T | same ratio; the published 8:1 near/far ratio is reproduced "
            "exactly |",
            f"| differential field (three-ion) | {published_delta:.1e} T | {delta:.2e} T |",
            f"| electron magnetic moment | -9284.764e-26 J/T | {mu:.10e} J/T (CODATA) | "
            "the published figure is 10x the CODATA magnitude",
            f"| parity swing at t = 5 s | +-30% | {flip:.2f} (compensated flip), {single:.2f} "
            f"(single differential) | at the published {published_delta:.1e} T field the same "
            f"swings are {paper_flip:.2f} and {paper_single:.2f};"):
        assert row in prose, row


def _screen_run(n_ions, spread, contrast=1.0):
    """The run behind one shot of a Bell pair or a (+ + - -) GHZ state, at phase
    spread `spread` rad and contrast K."""
    positions = tuple(Vec3(0.0, 0.0, 1e-6 * k) for k in range(n_ions))
    branch = (0.5,) * (n_ions // 2) + (-0.5,) * (n_ions // 2)
    probe = prepare_probe(BELL if n_ions == 2 else GHZ, positions, 1.0,
                          (branch, tuple(-w for w in branch)))
    zeeman = ZeemanConfig(g_factor=2.0)
    rms = spread / (zeeman.gyromagnetic_ratio * abs(probe.gradient_coupling))
    plan = ExperimentPlan(shots=1, interaction_time=1.0, bias_phase=0.0, rng_seed=0)
    return simulate_shots(plan, probe, zeeman, (0.0,) * n_ions,
                          NoiseModel(gradient_rms=rms, contrast=contrast))._run


def _saving(n_ions, spread, contrast=1.0):
    run = _screen_run(n_ions, spread, contrast)
    return run._screen_saving(run._window())


def _crossover(n_ions, contrast):
    """The spread K s at which screening stops saving, by bisection."""
    lo, hi = 1e-6, 1.0
    while hi - lo > 1e-9:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _saving(n_ions, mid, contrast) > 0 else (lo, mid)
    return contrast * lo


def test_screen_figures():
    def share(spread):   # the share the own halves send to the kernel, at the mean radius
        run = _screen_run(2, spread)
        return min(2 * (2 * run.n_class - 1) * run._window(estimation._MEAN_RADIUS), 1.0)

    bell, ghz = (estimation._SCREEN_SETUP / _saving(n, 1e-9) for n in (2, 4))
    crossovers = {n_ions: {float(f"{_crossover(n_ions, k):.2g}") for k in (1.0, 0.5)}
                  for n_ions in (2, 4)}
    assert crossovers == {2: {0.067}, 4: {0.0023}}
    for n_ions in (6, 8):   # no spread saves anything, not even none
        assert _screen_run(n_ions, 1e-9)._screen_saving(0.0) < 0
    for n_class in (2 ** k for k in range(6, 20)):   # nor with more ions: the cost grows
        run = dataclasses.replace(_screen_run(2, 1e-9), patterns=np.empty(2 * n_class))
        assert run._screen_saving(0.0) < 0
    prose = _prose()
    for text in (
            f"R = sqrt(-2 ln 2^-53) = {estimation._GAUSSIAN_MAX:.2f},",
            f"The radius averages sqrt(pi/2) = {estimation._MEAN_RADIUS:.2f},",
            f"{100 * share(1e-3):.1f} % at a spread of 1e-3 rad and "
            f"{100 * share(0.05):.0f} % at 0.05 rad (K = 1)",
            f"in runs of fewer than about {round(bell, -2):,.0f} shots "
            f"({round(ghz, -2):,.0f} for a 4-ion GHZ state), above a spread of about 0.067/K "
            "rad for a Bell pair or 0.0023/K rad for a 4-ion GHZ state, and at any spread with 6 "
            "or more ions."):
        assert text in prose, text


def test_pre_pass_figures():
    # delta as README writes it, from the terms it names, against the code's
    run = _screen_run(2, 0.5, 0.8)
    spread = (run.noise.gradient_rms * run.zeeman.gyromagnetic_ratio
              * abs(run.probe.gradient_coupling) * run.plan.interaction_time)
    size = run._size()
    e_a = estimation._COS_ERROR + 2.0 ** -40
    delta = (run.contrast / 2 * (estimation._GAUSSIAN_MAX * e_a * spread + estimation._COS_ERROR
                                 + estimation._PHASE_ROUNDING * size
                                 + estimation._REDUCTION_ROUNDING * size)
             + 2 * estimation._P_MARGIN)
    assert estimation._ANGLE_ERROR == e_a
    assert run._pre_pass_window() == pytest.approx(delta, rel=1e-12)
    least = f"{estimation._PRE_PASS_MIN_SHOTS:,}"
    e_p = f"{estimation._COS_ERROR:.1e}".replace("e-0", "e-")
    prose = _prose()
    for text in (
            f"The mapping kernel's pre-pass runs on every block of at least {least} shots,",
            f"polynomial of degree {len(estimation._COS_TURNS) - 1} in t^2,",
            f"it lies within e_P = {e_p} of cos(2 pi t).",
            "|p~ - p| <= K/2 (R e_a s + e_P + e_phi + e_r) + 2 e_p = delta",
            "where e_a = e_P + 2^-40 bounds the error of the angle's cosine",
            f"A block below {least} shots, and every block of a run whose bound is not finite,"):
        assert text in prose, text


def test_figures_of_the_code_constants():
    shot_bits = estimation._SHOT_LIMIT.bit_length() - 1
    assert estimation._SHOT_LIMIT == 2 ** shot_bits
    largest = np.finfo(float).max
    [printed] = {cli.format_number(x) for x in (largest, np.nextafter(largest, 0.0))}
    assert float(printed) == math.inf
    prose = _prose()
    for text in (
            f"The Monte Carlo runs its shots in fixed blocks of {estimation._BLOCK:,} ",
            f"at {estimation._OUTPUT_BYTES_PER_SHOT} bytes per shot;",
            f"`shots` may be at most 2^{shot_bits}, because each shot takes "
            f"{estimation._SLOTS_PER_SHOT} slots of a 64-bit RNG counter",
            f"Large float64 array tables (at least {cli._KERNEL_MIN_CELLS} cells:",
            f"Tables below {cli._KERNEL_MIN_CELLS} cells, tables that are not float arrays,",
            "are each written by one `%` call, from a template that holds `%.15e` for each "
            "float, `%d` for each integer and `%s`,",
            f"the two largest finite floats, {float(largest)!r} and the one below it, both "
            f"print as `{printed}`, which is above the largest float and parses back as inf."):
        assert text in prose, text


def test_command_table_keys_are_schema_keys():
    text = README.read_text(encoding="utf-8")
    table = text.split("Commands and their main keys:", 1)[1].split("\n\n")[1]
    rows = {command.strip(" `"): keys for command, keys in
            (line.split("|")[1:3] for line in table.splitlines() if line.startswith("| `"))}
    assert list(rows) == list(cli.COMMAND_SCHEMAS)
    for command, keys in rows.items():
        listed = re.findall(r"`(\w+)`", re.sub(r"\(.*?\)", "", keys))   # (values) aside
        assert listed and set(listed) <= set(cli.COMMAND_SCHEMAS[command]), command
    kinds = re.findall(r"`(\w+)`", re.search(r"\((.*?)\)", rows["scenario"]).group(1))
    assert tuple(kinds) == scenarios.SCENARIO_KINDS


def test_kind_table_keys_are_the_keys_each_kind_accepts():
    text = README.read_text(encoding="utf-8")
    table = text.split("Each scenario kind accepts only the keys it reads:", 1)[1].split("\n\n")[1]
    rows = {kind.strip(" `"): keys for kind, keys in
            (line.split("|")[1:3] for line in table.splitlines() if line.startswith("| `"))}
    assert tuple(rows) == scenarios.SCENARIO_KINDS
    [noise] = re.findall(r"Every kind also accepts the two field-noise keys, `(\w+)` and `(\w+)`",
                         _prose())
    assert set(noise) == set(cli._FIELD_NOISE)
    for kind, row in rows.items():
        keys = re.findall(r"`(\w+)`", row)
        assert len(set(keys)) == len(keys), kind
        assert {*keys, *noise, "scenario", "seed", "output_format"} == set(
            cli.SCENARIO_SCHEMAS[kind]), kind
        required = re.findall(r"`(\w+)`", row.partition("required")[2])
        assert {cli._SCENARIO_FIELDS[key].to for key in required} == set(
            scenarios.READS[kind].required), kind


def test_refusal_sentence_quotes_the_parser():
    [(line, quoted)] = re.findall(r"set on line (\d), the first is reported as `([^`]*)`", _prose())
    text = "command = scenario\nscenario = double_well\nseed = 3\n"
    assert int(line) == text.count("\n") + 1
    with pytest.raises(cli.ConfigFileError) as raised:
        cli.parse_config(text + "axial_frequency_hz = 1e6\nion_mass_kg = 1e-25\n")
    assert str(raised.value).splitlines()[0] == quoted


def test_flags_sentence_names_the_parser_options():
    sentence = re.search(r"Flags: (.*?)\.\s", _prose()).group(1)
    flags = dict(re.findall(r"`(--[a-z-]+) ?([^`]*)`", sentence))
    options = {action.option_strings[-1] for action in cli._PARSER._actions}
    assert set(flags) == options - {"--help"}
    for flag, argument in flags.items():   # a|b lists values the flag's config key takes
        if "|" in argument:
            spec = cli.COMMAND_SCHEMAS["scenario"][cli._FLAGS[flag]]
            values = tuple(argument.split("|"))
            for value in values:
                cli._parse_value(value, spec)   # a ValueError if the key refuses it
            assert values == (spec.choices or values), flag


def test_flags_sentence_quotes_a_refused_seed(tmp_path, capsys):
    [quoted] = re.findall(r"A refused flag is a `config error:` line, .*? such as `([^`]*)`",
                          _prose())
    config = str(README.parent / "configs" / "crystal_three_ion.cfg")
    assert cli.main(["--config", config, "--out", str(tmp_path / "out"), "--seed", "-1"]) == 1
    assert capsys.readouterr().err.splitlines() == [quoted]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config", sorted((README.parent / "configs").glob("*.cfg")),
                         ids=lambda path: path.name)
def test_stderr_sentence_holds_for_each_config(tmp_path, capsys, config):
    assert re.search(r"A run that succeeds prints .*?, and writes nothing to stderr\.", _prose())
    assert cli.main(["--config", str(config), "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""
