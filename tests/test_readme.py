"""README's figures about this code's output, checked at the precision README prints them."""
import contextlib
import io
import re
from pathlib import Path

from iongradim import cli
from iongradim.estimation import dephasing_contrast
from iongradim.protocol import ZeemanConfig

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
