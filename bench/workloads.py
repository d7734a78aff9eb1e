"""Workload generators: each turns a seed into a fixed, shuffled list of CLI configs.

Every case carries the exit code `iongradim.cli.main` must return and the
output file names it must print, in emit order. The lists have a fixed
length and a fixed mix of commands per workload; the seed picks parameter
values and the run order. In `shots`, where a few large runs dominate the
cost, sizes sit on a fixed log grid with a small seeded jitter, so the total
work of a list barely moves between seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

MU_B = 9.2740100783e-24          # J/T, Bohr magneton
MU_E = 9.2847647043e-24          # J/T, |electron moment|
CA40_KG = 6.6421562664e-26

_TRAJECTORIES = {
    "three_ion_spin": ("free_evolution", "compensated_spin_up", "compensated_spin_down"),
    "molecular_state_change": ("moment_before", "moment_after"),
    "double_well": ("imbalance_evolution",),
    "ghz_chain": ("ghz", "bell_side_pair"),
}


@dataclass(frozen=True)
class Case:
    kind: str                  # label: warm-up runs the smallest case of each kind
    text: str                  # config file contents
    exit_code: int             # expected return value of cli.main
    files: tuple[str, ...]     # expected output file names, in emit order
    size: float                # rough amount of work, used only to order the warm-up


def _value(v) -> str:
    if isinstance(v, bool):
        return "on" if v else "off"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _config(command: str, fmt: str, params: dict) -> str:
    lines = [f"command = {command}", f"output_format = {fmt}"]
    lines += [f"{k} = {_value(v)}" for k, v in params.items() if v is not None]
    return "\n".join(lines) + "\n"


def _case(kind, command, fmt, params, tables, size) -> Case:
    files = (("report.txt",) if fmt == "text"
             else tuple(f"{t}.csv" for t in tables) + ("provenance.txt",))
    return Case(kind, _config(command, fmt, params), 0, files, size)


def _log_uniform_int(r: random.Random, lo: float, hi: float) -> int:
    return int(round(10 ** r.uniform(math.log10(lo), math.log10(hi))))


_GRID_JITTER = 0.02


def _log_grid(r: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k sizes log-spaced from lo to hi (both exact); interior points jittered by +-2 %."""
    sizes = []
    for i in range(k):
        v = lo * (hi / lo) ** (i / (k - 1))
        if 0 < i < k - 1:
            v *= 1.0 + _GRID_JITTER * (2.0 * r.random() - 1.0)
        sizes.append(int(round(v)))
    return sizes


def _fmt(r: random.Random) -> str:
    return r.choice(("csv", "text"))


def _signed(r: random.Random, lo_exp: float, hi_exp: float) -> float:
    return r.choice((1.0, -1.0)) * 10 ** r.uniform(lo_exp, hi_exp)


def _noise(r: random.Random) -> float:
    return r.choice((0.0, 10 ** r.uniform(-10.0, -6.5)))


# ---------------------------------------------------------------------------
# one case per command

def crystal(r: random.Random, n_ions: int, fmt: str) -> Case:
    params = {"n_ions": n_ions, "axial_frequency_hz": r.uniform(0.2e6, 5e6),
              "ion_mass_kg": CA40_KG * r.uniform(0.2, 5.0)}
    return _case("crystal", "crystal", fmt, params, ("positions", "spacings", "summary"),
                 n_ions)


def field(r: random.Random, n_points: int, fmt: str, pair: bool) -> Case:
    z_src = r.uniform(-5e-6, 5e-6)
    side = r.choice((1.0, -1.0))
    near = r.uniform(0.2e-6, 3e-6)
    params = {"source_moment_j_per_t": r.choice((1.0, -1.0)) * r.uniform(0.1, 3.0) * MU_B,
              "source_z_m": z_src,
              "z_start_m": z_src + side * near,
              "z_stop_m": z_src + side * (near + r.uniform(1e-6, 2e-5)),
              "n_points": n_points}
    tables = ("axial_field",)
    if pair:
        z1 = z_src + side * r.uniform(0.3e-6, 2e-6)
        params["pair_z1_m"] = z1
        params["pair_z2_m"] = z1 + side * r.uniform(0.5e-6, 5e-6)
        tables += ("pair_differential",)
    return _case(f"field:{fmt}", "field", fmt, params, tables, n_points)


def protocol(r: random.Random, fmt: str) -> Case:
    n_steps = _log_uniform_int(r, 2, 2000)
    params = {"delta_b_t": _signed(r, -14.0, -11.0), "g_factor": r.uniform(1.0, 2.1),
              "contrast": r.uniform(0.5, 1.0), "duration_s": r.uniform(0.0, 60.0),
              "n_steps": n_steps}
    return _case("protocol", "protocol", fmt, params, ("parity_trajectory", "summary"),
                 n_steps)


def montecarlo(r: random.Random, shots: int, fmt: str) -> Case:
    params = {"seed": r.getrandbits(64), "shots": shots,
              "interaction_time_s": r.uniform(0.0, 10.0),
              "delta_b_t": _signed(r, -13.5, -11.5),
              "bias_phase_rad": r.uniform(-math.pi, math.pi),
              "contrast": r.uniform(0.5, 0.99),
              "gradient_rms_t_per_m": _noise(r),
              "common_mode_rms_t": r.choice((0.0, 10 ** r.uniform(-12.0, -10.0))),
              "probe_spacing_m": r.uniform(0.5e-6, 5e-6)}
    return _case("montecarlo", "montecarlo", fmt, params, ("estimate", "outcome_counts"),
                 shots)


def _scenario(kind: str, fmt: str, paper: bool, params: dict, size: float) -> Case:
    params = {"scenario": kind, "paper_values": paper, **params}
    tables = ("geometry", "field_table", "estimation") + tuple(
        f"parity_trajectory_{label}" for label in _TRAJECTORIES[kind])
    return _case(f"scenario:{kind}", "scenario", fmt, params, tables, size)


def three_ion_spin(r: random.Random, shots: int, fmt: str, paper: bool) -> Case:
    params = {"seed": r.getrandbits(64), "axial_frequency_hz": r.uniform(1e6, 10e6),
              "g_factor": 2.002, "shots": shots,
              "interaction_time_s": r.uniform(0.5, 10.0),
              "bias_phase_rad": r.uniform(0.0, math.pi),
              "preparation_fidelity": r.uniform(0.9, 1.0),
              "readout_contrast": r.uniform(0.8, 0.99),
              "gradient_rms_t_per_m": _noise(r)}
    return _scenario("three_ion_spin", fmt, paper, params, shots)


def molecular_state_change(r: random.Random, fmt: str, paper: bool) -> Case:
    before = r.uniform(0.0, 2.0) * MU_B
    # One in five pairs is identical: the infeasible-discrimination path.
    after = before if r.random() < 0.2 else r.uniform(0.0, 2.0) * MU_B
    params = {"seed": r.getrandbits(64), "axial_frequency_hz": r.uniform(1e6, 10e6),
              "moment_before_j_per_t": before, "moment_after_j_per_t": after,
              "interaction_time_s": r.uniform(0.5, 10.0),
              "target_snr": r.uniform(1.0, 5.0)}
    return _scenario("molecular_state_change", fmt, paper, params, 1)


def double_well(r: random.Random, fmt: str, paper: bool, variant: str) -> Case:
    separation = r.uniform(3e-6, 6e-6)
    if variant == "scan":
        # Interaction too short for any imbalance up to _MAX_SCAN_DELTA_N to
        # reach the target SNR within the shot budget: the scan walks every
        # required_shots call.
        t, shots, size = 10 ** r.uniform(-8.0, -7.0), r.randint(10, 100), 10_000
    elif variant == "idle":
        t, shots, size = 0.0, r.randint(10, 1000), 10_000
    else:
        t, shots, size = r.uniform(0.1, 5.0), r.randint(10, 1000), 1
    params = {"seed": r.getrandbits(64), "well_separation_m": separation,
              "probe_spacing_m": separation * r.uniform(0.5, 0.8),
              "atom_moment_j_per_t": r.uniform(0.5, 2.0) * MU_B,
              "delta_n": r.randint(0, 20), "interaction_time_s": t, "shots": shots,
              "g_factor": 2.002}
    return _scenario("double_well", fmt, paper, params, size)


def ghz_chain(r: random.Random, fmt: str, paper: bool) -> Case:
    params = {"seed": r.getrandbits(64), "axial_frequency_hz": r.uniform(1e6, 10e6),
              "interaction_time_s": r.uniform(0.5, 10.0),
              "source_moment_j_per_t": r.choice((None, r.uniform(0.5, 2.0) * MU_E)),
              "n_ions": r.choice((None, 5))}
    return _scenario("ghz_chain", fmt, paper, params, 1)


_VALID_CRYSTAL = ("command = crystal\nn_ions = 3\naxial_frequency_hz = 1e6\n"
                  "ion_mass_kg = 6.6e-26\n")
_VALID_FIELD = ("command = field\nsource_moment_j_per_t = 9.27e-24\n"
                "z_start_m = 1e-6\nz_stop_m = 5e-6\n")

# Each text is rejected with exit code 1: by the parser, by scenario
# validation, or by the field-singularity guard.
MALFORMED = (
    _VALID_CRYSTAL + "bogus_key = 1\n",
    _VALID_CRYSTAL + "n_ions = 4\n",
    _VALID_CRYSTAL.replace("n_ions = 3", "n_ions = 31"),
    _VALID_FIELD.replace("z_stop_m = 5e-6\n", ""),
    "command = montecarlo\nshots = ten\ninteraction_time_s = 1\ndelta_b_t = 1e-12\n",
    "command = teleport\nseed = 1\n",
    _VALID_CRYSTAL + "this line has no assignment\n",
    "command = scenario\nscenario = double_well\nwell_separation_m = 2e-6\nprobe_spacing_m = 3e-6\n",
    _VALID_FIELD + "pair_z1_m = 2e-6\n",
    _VALID_FIELD.replace("z_start_m = 1e-6", "z_start_m = -1e-6").replace(
        "z_stop_m = 5e-6", "z_stop_m = 1e-6") + "n_points = 3\n",
    "command = protocol\ndelta_b_t = 1e-12\nduration_s = 1\ncontrast = nan\n",
    "command = scenario\nscenario = ghz_chain\nn_ions = 3\n",
)


# ---------------------------------------------------------------------------
# workloads

def sweep(seed: int) -> list[Case]:
    """500 small mixed runs: every command, scenario, mode and format."""
    r = random.Random(f"sweep-{seed}")
    cases = [crystal(r, n, _fmt(r)) for n in range(2, 31) for _ in range(3)]
    cases += [field(r, _log_uniform_int(r, 2, 500), _fmt(r), r.random() < 0.5)
              for _ in range(60)]
    cases += [protocol(r, _fmt(r)) for _ in range(60)]
    for paper in (False, True):
        cases += [three_ion_spin(r, _log_uniform_int(r, 10, 1e4), _fmt(r), paper)
                  for _ in range(15)]
        cases += [molecular_state_change(r, _fmt(r), paper) for _ in range(15)]
        for variant, count in (("scan", 8), ("idle", 3), ("normal", 20)):
            cases += [double_well(r, _fmt(r), paper, variant) for _ in range(count)]
        cases += [ghz_chain(r, _fmt(r), paper) for _ in range(15)]
    cases += [Case("malformed", text, 1, (), 0)
              for text in MALFORMED for _ in range(2)]
    cases += [montecarlo(r, _log_uniform_int(r, 10, 1e4), _fmt(r))
              for _ in range(500 - len(cases))]
    r.shuffle(cases)
    return cases


def shots(seed: int) -> list[Case]:
    """40 Monte Carlo-heavy runs: 20 shot counts from 10^4 to 10^6, each as montecarlo
    and as three_ion_spin (shots per hypothesis).

    Per-shot arrays go from well inside L2 to several times its size.
    """
    r = random.Random(f"shots-{seed}")
    cases = []
    for n in _log_grid(r, 10_000, 1_000_000, 20):
        cases.append(montecarlo(r, n, _fmt(r)))
        cases.append(three_ion_spin(r, n, _fmt(r), r.random() < 0.5))
    r.shuffle(cases)
    return cases


WORKLOADS = {"sweep": sweep, "shots": shots}

# Seconds one pass of each list takes (summed cli.main time) on a 2-vCPU
# Intel Xeon host with 2 MB L2. A run makes round(--seconds / this) passes:
# a fixed count, so a case's time is taken over the same number of samples
# on every commit, however fast the code is.
PASS_SECONDS = {"sweep": 1.5, "shots": 2.8}

# How a case's time is taken from its passes. sweep's calls last about a
# millisecond, and the host's contended phases, which last seconds, set their
# spread: the fastest pass filters those out. shots' calls last 10-300 ms and
# allocate up to 150 MB; their fastest pass depends on page-fault and cache
# luck, and their median is the steadier figure (IQR/median of run_p50_ms
# over two sets of ten seeds on the host above: 0.16 and 0.12 with the
# minimum, 0.07 and 0.11 with the median). The median also keeps visible a
# slow-down that hits only some passes, such as page faults on big arrays.
CASE_TIME = {"sweep": "min", "shots": "median"}
