import dataclasses
import json
import math
import sys
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from iongradim import crystal, estimation, scenarios
from iongradim.constants import Vec3, constants
from iongradim.crystal import TrapConfig, equilibrium_positions
from iongradim.errors import ConfigurationError, InfeasibleError
from iongradim.estimation import (ExperimentPlan, NoiseModel, analytic_snr,
                                  dephasing_contrast, expected_parity, required_shots,
                                  simulate_shots, spin_discrimination_snr, swing_threshold)
from iongradim.magnetostatics import DipoleSource, axial_bz
from iongradim.protocol import (BELL, GHZ, PAIR_WEIGHTS, ZeemanConfig, accumulated_phase,
                                parity_trajectory, phase_rate, prepare_probe)
from iongradim.scenarios import (_MAX_SCAN_DELTA_N, DOUBLE_WELL, GHZ_CHAIN,
                                 MOLECULAR_STATE_CHANGE, REFERENCE_DELTA_B_T,
                                 REFERENCE_DW_DELTA_B_T, THREE_ION_SPIN,
                                 ScenarioConfig, run_double_well,
                                 run_ghz_chain, run_molecular_state_change,
                                 run_scenario, run_three_ion_spin)

C = constants()
CA40_MASS = 40.0 * C.atomic_mass_unit
MU_E = abs(C.electron_magnetic_moment)


def base_config(kind, paper_values=False, seed=42, shots=10, t=5.0, **extra):
    return ScenarioConfig(
        kind=kind,
        trap=TrapConfig(axial_frequency=2.0 * math.pi * 10e6, ion_mass=CA40_MASS),
        zeeman=ZeemanConfig(g_factor=2.002),
        noise=NoiseModel(),
        plan=ExperimentPlan(shots=shots, interaction_time=t,
                            bias_phase=math.pi / 2, rng_seed=seed),
        paper_values=paper_values,
        **extra,
    )


def rebuild_rate(report):
    """Recompute the trajectory rate from the report's own field table."""
    rows = report.field_table
    positions = tuple(Vec3(0.0, 0.0, r.z_m) for r in rows)
    fields = tuple(r.bz_t for r in rows)
    if len(rows) == 2:
        probe = prepare_probe(BELL, positions, 1.0,
                              branch_weights=((-0.5, 0.5), (0.5, -0.5)))
    else:
        probe = prepare_probe(GHZ, positions, 1.0)
    return phase_rate(probe, ZeemanConfig(g_factor=2.002), fields)


# ---------------------------------------------------------------------------
# three-ion spin detection

def test_three_ion_geometry_and_spacing():
    report = run_three_ion_spin(base_config(THREE_ION_SPIN))
    assert report.geometry["d12_m"] == pytest.approx(1.03e-6, rel=0.01)
    assert report.geometry["z_near_m"] < report.geometry["z_source_m"]


def test_three_ion_paper_mode_pi_time():
    report = run_three_ion_spin(base_config(THREE_ION_SPIN, paper_values=True))
    assert report.delta_b == REFERENCE_DELTA_B_T
    assert report.estimation["t_pi_s"] == pytest.approx(26.0, rel=0.05)


def test_three_ion_computed_mode_reports_discrepancy():
    report = run_three_ion_spin(base_config(THREE_ION_SPIN))
    assert report.mode == "computed"
    # computed differential field, with the published value annotated alongside
    assert report.delta_b == pytest.approx(1.4774e-12, rel=1e-3)
    assert any("7.8e-13" in note for note in report.annotations)
    assert any("6.8e-13" in note for note in report.annotations)


def test_three_ion_field_table_recomputable():
    # computed mode: the table rows equal the dipole law at the listed points
    report = run_three_ion_spin(base_config(THREE_ION_SPIN))
    source = DipoleSource(Vec3(0.0, 0.0, report.geometry["z_source_m"]),
                          Vec3(0.0, 0.0, MU_E))
    for row in report.field_table:
        assert row.bz_t == pytest.approx(axial_bz(source, row.z_m), rel=1e-12)


def test_three_ion_compensated_spin_up_is_flat():
    for paper in (False, True):
        report = run_three_ion_spin(base_config(THREE_ION_SPIN, paper_values=paper))
        series = dict(report.trajectories)
        up = series["compensated_spin_up"]
        parities = [parity for _, _, parity in up]
        assert max(parities) - min(parities) < 1e-12
        down = series["compensated_spin_down"]
        assert max(abs(phase) for _, phase, _ in down) > 1.0


def test_three_ion_spin_down_rate_doubles():
    report = run_three_ion_spin(base_config(THREE_ION_SPIN, paper_values=True))
    series = dict(report.trajectories)
    free = series["free_evolution"][-1, 1]   # the last phase
    down = series["compensated_spin_down"][-1, 1]
    assert abs(down) == pytest.approx(2.0 * abs(free), rel=1e-12)


def test_three_ion_snr_present_and_finite():
    report = run_three_ion_spin(base_config(THREE_ION_SPIN, paper_values=True))
    assert report.estimation["snr"] > 0
    assert report.estimation["shots_per_hypothesis"] == 10
    assert report.estimation["time_per_hypothesis_s"] == pytest.approx(60.0)


# ---------------------------------------------------------------------------
# molecular state change

def test_molecular_zero_change_is_infeasible_not_error():
    cfg = base_config(MOLECULAR_STATE_CHANGE, moment_before=MU_E, moment_after=MU_E)
    report = run_molecular_state_change(cfg)
    assert math.isinf(report.estimation["shots_required"])
    assert any("infeasible" in note for note in report.annotations)


def test_molecular_unreachable_change_is_infeasible_and_says_why():
    # a nonzero swing so small that no shot count that fits a float suffices
    cfg = base_config(MOLECULAR_STATE_CHANGE, moment_before=0.0, moment_after=1e-300)
    report = run_molecular_state_change(cfg)
    assert report.estimation["parity_swing"] > 0
    assert math.isinf(report.estimation["shots_required"])
    assert any("no shot count that fits a float" in note for note in report.annotations)


def test_molecular_moment_halving_halves_field_and_rate():
    cfg = base_config(MOLECULAR_STATE_CHANGE, moment_before=MU_E, moment_after=MU_E / 2)
    report = run_molecular_state_change(cfg)
    est = report.estimation
    assert est["delta_b_after_t"] == pytest.approx(0.5 * est["delta_b_before_t"], rel=1e-12)
    assert est["phase_rate_after_rad_per_s"] == pytest.approx(
        0.5 * est["phase_rate_before_rad_per_s"], rel=1e-12)


def test_molecular_discrimination_matches_closed_form():
    # oracle: closed-form phase difference, then the analytic shot inversion
    from iongradim.estimation import required_shots
    cfg = base_config(MOLECULAR_STATE_CHANGE, moment_before=MU_E, moment_after=MU_E / 2)
    report = run_molecular_state_change(cfg)
    t = 5.0
    d_before = report.estimation["delta_b_before_t"]
    coeff = 2.002 * C.bohr_magneton / C.reduced_planck
    delta_phi = coeff * (0.5 * d_before - d_before) * t
    swing = 2.0 * 0.99 * abs(math.sin(0.5 * delta_phi))
    assert report.estimation["parity_swing"] == pytest.approx(swing, rel=1e-9)
    assert report.estimation["shots_required"] == required_shots(2.0, swing)


def test_molecular_has_both_trajectories():
    cfg = base_config(MOLECULAR_STATE_CHANGE, moment_before=MU_E, moment_after=MU_E / 3)
    report = run_molecular_state_change(cfg)
    labels = [label for label, _ in report.trajectories]
    assert labels == ["moment_before", "moment_after"]


# ---------------------------------------------------------------------------
# double well

def dw_config(delta_n=1, paper_values=True, shots=10, t=2.5, **kw):
    return base_config(DOUBLE_WELL, paper_values=paper_values, shots=shots, t=t,
                       delta_n=delta_n, **kw)


def test_double_well_balanced_is_flat():
    report = run_double_well(dw_config(delta_n=0, paper_values=False))
    assert report.delta_b == 0.0
    parities = [parity for _, series in report.trajectories for _, _, parity in series]
    assert max(parities) - min(parities) == 0.0


def test_double_well_paper_mode_modulation_and_phase_flag():
    report = run_double_well(dw_config(delta_n=1))
    assert report.delta_b == REFERENCE_DW_DELTA_B_T
    assert report.estimation["phase_at_t_rad"] > math.pi
    assert report.estimation["parity_modulation"] >= 0.30
    assert any("exceeds pi" in note for note in report.annotations)


def test_double_well_linearity_in_imbalance():
    r1 = run_double_well(dw_config(delta_n=1, paper_values=False))
    r3 = run_double_well(dw_config(delta_n=3, paper_values=False))
    assert r3.delta_b == pytest.approx(3.0 * r1.delta_b, rel=1e-12)


LINEARITY_BOUND = 2.0 ** -46   # 64 ulps of the two fields' sizes, stated before any run


@given(separation=st.floats(-7.0, -3.0).map(lambda e: 10.0 ** e), share=st.floats(0.01, 0.9),
       atom_moment=st.floats(-2.0, 2.0).map(lambda e: C.bohr_magneton * 10.0 ** e),
       delta_n=st.integers(0, 10 ** 6))
def test_double_well_field_is_linear_in_the_imbalance(separation, share, atom_moment, delta_n):
    # computed mode: delta_n atoms give delta_n times one atom's differential
    # field, within the bound of the two fields whose difference it is
    def field(n):
        return run_double_well(dw_config(delta_n=n, paper_values=False, well_separation=separation,
                                         probe_spacing=share * separation,
                                         atom_moment=atom_moment)).delta_b
    source = DipoleSource(Vec3(0.0, 0.0, separation / 2.0), Vec3(0.0, 0.0, atom_moment))
    size = sum(abs(axial_bz(source, z)) for z in (-share * separation / 2.0,
                                                   share * separation / 2.0))
    assert abs(field(delta_n) - delta_n * field(1)) <= LINEARITY_BOUND * delta_n * size


@pytest.mark.parametrize("paper_values", [False, True])
def test_double_well_defaults_to_the_published_geometry(paper_values):
    # configs/double_well.cfg's wells 4.4 um apart, probes 3.5 um apart and one excess atom
    given = base_config(DOUBLE_WELL, paper_values=paper_values, t=2.5)
    spelled = dataclasses.replace(given, well_separation=4.4e-6, probe_spacing=3.5e-6,
                                  delta_n=1)
    assert given == spelled
    report, expected = run_double_well(given), run_double_well(spelled)
    assert report.geometry["well_separation_m"] == 4.4e-6
    assert report.geometry["probe_spacing_m"] == 3.5e-6
    assert report.estimation["delta_n"] == 1.0
    assert dataclasses.replace(report, trajectories=()) == dataclasses.replace(
        expected, trajectories=())
    assert [label for label, _ in report.trajectories] == [
        label for label, _ in expected.trajectories]
    for (_, rows), (_, expected_rows) in zip(report.trajectories, expected.trajectories):
        assert rows.tobytes() == expected_rows.tobytes()


def test_double_well_probe_wider_than_wells_rejected():
    with pytest.raises(ConfigurationError):
        dw_config(delta_n=1, probe_spacing=5.0e-6)


def test_double_well_computed_field_value():
    # hand evaluation: near well at 0.45 um, far at 3.95 um, one Bohr magneton
    report = run_double_well(dw_config(delta_n=1, paper_values=False))
    near, far = 0.45e-6, 3.95e-6
    expected = 2e-7 * C.bohr_magneton * (1.0 / near ** 3 - 1.0 / far ** 3)
    assert report.delta_b == pytest.approx(expected, rel=1e-12)


def scan_by_shot_inversion(config, rate_unit):
    """Reference scan: the first imbalance whose parity swing is nonzero and
    needs no more shots per hypothesis than the budget."""
    contrast = config.preparation_fidelity * config.noise.contrast
    t = config.plan.interaction_time
    for k in range(1, _MAX_SCAN_DELTA_N + 1):
        swing = 2.0 * contrast * abs(math.sin(0.5 * k * rate_unit * t))
        if swing > 0 and required_shots(config.target_snr, swing) <= config.plan.shots:
            return float(k)
    return math.inf


class FirstHitAt(NamedTuple):
    """An interaction time that puts the default config's swing threshold
    between the swings of k - 1 and k atoms (paper-values mode, 10 shots)."""
    k: int

    def time(self) -> float:
        config = dw_config(delta_n=1)
        rate_unit = run_double_well(config).estimation["phase_rate_rad_per_s"]
        contrast = config.preparation_fidelity * config.noise.contrast
        threshold = swing_threshold(config.plan.shots, config.target_snr)
        return 2.0 * math.asin(threshold / (2.0 * contrast)) / ((self.k - 0.5) * rate_unit)


# The scan checks k in chunks 1-3, 4-15, 16-63, 64-255, ..., 4096-10000: hits
# at 3, 4, 15, 16, 63, 64 and 10,000 sit on the chunk edges.
@pytest.mark.parametrize("paper_values, t, atom_moment, runs_to_cap", [
    (True, 2.5, None, False),
    (False, 1e-3, None, False),
    (False, 1e-8, None, True),   # all 10,000 steps, nothing detectable
    (True, 0.0, None, True),     # idle: no phase at any imbalance
    *[(True, FirstHitAt(k), None, False) for k in (3, 4, 15, 16, 63, 64, 10_000)],
], ids=lambda v: f"first_hit_at_{v.k}" if isinstance(v, FirstHitAt) else None)
def test_double_well_min_detectable_matches_reference_scan(paper_values, t, atom_moment,
                                                           runs_to_cap):
    hit_at = t.k if isinstance(t, FirstHitAt) else None
    config = dw_config(delta_n=1, paper_values=paper_values, t=t.time() if hit_at else t,
                       atom_moment=atom_moment)
    report = run_double_well(config)
    # with delta_n = 1 the reported rate is the single-atom rate the scan steps by
    reference = scan_by_shot_inversion(config, report.estimation["phase_rate_rad_per_s"])
    found = report.estimation["min_detectable_delta_n"]
    assert found == reference
    if runs_to_cap:
        assert found == math.inf
    elif hit_at:
        assert found == hit_at
    else:
        assert 1.0 < found < _MAX_SCAN_DELTA_N


def scan_by_snr(config, rate_unit):
    """Reference scan: the first imbalance whose analytic SNR meets the target."""
    contrast = config.preparation_fidelity * config.noise.contrast
    t = config.plan.interaction_time
    for k in range(1, _MAX_SCAN_DELTA_N + 1):
        swing = 2.0 * contrast * abs(math.sin(0.5 * k * rate_unit * t))
        if analytic_snr(config.plan.shots, swing) >= config.target_snr:
            return float(k)
    return math.inf


@pytest.mark.parametrize("shots, target, expected", [
    (10 ** 17, 4e16, 1.0),         # only the full swing of 2 reaches the target
    (10 ** 17, 5e16, math.inf),    # not even that one does
    (10, 2.0, 1.0),
    (1, 5.0, math.inf),
])
def test_double_well_scan_at_a_full_swing_of_two(shots, target, expected):
    rate_unit = phase_rate(prepare_probe(BELL, (Vec3(0, 0, 0), Vec3(0, 0, 1e-6)), 1.0,
                                         branch_weights=PAIR_WEIGHTS),
                           ZeemanConfig(g_factor=2.002), (0.0, REFERENCE_DW_DELTA_B_T))
    t = math.pi / rate_unit
    assert math.sin(0.5 * 1 * rate_unit * t) == 1.0   # delta_n = 1 gives a swing of exactly 2
    config = dw_config(delta_n=1, shots=shots, t=t, preparation_fidelity=1.0,
                       target_snr=target)
    report = run_double_well(config)
    assert report.estimation["phase_rate_rad_per_s"] == rate_unit
    found = report.estimation["min_detectable_delta_n"]
    assert found == expected == scan_by_snr(config, rate_unit)


def full_scan(rate_unit, t, contrast, shots, target_snr):
    """The scan without its empty-scan bound: every k's swing, then the first hit."""
    k = np.arange(1, _MAX_SCAN_DELTA_N + 1, dtype=float)
    swing = scenarios._parity_swing(contrast, ((0.5 * k) * rate_unit) * t)
    hit = np.where(swing < 2.0, swing >= swing_threshold(shots, target_snr),
                   analytic_snr(shots, 2.0) >= target_snr)
    return float(hit.argmax() + 1) if hit.any() else math.inf


@st.composite
def scan_inputs(draw):
    """Scans of every phase size, zero and subnormal phases among them, with
    targets drawn or put at and just above the largest swing of the scan."""
    rate_unit = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(1e-3, 1e6))
    t = draw(st.one_of(st.sampled_from([0.0, 5e-324, 1e-315, 1e-300, 1e-20]),
                       st.floats(1e-12, 10.0)))
    contrast = draw(st.one_of(st.just(1.0), st.floats(1e-6, 1.0)))
    shots = draw(st.integers(1, 10 ** 6))
    k = np.arange(1, _MAX_SCAN_DELTA_N + 1, dtype=float)
    largest = float(scenarios._parity_swing(contrast, ((0.5 * k) * rate_unit) * t).max())
    above = draw(st.sampled_from([None, 1.0, 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -41,
                                  1.0 + 2.0 ** -39, 1.0 + 2.0 ** -20]))
    if above is None or largest == 0.0:
        target = draw(st.floats(1e-3, 1e3))
    else:
        target = analytic_snr(shots, largest * above)
    assume(target > 0.0)
    return rate_unit, t, contrast, shots, target


@given(scan_inputs())
def test_min_detectable_equals_the_full_scan(inputs):
    assert scenarios._min_detectable_delta_n(*inputs) == full_scan(*inputs)


@pytest.mark.parametrize("paper_values, t", [(True, 0.0), (False, 1e-8)])
def test_an_empty_scan_computes_no_sine(monkeypatch, paper_values, t):
    # the sweep's empty scans: idle runs (t = 0) and phases far below the threshold
    config = dw_config(delta_n=1, paper_values=paper_values, t=t)
    rate_unit = run_double_well(config).estimation["phase_rate_rad_per_s"]
    contrast = config.preparation_fidelity * config.noise.contrast
    inputs = (rate_unit, t, contrast, config.plan.shots, config.target_snr)
    assert full_scan(*inputs) == math.inf

    def no_sine(contrast, phase):
        raise AssertionError("the bound should have proved the scan empty")

    monkeypatch.setattr(scenarios, "_parity_swing", no_sine)
    assert scenarios._min_detectable_delta_n(*inputs) == math.inf


@pytest.mark.parametrize("atom_moment", [math.inf, 1e300])
def test_double_well_overflowing_atom_moment_rejected(atom_moment):
    # inf fails the config check; 1e300 is finite, but its dipole field overflows
    with pytest.raises(ConfigurationError):
        run_double_well(dw_config(delta_n=1, paper_values=False, atom_moment=atom_moment))


# ---------------------------------------------------------------------------
# GHZ chain

def test_ghz_rate_ratio_is_two():
    report = run_ghz_chain(base_config(GHZ_CHAIN))
    assert report.estimation["rate_ratio"] == pytest.approx(2.0, abs=1e-9)


@given(frequency=st.floats(4.0, 8.0).map(lambda e: 2.0 * math.pi * 10.0 ** e),
       mass=st.floats(1.0, 300.0).map(lambda amu: amu * C.atomic_mass_unit))
def test_ghz_rate_ratio_is_two_for_any_trap(frequency, mass):
    # criterion 09's bound, over trap frequencies of 10 kHz to 100 MHz and 1 to 300 u
    config = dataclasses.replace(base_config(GHZ_CHAIN),
                                 trap=TrapConfig(axial_frequency=frequency, ion_mass=mass))
    assert abs(run_ghz_chain(config).estimation["rate_ratio"] - 2.0) <= 1e-9


def test_ghz_inner_spacing_below_outer():
    report = run_ghz_chain(base_config(GHZ_CHAIN))
    assert report.geometry["inner_spacing_m"] < report.geometry["outer_spacing_m"]


def test_ghz_zero_moment_zero_rates():
    report = run_ghz_chain(base_config(GHZ_CHAIN, source_moment=0.0))
    assert report.estimation["phase_rate_ghz_rad_per_s"] == 0.0
    assert report.estimation["phase_rate_bell_rad_per_s"] == 0.0


def test_ghz_wrong_ion_count_rejected():
    with pytest.raises(ConfigurationError):
        base_config(GHZ_CHAIN, n_ions=7)


# ---------------------------------------------------------------------------
# cross-cutting report properties

ALL_CONFIGS = [
    lambda: base_config(THREE_ION_SPIN),
    lambda: base_config(THREE_ION_SPIN, paper_values=True),
    lambda: base_config(MOLECULAR_STATE_CHANGE, moment_before=MU_E, moment_after=MU_E / 2),
    lambda: dw_config(delta_n=1),
    lambda: dw_config(delta_n=2, paper_values=False),
    lambda: base_config(GHZ_CHAIN),
]


@pytest.mark.parametrize("make", ALL_CONFIGS)
def test_reports_are_reproducible(make):
    a = dataclasses.asdict(run_scenario(make()))
    b = dataclasses.asdict(run_scenario(make()))
    assert (json.dumps(a, sort_keys=True, default=np.ndarray.tolist)
            == json.dumps(b, sort_keys=True, default=np.ndarray.tolist))


@pytest.mark.parametrize("make", ALL_CONFIGS)
def test_parity_bounds_hold(make):
    report = run_scenario(make())
    contrast = 0.99   # preparation fidelity default, readout contrast 1
    for _, series in report.trajectories:
        for _, phase, parity in series:
            assert abs(parity) <= 1.0 + 1e-15
            assert parity == pytest.approx(contrast * math.cos(phase), abs=1e-12)


@pytest.mark.parametrize("make", ALL_CONFIGS)
def test_trajectory_consistent_with_field_table(make):
    report = run_scenario(make())
    rate = rebuild_rate(report)
    label, series = report.trajectories[0]
    for time, phase, _ in series:
        assert phase == pytest.approx(rate * time, abs=1e-12 * (1 + abs(phase)))


def _bits(rows):
    return np.asarray(rows).view(np.int64).tolist()


@pytest.mark.parametrize("make", ALL_CONFIGS)
def test_every_runner_trajectory_is_its_parity_trajectory(monkeypatch, make):
    calls = []
    trajectories = scenarios._trajectories

    def recorded(rates, contrast, t_max):
        calls.append((dict(rates), contrast, t_max))
        return trajectories(rates, contrast, t_max)

    monkeypatch.setattr(scenarios, "_trajectories", recorded)
    report = run_scenario(make())
    [(rates, contrast, t_max)] = calls
    assert [label for label, _ in report.trajectories] == list(rates)
    for label, rows in report.trajectories:
        assert _bits(rows) == _bits(parity_trajectory(rates[label], contrast, t_max))


@pytest.mark.parametrize("make", ALL_CONFIGS)
def test_mode_is_labeled(make):
    report = run_scenario(make())
    assert report.mode in ("computed", "paper-values")
    assert any(f"mode={report.mode}" in note for note in report.annotations)


def _bound_edges(bound):
    """(value, accepted) at each end of bound, beside nan and +-inf, which no bound takes."""
    def step(value, direction):
        return value + direction if bound.integer else math.nextafter(value, direction * math.inf)
    edges = [(math.nan, False), (math.inf, False), (-math.inf, False)]
    if bound.minimum is None:
        edges.append((-sys.float_info.max, True))
    else:
        edges += [(bound.minimum, not bound.exclusive_minimum), (step(bound.minimum, -1), False),
                  (step(bound.minimum, 1), True)]
    if bound.maximum is None:   # an int of any size is finite
        edges.append((2 ** 1024, True) if bound.integer else (sys.float_info.max, True))
    else:   # an integer range may end at a large float, whose + 1 would round back to it
        top = int(bound.maximum) if bound.integer else bound.maximum
        edges += [(top, True), (step(top, 1), False)]
    if bound.integer:
        edges.append((bound.minimum + 0.5, False))
    return edges


def _replacing(instance, name):
    return lambda value: dataclasses.replace(instance, **{name: value})


_PAIR = prepare_probe(BELL, (Vec3(0, 0, 0.0), Vec3(0, 0, 1.03e-6)), 1.0)
# every bound a library dataclass declares, each with a way to set one value
# in a valid instance (a three_ion_spin ScenarioConfig, whose kind reads no
# well geometry or n_ions), and the functions that check a value against one
_DECLARED_BOUNDS = [
    (f"{type(instance).__name__}.{f.name}", f.name, f.metadata["bound"],
     _replacing(instance, f.name))
    for instance in (base_config(THREE_ION_SPIN).trap, ZeemanConfig(g_factor=2.002), _PAIR,
                     NoiseModel(), base_config(THREE_ION_SPIN).plan, base_config(THREE_ION_SPIN))
    for f in dataclasses.fields(instance) if "bound" in f.metadata
] + [
    ("equilibrium_positions.n_ions", "n_ions", crystal.N_IONS,
     lambda n: equilibrium_positions(n, base_config(THREE_ION_SPIN).trap)),
    ("required_shots.target_snr", "target_snr", estimation.TARGET_SNR,
     lambda snr: required_shots(snr, 1.0)),
    ("dephasing_contrast.gradient_rms", "gradient_rms", estimation._RMS,
     lambda rms: dephasing_contrast(rms, _PAIR, ZeemanConfig(g_factor=2.002), 1.0)),
    ("dephasing_contrast.duration", "duration", estimation._TIME,
     lambda t: dephasing_contrast(1e-9, _PAIR, ZeemanConfig(g_factor=2.002), t)),
]


@pytest.mark.parametrize("name, bound, make", [case[1:] for case in _DECLARED_BOUNDS],
                         ids=[case[0] for case in _DECLARED_BOUNDS])
def test_each_declared_bound_holds_at_its_edges(name, bound, make):
    # inclusive ends are taken and exclusive ones refused, one step inside
    # and outside each end too; a refusal names the field, its range and the value
    for value, accepted in _bound_edges(bound):
        if accepted:
            try:
                make(value)
            except InfeasibleError:   # a target no shot count reaches is still in range
                pass
            continue
        with pytest.raises(ConfigurationError) as raised:
            make(value)
        assert str(raised.value) == f"{name} must be {bound}, got {value}"


@pytest.mark.parametrize("make, message", [
    (lambda: base_config("triple_well"), "unknown scenario kind 'triple_well'"),
    (lambda: base_config(THREE_ION_SPIN, preparation_fidelity=1.01),
     "preparation_fidelity must be in [0, 1], got 1.01"),
    (lambda: base_config(THREE_ION_SPIN, preparation_fidelity=-0.01),
     "preparation_fidelity must be in [0, 1], got -0.01"),
    (lambda: base_config(MOLECULAR_STATE_CHANGE, moment_before=MU_E),
     "molecular_state_change needs moment_before and moment_after"),
    (lambda: dw_config(well_separation=None), "well_separation must be finite and > 0, got None"),
    (lambda: dw_config(probe_spacing=None), "probe_spacing must be finite and > 0, got None"),
    (lambda: dw_config(well_separation=0.0), "well_separation must be finite and > 0, got 0.0"),
    (lambda: dw_config(probe_spacing=0.0), "probe_spacing must be finite and > 0, got 0.0"),
    (lambda: dw_config(delta_n=-1),
     "delta_n must be an integer in [0, 1.7976931348623157e+308], got -1"),
    (lambda: dw_config(delta_n=1.5),
     "delta_n must be an integer in [0, 1.7976931348623157e+308], got 1.5"),
    (lambda: dw_config(delta_n=None),
     "delta_n must be an integer in [0, 1.7976931348623157e+308], got None"),
    (lambda: dw_config(probe_spacing=4.4e-6),
     "probe pair must fit inside the double well (spacing 4.4e-06 >= separation 4.4e-06)"),
    # every kind holds each field to its range, not only the kind that reads it
    (lambda: base_config(THREE_ION_SPIN, well_separation=0.0),
     "well_separation must be finite and > 0, got 0.0"),
    (lambda: base_config(GHZ_CHAIN, delta_n=-1),
     "delta_n must be an integer in [0, 1.7976931348623157e+308], got -1"),
    (lambda: base_config(THREE_ION_SPIN, n_ions=31), "n_ions must be an integer in [1, 30], got 31"),
    (lambda: base_config(GHZ_CHAIN, n_ions=4),
     "ghz_chain is defined for a 5-ion crystal (4 probes + central spin), got 4"),
])
def test_scenario_config_names_each_rejected_field(make, message):
    with pytest.raises(ConfigurationError) as raised:
        make()
    assert str(raised.value) == message


def test_scenario_kind_mismatch_rejected():
    cfg = base_config(THREE_ION_SPIN)
    with pytest.raises(ConfigurationError):
        run_ghz_chain(cfg)


# ---------------------------------------------------------------------------
# contrast routing: the analytic model takes estimation.effective_contrast,
# the Monte Carlo shots take their own per-shot contrast

ROUTED_CONTRAST = 0.5   # stands in for effective_contrast; the real one is 0.93 * 0.85
READOUT_NOISE = NoiseModel(gradient_rms=2e-7, contrast=0.85)

ROUTED_CONFIGS = {
    THREE_ION_SPIN: dict(shots=40, t=2.0),
    MOLECULAR_STATE_CHANGE: dict(t=1.5, moment_before=MU_E, moment_after=7.1e-24),
    DOUBLE_WELL: dict(t=0.8, shots=200, well_separation=4.4e-6, probe_spacing=3.5e-6,
                      delta_n=4),
    GHZ_CHAIN: dict(t=3.0),
}


def routed_config(kind):
    config = base_config(kind, seed=21, preparation_fidelity=0.93, **ROUTED_CONFIGS[kind])
    return dataclasses.replace(config, noise=READOUT_NOISE)


def bell_probe():
    return prepare_probe(BELL, (Vec3(0, 0, 0.0), Vec3(0, 0, 1.03e-6)), 0.93,
                         branch_weights=PAIR_WEIGHTS)


def route_contrast(monkeypatch):
    def routed(probe, noise):
        return ROUTED_CONTRAST
    monkeypatch.setattr(estimation, "effective_contrast", routed)
    monkeypatch.setattr(scenarios, "effective_contrast", routed)


@pytest.mark.parametrize("kind", sorted(ROUTED_CONFIGS))
def test_analytic_contrast_is_effective_contrast(monkeypatch, kind):
    # every analytic fringe follows effective_contrast; the Monte Carlo
    # estimates of the three-ion run do not
    config = routed_config(kind)
    before = run_scenario(config)
    route_contrast(monkeypatch)
    after = run_scenario(config)
    for (name, series), (_, series_before) in zip(after.trajectories, before.trajectories):
        series, series_before = series.tolist(), series_before.tolist()
        assert [p[2] for p in series] == [ROUTED_CONTRAST * math.cos(p[1])
                                          for p in series], name
        assert [p[:2] for p in series] == [p[:2] for p in series_before], name
        assert [p[2] for p in series] != [p[2] for p in series_before], name
    est = after.estimation
    if kind == MOLECULAR_STATE_CHANGE:
        rates = est["phase_rate_after_rad_per_s"] - est["phase_rate_before_rad_per_s"]
        assert est["parity_swing"] == 2.0 * ROUTED_CONTRAST * abs(math.sin(
            accumulated_phase(0.5 * rates, config.plan.interaction_time)))
    if kind == DOUBLE_WELL:
        assert est["parity_modulation"] == ROUTED_CONTRAST * abs(math.sin(est["phase_at_t_rad"]))
    if kind == THREE_ION_SPIN:
        for key in ("snr", "parity_up", "parity_down"):
            assert est[key] == before.estimation[key], key


def test_expected_parity_is_effective_contrast(monkeypatch):
    probe = bell_probe()
    zeeman = ZeemanConfig(g_factor=2.002)
    plan = ExperimentPlan(shots=10, interaction_time=0.01, bias_phase=0.7)
    fields = (0.0, 1e-12)
    route_contrast(monkeypatch)
    phase = accumulated_phase(phase_rate(probe, zeeman, fields), plan.interaction_time)
    assert expected_parity(plan, probe, zeeman, fields, READOUT_NOISE) == (
        ROUTED_CONTRAST * math.cos(phase + plan.bias_phase))


@pytest.mark.parametrize("gradient_rms, shots", [
    (0.0, 300),      # noise-free: counted against thresholds
    (5e-4, 300),     # mapped: every shot at its own phase
    (2e-7, 5000),    # screened: only the shots near a threshold are mapped
])
def test_shots_keep_their_own_contrast(monkeypatch, gradient_rms, shots):
    # each shot draws its own gradient phase, so the ensemble contrast must
    # not reach the shots: the tally is bit-identical under any effective_contrast
    args = (ExperimentPlan(shots=shots, interaction_time=0.01, bias_phase=0.7, rng_seed=21),
            bell_probe(), ZeemanConfig(g_factor=2.002), (0.0, 1e-12),
            NoiseModel(gradient_rms=gradient_rms, contrast=0.85))
    before = simulate_shots(*args)
    route_contrast(monkeypatch)
    after = simulate_shots(*args)
    assert after.parity_sum == before.parity_sum
    assert after.pattern_counts.tolist() == before.pattern_counts.tolist()


# ---------------------------------------------------------------------------
# analytic values against the Monte Carlo without gradient noise: each printed
# value lies within K_SIGMA standard errors of the shots, at fixed seeds

K_SIGMA = 4.0
MC_SHOTS = 10 ** 6
QUIET = NoiseModel(contrast=0.85)   # gradient_rms = 0
QUIET_CONTRAST = 0.93 * 0.85


def quiet_config(kind, paper_values=False, **extra):
    config = base_config(kind, paper_values=paper_values, seed=23, preparation_fidelity=0.93,
                         **extra)
    return dataclasses.replace(config, noise=QUIET)


def standard_error(parity, shots=MC_SHOTS):
    """Standard error of a parity estimate from shots at mean parity."""
    return math.sqrt((1.0 - parity * parity) / shots)


def mc_parity(probe, fields, t, bias, seed=29, zeeman=ZeemanConfig(g_factor=2.002)):
    plan = ExperimentPlan(shots=MC_SHOTS, interaction_time=t, bias_phase=bias, rng_seed=seed)
    return simulate_shots(plan, probe, zeeman, fields, QUIET).parity_sum / MC_SHOTS


def pair_probe(z1, z2):
    return prepare_probe(BELL, (Vec3(0.0, 0.0, z1), Vec3(0.0, 0.0, z2)), 0.93,
                         branch_weights=PAIR_WEIGHTS)


@pytest.mark.parametrize("paper_values, moment_after, t", [
    (False, 7.1e-24, 1.5), (True, MU_E / 2, 5.0), (False, MU_E / 3, 3.0)])
def test_molecular_swing_is_the_monte_carlo_arm_difference(paper_values, moment_after, t):
    config = quiet_config(MOLECULAR_STATE_CHANGE, paper_values, t=t, moment_before=MU_E,
                          moment_after=moment_after)
    report = run_molecular_state_change(config)
    est, geometry = report.estimation, report.geometry
    probe = pair_probe(geometry["z_far_m"], geometry["z_near_m"])
    arms = ((0.0, est["delta_b_before_t"]), (0.0, est["delta_b_after_t"]))
    rates = [phase_rate(probe, config.zeeman, fields) for fields in arms]
    assert rates == [est["phase_rate_before_rad_per_s"], est["phase_rate_after_rad_per_s"]]
    # the symmetric bias: the two arms sit at +-phi about the zero crossing
    plan = ExperimentPlan(shots=MC_SHOTS, interaction_time=t, rng_seed=31,
                          bias_phase=math.pi / 2 - 0.5 * (rates[0] + rates[1]) * t)
    result = spin_discrimination_snr(plan, probe, config.zeeman, *arms, config.noise)
    swing = est["parity_swing"]
    difference = abs(result.up.parity_estimate - result.down.parity_estimate)
    assert abs(difference - swing) <= K_SIGMA * math.sqrt(2.0) * standard_error(swing / 2)


# The mean SNR of SNR_SEEDS Monte Carlo discriminations, each with its own
# seed, lies within K_SIGMA standard errors of analytic_snr. Each run's SNR is
# |Z + mu| with Z near a unit Gaussian and mu the analytic SNR, whose mean
# exceeds mu by 2 phi(mu) - 2 mu Phi(-mu): below 0.01 for every mu >= 2.4
# checked here, a seventh of a standard error.
SNR_SEEDS = range(200)
SNR_TARGET = 3.0


def assert_mean_snr_is_analytic(probe, zeeman, arms, t, shots, swing):
    """Run both arms at the symmetric bias over SNR_SEEDS; returns the analytic SNR."""
    rates = [phase_rate(probe, zeeman, fields) for fields in arms]
    bias = math.pi / 2 - 0.5 * (rates[0] + rates[1]) * t
    snrs = np.array([spin_discrimination_snr(
        ExperimentPlan(shots=shots, interaction_time=t, bias_phase=bias, rng_seed=seed),
        probe, zeeman, *arms, QUIET).snr for seed in SNR_SEEDS])
    want = analytic_snr(shots, swing)
    z = (snrs.mean() - want) / (snrs.std(ddof=1) / math.sqrt(len(snrs)))
    assert abs(z) <= K_SIGMA, (snrs.mean(), want, z)
    return want


@pytest.mark.parametrize("paper_values, moment_after, t", [
    (False, 7.1e-24, 1.5), (True, MU_E / 2, 5.0), (False, MU_E / 3, 3.0)])
def test_molecular_shots_required_reach_the_target_snr(paper_values, moment_after, t):
    # the printed shots_required, run per arm, give the analytic SNR on average
    config = quiet_config(MOLECULAR_STATE_CHANGE, paper_values, t=t, moment_before=MU_E,
                          moment_after=moment_after, target_snr=SNR_TARGET)
    report = run_molecular_state_change(config)
    est, geometry = report.estimation, report.geometry
    probe = pair_probe(geometry["z_far_m"], geometry["z_near_m"])
    arms = ((0.0, est["delta_b_before_t"]), (0.0, est["delta_b_after_t"]))
    shots = int(est["shots_required"])
    assert shots == est["shots_required"]
    snr = assert_mean_snr_is_analytic(probe, config.zeeman, arms, t, shots, est["parity_swing"])
    assert snr >= SNR_TARGET


@pytest.mark.parametrize("paper_values, t, shots", [(False, 0.02, 1000), (True, 0.02, 1000)])
def test_double_well_min_detectable_is_the_monte_carlo_threshold(paper_values, t, shots):
    # k* = min_detectable_delta_n against a balanced arm: the shots give the
    # analytic SNR of k* atoms, which meets the target, and of k* - 1, which does not
    config = quiet_config(DOUBLE_WELL, paper_values, t=t, shots=shots, well_separation=4.4e-6,
                          probe_spacing=3.5e-6, delta_n=1, target_snr=SNR_TARGET)
    est = run_double_well(config).estimation
    k_star = est["min_detectable_delta_n"]
    assert 2 <= k_star < math.inf
    half = config.probe_spacing / 2.0
    probe = pair_probe(-half, half)
    snrs = []
    for k in (int(k_star) - 1, int(k_star)):
        swing = scenarios._parity_swing(QUIET_CONTRAST,
                                        ((0.5 * k) * est["phase_rate_rad_per_s"]) * t)
        arms = ((0.0, 0.0), (0.0, run_double_well(dataclasses.replace(config, delta_n=k)).delta_b))
        snrs.append(assert_mean_snr_is_analytic(probe, config.zeeman, arms, t, shots,
                                                float(swing)))
    assert snrs[0] < SNR_TARGET <= snrs[1]


@pytest.mark.parametrize("paper_values, delta_n, t", [
    (True, 1, 2.5), (False, 2, 2.5), (False, 5, 0.8)])
def test_double_well_modulation_is_the_monte_carlo_parity(paper_values, delta_n, t):
    config = quiet_config(DOUBLE_WELL, paper_values, t=t, well_separation=4.4e-6,
                          probe_spacing=3.5e-6, delta_n=delta_n)
    report = run_double_well(config)
    est = report.estimation
    half = config.probe_spacing / 2.0
    probe, fields = pair_probe(-half, half), (0.0, report.delta_b)
    assert phase_rate(probe, config.zeeman, fields) == est["phase_rate_rad_per_s"]
    # at the bias pi/2 the parity is -K sin(phase), the modulation K |sin(phase)|
    parity = mc_parity(probe, fields, t, math.pi / 2)
    modulation = est["parity_modulation"]
    assert abs(abs(parity) - modulation) <= K_SIGMA * standard_error(modulation)


QUIET_CONFIGS = [
    lambda: quiet_config(THREE_ION_SPIN),
    lambda: quiet_config(THREE_ION_SPIN, paper_values=True, t=2.0),
    lambda: quiet_config(MOLECULAR_STATE_CHANGE, moment_before=MU_E, moment_after=MU_E / 2),
    lambda: quiet_config(DOUBLE_WELL, t=2.5, well_separation=4.4e-6, probe_spacing=3.5e-6,
                         delta_n=3),
    lambda: quiet_config(GHZ_CHAIN, t=3.0),
]


@pytest.mark.parametrize("make", QUIET_CONFIGS)
def test_last_trajectory_parity_is_the_monte_carlo_parity(make):
    # the shots run the scenario's own probe and field table at bias 0, so the
    # phase column is checked, not only the cosine of it
    config = make()
    report = run_scenario(config)
    rows = report.field_table
    positions = tuple(Vec3(0.0, 0.0, r.z_m) for r in rows)
    probe = prepare_probe(BELL, positions, 0.93, branch_weights=PAIR_WEIGHTS) \
        if len(rows) == 2 else prepare_probe(GHZ, positions, 0.93)
    label, series = report.trajectories[0]
    t, _, parity = series[-1].tolist()
    assert series[0, 2] == QUIET_CONTRAST
    got = mc_parity(probe, tuple(r.bz_t for r in rows), t, 0.0, zeeman=config.zeeman)
    assert abs(got - parity) <= K_SIGMA * standard_error(parity), label


@pytest.mark.parametrize("paper_values, t", [(False, 5.0), (True, 5.0), (False, 2.0)])
def test_three_ion_arms_are_the_analytic_fringe(monkeypatch, paper_values, t):
    calls = []

    def recorded(*args):
        calls.append(args)
        return spin_discrimination_snr(*args)
    monkeypatch.setattr(scenarios, "spin_discrimination_snr", recorded)
    est = run_three_ion_spin(quiet_config(THREE_ION_SPIN, paper_values, t=t,
                                          shots=MC_SHOTS)).estimation
    [(plan, probe, zeeman, fields_up, fields_down, noise)] = calls
    for key, fields in (("parity_up", fields_up), ("parity_down", fields_down)):
        want = expected_parity(plan, probe, zeeman, fields, noise)
        assert abs(est[key] - want) <= K_SIGMA * standard_error(want), key
