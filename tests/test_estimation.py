import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from iongradim import estimation, rng
from iongradim.constants import Vec3, constants
from iongradim.errors import ConfigurationError, InfeasibleError
from iongradim.estimation import (_BLOCK, _GAUSSIAN_MAX, _MAX_SHOTS, _TWO_BITS,
                                  ExperimentPlan, NoiseModel, _float_from_bits, _least,
                                  _rank_counts, _slots, _slots_in_place, _thresholds,
                                  analytic_snr, dephasing_contrast, expected_parity,
                                  parity_estimate, required_shots, simulate_shots,
                                  spin_discrimination_snr, swing_threshold)
from iongradim.protocol import (BELL, GHZ, ZeemanConfig, outcome_parities,
                                outcome_probabilities, phase_rate, prepare_probe)

C = constants()
ZEE = ZeemanConfig(g_factor=2.002)
COEFF = ZEE.g_factor * C.bohr_magneton / C.reduced_planck
SPACING = 1.03e-6


def pair_probe(contrast=1.0):
    return prepare_probe(BELL, (Vec3(0, 0, 0.0), Vec3(0, 0, SPACING)), contrast)


def plan(shots=100, t=0.0, bias=math.pi / 2, seed=0):
    return ExperimentPlan(shots=shots, interaction_time=t, bias_phase=bias, rng_seed=seed)


def fields_for_phase(phi, t):
    """Fields giving accumulated phase phi after time t (first-ion weight +1)."""
    return (phi / (COEFF * t), 0.0)


# ---------------------------------------------------------------------------
# simulate_shots basics

def test_deterministic_given_seed():
    p = pair_probe()
    noise = NoiseModel(gradient_rms=1e-7)
    a = simulate_shots(plan(shots=500, t=5.0, seed=99), p, ZEE, (0.0, 6.8e-13), noise)
    b = simulate_shots(plan(shots=500, t=5.0, seed=99), p, ZEE, (0.0, 6.8e-13), noise)
    assert np.array_equal(a.parities, b.parities)
    assert np.array_equal(a.outcome_indices, b.outcome_indices)
    assert np.array_equal(a.phases, b.phases)
    c = simulate_shots(plan(shots=500, t=5.0, seed=100), p, ZEE, (0.0, 6.8e-13), noise)
    assert not np.array_equal(a.parities, c.parities)


def test_all_even_at_zero_total_phase():
    p = pair_probe(contrast=1.0)
    out = simulate_shots(plan(shots=200, t=0.0, bias=0.0), p, ZEE, (0.0, 0.0), NoiseModel())
    assert np.all(out.parities == 1)
    # Bell even patterns are up-up (0) and down-down (3), roughly equally likely
    values = set(np.unique(out.outcome_indices))
    assert values <= {0, 3}
    assert len(values) == 2


@pytest.mark.parametrize("kind, n_ions", [(BELL, 2), (GHZ, 4)])
@pytest.mark.parametrize("bias, t, gradient_rms", [
    pytest.param(0.0, 0.0, 0.0, id="p_even=1"),
    pytest.param(math.pi, 0.0, 0.0, id="p_even=0"),
    pytest.param(0.9, 0.01, 5e-4, id="mixed-with-gradient-noise"),
])
def test_outcome_index_has_the_shot_parity(kind, n_ions, bias, t, gradient_rms):
    positions = tuple(Vec3(0, 0, k * SPACING) for k in range(n_ions))
    probe = prepare_probe(kind, positions, 1.0)
    out = simulate_shots(plan(shots=4000, t=t, bias=bias, seed=3), probe, ZEE,
                         (0.0,) * n_ions, NoiseModel(gradient_rms=gradient_rms))
    pattern_parity = outcome_parities(n_ions)
    assert np.array_equal(pattern_parity[out.outcome_indices], out.parities)
    if bias == 0.0:
        assert np.all(out.parities == 1)
    if bias == math.pi:
        assert np.all(out.parities == -1)
    # every pattern of each parity class that occurs is reachable
    for sign in np.unique(out.parities):
        assert set(out.outcome_indices[out.parities == sign]) == set(
            np.flatnonzero(pattern_parity == sign))


def test_common_mode_noise_changes_nothing_exactly():
    p = pair_probe()
    fields = (0.0, 6.8e-13)
    quiet = NoiseModel(common_mode_rms=0.0, gradient_rms=0.0)
    loud = NoiseModel(common_mode_rms=1e-6, gradient_rms=0.0)
    a = simulate_shots(plan(shots=1000, t=5.0, seed=7), p, ZEE, fields, quiet)
    b = simulate_shots(plan(shots=1000, t=5.0, seed=7), p, ZEE, fields, loud)
    assert np.array_equal(a.parities, b.parities)
    assert np.array_equal(a.outcome_indices, b.outcome_indices)
    assert np.array_equal(a.phases, b.phases)


def test_common_mode_noise_accumulates_zero_phase():
    p = pair_probe()
    loud = NoiseModel(common_mode_rms=1e-6)
    out = simulate_shots(plan(shots=1000, t=5.0, seed=3), p, ZEE, (0.0, 0.0), loud)
    assert np.all(out.phases == 0.0)


def test_gradient_noise_dephases_to_predicted_contrast():
    # mean parity over many shots equals exp(-sigma^2/2) within sampling error
    p = pair_probe()
    t, g_rms = 5.0, 9e-7
    noise = NoiseModel(gradient_rms=g_rms)
    out = simulate_shots(plan(shots=40000, t=t, bias=0.0, seed=11), p, ZEE, (0.0, 0.0), noise)
    predicted = dephasing_contrast(g_rms, p, ZEE, t)
    measured = float(np.mean(out.parities))
    assert 0.5 < predicted < 0.95   # regime check: real dephasing, not saturation
    assert measured == pytest.approx(predicted, abs=4.0 / math.sqrt(40000))


def test_shots_depend_only_on_seed_and_index():
    # counter-based streams: a prefix of a longer run is bit-identical, so
    # shots can be evaluated in any order or in parallel without changing
    # the result
    p = pair_probe()
    noise = NoiseModel(gradient_rms=2e-7, common_mode_rms=1e-9)
    fields = (0.0, 6.8e-13)
    long = simulate_shots(plan(shots=400, t=5.0, seed=13), p, ZEE, fields, noise)
    short = simulate_shots(plan(shots=150, t=5.0, seed=13), p, ZEE, fields, noise)
    assert np.array_equal(long.parities[:150], short.parities)
    assert np.array_equal(long.phases[:150], short.phases)
    assert np.array_equal(long.outcome_indices[:150], short.outcome_indices)


def _unblocked_reference(plan, probe, zeeman, fields, noise):
    """All shots in one pass; counter slots 2 and 3 feed the gradient, slot 4 the outcome."""
    slot = np.arange(plan.shots, dtype=np.uint64) * np.uint64(8)
    gradient = rng.gaussian(plan.rng_seed, np.stack([slot + np.uint64(2), slot + np.uint64(3)]))
    draw = rng.uniform(plan.rng_seed, slot + np.uint64(4))
    gradient = gradient * noise.gradient_rms
    shot_rate = (phase_rate(probe, zeeman, fields)
                 + zeeman.gyromagnetic_ratio * gradient * probe.gradient_coupling)
    phases = shot_rate * plan.interaction_time
    p_even = 0.5 * (1.0 + probe.contrast * noise.contrast * np.cos(phases + plan.bias_phase))
    parities = np.where(draw < p_even, 1, -1).astype(np.int64)
    pattern_parity = outcome_parities(probe.n_ions)
    even_patterns = np.flatnonzero(pattern_parity > 0)
    odd_patterns = np.flatnonzero(pattern_parity < 0)
    even = parities > 0
    lower = np.where(even, 0.0, p_even)
    width = np.where(even, p_even, 1.0 - p_even)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(width > 0, (draw - lower) / width, 0.0)
    k = np.minimum((frac * len(even_patterns)).astype(np.int64), len(even_patterns) - 1)
    indices = np.where(even, even_patterns[k], odd_patterns[k])
    return parities, indices, phases


@pytest.mark.parametrize("kind, n_ions", [(BELL, 2), (GHZ, 4)])
@pytest.mark.parametrize("gradient_rms", [0.0, 1e-9, 2e-6, 5e-4])
def test_blocked_run_equals_unblocked_reference(kind, n_ions, gradient_rms):
    # two full blocks and a partial one, against one pass over all shots
    positions = tuple(Vec3(0, 0, k * SPACING) for k in range(n_ions))
    probe = prepare_probe(kind, positions, 0.97)
    fields = tuple(1e-12 * (k + 1) for k in range(n_ions))
    shots_plan = plan(shots=2 * _BLOCK + 3, t=0.01, bias=0.9, seed=2024)
    noise = NoiseModel(gradient_rms=gradient_rms, contrast=0.95)
    out = simulate_shots(shots_plan, probe, ZEE, fields, noise)
    parities, indices, phases = _unblocked_reference(shots_plan, probe, ZEE, fields, noise)
    # the tally, then the per-shot arrays regenerated from it on first read
    assert out.shots == shots_plan.shots
    assert out.parity_sum == int(parities.sum())
    assert np.array_equal(out.pattern_counts, np.bincount(indices, minlength=2 ** n_ions))
    first = (out.parities, out.outcome_indices, out.phases)
    for got, want in zip(first, (parities, indices, phases)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for again, got in zip((out.parities, out.outcome_indices, out.phases), first):
        assert again is got   # a second read returns the same arrays
    assert np.all(out.pattern_counts > 0)   # every pattern of both classes is drawn


def test_noise_free_run_draws_no_gaussian(monkeypatch):
    def no_gaussian(*args):
        raise AssertionError("rng.gaussian called with gradient_rms = 0")

    monkeypatch.setattr(rng, "gaussian", no_gaussian)
    out = simulate_shots(plan(shots=_BLOCK + 5, t=5.0, seed=4), pair_probe(), ZEE,
                         (0.0, 6.8e-13), NoiseModel(common_mode_rms=1e-6))
    assert len(out.parities) == _BLOCK + 5
    with pytest.raises(AssertionError, match="gradient_rms = 0"):   # the patch is live
        simulate_shots(plan(shots=10, t=5.0), pair_probe(), ZEE, (0.0, 6.8e-13),
                       NoiseModel(gradient_rms=1e-7))


def _peak_bytes(call):
    """tracemalloc peak of call() above the level at entry; numpy reports its buffers."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


def _memory_args(shots, gradient_rms):
    return (plan(shots=shots, t=0.01, seed=6), pair_probe(), ZEE, (0.0, 6.8e-13),
            NoiseModel(gradient_rms=gradient_rms))


@pytest.mark.parametrize("shots", [400_000, 4_000_000])
@pytest.mark.parametrize("gradient_rms", [0.0, 5e-4])
def test_simulate_shots_memory_is_one_block(gradient_rms, shots):
    # a run keeps a tally: per-shot temporaries live for one block, whatever the count
    peak, out = _peak_bytes(lambda: simulate_shots(*_memory_args(shots, gradient_rms)))
    assert peak <= 8 * 2 ** 20, peak
    assert int(out.pattern_counts.sum()) == out.shots == shots


@pytest.mark.parametrize("gradient_rms", [0.0, 5e-4])
def test_simulate_shots_memory_is_the_outputs_plus_one_block(gradient_rms):
    # reading the per-shot arrays costs three 8-byte outputs per shot, plus one block
    shots = 400_000
    peak, phases = _peak_bytes(lambda: simulate_shots(*_memory_args(shots, gradient_rms)).phases)
    assert len(phases) == shots
    assert peak <= 24 * shots + 8 * 2 ** 20, peak


def test_unallocatable_outputs_are_a_config_error(monkeypatch):
    out = simulate_shots(plan(shots=1000), pair_probe(), ZEE, (0.0, 0.0), NoiseModel())

    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "empty", refuse)
    with pytest.raises(ConfigurationError, match="1000 shots need 24000 bytes"):
        out.parities


def test_shot_count_bound_is_the_counter_range():
    # 8 counter slots per shot in a 64-bit counter: 2^61 shots fit, one more wraps
    assert ExperimentPlan(shots=2 ** 61, interaction_time=1.0).shots == 2 ** 61
    with pytest.raises(ConfigurationError, match=str(2 ** 61 + 1)):
        ExperimentPlan(shots=2 ** 61 + 1, interaction_time=1.0)


def test_noise_free_run_allocates_no_mapping_buffers():
    # the outcome integers and their counters take 512 KiB per block; the
    # mapping buffers would add 608 KiB more, and no noise-free shot is mapped
    peak, out = _peak_bytes(lambda: simulate_shots(*_memory_args(100_000, 0.0)))
    assert peak <= 2 ** 20, peak
    assert int(out.pattern_counts.sum()) == 100_000


@pytest.mark.parametrize("gradient_rms", [0.0, 5e-4])
def test_small_run_memory_is_small(gradient_rms):
    # a 10-shot run sizes its buffers to its shots, not to a block
    peak, out = _peak_bytes(lambda: simulate_shots(*_memory_args(10, gradient_rms)))
    assert peak <= 64 * 2 ** 10, peak
    assert int(out.pattern_counts.sum()) == 10


# ---------------------------------------------------------------------------
# the two tally routes against the per-shot mapping

TOP = 2 ** 53   # outcome integers b run over [0, 2^53); the draw is (b + 1) 2^-53
P_EVEN_GRID = ([0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53, 1.0]
               + np.random.default_rng(71).random(20).tolist())


def _mapped_ranks(bits, p_even, n_class):
    """Rank of each outcome integer under the per-shot mapping: its slot."""
    return _slots(rng.bits_to_uniform(bits), np.float64(p_even), n_class)


@pytest.mark.parametrize("n_ions", [2, 4])
@pytest.mark.parametrize("p_even", P_EVEN_GRID)
def test_threshold_counts_equal_the_per_shot_mapping(p_even, n_ions):
    n_class = 2 ** (n_ions - 1)
    thresholds = _thresholds(np.float64(p_even), n_class)
    assert thresholds == sorted(thresholds) and 0 <= thresholds[0] and thresholds[-1] <= TOP
    near = [t + d for t in thresholds for d in (-1, 0, 1) if 0 <= t + d < TOP]
    seeded = np.random.default_rng(72).integers(0, TOP, 10_000, dtype=np.uint64)
    bits = np.concatenate((np.array([0, TOP - 1, *near], dtype=np.uint64), seeded))
    as_array = np.array(thresholds, dtype=np.uint64)
    for sample in (bits, bits[:2 + len(near)], bits[:0]):
        assert np.array_equal(_rank_counts(sample, as_array), np.bincount(
            _mapped_ranks(sample, p_even, n_class), minlength=2 * n_class))
    # and each threshold is the first integer of its rank
    for r, t in enumerate(thresholds, 1):
        if t > 0:
            assert _mapped_ranks(np.array([t - 1], dtype=np.uint64), p_even, n_class)[0] < r
        if t < TOP:
            assert _mapped_ranks(np.array([t], dtype=np.uint64), p_even, n_class)[0] >= r


@pytest.mark.parametrize("miss", [lambda guess: 0, lambda guess: TOP,
                                  lambda guess: guess + 12_345, lambda guess: guess - 3,
                                  lambda guess: -5, lambda guess: TOP + 5])
def test_threshold_search_is_exact_from_a_missed_guess(monkeypatch, miss):
    # a start that does not bracket the threshold, or lies outside [0, 2^53],
    # gallops out and bisects to the same one
    cases = [(np.float64(p), n_class) for p in P_EVEN_GRID for n_class in (2, 8)]
    want = [_thresholds(p, n_class) for p, n_class in cases]
    guess = estimation._guess
    monkeypatch.setattr(estimation, "_guess", lambda r, p, n: miss(guess(r, p, n)))
    assert [_thresholds(p, n_class) for p, n_class in cases] == want


def test_select_free_mapping_equals_the_per_shot_mapping():
    # every p_even edge against draws at, just below and just above it, and at 1.0
    gen = np.random.default_rng(73)
    p_values = np.array(P_EVEN_GRID + [2.0 ** -1074, 0.25])
    p = np.repeat(p_values, 6)
    draw = np.clip(np.stack([np.nextafter(p_values, 0.0), p_values, np.nextafter(p_values, 2.0),
                             np.full_like(p_values, 2.0 ** -53), np.ones_like(p_values),
                             gen.random(len(p_values))], axis=1).ravel(), 2.0 ** -53, 1.0)
    draw = np.concatenate((draw, gen.random(10_000)))
    p = np.concatenate((p, gen.random(10_000)))
    for n_class in (2, 8):
        want = _slots(draw, p, n_class)
        work = (np.empty(len(p)), np.empty(len(p), dtype=bool), np.empty(len(p), dtype=bool))
        got = _slots_in_place(draw.copy(), p.copy(), n_class, *work)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kind, n_ions", [(BELL, 2), (GHZ, 4), (GHZ, 6)])
@pytest.mark.parametrize("bias, t, gradient_rms", [
    pytest.param(0.0, 0.0, 0.0, id="p_even=1"),
    pytest.param(math.pi, 0.0, 0.0, id="p_even=0"),
    pytest.param(0.9, 0.01, 0.0, id="noise-free"),
    pytest.param(0.9, 0.01, 1e-9, id="small-gradient-noise"),
    pytest.param(0.9, 0.01, 2e-6, id="screened-gradient-noise"),
    pytest.param(0.9, 0.01, 5e-4, id="gradient-noise"),
])
def test_tally_equals_the_regenerated_shots(kind, n_ions, bias, t, gradient_rms):
    # a full block and a short last one, tallied, against the shots read back
    pattern = (0.5, -0.5) * (n_ions // 2)   # explicit for 6 ions, which have no default
    probe = prepare_probe(kind, tuple(Vec3(0, 0, k * SPACING) for k in range(n_ions)), 1.0,
                          (pattern, tuple(-w for w in pattern)) if n_ions == 6 else None)
    out = simulate_shots(plan(shots=_BLOCK + 17, t=t, bias=bias, seed=9), probe, ZEE,
                         tuple(1e-12 * k for k in range(n_ions)),
                         NoiseModel(gradient_rms=gradient_rms))
    assert out.parity_sum == int(out.parities.sum())
    assert np.array_equal(out.pattern_counts, np.bincount(out.outcome_indices,
                                                          minlength=2 ** n_ions))


# ---------------------------------------------------------------------------
# the screened tally: flagged shots only, against the per-shot mapping

def _gradient_probe(n_ions):
    """Bell, or a GHZ state whose branches (+ .. + - .. -) couple to a uniform gradient."""
    positions = tuple(Vec3(0, 0, k * SPACING) for k in range(n_ions))
    if n_ions == 2:
        return prepare_probe(BELL, positions, 1.0)
    branch = (0.5,) * (n_ions // 2) + (-0.5,) * (n_ions // 2)
    return prepare_probe(GHZ, positions, 1.0, (branch, tuple(-w for w in branch)))


# phase at the fringe, phase + bias: p0 = 1, 0, just below 1, just above 0, and inside
FRINGE_PHASES = [0.0, math.pi, 1e-7, math.pi - 1e-7, 0.9]
SCREEN_TIME = 0.01


def _screen_case(n_ions, spread, fringe, base_phase, shots):
    """A run with phase spread s = spread, noise-free phase base_phase and contrast 1."""
    probe = _gradient_probe(n_ions)
    unit = (1.0,) + (0.0,) * (n_ions - 1)
    fields = tuple(b * base_phase / (phase_rate(probe, ZEE, unit) * SCREEN_TIME) for b in unit)
    rms = spread / (ZEE.gyromagnetic_ratio * abs(probe.gradient_coupling) * SCREEN_TIME)
    shot_plan = plan(shots=shots, t=SCREEN_TIME, seed=31,
                     bias=fringe - phase_rate(probe, ZEE, fields) * SCREEN_TIME)
    return shot_plan, probe, ZEE, fields, NoiseModel(gradient_rms=rms)


SCREEN_GRID = [(n_ions, spread, fringe, base_phase, shots)
               for n_ions in (2, 4, 6) for spread in (1e-6, 1e-3, 1e-2, 0.05, 0.1, 0.3)
               for fringe in FRINGE_PHASES for base_phase in (0.0, 1e6)
               for shots in (1, _BLOCK, _BLOCK + 17)]


# a run setup cost that makes every run screen, or every noisy run map
SCREEN, MAP = -math.inf, math.inf


def _tally_and_reference(case):
    """A run's slot counts, and the slot counts of its regenerated per-shot outcomes."""
    out = simulate_shots(*_screen_case(*case))
    regenerated = np.bincount(out.outcome_indices, minlength=len(out.pattern_counts))
    return out, out.pattern_counts[out._run.patterns], regenerated[out._run.patterns]


@given(n_ions=st.sampled_from((2, 4)), spread=st.floats(0.0, 0.5),
       common_mode_rms=st.floats(0.0, 1e300, exclude_min=True),
       seed=st.integers(0, 2 ** 64 - 1), shots=st.integers(1, 2 * _BLOCK + 17))
@example(n_ions=2, spread=0.05, common_mode_rms=1e-9, seed=1, shots=2 * _BLOCK + 17)   # screens
@example(n_ions=2, spread=0.3, common_mode_rms=1e-9, seed=1, shots=2 * _BLOCK + 17)    # maps
def test_common_mode_noise_leaves_the_tally_bit_identical(n_ions, spread, common_mode_rms,
                                                          seed, shots):
    # the branch weights sum to zero, so a uniform field noise changes no
    # outcome, on either side of the spread where runs stop screening
    shot_plan, probe, zeeman, fields, noise = _screen_case(n_ions, spread, 0.9, 0.0, shots)
    shot_plan = replace(shot_plan, rng_seed=seed)
    quiet = simulate_shots(shot_plan, probe, zeeman, fields, noise)
    loud = simulate_shots(shot_plan, probe, zeeman, fields,
                          replace(noise, common_mode_rms=common_mode_rms))
    assert loud.parity_sum == quiet.parity_sum
    assert np.array_equal(loud.pattern_counts, quiet.pattern_counts)


@pytest.mark.parametrize("route", [SCREEN, MAP], ids=["screen", "map"])
@pytest.mark.parametrize("case", SCREEN_GRID, ids=str)
def test_both_routes_equal_the_regenerated_shots(monkeypatch, case, route):
    monkeypatch.setattr(estimation, "_SCREEN_SETUP", route)
    out, got, want = _tally_and_reference(case)
    assert np.array_equal(got, want)
    odd = int(want[len(want) // 2:].sum())   # the odd slots are the top half
    assert out.parity_sum == out.shots - 2 * odd == int(out.parities.sum())


@pytest.mark.parametrize("n_ions", [2, 4])
def test_forced_screen_at_a_huge_spread_equals_the_regenerated_shots(monkeypatch, n_ions):
    # own halves far above 2^64 (a spread of 1e4 rad) are cut to 2^53 before
    # they become integers; every shot is then flagged and mapped
    monkeypatch.setattr(estimation, "_SCREEN_SETUP", SCREEN)
    _, got, want = _tally_and_reference((n_ions, 1e4, 0.9, 0.0, 1000))
    assert np.array_equal(got, want)


def _some_grid_case_misses():
    """Whether the tally of some grid case differs from its regenerated shots."""
    return any(not np.array_equal(*_tally_and_reference(case)[1:]) for case in SCREEN_GRID)


def test_screen_grid_moves_flagged_shots(monkeypatch):
    # with a zero stage-1 half (the one int half) no shot is flagged, and
    # some grid case then misses the shots that its own phase moves
    near = estimation._near

    def unflagged(bits, thresholds, half, *buffers):
        return near(bits, thresholds, half if np.ndim(half) else 0, *buffers)

    monkeypatch.setattr(estimation, "_SCREEN_SETUP", SCREEN)
    monkeypatch.setattr(estimation, "_near", unflagged)
    assert _some_grid_case_misses()


SHRINKS = {"zero": lambda half: half.fill(0),
           "half": lambda half: np.floor_divide(half, 2, out=half)}


@pytest.mark.parametrize("shrink", SHRINKS.values(), ids=SHRINKS.keys())
def test_screen_grid_needs_each_shots_own_window(monkeypatch, shrink):
    # stage 1 flags as before, but each flagged shot's integer half is
    # shrunk: some grid case then misses shots that its own phase moves
    own_halves = estimation._Run._own_halves

    def shrunk(run, counter, work, out):
        half = own_halves(run, counter, work, out)
        shrink(half)
        return half

    monkeypatch.setattr(estimation, "_SCREEN_SETUP", SCREEN)
    monkeypatch.setattr(estimation._Run, "_own_halves", shrunk)
    assert _some_grid_case_misses()


# sorted, as _thresholds gives them: 0, 2^53 (no draw reaches the rank) and a repeat
NEAR_THRESHOLDS = [0, 1, 5, 2 ** 30, 2 ** 52 + 7, 2 ** 53 - 1, 2 ** 53, 2 ** 53]
NEAR_HALVES = [0, 1, 2, 3, 2 ** 20, 2 ** 52, 2 ** 53]


def _near_cases(halves, seed):
    """(b, half) pairs: b at t - half - 1, t - half, t + half - 1 and t + half of every
    threshold t, then seeded integers, most within 2^21 of a threshold, with seeded halves."""
    cases = [(b, h) for h in halves for t in NEAR_THRESHOLDS
             for b in (t - h - 1, t - h, t + h - 1, t + h) if 0 <= b < 2 ** 53]
    draws = np.random.default_rng(seed)
    for i in range(2000):
        b = (int(draws.integers(0, 2 ** 53)) if i % 10 == 0 else
             int(draws.choice(NEAR_THRESHOLDS)) + int(draws.integers(-2 ** 21, 2 ** 21)))
        cases.append((min(max(b, 0), 2 ** 53 - 1), int(draws.choice(halves))))
    return cases


def _near_flags(bits, half):
    """_near of the integers at one int half or one uint64 half per integer."""
    n = len(bits)
    bits = np.array(bits, dtype=np.uint64)
    kept = bits.copy()
    out = estimation._near(bits, np.array(NEAR_THRESHOLDS, dtype=np.uint64), half,
                           np.empty(n, dtype=np.uint64), np.empty(n, dtype=bool),
                           np.empty(n, dtype=bool))
    assert np.array_equal(bits, kept)
    return out.tolist()


def _near_reference(b, h):
    return any(t - h <= b < t + h for t in NEAR_THRESHOLDS)


@pytest.mark.parametrize("seed", [0, 1])
def test_near_flags_the_integers_within_half_of_a_threshold(seed):
    # against its definition in Python ints: b lies in [t - half, t + half)
    # of some threshold t; one int half, then one half per integer
    for h in NEAR_HALVES:
        bits = [b for b, _ in _near_cases([h], seed)]
        assert _near_flags(bits, h) == [_near_reference(b, h) for b in bits], h
    cases = _near_cases(NEAR_HALVES, seed)
    halves = np.array([h for _, h in cases], dtype=np.uint64)
    assert _near_flags([b for b, _ in cases], halves) == [_near_reference(b, h) for b, h in cases]


def test_gaussian_bound_covers_the_smallest_uniform():
    smallest = rng.bits_to_uniform(np.zeros(1, dtype=np.uint64))
    assert np.sqrt(-2.0 * np.log(smallest))[0] <= _GAUSSIAN_MAX


def test_gaussian_is_bounded_by_its_own_radius(monkeypatch):
    # 2^20 seeded shots, the last of which draws the smallest first uniform
    # 2^-53 and an angle uniform of 1, where cos(2 pi u2) rounds to 1
    shots = 2 ** 20
    slot = np.arange(shots, dtype=np.uint64) * np.uint64(8)
    last = slot[-1]
    uniform_bits = rng.uniform_bits

    def with_extremes(seed, counter, out=None):
        bits = uniform_bits(seed, counter, out)
        bits[counter == last + np.uint64(2)] = 0
        bits[counter == last + np.uint64(3)] = 2 ** 53 - 1
        return bits

    monkeypatch.setattr(rng, "uniform_bits", with_extremes)
    g = rng.gaussian(17, np.stack([slot + np.uint64(2), slot + np.uint64(3)]))
    radius = rng._radius(rng.uniform(17, slot + np.uint64(2)))
    angle = rng.uniform(17, slot + np.uint64(3))
    # the radius is the very float gaussian multiplies by the cosine, bit for bit
    assert np.array_equal(g, radius * np.cos(angle * (2.0 * np.pi)))
    assert np.all(np.abs(g) <= radius)
    assert g[-1] == radius[-1] == radius.max() <= _GAUSSIAN_MAX


def test_screened_run_draws_few_gaussians(monkeypatch):
    # a Bell run draws the Gaussian only for the shots whose own window holds
    # one of its 3 pattern boundaries. A shot of radius r has a window of
    # K/2 s r on each side of each boundary, so at the mean radius sqrt(pi/2)
    # at most a share 3 K s sqrt(pi/2) of the shots is drawn (K = 1 here; the
    # windows may overlap). Bound: that share plus 5 sigma of its count.
    drawn = []
    gaussian = rng.gaussian

    def counted(seed, counters, *args):
        drawn.append(np.size(counters) // 2)   # a row of counters per stream
        return gaussian(seed, counters, *args)

    monkeypatch.setattr(rng, "gaussian", counted)
    shots = 2 * _BLOCK + 5
    for spread in (1e-3, 0.05):
        expected = 3 * spread * math.sqrt(math.pi / 2) * shots
        drawn.clear()
        simulate_shots(*_screen_case(2, spread, 0.9, 0.0, shots))
        assert 0 < sum(drawn) <= expected + 5 * math.sqrt(expected), spread
    _, probe, _, fields, _ = _screen_case(2, 1e-3, 0.9, 0.0, 1)
    # a per-shot phase that overflows is still a config error, also where
    # the window is nan (an infinite rate times a zero time)
    for rms, t in ((1e300, 1.0), (1.0, 1e305), (1e300, 0.0)):
        with pytest.raises(ConfigurationError, match="per-shot phase overflows"):
            simulate_shots(plan(shots=10, t=t), probe, ZEE, fields, NoiseModel(gradient_rms=rms))


@pytest.mark.parametrize("gradient_rms", [0.0, 1e-3], ids=["noise-free", "per-shot"])
@pytest.mark.parametrize("sign", [1, -1])
def test_phase_plus_bias_past_the_float_range_is_a_config_error(gradient_rms, sign):
    # each phase is finite, but phase + bias is not: a config error that
    # names the bias phase, on both routes and in the analytic model, rather
    # than a nan probability
    t, bias = 1.0, sign * 1.7e308
    fields = fields_for_phase(sign * 1.5e308, t)
    noise = NoiseModel(gradient_rms=gradient_rms)
    for shots in (1000, 2 * _BLOCK + 5):
        with pytest.raises(ConfigurationError, match="bias phase"):
            simulate_shots(plan(shots, t, bias), pair_probe(), ZEE, fields, noise)
    with pytest.raises(ConfigurationError, match="bias phase"):
        expected_parity(plan(10, t, bias), pair_probe(), ZEE, fields, noise)
    # a smaller bias fits, and the run goes ahead
    simulate_shots(plan(1000, t, sign * 1.5e307), pair_probe(), ZEE, fields, noise)
    expected_parity(plan(10, t, sign * 1.5e307), pair_probe(), ZEE, fields, noise)


def test_field_count_mismatch():
    with pytest.raises(ConfigurationError):
        simulate_shots(plan(shots=10), pair_probe(), ZEE, (0.0,), NoiseModel())


def test_plan_and_noise_validation():
    with pytest.raises(ConfigurationError):
        ExperimentPlan(shots=0, interaction_time=1.0)
    with pytest.raises(ConfigurationError):
        ExperimentPlan(shots=10, interaction_time=-1.0)
    with pytest.raises(ConfigurationError):
        ExperimentPlan(shots=10, interaction_time=1.0, rng_seed=2 ** 64)
    with pytest.raises(ConfigurationError):
        NoiseModel(common_mode_rms=-1e-9)
    with pytest.raises(ConfigurationError):
        NoiseModel(contrast=1.5)


# ---------------------------------------------------------------------------
# the tally against the model (seeds and bounds fixed before the run)

# Bell, and a 4-ion GHZ whose branches (+ + - -) couple to a uniform gradient,
# so that gradient noise dephases both
GHZ_GRADIENT_WEIGHTS = ((0.5, 0.5, -0.5, -0.5), (-0.5, -0.5, 0.5, 0.5))
PROBES = {
    "bell": lambda: pair_probe(contrast=0.97),
    "ghz": lambda: prepare_probe(GHZ, tuple(Vec3(0, 0, k * SPACING) for k in range(4)), 0.97,
                                 branch_weights=GHZ_GRADIENT_WEIGHTS),
}


@pytest.mark.parametrize("kind", PROBES)
def test_pattern_counts_follow_outcome_probabilities(kind):
    # chi-square of 2e5 seeded shots; bound: the 1 - 1e-4 quantile for 2^N - 1 dof
    probe = PROBES[kind]()
    shots, bias = 200_000, 0.7
    out = simulate_shots(plan(shots=shots, bias=bias, seed=8), probe, ZEE,
                         (0.0,) * probe.n_ions, NoiseModel())
    expected = shots * outcome_probabilities(probe, bias_phase=bias)
    chi2 = float(np.sum((out.pattern_counts - expected) ** 2 / expected))
    bound = {2: 21.11, 4: 44.26}[probe.n_ions]   # chi-square quantiles, 3 and 15 dof
    assert chi2 <= bound, chi2


@pytest.mark.parametrize("bias", [0.0, 0.7, math.pi / 2])
@pytest.mark.parametrize("gradient_rms", [0.0, 2e-4, 5e-4, 1e-3])
@pytest.mark.parametrize("kind", PROBES)
def test_mean_parity_is_expected_parity_times_dephasing(kind, gradient_rms, bias):
    # |z| <= 4 for the mean of 2e5 seeded shots against the dephased fringe
    probe = PROBES[kind]()
    shots, t = 200_000, 0.01
    fields = tuple(1e-10 * k for k in range(probe.n_ions))
    shot_plan = plan(shots=shots, t=t, bias=bias, seed=5)
    noise = NoiseModel(gradient_rms=gradient_rms, contrast=0.95)
    out = simulate_shots(shot_plan, probe, ZEE, fields, noise)
    model = (expected_parity(shot_plan, probe, ZEE, fields, noise)
             * dephasing_contrast(gradient_rms, probe, ZEE, t))
    z = (out.parity_sum / shots - model) / math.sqrt((1.0 - model * model) / shots)
    assert abs(z) <= 4.0, z


# ---------------------------------------------------------------------------
# parity_estimate

def test_parity_estimate_examples():
    all_even = parity_estimate(50, 50)
    assert all_even.parity_estimate == 1.0
    assert all_even.std_error == pytest.approx(3.0 / 50)   # rule-of-three guard
    balanced = parity_estimate(0, 100)
    assert balanced.parity_estimate == 0.0
    assert balanced.std_error == pytest.approx(0.1)
    assert balanced.shots_used == 100


def test_parity_estimate_empty_rejected():
    with pytest.raises(ConfigurationError):
        parity_estimate(0, 0)


@pytest.fixture(scope="module")
def estimates_at_zero_parity():
    """10^4 seeded runs of 100 shots at true parity 0."""
    p = pair_probe()
    noise = NoiseModel()
    fields = (0.0, 0.0)
    values = np.empty((10000, 2))
    for k in range(10000):
        out = simulate_shots(plan(shots=100, seed=k), p, ZEE, fields, noise)
        est = parity_estimate(out.parity_sum, out.shots)
        values[k] = (est.parity_estimate, est.std_error)
    return values


def test_projection_noise_std_at_zero_parity(estimates_at_zero_parity):
    std = float(np.std(estimates_at_zero_parity[:, 0]))
    assert std == pytest.approx(0.1, rel=0.05)


def test_estimator_consistency(estimates_at_zero_parity):
    p_hat = estimates_at_zero_parity[:, 0]
    std_err = estimates_at_zero_parity[:, 1]
    covered = np.abs(p_hat - 0.0) < 5.0 * std_err
    assert covered.mean() >= 0.99


def test_shot_variance_matches_binomial_law(estimates_at_zero_parity):
    runs = len(estimates_at_zero_parity)
    variance = float(np.var(estimates_at_zero_parity[:, 0]))
    expected = 0.01                       # (1 - P^2)/N at P = 0, N = 100
    tolerance = 3.0 * expected * math.sqrt(2.0 / runs)
    assert abs(variance - expected) < tolerance


# ---------------------------------------------------------------------------
# spin discrimination

def symmetric_arms(phi):
    """Field configs placing the two hypotheses at parity +-sin(phi) (bias pi/2)."""
    t = 5.0
    return fields_for_phase(-phi, t), fields_for_phase(phi, t), t


def test_snr_scales_with_sqrt_shots():
    # asymptotic regime: estimator bias is O(1/N), so the x4 -> x2 law is clean
    up, down, t = symmetric_arms(math.asin(0.2))
    p = pair_probe()
    noise = NoiseModel()
    medians = []
    for shots in (400, 1600):
        snrs = [spin_discrimination_snr(plan(shots=shots, t=t, seed=s), p, ZEE,
                                        up, down, noise).snr
                for s in range(201)]
        medians.append(float(np.median(snrs)))
    assert medians[1] / medians[0] == pytest.approx(2.0, rel=0.1)


def test_monte_carlo_matches_analytic_at_large_n():
    phi = math.asin(0.3)
    up, down, t = symmetric_arms(phi)
    p = pair_probe()
    snrs = [spin_discrimination_snr(plan(shots=100, t=t, seed=s), p, ZEE,
                                    up, down, NoiseModel()).snr
            for s in range(201)]
    expected = analytic_snr(100, 2.0 * math.sin(phi))
    assert float(np.median(snrs)) == pytest.approx(expected, rel=0.15)


@pytest.mark.parametrize("gradient_rms", [0.0, 2e-8, 9e-7])
def test_monte_carlo_snr_is_analytic_within_k_sigma(gradient_rms):
    # 200 seeded runs of 1000 shots per arm: each run's SNR is the analytic
    # SNR of the dephased swing plus a near-unit Gaussian, so their mean lies
    # within 4 standard errors of it
    phi, runs, shots = math.asin(0.3), 200, 1000
    up, down, t = symmetric_arms(phi)
    p = pair_probe()
    snrs = np.array([spin_discrimination_snr(plan(shots=shots, t=t, seed=s), p, ZEE, up, down,
                                             NoiseModel(gradient_rms=gradient_rms)).snr
                     for s in range(runs)])
    swing = 2.0 * math.sin(phi) * dephasing_contrast(gradient_rms, p, ZEE, t)
    z = (snrs.mean() - analytic_snr(shots, swing)) / (snrs.std(ddof=1) / math.sqrt(runs))
    assert abs(z) <= 4.0, z


def test_identical_hypotheses_have_no_detectable_difference():
    p = pair_probe()
    fields = (0.0, 6.8e-13)
    diffs = []
    for shots in (100, 1600):
        runs = [spin_discrimination_snr(plan(shots=shots, t=5.0, seed=s), p, ZEE,
                                        fields, fields, NoiseModel())
                for s in range(101)]
        diffs.append(float(np.median([abs(r.down.parity_estimate
                                          - r.up.parity_estimate) for r in runs])))
    assert diffs[1] < diffs[0] < 0.3      # estimated difference shrinks toward 0
    assert analytic_snr(10 ** 6, 0.0) == 0.0


def test_arms_use_independent_substreams():
    p = pair_probe()
    result = spin_discrimination_snr(plan(shots=50, t=5.0, seed=5), p, ZEE,
                                     (0.0, 0.0), (0.0, 0.0), NoiseModel())
    assert result.up.parity_estimate != result.down.parity_estimate


# ---------------------------------------------------------------------------
# _least, the one monotone search

def _least_with_calls(threshold, lo, hi, start):
    """_least of x >= threshold, and every x it asked about; each must lie inside (lo, hi)."""
    calls = []

    def holds(x):
        assert lo < x < hi, (x, lo, hi)
        assert len(calls) < 400, "the search does not end"
        calls.append(x)
        return x >= threshold
    return _least(holds, lo, hi, start), calls


def _brute_least(threshold, lo, hi):
    return next(x for x in range(lo + 1, hi + 1) if x == hi or x >= threshold)


@pytest.mark.parametrize("lo, hi", [(0, 1), (-1, 1), (0, 2), (-1, 7), (3, 40), (-20, 45)])
def test_least_is_the_brute_force_answer_from_every_start(lo, hi):
    # every threshold, also those that put the answer at lo + 1 (all true) or
    # at hi (all false), and every start inside and outside (lo, hi]
    for threshold in range(lo - 2, hi + 3):
        want = _brute_least(threshold, lo, hi)
        for start in range(lo - 5, hi + 6):
            got, calls = _least_with_calls(threshold, lo, hi, start)
            assert got == want, (threshold, start)
            assert len(set(calls)) == len(calls)   # no point is asked about twice


@given(lo=st.integers(-2 ** 70, 2 ** 70),
       width=st.one_of(st.integers(1, 64), st.integers(1, 2 ** 70)),
       start=st.integers(-2 ** 72, 2 ** 72),
       offset=st.one_of(st.integers(-4, 68), st.integers(-4, 2 ** 70 + 4)))
@example(lo=0, width=2 ** 62, start=3, offset=1000)   # gallops up 3, 4, 6, ..., 514, 1026
@example(lo=0, width=2 ** 62, start=1026, offset=1000)   # gallops down
def test_least_asks_about_no_point_twice(lo, width, start, offset):
    hi, threshold = lo + width, lo + offset
    got, calls = _least_with_calls(threshold, lo, hi, start)
    assert got == min(max(threshold, lo + 1), hi)
    assert len(set(calls)) == len(calls), calls


def test_least_gallops_from_the_start():
    # the calls grow with the log of the distance from the clamped start to the
    # answer, not with the log of the range
    r = np.random.default_rng(21)
    lo, hi = -1, 2 ** 64
    for _ in range(500):
        answer = int(r.integers(0, 2 ** 63)) >> int(r.integers(0, 63))
        start = answer + (int(r.integers(-2 ** 20, 2 ** 20)) >> int(r.integers(0, 21)))
        for begin in (start, lo - 1 - abs(start), hi + abs(start)):
            got, calls = _least_with_calls(answer, lo, hi, begin)
            assert got == answer
            distance = abs(answer - min(max(begin, lo + 1), hi))
            assert len(calls) <= 2 * distance.bit_length() + 3, (answer, begin, len(calls))


def _bisected(meets, lo, hi):
    """The least x in (lo, hi] where meets(x), hi where none does, by bisecting the whole range."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if meets(mid) else (mid, hi)
    return hi


def test_swing_threshold_and_required_shots_equal_a_full_bisection(monkeypatch):
    # shot counts up to 2^61, targets from 1e-320 up to 1.7e308, swings down to 1e-320
    r = np.random.default_rng(22)
    shots = [1, 2 ** 61, *(int(2.0 ** e) for e in r.uniform(0.0, 61.0, 60))]
    targets = [5e-324, 1.7e308, *(10.0 ** r.uniform(-320.0, 308.23, 60)).tolist()]
    swings = [2.0, 5e-324, *(2.0 * 10.0 ** r.uniform(-320.0, 0.0, 60)).tolist()]
    calls = []
    monkeypatch.setattr(estimation, "analytic_snr",
                        lambda n, s: calls.append(1) or analytic_snr(n, s))
    for n, target in zip(shots, targets):
        want = _bisected(lambda b: analytic_snr(n, _float_from_bits(b)) >= target, 0, _TWO_BITS)
        del calls[:]
        assert swing_threshold(n, target) == (
            _float_from_bits(want) if want < _TWO_BITS else math.inf), (n, target)
        assert len(calls) <= 4, (n, target, len(calls))   # full bisection: 62 calls
    for target, swing in zip(targets, swings):
        want = _bisected(lambda n: analytic_snr(n, swing) >= target, 0, _MAX_SHOTS)
        try:
            got = required_shots(target, swing)
        except InfeasibleError:
            got = None
        assert got == (want if target <= analytic_snr(want, swing) < math.inf else None)


def test_required_shots_equals_a_full_bisection_on_the_paper_grid_and_at_the_extremes():
    r = np.random.default_rng(23)
    targets = 10.0 ** r.uniform(-1.0, 2.0, 3000)
    swings = 2.0 * 10.0 ** r.uniform(-6.0, 0.0, 3000)
    for target, swing in zip(targets.tolist(), swings.tolist()):
        assert required_shots(target, swing) == _bisected(
            lambda n: analytic_snr(n, swing) >= target, 0, _MAX_SHOTS), (target, swing)
    # targets no count that fits a float reaches, and a swing of 2 at huge targets
    for target, swing in ((3.0, 1e-200), (1e300, 1e-300), (1e155, 2.0), (1e300, 2.0),
                          (1.7e308, 2.0)):
        want = _bisected(lambda n: analytic_snr(n, swing) >= target, 0, _MAX_SHOTS)
        try:
            got = required_shots(target, swing)
        except InfeasibleError:
            got = None
        assert got == (want if target <= analytic_snr(want, swing) < math.inf else None), (
            target, swing)
    assert required_shots(1e155, 2.0) > 1e155
    for target, swing in ((3.0, 1e-200), (1e300, 1e-300), (1e300, 2.0), (1.7e308, 2.0)):
        with pytest.raises(InfeasibleError, match="no shot count"):
            required_shots(target, swing)


# ---------------------------------------------------------------------------
# required_shots

def test_required_shots_full_contrast_flip():
    # P = +-1 exactly: the rule-of-three guard governs, N sqrt(2)/3 >= target
    assert required_shots(2.0, 2.0) == 5
    assert analytic_snr(5, 2.0) >= 2.0 > analytic_snr(4, 2.0)


def test_required_shots_published_ten_repetition_claim():
    # the published claim is an upper bound: 10 repetitions suffice for SNR 2
    assert analytic_snr(10, 1.14) >= 2.0
    assert required_shots(2.0, 1.14) <= 10


def test_required_shots_quadratic_in_target():
    n1 = required_shots(2.0, 0.05)
    n2 = required_shots(4.0, 0.05)
    assert n1 == 3198   # frozen from the closed form 2 t^2 (1 - p^2) / s^2
    assert abs(n2 - 4 * n1) <= 1


def test_required_shots_monotone_in_swing():
    values = [required_shots(2.0, s) for s in (0.1, 0.3, 0.6, 1.0, 1.5)]
    assert values == sorted(values, reverse=True)


def test_required_shots_meets_target_minimally():
    for swing in (0.2, 0.7, 1.3, 1.9):
        n = required_shots(3.0, swing)
        assert analytic_snr(n, swing) >= 3.0
        if n > 1:
            assert analytic_snr(n - 1, swing) < 3.0


def test_required_shots_errors():
    with pytest.raises(InfeasibleError):
        required_shots(2.0, 0.0)
    with pytest.raises(ConfigurationError):
        required_shots(2.0, 2.5)
    with pytest.raises(ConfigurationError):
        required_shots(0.0, 1.0)


def test_required_shots_is_the_threshold_of_analytic_snr():
    # required_shots(t, s) <= N exactly when analytic_snr(N, s) >= t
    r = np.random.default_rng(20240601)
    targets = 10.0 ** r.uniform(-1.0, 2.0, 40)
    swings = np.append(10.0 ** r.uniform(-6.0, math.log10(2.0), 39), 2.0)
    for target, swing in zip(targets, swings):
        n = required_shots(float(target), float(swing))
        counts = {1, n - 1, n, n + 1, *(int(c) for c in 10.0 ** r.uniform(0.0, 16.0, 8))}
        for count in counts - {0}:
            assert (n <= count) == (analytic_snr(count, float(swing)) >= target)


# ---------------------------------------------------------------------------
# swing_threshold

def _meets(shots, swing, target):
    return analytic_snr(shots, swing) >= target


def test_swing_threshold_is_exact_at_and_beside_it():
    r = np.random.default_rng(31)
    shots = np.unique(np.round(10.0 ** r.uniform(0.0, 7.0, 40)).astype(int)).tolist()
    targets = (10.0 ** r.uniform(-1.0, math.log10(30.0), 40)).tolist()
    for n in shots:
        for target in targets:
            s = swing_threshold(n, target)
            assert 0.0 < s < 2.0
            assert _meets(n, s, target)
            assert not _meets(n, math.nextafter(s, 0.0), target)
            above = math.nextafter(s, 2.0)
            assert above == 2.0 or _meets(n, above, target)


def test_swing_threshold_splits_seeded_swings():
    # analytic_snr(N, s) >= target exactly when s >= the threshold, for every s < 2
    r = np.random.default_rng(32)
    for n, target in zip(np.round(10.0 ** r.uniform(0.0, 7.0, 5)).astype(int).tolist(),
                         (10.0 ** r.uniform(-1.0, math.log10(30.0), 5)).tolist()):
        s = swing_threshold(n, target)
        near = s * (1.0 + r.uniform(-1e-13, 1e-13, 1000))
        swings = np.concatenate([r.uniform(0.0, 2.0, 9000), near[near < 2.0]])
        for swing in swings.tolist():
            assert _meets(n, swing, target) == (swing >= s)


def test_swing_threshold_is_inf_when_no_swing_below_two_reaches_the_target():
    below_two = math.nextafter(2.0, 0.0)
    for n, target in ((1, 1e9), (100, 1e10), (10 ** 7, 1e12)):
        assert not _meets(n, below_two, target)
        assert swing_threshold(n, target) == math.inf
    # a full-contrast swing of exactly 2 takes the rule-of-three branch instead
    assert _meets(10 ** 17, 2.0, 4e16) and swing_threshold(10 ** 17, 4e16) == math.inf


def test_required_shots_tiny_swing_is_infeasible():
    with pytest.raises(InfeasibleError):
        required_shots(2.0, 1e-300)


def test_required_shots_past_two_to_the_53_is_minimal(fresh_python):
    # Above 2^53 shots, n and n - 1 convert to the same float; a search that
    # steps by one shot never returns here, so run it in a fresh interpreter.
    target, swing = 1.2621154369592524, 1.0133569090740886e-12
    result = fresh_python(
        "from iongradim.estimation import required_shots; "
        f"print(required_shots({target!r}, {swing!r}))", timeout=20.0)
    assert result.returncode == 0, result.stderr
    n = int(result.stdout)
    assert n > 2 ** 53
    assert n == required_shots(target, swing)
    assert analytic_snr(n, swing) >= target > analytic_snr(n - 1, swing)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: NoiseModel(gradient_rms=math.inf), id="noise-gradient-inf"),
    pytest.param(lambda: NoiseModel(gradient_rms=math.nan), id="noise-gradient-nan"),
    pytest.param(lambda: NoiseModel(common_mode_rms=math.inf), id="noise-common-inf"),
    pytest.param(lambda: NoiseModel(common_mode_rms=math.nan), id="noise-common-nan"),
    pytest.param(lambda: plan(t=math.inf), id="plan-time-inf"),
    pytest.param(lambda: plan(t=math.nan), id="plan-time-nan"),
    pytest.param(lambda: plan(bias=math.nan), id="plan-bias-nan"),
    pytest.param(lambda: plan(bias=-math.inf), id="plan-bias-inf"),
    pytest.param(lambda: required_shots(math.inf, 1.0), id="target-inf"),
    pytest.param(lambda: required_shots(math.nan, 1.0), id="target-nan"),
    pytest.param(lambda: required_shots(2.0, math.nan), id="swing-nan"),
    pytest.param(lambda: dephasing_contrast(math.nan, pair_probe(), ZEE, 1.0),
                 id="dephasing-rms-nan"),
    pytest.param(lambda: dephasing_contrast(math.inf, pair_probe(), ZEE, 1.0),
                 id="dephasing-rms-inf"),
    pytest.param(lambda: dephasing_contrast(1e-9, pair_probe(), ZEE, math.inf),
                 id="dephasing-duration-inf"),
    pytest.param(lambda: dephasing_contrast(1e-9, pair_probe(), ZEE, math.nan),
                 id="dephasing-duration-nan"),
])
def test_non_finite_inputs_rejected(make):
    with pytest.raises(ConfigurationError):
        make()


# ---------------------------------------------------------------------------
# dephasing_contrast

def test_dephasing_contrast_zero_noise():
    assert dephasing_contrast(0.0, pair_probe(), ZEE, 5.0) == 1.0


@pytest.mark.parametrize("gradient_rms, positions, duration", [
    (1e300, (0.0, SPACING), 0.0),     # the rms times the coupling overflows; no time passes
    (1e300, (SPACING, SPACING), 1.0),  # both ions at one place: no gradient coupling
])
def test_dephasing_contrast_is_one_without_a_phase_spread(gradient_rms, positions, duration):
    probe = prepare_probe(BELL, tuple(Vec3(0, 0, z) for z in positions), 1.0)
    assert dephasing_contrast(gradient_rms, probe, ZEE, duration) == 1.0


def test_dephasing_contrast_unit_phase_spread():
    g_rms = 1.0 / (COEFF * SPACING * 5.0)
    assert dephasing_contrast(g_rms, pair_probe(), ZEE, 5.0) == pytest.approx(
        math.exp(-0.5), rel=1e-12)


def test_dephasing_contrast_published_gradient_bound():
    # hand evaluation of g mu_B (1e-13 T/um * 1.03 um) t / hbar at t = 5 s
    zee = ZeemanConfig(g_factor=constants().ca40_g_factor)
    coeff = zee.g_factor * C.bohr_magneton / C.reduced_planck
    sigma = coeff * (1e-7 * SPACING) * 5.0
    expected = math.exp(-0.5 * sigma * sigma)
    value = dephasing_contrast(1e-7, pair_probe(), zee, 5.0)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(0.995896879753, abs=1e-9)


def test_dephasing_contrast_rejects_negative_inputs():
    with pytest.raises(ConfigurationError):
        dephasing_contrast(-1e-9, pair_probe(), ZEE, 1.0)
    with pytest.raises(ConfigurationError):
        dephasing_contrast(1e-9, pair_probe(), ZEE, -1.0)
