import math
import types

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from iongradim.constants import Vec3, constants
from iongradim.errors import ConfigurationError
from iongradim.magnetostatics import axial_bz, DipoleSource
from iongradim.protocol import (BELL, GHZ, ProbeState, ZeemanConfig, accumulated_phase,
                                outcome_parities, outcome_probabilities, parity_trajectory,
                                phase_rate, prepare_probe)

C = constants()
ZEE = ZeemanConfig(g_factor=2.002)


def bell_probe(contrast=1.0, spacing=1.03e-6) -> ProbeState:
    return prepare_probe(BELL, (Vec3(0, 0, 0.0), Vec3(0, 0, spacing)), contrast)


def ghz4_probe(positions, contrast=1.0) -> ProbeState:
    return prepare_probe(GHZ, positions, contrast)


# ---------------------------------------------------------------------------
# Born-rule oracle: two-branch density matrix with branch dephasing, ideal
# pi/2 analysis pulse on every ion, measurement in the spin basis. The
# adjustable analysis phase enters as an extra relative branch phase.

def born_probabilities(pattern, phi, bias, contrast):
    up = np.array([1.0, 0.0], dtype=complex)
    down = np.array([0.0, 1.0], dtype=complex)

    def branch_vector(ms):
        v = np.array([1.0], dtype=complex)
        for m in ms:
            v = np.kron(v, up if m > 0 else down)
        return v

    b1 = branch_vector(pattern)
    b2 = branch_vector([-m for m in pattern])
    psi = (b1 + np.exp(1j * (phi + bias)) * b2) / math.sqrt(2.0)
    rho = (contrast * np.outer(psi, psi.conj())
           + (1.0 - contrast) * 0.5 * (np.outer(b1, b1.conj()) + np.outer(b2, b2.conj())))
    u1 = np.array([[1.0, -1.0j], [-1.0j, 1.0]], dtype=complex) / math.sqrt(2.0)
    u = np.array([1.0], dtype=complex).reshape(1, 1)
    for _ in pattern:
        u = np.kron(u, u1)
    rho_out = u @ rho @ u.conj().T
    return np.real(np.diag(rho_out))


@pytest.mark.parametrize("phi", [0.0, 0.3, math.pi / 2, 2.0, -1.1, math.pi])
@pytest.mark.parametrize("bias", [0.0, math.pi / 2, -0.7])
@pytest.mark.parametrize("contrast", [1.0, 0.99, 0.4, 0.0])
def test_bell_outcome_probabilities_against_born_oracle(phi, bias, contrast):
    computed = outcome_probabilities(bell_probe(contrast=contrast), bias_phase=phi + bias)
    oracle = born_probabilities((0.5, -0.5), phi, bias, contrast)
    assert np.allclose(computed, oracle, atol=1e-14)


@pytest.mark.parametrize("phi", [0.0, 0.9, 2.7, -0.4])
@pytest.mark.parametrize("contrast", [1.0, 0.8])
def test_ghz4_outcome_probabilities_against_born_oracle(phi, contrast):
    positions = tuple(Vec3(0, 0, z) for z in (-2e-6, -1e-6, 1e-6, 2e-6))
    computed = outcome_probabilities(ghz4_probe(positions, contrast=contrast),
                                     bias_phase=phi + 0.35)
    oracle = born_probabilities((0.5, -0.5, -0.5, 0.5), phi, 0.35, contrast)
    assert np.allclose(computed, oracle, atol=1e-14)


def test_parity_equals_outcome_expectation():
    # brute force over the 2-qubit Born-rule state for random phases: P = contrast cos(phi)
    rng = np.random.default_rng(3)
    for _ in range(30):
        phi = rng.uniform(-2 * math.pi, 2 * math.pi)
        contrast = rng.uniform(0.0, 1.0)
        probabilities = born_probabilities((0.5, -0.5), phi, 0.0, contrast)
        signs = np.array([1, -1, -1, 1])
        assert float(signs @ probabilities) == pytest.approx(contrast * math.cos(phi), abs=1e-13)
        computed = outcome_probabilities(bell_probe(contrast=contrast), bias_phase=phi)
        assert float(signs @ computed) == pytest.approx(contrast * math.cos(phi), abs=1e-13)


def test_probabilities_are_distribution():
    rng = np.random.default_rng(8)
    positions4 = tuple(Vec3(0, 0, z) for z in (-2e-6, -1e-6, 1e-6, 2e-6))
    for _ in range(100):
        phi = rng.uniform(-10, 10)
        bias = rng.uniform(-10, 10)
        contrast = rng.uniform(0, 1)
        for probe in (bell_probe(contrast=contrast), ghz4_probe(positions4, contrast=contrast)):
            p = outcome_probabilities(probe, bias_phase=phi + bias)
            assert np.all(p >= 0)
            assert float(p.sum()) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# phase rate and evolution

def test_bell_phase_rate_reduces_to_field_difference():
    probe = bell_probe()
    b1, b2 = 3.1e-13, -1.7e-13
    # default branch order (up-down first) gives rate = coeff * (B_1 - B_2)
    expected = ZEE.g_factor * C.bohr_magneton / C.reduced_planck * (b1 - b2)
    assert phase_rate(probe, ZEE, (b1, b2)) == pytest.approx(expected, rel=1e-14)


def test_time_to_pi_benchmark_26s():
    rate = phase_rate(bell_probe(), ZEE, (0.0, 6.8e-13))
    t_pi = math.pi / abs(rate)
    assert t_pi == pytest.approx(26.0, rel=0.05)
    assert t_pi == pytest.approx(26.2413, abs=2e-3)


def test_uniform_field_rate_exactly_zero():
    positions4 = tuple(Vec3(0, 0, z) for z in (-2e-6, -1e-6, 1e-6, 2e-6))
    for probe in (bell_probe(), ghz4_probe(positions4)):
        for b in (0.0, 1e-13, 1e-6, -3.7e2):
            fields = (b,) * probe.n_ions
            assert phase_rate(probe, ZEE, fields) == 0.0


def test_uniform_time_dependent_sequence_accumulates_zero_phase():
    probe = bell_probe()
    rng = np.random.default_rng(4)
    phase = 0.0
    for _ in range(200):
        b = rng.uniform(-1e-5, 1e-5)
        phase += accumulated_phase(phase_rate(probe, ZEE, (b, b)), rng.uniform(0, 10))
    assert phase == 0.0


def _offset_bound(fields, offset) -> float:
    """Bound on |phase_rate(b + u) - phase_rate(b)| for one offset u added at every ion.

    With sum(delta_m) = 0 both rates are g W rounded, W = sum dm_i b_i the
    exact weighted field. phase_rate rounds these steps, each by at most
    2^-53 of its result (a sum whose result is subnormal is exact):
    - each c_i = b_i + u, by 2^-53 |b_i + u| (dm_i = +-1, so dm_i c_i is exact);
    - the n - 1 additions of sum() over b and over c, each sum within
      (n - 1) 2^-53 of its absolute terms of the exact one;
    - the product with g, by 2^-53 |g S| plus 2^-1075 where it is subnormal.
    With A = sum |b_i| + n |u| that is |g| 2^-53 A (n - 1 + 1 + n - 1 + 2)
    to first order; one more n-sized unit takes the second-order terms.
    """
    n = len(fields)
    weight = sum(abs(b) for b in fields) + n * abs(offset)
    return ZEE.gyromagnetic_ratio * (2 * n + 2) * 2.0 ** -53 * weight + 2.0 ** -1074


def _shifted_rates(probe, fields, offset):
    return (phase_rate(probe, ZEE, fields),
            phase_rate(probe, ZEE, tuple(b + offset for b in fields)))


_FIELD = st.floats(-1e-3, 1e-3)


@st.composite
def _probes(draw, balanced=True):
    """A probe of 2 to 8 ions at drawn axial positions, with drawn branch weights.

    Balanced weights sum to zero, as ProbeState requires; otherwise the
    stand-in carries only the two attributes phase_rate reads.
    """
    n = draw(st.integers(1, 4)) * 2
    first, pitch = draw(st.floats(-1e-5, 1e-5)), draw(st.floats(1e-7, 1e-5))
    positions = tuple(Vec3(0, 0, first + k * pitch) for k in range(n))
    if balanced:
        pattern = draw(st.permutations((0.5,) * (n // 2) + (-0.5,) * (n // 2)))
        return prepare_probe(BELL if n == 2 else GHZ, positions, 1.0,
                             (tuple(pattern), tuple(-w for w in pattern)))
    pattern = draw(st.lists(st.sampled_from((0.5, -0.5)), min_size=n, max_size=n))
    if sum(pattern) == 0:
        pattern[0] = -pattern[0]
    return types.SimpleNamespace(n_ions=n, delta_m=tuple(2 * w for w in pattern))


@given(data=st.data(), probe=_probes(), offset=_FIELD)
def test_uniform_offset_moves_the_rate_within_its_rounding_bound(data, probe, offset):
    fields = data.draw(st.lists(_FIELD, min_size=probe.n_ions, max_size=probe.n_ions))
    rate, shifted = _shifted_rates(probe, fields, offset)
    assert abs(shifted - rate) <= _offset_bound(fields, offset)


@given(data=st.data(), probe=_probes(balanced=False), ratio=st.floats(1e-6, 1e6),
       sign=st.sampled_from((1.0, -1.0)))
def test_unbalanced_weights_break_the_offset_bound(data, probe, ratio, sign):
    # the bound has power: where sum(delta_m) = k != 0 an offset adds g k u
    fields = data.draw(st.lists(_FIELD, min_size=probe.n_ions, max_size=probe.n_ions))
    offset = sign * ratio * max(max(abs(b) for b in fields), 1e-12)
    rate, shifted = _shifted_rates(probe, fields, offset)
    assert abs(shifted - rate) > _offset_bound(fields, offset)


_STEPS = st.integers(-2 ** 20, 2 ** 20)


@given(bell=st.booleans(), steps=st.lists(_STEPS, min_size=4, max_size=4), offset=_STEPS,
       exponent=st.integers(-80, -10))
def test_uniform_offset_on_a_power_of_two_grid_leaves_the_rate_bit_identical(
        bell, steps, offset, exponent):
    # fields and offset below 2^21 units of one power of two: every sum is exact
    positions4 = tuple(Vec3(0, 0, z) for z in (-2e-6, -1e-6, 1e-6, 2e-6))
    probe = bell_probe() if bell else ghz4_probe(positions4)
    unit = 2.0 ** exponent
    fields = tuple(k * unit for k in steps[:probe.n_ions])
    rate, shifted = _shifted_rates(probe, fields, offset * unit)
    assert shifted.hex() == rate.hex()


def test_accumulated_phase_examples():
    rate = phase_rate(bell_probe(), ZEE, (6.8e-13, 0.0))
    assert accumulated_phase(rate, 0.0) == 0.0
    one_step = accumulated_phase(rate, 5.0)
    two_steps = accumulated_phase(rate, 2.5) + accumulated_phase(rate, 2.5)
    assert two_steps == pytest.approx(one_step, abs=1e-12)
    # 5 s at the published differential field: phi near 0.60 rad, swing near 0.56
    assert one_step == pytest.approx(0.598597, abs=1e-5)
    assert math.sin(one_step) == pytest.approx(0.563484, abs=1e-5)


def test_accumulated_phase_overflow_is_a_config_error():
    assert accumulated_phase(2.5, 4.0) == 10.0
    with pytest.raises(ConfigurationError, match="overflows a float"):
        accumulated_phase(1.8e301, 1e30)
    with pytest.raises(ConfigurationError, match="overflows a float"):
        parity_trajectory(1.8e301, 1.0, 1e30)   # every point past the first overflows
    with pytest.raises(ConfigurationError, match="overflows a float"):
        accumulated_phase(phase_rate(bell_probe(), ZEE, (0.0, 1e-9)), 1e307)


def _trajectory_by_point(rate, contrast, t_max, n_points):
    """Reference: guard every point's phase on its own."""
    records = []
    with np.errstate(over="ignore"):   # as parity_trajectory's grid
        times = np.linspace(0.0, t_max, n_points)
    for t in times.tolist():
        phase = accumulated_phase(rate, t)
        records.append((t, phase, contrast * math.cos(phase)))
    return records


def test_trajectory_equals_the_per_point_reference():
    r = np.random.default_rng(41)
    cases = [(float(rate), float(contrast), float(t_max), int(n))
             for rate, contrast, t_max, n in zip(
                 r.choice([-1.0, 1.0], 300) * 10.0 ** r.uniform(-8.0, 8.0, 300),
                 r.uniform(0.0, 1.0, 300), 10.0 ** r.uniform(-6.0, 6.0, 300),
                 r.integers(0, 400, 300))]
    cases += [(0.0, 1.0, 5.0, 101), (3.0, 0.5, 0.0, 101), (-2.5, 1.0, 7.0, 1),
              (1.0, 1.0, 3.0, 2), (1.79e301, 1.0, 1e7, 101)]   # the last peaks at 1.79e308
    for rate, contrast, t_max, n in cases:
        got = [tuple(record) for record in parity_trajectory(rate, contrast, t_max, n)]
        expected = _trajectory_by_point(rate, contrast, t_max, n)
        assert np.array_equal(np.array(got).view(np.int64), np.array(expected).view(np.int64))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


_LARGEST = 1.7976931348623157e308


@given(rates=st.lists(st.floats(-1e6, 1e6) | _FINITE, min_size=1, max_size=3),
       contrast=st.floats(0.0, 1.0),
       t_max=st.floats(0.0, 1e3) | _FINITE | st.sampled_from([0.0, _LARGEST]),
       n_points=st.integers(0, 300))
@example(rates=[0.0, 1.0, -1.0], contrast=1.0, t_max=_LARGEST, n_points=101)
@example(rates=[2.5, 1e300, 1e308], contrast=0.5, t_max=1e10, n_points=101)
@example(rates=[1.7, -3.0], contrast=0.99, t_max=0.0, n_points=101)
def test_trajectory_columns_are_the_per_point_values(rates, contrast, t_max, n_points):
    # each rate alone gives a read-only (n, 3) table and the rates together a
    # read-only (k, n, 3) stack of those tables; each column bit for bit: t,
    # rate * t and contrast * math.cos(rate * t). Together, an overflow raises
    # what the first overflowing rate raises alone.
    tables, errors = [], []
    for rate in rates:
        try:
            expected = _trajectory_by_point(rate, contrast, t_max, n_points)
        except ConfigurationError:
            with pytest.raises(ConfigurationError, match="overflows a float") as raised:
                parity_trajectory(rate, contrast, t_max, n_points)
            errors.append(str(raised.value))
            continue
        rows = parity_trajectory(rate, contrast, t_max, n_points)
        assert rows.dtype == np.float64 and rows.shape == (n_points, 3)
        assert not rows.flags.writeable and rows.flags.c_contiguous
        tables.append(np.array(expected, np.float64).reshape(n_points, 3))
        assert rows.view(np.int64).tolist() == tables[-1].view(np.int64).tolist()
    if errors:
        with pytest.raises(ConfigurationError) as raised:
            parity_trajectory(rates, contrast, t_max, n_points)
        assert str(raised.value) == errors[0]
        return
    stack = parity_trajectory(rates, contrast, t_max, n_points)
    assert stack.dtype == np.float64 and stack.shape == (len(rates), n_points, 3)
    assert not stack.flags.writeable and stack.flags.c_contiguous
    assert stack.view(np.int64).tolist() == np.array(tables).view(np.int64).tolist()


def test_phase_reversal():
    probe = bell_probe()
    fields = (1.3e-13, -0.2e-13)
    forward = accumulated_phase(phase_rate(probe, ZEE, fields), 7.3)
    back = accumulated_phase(phase_rate(probe, ZEE, tuple(-b for b in fields)), 7.3)
    assert forward + back == pytest.approx(0.0, abs=1e-12)


def test_phase_rate_field_count_mismatch():
    with pytest.raises(ConfigurationError):
        phase_rate(bell_probe(), ZEE, (1e-13,))


# ---------------------------------------------------------------------------
# GHZ doubling against the branch-sum oracle

def branch_sum_rate(probe: ProbeState, zeeman: ZeemanConfig, fields) -> float:
    """Independent oracle: per-branch Zeeman energy sums, then the difference."""
    coeff = zeeman.g_factor * C.bohr_magneton
    b1, b2 = probe.branch_weights
    e1 = sum(m * b for m, b in zip(b1, fields))
    e2 = sum(m * b for m, b in zip(b2, fields))
    return coeff * (e1 - e2) / C.reduced_planck


def test_ghz_rate_doubles_side_pair_bell_rate():
    inner, outer = 0.8e-6, 1.9e-6
    source = DipoleSource(Vec3(0, 0, 0.0), Vec3(0, 0, abs(C.electron_magnetic_moment)))
    zs = (-outer, -inner, inner, outer)
    fields = tuple(axial_bz(source, z) for z in zs)
    ghz = prepare_probe(GHZ, tuple(Vec3(0, 0, z) for z in zs), 1.0)
    bell = prepare_probe(BELL, (Vec3(0, 0, zs[0]), Vec3(0, 0, zs[1])), 1.0)

    rate_ghz = phase_rate(ghz, ZEE, fields)
    rate_bell = phase_rate(bell, ZEE, fields[:2])
    assert rate_ghz / rate_bell == pytest.approx(2.0, abs=1e-9)
    assert rate_ghz == pytest.approx(branch_sum_rate(ghz, ZEE, fields), rel=1e-12)
    assert rate_bell == pytest.approx(branch_sum_rate(bell, ZEE, fields[:2]), rel=1e-12)


# ---------------------------------------------------------------------------
# preparation and validation

def test_prepare_probe_examples():
    positions = (Vec3(0, 0, 0.0), Vec3(0, 0, 1e-6))
    signs = outcome_parities(2)
    assert float(signs @ outcome_probabilities(prepare_probe(BELL, positions, 1.0))) == 1.0
    assert float(signs @ outcome_probabilities(prepare_probe(BELL, positions, 0.99))) == (
        pytest.approx(0.99))
    dead = prepare_probe(BELL, positions, 0.0)
    rate = phase_rate(dead, ZEE, (0.0, 6.8e-13))
    for t in (0.0, 1.0, 26.0):
        probabilities = outcome_probabilities(dead, bias_phase=accumulated_phase(rate, t))
        assert float(signs @ probabilities) == 0.0


@pytest.mark.parametrize("fidelity", [-0.01, 1.01, 2.0, 1.5, -0.1, math.nan])
def test_prepare_probe_fidelity_range(fidelity):
    # the probe's contrast is the fidelity, and ProbeState states its [0, 1] bound
    with pytest.raises(ConfigurationError, match=r"contrast must be in \[0, 1\]"):
        prepare_probe(BELL, (Vec3(0, 0, 0), Vec3(0, 0, 1e-6)), fidelity)


def test_probe_state_validation():
    positions2 = (Vec3(0, 0, 0), Vec3(0, 0, 1e-6))
    positions3 = positions2 + (Vec3(0, 0, 2e-6),)
    with pytest.raises(ConfigurationError):   # Bell needs exactly two ions
        prepare_probe(BELL, positions3, 1.0)
    with pytest.raises(ConfigurationError):   # GHZ needs an even count
        prepare_probe(GHZ, positions3, 1.0, branch_weights=((0.5, -0.5, 0.5),
                                                            (-0.5, 0.5, -0.5)))
    with pytest.raises(ConfigurationError):   # branch must sum to zero
        ProbeState(BELL, positions2, ((0.5, 0.5), (-0.5, -0.5)))
    with pytest.raises(ConfigurationError):   # branches must be complements
        ProbeState(BELL, positions2, ((0.5, -0.5), (0.5, -0.5)))
    with pytest.raises(ConfigurationError):   # weights are +-1/2
        ProbeState(BELL, positions2, ((1.0, -1.0), (-1.0, 1.0)))
    with pytest.raises(ConfigurationError):   # contrast range
        ProbeState(BELL, positions2, ((0.5, -0.5), (-0.5, 0.5)), contrast=1.2)
    with pytest.raises(ConfigurationError):   # no default pattern for 6 ions
        prepare_probe(GHZ, positions3 + positions3, 1.0)


@pytest.mark.parametrize("kind, n, weights, message", [
    ("W", 2, ((0.5, -0.5), (-0.5, 0.5)), "unknown probe kind 'W'"),
    (BELL, 3, ((0.5, -0.5, 0.5), (-0.5, 0.5, -0.5)), "Bell probe needs exactly 2 ions, got 3"),
    (GHZ, 4, ((0.5, -0.5), (-0.5, 0.5)), "branch weight length does not match ion count"),
])
def test_probe_state_names_each_rejected_field(kind, n, weights, message):
    positions = tuple(Vec3(0, 0, i * 1e-6) for i in range(n))
    with pytest.raises(ConfigurationError) as raised:
        ProbeState(kind, positions, weights)
    assert str(raised.value) == message


def test_zeeman_config_validation():
    with pytest.raises(ConfigurationError):
        ZeemanConfig(g_factor=0.0)
    with pytest.raises(ConfigurationError):
        ZeemanConfig(g_factor=-2.0)
    with pytest.raises(ConfigurationError, match="g_factor must be finite and > 0, got inf"):
        ZeemanConfig(g_factor=math.inf)
