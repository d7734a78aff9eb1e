import math

import numpy as np
import pytest

from iongradim import crystal
from iongradim.constants import constants
from iongradim.crystal import (CrystalGeometry, TrapConfig, _jacobian, _net_forces,
                               equilibrium_positions, length_scale, spacing)
from iongradim.errors import ConfigurationError, SolverError

CA40_MASS = 40.0 * constants().atomic_mass_unit


def trap_10mhz() -> TrapConfig:
    return TrapConfig(axial_frequency=2.0 * math.pi * 10e6, ion_mass=CA40_MASS)


# ---------------------------------------------------------------------------
# independent oracle: cyclic coordinate descent on the dimensionless potential
# U(u) = sum u_i^2 / 2 + sum_{i<j} 1/|u_i - u_j|, using only potential values
# (central finite differences of the single-coordinate slice).

def _slice_energy(u, i, x):
    e = 0.5 * x * x
    for j, uj in enumerate(u):
        if j != i:
            e += 1.0 / abs(x - uj)
    return e


def coordinate_descent_minimum(n, h=1e-6, max_sweeps=8000, tol=1e-12):
    u = [(i - (n - 1) / 2.0) * 1.2 for i in range(n)]
    for _ in range(max_sweeps):
        biggest = 0.0
        for i in range(n):
            lo = u[i - 1] + 1e-3 if i > 0 else u[i] - 4.0
            hi = u[i + 1] - 1e-3 if i < n - 1 else u[i] + 4.0
            x = u[i]
            for _ in range(30):
                e_plus = _slice_energy(u, i, x + h)
                e_mid = _slice_energy(u, i, x)
                e_minus = _slice_energy(u, i, x - h)
                gradient = (e_plus - e_minus) / (2.0 * h)
                curvature = (e_plus - 2.0 * e_mid + e_minus) / (h * h)
                if curvature <= 0:
                    break
                x_new = min(max(x - gradient / curvature, lo), hi)
                if abs(x_new - x) < 1e-14:
                    x = x_new
                    break
                x = x_new
            biggest = max(biggest, abs(x - u[i]))
            u[i] = x
        if biggest < tol:
            break
    return np.array(u)


def dimensionless_solution(geometry: CrystalGeometry) -> np.ndarray:
    return np.array(geometry.positions) / geometry.length_scale


# ---------------------------------------------------------------------------
# length scale

def test_length_scale_ca40_10mhz():
    # hand evaluation of (q^2 / (4 pi eps0 m w^2))^(1/3)
    c = constants()
    w = 2.0 * math.pi * 10e6
    expected = (c.elementary_charge ** 2
                / (4.0 * math.pi * c.vacuum_permittivity * CA40_MASS * w * w)) ** (1 / 3)
    ell = length_scale(trap_10mhz())
    assert ell == pytest.approx(expected, rel=1e-14)
    assert ell == pytest.approx(0.958e-6, rel=1e-3)


def test_length_scale_frequency_power_law():
    t1 = trap_10mhz()
    t2 = TrapConfig(axial_frequency=t1.axial_frequency / 2.0, ion_mass=t1.ion_mass)
    assert length_scale(t2) / length_scale(t1) == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-12)


def test_length_scale_mass_power_law():
    t1 = trap_10mhz()
    t2 = TrapConfig(axial_frequency=t1.axial_frequency, ion_mass=8.0 * t1.ion_mass)
    assert length_scale(t2) / length_scale(t1) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("kwargs", [
    dict(axial_frequency=-1.0, ion_mass=CA40_MASS),
    dict(axial_frequency=0.0, ion_mass=CA40_MASS),
    dict(axial_frequency=1e7, ion_mass=0.0),
    dict(axial_frequency=1e7, ion_mass=CA40_MASS, ion_charge=-1e-19),
    # inf is refused when the trap is made, not first by length_scale
    dict(axial_frequency=math.inf, ion_mass=CA40_MASS),
    dict(axial_frequency=1e7, ion_mass=math.inf),
    dict(axial_frequency=1e7, ion_mass=CA40_MASS, ion_charge=math.inf),
])
def test_invalid_trap_config(kwargs):
    with pytest.raises(ConfigurationError):
        TrapConfig(**kwargs)


# ---------------------------------------------------------------------------
# equilibrium positions

def test_two_ion_closed_form():
    # u = +-(1/4)^(1/3), the analytic root of u = 1/(2u)^2
    u = dimensionless_solution(equilibrium_positions(2, trap_10mhz()))
    root = 0.25 ** (1.0 / 3.0)
    assert u[0] == pytest.approx(-root, abs=1e-10)
    assert u[1] == pytest.approx(root, abs=1e-10)


def test_three_ion_closed_form():
    u = dimensionless_solution(equilibrium_positions(3, trap_10mhz()))
    outer = 1.25 ** (1.0 / 3.0)
    assert u[0] == pytest.approx(-outer, abs=1e-10)
    assert u[1] == pytest.approx(0.0, abs=1e-10)
    assert u[2] == pytest.approx(outer, abs=1e-10)
    assert outer == pytest.approx(1.0772, abs=1e-4)


def test_three_ion_spacing_10mhz_and_5mhz():
    g10 = equilibrium_positions(3, trap_10mhz())
    assert spacing(g10, 0, 1) == pytest.approx(1.03e-6, rel=0.01)
    t5 = TrapConfig(axial_frequency=2.0 * math.pi * 5e6, ion_mass=CA40_MASS)
    g5 = equilibrium_positions(3, t5)
    assert spacing(g5, 0, 1) == pytest.approx(1.63e-6, rel=0.01)


@pytest.mark.parametrize("n", range(2, 8))
def test_oracle_equivalence(n):
    newton = dimensionless_solution(equilibrium_positions(n, trap_10mhz()))
    oracle = coordinate_descent_minimum(n)
    assert np.max(np.abs(newton - oracle)) < 1e-8


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 30])
def test_geometry_invariants(n):
    geometry = equilibrium_positions(n, trap_10mhz())
    z = np.array(geometry.positions)
    ell = geometry.length_scale
    assert len(z) == n
    assert np.all(np.diff(z) > 0) or n == 1
    assert abs(z.mean()) < 1e-12 * ell
    # mirror symmetry of identical ions in a harmonic trap
    assert np.max(np.abs(z + z[::-1])) < 1e-9 * ell


@pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 30])
def test_residual_force_bound(n):
    geometry = equilibrium_positions(n, trap_10mhz())
    u = dimensionless_solution(geometry)
    residual = np.empty(n)
    for i in range(n):
        f = u[i]
        for j in range(n):
            if j < i:
                f -= (u[i] - u[j]) ** -2
            elif j > i:
                f += (u[j] - u[i]) ** -2
        residual[i] = f
    # COM re-pinning shifts the solver residual by at most ~1e-15
    assert np.max(np.abs(residual)) < 1e-12


def _newton_recomputing_each_step(n):
    """Reference damped Newton that re-evaluates the forces at every accepted point."""
    u = (np.arange(n) - (n - 1) / 2.0) * (2.0 / n ** (1.0 / 3.0))
    residual = float(np.max(np.abs(_net_forces(u))))
    while residual >= 1e-12:
        step = np.linalg.solve(_jacobian(u), _net_forces(u))
        scale = 1.0
        for _ in range(60):
            trial = u - scale * step
            if np.all(np.diff(trial) > 0) and float(np.max(np.abs(_net_forces(trial)))) < residual:
                break
            scale *= 0.5
        u = u - scale * step
        residual = float(np.max(np.abs(_net_forces(u))))
    return u - u.mean()


TRAPS = {"ca40_10mhz": trap_10mhz(),
         "be9_1mhz": TrapConfig(axial_frequency=2.0 * math.pi * 1e6,
                                ion_mass=9.012 * constants().atomic_mass_unit)}


@pytest.mark.parametrize("trap", TRAPS.values(), ids=TRAPS.keys())
@pytest.mark.parametrize("n", range(1, 31))
def test_newton_keeps_the_accepted_trial_bit_for_bit(n, trap):
    # one dimensionless chain per ion count, which each trap only scales; a
    # single ion takes the same path, where the chain is [0.0]
    geometry = equilibrium_positions(n, trap)
    expected = _newton_recomputing_each_step(n) * geometry.length_scale
    assert np.array_equal(np.array(geometry.positions), expected)
    # a call that reads the cached chain gives the bytes of an uncached solve
    uncached = crystal._unit_chain.__wrapped__(n) * geometry.length_scale
    assert np.array(equilibrium_positions(n, trap).positions).tobytes() == uncached.tobytes()


@pytest.mark.parametrize("real_calls", [1, 3, 5])
@pytest.mark.parametrize("n", [3, 10, 30])
def test_newton_stops_when_no_step_lowers_the_residual(monkeypatch, n, real_calls,
                                                      uncached_chain):
    # after real_calls true evaluations every trial's forces are 10 at each ion,
    # above every residual the solve has reached: no halving of the step is taken
    residuals = []

    def forces(u):
        f = _net_forces(u) if len(residuals) < real_calls else np.full(n, 10.0)
        residuals.append(float(np.abs(f).max()))
        return f

    monkeypatch.setattr(crystal, "_net_forces", forces)
    with pytest.raises(SolverError, match=f"no Newton step lowers the residual for {n} ions") \
            as raised:
        equilibrium_positions(n, trap_10mhz())
    # the error carries the residual of the last accepted point, which is the
    # least of the true ones since each accepted trial lowered it
    assert raised.value.residual == min(residuals[:real_calls])
    assert len(residuals) <= real_calls + 60


def test_each_ion_count_is_solved_once(monkeypatch, uncached_chain):
    # the second trap only scales the chain the first call solved
    calls = []
    monkeypatch.setattr(crystal, "_jacobian", lambda u: calls.append(len(u)) or _jacobian(u))
    equilibrium_positions(5, TRAPS["ca40_10mhz"])
    assert calls and set(calls) == {5}
    solved = len(calls)
    equilibrium_positions(5, TRAPS["be9_1mhz"])
    assert len(calls) == solved


def test_the_cached_chain_is_read_only():
    chain = crystal._unit_chain(4)
    assert not chain.flags.writeable
    with pytest.raises(ValueError):
        chain[0] = 0.0
    assert crystal._unit_chain(4) is chain


def test_a_failed_solve_is_not_kept(monkeypatch, uncached_chain):
    monkeypatch.setattr(crystal, "_NEWTON_CAP", 1)
    with pytest.raises(SolverError, match="equilibrium solve for 6 ions did not converge"):
        equilibrium_positions(6, trap_10mhz())
    monkeypatch.undo()
    geometry = equilibrium_positions(6, trap_10mhz())
    expected = crystal._unit_chain.__wrapped__(6) * geometry.length_scale
    assert np.array(geometry.positions).tobytes() == expected.tobytes()
    assert crystal._unit_chain.cache_info().currsize == 1


def test_positions_scale_with_length_scale():
    t1 = trap_10mhz()
    t2 = TrapConfig(axial_frequency=2.0 * t1.axial_frequency, ion_mass=t1.ion_mass)
    g1, g2 = equilibrium_positions(4, t1), equilibrium_positions(4, t2)
    u1, u2 = dimensionless_solution(g1), dimensionless_solution(g2)
    assert np.allclose(u1, u2, atol=1e-12)
    ratio = np.array(g2.positions)[0] / np.array(g1.positions)[0]
    assert ratio == pytest.approx(2.0 ** (-2.0 / 3.0), rel=1e-12)


@pytest.mark.parametrize("n", [0, -2, 31, 2.5])
def test_n_ions_out_of_range(n):
    with pytest.raises(ConfigurationError):
        equilibrium_positions(n, trap_10mhz())


# ---------------------------------------------------------------------------
# spacing

def test_spacing_examples():
    g = equilibrium_positions(3, trap_10mhz())
    assert spacing(g, 1, 1) == 0.0
    assert spacing(g, 0, 1) == pytest.approx(1.03e-6, rel=0.01)
    assert spacing(g, 0, 2) == pytest.approx(2.0 * spacing(g, 0, 1), rel=1e-9)
    assert spacing(g, 0, 1) == spacing(g, 1, 0)


@pytest.mark.parametrize("i,j", [(-1, 0), (0, 3), (3, 3), (0, -2)])
def test_spacing_index_errors(i, j):
    g = equilibrium_positions(3, trap_10mhz())
    with pytest.raises(IndexError):
        spacing(g, i, j)
