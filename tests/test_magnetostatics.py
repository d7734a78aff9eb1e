import numpy as np
import pytest

from iongradim.constants import Vec3, constants, norm
from iongradim.errors import ConfigurationError, FieldSingularityError
from iongradim.magnetostatics import (DipoleSource, axial_bz, compensation_gradient,
                                      differential_field, dipole_field,
                                      total_differential_field)

MU_B = constants().bohr_magneton
MU_E = abs(constants().electron_magnetic_moment)


def z_dipole(moment=MU_B, z0=0.0) -> DipoleSource:
    return DipoleSource(Vec3(0.0, 0.0, z0), Vec3(0.0, 0.0, moment))


# ---------------------------------------------------------------------------
# dipole_field

def test_on_axis_hand_value():
    # hand evaluation: Bz = 2e-7 * mu_B / (1 um)^3
    expected = 2e-7 * MU_B / (1e-6) ** 3
    b = dipole_field(z_dipole(), Vec3(0.0, 0.0, 1e-6))
    assert b.z == pytest.approx(expected, rel=1e-13)
    assert b.z == pytest.approx(1.8548020157e-12, rel=1e-9)
    assert b.x == 0.0 and b.y == 0.0


def test_zero_moment_gives_zero_field():
    src = z_dipole(moment=0.0)
    for point in (Vec3(1e-6, 0, 0), Vec3(0, 2e-6, 3e-6), Vec3(-1e-6, 1e-6, -1e-6)):
        b = dipole_field(src, point)
        assert (b.x, b.y, b.z) == (0.0, 0.0, 0.0)


def test_equatorial_point_antiparallel_half_magnitude():
    r = 1e-6
    b_axial = dipole_field(z_dipole(), Vec3(0.0, 0.0, r))
    b_equatorial = dipole_field(z_dipole(), Vec3(r, 0.0, 0.0))
    assert b_equatorial.z == pytest.approx(-0.5 * b_axial.z, rel=1e-12)
    assert b_equatorial.x == pytest.approx(0.0, abs=1e-30)


def test_singularity_guard():
    with pytest.raises(FieldSingularityError):
        dipole_field(z_dipole(), Vec3(0.0, 0.0, 0.5e-9))
    with pytest.raises(FieldSingularityError):
        axial_bz(z_dipole(), 0.0)


def test_linearity_in_moment():
    point = Vec3(0.7e-6, -0.2e-6, 1.1e-6)
    b1 = dipole_field(z_dipole(moment=MU_B), point)
    b2 = dipole_field(z_dipole(moment=2.0 * MU_B), point)
    for a, b in zip((b1.x, b1.y, b1.z), (b2.x, b2.y, b2.z)):
        assert b == pytest.approx(2.0 * a, rel=1e-12)


def test_divergence_free_off_axis():
    # central finite differences of the field at random off-axis points
    rng = np.random.default_rng(5)
    src = z_dipole(moment=MU_E)
    for _ in range(25):
        p = rng.uniform(0.5e-6, 3e-6, size=3) * rng.choice([-1.0, 1.0], size=3)
        r = float(np.linalg.norm(p))
        h = 1e-4 * r
        div = 0.0
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = h
            b_plus = dipole_field(src, Vec3(*(p + step)))
            b_minus = dipole_field(src, Vec3(*(p - step)))
            div += ((b_plus.x, b_plus.y, b_plus.z)[axis]
                    - (b_minus.x, b_minus.y, b_minus.z)[axis]) / (2.0 * h)
        scale = norm(dipole_field(src, Vec3(*p))) / r
        assert abs(div) < 1e-6 * scale


# ---------------------------------------------------------------------------
# axial_bz

def test_distance_cubed_ratio_is_8():
    d = 1.03e-6
    ratio = axial_bz(z_dipole(MU_E), d) / axial_bz(z_dipole(MU_E), 2.0 * d)
    assert ratio == pytest.approx(8.0, rel=1e-10)


def test_log_log_slope_is_minus_3():
    src = z_dipole(MU_E)
    distances = np.geomspace(0.3e-6, 30e-6, 12)
    values = np.array([axial_bz(src, d) for d in distances])
    slopes = np.diff(np.log(values)) / np.diff(np.log(distances))
    assert np.max(np.abs(slopes + 3.0)) < 1e-8


def test_field_decays_monotonically():
    src = z_dipole()
    values = [axial_bz(src, d) for d in np.linspace(0.5e-6, 50e-6, 100)]
    assert all(a > b > 0 for a, b in zip(values, values[1:]))


def test_axial_bz_matches_dipole_field_z():
    rng = np.random.default_rng(17)
    for _ in range(50):
        z0 = rng.uniform(-2e-6, 2e-6)
        z = z0 + rng.choice([-1.0, 1.0]) * rng.uniform(0.2e-6, 5e-6)
        m = rng.uniform(0.1, 3.0) * MU_B * rng.choice([-1.0, 1.0])
        src = z_dipole(moment=m, z0=z0)
        full = dipole_field(src, Vec3(0.0, 0.0, z)).z
        assert axial_bz(src, z) == pytest.approx(full, rel=1e-15)


# ---------------------------------------------------------------------------
# differential_field and compensation

def probe_pair(d=1.03e-6):
    # mirrors the three-ion layout: source at origin, probes at -d and -2d
    return Vec3(0.0, 0.0, -2.0 * d), Vec3(0.0, 0.0, -d)


def test_differential_zero_for_equal_points():
    p = Vec3(0.0, 0.0, -1e-6)
    assert differential_field(z_dipole(), p, p) == 0.0


def test_differential_matches_three_ion_fields():
    far, near = probe_pair()
    src = z_dipole(MU_E)
    b_near = axial_bz(src, near.z)
    b_far = axial_bz(src, far.z)
    assert b_near / b_far == pytest.approx(8.0, rel=1e-10)
    assert differential_field(src, far, near) == pytest.approx(b_near - b_far, rel=1e-12)


def test_differential_antisymmetry():
    far, near = probe_pair()
    src = z_dipole(MU_E)
    assert differential_field(src, far, near) == -differential_field(src, near, far)


def test_compensation_cancels_spin_up_and_doubles_spin_down():
    far, near = probe_pair()
    src_up = z_dipole(MU_E)
    delta = differential_field(src_up, far, near)
    gradient = compensation_gradient(src_up, far, near)
    total_up = total_differential_field(src_up, far, near, gradient)
    total_down = total_differential_field(src_up.flipped(), far, near, gradient)
    assert abs(total_up) < 1e-12 * abs(delta)
    assert abs(total_down) == pytest.approx(2.0 * abs(delta), rel=1e-12)


@pytest.mark.parametrize("moment, z0", [(MU_E, 0.0), (-MU_B, 0.5e-6), (3.0 * MU_B, -7e-6)])
def test_compensation_gradient_is_the_slope(moment, z0):
    far, near = probe_pair()
    src = z_dipole(moment, z0)
    gradient = compensation_gradient(src, far, near)
    assert gradient * (near.z - far.z) == pytest.approx(-differential_field(src, far, near),
                                                        rel=1e-12)


def test_compensation_null_source():
    far, near = probe_pair()
    gradient = compensation_gradient(z_dipole(moment=0.0), far, near)
    assert gradient == 0.0


def test_compensation_degenerate_pair():
    p = Vec3(0.0, 0.0, -1e-6)
    with pytest.raises(ConfigurationError):
        compensation_gradient(z_dipole(), p, p)
