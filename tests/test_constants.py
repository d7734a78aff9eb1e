import math

import numpy as np
import pytest

from iongradim.constants import Vec3, constants, dot, norm


def test_permeability_is_exactly_4pi_e7():
    assert constants().vacuum_permeability == 4.0e-7 * math.pi


def test_electron_moment_is_codata_and_negative():
    mu = constants().electron_magnetic_moment
    assert mu < 0
    assert mu == pytest.approx(-9.2847647e-24, rel=1e-7)


def test_ca40_g_factor():
    assert constants().ca40_g_factor == pytest.approx(2.00225, rel=1e-5)


def test_all_other_constants_positive():
    c = constants()
    for name in ("elementary_charge", "vacuum_permittivity", "vacuum_permeability",
                 "bohr_magneton", "reduced_planck", "atomic_mass_unit", "ca40_g_factor"):
        assert getattr(c, name) > 0, name


def test_constants_referentially_transparent():
    assert constants() == constants()
    assert constants() is constants()


@pytest.mark.parametrize("a,b,expected", [
    (Vec3(1, 0, 0), Vec3(0, 1, 0), 0.0),
    (Vec3(1, 2, 3), Vec3(1, 2, 3), 14.0),
    (Vec3(2, 0, 0), Vec3(3, 0, 0), 6.0),
])
def test_dot_examples(a, b, expected):
    assert dot(a, b) == expected


@pytest.mark.parametrize("a,expected", [
    (Vec3(0, 0, 0), 0.0),
    (Vec3(3, 4, 0), 5.0),
    (Vec3(0, 0, -2), 2.0),
])
def test_norm_examples(a, expected):
    assert norm(a) == expected


def test_dot_vs_norm_squared_random_vectors():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        v = Vec3(*rng.normal(scale=10.0 ** rng.integers(-6, 7), size=3))
        assert dot(v, v) == pytest.approx(norm(v) ** 2, rel=1e-12)


def test_vector_ops_stay_finite_on_finite_inputs():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = Vec3(*rng.normal(size=3))
        b = Vec3(*rng.normal(size=3))
        for v in (a - b, 2.5 * a, -b):
            assert all(math.isfinite(x) for x in (v.x, v.y, v.z))
        assert math.isfinite(dot(a, b))
        assert math.isfinite(norm(a))
