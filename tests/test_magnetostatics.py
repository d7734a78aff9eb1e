import math
import struct
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from iongradim.constants import Vec3, constants, norm
from iongradim.errors import ConfigurationError, FieldSingularityError
from iongradim.magnetostatics import (MU0_OVER_4PI, DipoleSource, axial_bz,
                                      axial_field_table, compensation_gradient,
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


@pytest.mark.parametrize("evaluate", [
    lambda src: dipole_field(src, Vec3(0.0, 0.0, 1e-6)),
    lambda src: axial_bz(src, 1e-6),
], ids=["dipole_field", "axial_bz"])
def test_overflowing_field_is_a_config_error(evaluate):
    with pytest.raises(ConfigurationError, match="overflows a float"):
        evaluate(z_dipole(moment=1e300))


def test_overflowing_compensation_gradient_is_a_config_error():
    # both fields and their difference fit a float; the slope over 1 um does not
    src, p1, p2 = z_dipole(moment=1e295), Vec3(0.0, 0.0, 1e-6), Vec3(0.0, 0.0, 2e-6)
    assert np.isfinite(differential_field(src, p1, p2))
    with pytest.raises(ConfigurationError, match="overflows a float"):
        compensation_gradient(src, p1, p2)


# The cube of a distance overflows a float beyond (max float)^(1/3) ~ 5.64e102 m;
# past that point the field is divided by the distance three times instead.
CUBE_LIMIT = float(np.finfo(float).max) ** (1.0 / 3.0)


@pytest.mark.parametrize("dist", [5.6e102, 5.7e102, 1e103, 1e150])
@pytest.mark.parametrize("evaluate", [
    lambda src, d: dipole_field(src, Vec3(0.0, 0.0, d)).z,
    lambda src, d: axial_bz(src, d),
], ids=["dipole_field", "axial_bz"])
def test_field_beyond_the_cube_limit_is_finite_and_follows_r3(evaluate, dist):
    moment = 1e300
    bz = evaluate(z_dipole(moment=moment), dist)
    assert bz == pytest.approx(2e-7 * moment / dist / dist / dist, rel=1e-15, abs=0.0)
    assert (dist < CUBE_LIMIT) == (dist == 5.6e102)   # both sides of the overflow point


def test_field_beyond_the_cube_limit_hand_value_and_underflow():
    # 2e-7 * 1e300 / (1e103)^3 = 2e-16 T, not 0; a Bohr magneton that far gives 0
    assert axial_bz(z_dipole(moment=1e300), 1e103) == pytest.approx(2e-16, rel=1e-14, abs=0.0)
    assert dipole_field(z_dipole(moment=1e300), Vec3(0.0, 0.0, -1e103)).z == pytest.approx(
        2e-16, rel=1e-14, abs=0.0)
    assert axial_bz(z_dipole(), 1e200) == 0.0
    assert dipole_field(z_dipole(), Vec3(0.0, 1e200, 0.0)) == Vec3(0.0, 0.0, 0.0)


@pytest.mark.parametrize("dist", [1e101, 5.6e102])
@pytest.mark.parametrize("evaluate", [
    lambda src, d: dipole_field(src, Vec3(0.0, 0.0, d)).z,
    lambda src, d: axial_bz(src, d),
], ids=["dipole_field", "axial_bz"])
def test_field_where_the_scale_is_subnormal_keeps_full_precision(evaluate, dist):
    # from ~1.7e100 m to the cube limit mu0/4pi / dist^3 is subnormal; a field
    # scaled by it kept only 27-44 bits, so the distance is divided out step by step
    moment = 1e300
    exact = 2 * Fraction(MU0_OVER_4PI) * Fraction(moment) / Fraction(dist) ** 3
    assert MU0_OVER_4PI / dist ** 3 < np.finfo(float).tiny
    bz = evaluate(z_dipole(moment=moment), dist)
    assert abs(Fraction(bz) - exact) <= Fraction(1e-15) * exact


# ---------------------------------------------------------------------------
# axial_field_table: the field table's kernel against the per-point loop

# Distances where a guard starts: the scale mu0/4pi / dist^3 turns subnormal
# (~1.65e100 m), the cube overflows (~5.64e102 m), dz*dz overflows (~1.34e154 m).
GUARD_EDGES = (float((Fraction(MU0_OVER_4PI) / Fraction(np.finfo(float).tiny)) ** (1 / 3)),
               CUBE_LIMIT, math.sqrt(np.finfo(float).max))
EDGE_DISTANCES = tuple(edge * f for edge in GUARD_EDGES for f in (1 - 1e-13, 1.0, 1 + 1e-13))
EDGE_GRID = (*EDGE_DISTANCES, 1e160)

distances = st.one_of(st.floats(-9.0, 160.0).map(lambda e: 10.0 ** e),
                      st.sampled_from(EDGE_DISTANCES))
moments = st.one_of(st.sampled_from((0.0, 1e300, -1e300, MU_B, -MU_E)),
                    st.floats(-1e-20, 1e-20))


def _bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def _outcome(evaluate):
    """Field bits, or the type and message of the error the evaluation raised."""
    try:
        return _bits(list(evaluate()))
    except (ConfigurationError, FieldSingularityError) as error:
        return type(error), str(error)


@given(z0=st.one_of(st.just(0.0), st.floats(-1e-5, 1e-5)), moment=moments,
       flip=st.booleans(),
       offsets=st.lists(st.tuples(distances, st.sampled_from((-1.0, 1.0))), max_size=40),
       near=st.one_of(st.none(), st.tuples(st.integers(0, 40), st.sampled_from((0.0, 5e-10)))))
@example(z0=0.0, moment=1e300, flip=False, offsets=[(d, 1.0) for d in EDGE_GRID], near=None)
@example(z0=-3e-6, moment=-MU_B, flip=True,
         offsets=[(d, -1.0) for d in (1e-9, 1e-6, *EDGE_GRID)], near=None)
@example(z0=0.0, moment=0.0, flip=False, offsets=[(d, s) for d in EDGE_GRID for s in (-1, 1)],
         near=None)
@example(z0=0.0, moment=0.0, flip=True, offsets=[(d, s) for d in EDGE_GRID for s in (-1, 1)],
         near=None)
def test_axial_field_table_is_the_per_point_loop_bit_for_bit(z0, moment, flip, offsets, near):
    # bits, -0.0 included, or the loop's error type and message for its first failing point;
    # `near` puts one point inside the 1 nm guard at a drawn place in the table
    src = z_dipole(moment, z0).flipped() if flip else z_dipole(moment, z0)
    if near is not None:
        offsets.insert(near[0], (near[1], 1.0))
    zs = np.array([z0 + sign * d for d, sign in offsets])
    loop = _outcome(lambda: (dipole_field(src, Vec3(0.0, 0.0, z)).z for z in zs.tolist()))
    assert _outcome(lambda: axial_field_table(src, zs)) == loop


def test_axial_field_table_grid_crosses_every_guard():
    # the edge grid lies on both sides of each guard, as the property's examples assume
    below, above = EDGE_DISTANCES[0::3], EDGE_DISTANCES[2::3]
    assert all(b < edge < a for b, edge, a in zip(below, GUARD_EDGES, above))
    scale_edge, cube_edge, square_edge = zip(below, above)
    assert MU0_OVER_4PI / scale_edge[0] ** 3 >= np.finfo(float).tiny
    assert MU0_OVER_4PI / scale_edge[1] ** 3 < np.finfo(float).tiny
    assert math.isfinite(cube_edge[0] ** 3)
    with pytest.raises(OverflowError):
        cube_edge[1] ** 3
    assert math.isfinite(square_edge[0] * square_edge[0])
    assert square_edge[1] * square_edge[1] == math.inf


def test_axial_field_table_rejects_an_off_axis_source():
    for src in (DipoleSource(Vec3(1e-6, 0.0, 0.0), Vec3(0.0, 0.0, MU_B)),
                DipoleSource(Vec3(0.0, 0.0, 0.0), Vec3(0.0, MU_B, MU_B))):
        with pytest.raises(ValueError):
            axial_field_table(src, np.array([1e-6]))


# ---------------------------------------------------------------------------
# a flipped source negates every field component exactly

def _negated(evaluate, flipped_evaluate):
    """Whether the flipped evaluation is the exact negation, or raises the same error.

    Zeros compare equal whatever their sign: x - y of equal x and y is +0.0
    for either spin.
    """
    try:
        values = list(evaluate())
    except (ConfigurationError, FieldSingularityError) as error:
        with pytest.raises(type(error)) as raised:
            list(flipped_evaluate())
        return str(raised.value) == str(error)
    return list(flipped_evaluate()) == [-v for v in values]


offsets = st.one_of(st.just(0.0), st.tuples(distances, st.sampled_from((-1.0, 1.0))).map(
    lambda pair: pair[0] * pair[1]))
vectors = st.builds(Vec3, moments, moments, moments)


@given(position=st.builds(Vec3, *3 * [st.floats(-1e-5, 1e-5)]), moment=vectors,
       offset=st.builds(Vec3, offsets, offsets, offsets))
def test_flipped_source_negates_every_dipole_field_component(position, moment, offset):
    src = DipoleSource(position, moment)
    point = position + offset
    assert _negated(lambda: astuple(dipole_field(src, point)),
                    lambda: astuple(dipole_field(src.flipped(), point)))


@given(z0=st.one_of(st.just(0.0), st.floats(-1e-5, 1e-5)), moment=moments,
       zs=st.lists(offsets, min_size=1, max_size=40))
def test_flipped_source_negates_the_axial_field(z0, moment, zs):
    src = z_dipole(moment, z0)
    zs = np.array(zs) + z0
    assert _negated(lambda: axial_field_table(src, zs),
                    lambda: axial_field_table(src.flipped(), zs))
    for z in zs.tolist():
        assert _negated(lambda: [axial_bz(src, z)], lambda: [axial_bz(src.flipped(), z)])


# ---------------------------------------------------------------------------
# scaling every distance by lam scales every field by lam^-3

SCALE_BOUND = Fraction(2) ** -46   # 64 ulps of a field at 2^-52 each, stated before any run
TINY = np.finfo(float).tiny

unit_components = st.one_of(st.just(0.0), st.tuples(
    st.floats(1e-3, 1.0), st.sampled_from((-1.0, 1.0))).map(lambda pair: pair[0] * pair[1]))
directions = st.tuples(unit_components, unit_components, unit_components).filter(any)
magnitudes = st.floats(-30.0, 300.0).map(lambda e: 10.0 ** e)


def _evaluations(moment, point):
    """For a source at the origin: dipole_field at point, and axial_bz and
    axial_field_table at the point's distance on the axis; None if any raises."""
    z = math.copysign(norm(point), point.z)
    try:
        return (astuple(dipole_field(DipoleSource(Vec3(0.0, 0.0, 0.0), moment), point)),
                [axial_bz(z_dipole(moment.z), z)],
                axial_field_table(z_dipole(moment.z), np.array([z])).tolist())
    except (ConfigurationError, FieldSingularityError):
        return None


def _flat(evaluations):
    vector, bz, table = evaluations
    return [*vector, *bz, *table]


def _plain(dist):
    """Whether the field at dist takes no guarded step: outside 1 nm, with a
    finite cube and a normal scale mu0/4pi / dist^3."""
    return dist >= MIN_DIST and dist < CUBE_LIMIT and MU0_OVER_4PI / dist ** 3 >= TINY


MIN_DIST = 1e-9


@given(direction=directions, dist=st.floats(-9.0, 100.0).map(lambda e: 10.0 ** e),
       moment_direction=directions, magnitude=magnitudes, k=st.integers(-60, 60))
def test_a_power_of_two_distance_scale_scales_every_field_exactly(direction, dist,
                                                                  moment_direction,
                                                                  magnitude, k):
    # where nothing overflows or underflows, lam = 2^k scales each step exactly
    lam = 2.0 ** k
    point = Vec3(*(dist * u for u in direction))
    moment = Vec3(*(magnitude * u for u in moment_direction))
    assume(_plain(norm(point)) and _plain(norm(point * lam)))
    near, far = _evaluations(moment, point), _evaluations(moment, point * lam)
    assume(near is not None and far is not None)
    assume(all(v == 0.0 or TINY <= abs(v) for v in _flat(near) + _flat(far)))
    assert _flat(far) == [v * lam ** -3 for v in _flat(near)]


@given(direction=directions, dist=st.one_of(st.floats(-9.0, 150.0).map(lambda e: 10.0 ** e),
                                            st.sampled_from(EDGE_DISTANCES[:6])),
       moment_direction=directions, magnitude=magnitudes,
       lam=st.one_of(st.floats(-20.0, 20.0).map(lambda e: 10.0 ** e),
                     st.integers(-60, 60).map(lambda k: 2.0 ** k)))
@example(direction=(0.0, 0.0, 1.0), dist=1e101, moment_direction=(0.0, 0.0, 1.0),
         magnitude=1e300, lam=3.0)   # scale subnormal on both sides: divided step by step
@example(direction=(0.0, 0.6, 0.8), dist=1e99, moment_direction=(1.0, 0.0, 1.0),
         magnitude=1e290, lam=1e4)   # the scaled point's cube overflows
def test_any_distance_scale_scales_every_field_within_the_bound(direction, dist,
                                                                moment_direction, magnitude,
                                                                lam):
    # distances up to 1e150 m, through the step-by-step division past ~1.7e100 m
    # and the overflowing cube past ~5.6e102 m. Each dipole_field component
    # times lam^3 is within SCALE_BOUND of the field's length (the scaled
    # point is rounded component by component); each axial field times the
    # cube of the exact ratio of the two distances, within SCALE_BOUND of itself
    point = Vec3(*(dist * u for u in direction))
    moment = Vec3(*(magnitude * u for u in moment_direction))
    scaled = point * lam
    d0, d1 = norm(point), norm(scaled)
    assume(MIN_DIST <= min(d0, d1) and max(d0, d1) <= 1e150)
    near, far = _evaluations(moment, point), _evaluations(moment, scaled)
    assume(near is not None and far is not None)
    (vector0, bz0, table0), (vector1, bz1, table1) = near, far
    lengths = norm(Vec3(*vector0)), norm(Vec3(*vector1))
    assume(TINY <= min(lengths) <= max(lengths) < math.inf and min(map(abs, bz0 + bz1)) >= TINY)
    for got, want in zip(vector1, vector0):
        assert (abs(Fraction(got) * Fraction(lam) ** 3 - Fraction(want))
                <= SCALE_BOUND * Fraction(lengths[0]))
    ratio = (Fraction(d1) / Fraction(d0)) ** 3
    for got, want in zip(bz1 + table1, bz0 + table0):
        assert abs(Fraction(got) * ratio - Fraction(want)) <= SCALE_BOUND * abs(Fraction(want))
