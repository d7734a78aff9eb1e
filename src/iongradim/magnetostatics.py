"""Point-dipole magnetostatics for the probe geometry.

The field of a point dipole with moment vector m at displacement r is

    B(r) = (mu0 / 4 pi) * (3 rhat (m . rhat) - m) / |r|^3

falling off as distance^-3. Spin states of the sensed particle map to
moments +-|mu| zhat along the quantization axis, so a spin flip reverses
every field component. A uniform external gradient of equal magnitude and
opposite sign cancels the dipole's differential field across the probe
pair for one spin orientation and doubles it for the other.

`axial_field_table` is the on-axis kernel of the `field` command's table:
one numpy pass over the points, bit for bit equal to `dipole_field(...).z`
at each. It keeps dipole_field's operations in their order, its guards (1 nm
singularity, step-by-step division where the cube overflows or the scale is
subnormal, non-finite field) and its cube, taken by libm `pow` through
Python's float `**`: numpy's `** 3` and `np.power` round differently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .constants import Vec3, dot, norm
from .errors import ConfigurationError, FieldSingularityError

# mu0/(4 pi), exact under the defined permeability 4 pi * 1e-7 H/m.
MU0_OVER_4PI = 1e-7  # T*m/(J/T)

# All physical scenarios keep probes >= 100 nm from the source; anything
# inside 1 nm is treated as a coincident-point request.
MIN_SOURCE_DISTANCE = 1e-9  # m


@dataclass(frozen=True)
class DipoleSource:
    """A point magnetic dipole: position (m) and moment vector (J/T)."""

    position: Vec3
    moment: Vec3

    def flipped(self) -> "DipoleSource":
        """Source with the spin (moment) reversed."""
        return DipoleSource(self.position, -self.moment)


def dipole_field(source: DipoleSource, point: Vec3) -> Vec3:
    """Dipole field vector (T) at a point; raises within 1 nm of the source."""
    r = point - source.position
    dist = norm(r)
    _require_clear(dist)
    rhat = r * (1.0 / dist)
    m_dot_rhat = dot(source.moment, rhat)
    direction = 3.0 * m_dot_rhat * rhat - source.moment
    scale = MU0_OVER_4PI / _cube(dist)
    if scale >= sys.float_info.min:
        field = direction * scale
    else:   # a subnormal scale (beyond ~1.7e100 m) would drop bits: divide step by step
        field = Vec3(*(MU0_OVER_4PI * c / dist / dist / dist
                       for c in (direction.x, direction.y, direction.z)))
    _require_finite(dist, field.x, field.y, field.z)
    return field


def axial_field_table(source: DipoleSource, zs: np.ndarray) -> np.ndarray:
    """Bz (T) at each axial point of zs, equal bit for bit to dipole_field(...).z there.

    The source must sit on the axis with an axial moment. Every step is
    dipole_field's, point by point:

        dz = z - z_source, dist = sqrt(dz*dz), rhz = dz * (1/dist),
        m_dot = (m_x*0 + m_y*0) + m_z*rhz,
        Bz = ((3*m_dot)*rhz - m_z) * (mu0/4pi / dist**3)

    with dist**3 taken by libm `pow` and read as inf where it overflows
    (beyond ~5.6e102 m), and the field divided by dist step by step where
    the scale is subnormal (beyond ~1.7e100 m). Where dz*dz overflows
    (beyond ~1.34e154 m) dist is inf and Bz a signed zero. The first point
    in table order that dipole_field rejects raises its error and message:
    FieldSingularityError within 1 nm, ConfigurationError for a non-finite
    field.
    """
    moment, position = source.moment, source.position
    if moment.x or moment.y or position.x or position.y:
        raise ValueError("axial_field_table needs an on-axis source with an axial moment")
    with np.errstate(all="ignore"):   # failing points are found and raised below
        dz = np.asarray(zs, dtype=float) - position.z
        dist = np.sqrt(dz * dz)
        rhz = dz * (1.0 / dist)
        # the x and y terms of m . rhat are zeros signed like the moment's components
        m_dot = (moment.x * 0.0 + moment.y * 0.0) + moment.z * rhz
        direction = (3.0 * m_dot) * rhz - moment.z
        dists = dist.tolist()
        scale = MU0_OVER_4PI / np.array([_cube(d) for d in dists])
        field = np.where(scale >= sys.float_info.min, direction * scale,
                         MU0_OVER_4PI * direction / dist / dist / dist)
        bad = (dist < MIN_SOURCE_DISTANCE) | ~np.isfinite(field)
    if bad.any():
        first = int(bad.argmax())
        _require_clear(dists[first])
        _require_finite(dists[first], float(field[first]))
    return field


def axial_bz(source: DipoleSource, z: float) -> float:
    """Axial field component (T) at axial coordinate z, for axial displacement.

    On-axis specialization of the dipole law: Bz = 2 (mu0/4pi) m_z / |dz|^3.
    Only the axial moment component contributes to Bz on the axis.
    """
    dist = abs(z - source.position.z)
    _require_clear(dist)
    cube = _cube(dist)
    if cube == math.inf:   # the cube passes the float range, beyond ~5.6e102 m
        bz = 2.0 * MU0_OVER_4PI * source.moment.z / dist / dist / dist
    else:
        bz = 2.0 * MU0_OVER_4PI * source.moment.z / cube
    _require_finite(dist, bz)
    return bz


def _cube(dist: float) -> float:
    """dist ** 3 by libm pow, as Python's float `**` takes it; inf where the cube overflows."""
    try:
        return dist ** 3
    except OverflowError:   # the cube passes the float range, beyond ~5.6e102 m
        return math.inf


def _require_clear(dist: float) -> None:
    """FieldSingularityError if a field is requested within 1 nm of the source."""
    if dist < MIN_SOURCE_DISTANCE:
        raise FieldSingularityError(
            f"field requested {dist:.3e} m from the source (guard {MIN_SOURCE_DISTANCE:.0e} m)")


def _require_finite(dist: float, *components: float) -> None:
    """ConfigurationError unless every field component computed at dist fits a float."""
    if not all(map(math.isfinite, components)):
        raise ConfigurationError(f"dipole field at {dist:.3e} m from the source overflows "
                                 "a float: the source moment is too large")


def differential_field(source: DipoleSource, p1: Vec3, p2: Vec3) -> float:
    """Signed axial field difference Bz(p2) - Bz(p1) across the probe pair (T)."""
    return dipole_field(source, p2).z - dipole_field(source, p1).z


def compensation_gradient(source: DipoleSource, p1: Vec3, p2: Vec3) -> float:
    """External gradient dBz/dz (T/m) cancelling the source's differential field over (p1, p2).

    With the source spin up, the combined differential field is zero and the
    probe parity stays constant; flipping the spin reverses the dipole term,
    so the combined magnitude becomes twice the uncompensated value.
    """
    dz = p2.z - p1.z
    if abs(dz) < MIN_SOURCE_DISTANCE:
        raise ConfigurationError("degenerate probe pair: p1 and p2 coincide on the axis")
    gradient = -differential_field(source, p1, p2) / dz
    if not math.isfinite(gradient):
        raise ConfigurationError(f"compensation gradient {gradient} T/m overflows a float: "
                                 "the source moment is too large")
    return gradient


def total_differential_field(source: DipoleSource, p1: Vec3, p2: Vec3,
                             dbz_dz: float) -> float:
    """Dipole plus external-gradient differential field across (p1, p2) in teslas.

    The gradient field dbz_dz * (z - mid) is taken as zero at the pair midpoint.
    """
    mid = (p1.z + p2.z) * 0.5
    return differential_field(source, p1, p2) + dbz_dz * (p2.z - mid) - dbz_dz * (p1.z - mid)
