"""Point-dipole magnetostatics for the probe geometry.

The field of a point dipole with moment vector m at displacement r is

    B(r) = (mu0 / 4 pi) * (3 rhat (m . rhat) - m) / |r|^3

falling off as distance^-3. Spin states of the sensed particle map to
moments +-|mu| zhat along the quantization axis, so a spin flip reverses
every field component. A uniform external gradient of equal magnitude and
opposite sign cancels the dipole's differential field across the probe
pair for one spin orientation and doubles it for the other.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    if dist < MIN_SOURCE_DISTANCE:
        raise FieldSingularityError(
            f"field requested {dist:.3e} m from the source (guard {MIN_SOURCE_DISTANCE:.0e} m)")
    rhat = r * (1.0 / dist)
    m_dot_rhat = dot(source.moment, rhat)
    return (3.0 * m_dot_rhat * rhat - source.moment) * (MU0_OVER_4PI / dist ** 3)


def axial_bz(source: DipoleSource, z: float) -> float:
    """Axial field component (T) at axial coordinate z, for axial displacement.

    On-axis specialization of the dipole law: Bz = 2 (mu0/4pi) m_z / |dz|^3.
    Only the axial moment component contributes to Bz on the axis.
    """
    dz = z - source.position.z
    if abs(dz) < MIN_SOURCE_DISTANCE:
        raise FieldSingularityError(
            f"axial field requested {abs(dz):.3e} m from the source")
    return 2.0 * MU0_OVER_4PI * source.moment.z / abs(dz) ** 3


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
    return -differential_field(source, p1, p2) / dz


def total_differential_field(source: DipoleSource, p1: Vec3, p2: Vec3,
                             dbz_dz: float) -> float:
    """Dipole plus external-gradient differential field across (p1, p2) in teslas.

    The gradient field dbz_dz * (z - mid) is taken as zero at the pair midpoint.
    """
    mid = (p1.z + p2.z) * 0.5
    return differential_field(source, p1, p2) + dbz_dz * (p2.z - mid) - dbz_dz * (p1.z - mid)
