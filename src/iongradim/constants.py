"""Physical constants (SI) and minimal 3-vector support shared by all modules.

Everything downstream works in base SI units; there is no unit-conversion
layer. The electron magnetic moment is stored signed (negative); operations
that need the field magnitude take abs() at the point of use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    elementary_charge: float        # C
    vacuum_permittivity: float      # F/m
    vacuum_permeability: float      # H/m, exactly 4*pi*1e-7
    bohr_magneton: float            # J/T
    electron_magnetic_moment: float  # J/T, signed (negative)
    reduced_planck: float           # J*s
    atomic_mass_unit: float         # kg
    ca40_g_factor: float            # Ca+ S_1/2 ground-state Lande factor


# CODATA 2018 values. The reference estimate this simulator reproduces quotes
# an intrinsic moment of -9284.764e-26 J/T, 10x the CODATA magnitude; that
# figure is treated as a typo and recorded in the README, not used here.
_CONSTANTS = PhysicalConstants(
    elementary_charge=1.602176634e-19,
    vacuum_permittivity=8.8541878128e-12,
    vacuum_permeability=4.0e-7 * math.pi,
    bohr_magneton=9.2740100783e-24,
    electron_magnetic_moment=-9.2847647043e-24,
    reduced_planck=1.054571817e-34,
    atomic_mass_unit=1.66053906660e-27,
    ca40_g_factor=2.00225664,
)


def constants() -> PhysicalConstants:
    """Return the single authoritative constant set (identical on every call)."""
    return _CONSTANTS


@dataclass(frozen=True)
class Vec3:
    """Cartesian 3-vector. Units (meters, teslas, J/T) are carried by context."""

    x: float
    y: float
    z: float

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)


def dot(a: Vec3, b: Vec3) -> float:
    """Euclidean inner product."""
    return a.x * b.x + a.y * b.y + a.z * b.z


def norm(a: Vec3) -> float:
    """Euclidean length; 0 iff a is the zero vector."""
    return math.sqrt(a.x * a.x + a.y * a.y + a.z * a.z)
