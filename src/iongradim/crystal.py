"""Equilibrium positions of N identical ions in a linear harmonic trap.

The equilibrium is solved in dimensionless form. With the length scale

    l = (q^2 / (4 pi eps0 m omega_z^2))^(1/3)

the force balance for the scaled coordinates u_i reads

    u_i = sum_{j<i} (u_i - u_j)^-2  -  sum_{j>i} (u_j - u_i)^-2

which is solved by damped Newton iteration and scaled back to meters.
Solving dimensionless first keeps the conditioning independent of trap
parameters, and lets one solve per ion count serve every trap. For three
ions the outer coordinates are (5/4)^(1/3) = 1.0772, which sets the
frequently quoted adjacent spacing d12 = 1.077 * l.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import constants
from .errors import Bound, ConfigurationError, SolverError, bounded, check_fields

log = logging.getLogger(__name__)

N_IONS = Bound(1, 30, integer=True)   # the chain lengths equilibrium_positions solves
_POSITIVE = Bound(0, exclusive_minimum=True)   # each TrapConfig parameter
_NEWTON_CAP = 200          # iteration cap before SolverError
_RESIDUAL_TOL = 1e-12      # max dimensionless net force per ion


@dataclass(frozen=True)
class TrapConfig:
    """Axial harmonic trap and ion species parameters.

    axial_frequency is the angular frequency omega_z in rad/s. Mixed-species
    crystals are treated with identical charge and the logic-ion mass for
    every site; mass-dependent spacing corrections are out of scope.
    """

    axial_frequency: float = bounded(_POSITIVE)                           # rad/s
    ion_mass: float = bounded(_POSITIVE)                                  # kg
    ion_charge: float = bounded(_POSITIVE, constants().elementary_charge)  # C

    __post_init__ = check_fields


@dataclass(frozen=True)
class CrystalGeometry:
    """Solved axial equilibrium: ascending ion coordinates (m) and the length scale."""

    positions: tuple[float, ...]   # m, strictly ascending, center of mass at 0
    length_scale: float            # m

    @property
    def n_ions(self) -> int:
        return len(self.positions)


def length_scale(trap: TrapConfig) -> float:
    """Characteristic Coulomb/trap length l = (q^2/(4 pi eps0 m w^2))^(1/3) in meters.

    Raises ConfigurationError when l under- or overflows a float.
    """
    c = constants()
    q, m, w = trap.ion_charge, trap.ion_mass, trap.axial_frequency
    denominator = 4.0 * np.pi * c.vacuum_permittivity * m * w * w
    ell = (q * q / denominator) ** (1.0 / 3.0) if denominator else math.inf
    if not 0 < ell < math.inf:
        raise ConfigurationError(f"trap length scale {ell} m: the trap frequency, mass "
                                 "or charge overflow a float")
    return ell


def _net_forces(u: np.ndarray) -> np.ndarray:
    """Dimensionless net force on each ion (zero at equilibrium)."""
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    return u - np.sum(np.sign(d) / (d * d), axis=1)


def _jacobian(u: np.ndarray) -> np.ndarray:
    ad = np.abs(u[:, None] - u[None, :])
    np.fill_diagonal(ad, np.inf)
    j = -2.0 / (ad * ad * ad)
    np.fill_diagonal(j, 0.0)
    np.fill_diagonal(j, 1.0 - j.sum(axis=1))
    return j


def equilibrium_positions(n_ions: int, trap: TrapConfig) -> CrystalGeometry:
    """Solve the linear-chain equilibrium for n_ions (1..30).

    The dimensionless chain reads only n_ions, so it is solved once per ion
    count per process (_unit_chain) and scaled by the trap's length_scale.
    Raises SolverError when that solve fails; a failed solve is not kept.
    """
    N_IONS.check("n_ions", n_ions)
    ell = length_scale(trap)
    return CrystalGeometry(positions=tuple(float(z) for z in _unit_chain(n_ions) * ell),
                           length_scale=ell)


@lru_cache(maxsize=N_IONS.maximum)
def _unit_chain(n_ions: int) -> np.ndarray:
    """Dimensionless equilibrium of n_ions, center of mass at 0; read-only, shared by calls.

    Damped Newton iteration on the force-balance system, initialized from a
    uniformly spaced guess. Each step is halved, at most 60 times, until the
    ions stay ordered and the residual decreases. Raises SolverError,
    carrying the residual of the last accepted point, when no halving lowers
    it or when the residual does not drop below 1e-12 within the iteration
    cap. The cache holds every valid n_ions, so nothing is evicted.
    """
    # Uniform symmetric guess; the 2/n^(1/3) pitch tracks the true inner
    # spacing well enough for Newton to converge in a handful of steps.
    u = (np.arange(n_ions) - (n_ions - 1) / 2.0) * (2.0 / n_ions ** (1.0 / 3.0))
    forces = _net_forces(u)
    residual = float(np.abs(forces).max())
    for iteration in range(_NEWTON_CAP):
        if residual < _RESIDUAL_TOL:
            break
        step = np.linalg.solve(_jacobian(u), forces)
        scale = 1.0
        for _ in range(60):
            trial = u - scale * step
            if (trial[1:] > trial[:-1]).all():
                trial_forces = _net_forces(trial)
                trial_residual = float(np.abs(trial_forces).max())
                if trial_residual < residual:
                    break
            scale *= 0.5
        else:
            raise SolverError(f"no Newton step lowers the residual for {n_ions} ions", residual)
        u, forces, residual = trial, trial_forces, trial_residual
    else:
        raise SolverError(f"equilibrium solve for {n_ions} ions did not converge", residual)
    log.debug("equilibrium n=%d converged: residual %.2e after %d iterations",
              n_ions, residual, iteration)

    u = u - u.mean()   # pin the center of mass; equilibrium has sum(u) = 0 exactly
    u.flags.writeable = False
    return u


def spacing(geometry: CrystalGeometry, i: int, j: int) -> float:
    """Distance |z_j - z_i| in meters between ions i and j (0-based indices)."""
    n = geometry.n_ions
    for idx in (i, j):
        if not isinstance(idx, int) or not (0 <= idx < n):
            raise IndexError(f"ion index {idx!r} out of range for {n}-ion crystal")
    return abs(geometry.positions[j] - geometry.positions[i])
