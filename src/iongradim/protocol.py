"""Probe-state model: preparation, differential Zeeman phase, parity readout.

The probe is a two-branch superposition over ground-state Zeeman sublevels
(m = +-1/2). Each branch assigns one m value per probe ion and the two
branches are spin complements of each other; within every branch the m
values sum to zero, which is the decoherence-free condition: a spatially
uniform field shifts both branches identically and contributes exactly no
relative phase. Only field differences across the ions drive the phase,

    d(phi)/dt = (g mu_B / hbar) * sum_i dm_i B_i,

with dm_i the branch-1 minus branch-2 magnetic quantum number of ion i
(+-1 for complementary patterns). All observables used here depend only on
phi and a contrast factor, so the state is represented by (branch patterns,
contrast) rather than a density matrix, and phi is computed from the fields
(phase_rate, accumulated_phase); for the noise model in use this is exact.

Parity convention: P(phi) = contrast * cos(phi), so P falls from +1 through
the zero crossing at phi = pi/2 to -1 at phi = pi. After the analysis pulse
with adjustable phase beta, the outcome distribution over the 2^N spin
patterns is

    p(s) = (1 + parity(s) * contrast * cos(phi + beta)) / 2^N

with parity(s) the product of the single-ion outcomes (+1 up, -1 down).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import Vec3, constants
from .errors import Bound, ConfigurationError, bounded, check_fields

BELL = "bell"
GHZ = "ghz"

# Default branch patterns (branch 1; branch 2 is the complement).
_BELL_PATTERN = (0.5, -0.5)
_GHZ4_PATTERN = (0.5, -0.5, -0.5, 0.5)   # up, down, (sensed ion), down, up

# Bell-pair branch order with delta_m = (-1, +1): the phase rate is positive
# when the second ion sees the larger field. Physically identical to the
# default order, which only flips the sign of the phase.
PAIR_WEIGHTS = ((-0.5, 0.5), (0.5, -0.5))

TRAJECTORY_POINTS = 101   # default sampling of a parity trajectory
TRAJECTORY_COLUMNS = ("time_s", "phase_rad", "parity")   # a trajectory table's columns

CONTRAST = Bound(0, 1)   # a fringe contrast: the probe's, and the readout's (NoiseModel)


@dataclass(frozen=True)
class ZeemanConfig:
    """Linear Zeeman coupling: the Lande g-factor of the probe transition."""

    g_factor: float = bounded(Bound(0, exclusive_minimum=True))

    __post_init__ = check_fields

    @property
    def gyromagnetic_ratio(self) -> float:
        """g mu_B / hbar in rad/(s T): phase rate per tesla of weighted field."""
        c = constants()
        return self.g_factor * c.bohr_magneton / c.reduced_planck


@dataclass(frozen=True)
class ProbeState:
    """Immutable probe state: ion positions, branch patterns and contrast."""

    kind: str                                   # BELL or GHZ
    ion_positions: tuple[Vec3, ...]             # probe ions only, excluding the sensed spin
    branch_weights: tuple[tuple[float, ...], tuple[float, ...]]  # m values per branch, per ion
    contrast: float = bounded(CONTRAST, 1.0)

    def __post_init__(self):
        n = len(self.ion_positions)
        if self.kind not in (BELL, GHZ):
            raise ConfigurationError(f"unknown probe kind {self.kind!r}")
        if self.kind == BELL and n != 2:
            raise ConfigurationError(f"Bell probe needs exactly 2 ions, got {n}")
        if self.kind == GHZ and (n < 2 or n % 2):
            raise ConfigurationError(f"GHZ probe needs an even ion count >= 2, got {n}")
        b1, b2 = self.branch_weights
        if len(b1) != n or len(b2) != n:
            raise ConfigurationError("branch weight length does not match ion count")
        for branch in (b1, b2):
            if any(abs(w) != 0.5 for w in branch):
                raise ConfigurationError("branch weights must be +-1/2")
            if sum(branch) != 0.0:
                raise ConfigurationError(
                    "branch weights must sum to zero (decoherence-free condition)")
        if any(w1 != -w2 for w1, w2 in zip(b1, b2)):
            raise ConfigurationError("branches must be spin complements of each other")
        check_fields(self)

    @property
    def n_ions(self) -> int:
        return len(self.ion_positions)

    @property
    def delta_m(self) -> tuple[float, ...]:
        """Branch-1 minus branch-2 magnetic quantum number per ion (+-1)."""
        b1, b2 = self.branch_weights
        return tuple(w1 - w2 for w1, w2 in zip(b1, b2))

    @property
    def gradient_coupling(self) -> float:
        """sum_i dm_i z_i (m): weighted field per unit axial gradient dBz/dz."""
        return sum(d * p.z for d, p in zip(self.delta_m, self.ion_positions))


def prepare_probe(kind: str, ion_positions: Sequence[Vec3], fidelity: float,
                  branch_weights: tuple[tuple[float, ...], tuple[float, ...]] | None = None,
                  ) -> ProbeState:
    """Entanglement transfer and preparation, idealized to a contrast factor.

    Returns a probe with contrast equal to the preparation fidelity, which
    ProbeState holds to [0, 1]. Default
    branch patterns exist for 2 ions (up-down) and 4 ions (up-down-down-up
    around a central sensed spin); other even counts need explicit
    branch_weights.
    """
    n = len(ion_positions)
    if branch_weights is None:
        if n == 2:
            pattern = _BELL_PATTERN
        elif n == 4 and kind == GHZ:
            pattern = _GHZ4_PATTERN
        else:
            raise ConfigurationError(
                f"no default branch pattern for kind={kind!r} with {n} ions; pass branch_weights")
        branch_weights = (pattern, tuple(-w for w in pattern))
    return ProbeState(kind=kind, ion_positions=tuple(ion_positions),
                      branch_weights=branch_weights, contrast=fidelity)


def phase_rate(probe: ProbeState, zeeman: ZeemanConfig,
               field_at_ions: Sequence[float]) -> float:
    """Differential Zeeman phase rate (rad/s) for per-ion axial fields (T).

    Reduces to (g mu_B / hbar) * (B_1 - B_2) for the standard Bell pair. A
    uniform field contributes exactly zero because the +-1 weights cancel
    term by term. A rate that is not finite is a ConfigurationError.
    """
    if len(field_at_ions) != probe.n_ions:
        raise ConfigurationError(
            f"expected {probe.n_ions} field values, got {len(field_at_ions)}")
    weighted = sum(dm * b for dm, b in zip(probe.delta_m, field_at_ions))
    rate = zeeman.gyromagnetic_ratio * weighted
    if not math.isfinite(rate):
        raise ConfigurationError(
            f"phase rate {rate} rad/s is not finite: the fields at the ions overflow a float")
    return rate


def accumulated_phase(rate: float, duration: float) -> float:
    """Phase rate * duration (rad) at a constant rate; a ConfigurationError if not finite.

    The one owner of the accumulated phase, so an overflow ends in a config
    error rather than in math.cos(inf).
    """
    phase = rate * duration
    if not math.isfinite(phase):
        raise ConfigurationError(
            f"accumulated phase of {rate} rad/s over {duration} s overflows a float: "
            "the phase rate or the interaction time is too large")
    return phase


def pi_time(rate: float) -> float:
    """Time (s) to a pi phase rotation at the given rate; inf for a zero rate."""
    return math.pi / abs(rate) if rate else math.inf


def outcome_parities(n_ions: int) -> np.ndarray:
    """Parity (+-1) of each of the 2^N measurement patterns, indexed by bitmask.

    Bit i of the index is ion i's outcome (0 up, 1 down); parity is the
    product of single-ion outcomes.
    """
    idx = np.arange(2 ** n_ions, dtype=np.uint32)
    ones = np.zeros(2 ** n_ions, dtype=np.int64)
    for bit in range(n_ions):
        ones += (idx >> bit) & 1
    return np.where(ones % 2 == 0, 1, -1).astype(np.int64)


def parity_trajectory(rate: float | Sequence[float], contrast: float, t_max: float,
                      n_points: int = TRAJECTORY_POINTS) -> np.ndarray:
    """Rows (t, rate * t, contrast * cos(rate * t)) at n_points even times from 0 to t_max.

    One rate gives a read-only (n_points, 3) float64 array, its columns
    those of TRAJECTORY_COLUMNS: time (s), phase (rad), parity. A
    sequence of k rates gives a read-only (k, n_points, 3) array whose [i]
    is that table for rate i, every rate on the one time grid. The times
    grow in magnitude and end exactly at t_max, and a float product rounds
    monotonically, so each rate's last phase is its largest: one guard on
    it per rate, in order and before any phase is computed, covers every
    point. np.cos gives math.cos's bits on these phases, under every SIMD
    dispatch measured.
    """
    # Of linspace's products i * step only the last, (n_points - 1) * step, can
    # round past the largest float; linspace then sets that point to t_max.
    with np.errstate(over="ignore"):
        times = np.linspace(0.0, t_max, n_points)
    t_last = float(times[-1]) if times.size else 0.0
    for each in np.ravel(rate).tolist():
        accumulated_phase(each, t_last)
    phases = np.multiply.outer(rate, times)
    rows = np.empty(phases.shape + (3,))
    rows[..., 0] = times
    rows[..., 1] = phases
    rows[..., 2] = contrast * np.cos(phases)
    rows.flags.writeable = False
    return rows
