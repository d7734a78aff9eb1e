"""Monte Carlo shot statistics under projection noise and field noise.

Noise model: quasi-static Gaussian fluctuations, constant within a shot and
independent between shots. A uniform (common-mode) component would enter the
phase only through the sum of the +-1 branch weights, which is exactly zero,
so it is accepted and validated but never drawn: it cannot change any
outcome. The gradient component couples through the weighted ion coordinates
and dephases the parity fringe; it is drawn only when its rms is above zero,
since a zero rms multiplies the draw by an exact zero. Each shot consumes
fixed counter slots of the seeded counter-based stream (see rng), so results
are a pure function of (plan, probe, fields, noise) and are independent of
evaluation order. Shots run in fixed blocks of _BLOCK: only the three
per-shot outputs span the whole run, and every other per-shot array lives
for one block, which the counter slots make bit-identical to one pass over
all shots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import rng
from .errors import ConfigurationError, InfeasibleError
from .protocol import (ProbeState, ZeemanConfig, accumulated_phase, outcome_parities,
                       phase_rate)

# Counter slots per shot: 2,3 gradient gaussian (drawn only when
# gradient_rms > 0); 4 outcome draw; 0,1 and 5..7 reserved. Slots 0,1 are
# kept for the common-mode gaussian, which the probe cancels exactly and so
# is never drawn; moving the other draws into them would change the outcomes
# of every seed.
_SLOTS_PER_SHOT = 8
_BLOCK = 2 ** 15   # shots per block: a float64 per-shot temporary is 256 KB
_OUTPUT_BYTES_PER_SHOT = 24   # parity, outcome index and phase, 8 bytes each
_MAX_SHOTS = int(np.finfo(float).max)   # largest shot count that converts to a float


@dataclass(frozen=True)
class NoiseModel:
    """Per-shot field noise amplitudes and readout contrast."""

    common_mode_rms: float = 0.0   # T, uniform over the crystal; cancelled, never drawn
    gradient_rms: float = 0.0     # T/m, differential
    contrast: float = 1.0          # readout contrast multiplier

    def __post_init__(self):
        if not all(0 <= v < math.inf for v in (self.common_mode_rms, self.gradient_rms)):
            raise ConfigurationError("noise rms values must be finite and >= 0")
        if not (0.0 <= self.contrast <= 1.0):
            raise ConfigurationError(f"contrast must be in [0, 1], got {self.contrast}")


@dataclass(frozen=True)
class ExperimentPlan:
    """Shot budget, interaction time, analysis bias phase, and RNG seed."""

    shots: int
    interaction_time: float        # s
    bias_phase: float = 0.0        # rad
    rng_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.shots, int) or self.shots < 1:
            raise ConfigurationError(f"shots must be an integer >= 1, got {self.shots!r}")
        if not (0 <= self.interaction_time < math.inf):
            raise ConfigurationError("interaction_time must be finite and >= 0")
        if not math.isfinite(self.bias_phase):
            raise ConfigurationError("bias_phase must be finite")
        if not (0 <= self.rng_seed < 2 ** 64):
            raise ConfigurationError("rng_seed must fit in 64 bits")


@dataclass(frozen=True)
class ShotOutcomes:
    """Per-shot results: parity (+-1), drawn spin pattern index, accumulated phase."""

    parities: np.ndarray
    outcome_indices: np.ndarray
    phases: np.ndarray


@dataclass(frozen=True)
class EstimationResult:
    parity_estimate: float
    std_error: float
    snr: float
    shots_used: int


@dataclass(frozen=True)
class DiscriminationResult:
    snr: float
    up: EstimationResult
    down: EstimationResult


def simulate_shots(plan: ExperimentPlan, probe: ProbeState, zeeman: ZeemanConfig,
                   field_at_ions: Sequence[float], noise: NoiseModel) -> ShotOutcomes:
    """Run plan.shots independent shots and draw one spin pattern per shot.

    A per-shot phase that is not finite is a ConfigurationError, and so is a
    shot count whose outputs cannot be allocated.
    """
    base_rate = phase_rate(probe, zeeman, field_at_ions)
    n = plan.shots
    try:
        parities = np.empty(n, dtype=np.int64)
        indices = np.empty(n, dtype=np.int64)
        phases = np.empty(n, dtype=np.float64)
    except (MemoryError, ValueError):   # ValueError: numpy refuses the size outright
        raise ConfigurationError(
            f"{n} shots need {n * _OUTPUT_BYTES_PER_SHOT} bytes of per-shot outputs, "
            "which cannot be allocated") from None

    seed = plan.rng_seed
    contrast = probe.contrast * noise.contrast
    noisy = noise.gradient_rms > 0
    if not noisy:   # every shot accumulates the same phase
        phase = probe.phase + base_rate * plan.interaction_time
        _check_phases(phase)
        phases.fill(phase)
        p_even = 0.5 * (1.0 + contrast * np.cos(phase + plan.bias_phase))

    # Map a shot's outcome uniform onto a concrete spin pattern: the 2^(N-1)
    # even patterns share [0, p_even), the 2^(N-1) odd ones [p_even, 1]; a
    # zero-width class (p_even = 1, draw = 1.0) takes its first pattern.
    pattern_parity = outcome_parities(probe.n_ions)
    n_class = 2 ** (probe.n_ions - 1)   # patterns per parity class
    patterns = np.concatenate((np.flatnonzero(pattern_parity < 0),    # odd, then even
                               np.flatnonzero(pattern_parity > 0)))

    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        shot = np.arange(lo, hi, dtype=np.uint64) * np.uint64(_SLOTS_PER_SHOT)
        if noisy:
            gradient = rng.gaussian(seed, shot + np.uint64(2), shot + np.uint64(3))
            block_phases = phases[lo:hi]
            with np.errstate(over="ignore", invalid="ignore"):   # checked just below
                # phase + (base + gyro * (rms * g) * coupling) * t, one step at a
                # time in place, in the order that keeps every bit
                gradient *= noise.gradient_rms
                gradient *= zeeman.gyromagnetic_ratio
                gradient *= probe.gradient_coupling
                gradient += base_rate
                np.multiply(gradient, plan.interaction_time, out=block_phases)
                block_phases += probe.phase
            _check_phases(block_phases)
            p_even = 0.5 * (1.0 + contrast * np.cos(block_phases + plan.bias_phase))
        draw = rng.uniform(seed, shot + np.uint64(4))

        even = draw < p_even
        parities[lo:hi] = np.where(even, 1, -1)
        lower = np.where(even, 0.0, p_even)
        width = np.where(even, p_even, 1.0 - p_even)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(width > 0, (draw - lower) / width, 0.0)
        k = np.minimum((frac * n_class).astype(np.int64), n_class - 1)
        indices[lo:hi] = patterns[k + n_class * even]
    return ShotOutcomes(parities=parities, outcome_indices=indices, phases=phases)


def _check_phases(phases) -> None:
    if not np.isfinite(phases).all():
        raise ConfigurationError("a per-shot phase overflows a float: the field, gradient "
                                 "noise or interaction time is too large")


def parity_estimate(parities: np.ndarray) -> EstimationResult:
    """Parity estimate with projection-noise standard error from per-shot parities (+-1).

    std_error = sqrt((1 - P^2)/N); a saturated estimate (P = +-1) substitutes
    the rule-of-three bound 3/N so downstream SNRs stay finite.
    """
    n = len(parities)
    if n < 1:
        raise ConfigurationError("parity_estimate needs at least one outcome")
    p_hat = float(np.sum(parities)) / n
    if abs(p_hat) >= 1.0:
        std_error = 3.0 / n
    else:
        std_error = math.sqrt((1.0 - p_hat * p_hat) / n)
    return EstimationResult(parity_estimate=p_hat, std_error=std_error,
                            snr=abs(p_hat) / std_error, shots_used=n)


def expected_parity(plan: ExperimentPlan, probe: ProbeState, zeeman: ZeemanConfig,
                    fields: Sequence[float], noise: NoiseModel) -> float:
    """Noise-free parity expectation the Monte Carlo estimate converges to."""
    rate = phase_rate(probe, zeeman, fields)
    return probe.contrast * noise.contrast * math.cos(
        probe.phase + accumulated_phase(rate, plan.interaction_time) + plan.bias_phase)


def spin_discrimination_snr(plan: ExperimentPlan, probe: ProbeState, zeeman: ZeemanConfig,
                            fields_up: Sequence[float], fields_down: Sequence[float],
                            noise: NoiseModel) -> DiscriminationResult:
    """Two-hypothesis flip experiment: plan.shots per hypothesis, pooled errors.

    snr = |P_down - P_up| / sqrt(se_up^2 + se_down^2), computed from the
    Monte Carlo estimates. Each arm runs on an independent sub-seed derived
    from plan.rng_seed.
    """
    up, down = (parity_estimate(simulate_shots(
                    replace(plan, rng_seed=rng.derive_seed(plan.rng_seed, arm)),
                    probe, zeeman, fields, noise).parities)
                for arm, fields in enumerate((fields_up, fields_down)))
    snr = abs(down.parity_estimate - up.parity_estimate) / math.sqrt(
        up.std_error ** 2 + down.std_error ** 2)
    return DiscriminationResult(snr=snr, up=up, down=down)


def analytic_snr(shots: int, parity_swing: float) -> float:
    """Projection-noise SNR for a symmetric two-hypothesis split P = +-swing/2.

    Uses per-arm variance (1 - P^2)/N; a full-contrast flip (swing = 2) has
    zero binomial variance, so the rule-of-three guard 3/N stands in, which
    keeps this model consistent with the Monte Carlo estimator. Non-decreasing
    in shots; a variance that underflows to zero gives an infinite SNR.
    """
    p = parity_swing / 2.0
    if p >= 1.0:
        variance = (3.0 / shots) ** 2
    else:
        variance = (1.0 - p * p) / shots
    return parity_swing / math.sqrt(2.0 * variance) if variance != 0 else math.inf


def required_shots(target_snr: float, parity_swing: float) -> int:
    """Smallest per-hypothesis shot count whose analytic SNR meets the target.

    Doubling brackets the count and bisection finds it, since analytic_snr is
    non-decreasing in shots; infeasible when no count that fits a float does.
    """
    if not (0 < target_snr < math.inf):
        raise ConfigurationError(f"target_snr must be finite and > 0, got {target_snr}")
    if parity_swing <= 0:
        raise InfeasibleError("parity swing is zero: no shot count reaches the target SNR")
    if not parity_swing <= 2:
        raise ConfigurationError(f"parity swing must be a number <= 2, got {parity_swing}")
    low, high = 0, 1   # the count lies in (low, high] once high reaches the target
    while analytic_snr(high, parity_swing) < target_snr and high < _MAX_SHOTS:
        low, high = high, min(2 * high, _MAX_SHOTS)
    while high - low > 1:
        mid = (low + high) // 2
        if analytic_snr(mid, parity_swing) >= target_snr:
            high = mid
        else:
            low = mid
    if not target_snr <= analytic_snr(high, parity_swing) < math.inf:
        raise InfeasibleError(f"no shot count that fits a float reaches SNR {target_snr} "
                              f"at parity swing {parity_swing}")
    return high


def dephasing_contrast(gradient_rms: float, probe: ProbeState, zeeman: ZeemanConfig,
                       duration: float) -> float:
    """Fringe contrast multiplier exp(-sigma_phi^2 / 2) from quasi-static gradient noise.

    sigma_phi is the phase spread of the same weighted-field coupling used by
    phase_rate, accumulated over the interaction time.
    """
    if gradient_rms < 0 or duration < 0:
        raise ConfigurationError("gradient_rms and duration must be >= 0")
    sigma_phi = (zeeman.gyromagnetic_ratio * gradient_rms * abs(probe.gradient_coupling)
                 * duration)
    return math.exp(-0.5 * sigma_phi * sigma_phi)
