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
evaluation order. Shots run in fixed blocks of _BLOCK, and a run keeps only
a tally (parity sum and counts per spin pattern), so its memory is one block
whatever the shot count. The per-shot parities, outcome indices and phases
exist only when a caller reads them: the counter slots let every block be
regenerated bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, Sequence

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
_SHOT_LIMIT = 2 ** 64 // _SLOTS_PER_SHOT   # beyond it the 64-bit counters wrap and repeat
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
        if not isinstance(self.shots, int) or not 1 <= self.shots <= _SHOT_LIMIT:
            raise ConfigurationError(
                f"shots must be an integer from 1 to 2**61 = {_SHOT_LIMIT}, got {self.shots!r}: "
                f"each shot takes {_SLOTS_PER_SHOT} slots of a 64-bit RNG counter")
        if not (0 <= self.interaction_time < math.inf):
            raise ConfigurationError("interaction_time must be finite and >= 0")
        if not math.isfinite(self.bias_phase):
            raise ConfigurationError("bias_phase must be finite")
        if not (0 <= self.rng_seed < 2 ** 64):
            raise ConfigurationError("rng_seed must fit in 64 bits")


@dataclass(frozen=True)
class _Run:
    """The inputs of a run; the counter slots make each block of shots a pure function of them."""

    plan: ExperimentPlan
    probe: ProbeState
    zeeman: ZeemanConfig
    base_rate: float              # rad/s, noise-free phase rate
    noise: NoiseModel
    patterns: np.ndarray          # spin pattern per class slot: the odd patterns, then the even

    def blocks(self) -> Iterator[tuple[int, int, float | np.ndarray, np.ndarray, np.ndarray]]:
        """Yield (lo, hi, phase, even, slot) for each block of shots [lo, hi).

        phase is one float for every shot of a noise-free run and an array
        otherwise; slot indexes self.patterns. A per-shot phase that is not
        finite is a ConfigurationError.
        """
        plan = self.plan
        phase = None   # drawn per shot when there is gradient noise
        if not self.noise.gradient_rms > 0:   # every shot accumulates the same phase
            phase = self.probe.phase + self.base_rate * plan.interaction_time
            _check_phases(phase)
        for lo in range(0, plan.shots, _BLOCK):
            hi = min(lo + _BLOCK, plan.shots)
            # one call per block, so no block's temporaries outlive it
            yield (lo, hi, *self._block(lo, hi, phase))

    def _block(self, lo: int, hi: int, phase: float | None,
               ) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
        plan, probe, noise = self.plan, self.probe, self.noise
        shot = np.arange(lo, hi, dtype=np.uint64) * np.uint64(_SLOTS_PER_SHOT)
        if phase is None:
            phase = rng.gaussian(plan.rng_seed, shot + np.uint64(2), shot + np.uint64(3))
            with np.errstate(over="ignore", invalid="ignore"):   # checked just below
                # phase + (base + gyro * (rms * g) * coupling) * t, one step at a
                # time in place, in the order that keeps every bit
                phase *= noise.gradient_rms
                phase *= self.zeeman.gyromagnetic_ratio
                phase *= probe.gradient_coupling
                phase += self.base_rate
                phase *= plan.interaction_time
                phase += probe.phase
            _check_phases(phase)
        p_even = 0.5 * (1.0 + probe.contrast * noise.contrast
                        * np.cos(phase + plan.bias_phase))
        draw = rng.uniform(plan.rng_seed, shot + np.uint64(4))

        # Map a shot's outcome uniform onto a concrete spin pattern: the 2^(N-1)
        # even patterns share [0, p_even), the 2^(N-1) odd ones [p_even, 1]; a
        # zero-width class (p_even = 1, draw = 1.0) takes its first pattern.
        n_class = len(self.patterns) // 2   # patterns per parity class
        even = draw < p_even
        lower = np.where(even, 0.0, p_even)
        width = np.where(even, p_even, 1.0 - p_even)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(width > 0, (draw - lower) / width, 0.0)
        k = np.minimum((frac * n_class).astype(np.int64), n_class - 1)
        return phase, even, k + n_class * even


@dataclass(frozen=True)
class ShotOutcomes:
    """Tally of a run: shot count, sum of the +-1 parities and counts per spin pattern.

    pattern_counts is indexed like protocol.outcome_parities. The per-shot
    parities, outcome indices and phases (24 bytes per shot) are regenerated
    from the same counters on first read, so they are bit-identical to the
    shots that made the tally.
    """

    shots: int
    parity_sum: int
    pattern_counts: np.ndarray
    _run: _Run = field(repr=False, compare=False)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = self.shots
        try:
            parities = np.empty(n, dtype=np.int64)
            indices = np.empty(n, dtype=np.int64)
            phases = np.empty(n, dtype=np.float64)
        except (MemoryError, ValueError):   # ValueError: numpy refuses the size outright
            raise ConfigurationError(
                f"{n} shots need {n * _OUTPUT_BYTES_PER_SHOT} bytes of per-shot outputs, "
                "which cannot be allocated") from None
        for lo, hi, phase, even, slot in self._run.blocks():
            parities[lo:hi] = np.where(even, 1, -1)
            indices[lo:hi] = self._run.patterns[slot]
            phases[lo:hi] = phase
        return parities, indices, phases

    @property
    def parities(self) -> np.ndarray:
        return self._arrays[0]

    @property
    def outcome_indices(self) -> np.ndarray:
        return self._arrays[1]

    @property
    def phases(self) -> np.ndarray:
        return self._arrays[2]


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
    """Run plan.shots independent shots, draw one spin pattern per shot and tally them.

    A per-shot phase that is not finite is a ConfigurationError.
    """
    pattern_parity = outcome_parities(probe.n_ions)
    run = _Run(plan, probe, zeeman, phase_rate(probe, zeeman, field_at_ions), noise,
               np.concatenate((np.flatnonzero(pattern_parity < 0),
                               np.flatnonzero(pattern_parity > 0))))
    slot_counts = np.zeros(len(run.patterns), dtype=np.int64)
    for _, _, _, _, slot in run.blocks():
        slot_counts += np.bincount(slot, minlength=len(slot_counts))
    pattern_counts = np.empty_like(slot_counts)
    pattern_counts[run.patterns] = slot_counts
    n_odd = int(slot_counts[:len(slot_counts) // 2].sum())   # the odd slots come first
    return ShotOutcomes(plan.shots, plan.shots - 2 * n_odd, pattern_counts, run)


def _check_phases(phases) -> None:
    if not np.isfinite(phases).all():
        raise ConfigurationError("a per-shot phase overflows a float: the field, gradient "
                                 "noise or interaction time is too large")


def parity_estimate(parity_sum: int, shots: int) -> EstimationResult:
    """Parity estimate with projection-noise standard error from a tally of +-1 parities.

    std_error = sqrt((1 - P^2)/N); a saturated estimate (P = +-1) substitutes
    the rule-of-three bound 3/N so downstream SNRs stay finite.
    """
    if shots < 1:
        raise ConfigurationError("parity_estimate needs at least one outcome")
    p_hat = float(parity_sum) / shots
    if abs(p_hat) >= 1.0:
        std_error = 3.0 / shots
    else:
        std_error = math.sqrt((1.0 - p_hat * p_hat) / shots)
    return EstimationResult(parity_estimate=p_hat, std_error=std_error,
                            snr=abs(p_hat) / std_error, shots_used=shots)


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
    tallies = (simulate_shots(replace(plan, rng_seed=rng.derive_seed(plan.rng_seed, arm)),
                              probe, zeeman, fields, noise)
               for arm, fields in enumerate((fields_up, fields_down)))
    up, down = (parity_estimate(t.parity_sum, t.shots) for t in tallies)
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
