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

The tally is one loop over blocks. Each block draws its shots' 53-bit
outcome integers, and then the run does one of two things; both give the
counts of the per-shot mapping bit for bit. A spin pattern's slot is its
rank, its place in the order in which the mapping hands out the patterns as
the integer grows: the even patterns first, then the odd. A run that maps
sends every shot to one kernel, which draws the shot's gradient Gaussian
and maps it to its slot in buffers reused from block to block. A block of
at least _PRE_PASS_MIN_SHOTS shots first takes each shot's even probability
from a polynomial cosine, within a proven bound delta of the exact one
(_Run._pre_pass_window); only the shots whose draw lies within delta of a
slot boundary go on to the exact float64 path, which shorter blocks, and
runs whose bound is not finite, take whole. A run that screens counts the
integers against the exact integers at which the ranks begin at the
noise-free even probability p0 (the rank never falls as the integer grows,
so the run finds each threshold once). Without gradient noise every shot
has p0, so the counts are final. With gradient noise the screen relies on
a proven bound: a shot whose Gaussian g has |g| <= r has an even
probability p within

    |p - p0| <= K/2 (r s + e_phi) + e_p,

K the per-shot contrast (_Run.contrast), s = rms * gamma * |coupling| * t the
phase spread, e_phi a bound on the rounding of the phase steps and e_p a
margin for the rounding of cos, of p and of the mapping (see _window). No
threshold moves further than p does, so only a shot whose integer lies that
close to a threshold can take another pattern. The screen applies the bound
twice, each time with one test (_near): does the integer lie within h of a
threshold, h the bound in whole integer units, rounded up? A pass over the
block flags the shots within it at R = sqrt(-2 ln 2^-53), the largest
|Gaussian| a draw can give (its first uniform is at least 2^-53). For each
flagged shot, the shot's own Box-Muller radius r then gives its own h:
rng.gaussian returns r times a cosine, so |g| <= r exactly. The same kernel
maps the shots within their own h of a threshold, each moved from its rank
at p0 to its own slot; the others keep their rank. A run maps when the
bound is not finite or when the screen would cost more than mapping every
shot.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from . import rng
from .errors import Bound, ConfigurationError, InfeasibleError, bounded, check_fields
from .protocol import (CONTRAST, ProbeState, ZeemanConfig, accumulated_phase, outcome_parities,
                       phase_rate)

# Counter slots per shot: 2,3 gradient gaussian (drawn only when
# gradient_rms > 0); 4 outcome draw; 0,1 and 5..7 reserved. Slots 0,1 are
# kept for the common-mode gaussian, which the probe cancels exactly and so
# is never drawn; moving the other draws into them would change the outcomes
# of every seed.
_SLOTS_PER_SHOT = 8
_OUTCOME_SLOT = np.uint64(4)   # the outcome draw's slot
_GAUSSIAN_SLOTS = np.array([[2], [3]], dtype=np.uint64)   # rng.gaussian's two streams
_GAUSSIAN_BELOW_OUTCOME = _OUTCOME_SLOT - _GAUSSIAN_SLOTS   # how far below the outcome's they lie
_SHOT_LIMIT = 2 ** 64 // _SLOTS_PER_SHOT   # beyond it the 64-bit counters wrap and repeat
_BLOCK = 2 ** 15   # shots per block: a float64 per-shot temporary is 256 KB
_OUTPUT_BYTES_PER_SHOT = 24   # parity, outcome index and phase, 8 bytes each
_MAX_SHOTS = int(np.finfo(float).max)   # largest shot count that converts to a float
_TWO_BITS = 0x4000000000000000   # bit pattern of a swing of 2.0
# R: sqrt(-2 ln 2^-53) bounds |rng.gaussian|, since its first uniform is at
# least 2^-53 and |cos| <= 1; the factor covers the rounding of log and sqrt
_GAUSSIAN_MAX = math.sqrt(-2.0 * math.log(2.0 ** -53)) * (1.0 + 2.0 ** -40)
# e_phi = _PHASE_ROUNDING * size: the per-shot and noise-free phases, bias
# added, take 9 rounded steps between them, each off by at most 2^-53 times
# size, which bounds every step (see _window)
_PHASE_ROUNDING = 2.0 ** -49
_P_MARGIN = 2.0 ** -40   # e_p: cos, the steps of p and of _slots each round by a few 2^-53
_MEAN_RADIUS = math.sqrt(math.pi / 2)   # mean Box-Muller radius: the cost model's typical shot
# cos(2 pi t) for |t| <= 1/2 as a polynomial P in s = t^2, lowest power first:
# the least-maximum-error (Remez) fit of degree 5, whose error alternates
# between +-7.7843e-7 at 7 points, s = 0 and s = 1/4 among them
_COS_TURNS = (0.9999992215726826, -19.73898251652437, 64.9287266225543, -85.27239704808575,
              58.794038890267494, -21.076782404934566)
_COS_ERROR = 7.8e-7   # e_P: bounds |P(t^2) - cos(2 pi t)| for |t| <= 1/2, P's rounding included
_ANGLE_ERROR = _COS_ERROR + 2.0 ** -40   # e_a: also the rounding of 2 pi u2 and libm's cos
_REDUCTION_ROUNDING = 2.0 ** -51   # e_r = this * size: the rounding of the phase in turns
_INV_TWO_PI = 1 / (2 * math.pi)
# The pre-pass (_own_slots) has about 20 more numpy calls per block than the
# exact path; on a 2-vCPU Xeon a Bell block breaks even at 1,150-1,400 shots
_PRE_PASS_MIN_SHOTS = 1280
# What the screen costs, in units of mapping one shot: _SCREEN_SETUP per
# run, and per shot a = _SCREEN_BASE + _PASS_COST per rank boundary for its
# count pass and near test (_near); a shot the near test flags costs another
# a / 2 for its radius and own near test, and a shot its own half keeps
# costs one mapped shot plus a, a share taken at _MEAN_RADIUS. A run screens
# only when that costs less than mapping every shot. At K = 1 it breaks
# even, with tools/routes.py's timings in brackets, for a Bell pair at
# 3,575 shots (4,000-6,000) and a spread of 0.067 rad (0.045 at the middle
# of the fringe, 0.09 at its top), and for a 4-ion GHZ state at 10,348
# shots (above 12,000) and 0.0023 rad (0.0015 and 0.004); 6 ions never
# screen.
_SCREEN_SETUP = 2048
_SCREEN_BASE = 1 / 3
_PASS_COST = 1 / 32

_RMS = Bound(0)            # a field noise rms: NoiseModel's, and dephasing_contrast's gradient_rms
_TIME = Bound(0)           # s: an interaction time, ExperimentPlan's or dephasing_contrast's
TARGET_SNR = Bound(0, exclusive_minimum=True)   # required_shots' target


@dataclass(frozen=True)
class NoiseModel:
    """Per-shot field noise amplitudes and readout contrast."""

    common_mode_rms: float = bounded(_RMS, 0.0)   # T, uniform over the crystal; never drawn
    gradient_rms: float = bounded(_RMS, 0.0)      # T/m, differential
    contrast: float = bounded(CONTRAST, 1.0)      # readout contrast multiplier

    __post_init__ = check_fields


@dataclass(frozen=True)
class ExperimentPlan:
    """Shot budget, interaction time, analysis bias phase, and RNG seed."""

    shots: int = bounded(Bound(1, _SHOT_LIMIT, integer=True))
    interaction_time: float = bounded(_TIME)               # s
    bias_phase: float = bounded(Bound(), 0.0)              # rad
    rng_seed: int = bounded(Bound(0, 2 ** 64 - 1, integer=True), 0)

    __post_init__ = check_fields


@dataclass(frozen=True)
class _Run:
    """The inputs of a run; the counter slots make each block of shots a pure function of them."""

    plan: ExperimentPlan
    probe: ProbeState
    zeeman: ZeemanConfig
    base_rate: float              # rad/s, noise-free phase rate
    noise: NoiseModel
    patterns: np.ndarray          # spin pattern per slot, which is its rank: even patterns first

    @property
    def contrast(self) -> float:
        """Fringe contrast of each shot: preparation fidelity times readout contrast.

        Not effective_contrast, the ensemble's contrast: gradient dephasing
        belongs there, while here each shot draws its own gradient phase, so
        dephasing this contrast as well would count it twice.
        """
        return self.probe.contrast * self.noise.contrast

    @property
    def n_class(self) -> int:
        """Spin patterns per parity class."""
        return len(self.patterns) // 2

    def slot_counts(self) -> np.ndarray:
        """Shots per slot, in one loop over blocks of their slot-4 outcome integers.

        A run that maps sends every shot to _own_slots. A run that screens
        counts the integers against the exact thresholds of the noise-free
        even probability. It sends to _own_slots only the shots that _near
        flags within the half of _window at R and then within their own half
        (_moved_counts), each moved from its rank there to its own slot. It
        maps when the screen would cost more than mapping every shot, or
        when the window is not finite. Both give the counts of the
        per-shot mapping that _block regenerates.
        """
        plan, n = self.plan, self.n_class
        window = self._window()   # 0 for a noise-free run: nothing to flag, no near test
        # _screen_saving is below 1, so no run of at most _SCREEN_SETUP shots screens
        screen = window == 0 or (math.isfinite(window) and plan.shots > _SCREEN_SETUP
                                 and self._screen_saving(window) * plan.shots > _SCREEN_SETUP)
        if screen:
            p0 = self._p_even(_noise_free_phase(self.base_rate, plan))
            thresholds = np.array(_thresholds(p0, n), dtype=np.uint64)
            half = min(math.ceil(window * 2.0 ** 53), 2 ** 53)   # 2^53 already holds every integer
        m = min(plan.shots, _BLOCK)
        counter = np.arange(_OUTCOME_SLOT, _SLOTS_PER_SHOT * m, _SLOTS_PER_SHOT, dtype=np.uint64)
        bits = np.empty(m, dtype=np.uint64)
        if window != 0:   # nan too, which maps; a noise-free run maps no shot
            floats, masks = np.empty((3, m)), np.empty((2, m), dtype=bool)
            gathered = np.empty((2, m), dtype=np.uint64) if screen else None
        counts = np.zeros(2 * n, dtype=np.int64)
        for lo in range(0, plan.shots, _BLOCK):
            k = min(_BLOCK, plan.shots - lo)
            b = rng.uniform_bits(plan.rng_seed, counter[:k], bits[:k])
            if not screen:
                counts += self._own_slots(b, counter[:k], floats[:, :k], *masks[:, :k])
            else:
                counts += _rank_counts(b, thresholds)
                if window != 0:
                    idx = np.flatnonzero(_near(b, thresholds, half, floats[0, :k].view(np.uint64),
                                               *masks[:, :k]))
                    if len(idx):
                        counts += self._moved_counts(b, idx, counter[0], thresholds, floats,
                                                     masks, gathered)
            counter += np.uint64(_SLOTS_PER_SHOT * _BLOCK)
        return counts

    def _screen_saving(self, window: float) -> float:
        """What screening saves per shot over mapping it, in units of mapping one shot.

        The near test at R flags at most a share 2 (2n - 1) window of the
        shots, and the own halves keep a share of about the same at the
        mean radius (see _SCREEN_SETUP for the cost of each step).
        """
        boundaries = 2 * self.n_class - 1
        flagged = min(2 * boundaries * window, 1.0)
        kept = min(2 * boundaries * self._window(_MEAN_RADIUS), 1.0)
        unit = _SCREEN_BASE + boundaries * _PASS_COST
        return 1 - unit * (1 + flagged / 2) - kept * (1 + unit)

    def _moved_counts(self, bits: np.ndarray, idx: np.ndarray, first: np.uint64,
                      thresholds: np.ndarray, floats: np.ndarray, masks: np.ndarray,
                      gathered: np.ndarray) -> np.ndarray:
        """Change of the slot counts from the flagged shots idx of a block.

        Each flagged shot that _near finds within its own half (_own_halves)
        of a threshold leaves its rank at p0 for its own slot; the others
        keep their rank. bits, the block's outcome integers, and idx are
        spent; first is the block's first slot-4 counter, and floats, masks
        and gathered are the run's block buffers: of the per-shot arrays,
        only the index arrays are allocated here.
        """
        j = len(idx)
        flagged = np.take(bits, idx, out=gathered[0, :j], mode="clip")
        counter = idx.view(np.uint64)   # the slot-4 counter of the block's shot i is first + 8 i
        counter *= np.uint64(_SLOTS_PER_SHOT)
        counter += first
        halves = self._own_halves(counter, floats[0, :j], gathered[1, :j])
        keep = np.flatnonzero(_near(flagged, thresholds, halves, floats[1, :j].view(np.uint64),
                                    *masks[:, :j]))
        i = len(keep)
        moved = np.take(flagged, keep, out=bits[:i], mode="clip")
        ranks = _rank_counts(moved, thresholds)   # before _own_slots spends moved
        counter = np.take(counter, keep, out=gathered[1, :i], mode="clip")
        return self._own_slots(moved, counter, floats[:, :i], *masks[:, :i]) - ranks

    def _own_halves(self, counter: np.ndarray, work: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Each shot's own half-width, in whole outcome-integer units, from its radius; in out.

        counter holds the shots' slot-4 counters, work is a float64 and out
        a uint64 buffer of their length. The radius of slot 2 goes through
        the steps of _window, times 2^53, and out takes the ceiling h of
        that float half: an integer lies below the float half from a
        threshold exactly when it lies below h, so the shot can take another
        pattern only where its integer is within h of a threshold (_near).
        A half above 2^53 is cut to 2^53, which already holds every integer.
        """
        np.subtract(counter, _GAUSSIAN_BELOW_OUTCOME[0, 0], out=work.view(np.uint64))
        half = self._window(rng._radius(rng.uniform(self.plan.rng_seed, work.view(np.uint64),
                                                    work)))
        half *= 2.0 ** 53
        np.minimum(half, 2.0 ** 53, out=half)
        np.ceil(half, out=half)
        np.copyto(out, half, casting="unsafe")
        return out

    def _block(self, lo: int, hi: int) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
        """(phase, even, slot) of the shots [lo, hi).

        The phase returned is one float for every shot of a noise-free run
        and an array otherwise; slot indexes self.patterns. A phase that is
        not finite, or overflows with the bias added, is a ConfigurationError.
        """
        shot = np.arange(lo, hi, dtype=np.uint64) * np.uint64(_SLOTS_PER_SHOT)
        phase = (self._noisy_phases(shot + _GAUSSIAN_SLOTS)
                 if self.noise.gradient_rms > 0
                 else _noise_free_phase(self.base_rate, self.plan))
        p_even = self._p_even(phase)
        draw = rng.uniform(self.plan.rng_seed, shot + _OUTCOME_SLOT)
        return phase, draw < p_even, _slots(draw, p_even, self.n_class)

    def _window(self, radius=_GAUSSIAN_MAX):
        """Bound, in draw units, on |p_even - p0| of a shot whose |Gaussian| is at most radius.

        p0 is p_even at the noise-free phase. The bound is 0 without gradient
        noise, where every shot has the noise-free phase, and not finite when
        a step of a per-shot phase might overflow. An array of radii is
        turned into the shots' bounds in place. The bound K/2 (spread +
        e_phi) + e_p holds step by step:

        1. |g| <= radius. For R, g's first uniform is at least 2^-53 and
           |cos| <= 1. For a shot's own Box-Muller radius (rng._radius),
           rng.gaussian returns that very float times a cosine, and
           |r cos| <= r rounds to at most r, since rounding is monotone.
        2. The steps of _gradient_phases multiply g by rms, gamma and the
           coupling. The same steps here, on radius and |coupling|, are
           each at least the matching per-shot step in magnitude, again by
           monotone rounding; times t, that is the spread.
        3. size, taken at R, bounds every step of both phases, so the 9
           rounded steps between the per-shot and the noise-free phase,
           bias added, move it by less than e_phi = _PHASE_ROUNDING * size.
        4. |cos a - cos b| <= |a - b| and p = (1 + K cos) / 2, so
           |p - p0| <= K/2 (spread + e_phi), up to the rounding of cos, of
           the steps of p and of this bound, which e_p covers.
        """
        if self.noise.gradient_rms == 0:
            return 0.0
        window = radius   # the steps of rate and spread at radius; in place for an array
        window *= self.noise.gradient_rms
        window *= self.zeeman.gyromagnetic_ratio
        window *= abs(self.probe.gradient_coupling)
        window *= self.plan.interaction_time
        window += _PHASE_ROUNDING * self._size()
        window *= 0.5 * self.contrast
        window += _P_MARGIN
        return window

    def _size(self) -> float:
        """A bound on |phase| + |bias| of every shot: the phase steps at R, bias added."""
        plan = self.plan
        rate = (_GAUSSIAN_MAX * self.noise.gradient_rms * self.zeeman.gyromagnetic_ratio
                * abs(self.probe.gradient_coupling))
        return (rate + abs(self.base_rate)) * plan.interaction_time + abs(plan.bias_phase)

    def _pre_pass_window(self) -> float:
        """Bound delta, in draw units, on |p~ - p| of every shot: the pre-pass's even
        probability p~ (_cheap_slots) against the exact path's p.

        Like _window, it holds step by step, with c the exact path's cosine
        of the Box-Muller angle and c~ = P(t^2) the pre-pass's:

        1. |c~ - c| <= e_a = e_P + 2^-40. t = u2 - rint(u2) is exact and
           cos(2 pi t) = cos(2 pi u2); 2^-40 covers the rounding of 2 pi u2,
           which moves the angle by at most 2^-50, and the few ulps of cos.
        2. Both Gaussians are the same radius r <= R times c and c~, so they
           differ by at most R e_a. The same phase steps (_gradient_phases)
           and the bias take them to x and x~, which differ by at most the
           spread at radius R e_a plus e_phi: 14 rounded steps (the two
           products r c and 6 steps on each side), each within 2^-53 size
           (1 + e_P), since |c~| <= 1 + e_P, and 14 (1 + e_P) < 16.
        3. The pre-pass reduces x~ to turns, y = x~ _INV_TWO_PI, and then
           t = y - rint(y) exactly. The constant errs by at most 2^-52 of
           1 / (2 pi) and the product rounds once, so |2 pi y - x~| <=
           3 2^-53 |x~| < e_r.
        4. So |P(t^2) - cos x| <= e_P + e_r + |x~ - x|, and p~ = 1/2 + K/2 P
           gives |p~ - p| <= _window(R e_a) + K/2 (e_P + e_r), up to the
           rounding of p~, of the slot position and of the near test, which
           a second e_p covers.
        """
        return (self._window(_GAUSSIAN_MAX * _ANGLE_ERROR)
                + 0.5 * self.contrast * (_COS_ERROR + _REDUCTION_ROUNDING * self._size())
                + _P_MARGIN)

    def _noisy_phases(self, counters: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Per-shot phases from the gradient Gaussian on the (2, n) counters of its two
        slots (see rng.gaussian, which writes into out).

        A phase whose largest magnitude plus |bias| is not finite is a
        ConfigurationError, so that phase + bias is finite for every shot.
        """
        plan = self.plan
        with np.errstate(over="ignore", invalid="ignore"):   # checked just below
            phase = self._gradient_phases(rng.gaussian(plan.rng_seed, counters, out))
        # the largest |phase|: nan when a phase is, and 0 for no shots
        largest = float(max(-phase.min(initial=0.0), phase.max(initial=0.0)))
        if not largest + abs(plan.bias_phase) < math.inf:
            raise ConfigurationError(
                "a per-shot phase overflows a float, alone or with the bias phase added: the "
                "field, gradient noise, interaction time or bias phase is too large")
        return phase

    def _gradient_phases(self, g: np.ndarray) -> np.ndarray:
        """The per-shot phases (base + gyro * (rms * g) * coupling) * t of Gaussians g, in g.

        One step at a time in place, in the order that keeps every bit.
        """
        g *= self.noise.gradient_rms
        g *= self.zeeman.gyromagnetic_ratio
        g *= self.probe.gradient_coupling
        g += self.base_rate
        g *= self.plan.interaction_time
        return g

    def _p_even(self, phase, out: np.ndarray | None = None):
        """Even-parity probability 0.5 (1 + C cos(phase + bias)); in place in out when given."""
        p = np.cos(np.add(phase, self.plan.bias_phase, out=out), out=out)
        p *= self.contrast
        p += 1.0
        p *= 0.5
        return p

    def _own_slots(self, bits: np.ndarray, counter: np.ndarray, floats: np.ndarray,
                   even: np.ndarray, odd: np.ndarray) -> np.ndarray:
        """Shots per slot at their own phase, for outcome integers and their slot-4 counters.

        bits is spent; floats is a (3, n) float64 and even and odd are bool
        buffers of its length n. From _PRE_PASS_MIN_SHOTS shots on, and when
        _window is finite, so that no phase can overflow, a pre-pass
        (_cheap_slots) maps every shot at an even probability p~ from a
        polynomial cosine, within delta (_pre_pass_window) of the exact
        path's p. No slot boundary moves further than p does, so only a
        shot whose draw lies within delta of a boundary at p~ can take
        another slot at p: those shots, which the pre-pass flags, take the
        exact path (_exact_slots), and the others keep their slot at p~.
        Either way the counts are those of the per-shot mapping.
        """
        delta = self._pre_pass_window() if len(bits) >= _PRE_PASS_MIN_SHOTS else math.inf
        if not math.isfinite(delta):   # it is finite exactly when _window() is
            return self._exact_slots(bits, counter, floats, even, odd)
        u = floats[:2]
        np.subtract(counter, _GAUSSIAN_BELOW_OUTCOME, out=u.view(np.uint64))
        slot, flagged = self._cheap_slots(rng.uniform(self.plan.rng_seed, u.view(np.uint64), u),
                                          rng.bits_to_uniform(bits, bits.view(np.float64)),
                                          delta, floats[2], odd)
        counts = np.bincount(slot, minlength=2 * self.n_class)
        idx = np.flatnonzero(flagged)
        if len(idx):
            counts -= np.bincount(slot[idx], minlength=2 * self.n_class)
            counter = np.take(counter, idx)
            j = len(idx)
            counts += self._exact_slots(rng.uniform_bits(self.plan.rng_seed, counter, bits[:j]),
                                        counter, floats[:, :j], even[:j], odd[:j])
        return counts

    def _exact_slots(self, bits: np.ndarray, counter: np.ndarray, floats: np.ndarray,
                     even: np.ndarray, odd: np.ndarray) -> np.ndarray:
        """_own_slots through the per-shot mapping's own steps: rng.gaussian, the phase and
        its overflow check, _p_even and _slots_in_place, in the same buffers."""
        # the counters of the gradient Gaussian (slots 2 and 3) are written where its draws land
        u = floats[:2]
        np.subtract(counter, _GAUSSIAN_BELOW_OUTCOME, out=u.view(np.uint64))
        p = self._noisy_phases(u.view(np.uint64), u)
        slot = _slots_in_place(rng.bits_to_uniform(bits, bits.view(np.float64)),
                               self._p_even(p, out=p), self.n_class, u[1], even, odd)
        return np.bincount(slot, minlength=2 * self.n_class)

    def _cheap_slots(self, u: np.ndarray, draw: np.ndarray, delta: float, work: np.ndarray,
                     flagged: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(slot, flagged) of each shot at its pre-pass even probability p~.

        u holds the shots' (2, n) Gaussian uniforms and draw their outcome
        uniforms; both are spent. work is a float64 and flagged a bool
        buffer of length n. The slot is an int64 view of work, and flagged
        marks each shot whose draw may lie within delta of a slot boundary.
        Each cosine is _cos_turns, in + and * only. The slot position
        F = n + n (draw - p~) / w, w the width of the draw's class (p~ even,
        1 - p~ odd), has the class's boundaries at the integers, and the
        draw lies |F - rint(F)| w / n from the nearest; a shot is flagged
        unless that is above delta, so a nan flags too, and the slot, F
        truncated and capped at 2n - 1, counts only for the others. p~ may
        lie up to K e_P / 2 outside [0, 1]: one class is then empty, and F
        still places every draw in the other.
        """
        n = self.n_class
        radius = rng._radius(u[0])
        radius *= _cos_turns(u[1], work)   # the Gaussian
        x = self._gradient_phases(radius)
        x += self.plan.bias_phase
        x *= _INV_TWO_PI
        h = _cos_turns(x, work)   # p~ = 1/2 + h, never rounded
        h *= 0.5 * self.contrast
        position = draw
        position -= 0.5   # exact: the draws are multiples of 2^-53 in (0, 1]
        position -= h     # draw - p~, of the sign of the exact difference
        # the class width: p~ = 1/2 + h below p~, 1 - p~ = 1/2 - h from it on
        width = np.copysign(0.5, position, out=u[1])
        width -= h
        np.abs(width, out=width)
        position /= width
        position *= n
        position += n
        slot = work.view(np.int64)
        np.copyto(slot, position, casting="unsafe")   # truncates; a nan's slot is flagged
        np.minimum(slot.view(np.uint64), 2 * n - 1, out=slot.view(np.uint64))
        gap = np.rint(position, out=h)
        gap -= position
        np.abs(gap, out=gap)
        gap *= width
        np.greater(gap, n * delta, out=flagged)
        np.logical_not(flagged, out=flagged)
        return slot, flagged


def _cos_turns(u: np.ndarray, work: np.ndarray) -> np.ndarray:
    """cos(2 pi u) to within _COS_ERROR, in place in u; work is a float64 buffer of its shape.

    t = u - rint(u) is exact and has the same cosine; P(t^2) is taken in
    Horner form, so the result depends on no libm and no SIMD dispatch.
    """
    np.rint(u, out=work)
    u -= work
    square = np.multiply(u, u, out=work)
    np.multiply(square, _COS_TURNS[-1], out=u)
    for c in _COS_TURNS[-2:0:-1]:
        u += c
        u *= square
    u += _COS_TURNS[0]
    return u


def _slots(draw: np.ndarray, p_even, n_class: int) -> np.ndarray:
    """Slot of each outcome uniform: k in its parity class, plus n_class if odd.

    The 2^(N-1) even patterns share [0, p_even), the 2^(N-1) odd ones
    [p_even, 1]; a zero-width class (p_even = 1, draw = 1.0) takes its first
    pattern. Every float step is monotone, so the slot, which is the rank of
    the draw, never falls as the draw grows.
    """
    even = draw < p_even
    lower = np.where(even, 0.0, p_even)
    width = np.where(even, p_even, 1.0 - p_even)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(width > 0, (draw - lower) / width, 0.0)
    k = np.minimum((frac * n_class).astype(np.int64), n_class - 1)
    return k + n_class * ~even


def _slots_in_place(draw: np.ndarray, p_even: np.ndarray, n_class: int, tmp: np.ndarray,
                    even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """_slots without selects, in the caller's float64 and bool buffers; draw and p_even are spent.

    A 0/1 class mask stands in for each select, and that is exact for the
    finite p_even >= 0 here: p * 0.0 = 0.0, d - 0.0 = d and x + 0.0 = x.
    Returns the slots as an int64 view of tmp.
    """
    np.less(draw, p_even, out=even)
    np.logical_not(even, out=odd)
    lower = np.multiply(p_even, odd, out=tmp)   # 0.0 or p
    draw -= lower
    width = p_even
    width *= even
    width += odd                                # upper end: p or 1.0
    width -= lower                              # p or 1.0 - p
    # a zero width (p_even = 1, draw = 1.0) has a zero numerator, and every
    # other width is at least the draw spacing 2^-53, which it leaves as is
    np.maximum(width, 2.0 ** -53, out=width)
    draw /= width
    draw *= n_class
    slot = tmp.view(np.int64)
    np.copyto(slot, draw, casting="unsafe")     # truncates, as astype does
    np.minimum(slot, n_class - 1, out=slot)
    class_base = width.view(np.int64)
    np.multiply(odd, n_class, out=class_base)
    slot += class_base
    return slot


def _near(bits: np.ndarray, thresholds: np.ndarray, half, work: np.ndarray,
          out: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """Flag, in the caller's bool out, each outcome integer b within half of a threshold t.

    b is near t when it lies in [t - half, t + half), that is when
    (b - t + half) mod 2^64 < 2 half: b and t are at most 2^53 and half at
    most 2^53, so b - t + half below 0 wraps to at least 2^64 - 2^53.
    half is one int for every b or a uint64 array of one per b, which is
    spent (doubled in place). thresholds are sorted; work is a uint64 and
    hit a bool buffer of bits' length, and work holds b + half - t for
    each t in turn.
    """
    np.add(bits, half, out=work)
    half += half   # in place for an array, a new int for an int
    out.fill(False)
    before = 0
    for t in thresholds.tolist():
        work -= t - before
        before = t
        out |= np.less(work, half, out=hit)
    return out


def _rank_counts(bits: np.ndarray, thresholds: np.ndarray) -> list[int]:
    """Outcome integers per rank at p0, in one pass per threshold.

    thresholds are the sorted T_1 .. T_2n-1 of _thresholds. Rank r holds the
    integers from T_r up to T_r+1, with T_0 = 0 and T_2n above every integer.
    """
    below = [0, *(np.count_nonzero(bits < t) for t in thresholds.tolist()), len(bits)]
    return [high - low for low, high in zip(below, below[1:])]


def _thresholds(p_even: float, n_class: int) -> list[int]:
    """T_r = min{b : rank(b) >= r} for r = 1 .. 2 n_class - 1 at one p_even.

    b is a draw's 53-bit integer (see rng.bits_to_uniform) and rank(b) is
    _rank, which never falls as b grows; T_r = 2^53 when no draw reaches
    rank r. Each search starts from the real-arithmetic boundary.
    """
    p = float(p_even)
    return [_least(lambda b: _rank(b, p, n_class) >= r, -1, 2 ** 53, _guess(r, p, n_class))
            for r in range(1, 2 * n_class)]


def _least(holds, lo: int, hi: int, start: int) -> int:
    """The least x in (lo, hi] where holds(x), for a holds that never turns false as x grows.

    holds(lo) is taken as false and holds(hi) as true; neither is called.
    From start, clamped into (lo, hi], the search gallops out in steps that
    double until holds(below) is false and holds(above) true, then bisects
    (below, above]. No point is asked about twice. The answer is the least
    point of an exact predicate, so start only sets how many calls the
    search makes.
    """
    above, step = min(max(start, lo + 1), hi), 1
    below = above - 1
    while above < hi and not holds(above):
        below, above, step = above, min(above + step, hi), 2 * step
    if step == 1:   # no upward gallop; after one, holds(below) is already known false
        while below > lo and holds(below):
            below, above, step = max(below - step, lo), below, 2 * step
    while above - below > 1:
        mid = (below + above) // 2
        below, above = (below, mid) if holds(mid) else (mid, above)
    return above


def _guess(r: int, p: float, n_class: int) -> int:
    """The b in [0, 2^53] whose draw is the first to reach rank r in real arithmetic."""
    edge = (p * min(r, n_class) + (1.0 - p) * max(r - n_class, 0)) / n_class
    return min(max(math.ceil(edge * 2.0 ** 53) - 1, 0), 2 ** 53)


def _rank(b: int, p: float, n_class: int) -> int:
    """_slots for the single draw (b + 1) 2^-53, in Python floats.

    Python floats are the same IEEE doubles, and every step is the one _slots takes.
    """
    draw = (b + 1) * 2.0 ** -53
    if draw < p:
        return min(int(draw / p * n_class), n_class - 1)
    width = 1.0 - p
    return n_class + (min(int((draw - p) / width * n_class), n_class - 1) if width > 0 else 0)


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
        run = self._run
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            # one call per block, so no block's temporaries outlive it
            phases[lo:hi], even, slot = run._block(lo, hi)
            parities[lo:hi] = np.where(even, 1, -1)
            indices[lo:hi] = run.patterns[slot]
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

    A per-shot phase that is not finite, or overflows with the bias phase
    added, is a ConfigurationError.
    """
    run = _Run(plan, probe, zeeman, phase_rate(probe, zeeman, field_at_ions), noise,
               _slot_patterns(probe.n_ions))
    slot_counts = run.slot_counts()
    pattern_counts = np.empty_like(slot_counts)
    pattern_counts[run.patterns] = slot_counts
    n_odd = int(slot_counts[len(slot_counts) // 2:].sum())   # the odd slots are the top half
    return ShotOutcomes(plan.shots, plan.shots - 2 * n_odd, pattern_counts, run)


@lru_cache(maxsize=8)
def _slot_patterns(n_ions: int) -> np.ndarray:
    """Spin pattern per slot, the even patterns then the odd; read-only, shared by runs."""
    parity = outcome_parities(n_ions)
    patterns = np.concatenate((np.flatnonzero(parity > 0), np.flatnonzero(parity < 0)))
    patterns.flags.writeable = False
    return patterns


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


def effective_contrast(probe: ProbeState, noise: NoiseModel) -> float:
    """Fringe contrast of the analytic (ensemble) model: preparation fidelity times readout.

    probe.contrast is the preparation fidelity (prepare_probe sets it). The
    gradient dephasing of dephasing_contrast is not in it yet, so with
    gradient noise the Monte Carlo's mean parity is this fringe times that
    factor.
    """
    return probe.contrast * noise.contrast


def expected_parity(plan: ExperimentPlan, probe: ProbeState, zeeman: ZeemanConfig,
                    fields: Sequence[float], noise: NoiseModel) -> float:
    """Parity effective_contrast * cos(phase + bias) of the analytic model.

    Without gradient noise the Monte Carlo estimate converges to it; with
    gradient noise, to it times dephasing_contrast.
    """
    rate = phase_rate(probe, zeeman, fields)
    return effective_contrast(probe, noise) * math.cos(
        _noise_free_phase(rate, plan) + plan.bias_phase)


def _noise_free_phase(rate: float, plan: ExperimentPlan) -> float:
    """accumulated_phase(rate, plan.interaction_time), checked once with the bias phase.

    A phase whose magnitude plus |bias| is not finite is a ConfigurationError
    naming both, so that phase + bias, and its cosine, are finite.
    """
    phase = accumulated_phase(rate, plan.interaction_time)
    if not abs(phase) + abs(plan.bias_phase) < math.inf:
        raise ConfigurationError(
            f"the accumulated phase {phase} rad plus the bias phase {plan.bias_phase} rad "
            "overflows a float: the field, interaction time or bias phase is too large")
    return phase


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


def swing_threshold(shots: int, target_snr: float) -> float:
    """Smallest parity swing below 2 whose analytic SNR meets target_snr > 0; inf if none.

    Below a swing of 2, analytic_snr is non-decreasing in the swing, since
    every float step in it is monotone; so for any swing s < 2,
    analytic_snr(shots, s) >= target_snr exactly when s >= the threshold.
    Nonnegative floats order like their bit patterns, so the threshold is
    the least pattern in (0, 2.0] that meets the target, searched from the
    real-arithmetic root 2T / sqrt(2N + T^2). hypot keeps T^2 from
    overflowing; a 2T that overflows gives a root of inf, clamped to 2.0.
    """
    root = 2.0 * target_snr / math.hypot(math.sqrt(2.0 * shots), target_snr)
    bits = _least(lambda b: analytic_snr(shots, _float_from_bits(b)) >= target_snr,
                  0, _TWO_BITS, struct.unpack("<q", struct.pack("<d", root))[0])
    return _float_from_bits(bits) if bits < _TWO_BITS else math.inf


def _float_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def required_shots(target_snr: float, parity_swing: float) -> int:
    """Smallest per-hypothesis shot count whose analytic SNR meets the target.

    analytic_snr is non-decreasing in shots, so the count is the least one
    that meets the target, searched from 1 by doubling; infeasible when no
    count that fits a float does.
    """
    TARGET_SNR.check("target_snr", target_snr)
    if parity_swing <= 0:
        raise InfeasibleError("parity swing is zero: no shot count reaches the target SNR")
    if not parity_swing <= 2:
        raise ConfigurationError(f"parity swing must be a number <= 2, got {parity_swing}")
    shots = _least(lambda n: analytic_snr(n, parity_swing) >= target_snr, 0, _MAX_SHOTS, 1)
    if not target_snr <= analytic_snr(shots, parity_swing) < math.inf:
        raise InfeasibleError(f"no shot count that fits a float reaches SNR {target_snr} "
                              f"at parity swing {parity_swing}")
    return shots


def dephasing_contrast(gradient_rms: float, probe: ProbeState, zeeman: ZeemanConfig,
                       duration: float) -> float:
    """Fringe contrast multiplier exp(-sigma_phi^2 / 2) from quasi-static gradient noise.

    sigma_phi is the phase spread of the same weighted-field coupling used by
    phase_rate, accumulated over the interaction time. It is exactly 1.0 when
    the rms, the coupling or the duration is zero, even where the product of
    the other factors overflows a float.
    """
    _RMS.check("gradient_rms", gradient_rms)
    _TIME.check("duration", duration)
    gamma, coupling = zeeman.gyromagnetic_ratio, abs(probe.gradient_coupling)
    if 0.0 in (gamma, gradient_rms, coupling, duration):
        return 1.0
    sigma_phi = gamma * gradient_rms * coupling * duration
    return math.exp(-0.5 * sigma_phi * sigma_phi)
