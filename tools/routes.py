"""Time the Monte Carlo's two exact routes, screen and map, against the rule that picks one.

Each noisy run either screens its shots or maps every one of them
(estimation._Run.slot_counts), and _Run._screen_saving's fitted cost model
picks the route. For each point of a fixed grid this script forces each
route in turn, by setting estimation._SCREEN_SETUP to -inf (every run
screens) or +inf (every noisy run maps), and times simulate_shots on both,
alternating them in one process. It prints the screen/map time ratio at
the top of the fringe (bias 0, as the tests build runs) and at its middle
(bias pi/2), and beside them the route the rule picks at the fitted
_SCREEN_SETUP; the rule has no term for the fringe position. The script
reads that route by watching whether the run counts ranks at p0
(estimation._rank_counts), which only the screen does. A ratio below 1 says
the screen is faster there, so a point whose ratios and choice disagree,
well clear of 1, calls for a refit.

Each run is a Bell pair or a (+ + - -) 4-ion GHZ state with phase spread s
rad and contrast K:
  - a Bell pair at K = 1 and 0.6, spreads 1e-3 to 0.15, 131,072 shots;
  - a Bell pair at a spread of 1e-3 with 1,500 to 8,000 shots;
  - a 4-ion GHZ state at 5e-4 to 0.02 and, at 5e-4, with 3,000 to 12,000 shots.
Each ratio is the median over ROUNDS rounds of the best of REPEATS calls per
route. The script exits 1 if the two routes' pattern counts ever differ,
since both must give the counts of the per-shot mapping bit for bit.

Run from the repository root: python3 tools/routes.py
It uses the standard library and numpy only, imports the package from src/,
and takes about 15 seconds on a 2-vCPU Xeon.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from iongradim import estimation  # noqa: E402
from iongradim.constants import Vec3  # noqa: E402
from iongradim.estimation import ExperimentPlan, NoiseModel, simulate_shots  # noqa: E402
from iongradim.protocol import BELL, GHZ, ZeemanConfig, prepare_probe  # noqa: E402

REPEATS, ROUNDS = 9, 3
SHOTS = 131_072
GRID = ([(2, 1.0, s, SHOTS) for s in (1e-3, 0.01, 0.03, 0.05, 0.07, 0.1, 0.15)]
        + [(2, 0.6, s, SHOTS) for s in (1e-3, 0.01, 0.03, 0.05, 0.07, 0.1, 0.15)]
        + [(2, 1.0, 1e-3, n) for n in (1_500, 2_500, 4_000, 6_000, 8_000)]
        + [(4, 1.0, s, SHOTS) for s in (5e-4, 1e-3, 2e-3, 4e-3, 0.01, 0.02)]
        + [(4, 1.0, 5e-4, n) for n in (3_000, 6_000, 9_000, 12_000)])
ROUTES = {"screen": -math.inf, "map": math.inf}   # the _SCREEN_SETUP that forces each


def arguments(n_ions: int, contrast: float, spread: float, shots: int, bias: float) -> tuple:
    """simulate_shots' arguments for a run of phase spread spread rad at bias phase bias."""
    positions = tuple(Vec3(0.0, 0.0, 1e-6 * k) for k in range(n_ions))
    branch = (0.5,) * (n_ions // 2) + (-0.5,) * (n_ions // 2)
    probe = prepare_probe(BELL if n_ions == 2 else GHZ, positions, 1.0,
                          (branch, tuple(-w for w in branch)))
    zeeman = ZeemanConfig(g_factor=2.0)
    rms = spread / (zeeman.gyromagnetic_ratio * abs(probe.gradient_coupling))
    plan = ExperimentPlan(shots=shots, interaction_time=1.0, bias_phase=bias)
    return (plan, probe, zeeman, (0.0,) * n_ions,
            NoiseModel(gradient_rms=rms, contrast=contrast))


def chosen_route(args: tuple) -> str:
    """The route the rule picks for the run: 'screen' when it counts ranks at p0."""
    rank_counts, calls = estimation._rank_counts, []

    def counted(*a):
        calls.append(1)
        return rank_counts(*a)

    estimation._rank_counts = counted
    try:
        simulate_shots(*args)
    finally:
        estimation._rank_counts = rank_counts
    return "screen" if calls else "map"


def timed(args: tuple, setup: float) -> tuple[float, bytes]:
    """Seconds one simulate_shots call takes with _SCREEN_SETUP = setup, and its counts."""
    fitted, estimation._SCREEN_SETUP = estimation._SCREEN_SETUP, setup
    try:
        start = time.perf_counter()
        counts = simulate_shots(*args).pattern_counts
        return time.perf_counter() - start, counts.tobytes()
    finally:
        estimation._SCREEN_SETUP = fitted


def ratio(args: tuple) -> tuple[float, bool]:
    """The median over ROUNDS of the best screen time over the best map time, and
    whether every call of both routes gave the same counts."""
    ratios, seen = [], set()
    for _ in range(ROUNDS):
        best = dict.fromkeys(ROUTES, math.inf)
        for _ in range(REPEATS):
            for route, setup in ROUTES.items():
                seconds, counts = timed(args, setup)
                best[route] = min(best[route], seconds)
                seen.add(counts)
        ratios.append(best["screen"] / best["map"])
    return statistics.median(ratios), len(seen) == 1


def main() -> int:
    print(f"{'':27}screen/map")
    print(f"{'ions':>4} {'K':>4} {'spread':>7} {'shots':>7} {'top':>6} {'middle':>6}  rule")
    equal = True
    for n_ions, contrast, spread, shots in GRID:
        runs = [arguments(n_ions, contrast, spread, shots, bias) for bias in (0.0, math.pi / 2)]
        (top, same_top), (middle, same_middle) = map(ratio, runs)
        equal &= same_top and same_middle
        flag = "" if same_top and same_middle else "  COUNTS DIFFER"
        print(f"{n_ions:>4} {contrast:>4} {spread:>7g} {shots:>7,} {top:>6.2f} {middle:>6.2f}  "
              f"{chosen_route(runs[1])}{flag}", flush=True)
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
