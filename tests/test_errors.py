"""Every bounded dataclass field decides a value exactly as its errors.Bound does."""

import dataclasses
import math
import sys

import pytest

from iongradim.constants import Vec3
from iongradim.crystal import TrapConfig
from iongradim.errors import ConfigurationError
from iongradim.estimation import ExperimentPlan, NoiseModel
from iongradim.protocol import BELL, ZeemanConfig, prepare_probe
from iongradim.scenarios import THREE_ION_SPIN, ScenarioConfig

TRAP = TrapConfig(axial_frequency=2 * math.pi * 1e6, ion_mass=6.6e-26)
ZEEMAN = ZeemanConfig(g_factor=2.0)
NOISE = NoiseModel()
PLAN = ExperimentPlan(shots=10, interaction_time=1.0)
# one valid instance of each class whose fields carry a Bound; a three_ion_spin
# scenario has no rule of its own beyond the bounds
VALID = [TRAP, ZEEMAN, NOISE, PLAN,
         prepare_probe(BELL, (Vec3(0.0, 0.0, 0.0), Vec3(0.0, 0.0, 1e-6)), 1.0),
         ScenarioConfig(kind=THREE_ION_SPIN, trap=TRAP, zeeman=ZEEMAN, noise=NOISE, plan=PLAN)]


def _values(bound):
    """Each end of bound's range (the largest floats where it has none), the
    floats either side of it, nan, +-inf, a str and None; for an integer
    bound also the ints either side of each end."""
    ends = [-sys.float_info.max if bound.minimum is None else bound.minimum,
            sys.float_info.max if bound.maximum is None else bound.maximum]
    values = [v for end in ends for v in (math.nextafter(end, -math.inf), end,
                                          math.nextafter(end, math.inf))]
    if bound.integer:
        values += [v for end in map(int, ends) for v in (end - 1, end, end + 1)]
    return values + [math.nan, math.inf, -math.inf, "1", None]


CASES = [pytest.param(instance, f, value, id=f"{type(instance).__name__}.{f.name}={value!r:.24}")
         for instance in VALID for f in dataclasses.fields(instance) if "bound" in f.metadata
         for value in _values(f.metadata["bound"])]


def _refusal(make):
    """The ConfigurationError message of make(), or None when it returns."""
    try:
        make()
    except ConfigurationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("instance, f, value", CASES)
def test_each_bounded_field_decides_as_its_bound(instance, f, value):
    bound = f.metadata["bound"]
    expected = (None if value is None and f.default is None
                else _refusal(lambda: bound.check(f.name, value)))
    assert _refusal(lambda: dataclasses.replace(instance, **{f.name: value})) == expected


def test_the_grid_holds_every_bounded_field():
    assert len({(type(instance), f.name) for instance, f, _ in (c.values for c in CASES)}) == 23
