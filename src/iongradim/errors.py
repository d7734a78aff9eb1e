"""Exception types shared across the simulator, and the value ranges every layer checks."""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from functools import cache


class ConfigurationError(ValueError):
    """A parameter or parameter combination is physically or structurally invalid."""


class SolverError(RuntimeError):
    """Iterative solver failed to converge; carries the final residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class FieldSingularityError(ValueError):
    """Field evaluation requested at (or too close to) a point source."""


class InfeasibleError(ValueError):
    """Requested estimate cannot be reached for any shot count (e.g. zero signal)."""


@dataclass(frozen=True)
class Bound:
    """The valid range of one number: finite, at least minimum (above it when
    exclusive_minimum) and at most maximum where those are given, and an int
    where integer. Each range is one Bound object, which the library checks
    (check, check_fields) and the CLI schema reads."""

    minimum: float | None = None
    maximum: float | None = None
    exclusive_minimum: bool = False
    integer: bool = False

    def __str__(self) -> str:
        """The range in words: 'in [0, 1]', 'finite and > 0', 'an integer >= 0'."""
        if self.maximum is not None:
            text = f"in {'(' if self.exclusive_minimum else '['}{self.minimum}, {self.maximum}]"
        else:
            text = "finite" if self.minimum is None else (
                f"{'' if self.integer else 'finite and '}{self._lower()}")
        return f"an integer {text}" if self.integer else text

    def _lower(self) -> str:
        return f"{'>' if self.exclusive_minimum else '>='} {self.minimum}"

    def broken(self, value) -> str | None:
        """The end of the range that the number value lies beyond, as '> 0'
        or '<= 1'; None when it lies within both ends."""
        if self.minimum is not None and not (
                value > self.minimum if self.exclusive_minimum else value >= self.minimum):
            return self._lower()
        return None if self.maximum is None or value <= self.maximum else f"<= {self.maximum}"

    def check(self, name: str, value) -> None:
        """Raise a ConfigurationError naming name when value is not in range."""
        if not (isinstance(value, int if self.integer else (int, float))
                and -math.inf < value < math.inf) or self.broken(value):
            raise ConfigurationError(f"{name} must be {self}, got {value}")


def bounded(bound: Bound, default=MISSING):
    """A dataclass field held to bound by check_fields; with a default of None it may be None."""
    return field(default=default, metadata={"bound": bound})


@cache
def _field_bounds(cls) -> tuple[tuple[str, Bound, bool], ...]:
    """(name, bound, may be None) of each bounded field of cls, in field order, read
    once per class; may be None is true where the field's default is None."""
    return tuple((f.name, bound, f.default is None)
                 for f in fields(cls) if (bound := f.metadata.get("bound")) is not None)


def check_fields(obj) -> None:
    """Check each bounded field of the dataclass obj, in field order: bound.check
    decides every value but an allowed None, so each range has one rule."""
    for name, bound, may_be_none in _field_bounds(type(obj)):
        value = getattr(obj, name)
        if value is not None or not may_be_none:
            bound.check(name, value)
