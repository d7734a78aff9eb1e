"""Entangled-ion magnetic gradient sensing simulator.

Ion-crystal equilibria, single-spin dipole fields, decoherence-free Bell/GHZ
parity spectroscopy, and projection-noise Monte Carlo estimation, wired into
reproducible end-to-end sensing scenarios.
"""

__version__ = "0.1.0"

from .constants import constants
from .crystal import TrapConfig
from .errors import (ConfigurationError, FieldSingularityError, InfeasibleError,
                     SolverError)
from .estimation import ExperimentPlan, NoiseModel
from .protocol import ZeemanConfig
from .scenarios import ScenarioConfig, run_scenario

__all__ = [
    "constants", "TrapConfig", "ZeemanConfig", "NoiseModel", "ExperimentPlan",
    "ScenarioConfig", "run_scenario",
    "ConfigurationError", "FieldSingularityError", "InfeasibleError", "SolverError",
]
