import iongradim


def test_public_names_are_the_ones_the_readme_lists():
    # the README's library example imports the first seven; the rest are the exceptions
    assert set(iongradim.__all__) == {
        "TrapConfig", "ZeemanConfig", "NoiseModel", "ExperimentPlan",
        "ScenarioConfig", "run_scenario", "constants",
        "ConfigurationError", "FieldSingularityError", "InfeasibleError", "SolverError",
    }
    assert all(hasattr(iongradim, name) for name in iongradim.__all__)
