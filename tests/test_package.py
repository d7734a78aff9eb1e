import ast
from pathlib import Path

import iongradim
from test_bench_targets import _load_tracing

# bench/tracing.py wraps cli.dipole_field, so cli imports it without using it;
# test_each_kept_import_is_a_traced_site holds each entry to such a site
_UNUSED_IMPORTS_KEPT = {("cli", "dipole_field")}


def test_public_names_are_the_ones_the_readme_lists():
    # the README's library example imports the first seven; the rest are the exceptions
    assert set(iongradim.__all__) == {
        "TrapConfig", "ZeemanConfig", "NoiseModel", "ExperimentPlan",
        "ScenarioConfig", "run_scenario", "constants",
        "ConfigurationError", "FieldSingularityError", "InfeasibleError", "SolverError",
    }
    assert all(hasattr(iongradim, name) for name in iongradim.__all__)


def _unused_imports(tree):
    """Names the module imports but neither reads nor lists in __all__."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {element.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for element in node.value.elts}
    return imported - read - exported


def test_every_import_is_used():
    unused = {(path.stem, name) for path in Path(iongradim.__file__).parent.glob("*.py")
              for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))}
    assert unused == _UNUSED_IMPORTS_KEPT


def test_each_kept_import_is_a_traced_site():
    # once the benchmark stops wrapping a kept import where it is looked up,
    # the import has no reason left and must go
    sites = {site for *_, target_sites in _load_tracing()._TARGETS for site in target_sites}
    assert _UNUSED_IMPORTS_KEPT <= sites


def _unreferenced_private_functions(trees):
    """Module-level functions named _x that no module refers to outside their own body."""
    defined, referenced = set(), set()
    for module, tree in trees.items():
        for top in tree.body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            if own is not None and own.startswith("_"):
                defined.add((module, own))
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name != own:
                    referenced.add(name)
    return {(module, name) for module, name in defined if name not in referenced}


def test_every_private_function_is_called():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(iongradim.__file__).parent.glob("*.py")}
    assert _unreferenced_private_functions(trees) == set()
