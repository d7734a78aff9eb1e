import ast
from collections import Counter
from pathlib import Path

import pytest

import iongradim
from test_bench_targets import _load

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
    sites = {site for *_, target_sites in _load("tracing")._TARGETS for site in target_sites}
    assert _UNUSED_IMPORTS_KEPT <= sites


def _reads(node):
    """Each name and attribute that node reads, counted once per read."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load))


def _definitions(tree):
    """(name, node) of each function, class or constant at a module's top, and of each
    method of its classes; node is the def, or the constant's assignment."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield top.name, top
        if isinstance(top, ast.ClassDef):
            yield from ((node.name, node) for node in top.body
                        if isinstance(node, ast.FunctionDef))
        if isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            yield from ((target.id, top) for target in targets if isinstance(target, ast.Name))


def _unreferenced_private_names(trees):
    """Private names, dunders aside, that no module reads outside their own definition."""
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    return {(module, name) for module, tree in trees.items()
            for name, node in _definitions(tree)
            if name.startswith("_") and not name.startswith("__")
            and reads[name] == _reads(node)[name]}


def test_every_private_function_is_called():
    # and every private class, module-level constant and method is read
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(iongradim.__file__).parent.glob("*.py")}
    assert _unreferenced_private_names(trees) == set()


def test_project_version_is_the_package_version():
    # every output header carries __version__; pyproject.toml states it to installers
    tomllib = pytest.importorskip("tomllib")   # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as file:
        assert tomllib.load(file)["project"]["version"] == iongradim.__version__
