"""Each module's __all__ names exactly its public top-level definitions."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import talbotlab

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(talbotlab.__path__))
MODULES = {"talbotlab": talbotlab} | {
    f"talbotlab.{name}": importlib.import_module(f"talbotlab.{name}") for name in SUBMODULES
}


def public_definitions(module) -> set:
    """Names the module's own source binds at top level, minus _private ones."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_all_names_exactly_the_public_definitions(name):
    module = MODULES[name]
    for entry in module.__all__:
        getattr(module, entry)
    expected = public_definitions(module)
    if name == "talbotlab":
        expected |= set(SUBMODULES)
    assert sorted(module.__all__) == sorted(expected)
