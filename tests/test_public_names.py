"""Each module's __all__ names exactly its public top-level definitions,
every public name and method has a caller outside the tests, and every
study is an acceptance criterion."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import talbotlab
from talbotlab import cli

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


# What counts as a caller: the library itself, the benchmark's own code
# (not its tests) and the acceptance suite.  The demos are examples, not
# callers: a demo runs the study drivers and the names they use, so a
# name only a demo reaches is a second implementation of a study.
ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLER_FILES = sorted(
    [*(ROOT / "src" / "talbotlab").glob("*.py"), *(ROOT / "bench").glob("*.py"),
     ROOT / "tests" / "test_acceptance.py"]
)

def references() -> list:
    """(name, path, line) of every identifier a caller file uses.

    Names, attribute names, the modules of ``from ... import`` lines,
    and the string keys of ``Binding(owner, key, ...)`` calls: the
    benchmark's tracer reaches some kernels only through those keys.
    """
    refs = []
    for path in CALLER_FILES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                refs.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, path, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module:
                refs.extend((part, path, node.lineno) for part in node.module.split("."))
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Binding"
                  and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
                refs.append((node.args[1].value, path, node.lineno))
    return refs


def public_surface(module):
    """(qualified name, name, source path, definition line span) of each
    ``__all__`` name and each public method of a public class of the module."""
    path = pathlib.Path(module.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nodes = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            nodes[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            nodes.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    for name in module.__all__:
        node = nodes.get(name)
        span = (node.lineno, node.end_lineno) if node else (0, -1)
        yield f"{module.__name__}.{name}", name, path, span
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield (f"{module.__name__}.{name}.{member.name}", member.name, path,
                           (member.lineno, member.end_lineno))


def test_every_public_name_has_a_caller():
    """A public name or method that only tests reach is a knob no study
    needs: delete it, or move it into the tests as an oracle."""
    refs = references()
    unreached = []
    for module in MODULES.values():
        for qualified, name, path, (lo, hi) in public_surface(module):
            if not any(ref == name and not (where == path and lo <= line <= hi)
                       for ref, where, line in refs):
                unreached.append(qualified)
    assert unreached == []


def test_every_study_is_an_acceptance_criterion():
    """The acceptance suite calls exactly the CLI studies' drivers: a
    study whose verdict no criterion gates has no place in the CLI."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    called = {
        node.func.attr for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "ex"
        and node.func.attr.startswith("run_")
    }
    assert called == {spec["driver"].__name__ for spec in cli._SPECS.values()}
