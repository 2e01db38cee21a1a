"""The package's module layering: each module imports only the modules of
the stages below it."""

import ast
import os

import pytest

import pnlevp

# module -> the package modules it may import
ALLOWED = {
    "errors": set(),
    "contour": {"errors"},
    "problems": {"contour", "errors"},
    "paaa": {"errors"},
    "loewner": {"errors"},
    "solver": {"contour", "errors", "loewner", "paaa"},
    "benchmarks": {"contour", "problems", "solver"},
    "cli": {"benchmarks", "contour", "errors", "problems", "solver"},
}

PACKAGE = os.path.dirname(pnlevp.__file__)


def _relative_imports(path):
    """Package modules imported by the file at path through relative
    imports (`from .x import y`, `from . import x`), anywhere in it."""
    with open(path) as f:
        tree = ast.parse(f.read(), filename=path)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_has_a_layer():
    modules = {name[:-3] for name in os.listdir(PACKAGE)
               if name.endswith(".py") and name != "__init__.py"}
    assert modules == set(ALLOWED)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_imports_stay_in_layer(module):
    imported = _relative_imports(os.path.join(PACKAGE, f"{module}.py"))
    assert imported <= ALLOWED[module], sorted(imported - ALLOWED[module])
