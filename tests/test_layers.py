"""The package's module layering: each module imports only the modules of
the stages below it, and no module imports a third-party package but
NumPy."""

import ast
import os
import subprocess
import sys
import textwrap

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


def _parse(path):
    with open(path) as f:
        return ast.parse(f.read(), filename=path)


def _relative_imports(path):
    """Package modules imported by the file at path through relative
    imports (`from .x import y`, `from . import x`), anywhere in it."""
    found = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def _absolute_imports(path):
    """Top-level names of the packages the file at path imports absolutely
    (`import x.y`, `from x.y import z`), anywhere in it."""
    found = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_every_module_has_a_layer():
    modules = {name[:-3] for name in os.listdir(PACKAGE)
               if name.endswith(".py") and name != "__init__.py"}
    assert modules == set(ALLOWED)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_imports_stay_in_layer(module):
    imported = _relative_imports(os.path.join(PACKAGE, f"{module}.py"))
    assert imported <= ALLOWED[module], sorted(imported - ALLOWED[module])


@pytest.mark.parametrize("module", sorted(ALLOWED) + ["__init__"])
def test_only_numpy_outside_the_stdlib(module):
    imported = _absolute_imports(os.path.join(PACKAGE, f"{module}.py"))
    third_party = imported - sys.stdlib_module_names - {"numpy"}
    assert not third_party, sorted(third_party)


def test_a_session_loads_no_scipy(tmp_path):
    # the package, the CLI and the benchmarks, a saved model's answer and
    # its scalar probe run on NumPy's LAPACK alone
    script = textwrap.dedent(f"""
        import sys
        import warnings
        import pnlevp, pnlevp.cli, pnlevp.benchmarks as bench
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            _, model = bench.build_offline(bench.get_benchmark("delay"))
        pnlevp.save_model(model, {str(tmp_path / "delay.model")!r})
        model = pnlevp.load_model({str(tmp_path / "delay.model")!r})
        assert len(pnlevp.online(model, 32.5).eigenvalues) == 4
        assert len(pnlevp.scalar_probe_eigenvalues(model, 32.5)) > 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
