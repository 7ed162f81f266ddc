"""The package keeps only what a command or `verify` runs: every public
top-level function or class of a `targetcost` module is named somewhere in
the package's own modules, `__init__` aside.  Code that only tests use
belongs in `tests/`, and so do the dependencies only tests use."""

import ast
from pathlib import Path

import pytest

import targetcost

PACKAGE = Path(targetcost.__file__).resolve().parent


def _modules():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def test_every_public_name_is_used_in_the_package():
    modules = _modules()
    named = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unused = [f"{module}.{node.name}" for module, tree in modules.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in named]
    assert unused == []


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_needs_numpy_alone():
    # SciPy is a test dependency only: no module imports it, at any depth,
    # and the installed package does not require it.
    importers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if "scipy" in _imported_roots(
                     ast.parse(path.read_text(), filename=str(path)))]
    assert importers == []
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(
        (PACKAGE.parents[1] / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=2.0"]
    assert "scipy>=1.10" in project["optional-dependencies"]["test"]
