"""The package keeps only what a command or `verify` runs: every public
top-level function or class of a `targetcost` module is named somewhere in
the package's own modules, `__init__` aside.  Code that only tests use
belongs in `tests/`."""

import ast
from pathlib import Path

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
