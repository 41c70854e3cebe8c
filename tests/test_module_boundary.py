"""No module of the package imports a private (underscore) name of another.

A name that two modules need belongs to the public surface of the module
that defines it; importing its private helpers instead hides the
dependency.
"""

import ast
import pathlib

import pytest

import dqlm

MODULES = sorted(pathlib.Path(dqlm.__file__).parent.glob("*.py"))


def is_private(name):
    """A leading underscore, but not a dunder such as `__version__`."""
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def private_imports(path):
    """`line: name` for each underscore name `path` imports from dqlm."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = node.module.split(".")[0] if node.module else None
        if node.level == 0 and package != "dqlm":
            continue
        found += [f"{node.lineno}: {alias.name}" for alias in node.names
                  if is_private(alias.name)]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_imported_from_another_module(path):
    assert private_imports(path) == []
