"""No module of the package imports a private (underscore) name of another,
every private module-level helper is used somewhere in the package, and
every public module-level function has a caller in the package unless it
is a named cross-check oracle.

A name that two modules need belongs to the public surface of the module
that defines it; importing its private helpers instead hides the
dependency. A private helper that nothing in the package references, but
for tests, is a leftover of a refactor, and so is a public function that
only the tests call, unless it is an oracle kept to check the package
against.
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


def referenced_names(node):
    """Every name and attribute that `node` mentions, imports included."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def private_helpers():
    """`module: name` of each private module-level function or class of
    the package, and every name the package references outside the
    definition of that very name."""
    defined, used = [], set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            names = referenced_names(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if is_private(node.name):
                    defined.append((path.name, node.name))
                names.discard(node.name)
            used |= names
    return defined, used


def test_every_private_helper_is_referenced_in_the_package():
    defined, used = private_helpers()
    assert defined
    assert [f"{module}: {name}" for module, name in defined
            if name not in used] == []


# the public functions with no caller in the package, each kept as an
# independent check of the package (by the tests and the benchmark)
ORACLES = {
    "asep_rates": "closed-form hop rates of the strong-dissipation limit",
    "full_spectrum": "the spectrum on the whole pair space, which every "
                     "sector spectrum must be part of",
    "hull_violation": "whether one spectrum lies in the convex hull of "
                      "another",
    "lindblad_apply": "the operator-form generator, against the assembled "
                      "matrix",
    "partition_double_space": "the charge-difference blocks that every "
                              "coupled component must lie inside",
    "positivity_defect": "the most negative eigenvalue of a state",
    "vectorize_into": "vec(rho) on a pair basis, the inverse of "
                      "devectorize_from",
    "weak_spectrum": "the spectrum of the weak sector, assembled whole",
}


def uncalled_public_functions():
    """`module: name` of each public module-level function that nothing in
    the package names outside its own definition; an import alone is no
    caller."""
    defined, called = [], set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            names = {sub.id if isinstance(sub, ast.Name) else sub.attr
                     for sub in ast.walk(node)
                     if isinstance(sub, (ast.Name, ast.Attribute))}
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not is_private(node.name):
                    defined.append((path.name, node.name))
                names.discard(node.name)
            called |= names
    return [(module, name) for module, name in defined if name not in called]


def test_every_public_function_has_a_caller_or_is_a_named_oracle():
    uncalled = uncalled_public_functions()
    assert sorted(name for _, name in uncalled) == sorted(ORACLES), uncalled
