"""Every name a module of the package imports is used in that module.

A dead import is not free: the span tracer in perfbench wraps every
function one module imports from another, and a reader takes an import
for a dependency."""

import ast
from pathlib import Path

import pytest

import fvectors

MODULES = sorted(
    path for path in Path(fvectors.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported_names(tree) if name not in used] == []
