"""Every name a module of the package imports is used in that module, and
the package leaves the costly standard modules unimported.

A dead import is not free: the span tracer in perfbench wraps every
function one module imports from another, and a reader takes an import
for a dependency.  Every CLI call is a fresh process, so each module the
package pulls in adds to its start-up."""

import ast
import os
import subprocess
import sys
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


def test_cli_import_leaves_costly_modules_out():
    # -S keeps site hooks out, so only the package's own imports count;
    # argparse would bring gettext, and the CLI reads its argv without them
    code = ("import sys, fvectors.cli; print(sorted("
            "{'argparse', 'dataclasses', 'gettext', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(fvectors.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("path", sorted(Path(fvectors.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_module_parses_as_python_3_10(path):
    # the package declares Python >= 3.10; grammar from a later version
    # would fail there at import
    ast.parse(path.read_text(), feature_version=(3, 10))
