"""The oracles in oracles.py must never reach the code they check."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def _names_fvectors(name):
    return name == "fvectors" or name.startswith("fvectors.")


def test_oracles_import_nothing_from_fvectors():
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    reached = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            reached += [a.name for a in node.names if _names_fvectors(a.name)]
        elif isinstance(node, ast.ImportFrom):
            if node.level or _names_fvectors(node.module or ""):
                reached.append(node.module or "." * node.level)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # importlib.import_module("fvectors...") and the like
            if _names_fvectors(node.value):
                reached.append(node.value)
    assert reached == []
