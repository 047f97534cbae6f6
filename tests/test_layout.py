"""Source layout rules that no single behaviour test would catch."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ssl_lab"


def private_imports(path):
    """(line, name) of every `_name` a module imports from another ssl_lab module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("ssl_lab"):
            continue
        for alias in node.names:
            dunder = alias.name.startswith("__") and alias.name.endswith("__")
            if alias.name.startswith("_") and not dunder:
                found.append((node.lineno, alias.name))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_cross_module_private_imports(path):
    assert private_imports(path) == []


def test_rule_catches_a_private_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from .experiments import _helper, public\nfrom . import __version__\n")
    assert private_imports(module) == [(1, "_helper")]
