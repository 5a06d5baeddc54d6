"""Module boundaries: no egregium module reaches into another's private
names, so a module's underscored functions can change without breaking
its callers."""

import ast
from pathlib import Path

import pytest

import egregium

PACKAGE = Path(egregium.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
MODULE_NAMES = frozenset(path.stem for path in MODULES)


def private_uses(source):
    """(line, `module._name`) of each attribute access on a name that is
    an egregium module, where the attribute is private."""
    return [(node.lineno, f"{node.value.id}.{node.attr}")
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in MODULE_NAMES
            and node.attr.startswith("_")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_names_of_other_modules(path):
    assert private_uses(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_private_use():
    source = "from . import curves\n\ncurves._jets(curve, 0.0)\n"
    assert private_uses(source) == [(3, "curves._jets")]
