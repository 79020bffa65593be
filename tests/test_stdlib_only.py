"""The package imports nothing outside the Python standard library."""

import ast
import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "expd")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def imported_top_level_names(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("module", MODULES)
def test_imports_only_stdlib_and_expd(module):
    names = set(imported_top_level_names(os.path.join(SRC, module)))
    outside = sorted(names - set(sys.stdlib_module_names) - {"expd"})
    assert outside == [], f"{module} imports {outside}"


def test_every_module_checked():
    assert "cli.py" in MODULES and "__init__.py" in MODULES
