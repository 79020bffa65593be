"""relations.py owns the packed ternary keys: no other module reads them."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "expd")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py") and name != "relations.py")


def key_reads(path):
    """Line numbers of `.keys` attributes that are not the callee of a `.keys()` call."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "keys" and id(node) not in called
    ]


@pytest.mark.parametrize("module", MODULES)
def test_reads_no_packed_keys(module):
    assert key_reads(os.path.join(SRC, module)) == [], f"{module} reads .keys; use axis_pairs or restrict"


def test_every_module_checked():
    assert "pipeline.py" in MODULES and "relations.py" not in MODULES


def test_finds_a_key_read(tmp_path):
    path = tmp_path / "reader.py"
    path.write_text("def f(rel, d):\n    return d.keys(), rel.keys\n")
    assert key_reads(str(path)) == [2]
