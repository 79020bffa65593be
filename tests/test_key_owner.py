"""relations.py owns the packed ternary keys and every size refusal: no other
module reads the keys, builds a FiniteRelation3 itself (FiniteRelation3._from_increasing
keeps the array it is handed as the keys, unchecked), names MAX_KEYS or compares
against a budget_cells."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "expd")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py") and name != "relations.py")


def parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def key_reads(path):
    """Line numbers of `.keys` attributes that are not the callee of a `.keys()` call."""
    tree = parse(path)
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


def constructor_calls(path):
    """Line numbers of calls to FiniteRelation3(...), by name or as an attribute,
    or to any _from_increasing(...)."""
    return [
        node.lineno
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Call)
        and (names(node.func, "FiniteRelation3") or names(node.func, "_from_increasing"))
    ]


@pytest.mark.parametrize("module", MODULES)
def test_calls_no_relation3_constructor(module):
    assert constructor_calls(os.path.join(SRC, module)) == [], f"{module} calls FiniteRelation3; use build_relation3"


def test_finds_a_constructor_call(tmp_path):
    path = tmp_path / "maker.py"
    path.write_text(
        "from .relations import FiniteRelation3\n"
        "def f(x, keys):\n"
        "    return FiniteRelation3(x, x, x, keys), relations.FiniteRelation3(x, x, x, keys), FiniteRelation3\n"
        "def g(x, keys):\n"
        "    return FiniteRelation3._from_increasing(x, x, x, keys)\n"
    )
    assert sorted(constructor_calls(str(path))) == [3, 3, 5]


def names(node, name):
    """Whether node is the name, an attribute or an imported alias called name."""
    return (
        isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.alias) and node.name == name
    )


def size_decisions(path):
    """Line numbers that name MAX_KEYS or compare against a budget_cells."""
    return [
        node.lineno
        for node in ast.walk(parse(path))
        if names(node, "MAX_KEYS")
        or isinstance(node, ast.Compare) and any(names(side, "budget_cells") for side in (node.left, *node.comparators))
    ]


@pytest.mark.parametrize("module", MODULES)
def test_decides_no_size_refusal(module):
    assert size_decisions(os.path.join(SRC, module)) == [], f"{module} decides a size; use relations._charge or _check_keys"


def test_finds_a_size_decision(tmp_path):
    path = tmp_path / "sizer.py"
    path.write_text(
        "from .relations import MAX_KEYS\n"
        "def f(n, spec, budget_cells):\n"
        "    return n >= relations.MAX_KEYS, n > spec.budget_cells, budget_cells < n, n == budget_cells(n)\n"
    )
    assert size_decisions(str(path)) == [1, 3, 3, 3]
