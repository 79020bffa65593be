"""instances.seeded_rng builds every random stream: no other code calls into the random module."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "expd")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def random_calls(path):
    """(enclosing function, line) of every random.NAME(...) or Random(...) call in a module."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            func = child.func if isinstance(child, ast.Call) else None
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "random":
                found.append((scope, child.lineno))
            elif isinstance(func, ast.Name) and func.id == "Random":
                found.append((scope, child.lineno))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(tree, None)
    return found


@pytest.mark.parametrize("module", MODULES)
def test_only_the_seed_helper_draws(module):
    calls = random_calls(os.path.join(SRC, module))
    if module == "instances.py":
        assert [scope for scope, _ in calls] == ["seeded_rng"]
    else:
        assert calls == [], f"{module} calls into the random module; use instances.seeded_rng"


def test_finds_a_random_call(tmp_path):
    path = tmp_path / "drawer.py"
    path.write_text(
        "import random\nfrom random import Random\n\n\n"
        "def f(seed):\n    return random.Random(seed), Random(seed)\n\n\nrandom.shuffle([])\n"
    )
    assert random_calls(str(path)) == [("f", 6), ("f", 6), (None, 9)]
