"""Relation DSL: parsing, grids, instantiation."""

import math
import random
import re
import sys
import time
import tracemalloc
from collections import Counter
from itertools import product

import pytest

from expd import GridSpec, InputError, cli, instantiate2, instantiate3, parse, parse_grid
from expd.dsl import BINARY_VARS, MAX_GRID_BITS, MAX_TOKENS, MAX_VALUE_BITS, TERNARY_VARS, BinOp, Const, Pow, RelationExpr, Var, _compile, _solved, _tokenize
from expd.errors import BudgetError, SyntaxError_


class TestParse:
    def test_sum(self):
        e = parse("x + y = z")
        assert e.lhs == BinOp("+", Var("x"), Var("y"))
        assert e.rhs == Var("z")
        assert e.modulus is None

    def test_product_with_modulus(self):
        e = parse("x*y*z = 1 mod 7")
        assert e.modulus == 7
        assert e.lhs == BinOp("*", BinOp("*", Var("x"), Var("y")), Var("z"))
        assert e.rhs == Const(1)

    def test_powers(self):
        e = parse("x^2 + y^3 = z")
        assert e.lhs == BinOp("+", Pow(Var("x"), 2), Pow(Var("y"), 3))

    def test_parens_and_minus(self):
        e = parse("(x - y)*z = 0")
        assert e.lhs == BinOp("*", BinOp("-", Var("x"), Var("y")), Var("z"))

    @pytest.mark.parametrize(
        "text, lhs, rhs, modulus",
        [
            ("x - y - z = 0", BinOp("-", BinOp("-", Var("x"), Var("y")), Var("z")), Const(0), None),
            ("x - (y - z) = 0", BinOp("-", Var("x"), BinOp("-", Var("y"), Var("z"))), Const(0), None),
            ("(x^2)^3 = y", Pow(Pow(Var("x"), 2), 3), Var("y"), None),
            ("(x + 1)^2 = y*z", Pow(BinOp("+", Var("x"), Const(1)), 2), BinOp("*", Var("y"), Var("z")), None),
            (
                "2*x + 3*y - 4*z = 10 mod 11",
                BinOp("-", BinOp("+", BinOp("*", Const(2), Var("x")), BinOp("*", Const(3), Var("y"))), BinOp("*", Const(4), Var("z"))),
                Const(10),
                11,
            ),
        ],
    )
    def test_association_and_nesting(self, text, lhs, rhs, modulus):
        assert parse(text) == RelationExpr(lhs, rhs, modulus, TERNARY_VARS)

    def test_unknown_variable_position(self):
        with pytest.raises(SyntaxError_) as exc:
            parse("x + w = z")
        assert "w" in str(exc.value)
        assert exc.value.col == 5

    def test_binary_variable_set(self):
        e = parse("y*z = 1 mod 7", variables=BINARY_VARS)
        assert e.variables == ("y", "z")
        with pytest.raises(SyntaxError_):
            parse("x + y = z", variables=BINARY_VARS)

    def test_negative_exponent_rejected(self):
        with pytest.raises(SyntaxError_, match="nonnegative"):
            parse("x^-2 = z")

    def test_small_modulus_rejected(self):
        with pytest.raises(SyntaxError_):
            parse("x + y = z mod 1")

    def test_missing_equals(self):
        with pytest.raises(SyntaxError_):
            parse("x + y")

    def test_trailing_garbage(self):
        with pytest.raises(SyntaxError_):
            parse("x = z z")

    def test_line_column_on_later_line(self):
        with pytest.raises(SyntaxError_) as exc:
            parse("x +\n  % = z")
        assert exc.value.line == 2
        assert exc.value.col == 3


class TestTokenCap:
    # the deepest shapes a definition of MAX_TOKENS tokens can take, by nesting depth k
    SHAPES = {
        "parens": lambda k: "(" * k + "x" + ")" * k + " = z mod 7",
        "powers": lambda k: "(" * k + "x" + ")^1" * k + " = z mod 7",  # ^1: the oracle is exact
        "right-minus": lambda k: "x" + " - (y" * k + ")" * k + " = z + x mod 7",  # nothing solved
        "product-of-sums": lambda k: "x" + "*(y + x" * k + ")" * k + " = z",
        "sum": lambda k: " + ".join(["x"] * k) + " = z",
    }

    @staticmethod
    def deepest(shape):
        k = 1
        while len(_tokenize(shape(k + 1))) - 1 <= MAX_TOKENS:
            k += 1
        return k

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_longest_definition_evaluates(self, name):
        shape = self.SHAPES[name]
        k = self.deepest(shape)
        expr = parse(shape(k))
        grid = [-1, 0, 1, 2, 3]
        rel, _ = instantiate3(expr, *[GridSpec("explicit", values=tuple(grid))] * 3)
        assert rel.triples == tuple(brute_force_triples(expr, grid, grid, grid))
        with pytest.raises(SyntaxError_, match="longer than"):
            parse(shape(k + 1))


class TestGrids:
    def test_range(self):
        assert GridSpec("range", 0, 4).resolve() == [0, 1, 2, 3]
        assert GridSpec("range", 2, 10, 3).resolve() == [2, 5, 8]

    def test_geometric(self):
        assert GridSpec("geometric", base=2, count=5).resolve() == [1, 2, 4, 8, 16]

    def test_explicit_distinct(self):
        with pytest.raises(InputError):
            GridSpec("explicit", values=(1, 1, 2)).resolve()

    def test_random_reproducible_and_distinct(self):
        a = GridSpec("random", 0, 100, count=10, seed=5).resolve()
        b = GridSpec("random", 0, 100, count=10, seed=5).resolve()
        assert a == b
        assert len(set(a)) == 10

    def test_random_range_too_small(self):
        with pytest.raises(InputError):
            GridSpec("random", 0, 3, count=10, seed=5).resolve()

    def test_full_mod_needs_modulus(self):
        assert GridSpec("full_mod").resolve(5) == [0, 1, 2, 3, 4]
        with pytest.raises(InputError):
            GridSpec("full_mod").resolve(None)

    def test_unknown_kind_refused(self):
        with pytest.raises(InputError, match="^unknown grid kind 'bogus'$"):
            GridSpec(kind="bogus").resolve()

    def test_mini_syntax(self):
        assert parse_grid("range:0:8:2").resolve() == [0, 2, 4, 6]
        assert parse_grid("geom:3:3").resolve() == [1, 3, 9]
        assert parse_grid("list:5,1,9").resolve() == [5, 1, 9]
        assert parse_grid("rand:4:0:50", seed=9).resolve() == parse_grid("rand:4:0:50", seed=9).resolve()
        assert parse_grid("fullmod").kind == "full_mod"
        assert parse_grid("range:0:8:2") == GridSpec("range", 0, 8, 2)
        assert parse_grid("geom:3:3") == GridSpec("geometric", base=3, count=3)
        assert parse_grid("list:5,1,9") == GridSpec("explicit", values=(5, 1, 9))
        assert parse_grid("rand:4:0:50", seed=9) == GridSpec("random", 0, 50, count=4, seed=9)
        assert parse_grid("fullmod") == GridSpec("full_mod")
        with pytest.raises(InputError):
            parse_grid("range:0:8")
        with pytest.raises(InputError):
            parse_grid("rand:4:0:50")  # no seed

    def test_random_span_up_to_maxsize(self):
        # random.sample takes the len() of its range, which stops at sys.maxsize
        drawn = GridSpec("random", 0, sys.maxsize - 1, count=3, seed=1).resolve()
        assert drawn == random.Random(1).sample(range(sys.maxsize), 3)
        with pytest.raises(InputError, match="more than"):
            GridSpec("random", 0, sys.maxsize, count=3, seed=1).resolve()
        with pytest.raises(InputError, match="--seed is mandatory"):
            GridSpec("random", 0, 9, count=3, seed=None).resolve()


class TestGridBudget:
    def test_size_matches_resolve(self):
        rng = random.Random(4)
        for _ in range(400):
            lo, hi, step = rng.randint(-9, 9), rng.randint(-9, 9), rng.choice([-4, -3, -1, 1, 2, 5])
            assert GridSpec("range", lo, hi, step).size() == len(range(lo, hi, step))
        for grid in (
            GridSpec("geometric", base=3, count=6),
            GridSpec("geometric", base=3, count=0),
            GridSpec("explicit", values=(4, 1, 7)),
            GridSpec("random", 0, 100, count=10, seed=5),
        ):
            assert grid.size() == len(grid.resolve())
        assert GridSpec("full_mod").size(13) == len(GridSpec("full_mod").resolve(13)) == 13
        assert GridSpec("range", 0, 10**30).size() == 10**30  # no OverflowError

    def test_geometric_bit_cap(self):
        # bits(base)·count·(count-1)/2 + count, a bound on the grid's total bits,
        # may reach MAX_GRID_BITS, no more: geom:2:4096 and geom:3:4096 sit on it
        for base in (2, 3):
            grid = GridSpec("geometric", base=base, count=4096)
            assert grid.size() == 4096
            assert sum(value.bit_length() for value in grid.resolve()) <= MAX_GRID_BITS
        refused = ((2, 4097), (3, 4097), (2, 16384), (2, 65536), (3, 41349))
        for base, count in (*refused, (2, MAX_VALUE_BITS + 1), (3, 41350), (2**100, 700), (2, 10**6)):
            with pytest.raises(BudgetError, match="geometric grid"):
                GridSpec("geometric", base=base, count=count).size()

    def test_refused_before_any_grid_is_built(self):
        small = GridSpec("range", 0, 10)
        huge = GridSpec("range", 0, 10**30)  # resolving it would never finish
        expr = parse("x^2*y^2*z^2 = 1 mod 89")  # nothing solved: 10^3 free points
        with pytest.raises(BudgetError, match="points to evaluate"):
            instantiate3(expr, small, small, small, budget_cells=999)
        rel, _ = instantiate3(expr, small, small, small, budget_cells=1000)
        assert rel.triples == tuple(brute_force_triples(expr, *[range(10)] * 3))
        expr = parse("x*y*z = 1 mod 89")  # z solved linearly: 10^2 free points
        with pytest.raises(BudgetError, match="points to evaluate"):
            instantiate3(expr, small, small, small, budget_cells=99)
        rel, _ = instantiate3(expr, small, small, small, budget_cells=100)
        assert rel.triples == tuple(brute_force_triples(expr, *[range(10)] * 3))
        with pytest.raises(BudgetError, match="grid for z"):
            instantiate3(parse("x + y = z"), small, small, huge)  # z is solved, not free
        with pytest.raises(BudgetError, match="grid for y"):
            instantiate2(parse("y = z", variables=BINARY_VARS), huge, small)

    def test_family_spec_carries_the_budget(self):
        from expd.pipeline import FamilySpec, make_family

        spec = FamilySpec(kind="dsl", expr="x + y = z", budget_cells=24)
        assert len(make_family(spec).build(4)) == 10  # 16 free points
        with pytest.raises(BudgetError):
            make_family(spec).build(5)  # 25 free points


def eval_node(node, env):
    """The reference evaluator: a plain recursive walk in exact integers."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Pow):
        return eval_node(node.base, env) ** node.exponent
    a = eval_node(node.left, env)
    b = eval_node(node.right, env)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    return a * b


def holds(expr, env):
    diff = eval_node(expr.lhs, env) - eval_node(expr.rhs, env)
    if expr.modulus is not None:
        return diff % expr.modulus == 0
    return diff == 0


def brute_force_triples(expr, vx, vy, vz):
    out = []
    for i, a in enumerate(vx):
        for j, b in enumerate(vy):
            for k, c in enumerate(vz):
                if holds(expr, {"x": a, "y": b, "z": c}):
                    out.append((i, j, k))
    return out


class TestInstantiate3:
    def test_sum_0_3(self):
        rel, maps = instantiate3(
            parse("x + y = z"), GridSpec("range", 0, 4), GridSpec("range", 0, 4), GridSpec("range", 0, 4)
        )
        assert len(rel) == 10
        assert rel.triples == tuple(brute_force_triples(parse("x + y = z"), *[maps[v] for v in "xyz"]))

    def test_units_mod_7(self):
        grids = [GridSpec("explicit", values=tuple(range(1, 7)))] * 3
        rel, _ = instantiate3(parse("x*y*z = 1 mod 7"), *grids)
        assert len(rel) == 36

    def test_singleton(self):
        zero = GridSpec("explicit", values=(0,))
        rel, _ = instantiate3(parse("x + y = z"), zero, zero, zero)
        assert rel.triples == ((0, 0, 0),)

    def test_matches_brute_force_on_general_forms(self):
        # no variable is isolated here, forcing the cube evaluation path
        rng = random.Random(3)
        exprs = ["x*z + y = z^2", "x^2 - y*z = 1 mod 13", "x + y + z = x*y mod 9"]
        for text in exprs:
            expr = parse(text)
            vals = [sorted(rng.sample(range(-6, 12), 5)) for _ in range(3)]
            rel, maps = instantiate3(expr, *[GridSpec("explicit", values=tuple(v)) for v in vals])
            assert rel.triples == tuple(brute_force_triples(expr, *vals))

    def test_commutative_source_permutation(self):
        grids = [GridSpec("range", 0, 6)] * 3
        rel_a, _ = instantiate3(parse("x + y = z"), *grids)
        rel_b, _ = instantiate3(parse("y + x = z"), *grids)
        assert rel_a.triples == rel_b.triples

    def test_empty_grid_rejected(self):
        with pytest.raises(InputError, match="empty"):
            instantiate3(
                parse("x + y = z"), GridSpec("range", 0, 0), GridSpec("range", 0, 4), GridSpec("range", 0, 4)
            )

    def test_fullmod_without_modulus_rejected(self):
        with pytest.raises(InputError):
            instantiate3(parse("x + y = z"), GridSpec("full_mod"), GridSpec("full_mod"), GridSpec("full_mod"))

    def test_bijective_in_z_has_unique_z_per_pair(self):
        rel, _ = instantiate3(
            parse("x^2 + y^3 = z"),
            GridSpec("range", 0, 8),
            GridSpec("range", 0, 8),
            GridSpec("range", 0, 64),
        )
        seen = {}
        for i, j, k in rel.triples:
            assert (i, j) not in seen
            seen[(i, j)] = k

    def test_exact_arithmetic_on_geometric_grids(self):
        # values around 2^200; any fixed-width arithmetic would overflow
        rel, _ = instantiate3(
            parse("x*y = z"),
            GridSpec("geometric", base=2, count=101),
            GridSpec("geometric", base=2, count=101),
            GridSpec("explicit", values=(2**200,)),
        )
        # 2^i * 2^j = 2^200 with i, j <= 100 forces i = j = 100
        assert set(rel.triples) == {(100, 100, 0)}


def random_node(rng, names, depth):
    if depth == 0 or rng.random() < 0.25:
        return Var(rng.choice(names)) if rng.random() < 0.7 else Const(rng.randrange(7))
    if rng.random() < 0.2:
        return Pow(random_node(rng, names, depth - 1), rng.randrange(4))
    return BinOp(rng.choice("+-*"), random_node(rng, names, depth - 1), random_node(rng, names, depth - 1))


def random_grid(rng, modulus):
    values = rng.sample(range(-15, 16), 4)
    if modulus is not None:
        values.append(max(values) + modulus)  # a second value in the same residue class
    return values


def lone_variable(expr):
    """The variable one side of expr is, when the other side does not read it."""
    solved, key, _ = _solved(expr)
    return solved if isinstance(key, Var) else None


class TestCompiledEvaluatorFuzz:
    """The compiled evaluator against eval_node on seeded random definitions."""

    def random_expr(self, rng, names):
        # a solved variable v reads v = s with v not in s; None leaves both sides free
        solved = rng.choice(names + (None,))
        modulus = rng.choice([None, 2, 7, 12, 101])
        if solved is None:
            lhs, rhs = random_node(rng, names, 5), random_node(rng, names, 5)
        else:
            rest = tuple(v for v in names if v != solved)
            lhs, rhs = Var(solved), random_node(rng, rest, 5)
            if rng.random() < 0.5:
                lhs, rhs = rhs, lhs
        return RelationExpr(lhs, rhs, modulus, names)

    def test_ternary_matches_oracle(self):
        rng = random.Random(20)
        seen = set()
        for _ in range(200):
            expr = self.random_expr(rng, TERNARY_VARS)
            seen.add(lone_variable(expr))
            vals = [random_grid(rng, expr.modulus) for _ in range(3)]
            rel, maps = instantiate3(expr, *[GridSpec("explicit", values=tuple(v)) for v in vals])
            assert maps == dict(zip(TERNARY_VARS, vals))
            assert rel.triples == tuple(brute_force_triples(expr, *vals)), expr
        assert seen == {"x", "y", "z", None}

    def test_binary_matches_oracle(self):
        rng = random.Random(21)
        seen = set()
        for _ in range(100):
            expr = self.random_expr(rng, BINARY_VARS)
            seen.add(lone_variable(expr))
            vy, vz = random_grid(rng, expr.modulus), random_grid(rng, expr.modulus)
            rel = instantiate2(expr, GridSpec("explicit", values=tuple(vy)), GridSpec("explicit", values=tuple(vz)))
            rows = [0] * len(vy)
            for j, b in enumerate(vy):
                for k, c in enumerate(vz):
                    if holds(expr, {"y": b, "z": c}):
                        rows[j] |= 1 << k
            assert rel.rows == tuple(rows), expr
        assert seen == {"y", "z", None}


class TestLoopNest:
    """The loop nest of _compile on hand-picked definitions, one per placement of
    a subterm, against eval_node and the brute-force relation."""

    DEFINITIONS = [
        "x^3 + 2*x = z",  # a subterm of x only, z solved
        "x + y^2 - 3*y = z",  # of y only
        "y - x = z^3 + 2*z",  # of z only, nothing solved
        "x*y*z = 1",  # x*y under z
        "(x + 1)*(y + 2)*z - x*y = y*z",
        "(2 + 3)^2 * z + (4 - 1)^0 * x = y^2",  # constant subterms
        "(x*y)^0 + z^0 + x^0*y = 3",  # exponent 0 over one and two variables
        "x*(x + y)*(x + y + z) + x^2 = x*z",  # x read at every depth
        "x*x*x + z = x",  # z alone per point
        "y + 1 = 0",  # reads neither x nor z
        "5 = 5",  # reads nothing
    ]
    # unequal lengths, negative values, an innermost grid one past a row slice
    GRIDS = [([5, -1], [3], list(range(-4, 8189))), ([4, -3, 0, 6, 1, 2, 9], [2, -1, 7], [0, 3, -5, 1])]

    @staticmethod
    def rows_of(expr, names, grids):
        solved, key, side = _solved(expr)  # a linear solve's nest reads lhs - rhs on every grid
        free = tuple(name for name in names if name != solved or key is None)
        rows = list(_compile(side, free, expr.modulus, grids)(*(grids[name] for name in free)))
        reduce = (lambda v: v) if expr.modulus is None else (lambda v: v % expr.modulus)
        points = [reduce(eval_node(side, dict(zip(free, p)))) for p in product(*(grids[name] for name in free))]
        return rows, points

    @pytest.mark.parametrize("modulus", [None, 11])
    @pytest.mark.parametrize("text", DEFINITIONS)
    def test_ternary(self, text, modulus):
        expr = parse(text + ("" if modulus is None else f" mod {modulus}"))
        for vx, vy, vz in self.GRIDS:
            rows, points = self.rows_of(expr, TERNARY_VARS, dict(zip(TERNARY_VARS, (vx, vy, vz))))
            assert max(map(len, rows)) <= 8192 and [v for row in rows for v in row] == points
            rel, _ = instantiate3(expr, *(GridSpec("explicit", values=tuple(v)) for v in (vx, vy, vz)))
            assert rel.triples == tuple(brute_force_triples(expr, vx, vy, vz)), text

    @pytest.mark.parametrize("modulus", [None, 7])
    @pytest.mark.parametrize("text", ["y = z^2 + 3*z", "y = z", "z^3 - 1 = y", "y*z + 2 = (z + 1)^0"])
    def test_binary(self, text, modulus):
        expr = parse(text + ("" if modulus is None else f" mod {modulus}"), variables=BINARY_VARS)
        vy, vz = [-3, 4, 0], list(range(-2, 8191))
        rows, points = self.rows_of(expr, BINARY_VARS, {"y": vy, "z": vz})
        assert max(map(len, rows)) <= 8192 and [v for row in rows for v in row] == points
        rel = instantiate2(expr, GridSpec("explicit", values=tuple(vy)), GridSpec("explicit", values=tuple(vz)))
        pairs = [(j, k) for j, b in enumerate(vy) for k, c in enumerate(vz) if holds(expr, {"y": b, "z": c})]
        assert sorted((j, k) for j, row in enumerate(rel.rows) for k in range(len(vz)) if row >> k & 1) == pairs

    def test_nest_names_only_variables_temporaries_and_its_callables(self):
        # the README's promise: built from the AST's integers, the variable names,
        # numbered temporaries, + - * % and powers, with an empty __builtins__
        expr = parse("x + x^2*y + y^3 + 2^5 - z*x*y*(x + y) + (2 + 3)^2 = 0 mod 13")
        rows = _compile(BinOp("-", expr.lhs, expr.rhs), TERNARY_VARS, 13, {})
        scope = rows.__globals__
        assert scope["__builtins__"] == {} and scope["pow"] is pow
        assert sorted(scope) == ["__builtins__", "_slices", "pow"]
        codes, names, consts = [rows.__code__], set(), set()
        while codes:
            code = codes.pop()
            names |= {*code.co_names, *code.co_varnames, *code.co_cellvars, *code.co_freevars}
            codes += [c for c in code.co_consts if hasattr(c, "co_code")]
            consts |= {c for c in code.co_consts if not hasattr(c, "co_code")}
        assert {name for name in names if not re.fullmatch(r"t\d+|[xyz]|\.0", name)} == {"pow", "_slices"}
        assert all(type(c) is int for c in consts - {None})
        # the temporaries come from the tree's shape, not from set order, so they
        # are the same under every PYTHONHASHSEED
        assert sorted(names - {".0", "pow", "_slices", "x", "y", "z"}) == sorted(
            f"t{i}" for i in (0, 1, 2, 3, 4, 5, 6, 11, 12, 13, 14, 15, 16)
        )


def square_free_node(rng, names, depth):
    """A random polynomial whose degree bound in each of names is 0 or at least 2."""
    if depth == 0 or rng.random() < 0.3:
        if names and rng.random() < 0.7:
            return Pow(Var(rng.choice(names)), rng.choice([0, 2, 3]))
        return Const(rng.randrange(7))
    return BinOp(rng.choice("+-*"), square_free_node(rng, names, depth - 1), square_free_node(rng, names, depth - 1))


class TestLinearSolve:
    """Definitions with no lone variable but one, v, of degree 1: a·v + b = 0 is
    solved per point of the other grids, against the brute-force oracle."""

    MODULI = [None, None, 6, 12, 30, 7]

    def random_expr(self, rng, names, v):
        rest = tuple(name for name in names if name != v)
        a = rng.choice(
            [
                Const(0),  # a = 0, and a ≡ 0 under every modulus
                Const(30),  # a ≡ 0 mod 6 and 30, gcd 6 with 12
                BinOp("-", Pow(Var(rest[0]), 2), Pow(Var(rest[0]), 2)),  # cancels to 0
                Const(rng.choice([1, 2, 3, 4, 5, 6, 10])),  # gcd(a, m) > 1 on composite m
                square_free_node(rng, rest, 2),
                square_free_node(rng, rest, 2),
            ]
        )
        b = rng.choice([Const(0), square_free_node(rng, rest, 2), square_free_node(rng, rest, 2)])
        lhs = rng.choice(
            [
                BinOp("+", BinOp("*", a, Var(v)), b),
                BinOp("-", BinOp("*", Var(v), a), b),
                BinOp("*", BinOp("+", Var(v), b), a),
            ]
        )
        rhs = b if rng.random() < 0.25 else square_free_node(rng, rest, 2)  # b ≡ 0 when rhs repeats it
        if rng.random() < 0.5:
            lhs, rhs = rhs, lhs
        return RelationExpr(lhs, rhs, rng.choice(self.MODULI), names)

    @staticmethod
    def random_grids(rng, names, modulus):
        grids = []
        for _ in names:
            values = rng.sample(range(-15, 16), rng.randint(1, 7))
            if modulus is not None and rng.random() < 0.5:
                values = list(dict.fromkeys(values + [value + modulus for value in values[:2]]))  # congruent mod m
            if modulus is not None and rng.random() < 0.3:
                values = list(range(-1, modulus))  # every residue, so every root is in the grid
            grids.append(values)
        return grids

    @staticmethod
    def kinds(expr, v, grids):
        """The cases the points of the other grids give, from lhs - rhs at v = 0 and 1."""
        names, m = expr.variables, expr.modulus
        others = [grids[i] for i, name in enumerate(names) if name != v]
        seen = set()
        for point in product(*others):
            env = dict(zip([name for name in names if name != v], point))
            b = eval_node(expr.lhs, {**env, v: 0}) - eval_node(expr.rhs, {**env, v: 0})
            a = eval_node(expr.lhs, {**env, v: 1}) - eval_node(expr.rhs, {**env, v: 1}) - b
            if m is None:
                seen.add("Z, a = 0" if a == 0 else "Z, a does not divide b" if b % a else "Z, a divides b")
            elif a % m == 0:
                seen.add("a = 0 mod m, b = 0 mod m" if b % m == 0 else "a = 0 mod m, b != 0 mod m")
            elif 1 < math.gcd(a, m) < len(grids[names.index(v)]) and b % math.gcd(a, m) == 0:
                seen.add("1 < gcd(a, m) < |grid|, gcd divides b")
        return seen

    @pytest.mark.parametrize("names, cases", [(TERNARY_VARS, 450), (BINARY_VARS, 300)])
    def test_matches_oracle(self, names, cases):
        rng = random.Random(26 + len(names))
        solved_for, kinds = set(), set()
        for case in range(cases):
            v = names[case % len(names)]
            expr = self.random_expr(rng, names, v)
            # no lone variable, and the solve reads names from the last, so z before y before x
            assert _solved(expr)[:2] == (v, None), expr
            solved_for.add(v)
            grids = self.random_grids(rng, names, expr.modulus)
            kinds |= self.kinds(expr, v, grids)
            if names == TERNARY_VARS:
                rel, _ = instantiate3(expr, *(GridSpec("explicit", values=tuple(v)) for v in grids))
                assert rel.triples == tuple(brute_force_triples(expr, *grids)), expr
            else:
                vy, vz = grids
                rel = instantiate2(expr, GridSpec("explicit", values=tuple(vy)), GridSpec("explicit", values=tuple(vz)))
                pairs = [(j, k) for j, b in enumerate(vy) for k, c in enumerate(vz) if holds(expr, {"y": b, "z": c})]
                got = [(j, k) for j, row in enumerate(rel.rows) for k in range(len(vz)) if row >> k & 1]
                assert got == pairs, expr
        assert solved_for == set(names)
        assert kinds == {
            "Z, a = 0",
            "Z, a does not divide b",
            "Z, a divides b",
            "a = 0 mod m, b = 0 mod m",
            "a = 0 mod m, b != 0 mod m",
            "1 < gcd(a, m) < |grid|, gcd divides b",
        }

    @pytest.mark.parametrize(
        "text, count",
        [
            ("x*y*z = 1 mod 12", 4 * 4),  # x, y among the 4 units, z = (x*y)^-1
            ("6*z = x mod 12", 2 * 12 * 6),  # x in {0, 6}: 6 roots z, step 2, for each y
            ("4*z + 2 = x + y mod 30", 30**2 // 2 * 2),  # x + y - 2 even: 2 roots, step 15
            ("x*z = y - y", 12 * 12 + 11 * 12),  # over Z: x = 0 takes every z, else z = 0
        ],
    )
    def test_hand_counted_roots(self, text, count):
        expr = parse(text)
        m = expr.modulus or 12
        grid = GridSpec("explicit", values=tuple(range(m)))
        rel, _ = instantiate3(expr, grid, grid, grid)
        assert len(rel) == count
        assert rel.triples == tuple(brute_force_triples(expr, *[range(m)] * 3))

    def test_zero_coefficient_under_a_large_modulus_tests_the_grid(self):
        # a ≡ 0 has gcd(a, m) = m roots: walking 10^9 residues per point would take
        # minutes, so the 50 grid values are tested instead
        expr = parse("(y - y)*z + x = 0 mod 1000000007")
        assert _solved(expr)[:2] == ("z", None)
        start = time.perf_counter()
        rel, _ = instantiate3(expr, GridSpec("range", 0, 3), GridSpec("range", 0, 3), GridSpec("range", 0, 50))
        assert time.perf_counter() - start < 1.0
        assert rel.triples == tuple((0, j, k) for j in range(3) for k in range(50))


class TestJoin:
    """Definitions g(v) = f(rest) where g reads v alone and neither side has degree 1
    in any variable: g is evaluated once per value of v's grid, and f, on the other
    grids, is looked up among its residues, against the brute-force oracle."""

    MODULI = [None, 6, 12, 30, 7]

    def random_expr(self, rng, names, v):
        """(expr, whether its g side is constant-valued)."""
        rest = tuple(name for name in names if name != v)
        sides = [
            BinOp("+", Pow(Var(v), rng.choice([2, 3])), square_free_node(rng, (v,), 2)),
            BinOp("*", Const(rng.randrange(1, 5)), Pow(Var(v), 2)),  # v and -v give one value
            BinOp("+", BinOp("-", Pow(Var(v), 2), Pow(Var(v), 2)), Const(rng.randrange(4))),  # every v is a hit
        ]
        kind = rng.randrange(len(sides))
        lhs, rhs = sides[kind], square_free_node(rng, rest, 3)
        if rng.random() < 0.5:
            lhs, rhs = rhs, lhs
        return RelationExpr(lhs, rhs, rng.choice(self.MODULI), names), kind == 2

    @pytest.mark.parametrize("names, cases", [(TERNARY_VARS, 300), (BINARY_VARS, 200)])
    def test_matches_oracle(self, names, cases):
        rng = random.Random(29 + len(names))
        solved_for, constant, repeats = set(), 0, 0
        for case in range(cases):
            v = names[case % len(names)]
            expr, constant_side = self.random_expr(rng, names, v)
            solved, key, _ = _solved(expr)
            # a join: on v, unless the other side reads a later variable alone
            assert key is not None and not isinstance(key, Var) and solved >= v, expr
            solved_for.add(solved)
            constant += constant_side and solved == v
            grids = TestLinearSolve.random_grids(rng, names, expr.modulus)
            if names == TERNARY_VARS:
                rel, _ = instantiate3(expr, *(GridSpec("explicit", values=tuple(v)) for v in grids))
                expected = brute_force_triples(expr, *grids)
                assert rel.triples == tuple(expected), expr
            else:
                vy, vz = grids
                rel = instantiate2(expr, GridSpec("explicit", values=tuple(vy)), GridSpec("explicit", values=tuple(vz)))
                expected = [(j, k) for j, b in enumerate(vy) for k, c in enumerate(vz) if holds(expr, {"y": b, "z": c})]
                got = [(j, k) for j, row in enumerate(rel.rows) for k in range(len(vz)) if row >> k & 1]
                assert got == expected, expr
            # does a free point find more than one value of the joined variable?
            axis = names.index(solved)
            repeats += any(n > 1 for n in Counter(p[:axis] + p[axis + 1 :] for p in expected).values())
        assert solved_for == set(names)
        assert constant > 0 and repeats > 0


@pytest.mark.parametrize(
    "argv, budget, count, refusal",
    [
        # a join: y^2 and z^3 + 7 are evaluated on 401 values each, and only y's grid
        # is charged as free points, not the 160,801 points of the product
        (["--expr", "y^2 = z^3 + 7 mod 401", "--grid-y", "fullmod", "--grid-z", "fullmod"],
         401, 401, "grid for y needs 401 cells"),
        # a lookup: each of the 4 points finds 500 values of z, 499 past the first
        (["--expr", "x + y = z mod 2", "--grid-x", "list:0,1", "--grid-y", "list:0,1", "--grid-z", "range:0:1000:1"],
         1996, 2000, "finding values of z past one per point needs 1996 cells"),
        # a join whose 10,000 points, two chunks of lookups, each find 3 values of z
        (["--expr", "y^2 = z^2 mod 2", "--grid-y", "range:0:10000:1", "--grid-z", "list:0,1,2,3,4,5"],
         20000, 30000, "finding values of z past one per point needs 20000 cells"),
        # a linear solve: one residue pair (a, b) = (2, 0), solved once and charged
        # its 2 roots at each of the 9 points
        (["--expr", "x - x + y - y + 2*z = 0 mod 4", "--grid-x", "list:0,1,2", "--grid-y", "list:0,1,2",
          "--grid-z", "fullmod"], 18, 18, "trying values of z needs 18 cells"),
    ],
    ids=["join", "lookup-extra-hits", "join-extra-hits", "linear-cached-pair"],
)
def test_budget_charges(capsys, argv, budget, count, refusal):
    assert cli.main(["count", *argv, "--budget-cells", str(budget)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split(",")[2] == str(count)
    assert cli.main(["count", *argv, "--budget-cells", str(budget - 1)]) == 4
    assert capsys.readouterr().err == f"expd: budget exceeded: {refusal}; budget is {budget - 1}\n"


def test_points_stream_to_the_builder():
    # the 44,521 points reach build_relation3 a chunk at a time, not as one list of tuples
    full = GridSpec("full_mod")
    tracemalloc.start()
    try:
        rel, _ = instantiate3(parse("x^200 + y^3 = z mod 211"), full, full, full)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rel) == 211 * 211
    assert peak < 1_500_000


class TestPowerBudget:
    # grids of 3-bit values; the budget is MAX_VALUE_BITS = 2^16 bits
    @pytest.mark.parametrize(
        "text, refused",
        [
            ("x^21845 = z", False),  # 3 * 21845 = 65535 bits
            ("x^21846 = z", True),
            ("x^21845 + y^21845 = z", False),  # a sum adds one bit
            ("x^21845 + y^21845 + 1 = z", True),
            ("x^11000 * y^11000 = z", True),  # a product adds the bits of its sides
            ("(x^30000)^0 = z", True),  # the base is computed even for exponent 0
            ("x^21845 + y^21845 = z^21845", False),  # a join bounds each side on its own
        ],
    )
    def test_bit_bound(self, text, refused):
        grid = GridSpec("range", 0, 8)
        if refused:
            with pytest.raises(BudgetError, match="declare a modulus"):
                instantiate3(parse(text), grid, grid, grid)
        else:
            rel, _ = instantiate3(parse(text), grid, grid, grid)
            assert rel.triples == tuple(brute_force_triples(parse(text), *[range(8)] * 3))


class TestInstantiate2:
    def test_identity(self):
        rel = instantiate2(
            parse("y = z", variables=BINARY_VARS), GridSpec("range", 0, 5), GridSpec("range", 0, 5)
        )
        assert rel.edge_count == 5
        assert rel.rows == (1, 2, 4, 8, 16)

    def test_inverse_matching_mod_7(self):
        rel = instantiate2(
            parse("y*z = 1 mod 7", variables=BINARY_VARS),
            GridSpec("explicit", values=tuple(range(1, 7))),
            GridSpec("explicit", values=tuple(range(1, 7))),
        )
        assert rel.edge_count == 6
        assert all(row.bit_count() == 1 for row in rel.rows)

    def test_unreachable_sum(self):
        rel = instantiate2(
            parse("y + z = 100", variables=BINARY_VARS), GridSpec("range", 0, 5), GridSpec("range", 0, 5)
        )
        assert rel.edge_count == 0

    def test_needs_binary_variables(self):
        with pytest.raises(InputError):
            instantiate2(parse("x + y = z"), GridSpec("range", 0, 5), GridSpec("range", 0, 5))
