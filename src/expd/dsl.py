"""Polynomial relation definitions over ℤ, ℤ/m, or a prime field.

Grammar (whitespace-insensitive):

    expr   := poly "=" poly ["mod" int]
    poly   := term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := atom ["^" uint]
    atom   := var | int | "(" poly ")"

Ternary definitions use variables {x, y, z}; binary ones use {y, z}.  A
definition has at most MAX_TOKENS tokens.  Instantiation solves it for a lone
variable, else a linear one, else joins a side of one variable to the other,
else by brute force, on loop nests that evaluate each subterm where its
variables change, in exact integers reduced mod m under a modulus; without one,
values that may exceed MAX_VALUE_BITS on the grids are refused (BudgetError)
before evaluation, as are grids of more values or points than the cell budget
and geom: grids whose values may hold more than MAX_GRID_BITS bits in all,
before any is built.  Grid values label the relation it produces.

Grid mini-syntax (CLI):  range:lo:hi:step (half-open, like Python range),
geom:base:count, list:v1,v2,..., rand:count:lo:hi (distinct, seeded),
fullmod (all residues 0..m-1; needs a declared modulus).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, compress, count, islice, product, repeat
from operator import add, itemgetter
from typing import Callable, Iterable, Iterator, Optional, Union

from .errors import BudgetError, InputError, SyntaxError_
from .instances import require_seed, seeded_rng
from .relations import (
    _CHUNK,
    DEFAULT_BUDGET_CELLS,
    FiniteRelation2,
    FiniteRelation3,
    Universe,
    _charge,
    build_relation2,
    build_relation3,
)

# --- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*'
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


Node = Union[Var, Const, BinOp, Pow]


@dataclass(frozen=True)
class RelationExpr:
    """A top-level definition lhs = rhs [mod m] over a declared variable set."""

    lhs: Node
    rhs: Node
    modulus: Optional[int]
    variables: tuple[str, ...]


def variables_in(node: Node) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Const):
        return set()
    if isinstance(node, Pow):
        return variables_in(node.base)
    return variables_in(node.left) | variables_in(node.right)


# --- tokenizer / parser ----------------------------------------------------

TERNARY_VARS = ("x", "y", "z")
BINARY_VARS = ("y", "z")

_PUNCT = set("+-*^()=")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'int' | 'name' | punct character | 'end'
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise SyntaxError_(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], variables: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> None:
        tok = self.peek()
        raise SyntaxError_(message, tok.line, tok.col)

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {kind!r}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def integer(self) -> tuple[int, _Token]:
        tok = self.expect("int")
        try:
            return int(tok.text), tok
        except ValueError:  # over Python's int-string digit limit, or a digit like "²"
            raise SyntaxError_(f"unreadable integer of {len(tok.text)} digits", tok.line, tok.col) from None

    def parse_expr(self) -> RelationExpr:
        lhs = self.parse_poly()
        self.expect("=")
        rhs = self.parse_poly()
        modulus = None
        tok = self.peek()
        if tok.kind == "name" and tok.text == "mod":
            self.advance()
            modulus, m_tok = self.integer()
            if modulus < 2:
                raise SyntaxError_(f"modulus must be >= 2, got {modulus}", m_tok.line, m_tok.col)
        if self.peek().kind != "end":
            self.fail(f"unexpected trailing input {self.peek().text!r}")
        return RelationExpr(lhs=lhs, rhs=rhs, modulus=modulus, variables=self.variables)

    def parse_poly(self) -> Node:
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while self.peek().kind == "*":
            self.advance()
            node = BinOp("*", node, self.parse_factor())
        return node

    def parse_factor(self) -> Node:
        atom = self.parse_atom()
        if self.peek().kind == "^":
            self.advance()
            tok = self.peek()
            if tok.kind == "-":
                raise SyntaxError_("exponent must be a nonnegative integer", tok.line, tok.col)
            return Pow(atom, self.integer()[0])
        return atom

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "int":
            return Const(self.integer()[0])
        if tok.kind == "name":
            if tok.text in self.variables:
                self.advance()
                return Var(tok.text)
            raise SyntaxError_(
                f"unknown variable {tok.text!r} (declared: {', '.join(self.variables)})",
                tok.line,
                tok.col,
            )
        if tok.kind == "(":
            self.advance()
            node = self.parse_poly()
            self.expect(")")
            return node
        self.fail(f"expected a variable, integer or '(', found {tok.text or 'end of input'!r}")


# Longest accepted definition: 256 tokens nest at most 126 parentheses (4 parser
# frames each, half of Python's 1000-frame recursion limit) and 128 tree levels
# (one frame each in _compile and the AST walkers), and a line of the compiled
# source nests at most 131 brackets, below the 200 that Python's parser allows.
MAX_TOKENS = 256


def parse(expr_text: str, variables: tuple[str, ...] = TERNARY_VARS) -> RelationExpr:
    """Parse a relation definition; errors carry line and column."""
    tokens = _tokenize(expr_text)
    if len(tokens) > MAX_TOKENS + 1:  # the end token is not counted
        tok = tokens[MAX_TOKENS]
        raise SyntaxError_(f"definition is longer than {MAX_TOKENS} tokens", tok.line, tok.col)
    return _Parser(tokens, tuple(variables)).parse_expr()


# --- grids -------------------------------------------------------------------


# Largest value, in bits, that a definition without a modulus may compute on its
# grids; x^99999999 would otherwise build a 10^8-bit integer at every point.
MAX_VALUE_BITS = 1 << 16
# Most bits, summed over its values, that a geom: grid may hold (2 MB); the sum
# grows with the square of the count, and geom:2:65536 would hold 2^31 bits.
MAX_GRID_BITS = 1 << 24


@dataclass(frozen=True)
class GridSpec:
    """One coordinate grid: range / geometric / explicit / random / full_mod."""

    kind: str
    lo: int = 0
    hi: int = 0
    step: int = 1
    base: int = 2
    count: int = 0
    values: tuple[int, ...] = ()
    seed: Optional[int] = None

    def size(self, modulus: Optional[int] = None) -> int:
        """The number of values resolve would give, computed without building them;
        a geometric grid whose values may hold more than MAX_GRID_BITS bits in all
        raises BudgetError."""
        if self.kind == "range":
            if self.step == 0:
                raise InputError("grid range step must be nonzero")
            return max(0, -((self.lo - self.hi) // self.step))
        if self.kind == "geometric" and self.base >= 2 and self.count > 1:
            # base^i has at most i·bits(base) bits, and base^0 one bit
            if self.base.bit_length() * self.count * (self.count - 1) // 2 + self.count > MAX_GRID_BITS:
                raise BudgetError(
                    f"geometric grid geom:{self.base}:{self.count} may hold more than {MAX_GRID_BITS} bits"
                )
        if self.kind in ("geometric", "random"):
            return max(0, self.count)
        if self.kind == "explicit":
            return len(self.values)
        if self.kind == "full_mod":
            if modulus is None:
                raise InputError("full_mod grid requires an expression with a declared modulus")
            return modulus
        raise InputError(f"unknown grid kind {self.kind!r}")

    def resolve(self, modulus: Optional[int] = None) -> list[int]:
        """Materialize the grid values; always pairwise distinct."""
        size = self.size(modulus)  # checks the step, the modulus, the kind and the bit cap
        if self.kind == "range":
            return list(range(self.lo, self.hi, self.step))
        if self.kind == "geometric":
            if self.base < 2:
                raise InputError(f"geometric grid base must be >= 2, got {self.base}")
            return [self.base**i for i in range(size)]
        if self.kind == "explicit":
            values = list(self.values)
            if len(set(values)) != len(values):
                raise InputError("explicit grid values must be pairwise distinct")
            return values
        if self.kind == "random":
            rng = seeded_rng(self.seed)
            span = self.hi - self.lo + 1
            if not 0 <= self.count <= span:
                raise InputError(
                    f"cannot draw {self.count} distinct values from [{self.lo}, {self.hi}]"
                )
            if span > sys.maxsize:  # random.sample takes the len() of its range
                raise InputError(f"cannot draw from [{self.lo}, {self.hi}]: more than {sys.maxsize} values")
            return rng.sample(range(self.lo, self.hi + 1), self.count)
        return list(range(size))  # full_mod


def parse_grid(text: str, seed: Optional[int] = None) -> GridSpec:
    """Parse the CLI grid mini-syntax."""
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "range" and len(parts) == 4:
            return GridSpec("range", int(parts[1]), int(parts[2]), int(parts[3]))
        if kind == "geom" and len(parts) == 3:
            return GridSpec("geometric", base=int(parts[1]), count=int(parts[2]))
        if kind == "list" and len(parts) == 2:
            return GridSpec("explicit", values=tuple(int(v) for v in parts[1].split(",")))
        if kind == "rand" and len(parts) == 4:
            return GridSpec("random", seed=require_seed(seed), count=int(parts[1]), lo=int(parts[2]), hi=int(parts[3]))
        if kind == "fullmod" and len(parts) == 1:
            return GridSpec("full_mod")
    except ValueError as exc:
        raise InputError(f"bad grid spec {text!r}: {exc}") from None
    raise InputError(f"bad grid spec {text!r}")


# --- instantiation -----------------------------------------------------------


def _solved(expr: RelationExpr) -> tuple[Optional[str], Optional[Node], Node]:
    """(v, g, s), the definition read as g = s by the first path that applies, and
    among its variables z before y before x:
    - lone: g is the variable v, and the other side s does not read v;
    - linear: g is None, and s = lhs - rhs has degree 1 in v;
    - join: g reads v alone, and the other side s does not read v;
    - brute force: (None, None, lhs - rhs)."""
    diff, pairs = BinOp("-", expr.lhs, expr.rhs), ((expr.lhs, expr.rhs), (expr.rhs, expr.lhs))
    sides = [(g, s) for g, s in pairs if len(variables_in(g)) == 1 and not variables_in(g) & variables_in(s)]
    lone = [(g.name, g, s) for g, s in sides if isinstance(g, Var)]
    linear = [(v, None, diff) for v in expr.variables if _degree(diff, v) == 1]
    join = [(*variables_in(g), g, s) for g, s in sides]
    return max(lone or linear or join or [(None, None, diff)], key=itemgetter(0))


def _bit_bound(node: Node, bits: dict[str, int]) -> int:
    """A bound on the bit length of each value computed for node."""
    if isinstance(node, Const):
        return node.value.bit_length()
    if isinstance(node, Var):
        return bits[node.name]
    if isinstance(node, Pow):
        base = _bit_bound(node.base, bits)
        return node.exponent * base if node.exponent else max(base, 1)
    left, right = _bit_bound(node.left, bits), _bit_bound(node.right, bits)
    return left + right if node.op == "*" else max(left, right) + 1


def _degree(node: Node, name: str) -> int:
    """A bound on node's degree in the variable name."""
    if isinstance(node, BinOp):
        left, right = _degree(node.left, name), _degree(node.right, name)
        return left + right if node.op == "*" else max(left, right)
    return node.exponent * _degree(node.base, name) if isinstance(node, Pow) else int(node == Var(name))


def _compile(
    node: Node, names: tuple[str, ...], modulus: Optional[int], grids: dict[str, list[int]]
) -> Callable[..., Iterator[list[int]]]:
    """node as a generator of its values on the grids of names, in product order
    and reduced mod modulus (each computed value too, which keeps its residue
    class): a loop nest whose innermost loop yields rows of at most _CHUNK values,
    with a constant computed once, a subterm of one variable once per grid value
    and one of more once per iteration of its innermost loop.  Without a
    modulus, refuses values on the grids that may exceed MAX_VALUE_BITS."""
    if modulus is None:
        bits = {name: max((abs(v).bit_length() for v in grids[name]), default=0) for name in names}
        if _bit_bound(node, bits) > MAX_VALUE_BITS:
            raise BudgetError(f"values may exceed {MAX_VALUE_BITS} bits on these grids; declare a modulus")
    mod, pow_mod = ("", "") if modulus is None else (f" % {modulus:d}", f", {modulus:d}")
    temps = count()
    hoisted: defaultdict[int, dict[str, str]] = defaultdict(dict)  # place -> {code: its temporary}

    def emit(node: Node, at: int) -> str:
        """node's code as read at place at: itself if it is a literal or lives there,
        else a temporary computed where it lives (its mask of loops, if one or none;
        minus its innermost loop's depth, if more)."""
        mask = sum(1 << names.index(name) for name in variables_in(node))
        here = mask if mask & (mask - 1) == 0 else -mask.bit_length()
        if isinstance(node, Const):
            return f"{node.value:d}"
        if isinstance(node, BinOp):
            code = f"({emit(node.left, here)} {node.op} {emit(node.right, here)})"
        elif isinstance(node, Pow):
            code = f"pow({emit(node.base, here)}, {node.exponent:d}{pow_mod})"
        else:
            code = node.name
        return code if here == at else hoisted[here].setdefault(code + mod, f"t{next(temps)}")

    inner = len(names) - 1
    body = emit(node, -1 - inner) + mod
    grids_in = [f"t{next(temps)}" for _ in names]
    head, nest = [f"def rows({', '.join(grids_in)}):", *(f" {t} = {c}" for c, t in hoisted[0].items())], []
    for i, (name, grid) in enumerate(zip(names, grids_in)):
        items, pad = hoisted[1 << i], " " * (i + 1)
        table = f"[({', '.join(items)}) for {name} in {grid}]" if items else grid
        target = ", ".join(items.values()) or name
        if i < inner:
            head += [f" {grid} = {table}"] * bool(items)
            nest.append(f"{pad}for {target} in {grid}:")
            nest += [f"{pad} {t} = {c}" for c, t in hoisted[-1 - i].items()]
        else:  # the rows, a slice at a time; per point only what reads this loop and more
            row = f"t{next(temps)}"
            head.append(f" {grid} = _slices({table})")
            body = row if body == target else f"[{body} for {target} in {row}]"
            nest += [f"{pad}for {row} in {grid}:", f"{pad} yield {body}"]
    slices = lambda v: [v[i : i + _CHUNK] for i in range(0, len(v), _CHUNK)]
    scope = {"__builtins__": {}, "pow": pow, "_slices": slices}
    exec("\n".join(head + nest), scope)
    return scope.pop("rows")


def _linear_roots(modulus: Optional[int], grid: list[int], index: dict, name: str, budget: int) -> Callable:
    """From [b, a + b], the indices of grid's roots v of a·v + b = 0 (mod modulus), read in index;
    mod modulus, each residue pair (a, b) is solved once while a bounded cache holds it.
    A point that tries or finds more than one value of v (named name) charges them all to budget."""
    from functools import lru_cache
    from math import gcd

    tried = [0]

    @lru_cache(maxsize=_CHUNK)  # called mod modulus only: over ℤ, (a, b) is unbounded
    def solve(a: int, b: int) -> tuple[int, Iterable[int]]:
        """(the values a point charges, 0 for one or none; the roots' indices)."""
        g = gcd(a, modulus) if modulus else 1  # min(g, len(grid)) values of v are tried
        if modulus is None:  # every v when a = b = 0, else v = -b/a when a divides b
            hits = range(len(grid)) if a == b == 0 else index.get(-b // a, ()) if a and b % a == 0 else ()
        elif b % g:
            return 0, ()
        elif g == modulus:  # a ≡ 0 and b ≡ 0: every v is a root
            hits = range(len(grid))
        elif g >= len(grid):  # no fewer roots than grid values: test each value
            hits = [k for k, v in enumerate(grid) if (a * v + b) % modulus == 0]
        else:  # the g roots are v0 + t·step for t < g
            step = modulus // g
            v0 = -b // g * pow(a // g, -1, step) % step
            hits = [k for r in range(v0, modulus, step) for k in index.get(r, ())]
        # a point's first try is paid by the free-point charge
        return max(min(g, len(grid)), len(hits)) if g > 1 or len(hits) > 1 else 0, hits

    def roots(row: list[int]) -> Iterable[int]:
        b, a = row[0], row[1] - row[0]
        cost, hits = solve(a % modulus, b) if modulus else solve.__wrapped__(a, b)
        if cost:
            tried[0] += cost
            _charge(f"trying values of {name}", tried[0], budget)
        return hits

    return roots


def _instantiate(
    expr: RelationExpr, names: tuple[str, ...], grids, budget_cells: int
) -> tuple[dict, list[Universe], Iterator[tuple[int, ...]]]:
    """Grid values, universes and an iterator over the index tuples (in names order) of the points
    where the definition holds, from _compile's loop nest a row slice at a time, by _solved's path:
    - lone or join, g(v) = s: s, on the other grids, is looked up among g's values on v's grid;
    - linear in v: the roots of lhs - rhs = a·v + b, likewise;
    - brute force: lhs - rhs is looked up as 0 at every point.

    Raises BudgetError, before any grid is built, when a grid has more values than
    budget_cells or the free grids more points; and, as the points are read, once a
    linear solve tries or finds more values, or lookups find more values past one per point."""
    if tuple(expr.variables) != names:
        raise InputError(f"instantiate{len(names)} needs an expression over variables {', '.join(names)}")
    solved, key, side = _solved(expr)
    linear = solved if key is None else None
    points = 1
    for name, grid in zip(names, grids):
        size = grid.size(expr.modulus)
        _charge(f"grid for {name}", size, budget_cells)
        points *= 1 if name == solved else size
    _charge("the grid of points to evaluate", points, budget_cells)
    values: dict[str, list[int]] = {}
    for name, grid in zip(names, grids):
        values[name] = grid.resolve(expr.modulus)
        if not values[name]:
            raise InputError(f"grid for {name} is empty")
    free = tuple(name for name in names if name != solved)
    free_values = [values[name] for name in free]
    keyed = values.get(solved, [0])
    if key is not None and not isinstance(key, Var):  # a join: g's values on v's grid
        keyed = chain.from_iterable(_compile(key, (solved,), expr.modulus, values)(keyed))
    index: dict[int, list[int]] = {}
    for k, v in enumerate(keyed):
        index.setdefault(v if expr.modulus is None else v % expr.modulus, []).append(k)
    if linear:  # with linear's grid [0, 1] innermost, the nest yields [b, a + b] per point
        rows = _compile(side, (*free, linear), expr.modulus, values)(*free_values, [0, 1])
        found = map(_linear_roots(expr.modulus, values[linear], index, linear, budget_cells), rows)
    else:
        found = map(index.get, chain.from_iterable(_compile(side, free, expr.modulus, values)(*free_values)))
    # a point is (free indices..., solved index); pick puts it in names order
    pick = itemgetter(*(free.index(name) if name in free else len(free) for name in names))

    def hits() -> Iterator[tuple[int, ...]]:  # a chunk of lookups at a time: only the hits reach Python
        cells, extra = product(*(range(len(v)) for v in free_values)), 0
        while chunk := list(islice(found, _CHUNK)):
            kss = list(filter(None, chunk))
            if not linear:  # a linear solve charges its own
                extra += sum(map(len, kss)) - len(kss)
                _charge(f"finding values of {solved} past one per point", extra, budget_cells)
            reps = chain.from_iterable(map(repeat, compress(islice(cells, len(chunk)), chunk), map(len, kss)))
            yield from map(pick, map(add, reps, zip(chain.from_iterable(kss))))

    universes = [Universe(name.upper(), len(values[name]), tuple(values[name])) for name in names]
    return values, universes, hits()


def instantiate3(
    expr: RelationExpr, gx: GridSpec, gy: GridSpec, gz: GridSpec, budget_cells: int = DEFAULT_BUDGET_CELLS
) -> tuple[FiniteRelation3, dict[str, list[int]]]:
    """All (i,j,k) with the definition true at the labeled grid values."""
    values, universes, triples = _instantiate(expr, TERNARY_VARS, (gx, gy, gz), budget_cells)
    return build_relation3(*universes, triples), values


def instantiate2(
    expr: RelationExpr, gy: GridSpec, gz: GridSpec, budget_cells: int = DEFAULT_BUDGET_CELLS
) -> FiniteRelation2:
    """All (j,k) with the binary definition true at the labeled grid values."""
    _, universes, pairs = _instantiate(expr, BINARY_VARS, (gy, gz), budget_cells)
    return build_relation2(*universes, pairs)
