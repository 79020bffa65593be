"""Exact finite relations over indexed universes.

A Universe is an indexed finite set 0..size-1, optionally carrying element
labels.  Binary relations are stored as dense bit matrices (one Python int
per left element, bit j set iff (i, j) is an edge); ternary relations as one
sorted, duplicate-free array('q') of packed keys (i·|Y| + j)·|Z| + k, which
other modules read only through FiniteRelation3.axis_pairs, restrict and
pairing_maxima.  All counting here is pure integer arithmetic.

Subsets of a universe are bit vectors.  Grid counts |E ∩ A×B| and
|F ∩ A×B×C| (the size of a restriction) are exact and deterministic.

Everything is immutable after construction.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import BudgetError, CapacityError, InputError

Label = Union[int, str]

# Pair universes index (i, j) as i*size + j; cap keeps those indices sane.
MAX_PAIR_BASE = 1 << 20

# Ternary keys (i*|Y| + j)*|Z| + k are signed 64-bit integers, so |X|·|Y|·|Z|
# must stay below this.
MAX_KEYS = 1 << 63

# A relation file, or a generated binary instance (pg, identity, interval,
# box), may not ask for a bit matrix of more cells than this.
MAX_FILE_CELLS = 10**8

# Entries per slice: build_relation3 packs keys, the writer joins a run of
# entries with one first index as text, and _iter_bits walks a mask, this many
# at a time, so no more than one slice is held at once.
_CHUNK = 8192
_SLICE = (1 << _CHUNK) - 1

# Default cap on the cells or points one operation may build or evaluate
# (--budget-cells): pair matrices, flattened axes, DSL grid points, and n²
# for a family of size n, whatever the family.
DEFAULT_BUDGET_CELLS = 10**8


@dataclass(frozen=True)
class Universe:
    """An indexed finite set, elements 0..size-1, with optional labels."""

    name: str
    size: int
    labels: Optional[tuple[Label, ...]] = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise InputError(f"universe name must be a string, got {self.name!r}")
        if type(self.size) is not int or self.size < 0:
            raise InputError(f"universe {self.name!r}: size must be an integer >= 0, got {self.size!r}")
        if self.labels is not None:
            if not all(isinstance(label, (int, str)) for label in self.labels):
                raise InputError(f"universe {self.name!r}: labels must be integers or strings")
            if len(self.labels) != self.size:
                raise InputError(
                    f"universe {self.name!r}: {len(self.labels)} labels for size {self.size}"
                )
            if len(set(self.labels)) != self.size:
                raise InputError(f"universe {self.name!r}: labels are not pairwise distinct")


def pair_universe(u: Universe) -> Universe:
    """The universe of ordered pairs of u, indexed row-major: (i,j) <-> i*size+j."""
    if u.size > MAX_PAIR_BASE:
        raise CapacityError(
            f"pair universe over {u.name!r} needs {u.size}^2 indices; base cap is {MAX_PAIR_BASE}"
        )
    return Universe(name=f"{u.name}^2", size=u.size * u.size)


def _cells(*sizes: int) -> int:
    """Cells a size cap charges for a product of universes; an empty one counts as one."""
    return math.prod(max(size, 1) for size in sizes)


def _charge(what: str, cells: int, budget: int) -> None:
    """The one --budget-cells comparison: refuse what, charged cells, above budget."""
    if cells > budget:
        raise BudgetError(f"{what} needs {cells} cells; budget is {budget}")


def _check_keys(what: str, nx: int, ny: int, nz: int) -> None:
    """Refuse nx·ny·nz triple keys past the signed 64-bit range, which no budget lifts."""
    if nx * ny * nz >= MAX_KEYS:
        raise CapacityError(f"{what} needs {nx * ny * nz} triple keys, past the 64-bit key range")


def _check_rel2_cells(what: str, m: int, n: int) -> None:
    """Refuse an m x n bit matrix above MAX_FILE_CELLS before it is built."""
    if _cells(m, n) > MAX_FILE_CELLS:
        raise CapacityError(f"{what} asks for {m} x {n} cells; cap is {MAX_FILE_CELLS}")


def _iter_bits(bits: int) -> Iterator[int]:
    """The positions of the set bits of bits >= 0, ascending: a _CHUNK-bit slice at a time from
    the bottom, each walked from its top bit down, so that every step works on a shrinking int of
    at most _CHUNK bits whatever the width of bits, and one slice of positions is held."""
    base = 0
    while bits:
        piece, bits = bits & _SLICE, bits >> _CHUNK
        found = []
        while piece:
            top = piece.bit_length() - 1
            found.append(base + top)
            piece ^= 1 << top
        yield from reversed(found)
        base += _CHUNK


@functools.lru_cache(maxsize=1)
def _columns(rows: tuple[int, ...], size: int) -> tuple[int, ...]:
    """The one transpose of a bit matrix (cols[j]: the rows holding bit j), kept until the next rows."""
    cols = [0] * size
    for i, row in enumerate(rows):
        for j in _iter_bits(row):
            cols[j] |= 1 << i
    return tuple(cols)


@dataclass(frozen=True)
class Subset:
    """A subset of a universe as a bit vector (bit i set iff element i is in)."""

    universe: Universe
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.universe.size:
            raise InputError(f"subset bits out of range for universe {self.universe.name!r}")

    @staticmethod
    def full(universe: Universe) -> "Subset":
        return Subset(universe, (1 << universe.size) - 1)

    def cardinality(self) -> int:
        return self.bits.bit_count()

    def members(self) -> Iterator[int]:
        return _iter_bits(self.bits)


class FiniteRelation2:
    """A bipartite relation E ⊆ U×V backed by a dense bit matrix.

    rows[i] is the fiber E_i as a bit vector over V.
    """

    __slots__ = ("u", "v", "rows", "edge_count")

    def __init__(self, u: Universe, v: Universe, rows: Sequence[int]):
        if len(rows) != u.size:
            raise InputError(f"relation rows ({len(rows)}) do not match |{u.name}| = {u.size}")
        for i, row in enumerate(rows):
            if row < 0 or row >> v.size:
                raise InputError(f"row {i} has bits outside universe {v.name!r}")
        self.u = u
        self.v = v
        self.rows = tuple(rows)
        self.edge_count = sum(row.bit_count() for row in self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteRelation2)
            and self.u == other.u
            and self.v == other.v
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"FiniteRelation2({self.u.name}:{self.u.size} x {self.v.name}:{self.v.size}, {self.edge_count} edges)"


class FiniteRelation3:
    """A ternary relation F ⊆ X×Y×Z as one sorted, duplicate-free array of
    packed keys (i·|Y| + j)·|Z| + k.

    Key order is lexicographic triple order, so the triples of one x form a
    contiguous run.  Build relations with build_relation3, which checks every
    triple and the key range; the constructor trusts its keys to be in range
    and sorts and deduplicates them.
    """

    __slots__ = ("x", "y", "z", "keys", "_maxima")

    def __init__(self, x: Universe, y: Universe, z: Universe, keys: Iterable[int]):
        keys = sorted(keys)  # linear when the keys arrive sorted
        if any(map(operator.eq, keys, islice(keys, 1, None))):
            keys = sorted(set(keys))
        self.x, self.y, self.z, self.keys, self._maxima = x, y, z, array("q", keys), None

    @classmethod
    def _from_increasing(cls, x: Universe, y: Universe, z: Universe, keys: array) -> "FiniteRelation3":
        """The relation whose keys are keys, a strictly increasing array('q') (build_relation3's
        ordered keys or a subsequence of a relation's), kept with no sort and no copy."""
        rel = object.__new__(cls)
        rel.x, rel.y, rel.z, rel.keys, rel._maxima = x, y, z, keys, None
        return rel

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def triples(self) -> tuple[tuple[int, int, int], ...]:
        """The sorted triples, decoded from the keys on every access."""
        return tuple((i, *divmod(jk, self.z.size)) for i, jk in self.axis_pairs(1))

    def axis_pairs(self, axis: int) -> Iterator[tuple[int, int]]:
        """(a, b) for each triple, in key order: a is its coordinate on axis 1, 2
        or 3 (X, Y or Z), b the row-major index of the other two in X, Y, Z order."""
        keys, ny, nz = self.keys, self.y.size, self.z.size
        if axis == 1:
            return map(divmod, keys, repeat(ny * nz))
        if axis == 2:
            return ((key // nz % ny, key // (ny * nz) * nz + key % nz) for key in keys)
        if axis == 3:
            return ((key % nz, key // nz) for key in keys)
        raise InputError(f"axis must be 1, 2 or 3, got {axis!r}")

    @property
    def pairing_maxima(self) -> tuple[int, int, int]:
        """The most triples sharing an (x,y), an (x,z) and a (y,z) pair: the largest fibers of
        axes 3, 2 and 1 over the pairs of the other two, read from the keys by maps that run in
        C.  Counted on first read and kept, since the relation never changes."""
        if self._maxima is None:
            keys, nyz, nz = self.keys, self.y.size * self.z.size, self.z.size
            xs = map(operator.mul, map(operator.floordiv, keys, repeat(nyz)), repeat(nz))
            xz = map(operator.add, xs, map(operator.mod, keys, repeat(nz)))
            pairs = (map(operator.floordiv, keys, repeat(nz)), xz, map(operator.mod, keys, repeat(nyz)))
            self._maxima = tuple(max(Counter(cols).values(), default=0) for cols in pairs)
        return self._maxima

    def x_runs(self) -> Iterator[tuple[int, int, int]]:
        """(i, lo, hi) for each x = i present in F: keys[lo:hi] are its keys."""
        keys, nyz = self.keys, self.y.size * self.z.size
        lo, end = 0, len(keys)
        while lo < end:
            i = keys[lo] // nyz
            hi = bisect_left(keys, (i + 1) * nyz, lo)
            yield i, lo, hi
            lo = hi

    def restrict(
        self, a: Optional[Subset] = None, b: Optional[Subset] = None, c: Optional[Subset] = None
    ) -> "FiniteRelation3":
        """F ∩ A×B×C, where a missing subset stands for its whole universe; F
        itself when no subset leaves an element out.  A is tested once per
        x-run, and no mask of a whole universe is built (-1 holds every bit)."""
        for sub, universe in zip((a, b, c), (self.x, self.y, self.z)):
            if sub is not None:
                _check_universe(sub, universe, "restrict")
        abits, bbits, cbits = (-1 if s is None or s.bits.bit_count() == s.universe.size else s.bits for s in (a, b, c))
        if abits == bbits == cbits == -1:
            return self
        keys, ny, nz = self.keys, self.y.size, self.z.size
        runs = (keys[lo:hi] for i, lo, hi in self.x_runs() if abits >> i & 1)
        kept = [key for run in runs for key in run if cbits >> key % nz & 1 and bbits >> key // nz % ny & 1]
        return FiniteRelation3._from_increasing(self.x, self.y, self.z, array("q", kept))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteRelation3)
            and (self.x, self.y, self.z) == (other.x, other.y, other.z)
            and self.keys == other.keys
        )

    def __repr__(self) -> str:
        return (
            f"FiniteRelation3({self.x.name}:{self.x.size} x {self.y.name}:{self.y.size}"
            f" x {self.z.name}:{self.z.size}, {len(self.keys)} triples)"
        )


def build_relation2(u: Universe, v: Universe, pairs: Iterable[tuple[int, int]]) -> FiniteRelation2:
    """Build E ⊆ U×V from index pairs; duplicates collapse, bad indices raise."""
    nu, nv = u.size, v.size
    rows = [0] * nu
    for pair in pairs:
        try:
            i, j = pair
        except (TypeError, ValueError):
            raise InputError(f"pair {pair!r} is not a pair of indices") from None
        if not (type(i) is type(j) is int and 0 <= i < nu and 0 <= j < nv):
            raise InputError(f"pair {(i, j)} is not an index pair in range for {nu} x {nv}")
        rows[i] |= 1 << j
    return FiniteRelation2(u, v, rows)


def build_relation3(
    x: Universe, y: Universe, z: Universe, triples: Iterable[tuple[int, int, int]]
) -> FiniteRelation3:
    """Build F ⊆ X×Y×Z from index triples; duplicates collapse, bad indices raise.

    Keys are packed into one array('q') a slice of _CHUNK at a time, 8 bytes a key
    while building; a strictly increasing array is kept, any other sorted and deduplicated.

    Raises CapacityError, before reading any triple, when |X|·|Y|·|Z| keys do
    not fit in a signed 64-bit integer.
    """
    nx, ny, nz = x.size, y.size, z.size
    _check_keys(f"{nx} x {ny} x {nz}", nx, ny, nz)
    triples = iter(triples)
    keys, last, ordered = array("q"), -1, True
    while True:
        chunk = []
        append = chunk.append
        for t in islice(triples, _CHUNK):  # not list(islice(...)): a held slice of tuples wakes the collector
            try:
                i, j, k = t
            except (TypeError, ValueError):
                raise InputError(f"triple {t!r} is not a triple of indices") from None
            if not (type(i) is type(j) is type(k) is int and 0 <= i < nx and 0 <= j < ny and 0 <= k < nz):
                raise InputError(f"triple {(i, j, k)} is not an index triple in range for {nx} x {ny} x {nz}")
            append((i * ny + j) * nz + k)
        if not chunk:
            break
        ordered = ordered and last < chunk[0] and all(map(operator.lt, chunk, islice(chunk, 1, None)))
        keys.fromlist(chunk)
        last = chunk[-1]
    return FiniteRelation3._from_increasing(x, y, z, keys) if ordered else FiniteRelation3(x, y, z, keys)


def _check_universe(sub: Subset, universe: Universe, what: str) -> None:
    if sub.universe != universe:
        raise InputError(f"{what}: subset over {sub.universe.name!r} does not match {universe.name!r}")


def count_grid2(rel: FiniteRelation2, a: Subset, b: Subset) -> int:
    """Exact |E ∩ A×B|."""
    _check_universe(a, rel.u, "count_grid2")
    _check_universe(b, rel.v, "count_grid2")
    bbits = b.bits
    return sum((rel.rows[i] & bbits).bit_count() for i in a.members())


def count_grid3(rel: FiniteRelation3, a: Subset, b: Subset, c: Subset) -> int:
    """Exact |F ∩ A×B×C|, the size of the restriction."""
    return len(rel.restrict(a, b, c))


# --- relation file format -------------------------------------------------
#
# One JSON object per file:
#   {"kind": "rel2"|"rel3",
#    "universes": [{"name":..., "size":..., "labels": [...]?}, ...],
#    "pairs": [[i,j],...]  or  "triples": [[i,j,k],...]}
# Indices, never labels.  Readers reject out-of-range indices.  Writers join
# the entries of one first index as text, a slice at a time; the bytes are
# those of one sort_keys json.dumps.  A rel2 writer makes each column's text
# once when |V| is at most one slice.


def _universe_from_obj(obj: dict) -> Universe:
    if not isinstance(obj, dict):
        raise InputError(f"universe must be a JSON object, got {obj!r}")
    try:
        name = obj["name"]
        size = obj["size"]
    except KeyError as exc:
        raise InputError(f"universe object missing field {exc}") from None
    labels = obj.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise InputError(f"universe {name!r}: labels must be a list")
    return Universe(name=name, size=size, labels=tuple(labels) if labels is not None else None)


def relation_from_obj(obj: dict) -> Union[FiniteRelation2, FiniteRelation3]:
    if not isinstance(obj, dict):
        raise InputError("a relation must be a JSON object")
    kind = obj.get("kind")
    if kind not in ("rel2", "rel3"):
        raise InputError(f"unknown relation kind {kind!r}")
    arity, field = (2, "pairs") if kind == "rel2" else (3, "triples")
    universes = obj.get("universes", [])
    if not isinstance(universes, list) or len(universes) != arity:
        raise InputError(f"{kind} file needs exactly {arity} universes")
    entries = obj.get(field, [])
    if not isinstance(entries, list):
        raise InputError(f"{kind} file: {field!r} must be a list")
    us = [_universe_from_obj(o) for o in universes]
    if kind == "rel2":
        _check_rel2_cells("rel2 file", us[0].size, us[1].size)
        return build_relation2(*us, entries)
    return build_relation3(*us, entries)


def _write_relation(
    fh, rel: Union[FiniteRelation2, FiniteRelation3], separators: tuple[str, str]
) -> None:
    """Write rel as one JSON line, the bytes of json.dumps(obj, sort_keys=True,
    separators=separators) for the file object, but streamed slice by slice."""
    item, key = separators
    if isinstance(rel, FiniteRelation2):
        kind, field, universes = "rel2", "pairs", (rel.u, rel.v)
        text = list(map(str, range(rel.v.size))).__getitem__ if rel.v.size <= _CHUNK else str
        runs = ((i, map(text, _iter_bits(row))) for i, row in enumerate(rel.rows) if row)
    else:
        kind, field, universes = "rel3", "triples", (rel.x, rel.y, rel.z)
        nz, pairs = rel.z.size, rel.axis_pairs(1)
        runs = (
            (i, (f"{jk // nz}{item}{jk % nz}" for _, jk in islice(pairs, hi - lo)))
            for i, lo, hi in rel.x_runs()
        )
    # sorted keys: "kind" < "pairs" | "triples" < "universes"
    fh.write(f'{{"kind"{key}"{kind}"{item}"{field}"{key}[')
    sep = ""
    for i, rest in runs:
        glue = f"]{item}[{i}{item}"
        while chunk := list(islice(rest, _CHUNK)):
            fh.write(f"{sep}[{i}{item}{glue.join(chunk)}]")
            sep = item
    fh.write(f']{item}"universes"{key}')
    obj = [{k: v for k, v in vars(w).items() if v is not None} for w in universes]  # labels dump as a list
    fh.write(json.dumps(obj, separators=separators, sort_keys=True))
    fh.write("}\n")


def write_relation(path: str, rel: Union[FiniteRelation2, FiniteRelation3]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_relation(fh, rel, (",", ":"))


def read_relation(path: str) -> Union[FiniteRelation2, FiniteRelation3]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deeply nested
            raise InputError(f"{path}: not valid JSON ({exc})") from None
    return relation_from_obj(obj)
