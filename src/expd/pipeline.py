"""Ternary relation analysis: bounded fibering, cylinders, and the derived
pair relation.

For F ⊆ X×Y×Z the operations here compute, exactly:

  * the per-pairing fiber maxima, read through FiniteRelation3.axis_pairs,
    and the bounded degree d (every pair of coordinates determines the third
    up to at most d values);
  * complete k x k blocks after flattening one axis against the product of
    the other two (the finite test for cylindricality);
  * the derived relation on ordered pairs,
      G = {(y,y',z,z') : ∃x (x,y,z) ∈ F and (x,y',z') ∈ F},
    viewed as a bipartite relation over Y² x Z²;
  * |G ∩ B²×C²| and its largest fibers, from F ∩ X×B×C (one
    FiniteRelation3.restrict call) without enumerating G;
  * in one check, from one such count, the fiber law
    |{z' : (y,y',z,z') ∈ G}| <= d² (and symmetrically), which implies its
    summed form |G ∩ ({(y,y')} x C²)| <= d²|C|, and the count transfer
      |F ∩ A×B×C|  <=  d · |A|^(1/2) · |G ∩ (B²×C²)|^(1/2),
    which goes through the 5-ary intermediary
      W = {(x,y,y',z,z') : (x,y,z) ∈ F and (x,y',z') ∈ F}
    via |F'| = Σ_a |F'_a|, |W'| = Σ_a |F'_a|² and Cauchy–Schwarz.

Instance families for scaling experiments live here too: abelian-group
graphs (x+y+z = 0 in Z/n, or x·y·z = 1 in the units mod p) composed with
per-coordinate bijective twists, planted-block cylindrical relations with
sparse noise, DSL-defined polynomial grids and top-frequency grids.  Each is
a FamilySpec kind, and make_family alone decides which fields a kind reads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import merge
from itertools import chain, groupby, repeat
from operator import itemgetter
from typing import Callable, Iterator, Optional

from .dsl import GridSpec, Var, _compile, _solved, instantiate3, parse, parse_grid
from .errors import InputError, ParameterError
from .instances import is_prime, seeded_rng
from .relations import (
    DEFAULT_BUDGET_CELLS,
    FiniteRelation2,
    FiniteRelation3,
    Subset,
    Universe,
    _cells,
    _charge,
    _check_keys,
    _iter_bits,
    build_relation3,
    pair_universe,
)
from .zarankiewicz import KstWitness, find_kst


# --- bounded fibering ---------------------------------------------------------


@dataclass(frozen=True)
class DeltaDegree:
    """d is present iff all three pairing maxima are <= threshold; then it is
    their max.  Maxima order: (xy -> z, xz -> y, yz -> x)."""

    d: Optional[int]
    pairing_maxima: tuple[int, int, int]
    threshold: int


def pairing_maxima(rel: FiniteRelation3) -> tuple[int, int, int]:
    """The most triples of F sharing an (x,y), an (x,z) and a (y,z) pair: the
    largest fibers of axes 3, 2 and 1 over the pairs of the other two."""
    return tuple(
        max(Counter(map(itemgetter(1), rel.axis_pairs(axis))).values(), default=0) for axis in (3, 2, 1)
    )


def delta_degree(rel: FiniteRelation3, threshold: int) -> DeltaDegree:
    """Exact pairing maxima by full enumeration; d if all are <= threshold."""
    if threshold < 1:
        raise ParameterError(f"threshold must be >= 1, got {threshold}")
    maxima = pairing_maxima(rel)
    d = max(maxima) if all(m <= threshold for m in maxima) else None
    return DeltaDegree(d=d, pairing_maxima=maxima, threshold=threshold)


# --- cylindricality ------------------------------------------------------------


@dataclass(frozen=True)
class CylindricalWitness:
    axis: int  # 1 = X against Y×Z, 2 = Y against X×Z, 3 = Z against X×Y
    block: KstWitness


def _axis_flatten(rel: FiniteRelation3, axis: int) -> FiniteRelation2:
    nx, ny, nz = rel.x.size, rel.y.size, rel.z.size
    left, rn, rs = ((rel.x, "Y*Z", ny * nz), (rel.y, "X*Z", nx * nz), (rel.z, "X*Y", nx * ny))[axis - 1]
    rows = [0] * left.size
    for a, b in rel.axis_pairs(axis):
        rows[a] |= 1 << b
    return FiniteRelation2(Universe(left.name, left.size), Universe(rn, rs), rows)


def cylindrical_witness(
    rel: FiniteRelation3, k: int, budget_cells: int = DEFAULT_BUDGET_CELLS
) -> Optional[CylindricalWitness]:
    """First complete k x k block between an axis and the product of the other
    two, scanning axes 1, 2, 3 in order; None when every split is K_{k,k}-free."""
    if k < 2:
        raise ParameterError(f"cylindrical witness needs k >= 2, got {k}")
    _charge("each flattened axis relation", _cells(rel.x.size, rel.y.size, rel.z.size), budget_cells)
    for axis in (1, 2, 3):
        flat = _axis_flatten(rel, axis)
        witness = find_kst(flat, k, k)
        if witness is not None:
            return CylindricalWitness(axis=axis, block=witness)
    return None


# --- the derived pair relation -------------------------------------------------


def _union(rows: list[dict[int, int]], xs: int) -> dict[int, int]:
    """The per-key unions of rows[t] over the run ordinals t in bit set xs."""
    merged: dict[int, int] = {}
    for t in _iter_bits(xs):
        for key, mask in rows[t].items():
            merged[key] = merged.get(key, 0) | mask
    return merged


def _g_fibers(rel: FiniteRelation3) -> Iterator[tuple[list, dict, dict]]:
    """The one walk of F that G is read from: for each distinct x-set
    X_yz = {x : (x,y,z) ∈ F}, its (y,z) pairs, its merged (y,y',z) fibers
    {y': ∪_{x∈X_yz} F_{x,y'} as a Z mask} and its merged (z,z',y) fibers
    {z': ∪_{x∈X_yz} F_{x,·,z'} as a Y mask}.  An x-set is a mask over x-run
    ordinals, so it has at most |F| bits whatever |X| is."""
    nz = rel.z.size
    z_rows, y_rows, x_sets = [], [], {}  # per x-run {y': Z mask}, {z': Y mask}; (y,z) -> X_yz
    for t, (_, run) in enumerate(groupby(rel.axis_pairs(1), itemgetter(0))):
        z_rows.append(by_y := {})
        y_rows.append(by_z := {})
        for j, k in (divmod(jk, nz) for _, jk in run):
            by_y[j] = by_y.get(j, 0) | 1 << k
            by_z[k] = by_z.get(k, 0) | 1 << j
            x_sets[(j, k)] = x_sets.get((j, k), 0) | 1 << t
    classes: dict[int, list[tuple[int, int]]] = {}
    for yz, xs in x_sets.items():
        classes.setdefault(xs, []).append(yz)
    for xs, pairs in classes.items():
        yield pairs, _union(z_rows, xs), _union(y_rows, xs)


def derive_g(rel: FiniteRelation3, budget_cells: int = DEFAULT_BUDGET_CELLS) -> FiniteRelation2:
    """Materialize G over Y² x Z² (row-major pair indices) from the G kernel."""
    ny, nz = rel.y.size, rel.z.size
    u, v = pair_universe(rel.y), pair_universe(rel.z)  # base caps before any allocation
    _charge(f"pair relation {u.size} x {v.size}", _cells(u.size, v.size), budget_cells)
    rows = [0] * u.size
    for pairs, zz, _ in _g_fibers(rel):
        for j, k in pairs:
            base, shift = j * ny, k * nz
            for j2, mask in zz.items():
                rows[base + j2] |= mask << shift
    return FiniteRelation2(u, v, rows)


def g_edge_count(
    rel: FiniteRelation3, b: Optional[Subset] = None, c: Optional[Subset] = None
) -> tuple[int, int, int]:
    """(|G ∩ B²×C²|, max (y,y',z) fiber, max (z,z',y) fiber), read from the G
    kernel without enumerating G.  B and C default to all of Y and Z;
    restricting F to X×B×C restricts G to B²×C²."""
    count = max_zz = max_yy = 0
    for pairs, zz, yy in _g_fibers(rel.restrict(b=b, c=c)):
        sizes = [mask.bit_count() for mask in zz.values()]
        count += len(pairs) * sum(sizes)
        max_zz = max(max_zz, *sizes)
        max_yy = max(max_yy, *(mask.bit_count() for mask in yy.values()))
    return count, max_zz, max_yy


# --- the fiber law and the count transfer -------------------------------------


@dataclass(frozen=True)
class CauchySchwarzReport:
    f_count: int  # |F ∩ A×B×C|
    w_count: int  # |W ∩ A×B²×C²|
    g_count: int  # |G ∩ B²×C²|
    d: int
    bound: int  # d²
    max_zz_fiber: int  # largest (y,y',z) fiber of G ∩ B²×C²
    max_yy_fiber: int  # largest (z,z',y) fiber of G ∩ B²×C²
    a_size: int
    rhs: float  # d * |A|^(1/2) * |G'|^(1/2)
    fiber_law_ok: bool  # both fiber maxima <= d²
    cs_ok: bool  # |F'|² <= |A| · |W'|
    fiber_ok: bool  # |W'| <= d · |G'|
    composed_ok: bool  # |F'|² <= d² · |A| · |G'|

    @property
    def ok(self) -> bool:
        return self.fiber_law_ok and self.cs_ok and self.fiber_ok and self.composed_ok


def cauchy_schwarz_check(
    rel: FiniteRelation3, a: Subset, b: Subset, c: Subset, d: int
) -> CauchySchwarzReport:
    """Exact check, on a concrete grid, of the d² fiber law on G ∩ B²×C² and of
    the two-step count transfer, from one G kernel call; d is the bounded
    degree that delta_degree decides (0 for an empty relation).

    The summed form of the fiber law, |G ∩ ({(y,y')} x C²)| <= d²|C|, needs no
    check of its own: it is Σ_{z∈C} |fiber(y,y',z) ∩ C| <= d²|C| whenever the
    law holds.  The three inequalities are tested in exact integer arithmetic
    (squared forms); the reported rhs is the float evaluation for humans.
    """
    per_x = [hi - lo for _, lo, hi in rel.restrict(a, b, c).x_runs()]
    if d < 0:
        raise ParameterError(f"the bounded degree d must be >= 0, got {d}")
    f_count = sum(per_x)
    w_count = sum(v * v for v in per_x)
    g_count, max_zz, max_yy = g_edge_count(rel, b, c)
    a_size = a.cardinality()
    bound = d * d
    return CauchySchwarzReport(
        f_count=f_count,
        w_count=w_count,
        g_count=g_count,
        d=d,
        bound=bound,
        max_zz_fiber=max_zz,
        max_yy_fiber=max_yy,
        a_size=a_size,
        rhs=d * (a_size**0.5) * (g_count**0.5),
        fiber_law_ok=max_zz <= bound and max_yy <= bound,
        cs_ok=f_count * f_count <= a_size * w_count,
        fiber_ok=w_count <= d * g_count,
        composed_ok=f_count * f_count <= bound * a_size * g_count,
    )


# --- instance families -------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """kind 'group_like' (cyclic or unit group mod a prime, with twists),
    'cylindrical' (planted k x k block plus sparse noise), 'dsl' or 'topz'."""

    kind: str
    group: Optional[tuple] = None  # ("cyclic", None) or ("unit_group_mod", p)
    twists: tuple = ("identity", "identity", "identity")
    block: Optional[int] = None  # cylindrical block side; None means k(n) = n
    seed: Optional[int] = 0  # the draws of cylindrical noise and rand: grids refuse None
    expr: Optional[str] = None
    grids: tuple[str, str, str] = ("range:0:{n}:1", "range:0:{n}:1", "range:0:{n}:1")
    budget_cells: int = DEFAULT_BUDGET_CELLS  # cap on n², and on a dsl grid and its points


@dataclass(frozen=True)
class RelationFamily:
    """builder(n) returns the family's relation of size n; build checks n first."""

    name: str
    builder: Callable[[int], FiniteRelation3]
    budget_cells: int = DEFAULT_BUDGET_CELLS

    def build(self, n: int) -> FiniteRelation3:
        if n < 1:
            raise InputError(f"family size must be >= 1, got {n}")
        _charge(f"family size {n}", n * n, self.budget_cells)  # any family of size n is charged n² cells
        _check_keys(f"family size {n}", n, n, n)  # build_relation3's key range, before the builder allocates
        return self.builder(n)


def _twist_map(descriptor, size: int, child_seed: int) -> list[int]:
    """The map index -> group element, a bijection onto 0..size-1."""
    perm = list(range(size))
    if descriptor != "identity":  # ("seeded", seed), as make_family admits
        seeded_rng(descriptor[1], child_seed).shuffle(perm)
    return perm


def _group_like_relation(spec: FamilySpec, n: int) -> FiniteRelation3:
    """(i, j, k) ∈ F iff g(i)·g(j)·g(k) is the identity, where g maps indices
    through the twists to group elements.  Both groups are read as Z/n through
    a log map (discrete logs to the least primitive root for the units), so F
    is log g(i) + log g(j) + log g(k) ≡ 0 (mod n)."""
    gkind, p = spec.group
    if gkind == "cyclic":
        log = range(n)
    else:
        if n != p - 1:
            raise InputError(f"unit_group_mod({p}) family has the single size {p - 1}, got {n}")
        if not is_prime(p):
            raise InputError(f"unit_group_mod needs a prime modulus, got {p}")
        for g in range(1, p):  # the least g whose powers g^0..g^(p-2) are pairwise distinct
            powers = [pow(g, e, p) for e in range(n)]
            if len(set(powers)) == n:
                break
        log = sorted(range(n), key=powers.__getitem__)  # element index m (value m + 1) -> its log
    maps = [_twist_map(spec.twists[i], n, child_seed=i) for i in range(3)]
    lx, ly, lz = ([log[m] for m in mp] for mp in maps)
    z_of = sorted(range(n), key=lz.__getitem__)  # log -> z index
    table = [z_of[-s % n] for s in range(2 * n - 1)]  # row i reads table[lx[i] : lx[i] + n] at the y logs
    triples = chain.from_iterable(
        zip(repeat(i), range(n), map(table[a : a + n].__getitem__, ly)) for i, a in enumerate(lx)
    )
    labels = [None] * 3 if gkind == "cyclic" else [tuple(m + 1 for m in mp) for mp in maps]
    return build_relation3(*map(Universe, "XYZ", repeat(n), labels), triples)


def _cylindrical_relation(spec: FamilySpec, n: int) -> FiniteRelation3:
    k = n if spec.block is None else min(spec.block, n)
    block = chain.from_iterable(zip(repeat(i), range(k), range(k)) for i in range(k))
    rng = seeded_rng(spec.seed, n)
    noise = sorted((rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(n))
    triples = map(itemgetter(0), groupby(merge(block, noise)))  # strictly increasing, so no sort follows
    return build_relation3(Universe("X", n), Universe("Y", n), Universe("Z", n), triples)


def _dsl_relation(spec: FamilySpec, n: int) -> FiniteRelation3:
    expr = parse(spec.expr)
    grids = [parse_grid(g.replace("{n}", str(n)), seed=spec.seed) for g in spec.grids]
    return instantiate3(expr, *grids, budget_cells=spec.budget_cells)[0]


# the FamilySpec fields each kind reads; seed and budget_cells belong to every run
_READS = {"group_like": ("group", "twists"), "cylindrical": ("block",), "dsl": ("expr", "grids"), "topz": ("expr",)}


def make_family(spec: FamilySpec) -> RelationFamily:
    """The family a spec names; a field its kind does not read must keep its default."""
    if spec.kind not in _READS:
        raise InputError(f"unknown family kind {spec.kind!r}")
    for field in dict.fromkeys(chain.from_iterable(_READS.values())):
        if field not in _READS[spec.kind] and getattr(spec, field) != getattr(FamilySpec, field):
            readers = " and ".join(kind.replace("_", "-") for kind, reads in _READS.items() if field in reads)
            raise InputError(f"{field} apply to {readers} families only, not to {spec.kind}")
    if spec.kind == "group_like":
        group, twists = spec.group, spec.twists
        unit_group = isinstance(group, tuple) and len(group) == 2 and group[0] == "unit_group_mod"
        if not (group == ("cyclic", None) or unit_group and type(group[1]) is int):
            raise InputError(f"group must be ('cyclic', None) or ('unit_group_mod', p), got {group!r}")
        if not (isinstance(twists, tuple) and len(twists) == 3):
            raise InputError(f"twists must be three descriptors, got {twists!r}")
        for d in twists:
            if d != "identity" and not (isinstance(d, tuple) and len(d) == 2 and d[0] == "seeded"):
                raise InputError(f"unknown twist descriptor {d!r}")
        name, builder = f"group_like_{group[0]}", _group_like_relation
    elif spec.kind == "cylindrical":
        if spec.block is not None and spec.block < 1:
            raise InputError(f"cylindrical block side must be >= 1, got {spec.block}")
        name, builder = "cylindrical", _cylindrical_relation
    elif not spec.expr:
        raise InputError(f"{spec.kind} family needs an expression")
    elif spec.kind == "topz":
        return top_frequent_family(spec.expr, spec.budget_cells)
    else:
        parse(spec.expr)  # fail fast on syntax errors
        name, builder = f"dsl:{spec.expr}", _dsl_relation
    return RelationFamily(name, lambda n: builder(spec, n), spec.budget_cells)


def top_frequent_family(expr_text: str, budget_cells: int = DEFAULT_BUDGET_CELLS) -> RelationFamily:
    """A = B = {0..n-1}; C = the n most frequent values of the solved side.

    The expression must isolate z on one side; ties in the frequency order
    break by value (the sorts are stable), so instances are deterministic.
    """
    expr = parse(expr_text)
    _, key, side = _solved(expr)
    if key != Var("z"):
        raise InputError("top-frequent family needs an expression solved for z")

    def build(n: int) -> FiniteRelation3:
        grid = list(range(n))
        rows = _compile(side, ("x", "y"), expr.modulus, {"x": grid, "y": grid})
        counts = Counter(chain.from_iterable(rows(grid, grid)))
        c_values = sorted(sorted(sorted(counts), key=counts.__getitem__, reverse=True)[:n])
        xy = GridSpec.range_(0, n)
        return instantiate3(expr, xy, xy, GridSpec.explicit(c_values), budget_cells=budget_cells)[0]

    return RelationFamily(f"topz:{expr_text}", build, budget_cells)
