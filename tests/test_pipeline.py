"""Ternary pipeline: delta degree, cylinders, derived G, fiber laws, CS, families."""

import heapq
import itertools
import random
import re
from collections import Counter

import pytest

from expd import (
    BudgetError,
    CapacityError,
    FamilySpec,
    InputError,
    ParameterError,
    Subset,
    Universe,
    build_relation3,
    cauchy_schwarz_check,
    count_grid3,
    cylindrical_witness,
    delta_degree,
    derive_g,
    g_edge_count,
    instantiate3,
    make_family,
)
from expd import pipeline
from expd.pipeline import CylindricalWitness, RelationFamily, _axis_flatten, _twist_map
from expd.relations import FiniteRelation3
from expd.zarankiewicz import find_kst


def u(n, name):
    return Universe(name, n)


def subset(universe, indices):
    """The subset of universe holding indices, which may repeat."""
    return Subset(universe, sum({1 << i for i in indices}))


def full_grid(rel):
    """A, B and C: the whole X, Y and Z of rel."""
    return map(Subset.full, (rel.x, rel.y, rel.z))


def mod_sum_relation(m):
    triples = [(x, y, (x + y) % m) for x in range(m) for y in range(m)]
    return build_relation3(u(m, "X"), u(m, "Y"), u(m, "Z"), triples)


def units_product_relation(p):
    # x*y*z = 1 in the unit group mod p; universes are indices of 1..p-1
    n = p - 1
    labels = tuple(range(1, p))
    triples = []
    for i in range(n):
        for j in range(n):
            inv = pow((i + 1) * (j + 1), p - 2, p)
            triples.append((i, j, inv - 1))
    return build_relation3(
        Universe("X", n, labels), Universe("Y", n, labels), Universe("Z", n, labels), triples
    )


def brute_delta_maxima(rel):
    """Oracle: enumerate all fibers of all three pairings directly."""
    nx, ny, nz = rel.x.size, rel.y.size, rel.z.size
    tr = set(rel.triples)
    m_z = max(
        (sum((x, y, z) in tr for z in range(nz)) for x in range(nx) for y in range(ny)),
        default=0,
    )
    m_y = max(
        (sum((x, y, z) in tr for y in range(ny)) for x in range(nx) for z in range(nz)),
        default=0,
    )
    m_x = max(
        (sum((x, y, z) in tr for x in range(nx)) for y in range(ny) for z in range(nz)),
        default=0,
    )
    return (m_z, m_y, m_x)


def brute_g_quadruples(rel):
    """Oracle: full quadruple enumeration of the derived relation."""
    tr = set(rel.triples)
    nx, ny, nz = rel.x.size, rel.y.size, rel.z.size
    out = set()
    for y1 in range(ny):
        for y2 in range(ny):
            for z1 in range(nz):
                for z2 in range(nz):
                    if any((x, y1, z1) in tr and (x, y2, z2) in tr for x in range(nx)):
                        out.add((y1, y2, z1, z2))
    return out


def g_edges_as_quadruples(g, ny, nz):
    out = set()
    for ypair, row in enumerate(g.rows):
        y1, y2 = divmod(ypair, ny)
        bits = row
        while bits:
            low = bits & -bits
            zpair = low.bit_length() - 1
            bits ^= low
            z1, z2 = divmod(zpair, nz)
            out.add((y1, y2, z1, z2))
    return out


def random_delta_algebraic(rng, sizes, d_cap, attempts=200):
    """Random F with all three pairing maxima <= d_cap, by rejection."""
    nx, ny, nz = sizes
    by = [dict(), dict(), dict()]
    triples = set()
    for _ in range(attempts):
        t = (rng.randrange(nx), rng.randrange(ny), rng.randrange(nz))
        if t in triples:
            continue
        i, j, k = t
        keys = [(i, j), (i, k), (j, k)]
        if any(len(by[a].get(keys[a], ())) >= d_cap for a in range(3)):
            continue
        triples.add(t)
        for a, key in enumerate(keys):
            by[a].setdefault(key, []).append(t)
    return build_relation3(u(nx, "X"), u(ny, "Y"), u(nz, "Z"), sorted(triples))


class TestDeltaDegree:
    def test_mod5_d1(self):
        rel = mod_sum_relation(5)
        dd = delta_degree(rel, 1)
        assert dd.d == 1
        assert dd.pairing_maxima == (1, 1, 1)
        assert brute_delta_maxima(rel) == (1, 1, 1)

    def test_sum_on_0_3(self):
        triples = [(x, y, z) for x in range(4) for y in range(4) for z in range(4) if x + y == z]
        rel = build_relation3(u(4, "X"), u(4, "Y"), u(4, "Z"), triples)
        dd = delta_degree(rel, 1)
        assert dd.d == 1
        assert dd.pairing_maxima == brute_delta_maxima(rel) == (1, 1, 1)

    def test_complete_cube_threshold1(self):
        triples = list(itertools.product(range(2), repeat=3))
        rel = build_relation3(u(2, "X"), u(2, "Y"), u(2, "Z"), triples)
        dd = delta_degree(rel, 1)
        assert dd.d is None
        assert dd.pairing_maxima == (2, 2, 2)

    def test_matches_brute_force_fuzz(self):
        rng = random.Random(7)
        for _ in range(20):
            sizes = tuple(rng.randint(1, 6) for _ in range(3))
            triples = {
                tuple(rng.randrange(s) for s in sizes) for _ in range(rng.randint(0, 30))
            }
            rel = build_relation3(u(sizes[0], "X"), u(sizes[1], "Y"), u(sizes[2], "Z"), sorted(triples))
            assert rel.pairing_maxima == brute_delta_maxima(rel)

    def test_threshold_validation(self):
        with pytest.raises(ParameterError):
            delta_degree(mod_sum_relation(3), 0)


def brute_force_cylinder_free(rel, k):
    """Oracle: K_{k,k} search on every axis split by direct enumeration."""
    tr = set(rel.triples)
    nx, ny, nz = rel.x.size, rel.y.size, rel.z.size
    axes = [
        (range(nx), [(j, kk) for j in range(ny) for kk in range(nz)], lambda i, p: (i, p[0], p[1])),
        (range(ny), [(i, kk) for i in range(nx) for kk in range(nz)], lambda j, p: (p[0], j, p[1])),
        (range(nz), [(i, j) for i in range(nx) for j in range(ny)], lambda kk, p: (p[0], p[1], kk)),
    ]
    for left, right, mk in axes:
        for ls in itertools.combinations(left, min(k, len(left))):
            if len(ls) < k:
                continue
            common = [p for p in right if all(mk(l, p) in tr for l in ls)]
            if len(common) >= k:
                return False
    return True


class TestCylindricalWitness:
    def test_planted_block_axis1(self):
        # x in I related to every (y,z) in J x K, |I| = |J| = 3
        triples = [(i, j, kk) for i in range(3) for j in range(3) for kk in range(1)]
        rel = build_relation3(u(4, "X"), u(4, "Y"), u(4, "Z"), triples)
        w = cylindrical_witness(rel, 3)
        assert w is not None
        assert w.axis == 1
        assert len(w.block.s_side) == 3 and len(w.block.t_side) == 3

    def test_mod5_no_k22_cylinder(self):
        rel = mod_sum_relation(5)
        assert cylindrical_witness(rel, 2) is None
        assert brute_force_cylinder_free(rel, 2)

    def test_empty_relation(self):
        rel = build_relation3(u(3, "X"), u(3, "Y"), u(3, "Z"), [])
        assert cylindrical_witness(rel, 2) is None

    def test_presence_matches_brute_force_fuzz(self):
        rng = random.Random(29)
        for _ in range(15):
            sizes = tuple(rng.randint(2, 4) for _ in range(3))
            triples = {
                tuple(rng.randrange(s) for s in sizes) for _ in range(rng.randint(0, 20))
            }
            rel = build_relation3(u(sizes[0], "X"), u(sizes[1], "Y"), u(sizes[2], "Z"), sorted(triples))
            found = cylindrical_witness(rel, 2) is not None
            assert found == (not brute_force_cylinder_free(rel, 2))

    def test_witness_block_is_complete(self):
        fam = make_family(FamilySpec(kind="cylindrical", block=4, seed=3))
        rel = fam.build(8)
        w = cylindrical_witness(rel, 4)
        assert w is not None
        tr = set(rel.triples)
        nz = rel.z.size
        if w.axis == 1:
            for left in w.block.s_side:
                for p in w.block.t_side:
                    assert (left, p // nz, p % nz) in tr

    def test_k_validation(self):
        with pytest.raises(ParameterError):
            cylindrical_witness(mod_sum_relation(3), 1)

    def test_budget(self):
        with pytest.raises(CapacityError):
            cylindrical_witness(mod_sum_relation(5), 2, budget_cells=10)

    def test_budget_refuses_an_axis_that_would_be_flattened(self, monkeypatch):
        # a planted 2 x 2 block over axis 1: two x share each of two (y, z) pairs, so axis 1's
        # maximum reaches k = 2 and the axis would be flattened, but the charge comes first
        triples = [(x, y, y) for x in (0, 1) for y in (0, 1)]
        rel = build_relation3(u(4, "X"), u(4, "Y"), u(4, "Z"), triples)
        assert rel.pairing_maxima[3 - 1] == 2
        assert cylindrical_witness(rel, 2).axis == 1

        def refuse(rel, axis):
            raise AssertionError(f"axis {axis} flattened before the charge")

        monkeypatch.setattr(pipeline, "_axis_flatten", refuse)
        with pytest.raises(BudgetError, match="each flattened axis relation needs 64 cells; budget is 63"):
            cylindrical_witness(rel, 2, budget_cells=63)


def flatten_every_axis_witness(rel, k):
    """Reference: the search with no fiber-maximum skip, every axis flattened and searched."""
    for axis in (1, 2, 3):
        block = find_kst(_axis_flatten(rel, axis), k, k)
        if block is not None:
            return CylindricalWitness(axis=axis, block=block)
    return None


def planted_block_relation(rng, k):
    """A rows x cols block on a random axis, with rows in k-1..k+1, plus sparse noise."""
    sizes = [rng.randint(k + 1, 6) for _ in range(3)]
    axis = rng.randint(1, 3)
    left = sizes[axis - 1]
    others = [(a, b) for a in range(sizes[axis % 3]) for b in range(sizes[(axis + 1) % 3])]
    rows = rng.sample(range(left), min(left, rng.randint(k - 1, k + 1)))
    cols = rng.sample(others, rng.randint(k - 1, k + 1))
    triples = set()
    for r in rows:
        for a, b in cols:
            t = [0, 0, 0]
            t[axis - 1], t[axis % 3], t[(axis + 1) % 3] = r, a, b
            triples.add(tuple(t))
    for _ in range(rng.randint(0, 6)):
        triples.add(tuple(rng.randrange(n) for n in sizes))
    return build_relation3(u(sizes[0], "X"), u(sizes[1], "Y"), u(sizes[2], "Z"), sorted(triples))


def shifted_sum_relation(rng, k):
    """(x, y, x + y + s mod m) for s in a set of k-1..k+1 shifts: every pairing maximum is the
    number of shifts."""
    m = rng.randint(k + 1, 7)
    shifts = rng.sample(range(m), rng.randint(k - 1, k + 1))
    triples = [(x, y, (x + y + s) % m) for x in range(m) for y in range(m) for s in shifts]
    return build_relation3(u(m, "X"), u(m, "Y"), u(m, "Z"), triples)


class TestAxisSkip:
    """cylindrical_witness skips an axis whose fiber maximum is below k; the
    answer must be the one the search over every flattened axis gives."""

    def test_matches_flattening_every_axis_fuzz(self):
        seen = set()  # (k, m - k) for each axis maximum m within one of k
        shrunk = 0  # restrictions whose maxima differ from their parent's
        for seed in range(240):
            rng = random.Random(seed)
            k = 2 + seed % 3
            kind = seed // 3 % 4
            if kind == 0:
                rel = planted_block_relation(rng, k)
            elif kind == 1:
                rel = shifted_sum_relation(rng, k)
            elif kind == 2:
                rel = mod_sum_relation(rng.randint(1, 7))
            else:
                sizes = (rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6))
                rel = random_delta_algebraic(rng, sizes, rng.randint(k - 1, k + 1), attempts=rng.randint(0, 60))
            maxima = rel.pairing_maxima
            assert maxima == brute_delta_maxima(rel)
            seen.update((k, m - k) for m in maxima if abs(m - k) <= 1)
            assert cylindrical_witness(rel, k) == flatten_every_axis_witness(rel, k)
            # a restriction counts its own maxima; it never inherits the ones its parent kept
            a, b, c = (Subset(side, rng.getrandbits(side.size)) for side in (rel.x, rel.y, rel.z))
            part = rel.restrict(a, b, c)
            assert part.pairing_maxima == brute_delta_maxima(part)
            shrunk += part.pairing_maxima != maxima
        assert seen == {(k, step) for k in (2, 3, 4) for step in (-1, 0, 1)}
        assert shrunk >= 100

    @pytest.mark.parametrize("sizes", [(0, 0, 0), (1, 1, 1), (1, 4, 1), (3, 0, 2), (1, 1, 5), (4, 1, 1)])
    def test_fiber_max_of_empty_and_size_one_universes(self, sizes):
        empty = build_relation3(u(sizes[0], "X"), u(sizes[1], "Y"), u(sizes[2], "Z"), [])
        assert empty.pairing_maxima == brute_delta_maxima(empty) == (0, 0, 0)
        full = build_relation3(
            u(sizes[0], "X"), u(sizes[1], "Y"), u(sizes[2], "Z"), itertools.product(*map(range, sizes))
        )
        assert full.pairing_maxima == brute_delta_maxima(full)
        assert cylindrical_witness(full, 2) == flatten_every_axis_witness(full, 2)

    def test_no_axis_flattened_below_k(self, monkeypatch):
        def refuse(rel, axis):
            raise AssertionError(f"axis {axis} flattened")

        monkeypatch.setattr(pipeline, "_axis_flatten", refuse)
        assert cylindrical_witness(mod_sum_relation(7), 2) is None

    def test_only_the_axis_reaching_k_is_flattened(self, monkeypatch):
        # (x, z) = (0, 0) and (1, 1) each hold y = 0 and 1: axis 2's maximum is 2, the others' 1
        rel = build_relation3(u(2, "X"), u(2, "Y"), u(2, "Z"), [(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1)])
        assert rel.pairing_maxima == (1, 2, 1)
        flattened = []

        def counting(rel, axis):
            flattened.append(axis)
            return _axis_flatten(rel, axis)

        monkeypatch.setattr(pipeline, "_axis_flatten", counting)
        witness = cylindrical_witness(rel, 2)
        assert flattened == [2]
        assert witness == flatten_every_axis_witness(rel, 2)
        assert witness.axis == 2 and witness.block.s_side == (0, 1) and witness.block.t_side == (0, 3)
        assert cylindrical_witness(rel, 3) is None and flattened == [2]


class TestDeriveG:
    def test_mod5_count_and_shape(self):
        rel = mod_sum_relation(5)
        g = derive_g(rel)
        assert g.u.size == 25 and g.v.size == 25
        assert g.edge_count == 125
        # shift law: (y,y',z,z') in G iff z - y = z' - y' (mod 5)
        expected = {
            (y1, y2, z1, z2)
            for y1 in range(5)
            for y2 in range(5)
            for z1 in range(5)
            for z2 in range(5)
            if (z1 - y1) % 5 == (z2 - y2) % 5
        }
        assert g_edges_as_quadruples(g, 5, 5) == expected == brute_g_quadruples(rel)

    def test_empty(self):
        rel = build_relation3(u(2, "X"), u(3, "Y"), u(4, "Z"), [])
        assert derive_g(rel).edge_count == 0

    def test_single_triple_diagonal_pair(self):
        rel = build_relation3(u(3, "X"), u(3, "Y"), u(3, "Z"), [(0, 1, 2)])
        g = derive_g(rel)
        assert g.edge_count == 1
        assert g.rows[1 * 3 + 1] == 1 << 2 * 3 + 2  # row-major pairs (i, j) <-> i*3 + j

    @staticmethod
    def draws(rng):
        """TestGKernel's input mix (empty, dense and degree-bounded relations),
        then twisted cyclic families, where every x-set X_yz is one x-run
        (d = 1), and x^2 + y^2 = z mod p, where some X_yz holds two (d = 2)."""
        for trial in range(60):
            sizes = tuple(rng.randint(1, 6) for _ in range(3))
            if trial < 5:
                yield build_relation3(u(sizes[0], "X"), u(sizes[1], "Y"), u(sizes[2], "Z"), [])
            elif trial % 2:
                triples = {
                    tuple(rng.randrange(s) for s in sizes) for _ in range(rng.randint(1, 80))
                }
                yield build_relation3(
                    u(sizes[0], "X"), u(sizes[1], "Y"), u(sizes[2], "Z"), sorted(triples)
                )
            else:
                yield random_delta_algebraic(rng, sizes, rng.randint(1, 3))
        for n in range(1, 7):
            twists = tuple(("seeded", rng.randrange(100)) for _ in range(3))
            yield make_family(FamilySpec(kind="group_like", group=("cyclic", None), twists=twists)).build(n)
        for p in (3, 5, 7):
            yield make_family(FamilySpec(kind="dsl", expr=f"x^2 + y^2 = z mod {p}", grids=("fullmod",) * 3)).build(p)

    def test_matches_quadruple_oracle_fuzz(self):
        """derive_g and g_edge_count against the quadruple oracle, through both
        branches of the G kernel: one-run x-sets, whose fiber dicts it hands
        out as they are, and merged ones."""
        seen = {"only_one_run": 0, "merged": 0}
        for trial, rel in enumerate(self.draws(random.Random(37))):
            x_set_sizes = Counter(t[1:] for t in rel.triples).values()
            seen["only_one_run"] += max(x_set_sizes, default=0) == 1
            seen["merged"] += max(x_set_sizes, default=0) > 1
            g = derive_g(rel)
            assert g_edges_as_quadruples(g, rel.y.size, rel.z.size) == brute_g_quadruples(rel), trial
            full = Subset.full(rel.y), Subset.full(rel.z)
            assert g_edge_count(rel) == (g.edge_count, *TestGKernel.oracle(rel, *full)[1:]), trial
        assert seen["only_one_run"] >= 10 and seen["merged"] >= 10

    def test_capacity_error(self):
        rel = mod_sum_relation(5)
        with pytest.raises(CapacityError):
            derive_g(rel, budget_cells=100)

    def test_huge_x_universe(self):
        # x-sets are masks over the x-runs of F, and restricting F to X×B×C
        # builds no mask over X, so |X| = 10^15 costs nothing
        last = 10**15 - 1
        rel = build_relation3(u(10**15, "X"), u(2, "Y"), u(2, "Z"), [(last, 0, 0), (last, 1, 1)])
        assert derive_g(rel).edge_count == 4
        assert g_edge_count(rel) == (4, 1, 1)
        y, z = u(4, "Y"), u(4, "Z")
        rel = build_relation3(u(10**15, "X"), y, z, [(0, 2, 2), (5, 3, 3), (last, 0, 0), (last, 1, 1)])
        b = subset(y, [0, 1, 2])
        assert g_edge_count(rel, b, Subset.full(z)) == (5, 1, 1)
        assert g_edge_count(rel, b) == (5, 1, 1)


class TestGKernel:
    @staticmethod
    def oracle(rel, b, c):
        """|G ∩ B²×C²| and its largest (y,y',z) and (z,z',y) fibers, from quadruples."""
        quads = [
            q for q in brute_g_quadruples(rel)
            if b.bits >> q[0] & 1 and b.bits >> q[1] & 1 and c.bits >> q[2] & 1 and c.bits >> q[3] & 1
        ]
        by_yyz, by_zzy = {}, {}
        for y1, y2, z1, z2 in quads:
            by_yyz[(y1, y2, z1)] = by_yyz.get((y1, y2, z1), 0) + 1
            by_zzy[(z1, z2, y1)] = by_zzy.get((z1, z2, y1), 0) + 1
        return (
            len(quads),
            max(by_yyz.values(), default=0),
            max(by_zzy.values(), default=0),
        )

    def test_matches_quadruple_oracle_fuzz(self):
        rng = random.Random(41)
        for trial in range(60):
            sizes = tuple(rng.randint(1, 6) for _ in range(3))
            if trial < 5:
                rel = build_relation3(u(sizes[0], "X"), u(sizes[1], "Y"), u(sizes[2], "Z"), [])
            elif trial % 2:
                # dense and unconstrained: usually not degree-bounded at small d
                triples = {
                    tuple(rng.randrange(s) for s in sizes) for _ in range(rng.randint(1, 80))
                }
                rel = build_relation3(
                    u(sizes[0], "X"), u(sizes[1], "Y"), u(sizes[2], "Z"), sorted(triples)
                )
            else:
                rel = random_delta_algebraic(rng, sizes, rng.randint(1, 3))
            ny, nz = sizes[1], sizes[2]
            if trial % 10 == 7:
                b, c = Subset(rel.y, 0), Subset.full(rel.z)
            elif trial % 10 == 8:
                b, c = Subset.full(rel.y), Subset(rel.z, 0)
            else:
                b = subset(rel.y, [i for i in range(ny) if rng.random() < 0.7])
                c = subset(rel.z, [i for i in range(nz) if rng.random() < 0.7])
            assert g_edge_count(rel, b, c) == self.oracle(rel, b, c), trial
            full = self.oracle(rel, Subset.full(rel.y), Subset.full(rel.z))
            assert g_edge_count(rel) == full, trial

    def test_universe_mismatch(self):
        rel = mod_sum_relation(3)
        with pytest.raises(InputError):
            g_edge_count(rel, Subset.full(u(4, "Y")), None)


def full_check(rel, d):
    """The merged fiber-law and count-transfer check on the full grid."""
    return cauchy_schwarz_check(
        rel, Subset.full(rel.x), Subset.full(rel.y), Subset.full(rel.z), d
    )


class TestFiberBounds:
    def test_mod5(self):
        rel = mod_sum_relation(5)
        rep = full_check(rel, 1)
        assert rep.ok
        assert rep.max_zz_fiber == 1 and rep.max_yy_fiber == 1
        assert rep.bound == 1
        assert rep.g_count == derive_g(rel).edge_count == 125

    def test_units_mod7(self):
        rel = units_product_relation(7)
        rep = full_check(rel, 1)
        assert rep.ok
        assert rep.max_zz_fiber == 1 and rep.max_yy_fiber == 1

    def test_d2_law_fuzz_against_brute_force(self):
        rng = random.Random(43)
        for _ in range(12):
            rel = random_delta_algebraic(rng, (6, 6, 6), rng.randint(1, 3))
            d = max(rel.pairing_maxima) or 1
            rep = full_check(rel, d)
            assert rep.ok, rep
            quads = brute_g_quadruples(rel)
            by_yyz = {}
            for y1, y2, z1, z2 in quads:
                by_yyz.setdefault((y1, y2, z1), set()).add(z2)
            worst = max((len(v) for v in by_yyz.values()), default=0)
            assert worst == rep.max_zz_fiber <= d * d

    def test_point_count_checks(self):
        # the summed law |G ∩ {(y,y')}×C²| <= d²|C|, which the fiber law
        # implies, on materialized G for C = Z and seeded random C
        rng = random.Random(3)
        rels = [mod_sum_relation(7)] + [
            random_delta_algebraic(rng, (6, 6, 6), rng.randint(1, 3)) for _ in range(6)
        ]
        for rel in rels:
            d = max(rel.pairing_maxima) or 1
            assert full_check(rel, d).ok
            g = derive_g(rel)
            nz = rel.z.size
            choices = [list(range(nz))] + [
                rng.sample(range(nz), rng.randint(1, nz)) for _ in range(8)
            ]
            for chosen in choices:
                csq = sum(1 << i * nz + j for i in chosen for j in chosen)
                worst = max((row & csq).bit_count() for row in g.rows)
                assert worst <= d * d * len(chosen)

    def test_d_required(self):
        rel = mod_sum_relation(3)
        with pytest.raises(ParameterError):
            full_check(rel, -1)

    def test_negative_d_refused_before_restricting(self, monkeypatch):
        def refuse(self, *subsets):
            raise AssertionError("F restricted before d was checked")

        monkeypatch.setattr(FiniteRelation3, "restrict", refuse)
        with pytest.raises(ParameterError, match="the bounded degree d must be >= 0, got -1"):
            full_check(mod_sum_relation(3), -1)

    def test_empty_relation_holds_at_d0(self):
        rel = build_relation3(u(3, "X"), u(3, "Y"), u(3, "Z"), [])
        assert delta_degree(rel, 1).d == 0
        rep = full_check(rel, 0)
        assert rep.ok and rep.bound == 0
        assert (rep.f_count, rep.w_count, rep.g_count) == (0, 0, 0)


class TestCauchySchwarz:
    def test_mod5_equality_at_25(self):
        rel = mod_sum_relation(5)
        rep = full_check(rel, delta_degree(rel, 1).d)
        assert rep.ok
        assert rep.f_count == 25 and rep.g_count == 125 and rep.d == 1
        # exact equality: |F'|^2 == d^2 |A| |G'|
        assert rep.f_count**2 == rep.d**2 * rep.a_size * rep.g_count
        assert abs(rep.rhs - 25.0) < 1e-9

    def test_singleton_a_cs_step_tight(self):
        rel = mod_sum_relation(5)
        a = subset(rel.x, [2])
        rep = cauchy_schwarz_check(rel, a, Subset.full(rel.y), Subset.full(rel.z), 1)
        # |F'| = |F'_a| and |W'| = |F'_a|^2: the Cauchy-Schwarz step is equality
        assert rep.w_count == rep.f_count**2
        assert rep.f_count**2 == rep.a_size * rep.w_count
        assert rep.ok

    def test_w_and_g_match_brute_force(self):
        rng = random.Random(53)
        for _ in range(20):
            rel = random_delta_algebraic(rng, (5, 5, 5), 3)
            a = subset(rel.x, [i for i in range(5) if rng.random() < 0.7])
            b = subset(rel.y, [i for i in range(5) if rng.random() < 0.7])
            c = subset(rel.z, [i for i in range(5) if rng.random() < 0.7])
            rep = cauchy_schwarz_check(rel, a, b, c, max(rel.pairing_maxima))
            tr = [t for t in rel.triples if b.bits >> t[1] & 1 and c.bits >> t[2] & 1]
            f_brute = sum(1 for t in tr if a.bits >> t[0] & 1)
            w_brute = sum(
                1
                for t1 in tr
                for t2 in tr
                if t1[0] == t2[0] and a.bits >> t1[0] & 1
            )
            quads = {(t1[1], t2[1], t1[2], t2[2]) for t1 in tr for t2 in tr if t1[0] == t2[0]}
            g_brute = len(quads)
            zz_brute = Counter((y1, y2, z1) for y1, y2, z1, _ in quads)
            yy_brute = Counter((z1, z2, y1) for y1, _, z1, z2 in quads)
            assert rep.f_count == f_brute
            assert rep.w_count == w_brute
            assert rep.g_count == g_brute
            assert rep.max_zz_fiber == max(zz_brute.values(), default=0)
            assert rep.max_yy_fiber == max(yy_brute.values(), default=0)
            assert rep.ok

    def test_inequalities_hold_fuzz(self):
        rng = random.Random(59)
        for _ in range(20):
            sizes = tuple(rng.randint(3, 12) for _ in range(3))
            rel = random_delta_algebraic(rng, sizes, 3, attempts=120)
            rep = full_check(rel, max(rel.pairing_maxima))
            assert rep.cs_ok and rep.fiber_ok and rep.composed_ok


class TestFamilies:
    def test_cyclic_identity(self):
        fam = make_family(FamilySpec(kind="group_like", group=("cyclic", None)))
        rel = fam.build(5)
        assert len(rel) == 25
        assert count_grid3(rel, *full_grid(rel)) == 25

    def test_cyclic_law_yz_determines_x(self):
        fam = make_family(FamilySpec(kind="group_like", group=("cyclic", None)))
        rel = fam.build(9)
        by_yz = Counter((j, k) for _, j, k in rel.triples)
        assert all(v == 1 for v in by_yz.values())
        assert len(by_yz) == 81

    def test_unit_group_mod7(self):
        fam = make_family(FamilySpec(kind="group_like", group=("unit_group_mod", 7)))
        rel = fam.build(6)
        assert len(rel) == 36
        # spot-check against the explicit construction
        assert set(rel.triples) == set(units_product_relation(7).triples)
        with pytest.raises(InputError):
            fam.build(5)

    TWISTS = {
        "identity": ("identity", "identity", "identity"),
        "seeded": (("seeded", 5), ("seeded", 6), ("seeded", 7)),
        "mixed": (("seeded", 2), "identity", ("seeded", 9)),
    }

    @pytest.mark.parametrize("twists", TWISTS, ids=str)
    @pytest.mark.parametrize(
        "group, n",
        [(("cyclic", None), n) for n in (1, 2, 3, 5, 16, 33)]
        + [(("unit_group_mod", p), p - 1) for p in (2, 3, 5, 7, 11, 13, 101, 211)],
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_group_like_matches_brute_force(self, group, n, twists):
        # oracle: twist i maps index -> group element; (i, j, k) ∈ F iff the
        # three elements sum to 0 mod n (cyclic) or multiply to 1 mod p (units)
        gkind, p = group
        maps = [_twist_map(t, n, child_seed=i) for i, t in enumerate(self.TWISTS[twists])]
        if gkind == "cyclic":
            elems, op, modulus, unit = maps, int.__add__, n, 0
        else:
            elems, op, modulus, unit = [[m + 1 for m in mp] for mp in maps], int.__mul__, p, 1
        # the law depends on (a, b) only through a∘b mod the modulus: tabulate
        # the matching k of every residue by brute force, then read one per (i, j)
        ks = [[k for k, c in enumerate(elems[2]) if op(r, c) % modulus == unit] for r in range(modulus)]
        brute = tuple(
            (i, j, k)
            for (i, a), (j, b) in itertools.product(enumerate(elems[0]), enumerate(elems[1]))
            for k in ks[op(a, b) % modulus]
        )
        rel = make_family(FamilySpec(kind="group_like", group=group, twists=self.TWISTS[twists])).build(n)
        assert rel.triples == brute
        labels = (None,) * 3 if gkind == "cyclic" else tuple(map(tuple, elems))
        assert (rel.x.labels, rel.y.labels, rel.z.labels) == labels

    def test_twisted_counts_match_identity(self):
        spec = FamilySpec(
            kind="group_like",
            group=("cyclic", None),
            twists=(("seeded", 5), ("seeded", 6), ("seeded", 7)),
        )
        rel = make_family(spec).build(12)
        assert len(rel) == 144
        assert delta_degree(rel, 1).d == 1

    def test_twist_invariance_properties(self):
        # bijective per-coordinate twists are relabelings: the degree profile,
        # cylinder-freeness, full count and |G| are all unchanged
        base = make_family(FamilySpec(kind="group_like", group=("cyclic", None))).build(8)
        twisted = make_family(
            FamilySpec(
                kind="group_like",
                group=("cyclic", None),
                twists=(("seeded", 1), ("seeded", 2), ("seeded", 3)),
            )
        ).build(8)
        assert base.pairing_maxima == twisted.pairing_maxima
        assert (cylindrical_witness(base, 2) is None) == (
            cylindrical_witness(twisted, 2) is None
        )
        assert len(base) == len(twisted)
        assert derive_g(base).edge_count == derive_g(twisted).edge_count

    def test_cylindrical_block_count(self):
        fam = make_family(FamilySpec(kind="cylindrical", seed=11))
        for n in (4, 8):
            rel = fam.build(n)
            assert count_grid3(rel, *full_grid(rel)) >= n * n

    def test_cylindrical_fixed_block(self):
        fam = make_family(FamilySpec(kind="cylindrical", block=3, seed=11))
        rel = fam.build(10)
        assert cylindrical_witness(rel, 3) is not None

    def test_dsl_family(self):
        fam = make_family(FamilySpec(kind="dsl", expr="x + y = z"))
        rel = fam.build(4)
        assert len(rel) == 10

    def test_top_frequent_family(self):
        fam = make_family(FamilySpec(kind="topz", expr="x^2 + y^3 = z"))
        rel = fam.build(8)
        assert rel.z.size == 8
        # C holds the 8 most frequent values; count equals their multiplicity sum
        counts = {}
        for xv in range(8):
            for yv in range(8):
                counts[xv**2 + yv**3] = counts.get(xv**2 + yv**3, 0) + 1
        top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:8]
        assert count_grid3(rel, *full_grid(rel)) == sum(m for _, m in top)

    @pytest.mark.parametrize("seed", range(6))
    def test_top_frequent_ranking_matches_nsmallest(self, seed):
        # seeded definitions whose value counts tie often; C must hold the values
        # that nsmallest picks by (-count, value)
        rng = random.Random(seed)
        a, b, e = rng.randrange(1, 4), rng.randrange(1, 4), rng.choice([1, 2, 3])
        modulus = rng.choice([None, 12, 31, 257])
        text = f"{a}*x^{e} + {b}*y = z" + ("" if modulus is None else f" mod {modulus}")
        for n in (32, 64, 128, 256):
            counts = Counter(a * x**e + b * y for x in range(n) for y in range(n))
            if modulus is not None:
                counts = Counter((v % modulus for v in counts.elements()))
            expected = sorted(heapq.nsmallest(n, counts, key=lambda v: (-counts[v], v)))
            assert list(make_family(FamilySpec(kind="topz", expr=text)).build(n).z.labels) == expected, (text, n)

    def test_top_frequent_needs_solved_z(self):
        with pytest.raises(InputError):
            make_family(FamilySpec(kind="topz", expr="x + y + z = 0"))
        with pytest.raises(InputError, match="^top-frequent family needs an expression solved for z$"):
            make_family(FamilySpec(kind="topz", expr="z^2 = x + y"))  # a join on z, not a lone z

    @pytest.mark.parametrize("text", ["x = z", "z = x"])
    def test_top_frequent_solves_z_when_both_sides_are_variables(self, text):
        # every x in 0..3 appears 4 times, so C = {0..3} and each (x, y) has one z
        assert len(make_family(FamilySpec(kind="topz", expr=text)).build(4)) == 16

    def test_family_size_validation(self):
        fam = make_family(FamilySpec(kind="group_like", group=("cyclic", None)))
        with pytest.raises(InputError):
            fam.build(0)

    def test_budget_refuses_n_squared_before_building(self):
        built = []
        fam = RelationFamily("watched", built.append, budget_cells=99)
        with pytest.raises(BudgetError, match="family size 10 needs 100 cells"):
            fam.build(10)
        assert built == []
        for spec in (
            FamilySpec(kind="group_like", group=("cyclic", None), budget_cells=99),
            FamilySpec(kind="cylindrical", budget_cells=99),
        ):
            assert len(make_family(spec).build(9)) >= 81
            with pytest.raises(BudgetError):
                make_family(spec).build(10)
        assert make_family(FamilySpec(kind="topz", expr="x + y = z", budget_cells=99)).build(9).z.size == 9
        with pytest.raises(BudgetError):
            make_family(FamilySpec(kind="topz", expr="x + y = z", budget_cells=99)).build(10)

    @pytest.mark.parametrize("kind", ["topz", "dsl"])
    def test_the_family_budget_reaches_instantiate3(self, monkeypatch, kind):
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs.get("budget_cells", "default"))
            return instantiate3(*args, **kwargs)

        monkeypatch.setattr(pipeline, "instantiate3", spy)
        make_family(FamilySpec(kind=kind, expr="x + y = z", budget_cells=10**9)).build(4)
        assert seen == [10**9]

    @pytest.mark.parametrize(
        "spec",
        [FamilySpec(kind="cylindrical", block=3), FamilySpec(kind="dsl", expr="x + y = z")],
        ids=["cylindrical", "dsl"],
    )
    def test_twists_refused_where_no_builder_reads_them(self, spec):
        seeded = (("seeded", 1), ("seeded", 2), ("seeded", 3))
        with pytest.raises(InputError, match="twists apply to group-like families only"):
            make_family(FamilySpec(**{**vars(spec), "twists": seeded}))
        assert len(make_family(spec).build(4)) > 0

    @pytest.mark.parametrize(
        "spec, field",
        [
            (FamilySpec(kind="group_like", group=("cyclic", None), grids=("range:0:3:1", *FamilySpec.grids[1:])), "grids"),
            (FamilySpec(kind="group_like", group=("cyclic", None), expr="x + y = z"), "expr"),
            (FamilySpec(kind="group_like", group=("cyclic", None), block=2), "block"),
            (FamilySpec(kind="cylindrical", group=("cyclic", None)), "group"),
            (FamilySpec(kind="dsl", expr="x + y = z", block=2), "block"),
            (FamilySpec(kind="topz", expr="x + y = z", grids=("list:1", "list:1", "list:1")), "grids"),
        ],
        ids=["cyclic-grids", "cyclic-expr", "cyclic-block", "cylindrical-group", "dsl-block", "topz-grids"],
    )
    def test_a_field_the_kind_does_not_read_is_refused(self, spec, field):
        with pytest.raises(InputError, match=f"^{field} apply to .* families only, not to {spec.kind}$"):
            make_family(spec)

    def test_topz_is_a_family_kind(self):
        fam = make_family(FamilySpec(kind="topz", expr="x^2 + y^3 = z", seed=7, budget_cells=99))
        assert fam.name == "topz:x^2 + y^3 = z" and fam.budget_cells == 99
        for kind in ("dsl", "topz"):
            with pytest.raises(InputError, match=f"{kind} family needs an expression"):
                make_family(FamilySpec(kind=kind))

    @pytest.mark.parametrize(
        "spec, message",
        [
            (FamilySpec(kind="bogus"), "unknown family kind 'bogus'"),
            (FamilySpec(kind="group_like"), "group must be ('cyclic', None) or ('unit_group_mod', p), got None"),
            (
                FamilySpec(kind="group_like", group=("dihedral", None)),
                "group must be ('cyclic', None) or ('unit_group_mod', p), got ('dihedral', None)",
            ),
            (
                FamilySpec(kind="group_like", group=("cyclic", None), twists=("identity", "bogus", "identity")),
                "unknown twist descriptor 'bogus'",
            ),
            (
                FamilySpec(kind="group_like", group="cyclic"),
                "group must be ('cyclic', None) or ('unit_group_mod', p), got 'cyclic'",
            ),
            (
                FamilySpec(kind="group_like", group=("unit_group_mod",)),
                "group must be ('cyclic', None) or ('unit_group_mod', p), got ('unit_group_mod',)",
            ),
            (
                FamilySpec(kind="group_like", group=("cyclic", None), twists=("identity",)),
                "twists must be three descriptors, got ('identity',)",
            ),
            (
                FamilySpec(kind="group_like", group=("cyclic", 5)),
                "group must be ('cyclic', None) or ('unit_group_mod', p), got ('cyclic', 5)",
            ),
            (
                FamilySpec(kind="group_like", group=("unit_group_mod", "7")),
                "group must be ('cyclic', None) or ('unit_group_mod', p), got ('unit_group_mod', '7')",
            ),
            (
                FamilySpec(kind="group_like", group=("unit_group_mod", None)),
                "group must be ('cyclic', None) or ('unit_group_mod', p), got ('unit_group_mod', None)",
            ),
            (
                FamilySpec(kind="group_like", group=("unit_group_mod", 7.0)),
                "group must be ('cyclic', None) or ('unit_group_mod', p), got ('unit_group_mod', 7.0)",
            ),
        ],
        ids=[
            "unknown-kind",
            "group-like-without-group",
            "unknown-group-kind",
            "unknown-twist",
            "group-not-a-pair",
            "group-without-modulus",
            "one-twist",
            "cyclic-with-modulus",
            "modulus-a-string",
            "modulus-none",
            "modulus-a-float",
        ],
    )
    def test_a_spec_no_builder_reads_is_refused(self, spec, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            make_family(spec)

    @pytest.mark.parametrize("p", [4, 9, 15])
    def test_unit_group_needs_a_prime_modulus(self, p):
        fam = make_family(FamilySpec(kind="group_like", group=("unit_group_mod", p)))
        with pytest.raises(InputError, match="prime modulus"):
            fam.build(p - 1)

    def test_dsl_grids_substitute_only_n(self):
        spec = FamilySpec(kind="dsl", expr="x + y = z", grids=("list:{n}", "range:0:{n}:1", "list:0,{n}"))
        assert make_family(spec).build(3).triples == ((0, 0, 1),)  # 3 + 0 = 3
        for grid in ("list:{0}", "range:0:{m}:1", "range:0:{"):
            bad = FamilySpec(kind="dsl", expr="x + y = z", grids=(grid, "list:1", "list:1"))
            with pytest.raises(InputError, match="bad grid spec"):
                make_family(bad).build(3)
