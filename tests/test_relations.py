"""Relation core: builders, fibers, exact grid counts, pair universes, file IO."""

import json
import math
import random
from array import array
from collections import Counter

import pytest

from expd import (
    InputError,
    CapacityError,
    FiniteRelation2,
    FiniteRelation3,
    Subset,
    Universe,
    build_relation2,
    build_relation3,
    count_grid2,
    count_grid3,
    pair_universe,
    read_relation,
    write_relation,
)
from expd.relations import _CHUNK, MAX_FILE_CELLS, MAX_PAIR_BASE, _iter_bits, _write_relation, relation_from_obj
from expd.zarankiewicz import _first_bits


def u(n, name="U"):
    return Universe(name, n)


def subset(universe, indices):
    """The subset of universe holding indices, which may repeat."""
    return Subset(universe, sum({1 << i for i in indices}))


def relation_to_obj(rel):
    """The file object of rel, built whole from rows and keys: the writer's oracle."""
    universes = (rel.u, rel.v) if hasattr(rel, "rows") else (rel.x, rel.y, rel.z)
    obj = {
        "universes": [
            {"name": w.name, "size": w.size, **({} if w.labels is None else {"labels": list(w.labels)})}
            for w in universes
        ]
    }
    if hasattr(rel, "rows"):
        obj["kind"] = "rel2"
        obj["pairs"] = [[i, j] for i, row in enumerate(rel.rows) for j in range(rel.v.size) if row >> j & 1]
    else:
        ny, nz = rel.y.size, rel.z.size
        obj["kind"] = "rel3"
        obj["triples"] = [[key // (ny * nz), key // nz % ny, key % nz] for key in rel.keys]
    return obj


class TestUniverse:
    def test_labels_must_match_size(self):
        with pytest.raises(InputError):
            Universe("U", 3, labels=("a", "b"))

    def test_labels_must_be_distinct(self):
        with pytest.raises(InputError):
            Universe("U", 2, labels=("a", "a"))


class TestSubset:
    def test_negative_bits_refused(self):
        with pytest.raises(InputError, match="subset bits out of range for universe 'U'"):
            Subset(u(3), -1)

    def test_bits_at_or_above_two_to_the_size_refused(self):
        assert Subset(u(3), 7).cardinality() == 3
        for bits in (8, 9, 1 << 40):
            with pytest.raises(InputError, match="subset bits out of range for universe 'U'"):
                Subset(u(3), bits)


class TestFiniteRelation2:
    def test_wrong_number_of_rows_refused(self):
        with pytest.raises(InputError, match=r"relation rows \(2\) do not match \|U\| = 3"):
            FiniteRelation2(u(3), u(2, "V"), [0, 1])

    def test_bit_outside_v_refused(self):
        with pytest.raises(InputError, match="row 1 has bits outside universe 'V'"):
            FiniteRelation2(u(2), u(2, "V"), [3, 4])
        with pytest.raises(InputError, match="row 0 has bits outside universe 'V'"):
            FiniteRelation2(u(2), u(2, "V"), [-1, 0])


class TestRepr:
    def test_binary(self):
        rel = build_relation2(u(3), u(2, "V"), [(0, 0), (2, 1)])
        assert repr(rel) == "FiniteRelation2(U:3 x V:2, 2 edges)"

    def test_ternary(self):
        rel = build_relation3(u(2, "X"), u(3, "Y"), u(4, "Z"), [(0, 0, 0), (1, 2, 3), (1, 1, 1)])
        assert repr(rel) == "FiniteRelation3(X:2 x Y:3 x Z:4, 3 triples)"


class TestBuildRelation2:
    def test_empty(self):
        rel = build_relation2(u(2), u(2, "V"), [])
        assert rel.edge_count == 0

    def test_complete_k22(self):
        rel = build_relation2(u(2), u(2, "V"), [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert rel.edge_count == 4

    def test_identity_matching(self):
        rel = build_relation2(u(3), u(3, "V"), [(0, 0), (1, 1), (2, 2)])
        assert rel.edge_count == 3
        assert rel.rows == (1, 2, 4)

    def test_duplicates_collapse(self):
        rel = build_relation2(u(2), u(2, "V"), [(0, 1), (0, 1), (0, 1)])
        assert rel.edge_count == 1

    def test_out_of_range_names_pair(self):
        with pytest.raises(InputError, match=r"\(0, 7\)"):
            build_relation2(u(2), u(2, "V"), [(0, 7)])


class TestBuildRelation3:
    def test_empty(self):
        assert len(build_relation3(u(2), u(2, "Y"), u(2, "Z"), [])) == 0

    def test_full_cube(self):
        triples = [(i, j, k) for i in range(2) for j in range(2) for k in range(2)]
        assert len(build_relation3(u(2), u(2, "Y"), u(2, "Z"), triples)) == 8

    def test_mod5_sum_brute_force(self):
        # oracle: enumerate all 125 triples of Z/5, keep x+y=z (mod 5)
        expected = [
            (x, y, z)
            for x in range(5)
            for y in range(5)
            for z in range(5)
            if (x + y - z) % 5 == 0
        ]
        rel = build_relation3(u(5), u(5, "Y"), u(5, "Z"), expected)
        assert len(rel) == len(expected) == 25

    def test_out_of_range(self):
        with pytest.raises(InputError):
            build_relation3(u(2), u(2, "Y"), u(2, "Z"), [(0, 0, 2)])

    def test_key_range_is_64_bits(self):
        top = (1 << 63) - 1
        rel = build_relation3(u(top), u(1, "Y"), u(1, "Z"), [(top - 1, 0, 0)])
        assert rel.triples == ((top - 1, 0, 0),)
        with pytest.raises(CapacityError):
            build_relation3(u(1 << 63), u(1, "Y"), u(1, "Z"), [])
        with pytest.raises(CapacityError):
            build_relation3(u(1 << 21), u(1 << 21, "Y"), u(1 << 21, "Z"), [(0, 0, 0)])


class TestCountGrid2:
    def test_k22_full(self):
        rel = build_relation2(u(2), u(2, "V"), [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert count_grid2(rel, Subset.full(rel.u), Subset.full(rel.v)) == 4

    def test_k22_half(self):
        rel = build_relation2(u(2), u(2, "V"), [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert count_grid2(rel, subset(rel.u, [0]), Subset.full(rel.v)) == 2

    def test_universe_mismatch(self):
        rel = build_relation2(u(2), u(2, "V"), [])
        with pytest.raises(InputError):
            count_grid2(rel, Subset.full(u(2, "W")), Subset.full(rel.v))

    def test_full_grid_equals_edge_count_random(self):
        rng = random.Random(11)
        for _ in range(25):
            m, n = rng.randint(1, 12), rng.randint(1, 12)
            pairs = {(rng.randrange(m), rng.randrange(n)) for _ in range(rng.randint(0, m * n))}
            rel = build_relation2(u(m), u(n, "V"), sorted(pairs))
            assert count_grid2(rel, Subset.full(rel.u), Subset.full(rel.v)) == rel.edge_count

    def test_count_is_fiber_sum(self):
        # |E ∩ A×B| = sum over a in A of |E_a ∩ B|
        rng = random.Random(13)
        for _ in range(25):
            m, n = rng.randint(1, 10), rng.randint(1, 10)
            pairs = {(rng.randrange(m), rng.randrange(n)) for _ in range(rng.randint(0, m * n))}
            rel = build_relation2(u(m), u(n, "V"), sorted(pairs))
            a = subset(rel.u, [i for i in range(m) if rng.random() < 0.5])
            b = subset(rel.v, [j for j in range(n) if rng.random() < 0.5])
            total = sum(
                len([j for j in Subset(rel.v, rel.rows[i]).members() if b.bits >> j & 1])
                for i in a.members()
            )
            assert count_grid2(rel, a, b) == total

    def test_relabeling_invariance(self):
        rng = random.Random(17)
        for _ in range(15):
            m, n = rng.randint(2, 9), rng.randint(2, 9)
            pairs = {(rng.randrange(m), rng.randrange(n)) for _ in range(rng.randint(0, m * n))}
            rel = build_relation2(u(m), u(n, "V"), sorted(pairs))
            pi = list(range(m))
            tau = list(range(n))
            rng.shuffle(pi)
            rng.shuffle(tau)
            permuted = build_relation2(u(m), u(n, "V"), [(pi[i], tau[j]) for i, j in pairs])
            a_idx = [i for i in range(m) if rng.random() < 0.6]
            b_idx = [j for j in range(n) if rng.random() < 0.6]
            lhs = count_grid2(
                rel, subset(rel.u, a_idx), subset(rel.v, b_idx)
            )
            rhs = count_grid2(
                permuted,
                subset(permuted.u, [pi[i] for i in a_idx]),
                subset(permuted.v, [tau[j] for j in b_idx]),
            )
            assert lhs == rhs


class TestCountGrid3:
    def mod5(self):
        triples = [(x, y, (x + y) % 5) for x in range(5) for y in range(5)]
        return build_relation3(u(5, "X"), u(5, "Y"), u(5, "Z"), triples)

    def test_mod5_full(self):
        rel = self.mod5()
        assert count_grid3(rel, Subset.full(rel.x), Subset.full(rel.y), Subset.full(rel.z)) == 25

    def test_sum_on_0_3(self):
        # oracle: brute force over 64 triples of {0..3}
        expected = sum(
            1 for x in range(4) for y in range(4) for z in range(4) if x + y == z
        )
        assert expected == 10
        triples = [
            (x, y, z) for x in range(4) for y in range(4) for z in range(4) if x + y == z
        ]
        rel = build_relation3(u(4, "X"), u(4, "Y"), u(4, "Z"), triples)
        assert count_grid3(rel, Subset.full(rel.x), Subset.full(rel.y), Subset.full(rel.z)) == 10

    def test_empty(self):
        rel = build_relation3(u(3, "X"), u(3, "Y"), u(3, "Z"), [])
        assert count_grid3(rel, Subset.full(rel.x), Subset.full(rel.y), Subset.full(rel.z)) == 0

    def test_relabeling_invariance(self):
        rng = random.Random(19)
        for _ in range(10):
            n = rng.randint(2, 6)
            triples = {
                (rng.randrange(n), rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(0, n * n))
            }
            rel = build_relation3(u(n, "X"), u(n, "Y"), u(n, "Z"), sorted(triples))
            perms = [list(range(n)) for _ in range(3)]
            for p in perms:
                rng.shuffle(p)
            moved = build_relation3(
                u(n, "X"),
                u(n, "Y"),
                u(n, "Z"),
                [(perms[0][i], perms[1][j], perms[2][k]) for i, j, k in triples],
            )
            subs = []
            for axis in range(3):
                subs.append([i for i in range(n) if rng.random() < 0.7])
            lhs = count_grid3(
                rel,
                subset(rel.x, subs[0]),
                subset(rel.y, subs[1]),
                subset(rel.z, subs[2]),
            )
            rhs = count_grid3(
                moved,
                subset(moved.x, [perms[0][i] for i in subs[0]]),
                subset(moved.y, [perms[1][i] for i in subs[1]]),
                subset(moved.z, [perms[2][i] for i in subs[2]]),
            )
            assert lhs == rhs


class TupleRelation3:
    """The tuple-based ternary core that the packed one replaced: the oracle."""

    def __init__(self, x, y, z, triples):
        dedup = set()
        for i, j, k in triples:
            assert 0 <= i < x.size and 0 <= j < y.size and 0 <= k < z.size
            dedup.add((i, j, k))
        self.x, self.y, self.z = x, y, z
        self.triples = tuple(sorted(dedup))

    def fiber_map(self, pick):
        built = {}
        for t in self.triples:
            key, value = pick(*t)
            built.setdefault(key, []).append(value)
        return built

    def by_xy(self):
        return self.fiber_map(lambda i, j, k: ((i, j), k))

    def by_xz(self):
        return self.fiber_map(lambda i, j, k: ((i, k), j))

    def by_yz(self):
        return self.fiber_map(lambda i, j, k: ((j, k), i))

    def group_by_x(self):
        return self.fiber_map(lambda i, j, k: (i, (j, k)))

    def restrict(self, abits, bbits, cbits):
        return [(i, j, k) for i, j, k in self.triples if abits >> i & 1 and bbits >> j & 1 and cbits >> k & 1]

    def axis_pairs(self, axis):
        ny, nz = self.y.size, self.z.size
        return [{1: (i, j * nz + k), 2: (j, i * nz + k), 3: (k, i * ny + j)}[axis] for i, j, k in self.triples]

    def flatten_rows(self, axis):
        left = (self.x, self.y, self.z)[axis - 1].size
        rows = [0] * left
        for a, b in self.axis_pairs(axis):
            rows[a] |= 1 << b
        return tuple(rows)

    def to_obj(self):
        return {
            "kind": "rel3",
            "universes": [{"name": w.name, "size": w.size} for w in (self.x, self.y, self.z)],
            "triples": [list(t) for t in self.triples],
        }


class TestPackedCore:
    @staticmethod
    def random_input(rng):
        sizes = [rng.choice([1, 1, 2, 3, 5, 8, 13]) for _ in range(3)]
        boundary = [(0, s - 1) for s in sizes]
        triples = []
        for _ in range(rng.choice([0, 1, 2, 5, 20, 60])):
            triples.append(tuple(
                rng.choice(boundary[a]) if rng.random() < 0.3 else rng.randrange(sizes[a])
                for a in range(3)
            ))
        triples += rng.sample(triples, min(len(triples), rng.randint(0, 5)))  # duplicates
        if rng.random() < 0.7:
            rng.shuffle(triples)
        else:
            triples.sort()
        return [u(s, name) for s, name in zip(sizes, "XYZ")], triples

    def test_matches_tuple_oracle_fuzz(self):
        from expd.pipeline import _axis_flatten

        seen_empty = seen_dupes = seen_unit = seen_same = 0
        for seed in range(200):
            rng = random.Random(seed)
            (x, y, z), triples = self.random_input(rng)
            seen_empty += not triples
            seen_dupes += len(set(triples)) < len(triples)
            seen_unit += 1 in (x.size, y.size, z.size)
            rel = build_relation3(x, y, z, triples)
            oracle = TupleRelation3(x, y, z, triples)
            assert rel.triples == oracle.triples
            assert len(rel) == len(oracle.triples)
            assert rel.pairing_maxima == tuple(
                max(map(len, fibers.values()), default=0)
                for fibers in (oracle.by_xy(), oracle.by_xz(), oracle.by_yz())
            )
            assert {
                i: [divmod(key % (y.size * z.size), z.size) for key in rel.keys[lo:hi]]
                for i, lo, hi in rel.x_runs()
            } == oracle.group_by_x()
            for axis in (1, 2, 3):
                assert list(rel.axis_pairs(axis)) == oracle.axis_pairs(axis)
                assert _axis_flatten(rel, axis).rows == oracle.flatten_rows(axis)
            for _ in range(6):
                # each subset is missing (None), empty, partial or whole
                a, b, c = (
                    rng.choice([None, Subset(w, 0), Subset(w, rng.getrandbits(w.size)), Subset.full(w)])
                    for w in (x, y, z)
                )
                abits, bbits, cbits = (-1 if s is None else s.bits for s in (a, b, c))
                expected = oracle.restrict(abits, bbits, cbits)
                sub = rel.restrict(a, b, c)
                assert sub.triples == tuple(expected)
                assert (sub.x, sub.y, sub.z) == (x, y, z)
                if all(s is None or s.bits == (1 << s.universe.size) - 1 for s in (a, b, c)):
                    assert sub is rel
                    seen_same += 1
                if None not in (a, b, c):
                    assert count_grid3(rel, a, b, c) == len(expected)
                per_x = Counter(i for i, _, _ in expected)
                assert [hi - lo for _, lo, hi in sub.x_runs()] == list(per_x.values())
            assert relation_to_obj(rel) == oracle.to_obj()
            assert rel == build_relation3(x, y, z, sorted(set(triples)))
            if triples:
                assert rel != build_relation3(x, y, z, oracle.triples[1:])
                assert rel != build_relation3(u(x.size + 1, "X"), y, z, triples)
        assert seen_empty and seen_dupes and seen_unit and seen_same
        with pytest.raises(InputError):
            rel.axis_pairs(4)
        with pytest.raises(InputError):
            rel.restrict(b=Subset.full(x))


class TestSlicedBuild:
    """build_relation3 packs keys a slice of _CHUNK at a time; order, duplicates
    and errors at the slice boundaries must come out as for one whole list."""

    X, Y, Z = u(160, "X"), u(16, "Y"), u(16, "Z")  # 40,960 keys, room for 2·_CHUNK + 1 even ones

    @classmethod
    def triples(cls, n):
        """n sorted distinct triples, of the even keys 0, 2, 4, ..."""
        return [(key // 256, key // 16 % 16, key % 16) for key in range(0, 2 * n, 2)]

    @staticmethod
    def keys_of(triples):
        return array("q", sorted({(i * 16 + j) * 16 + k for i, j, k in triples}))

    @staticmethod
    def sizes():
        """_CHUNK - 1, _CHUNK, _CHUNK + 1 and 2·_CHUNK + 1, each with its boundary b:
        the first index of the second slice, or the last index when there is one slice."""
        return [(n, min(_CHUNK, n - 1)) for n in (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1)]

    def build(self, triples):
        return build_relation3(self.X, self.Y, self.Z, triples)

    def test_sorted(self):
        for n, _ in self.sizes():
            triples = self.triples(n)
            rel = self.build(triples)
            assert rel.keys == self.keys_of(triples) and len(rel) == n
            assert rel == self.build(iter(triples))

    def test_decrease_at_the_boundary(self):
        for n, b in self.sizes():
            triples = self.triples(n)
            triples[b - 1], triples[b] = triples[b], triples[b - 1]
            rel = self.build(triples)
            assert rel.keys == self.keys_of(triples)
            assert rel == self.build(sorted(triples))

    def test_duplicate_straddles_the_boundary(self):
        for n, b in self.sizes():
            triples = self.triples(n)
            triples[b] = triples[b - 1]
            rel = self.build(triples)
            assert rel.keys == self.keys_of(triples) and len(rel) == n - 1
            assert rel == self.build(sorted(set(triples)))

    def test_unsorted_equals_sorted(self):
        rng = random.Random(7)
        for n, _ in self.sizes():
            triples = self.triples(n)
            shuffled = triples + rng.sample(triples, 100)
            rng.shuffle(shuffled)
            rel = self.build(shuffled)
            assert rel.keys == self.keys_of(triples)
            assert rel == self.build(triples)

    def test_constructor_sorts_any_array(self):
        """Only build_relation3 and restrict hand over keys unchecked; the public
        constructor sorts and deduplicates an array as it does any other keys."""
        rel = FiniteRelation3(self.X, self.Y, self.Z, array("q", [300, 3, 300, 0]))
        assert rel.keys == array("q", [0, 3, 300])
        assert rel == self.build([(1, 2, 12), (0, 0, 3), (0, 0, 0)])
        assert list(rel.x_runs()) == [(0, 0, 2), (1, 2, 3)]
        assert rel.restrict(a=Subset(self.X, 1 << 1)).keys == array("q", [300])

    def test_bad_triple_first_in_the_second_slice(self):
        for n, b in self.sizes():
            for bad, message in (
                ((0, 16, 0), "triple (0, 16, 0) is not an index triple in range for 160 x 16 x 16"),
                ((0, 0, -1), "triple (0, 0, -1) is not an index triple in range for 160 x 16 x 16"),
                ((0, 0, 1.0), "triple (0, 0, 1.0) is not an index triple in range for 160 x 16 x 16"),
                ((0, 0), "triple (0, 0) is not a triple of indices"),
                (None, "triple None is not a triple of indices"),
            ):
                triples = self.triples(n)
                triples[b] = bad
                with pytest.raises(InputError) as info:
                    self.build(triples)
                assert str(info.value) == message

    @pytest.mark.parametrize("kind", ["cyclic", "cylindrical"])
    def test_family_build_holds_its_keys_at_8_bytes(self, kind):
        """65,536 cyclic keys take 0.52 MB packed; held as a list of ints and sorted
        into another before packing, they took over 3.7 MB.  The cylindrical
        family's 65,790 keys arrive in order too, so none of them is sorted either
        (6.1 MB when its noise came unsorted)."""
        import tracemalloc

        from expd.pipeline import FamilySpec, make_family

        if kind == "cyclic":
            spec = FamilySpec("group_like", group=("cyclic", None), twists=(("seeded", 1),) * 3, seed=1)
        else:
            spec = FamilySpec("cylindrical", seed=1)
        family = make_family(spec)
        tracemalloc.start()
        try:
            rel = family.build(256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rel) == (256 * 256 if kind == "cyclic" else 65_790)
        assert peak < 1_500_000


class TestIterBits:
    """_iter_bits, and the prefix of it that _first_bits takes, against a
    shift oracle."""

    @staticmethod
    def masks():
        """(width, mask) with the mask's top bit at width - 1: seeded sparse and
        dense masks up to the widest bench row and around the _CHUNK-bit slices
        the walk takes, single bits, then a mask whose lowest slice is empty."""
        rng = random.Random(35)
        draw = lambda width, density: int("1" + "".join("01"[rng.random() < density] for _ in range(width - 1)), 2)
        for width in (1, 2, 63, 64, 65, 1000, 6400, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1):
            for density in (0.01, 0.5):
                yield width, draw(width, density)
        yield 0, 0
        for p in (0, 1, 63, 64, 6399, _CHUNK - 1, _CHUNK, 2 * _CHUNK):
            yield p + 1, 1 << p
        yield 2 * _CHUNK + 1, draw(_CHUNK + 1, 0.5) << _CHUNK

    def test_matches_shift_oracle(self):
        crossings = 0
        for width, bits in self.masks():
            expected = [i for i in range(width) if bits >> i & 1]
            assert list(_iter_bits(bits)) == expected, width
            below = sum(i < _CHUNK for i in expected)  # a prefix of below + 1 crosses into the next slice
            for count in (0, 1, 7, below + 1, len(expected) + 1):
                assert _first_bits(bits, count) == tuple(expected[:count])
            crossings += 0 < below < len(expected)
        assert crossings >= 4


class TestPairUniverse:
    def test_size_squares(self):
        assert pair_universe(u(3)).size == 9
        assert pair_universe(u(1)).size == 1
        assert pair_universe(u(5)).size == 25

    def test_capacity(self):
        with pytest.raises(CapacityError):
            pair_universe(Universe("big", MAX_PAIR_BASE + 1))

    def test_capacity_admits_the_cap(self):
        assert pair_universe(Universe("edge", MAX_PAIR_BASE)).size == MAX_PAIR_BASE**2


class TestRelationFiles:
    @pytest.mark.parametrize(
        "sizes, admitted",
        [((1, MAX_FILE_CELLS), True), ((10**4, 10**4), True), ((1, MAX_FILE_CELLS + 1), False),
         ((MAX_FILE_CELLS + 1, 1), False)],
    )
    def test_rel2_file_cells_at_the_cap(self, tmp_path, sizes, admitted):
        src = tmp_path / "at-cap.json"
        universes = [{"name": name, "size": size} for name, size in zip("UV", sizes)]
        src.write_text(json.dumps({"kind": "rel2", "universes": universes, "pairs": [[0, 0]]}))
        if admitted:
            rel = read_relation(str(src))
            assert (rel.u.size, rel.v.size, rel.edge_count) == (*sizes, 1)
        else:
            with pytest.raises(CapacityError, match=f"cap is {MAX_FILE_CELLS}"):
                read_relation(str(src))

    def test_rel2_roundtrip(self, tmp_path):
        rel = build_relation2(
            Universe("U", 3, labels=("a", "b", "c")), u(4, "V"), [(0, 1), (2, 3)]
        )
        path = tmp_path / "rel2.json"
        write_relation(str(path), rel)
        back = read_relation(str(path))
        assert back == rel

    def test_rel3_roundtrip(self, tmp_path):
        rel = build_relation3(u(2, "X"), u(3, "Y"), u(4, "Z"), [(0, 1, 2), (1, 2, 3)])
        path = tmp_path / "rel3.json"
        write_relation(str(path), rel)
        assert read_relation(str(path)) == rel

    def test_reader_rejects_out_of_range(self):
        obj = {
            "kind": "rel2",
            "universes": [{"name": "U", "size": 2}, {"name": "V", "size": 2}],
            "pairs": [[0, 5]],
        }
        with pytest.raises(InputError):
            relation_from_obj(obj)

    def test_reader_rejects_unknown_kind(self):
        with pytest.raises(InputError):
            relation_from_obj({"kind": "rel7", "universes": []})

    def test_format_shape(self, tmp_path):
        rel = build_relation3(u(2, "X"), u(2, "Y"), u(2, "Z"), [(0, 0, 1)])
        path = tmp_path / "rel3.json"
        write_relation(str(path), rel)
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert obj["kind"] == "rel3"
        assert obj["triples"] == [[0, 0, 1]]
        assert obj == relation_to_obj(rel)


class TestStreamedWriter:
    """write_relation joins each run of entries with one first index as text,
    in slices of 8,192; its bytes must equal one json.dumps of the whole file
    object, also for runs longer than one slice."""

    LABELS = ("é", "雪", "😀", '"', "\\", 'a"b\\c', "\n\t", " ", "", "x y", -7, 0, 2**70)
    SIZES = (0, 0, 1, 2, 3, 7)

    @classmethod
    def universe(cls, rng, name, size):
        if rng.random() < 0.5:
            return Universe(name, size)
        pool = list(cls.LABELS) + [f"v{i}" for i in range(size)]
        return Universe(name, size, labels=tuple(rng.sample(pool, size)))

    @classmethod
    def random_relation(cls, rng, arity, count=None):
        """A seeded rel2 or rel3; with count, one of exactly count entries."""
        if count is None:
            sizes = [rng.choice(cls.SIZES) for _ in range(arity)]
        else:
            sizes = [128, 128] if arity == 2 else [32, 32, 16]
        us = [cls.universe(rng, name, s) for name, s in zip(rng.choice(("UVW", "XYZ", 'é"\\')), sizes)]
        cells = math.prod(sizes)
        chosen = rng.sample(range(cells), count if count is not None else rng.randint(0, cells))
        if arity == 2:
            return build_relation2(*us, (divmod(c, sizes[1]) for c in chosen))
        ny, nz = sizes[1], sizes[2]
        return build_relation3(*us, ((c // (ny * nz), c // nz % ny, c % nz) for c in chosen))

    def relations(self):
        rng = random.Random(20260)
        for count in (0, 1, 8191, 8192, 8193, 16384):
            for arity in (2, 3):
                yield self.random_relation(rng, arity, count)
        for _ in range(188):
            yield self.random_relation(rng, rng.choice((2, 3)))
        yield from self.long_runs(rng)

    @classmethod
    def long_runs(cls, rng):
        """Runs past one slice: a row of 20,000 bits, rows of 8,192 and 8,193
        bits around an empty one, full rows of |V| = 8,192 and 8,193 (one text
        per column, then one per entry), and an x-run of 20,000 triples."""
        v = cls.universe(rng, "V", 25000)
        yield build_relation2(u(1), v, ((0, j) for j in rng.sample(range(v.size), 20000)))
        rows = ((0, 8192), (2, 8193))
        yield build_relation2(u(3), u(9000, "V"), ((i, j) for i, n in rows for j in rng.sample(range(9000), n)))
        for n in (_CHUNK, _CHUNK + 1):
            yield FiniteRelation2(u(1), u(n, "V"), [(1 << n) - 1])
        x, y, z = u(2, "X"), cls.universe(rng, "Y", 200), u(150, "Z")
        yield build_relation3(x, y, z, ((1, *divmod(c, 150)) for c in rng.sample(range(30000), 20000)))

    def test_bytes_match_one_shot_dumps(self, tmp_path):
        import io

        path = tmp_path / "rel.json"
        seen = {"empty": 0, "zero_size": 0, "labels": 0, "big": set()}
        for rel in self.relations():
            obj = relation_to_obj(rel)
            write_relation(str(path), rel)
            expected = json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n"
            assert path.read_bytes() == expected.encode("utf-8")
            text = io.StringIO()
            _write_relation(text, rel, (", ", ": "))
            assert text.getvalue() == json.dumps(obj, sort_keys=True) + "\n"
            assert read_relation(str(path)) == rel
            entries = len(obj.get("pairs", obj.get("triples")))
            seen["empty"] += entries == 0
            seen["zero_size"] += any(w["size"] == 0 for w in obj["universes"])
            seen["labels"] += any(set(w.get("labels", ())) & set(self.LABELS[:6]) for w in obj["universes"])
            seen["big"].add(entries)
        assert seen["empty"] and seen["zero_size"] and seen["labels"]
        assert {1, 8191, 8192, 8193, 16384, 16385, 20000} <= seen["big"]

    def test_memory_stays_within_one_slice(self, tmp_path):
        """A 1 x 400,000 full row is a file of about 4.3 MB; the writer holds
        one slice of it at a time, never the row's text or its entry list."""
        import tracemalloc

        rel = FiniteRelation2(u(1), u(400_000, "V"), [(1 << 400_000) - 1])
        path = tmp_path / "wide.json"
        tracemalloc.start()
        try:
            write_relation(str(path), rel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 4_000_000
        assert peak < 4_000_000
