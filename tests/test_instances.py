"""Instance generators: projective planes, intervals, rectangles, random graphs."""

import itertools
import random

import pytest

from expd import CapacityError, InputError, Subset, build_relation2, instances, relations
from expd.cuttings import _rank_plane
from expd.instances import (
    identity_matching,
    interval_incidence,
    pg_incidence,
    random_bipartite,
    random_interval_incidence,
    random_rectangle_incidence,
    rectangle_incidence,
)


class TestProjectivePlane:
    def test_pg7_regularity(self):
        pg = pg_incidence(7)
        assert pg.u.size == pg.v.size == 57
        assert pg.edge_count == 456
        # every line carries q+1 = 8 points; every point lies on 8 lines
        assert all(row.bit_count() == 8 for row in pg.rows)
        assert all(sum(row >> j & 1 for row in pg.rows) == 8 for j in range(pg.v.size))

    def test_pg7_two_points_one_common_line(self):
        pg = pg_incidence(7)
        for i, j in itertools.combinations(range(57), 2):
            assert (pg.rows[i] & pg.rows[j]).bit_count() == 1

    def test_pg3(self):
        pg = pg_incidence(3)
        assert pg.u.size == 13
        assert pg.edge_count == 13 * 4

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
    def test_matches_all_pairs_oracle(self, q):
        # oracle: test every point-line pair for p·l ≡ 0 (mod q)
        reps = (
            [(1, a, b) for a in range(q) for b in range(q)]
            + [(0, 1, a) for a in range(q)]
            + [(0, 0, 1)]
        )
        rows = [0] * len(reps)
        for i, pt in enumerate(reps):
            for j, ln in enumerate(reps):
                if (pt[0] * ln[0] + pt[1] * ln[1] + pt[2] * ln[2]) % q == 0:
                    rows[i] |= 1 << j
        pg = pg_incidence(q)
        assert pg.rows == tuple(rows)
        assert pg.u.labels == pg.v.labels == tuple(":".join(map(str, r)) for r in reps)

    def test_non_prime_rejected(self):
        with pytest.raises(InputError):
            pg_incidence(6)
        with pytest.raises(InputError):
            pg_incidence(1)


class TestIntervalInstances:
    def test_fibers_are_contiguous(self):
        rel = interval_incidence([(2, 5), (0, 0), (3, 7)], 8)
        assert rel.rows[0] == 0b00111100
        assert rel.rows[1] == 0b00000001
        assert rel.rows[2] == 0b11111000

    def test_out_of_range(self):
        with pytest.raises(InputError):
            interval_incidence([(5, 9)], 8)

    def test_random_is_reproducible(self):
        a = random_interval_incidence(9, 20, 50)
        b = random_interval_incidence(9, 20, 50)
        assert a.rows == b.rows


class TestRectangleInstances:
    def test_labels_carry_coordinates(self):
        rel = rectangle_incidence([(0, 1, 0, 0)], [(0, 0), (1, 0), (2, 2)])
        assert rel.v.labels == ("0,0", "1,0", "2,2")
        assert rel.rows[0] == 0b011

    def test_duplicate_points_rejected(self):
        with pytest.raises(InputError, match="labels are not pairwise distinct"):
            rectangle_incidence([(0, 1, 0, 1)], [(0, 0), (0, 0)])

    def test_non_integer_coordinate_rejected_at_build_time(self):
        with pytest.raises(InputError, match=r"^point label '0\.5,1' is not of the form 'x,y'$"):
            rectangle_incidence([(0, 1, 0, 1)], [(0, 0), (0.5, 1)])

    def test_generated_rank_plane_charged_before_drawing(self, monkeypatch):
        # the plane of a side-S grid holds 2S + 2 masks of S^2 bits: 34 x 256
        # cells at S = 16 fit a cap of 10^4, 36 x 289 at S = 17 do not, and
        # the generator refuses them before it draws or lists a point
        monkeypatch.setattr(relations, "MAX_FILE_CELLS", 10**4)
        _rank_plane.cache_clear()
        assert random_rectangle_incidence(3, 4, 16).v.size == 256
        monkeypatch.setattr(instances, "seeded_rng", lambda seed: pytest.fail("drew before the plane charge"))
        with pytest.raises(CapacityError, match=r"^rank plane asks for 36 x 289 cells; cap is 10000$"):
            random_rectangle_incidence(3, 4, 17)

    def test_random_fibers_match_geometry(self):
        rel = random_rectangle_incidence(21, 10, 8)
        points = [tuple(map(int, str(lbl).split(","))) for lbl in rel.v.labels]
        for row in rel.rows:
            members = [points[j] for j in Subset(rel.v, row).members()]
            xs = [p[0] for p in members]
            ys = [p[1] for p in members]
            x1, x2, y1, y2 = min(xs), max(xs), min(ys), max(ys)
            inside = {p for p in points if x1 <= p[0] <= x2 and y1 <= p[1] <= y2}
            assert inside == set(members)

    def test_matches_all_pairs_oracle(self):
        """Rows read from prefix masks equal the test of every (rectangle,
        point) pair, on seeded grids and scattered points, with rectangles
        inverted, degenerate, partly outside the points or holding none."""
        rng = random.Random(37)
        for trial in range(200):
            if trial % 2:
                side = rng.randint(1, 12)
                points = [(x, y) for x in range(side) for y in range(side)]
            else:
                side = rng.randint(1, 30)
                points = list({(rng.randrange(side), rng.randrange(side)) for _ in range(rng.randint(1, 60))})
                rng.shuffle(points)
            rects = []
            for _ in range(rng.randint(0, 30)):
                x1, x2, y1, y2 = (rng.randint(-3, side + 2) for _ in range(4))
                shape = rng.randrange(4)
                if shape == 0:  # inverted on one axis or both
                    x1, x2 = max(x1, x2) + rng.randint(0, 1), min(x1, x2)
                    if rng.random() < 0.5:
                        y1, y2 = max(y1, y2) + 1, min(y1, y2)
                elif shape == 1:  # degenerate: a point, or a segment
                    x2 = x1
                    y2 = y1 if rng.random() < 0.5 else max(y1, y2)
                    y1 = min(y1, y2)
                else:  # well formed, often partly outside the points
                    x1, x2 = sorted((x1, x2))
                    y1, y2 = sorted((y1, y2))
                rects.append((x1, x2, y1, y2))
            rel = rectangle_incidence(rects, points)
            oracle = [
                sum(1 << j for j, (x, y) in enumerate(points) if x1 <= x <= x2 and y1 <= y <= y2)
                for x1, x2, y1, y2 in rects
            ]
            assert list(rel.rows) == oracle, trial
            inverted = [row for (x1, x2, y1, y2), row in zip(rects, rel.rows) if x1 > x2 or y1 > y2]
            assert not any(inverted), trial


class TestRandomBipartite:
    def test_exact_edge_count_and_reproducibility(self):
        rel = random_bipartite(3, 10, 12, 37)
        assert rel.edge_count == 37
        assert rel.rows == random_bipartite(3, 10, 12, 37).rows

    def test_requested_edges_capped(self):
        rel = random_bipartite(3, 3, 3, 100)
        assert rel.edge_count == 9


class TestRowsMatchPairBuilder:
    """The binary generators build rows directly; build_relation2 over each
    one's own pair list, as the generators used to build it, is the oracle."""

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
    def test_pg_incidence(self, q):
        pg = pg_incidence(q)
        reps = [tuple(map(int, label.split(":"))) for label in pg.u.labels]
        pairs = [
            (i, j)
            for i, p in enumerate(reps)
            for j, l in enumerate(reps)
            if sum(a * b for a, b in zip(p, l)) % q == 0
        ]
        assert pg == build_relation2(pg.u, pg.v, pairs)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 200])
    def test_identity_matching(self, n):
        rel = identity_matching(n)
        assert rel == build_relation2(rel.u, rel.v, [(i, i) for i in range(n)])

    @pytest.mark.parametrize("seed", range(6))
    def test_random_bipartite(self, seed):
        m, n, edges = 3 + 5 * seed, 40 - 6 * seed, 17 * seed
        rng = random.Random(seed)
        chosen = set()
        while len(chosen) < min(edges, m * n):
            chosen.add((rng.randrange(m), rng.randrange(n)))
        rel = random_bipartite(seed, m, n, edges)
        assert rel == build_relation2(rel.u, rel.v, sorted(chosen))


@pytest.mark.parametrize(
    "generator, args",
    [(random_interval_incidence, (5, 10)), (random_rectangle_incidence, (5, 4)), (random_bipartite, (4, 4, 6))],
    ids=["interval", "rectangle", "bipartite"],
)
def test_a_generator_that_draws_refuses_a_missing_seed(generator, args):
    with pytest.raises(InputError, match="^this path is randomized; --seed is mandatory$"):
        generator(None, *args)
    assert generator(0, *args) == generator(0, *args)
