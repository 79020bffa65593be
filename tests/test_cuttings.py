"""Cutting covers: crossing definition, verifier, constructors, greedy fallback."""

import random
from collections import Counter

import pytest

from expd import (
    CapacityError,
    CuttingCover,
    InputError,
    Subset,
    box_grid_cutting,
    crosses,
    greedy_cutting,
    interval_cutting,
    relations,
    verify_cutting,
)
from expd.instances import (
    identity_matching,
    interval_incidence,
    random_bipartite,
    random_interval_incidence,
    random_rectangle_incidence,
    rectangle_incidence,
)
from expd.cuttings import _planar_points, _rank_plane, _transition_cuts
from expd.relations import FiniteRelation2, Universe, _columns, _iter_bits, build_relation2


def cover_from_cells(rel, cells, D=1):
    return CuttingCover(cells=tuple(Subset(rel.v, sum({1 << j for j in c})).bits for c in cells), claimed_exponent=D)


class TestCrossingDefinition:
    def test_hand_example_interval_2_5_on_points_1_8(self):
        # points labelled 1..8 live at indices 0..7; the interval [2,5] is
        # the fiber {1,2,3,4}; blocks {1,2},{3,4},{5,6},{7,8} in label space
        rel = interval_incidence([(1, 4)], 8)
        fiber = rel.rows[0]
        blocks = [(0, 1), (2, 3), (4, 5), (6, 7)]
        masks = [(1 << a) | (1 << b) for a, b in blocks]
        assert [crosses(fiber, m) for m in masks] == [True, False, True, False]

    def test_singletons_never_crossed(self):
        rng = random.Random(5)
        for _ in range(10):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            pairs = {(rng.randrange(m), rng.randrange(n)) for _ in range(rng.randint(0, m * n))}
            rel = build_relation2(Universe("U", m), Universe("V", n), sorted(pairs))
            for j in range(n):
                for i in range(m):
                    assert not crosses(rel.rows[i], 1 << j)


class TestVerifyCutting:
    def test_single_cell_cover(self):
        # one cell = V; valid iff at most n/r fibers cross V
        rel = interval_incidence([(0, 3), (1, 2), (0, 1), (2, 3)], 4)
        a = Subset.full(rel.u)
        cover = cover_from_cells(rel, [[0, 1, 2, 3]])
        report = verify_cutting(rel, a, 2, cover)
        # fibers (1,2), (0,1), (2,3) cross V; (0,3) contains it
        assert report.max_crossing == 3
        assert not report.valid  # 3 > 4/2
        report_r1 = verify_cutting(rel, a, 1, cover_from_cells(rel, [[0, 1, 2, 3]]))
        assert report_r1.valid

    def test_singleton_cells_always_valid(self):
        rel = random_bipartite(3, 10, 12, 60)
        a = Subset.full(rel.u)
        cover = cover_from_cells(rel, [[j] for j in range(12)])
        report = verify_cutting(rel, a, 10, cover)
        assert report.valid
        assert report.max_crossing == 0
        assert report.cell_count == 12

    def test_coverage_violation(self):
        rel = identity_matching(4)
        cover = cover_from_cells(rel, [[0, 1]])
        report = verify_cutting(rel, Subset.full(rel.u), 2, cover)
        assert not report.valid
        assert "cover" in report.failure

    def test_cap_violation_reports_first_cell(self):
        rel = interval_incidence([(0, 2), (1, 3), (2, 4), (1, 2)], 6)
        cover = cover_from_cells(rel, [[1, 2], [0, 3, 4, 5]])
        report = verify_cutting(rel, Subset.full(rel.u), 4, cover)
        assert not report.valid
        assert report.failure.startswith("cell ")

    def test_fitted_c(self):
        rel = identity_matching(8)
        cover = cover_from_cells(rel, [[j] for j in range(8)], D=2)
        report = verify_cutting(rel, Subset.full(rel.u), 2, cover)
        assert report.fitted_c == 8 / 4

    @pytest.mark.parametrize("cell", [1 << 4, 1 << 10, -1], ids=["bit-at-size", "bit-above", "negative"])
    def test_cell_outside_v_rejected(self, cell):
        rel = identity_matching(4)
        cover = CuttingCover(cells=(0b1111, cell), claimed_exponent=1)
        with pytest.raises(InputError, match="cell 1 is not a subset of V"):
            verify_cutting(rel, Subset.full(rel.u), 2, cover)


def brute_force_crossing_sets(rel, a, cover):
    return [
        sum(1 << i for i in a.members() if crosses(rel.rows[i], cell)) for cell in cover.cells
    ]


class TestCrossingSets:
    def test_matches_brute_force_fuzz(self):
        # covers from all three constructors, and random cell families that
        # overlap and often miss points of V, on random partial A
        rng = random.Random(89)
        outcomes = Counter()
        for trial in range(400):
            kind = ("interval", "box", "greedy", "random")[trial % 4]
            if kind == "interval":
                rel = random_interval_incidence(trial, rng.randint(0, 40), rng.randint(1, 90))
            elif kind == "box":
                rel = random_rectangle_incidence(trial, rng.randint(0, 40), rng.randint(1, 10))
            else:
                m, n = rng.randint(0, 24), rng.randint(1, 24)
                rel = random_bipartite(trial, m, n, rng.randint(0, m * n // 3))
            full = (1 << rel.u.size) - 1
            a = Subset(rel.u, rng.choice([full, rng.getrandbits(rel.u.size)]))
            r = rng.choice([1, 2, 3, 5, 8])
            if kind == "interval":
                cover = interval_cutting(rel, a, r)
            elif kind == "box":
                cover = box_grid_cutting(rel, a, r)
            elif kind == "greedy":
                cover = greedy_cutting(rel, a, r)
                if cover is None:
                    continue
            else:
                cells = [rng.getrandbits(rel.v.size) for _ in range(rng.randint(0, 8))]
                cover = CuttingCover(tuple(cells), 1)
            report = verify_cutting(rel, a, r, cover)
            expected = brute_force_crossing_sets(rel, a, cover)
            assert list(report.crossing_sets) == expected, trial
            counts = [c.bit_count() for c in expected]
            over = [idx for idx, c in enumerate(counts) if c * r > a.cardinality()]
            union = 0
            for cell in cover.cells:
                union |= cell
            covered = union == (1 << rel.v.size) - 1
            assert report.max_crossing == max(counts, default=0), trial
            assert report.valid == (covered and not over), trial
            if over:
                assert report.failure.startswith(f"cell {over[0]}: "), trial
                outcomes[kind, "cap"] += 1
            elif not covered:
                assert report.failure == "cells do not cover V", trial
                outcomes[kind, "cover"] += 1
            else:
                outcomes[kind, "valid"] += 1
        for kind in ("interval", "box", "greedy"):
            assert outcomes[kind, "valid"] > 0, outcomes
        for status in ("valid", "cap", "cover"):
            assert outcomes["random", status] > 0, outcomes


class TestIntervalCutting:
    def test_all_equal_intervals_single_cell(self):
        rel = interval_incidence([(0, 9)] * 6, 10)
        a = Subset.full(rel.u)
        cover = interval_cutting(rel, a, 4)
        report = verify_cutting(rel, a, 4, cover)
        assert report.valid
        assert report.max_crossing == 0
        assert report.cell_count == 1

    def test_hand_instance_cells_are_blocks(self):
        rel = interval_incidence([(1, 4), (3, 8), (6, 11)], 12)
        a = Subset.full(rel.u)
        cover = interval_cutting(rel, a, 3)
        report = verify_cutting(rel, a, 3, cover)
        assert report.valid
        assert report.cell_count <= 6
        for cell in cover.cells:
            members = list(_iter_bits(cell))
            assert members == list(range(members[0], members[-1] + 1))

    def test_fuzz_valid_and_within_2r(self):
        rng = random.Random(71)
        for trial in range(20):
            n_int = rng.randint(5, 80)
            n_pts = rng.randint(10, 300)
            rel = random_interval_incidence(500 + trial, n_int, n_pts)
            a = Subset.full(rel.u)
            for r in (2, 4, 8, 16):
                cover = interval_cutting(rel, a, r)
                report = verify_cutting(rel, a, r, cover)
                assert report.valid, (trial, r, report.failure)
                assert report.cell_count <= 2 * r

    def test_partial_a_subset(self):
        rel = random_interval_incidence(9, 40, 120)
        a = Subset(rel.u, sum(1 << i for i in range(0, 40, 3)))
        cover = interval_cutting(rel, a, 4)
        report = verify_cutting(rel, a, 4, cover)
        assert report.valid
        assert report.cell_count <= 8

    def test_empty_a(self):
        rel = random_interval_incidence(9, 10, 50)
        a = Subset(rel.u, 0)
        cover = interval_cutting(rel, a, 4)
        report = verify_cutting(rel, a, 4, cover)
        assert report.valid
        assert report.max_crossing == 0

    def test_empty_fiber_in_a_is_skipped(self):
        # row 1 of A has no point, so it has no span to cut at and crosses no cell
        rel = build_relation2(Universe("U", 3), Universe("V", 6), [(0, 0), (0, 1), (2, 3), (2, 4), (2, 5)])
        a = Subset.full(rel.u)
        cover = interval_cutting(rel, a, 2)
        report = verify_cutting(rel, a, 2, cover)
        assert cover.cells == (0b000111, 0b111000)  # one cut, between the two runs
        assert report.valid
        assert report.crossing_sets == (0b001, 0)  # row 0 crosses the first cell, row 1 none

    def test_non_contiguous_fiber_rejected(self):
        rel = build_relation2(Universe("U", 1), Universe("V", 5), [(0, 0), (0, 2)])
        with pytest.raises(InputError, match="contiguous"):
            interval_cutting(rel, Subset.full(rel.u), 2)

    def test_fitted_constant_at_most_2(self):
        rng = random.Random(73)
        for trial in range(10):
            rel = random_interval_incidence(900 + trial, rng.randint(16, 64), rng.randint(64, 256))
            a = Subset.full(rel.u)
            for r in (2, 4, 8, 16):
                report = verify_cutting(rel, a, r, interval_cutting(rel, a, r))
                assert report.valid
                assert report.fitted_c <= 2.0


def _blocks_by_transition_weight(n_points, weights, n_fib, r_scaled):
    """The dense block rule, kept as the reference: split 0..n_points-1 into
    blocks whose interior transition weight w satisfies w * r_scaled <= n_fib,
    cutting only at positive-weight boundaries.  weights[b] is the transition
    weight between points b, b+1."""
    blocks = []
    start = 0
    acc = 0
    for b in range(n_points - 1):
        w = weights[b]
        if w == 0:
            continue
        if (acc + w) * r_scaled > n_fib:
            blocks.append((start, b))
            start = b + 1
            acc = 0
        else:
            acc += w
    if n_points > 0:
        blocks.append((start, n_points - 1))
    return blocks


def oracle_box_grid_cutting(rel, a, r):
    """The value-space box cutter, kept as the reference: rectangularity by a
    scan of every point of V per fiber, and a bit-by-bit crossing recount of
    every cell on every grid attempt.  Returns (cover, "grid" | "fallback")."""
    points = _planar_points(rel.v)
    for i in a.members():
        fiber = rel.rows[i]
        if fiber == 0:
            continue
        xs = [points[j][0] for j in _iter_bits(fiber)]
        ys = [points[j][1] for j in _iter_bits(fiber)]
        x1, x2, y1, y2 = min(xs), max(xs), min(ys), max(ys)
        for j, (px, py) in enumerate(points):
            if (x1 <= px <= x2 and y1 <= py <= y2) != bool(fiber >> j & 1):
                raise InputError(f"fiber {i} is not a rectangle point-set")
    n_fib = a.cardinality()
    xs = sorted({p[0] for p in points})
    ys = sorted({p[1] for p in points})

    def grid(x_chunks, y_chunks):
        x_of = {v: c for c, chunk in enumerate(x_chunks) for v in chunk}
        y_of = {v: c for c, chunk in enumerate(y_chunks) for v in chunk}
        cells = {}
        for j, (px, py) in enumerate(points):
            key = (x_of[px], y_of[py])
            cells[key] = cells.get(key, 0) | 1 << j
        bits = [cells[key] for key in sorted(cells)]
        counts = [sum(crosses(rel.rows[i], c) for i in a.members()) for c in bits]
        return CuttingCover(tuple(bits), 2), counts

    def equal_chunks(values, g):
        g = max(1, min(g, len(values)))
        return [values[c * len(values) // g : (c + 1) * len(values) // g] for c in range(g)]

    for g in range(1, max(1, int((8**0.5) * r)) + 1):
        cover, counts = grid(equal_chunks(xs, g), equal_chunks(ys, g))
        if all(c * r <= n_fib for c in counts):
            return cover, "grid"

    def transition_chunks(values, axis):
        weights = [0] * max(0, len(values) - 1)
        for i in a.members():
            coords = [points[j][axis] for j in _iter_bits(rel.rows[i])]
            if coords:
                lo, hi = values.index(min(coords)), values.index(max(coords))
                if lo > 0:
                    weights[lo - 1] += 1
                if hi < len(values) - 1:
                    weights[hi] += 1
        blocks = _blocks_by_transition_weight(len(values), weights, n_fib, 2 * r)
        return [values[lo : hi + 1] for lo, hi in blocks] or [[]]

    return grid(transition_chunks(xs, 0), transition_chunks(ys, 1))[0], "fallback"


def random_planar_family(rng):
    """Sparse points with duplicate coordinates under distinct labels ("3,4",
    "03,4", ...); fibers are boxes (often empty), and in some instances a few
    are boxes minus a point or random point sets."""
    side = rng.randint(1, 10)
    coords = [(rng.randrange(side), rng.randrange(side)) for _ in range(rng.randint(0, 50))]
    labels = []
    for x, y in coords:
        label = f"{x},{y}"
        while label in labels:
            label = "0" + label
        labels.append(label)
    p_bad = rng.choice([0.0, 0.0, 0.04])
    rows = []
    for _ in range(rng.randint(0, 40)):
        x1, x2 = sorted(rng.randrange(side) for _ in range(2))
        y1, y2 = sorted(rng.randrange(side) for _ in range(2))
        row = sum(
            1 << j for j, (x, y) in enumerate(coords) if x1 <= x <= x2 and y1 <= y <= y2
        )
        roll = rng.random()
        if roll < p_bad:
            row &= row - 1
        elif roll < 2 * p_bad:
            row = rng.getrandbits(len(coords))
        rows.append(row)
    u = Universe("rects", len(rows))
    return FiniteRelation2(u, Universe("points", len(coords), tuple(labels)), rows)


class TestTransitionCuts:
    def test_matches_dense_block_rule_fuzz(self):
        rng = random.Random(83)
        for trial in range(400):
            k = trial if trial < 2 else rng.randint(0, 40)
            spans = []
            for _ in range(rng.randint(0, 30) if k else 0):
                lo = rng.choice([0, rng.randrange(k)])  # often at the left end
                hi = rng.choice([k, rng.randint(lo + 1, k)])  # often at the right end
                spans.append((lo, hi))
            n_fib = len(spans) + rng.randint(0, 5)
            r_scaled = rng.randint(1, 16)
            weights = [0] * max(0, k - 1)
            for lo, hi in spans:
                if lo > 0:
                    weights[lo - 1] += 1
                if hi < k:
                    weights[hi - 1] += 1
            blocks = _blocks_by_transition_weight(k, weights, n_fib, r_scaled)
            expected = [lo for lo, _ in blocks] + [k]
            assert _transition_cuts(k, iter(spans), n_fib, r_scaled) == expected, trial


class TestBoxGridCutting:
    def test_rank_plane_kept_per_point_set(self):
        # rel2 has rel1's points in reverse index order: the same size, other labels
        points = [(x, y) for x in range(9) for y in range(7)]
        rng = random.Random(89)
        rects = []
        for _ in range(40):
            x1, y1 = rng.randrange(9), rng.randrange(7)
            rects.append((x1, min(8, x1 + rng.randrange(4)), y1, min(6, y1 + rng.randrange(4))))
        rel1 = rectangle_incidence(rects, points)
        rel2 = rectangle_incidence(rects, points[::-1])
        covers = []
        for rel in (rel1, rel2, rel1):
            for r in (2, 4):
                covers.append(box_grid_cutting(rel, Subset.full(rel.u), r))
        fresh = []
        for rel in (rel1, rel2, rel1):
            for r in (2, 4):
                _rank_plane.cache_clear()
                fresh.append(box_grid_cutting(rel, Subset.full(rel.u), r))
        assert covers == fresh
        assert covers[0] != covers[2]

    def test_fiber_boxes_match_walk_oracle_fuzz(self):
        """The bisected boxes equal the min and max of the ranks over each
        fiber's points, on grids, on points with repeated coordinates (fewer
        ranks than points) and on scattered points; single-point, full-plane
        and empty fibers and fibers on rank 0 and k - 1 are always drawn, and a
        fiber that is not a rectangle is refused by its index."""
        rng = random.Random(83)
        edges = Counter()
        for trial in range(300):
            kind = trial % 3
            side = rng.randint(1, 12)
            if kind == 0:
                points = [(x, y) for x in range(side) for y in range(side)]
            elif kind == 1:  # a few distinct x values, many y values, or the reverse
                few, many = rng.randint(1, 3), rng.randint(1, 40)
                points = list({(rng.randrange(few), rng.randrange(many)) for _ in range(rng.randint(1, 40))})
                points = points if rng.random() < 0.5 else [(y, x) for x, y in points]
            else:
                points = list({(rng.randrange(10**6), rng.randrange(10**6)) for _ in range(rng.randint(1, 50))})
            rng.shuffle(points)
            xs, ys = sorted({x for x, _ in points}), sorted({y for _, y in points})
            rects = [(xs[0], xs[-1], ys[0], ys[-1]), (xs[-1], xs[-1], ys[0], ys[0]), (1, 0, 1, 0)]
            for _ in range(rng.randint(0, 25)):
                x1, x2 = sorted(rng.choice(xs) for _ in range(2))
                y1, y2 = sorted(rng.choice(ys) for _ in range(2))
                rects.append((x1, x2, y1, y2))
            rel = rectangle_incidence(rects, points)
            rows = list(rel.rows)
            bad = None
            if rng.random() < 0.3:  # a box minus one point, or two opposite corners
                bad = rng.randrange(len(rows))
                row = rows[bad]
                rows[bad] = row & (row - 1) if row.bit_count() > 2 else rng.getrandbits(len(points))
            rel = FiniteRelation2(rel.u, rel.v, rows)
            a = Subset(rel.u, rng.choice([(1 << len(rows)) - 1, rng.getrandbits(len(rows)) | 1]))
            rank_x = {x: q for q, x in enumerate(xs)}
            rank_y = {y: q for q, y in enumerate(ys)}
            expected, failure = [], None
            for i in a.members():
                members = [points[j] for j in _iter_bits(rows[i])]
                if not members:
                    continue
                box = (min(rank_x[x] for x, _ in members), max(rank_x[x] for x, _ in members) + 1,
                       min(rank_y[y] for _, y in members), max(rank_y[y] for _, y in members) + 1)
                inside = [j for j, (x, y) in enumerate(points)
                          if box[0] <= rank_x[x] < box[1] and box[2] <= rank_y[y] < box[3]]
                if sum(1 << j for j in inside) != rows[i]:
                    failure = f"fiber {i} is not a rectangle point-set"
                    break
                expected.append((box, rows[i]))
                edges["x0"] += box[0] == 0
                edges["x1"] += box[1] == len(xs)
                edges["y0"] += box[2] == 0
                edges["y1"] += box[3] == len(ys)
                edges["interior"] += 0 < box[0] and box[1] < len(xs)
            plane = _rank_plane(rel.v)
            if failure is None:
                assert plane.fiber_boxes(rel, a) == expected, trial
            else:
                with pytest.raises(InputError) as raised:
                    plane.fiber_boxes(rel, a)
                assert str(raised.value) == failure, trial
                edges["rejected"] += 1
            edges["repeated"] += kind == 1 and (len(xs) < len(points) or len(ys) < len(points))
        assert min(edges[key] for key in ("x0", "x1", "y0", "y1", "interior", "rejected", "repeated")) > 0, edges

    def test_matches_value_space_oracle_fuzz(self):
        rng = random.Random(79)
        outcomes = {"grid": 0, "fallback": 0, "rejected": 0}
        for trial in range(400):
            if trial % 5 == 0:
                # few rects on a wide grid leave no g <= sqrt(8) r grid within the cap
                n_rects = rng.choice([rng.randint(1, 6), rng.randint(0, 80)])
                rel = random_rectangle_incidence(trial, n_rects, rng.randint(1, 28))
            else:
                rel = random_planar_family(rng)
            full = (1 << rel.u.size) - 1
            a = Subset(rel.u, rng.choice([full, rng.getrandbits(rel.u.size)]))
            r = rng.choice([2, 3, 5, 8])
            try:
                expected, path = oracle_box_grid_cutting(rel, a, r)
            except InputError as exc:
                outcomes["rejected"] += 1
                with pytest.raises(InputError) as raised:
                    box_grid_cutting(rel, a, r)
                assert str(raised.value) == str(exc), trial
                continue
            outcomes[path] += 1
            assert box_grid_cutting(rel, a, r) == expected, trial
        assert min(outcomes.values()) > 0, outcomes

    def test_one_rect_covering_everything(self):
        points = [(x, y) for x in range(5) for y in range(5)]
        rel = rectangle_incidence([(0, 4, 0, 4)], points)
        a = Subset.full(rel.u)
        cover = box_grid_cutting(rel, a, 2)
        report = verify_cutting(rel, a, 2, cover)
        assert report.valid
        assert report.max_crossing == 0

    def test_random_32_rects_16x16_r4(self):
        rel = random_rectangle_incidence(11, 32, 16)
        a = Subset.full(rel.u)
        cover = box_grid_cutting(rel, a, 4)
        report = verify_cutting(rel, a, 4, cover)
        assert report.valid
        assert report.cell_count <= 16 * 16

    def test_empty_a_single_cell(self):
        rel = random_rectangle_incidence(11, 8, 8)
        a = Subset(rel.u, 0)
        cover = box_grid_cutting(rel, a, 4)
        report = verify_cutting(rel, a, 4, cover)
        assert report.valid
        assert report.cell_count == 1

    def test_fuzz_valid_with_bounded_constant(self):
        rng = random.Random(77)
        for trial in range(8):
            rel = random_rectangle_incidence(700 + trial, rng.randint(24, 96), 20)
            a = Subset.full(rel.u)
            for r in (2, 4, 8):
                cover = box_grid_cutting(rel, a, r)
                report = verify_cutting(rel, a, r, cover)
                assert report.valid, (trial, r, report.failure)
                assert report.fitted_c <= 8.0
                assert cover.claimed_exponent == 2

    def test_non_rectangular_fiber_rejected(self):
        points = [(0, 0), (0, 1), (1, 0), (1, 1)]
        u = Universe("rects", 1)
        v = Universe("points", 4, tuple(f"{x},{y}" for x, y in points))
        rel = FiniteRelation2(u, v, [0b1001])  # diagonal pair, not a box
        with pytest.raises(InputError, match="rectangle"):
            box_grid_cutting(rel, Subset.full(u), 2)

    def test_rank_plane_charged_before_it_is_built(self, monkeypatch):
        # 100 scattered points with distinct coordinates under 40 rectangles:
        # 4,000 relation cells, but a plane of 202 masks x 100 bits
        monkeypatch.setattr(relations, "MAX_FILE_CELLS", 10**4)
        _rank_plane.cache_clear()
        rng = random.Random(5)
        xs, ys = rng.sample(range(10**6), 100), rng.sample(range(10**6), 100)
        points = list(zip(xs, ys))
        rows = []
        for _ in range(40):
            x1, x2 = sorted(rng.sample(xs, 2))
            y1, y2 = sorted(rng.sample(ys, 2))
            rows.append(sum(1 << j for j, (x, y) in enumerate(points) if x1 <= x <= x2 and y1 <= y <= y2))
        labels = tuple(f"{x},{y}" for x, y in points)
        rel = FiniteRelation2(Universe("rects", 40), Universe("points", 100, labels), rows)
        with pytest.raises(CapacityError, match=r"^rank plane asks for 202 x 100 cells; cap is 10000$"):
            box_grid_cutting(rel, Subset.full(rel.u), 2)
        a = Subset(rel.u, 0b111)  # at most 8 trace classes: greedy returns them as its cells
        cover = greedy_cutting(rel, a, 2)
        assert verify_cutting(rel, a, 2, cover).valid

    def test_missing_coordinates_rejected(self):
        rel = identity_matching(4)
        with pytest.raises(InputError, match="label"):
            box_grid_cutting(rel, Subset.full(rel.u), 2)


def signature_greedy_cutting(rel, a, r):
    """The greedy cutter as it was before it read the shared transpose: each
    point's trace is a bit vector over positions in A, built by walking A's
    fibers."""
    max_cells = 4 * r
    a_list = sorted(a.members())
    n_fib = len(a_list)
    sig = [0] * rel.v.size
    for pos, i in enumerate(a_list):
        for v in _iter_bits(rel.rows[i]):
            sig[v] |= 1 << pos
    classes = {}
    for v in range(rel.v.size):
        classes[sig[v]] = classes.get(sig[v], 0) | 1 << v
    full_mask = (1 << n_fib) - 1
    if len(classes) <= max_cells:
        return CuttingCover(cells=tuple(classes.values()), claimed_exponent=1)
    cells = []
    cur_bits, cur_in, cur_out = 0, full_mask, full_mask
    for sg, bits in classes.items():
        new_in, new_out = cur_in & sg, cur_out & ~sg
        if cur_bits and (n_fib - (new_in | new_out).bit_count()) * r > n_fib:
            cells.append(cur_bits)
            cur_bits, cur_in, cur_out = bits, full_mask & sg, full_mask & ~sg
        else:
            cur_bits |= bits
            cur_in, cur_out = new_in, new_out
    if cur_bits:
        cells.append(cur_bits)
    return None if len(cells) > max_cells else CuttingCover(cells=tuple(cells), claimed_exponent=1)


class TestGreedyCutting:
    def test_matches_position_signature_greedy_fuzz(self):
        # random partial A, empty A, empty fibers and r in 1..6; the trace
        # classes come from the shared transpose, which must give the same
        # cells in the same order as the walk over A's fibers
        rng = random.Random(97)
        outcomes = Counter()
        for trial in range(240):
            m, n = rng.randint(0, 40), rng.randint(0, 40)
            density = rng.choice([0.05, 0.2, 0.5, 0.9])
            rows = [
                0 if rng.random() < 0.2 else sum(1 << j for j in range(n) if rng.random() < density)
                for _ in range(m)
            ]
            rel = FiniteRelation2(Universe("U", m), Universe("V", n), rows)
            a = Subset(rel.u, rng.choice([0, (1 << m) - 1, rng.getrandbits(m) if m else 0]))
            r = rng.randint(1, 6)
            expected = signature_greedy_cutting(rel, a, r)
            outcomes["none" if expected is None else "cover"] += 1
            outcomes["empty A"] += a.bits == 0
            assert greedy_cutting(rel, a, r) == expected, trial
        assert min(outcomes.values()) > 10, outcomes

    def test_transpose_kept_per_relation(self):
        # rel2 has rel1's sizes and other rows
        rel1 = random_interval_incidence(5, 30, 60)
        rel2 = random_interval_incidence(6, 30, 60)
        covers = []
        for rel in (rel1, rel2, rel1):
            covers.append(greedy_cutting(rel, Subset.full(rel.u), 3))
        fresh = []
        for rel in (rel1, rel2, rel1):
            _columns.cache_clear()
            fresh.append(greedy_cutting(rel, Subset.full(rel.u), 3))
        assert covers == fresh
        assert None not in covers and covers[0] != covers[1]

    def test_few_trace_classes_returned_with_zero_crossing(self):
        # fibers induce 4 trace classes over V: {0,1}, {2}, {3}, {4,5}
        rel = build_relation2(
            Universe("U", 2),
            Universe("V", 6),
            [(0, 0), (0, 1), (0, 2), (1, 2), (1, 3)],
        )
        a = Subset.full(rel.u)
        cover = greedy_cutting(rel, a, 2)
        assert cover is not None
        report = verify_cutting(rel, a, 2, cover)
        assert report.valid
        assert report.max_crossing == 0
        assert {tuple(_iter_bits(c)) for c in cover.cells} == {
            (0, 1),
            (2,),
            (3,),
            (4, 5),
        }

    def test_identity_matching_singleton_blocks(self):
        rel = identity_matching(16)
        a = Subset.full(rel.u)
        cover = greedy_cutting(rel, a, 4)  # the cap 4r = 16 fits all 16 singletons
        assert cover is not None
        assert len(cover.cells) == 16
        report = verify_cutting(rel, a, 4, cover)
        assert report.valid
        assert report.max_crossing == 0

    def test_identity_matching_default_cap_merges_or_fails(self):
        rel = identity_matching(64)
        a = Subset.full(rel.u)
        cover = greedy_cutting(rel, a, 4)
        if cover is not None:
            assert verify_cutting(rel, a, 4, cover).valid

    def test_dense_random_dichotomy(self):
        # never an unverified cover: either verify_cutting passes or None
        rng = random.Random(83)
        outcomes = {"cover": 0, "failure": 0}
        for trial in range(60):
            m = rng.randint(8, 64)
            n = rng.randint(8, 64)
            rel = random_bipartite(8000 + trial, m, n, rng.randint(0, m * n))
            a = Subset.full(rel.u)
            r = rng.choice([2, 4, 8])
            cover = greedy_cutting(rel, a, r)
            if cover is None:
                outcomes["failure"] += 1
            else:
                outcomes["cover"] += 1
                assert len(cover.cells) <= 4 * r
                assert verify_cutting(rel, a, r, cover).valid
        assert outcomes["cover"] > 0 and outcomes["failure"] > 0
