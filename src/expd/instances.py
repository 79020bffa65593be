"""Concrete incidence instances used by experiments and tests.

All generators are deterministic given their arguments; randomized ones take
an explicit seed.  seeded_rng builds every random stream of the package (these
generators, the seeded twists and cylindrical noise of pipeline.py, and rand:
grids), and require_seed refuses a missing seed: no path that draws falls
back to a default.  Planar point universes carry coordinate labels "x,y" so
the rectangle machinery can recover geometry from the relation alone, and
rectangle rows are read from the box cutter's rank plane of those points.
"""

from __future__ import annotations

import random
from typing import Optional

from .cuttings import _rank_plane
from .errors import InputError
from .relations import FiniteRelation2, Universe, _check_rel2_cells, build_relation2


def require_seed(seed: Optional[int]) -> int:
    """The seed of a path that draws; a missing one is an input error."""
    if seed is None:
        raise InputError("this path is randomized; --seed is mandatory")
    return seed


def seeded_rng(seed: Optional[int], child: Optional[int] = None) -> random.Random:
    """The one random stream constructor: the stream of seed itself, or its
    child stream int(seed)·1000003 + child."""
    seed = require_seed(seed)
    return random.Random(seed if child is None else int(seed) * 1000003 + child)


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    p = 2
    while p * p <= q:
        if q % p == 0:
            return False
        p += 1
    return True


def pg_incidence(q: int) -> FiniteRelation2:
    """Point-line incidence of the projective plane of prime order q.

    q²+q+1 points and lines, q+1 points per line, any two distinct points on
    exactly one common line, so the relation is K_{2,2}-free.
    """
    n = q * q + q + 1
    _check_rel2_cells(f"projective plane of order {q}", n, n)
    if not is_prime(q):
        raise InputError(f"projective plane generator needs a prime order, got {q}")
    # Normalized homogeneous coordinates: first nonzero entry is 1.
    reps = (
        [(1, a, b) for a in range(q) for b in range(q)]
        + [(0, 1, a) for a in range(q)]
        + [(0, 0, 1)]
    )
    labels = tuple(":".join(map(str, r)) for r in reps)
    points = Universe("points", n, labels)
    lines = Universe("lines", n, labels)
    # Each line l lists its q+1 points p (p·l ≡ 0 mod q) from its equation;
    # p·l = l·p, so the lines through point i are the points on line i.
    index = {r: i for i, r in enumerate(reps)}
    xy_line = [(1, a) for a in range(q)] + [(0, 1)]  # the points (x:y) of P^1
    rows = []
    for l0, l1, l2 in reps:
        if l2:  # one z = -(l0·x + l1·y)/l2 for each (x:y)
            c = -pow(l2, -1, q)
            on_line = [(x, y, (l0 * x + l1 * y) * c % q) for x, y in xy_line]
        else:  # (x:y) = (l1:-l0) with any z, plus (0:0:1)
            x, y = (1, -l0 * pow(l1, -1, q) % q) if l1 else (0, 1)
            on_line = [(x, y, z) for z in range(q)] + [(0, 0, 1)]
        rows.append(sum(1 << index[pt] for pt in on_line))
    return FiniteRelation2(points, lines, rows)


def interval_incidence(intervals: list[tuple[int, int]], n_points: int) -> FiniteRelation2:
    """Left = intervals, right = ordered points 0..n_points-1; fiber a = [lo_a, hi_a]."""
    u = Universe("intervals", len(intervals))
    v = Universe("points", n_points)
    rows = []
    for lo, hi in intervals:
        if not (0 <= lo <= hi < n_points):
            raise InputError(f"interval [{lo}, {hi}] out of range for {n_points} points")
        rows.append(((1 << (hi - lo + 1)) - 1) << lo)
    return FiniteRelation2(u, v, rows)


def random_interval_incidence(seed: int, n_intervals: int, n_points: int) -> FiniteRelation2:
    if n_intervals < 0 or n_points < 1:
        raise InputError(f"need >= 0 intervals on >= 1 points, got {n_intervals} on {n_points}")
    _check_rel2_cells("interval instance", n_intervals, n_points)
    rng = seeded_rng(seed)
    max_len = max(1, n_points // 3)
    intervals = []
    for _ in range(n_intervals):
        length = rng.randint(1, max_len)
        lo = rng.randint(0, n_points - length)
        intervals.append((lo, lo + length - 1))
    return interval_incidence(intervals, n_points)


def rectangle_incidence(rects: list[tuple[int, int, int, int]], points: list[tuple[int, int]]) -> FiniteRelation2:
    """Left = rectangles (x1, x2, y1, y2), right = planar points; fiber a = the
    points inside rect a, its corners included.  Point labels are "x,y", so
    the points must be distinct integer pairs; each row is read from the box
    cutter's cached rank plane of them, which cutting the instance reuses.
    """
    u = Universe("rects", len(rects))
    v = Universe("points", len(points), tuple(f"{x},{y}" for x, y in points))
    plane = _rank_plane(v)
    return FiniteRelation2(u, v, [plane.rect(*rect) for rect in rects])


def random_rectangle_incidence(seed: int, n_rects: int, grid_side: int) -> FiniteRelation2:
    """Rectangles with seeded corners over the full grid_side x grid_side point grid."""
    if n_rects < 0 or grid_side < 1:
        raise InputError(f"need >= 0 rectangles on a grid side >= 1, got {n_rects} on {grid_side}")
    _check_rel2_cells("rectangle instance", n_rects, grid_side * grid_side)
    _check_rel2_cells("rank plane", 2 * grid_side + 2, grid_side * grid_side)
    rng = seeded_rng(seed)
    max_extent = max(1, grid_side // 4)
    points = [(x, y) for x in range(grid_side) for y in range(grid_side)]
    rects = []
    for _ in range(n_rects):
        w = rng.randint(0, max_extent - 1)
        h = rng.randint(0, max_extent - 1)
        x1 = rng.randint(0, grid_side - 1 - w)
        y1 = rng.randint(0, grid_side - 1 - h)
        rects.append((x1, x1 + w, y1, y1 + h))
    return rectangle_incidence(rects, points)


def random_bipartite(seed: int, m: int, n: int, edges: int) -> FiniteRelation2:
    """A seeded random bipartite graph with exactly min(edges, m*n) distinct edges."""
    rng = seeded_rng(seed)
    edges = min(edges, m * n)
    u = Universe("U", m)
    v = Universe("V", n)
    chosen = set()
    while len(chosen) < edges:
        chosen.add((rng.randrange(m), rng.randrange(n)))
    return build_relation2(u, v, chosen)


def identity_matching(n: int) -> FiniteRelation2:
    if n < 1:
        raise InputError(f"identity matching needs a size >= 1, got {n}")
    _check_rel2_cells("identity matching", n, n)
    u = Universe("U", n)
    v = Universe("V", n)
    return FiniteRelation2(u, v, [1 << i for i in range(n)])
