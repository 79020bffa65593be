"""Cutting covers: families of cells over V, each crossed by few fibers.

A fiber E_a crosses a cell V' when E_a ∩ V' != ∅ and V' ⊄ E_a.  A cover for
parameter r is valid when its cells cover V (overlap allowed) and every cell
is crossed by at most |A|/r of the fibers {E_a : a ∈ A}.  A family admits
cuttings with exponent D when covers of <= c * r^D cells exist for every r;
the constant c is family-dependent and reported empirically (fitted_c).

Constructors never self-certify: every cover they return passes
verify_cutting, which recomputes all crossing counts from scratch.

Two structural facts do the heavy lifting here:
  * singleton cells are never crossed (E_a ∩ {v} != ∅ forces {v} ⊆ E_a);
  * cells that are unions of fiber-trace equivalence classes are crossed
    only by fibers that transition between two classes inside the cell.

For contiguous (interval) fibers each fiber transitions at most twice along
the ordered point line, so a greedy merge of trace runs that cuts whenever a
block's interior transition weight would exceed |A|/r yields at most 2r
blocks: each cut "spends" the weight of the boundary it cuts at, and the
total transition weight is at most 2|A|.  For rectangle fibers over planar
points the same argument per axis (interior weight <= |A|/2r per column and
per row) gives at most 4r columns x 4r rows; an adaptive equi-depth grid is
tried first and usually verifies at far fewer cells.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

from .errors import FamilyError, InputError, ParameterError
from .relations import FiniteRelation2, Subset, _iter_bits

__all__ = [
    "CuttingCover",
    "CuttingReport",
    "crosses",
    "verify_cutting",
    "interval_cutting",
    "box_grid_cutting",
    "greedy_cutting",
]


def crosses(fiber_bits: int, cell_bits: int) -> bool:
    """E_a crosses V' iff they meet and V' is not inside E_a."""
    return bool(fiber_bits & cell_bits) and bool(cell_bits & ~fiber_bits)


@dataclass(frozen=True)
class CuttingCover:
    cells: tuple[Subset, ...]
    r: int
    claimed_exponent: int
    crossing_counts: tuple[int, ...]

    def to_obj(self) -> dict:
        return {
            "r": self.r,
            "D": self.claimed_exponent,
            "cells": [sorted(c.members()) for c in self.cells],
            "crossing_counts": list(self.crossing_counts),
        }

    @staticmethod
    def from_obj(obj: dict, universe) -> "CuttingCover":
        cells = tuple(Subset.from_indices(universe, c) for c in obj["cells"])
        return CuttingCover(
            cells=cells,
            r=obj["r"],
            claimed_exponent=obj["D"],
            crossing_counts=tuple(obj["crossing_counts"]),
        )


@dataclass(frozen=True)
class CuttingReport:
    valid: bool
    max_crossing: int
    cell_count: int
    fitted_c: float
    failure: Optional[str] = None
    counts_match: bool = True


def _crossing_count(rel: FiniteRelation2, a: Subset, cell_bits: int) -> int:
    return sum(1 for i in a.members() if crosses(rel.rows[i], cell_bits))


def verify_cutting(
    rel: FiniteRelation2, a: Subset, r: int, cover: CuttingCover
) -> CuttingReport:
    """Recompute coverage and all crossing counts; valid iff both caps hold."""
    if a.universe != rel.u:
        raise InputError("verify_cutting: A must be a subset of the relation's left universe")
    if r < 1:
        raise ParameterError(f"cutting parameter r must be >= 1, got {r}")
    n_fib = a.cardinality()
    union = 0
    max_crossing = 0
    failure = None
    valid = True
    counts_match = len(cover.crossing_counts) == len(cover.cells)
    for idx, cell in enumerate(cover.cells):
        if cell.universe != rel.v:
            raise InputError(f"verify_cutting: cell {idx} is not a subset of V")
        union |= cell.bits
        crossing = _crossing_count(rel, a, cell.bits)
        if counts_match and cover.crossing_counts[idx] != crossing:
            counts_match = False
        max_crossing = max(max_crossing, crossing)
        if valid and crossing * r > n_fib:
            valid = False
            failure = f"cell {idx}: crossing {crossing} exceeds {n_fib}/{r}"
    full = (1 << rel.v.size) - 1
    if union != full:
        valid = False
        failure = failure or "cells do not cover V"
    fitted_c = len(cover.cells) / float(r**cover.claimed_exponent)
    return CuttingReport(
        valid=valid,
        max_crossing=max_crossing,
        cell_count=len(cover.cells),
        fitted_c=fitted_c,
        failure=failure,
        counts_match=counts_match,
    )


# --- contiguous fibers (exponent 1) ----------------------------------------


def _fiber_interval(fiber: int) -> Optional[tuple[int, int]]:
    """(lo, hi) if the fiber is one contiguous run of points, None if empty."""
    if fiber == 0:
        return None
    lo = (fiber & -fiber).bit_length() - 1
    hi = fiber.bit_length() - 1
    if fiber != ((1 << (hi - lo + 1)) - 1) << lo:
        raise FamilyError("fiber is not a contiguous run of the ordered points")
    return lo, hi


def _blocks_by_transition_weight(
    n_points: int, weights: list[int], n_fib: int, r_scaled: int
) -> list[tuple[int, int]]:
    """Split 0..n_points-1 into blocks whose interior transition weight w
    satisfies w * r_scaled <= n_fib, cutting only at positive-weight
    boundaries.  weights[b] is the transition weight between points b, b+1.
    """
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


def interval_cutting(rel: FiniteRelation2, a: Subset, r: int) -> CuttingCover:
    """Cover for contiguous fibers: <= 2r consecutive blocks, crossing <= |A|/r.

    A contiguous fiber crosses a block only if it transitions (enters or
    leaves) strictly inside it; each fiber transitions at most twice overall,
    so blocks assembled greedily under an interior-weight cap of |A|/r stay
    within the cap, and at most 2r blocks are ever produced.
    """
    if a.universe != rel.u:
        raise InputError("interval_cutting: A must be a subset of the left universe")
    if r < 1:
        raise ParameterError(f"cutting parameter r must be >= 1, got {r}")
    n_points = rel.v.size
    n_fib = a.cardinality()
    weights = [0] * max(0, n_points - 1)
    for i in a.members():
        iv = _fiber_interval(rel.rows[i])
        if iv is None:
            continue
        lo, hi = iv
        if lo > 0:
            weights[lo - 1] += 1
        if hi < n_points - 1:
            weights[hi] += 1
    blocks = _blocks_by_transition_weight(n_points, weights, n_fib, r)
    cells = tuple(
        Subset(rel.v, ((1 << (hi - lo + 1)) - 1) << lo) for lo, hi in blocks
    )
    counts = tuple(_crossing_count(rel, a, c.bits) for c in cells)
    return CuttingCover(cells=cells, r=r, claimed_exponent=1, crossing_counts=counts)


# --- rectangle fibers over planar points (exponent 2) -----------------------


def _planar_points(rel: FiniteRelation2) -> list[tuple[int, int]]:
    labels = rel.v.labels
    if labels is None:
        raise FamilyError("rectangle cutting needs point coordinates in V's labels ('x,y')")
    points = []
    for lbl in labels:
        try:
            xs, ys = str(lbl).split(",")
            points.append((int(xs), int(ys)))
        except ValueError:
            raise FamilyError(f"point label {lbl!r} is not of the form 'x,y'") from None
    return points


def _check_rectangular(rel: FiniteRelation2, a: Subset, points) -> None:
    for i in a.members():
        fiber = rel.rows[i]
        if fiber == 0:
            continue
        xs = [points[j][0] for j in Subset(rel.v, fiber).members()]
        ys = [points[j][1] for j in Subset(rel.v, fiber).members()]
        x1, x2, y1, y2 = min(xs), max(xs), min(ys), max(ys)
        for j, (px, py) in enumerate(points):
            inside = x1 <= px <= x2 and y1 <= py <= y2
            if inside != bool(fiber >> j & 1):
                raise FamilyError(f"fiber {i} is not a rectangle point-set")


def _axis_blocks(values: list[int], groups: int) -> list[list[int]]:
    """Split sorted distinct values into <= groups consecutive chunks of
    near-equal size."""
    k = len(values)
    groups = max(1, min(groups, k)) if k else 1
    if k == 0:
        return [[]]
    out = []
    for g in range(groups):
        lo = g * k // groups
        hi = (g + 1) * k // groups
        if hi > lo:
            out.append(values[lo:hi])
    return out


def _grid_cells(
    rel: FiniteRelation2, points, x_chunks: list[list[int]], y_chunks: list[list[int]]
) -> list[Subset]:
    by_coord: dict[tuple[int, int], int] = {}
    for xi, chunk in enumerate(x_chunks):
        for v in chunk:
            by_coord[(0, v)] = xi
    for yi, chunk in enumerate(y_chunks):
        for v in chunk:
            by_coord[(1, v)] = yi
    cell_bits: dict[tuple[int, int], int] = {}
    for j, (px, py) in enumerate(points):
        key = (by_coord[(0, px)], by_coord[(1, py)])
        cell_bits[key] = cell_bits.get(key, 0) | 1 << j
    return [Subset(rel.v, bits) for _, bits in sorted(cell_bits.items())]


def _axis_transition_blocks(
    values: list[int], extents: list[tuple[int, int]], n_fib: int, r_scaled: int
) -> list[list[int]]:
    """Greedy blocks of sorted distinct axis values with interior extent
    transitions capped at n_fib / r_scaled; extents are (lo, hi) value pairs."""
    k = len(values)
    if k == 0:
        return [[]]
    weights = [0] * max(0, k - 1)
    for lo, hi in extents:
        # value-ranks covered by [lo, hi]
        rlo = bisect.bisect_left(values, lo)
        rhi = bisect.bisect_right(values, hi) - 1
        if rlo > rhi:
            continue
        if rlo > 0:
            weights[rlo - 1] += 1
        if rhi < k - 1:
            weights[rhi] += 1
    blocks = _blocks_by_transition_weight(k, weights, n_fib, r_scaled)
    return [values[lo : hi + 1] for lo, hi in blocks]


def box_grid_cutting(rel: FiniteRelation2, a: Subset, r: int) -> CuttingCover:
    """Cover for rectangle fibers: grid blocks in x/y-rank space, exponent 2.

    Tries equi-depth g x g grids for growing g and returns the first one
    whose recomputed crossing counts meet the |A|/r cap; if none verifies up
    to g = floor(sqrt(8) * r), falls back to per-axis transition-capped
    blocks (interior weight <= |A|/2r per column and per row), which meet the
    cap by construction at <= 4r x 4r cells.
    """
    if a.universe != rel.u:
        raise InputError("box_grid_cutting: A must be a subset of the left universe")
    if r < 1:
        raise ParameterError(f"cutting parameter r must be >= 1, got {r}")
    points = _planar_points(rel)
    _check_rectangular(rel, a, points)
    n_fib = a.cardinality()
    xs = sorted({p[0] for p in points})
    ys = sorted({p[1] for p in points})

    def attempt(x_chunks, y_chunks) -> Optional[CuttingCover]:
        cells = _grid_cells(rel, points, x_chunks, y_chunks)
        counts = [_crossing_count(rel, a, c.bits) for c in cells]
        if all(c * r <= n_fib for c in counts):
            return CuttingCover(
                cells=tuple(cells), r=r, claimed_exponent=2, crossing_counts=tuple(counts)
            )
        return None

    g_max = max(1, int((8**0.5) * r))
    for g in range(1, g_max + 1):
        cover = attempt(_axis_blocks(xs, g), _axis_blocks(ys, g))
        if cover is not None:
            return cover

    extents_x = []
    extents_y = []
    for i in a.members():
        fiber = rel.rows[i]
        if fiber == 0:
            continue
        pxs = [points[j][0] for j in Subset(rel.v, fiber).members()]
        pys = [points[j][1] for j in Subset(rel.v, fiber).members()]
        extents_x.append((min(pxs), max(pxs)))
        extents_y.append((min(pys), max(pys)))
    x_chunks = _axis_transition_blocks(xs, extents_x, n_fib, 2 * r)
    y_chunks = _axis_transition_blocks(ys, extents_y, n_fib, 2 * r)
    cells = _grid_cells(rel, points, x_chunks, y_chunks)
    counts = tuple(_crossing_count(rel, a, c.bits) for c in cells)
    return CuttingCover(cells=tuple(cells), r=r, claimed_exponent=2, crossing_counts=counts)


# --- generic best-effort provider -------------------------------------------


def greedy_cutting(
    rel: FiniteRelation2,
    a: Subset,
    r: int,
    claimed_exponent: int = 1,
    max_cells: Optional[int] = None,
) -> Optional[CuttingCover]:
    """Merge fiber-trace classes greedily under the crossing cap.

    Trace classes (points with identical fiber membership over A) are never
    crossed, so they are safe atoms and are returned as-is whenever they
    already fit max_cells.  Otherwise classes are merged in order; merging
    only ever grows the set of fibers that split across a cell, so a cell is
    closed as soon as the next class would push its crossing count over
    |A|/r.  Returns None when more than max_cells cells would still be
    needed (default 4 * r^claimed_exponent).
    """
    if a.universe != rel.u:
        raise InputError("greedy_cutting: A must be a subset of the left universe")
    if r < 1:
        raise ParameterError(f"cutting parameter r must be >= 1, got {r}")
    if max_cells is None:
        max_cells = 4 * r**claimed_exponent
    n_points = rel.v.size
    a_list = sorted(a.members())
    n_fib = len(a_list)
    sig = [0] * n_points
    for pos, i in enumerate(a_list):
        for v in _iter_bits(rel.rows[i]):
            sig[v] |= 1 << pos
    classes: dict[int, int] = {}
    first_seen: dict[int, int] = {}
    for v in range(n_points):
        s = sig[v]
        classes[s] = classes.get(s, 0) | 1 << v
        first_seen.setdefault(s, v)
    ordered = sorted(classes.items(), key=lambda kv: first_seen[kv[0]])
    full_mask = (1 << n_fib) - 1

    if len(ordered) <= max_cells:
        subsets = tuple(Subset(rel.v, bits) for _, bits in ordered)
        return CuttingCover(
            cells=subsets,
            r=r,
            claimed_exponent=claimed_exponent,
            crossing_counts=(0,) * len(subsets),
        )

    cells: list[int] = []
    cur_bits = 0
    cur_in = full_mask  # fibers containing every class merged so far
    cur_out = full_mask  # fibers disjoint from every class merged so far
    for s, bits in ordered:
        new_in = cur_in & s
        new_out = cur_out & ~s
        crossing = n_fib - (new_in | new_out).bit_count()
        if cur_bits and crossing * r > n_fib:
            cells.append(cur_bits)
            cur_bits, cur_in, cur_out = bits, full_mask & s, full_mask & ~s
        else:
            cur_bits |= bits
            cur_in, cur_out = new_in, new_out
    if cur_bits:
        cells.append(cur_bits)
    if len(cells) > max_cells:
        return None
    subsets = tuple(Subset(rel.v, bits) for bits in cells)
    counts = tuple(_crossing_count(rel, a, bits) for bits in cells)
    return CuttingCover(cells=subsets, r=r, claimed_exponent=claimed_exponent, crossing_counts=counts)
