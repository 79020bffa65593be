"""Cutting covers: families of cells over V, each crossed by few fibers.

A fiber E_a crosses a cell V' when E_a ∩ V' != ∅ and V' ⊄ E_a.  A cover for
parameter r is valid when its cells cover V (overlap allowed) and every cell
is crossed by at most |A|/r of the fibers {E_a : a ∈ A}.  A family admits
cuttings with exponent D when covers of <= c * r^D cells exist for every r;
the constant c is family-dependent and reported empirically (fitted_c).

A cover carries only its cells, as bit masks over V, and the claimed
exponent; constructors never self-certify.  verify_cutting checks the cells
against V and returns, per cell, the set of fibers of A that cross it, and
reads the maximum crossing, validity and the first failure from those sets.
Only these sets decide a cover's validity and feed certificates; the box and
greedy cutters count crossings too, but only to stop early or close a cell.

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

The rectangle cutter works in rank space.  It maps the points to their x-
and y-ranks once per point set V, kept until the next V, and keeps, per
axis, the prefix bitmasks "rank below q", so the point set of any rank box
is the AND of two prefix differences.  A fiber lies inside its rank bounding
box, found by bisecting the prefix masks (a fiber's share of them only grows
with q), so it is a rectangle point-set iff it equals that box.  A grid
attempt builds each cell as a column strip AND a row strip, and tests each
fiber only against the cells its box spans, never against all of them.  This
is the one map of a planar point set to rank space; its masks are charged
against the rel2 cell cap before they are built, and
instances.rectangle_incidence reads its rows from the same cached plane.
The greedy cutter reads each point's trace over A from the relation's one
transpose, relations._columns, which the K_{s,t} search shares.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Optional

from .errors import InputError, ParameterError
from .relations import FiniteRelation2, Subset, Universe, _check_rel2_cells, _check_universe, _columns


def crosses(fiber_bits: int, cell_bits: int) -> bool:
    """E_a crosses V' iff they meet and V' is not inside E_a."""
    return bool(fiber_bits & cell_bits) and bool(cell_bits & ~fiber_bits)


@dataclass(frozen=True)
class CuttingCover:
    """Cells over V in a fixed order, each a bit mask over V: a certificate
    assigns each point of B to the first cell that holds it."""

    cells: tuple[int, ...]
    claimed_exponent: int


@dataclass(frozen=True)
class CuttingReport:
    """crossing_sets[i] is the set of fibers of A that cross cell i, as a bit
    vector over U; max_crossing, valid and failure are read from them."""

    valid: bool
    max_crossing: int
    cell_count: int
    fitted_c: float
    crossing_sets: tuple[int, ...]
    failure: Optional[str] = None


def _check_cut(rel: FiniteRelation2, a: Subset, r: int, who: str) -> None:
    _check_universe(a, rel.u, who)
    if r < 1:
        raise ParameterError(f"cutting parameter r must be >= 1, got {r}")


def verify_cutting(
    rel: FiniteRelation2, a: Subset, r: int, cover: CuttingCover
) -> CuttingReport:
    """Recompute coverage and every cell's crossing set; valid iff both caps hold."""
    _check_cut(rel, a, r, "verify_cutting")
    fibers = [(1 << i, rel.rows[i]) for i in a.members()]
    n_fib = len(fibers)
    union = 0
    max_crossing = 0
    failure = None
    crossing_sets = []
    for idx, cell in enumerate(cover.cells):
        if cell < 0 or cell >> rel.v.size:
            raise InputError(f"verify_cutting: cell {idx} is not a subset of V")
        union |= cell
        crossing_set = 0
        for bit, fiber in fibers:
            if fiber & cell and cell & ~fiber:  # crosses(fiber, cell), inline
                crossing_set |= bit
        crossing_sets.append(crossing_set)
        crossing = crossing_set.bit_count()
        max_crossing = max(max_crossing, crossing)
        if failure is None and crossing * r > n_fib:
            failure = f"cell {idx}: crossing {crossing} exceeds {n_fib}/{r}"
    full = (1 << rel.v.size) - 1
    if union != full:
        failure = failure or "cells do not cover V"
    fitted_c = len(cover.cells) / r**cover.claimed_exponent  # int division: no float overflow
    return CuttingReport(
        valid=failure is None,
        max_crossing=max_crossing,
        cell_count=len(cover.cells),
        fitted_c=fitted_c,
        crossing_sets=tuple(crossing_sets),
        failure=failure,
    )


# --- contiguous fibers (exponent 1) ----------------------------------------


def _fiber_interval(fiber: int) -> Optional[tuple[int, int]]:
    """The half-open span (lo, hi) of a fiber that is one contiguous run of
    points, None if the fiber is empty."""
    if fiber == 0:
        return None
    lo, hi = (fiber & -fiber).bit_length() - 1, fiber.bit_length()
    if fiber != ((1 << (hi - lo)) - 1) << lo:
        raise InputError("fiber is not a contiguous run of the ordered points")
    return lo, hi


def _transition_cuts(k: int, spans, n_fib: int, r_scaled: int) -> list[int]:
    """Boundaries of greedy blocks of the ordered positions 0..k-1 whose
    interior transition weight is capped at n_fib / r_scaled; spans are the
    fibers' half-open extents.  A fiber transitions at boundary b (between
    positions b and b+1) when it starts at b+1 or ends at b; only the
    boundaries some fiber transitions at are walked, in order, and a block
    is cut at a boundary whose weight would push it over the cap."""
    weights: dict[int, int] = {}
    for lo, hi in spans:
        if lo > 0:
            weights[lo - 1] = weights.get(lo - 1, 0) + 1
        if hi < k:
            weights[hi - 1] = weights.get(hi - 1, 0) + 1
    cuts = [0]
    acc = 0
    for b in sorted(weights):
        w = weights[b]
        if (acc + w) * r_scaled > n_fib:
            cuts.append(b + 1)
            acc = 0
        else:
            acc += w
    return cuts + [k] if k else cuts


def interval_cutting(rel: FiniteRelation2, a: Subset, r: int) -> CuttingCover:
    """Cover for contiguous fibers: <= 2r consecutive blocks, crossing <= |A|/r.

    A contiguous fiber crosses a block only if it transitions (enters or
    leaves) strictly inside it; each fiber transitions at most twice overall,
    so blocks assembled greedily under an interior-weight cap of |A|/r stay
    within the cap, and at most 2r blocks are ever produced.
    """
    _check_cut(rel, a, r, "interval_cutting")
    spans = filter(None, (_fiber_interval(rel.rows[i]) for i in a.members()))
    cuts = _transition_cuts(rel.v.size, spans, a.cardinality(), r)
    cells = tuple(((1 << (hi - lo)) - 1) << lo for lo, hi in zip(cuts, cuts[1:]))
    return CuttingCover(cells=cells, claimed_exponent=1)


# --- rectangle fibers over planar points (exponent 2) -----------------------


def _planar_points(v: Universe) -> list[tuple[int, int]]:
    labels = v.labels
    if labels is None:
        raise InputError("rectangle cutting needs point coordinates in V's labels ('x,y')")
    points = []
    for lbl in labels:
        try:
            xs, ys = str(lbl).split(",")
            points.append((int(xs), int(ys)))
        except ValueError:
            raise InputError(f"point label {lbl!r} is not of the form 'x,y'") from None
    return points


class _RankPlane:
    """The points of V in x/y-rank space: xs and ys are the distinct
    coordinates in order, below_x[q] the points whose x is below xs[q] (y
    likewise), and the kx + ky + 2 masks of |V| bits are charged against the
    rel2 cell cap before any is built.  box(x0, x1, y0, y1) is the set of
    points whose x-rank lies in [x0, x1) and y-rank in [y0, y1).
    """

    def __init__(self, points: list[tuple[int, int]]):
        self.xs, self.ys = (sorted({p[axis] for p in points}) for axis in (0, 1))
        self.kx, self.ky = len(self.xs), len(self.ys)
        _check_rel2_cells("rank plane", self.kx + self.ky + 2, len(points))
        below = []
        for axis, distinct in enumerate((self.xs, self.ys)):
            rank_of = {c: q for q, c in enumerate(distinct)}
            buckets = [0] * len(distinct)
            for j, p in enumerate(points):
                buckets[rank_of[p[axis]]] |= 1 << j
            below.append(list(accumulate(buckets, or_, initial=0)))
        self.below_x, self.below_y = below

    def rect(self, x1: int, x2: int, y1: int, y2: int) -> int:
        """The points inside the closed rectangle [x1, x2] x [y1, y2]: on each
        axis, those below the upper bound and not below the lower one, which
        is empty for an inverted rectangle (an XOR of the two would not be)."""
        bx, by, xs, ys = self.below_x, self.below_y, self.xs, self.ys
        return (bx[bisect_right(xs, x2)] & ~bx[bisect_left(xs, x1)]
                & by[bisect_right(ys, y2)] & ~by[bisect_left(ys, y1)])

    def box(self, x0: int, x1: int, y0: int, y1: int) -> int:
        bx, by = self.below_x, self.below_y
        return (bx[x1] ^ bx[x0]) & (by[y1] ^ by[y0])

    def fiber_boxes(self, rel: FiniteRelation2, a: Subset) -> list[tuple[tuple[int, ...], int]]:
        """(half-open rank bounding box, fiber) of every non-empty fiber of A.

        below[q] & fiber only gains points as q grows, so each edge of the box
        is a bisection of the prefix masks: the first q where it is non-empty
        is one past the lowest rank, the first where it is the whole fiber one
        past the highest.  A fiber lies inside its bounding box, so it is a
        rectangle point-set iff it equals the box's point set.
        """
        bx, by = self.below_x, self.below_y
        boxes = []
        for i in a.members():
            fiber = rel.rows[i]
            if not fiber:
                continue
            key = fiber.__and__
            box = (bisect_left(bx, 1, key=key) - 1, bisect_left(bx, fiber, key=key),
                   bisect_left(by, 1, key=key) - 1, bisect_left(by, fiber, key=key))
            if self.box(*box) != fiber:
                raise InputError(f"fiber {i} is not a rectangle point-set")
            boxes.append((box, fiber))
        return boxes

    def grid_cover(self, boxes, x_cuts: list[int], y_cuts: list[int], cap: int) -> Optional[CuttingCover]:
        """The non-empty cells of the rank grid, column by column, or None
        once a crossing count exceeds cap.  The counts serve only this early
        exit; verify_cutting counts the crossings of the returned cover.

        Column cx holds the x-ranks [x_cuts[cx], x_cuts[cx + 1]), row cy
        likewise; each cell is its column strip AND its row strip, one prefix
        difference per strip.  A fiber can cross only the cells its box's
        chunk range spans, so only those are tested.
        """
        bx, by = self.below_x, self.below_y
        x_chunk = [c for c in range(len(x_cuts) - 1) for _ in range(x_cuts[c], x_cuts[c + 1])]
        y_chunk = [c for c in range(len(y_cuts) - 1) for _ in range(y_cuts[c], y_cuts[c + 1])]
        strips_y = [by[hi] ^ by[lo] for lo, hi in zip(y_cuts, y_cuts[1:])]
        cells = [[strip_x & strip_y for strip_y in strips_y]
                 for strip_x in (bx[hi] ^ bx[lo] for lo, hi in zip(x_cuts, x_cuts[1:]))]
        counts = [[0] * len(column) for column in cells]
        for (x0, x1, y0, y1), fiber in boxes:
            for cx in range(x_chunk[x0], x_chunk[x1 - 1] + 1):
                column, column_counts = cells[cx], counts[cx]
                for cy in range(y_chunk[y0], y_chunk[y1 - 1] + 1):
                    cell = column[cy]
                    if fiber & cell and cell & ~fiber:  # crosses(fiber, cell), inline
                        column_counts[cy] += 1
                        if column_counts[cy] > cap:
                            return None
        nonempty = tuple(bits for column in cells for bits in column if bits)
        return CuttingCover(cells=nonempty, claimed_exponent=2)


@functools.lru_cache(maxsize=1)
def _rank_plane(v: Universe) -> _RankPlane:
    """The rank plane of V's points, built once per point set and kept until
    the next one: a certificate's box cutter calls share it."""
    return _RankPlane(_planar_points(v))


def _equal_cuts(k: int, groups: int) -> list[int]:
    """Boundaries of <= groups consecutive near-equal chunks of k ranks."""
    groups = max(1, min(groups, k))
    return [c * k // groups for c in range(groups + 1)]


def box_grid_cutting(rel: FiniteRelation2, a: Subset, r: int) -> CuttingCover:
    """Cover for rectangle fibers: grid blocks in x/y-rank space, exponent 2.

    Tries equi-depth g x g grids for growing g and returns the first one
    whose crossing counts meet the |A|/r cap; if none does up to
    g = floor(sqrt(8) * r), falls back to per-axis transition-capped blocks
    (interior weight <= |A|/2r per column and per row), which meet the cap by
    construction at <= 4r x 4r cells.
    """
    _check_cut(rel, a, r, "box_grid_cutting")
    plane = _rank_plane(rel.v)
    boxes = plane.fiber_boxes(rel, a)
    n_fib = a.cardinality()
    for g in range(1, math.isqrt(8 * r * r) + 1):
        x_cuts, y_cuts = _equal_cuts(plane.kx, g), _equal_cuts(plane.ky, g)
        cover = plane.grid_cover(boxes, x_cuts, y_cuts, n_fib // r)
        if cover is not None:
            return cover
    x_cuts = _transition_cuts(plane.kx, [box[:2] for box, _ in boxes], n_fib, 2 * r)
    y_cuts = _transition_cuts(plane.ky, [box[2:] for box, _ in boxes], n_fib, 2 * r)
    # a fiber crosses a cell at most once, so no count can exceed n_fib
    return plane.grid_cover(boxes, x_cuts, y_cuts, n_fib)


# --- generic best-effort provider -------------------------------------------


def greedy_cutting(rel: FiniteRelation2, a: Subset, r: int) -> Optional[CuttingCover]:
    """Merge fiber-trace classes greedily under the crossing cap.

    Trace classes (points with identical fiber membership over A) are never
    crossed, so they are safe atoms and are returned as-is whenever they
    already fit the 4r cell cap.  Otherwise classes are merged in order;
    merging only ever grows the set of fibers that split across a cell, so a
    cell is closed as soon as the next class would push its crossing count
    over |A|/r.  Returns None when more than 4r cells would still be needed.
    The claimed exponent is 1.
    """
    _check_cut(rel, a, r, "greedy_cutting")
    max_cells = 4 * r
    a_bits = a.bits
    n_fib = a.cardinality()
    classes: dict[int, int] = {}  # trace -> its points, in order of first point
    for v, col in enumerate(_columns(rel.rows, rel.v.size)):
        trace = col & a_bits
        classes[trace] = classes.get(trace, 0) | 1 << v

    if len(classes) <= max_cells:
        return CuttingCover(cells=tuple(classes.values()), claimed_exponent=1)

    cells: list[int] = []
    cur_bits = 0
    cur_in = cur_out = a_bits  # fibers of A holding / missing every class merged so far
    for trace, bits in classes.items():
        new_in = cur_in & trace
        new_out = cur_out & ~trace
        crossing = n_fib - (new_in | new_out).bit_count()
        if cur_bits and crossing * r > n_fib:
            cells.append(cur_bits)
            cur_bits, cur_in, cur_out = bits, trace, a_bits & ~trace
        else:
            cur_bits |= bits
            cur_in, cur_out = new_in, new_out
    if cur_bits:
        cells.append(cur_bits)
    if len(cells) > max_cells:
        return None
    return CuttingCover(cells=tuple(cells), claimed_exponent=1)
