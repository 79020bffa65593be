"""K_{s,t} patterns, the Kővári–Sós–Turán bound, and a certified counter.

The counting bound for a K_{s,t}-free bipartite graph on m x n vertices is

    kst_bound(s, t, m, n) = s^(1/t) * m^(1-1/t) * n + t * m.

Exponent arithmetic is exact rational: given a cutting exponent D, a
forbidden K_{s,t} and an admissible epsilon in (0, (t-1)/(t(Dt-1))),

    alpha = D(t-1)/(Dt-1) - epsilon,   beta = t(1-alpha),

and for t = 2 the gap below 3/2 is delta = 1/(2(2D-1)) - epsilon, so
alpha + beta + delta = 3/2 identically.

certified_count() runs the three-case recursion behind those exponents and
returns a certificate tree whose total is, by construction, an upper bound
for the exact grid count: small first sides and failed cuttings are counted
exactly, balanced-enough nodes take the (valid, since K_{s,t}-free) KST
bound, and the remaining nodes recurse through a verified cutting cover.
Each point of B goes to the first cell that holds it; the cell's child takes
the fibers that cross the cell (verify_cutting's crossing set, the only place
crossings are counted), and the non-crossing edge block is counted exactly:
each node is handed its exact count |E ∩ A×B| by its parent (the root's is
counted once), so the block is that count minus the children's, and a child's
count walks only its crossing fibers.

find_kst searches s-tuples of rows in lexicographic order.  At the last
level, when common's columns times t are fewer than the candidate rows, it
counts column by column which rows meet common in >= t points instead of
walking the rows: a bit-sliced counter over the relation's one transpose,
relations._columns, which greedy_cutting shares.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Optional

from .cuttings import CuttingCover, verify_cutting
from .errors import BudgetError, ParameterError
from .relations import FiniteRelation2, Subset, _check_universe, _columns, _iter_bits, count_grid2

# --- exponent arithmetic ----------------------------------------------------


def epsilon_sup(D: int, t: int) -> Fraction:
    """Supremum of the admissible epsilon interval (0, (t-1)/(t(Dt-1)))."""
    return Fraction(t - 1, t * (D * t - 1))


def exponent_triple(
    D: int, t: int, epsilon: Fraction
) -> tuple[Fraction, Fraction, Optional[Fraction]]:
    """(alpha, beta, delta) by formula alone; no admissibility check.

    delta is populated only for t = 2.  alpha + beta + delta == 3/2 holds
    identically in rational arithmetic for every epsilon.
    """
    epsilon = Fraction(epsilon)
    alpha = Fraction(D * (t - 1), D * t - 1) - epsilon
    beta = t * (1 - alpha)
    delta = Fraction(1, 2 * (2 * D - 1)) - epsilon if t == 2 else None
    return alpha, beta, delta


@dataclass(frozen=True)
class ExponentParams:
    D: int
    t: int
    s: int
    epsilon: Fraction
    alpha: Fraction
    beta: Fraction
    delta: Optional[Fraction]


def exponent_params(D: int, t: int, s: int, epsilon) -> ExponentParams:
    """Validated exponent parameters; epsilon (a rational or its text, such as
    "1/12") must lie in the open interval, and the float evaluations downstream
    must not overflow or divide by zero."""
    if D < 1:
        raise ParameterError(f"cutting exponent D must be >= 1, got {D}")
    if t < 2:
        raise ParameterError(f"t must be >= 2, got {t}")
    if s < 1:
        raise ParameterError(f"s must be >= 1, got {s}")
    try:
        epsilon = Fraction(epsilon)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ParameterError(f"epsilon must be a rational number, got {epsilon!r}") from None
    sup = epsilon_sup(D, t)
    if not 0 < epsilon < sup:
        raise ParameterError(
            f"epsilon = {epsilon} outside the admissible interval (0, {sup}) for D={D}, t={t}"
        )
    alpha, beta, delta = exponent_triple(D, t, epsilon)
    # kst_bound and _case2_applies evaluate s, t, D and 1 - alpha as floats
    if max(D, t, s) > sys.float_info.max:
        raise ParameterError(f"D, t and s must be at most {sys.float_info.max:.6g}, the largest float")
    if float(1 - alpha) == 0:
        raise ParameterError(f"1 - alpha is below the smallest float for D={D}, t={t}, epsilon={epsilon}")
    return ExponentParams(D=D, t=t, s=s, epsilon=epsilon, alpha=alpha, beta=beta, delta=delta)


def kst_bound(s: int, t: int, m: int, n: int) -> float:
    """s^(1/t) * m^(1-1/t) * n + t * m; an edge-count bound when K_{s,t}-free."""
    if s < 1 or t < 1:
        raise ParameterError(f"kst_bound needs s, t >= 1, got s={s}, t={t}")
    if m < 0 or n < 0:
        raise ParameterError(f"kst_bound needs m, n >= 0, got m={m}, n={n}")
    if m == 0 or n == 0:
        return 0.0
    if t * m > sys.float_info.max:  # t far past any capped |V|: find_kst returned without searching
        raise ParameterError(f"t * m is past the largest float, {sys.float_info.max:.6g}, for m={m}")
    return s ** (1.0 / t) * m ** (1.0 - 1.0 / t) * n + t * m


def distal_delta_bound(params: ExponentParams, n: int) -> float:
    """n^(3/2 - delta), the evaluation value used in report rows (t = 2 only)."""
    if params.t != 2 or params.delta is None:
        raise ParameterError("distal delta bound is defined for t = 2 only")
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    return float(n) ** (1.5 - float(params.delta))


# --- K_{s,t} detection --------------------------------------------------------


@dataclass(frozen=True)
class KstWitness:
    s_side: tuple[int, ...]
    t_side: tuple[int, ...]


def _first_bits(bits: int, count: int) -> tuple[int, ...]:
    return tuple(islice(_iter_bits(bits), count))


# find_kst charges each candidate loop's length to a node count before the loop
# runs, and refuses a search past this many nodes (BudgetError): the search
# grows like C(m, s), so a K_{s,t}-free relation can otherwise run for minutes.
MAX_KST_NODES = 5 * 10**6


def find_kst(rel: FiniteRelation2, s: int, t: int) -> Optional[KstWitness]:
    """Lexicographically least complete s x t block, or None.

    Least here means: the smallest s-tuple of left indices in lexicographic
    order, then the t smallest right indices of their common neighborhood.
    Raises BudgetError past MAX_KST_NODES search nodes.
    """
    if s < 1 or t < 1:
        raise ParameterError(f"find_kst needs s, t >= 1, got s={s}, t={t}")
    m = rel.u.size
    rows = rel.rows
    if s > m or t > rel.v.size:
        return None
    nodes = 0
    cols = None  # the relation's transpose, fetched at the first column-counted node

    def search(start: int, chosen: list[int], common: int) -> Optional[KstWitness]:
        nonlocal nodes, cols
        if len(chosen) == s:
            return KstWitness(tuple(chosen), _first_bits(common, t))
        stop = m - (s - len(chosen)) + 1
        nodes += stop - start
        if nodes > MAX_KST_NODES:
            raise BudgetError(f"K_{s},{t} search needs more than {MAX_KST_NODES} nodes")
        if len(chosen) == s - 1 and common.bit_count() * t < stop - start:
            # last row, few columns: at_least[k] = the candidate rows meeting
            # common in >= k of its columns, counted column by column
            if cols is None:
                cols = _columns(rows, rel.v.size)
            at_least = [(1 << stop) - (1 << start)] + [0] * t
            for j in _iter_bits(common):
                col = cols[j]
                for k in range(t, 0, -1):
                    at_least[k] |= at_least[k - 1] & col
            hit = at_least[t]
            if hit == 0:
                return None
            i = (hit & -hit).bit_length() - 1
            return KstWitness((*chosen, i), _first_bits(common & rows[i], t))
        for i in range(start, stop):
            narrowed = common & rows[i]
            if narrowed.bit_count() >= t:
                chosen.append(i)
                found = search(i + 1, chosen, narrowed)
                if found is not None:
                    return found
                chosen.pop()
        return None

    return search(0, [], (1 << rel.v.size) - 1)


class NotKstFreeError(ParameterError):
    """The relation restricted to A x B contains the forbidden K_{s,t}."""

    def __init__(self, witness: KstWitness):
        super().__init__(
            f"A x B contains K_{len(witness.s_side)},{len(witness.t_side)} at "
            f"{list(witness.s_side)} x {list(witness.t_side)}"
        )
        self.witness = witness


# --- certified counting -------------------------------------------------------

CASE_SMALL = "Case1_small_m"
CASE_UNBALANCED = "Case2_unbalanced"
CASE_RECURSE = "Case3_recurse"
CASE_LEAF = "LeafExact"

CutterFn = Callable[[FiniteRelation2, Subset, int], Optional[CuttingCover]]


@dataclass(frozen=True)
class BoundCertificate:
    case: str
    m: int
    n: int
    r: int
    contribution: int
    children: tuple["BoundCertificate", ...]
    total: int
    degraded: bool = False

    def to_obj(self) -> dict:
        obj = {**vars(self), "children": [c.to_obj() for c in self.children]}
        if not self.degraded:
            del obj["degraded"]
        return obj


def _case2_applies(params: ExponentParams, r: int, m: int, n: int) -> bool:
    # r^(D/(1-alpha)) * m >= n^t, compared in log space; certified_count calls it with m > r >= 2
    one_minus_alpha = float(1 - params.alpha)
    lhs = (params.D / one_minus_alpha) * math.log(r) + math.log(m)
    return lhs >= params.t * math.log(n) - 1e-12


def certified_count(
    rel: FiniteRelation2,
    a: Subset,
    b: Subset,
    params: ExponentParams,
    cutter: Optional[CutterFn],
    r: int,
    leaf_size: int = 32,
) -> BoundCertificate:
    """Certificate tree whose total upper-bounds |E ∩ A×B|.

    Case 2 nodes take the KST bound, which holds only on K_{s,t}-free grids
    for params' (s, t).  Freeness passes to every sub-grid, so one find_kst
    on the restriction to A x B covers them all; a relation that fails it
    raises NotKstFreeError carrying the witness.  Cutter failures degrade the
    node to an exact count, which keeps the certificate sound.
    """
    _check_universe(a, rel.u, "certified_count")
    _check_universe(b, rel.v, "certified_count")
    if r <= 1:
        raise ParameterError(f"cutting parameter r must be > 1, got {r}")
    if leaf_size < 1:
        raise ParameterError(f"leaf_size must be >= 1, got {leaf_size}")

    rows = rel.rows
    restricted = FiniteRelation2(
        rel.u, rel.v, [row & b.bits if a.bits >> i & 1 else 0 for i, row in enumerate(rows)]
    )
    witness = find_kst(restricted, params.s, params.t)
    if witness is not None:
        raise NotKstFreeError(witness)

    def node(a_bits: int, b_bits: int, value: int) -> BoundCertificate:
        """The certificate of A x B, given value = |E ∩ A×B|."""
        m = a_bits.bit_count()
        n = b_bits.bit_count()
        if m <= max(r, leaf_size) or n == 0:
            return BoundCertificate(CASE_SMALL, m, n, r, value, (), value)
        if _case2_applies(params, r, m, n):
            bound = math.ceil(kst_bound(params.s, params.t, m, n))
            return BoundCertificate(CASE_UNBALANCED, m, n, r, bound, (), bound)
        a_subset = Subset(rel.u, a_bits)
        cover = cutter(rel, a_subset, r) if cutter is not None else None
        report = verify_cutting(rel, a_subset, r, cover) if cover is not None else None
        if report is None or not report.valid:
            return BoundCertificate(CASE_LEAF, m, n, r, value, (), value, degraded=True)
        children = []
        local = value
        assigned = 0
        for cell, a_i in zip(cover.cells, report.crossing_sets):
            b_i = cell & b_bits & ~assigned
            assigned |= b_i
            if b_i == 0:
                continue
            e_i = count_grid2(rel, Subset(rel.u, a_i), Subset(rel.v, b_i))  # walks only the crossing fibers
            children.append(node(a_i, b_i, e_i))
            local -= e_i
        # the cells cover V (the report is valid), so the B_i partition B and
        # value - sum(e_i) is exactly the non-crossing block: sum |E ∩ (A \ A_i) × B_i|
        total = local + sum(child.total for child in children)
        return BoundCertificate(CASE_RECURSE, m, n, r, local, tuple(children), total)

    return node(a.bits, b.bits, restricted.edge_count)
