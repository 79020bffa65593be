"""Scaling fits and machine-readable report emission.

A scaling run measures exact grid counts over a strictly increasing size
list and fits log(count) against log(n) by least squares; the slope is the
measured expansion exponent (2.0 for abelian-group graphs on full grids,
visibly lower for expanding polynomial relations).

Reports are deterministic: given an identical configuration (including the
seed) the emitted CSV/JSON files are byte-identical.  CSV columns are fixed:

    instance,n,count,bound_cert,kst_bound,delta_bound,slope,residual,status

preceded by one comment line recording the subcommand and seed.  JSON files
mirror the same rows under a header object.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence, Union

from .errors import InputError
from .pipeline import RelationFamily
from .relations import Subset, count_grid3

@dataclass(frozen=True)
class ExponentFit:
    sizes: tuple[int, ...]
    counts: tuple[int, ...]
    slope: float
    residual_max: float


def _check_sizes(sizes: Sequence[int]) -> None:
    if len(sizes) < 3:
        raise InputError(f"scaling fit needs at least 3 sizes, got {len(sizes)}")
    if any(s2 <= s1 for s1, s2 in zip(sizes, sizes[1:])):
        raise InputError("sizes must be strictly increasing")


def fit_loglog(sizes: Sequence[int], counts: Sequence[int]) -> ExponentFit:
    """Least-squares slope of log(count) vs log(n) over >= 3 sizes."""
    _check_sizes(sizes)
    if len(sizes) != len(counts):
        raise InputError("sizes and counts must have equal length")
    if any(c <= 0 for c in counts):
        raise InputError("scaling fit needs positive counts at every size")
    xs = [math.log(s) for s in sizes]
    ys = [math.log(c) for c in counts]
    k = len(xs)
    mean_x = sum(xs) / k
    mean_y = sum(ys) / k
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    residual_max = max(abs(y - (intercept + slope * x)) for x, y in zip(xs, ys))
    return ExponentFit(
        sizes=tuple(sizes),
        counts=tuple(counts),
        slope=slope,
        residual_max=residual_max,
    )


def run_scaling(family: RelationFamily, sizes: Sequence[int]) -> ExponentFit:
    """Exact full-grid counts of the family at each size, then the log-log fit;
    a size list the fit would refuse is refused before the first build."""
    _check_sizes(sizes)
    counts = []
    for n in sizes:
        rel = family.build(n)
        counts.append(count_grid3(rel, *map(Subset.full, (rel.x, rel.y, rel.z))))
        del rel  # free it before the next build: peak memory is one relation
    return fit_loglog(tuple(sizes), tuple(counts))


# --- report rows -----------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    instance: str
    n: int
    count: Optional[int] = None
    bound_cert: Optional[int] = None
    kst_bound: Optional[float] = None
    delta_bound: Optional[float] = None
    slope: Optional[float] = None
    residual: Optional[float] = None
    status: str = "ok"


CSV_COLUMNS = tuple(field.name for field in fields(ReportRow))


def format_value(value: Union[None, int, float, str]) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    # fields are never quoted, so keep them comma-free and on one line
    return str(value).replace(",", ";").replace("\n", " ").replace("\r", " ")


def render_csv(rows: Sequence[ReportRow], header_note: str) -> str:
    lines = [f"# {header_note}", ",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(
            ",".join(format_value(getattr(row, col)) for col in CSV_COLUMNS)
        )
    return "\n".join(lines) + "\n"


def render_json(rows: Sequence[ReportRow], header: dict) -> str:
    payload = {
        "header": header,
        "rows": [
            {col: getattr(row, col) for col in CSV_COLUMNS if getattr(row, col) is not None}
            for row in rows
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def emit_report(
    rows: Sequence[ReportRow],
    fmt: str,
    path: Optional[str],
    header: dict,
) -> str:
    """Render rows and write them to path ('-' or None means return only)."""
    note = " ".join(f"{k}={header[k]}" for k in sorted(header))
    if fmt == "csv":
        text = render_csv(rows, note)
    elif fmt == "json":
        text = render_json(rows, header)
    else:
        raise InputError(f"unknown report format {fmt!r}")
    if path and path != "-":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text
