"""Per-layer tracing of expd from outside the package.

The layers are the modules of ``src/expd``.  ``Tracer.install`` replaces each
public module-level function of a layer, plus the public methods of a few
classes, with a wrapper that records a span: name, layer, op, parent span,
start and end.  Every reference to the original inside the package is
rebound too (``cli`` imports ``count_grid3`` by name, ``cli.COMMANDS`` holds
the subcommand functions), so calls through any of them are traced.  No file
of the package is changed.

A span's self time is its duration minus the durations of its child spans;
spans nest, since the package runs single-threaded here, so the self times of
an op's spans add up to the op's wall time.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import sys
import time
from collections import Counter
from typing import Callable, Iterable

LAYERS = ("relations", "dsl", "pipeline", "zarankiewicz", "cuttings", "instances", "reports", "cli")

# Called once per grid point or per (fiber, cell) pair: a span each would cost
# more than the work, so their time stays in the caller's self time, which is
# in the same layer.
LEAF_HELPERS = frozenset({"dsl.eval_node", "cuttings.crosses"})

# Classes whose public methods are traced.  The family builders are closures
# over private helpers, so they are timed through RelationFamily.build.
TRACED_CLASSES = {
    "relations": ("FiniteRelation2", "FiniteRelation3"),
    "pipeline": ("RelationFamily",),
}

ROOT = "cli.op"

# Metric -> the traced functions whose self time it sums.
TIME_METRICS = {
    "relations.build_s": ("relations.build_relation3", "relations.build_relation2"),
    "relations.count_s": ("relations.count_grid3", "relations.count_grid2"),
    "relations.index_s": (
        "relations.FiniteRelation3.by_xy",
        "relations.FiniteRelation3.by_xz",
        "relations.FiniteRelation3.by_yz",
        "relations.FiniteRelation3.group_by_x",
        "relations.FiniteRelation2.columns",
    ),
    "relations.read_s": ("relations.read_relation", "relations.relation_from_obj"),
    "relations.write_s": ("relations.write_relation", "relations.relation_to_obj"),
    "pipeline.family_build_s": ("pipeline.RelationFamily.build",),
    "pipeline.delta_degree_s": ("pipeline.delta_degree", "pipeline.pairing_maxima"),
    "pipeline.cylinder_s": ("pipeline.cylindrical_witness",),
    "pipeline.derive_g_s": ("pipeline.derive_g",),
    "pipeline.g_fiber_check_s": ("pipeline.check_g_fiber_bounds",),
    "pipeline.g_stream_s": ("pipeline.g_edge_count",),
    "pipeline.cs_check_s": ("pipeline.cauchy_schwarz_check",),
    "zarankiewicz.find_kst_s": ("zarankiewicz.find_kst",),
    "zarankiewicz.certify_self_s": ("zarankiewicz.certified_count",),
    "cuttings.construct_s": (
        "cuttings.interval_cutting",
        "cuttings.box_grid_cutting",
        "cuttings.greedy_cutting",
    ),
    "cuttings.verify_s": ("cuttings.verify_cutting",),
    "dsl.instantiate_s": ("dsl.instantiate3", "dsl.instantiate2"),
}

# Layer -> the metric holding the layer's total self time.
LAYER_METRICS = {
    "relations": "relations.self_s",
    "dsl": "dsl.self_s",
    "pipeline": "pipeline.self_s",
    "zarankiewicz": "zarankiewicz.self_s",
    "cuttings": "cuttings.self_s",
    "instances": "instances.generate_s",
    "reports": "reports.emit_s",
    "cli": "cli.self_s",
}


def _cover(counts: Counter, args, result) -> None:
    counts["cuttings.cutter_calls"] += 1
    if result is not None:
        counts["cuttings.covers_built"] += 1
        counts["cuttings.cells_total"] += len(result.cells)


# Work counts read from a traced call's arguments and result.
COUNT_HOOKS: dict[str, Callable[[Counter, tuple, object], None]] = {
    "relations.build_relation3": lambda c, a, r: c.update({"relations.tuples_built": len(r)}),
    "relations.build_relation2": lambda c, a, r: c.update({"relations.tuples_built": r.edge_count}),
    "relations.write_relation": lambda c, a, r: c.update(
        {"relations.bytes_written": os.path.getsize(a[0])}
    ),
    "dsl.instantiate3": lambda c, a, r: c.update(
        {"dsl.grid_points": r[0].x.size * r[0].y.size * r[0].z.size}
    ),
    "dsl.instantiate2": lambda c, a, r: c.update({"dsl.grid_points": r.u.size * r.v.size}),
    "cuttings.interval_cutting": _cover,
    "cuttings.box_grid_cutting": _cover,
    "cuttings.greedy_cutting": _cover,
    "cuttings.verify_cutting": lambda c, a, r: c.update({"cuttings.valid_covers": int(r.valid)}),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, layer, op, parent, start, end]
        self.stack: list[int] = []
        self.op = ""
        self.counts: Counter = Counter()
        self.traced: dict[str, Callable] = {}  # span name -> original function

    # --- installation ------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = COUNT_HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, self.op, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][5] = clock()
            if hook is not None:
                try:
                    hook(self.counts, args, result)
                except (AttributeError, TypeError, IndexError, OSError):
                    self.counts["trace.hook_errors"] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        self.traced[name] = fn
        return traced

    def install(self) -> None:
        """Wrap every public function of each layer and rebind all references."""
        replaced: dict[Callable, Callable] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"expd.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if _traceable(attr, obj) and obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    if name not in LEAF_HELPERS:
                        replaced[obj] = self._wrap(obj, name, layer)
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(module, cls_name, None)
                for attr, obj in list(vars(cls).items() if cls is not None else ()):
                    if _traceable(attr, obj):
                        setattr(cls, attr, self._wrap(obj, f"{layer}.{cls_name}.{attr}", layer))
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(module, attr, replaced[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in replaced:
                            value[key] = replaced[item]
                elif isinstance(value, list):
                    for pos, item in enumerate(value):
                        if inspect.isfunction(item) and item in replaced:
                            value[pos] = replaced[item]

    # --- recording -----------------------------------------------------------

    def run_op(self, op: str, fn: Callable, *args):
        """Run one op under a root span that the cli layer owns."""
        self.op = op
        idx = len(self.spans)
        self.spans.append([ROOT, "cli", op, -1, time.perf_counter(), 0.0])
        self.stack.append(idx)
        try:
            return fn(*args)
        finally:
            self.stack.pop()
            self.spans[idx][5] = time.perf_counter()

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counts recorded since the last call."""
        spans, counts = list(self.spans), self.counts
        self.spans.clear()
        self.counts = Counter()
        return spans, counts


def _traceable(attr: str, obj) -> bool:
    return (
        not attr.startswith("_")
        and inspect.isfunction(obj)
        and not inspect.isgeneratorfunction(obj)
    )


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "expd" or n.startswith("expd.")]


# --- analysis ------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    covered = [0.0] * len(spans)
    for _, _, _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(s[5] - s[4]) - covered[i] for i, s in enumerate(spans)]


def summarize(spans: list[list], counts: Counter, scale: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one pass: self times by metric and by layer, each
    multiplied by its op's speed scale, and the work counts."""
    by_name: Counter = Counter()
    by_layer: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        by_name[span[0]] += own * scale[span[2]]
        by_layer[span[1]] += own * scale[span[2]]
    metrics = {m: float(sum(by_name[n] for n in names)) for m, names in TIME_METRICS.items()}
    metrics.update({m: float(by_layer[layer]) for layer, m in LAYER_METRICS.items()})
    for key in ("relations.tuples_built", "relations.bytes_written", "dsl.grid_points",
                "cuttings.covers_built", "cuttings.cells_total", "trace.hook_errors"):
        metrics[key] = counts[key]
    calls = counts["cuttings.cutter_calls"]
    metrics["cuttings.cover_valid_ratio"] = counts["cuttings.valid_covers"] / calls if calls else 0.0
    inst = metrics["dsl.instantiate_s"]
    metrics["dsl.points_per_s"] = counts["dsl.grid_points"] / inst if inst > 0 else 0.0
    metrics["trace.spans"] = len(spans)
    return metrics


def coverage_failures(
    spans: list[list], traced: Iterable[str], expected: Iterable[str]
) -> tuple[int, list[str]]:
    """(checks made, failures): span-tree consistency per op, and the
    functions a workload must reach.

    Per op, the self times of all its spans must add up to the root span's
    duration.  Each expected function that exists in the installed package
    must have fired at least once; one that did not was called through a
    reference the tracer missed, or is no longer on the workload's path.
    """
    failures = []
    per_op: dict[str, float] = {}
    roots: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        name, _, op, parent, start, end = span
        per_op[op] = per_op.get(op, 0.0) + own
        if name == ROOT and parent < 0:
            roots[op] = end - start
    for op, total in per_op.items():
        if abs(total - roots.get(op, math.inf)) > 1e-6:
            failures.append(f"op {op}: self times add to {total:.6f}s, op wall {roots.get(op)}")
    fired = {span[0] for span in spans}
    present = [name for name in expected if name in set(traced)]
    failures += [f"missing span: {name} never fired" for name in present if name not in fired]
    return len(per_op) + len(present), failures


def write_spans(path: str, passes: list[list[list]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for number, spans in enumerate(passes):
            for name, layer, op, parent, start, end in spans:
                fh.write(json.dumps({"pass": number, "op": op, "name": name, "layer": layer,
                                     "parent": parent, "start": start, "end": end}) + "\n")
