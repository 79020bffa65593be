"""The four benchmark workloads: seeded inputs, CLI ops and their output checks.

``WORKLOADS[name](seed, workdir)`` writes the workload's input files into
``workdir`` and returns its ops.  An op is one ``expd`` CLI invocation (an
argv list) plus a check that maps the exit code and the captured stdout to a
list of failure messages (empty when the output is correct) and a dict of
stats that the reports read.

The checks compare exact values only where mathematics fixes them (a cyclic
or twisted count is n^2, |G| = n^3, d = 1, ...) or where set-up computed them
independently of expd; everything else is a soundness invariant (certificate
total >= exact count, cover valid and within its cap).  Raw report bytes are
never compared, so added report columns or header fields do not fail a check.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

Check = Callable[[int, str], tuple[list[str], dict]]


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Check


# --- output parsing ------------------------------------------------------------


def csv_rows(stdout: str) -> list[dict]:
    """Rows of a CSV report as dicts keyed by the header line's column names."""
    lines = [line for line in stdout.splitlines() if line and not line.startswith("#")]
    if not lines:
        raise ValueError("no CSV report on stdout")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def key_values(line: str) -> dict:
    return dict(token.split("=", 1) for token in line.split() if "=" in token)


def loglog_slope(sizes, counts) -> float:
    xs = [math.log(n) for n in sizes]
    ys = [math.log(c) for c in counts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def _exit_ok(rc: int, failures: list[str]) -> None:
    if rc != 0:
        failures.append(f"exit code {rc}, expected 0")


# --- checks ----------------------------------------------------------------------


def check_scan(expected: dict[int, int]) -> Check:
    """Every size present with its exact count; the slope is the fit of those counts."""
    slope = loglog_slope(list(expected), list(expected.values()))

    def check(rc: int, stdout: str):
        failures: list[str] = []
        _exit_ok(rc, failures)
        rows = csv_rows(stdout)
        got = {int(row["n"]): int(row["count"]) for row in rows}
        if got != expected:
            failures.append(f"counts {got} != expected {expected}")
        for row in rows:
            if not _close(float(row["slope"]), slope):
                failures.append(f"slope {row['slope']} != {slope:.12g}")
                break
        return failures, {}

    return check


def check_count(expected: int) -> Check:
    def check(rc: int, stdout: str):
        failures: list[str] = []
        _exit_ok(rc, failures)
        (row,) = csv_rows(stdout)
        if int(row["count"]) != expected:
            failures.append(f"count {row['count']} != expected {expected}")
        return failures, {}

    return check


def cert_stats(obj: dict) -> dict:
    """Node count, Case-2 and degraded nodes and depth of a certificate tree."""
    stats = {"cert_nodes": 0, "case2_nodes": 0, "degraded_nodes": 0, "cert_depth_max": 0}
    stack = [(obj, 0)]
    while stack:
        node, depth = stack.pop()
        stats["cert_nodes"] += 1
        stats["case2_nodes"] += str(node.get("case", "")).startswith("Case2")
        stats["degraded_nodes"] += bool(node.get("degraded", False))
        stats["cert_depth_max"] = max(stats["cert_depth_max"], depth)
        stack.extend((child, depth + 1) for child in node.get("children", ()))
    return stats


def check_certify(exact: int, cert_path: str) -> Check:
    """Status ok, exact count right, certified total >= exact, and the
    certificate file agrees with the reported total."""

    def check(rc: int, stdout: str):
        failures: list[str] = []
        _exit_ok(rc, failures)
        (row,) = csv_rows(stdout)
        if row["status"] != "ok":
            failures.append(f"status {row['status']!r}, expected 'ok'")
        if int(row["count"]) != exact:
            failures.append(f"exact count {row['count']} != {exact}")
        total = int(row["bound_cert"])
        if total < exact:
            failures.append(f"certificate total {total} < exact count {exact}")
        with open(cert_path, encoding="utf-8") as fh:
            cert = json.load(fh)
        if cert.get("total") != total:
            failures.append(f"certificate file total {cert.get('total')} != row total {total}")
        stats = cert_stats(cert)
        stats["bound_ratio"] = total / exact
        return failures, stats

    return check


def check_cutting(kind: str, r: int) -> Check:
    """Cover valid; interval covers have <= 2r cells, box covers fitted_c <= 8."""

    def check(rc: int, stdout: str):
        failures: list[str] = []
        _exit_ok(rc, failures)
        (row,) = csv_rows(stdout)
        if row["status"] != "ok":
            failures.append(f"cover status {row['status']!r}")
        cells = int(row["count"])
        if kind == "interval" and cells > 2 * r:
            failures.append(f"{cells} interval cells > 2r = {2 * r}")
        if kind == "box" and float(row["slope"]) > 8.0:
            failures.append(f"box fitted_c {row['slope']} > 8")
        return failures, {}

    return check


def check_pipeline3(d: int, f: int, w: int, g: int) -> Check:
    """Degree, |G|, the d^2 fiber law and the exact Cauchy-Schwarz counts."""

    def check(rc: int, stdout: str):
        failures: list[str] = []
        _exit_ok(rc, failures)
        bundle = json.loads(stdout)
        if bundle.get("checks_ok") is not True:
            failures.append("checks_ok is not true")
        if bundle["delta_degree"]["d"] != d:
            failures.append(f"d = {bundle['delta_degree']['d']}, expected {d}")
        if bundle.get("g_edges") != g:
            failures.append(f"g_edges = {bundle.get('g_edges')}, expected {g}")
        fiber = bundle["fiber_report"]
        if fiber.get("ok") is not True or max(fiber["max_zz_fiber"], fiber["max_yy_fiber"]) > d * d:
            failures.append(f"fiber law violated: {fiber}")
        cs = bundle["cauchy_schwarz"]
        got = (cs["f_count"], cs["w_count"], cs["g_count"])
        if got != (f, w, g):
            failures.append(f"Cauchy-Schwarz counts {got} != {(f, w, g)}")
        if not (cs["cs_ok"] and cs["fiber_ok"] and cs["composed_ok"]):
            failures.append(f"Cauchy-Schwarz inequality reported false: {cs}")
        streamed = fiber.get("mode") == "streamed"
        return failures, {"g_edges": bundle.get("g_edges") or 0, "streamed_ops": int(streamed)}

    return check


def check_derive_g(n: int, g_path: str) -> Check:
    """Twisted cyclic: |G| = n^3 and every G fiber has size 1 (d = 1)."""

    def check(rc: int, stdout: str):
        failures: list[str] = []
        _exit_ok(rc, failures)
        summary = key_values(stdout.strip().splitlines()[-1])
        if int(summary["g_edges"]) != n**3:
            failures.append(f"g_edges = {summary['g_edges']}, expected {n**3}")
        if int(summary["max_zz_fiber"]) > 1 or int(summary["max_yy_fiber"]) > 1:
            failures.append(f"G fiber above d^2 = 1: {summary}")
        with open(g_path, encoding="utf-8") as fh:
            obj = json.load(fh)
        sizes = [u["size"] for u in obj["universes"]]
        if obj["kind"] != "rel2" or sizes != [n * n, n * n] or len(obj["pairs"]) != n**3:
            failures.append(f"G file: kind {obj['kind']}, sizes {sizes}, {len(obj['pairs'])} pairs")
        return failures, {"g_edges": int(summary["g_edges"])}

    return check


# --- seeded inputs ---------------------------------------------------------------


def write_rel2(path: str, u: dict, v: dict, rows: list[list[int]]) -> None:
    """A relation file in the documented format; rows[i] lists i's right indices."""
    obj = {
        "kind": "rel2",
        "universes": [u, v],
        "pairs": [[i, j] for i, row in enumerate(rows) for j in row],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")


def interval_instance(rng: random.Random, count: int, points: int, max_len: int):
    """(rows, max pairwise intersection) for seeded intervals over ordered points."""
    spans = []
    for _ in range(count):
        length = rng.randint(1, max_len)
        lo = rng.randint(0, points - length)
        spans.append((lo, lo + length - 1))
    by_lo = sorted(spans)
    best = 0
    for idx, (lo, hi) in enumerate(by_lo):
        for lo2, hi2 in by_lo[idx + 1 :]:
            if lo2 > hi:
                break
            best = max(best, min(hi, hi2) - lo2 + 1)
    return [list(range(lo, hi + 1)) for lo, hi in spans], best


def box_instance(rng: random.Random, count: int, side: int, max_extent: int):
    """(rows, max pairwise intersection) for seeded axis-parallel boxes over the
    side x side point grid; point (x, y) has index x * side + y."""
    boxes = []
    for _ in range(count):
        w = rng.randint(0, max_extent - 1)
        h = rng.randint(0, max_extent - 1)
        x1 = rng.randint(0, side - 1 - w)
        y1 = rng.randint(0, side - 1 - h)
        boxes.append((x1, x1 + w, y1, y1 + h))
    by_x = sorted(boxes)
    best = 0
    for idx, (ax1, ax2, ay1, ay2) in enumerate(by_x):
        for bx1, bx2, by1, by2 in by_x[idx + 1 :]:
            if bx1 > ax2:
                break
            dx = min(ax2, bx2) - bx1 + 1
            dy = min(ay2, by2) - max(ay1, by1) + 1
            if dy > 0:
                best = max(best, dx * dy)
    rows = [
        [x * side + y for x in range(x1, x2 + 1) for y in range(y1, y2 + 1)]
        for x1, x2, y1, y2 in boxes
    ]
    return rows, best


def epsilon_half_sup(D: int, t: int) -> str:
    """epsilon = epsilon_sup / 2, where epsilon_sup = (t-1) / (t(Dt-1))."""
    eps = Fraction(t - 1, t * (D * t - 1)) / 2
    return f"{eps.numerator}/{eps.denominator}"


# --- workloads -------------------------------------------------------------------


def scan_grouplike(seed: int, workdir: str) -> list[Op]:
    """Group-like scans: relation construction and count_grid3, nothing else."""
    plain = [128, 256, 512, 768]
    twisted = [64, 128, 256, 384]
    return [
        Op(
            "scan-cyclic",
            ["scan", "--family", "cyclic", "--sizes", ",".join(map(str, plain))],
            check_scan({n: n * n for n in plain}),
        ),
        Op(
            "scan-cyclic-twisted",
            ["scan", "--family", "cyclic", "--twists", "seeded", "--seed", str(seed),
             "--sizes", ",".join(map(str, twisted))],
            check_scan({n: n * n for n in twisted}),
        ),
    ]


def pair_relation(seed: int, workdir: str) -> list[Op]:
    """The derived pair relation G: materialized, d = 2, streamed, and written out."""
    twisted = ["--family", "cyclic", "--twists", "seeded", "--seed", str(seed)]
    p = 61
    g_path = os.path.join(workdir, "g.json")

    def cyclic(n: int) -> Check:
        return check_pipeline3(d=1, f=n * n, w=n**3, g=n**3)

    return [
        Op("pipeline3-twisted-64", ["pipeline3", *twisted, "--n", "64"], cyclic(64)),
        Op(
            "pipeline3-squares-mod61",
            ["pipeline3", "--expr", f"x^2 + y^2 = z mod {p}",
             "--grid-x", "fullmod", "--grid-y", "fullmod", "--grid-z", "fullmod"],
            # z = x^2 + y^2 fixes (y, y', z, z') up to the (p+1)/2 values of x^2
            check_pipeline3(d=2, f=p * p, w=p**3, g=p * p * (p + 1) // 2),
        ),
        Op(
            "pipeline3-twisted-80-streamed",
            ["pipeline3", *twisted, "--n", "80", "--budget-cells", "4000000"],
            cyclic(80),
        ),
        Op(
            "derive-g-twisted-48",
            ["derive-g", *twisted, "--n", "48", "--out", g_path],
            check_derive_g(48, g_path),
        ),
    ]


def certify_cuttings(seed: int, workdir: str) -> list[Op]:
    """Certified counts and cutting covers on seeded interval and box files."""
    ops: list[Op] = []
    instances = [
        ("interval", 1, 1000, 4096, 16),
        ("interval", 2, 1000, 4096, 16),
        ("box", 1, 300, 32, 4),
        ("box", 2, 400, 36, 4),
        ("box", 3, 500, 40, 4),
        ("box", 4, 600, 48, 4),
    ]
    for kind, idx, count, size, extent in instances:
        rng = random.Random(seed * 1000003 + idx * 101 + len(kind))
        path = os.path.join(workdir, f"{kind}{idx}.json")
        if kind == "interval":
            rows, overlap = interval_instance(rng, count, size, extent)
            write_rel2(path, {"name": "intervals", "size": count}, {"name": "points", "size": size}, rows)
            D, rs, cut_rs = 1, (4, 8), (4, 8)
        else:
            rows, overlap = box_instance(rng, count, size, extent)
            labels = [f"{x},{y}" for x in range(size) for y in range(size)]
            write_rel2(path, {"name": "rects", "size": count},
                       {"name": "points", "size": size * size, "labels": labels}, rows)
            D, rs, cut_rs = 2, (4, 8), (2, 4, 8)
        exact = sum(len(row) for row in rows)
        t = overlap + 1  # no two fibers share t points: K_{2,t}-free
        for r in rs:
            cert_path = os.path.join(workdir, f"{kind}{idx}-r{r}.cert.json")
            ops.append(Op(
                f"certify-{kind}{idx}-r{r}",
                ["certify", "--rel", path, "--cutter", kind, "--s", "2", "--t", str(t),
                 "--D", str(D), "--epsilon", epsilon_half_sup(D, t), "--r", str(r),
                 "--leaf-size", "8", "--cert-out", cert_path],
                check_certify(exact, cert_path),
            ))
        for r in cut_rs:
            ops.append(Op(
                f"cutting-{kind}{idx}-r{r}",
                ["cutting", "--rel", path, "--cutter", kind, "--r", str(r)],
                check_cutting(kind, r),
            ))
    q = 31
    pg_cert = os.path.join(workdir, "pg.cert.json")
    ops.append(Op(
        f"certify-pg{q}",
        ["certify", "--pg", str(q), "--cert-out", pg_cert],
        # q^2+q+1 points, each on q+1 lines
        check_certify((q * q + q + 1) * (q + 1), pg_cert),
    ))
    return ops


def dsl_grids(seed: int, workdir: str) -> list[Op]:
    """DSL instantiation: brute force, large powers, solved variable, binary, topz."""
    from expd import dsl  # grid resolution only; the counts below are independent

    rand = {"x": "rand:300:0:3000", "y": "rand:300:0:300", "z": "rand:3000:0:27009000"}
    vx, vy, vz = (dsl.parse_grid(rand[v], seed=seed).resolve() for v in "xyz")
    zset = set(vz)
    solved_count = sum(1 for a in vx for b in vy if a * a + b**3 in zset)

    p2 = 401
    squares = [0] * p2
    for y in range(p2):
        squares[y * y % p2] += 1
    curve_points = sum(squares[(z**3 + 7) % p2] for z in range(p2))

    topz_sizes = [32, 64, 128, 256]
    topz = {}
    for n in topz_sizes:
        freq: dict[int, int] = {}
        for a in range(n):
            for b in range(n):
                v = a * a + b**3
                freq[v] = freq.get(v, 0) + 1
        # the n most frequent values of x^2 + y^3; ties cannot change the sum
        topz[n] = sum(sorted(freq.values(), reverse=True)[:n])

    full = ["--grid-x", "fullmod", "--grid-y", "fullmod", "--grid-z", "fullmod"]
    return [
        # x, y nonzero, z = (xy)^-1: (p-1)^2 triples
        Op("count-xyz-mod89", ["count", "--expr", "x*y*z = 1 mod 89", *full], check_count(88 * 88)),
        Op("count-pow200-mod211", ["count", "--expr", "x^200 + y^3 = z mod 211", *full],
           check_count(211 * 211)),
        Op(
            "count-solved-rand",
            ["count", "--expr", "x^2 + y^3 = z", "--seed", str(seed),
             "--grid-x", rand["x"], "--grid-y", rand["y"], "--grid-z", rand["z"]],
            check_count(solved_count),
        ),
        Op("count-curve-mod401",
           ["count", "--expr", f"y^2 = z^3 + 7 mod {p2}", "--grid-y", "fullmod", "--grid-z", "fullmod"],
           check_count(curve_points)),
        Op(
            "scan-topz",
            ["scan", "--family", "topz", "--expr", "x^2 + y^3 = z",
             "--sizes", ",".join(map(str, topz_sizes))],
            check_scan(topz),
        ),
    ]


WORKLOADS: dict[str, Callable[[int, str], list[Op]]] = {
    "scan-grouplike": scan_grouplike,
    "pair-relation": pair_relation,
    "certify-cuttings": certify_cuttings,
    "dsl-grids": dsl_grids,
}

# Traced functions each workload exists to exercise: every one that the
# installed package still defines must fire in every traced pass.
EXPECTED_SPANS: dict[str, tuple[str, ...]] = {
    "scan-grouplike": (
        "cli.cmd_scan",
        "pipeline.make_family",
        "pipeline.RelationFamily.build",
        "relations.build_relation3",
        "relations.count_grid3",
        "reports.fit_loglog",
        "reports.emit_report",
    ),
    "pair-relation": (
        "cli.cmd_pipeline3",
        "cli.cmd_derive_g",
        "pipeline.RelationFamily.build",
        "pipeline.delta_degree",
        "pipeline.cylindrical_witness",
        "zarankiewicz.find_kst",
        "pipeline.derive_g",
        "pipeline.check_g_fiber_bounds",
        "pipeline.g_edge_count",
        "pipeline.cauchy_schwarz_check",
        "relations.FiniteRelation3.group_by_x",
        "relations.build_relation3",
        "relations.write_relation",
        "dsl.instantiate3",
    ),
    "certify-cuttings": (
        "cli.cmd_certify",
        "cli.cmd_cutting",
        "relations.read_relation",
        "relations.count_grid2",
        "zarankiewicz.find_kst",
        "zarankiewicz.certified_count",
        "cuttings.interval_cutting",
        "cuttings.box_grid_cutting",
        "cuttings.greedy_cutting",
        "cuttings.verify_cutting",
        "instances.pg_incidence",
        "reports.emit_report",
    ),
    "dsl-grids": (
        "cli.cmd_count",
        "cli.cmd_scan",
        "dsl.parse",
        "dsl.parse_grid",
        "dsl.instantiate3",
        "dsl.instantiate2",
        "pipeline.top_frequent_family",
        "pipeline.RelationFamily.build",
        "relations.build_relation3",
        "relations.build_relation2",
        "reports.fit_loglog",
        "reports.emit_report",
    ),
}
