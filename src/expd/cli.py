"""Command-line driver.

Each subcommand accepts exactly the flags it reads (SUBCOMMAND --help lists
them):

  count      a ternary instance, or --expr with --grid-y and --grid-z (binary);
             --seed --format --out --budget-cells
  derive-g   a ternary instance; --seed --out --budget-cells
  certify    a binary instance; --cutter --r --s --t --D --epsilon
             --leaf-size --cert-out --seed --format --out
  cutting    a binary instance; --cutter --r --seed --format --out
  pipeline3  a ternary instance; --k --threshold --seed --out --budget-cells
  scan       a family; --sizes --seed --format --out --budget-cells

A family is --family F [--twists identity|seeded], F one of cyclic,
unitmod:P, cylindrical[:K], dsl or topz, and becomes one pipeline.FamilySpec
of the flags given; make_family refuses a flag its kind does not read (only
cyclic and unitmod:P take seeded twists, dsl and topz take --expr, and dsl
the grids --grid-x/y/z).  A ternary instance is one of --rel FILE, a family
with --n SIZE, or --expr with --grid-x, --grid-y and --grid-z; --n and
--twists apply to a family only.  A binary instance is one of --rel FILE,
--pg Q, --identity N, --interval COUNT:POINTS or --box COUNT:GRIDSIDE.

Exit codes: 0 all checks passed, 2 a checked inequality failed, 3 input
error (a malformed or unknown flag, an abbreviated flag, a flag the
subcommand does not read, a second instance source, a flag the instance
does not read), 4 budget exceeded or out of memory.  Beyond the flags, the
CLI checks no precondition of its own: the library refuses a missing --seed
where a path draws, a bad size list before scan's first build, and any budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import cuttings, dsl, instances, pipeline, reports, zarankiewicz as zk
from .errors import BudgetError, CapacityError, InputError
from .relations import (
    FiniteRelation2,
    FiniteRelation3,
    Subset,
    _write_relation,
    read_relation,
    write_relation,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4


def _emit(args, rows, extra_header: Optional[dict] = None) -> None:
    header = {"subcommand": args.command, "seed": args.seed, **(extra_header or {})}
    sys.stdout.write(reports.emit_report(rows, args.format, args.out, header))


# --- instance construction helpers -----------------------------------------


def _load_rel2(args) -> tuple[str, FiniteRelation2]:
    """(name, relation) of the binary instance; the parser lets one source through."""
    if args.rel:
        rel = read_relation(args.rel)
        if not isinstance(rel, FiniteRelation2):
            raise InputError(f"{args.rel} does not hold a binary relation")
        return args.rel, rel
    if args.pg is not None:
        return f"pg:{args.pg}", instances.pg_incidence(args.pg)
    if args.identity is not None:
        return f"identity:{args.identity}", instances.identity_matching(args.identity)
    if args.interval is not None:
        count, points = _two_ints(args.interval, "--interval COUNT:POINTS")
        rel = instances.random_interval_incidence(args.seed, count, points)
        return f"interval:{args.interval}", rel
    if args.box is not None:
        count, side = _two_ints(args.box, "--box COUNT:GRIDSIDE")
        return f"box:{args.box}", instances.random_rectangle_incidence(args.seed, count, side)
    raise InputError("no instance given (use --rel, --pg, --identity, --interval or --box)")


def _int(text: str, usage: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"expected {usage}, got {text!r}") from None


def _two_ints(text: str, usage: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise InputError(f"expected {usage}, got {text!r}")
    return _int(parts[0], usage), _int(parts[1], usage)


def _family_from_args(args) -> pipeline.RelationFamily:
    """One FamilySpec of the flags as given; make_family refuses those the kind does not read."""
    spec_text = args.family
    if not spec_text:
        raise InputError("no family given (use --family)")
    twists = pipeline.FamilySpec.twists
    if args.twists == "seeded":  # a missing --seed is refused where the twists are drawn
        twists = tuple(("seeded", None if args.seed is None else args.seed + i) for i in range(3))
    grids = tuple(g or d for g, d in zip((args.grid_x, args.grid_y, args.grid_z), pipeline.FamilySpec.grids))
    common = dict(twists=twists, seed=args.seed, expr=args.expr, grids=grids, budget_cells=args.budget_cells)
    if spec_text == "cyclic":
        spec = pipeline.FamilySpec(kind="group_like", group=("cyclic", None), **common)
    elif spec_text.startswith("unitmod:"):
        p = _int(spec_text.split(":", 1)[1], "--family unitmod:P")
        spec = pipeline.FamilySpec(kind="group_like", group=("unit_group_mod", p), **common)
    elif spec_text == "cylindrical" or spec_text.startswith("cylindrical:"):
        block = _int(spec_text.split(":", 1)[1], "--family cylindrical:K") if ":" in spec_text else None
        spec = pipeline.FamilySpec(kind="cylindrical", block=block, **common)
    elif spec_text in ("dsl", "topz"):
        spec = pipeline.FamilySpec(kind=spec_text, **common)
    else:
        raise InputError(f"unknown family {spec_text!r}")
    return pipeline.make_family(spec)


def _rel3_from_args(args) -> tuple[str, FiniteRelation3]:
    """(name, relation) of the one ternary instance given, named by its source."""
    if not args.family and (args.n is not None or args.twists != "identity"):
        raise InputError("--n and --twists apply to --family only; --rel and --expr are whole instances")
    if args.rel:
        if args.family or args.expr or args.grid_x or args.grid_y or args.grid_z:
            raise InputError("--rel is a whole instance; drop --family, --expr and the grids")
        rel = read_relation(args.rel)
        if not isinstance(rel, FiniteRelation3):
            raise InputError(f"{args.rel} does not hold a ternary relation")
        return args.rel, rel
    if args.family:
        if args.n is None:
            raise InputError("--family needs --n SIZE")
        return args.family, _family_from_args(args).build(args.n)
    if args.expr:
        expr = dsl.parse(args.expr)
        if not (args.grid_x and args.grid_y and args.grid_z):
            raise InputError("ternary --expr needs --grid-x, --grid-y and --grid-z")
        grids = [dsl.parse_grid(grid, seed=args.seed) for grid in (args.grid_x, args.grid_y, args.grid_z)]
        rel, _ = dsl.instantiate3(expr, *grids, budget_cells=args.budget_cells)
        return args.expr, rel
    raise InputError("no instance given (use --rel, --family or --expr with grids)")


# --- subcommands -------------------------------------------------------------


def cmd_count(args) -> int:
    ternary_flags = (args.rel, args.family, args.grid_x, args.n is not None, args.twists != "identity")
    if args.expr and args.grid_y and args.grid_z and not any(ternary_flags):
        expr = dsl.parse(args.expr, variables=dsl.BINARY_VARS)
        grids = [dsl.parse_grid(grid, seed=args.seed) for grid in (args.grid_y, args.grid_z)]
        rel2 = dsl.instantiate2(expr, *grids, budget_cells=args.budget_cells)
        instance, sizes, count = f"expr2:{args.expr}", (rel2.u.size, rel2.v.size), rel2.edge_count
    else:
        instance, rel = _rel3_from_args(args)
        sizes, count = (rel.x.size, rel.y.size, rel.z.size), len(rel)
    _emit(args, [reports.ReportRow(instance=instance, n=max(sizes), count=count)])
    return EXIT_OK


def cmd_derive_g(args) -> int:
    _, rel = _rel3_from_args(args)
    g = pipeline.derive_g(rel, budget_cells=args.budget_cells)
    if args.out and args.out != "-":
        write_relation(args.out, g)
    else:
        _write_relation(sys.stdout, g, (", ", ": "))
    _, max_zz, max_yy = pipeline.g_edge_count(rel)
    sys.stdout.write(f"g_edges={g.edge_count} max_zz_fiber={max_zz} max_yy_fiber={max_yy}\n")
    return EXIT_OK


def cmd_certify(args) -> int:
    instance, rel = _load_rel2(args)
    a = Subset.full(rel.u)
    b = Subset.full(rel.v)
    params = zk.exponent_params(args.D, args.t, args.s, args.epsilon)
    n_col = max(rel.u.size, rel.v.size)
    _, cutter = _pick_cutter(args)
    exact = rel.edge_count
    try:
        cert = zk.certified_count(rel, a, b, params, cutter, args.r, args.leaf_size)
    except zk.NotKstFreeError as exc:
        left = "+".join(map(str, exc.witness.s_side))
        right = "+".join(map(str, exc.witness.t_side))
        status = f"inapplicable:K{params.s}x{params.t}@[{left}]x[{right}]"
        _emit(args, [reports.ReportRow(instance=instance, n=n_col, count=exact, status=status)])
        return EXIT_OK
    if args.cert_out:
        with open(args.cert_out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(cert.to_obj(), sort_keys=True) + "\n")
    row = reports.ReportRow(
        instance=instance,
        n=n_col,
        count=exact,
        bound_cert=cert.total,
        kst_bound=zk.kst_bound(params.s, params.t, rel.u.size, rel.v.size),
        delta_bound=zk.distal_delta_bound(params, n_col) if params.t == 2 else None,
        status="ok" if cert.total >= exact else "unsound",
    )
    _emit(args, [row])
    return EXIT_OK if cert.total >= exact else EXIT_CHECK_FAILED


CUTTERS = {
    "interval": cuttings.interval_cutting,
    "box": cuttings.box_grid_cutting,
    "greedy": cuttings.greedy_cutting,
}


def _pick_cutter(args) -> tuple[str, Optional[zk.CutterFn]]:
    """(name, constructor) of the cutter --cutter names; auto picks by instance kind,
    and certify's none is no constructor."""
    kind = args.cutter
    if kind == "auto":
        kind = "interval" if args.interval else ("box" if args.box else "greedy")
    return kind, CUTTERS.get(kind)


def cmd_cutting(args) -> int:
    instance, rel = _load_rel2(args)
    a = Subset.full(rel.u)
    kind, cutter = _pick_cutter(args)
    if not args.rel:  # a generated instance is named by its cutter and its source
        instance = f"{kind}:{args.interval or args.box or instance}"
    cover = cutter(rel, a, args.r)
    if cover is None:
        sys.stdout.write("cutting: constructor returned failure\n")
        return EXIT_CHECK_FAILED
    report = cuttings.verify_cutting(rel, a, args.r, cover)
    row = reports.ReportRow(
        instance=instance,
        n=rel.v.size,
        count=report.cell_count,
        slope=report.fitted_c,
        status="ok" if report.valid else f"invalid:{report.failure}",
    )
    _emit(args, [row], {"r": args.r, "max_crossing": report.max_crossing})
    return EXIT_OK if report.valid else EXIT_CHECK_FAILED


def cmd_pipeline3(args) -> int:
    instance, rel = _rel3_from_args(args)
    dd = pipeline.delta_degree(rel, args.threshold)
    bundle: dict = {"instance": instance, "delta_degree": vars(dd)}  # tuples dump as JSON lists
    witness = pipeline.cylindrical_witness(rel, args.k, budget_cells=args.budget_cells)
    bundle["cylindrical_witness"] = None if witness is None else {"axis": witness.axis, **vars(witness.block)}
    checks_ok = True
    if dd.d is None:
        bundle["fiber_report"] = {"status": "skipped:d-absent"}
        bundle["cauchy_schwarz"] = {"status": "skipped:d-absent"}
    else:
        cs = pipeline.cauchy_schwarz_check(
            rel, Subset.full(rel.x), Subset.full(rel.y), Subset.full(rel.z), dd.d
        )
        bundle["g_edges"] = cs.g_count
        bundle["fiber_report"] = {
            "bound": cs.bound,
            "max_zz_fiber": cs.max_zz_fiber,
            "max_yy_fiber": cs.max_yy_fiber,
            "ok": cs.fiber_law_ok,
        }
        cs_fields = ("f_count", "w_count", "g_count", "d", "rhs", "cs_ok", "fiber_ok", "composed_ok")
        bundle["cauchy_schwarz"] = {field: getattr(cs, field) for field in cs_fields}
        checks_ok = cs.ok
    bundle["checks_ok"] = bool(checks_ok)
    text = json.dumps(bundle, sort_keys=True, indent=2) + "\n"
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK if checks_ok else EXIT_CHECK_FAILED


def cmd_scan(args) -> int:
    sizes = [_int(s, "--sizes N,N,...") for s in args.sizes.split(",")]
    family = _family_from_args(args)
    fit = reports.run_scaling(family, sizes)
    rows = [
        reports.ReportRow(
            instance=family.name,
            n=n,
            count=count,
            slope=fit.slope,
            residual=fit.residual_max,
        )
        for n, count in zip(fit.sizes, fit.counts)
    ]
    _emit(args, rows, {"sizes": args.sizes})
    return EXIT_OK


# --- parser ------------------------------------------------------------------

# every flag of every subcommand, with its add_argument keywords
FLAGS = {
    "--seed": dict(type=int, help="seed for randomized paths"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--out": dict(help="report output path ('-' = stdout only)"),
    "--budget-cells": dict(type=int, default=pipeline.DEFAULT_BUDGET_CELLS),
    "--threshold": dict(type=int, default=8, help="finite proxy threshold"),
    "--rel": dict(help="relation JSON file"),
    "--family": dict(help="cyclic | unitmod:P | cylindrical[:K] | dsl | topz"),
    "--twists": dict(choices=("identity", "seeded"), default="identity"),
    "--n": dict(type=int, help="family size"),
    "--expr": dict(help="relation definition text"),
    "--grid-x": {}, "--grid-y": {}, "--grid-z": {},
    "--pg": dict(type=int, help="projective plane of prime order"),
    "--identity": dict(type=int, help="identity matching size"),
    "--interval": dict(help="COUNT:POINTS seeded interval family"),
    "--box": dict(help="COUNT:GRIDSIDE seeded rectangle family"),
    "--cutter": dict(choices=("auto", *CUTTERS), default="auto"),
    "--r": dict(type=int, default=4, help="cutting parameter"),
    "--s": dict(type=int, default=2), "--t": dict(type=int, default=2), "--D": dict(type=int, default=2),
    "--epsilon": dict(default="1/12", help="rational, e.g. 1/12"),
    "--leaf-size": dict(type=int, default=32),
    "--cert-out": dict(help="certificate JSON path"),
    "--k": dict(type=int, default=2, help="cylinder block size to search for"),
    "--sizes": dict(default="16,32,64,128"),
}
REPORT = ("--seed", "--format", "--out")
FAMILY = ("--family", "--twists", "--expr", "--grid-x", "--grid-y", "--grid-z", "--budget-cells")
TERNARY = ("--rel", "--n", *FAMILY)
BINARY_SOURCES = ("--rel", "--pg", "--identity", "--interval", "--box")  # at most one of them
BINARY = (*BINARY_SOURCES, "--cutter", "--r")
SUBCOMMANDS = {
    "count": (*REPORT, *TERNARY),
    "derive-g": ("--seed", "--out", *TERNARY),
    "certify": (*REPORT, *BINARY, "--s", "--t", "--D", "--epsilon", "--leaf-size", "--cert-out"),
    "cutting": (*REPORT, *BINARY),
    "pipeline3": ("--seed", "--out", "--threshold", "--k", *TERNARY),
    "scan": (*REPORT, "--sizes", *FAMILY),
}


class _Parser(argparse.ArgumentParser):
    """A parser whose errors are input errors: exit 3, not argparse's 2."""

    def error(self, message):
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="expd", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter, allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in SUBCOMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        sources = p.add_mutually_exclusive_group() if "--pg" in flags else p
        for flag in flags:
            kwargs = FLAGS[flag]
            if name == "certify" and flag == "--cutter":  # none: every Case-3 node counts exactly
                kwargs = {**kwargs, "choices": (*kwargs["choices"], "none")}
            (sources if flag in BINARY_SOURCES else p).add_argument(flag, **kwargs)
    return parser


COMMANDS = {
    "count": cmd_count,
    "derive-g": cmd_derive_g,
    "certify": cmd_certify,
    "cutting": cmd_cutting,
    "pipeline3": cmd_pipeline3,
    "scan": cmd_scan,
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except (BudgetError, MemoryError) as exc:  # a MemoryError usually carries no message
        print(f"expd: budget exceeded: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BUDGET
    except CapacityError as exc:
        print(f"expd: capacity: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InputError as exc:
        print(f"expd: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"expd: {exc}", file=sys.stderr)
        return EXIT_INPUT
