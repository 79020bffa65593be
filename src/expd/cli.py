"""Command-line driver.

Subcommands: count, derive-g, certify, cutting, pipeline3, scan.
Global flags: --seed, --format {csv,json}, --out PATH, --threshold,
--budget-cells.

Exit codes: 0 all checks passed, 2 a checked inequality failed, 3 input
error, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import cuttings, dsl, instances, pipeline, reports, zarankiewicz as zk
from .errors import BudgetError, CapacityError, ExpdError, InputError
from .relations import (
    FiniteRelation2,
    FiniteRelation3,
    Subset,
    count_grid2,
    _write_relation,
    read_relation,
    write_relation,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4


def _require_seed(args) -> int:
    if args.seed is None:
        raise InputError("this path is randomized; --seed is mandatory")
    return args.seed


def _emit(args, rows, extra_header: Optional[dict] = None) -> None:
    header = {"subcommand": args.command, "seed": args.seed}
    if extra_header:
        header.update(extra_header)
    text = reports.emit_report(rows, args.format, args.out, header)
    sys.stdout.write(text)


# --- instance construction helpers -----------------------------------------


def _load_rel2(args) -> FiniteRelation2:
    if args.rel:
        rel = read_relation(args.rel)
        if not isinstance(rel, FiniteRelation2):
            raise InputError(f"{args.rel} does not hold a binary relation")
        return rel
    if args.pg is not None:
        return instances.pg_incidence(args.pg)
    if args.identity is not None:
        return instances.identity_matching(args.identity)
    if args.interval is not None:
        count, points = _two_ints(args.interval, "--interval COUNT:POINTS")
        return instances.random_interval_incidence(_require_seed(args), count, points)
    if args.box is not None:
        count, side = _two_ints(args.box, "--box COUNT:GRIDSIDE")
        return instances.random_rectangle_incidence(_require_seed(args), count, side)
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
    spec_text = args.family
    twists = ("identity", "identity", "identity")
    if getattr(args, "twists", "identity") == "seeded":
        seed = _require_seed(args)
        twists = (("seeded", seed), ("seeded", seed + 1), ("seeded", seed + 2))
    if spec_text == "cyclic":
        return pipeline.make_family(
            pipeline.FamilySpec(kind="group_like", group=("cyclic", None), twists=twists)
        )
    if spec_text.startswith("unitmod:"):
        p = _int(spec_text.split(":", 1)[1], "--family unitmod:P")
        return pipeline.make_family(
            pipeline.FamilySpec(kind="group_like", group=("unit_group_mod", p), twists=twists)
        )
    if spec_text == "cylindrical" or spec_text.startswith("cylindrical:"):
        block = None
        if ":" in spec_text:
            block = _int(spec_text.split(":", 1)[1], "--family cylindrical:K")
        return pipeline.make_family(
            pipeline.FamilySpec(kind="cylindrical", block=block, seed=args.seed or 0)
        )
    if spec_text == "dsl":
        if not args.expr:
            raise InputError("--family dsl needs --expr")
        grids = (
            args.grid_x or "range:0:{n}:1",
            args.grid_y or "range:0:{n}:1",
            args.grid_z or "range:0:{n}:1",
        )
        return pipeline.make_family(
            pipeline.FamilySpec(
                kind="dsl", expr=args.expr, grids=grids, seed=args.seed or 0, budget_cells=args.budget_cells
            )
        )
    if spec_text == "topz":
        if not args.expr:
            raise InputError("--family topz needs --expr")
        return pipeline.top_frequent_family(args.expr)
    raise InputError(f"unknown family {spec_text!r}")


def _rel3_from_args(args) -> FiniteRelation3:
    if args.rel:
        rel = read_relation(args.rel)
        if not isinstance(rel, FiniteRelation3):
            raise InputError(f"{args.rel} does not hold a ternary relation")
        return rel
    if args.family:
        if not args.n:
            raise InputError("--family needs --n SIZE")
        return _family_from_args(args).build(args.n).rel
    if args.expr:
        expr = dsl.parse(args.expr)
        gx = dsl.parse_grid(args.grid_x, seed=args.seed) if args.grid_x else None
        gy = dsl.parse_grid(args.grid_y, seed=args.seed) if args.grid_y else None
        gz = dsl.parse_grid(args.grid_z, seed=args.seed) if args.grid_z else None
        if not (gx and gy and gz):
            raise InputError("ternary --expr needs --grid-x, --grid-y and --grid-z")
        rel, _ = dsl.instantiate3(expr, gx, gy, gz, budget_cells=args.budget_cells)
        return rel
    raise InputError("no instance given (use --rel, --family or --expr with grids)")


# --- subcommands -------------------------------------------------------------


def cmd_count(args) -> int:
    if args.expr and not args.grid_x and args.grid_y and args.grid_z:
        expr = dsl.parse(args.expr, variables=dsl.BINARY_VARS)
        rel2 = dsl.instantiate2(
            expr,
            dsl.parse_grid(args.grid_y, seed=args.seed),
            dsl.parse_grid(args.grid_z, seed=args.seed),
            budget_cells=args.budget_cells,
        )
        row = reports.ReportRow(
            instance=f"expr2:{args.expr}", n=max(rel2.u.size, rel2.v.size), count=rel2.edge_count
        )
        _emit(args, [row])
        return EXIT_OK
    rel = _rel3_from_args(args)
    row = reports.ReportRow(
        instance=args.family or args.expr or args.rel or "rel3",
        n=max(rel.x.size, rel.y.size, rel.z.size),
        count=len(rel),
    )
    _emit(args, [row])
    return EXIT_OK


def cmd_derive_g(args) -> int:
    rel = _rel3_from_args(args)
    g = pipeline.derive_g(rel, budget_cells=args.budget_cells)
    if args.out and args.out != "-":
        write_relation(args.out, g)
    else:
        _write_relation(sys.stdout, g, (", ", ": "))
    _, max_zz, max_yy = pipeline.g_edge_count(rel)
    sys.stdout.write(
        f"g_edges={g.edge_count} max_zz_fiber={max_zz} max_yy_fiber={max_yy}\n"
    )
    return EXIT_OK


def cmd_certify(args) -> int:
    rel = _load_rel2(args)
    a = Subset.full(rel.u)
    b = Subset.full(rel.v)
    params = zk.exponent_params(args.D, args.t, args.s, args.epsilon)
    n_col = max(rel.u.size, rel.v.size)
    given = (("pg", args.pg), ("identity", args.identity), ("interval", args.interval), ("box", args.box))
    instance = args.rel or args.family or next(f"{flag}:{value}" for flag, value in given if value is not None)
    _, cutter = _pick_cutter(args)
    try:
        cert = zk.certified_count(rel, a, b, params, cutter, args.r, args.leaf_size)
    except zk.NotKstFreeError as exc:
        left = "+".join(map(str, exc.witness.s_side))
        right = "+".join(map(str, exc.witness.t_side))
        row = reports.ReportRow(
            instance=instance,
            n=n_col,
            count=count_grid2(rel, a, b),
            status=f"inapplicable:K{params.s}x{params.t}@[{left}]x[{right}]",
        )
        _emit(args, [row])
        return EXIT_OK
    exact = count_grid2(rel, a, b)
    if args.cert_out:
        with open(args.cert_out, "w", encoding="utf-8") as fh:
            json.dump(cert.to_obj(), fh, sort_keys=True)
            fh.write("\n")
    row = reports.ReportRow(
        instance=instance,
        n=n_col,
        count=exact,
        bound_cert=cert.total,
        kst_bound=zk.kst_bound(params.s, params.t, a.cardinality(), b.cardinality()),
        delta_bound=zk.distal_delta_bound(params, n_col) if params.t == 2 else None,
        status="ok" if cert.total >= exact else "unsound",
    )
    _emit(args, [row])
    return EXIT_OK if cert.total >= exact else EXIT_CHECK_FAILED


def _pick_cutter(args) -> tuple[str, Optional[zk.CutterFn]]:
    """(name, constructor) of the cutter --cutter names; auto picks by instance kind."""
    kind = args.cutter
    if kind == "auto":
        kind = "interval" if args.interval else ("box" if args.box else "greedy")
    cutters = {
        "interval": cuttings.interval_cutting,
        "box": cuttings.box_grid_cutting,
        "greedy": cuttings.greedy_cutting,
        "none": None,
    }
    return kind, cutters[kind]


def cmd_cutting(args) -> int:
    rel = _load_rel2(args)
    a = Subset.full(rel.u)
    kind, cutter = _pick_cutter(args)
    if cutter is None:
        raise InputError("cutting needs a constructor, not --cutter none")
    cover = cutter(rel, a, args.r)
    if cover is None:
        sys.stdout.write("cutting: constructor returned failure\n")
        return EXIT_CHECK_FAILED
    report = cuttings.verify_cutting(rel, a, args.r, cover)
    row = reports.ReportRow(
        instance=args.rel or f"{kind}:{args.interval or args.box or ''}",
        n=rel.v.size,
        count=report.cell_count,
        slope=report.fitted_c,
        status="ok" if report.valid else f"invalid:{report.failure}",
    )
    _emit(args, [row], {"r": args.r, "max_crossing": report.max_crossing})
    return EXIT_OK if report.valid else EXIT_CHECK_FAILED


def cmd_pipeline3(args) -> int:
    rel = _rel3_from_args(args)
    bundle: dict = {"instance": args.family or args.expr or args.rel}
    dd = pipeline.delta_degree(rel, args.threshold)
    bundle["delta_degree"] = {
        "d": dd.d,
        "pairing_maxima": list(dd.pairing_maxima),
        "threshold": dd.threshold,
    }
    witness = pipeline.cylindrical_witness(rel, args.k, budget_cells=args.budget_cells)
    bundle["cylindrical_witness"] = (
        None
        if witness is None
        else {
            "axis": witness.axis,
            "s_side": list(witness.block.s_side),
            "t_side": list(witness.block.t_side),
        }
    )
    checks_ok = True
    if dd.d is None:
        bundle["fiber_report"] = {"status": "skipped:d-absent"}
        bundle["cauchy_schwarz"] = {"status": "skipped:d-absent"}
    else:
        cs = pipeline.cauchy_schwarz_check(
            rel, Subset.full(rel.x), Subset.full(rel.y), Subset.full(rel.z), dd.d
        )
        if cs.g_count > args.budget_cells:
            raise BudgetError(
                f"|G| = {cs.g_count} exceeds the cell budget {args.budget_cells}"
            )
        bundle["g_edges"] = cs.g_count
        bundle["fiber_report"] = {
            "bound": cs.bound,
            "max_zz_fiber": cs.max_zz_fiber,
            "max_yy_fiber": cs.max_yy_fiber,
            "ok": cs.fiber_law_ok,
        }
        bundle["cauchy_schwarz"] = {
            "f_count": cs.f_count,
            "w_count": cs.w_count,
            "g_count": cs.g_count,
            "d": cs.d,
            "rhs": cs.rhs,
            "cs_ok": cs.cs_ok,
            "fiber_ok": cs.fiber_ok,
            "composed_ok": cs.composed_ok,
        }
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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="seed for randomized paths")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None, help="report output path ('-' = stdout only)")
    common.add_argument("--threshold", type=int, default=8, help="finite proxy threshold")
    common.add_argument("--budget-cells", type=int, default=pipeline.DEFAULT_BUDGET_CELLS)

    inst = argparse.ArgumentParser(add_help=False)
    inst.add_argument("--rel", default=None, help="relation JSON file")
    inst.add_argument("--expr", default=None, help="relation definition text")
    inst.add_argument("--grid-x", default=None)
    inst.add_argument("--grid-y", default=None)
    inst.add_argument("--grid-z", default=None)
    inst.add_argument("--family", default=None, help="cyclic | unitmod:P | cylindrical[:K] | dsl | topz")
    inst.add_argument("--twists", choices=("identity", "seeded"), default="identity")
    inst.add_argument("--n", type=int, default=None, help="family size")

    rel2 = argparse.ArgumentParser(add_help=False)
    rel2.add_argument("--pg", type=int, default=None, help="projective plane of prime order")
    rel2.add_argument("--identity", type=int, default=None, help="identity matching size")
    rel2.add_argument("--interval", default=None, help="COUNT:POINTS seeded interval family")
    rel2.add_argument("--box", default=None, help="COUNT:GRIDSIDE seeded rectangle family")
    rel2.add_argument("--cutter", choices=("auto", "interval", "box", "greedy", "none"), default="auto")
    rel2.add_argument("--r", type=int, default=4, help="cutting parameter")

    parser = argparse.ArgumentParser(prog="expd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("count", parents=[common, inst])
    sub.add_parser("derive-g", parents=[common, inst])

    p_certify = sub.add_parser("certify", parents=[common, inst, rel2])
    p_certify.add_argument("--s", type=int, default=2)
    p_certify.add_argument("--t", type=int, default=2)
    p_certify.add_argument("--D", type=int, default=2)
    p_certify.add_argument("--epsilon", default="1/12", help="rational, e.g. 1/12")
    p_certify.add_argument("--leaf-size", type=int, default=32)
    p_certify.add_argument("--cert-out", default=None, help="certificate JSON path")

    sub.add_parser("cutting", parents=[common, inst, rel2])

    p_pipe = sub.add_parser("pipeline3", parents=[common, inst])
    p_pipe.add_argument("--k", type=int, default=2, help="cylinder block size to search for")

    p_scan = sub.add_parser("scan", parents=[common, inst])
    p_scan.add_argument("--sizes", default="16,32,64,128")

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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except BudgetError as exc:
        print(f"expd: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CapacityError as exc:
        print(f"expd: capacity: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InputError as exc:
        print(f"expd: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ExpdError as exc:
        print(f"expd: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"expd: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
