"""One benchmark run in a fresh process: set up, then time passes of a workload.

Started by run.py.  Prints ``READY`` once the interpreter is up, ``expd`` is
imported and the workload's seeded inputs are built; with ``--setup-only``
it exits there.  Otherwise it runs passes (every op of the workload once, in
order, one at a time) until ``--seconds`` have passed, checks each op's
output, and prints one JSON line with the per-pass figures.

With ``--trace 1`` the first half of the time runs untraced passes and the
second half traced ones, so the tracing overhead is measured in the same
process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# CPU speed on a shared machine swings by up to 2x within seconds: a fixed
# loop took 83 to 166 ms on a 2-core Xeon VM.  Each op's times are therefore
# scaled to a reference speed, measured by a fixed integer loop run right
# before and right after the op: reported seconds are seconds at the speed
# at which that loop takes CAL_REF_S.  The loop allocates nothing the garbage
# collector tracks, so the state expd leaves behind does not change its speed.
CAL_REF_S = 0.005
CAL_BITS = (1 << 3000) - 1


def calibrate() -> float:
    """Seconds the reference loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(8000):
        acc += k * k % 7 + (CAL_BITS >> k % 2900 & CAL_BITS).bit_count()
    return time.perf_counter() - t0


def cpu_time() -> float:
    """User plus system CPU seconds of this process and any it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_op(cli_main, op, tracer):
    """Run one op in-process; returns (wall_s, cpu_s, failures, stats)."""
    out, err = io.StringIO(), io.StringIO()
    c0, t0 = cpu_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = tracer.run_op(op.label, cli_main, op.argv) if tracer else cli_main(op.argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code
    except Exception as exc:  # a crash is a failed op, not a failed run
        rc = f"raised {exc!r}"
    wall, cpu = time.perf_counter() - t0, cpu_time() - c0
    if isinstance(rc, str):
        return wall, cpu, [rc], {}
    try:
        failures, stats = op.check(rc, out.getvalue())
    except Exception as exc:  # unparsable output
        failures, stats = [f"output check raised {exc!r}"], {}
    if failures and err.getvalue():
        failures.append("stderr: " + err.getvalue().strip()[:300])
    return wall, cpu, failures, stats


def run_pass(cli_main, ops, tracer=None) -> dict:
    """Every op once; wall and CPU seconds per op, scaled to the reference speed."""
    wall, cpu, raw_wall, scale = [], [], [], {}
    failed_ops = 0
    failures: list[str] = []
    stats: dict[str, list] = {}
    before = calibrate()
    for op in ops:
        w, c, fails, st = run_op(cli_main, op, tracer)
        after = calibrate()
        scale[op.label] = CAL_REF_S / ((before + after) / 2)
        before = after
        wall.append(w * scale[op.label])
        cpu.append(c * scale[op.label])
        raw_wall.append(w)
        failed_ops += bool(fails)
        failures += [f"{op.label}: {f}" for f in fails]
        for key, value in st.items():
            stats.setdefault(key, []).append(value)
    return {"wall_s": wall, "cpu_s": cpu, "raw_wall_s": raw_wall, "scale": scale,
            "failed_ops": failed_ops, "failures": failures, "stats": stats}


def run_passes(cli_main, ops, until: float, tracer=None) -> list[dict]:
    """At least one pass; another only while it is expected to end by ``until``."""
    passes = []
    while True:
        started = time.perf_counter()
        passes.append(run_pass(cli_main, ops, tracer))
        if tracer is not None:
            passes[-1]["spans"], passes[-1]["counts"] = tracer.take()
        now = time.perf_counter()
        if now + (now - started) > until:
            return passes


def sum_of_medians(passes: list[dict], key: str) -> float:
    """Per-op medians over the passes, summed over the ops: one workload run."""
    return sum(statistics.median(times) for times in zip(*(p[key] for p in passes)))


def check_stats(stats: dict[str, list]) -> dict[str, float]:
    """Per-layer figures read from the ops' outputs (reports and certificates)."""
    return {
        "pipeline.g_edges": sum(stats.get("g_edges", [])),
        "pipeline.streamed_ops": sum(stats.get("streamed_ops", [])),
        "zarankiewicz.cert_nodes": sum(stats.get("cert_nodes", [])),
        "zarankiewicz.case2_nodes": sum(stats.get("case2_nodes", [])),
        "zarankiewicz.degraded_nodes": sum(stats.get("degraded_nodes", [])),
        "zarankiewicz.cert_depth_max": max(stats.get("cert_depth_max", [0])),
    }


def bound_ratio(stats: dict[str, list]) -> float:
    """Geometric mean of certificate total / exact count over the certify ops;
    1.0 (the empty product) on a workload without certify ops."""
    ratios = stats.get("bound_ratio", [])
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios)) if ratios else 1.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    os.environ.pop("EXPD_THREADS", None)  # scans stay sequential: no thread pool
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from expd import cli
    from workloads import EXPECTED_SPANS, WORKLOADS

    ops = WORKLOADS[args.workload](args.seed, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    start = time.perf_counter()
    end = start + args.seconds
    passes = run_passes(cli.main, ops, start + args.seconds / 2 if args.trace else end)
    failures = [f for p in passes for f in p["failures"]]
    traced = []
    if args.trace:
        from layertrace import Tracer, coverage_failures, summarize, write_spans

        tracer = Tracer()
        tracer.install()
        traced = run_passes(cli.main, ops, end, tracer)
        for p in traced:
            p["layers"] = summarize(p["spans"], p["counts"], p["scale"])
            p["layers"].update(check_stats(p["stats"]))
            checked, coverage = coverage_failures(
                p["spans"], tracer.traced, EXPECTED_SPANS[args.workload]
            )
            p["coverage_checks"], p["coverage_failures"] = checked, coverage
            failures += p["failures"] + coverage
        if args.spans_out:
            write_spans(args.spans_out, [p["spans"] for p in traced])

    result = {
        "passes": len(passes),
        "traced_passes": len(traced),
        "pass_raw_wall_s": [sum(p["raw_wall_s"]) for p in passes],
        "raw_wall_s": sum_of_medians(passes, "raw_wall_s"),
        "wall_s": sum_of_medians(passes, "wall_s"),
        "cpu_s": sum_of_medians(passes, "cpu_s"),
        "traced_wall_s": sum_of_medians(traced, "wall_s") if traced else None,
        "peak_rss_mb": max(resource.getrusage(who).ru_maxrss
                           for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0,
        "attempted": len(ops) * (len(passes) + len(traced))
        + sum(p["coverage_checks"] for p in traced),
        "failed": sum(p["failed_ops"] for p in passes + traced)
        + sum(len(p["coverage_failures"]) for p in traced),
        "failures": failures[:20],
        "bound_ratio": statistics.median(bound_ratio(p["stats"]) for p in passes),
        "layers": {
            key: statistics.median(p["layers"][key] for p in traced)
            for key in (traced[0]["layers"] if traced else {})
        },

    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
