"""expd benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run starts fresh worker processes
(bench/worker.py), so peak memory belongs to the run: several that only set
up, for the median set-up time, then one that sets up and runs passes of the
workload for S seconds.  Every op's output is checked.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer ones
(from a traced half of the run) with ``--trace 1``.  The lines before it give
the machine, the unscaled wall time with quartiles over passes, and each
metric by name and unit.
Temp files live under .bench_out/ and are removed after the run; the result
and, for traced runs, the spans are kept there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from layertrace import LAYER_METRICS
from worker import CAL_REF_S, calibrate
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
OUT = os.path.join(ROOT, ".bench_out")
SETUPS = 5  # set-up is timed this many times per run; the median is reported
TIME_LIMIT_S = 170.0


def declared_metrics() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        rev = done.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "expd")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "rev": rev,
        "src_sha256": digest.hexdigest()[:16],
    }


def start_worker(args, workdir: str, *extra: str):
    """Start a worker; returns (process, seconds until it reported READY,
    scaled to the reference speed as op times are)."""
    os.makedirs(workdir)
    env = {k: v for k, v in os.environ.items() if k != "EXPD_THREADS"}
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir, *extra]
    before = calibrate()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.communicate()
        raise RuntimeError(f"worker failed during set-up (exit code {proc.returncode})")
    return proc, elapsed * CAL_REF_S / ((before + calibrate()) / 2)


def finish(proc, deadline: float) -> str:
    """Wait for a worker; returns the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit code {proc.returncode})")
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(args) -> tuple[dict, list[float]]:
    run_dir = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    deadline = time.perf_counter() + TIME_LIMIT_S
    setups = []
    try:
        for k in range(SETUPS - 1):
            proc, elapsed = start_worker(args, os.path.join(run_dir, f"setup{k}"), "--setup-only")
            finish(proc, deadline)
            setups.append(elapsed)
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        extra = ("--spans-out", spans) if args.trace else ()
        proc, elapsed = start_worker(args, os.path.join(run_dir, "main"), *extra)
        setups.append(elapsed)
        lines = finish(proc, deadline).strip().splitlines()
        if not lines:
            raise RuntimeError("worker printed no result")
        return json.loads(lines[-1]), setups
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "expd", "cli.py")):
        print(f"bench: no expd sources under {ROOT}/src; run from the repository root",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    end_to_end, per_layer = declared_metrics()
    info = machine()
    try:
        res, setups = measure(args)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    setup_q = quartiles(setups)
    if args.trace:
        layers = dict(res["layers"])
        layers["trace.overhead_s"] = res["traced_wall_s"] - res["wall_s"]
        metrics = {k: {"value": layers[k], "unit": unit} for k, unit in per_layer.items()}
    else:
        values = {
            "wall_s": res["wall_s"],
            "cpu_s": res["cpu_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": setup_q[1],
            "ok_frac": 1.0 - res["failed"] / res["attempted"],
            "bound_ratio": res["bound_ratio"],
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in end_to_end.items()}

    print(f"bench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
          f"{res['passes']} untraced passes, {res['traced_passes']} traced passes")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    q1, q2, q3 = quartiles(res["pass_raw_wall_s"])
    print(f"  unscaled wall time of one run {res['raw_wall_s']:.4f} s; pass totals over "
          f"{res['passes']} passes: q1 {q1:.4f}, median {q2:.4f}, q3 {q3:.4f} s")
    for name, m in metrics.items():
        note = ""
        if name == "setup_s":
            q1, q2, q3 = setup_q
            note = f"  (over {len(setups)} set-ups: q1 {q1:.4f}, median {q2:.4f}, q3 {q3:.4f})"
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}{note}")
    if args.trace:
        shares = {k: layers[m] for k, m in LAYER_METRICS.items() if layers[m] > 0}
        total = sum(shares.values())
        print("self time by layer: " + ", ".join(
            f"{k} {v / total:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    record = dict(result, machine=info, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, setups_s=setups,
                  raw_wall_s=res["raw_wall_s"], pass_raw_wall_s=res["pass_raw_wall_s"],
                  failures=res["failures"])
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
