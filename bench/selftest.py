"""Self-test of the benchmark's checks: planted wrong answers must fail.

    python3 bench/selftest.py

Runs small real expd ops through the checks the benchmark uses and requires
each real output to pass.  Then it plants a wrong answer in each -- a cyclic
count off by one, a certificate total below the exact count, a traced
function called through a reference the tracer did not rebind, an orphan
span -- and requires each to be reported as a failure.  Exits 0 when every
case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from expd import cli  # noqa: E402
from layertrace import Tracer, coverage_failures  # noqa: E402
from worker import run_op  # noqa: E402
from workloads import (  # noqa: E402
    Op,
    check_certify,
    check_scan,
    epsilon_half_sup,
    interval_instance,
    write_rel2,
)


def capture(argv: list[str]) -> tuple[int, str]:
    result = {}

    def keep(rc: int, stdout: str):
        result["rc"], result["out"] = rc, stdout
        return [], {}

    run_op(cli.main, Op("capture", argv, keep), None)
    return result["rc"], result["out"]


def main() -> int:
    workdir = os.path.join(ROOT, ".bench_out", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    outcomes = []

    def expect(name: str, failures: list[str], should_fail: bool) -> None:
        ok = bool(failures) == should_fail
        outcomes.append(ok)
        detail = failures[0] if failures else "no failure"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")

    try:
        # a cyclic count off by one
        check = check_scan({n: n * n for n in (8, 16, 32)})
        rc, out = capture(["scan", "--family", "cyclic", "--sizes", "8,16,32"])
        expect("real scan output", check(rc, out)[0], False)
        planted = out.replace("cyclic,16,256,", "cyclic,16,257,")
        expect("cyclic count off by one", check(rc, planted)[0], True)
        expect("nonzero exit code", check(3, out)[0], True)

        # a certificate total below the exact count
        rows, overlap = interval_instance(random.Random(5), 60, 200, 12)
        path = os.path.join(workdir, "iv.json")
        cert = os.path.join(workdir, "iv.cert.json")
        write_rel2(path, {"name": "intervals", "size": 60}, {"name": "points", "size": 200}, rows)
        exact = sum(len(row) for row in rows)
        t = overlap + 1
        rc, out = capture(["certify", "--rel", path, "--cutter", "interval", "--t", str(t),
                           "--D", "1", "--epsilon", epsilon_half_sup(1, t), "--r", "4",
                           "--leaf-size", "8", "--cert-out", cert])
        check = check_certify(exact, cert)
        expect("real certify output", check(rc, out)[0], False)
        header, row = [line for line in out.splitlines() if not line.startswith("#")]
        fields = dict(zip(header.split(","), row.split(",")))
        fields["bound_cert"] = str(exact - 1)
        with open(cert, encoding="utf-8") as fh:
            tree = json.load(fh)
        tree["total"] = exact - 1
        with open(cert, "w", encoding="utf-8") as fh:
            json.dump(tree, fh)
        planted = out.replace(row, ",".join(fields[c] for c in header.split(",")))
        expect("certificate total below exact", check(rc, planted)[0], True)

        # a traced function reached through a reference the tracer missed
        tracer = Tracer()
        tracer.install()
        op = Op("scan", ["scan", "--family", "cyclic", "--sizes", "8,16,32"], lambda rc, out: ([], {}))
        expected = ("relations.count_grid3", "relations.build_relation3", "reports.emit_report")
        run_op(cli.main, op, tracer)
        spans, _ = tracer.take()
        expect("real traced op", coverage_failures(spans, tracer.traced, expected)[1], False)
        rebound = cli.count_grid3
        cli.count_grid3 = tracer.traced["relations.count_grid3"]
        try:
            run_op(cli.main, op, tracer)
        finally:
            cli.count_grid3 = rebound
        spans, _ = tracer.take()
        expect("missing span", coverage_failures(spans, tracer.traced, expected)[1], True)

        # a span outside its op's tree breaks the per-op time sum
        run_op(cli.main, op, tracer)
        spans, _ = tracer.take()
        spans.append(["relations.count_grid3", "relations", "scan", -1, 0.0, 0.5])
        expect("orphan span", coverage_failures(spans, tracer.traced, expected)[1], True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{sum(outcomes)}/{len(outcomes)} self-test cases behaved")
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
