"""Fail on any executable line of src/expd that the tier-1 suite never runs.

    python tools/linecov/report.py

Runs the whole suite, ``python -m pytest -q --continue-on-collection-errors``,
from the repository root with this directory on PYTHONPATH, so that sitecustomize.py
traces the suite and every ``python -m expd`` subprocess it starts.  Then it
lists each executable line (a line the compiler gives an instruction) that no
process ran.  Exits 1 if there is one, and with pytest's status if the suite
fails.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src", "expd")


def executable_lines(path: str) -> set[int]:
    with open(path, encoding="utf-8") as fh:
        codes = [compile(fh.read(), path, "exec")]
    lines = set()
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # line 0 is the module's start-up
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_suite() -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and, per module file name, the lines any process ran."""
    hits: dict[str, set[int]] = {}
    with tempfile.TemporaryDirectory() as out:
        path = os.pathsep.join(filter(None, (HERE, os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))))
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=path, LINECOV_HITS=out),
        ).returncode
        for name in os.listdir(out):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                for module, lines in json.load(fh).items():
                    hits.setdefault(module, set()).update(lines)
    return status, hits


def main() -> int:
    status, hits = run_suite()
    never_run = []
    total = 0
    for module in sorted(name for name in os.listdir(SRC) if name.endswith(".py")):
        path = os.path.join(SRC, module)
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        never_run += [f"src/expd/{module}:{line} is never run: {text[line - 1].strip()}" for line in sorted(lines - hits.get(module, set()))]
    print(f"src/expd: {total} executable lines, {len(never_run)} never run")
    print("\n".join(never_run))
    return status or int(bool(never_run))


if __name__ == "__main__":
    sys.exit(main())
