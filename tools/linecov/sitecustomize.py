"""Record the lines each Python process runs in src/expd.

site imports this module at start-up when tools/linecov is on PYTHONPATH, so
subprocesses such as ``python -m expd`` are traced too.  It does nothing
unless LINECOV_HITS names a directory; then each process writes the lines it
ran there at exit, as one JSON file {module file name: [lines]}.  report.py
sets both variables, runs the test suite and reads the files.
"""

import atexit
import json
import os
import sys
import tempfile

_OUT = os.environ.get("LINECOV_HITS")
_SRC = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src", "expd"))
_hits = {}  # code file name -> the set of lines run, or None for a file outside src/expd


def _line(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _hits:
        _hits[name] = set() if os.path.dirname(os.path.realpath(name)) == _SRC else None
    return None if _hits[name] is None else _line


def _dump():
    sys.settrace(None)
    fd, path = tempfile.mkstemp(suffix=".json", dir=_OUT)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump({os.path.basename(name): sorted(lines) for name, lines in _hits.items() if lines}, fh)


if _OUT:
    atexit.register(_dump)
    sys.settrace(_call)
