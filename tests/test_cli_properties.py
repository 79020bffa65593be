"""Property test: any argv the flag table admits ends in a documented exit code, never a traceback."""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from expd import Universe, build_relation2, build_relation3, cli, write_relation  # noqa: E402

HUGE = str(10**30)
INTS = ["1", "2", "3", "4", "0", HUGE]
GRIDS = ["range:0:4:1", "range:2:7:2", "list:1,2,3", "geom:2:5", "rand:3:0:9", "fullmod", "range:0:4:0"]
EXPRS = ["x + y = z", "x*y*z = 1 mod 7", "x^2 + y^3 = z", "y*z = 1 mod 7", "y = z^2", "x^99999999 = z"]
FAMILIES = ["cyclic", "unitmod:7", "unitmod:8", "cylindrical", "cylindrical:2", "dsl", "topz", "hexagonal"]
# values of the type each flag declares, small enough that every run ends in well under
# a second; {name} is a path in the module's directory (a file, a missing one or the directory)
VALUES = {
    "--seed": ["1", "7", "-1"],
    "--format": ["csv", "json"],
    "--out": ["-", "{out}", "{dir}"],
    "--budget-cells": ["99", "10000", HUGE],
    "--threshold": INTS,
    "--rel": ["{rel2}", "{rel3}", "{missing}", "{junk}"],
    "--family": FAMILIES,
    "--twists": ["identity", "seeded"],
    "--n": ["1", "2", "6", "8", "0", HUGE],
    "--expr": EXPRS,
    "--grid-x": GRIDS,
    "--grid-y": GRIDS,
    "--grid-z": GRIDS,
    "--pg": ["2", "3", "7", "4", HUGE],
    "--identity": ["1", "5", "0", HUGE],
    "--interval": ["5:8", "3:20", "0:4", "5", f"{HUGE}:{HUGE}"],
    "--box": ["4:3", "6:5", "0:0", f"{HUGE}:{HUGE}"],
    "--cutter": ["auto", "interval", "box", "greedy", "none"],
    "--r": INTS,
    "--s": INTS,
    "--t": INTS,
    "--D": INTS,
    "--epsilon": ["1/12", "1/7", "1/2", "0", "-1/3"],
    "--leaf-size": INTS,
    "--cert-out": ["{cert}", "{dir}"],
    "--k": INTS,
    "--sizes": ["4,8", "2,3,5", "8,4", "0", "100000000"],
}
MALFORMED = ["x", "", "1/0", "4,,8", "bogus"]  # never given to a flag that writes: a file would land in the cwd
WRITES = ("--out", "--cert-out")
SOURCES = {"--rel", "--family", "--n", "--expr", "--grid-x", "--grid-y", "--grid-z", *cli.BINARY_SOURCES}


def test_every_flag_has_values():
    assert set(VALUES) == set(cli.FLAGS)


@st.composite
def argvs(draw):
    """A subcommand, one instance source it reads, up to three more of its flags,
    and at times a stray flag: one it may not read, or a malformed value."""

    def pick(values):
        return draw(st.sampled_from(values))

    command = pick(sorted(cli.SUBCOMMANDS))
    flags = cli.SUBCOMMANDS[command]
    if "--pg" in flags:
        source = pick(cli.BINARY_SOURCES)
        argv = [command, source, pick(VALUES[source])]
    elif command == "scan" or pick([True, False, False]):
        family = pick(FAMILIES)
        argv = [command, "--family", family]
        if family in ("dsl", "topz"):
            argv += ["--expr", pick(EXPRS)]
        if command != "scan":
            argv += ["--n", pick(VALUES["--n"])]
    elif pick([True, False]):
        argv = [command, "--rel", pick(VALUES["--rel"])]
    else:
        argv = [command, "--expr", pick(EXPRS), *(a for v in "xyz" for a in (f"--grid-{v}", pick(GRIDS)))]
    if pick([True, True, True, False]):
        argv += ["--seed", pick(VALUES["--seed"])]
    for flag in draw(st.lists(st.sampled_from([f for f in flags if f not in SOURCES]), max_size=3, unique=True)):
        argv += [flag, pick(VALUES[flag])]
    if pick([False, False, False, True]):
        flag = pick(sorted(cli.FLAGS))
        argv += [flag, pick(VALUES[flag] + ([] if flag in WRITES else MALFORMED))]
    return argv


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-properties")
    paths = {name: str(root / f"{name}.json") for name in ("rel2", "rel3", "missing", "junk", "out", "cert")}
    paths["dir"] = str(root)
    write_relation(paths["rel2"], build_relation2(Universe("U", 3), Universe("V", 3), [(0, 0), (1, 2), (2, 1)]))
    write_relation(paths["rel3"], build_relation3(*(Universe(n, 3) for n in "XYZ"), [(0, 0, 0), (1, 2, 0)]))
    (root / "junk.json").write_text('{"kind": "rel2", "universes": [')
    return paths


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(argvs())
def test_any_admitted_argv_exits_with_a_documented_code(files, argv):
    argv = [arg.format(**files) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # any exception fails the test
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
