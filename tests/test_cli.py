"""CLI surface: subcommands, report files, exit codes, determinism."""

import dataclasses
import importlib
import inspect
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time
from collections import Counter

import pytest

from expd import Universe, build_relation2, build_relation3, cli, pipeline, relations, write_relation, zarankiewicz
from expd.cuttings import _rank_plane
from expd.errors import CapacityError, ExpdError, InputError
from expd.instances import random_bipartite
from expd.relations import _columns
from expd.zarankiewicz import NotKstFreeError


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "expd", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestCount:
    def test_ternary_expr(self):
        res = run_cli(
            "count",
            "--expr", "x + y = z",
            "--grid-x", "range:0:4:1",
            "--grid-y", "range:0:4:1",
            "--grid-z", "range:0:4:1",
        )
        assert res.returncode == 0
        assert ",10," in res.stdout or res.stdout.splitlines()[-1].split(",")[2] == "10"

    def test_binary_expr(self):
        res = run_cli(
            "count",
            "--expr", "y*z = 1 mod 7",
            "--grid-y", "list:1,2,3,4,5,6",
            "--grid-z", "list:1,2,3,4,5,6",
        )
        assert res.returncode == 0
        assert res.stdout.splitlines()[-1].split(",")[2] == "6"

    def test_family_count(self):
        res = run_cli("count", "--family", "cyclic", "--n", "5")
        assert res.returncode == 0
        assert res.stdout.splitlines()[-1].split(",")[2] == "25"

    def test_rel_file(self, tmp_path):
        rel = build_relation3(
            Universe("X", 4),
            Universe("Y", 4),
            Universe("Z", 4),
            [(x, y, x + y) for x in range(4) for y in range(4) if x + y < 4],
        )
        src = tmp_path / "f.json"
        write_relation(str(src), rel)
        res = run_cli("count", "--rel", str(src))
        assert res.returncode == 0
        assert res.stdout.splitlines()[-1].split(",")[2] == "10"

    def test_zero_family_size_names_its_fault(self):
        res = run_cli("count", "--family", "cyclic", "--n", "0")
        assert res.returncode == 3
        assert res.stderr == "expd: input error: family size must be >= 1, got 0\n"

    def test_input_error_exit_3(self):
        res = run_cli("count", "--expr", "x + y = z")  # no grids
        assert res.returncode == 3
        assert "input error" in res.stderr

    def test_line_break_in_instance_name_keeps_one_csv_row(self, capsys):
        argv = ["count", "--expr", "x + y\r\n= z", *("--grid-x", "range:0:3:1", "--grid-y", "range:0:3:1")]
        argv += ["--grid-z", "range:0:5:1"]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3 and lines[2] == "x + y  = z,5,9,,,,,,ok", lines
        assert cli.main([*argv, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["rows"][0]["instance"] == "x + y\r\n= z"


class TestDeriveG:
    def test_writes_pair_relation(self, tmp_path):
        rel = build_relation3(
            Universe("X", 5),
            Universe("Y", 5),
            Universe("Z", 5),
            [(x, y, (x + y) % 5) for x in range(5) for y in range(5)],
        )
        src = tmp_path / "f.json"
        dst = tmp_path / "g.json"
        write_relation(str(src), rel)
        res = run_cli("derive-g", "--rel", str(src), "--out", str(dst))
        assert res.returncode == 0
        assert "g_edges=125" in res.stdout
        obj = json.loads(dst.read_text())
        assert obj["kind"] == "rel2"
        assert obj["universes"][0]["size"] == 25
        assert len(obj["pairs"]) == 125

    def test_budget_exit_4(self, tmp_path):
        rel = build_relation3(
            Universe("X", 5),
            Universe("Y", 5),
            Universe("Z", 5),
            [(x, y, (x + y) % 5) for x in range(5) for y in range(5)],
        )
        src = tmp_path / "f.json"
        write_relation(str(src), rel)
        res = run_cli("derive-g", "--rel", str(src), "--budget-cells", "10")
        assert res.returncode == 4


class TestCertify:
    def test_pg7_row(self, tmp_path):
        out = tmp_path / "row.csv"
        cert = tmp_path / "cert.json"
        res = run_cli(
            "certify",
            "--pg", "7",
            "--s", "2", "--t", "2", "--D", "2",
            "--epsilon", "1/12",
            "--r", "4",
            "--cutter", "none",
            "--out", str(out),
            "--cert-out", str(cert),
        )
        assert res.returncode == 0
        body = out.read_text().splitlines()
        row = body[-1].split(",")
        assert row[2] == "456"
        assert int(row[3]) >= 456
        tree = json.loads(cert.read_text())
        assert tree["total"] == int(row[3])

    def test_identity_matching(self):
        res = run_cli("certify", "--identity", "64", "--D", "2", "--epsilon", "1/12")
        assert res.returncode == 0
        row = res.stdout.splitlines()[-1].split(",")
        assert row[2] == "64"
        assert int(row[3]) >= 64

    @pytest.mark.parametrize(
        "flag, fault", [("--pg", "needs a prime order, got 0"), ("--identity", "needs a size >= 1, got 0")]
    )
    def test_zero_instance_names_its_fault(self, flag, fault):
        res = run_cli("certify", flag, "0")
        assert res.returncode == 3
        assert fault in res.stderr
        assert "no instance given" not in res.stderr

    def test_k22_instance_inapplicable(self, tmp_path):
        rel = build_relation2(
            Universe("U", 2), Universe("V", 2), [(0, 0), (0, 1), (1, 0), (1, 1)]
        )
        src = tmp_path / "k22.json"
        write_relation(str(src), rel)
        res = run_cli("certify", "--rel", str(src), "--epsilon", "1/12")
        assert res.returncode == 0
        assert "inapplicable" in res.stdout

    def test_freeness_check_and_root_cutter_share_one_transpose(self, capsys):
        # A and B are full, so the restriction find_kst searches has the
        # relation's rows, and greedy_cutting at the root reads the same columns
        _columns.cache_clear()
        assert cli.main(["certify", "--pg", "31"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("pg:31,993,31776,31776,")
        info = _columns.cache_info()
        assert info.misses == 1 and info.hits >= 1, info

    def test_box_instance_and_its_cut_share_one_rank_plane(self, capsys):
        # rectangle_incidence reads its rows from the plane the box cutter
        # then looks up for the same point universe
        _rank_plane.cache_clear()
        assert cli.main(["cutting", "--box", "48:16", "--seed", "5", "--r", "4"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith(",ok")
        info = _rank_plane.cache_info()
        assert info.misses == 1 and info.hits >= 1, info

    def test_bad_epsilon_exit_3(self):
        res = run_cli("certify", "--pg", "7", "--epsilon", "2/3")
        assert res.returncode == 3

    def test_kst_search_past_node_budget_exit_4(self, tmp_path):
        # K_{4,7}-free at density 1/10: the search would visit ~10^8 nodes
        src = tmp_path / "random.json"
        write_relation(str(src), random_bipartite(1, 1000, 1000, 100000))
        res = run_cli("certify", "--rel", str(src), "--s", "4", "--t", "7", "--epsilon", "1/100")
        assert res.returncode == 4, res.stderr
        assert "Traceback" not in res.stderr
        assert "search needs more than" in res.stderr


class TestCutting:
    def test_interval_family(self):
        res = run_cli("cutting", "--interval", "40:120", "--seed", "3", "--r", "4")
        assert res.returncode == 0
        row = res.stdout.splitlines()[-1].split(",")
        assert int(row[2]) <= 8  # cells <= 2r

    def test_box_family(self):
        res = run_cli("cutting", "--box", "48:16", "--seed", "5", "--r", "4")
        assert res.returncode == 0

    def test_seed_required(self):
        res = run_cli("cutting", "--interval", "40:120", "--r", "4")
        assert res.returncode == 3
        assert "seed" in res.stderr

    def test_greedy_failure_exit_2(self, tmp_path):
        # dense random graph: trace classes are singletons, cap cells exceeded
        import random

        rng = random.Random(1)
        pairs = {(rng.randrange(48), rng.randrange(48)) for _ in range(1400)}
        rel = build_relation2(Universe("U", 48), Universe("V", 48), sorted(pairs))
        src = tmp_path / "dense.json"
        write_relation(str(src), rel)
        res = run_cli("cutting", "--rel", str(src), "--cutter", "greedy", "--r", "4")
        assert res.returncode == 2
        assert "failure" in res.stdout

    @pytest.mark.parametrize("instance, r", [(("--interval", "10:64"), 10**400), (("--box", "10:8"), 10**200)])
    def test_r_beyond_float_range(self, instance, r):
        # fitted_c = cells / r^D is an int division: no float conversion of r^D
        res = run_cli("cutting", *instance, "--seed", "1", "--r", str(r))
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        assert res.stdout.splitlines()[-1].endswith(",ok")


UNIVERSES3 = [{"name": n, "size": 2} for n in "XYZ"]

MALFORMED_RELATIONS = {
    "top-level-list": [],
    "string-size": {"kind": "rel3", "universes": [{"name": "X", "size": "2"}] + UNIVERSES3[1:], "triples": []},
    "float-size": {"kind": "rel3", "universes": [{"name": "X", "size": 2.0}] + UNIVERSES3[1:], "triples": []},
    "one-element-pair": {"kind": "rel2", "universes": UNIVERSES3[:2], "pairs": [[0]]},
    "string-triple-entry": {"kind": "rel3", "universes": UNIVERSES3, "triples": [[0, "1", 0]]},
    "list-labels": {
        "kind": "rel3",
        "universes": [{"name": "X", "size": 2, "labels": [[0], [1]]}] + UNIVERSES3[1:],
        "triples": [],
    },
    # raw bytes, written as they are: past the JSON decoder's recursion limit,
    # past Python's 4300-digit limit for int("..."), and not UTF-8
    "deeply-nested": b"[" * 100_000,
    "5000-digit-size": b'{"kind": "rel2", "universes": [{"name": "U", "size": ' + b"1" * 5000 + b"}]}",
    "utf16-bom": b"\xff\xfe{}",
    "universe-not-object": {"kind": "rel3", "universes": [2] + UNIVERSES3[1:], "triples": []},
    "universe-without-size": {"kind": "rel3", "universes": [{"name": "X"}] + UNIVERSES3[1:], "triples": []},
    "labels-not-list": {
        "kind": "rel3",
        "universes": [{"name": "X", "size": 2, "labels": "ab"}] + UNIVERSES3[1:],
        "triples": [],
    },
    "pairs-not-list": {"kind": "rel2", "universes": UNIVERSES3[:2], "pairs": {"0": 0}},
}


# Universes too large to allocate: refused before any allocation.
OVERSIZED_RELATIONS = {
    "rel2-3e9-cells": {
        "kind": "rel2",
        "universes": [{"name": "U", "size": 3_000_000_000}, {"name": "V", "size": 1}],
        "pairs": [],
    },
    "rel3-2^63-keys": {
        "kind": "rel3",
        "universes": [{"name": n, "size": 1 << 21} for n in "XYZ"],
        "triples": [[0, 0, 0]],
    },
}


def run_on_file(tmp_path, obj, command="count"):
    src = tmp_path / "bad.json"
    src.write_bytes(obj if isinstance(obj, bytes) else json.dumps(obj).encode())
    return run_cli(command, "--rel", str(src))


@pytest.mark.parametrize("name", sorted(MALFORMED_RELATIONS))
def test_malformed_relation_file_exit_3(tmp_path, name):
    res = run_on_file(tmp_path, MALFORMED_RELATIONS[name])
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stderr
    assert "input error" in res.stderr


@pytest.mark.parametrize("name", ["deeply-nested", "5000-digit-size", "utf16-bom"])
def test_undecodable_relation_file_exit_3_on_certify(tmp_path, name):
    res = run_on_file(tmp_path, MALFORMED_RELATIONS[name], "certify")
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stderr
    assert "not valid JSON" in res.stderr


@pytest.mark.parametrize("name", sorted(OVERSIZED_RELATIONS))
def test_oversized_relation_file_exit_4(tmp_path, name):
    res = run_on_file(tmp_path, OVERSIZED_RELATIONS[name])
    assert res.returncode == 4, res.stderr
    assert "Traceback" not in res.stderr
    assert "capacity" in res.stderr


# An index equal to its universe's size is one past the last index: refused, never loaded.
INDEX_AT_SIZE = {
    "rel2-i-is-|U|": ("rel2", (2, 3), [2, 0]),
    "rel2-j-is-|V|": ("rel2", (2, 3), [0, 3]),
    "rel3-i-is-|X|": ("rel3", (2, 3, 4), [2, 0, 0]),
    "rel3-j-is-|Y|": ("rel3", (2, 3, 4), [0, 3, 0]),
    "rel3-k-is-|Z|": ("rel3", (2, 3, 4), [0, 0, 4]),
}


@pytest.mark.parametrize("name", sorted(INDEX_AT_SIZE))
def test_index_equal_to_universe_size_exit_3(tmp_path, capsys, name):
    kind, sizes, entry = INDEX_AT_SIZE[name]
    src = tmp_path / "index-at-size.json"
    universes = [{"name": f"U{a}", "size": size} for a, size in enumerate(sizes)]
    src.write_text(json.dumps({"kind": kind, "universes": universes, "pairs" if kind == "rel2" else "triples": [entry]}))
    assert cli.main(["count", "--rel", str(src)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("expd: input error: ") and "not an index" in err and err.count("\n") == 1, err


# An empty universe counts as one cell, so the other universes are still capped.
ONE_SIDED_RELATIONS = {
    "certify-rel2-0x1e30": ("certify", "rel2", (0, 10**30)),
    "cutting-rel2-1e12x0": ("cutting", "rel2", (10**12, 0)),
    "pipeline3-rel3-0x1e30x1e30": ("pipeline3", "rel3", (0, 10**30, 10**30)),
    "pipeline3-rel3-3x0x1e12": ("pipeline3", "rel3", (3, 0, 10**12)),
}


@pytest.mark.parametrize("name", sorted(ONE_SIDED_RELATIONS))
def test_one_sided_universes_exit_4(tmp_path, capsys, name):
    command, kind, sizes = ONE_SIDED_RELATIONS[name]
    src = tmp_path / "one-sided.json"
    universes = [{"name": f"U{a}", "size": size} for a, size in enumerate(sizes)]
    src.write_text(json.dumps({"kind": kind, "universes": universes}))
    assert cli.main([command, "--rel", str(src)]) == 4
    # a rel2 file is refused by the fixed file cap, pipeline3 by the budget charge of its flattened axes
    prefix = "expd: capacity: " if kind == "rel2" else "expd: budget exceeded: "
    assert capsys.readouterr().err.startswith(prefix)


def test_derive_g_huge_x_universe(tmp_path, capsys):
    last = 10**15 - 1
    src = tmp_path / "huge-x.json"
    universes = [{"name": "X", "size": 10**15}, {"name": "Y", "size": 2}, {"name": "Z", "size": 2}]
    src.write_text(json.dumps({"kind": "rel3", "universes": universes, "triples": [[last, 0, 0], [last, 1, 1]]}))
    assert cli.main(["derive-g", "--rel", str(src)]) == 0
    assert capsys.readouterr().out.endswith("\ng_edges=4 max_zz_fiber=1 max_yy_fiber=1\n")


def test_certify_t_beyond_right_universe(tmp_path, capsys):
    # t > |V| = 0 admits no K_{s,t}, so the search never builds its t-long column list
    src = tmp_path / "empty-v.json"
    src.write_text(json.dumps({"kind": "rel2", "universes": [{"name": "U", "size": 5}, {"name": "V", "size": 0}]}))
    argv = ["certify", "--rel", str(src), "--s", "1", "--t", "1000000000", "--D", "1", "--epsilon", "1/100000000000000"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.endswith(",0,0,0,,,,ok\n")


def test_pipeline3_single_column_flattening(tmp_path, capsys, monkeypatch):
    # |Y|·|Z| = 1: the X flattening has one column, so K_{2,2} is ruled out without a search
    monkeypatch.setattr(zarankiewicz, "MAX_KST_NODES", 0)
    src = tmp_path / "one-column.json"
    universes = [{"name": "X", "size": 10}, {"name": "Y", "size": 1}, {"name": "Z", "size": 1}]
    src.write_text(json.dumps({"kind": "rel3", "universes": universes, "triples": [[0, 0, 0], [9, 0, 0]]}))
    assert cli.main(["pipeline3", "--rel", str(src)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cylindrical_witness"] is None and report["checks_ok"] is True


def test_pipeline3_searches_no_axis_below_k(capsys, monkeypatch):
    # d = 1 < k = 2 on every axis: no flattening is searched, so no search node is spent
    monkeypatch.setattr(zarankiewicz, "MAX_KST_NODES", 0)
    assert cli.main(["pipeline3", "--family", "cyclic", "--twists", "seeded", "--seed", "1", "--n", "12"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["delta_degree"]["d"] == 1
    assert report["cylindrical_witness"] is None and report["checks_ok"] is True
    # x and -x share (y, z) when z = x² + y² mod 7: axis 1 reaches k = 2 and is still searched
    fullmod = ("--grid-x", "fullmod", "--grid-y", "fullmod", "--grid-z", "fullmod")
    assert cli.main(["pipeline3", "--expr", "x^2 + y^2 = z mod 7", *fullmod]) == 4
    assert "K_2,2 search needs more than 0 nodes" in capsys.readouterr().err


TWISTED_12 = ("--family", "cyclic", "--twists", "seeded", "--seed", "1", "--n", "12")
SQUARES_MOD_7 = ("--expr", "x^2 + y^2 = z mod 7", "--grid-x", "fullmod", "--grid-y", "fullmod", "--grid-z", "fullmod")


@pytest.mark.parametrize(
    "argv",
    [TWISTED_12, SQUARES_MOD_7],
    ids=["twisted-cyclic-12", "squares-mod7"],
)
def test_pipeline3_counts_the_pairing_maxima_once(capsys, monkeypatch, argv):
    # one Counter per pairing, built once: delta_degree and the cylinder search read the same maxima
    counters = []

    def counting(*args):
        counters.append(args)
        return Counter(*args)

    monkeypatch.setattr(relations, "Counter", counting)
    assert cli.main(["pipeline3", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["checks_ok"] is True
    assert len(counters) == 3


def test_pipeline3_counts_g_of_a_d1_family_without_the_g_kernel(capsys, monkeypatch):
    # each (y,z) fixes x, so g_edge_count reads |G| and its fiber maxima from the x-runs
    assert cli.main(["pipeline3", *TWISTED_12]) == 0
    expected = capsys.readouterr().out

    def walked(rel):
        raise AssertionError("the G kernel ran")

    monkeypatch.setattr(pipeline, "_g_fibers", walked)
    assert cli.main(["pipeline3", *TWISTED_12]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "argv",
    [
        ("derive-g", *TWISTED_12),
        ("pipeline3", *SQUARES_MOD_7),
    ],
    ids=["derive-g-twisted-cyclic-12", "pipeline3-squares-mod7"],
)
def test_one_g_kernel_walk_per_run(capsys, monkeypatch, argv):
    # derive-g walks the kernel to build G, and reads the fiber maxima of a d = 1 family from the
    # x-runs; pipeline3 on a relation where some (y,z) holds two x's falls back to the kernel
    walks = []
    kernel = pipeline._g_fibers
    monkeypatch.setattr(pipeline, "_g_fibers", lambda rel: walks.append(rel) or kernel(rel))
    assert cli.main(list(argv)) == 0
    capsys.readouterr()
    assert len(walks) == 1


# malformed numbers and generator sizes on the command line
DSL_FAMILY = ("count", "--family", "dsl", "--expr", "x + y = z", "--n", "3", "--grid-x")
MALFORMED_ARGUMENTS = {
    "unitmod-not-int": ("scan", "--family", "unitmod:abc"),
    "unitmod-composite-4": ("count", "--family", "unitmod:4", "--n", "3"),
    "unitmod-composite-9": ("scan", "--family", "unitmod:9", "--sizes", "8,8"),
    "dsl-grid-positional-field": (*DSL_FAMILY, "list:{0}"),
    "dsl-grid-unknown-field": (*DSL_FAMILY, "range:0:{m}:1"),
    "dsl-grid-open-brace": (*DSL_FAMILY, "range:0:{"),
    "cylindrical-not-int": ("scan", "--family", "cylindrical:x"),
    "cylindrical-zero-block": ("scan", "--family", "cylindrical:0", "--sizes", "8,16,32"),
    "cylindrical-negative-block": ("count", "--family", "cylindrical:-3", "--n", "8"),
    "rand-negative-count": (
        "count", "--expr", "x + y = z", "--grid-x", "rand:-1:0:5", "--grid-y", "list:1", "--grid-z", "list:1",
        "--seed", "1",
    ),
    "size-not-int": ("scan", "--family", "cyclic", "--sizes", "8,a,16"),
    "scan-no-family": ("scan", "--sizes", "8,16,32"),
    "interval-no-points": ("certify", "--interval", "10:0", "--seed", "1"),
    "box-no-side": ("certify", "--box", "5:0", "--seed", "1"),
    "epsilon-not-rational": ("certify", "--identity", "5", "--epsilon", "abc"),
    "epsilon-zero-denominator": ("certify", "--identity", "5", "--epsilon", "1/0"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_ARGUMENTS))
def test_malformed_argument_exit_3(name):
    res = run_cli(*MALFORMED_ARGUMENTS[name])
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("expd: input error: ") and res.stderr.count("\n") == 1, res.stderr


HUGE = "1" * 5000  # over Python's 4300-digit limit for int("...")
SMALL_GRIDS = ("--grid-x", "range:2:6:1", "--grid-y", "range:2:6:1", "--grid-z", "range:2:6:1")
# definitions that overflow a Python limit if parsed or evaluated naively
UNREADABLE_DEFINITIONS = {
    "5000-digit-literal": f"x + {HUGE} = z",
    "5000-digit-modulus": f"x + y = z mod {HUGE}",
    "5000-digit-exponent": f"x^{HUGE} = z",
    "1500-term-sum": " + ".join(["x"] * 1500) + " = z",
    "260-nested-parens": "(" * 260 + "x" + ")" * 260 + " = z",
}


@pytest.mark.parametrize("name", sorted(UNREADABLE_DEFINITIONS))
def test_unreadable_definition_exit_3(name):
    res = run_cli("count", "--expr", UNREADABLE_DEFINITIONS[name], *SMALL_GRIDS)
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stderr
    assert "(line 1, column" in res.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--expr", "x^9999999 = z", *SMALL_GRIDS),
        ("count", "--expr", "x^99999999 = z", "--grid-x", "list:2,3", "--grid-y", "list:2,3",
         "--grid-z", "list:2,3"),
        ("count", "--expr", "y^99999999 = z", "--grid-y", "list:2,3", "--grid-z", "list:2,3"),
        ("scan", "--family", "topz", "--expr", "x^99999999 = z", "--sizes", "2,3,4"),
        ("count", "--expr", "(x^99999999)^0 = z", *SMALL_GRIDS),  # x^e is still computed
    ],
)
def test_unbounded_power_exit_4_before_evaluating(capsys, argv):
    start = time.perf_counter()
    assert cli.main(list(argv)) == 4
    assert time.perf_counter() - start < 1.0
    assert "budget exceeded" in capsys.readouterr().err


RANGE_2000, RANGE_20000 = "range:0:2000:1", "range:0:20000:1"


@pytest.mark.parametrize(
    "argv",
    [
        # nothing solved: 2000^3 = 8*10^9 points to evaluate
        ("count", "--expr", "x^2*y^2*z^2 = 1 mod 89", "--grid-x", RANGE_2000, "--grid-y", RANGE_2000,
         "--grid-z", RANGE_2000),
        # z solved, 4 free points, but a grid of 10^12 values
        ("count", "--expr", "x + y = z", "--grid-x", "list:1,2", "--grid-y", "list:1,2",
         "--grid-z", f"range:0:{10**12}:1"),
        ("count", "--expr", "y^2 = z mod 7", "--grid-y", "fullmod", "--grid-z", "fullmod",
         "--budget-cells", "6"),
        # 10^6 values, under the cell budget, but the last one has 10^6 bits
        ("count", "--expr", "x + y = z mod 7", "--grid-x", "geom:2:1000000", "--grid-y", "list:1",
         "--grid-z", "fullmod"),
        # z solved linearly: 20000^2 = 4*10^8 free points
        ("count", "--expr", "x*y*z = 1 mod 89", "--grid-x", RANGE_20000, "--grid-y", RANGE_20000,
         "--grid-z", RANGE_20000),
    ],
)
def test_oversized_grid_exit_4_before_building(capsys, argv):
    start = time.perf_counter()
    assert cli.main(list(argv)) == 4
    assert time.perf_counter() - start < 1.0
    assert "budget exceeded" in capsys.readouterr().err


def test_linear_solve_charges_only_the_free_grids(capsys):
    """z is solved at each of the 89^2 (x, y) points, so 89^2 cells are charged, not 89^3."""
    argv = ["count", "--expr", "x*y*z = 1 mod 89", "--grid-x", "fullmod", "--grid-y", "fullmod", "--grid-z", "fullmod"]
    assert cli.main([*argv, "--budget-cells", "7921"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split(",")[2] == str(88 * 88)
    assert cli.main([*argv, "--budget-cells", "7920"]) == 4
    err = capsys.readouterr().err
    assert err == "expd: budget exceeded: the grid of points to evaluate needs 7921 cells; budget is 7920\n"


@pytest.mark.parametrize(
    "expr, grid, tries, count",
    [
        # gcd(a, m) = 10^6 is past |Z| = 10: z's 10 values are each tested at the
        # 100 free points, and none is a root (z + x - 1 is odd)
        ("1000000*z + 1000000*x + (y - y) = 1000000 mod 2000000", "range:0:20:2", 1000, 0),
        # a ≡ b ≡ 0: every z is a root at each of the 49 free points
        ("(x - x)*z + (y - y) = 0 mod 7", "fullmod", 343, 343),
        ("(x - x)*z + (y - y) = 0", "range:0:7:1", 343, 343),
        # g = 2 at the 32 points where x + y is even, and each of the two root
        # residues mod 4 is held by two of z's values 0..7: 4 found, 4 charged
        ("2*z + x + y = 0 mod 4", "range:0:8:1", 128, 128),
    ],
)
def test_linear_solve_charges_the_values_it_tries(capsys, expr, grid, tries, count):
    """A free point that tries or finds more than one value of z charges them
    all, so the budget bounds the work however large gcd(a, m) is."""
    argv = ["count", "--expr", expr, "--grid-x", grid, "--grid-y", grid.replace(":20:2", ":10:1"), "--grid-z", grid]
    assert cli.main([*argv, "--budget-cells", str(tries)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split(",")[2] == str(count)
    assert cli.main([*argv, "--budget-cells", str(tries - 1)]) == 4
    err = capsys.readouterr().err
    assert err == f"expd: budget exceeded: trying values of z needs {tries} cells; budget is {tries - 1}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--family", "cyclic", "--n", "3000"),
        ("pipeline3", "--family", "cyclic", "--n", "3000"),
        ("derive-g", "--family", "cyclic", "--n", "3000"),
        ("count", "--family", "cylindrical", "--n", "3000"),
        ("scan", "--family", "topz", "--expr", "x^2 + y^3 = z", "--sizes", "3000,6000,9000"),
    ],
    ids=["count-cyclic", "pipeline3-cyclic", "derive-g-cyclic", "count-cylindrical", "scan-topz"],
)
def test_family_over_budget_exit_4_before_building(capsys, argv):
    start = time.perf_counter()
    assert cli.main([*argv, "--budget-cells", "1000"]) == 4
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == "expd: budget exceeded: family size 3000 needs 9000000 cells; budget is 1000\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--family", "cyclic", "--n", "40"),
        ("derive-g", "--family", "cyclic", "--n", "30"),
        ("pipeline3", "--family", "cyclic", "--n", "30"),
        ("count", "--expr", "x + y = z", "--grid-x", "list:1,2", "--grid-y", "list:1,2",
         "--grid-z", "range:0:2000:1"),
        ("count", "--expr", "x + y = z", "--grid-x", "range:0:100:1", "--grid-y", "range:0:100:1",
         "--grid-z", "list:1"),
    ],
    ids=["family", "derive-g-pairs", "pipeline3-flattened-axes", "dsl-grid", "dsl-free-points"],
)
def test_every_budget_refusal_is_budget_exceeded(capsys, argv):
    assert cli.main([*argv, "--budget-cells", "1000"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("expd: budget exceeded: ") and err.count("\n") == 1, err


def test_every_package_error_maps_to_an_exit_code():
    # cli.main catches InputError (exit 3) and CapacityError (exit 4), not ExpdError
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    found = list(subclasses(ExpdError))
    assert NotKstFreeError in found  # a subclass of a subclass of InputError
    for cls in found:
        assert issubclass(cls, (InputError, CapacityError)), cls


def test_memory_error_exit_4(capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(pipeline, "derive_g", out_of_memory)
    assert cli.main(["derive-g", "--family", "cyclic", "--n", "4"]) == 4
    assert capsys.readouterr().err == "expd: budget exceeded: out of memory\n"


def test_t_times_m_past_the_float_range_exit_3(capsys):
    # Case 2 applies at the root of PG(2,7), whose 57 rows times t pass the largest float
    assert cli.main(["certify", "--pg", "7", "--D", "1", "--t", str(10**307), "--epsilon", f"1/{10**308}"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("expd: input error: t * m is past the largest float") and err.count("\n") == 1, err


# a raised --budget-cells does not lift the 64-bit key range: the size is
# refused before the builder allocates (an OverflowError, a MemoryError and a
# run of 10^20 noise draws without the check)
@pytest.mark.parametrize(
    "argv",
    [
        ("pipeline3", "--family", "cyclic", "--n", "100000000000000000000"),
        ("derive-g", "--family", "cyclic", "--n", "100000000000000000000"),
        ("count", "--family", "cylindrical", "--n", "1000000000", "--seed", "1"),
        ("count", "--family", "cylindrical:1", "--n", "100000000000000000000", "--seed", "1"),
    ],
    ids=["pipeline3-cyclic", "derive-g-cyclic", "count-cylindrical", "count-cylindrical-block-1"],
)
def test_family_past_the_key_range_exit_4_whatever_the_budget(argv):
    res = run_cli(*argv, "--budget-cells", "1" + "0" * 40)
    assert res.returncode == 4, res.stderr
    assert "Traceback" not in res.stderr
    n = int(argv[argv.index("--n") + 1])
    assert res.stderr == f"expd: capacity: family size {n} needs {n**3} triple keys, past the 64-bit key range\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--family", "cylindrical", "--n", "6"),
        ("count", "--family", "dsl", "--expr", "x + y = z", "--grid-x", "rand:3:0:10", "--n", "4"),
        ("count", "--family", "cyclic", "--twists", "seeded", "--n", "6"),
    ],
    ids=["cylindrical", "dsl-rand-grid", "seeded-twists"],
)
def test_a_path_that_draws_needs_a_seed(capsys, argv):
    assert cli.main(list(argv)) == 3
    assert capsys.readouterr().err == "expd: input error: this path is randomized; --seed is mandatory\n"
    assert cli.main([*argv, "--seed", "1"]) == 0


HUGE = str(10**400)


# values past the float range: each ends in a documented exit code, never a traceback
@pytest.mark.parametrize(
    "argv",
    [
        ("certify", "--pg", "7", "--s", HUGE),
        ("certify", "--pg", "7", "--t", HUGE, "--epsilon", f"1/{10**802}"),
        ("certify", "--pg", "7", "--D", HUGE, "--epsilon", f"1/{10**802}"),
        ("certify", "--pg", "7", "--D", "1", "--epsilon", f"1/{HUGE}"),
        ("certify", "--pg", "7", "--r", HUGE),
        ("certify", "--pg", "7", "--leaf-size", HUGE),
        ("pipeline3", "--family", "cyclic", "--n", "4", "--k", HUGE),
        ("pipeline3", "--family", "cyclic", "--n", "4", "--threshold", HUGE),
        ("count", "--family", "cyclic", "--n", HUGE),
        ("count", "--expr", "x+y=z", "--seed", "1", "--grid-x", f"rand:3:0:{10**23}", "--grid-y", "list:1",
         "--grid-z", "list:1"),
    ],
    ids=["s", "t", "D", "epsilon", "r", "leaf-size", "k", "threshold", "n", "rand-span"],
)
def test_huge_numeric_flag_no_traceback(capsys, argv):
    assert cli.main(list(argv)) in (0, 2, 3, 4)  # any other exception is a traceback
    err = capsys.readouterr().err
    assert err == "" or (err.startswith("expd: ") and err.count("\n") == 1), err


# generated binary instances far above MAX_FILE_CELLS: uncapped, --pg hangs in
# trial division and the others end in a MemoryError traceback; --box 1:1000
# has 10^6 cells but its rank plane needs 2002 x 10^6 (about 40 s uncapped)
@pytest.mark.parametrize(
    "argv",
    [
        ("certify", "--pg", "1000000000000000003"),
        ("cutting", "--identity", "100000000"),
        ("cutting", "--interval", "100000000:100000000", "--seed", "1"),
        ("cutting", "--box", "10:100000", "--seed", "1"),
        ("cutting", "--box", "1:1000", "--seed", "1"),
    ],
    ids=["certify-pg", "cutting-identity", "cutting-interval", "cutting-box", "cutting-box-rank-plane"],
)
def test_generated_instance_over_cap_exit_4_before_building(argv):
    res = run_cli(*argv)
    assert res.returncode == 4, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("expd: capacity: ") and res.stderr.count("\n") == 1, res.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--family", "cylindrical", "--n", "8"),
        ("count", "--family", "dsl", "--expr", "x + y = z", "--n", "8"),
        ("scan", "--family", "topz", "--expr", "x^2 + y^3 = z", "--sizes", "4,8,16"),
    ],
    ids=["cylindrical", "dsl", "topz"],
)
def test_twists_on_a_family_that_ignores_them_exit_3(capsys, argv):
    assert cli.main([*argv, "--seed", "1"]) == 0
    capsys.readouterr()
    assert cli.main([*argv, "--seed", "1", "--twists", "seeded"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("expd: input error: twists apply to group-like families only, not to ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--family", "cyclic", "--n", "5", "--grid-x", "range:0:3:1"),
        ("count", "--family", "unitmod:7", "--n", "6", "--grid-x", "list:9"),
        ("scan", "--family", "cylindrical", "--sizes", "4,8,16", "--grid-y", "range:0:2:1"),
        ("count", "--family", "topz", "--expr", "x+y=z", "--n", "5", "--grid-z", "list:1,2"),
    ],
    ids=["cyclic", "unitmod", "cylindrical", "topz"],
)
def test_grids_on_a_family_that_ignores_them_exit_3(capsys, argv):
    assert cli.main(list(argv)) == 3
    err = capsys.readouterr().err
    assert err.startswith("expd: input error: grids apply to dsl families only, not to ")
    assert err.count("\n") == 1


GRIDS_YZ = ("--grid-y", "range:0:5:1", "--grid-z", "range:0:5:1")

# Each argv ends in a refusal that no other test reaches, with the stderr it
# starts with; {rel2}, {rel3} and {letters} are files written by the test, the
# last a rel2 whose points are labelled "a" and "b", not "x,y".
REFUSALS = [
    (("certify",), "expd: input error: no instance given (use --rel, --pg"),
    (("certify", "--interval", "5"), "expd: input error: expected --interval COUNT:POINTS, got '5'"),
    (("count",), "expd: input error: no instance given (use --rel, --family"),
    (("count", "--family", "cyclic"), "expd: input error: --family needs --n SIZE"),
    (("scan", "--family", "hexagonal", "--sizes", "4,8,16"), "expd: input error: unknown family 'hexagonal'"),
    (("certify", "--rel", "{rel3}"), "expd: input error: {rel3} does not hold a binary relation"),
    (("pipeline3", "--rel", "{rel2}"), "expd: input error: {rel2} does not hold a ternary relation"),
    (("certify", "--rel", "{missing}"), "expd: [Errno 2] No such file or directory"),
    (("cutting", "--pg", "2", "--out", "{missing}/report.csv"), "expd: [Errno 2] No such file or directory"),
    (("cutting", "--pg", "7", "--r", "0"), "expd: input error: cutting parameter r must be >= 1, got 0"),
    (("count", "--expr", "x+y=z", "--grid-x", "range:0:5:0", *GRIDS_YZ), "expd: input error: grid range step must be nonzero"),
    (("count", "--expr", "x+y=z", "--grid-x", "geom:1:5", *GRIDS_YZ), "expd: input error: geometric grid base must be >= 2, got 1"),
    (("cutting", "--cutter", "box", "--rel", "{letters}"), "expd: input error: point label 'a' is not of the form 'x,y'"),
]


@pytest.mark.parametrize("argv, prefix", REFUSALS, ids=[" ".join(argv) for argv, _ in REFUSALS])
def test_refusal_exit_3(tmp_path, capsys, argv, prefix):
    files = {name: str(tmp_path / f"{name}.json") for name in ("rel2", "rel3", "letters", "missing")}
    write_relation(files["rel2"], build_relation2(Universe("U", 2), Universe("V", 2), [(0, 0)]))
    write_relation(files["rel3"], build_relation3(*(Universe(n, 2) for n in "XYZ"), [(0, 0, 0)]))
    write_relation(files["letters"], build_relation2(Universe("U", 2), Universe("V", 2, labels=("a", "b")), [(0, 0)]))
    assert cli.main([arg.format(**files) for arg in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith(prefix.format(**files)), err
    assert "Traceback" not in err


def test_derive_g_pair_base_cap_before_allocating(tmp_path):
    # |Y|² = 2^42 cells fit this budget; the pair-universe base cap must refuse |Y| = 2^21 first
    src = tmp_path / "wide-y.json"
    universes = [{"name": "X", "size": 1}, {"name": "Y", "size": 1 << 21}, {"name": "Z", "size": 1}]
    src.write_text(json.dumps({"kind": "rel3", "universes": universes, "triples": [[0, 0, 0], [0, 1, 0]]}))
    res = run_cli("derive-g", "--rel", str(src), "--budget-cells", str(10**13), "--out", str(tmp_path / "g.json"))
    assert res.returncode == 4, res.stderr
    assert res.stderr == "expd: capacity: pair universe over 'Y' needs 2097152^2 indices; base cap is 1048576\n"


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    readme = pathlib.Path(__file__).parent.parent.joinpath("README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines() if line.startswith("expd ")]
    assert len(commands) == 6
    monkeypatch.chdir(tmp_path)
    write_relation("f.json", pipeline.make_family(pipeline.FamilySpec(kind="group_like", group=("cyclic", None))).build(8))
    for argv in commands:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)


def test_readme_names_no_code_that_is_gone():
    readme = pathlib.Path(__file__).parent.parent.joinpath("README.md").read_text(encoding="utf-8")
    # the last part of the dotted name a backticked span starts with, when it holds "_"
    named = set(re.findall(r"`(?:\w+\.)*(\w*_\w*)(?=[`(])", readme))
    modules = [importlib.import_module(f"expd.{p.stem}") for p in pathlib.Path(cli.__file__).parent.glob("*.py") if p.stem != "__main__"]
    classes = [c for m in modules for c in vars(m).values() if inspect.isclass(c) and c.__module__ == m.__name__]
    known = {f.name for c in classes if dataclasses.is_dataclass(c) for f in dataclasses.fields(c)}
    for owner in modules + classes:
        known.update(dir(owner))
        for obj in vars(owner).values():
            obj = getattr(obj, "__func__", obj)  # a staticmethod's function
            if inspect.isfunction(obj):
                known.update(inspect.signature(obj).parameters)
    assert len(named) >= 25, named
    assert sorted(named - known) == []


def test_huge_power_mod_m_runs():
    res = run_cli("count", "--expr", "x^99999999 = z mod 7", *SMALL_GRIDS[:4], "--grid-z", "fullmod")
    assert res.returncode == 0, res.stderr
    # y is free: each (x, z) with x^e = z mod 7 counts once per y value
    expected = 4 * sum(1 for a in range(2, 6) for c in range(7) if pow(a, 99999999, 7) == c)
    assert expected == 16
    assert res.stdout.splitlines()[-1].split(",")[2] == str(expected)


class TestPipeline3:
    def test_modular_sum_bundle(self):
        res = run_cli(
            "pipeline3",
            "--expr", "x + y = z mod 11",
            "--grid-x", "fullmod", "--grid-y", "fullmod", "--grid-z", "fullmod",
            "--threshold", "2",
        )
        assert res.returncode == 0
        bundle = json.loads(res.stdout)
        assert bundle["delta_degree"]["d"] == 1
        assert bundle["cylindrical_witness"] is None
        assert bundle["checks_ok"] is True
        assert bundle["g_edges"] == 11**3

    def test_cylindrical_family_witness(self):
        res = run_cli(
            "pipeline3", "--family", "cylindrical:4", "--n", "8", "--k", "2", "--seed", "1"
        )
        assert res.returncode == 0
        bundle = json.loads(res.stdout)
        assert bundle["cylindrical_witness"] is not None

    def test_budget_cells_do_not_change_bundle(self):
        # a budget below the pair-matrix size but above |G| gives the same bundle
        args = (
            "pipeline3",
            "--expr", "x + y = z mod 11",
            "--grid-x", "fullmod", "--grid-y", "fullmod", "--grid-z", "fullmod",
            "--threshold", "2",
        )
        tight = run_cli(*args, "--budget-cells", "5000")
        default = run_cli(*args)
        assert tight.returncode == default.returncode == 0
        assert tight.stdout == default.stdout
        assert json.loads(tight.stdout)["checks_ok"] is True

    def test_g_above_the_budget_is_no_refusal(self, capsys):
        # pipeline3 counts G from its kernel and never materializes it: |G| = 8^4 = 4096
        # above --budget-cells 1000 gives the default budget's bundle
        args = ["pipeline3", "--expr", "x*0 = 0 mod 8", "--grid-x", "list:0,1", "--grid-y", "fullmod",
                "--grid-z", "fullmod"]
        assert cli.main(args) == 0
        default = capsys.readouterr().out
        assert cli.main([*args, "--budget-cells", "1000"]) == 0
        assert capsys.readouterr().out == default
        assert json.loads(default)["g_edges"] == 4096

    def test_hard_budget_exit_4(self):
        res = run_cli(
            "pipeline3",
            "--expr", "x + y = z mod 11",
            "--grid-x", "fullmod", "--grid-y", "fullmod", "--grid-z", "fullmod",
            "--budget-cells", "100",
        )
        assert res.returncode == 4

    def test_empty_relation_checks_hold(self):
        res = run_cli(
            "pipeline3",
            "--expr", "x*0 = 1 mod 7",
            "--grid-x", "fullmod", "--grid-y", "fullmod", "--grid-z", "fullmod",
        )
        assert res.returncode == 0, res.stderr
        bundle = json.loads(res.stdout)
        assert bundle["delta_degree"]["d"] == 0
        assert bundle["g_edges"] == 0
        assert bundle["checks_ok"] is True

    def test_d_absent_skips_both_checks_and_out_holds_the_stdout_bytes(self, tmp_path, capsys):
        # every triple holds, so each pairing maximum is 3, past --threshold 1: d is absent
        out = tmp_path / "bundle.json"
        args = ["pipeline3", "--expr", "x*0 = 0 mod 3", "--grid-x", "fullmod", "--grid-y", "fullmod",
                "--grid-z", "fullmod", "--threshold", "1", "--out", str(out)]
        assert cli.main(args) == 0
        stdout = capsys.readouterr().out
        bundle = json.loads(stdout)
        assert bundle["delta_degree"]["d"] is None and bundle["checks_ok"] is True
        assert bundle["fiber_report"] == bundle["cauchy_schwarz"] == {"status": "skipped:d-absent"}
        assert "g_edges" not in bundle
        assert out.read_bytes() == stdout.encode()

    @pytest.mark.parametrize(
        "instance",
        [
            ("--expr", "x + y = z mod 11", "--grid-x", "fullmod", "--grid-y", "fullmod",
             "--grid-z", "fullmod"),
            ("--family", "cyclic", "--twists", "seeded", "--seed", "3", "--n", "12"),
            ("--family", "cylindrical:3", "--n", "6", "--seed", "1", "--threshold", "64"),
        ],
    )
    def test_one_g_kernel_call_per_run(self, monkeypatch, capsys, instance):
        calls = []
        kernel = pipeline.g_edge_count

        def counted(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(pipeline, "g_edge_count", counted)
        assert cli.main(["pipeline3", *instance]) == 0
        assert json.loads(capsys.readouterr().out)["checks_ok"] is True
        assert len(calls) == 1


class TestScan:
    def test_cyclic_slope_two(self, tmp_path):
        out = tmp_path / "scan.csv"
        res = run_cli(
            "scan", "--family", "cyclic", "--sizes", "8,16,32,64", "--out", str(out)
        )
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[0] == "instance"
        data = [line.split(",") for line in lines[2:]]
        assert [row[1] for row in data] == ["8", "16", "32", "64"]
        assert all(abs(float(row[6]) - 2.0) <= 1e-9 for row in data)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("scan", "--family", "dsl", "--expr", "x + y = z", "--sizes", "8,16,32")
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_cyclic_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("scan", "--family", "cyclic", "--sizes", "8,16,32")
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self):
        res = run_cli("scan", "--family", "cyclic", "--sizes", "8,16,32", "--format", "json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["header"]["subcommand"] == "scan"
        assert [r["n"] for r in payload["rows"]] == [8, 16, 32]

    def test_too_few_sizes_exit_3(self):
        res = run_cli("scan", "--family", "cyclic", "--sizes", "8,16")
        assert res.returncode == 3

    def test_bad_size_list_refused_before_the_first_build(self, capsys):
        start = time.perf_counter()
        assert cli.main(["scan", "--family", "cyclic", "--sizes", "1500,1500,1000"]) == 3
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == "expd: input error: sizes must be strictly increasing\n"


# --- the parser: each subcommand accepts exactly the flags it reads ----------

GOLDEN_REL3 = os.path.join(os.path.dirname(__file__), "golden", "cylindrical-4-n12-seed5.rel3.json")
ACCEPTED_FLAG_COUNTS = {"count": 12, "derive-g": 11, "certify": 16, "cutting": 10, "pipeline3": 13, "scan": 11}
# an argv each subcommand runs to exit 0, and the flags it does not read
RUNNABLE = {
    "count": ("count", "--family", "cyclic", "--n", "5"),
    "derive-g": ("derive-g", "--family", "cyclic", "--n", "4"),
    "certify": ("certify", "--pg", "7"),
    "cutting": ("cutting", "--interval", "40:120", "--seed", "3"),
    "pipeline3": ("pipeline3", "--family", "cyclic", "--n", "4"),
    "scan": ("scan", "--family", "cyclic", "--sizes", "8,16,32"),
}
TERNARY_ONLY = ("--budget-cells", "--expr", "--grid-x", "--grid-y", "--grid-z", "--family", "--twists", "--n")
UNREAD = {
    "count": ("--threshold",),
    "derive-g": ("--format", "--threshold"),
    "certify": ("--threshold", *TERNARY_ONLY),
    "cutting": ("--threshold", *TERNARY_ONLY),
    "pipeline3": ("--format",),
    "scan": ("--threshold", "--rel", "--n"),
}
# a value each unread flag would take where it is read
VALUES = {
    "--threshold": "2", "--format": "json", "--budget-cells": "10", "--expr": "x + y = z",
    "--grid-x": "fullmod", "--grid-y": "fullmod", "--grid-z": "fullmod", "--family": "cyclic",
    "--twists": "seeded", "--n": "8", "--rel": GOLDEN_REL3,
}


def test_accepted_flag_counts():
    parser = cli.build_parser()
    counts = {name: len(vars(parser.parse_args([name]))) - 1 for name in cli.COMMANDS}  # - "command"
    assert counts == ACCEPTED_FLAG_COUNTS
    assert sum(counts.values()) == 73


def test_cutting_offers_no_none_cutter(capsys):
    assert cli.main([*RUNNABLE["cutting"], "--cutter", "none"]) == 3
    assert "invalid choice: 'none' (choose from 'auto', 'interval', 'box', 'greedy')" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in UNREAD.items() for f in flags])
def test_unread_flag_exit_3(capsys, command, flag):
    assert cli.main([*RUNNABLE[command], flag, VALUES[flag]]) == 3
    err = capsys.readouterr().err
    assert "input error" in err and f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize(
    "command, flag",
    [("certify", "--r"), ("certify", "--s"), ("certify", "--t"), ("certify", "--D"), ("count", "--n"),
     ("pipeline3", "--k"), ("certify", "--leaf-size"), ("count", "--budget-cells"),
     ("pipeline3", "--threshold"), ("count", "--seed")],
)
def test_malformed_typed_flag_exit_3(capsys, command, flag):
    assert cli.main([*RUNNABLE[command], flag, "abc"]) == 3
    assert f"input error: argument {flag}: invalid int value: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("count", "--family", "cyclic", "--n", "5", "--bogus"), "unrecognized arguments: --bogus"),
        (("counts", "--family", "cyclic"), "invalid choice: 'counts'"),
        ((), "the following arguments are required: command"),
        (("count", "--family", "cyclic", "--n", "5", "--s", "2"), "unrecognized arguments: --s 2"),
        (("certify", "--pg", "7", "--lea", "8"), "unrecognized arguments: --lea 8"),
    ],
)
def test_malformed_command_line_exit_3(capsys, argv, message):
    assert cli.main(list(argv)) == 3
    assert message in capsys.readouterr().err


def test_parser_error_in_a_process_exit_3():
    res = run_cli("certify", "--pg", "7", "--r", "abc")
    assert res.returncode == 3
    assert res.stderr == "expd: input error: argument --r: invalid int value: 'abc'\n"
    assert res.stdout == ""


def test_console_script_resolves_to_cli_main():
    # read as text: Python 3.10 has no tomllib
    pyproject = pathlib.Path(__file__).parent.parent.joinpath("pyproject.toml").read_text(encoding="utf-8")
    section = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    scripts = dict(line.replace('"', "").split(" = ") for line in section.strip().splitlines())
    assert list(scripts) == ["expd"]
    module, attr = scripts["expd"].split(":")
    assert getattr(importlib.import_module(module), attr) is cli.main

@pytest.mark.parametrize("command", [None, *RUNNABLE])
def test_help_exit_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: expd {command or ''}".rstrip())


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--rel", GOLDEN_REL3, "--family", "cyclic", "--n", "5"),
        ("pipeline3", "--rel", GOLDEN_REL3, "--expr", "x + y = z mod 7"),
        ("certify", "--pg", "7", "--identity", "5"),
        ("cutting", "--rel", "f.json", "--box", "48:16", "--seed", "5"),
        ("count", "--family", "cyclic", "--n", "5", "--expr", "y = z", "--grid-y", "list:1", "--grid-z", "list:1"),
        ("scan", "--family", "cyclic", "--expr", "x + y = z", "--sizes", "8,16,32"),
    ],
)
def test_second_instance_source_exit_3(capsys, argv):
    assert cli.main(list(argv)) == 3
    assert "input error" in capsys.readouterr().err


SMALL_XYZ = ("--grid-x", "list:1", "--grid-y", "list:1", "--grid-z", "list:2")


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--rel", GOLDEN_REL3, "--n", "5"),
        ("count", "--rel", GOLDEN_REL3, "--grid-x", "list:1"),
        ("count", "--rel", GOLDEN_REL3, "--twists", "seeded", "--seed", "1"),
        ("count", "--expr", "x+y=z", *SMALL_XYZ, "--n", "7"),
        ("count", "--expr", "x+y=z", *SMALL_XYZ, "--twists", "seeded", "--seed", "2"),
        ("count", "--expr", "y=z", "--grid-y", "list:1", "--grid-z", "list:1", "--twists", "seeded", "--seed", "2"),
    ],
    ids=["rel-n", "rel-grid", "rel-twists", "expr-n", "expr-twists", "binary-expr-twists"],
)
def test_family_flags_on_a_whole_instance_exit_3(capsys, argv):
    assert cli.main(list(argv)) == 3
    err = capsys.readouterr().err
    assert err.startswith("expd: input error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv, name",
    [
        (("count", "--rel", GOLDEN_REL3), GOLDEN_REL3),
        (("count", "--family", "dsl", "--expr", "x + y = z", "--n", "4"), "dsl"),
        (("certify", "--identity", "5"), "identity:5"),
        (("certify", "--interval", "40:120", "--seed", "3"), "interval:40:120"),
        (("cutting", "--identity", "16"), "greedy:identity:16"),
        (("cutting", "--interval", "40:120", "--seed", "3", "--cutter", "greedy"), "greedy:40:120"),
    ],
)
def test_instance_named_by_its_source(capsys, argv, name):
    cli.main(list(argv))
    assert capsys.readouterr().out.splitlines()[-1].split(",")[0] == name
