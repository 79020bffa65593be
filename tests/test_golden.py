"""Byte-for-byte report reruns against committed golden files.

Each case runs one CLI command (or one library write) and compares the bytes
it produces with a file in tests/golden/, written by an earlier version of
expd.  Reports must not change when the internals do.
"""

import os

import pytest

from expd import cli, write_relation
from expd.pipeline import FamilySpec, make_family

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

TWISTED = ("--family", "cyclic", "--twists", "seeded", "--seed", "3")
FULLMOD = ("--grid-x", "fullmod", "--grid-y", "fullmod", "--grid-z", "fullmod")
BOX = (
    "--box", "200:24", "--seed", "7", "--s", "2", "--t", "60", "--D", "2",
    "--epsilon", "59/14280", "--r", "4", "--leaf-size", "8",
)

# golden file -> the argv whose stdout it holds ("{out}" is a temp path); the
# commands run inside tests/golden/, so a --rel input is named relative to it
STDOUT_CASES = {
    "scan-cyclic.csv": ("scan", "--family", "cyclic", "--sizes", "16,32,48,64"),
    "scan-cyclic.json": ("scan", "--family", "cyclic", "--sizes", "16,32,48,64", "--format", "json"),
    "scan-cyclic-twisted.csv": ("scan", *TWISTED, "--sizes", "8,16,24,32"),
    "scan-cyclic-twisted.json": ("scan", *TWISTED, "--sizes", "8,16,24,32", "--format", "json"),
    "pipeline3-twisted-32.json": ("pipeline3", *TWISTED, "--n", "32"),
    "derive-g-twisted-16.stdout": ("derive-g", *TWISTED, "--n", "16", "--out", "{out}"),
    # no --out: the pair relation goes to stdout with the default separators
    "derive-g-twisted-8.stdout": ("derive-g", *TWISTED, "--n", "8"),
    # DSL relations: no solved variable, solved z, binary, topz, and a G pipeline
    "count-xyz-mod89.csv": ("count", "--expr", "x*y*z = 1 mod 89", *FULLMOD),
    "count-pow200-mod211.csv": ("count", "--expr", "x^200 + y^3 = z mod 211", *FULLMOD),
    "count-curve-mod401.csv": (
        "count", "--expr", "y^2 = z^3 + 7 mod 401", "--grid-y", "fullmod", "--grid-z", "fullmod"
    ),
    "scan-topz.csv": ("scan", "--family", "topz", "--expr", "x^2 + y^3 = z", "--sizes", "8,16,32"),
    "pipeline3-squares-mod61.json": ("pipeline3", "--expr", "x^2 + y^2 = z mod 61", *FULLMOD),
    # certificates: box cells (Case 3 nodes), greedy (degraded nodes), short
    # intervals (all three cases) and PG(2,7); "{out}" is the --cert-out file
    "certify-box-200-24.csv": ("certify", *BOX, "--cert-out", "{out}"),
    "certify-box-200-24-greedy.csv": ("certify", *BOX, "--cutter", "greedy", "--cert-out", "{out}"),
    "certify-intervals-160x256.csv": (
        "certify", "--rel", "intervals-160x256.rel2.json", "--s", "2", "--t", "5", "--D", "1",
        "--epsilon", "1/10", "--r", "4", "--leaf-size", "8", "--cert-out", "{out}",
    ),
    "certify-pg7.csv": ("certify", "--pg", "7", "--cert-out", "{out}"),
    "cutting-interval.csv": ("cutting", "--interval", "40:120", "--seed", "3", "--r", "4"),
    "cutting-box.csv": ("cutting", "--box", "48:16", "--seed", "5", "--r", "4"),
    "cutting-greedy.csv": ("cutting", "--box", "48:16", "--seed", "5", "--cutter", "greedy", "--r", "4"),
}
# golden file -> the case above whose --out file it holds
FILE_CASES = {
    "derive-g-twisted-16.json": "derive-g-twisted-16.stdout",
    "certify-box-200-24.cert.json": "certify-box-200-24.csv",
    "certify-box-200-24-greedy.cert.json": "certify-box-200-24-greedy.csv",
    "certify-intervals-160x256.cert.json": "certify-intervals-160x256.csv",
    "certify-pg7.cert.json": "certify-pg7.csv",
}


def golden(name: str) -> bytes:
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        return fh.read()


def run_case(name: str, out_path: str, capsys, monkeypatch) -> bytes:
    monkeypatch.chdir(GOLDEN_DIR)
    argv = [arg.format(out=out_path) for arg in STDOUT_CASES[name]]
    assert cli.main(argv) == 0
    return capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("name", sorted(STDOUT_CASES))
def test_stdout_matches_golden(tmp_path, capsys, monkeypatch, name):
    assert run_case(name, str(tmp_path / "out.json"), capsys, monkeypatch) == golden(name)


@pytest.mark.parametrize("name", sorted(FILE_CASES))
def test_output_file_matches_golden(tmp_path, capsys, monkeypatch, name):
    out = tmp_path / "out.json"
    run_case(FILE_CASES[name], str(out), capsys, monkeypatch)
    assert out.read_bytes() == golden(name)


def test_written_rel3_matches_golden(tmp_path):
    # a cylindrical block plus seeded noise, which the family sorts and merges into the block
    rel = make_family(FamilySpec(kind="cylindrical", block=4, seed=5)).build(12)
    out = tmp_path / "rel3.json"
    write_relation(str(out), rel)
    assert out.read_bytes() == golden("cylindrical-4-n12-seed5.rel3.json")


def test_written_unit_group_rel3_matches_golden(tmp_path):
    # scan counts of a group-like family are always n², so only the written
    # triples and labels pin the unit-group builder
    twists = (("seeded", 3), ("seeded", 4), ("seeded", 5))
    rel = make_family(FamilySpec(kind="group_like", group=("unit_group_mod", 31), twists=twists)).build(30)
    out = tmp_path / "rel3.json"
    write_relation(str(out), rel)
    assert out.read_bytes() == golden("unit-group-mod31-twisted-n30.rel3.json")
