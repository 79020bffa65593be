"""Scaling fits and report emission."""

import json
import math

import pytest

from expd import FamilySpec, InputError, ReportRow, emit_report, fit_loglog, make_family, run_scaling
from expd.pipeline import RelationFamily
from expd.reports import render_csv, render_json


def least_squares_oracle(xs, ys):
    # independent small implementation for cross-checking
    k = len(xs)
    mx = sum(xs) / k
    my = sum(ys) / k
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


class TestFitLoglog:
    def test_exact_square_counts(self):
        sizes = (8, 16, 32, 64)
        fit = fit_loglog(sizes, tuple(n * n for n in sizes))
        assert abs(fit.slope - 2.0) < 1e-12
        assert fit.residual_max < 1e-12

    def test_constant_counts(self):
        fit = fit_loglog((4, 8, 16), (7, 7, 7))
        assert abs(fit.slope) < 1e-12

    def test_triangular_counts_slope(self):
        sizes = (16, 32, 64, 128)
        counts = tuple(n * (n + 1) // 2 for n in sizes)
        fit = fit_loglog(sizes, counts)
        oracle = least_squares_oracle(
            [math.log(s) for s in sizes], [math.log(c) for c in counts]
        )
        assert abs(fit.slope - oracle) < 1e-12
        assert abs(fit.slope - 1.975) < 2e-3

    def test_validation(self):
        with pytest.raises(InputError):
            fit_loglog((4, 8), (1, 2))
        with pytest.raises(InputError):
            fit_loglog((4, 8, 8), (1, 2, 3))
        with pytest.raises(InputError):
            fit_loglog((4, 8, 16), (1, 0, 3))
        with pytest.raises(InputError):
            fit_loglog((4, 8, 16), (1, 2))


class TestRunScaling:
    def test_group_like_slope_exactly_two(self):
        fam = make_family(FamilySpec(kind="group_like", group=("cyclic", None)))
        fit = run_scaling(fam, (8, 16, 32, 64))
        assert fit.counts == (64, 256, 1024, 4096)
        assert abs(fit.slope - 2.0) <= 1e-9

    def test_constant_family_slope_zero(self):
        base = make_family(FamilySpec(kind="group_like", group=("cyclic", None))).build(5)
        fam = RelationFamily("constant", lambda n: base)
        fit = run_scaling(fam, (4, 8, 16))
        assert fit.counts == (25, 25, 25)
        assert abs(fit.slope) < 1e-12

    @pytest.mark.parametrize("sizes", [(8, 16), (8, 8, 16), (16, 8, 32)])
    def test_bad_size_list_refused_before_the_first_build(self, sizes):
        built = []
        with pytest.raises(InputError):
            run_scaling(RelationFamily("watched", built.append), sizes)
        assert built == []

    def test_sum_family_slope(self):
        fam = make_family(FamilySpec(kind="dsl", expr="x + y = z"))
        fit = run_scaling(fam, (16, 32, 64, 128))
        assert fit.counts == tuple(n * (n + 1) // 2 for n in (16, 32, 64, 128))
        assert abs(fit.slope - 1.975) < 2e-3


class TestEmitReport:
    def rows(self):
        return [
            ReportRow(instance="a", n=8, count=64, slope=2.0),
            ReportRow(instance="b", n=16, count=256, slope=2.0, status="ok"),
        ]

    def test_empty_rows_header_only(self):
        text = emit_report([], "csv", None, {"subcommand": "scan", "seed": 1})
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("# ")
        assert lines[1].startswith("instance,n,count")

    def test_one_row_csv(self):
        text = emit_report(self.rows()[:1], "csv", None, {"seed": 0})
        assert len(text.splitlines()) == 3

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(self.rows(), "csv", str(p1), {"subcommand": "scan", "seed": 7})
        emit_report(self.rows(), "csv", str(p2), {"subcommand": "scan", "seed": 7})
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_mirrors_csv(self):
        csv_text = render_csv(self.rows(), "seed=7")
        json_text = render_json(self.rows(), {"seed": 7})
        payload = json.loads(json_text)
        assert payload["header"] == {"seed": 7}
        assert len(payload["rows"]) == 2
        assert payload["rows"][0]["count"] == 64
        assert "64" in csv_text

    def test_seed_logged_in_header(self):
        text = emit_report([], "csv", None, {"subcommand": "scan", "seed": 123})
        assert "seed=123" in text.splitlines()[0]

    def test_unwritable_path(self):
        with pytest.raises(OSError):
            emit_report([], "csv", "/nonexistent-dir/report.csv", {"seed": 1})

    def test_unknown_format(self):
        with pytest.raises(InputError):
            emit_report([], "xml", None, {"seed": 1})
