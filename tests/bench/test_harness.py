"""Benchmark harness plumbing: tables, checks, helpers."""

import pytest

from repro.bench.harness import (
    Experiment,
    ShapeCheck,
    Table,
    geometric_mean,
    monotone_decreasing,
    monotone_increasing,
)


class TestTable:
    def make(self):
        table = Table(title="T: demo", columns=["name", "value"])
        table.add_row("alpha", 1.0)
        table.add_row("beta", 2.5)
        return table

    def test_add_row_checks_width(self):
        table = self.make()
        with pytest.raises(ValueError):
            table.add_row("only-one-cell")

    def test_render_contains_everything(self):
        table = self.make()
        table.add_note("a note")
        text = table.render()
        assert "T: demo" in text
        assert "alpha" in text and "beta" in text
        assert "note: a note" in text

    def test_markdown_is_valid_pipe_table(self):
        lines = self.make().to_markdown().splitlines()
        assert lines[0].startswith("| name")
        assert set(lines[1].replace("|", "").strip()) <= {"-"}
        assert len(lines) == 4

    def test_float_formatting(self):
        assert Table._format_cell(0.123456) == "0.123"
        assert Table._format_cell(12345.6) == "1.23e+04"
        assert Table._format_cell(0.001234) == "0.00123"
        assert Table._format_cell(0) == "0"
        assert Table._format_cell("text") == "text"


class TestExperiment:
    def test_all_passed(self):
        experiment = Experiment("X1", Table(title="t", columns=["a"]))
        experiment.check("first", True)
        assert experiment.all_passed
        experiment.check("second", False, detail="boom")
        assert not experiment.all_passed

    def test_render_marks_checks(self):
        experiment = Experiment("X1", Table(title="t", columns=["a"]))
        experiment.check("good", True)
        experiment.check("bad", False, detail="why")
        text = experiment.render()
        assert "[PASS] good" in text
        assert "[FAIL] bad (why)" in text


class TestHelpers:
    def test_monotone_increasing(self):
        assert monotone_increasing([1, 2, 3])
        assert monotone_increasing([1, 1, 2])
        assert not monotone_increasing([1, 3, 2])
        assert monotone_increasing([1, 3, 2.9], tolerance=0.2)

    def test_monotone_decreasing(self):
        assert monotone_decreasing([3, 2, 1])
        assert not monotone_decreasing([1, 2])

    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([5]) == pytest.approx(5.0)

    def test_geometric_mean_validation(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

class TestShapeCheck:
    def test_render(self):
        assert ShapeCheck("works", True).render() == "[PASS] works"
        assert ShapeCheck("broken", False, "detail").render() == "[FAIL] broken (detail)"
