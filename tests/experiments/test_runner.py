"""Unit tests for the experiment registry and report rendering."""

import pytest

from repro.experiments.report import render_comparison, render_table
from repro.experiments.runner import (
    ExperimentResult,
    Preset,
    list_experiments,
    run_experiment,
)


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        experiments = list_experiments()
        expected = {
            "table1",
            "table2",
            "table3",
            "table4",
            "tables6_7",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "appendix_a3",
        }
        assert expected <= set(experiments)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99")

    def test_preset_by_string(self):
        result = run_experiment("table1", "quick")
        assert isinstance(result, ExperimentResult)

    def test_preset_enum(self):
        """Two presets: scaled for CI, and the paper's protocol."""
        assert [preset.value for preset in Preset] == ["quick", "paper"]
        assert Preset("paper") is Preset.PAPER
        with pytest.raises(ValueError):
            Preset("standard")


class TestResultRendering:
    def _result(self):
        return ExperimentResult(
            experiment="figX",
            title="demo",
            rows=[{"a": 1, "b": 0.5}, {"a": 2, "b": 0.25}],
            headline={"metric": 0.5},
            paper_reference={"metric": 0.48},
            notes="a note",
        )

    def test_render_contains_everything(self):
        text = self._result().render()
        assert "figX" in text
        assert "metric" in text
        assert "0.48" in text
        assert "a note" in text

    def test_render_table_alignment(self):
        text = render_table([{"x": 1, "y": 22}, {"x": 333, "y": 4}])
        lines = text.splitlines()
        assert len({len(line) for line in lines if line.strip()}) <= 2

    def test_render_table_missing_cells(self):
        text = render_table([{"a": 1}, {"b": 2}])
        assert "a" in text and "b" in text

    def test_render_empty(self):
        assert "(no rows)" in render_table([], title="empty")

    def test_render_comparison(self):
        text = render_comparison({"gap": (0.30, 0.28)})
        assert "paper" in text and "measured" in text


class TestCheapExperimentsRun:
    """Every non-simulation experiment must run quickly and cleanly."""

    @pytest.mark.parametrize(
        "experiment",
        [
            "table1",
            "table2",
            "table3",
            "table4",
            "tables6_7",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "appendix_a3",
        ],
    )
    def test_runs_and_renders(self, experiment):
        result = run_experiment(experiment, Preset.QUICK)
        assert result.rows
        assert result.render()


class TestCsvExport:
    def test_to_csv_round_trip(self, tmp_path):
        import csv

        result = run_experiment("fig5", Preset.QUICK)
        path = tmp_path / "fig5.csv"
        result.to_csv(path)
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(result.rows)
        assert "tuple level" in rows[0]

    def test_to_csv_union_of_columns(self, tmp_path):
        result = ExperimentResult(
            experiment="x", title="t", rows=[{"a": 1}, {"b": 2}]
        )
        path = tmp_path / "x.csv"
        result.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "a,b"
