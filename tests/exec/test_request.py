"""Unit tests for the unified run-request API and the legacy shim."""

import json
import warnings

import pytest

from repro.exec.engine import ExecutionEngine
from repro.exec.request import RunContext, RunRequest, build_engine, execute
from repro.exec.units import SweepSpec
from repro.experiments import runner
from repro.experiments.runner import (
    ExperimentResult,
    Preset,
    register,
    run_experiment,
)


class TestRunRequest:
    def test_defaults(self):
        request = RunRequest(experiment="fig8")
        assert request.preset is Preset.QUICK
        assert request.jobs == 1
        assert request.cache_dir is None
        assert request.manifest_path is None
        assert not request.collect_metrics

    def test_preset_string_coerced(self):
        assert RunRequest(experiment="fig8", preset="paper").preset is Preset.PAPER

    def test_removed_preset_rejected(self):
        with pytest.raises(ValueError, match="standard"):
            RunRequest(experiment="fig8", preset="standard")

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            RunRequest("fig8")  # noqa: E501 - positional must be rejected

    def test_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            RunRequest(experiment="fig8", jobs=0)
        for removed in ("unit_timeout", "retries", "resume_from"):
            with pytest.raises(TypeError):
                RunRequest(experiment="fig8", **{removed: 1})

    def test_kernel_default_and_choices(self):
        """No default and no choices: ``kernel`` is not a field any more."""
        assert not hasattr(RunRequest(experiment="fig8"), "kernel")
        for kernel in ("auto", "array", "object"):
            with pytest.raises(TypeError):
                RunRequest(experiment="fig8", kernel=kernel)

    def test_frozen(self):
        request = RunRequest(experiment="fig8")
        with pytest.raises(AttributeError):
            request.jobs = 4

    def test_replace(self):
        base = RunRequest(experiment="fig8", jobs=2)
        derived = base.replace(experiment="fig9", jobs=4)
        assert derived.experiment == "fig9"
        assert derived.jobs == 4
        assert base.experiment == "fig8"
        assert base.jobs == 2


class TestRunContext:
    def test_preset_and_seed_passthrough(self):
        context = RunContext(
            request=RunRequest(experiment="fig8", preset="paper"),
            engine=ExecutionEngine(),
        )
        assert context.preset is Preset.PAPER
        assert context.seed(11) == 11

    def test_seed_override_wins(self):
        context = RunContext(
            request=RunRequest(experiment="fig8", seed_override=99),
            engine=ExecutionEngine(),
        )
        assert context.seed(11) == 99

    def test_build_engine_copies_knobs(self, tmp_path):
        engine = build_engine(
            RunRequest(experiment="fig8", jobs=3, cache_dir=tmp_path, profile=True)
        )
        assert engine.jobs == 3
        assert engine.profile
        assert engine.manifest().cache_dir == str(tmp_path)
        engine.close()

    def test_context_reuses_shared_engine(self):
        engine = ExecutionEngine(jobs=1)
        context = RunContext(request=RunRequest(experiment="fig8"), engine=engine)
        assert context.engine is engine
        assert context.engine.run_sweep(SweepSpec("empty", ())) == {}
        assert engine.manifest().total_units == 0


def _fresh_registry(monkeypatch):
    """A throwaway copy of the experiment registry."""
    monkeypatch.setattr(runner, "EXPERIMENTS", dict(runner.EXPERIMENTS))


class TestExecute:
    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            execute(RunRequest(experiment="fig99"))

    def test_runs_registered_experiment(self, monkeypatch):
        _fresh_registry(monkeypatch)
        seen = {}

        @register("_test_dummy")
        def dummy(ctx: RunContext) -> ExperimentResult:
            seen["preset"] = ctx.preset
            return ExperimentResult(
                experiment="_test_dummy", title="t", rows=[{"a": 1}]
            )

        result = execute(RunRequest(experiment="_test_dummy", preset="paper"))
        assert result.rows == [{"a": 1}]
        assert seen["preset"] is Preset.PAPER

    def test_writes_manifest_for_owned_engine(self, tmp_path, monkeypatch):
        _fresh_registry(monkeypatch)

        @register("_test_manifest")
        def manifested(ctx: RunContext) -> ExperimentResult:
            return ExperimentResult(
                experiment="_test_manifest", title="t", rows=[{"a": 1}]
            )

        path = tmp_path / "manifest.json"
        execute(
            RunRequest(experiment="_test_manifest", manifest_path=path)
        )
        data = json.loads(path.read_text())
        assert data["jobs"] == 1
        assert data["units_total"] == 0


class TestLegacyShimRemoved:
    """``ExperimentFunction`` is the contract; registration adds no check."""

    def test_new_style_registers_cleanly(self, monkeypatch):
        _fresh_registry(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)

            @register("_test_new_style")
            def new_style(ctx: RunContext) -> ExperimentResult:
                return ExperimentResult(
                    experiment="_test_new_style", title="t", rows=[{"a": 1}]
                )

        assert execute(RunRequest(experiment="_test_new_style")).rows == [{"a": 1}]

    def test_builtin_experiments_register_under_strict_contract(self):
        # Importing the registry (list_experiments) re-runs every
        # @register with the shim gone; any leftover legacy function
        # would raise TypeError here.
        assert runner.list_experiments()


class TestRunExperimentWrapper:
    def test_forwards_engine_options(self, monkeypatch):
        _fresh_registry(monkeypatch)
        seen = {}

        @register("_test_options")
        def options(ctx: RunContext) -> ExperimentResult:
            seen["request"] = ctx.request
            return ExperimentResult(
                experiment="_test_options", title="t", rows=[{"a": 1}]
            )

        run_experiment("_test_options", "quick", jobs=2, seed_override=3)
        assert seen["request"].jobs == 2
        assert seen["request"].seed_override == 3


class TestFig8EndToEnd:
    """ISSUE acceptance criteria on the real fig8 quick sweep."""

    def test_parallel_rows_identical_to_serial(self):
        serial = run_experiment("fig8", Preset.QUICK, jobs=1)
        parallel = run_experiment("fig8", Preset.QUICK, jobs=4)
        assert parallel.rows == serial.rows
        assert parallel.headline == serial.headline

    def test_second_cached_run_is_all_hits(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first_manifest = tmp_path / "first.json"
        second_manifest = tmp_path / "second.json"
        first = run_experiment(
            "fig8",
            Preset.QUICK,
            cache_dir=cache_dir,
            manifest_path=first_manifest,
        )
        second = run_experiment(
            "fig8",
            Preset.QUICK,
            cache_dir=cache_dir,
            manifest_path=second_manifest,
        )
        assert second.rows == first.rows

        cold = json.loads(first_manifest.read_text())
        warm = json.loads(second_manifest.read_text())
        assert cold["cache_hits"] == 0
        assert cold["units_total"] > 0
        assert warm["units_total"] == cold["units_total"]
        assert warm["cache_hits"] == warm["units_total"]
