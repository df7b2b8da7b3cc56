"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("table1", "fig5", "fig12", "appendix_a3"):
            assert experiment_id in out


class TestRun:
    def test_run_cheap_experiment(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Logical Database" in out
        assert "stock" in out

    def test_run_with_preset(self, capsys):
        assert main(["run", "fig5", "--preset", "quick"]) == 0
        assert "hottest" in capsys.readouterr().out

    def test_unknown_experiment_exit_code(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_invalid_preset_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig5", "--preset", "galactic"])

    def test_standard_preset_is_gone(self, capsys):
        """Two presets remain: ``quick`` and ``paper``."""
        with pytest.raises(SystemExit) as usage:
            main(["run", "fig8", "--preset", "standard"])
        assert usage.value.code == 2
        assert "'standard'" in capsys.readouterr().err

    def test_kernel_flag(self, capsys):
        """One back end, no selector: the flag is a usage error."""
        with pytest.raises(SystemExit) as usage:
            main(["run", "fig5", "--kernel", "array"])
        assert usage.value.code == 2
        assert "--kernel" in capsys.readouterr().err

    def test_invalid_kernel_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig5", "--kernel", "simd"])


class TestRunEngineFlags:
    def test_jobs_cache_and_manifest(self, tmp_path, capsys):
        import json

        manifest_path = tmp_path / "manifest.json"
        assert main(
            [
                "run", "fig8",
                "--preset", "quick",
                "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--manifest", str(manifest_path),
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "miss rate" in captured.out
        assert "[exec] manifest:" in captured.err
        data = json.loads(manifest_path.read_text())
        assert data["jobs"] == 2
        assert data["units_total"] > 0
        assert data["failures"] == 0

    def test_quiet_suppresses_progress(self, capsys):
        assert main(["run", "fig8", "--preset", "quick", "--quiet"]) == 0
        assert "[exec]" not in capsys.readouterr().err

    def test_invalid_jobs_rejected(self, capsys):
        assert main(["run", "fig8", "--jobs", "0"]) == 2
        assert "invalid run request" in capsys.readouterr().err

    def test_value_error_exit_code(self, capsys, monkeypatch):
        from repro.experiments import runner

        def bad(ctx):
            raise ValueError("unsupported preset")

        monkeypatch.setattr(
            runner, "EXPERIMENTS", {**runner.EXPERIMENTS, "_test_bad": bad}
        )
        assert main(["run", "_test_bad"]) == 2
        assert "rejected its configuration" in capsys.readouterr().err

    def test_execution_error_exit_code(self, capsys, monkeypatch):
        from repro.exec.engine import ExecutionError
        from repro.experiments import runner

        def doomed(ctx):
            raise ExecutionError("unit kept failing")

        monkeypatch.setattr(
            runner, "EXPERIMENTS", {**runner.EXPERIMENTS, "_test_doomed": doomed}
        )
        assert main(["run", "_test_doomed"]) == 3
        assert "execution failed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["run", "_test_keyerror"], ["run-all"]], ids=["run", "run-all"]
    )
    def test_key_error_inside_experiment_is_not_unknown_id(
        self, capsys, monkeypatch, command
    ):
        """Only an unregistered id exits 2 "unknown experiment"; a
        ``KeyError`` raised by the experiment itself surfaces as itself."""
        from repro.experiments import runner

        def broken(ctx):
            raise KeyError("x")

        monkeypatch.setattr(runner, "EXPERIMENTS", {"_test_keyerror": broken})
        monkeypatch.setattr(runner, "list_experiments", lambda: ["_test_keyerror"])
        with pytest.raises(KeyError, match="x"):
            main([*command, "--quiet"])
        assert "unknown experiment" not in capsys.readouterr().err

    def test_run_all_tallies_rejected_configurations(self, capsys, monkeypatch):
        from repro.experiments import runner

        def bad(ctx):
            raise ValueError("unsupported preset")

        monkeypatch.setattr(runner, "EXPERIMENTS", {"_test_bad": bad})
        monkeypatch.setattr(runner, "list_experiments", lambda: ["_test_bad"])
        assert main(["run-all", "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "rejected its configuration" in err
        assert "failed experiments: _test_bad" in err

    def test_retry_budget_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as usage:
            main(["run", "fig8", "--retries", "1"])
        assert usage.value.code == 2
        assert "--retries" in capsys.readouterr().err

    def test_sigint_exits_130_and_writes_partial_manifest(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.exec.request as request_module

        def fake_execute(request, *, engine=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(request_module, "execute", fake_execute)
        manifest_path = tmp_path / "manifest.json"
        code = main(["run", "fig8", "--manifest", str(manifest_path), "--quiet"])
        assert code == 130
        assert manifest_path.exists()
        assert "rerun with the same --cache-dir" in capsys.readouterr().err


class TestRunAll:
    def test_quick_smoke(self, tmp_path, capsys):
        """Every experiment renders, and only simulations are work units."""
        import json

        from repro.experiments.runner import list_experiments

        manifest_path = tmp_path / "manifest.json"
        assert main(
            ["run-all", "--preset", "quick", "--quiet",
             "--manifest", str(manifest_path)]
        ) == 0
        out = capsys.readouterr().out
        for experiment_id in list_experiments():
            assert f"{experiment_id}: " in out
        units = json.loads(manifest_path.read_text())["units"]
        assert units
        assert all(
            unit["experiment"] == "fig8" and unit["unit"].startswith("fig8/")
            for unit in units
        )


class TestSkew:
    def test_stock_summary(self, capsys):
        assert main(["skew"]) == 0
        out = capsys.readouterr().out
        assert "hottest 20%" in out
        assert "gini" in out

    def test_customer_summary(self, capsys):
        assert main(["skew", "--relation", "customer"]) == 0
        assert "customer relation" in capsys.readouterr().out


class TestThroughput:
    def test_default_point(self, capsys):
        assert main(["throughput"]) == 0
        out = capsys.readouterr().out
        assert "new-order tpm" in out

    def test_custom_parameters(self, capsys):
        assert main(
            ["throughput", "--buffer-mb", "104", "--packing", "optimized",
             "--mips", "20"]
        ) == 0
        assert "optimized" in capsys.readouterr().out


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        import subprocess
        import sys

        process = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert process.returncode == 0
        assert "fig8" in process.stdout

    def test_cold_start_loads_no_scipy(self):
        """Importing repro, listing experiments and a batch-means run load
        no scipy module: the t quantile is the standard library's.

        A fresh interpreter, because this process already holds scipy.
        """
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent(
            """
            import sys

            import repro
            import repro.distributed.simulation
            import repro.driver
            import repro.tpcc.executor
            from repro.cli import main

            def scipy_modules():
                return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

            assert main(["list"]) == 0
            assert not scipy_modules(), scipy_modules()[:5]

            config = repro.SimulationConfig(
                trace=repro.TraceConfig(warehouses=1, seed=3),
                buffer_mb=1,
                batches=2,
                batch_size=2_000,
                warmup_references=2_000,
            )
            report = repro.BufferSimulation(config).run()
            assert report.relations["stock"].summary is not None
            assert not scipy_modules(), scipy_modules()[:5]
            """
        )
        process = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert process.returncode == 0, process.stderr
        assert "fig8" in process.stdout

    def test_batch_means_runs_with_scipy_blocked(self):
        """With scipy unimportable, a simulation, a run to precision and
        the fig8 sweep all still produce their intervals."""
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent(
            """
            import sys

            sys.modules["scipy"] = None

            import repro
            from repro.cli import main

            config = repro.SimulationConfig(
                trace=repro.TraceConfig(warehouses=1, seed=3),
                buffer_mb=1,
                batches=2,
                batch_size=2_000,
                warmup_references=2_000,
            )
            simulation = repro.BufferSimulation(config)
            assert simulation.run().relations["stock"].summary is not None
            precise = simulation.run_until_precise(max_batches=8)
            assert precise.relations["stock"].summary is not None
            assert main(["run", "fig8", "--preset", "quick", "--quiet"]) == 0
            """
        )
        process = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert process.returncode == 0, process.stderr


class TestValidate:
    def test_consistent_trace(self, capsys):
        assert main(
            ["validate", "--warehouses", "1", "--items", "300",
             "--customers", "90", "--transactions", "2500"]
        ) == 0
        out = capsys.readouterr().out
        assert "TV distance" in out
        assert "consistent" in out

    def test_random_packing(self, capsys):
        assert main(
            ["validate", "--warehouses", "1", "--items", "300",
             "--customers", "90", "--transactions", "2500", "--packing", "random"]
        ) == 0
        out = capsys.readouterr().out
        assert "TV distance" in out
        assert out.splitlines()[-1] == "consistent"


class TestTrace:
    def test_record_trace(self, tmp_path, capsys):
        path = tmp_path / "out.npz"
        assert main(
            ["trace", str(path), "--warehouses", "1", "--transactions", "100"]
        ) == 0
        assert path.exists()
        assert "recorded" in capsys.readouterr().out

    def test_missing_directory_is_an_invalid_argument(self, tmp_path, capsys):
        path = tmp_path / "missing" / "out.npz"
        code = main(["trace", str(path), "--warehouses", "1", "--transactions", "10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"invalid arguments: output directory {path.parent} does not exist\n"
        )
        assert not path.parent.exists()


class TestInvalidArguments:
    """A value the model rejects is a one-line usage error, not a result
    computed from a clamped value or a traceback."""

    @pytest.mark.parametrize("value", ["0", "-5", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["throughput", "--buffer-mb"],
            ["validate", "--transactions"],
            ["trace", "{tmp}/out.npz", "--warehouses"],
        ],
        ids=["throughput", "validate", "trace"],
    )
    def test_exit_2_with_one_line(self, argv, value, tmp_path, capsys):
        argv = [arg.format(tmp=tmp_path) for arg in argv] + [value]
        try:
            code = main(argv)
        except SystemExit as usage:  # argparse: "nan" is not an int
            code = usage.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert not (tmp_path / "out.npz").exists()
        if value == "nan" and argv[0] != "throughput":
            assert "invalid int value: 'nan'" in captured.err
        else:
            assert captured.err.startswith("invalid arguments: ")
            assert captured.err.count("\n") == 1


class TestRunCsv:
    def test_csv_flag(self, tmp_path, capsys):
        path = tmp_path / "fig5.csv"
        assert main(["run", "fig5", "--csv", str(path)]) == 0
        assert path.exists()
        assert "rows written" in capsys.readouterr().out
