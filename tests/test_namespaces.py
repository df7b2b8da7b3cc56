"""Lazy package namespaces: what an import loads, and what a package exports.

Every package ``__init__`` under ``src/repro`` but one declares its exports
as a map from name to defining module (``repro._lazy.attach``) and repeats
them in an ``if TYPE_CHECKING:`` block for static tools.  The import-graph
cases run in a fresh interpreter each: this process has long since
imported everything.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Any

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: The one package whose ``__init__`` stays eager: importing it builds the
#: rule registry from the rule modules.
EAGER_PACKAGES = {"repro.analysis.rules"}

#: Names a package defines itself rather than re-exporting.
OWN_NAMES = {"repro": {"__version__"}}


def _packages() -> list[str]:
    found = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            found.append(info.name)
    return sorted(found)


LAZY_PACKAGES = [name for name in _packages() if name not in EAGER_PACKAGES]


def _declared(package: str) -> tuple[dict[str, str], dict[str, str]]:
    """(the ``attach`` map, the ``TYPE_CHECKING`` imports), each name -> module."""
    tree = ast.parse(Path(importlib.import_module(package).__file__).read_text())
    exports: dict[str, str] = {}
    checked: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if getattr(node.value.func, "id", None) == "attach":
                exports = ast.literal_eval(node.value.args[1])
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            for statement in node.body:
                assert isinstance(statement, ast.ImportFrom), ast.dump(statement)
                for alias in statement.names:
                    # ``X as X`` is the explicit re-export form static tools honour.
                    assert alias.asname == alias.name, alias.name
                    checked[alias.name] = statement.module
    return exports, checked


def _run(script: str) -> Any:
    """Run ``script`` in a fresh interpreter; it prints one JSON document last."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    process = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        check=False,
    )
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


_LOADED = """
    import json
    import sys

    print(json.dumps(sorted(
        m for m in sys.modules if m.split(".")[0] in ("repro", "numpy")
    )))
"""


def _loaded_after(statements: str) -> set[str]:
    return set(_run(textwrap.dedent(statements) + textwrap.dedent(_LOADED)))


def _under(loaded: set[str], packages: tuple[str, ...]) -> list[str]:
    return sorted(
        module
        for module in loaded
        for package in packages
        if module == f"repro.{package}" or module.startswith(f"repro.{package}.")
    )


class TestImportGraph:
    def test_import_repro_runs_no_package_code(self):
        assert _loaded_after("import repro") == {"repro", "repro._lazy"}

    def test_help_loads_no_numpy(self):
        loaded = _loaded_after(
            """
            import runpy
            import sys

            sys.argv = ["repro", "--help"]
            try:
                runpy.run_module("repro", run_name="__main__", alter_sys=True)
            except SystemExit as stop:
                assert stop.code == 0, stop.code
            """
        )
        assert "repro.cli" in loaded
        assert "numpy" not in loaded

    def test_node_loop_loads_no_engine_or_models(self):
        loaded = _loaded_after("import repro.distributed.simulation")
        assert "repro.distributed.simulation" in loaded
        assert not _under(
            loaded,
            (
                "engine", "tpcc", "driver", "faults", "throughput", "experiments", "analysis",
                "exec",
            ),
        )

    def test_buffer_simulator_loads_no_execution_engine(self):
        loaded = _loaded_after("import repro.buffer.simulator")
        assert "repro.buffer.simulator" in loaded
        assert not _under(loaded, ("exec",))

    def test_tpcc_loads_no_simulators(self):
        loaded = _loaded_after("import repro.tpcc.executor, repro.tpcc.loader")
        assert "repro.tpcc.executor" in loaded
        assert not _under(
            loaded, ("buffer", "distributed", "exec", "driver", "throughput", "experiments")
        )

    def test_submodule_attribute_and_cached_export(self):
        found = _run(
            """
            import json

            import repro

            kernels = repro.buffer.kernels
            policies = repro.buffer.ARRAY_KERNEL_POLICIES
            print(json.dumps({
                "kernels": kernels.__name__,
                "cached": "ARRAY_KERNEL_POLICIES" in vars(repro.buffer),
                "same": policies is kernels.ARRAY_KERNEL_POLICIES,
            }))
            """
        )
        assert found == {"kernels": "repro.buffer.kernels", "cached": True, "same": True}

    def test_export_named_after_its_submodule_stays_the_function(self):
        """``repro.core.nurand`` is a module and the function it defines; the
        package attribute is the function even after the module is imported."""
        found = _run(
            """
            import inspect
            import json

            from repro.core.nurand import NURand
            from repro.core import nurand

            print(json.dumps(inspect.isfunction(nurand)))
            """
        )
        assert found is True


class TestPackageMetadata:
    def test_metadata_on_the_source_path_is_the_package_version(self):
        """With only ``src`` on the path, distribution metadata is either
        absent or that of this version: no stale ``*.egg-info`` is kept
        beside the sources."""
        found, version = _run(
            """
            import importlib.metadata
            import json

            import repro

            try:
                found = importlib.metadata.version("repro")
            except importlib.metadata.PackageNotFoundError:
                found = None
            print(json.dumps([found, repro.__version__]))
            """
        )
        assert found in (None, version)


class TestTimedRegionImportsNothing:
    def test_driver_and_engine_runs_import_no_module(self):
        """What the driver-contended and engine-mix setups import and build,
        then a virtual benchmark and one prepared transaction: no module may
        be first imported inside the timed region."""
        gained = _run(
            """
            import json
            import sys

            from repro.driver import BenchmarkSpec, run_benchmark
            from repro.tpcc.executor import RetryPolicy, TpccExecutor
            from repro.tpcc.loader import TpccConfig, load_tpcc
            from repro.workload import DEFAULT_MIX

            config = TpccConfig(warehouses=1, seed=11)
            db = load_tpcc(config)
            executor = TpccExecutor(db=db, config=config, seed=11)
            prepared = executor.prepare()
            spec = BenchmarkSpec(
                terminals=4,
                transactions=20,
                mix=DEFAULT_MIX,
                scheduler="virtual",
                seed=11,
                tpcc=config,
                retry=RetryPolicy(max_attempts=200, max_delay=1.0),
            )
            before = set(sys.modules)
            report = run_benchmark(spec, db=db)
            executor.execute_prepared(prepared)
            assert report.committed + report.gave_up == 20
            print(json.dumps(sorted(set(sys.modules) - before)))
            """
        )
        assert [module for module in gained if module.startswith("repro")] == []


class TestExportMaps:
    def test_every_package_but_the_rule_registry_is_lazy(self):
        for name in _packages():
            package = importlib.import_module(name)
            assert ("__getattr__" in vars(package)) == (name not in EAGER_PACKAGES), name

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_type_checking_block_names_the_map(self, name):
        exports, checked = _declared(name)
        assert exports, f"{name} declares no export map"
        assert checked == exports
        package = importlib.import_module(name)
        assert sorted(package.__all__) == sorted([*exports, *OWN_NAMES.get(name, ())])

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_exports_resolve_to_their_defining_module(self, name):
        package = importlib.import_module(name)
        exports, _ = _declared(name)
        for export, module in exports.items():
            value = getattr(package, export)
            assert value is getattr(importlib.import_module(module), export), export
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module, export

    def test_dir_lists_every_export_before_any_is_loaded(self):
        missing = _run(
            f"""
            import importlib
            import json

            missing = {{}}
            for name in {LAZY_PACKAGES!r}:
                package = importlib.import_module(name)
                missing[name] = sorted(set(package.__all__) - set(dir(package)))
            print(json.dumps(missing))
            """
        )
        assert missing == {name: [] for name in LAZY_PACKAGES}

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_unknown_name_names_the_package(self, name):
        package = importlib.import_module(name)
        unknown = "no_such_name"
        with pytest.raises(AttributeError, match=f"module '{name}' has no attribute '{unknown}'"):
            getattr(package, unknown)
        with pytest.raises(ImportError, match=unknown):
            exec(f"from {name} import {unknown}", {})

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_star_import(self, name):
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(namespace)
