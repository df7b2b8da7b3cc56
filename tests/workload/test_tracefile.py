"""Unit tests for repro.workload.tracefile (trace export)."""

import hashlib
import json

import numpy as np
import pytest

from repro.cli import main
from repro.workload.mix import TransactionMix
from repro.workload.trace import TraceConfig, TraceGenerator
from repro.workload.tracefile import FORMAT_VERSION, write_trace

CONFIG = TraceConfig(
    warehouses=2,
    items=300,
    customers_per_district=90,
    prime_orders=20,
    prime_pending=5,
    seed=15,
)

#: Every entry of a trace file, with its dtype.
COLUMNS = {
    "format_version": np.int64,
    "relations": np.int8,
    "pages": np.int64,
    "writes": np.bool_,
    "boundaries": np.int64,
}


def _load(path) -> dict[str, np.ndarray]:
    with np.load(path) as archive:
        return dict(archive)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """``(archive, reference count)`` of a 200-transaction trace."""
    path, references = write_trace(
        tmp_path_factory.mktemp("trace") / "trace.npz", CONFIG, 200
    )
    return _load(path), references


class TestRecord:
    def test_counts(self, written):
        archive, references = written
        assert archive["boundaries"].size == 200
        assert archive["relations"].size == references > 200

    def test_invalid_transactions(self, tmp_path):
        with pytest.raises(ValueError):
            write_trace(tmp_path / "trace.npz", TraceConfig(warehouses=1), 0)
        assert not (tmp_path / "trace.npz").exists()

    def test_transactions_partition_references(self, written):
        archive, references = written
        boundaries = archive["boundaries"]
        assert np.all(np.diff(boundaries) > 0) and boundaries[0] > 0
        assert boundaries[-1] == references

    def test_matches_live_generator(self, tmp_path):
        """The file holds exactly what the generator emits."""
        config = TraceConfig(warehouses=1, items=90, customers_per_district=30,
                             prime_orders=10, prime_pending=3, seed=77)
        archive = _load(write_trace(tmp_path / "trace.npz", config, 50)[0])
        recorded = zip(
            archive["relations"].tolist(),
            archive["pages"].tolist(),
            archive["writes"].tolist(),
        )
        assert list(recorded) == list(TraceGenerator(config).references(50))

    def test_recorded_columns_are_pinned(self, tmp_path):
        """SHA-256 of the four stored columns (int8 relations, int64
        pages, bool writes, int64 boundaries), taken while the recorder
        still appended one Python object per reference."""
        config = TraceConfig(warehouses=2, seed=13)
        path, _ = write_trace(tmp_path / "trace.npz", config, 300)
        archive = _load(path)
        digest = hashlib.sha256()
        for name in ("relations", "pages", "writes", "boundaries"):
            assert archive[name].dtype == COLUMNS[name]
            digest.update(np.ascontiguousarray(archive[name]).tobytes())
        assert digest.hexdigest() == (
            "7b9408f119a6d9841f80b7671054613d9258292af0027a4540f87451e7e0250c"
        )


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, capsys):
        """``repro trace`` writes the documented entries, read back with
        plain ``np.load``."""
        path = tmp_path / "out.npz"
        argv = ["trace", str(path), "--transactions", "300", "--seed", "4"]
        assert main(argv) == 0
        archive = _load(path)
        assert set(archive) == {*COLUMNS, "config_json"}
        for name, dtype in COLUMNS.items():
            assert archive[name].dtype == dtype, name
        assert int(archive["format_version"]) == FORMAT_VERSION
        assert capsys.readouterr().out == (
            f"recorded {archive['relations'].size} references over "
            f"300 transactions to {path}\n"
        )

    def test_config_preserved(self, tmp_path):
        config = CONFIG.replace(
            packing="random", mix=TransactionMix(0.44, 0.44, 0.04, 0.05, 0.03)
        )
        archive = _load(write_trace(tmp_path / "trace.npz", config, 20)[0])
        fields = json.loads(bytes(archive["config_json"]).decode("utf-8"))
        mix = TransactionMix(**fields.pop("mix"))
        assert TraceConfig(mix=mix, **fields) == config

    def test_suffix_added(self, tmp_path):
        path, _ = write_trace(tmp_path / "trace", CONFIG, 10)
        assert path == tmp_path / "trace.npz"
        assert path.exists()
