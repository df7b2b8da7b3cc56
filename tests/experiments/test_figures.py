"""Headline-fidelity tests: each figure's quick run must reproduce the
paper's qualitative findings (shape, ordering, sign), and the exact
analytic figures must match quantitatively."""

import hashlib
import json

import pytest

from repro.experiments import figures
from repro.experiments.runner import Preset, run_experiment


@pytest.fixture(scope="module")
def fig8():
    return run_experiment("fig8", Preset.QUICK)


@pytest.fixture(scope="module")
def fig9():
    return run_experiment("fig9", Preset.QUICK)


@pytest.fixture(scope="module")
def fig10():
    return run_experiment("fig10", Preset.QUICK)


@pytest.fixture(scope="module")
def fig10_disk_size():
    return run_experiment("fig10_disk_size", Preset.QUICK)


@pytest.fixture(scope="module")
def fig11():
    return run_experiment("fig11", Preset.QUICK)


@pytest.fixture(scope="module")
def fig12():
    return run_experiment("fig12", Preset.QUICK)


class TestSkewFigures:
    def test_fig3_twelve_cycles(self):
        result = run_experiment("fig3")
        assert result.headline["cycles"] == 12

    def test_fig4_periodicity(self):
        result = run_experiment("fig4")
        assert result.headline["cycle-to-cycle correlation"] > 0.98

    def test_fig5_exact_paper_quantiles(self):
        result = run_experiment("fig5")
        h = result.headline
        assert h["tuple: hottest 20%"] == pytest.approx(0.84, abs=0.01)
        assert h["tuple: hottest 10%"] == pytest.approx(0.71, abs=0.01)
        assert h["tuple: hottest 2%"] == pytest.approx(0.39, abs=0.01)
        assert h["4K page: hottest 20%"] == pytest.approx(0.75, abs=0.01)
        assert h["4K page: hottest 10%"] == pytest.approx(0.59, abs=0.01)
        assert h["4K page: hottest 2%"] == pytest.approx(0.28, abs=0.01)
        assert h["optimized vs tuple gap"] < 0.005

    def test_fig5_8k_milder_than_4k(self):
        rows = run_experiment("fig5").rows
        for row in rows:
            if 0 < row["hottest data fraction"] < 0.8:
                assert row["8K sequential"] < row["4K sequential"]

    def test_fig6_mixture_weight(self):
        result = run_experiment("fig6")
        assert result.headline["by-id mixture weight"] == pytest.approx(0.4186)

    def test_fig7_customer_less_skewed(self):
        result = run_experiment("fig7")
        assert result.headline["customer gini"] < result.headline["stock gini"]


class TestFig8:
    def test_miss_rates_monotone_in_buffer(self, fig8):
        rows = fig8.rows
        for series in ("stock (seq)", "customer (seq)", "item (seq)"):
            values = [row[series] for row in rows]
            assert values == sorted(values, reverse=True)

    def test_optimized_below_sequential(self, fig8):
        for row in fig8.rows:
            assert row["stock (opt)"] <= row["stock (seq)"] + 0.02
            assert row["item (opt)"] <= row["item (seq)"] + 0.02

    def test_relation_ordering(self, fig8):
        assert fig8.headline["ordering customer>stock>item at every size"] == 1.0

    def test_positive_packing_gap(self, fig8):
        assert fig8.headline["stock miss gap averaged (abs)"] > 0.0

    def test_headline_keyed_by_size(self, fig8):
        """The maxima name the sizes they occur at; QUICK's grid has no
        52 MB point, so the paper's 52 MB gap is absent, not borrowed
        from another size."""
        h = fig8.headline
        assert "stock miss gap at 52 MB (abs)" not in h
        assert "stock miss gap at 52 MB (abs)" not in fig8.paper_reference
        rows = {row["buffer MB"]: row for row in fig8.rows}
        gaps = {mb: row["stock (seq)"] - row["stock (opt)"] for mb, row in rows.items()}
        relative = {mb: gaps[mb] / rows[mb]["stock (seq)"] for mb in rows}
        assert h["stock miss gap max (abs) at MB"] == max(gaps, key=gaps.get)
        assert h["stock miss gap max (abs)"] == pytest.approx(max(gaps.values()), abs=1e-5)
        assert h["stock miss gap max (rel) at MB"] == max(relative, key=relative.get)
        assert h["stock miss gap max (rel)"] == pytest.approx(
            max(relative.values()), abs=1e-4
        )

    def test_gap_at_52_mb_is_read_off_the_grid(self, monkeypatch):
        """Where the grid holds 52 MB, that point's gap is the headline
        the paper's 0.30 attaches to."""
        settings = {
            "warehouses": 2, "sizes_mb": [8.0, 52.0], "batches": 2, "batch_size": 5_000,
        }
        monkeypatch.setattr(figures, "_fig8_settings", lambda preset: settings)
        result = run_experiment("fig8", Preset.QUICK)
        row = result.rows[-1]
        assert row["buffer MB"] == 52.0
        assert result.headline["stock miss gap at 52 MB (abs)"] == pytest.approx(
            row["stock (seq)"] - row["stock (opt)"], abs=1e-5
        )
        assert result.paper_reference["stock miss gap at 52 MB (abs)"] == 0.30


class TestFig9:
    def test_improvement_positive_but_small(self, fig9):
        """The paper's point: optimized packing buys <=2.5% raw throughput."""
        assert 0.0 < fig9.headline["max improvement %"] < 6.0

    def test_throughput_increases_with_memory(self, fig9):
        tpms = [row["new-order tpm (seq)"] for row in fig9.rows]
        assert tpms == sorted(tpms)


class TestFig10:
    def test_optimized_packing_improves_price_performance(self, fig10):
        assert fig10.headline["opt. packing gain, no storage floor %"] > 0
        assert fig10.headline["opt. packing gain, with storage %"] > 0

    def test_storage_floor_reduces_gain(self, fig10):
        """Paper: 30% gain without the storage floor, 8% with it."""
        assert (
            fig10.headline["opt. packing gain, with storage %"]
            < fig10.headline["opt. packing gain, no storage floor %"]
        )

    def test_storage_floor_shrinks_optimal_buffer(self, fig10):
        assert (
            fig10.headline["optimum MB (optimized +storage)"]
            <= fig10.headline["optimum MB (optimized)"]
        )

    def test_optimum_is_interior_or_boundary(self, fig10):
        sizes = [row["buffer MB"] for row in fig10.rows]
        assert min(sizes) <= fig10.headline["optimum MB (sequential)"] <= max(sizes)


class TestFig11:
    def test_paper_gains(self, fig11):
        h = fig11.headline
        assert h["replicated efficiency @30"] > 0.94
        assert h["replication gain % @2"] == pytest.approx(10, abs=4)
        assert h["replication gain % @10"] == pytest.approx(30, abs=7)
        assert h["replication gain % @30"] == pytest.approx(39, abs=9)


class TestFig12:
    def test_paper_drop(self, fig12):
        assert fig12.headline["scale-up drop % at p=1.0 (N=30)"] == pytest.approx(
            44, abs=10
        )

    def test_rows_decrease_in_probability(self, fig12):
        final = fig12.rows[-1]
        assert final["p=0.01"] > final["p=0.1"] > final["p=1.0"]


class TestAppendix:
    def test_closed_form_exact(self):
        result = run_experiment("appendix_a3")
        assert result.headline["TV distance"] < 1e-12
        assert result.headline["periodic"] == 1.0


class TestFig10DiskSize:
    def test_gain_grows_with_disk_capacity(self, fig10_disk_size):
        h = fig10_disk_size.headline
        assert h["gain % at 3 GB"] < h["gain % at 6 GB"]
        assert h["gain % at 6 GB"] <= h["gain % at 12 GB"] + 1e-9

    def test_rows_cover_capacities(self, fig10_disk_size):
        rows = fig10_disk_size.rows
        assert [row["disk GB"] for row in rows] == [3.0, 6.0, 12.0, 24.0]


class TestClosedFormDigests:
    """Figures 9-12 are plain function calls, not work units (the
    ``run-all`` smoke in test_cli.py checks the manifest); their QUICK
    documents are pinned to the SHA-256 they had as work units, computed
    at d606306, the last commit that dispatched them."""

    PINNED = {
        "fig9": "961d2fc6b0b1f9a1ea0261d2f1c8dfd679c46fe3021c541a058c3abc93857d5f",
        "fig10": "2fe0687f60a96edf02be251692c6948016013fe416a40872e05c74b3bb0c6f4f",
        "fig10_disk_size": "31c7d89e95909cc96e6f55890766523efa295e7886d803facf64d170f7d327c9",
        "fig11": "281b13c3effbca6a552d4727e6fbd03de28bc482d77ec1e5f00d24ded984a159",
        "fig12": "db8205b227d1dfcbd8735e5823f19d88f787d0e685d8431f918db1803857cbc1",
    }

    @pytest.mark.parametrize("experiment_id", sorted(PINNED))
    def test_quick_document_unchanged(self, experiment_id, request):
        document = request.getfixturevalue(experiment_id).to_dict()
        del document["metrics"]
        digest = hashlib.sha256(
            json.dumps(document, sort_keys=True).encode()
        ).hexdigest()
        assert digest == self.PINNED[experiment_id]
