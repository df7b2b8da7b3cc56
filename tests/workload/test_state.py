"""Unit tests for repro.workload.state (order bookkeeping)."""

import numpy as np
import pytest

from repro.constants import STOCK_LEVEL_ORDERS
from repro.workload.state import ColumnarOrderState


class TestColumnarOrderState:
    """Two warehouses, 40 customers per district, the last 25 initial
    orders of each district primed and the last 5 of those pending.
    ``tests/property/test_order_state_oracle.py`` checks whole chunks."""

    LINES = 4

    @pytest.fixture
    def columnar(self):
        items = np.arange(20 * 25 * self.LINES).reshape(20 * 25, self.LINES) + 1
        return ColumnarOrderState(2, 40, 5, items)

    def place(self, columnar, district_index, customer, items):
        """One New-Order alone in a chunk of one transaction."""
        none = np.empty(0, dtype=np.int64)
        return columnar.resolve_chunk(
            1,
            np.array([0]),
            np.array([district_index]),
            np.array([customer]),
            np.array([items]),
            *[none] * 7,
        )

    def test_initial_counters_and_pending(self, columnar):
        assert columnar.orders_placed == 20 * 40
        assert columnar.order_lines_inserted == 20 * 40 * self.LINES
        assert columnar.new_order_inserts == 20 * 5
        assert columnar.history_rows == 0
        assert columnar.pending_count() == 20 * 5
        assert [r.customer for r in columnar.pending_orders(2, 3)] == [36, 37, 38, 39, 40]

    def test_recent_keeps_last_twenty_oldest_first(self, columnar):
        recent = columnar.recent_orders(1, 1)
        assert len(recent) == STOCK_LEVEL_ORDERS
        assert recent[0].customer == 21 and recent[-1].customer == 40
        assert recent[0].item_ids == (21, 22, 23, 24)
        assert recent[0].new_order_seq is None and recent[-1].new_order_seq == 4

    def test_place_order_shows_in_every_query(self, columnar):
        resolved = self.place(columnar, 12, 7, (9, 8, 7, 6))
        assert resolved.placed_order_seq.tolist() == [800]
        record = columnar.last_order_of(2, 3, 7)
        assert (record.order_seq, record.line_start) == (800, 800 * self.LINES)
        assert record.item_ids == (9, 8, 7, 6) and record.new_order_seq == 100
        assert columnar.pending_orders(2, 3)[-1].order_seq == 800
        assert columnar.recent_orders(2, 3)[-1].order_seq == 800
        assert columnar.pending_count() == 101

    def test_counters_follow_emission_not_resolution(self, columnar):
        self.place(columnar, 0, 1, (1, 1, 1, 1))
        assert columnar.orders_placed == 800
        columnar.record_emitted(new_orders=1, payments=3)
        assert columnar.orders_placed == 801
        assert columnar.order_lines_inserted == 801 * self.LINES
        assert columnar.new_order_inserts == 101
        assert columnar.history_rows == 3

    def test_cold_customer_has_their_initial_order(self, columnar):
        record = columnar.last_order_of(1, 2, 3)
        assert record.order_seq == 1 * 40 + 2 and record.new_order_seq is None
        primed = columnar.last_order_of(1, 2, 40)
        assert primed.order_seq == 79 and primed.new_order_seq == 1 * 5 + 4

    def test_invalid_ids(self, columnar):
        with pytest.raises(ValueError, match="district"):
            columnar.recent_orders(1, 11)
        with pytest.raises(ValueError, match="warehouse"):
            columnar.pending_orders(3, 1)
        with pytest.raises(ValueError, match="customer"):
            columnar.last_order_of(1, 1, 41)
