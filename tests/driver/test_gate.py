"""The statement gate's pricing contract, one statement kind at a time.

Each gated statement leaves one ``("stmt", (cpu_k, misses))`` request.
The expected values below are the ``docs/paper_notes.md`` §11 formula
written out from :class:`CostParameters`; the misses are the buffer
pool's own count across the statement.
"""

import pytest

from repro.driver.scheduler import StatementGate, _Task
from repro.engine.errors import LockConflictError
from repro.engine.locks import LockWait
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultRule
from repro.throughput.params import CostParameters
from repro.tpcc import TpccConfig, load_tpcc
from repro.tpcc.loader import last_name

#: A buffer far smaller than the data, so cold statements miss.
CONFIG = TpccConfig(
    warehouses=1,
    customers_per_district=60,
    items=300,
    initial_orders_per_district=25,
    pending_orders_per_district=8,
    buffer_pages=40,
    seed=99,
)
P = CostParameters()


def cpu_k(*, selects=0, updates=0, inserts=0, deletes=0, non_unique=0, joins=0, misses=0):
    """§11: the per-call Table 4 costs plus application and I/O initiation."""
    return (
        selects * P.select_k
        + updates * P.update_k
        + inserts * P.insert_k
        + deletes * P.delete_k
        + non_unique * P.non_unique_select_k
        + joins * P.join_k
        + P.application_k
        + misses * P.init_io_k
    )


#: What the first statement of a transaction carries on top, once.
FIRST = P.init_transaction_k + P.application_k


class Gated:
    """A loaded database with a gate installed, resuming one task."""

    def __init__(self):
        self.db = load_tpcc(CONFIG)
        self.gate = StatementGate(self.db, P)
        self.gate.task = _Task(0, None, 0.0, None)
        self.db.set_statement_gate(self.gate)

    def run(self, statement, *args):
        """One gated statement: its result, its request and its buffer misses."""
        stats = self.db.buffers.stats
        before = stats.total_misses
        result = statement(*args)
        return result, self.gate.take(), stats.total_misses - before


@pytest.fixture
def gated():
    harness = Gated()
    yield harness
    harness.db.set_statement_gate(None)


def _priced(request, expected_cpu_k, misses):
    assert request is not None and request[0] == "stmt"
    assert request[1] == (pytest.approx(expected_cpu_k, rel=1e-12), misses)


def test_the_first_statement_carries_the_transaction_start_once(gated):
    txn = gated.db.begin("gate")
    _, first, m1 = gated.run(txn.select, "warehouse", (1,))
    _, second, m2 = gated.run(txn.select, "warehouse", (1,))
    _priced(first, cpu_k(selects=1, misses=m1) + FIRST, m1)
    _priced(second, cpu_k(selects=1, misses=m2), m2)
    gated.run(txn.commit)


def test_select_update_insert_and_join(gated):
    txn = gated.db.begin("gate")
    gated.run(txn.select, "district", (1, 1), ("d_next_o_id",))  # carries FIRST
    _, update, misses = gated.run(txn.update, "district", (1, 1), {"d_next_o_id": 9_999})
    _priced(update, cpu_k(updates=1, misses=misses), misses)
    row = {"no_w_id": 1, "no_d_id": 1, "no_o_id": 9_998}
    _, insert, misses = gated.run(txn.insert, "new_order", row)
    _priced(insert, cpu_k(inserts=1, misses=misses), misses)
    _, join, misses = gated.run(txn.count_join)
    _priced(join, cpu_k(joins=1, misses=misses), misses)
    gated.run(txn.abort)


def test_select_by_index_is_one_non_unique_select_plus_one_select_per_row(gated):
    txn = gated.db.begin("gate")
    gated.run(txn.select, "warehouse", (1,))
    rows, request, misses = gated.run(
        txn.select_by_index, "customer", "by_name", (1, 1, last_name(0)), None
    )
    assert len(rows) >= 2
    _priced(request, cpu_k(non_unique=1, selects=len(rows), misses=misses), misses)
    gated.run(txn.commit)


def test_range_select_is_one_select_per_row(gated):
    txn = gated.db.begin("gate")
    gated.run(txn.select, "warehouse", (1,))
    lines, request, misses = gated.run(
        txn.range_select, "order_line", "by_order", (1, 1, 1), (1, 1, 1, 32_767), ()
    )
    assert len(lines) >= 5
    _priced(request, cpu_k(selects=len(lines), misses=misses), misses)
    gated.run(txn.commit)


def test_a_cold_statement_is_priced_with_its_misses(gated):
    txn = gated.db.begin("gate")
    gated.run(txn.select, "warehouse", (1,))
    _, request, misses = gated.run(
        txn.range_select, "order_line", "by_order", (1, 1, 1), (1, 1, 25, 32_767), ()
    )
    assert misses > 0
    assert request[1][1] == misses
    gated.run(txn.commit)


@pytest.mark.parametrize("end", ["commit", "abort"])
def test_commit_and_abort_release_every_lock_held_at_entry(gated, end):
    txn = gated.db.begin("gate")
    gated.run(txn.select, "warehouse", (1,))
    gated.run(txn.update, "district", (1, 1), {"d_next_o_id": 9_999})
    gated.run(txn.select, "customer", (1, 1, 1), ())
    locks = gated.db.locks.locks_held(txn.txn_id)
    assert locks == 3
    _, request, misses = gated.run(getattr(txn, end))
    expected = cpu_k(misses=misses) + locks * P.release_lock_k
    if end == "commit":
        expected += P.commit_k + P.init_io_k
    _priced(request, expected, misses)
    assert gated.db.locks.locks_held(txn.txn_id) == 0


def test_a_statement_raising_a_conflict_is_still_priced(gated):
    rule = FaultRule(FaultKind.LOCK_CONFLICT, at_ops=(2,))
    gated.db.attach_injector(FaultInjector(FaultPlan(rules=(rule,), seed=1)))
    txn = gated.db.begin("gate")
    gated.run(txn.select, "warehouse", (1,))
    stats = gated.db.buffers.stats
    before = stats.total_misses
    with pytest.raises(LockConflictError):
        txn.select("district", (1, 1))
    misses = stats.total_misses - before
    _priced(gated.gate.take(), cpu_k(misses=misses), misses)  # ran, counted no select
    gated.db.attach_injector(None)
    gated.run(txn.abort)


def test_a_lock_wait_pass_restores_the_census_and_records_no_request(gated):
    db = gated.db
    db.locks.default_timeout = 0.5
    holder = db.begin("holder")
    gated.gate.task = None  # the holder runs ungated
    holder.update("order_line", (1, 1, 1, 3), {"ol_amount": 1.0})
    gated.gate.task = _Task(1, None, 0.0, None)
    txn = db.begin("gate")
    gated.run(txn.select, "warehouse", (1,))
    census = vars(txn.calls).copy()
    wait, request, _ = gated.run(
        txn.range_select, "order_line", "by_order", (1, 1, 1), (1, 1, 1, 32_767), ()
    )
    assert isinstance(wait, LockWait)
    assert request is None
    assert vars(txn.calls) == census  # two rows were counted before the block
    gated.gate.task = None
    holder.commit()
    txn.abort()


def test_a_statement_started_with_a_request_pending_raises(gated):
    txn = gated.db.begin("gate")
    gated.run(txn.select, "warehouse", (1,))
    txn.select("warehouse", (1,))  # recorded, not taken
    with pytest.raises(RuntimeError, match="must yield after every statement"):
        txn.select("district", (1, 1))
    gated.gate.take()
    gated.run(txn.abort)


def test_a_transaction_after_recovery_is_priced_against_the_new_buffer_pool(gated):
    db = gated.db
    txn = db.begin("gate")
    gated.run(txn.select, "warehouse", (1,))
    gated.run(txn.commit)
    db.crash()
    db.recover()
    txn = db.begin("gate")
    _, request, misses = gated.run(txn.select, "district", (1, 7), ())
    assert misses > 0  # the recovered pool starts cold
    _priced(request, cpu_k(selects=1, misses=misses) + FIRST, misses)
    gated.run(txn.commit)
