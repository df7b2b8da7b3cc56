"""Ablation: the New-Order vs Delivery balance (paper Section 2.1).

The paper warns that 45% New-Order with 4% Delivery grows the
New-Order relation without bound; this bench measures the pending
backlog under balanced and unbalanced mixes.
"""

from conftest import show

from repro.experiments.report import render_table
from repro.workload.mix import TransactionMix
from repro.workload.trace import TraceConfig, TraceGenerator


def run_backlog_study():
    mixes = {
        "paper (43/5)": TransactionMix.from_percent(
            new_order=43, payment=44, order_status=4, delivery=5, stock_level=4
        ),
        "unbalanced (45/4)": TransactionMix.from_percent(
            new_order=45, payment=43, order_status=4, delivery=4, stock_level=4
        ),
    }
    rows = []
    backlog = {}
    for label, mix in mixes.items():
        trace = TraceGenerator(TraceConfig(warehouses=2, mix=mix, seed=47))
        start = trace.state.pending_count()
        trace.encoded_batch(transactions=4000)
        end = trace.state.pending_count()
        backlog[label] = end - start
        rows.append(
            {
                "mix": label,
                "pending start": start,
                "pending end": end,
                "bounded": mix.new_order_relation_bounded(),
            }
        )
    return rows, backlog


def test_ablation_delivery_share(run_once):
    rows, backlog = run_once(run_backlog_study)
    print()
    print(render_table(rows, title="ablation: New-Order relation backlog by mix"))
    assert backlog["unbalanced (45/4)"] > backlog["paper (43/5)"]
