"""One input stream: the executor draws through the trace's layout.

Two contracts:

* **Sampler stream** — ``_BlockSampler`` hands out one stream whatever
  mix of ``draw``, ``draw_many`` and ``draw_many_np`` consumes it, so
  the executor's scalar draws and the trace emitter's column draws see
  the same values.
* **Executor = generator, per type** — the executor's ``k``-th prepared
  input of each transaction type is ``InputGenerator(seed=s)``'s
  ``k``-th draw of that type.  The engine-only fields are excepted by
  name: the payment ``amount``, the delivery ``carrier_id`` and the
  by-name ``customer_tuples`` (the engine names the three customers the
  loader gave one last name).
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tpcc import TpccExecutor, load_tpcc
from repro.workload.generator import InputGenerator, _BlockSampler
from repro.workload.mix import TransactionType
from repro.workload.transactions import (
    DeliveryParams,
    OrderStatusParams,
    PaymentParams,
)

calls = st.lists(
    st.tuples(
        st.sampled_from(("draw", "draw_many", "draw_many_np")),
        st.integers(min_value=0, max_value=40),
    ),
    max_size=60,
)


def sampler(seed: int, block: int) -> _BlockSampler:
    """Small blocks, so call sequences cross many refills."""
    rng = np.random.default_rng(seed)
    return _BlockSampler(lambda: rng.integers(0, 1 << 30, size=block))


@settings(max_examples=200, deadline=None)
@given(
    calls=calls,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    block=st.integers(min_value=1, max_value=17),
)
def test_interleaved_draws_are_one_stream(calls, seed, block):
    mixed = sampler(seed, block)
    got: list[int] = []
    for method, count in calls:
        if method == "draw":
            value = mixed.draw()
            assert type(value) is int
            got.append(value)
        elif method == "draw_many":
            values = mixed.draw_many(count)
            assert all(type(value) is int for value in values)
            got.extend(values)
        else:
            got.extend(mixed.draw_many_np(count).tolist())
    assert got == sampler(seed, block).draw_many(len(got))


def _engine_only_cleared(params: object) -> object:
    if isinstance(params, PaymentParams):
        params = replace(params, amount=PaymentParams.amount)
    if isinstance(params, DeliveryParams):
        params = replace(params, carrier_id=DeliveryParams.carrier_id)
    if isinstance(params, (PaymentParams, OrderStatusParams)) and params.by_name:
        params = replace(params, customer_tuples=())
    return params


def test_prepared_inputs_are_the_generators_per_type(small_tpcc_config):
    config = small_tpcc_config
    seed = 21
    executor = TpccExecutor(db=load_tpcc(config), config=config, seed=seed)
    generator = InputGenerator(
        config.warehouses,
        items_per_order=config.items_per_order,
        items=config.items,
        customers_per_district=config.customers_per_district,
        seed=seed,
    )
    draw = {
        TransactionType.NEW_ORDER: generator.new_order,
        TransactionType.PAYMENT: generator.payment,
        TransactionType.ORDER_STATUS: generator.order_status,
        TransactionType.DELIVERY: generator.delivery,
        TransactionType.STOCK_LEVEL: generator.stock_level,
    }
    seen = dict.fromkeys(TransactionType, 0)
    by_name = 0
    for _ in range(400):
        prepared = executor.prepare()
        expected = draw[prepared.tx]()
        assert _engine_only_cleared(prepared.params) == _engine_only_cleared(expected)
        seen[prepared.tx] += 1
        if isinstance(prepared.params, (PaymentParams, OrderStatusParams)):
            by_name += prepared.params.by_name
            if prepared.params.by_name:
                first, second, third = prepared.params.customer_tuples
                unique = config.unique_names
                assert 1 <= first <= unique
                assert (second, third) == (first + unique, first + 2 * unique)
    assert all(seen.values()), seen
    assert by_name > 0
