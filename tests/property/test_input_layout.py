"""One input stream: the executor draws through the trace's layout.

Three contracts:

* **Sampler stream** — ``_BlockSampler`` hands out one stream however
  the counts are split into ``draw_many_np`` calls, so the executor's
  small blocks and the trace planner's chunk-sized columns see the same
  values.
* **Executor = generator, per type** — the executor's ``k``-th prepared
  input of each transaction type is row ``k`` of
  ``InputGenerator(seed=s)``'s column method for that type, drawn in
  one call.  The engine-only fields are excepted by name: the payment
  ``amount``, the delivery ``carrier_id`` and the by-name
  ``customer_tuples`` (the engine names the three customers the loader
  gave one last name).
* **Pinned inputs** — SHA-256 digests of the executor's first 2 000
  prepared inputs (the type and every params field, engine-only ones
  included) at a 1-warehouse and a 4-warehouse scale, so no refactor
  of the draw path can move an input unseen.
"""

import hashlib
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tpcc import TpccConfig, TpccExecutor, load_tpcc
from repro.workload.generator import InputGenerator, _BlockSampler
from repro.workload.mix import TransactionType
from repro.workload.transactions import (
    DeliveryParams,
    OrderStatusParams,
    PaymentParams,
)

counts = st.lists(st.integers(min_value=0, max_value=40), max_size=60)


def sampler(seed: int, block: int) -> _BlockSampler:
    """Small blocks, so call sequences cross many refills."""
    rng = np.random.default_rng(seed)
    return _BlockSampler(lambda: rng.integers(0, 1 << 30, size=block))


@settings(max_examples=200, deadline=None)
@given(
    counts=counts,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    block=st.integers(min_value=1, max_value=17),
)
def test_any_split_of_the_counts_is_one_stream(counts, seed, block):
    split = sampler(seed, block)
    got: list[int] = []
    for count in counts:
        values = split.draw_many_np(count)
        assert values.shape == (count,)
        got.extend(values.tolist())
    assert got == sampler(seed, block).draw_many_np(len(got)).tolist()


def test_sampler_blocks_are_read_only():
    """A draw is a new array and the stored block is read-only, so
    writing into a column cannot change later draws."""
    split = sampler(3, 8)
    reference = sampler(3, 8).draw_many_np(8).tolist()
    split.draw_many_np(1)  # refills the block
    values = split.draw_many_np(4)
    values[:] = -1
    with pytest.raises(ValueError, match="read-only"):
        split._buffer[0] = -1
    assert split.draw_many_np(3).tolist() == reference[5:]


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
    columns = {
        TransactionType.NEW_ORDER: generator.new_order_columns,
        TransactionType.PAYMENT: generator.payment_columns,
        TransactionType.ORDER_STATUS: generator.order_status_columns,
        TransactionType.DELIVERY: generator.delivery_columns,
        TransactionType.STOCK_LEVEL: generator.stock_level_columns,
    }
    # 400 inputs cross the executor's 64-row blocks for the frequent
    # types; the generator draws each type's column in one call.
    prepared: dict[TransactionType, list] = {tx: [] for tx in TransactionType}
    for _ in range(400):
        item = executor.prepare()
        prepared[item.tx].append(item.params)
    by_name = 0
    for tx, got in prepared.items():
        assert got, tx
        expected = columns[tx](len(got)).rows()
        assert list(map(_engine_only_cleared, got)) == list(
            map(_engine_only_cleared, expected)
        )
        for params in got:
            if isinstance(params, (PaymentParams, OrderStatusParams)):
                by_name += params.by_name
                if params.by_name:
                    first, second, third = params.customer_tuples
                    unique = config.unique_names
                    assert 1 <= first <= unique
                    assert (second, third) == (first + unique, first + 2 * unique)
    assert by_name > 0


#: Executor scales pinned by :data:`PINNED_INPUT_DIGESTS`: one warehouse
#: (no remote warehouse is ever drawn) and four.
INPUT_CONFIGS = {
    "w1": TpccConfig(
        warehouses=1,
        customers_per_district=30,
        items=200,
        initial_orders_per_district=10,
        pending_orders_per_district=3,
        buffer_pages=200,
    ),
    "w4": TpccConfig(
        warehouses=4,
        customers_per_district=30,
        items=200,
        initial_orders_per_district=10,
        pending_orders_per_district=3,
        buffer_pages=200,
    ),
}

PINNED_INPUT_DIGESTS = {
    "w1": "2ff54d1898f826527dd124fea173b0c06b7bd5e5b520db21686a068e7b1084ed",
    "w4": "c0a4a9dbe758bc30ed267a10fb51656ed72f43337fce13ffc3100f2e96fb291b",
}


def prepared_digest(executor: TpccExecutor, count: int) -> str:
    """SHA-256 over the ``repr`` of ``count`` prepared ``(type, fields)``."""
    digest = hashlib.sha256()
    for _ in range(count):
        prepared = executor.prepare()
        row = (prepared.tx.value, astuple(prepared.params))
        digest.update(repr(row).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(PINNED_INPUT_DIGESTS))
def test_prepared_inputs_are_pinned(name):
    config = INPUT_CONFIGS[name]
    executor = TpccExecutor(db=load_tpcc(config), config=config, seed=7)
    assert prepared_digest(executor, 2000) == PINNED_INPUT_DIGESTS[name]
