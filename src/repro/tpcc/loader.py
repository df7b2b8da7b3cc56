"""Database population for executable TPC-C runs.

Full-scale TPC-C (100 000 stock rows per warehouse, 30 000 customers)
is too large to hold as Python objects, so the loader takes a
:class:`TpccConfig` whose cardinalities default to a laptop-friendly
scale; the access *patterns* (NURand skew, name collisions, pending
orders) keep the benchmark's structure at any scale, with the NURand
``A`` constants rescaled to keep the same skew ratio.

Following TPC-C's initial-population rules (scaled): every customer
exists, each district has a block of already-placed orders whose most
recent ``pending_orders`` entries sit in the New-Order relation, and
customer last names repeat so roughly three customers per district
share each name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dataclass_replace

import numpy as np

from repro.constants import DISTRICTS_PER_WAREHOUSE, TUPLES_PER_NAME_SELECT
from repro.engine.database import Database
from repro.engine.table import BulkLoad
from repro.tpcc.rows import TPCC_SCHEMAS, tpcc_index_specs

#: The ten TPC-C last-name syllables.
NAME_SYLLABLES = (
    "BAR", "OUGHT", "ABLE", "PRI", "PRES",
    "ESE", "ANTI", "CALLY", "ATION", "EING",
)


def last_name(number: int) -> str:
    """The TPC-C last name for a name number (three syllables)."""
    if number < 0:
        raise ValueError(f"name number must be non-negative, got {number}")
    hundreds, rest = divmod(number, 100)
    tens, ones = divmod(rest, 10)
    return NAME_SYLLABLES[hundreds % 10] + NAME_SYLLABLES[tens] + NAME_SYLLABLES[ones]


@dataclass(frozen=True, kw_only=True)
class TpccConfig:
    """Scale parameters for an executable TPC-C database (keyword-only).

    Derive variants from a base config with :meth:`replace` instead of
    re-spelling every field.
    """

    warehouses: int = 2
    customers_per_district: int = 90
    items: int = 1_000
    items_per_order: int = 10
    initial_orders_per_district: int = 30
    pending_orders_per_district: int = 10
    buffer_pages: int = 2_000
    policy: str = "lru"
    page_size: int = 4096
    seed: int = 42

    def __post_init__(self) -> None:
        for name in (
            "warehouses", "customers_per_district", "items", "items_per_order", "buffer_pages"
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.customers_per_district % TUPLES_PER_NAME_SELECT:
            raise ValueError(
                "customers_per_district must be divisible by "
                f"{TUPLES_PER_NAME_SELECT}, got {self.customers_per_district}"
            )
        if self.initial_orders_per_district < 0 or self.pending_orders_per_district < 0:
            raise ValueError(
                "initial and pending orders must be non-negative, got "
                f"{self.initial_orders_per_district} and {self.pending_orders_per_district}"
            )
        if self.pending_orders_per_district > self.initial_orders_per_district:
            raise ValueError("pending orders cannot exceed initial orders")
        if self.initial_orders_per_district > self.customers_per_district:
            raise ValueError(
                f"initial orders ({self.initial_orders_per_district}) cannot exceed "
                f"customers_per_district ({self.customers_per_district}): each "
                "customer places at most one"
            )

    def replace(self, **overrides) -> "TpccConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return dataclass_replace(self, **overrides)

    @property
    def unique_names(self) -> int:
        """Distinct last names per district (customers / 3)."""
        return self.customers_per_district // TUPLES_PER_NAME_SELECT

    @property
    def districts(self) -> int:
        return DISTRICTS_PER_WAREHOUSE


def load_tpcc(config: TpccConfig) -> Database:
    """Create and populate a database according to ``config``.

    A bulk load (:class:`~repro.engine.table.BulkLoad`): rows reach each
    heap in TPC-C's insertion order, which is the "sequential packing"
    of Figure 8, and each secondary index is built once, at the end.
    """
    rng = np.random.default_rng(config.seed)
    db = Database(
        buffer_pages=config.buffer_pages,
        policy=config.policy,
        page_size=config.page_size,
    )
    indexes = tpcc_index_specs()
    for name, schema in TPCC_SCHEMAS.items():
        db.create_table(schema, indexes.get(name))

    loads = _bulk_loads(db, config)
    _load_items(loads["item"], config, rng)
    for warehouse in range(1, config.warehouses + 1):
        _load_warehouse(loads, config, rng, warehouse)
    for load in loads.values():
        load.finish()
    db.backup()  # checkpoint + base backup: torn-page repair needs it
    db.buffers.reset_stats()
    db.store.reset_counters()
    return db


def _bulk_loads(db: Database, config: TpccConfig) -> dict[str, BulkLoad]:
    """One load per populated table: the columns each row gives, then the constant ones."""
    layout = {
        "item": (("i_id", "i_im_id", "i_price", "i_name"), {"i_data": "original"}),
        "warehouse": (
            ("w_id", "w_tax", "w_name"),
            {
                "w_ytd": 300_000.0,
                "w_street": "1 Main St",
                "w_city": "Hampton",
                "w_state": "VA",
                "w_zip": "236810001",
                "w_filler": "",
            },
        ),
        "stock": (
            ("s_w_id", "s_i_id", "s_quantity"),
            {
                "s_ytd": 0,
                "s_order_cnt": 0,
                "s_remote_cnt": 0,
                "s_data": "original",
                **{f"s_dist_{d:02d}": f"dist-{d:02d}" for d in range(1, 11)},
            },
        ),
        "customer": (
            ("c_w_id", "c_d_id", "c_id", "c_discount", "c_first", "c_last"),
            {
                "c_credit_lim": 50_000.0,
                "c_balance": -10.0,
                "c_ytd_payment": 10.0,
                "c_payment_cnt": 1,
                "c_delivery_cnt": 0,
                "c_middle": "OE",
                "c_street_1": "2 Oak St",
                "c_street_2": "",
                "c_city": "Hampton",
                "c_state": "VA",
                "c_zip": "236810001",
                "c_phone": "555-0000",
                "c_since": "1993-03-01",
                "c_credit": "GC",
                "c_data": "customer data",
            },
        ),
        "order": (
            ("o_w_id", "o_d_id", "o_id", "o_c_id", "o_carrier_id"),
            {"o_ol_cnt": config.items_per_order, "o_entry_d": 0},
        ),
        "order_line": (
            (
                "ol_w_id", "ol_d_id", "ol_o_id", "ol_number", "ol_i_id",
                "ol_supply_w_id", "ol_delivery_d", "ol_amount", "ol_dist_info",
            ),
            {"ol_quantity": 5},
        ),
        "new_order": (("no_w_id", "no_d_id", "no_o_id"), {}),
        "district": (
            ("d_w_id", "d_id", "d_tax", "d_name"),
            {
                "d_ytd": 30_000.0,
                "d_next_o_id": config.initial_orders_per_district + 1,
                "d_street": "3 Elm St",
                "d_city": "Hampton",
                "d_state": "VA",
                "d_zip": "236810001",
            },
        ),
    }
    return {
        name: BulkLoad(db.table(name), columns, constants)
        for name, (columns, constants) in layout.items()
    }


def _load_items(items: BulkLoad, config: TpccConfig, rng: np.random.Generator) -> None:
    for item_id in range(1, config.items + 1):
        items.append(
            (
                item_id,
                int(rng.integers(1, 10_001)),
                float(rng.uniform(1.0, 100.0)),
                f"item-{item_id}",
            )
        )


def _load_warehouse(
    loads: dict[str, BulkLoad], config: TpccConfig, rng: np.random.Generator, warehouse: int
) -> None:
    loads["warehouse"].append((warehouse, float(rng.uniform(0.0, 0.2)), f"wh-{warehouse}"))
    stock = loads["stock"]
    quantities = rng.integers(10, 101, size=config.items).tolist()
    for item_id, quantity in enumerate(quantities, start=1):
        stock.append((warehouse, item_id, quantity))
    for district in range(1, config.districts + 1):
        _load_district(loads, config, rng, warehouse, district)


def _load_district(
    loads: dict[str, BulkLoad],
    config: TpccConfig,
    rng: np.random.Generator,
    warehouse: int,
    district: int,
) -> None:
    customers = loads["customer"]
    for customer_id in range(1, config.customers_per_district + 1):
        name_number = (customer_id - 1) % config.unique_names
        customers.append(
            (
                warehouse,
                district,
                customer_id,
                float(rng.uniform(0.0, 0.5)),
                f"first-{customer_id}",
                last_name(name_number),
            )
        )

    orders, order_lines, new_orders = loads["order"], loads["order_line"], loads["new_order"]
    first_pending = config.initial_orders_per_district - config.pending_orders_per_district
    dist_info = f"dist-{district:02d}"
    # TPC-C assigns initial orders to customers via a permutation, so no
    # customer gets two initial orders (TpccConfig keeps them no more
    # than the customers).
    customer_of = (rng.permutation(config.customers_per_district) + 1).tolist()
    for order_id in range(1, config.initial_orders_per_district + 1):
        delivered = order_id <= first_pending
        carrier = int(rng.integers(1, 11)) if delivered else 0
        orders.append((warehouse, district, order_id, customer_of[order_id - 1], carrier))
        for number in range(1, config.items_per_order + 1):
            order_lines.append(
                (
                    warehouse,
                    district,
                    order_id,
                    number,
                    int(rng.integers(1, config.items + 1)),
                    warehouse,
                    1 if delivered else 0,
                    float(rng.uniform(0.01, 9_999.99)),
                    dist_info,
                )
            )
        if not delivered:
            new_orders.append((warehouse, district, order_id))

    loads["district"].append(
        (warehouse, district, float(rng.uniform(0.0, 0.2)), f"dist-{district}")
    )
