"""The state ``load_tpcc`` leaves behind, pinned by digest.

The constants below were computed on the commit *before* the loader
became a bulk load (one ``Table.insert`` per row, every index maintained
row by row).  Each config pins one SHA-256 digest per part of the state
right after loading, so a mismatch says *which* part moved:

* ``backup`` -- the base backup's page images (every heap page);
* ``resident`` -- the buffer pool's residents in LRU victim order
  (least recently used first);
* ``dirty`` -- the dirty set;
* ``indexes`` -- every index's ``items()``, in the order it yields them
  (so a non-unique hash index's posting order counts);
* ``heaps`` -- each heap's page count, live rows and free pages.

``tests/engine/test_byte_identity.py`` pins a seeded run *after* 300
transactions; this file says whether a drift there started in the load.
Run it as a script to print the digests of the current tree.
"""

import hashlib

import pytest

from repro.tpcc import TpccConfig, load_tpcc

CONFIGS = {
    # The shared small config, with a pool that evicts mid-load.
    "small-40": TpccConfig(
        warehouses=2,
        customers_per_district=60,
        items=300,
        initial_orders_per_district=25,
        pending_orders_per_district=8,
        buffer_pages=40,
        seed=99,
    ),
    "wh4-lru-300": TpccConfig(warehouses=4, buffer_pages=300),
}

PINNED = {
    "small-40": {
        "backup": "4ea0ee2e3bec35201de0683a6c484612eb6ba295e11d99d0f228de99507450d4",
        "resident": "97df74e077a0e65238dbb4992e39b45dc9a60f650fb527bd91dc9c3d3a8e91b0",
        "dirty": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "indexes": "3d965ea04202e34e4edec842458231f51c86c57c140be8b1a096cc0f0fb7483e",
        "heaps": "f74f4fe26d2f362d3b8bbfa9fb56d29445eeac9ffab99806e7986ce9e95aca48",
    },
    "wh4-lru-300": {
        "backup": "c8b7e55cabcd5726c14f0a1bca74667571a7ea133d2858909e6395f36ed9f54b",
        "resident": "6c0616c188d1218662540937bdb56aa3adc4dadfde0a574e66a2e209e1f89164",
        "dirty": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "indexes": "b0c11195e992b2d5436917c95ce121b89decab815992e6734bd5bbc95a1f8229",
        "heaps": "99d800e93e3388d68956999a6b4a9c5066a36ba81c2abff9cea1ba225be2adc0",
    },
}


def load_digests(config: TpccConfig) -> dict[str, str]:
    """One SHA-256 per part of the state ``load_tpcc(config)`` leaves."""
    db = load_tpcc(config)
    parts = {name: hashlib.sha256() for name in PINNED["small-40"]}
    for page_id, image in sorted(db.store.backup_images().items()):
        parts["backup"].update(repr(tuple(page_id)).encode())
        parts["backup"].update(image)
    parts["resident"].update(repr(list(db.buffers._frames)).encode())
    dirty = sorted(page_id for page_id in db.store.page_ids() if db.buffers.is_dirty(page_id))
    parts["dirty"].update(repr(dirty).encode())
    for name in db.table_names():
        table = db.table(name)
        for index_name in table.index_names():
            items = list(table._indexes[index_name].items())
            parts["indexes"].update(repr((name, index_name, items)).encode())
        heap = table.heap
        counts = (name, heap.page_count, len(heap), sorted(heap._free_pages))
        parts["heaps"].update(repr(counts).encode())
    return {name: digest.hexdigest() for name, digest in parts.items()}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_load_leaves_the_pinned_state(name):
    assert load_digests(CONFIGS[name]) == PINNED[name]


if __name__ == "__main__":
    for name, config in CONFIGS.items():
        print(name, load_digests(config))
