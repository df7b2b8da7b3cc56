"""Exporting page-reference traces.

A saved trace lets tools outside this package (external cache
simulators, plotting scripts) read the exact TPC-C reference stream.
Traces are stored as compressed numpy archives, column-wise: relation
indexes (``int8``), page numbers (``int64``), write flags (``bool``)
and per-transaction end offsets (``int64``), with the generating
configuration embedded as JSON so a file knows where it came from.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from repro.workload.trace import TraceConfig, TraceGenerator

#: Format identifier embedded in every trace file.
FORMAT_VERSION = 1


def write_trace(
    path: str | Path, config: TraceConfig, transactions: int
) -> tuple[Path, int]:
    """Generate ``transactions`` transactions into a compressed ``.npz``.

    Returns the path written (``np.savez`` appends ``.npz`` when it is
    missing) and the number of references recorded.
    """
    if transactions <= 0:
        raise ValueError(f"transactions must be positive, got {transactions}")
    generator = TraceGenerator(config)
    batch = generator.encoded_batch(transactions=transactions)
    relations, pages, writes = generator.page_id_space.decode_ref_arrays(batch.refs)
    config_dict = dataclasses.asdict(config)
    config_dict["mix"] = config.mix.as_dict()
    path = Path(path)
    np.savez_compressed(
        path,
        format_version=np.int64(FORMAT_VERSION),
        relations=relations.astype(np.int8),
        pages=pages,
        writes=writes,
        boundaries=np.cumsum(batch.tx_lengths),
        config_json=np.bytes_(json.dumps(config_dict).encode("utf-8")),
    )
    written = path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")
    return written, int(batch.refs.size)
