"""Saving and replaying page-reference traces.

Generating the TPC-C trace is cheap, but saved traces make experiments
*repeatable across tools*: generate once, then replay the identical
reference stream through any number of buffer configurations (or
external cache simulators).  Traces are stored as compressed numpy
archives with the generating configuration embedded, so a loaded trace
knows where it came from.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.workload.mix import TransactionMix
from repro.workload.stream import EncodedBatch
from repro.workload.trace import (
    N_STATIC_RELATIONS,
    REF_PID_SHIFT,
    RELATION_NAMES,
    PageIdSpace,
    PageReference,
    TraceConfig,
    TraceGenerator,
)

#: Format identifier embedded in every trace file.
FORMAT_VERSION = 1


class SavedTrace:
    """An in-memory page-reference trace with its provenance.

    Stored column-wise (relation indexes, page numbers, write flags,
    and per-transaction boundaries) for compactness; iterate with
    :meth:`references` or :meth:`transactions`.
    """

    def __init__(
        self,
        relations: np.ndarray,
        pages: np.ndarray,
        writes: np.ndarray,
        boundaries: np.ndarray,
        config: TraceConfig,
    ):
        if not (relations.size == pages.size == writes.size):
            raise ValueError("column arrays must have equal length")
        if boundaries.size and boundaries[-1] != relations.size:
            raise ValueError("final transaction boundary must equal trace length")
        self._relations = relations
        self._pages = pages
        self._writes = writes
        self._boundaries = boundaries
        self._config = config
        self._encoded: tuple[PageIdSpace, np.ndarray] | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def record(cls, config: TraceConfig, transactions: int) -> "SavedTrace":
        """Generate and capture ``transactions`` transactions."""
        if transactions <= 0:
            raise ValueError(f"transactions must be positive, got {transactions}")
        generator = TraceGenerator(config)
        batch = generator.encoded_batch(transactions=transactions)
        relations, pages, writes = generator.page_id_space.decode_ref_arrays(
            batch.refs
        )
        return cls(
            relations.astype(np.int8),
            pages,
            writes,
            np.cumsum(batch.tx_lengths),
            config,
        )

    # -- accessors ------------------------------------------------------------

    @property
    def config(self) -> TraceConfig:
        return self._config

    @property
    def reference_count(self) -> int:
        return int(self._relations.size)

    @property
    def transaction_count(self) -> int:
        return int(self._boundaries.size)

    def references(self) -> Iterator[PageReference]:
        """Iterate every reference in order."""
        for relation, page, write in zip(self._relations, self._pages, self._writes):
            yield PageReference(int(relation), int(page), bool(write))

    def transactions(self) -> Iterator[list[PageReference]]:
        """Iterate per-transaction reference groups."""
        start = 0
        for end in self._boundaries:
            yield [
                PageReference(
                    int(self._relations[i]),
                    int(self._pages[i]),
                    bool(self._writes[i]),
                )
                for i in range(start, int(end))
            ]
            start = int(end)

    def relation_access_counts(self) -> dict[str, int]:
        """References per relation name (diagnostics)."""
        counts = np.bincount(self._relations, minlength=len(RELATION_NAMES))
        return {
            name: int(counts[index])
            for index, name in enumerate(RELATION_NAMES)
            if counts[index]
        }

    # -- persistence ---------------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write the trace to a compressed ``.npz`` archive."""
        path = Path(path)
        config_dict = dataclasses.asdict(self._config)
        config_dict["mix"] = self._config.mix.as_dict()
        np.savez_compressed(
            path,
            format_version=np.int64(FORMAT_VERSION),
            relations=self._relations,
            pages=self._pages,
            writes=self._writes,
            boundaries=self._boundaries,
            config_json=np.bytes_(json.dumps(config_dict).encode("utf-8")),
        )
        # np.savez appends .npz when missing.
        return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")

    @classmethod
    def load(cls, path: str | Path) -> "SavedTrace":
        """Read a trace previously written by :meth:`save`."""
        with np.load(Path(path)) as archive:
            version = int(archive["format_version"])
            if version != FORMAT_VERSION:
                raise ValueError(
                    f"unsupported trace format version {version} "
                    f"(expected {FORMAT_VERSION})"
                )
            config_dict = json.loads(bytes(archive["config_json"]).decode("utf-8"))
            mix = TransactionMix(**config_dict.pop("mix"))
            config = TraceConfig(mix=mix, **config_dict)
            return cls(
                archive["relations"],
                archive["pages"],
                archive["writes"],
                archive["boundaries"],
                config,
            )

    # -- replay ----------------------------------------------------------------------

    def replay(
        self, buffer_pages: int, policy: str = "lru"
    ) -> dict[str, float]:
        """Run the trace through a fresh buffer; per-relation miss rates.

        The whole trace is replayed with no warm-up discard — saved
        traces are typically recorded after the generator's own priming,
        and replaying identically is the point.
        """
        # Imported here: the kernels import this package's trace module.
        from repro.buffer.kernels import make_kernel, relation_miss_rates

        if not self.reference_count:
            return {}
        space, refs = self._encoded_refs()
        batch = EncodedBatch.of_refs(refs, int(refs.max() >> REF_PID_SHIFT))
        kernel = make_kernel(policy.lower(), buffer_pages, space, 1)
        kernel.process_batch(batch)
        return relation_miss_rates(kernel.batch_misses, batch.accesses)

    def _encoded_refs(self) -> tuple[PageIdSpace, np.ndarray]:
        """The trace as int-encoded references, packed once and kept.

        The dense page-id space is sized from the trace itself (each
        static relation up to its highest referenced page), so no
        generator has to be rebuilt to replay a loaded file.
        """
        if self._encoded is None:
            space = PageIdSpace(
                [
                    int(self._pages[self._relations == relation].max(initial=0)) + 1
                    for relation in range(N_STATIC_RELATIONS)
                ]
            )
            self._encoded = space, space.encode_ref_arrays(
                self._relations, self._pages, self._writes
            )
        return self._encoded
