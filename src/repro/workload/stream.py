"""The trace's packed-reference format and the batch that carries it.

Every page reference of the buffer-simulation trace is one int64,
``(page_id << REF_PID_SHIFT) | (relation << REF_REL_SHIFT) | write``:
relations are numbered in :data:`RELATION_NAMES` order and page ids are
interned densely by :class:`~repro.workload.trace.PageIdSpace`.  This
module is the format's one definition.  The trace generator
(:mod:`repro.workload.trace`) builds references with these names, and
the simulator kernels, the distributed node loop and the decoders take
them apart with the same names (:func:`ref_relations`).  An
:class:`EncodedBatch` is a run of whole transactions in this format.
"""

from __future__ import annotations

import numpy as np

from repro.workload.mix import TRANSACTION_ORDER

#: Relation names in a stable order; positions are the relation indexes.
RELATION_NAMES: tuple[str, ...] = (
    "warehouse",
    "district",
    "customer",
    "stock",
    "item",
    "order",
    "new_order",
    "order_line",
    "history",
)

#: Relation name -> integer index used in page keys.
RELATION_INDEX: dict[str, int] = {name: i for i, name in enumerate(RELATION_NAMES)}

#: Number of relations a reference can name.
N_RELATIONS = len(RELATION_NAMES)

#: Number of statically sized relations (the first five of
#: :data:`RELATION_NAMES`); their page counts are fixed by the layouts.
N_STATIC_RELATIONS = 5

#: Number of append-only relations (order, new_order, order_line,
#: history); their page counts grow without bound as the trace runs.
N_GROWING_RELATIONS = N_RELATIONS - N_STATIC_RELATIONS

#: Bit layout of an int-encoded reference:
#: ``ref = (page_id << REF_PID_SHIFT) | (relation << REF_REL_SHIFT) | write``.
REF_WRITE_MASK = 0x1
REF_REL_SHIFT = 1
REF_REL_MASK = 0xF
REF_PID_SHIFT = 5

#: Consecutive pages of one growing relation lie ``N_GROWING_RELATIONS``
#: (four) page ids apart, so page ``p`` adds ``p << REF_GROWING_SHIFT`` to
#: the reference of the relation's page 0.
REF_GROWING_SHIFT = REF_PID_SHIFT + 2

#: Default reference budget per encoded batch.
DEFAULT_BATCH_SIZE = 65536

_N_TYPES = len(TRANSACTION_ORDER)


def ref_relations(refs):
    """The relation index of each encoded reference (an int or an array)."""
    return (refs >> REF_REL_SHIFT) & REF_REL_MASK


class EncodedBatch:
    """One batch of int-encoded transactions in generation order.

    ``refs`` holds every reference of the batch back to back in exact
    transaction order, in this module's format;
    ``tx_indices``/``tx_lengths`` delimit the per-transaction spans.
    ``tx_accesses`` pre-aggregates the per-(type, relation) access
    counts so consumers fold statistics with ~45 adds per batch
    instead of nine per transaction.
    """

    __slots__ = ("refs", "tx_indices", "tx_lengths", "tx_accesses", "highest_page_id")

    def __init__(
        self,
        refs: np.ndarray,
        tx_indices: np.ndarray,
        tx_lengths: np.ndarray,
        tx_accesses: np.ndarray,
        highest_page_id: int,
    ):
        self.refs = refs
        self.tx_indices = tx_indices
        self.tx_lengths = tx_lengths
        self.tx_accesses = tx_accesses
        self.highest_page_id = highest_page_id

    @classmethod
    def of_refs(cls, refs: np.ndarray, highest_page_id: int) -> "EncodedBatch":
        """Wrap bare encoded references as one anonymous transaction.

        For consumers that run a prepared reference array (a node's
        routed stream) and only want per-relation totals: the whole
        array is a single span filed under type index 0, so
        :attr:`accesses` is exact and per-type attribution is
        meaningless.
        """
        tx_accesses = np.zeros((_N_TYPES, N_RELATIONS), dtype=np.int64)
        tx_accesses[0] = np.bincount(ref_relations(refs), minlength=N_RELATIONS)
        return cls(
            refs,
            np.zeros(1, dtype=np.int64),
            np.array([len(refs)], dtype=np.int64),
            tx_accesses,
            highest_page_id,
        )

    def split(self, transactions: int) -> tuple["EncodedBatch", "EncodedBatch"]:
        """The first ``transactions`` transactions and the rest.

        Both parts keep this batch's ``highest_page_id``, which bounds
        every page id either holds (consumers only pre-size page tables
        with it).  The head's access counts are counted from its
        references and the tail's are the remainder.
        """
        lengths = self.tx_lengths
        cut = int(lengths[:transactions].sum())
        head_types = self.tx_indices[:transactions]
        head_accesses = np.bincount(
            np.repeat(head_types, lengths[:transactions]) * N_RELATIONS
            + ref_relations(self.refs[:cut]),
            minlength=_N_TYPES * N_RELATIONS,
        ).reshape(_N_TYPES, N_RELATIONS)
        return (
            EncodedBatch(
                self.refs[:cut],
                head_types,
                lengths[:transactions],
                head_accesses,
                self.highest_page_id,
            ),
            EncodedBatch(
                self.refs[cut:],
                self.tx_indices[transactions:],
                lengths[transactions:],
                self.tx_accesses - head_accesses,
                self.highest_page_id,
            ),
        )

    @property
    def references(self) -> int:
        """Total references in the batch."""
        return len(self.refs)

    @property
    def transactions(self) -> int:
        """Total transactions in the batch."""
        return len(self.tx_indices)

    @property
    def accesses(self) -> np.ndarray:
        """Per-relation access counts summed over transaction types."""
        return self.tx_accesses.sum(axis=0)
