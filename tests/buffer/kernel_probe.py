"""Test-side entry points into a dense-array kernel's state.

``ArrayKernel.process_batch`` is the kernels' only driver.  The parity
and oracle suites step a kernel one transaction (often one reference)
at a time and compare its residency, victims first, against a reference
policy after every step.  These two helpers do that from outside: they
feed a transaction through ``process_batch`` and read each kernel's
private tables, so the kernels themselves carry no test-only code.
"""

import numpy as np

from repro.buffer.kernels import (
    TX_STRIDE_SHIFT,
    ArrayKernel,
    ClockArrayKernel,
    FifoArrayKernel,
    LfuArrayKernel,
    LruArrayKernel,
    LruKArrayKernel,
    MruArrayKernel,
    TwoQArrayKernel,
)
from repro.workload.stream import EncodedBatch
from repro.workload.trace import REF_PID_SHIFT


def process_block(kernel: ArrayKernel, refs: list[int], tx_base: int) -> None:
    """Run one transaction's encoded references through as a one-span batch.

    ``tx_base`` is the transaction's index shifted by
    :data:`~repro.buffer.kernels.TX_STRIDE_SHIFT`, its row in ``tx_misses``.
    """
    if not refs:
        return
    kernel.process_batch(
        EncodedBatch(
            np.array(refs, dtype=np.int64),
            np.array([tx_base >> TX_STRIDE_SHIFT]),
            np.array([len(refs)]),
            np.zeros((0, 0), dtype=np.int64),  # access counts: unused here
            max(refs) >> REF_PID_SHIFT,
        )
    )


def resident_page_ids(kernel: ArrayKernel) -> list[int]:
    """The kernel's resident dense page ids, next victim first."""
    if isinstance(kernel, LruArrayKernel):
        return kernel._res_ids.tolist()
    if isinstance(kernel, FifoArrayKernel):
        if kernel._count < kernel._capacity:
            return kernel._page_of[: kernel._count]
        return kernel._page_of[kernel._head :] + kernel._page_of[: kernel._head]
    if isinstance(kernel, ClockArrayKernel):
        count = kernel._count
        hand = kernel._hand if count == kernel._capacity else 0
        return [kernel._page_of[(hand + i) % count] for i in range(count)]
    if isinstance(kernel, LfuArrayKernel):
        # The packed (count, last touch) int is the priority; 0 = absent.
        key_of = kernel._key_of
        pages = [page for page, key in enumerate(key_of) if key]
        return sorted(pages, key=key_of.__getitem__)
    if isinstance(kernel, MruArrayKernel):
        last = kernel._last_of
        pages = [page for page, stamp in enumerate(last) if stamp]
        return sorted(pages, key=last.__getitem__, reverse=True)
    if isinstance(kernel, TwoQArrayKernel):
        # Probation in FIFO order, then main in LRU order: each queue's
        # own victim order, admission victims first.
        return list(kernel._probation) + list(kernel._main)
    if isinstance(kernel, LruKArrayKernel):
        # Pages with fewer than K references first, by their first one;
        # then the rest by their K-th most recent one.
        k, seen, times = kernel.k, kernel._seen, kernel._times

        def priority(page: int) -> tuple[bool, int]:
            if seen[page] < k:
                return False, times[page * k]
            return True, times[page * k + seen[page] % k]

        pages = [page for page, count in enumerate(seen) if count]
        return sorted(pages, key=priority)
    raise TypeError(f"no residency view for {type(kernel).__name__}")
