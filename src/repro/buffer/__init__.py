"""Database buffer-pool modeling (paper Section 4).

Provides page-replacement policies (LRU as the paper assumes, plus
FIFO/CLOCK/LFU/2Q extensions), a simulated buffer pool with per-relation
hit statistics, the trace-driven miss-rate simulation with batch-means
confidence intervals, and an analytic LRU approximation for
cross-checking.

The simulation runs on the dense array kernels of
:mod:`repro.buffer.kernels` (:func:`make_kernel`).  The object pool
(:class:`SimulatedBufferPool` + a policy object) is the reference the
parity suites hold the kernels to, reference by reference; the engine's
buffer manager uses the same policy objects.
"""

from repro.buffer.analytic import che_characteristic_time, che_miss_rates
from repro.buffer.kernels import (
    ARRAY_KERNEL_POLICIES,
    ArrayKernel,
    make_kernel,
)
from repro.buffer.policy import (
    ClockPolicy,
    FifoPolicy,
    LfuPolicy,
    LruKPolicy,
    LruPolicy,
    ReplacementPolicy,
    TwoQPolicy,
    make_policy,
)
from repro.buffer.pool import PoolStatistics, SimulatedBufferPool
from repro.buffer.simulator import (
    BufferSimulation,
    MissRateReport,
    RelationMissRate,
    SimulationConfig,
)

__all__ = [
    "ARRAY_KERNEL_POLICIES",
    "ArrayKernel",
    "BufferSimulation",
    "ClockPolicy",
    "FifoPolicy",
    "LfuPolicy",
    "LruKPolicy",
    "LruPolicy",
    "MissRateReport",
    "PoolStatistics",
    "RelationMissRate",
    "ReplacementPolicy",
    "SimulatedBufferPool",
    "SimulationConfig",
    "TwoQPolicy",
    "che_characteristic_time",
    "che_miss_rates",
    "make_kernel",
    "make_policy",
]
