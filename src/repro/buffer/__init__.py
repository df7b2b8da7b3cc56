"""Database buffer-pool modeling (paper Section 4).

Provides page-replacement policies (LRU as the paper assumes, plus
FIFO/CLOCK/LFU/2Q extensions), the trace-driven miss-rate simulation
with batch-means confidence intervals, and an analytic LRU
approximation for cross-checking.

The simulation runs on the dense array kernels of
:mod:`repro.buffer.kernels` (:func:`make_kernel`).  The policy objects
of :mod:`repro.buffer.policy` are what the engine's buffer manager
runs on, and the reference the parity suites hold the kernels to,
reference by reference.
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
    "RelationMissRate",
    "ReplacementPolicy",
    "SimulationConfig",
    "TwoQPolicy",
    "che_characteristic_time",
    "che_miss_rates",
    "make_kernel",
    "make_policy",
]
