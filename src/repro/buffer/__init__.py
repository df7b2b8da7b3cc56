"""Database buffer-pool modeling (paper Section 4).

Provides the trace-driven miss-rate simulation with batch-means
confidence intervals, and an analytic LRU approximation for
cross-checking.

The simulation runs on the dense array kernels of
:mod:`repro.buffer.kernels` (:func:`make_kernel`): LRU as the paper
assumes, plus FIFO/CLOCK/LFU/MRU/2Q/LRU-K extensions.  The parity
suites hold each kernel to a reference policy object, reference by
reference; those objects are test code.  The engine's buffer manager
(:mod:`repro.engine.bufferpool`) is LRU only.
"""

from repro.buffer.analytic import che_characteristic_time, che_miss_rates
from repro.buffer.kernels import (
    ARRAY_KERNEL_POLICIES,
    ArrayKernel,
    make_kernel,
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
    "MissRateReport",
    "RelationMissRate",
    "SimulationConfig",
    "che_characteristic_time",
    "che_miss_rates",
    "make_kernel",
]
