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

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.buffer.analytic import che_characteristic_time as che_characteristic_time
    from repro.buffer.kernels import ARRAY_KERNEL_POLICIES as ARRAY_KERNEL_POLICIES
    from repro.buffer.kernels import ArrayKernel as ArrayKernel
    from repro.buffer.kernels import make_kernel as make_kernel
    from repro.buffer.simulator import BufferSimulation as BufferSimulation
    from repro.buffer.simulator import MissRateReport as MissRateReport
    from repro.buffer.simulator import RelationMissRate as RelationMissRate
    from repro.buffer.simulator import SimulationConfig as SimulationConfig

__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "che_characteristic_time": "repro.buffer.analytic",
        "ARRAY_KERNEL_POLICIES": "repro.buffer.kernels",
        "ArrayKernel": "repro.buffer.kernels",
        "make_kernel": "repro.buffer.kernels",
        "BufferSimulation": "repro.buffer.simulator",
        "MissRateReport": "repro.buffer.simulator",
        "RelationMissRate": "repro.buffer.simulator",
        "SimulationConfig": "repro.buffer.simulator",
    },
)
