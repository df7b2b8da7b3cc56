"""Executable TPC-C on the storage engine.

:mod:`repro.tpcc.rows` declares the nine relations with packed row
sizes matching paper Table 1 byte for byte; :mod:`repro.tpcc.loader`
populates a (possibly scaled-down) database; and
:mod:`repro.tpcc.executor` runs the five transactions with the access
patterns of Section 2.2, producing measured SQL-call censuses and
buffer statistics that cross-validate the analytic models.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.tpcc.executor import ExecutionSummary as ExecutionSummary
    from repro.tpcc.executor import PreparedTransaction as PreparedTransaction
    from repro.tpcc.executor import RetryPolicy as RetryPolicy
    from repro.tpcc.executor import TpccExecutor as TpccExecutor
    from repro.tpcc.loader import TpccConfig as TpccConfig
    from repro.tpcc.loader import load_tpcc as load_tpcc
    from repro.tpcc.rows import TPCC_SCHEMAS as TPCC_SCHEMAS
    from repro.tpcc.rows import tpcc_index_specs as tpcc_index_specs

__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "ExecutionSummary": "repro.tpcc.executor",
        "PreparedTransaction": "repro.tpcc.executor",
        "RetryPolicy": "repro.tpcc.executor",
        "TpccExecutor": "repro.tpcc.executor",
        "TpccConfig": "repro.tpcc.loader",
        "load_tpcc": "repro.tpcc.loader",
        "TPCC_SCHEMAS": "repro.tpcc.rows",
        "tpcc_index_specs": "repro.tpcc.rows",
    },
)
