"""The TPC-C workload model (paper Section 2).

Contains the logical schema (Table 1), the transaction mix (Table 2),
input-parameter generators for the five transaction types, the stateful
order bookkeeping the Order-Status / Delivery / Stock-Level transactions
depend on, and the page-reference trace generator that drives the buffer
simulation.
"""

from repro.workload.access import relation_access_table
from repro.workload.generator import InputGenerator
from repro.workload.mix import DEFAULT_MIX, TransactionMix, TransactionType
from repro.workload.schema import RELATIONS, RelationSpec, schema_table
from repro.workload.trace import PageReference, TraceConfig, TraceGenerator
from repro.workload.tracefile import SavedTrace

__all__ = [
    "DEFAULT_MIX",
    "InputGenerator",
    "PageReference",
    "RELATIONS",
    "SavedTrace",
    "RelationSpec",
    "TraceConfig",
    "TraceGenerator",
    "TransactionMix",
    "TransactionType",
    "relation_access_table",
    "schema_table",
]
