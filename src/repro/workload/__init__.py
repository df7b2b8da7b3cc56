"""The TPC-C workload model (paper Section 2).

Contains the logical schema (Table 1), the transaction mix (Table 2),
input-parameter generators for the five transaction types, the stateful
order bookkeeping the Order-Status / Delivery / Stock-Level transactions
depend on, and the page-reference trace generator that drives the buffer
simulation.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.workload.access import relation_access_table as relation_access_table
    from repro.workload.generator import InputGenerator as InputGenerator
    from repro.workload.mix import DEFAULT_MIX as DEFAULT_MIX
    from repro.workload.mix import TransactionMix as TransactionMix
    from repro.workload.mix import TransactionType as TransactionType
    from repro.workload.schema import RELATIONS as RELATIONS
    from repro.workload.schema import RelationSpec as RelationSpec
    from repro.workload.schema import schema_table as schema_table
    from repro.workload.trace import PageReference as PageReference
    from repro.workload.trace import TraceConfig as TraceConfig
    from repro.workload.trace import TraceGenerator as TraceGenerator

__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "relation_access_table": "repro.workload.access",
        "InputGenerator": "repro.workload.generator",
        "DEFAULT_MIX": "repro.workload.mix",
        "TransactionMix": "repro.workload.mix",
        "TransactionType": "repro.workload.mix",
        "RELATIONS": "repro.workload.schema",
        "RelationSpec": "repro.workload.schema",
        "schema_table": "repro.workload.schema",
        "PageReference": "repro.workload.trace",
        "TraceConfig": "repro.workload.trace",
        "TraceGenerator": "repro.workload.trace",
    },
)
