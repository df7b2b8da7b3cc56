"""Distributed/clustered database model (paper Section 5.3, Appendix A).

``remote`` derives the expected remote-call counts and unique-site
counts of Appendix A; ``model`` applies them to the visit tables
(Tables 6 and 7) and evaluates per-node/system throughput; ``scaleup``
produces the Figure 11 scale-up curves and the Figure 12 sensitivity to
the remote-stock probability.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.distributed.model import DistributedThroughputModel as DistributedThroughputModel
    from repro.distributed.model import distributed_visit_table as distributed_visit_table
    from repro.distributed.remote import RemoteCallExpectations as RemoteCallExpectations
    from repro.distributed.scaleup import ScaleupPoint as ScaleupPoint
    from repro.distributed.scaleup import (
        remote_probability_sensitivity as remote_probability_sensitivity,
    )
    from repro.distributed.scaleup import scaleup_curve as scaleup_curve
    from repro.distributed.sharded import NodeShardUnit as NodeShardUnit
    from repro.distributed.sharded import run_shard as run_shard
    from repro.distributed.sharded import run_sharded as run_sharded
    from repro.distributed.simulation import (
        DistributedBufferSimulation as DistributedBufferSimulation,
    )
    from repro.distributed.simulation import DistributedSimConfig as DistributedSimConfig
    from repro.distributed.simulation import DistributedSimReport as DistributedSimReport
    from repro.distributed.simulation import NodeResult as NodeResult
    from repro.distributed.simulation import simulate_node as simulate_node

__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "DistributedThroughputModel": "repro.distributed.model",
        "distributed_visit_table": "repro.distributed.model",
        "RemoteCallExpectations": "repro.distributed.remote",
        "ScaleupPoint": "repro.distributed.scaleup",
        "remote_probability_sensitivity": "repro.distributed.scaleup",
        "scaleup_curve": "repro.distributed.scaleup",
        "NodeShardUnit": "repro.distributed.sharded",
        "run_shard": "repro.distributed.sharded",
        "run_sharded": "repro.distributed.sharded",
        "DistributedBufferSimulation": "repro.distributed.simulation",
        "DistributedSimConfig": "repro.distributed.simulation",
        "DistributedSimReport": "repro.distributed.simulation",
        "NodeResult": "repro.distributed.simulation",
        "simulate_node": "repro.distributed.simulation",
    },
)
