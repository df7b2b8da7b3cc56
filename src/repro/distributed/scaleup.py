"""Scale-up analysis (paper Figures 11 and 12).

Figure 11 compares system throughput against node count for a perfectly
linear reference, the Item-replicated configuration, and the
non-replicated configuration.  Figure 12 repeats the replicated case
while sweeping the probability that an order line is stocked remotely
(the benchmark fixes it at 1%; at 100% the scale-up drops by roughly
44%).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distributed.model import DistributedThroughputModel
from repro.throughput.model import ThroughputModel
from repro.throughput.params import CostParameters, MissRateInputs
from repro.workload.mix import DEFAULT_MIX, TransactionMix


@dataclass(frozen=True)
class ScaleupPoint:
    """System throughput at one node count."""

    nodes: int
    linear_tpm: float
    replicated_tpm: float
    non_replicated_tpm: float

    @property
    def replicated_efficiency(self) -> float:
        """Replicated throughput relative to linear (1.0 = ideal)."""
        return self.replicated_tpm / self.linear_tpm if self.linear_tpm else 0.0

    @property
    def replication_gain(self) -> float:
        """Fractional throughput advantage of replication."""
        if self.non_replicated_tpm == 0:
            return 0.0
        return self.replicated_tpm / self.non_replicated_tpm - 1.0

    def as_row(self) -> dict[str, object]:
        return {
            "nodes": self.nodes,
            "linear tpm": round(float(self.linear_tpm), 1),
            "replicated tpm": round(float(self.replicated_tpm), 1),
            "non-replicated tpm": round(float(self.non_replicated_tpm), 1),
            "replication gain %": round(100 * float(self.replication_gain), 1),
        }


def scaleup_curve(
    node_counts: list[int],
    miss_rates: MissRateInputs,
    params: CostParameters | None = None,
    mix: TransactionMix | None = None,
    remote_stock_probability: float | None = None,
) -> list[ScaleupPoint]:
    """Figure 11: linear / replicated / non-replicated throughput curves.

    The linear reference is N times the single-node throughput.
    """
    mix = mix if mix is not None else DEFAULT_MIX
    single = ThroughputModel(params=params, mix=mix, miss_rates=miss_rates).solve()
    points = []
    for nodes in node_counts:
        replicated = DistributedThroughputModel(
            nodes,
            miss_rates,
            item_replicated=True,
            params=params,
            mix=mix,
            remote_stock_probability=remote_stock_probability,
        ).solve()
        non_replicated = DistributedThroughputModel(
            nodes,
            miss_rates,
            item_replicated=False,
            params=params,
            mix=mix,
            remote_stock_probability=remote_stock_probability,
        ).solve()
        points.append(
            ScaleupPoint(
                nodes=nodes,
                linear_tpm=nodes * single.new_order_tpm,
                replicated_tpm=replicated.system_new_order_tpm,
                non_replicated_tpm=non_replicated.system_new_order_tpm,
            )
        )
    return points


def remote_probability_sensitivity(
    node_counts: list[int],
    remote_probabilities: list[float],
    miss_rates: MissRateInputs,
    params: CostParameters | None = None,
    mix: TransactionMix | None = None,
    item_replicated: bool = True,
) -> dict[float, list[tuple[int, float]]]:
    """Figure 12: throughput vs nodes for several remote-stock probabilities.

    Returns, per probability, the (nodes, system New-Order tpm) series.
    """
    curves: dict[float, list[tuple[int, float]]] = {}
    for probability in remote_probabilities:
        series = []
        for nodes in node_counts:
            result = DistributedThroughputModel(
                nodes,
                miss_rates,
                item_replicated=item_replicated,
                params=params,
                mix=mix,
                remote_stock_probability=probability,
            ).solve()
            series.append((nodes, result.system_new_order_tpm))
        curves[probability] = series
    return curves
