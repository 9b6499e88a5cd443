"""Per-accelerator memory-footprint accounting and capacity checks.

A leaf accelerator must hold, for each layer, its shard of the weights, the
weight gradients, and the forward/error activations (F_l and E_l are live
simultaneously during the backward/gradient phases).  The check guards the
plans the planner emits: Table 7's 64/128 GB HBM capacities are part of the
evaluated configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.stages import ShardedStages
from ..hardware.accelerator import AcceleratorGroup
from ..training.optimizers import SGD, OptimizerSpec


@dataclass(frozen=True)
class MemoryReport:
    """Footprint of one party's sharded stages."""

    weight_bytes: float
    gradient_bytes: float
    activation_bytes: float
    capacity_bytes: float
    optimizer_bytes: float = 0.0

    @property
    def total_bytes(self) -> float:
        return (self.weight_bytes + self.gradient_bytes
                + self.activation_bytes + self.optimizer_bytes)

    @property
    def fits(self) -> bool:
        return self.total_bytes <= self.capacity_bytes

    @property
    def utilization(self) -> float:
        return self.total_bytes / self.capacity_bytes


def leaf_memory_report(
    stages: ShardedStages,
    group: AcceleratorGroup,
    dtype_bytes: int = 2,
    optimizer: OptimizerSpec = SGD,
) -> MemoryReport:
    """Footprint of the fully-sharded workload held by one leaf group."""
    weights = 0.0
    activations = 0.0
    for sw in stages.workloads():
        weights += sw.a_weight()
        # F_l and E_l shards are both resident during training; the output
        # feature map is the next layer's input and is counted there.
        activations += 2.0 * sw.a_input_fm()
    return MemoryReport(
        weight_bytes=weights * dtype_bytes,
        gradient_bytes=weights * dtype_bytes,
        activation_bytes=activations * dtype_bytes,
        capacity_bytes=group.memory_bytes,
        optimizer_bytes=weights * dtype_bytes * optimizer.state_per_weight,
    )
