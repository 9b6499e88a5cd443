"""Ratio quantization: snap Eq. 10's real-valued ratios to integer splits.

The cost model and search work with real α for exact composition across
hierarchy levels, but a deployed plan must slice actual tensors: a batch of
512 cannot take α = 0.70003.  This module rounds every ratio in a plan to
the nearest feasible integer split of the dimension its type partitions —
accounting for the shrinking dimensions down the pairing tree — and reports
the cost drift the rounding introduces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..hardware.cluster import GroupNode
from ..plan.ir import (
    HierarchicalPlan,
    LayerAssignment,
    LevelPlan,
    PlanEntry,
)
from .hierarchy import collect_level_plans, plan_of, walk
from .planner import PlannedExecution
from .stages import ShardedStages
from .types import PartitionType, ShardedWorkload


class QuantizationError(ValueError):
    """Raised when a dimension is too small to honor the plan's splits."""


def partitioned_extent(sw: ShardedWorkload, ptype: PartitionType) -> float:
    """Effective length of the dimension ``ptype`` partitions."""
    if ptype is PartitionType.TYPE_I:
        return sw.batch
    if ptype is PartitionType.TYPE_II:
        return sw.d_in
    return sw.d_out


def quantize_ratio(ratio: float, extent: float) -> float:
    """The realizable ratio closest to ``ratio`` on an ``extent``-long axis.

    The axis is split at an integer index in [1, floor(extent) - 1]; both
    sides must be non-empty.
    """
    whole = int(math.floor(extent + 1e-9))
    if whole < 2:
        raise QuantizationError(
            f"axis of effective length {extent:.3f} cannot be split two ways"
        )
    split = int(round(ratio * whole))
    split = min(max(split, 1), whole - 1)
    return split / whole


@dataclass
class QuantizationReport:
    """Outcome of quantizing one plan.

    ``unrealizable`` counts (level, layer) decisions whose partitioned axis
    had shrunk below two effective elements — a real deployment must assign
    such a shard wholly to one device (or cap the hierarchy depth for that
    layer); their real-valued ratios are kept so the rest of the plan still
    quantizes.
    """

    max_ratio_shift: float
    n_ratios: int
    levels_quantized: int
    unrealizable: int = 0


def quantize_plan(
    planned: PlannedExecution,
    strict: bool = False,
) -> Tuple[PlannedExecution, QuantizationReport]:
    """A copy of ``planned`` with every ratio snapped to an integer split.

    Walks the plan tree top-down with the *quantized* shards, so each
    level's rounding sees the true (integer) dimensions its ancestors left
    behind.  Join-alignment entries keep their nominal ratios (they describe
    transfers, not tensor splits).  With ``strict=True`` an unsplittable
    axis raises :class:`QuantizationError`; otherwise it is counted in the
    report and the ratio passes through unchanged.
    """
    #: per snapped level: (each snapped ratio's shift, unrealizable count)
    snapped: Dict[int, Tuple[List[float], int]] = {}

    def snap(node: GroupNode, stages: ShardedStages,
             plan: HierarchicalPlan) -> Optional[LevelPlan]:
        if plan.level_plan is None:
            return None
        by_name = {sw.name: sw for sw in stages.workloads()}
        shifts: List[float] = []
        unrealizable = 0
        entries: List[PlanEntry] = []
        # join/exit alignment entries describe transfers, not tensor
        # splits; their nominal ratios pass through
        for entry in plan.level_plan.entries:
            if isinstance(entry, LayerAssignment):
                extent = partitioned_extent(by_name[entry.name], entry.ptype)
                try:
                    ratio = quantize_ratio(entry.alpha, extent)
                except QuantizationError:
                    if strict:
                        raise
                    unrealizable += 1
                else:
                    shifts.append(abs(ratio - entry.alpha))
                    entry = LayerAssignment(entry.name, entry.ptype, ratio)
            entries.append(entry)
        level = LevelPlan(entries, cost=plan.level_plan.cost,
                          scheme=plan.level_plan.scheme)
        snapped[id(level)] = (shifts, unrealizable)
        return level

    plan = plan_of(walk(planned.tree, planned.stages, snap, planned.plan),
                   planned.plan.scheme)
    # every plan node counts, a subtree shared by several parents once per
    # parent
    counts = [snapped[id(level)] for level in collect_level_plans(plan)]
    report = QuantizationReport(
        max_ratio_shift=max((max(shifts, default=0.0) for shifts, _ in counts),
                            default=0.0),
        n_ratios=sum(len(shifts) for shifts, _ in counts),
        levels_quantized=len(counts),
        unrealizable=sum(unrealizable for _, unrealizable in counts),
    )
    return replace(planned, plan=plan), report
