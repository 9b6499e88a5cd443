"""Hierarchical (recursive) partitioning over the accelerator pairing tree.

Section 5.1: "apply the layer-wise partitioning recursively on a partitioned
hierarchy".  At every internal node of the pairing tree
(:func:`repro.hardware.cluster.bisection_tree`) a *scheme* decides the
per-layer partitioning between the node's two child groups; each child then
recursively plans its own (sharded) sub-problem.

Symmetric subtrees — ubiquitous once a homogeneous group is split equally —
produce identical sub-problems, so planning is memoized on
``(group signature, subtree depth, stage content)``; this collapses the 255
internal nodes of a 256-accelerator tree to a handful of distinct plans.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from ..hardware.accelerator import AcceleratorGroup
from ..hardware.cluster import GroupNode
from ..obs.registry import planner_counters
from ..obs.tracing import tracer
from ..plan.ir import HierarchicalPlan, LevelPlan
from .stages import ShardedStage, iter_sharded_workloads, shard_stages


class PartitionScheme(Protocol):
    """A per-level planning policy: AccPar or one of the baselines."""

    name: str

    def level_plan(
        self,
        stages: Sequence[ShardedStage],
        party_i: AcceleratorGroup,
        party_j: AcceleratorGroup,
        dtype_bytes: int,
    ) -> LevelPlan:
        """Assign a partition type and ratio to every weighted layer."""
        ...  # pragma: no cover - protocol


def stages_key(stages: Sequence[ShardedStage]) -> Tuple:
    """Hashable content key of a sharded stage list (for memoization)."""
    return tuple(w.key() for w in iter_sharded_workloads(stages))


def plan_tree(
    node: GroupNode,
    stages: List[ShardedStage],
    scheme: PartitionScheme,
    dtype_bytes: int = 2,
    _memo: Optional[Dict[Tuple, HierarchicalPlan]] = None,
) -> HierarchicalPlan:
    """Plan every level of the pairing tree rooted at ``node``."""
    if _memo is None:
        _memo = {}
    if node.is_leaf:
        return HierarchicalPlan(level_plan=None, scheme=scheme.name)

    key = (node.group.signature(), node.depth(), stages_key(stages))
    cached = _memo.get(key)
    if cached is not None:
        planner_counters.inc("hierarchy_memo_hits")
        return cached
    planner_counters.inc("hierarchy_memo_misses")

    assert node.left is not None and node.right is not None
    # the span wraps the level plan AND the recursion into both children,
    # so child hierarchy spans nest inside their parent's in the trace
    with tracer.span(
        "hierarchy.plan", category="hierarchy",
        level=node.level + 1, group=str(node.group), scheme=scheme.name,
    ):
        level = scheme.level_plan(stages, node.left.group, node.right.group,
                                  dtype_bytes)

        assignments = level.layer_assignments()
        left_stages = shard_stages(stages, assignments, "left")
        right_stages = shard_stages(stages, assignments, "right")

        plan = HierarchicalPlan(
            level_plan=level,
            left=plan_tree(node.left, left_stages, scheme, dtype_bytes, _memo),
            right=plan_tree(node.right, right_stages, scheme, dtype_bytes, _memo),
            scheme=scheme.name,
        )
    _memo[key] = plan
    return plan


def collect_level_plans(plan: HierarchicalPlan) -> List[LevelPlan]:
    """All LevelPlans in pre-order (root split first)."""
    result: List[LevelPlan] = []

    def visit(p: HierarchicalPlan) -> None:
        if p.level_plan is not None:
            result.append(p.level_plan)
        if p.left is not None:
            visit(p.left)
        if p.right is not None:
            visit(p.right)

    visit(plan)
    return result
