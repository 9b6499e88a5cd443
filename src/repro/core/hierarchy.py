"""Hierarchical (recursive) partitioning over the accelerator pairing tree.

Section 5.1: "apply the layer-wise partitioning recursively on a partitioned
hierarchy".  At every internal node of the pairing tree
(:func:`repro.hardware.cluster.bisection_tree`) a decision fixes the
per-layer partitioning between the node's two child groups; each child then
sees its own (sharded) sub-problem.

:func:`walk` is that recursion, shared by everything that follows a plan
down the tree: the planner decides each node by a scheme's search, the
quantizer by snapping a stored plan's ratios, and the simulator and the
verifier replay the stored plan (:func:`stored_level`) and fold over the
steps.

A node's sub-problem is a :class:`~repro.core.stages.ShardedStages`: the
plan's one skeleton plus a ``(layers, 3)`` fraction table; a decision
cuts the table for both children in one vectorized multiply, and an
equal split gives both children one table.  Symmetric subtrees —
ubiquitous once a homogeneous group is split equally — produce
identical tables, so the walk is memoized on ``(group spec runs, subtree
depth, fraction key)``.  The spec runs
(:meth:`~repro.hardware.accelerator.AcceleratorGroup.spec_runs`) merge
only groups of equal specs in equal order, whatever the specs are named,
and the fraction key merges exactly the tables whose fractions agree under
``round(x, 12)``; this collapses the 255 internal nodes of a
256-accelerator tree to a handful of distinct steps.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..hardware.cluster import GroupNode
from ..obs.tracing import NULL_SPAN, current_participant, span
from ..plan.ir import HierarchicalPlan, LevelPlan
from .cost_model import StepStats
from .stages import ShardedStages

if TYPE_CHECKING:  # the planner module imports this one
    from .planner import PartitionScheme


@dataclass(eq=False)
class Step:
    """One distinct node of a walk: the sub-problem a pairing-tree node sees.

    ``plan`` is the stored plan node the decision read (``None`` when
    planning); ``level`` is the decision, ``None`` where the walk stopped.
    Memo hits make one step the child of several parents.
    """

    node: GroupNode
    stages: ShardedStages
    plan: Optional[HierarchicalPlan]
    level: Optional[LevelPlan] = None
    left: Optional["Step"] = None
    right: Optional["Step"] = None


def walk(
    node: GroupNode,
    stages: ShardedStages,
    decide: Callable[..., Optional[LevelPlan]],
    plan: Optional[HierarchicalPlan] = None,
) -> Step:
    """Walk the pairing tree rooted at ``node``, left child before right.

    At each internal node ``decide(node, stages, plan)`` returns the level
    plan to shard the stages by, or ``None`` to stop; the walk descends
    with the children of ``plan``.  A memo hit is reused only if it read
    the same plan node (``is``, or ``==`` for a plan rebuilt from a v1 or
    v2 document, whose reader shares no subtree).
    """
    return _walk(node, stages, plan, decide, None, {}, None)


def _walk(node: GroupNode, stages: ShardedStages,
          plan: Optional[HierarchicalPlan], decide, scheme: Optional[str],
          memo: Dict[Tuple, Step], tally: Optional[Counter]) -> Step:
    # a module function, not a closure: a recursive closure is a reference
    # cycle, which would keep the memo's tables alive until a GC pass.
    # ``scheme`` names a planner walk (plan_tree): only those count memo
    # hits and misses into ``tally`` and open ``hierarchy.plan`` spans
    planning = scheme is not None
    if planning and node.is_leaf:
        return Step(node, stages, plan)  # nothing to decide or fold
    key = (node.group.spec_runs(), node.depth(), stages.key())
    step = memo.get(key)
    if step is not None and (step.plan is plan or step.plan == plan):
        if planning:
            tally["hierarchy_memo_hits"] += 1
        return step
    step = Step(node, stages, plan)
    memo.setdefault(key, step)
    if planning:
        tally["hierarchy_memo_misses"] += 1
    # the span wraps the node's search AND both child walks, so child
    # hierarchy spans nest inside their parent's in the trace
    with span("hierarchy.plan", category="hierarchy",
              level=node.level + 1, group=str(node.group),
              scheme=scheme) if planning else NULL_SPAN:
        level = None if node.is_leaf else decide(node, stages, plan)
        if level is not None:
            assert node.left is not None and node.right is not None
            step.level = level
            left, right = stages.split(level)
            step.left = _walk(node.left, left,
                              None if plan is None else plan.left,
                              decide, scheme, memo, tally)
            step.right = _walk(node.right, right,
                               None if plan is None else plan.right,
                               decide, scheme, memo, tally)
    return step


def plan_of(step: Step, scheme: str,
            _memo: Optional[Dict[Step, HierarchicalPlan]] = None,
            ) -> HierarchicalPlan:
    """The plan a walk decided, sharing a subtree wherever steps do."""
    memo = {} if _memo is None else _memo
    if step not in memo:
        memo[step] = HierarchicalPlan(
            level_plan=step.level,
            left=None if step.left is None else plan_of(step.left, scheme, memo),
            right=None if step.right is None else plan_of(step.right, scheme, memo),
            scheme=scheme,
        )
    return memo[step]


def plan_tree(
    node: GroupNode,
    stages: ShardedStages,
    scheme: PartitionScheme,
    dtype_bytes: int = 2,
    tally: Optional[Counter] = None,
) -> HierarchicalPlan:
    """Plan every level of the pairing tree rooted at ``node``.

    The plan's search work is counted apart from any other plan's: each
    level search's cost model counts into one :class:`StepStats`, the
    walk counts its level searches and memo hits and misses, and the sum
    is added once to the participant the calling thread works for, if
    any; ``tally`` receives it too.
    """
    own: Counter = Counter()
    stats = StepStats()
    searches = scheme.level_plans_counter

    def search(node: GroupNode, stages: ShardedStages, _) -> LevelPlan:
        assert node.left is not None and node.right is not None
        own[searches] += 1
        return scheme.level_plan(stages, node.left.group, node.right.group,
                                 dtype_bytes, stats)

    plan = plan_of(_walk(node, stages, None, search, scheme.name, {}, own),
                   scheme.name)
    if own[searches]:
        own.update(stats.as_dict())
    participant = current_participant()
    if participant is not None:
        participant.count(own)
    if tally is not None:
        tally.update(own)
    return plan


def stored_level(node: GroupNode, stages: ShardedStages,
                 plan: HierarchicalPlan) -> Optional[LevelPlan]:
    """Replay a stored plan: its own level, unless it lacks a child, leaves
    a layer of ``stages`` unassigned or holds a ratio outside (0, 1)."""
    level = plan.level_plan
    if level is None or plan.left is None or plan.right is None:
        return None
    layers = level.layers()
    assigned = {a.name for a in layers if 0.0 < a.alpha < 1.0}
    if len(assigned) < len(layers) or any(
            name not in assigned for name in stages.skeleton.names):
        return None
    return level


def collect_level_plans(plan: HierarchicalPlan) -> List[LevelPlan]:
    """All LevelPlans in pre-order (root split first)."""
    return [node.level_plan for _, node in plan.splits()]
